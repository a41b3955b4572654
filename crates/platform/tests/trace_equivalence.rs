//! Grid-level determinism contract of the trace layer: for every
//! (spec, configuration, frequency) tuple, replaying a shared packed trace
//! must produce results bit-identical to direct stream generation — and to
//! cold, warm and cache-disabled `SimCache` paths. A `SimCache` fill is
//! exactly one replay on a fresh engine, with no pass before it.

use gemstone_platform::simcache::SimCache;
use gemstone_uarch::backend::{SampleParams, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, ex5_little, Ex5Variant};
use gemstone_uarch::core::CoreConfig;
use gemstone_uarch::grid::GridBackend;
use gemstone_workloads::suites;
use gemstone_workloads::trace::{PackedTrace, TraceCache};
use std::sync::Arc;

fn grid_configs() -> Vec<CoreConfig> {
    vec![
        cortex_a15_hw(),
        cortex_a7_hw(),
        ex5_big(Ex5Variant::Old),
        ex5_big(Ex5Variant::Fixed),
        ex5_little(),
    ]
}

#[test]
fn trace_path_equals_iterator_path_over_grid() {
    let specs: Vec<_> = [
        "mi-sha",
        "mi-fft",
        "par-basicmath-rad2deg",
        "parsec-ferret-4",
    ]
    .iter()
    .map(|n| suites::by_name(n).unwrap().scaled(0.02))
    .collect();
    let traces = TraceCache::new();
    let no_traces = TraceCache::with_budget(0);
    for spec in &specs {
        for cfg in grid_configs() {
            for &freq in &[600.0e6, 1.0e9, 1.8e9] {
                let replayed = SimCache::execute_with(&traces, &cfg, spec, freq);
                let generated = SimCache::execute_with(&no_traces, &cfg, spec, freq);
                assert_eq!(
                    replayed.seconds, generated.seconds,
                    "{} / {} / {freq}",
                    spec.name, cfg.name
                );
                assert_eq!(
                    replayed.stats.gem5_stats_map(),
                    generated.stats.gem5_stats_map(),
                    "{} / {} / {freq}",
                    spec.name,
                    cfg.name
                );
            }
        }
    }
    // The whole grid generated each spec exactly once.
    assert_eq!(traces.misses(), specs.len() as u64);
    assert_eq!(no_traces.misses(), 0);
}

#[test]
fn cold_warm_and_disabled_simcache_agree_with_traces_on() {
    let spec = suites::by_name("mi-bitcount").unwrap().scaled(0.05);
    let cfg = cortex_a15_hw();
    let shared = Arc::new(TraceCache::new());
    let warm_cache = SimCache::with_trace_cache(shared.clone());
    let cold = warm_cache.run(&cfg, &spec, 1.0e9);
    let warm = warm_cache.run(&cfg, &spec, 1.0e9);
    let disabled = SimCache::disabled().run(&cfg, &spec, 1.0e9);
    let untraced = SimCache::execute_with(&TraceCache::with_budget(0), &cfg, &spec, 1.0e9);
    for other in [&warm, &disabled, &untraced] {
        assert_eq!(cold.seconds, other.seconds);
        assert_eq!(cold.stats.gem5_stats_map(), other.stats.gem5_stats_map());
    }
}

#[test]
fn simcache_fill_is_one_replay_on_a_fresh_engine() {
    let freqs = [0.6e9, 1.8e9];
    let traces = TraceCache::new();
    let no_traces = TraceCache::with_budget(0);
    for name in ["mi-fft", "parsec-ferret-4"] {
        let spec = suites::by_name(name).unwrap().scaled(0.02);
        let trace = PackedTrace::from_spec(&spec);
        for cfg in [cortex_a15_hw(), ex5_big(Ex5Variant::Old)] {
            for tier in [
                TierConfig::approx(),
                TierConfig::sampled(SampleParams::default()),
            ] {
                let mut fresh =
                    GridBackend::new(tier, &cfg, &freqs, spec.threads, spec.derived_seed());
                let want = trace.run_grid(&mut fresh);
                // Packed-trace fill, then the StreamGen fill of a disabled
                // trace cache, which misses every lookup.
                for (path, cache) in [("trace", &traces), ("stream", &no_traces)] {
                    let got = SimCache::execute_grid_with(cache, &cfg, &spec, &freqs, tier);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        let at = format!("{name} / {} / {tier:?} / {path}", cfg.name);
                        assert_eq!(g.seconds.to_bits(), w.seconds.to_bits(), "{at}");
                        assert_eq!(g.stats.gem5_stats_map(), w.stats.gem5_stats_map(), "{at}");
                    }
                }
            }
        }
    }
}
