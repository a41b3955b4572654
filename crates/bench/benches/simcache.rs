//! Benchmarks for the memoized simulation layer: power-dataset
//! collection serial vs parallel, cache cold vs warm, and the cost of one
//! memo fill against the bare engine replay it wraps.
//!
//! The acceptance target is that a warm-cache `collect` is at least 2×
//! faster than a cold one — on a warm cache only the noise re-application
//! and dataset assembly remain. A fill replays its trace once on a fresh
//! engine, so it should cost what the bare replay costs (ratio ≈ 1); any
//! pass before the replay pulls the ratio below 1.

use gemstone_bench::{write_bench_json, BenchRecord, Timer};
use gemstone_platform::board::OdroidXu3;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::simcache::SimCache;
use gemstone_powmon::dataset;
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::configs::cortex_a15_hw;
use gemstone_uarch::grid::GridBackend;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::suites;
use gemstone_workloads::trace::TraceCache;
use std::sync::Arc;

/// Alternating fill/bare pairs behind the fill record (medians).
const FILL_PAIRS: usize = 5;

fn bench_specs() -> Vec<WorkloadSpec> {
    [
        "mi-sha",
        "mi-crc32",
        "mi-fft",
        "whet-whetstone",
        "dhry-dhrystone",
        "mi-dijkstra",
        "mi-bitcount",
        "lm-bw-mem-rd",
    ]
    .iter()
    .map(|n| suites::by_name(n).unwrap().scaled(0.02))
    .collect()
}

/// A board whose cache is private to the returned instance and empty, so
/// every engine run is a miss.
fn cold_board() -> OdroidXu3 {
    let mut board = OdroidXu3::new();
    board.cache = Arc::new(SimCache::new());
    board
}

fn simcache_benches(t: &Timer) {
    let specs = bench_specs();
    let freqs = [600.0e6, 1000.0e6];

    t.bench_batched("powmon_collect/cold_serial", cold_board, |board| {
        dataset::collect_with_threads(&board, Cluster::BigA15, &specs, &freqs, 1)
    });

    t.bench_batched("powmon_collect/cold_parallel4", cold_board, |board| {
        dataset::collect_with_threads(&board, Cluster::BigA15, &specs, &freqs, 4)
    });

    // Warm: one shared cache, pre-populated outside the timed region.
    let warm = cold_board();
    dataset::collect_with_threads(&warm, Cluster::BigA15, &specs, &freqs, 1);

    t.bench("powmon_collect/warm_serial", || {
        dataset::collect_with_threads(&warm, Cluster::BigA15, &specs, &freqs, 1)
    });

    t.bench("powmon_collect/warm_parallel4", || {
        dataset::collect_with_threads(&warm, Cluster::BigA15, &specs, &freqs, 4)
    });

    // Trajectory records: one timed pass each for the cold serial
    // baseline, the parallel cold collect, and the warm re-collect
    // (speedups relative to cold serial — the ≥2× warm target).
    let timed = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let cold_serial = timed(&mut || {
        dataset::collect_with_threads(&cold_board(), Cluster::BigA15, &specs, &freqs, 1);
    });
    let cold_parallel = timed(&mut || {
        dataset::collect_with_threads(&cold_board(), Cluster::BigA15, &specs, &freqs, 4);
    });
    let warm_serial = timed(&mut || {
        dataset::collect_with_threads(&warm, Cluster::BigA15, &specs, &freqs, 1);
    });
    // Fill layer: a cold `execute_grid_with` over full-scale mi-fft's
    // A15 DVFS column against the bare replay of the same packed trace on
    // a fresh engine. The trace is packed before either is timed, so both
    // time the replay alone.
    let fft = suites::by_name("mi-fft").unwrap();
    let cfg = cortex_a15_hw();
    let column = Cluster::BigA15.frequencies();
    let tier = TierConfig::approx();
    let traces = TraceCache::new();
    let trace = traces.get(&fft).expect("trace cache enabled");
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut fill, mut bare) = (Vec::new(), Vec::new());
    for _ in 0..FILL_PAIRS {
        fill.push(timed(&mut || {
            SimCache::execute_grid_with(&traces, &cfg, &fft, column, tier);
        }));
        bare.push(timed(&mut || {
            let mut backend = GridBackend::new(tier, &cfg, column, fft.threads, fft.derived_seed());
            trace.run_grid(&mut backend);
        }));
    }
    let (fill, bare) = (median(fill), median(bare));
    let records = vec![
        BenchRecord::new("simcache", "cold_serial".to_string(), cold_serial, 1.0),
        BenchRecord::new(
            "simcache",
            "cold_parallel4".to_string(),
            cold_parallel,
            cold_serial / cold_parallel.max(1e-9),
        ),
        BenchRecord::new(
            "simcache",
            "warm_serial".to_string(),
            warm_serial,
            cold_serial / warm_serial.max(1e-9),
        ),
        BenchRecord::new(
            "simcache",
            "fill/a15/approx".to_string(),
            fill,
            bare / fill.max(1e-9),
        ),
    ];
    write_bench_json("BENCH_simcache.json", &records).expect("write BENCH_simcache.json");
}

fn main() {
    let t = Timer::from_args();
    simcache_benches(&t);
}
