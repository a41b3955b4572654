//! A shared, concurrent simulation-result cache.
//!
//! The cycle-level engine is deterministic: for a given (workload
//! specification, core configuration, frequency, seed) tuple it always
//! produces the same statistics (see the determinism tests in
//! [`crate::board`] and [`crate::gem5sim`]). The GemStone pipeline drives
//! the engine over heavily overlapping operating-point grids — the
//! validation sweep, the two per-cluster power sweeps and the
//! model-improvement loop all revisit the same tuples — so the engine
//! result is memoised here and the (seeded, per-call) measurement noise is
//! applied *outside* the cache. All externally observable values stay
//! bit-identical whether the cache is cold, warm, or disabled.
//!
//! The cache key is a 128-bit fingerprint over the full workload
//! specification, the full core configuration, the frequency bits and the
//! workload's derived seed, so two configurations that differ in any field
//! — even when reported under the same model name — never share an entry.
//!
//! The map is sharded: each shard is an independent
//! [`RwLock`]-protected hash map, so concurrent sweeps mostly
//! touch different locks. Within one shard, a per-entry [`OnceLock`]
//! guarantees that every tuple is simulated **exactly once** even when
//! several worker threads request it simultaneously — the losers of the
//! race block on the winner's result instead of re-running the engine.
//!
//! Cold runs consult the process-wide
//! [`TraceCache`](gemstone_workloads::trace::TraceCache): a workload's
//! instruction stream depends only on its spec, so one packed trace is
//! generated per spec and replayed for every (configuration, frequency)
//! tuple and thread. Replay is bit-identical to direct generation (see the
//! determinism contract in [`gemstone_workloads::trace`]), so results stay
//! unchanged whether the trace cache is enabled, cold, warm, or disabled.
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::simcache::SimCache;
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_workloads::suites;
//!
//! let cache = SimCache::new();
//! let spec = suites::by_name("mi-sha").unwrap().scaled(0.05);
//! let cold = cache.run(&cortex_a15_hw(), &spec, 1.0e9);
//! let warm = cache.run(&cortex_a15_hw(), &spec, 1.0e9);
//! assert_eq!(cold.seconds, warm.seconds);
//! assert_eq!((cache.misses(), cache.hits()), (1, 1));
//! ```

use gemstone_obs::registry::log2_time_bounds;
use gemstone_obs::{Counter, Histogram, Registry};
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::core::CoreConfig;
use gemstone_uarch::grid::GridBackend;
use gemstone_uarch::stats::SimStats;
use gemstone_workloads::gen::StreamGen;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::trace::TraceCache;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Number of independent shards (power of two).
const SHARD_COUNT: usize = 16;

/// Environment variable disabling fused grid replay when set to `0`:
/// [`SimCache::run_grid`] then falls back to one [`SimCache::run_tier`]
/// call per frequency. Results are bit-identical either way (the CI grid
/// smoke compares the two paths byte-for-byte); the knob exists for that
/// comparison and as an escape hatch.
pub const GRID_ENV: &str = "GEMSTONE_GRID";

/// Whether fused grid replay is enabled (cached on first read).
fn grid_replay_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var(GRID_ENV).map_or(true, |v| v.trim() != "0"))
}

/// A 128-bit fingerprint of one (workload spec, core config, frequency,
/// seed) simulation tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    hi: u64,
    lo: u64,
}

/// The noise-free result of one engine run: everything the board and the
/// gem5 driver derive their outputs from.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Full engine statistics.
    pub stats: SimStats,
}

/// One cache entry; the [`OnceLock`] serialises concurrent fills so every
/// key is computed exactly once.
#[derive(Default)]
struct Slot {
    cell: OnceLock<SimOutcome>,
}

/// A shared, concurrent, sharded memo of engine results.
///
/// Cheap to share via [`Arc`]; see [`SimCache::global`] for the
/// process-wide instance used by default.
pub struct SimCache {
    shards: Vec<RwLock<HashMap<SimKey, Arc<Slot>>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    grid_fills: Arc<Counter>,
    lookup_seconds: Arc<Histogram>,
    sim_seconds: Arc<Histogram>,
    enabled: AtomicBool,
    traces: Arc<TraceCache>,
}

/// A consistent view of one cache's counters, read as a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that executed the engine.
    pub misses: u64,
    /// Memoised entries at snapshot time.
    pub entries: usize,
}

static GLOBAL: OnceLock<Arc<SimCache>> = OnceLock::new();

impl SimCache {
    /// Creates an empty, enabled cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// Creates a cache that never stores or returns entries — every
    /// [`SimCache::run`] executes the engine directly. Useful for
    /// bypass/equivalence tests and cold benchmarks.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        SimCache {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            // Detached handles: per-instance caches (tests, benches) keep
            // isolated counts; only `global()` registers the canonical
            // `simcache.*` names.
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            grid_fills: Arc::new(Counter::new()),
            lookup_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
            sim_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
            enabled: AtomicBool::new(enabled),
            traces: TraceCache::global(),
        }
    }

    /// Creates an enabled cache drawing packed traces from `traces`
    /// instead of the process-wide [`TraceCache::global`]. Pass a
    /// `TraceCache::with_budget(0)` to force direct stream generation
    /// (cold benchmarks, bypass tests).
    pub fn with_trace_cache(traces: Arc<TraceCache>) -> Self {
        let mut cache = Self::with_enabled(true);
        cache.traces = traces;
        cache
    }

    /// The trace cache consulted by this simulation cache.
    pub fn trace_cache(&self) -> &Arc<TraceCache> {
        &self.traces
    }

    /// The process-wide shared cache. The board and the gem5 driver use
    /// this instance unless given another one, so the validation sweep,
    /// the power sweeps and ad-hoc runs all share one memo.
    pub fn global() -> Arc<SimCache> {
        GLOBAL
            .get_or_init(|| {
                let mut cache = SimCache::new();
                let registry = Registry::global();
                cache.hits = registry.counter("simcache.hits");
                cache.misses = registry.counter("simcache.misses");
                cache.grid_fills = registry.counter("simcache.grid_fills");
                cache.lookup_seconds =
                    registry.histogram("simcache.lookup.seconds", log2_time_bounds());
                cache.sim_seconds = registry.histogram("sim.run.seconds", log2_time_bounds());
                Arc::new(cache)
            })
            .clone()
    }

    /// Fingerprints one simulation tuple at the default (cycle-approximate)
    /// fidelity tier.
    pub fn fingerprint(spec: &WorkloadSpec, cfg: &CoreConfig, freq_hz: f64) -> SimKey {
        Self::fingerprint_tier(spec, cfg, freq_hz, TierConfig::default())
    }

    /// Fingerprints one simulation tuple. The fingerprint covers every
    /// field of the spec and the configuration (via their canonical debug
    /// renderings), the exact frequency bits, the derived seed and the
    /// fidelity tier — results from different tiers never share an entry.
    /// The tier is canonicalised first, so sampling-geometry knobs do not
    /// churn atomic or approximate keys.
    pub fn fingerprint_tier(
        spec: &WorkloadSpec,
        cfg: &CoreConfig,
        freq_hz: f64,
        tier: TierConfig,
    ) -> SimKey {
        use std::hash::{Hash, Hasher};
        let repr = format!(
            "{spec:?}\u{1f}{cfg:?}\u{1f}{}\u{1f}{}\u{1f}{:?}",
            freq_hz.to_bits(),
            spec.derived_seed(),
            tier.canonical()
        );
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        repr.hash(&mut sip);
        SimKey {
            hi: fnv1a(repr.as_bytes()),
            lo: sip.finish(),
        }
    }

    /// Runs the engine for one tuple at the default (cycle-approximate)
    /// fidelity tier — or returns the memoised result.
    pub fn run(&self, cfg: &CoreConfig, spec: &WorkloadSpec, freq_hz: f64) -> SimOutcome {
        self.run_tier(cfg, spec, freq_hz, TierConfig::default())
    }

    /// Runs the selected fidelity tier for one tuple — or returns the
    /// memoised result.
    ///
    /// The first caller for a key executes the backend; concurrent callers
    /// for the same key block on that execution rather than duplicating
    /// it. When the cache is disabled the backend always runs. The tier is
    /// part of the cache identity, so a warm approximate entry is never
    /// returned for an atomic or sampled request (and vice versa).
    pub fn run_tier(
        &self,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freq_hz: f64,
        tier: TierConfig,
    ) -> SimOutcome {
        let tier = tier.canonical();
        if !self.enabled.load(Ordering::Relaxed) {
            let sim_start = Instant::now();
            let out = Self::execute_tier_with(&self.traces, cfg, spec, freq_hz, tier);
            self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
            return out;
        }
        // Lookup latency covers fingerprinting plus the shard probe —
        // not the engine run a miss goes on to pay (that lands in
        // `sim.run.seconds`).
        let lookup_start = Instant::now();
        let key = Self::fingerprint_tier(spec, cfg, freq_hz, tier);
        let shard = &self.shards[(key.hi as usize) & (SHARD_COUNT - 1)];
        let slot = {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).cloned()
        };
        let slot = match slot {
            Some(slot) => slot,
            None => shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default()
                .clone(),
        };
        self.lookup_seconds
            .observe(lookup_start.elapsed().as_secs_f64());
        let mut computed = false;
        let out = slot
            .cell
            .get_or_init(|| {
                computed = true;
                let sim_start = Instant::now();
                let out = Self::execute_tier_with(&self.traces, cfg, spec, freq_hz, tier);
                self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
                out
            })
            .clone();
        if computed {
            self.misses.inc();
        } else {
            self.hits.inc();
        }
        out
    }

    /// Runs an entire frequency column for one (config, workload, tier)
    /// from a single fused grid replay — or from the memo where lanes are
    /// already warm. Returns one outcome per entry of `freqs_hz`, in
    /// order, each bit-identical to [`SimCache::run_tier`] at that
    /// frequency.
    ///
    /// Lanes already memoised count as hits; the remaining lanes are
    /// filled by **one** [`GridBackend`] replay (counted per filled entry
    /// in `simcache.grid_fills`) and count as misses, preserving the
    /// "misses == entries created" reading. Exactly-once semantics are
    /// preserved per entry: each lane's [`OnceLock`] either installs the
    /// fused result or yields to a concurrent winner's bit-identical
    /// value, and concurrent per-frequency callers block on the fill
    /// instead of re-running the engine. The tier is part of each lane's
    /// identity, so a grid fill never serves another tier's request.
    ///
    /// Setting [`GRID_ENV`] (`GEMSTONE_GRID=0`) disables fusion: the
    /// column is then served by per-frequency [`SimCache::run_tier`]
    /// calls. A disabled cache still fuses the replay — it just skips the
    /// memo.
    pub fn run_grid(
        &self,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
        tier: TierConfig,
    ) -> Vec<SimOutcome> {
        let tier = tier.canonical();
        if freqs_hz.is_empty() {
            return Vec::new();
        }
        if !grid_replay_enabled() {
            return freqs_hz
                .iter()
                .map(|&f| self.run_tier(cfg, spec, f, tier))
                .collect();
        }
        if !self.enabled.load(Ordering::Relaxed) {
            let sim_start = Instant::now();
            let out = Self::execute_grid_with(&self.traces, cfg, spec, freqs_hz, tier);
            self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
            return out;
        }
        // One lookup observation per column scan: fingerprint + shard
        // probe for every lane, before any engine work.
        let lookup_start = Instant::now();
        let slots: Vec<Arc<Slot>> = freqs_hz
            .iter()
            .map(|&f| {
                let key = Self::fingerprint_tier(spec, cfg, f, tier);
                let shard = &self.shards[(key.hi as usize) & (SHARD_COUNT - 1)];
                let slot = {
                    let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                    map.get(&key).cloned()
                };
                match slot {
                    Some(slot) => slot,
                    None => shard
                        .write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .entry(key)
                        .or_default()
                        .clone(),
                }
            })
            .collect();
        self.lookup_seconds
            .observe(lookup_start.elapsed().as_secs_f64());
        // The frequencies still unfilled at scan time; one fused replay
        // covers exactly these lanes, computed lazily so an all-warm
        // column never replays and a concurrent winner can still beat us
        // to individual entries (their value is bit-identical).
        let missing: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].cell.get().is_none())
            .collect();
        let missing_freqs: Vec<f64> = missing.iter().map(|&i| freqs_hz[i]).collect();
        let mut fused: Option<Vec<SimOutcome>> = None;
        let mut out = Vec::with_capacity(freqs_hz.len());
        for (i, slot) in slots.iter().enumerate() {
            let mut computed = false;
            let o = slot
                .cell
                .get_or_init(|| {
                    computed = true;
                    let pos = missing
                        .iter()
                        .position(|&m| m == i)
                        .expect("a filled-at-scan lane cannot re-enter its OnceLock");
                    fused.get_or_insert_with(|| {
                        let sim_start = Instant::now();
                        let out =
                            Self::execute_grid_with(&self.traces, cfg, spec, &missing_freqs, tier);
                        self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
                        out
                    })[pos]
                        .clone()
                })
                .clone();
            if computed {
                self.misses.inc();
                self.grid_fills.inc();
            } else {
                self.hits.inc();
            }
            out.push(o);
        }
        out
    }

    /// Executes the engine directly at the default fidelity tier,
    /// bypassing the result memo (the process-wide trace cache still
    /// serves the instruction stream).
    pub fn execute(cfg: &CoreConfig, spec: &WorkloadSpec, freq_hz: f64) -> SimOutcome {
        Self::execute_with(&TraceCache::global(), cfg, spec, freq_hz)
    }

    /// Executes the engine directly at the default fidelity tier,
    /// replaying the packed trace from `traces` when available and
    /// generating the stream otherwise (the two paths are bit-identical).
    pub fn execute_with(
        traces: &TraceCache,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freq_hz: f64,
    ) -> SimOutcome {
        Self::execute_tier_with(traces, cfg, spec, freq_hz, TierConfig::default())
    }

    /// Executes the selected fidelity tier directly at one frequency,
    /// bypassing the result memo: a one-lane
    /// [`SimCache::execute_grid_with`].
    pub fn execute_tier_with(
        traces: &TraceCache,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freq_hz: f64,
        tier: TierConfig,
    ) -> SimOutcome {
        Self::execute_grid_with(traces, cfg, spec, &[freq_hz], tier).remove(0)
    }

    /// Executes one grid replay directly, bypassing the result memo: the
    /// trace is decoded once and every frequency in `freqs_hz` is
    /// simulated as a lane of the same pass. Returns one outcome per
    /// frequency, in order, each bit-identical to a one-lane replay at
    /// that frequency. Packed traces take the tier's fastest replay path
    /// (see [`PackedTrace::run_grid`](gemstone_workloads::trace::PackedTrace::run_grid));
    /// direct generation streams every instruction. The two paths are
    /// bit-identical for every tier. The engine starts cold and the stream
    /// is decoded and simulated once.
    pub fn execute_grid_with(
        traces: &TraceCache,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
        tier: TierConfig,
    ) -> Vec<SimOutcome> {
        let mut backend = GridBackend::new(tier, cfg, freqs_hz, spec.threads, spec.derived_seed());
        let results = match traces.get(spec) {
            Some(trace) => trace.run_grid(&mut backend),
            None => backend.run_stream(StreamGen::new(spec)),
        };
        results
            .into_iter()
            .map(|result| SimOutcome {
                seconds: result.seconds,
                stats: result.stats,
            })
            .collect()
    }

    /// Number of lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that executed the engine (= entries created).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of entries installed by fused grid replays (a subset of
    /// [`SimCache::misses`]: every grid fill is also a miss).
    pub fn grid_fills(&self) -> u64 {
        self.grid_fills.get()
    }

    /// Reads the hit/miss counters as a consistent pair: the pair is
    /// re-read until two consecutive reads agree, so a snapshot taken
    /// while other threads are completing lookups never pairs a hit count
    /// from one instant with a miss count from another.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut prev = (self.hits(), self.misses());
        loop {
            let cur = (self.hits(), self.misses());
            if cur == prev {
                return CacheSnapshot {
                    hits: cur.0,
                    misses: cur.1,
                    entries: self.len(),
                };
            }
            prev = cur;
        }
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the hit/miss counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        self.hits.reset();
        self.misses.reset();
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use gemstone_workloads::suites;

    fn spec(name: &str) -> WorkloadSpec {
        suites::by_name(name).unwrap().scaled(0.05)
    }

    #[test]
    fn warm_result_is_bit_identical_to_cold_and_bypassed() {
        let cache = SimCache::new();
        let s = spec("mi-fft");
        let cold = cache.run(&cortex_a15_hw(), &s, 1.0e9);
        let warm = cache.run(&cortex_a15_hw(), &s, 1.0e9);
        let direct = SimCache::execute(&cortex_a15_hw(), &s, 1.0e9);
        assert_eq!(cold.seconds, warm.seconds);
        assert_eq!(cold.seconds, direct.seconds);
        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.stats.cycles, direct.stats.cycles);
        assert_eq!(
            cold.stats.committed_instructions,
            direct.stats.committed_instructions
        );
    }

    #[test]
    fn counters_track_misses_then_hits() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        for _ in 0..3 {
            cache.run(&cortex_a7_hw(), &s, 600.0e6);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.entries), (2, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.snapshot().hits, 0);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = SimCache::disabled();
        let s = spec("mi-sha");
        let a = cache.run(&cortex_a15_hw(), &s, 1.0e9);
        let b = cache.run(&cortex_a15_hw(), &s, 1.0e9);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(cache.len(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn key_separates_spec_config_and_frequency() {
        let a = SimCache::fingerprint(&spec("mi-sha"), &cortex_a15_hw(), 1.0e9);
        assert_eq!(
            a,
            SimCache::fingerprint(&spec("mi-sha"), &cortex_a15_hw(), 1.0e9)
        );
        assert_ne!(
            a,
            SimCache::fingerprint(&spec("mi-fft"), &cortex_a15_hw(), 1.0e9)
        );
        assert_ne!(
            a,
            SimCache::fingerprint(&spec("mi-sha"), &cortex_a7_hw(), 1.0e9)
        );
        assert_ne!(
            a,
            SimCache::fingerprint(&spec("mi-sha"), &cortex_a15_hw(), 1.4e9)
        );
        // Two configs that differ only in internal fields (same cluster)
        // still get distinct keys.
        assert_ne!(
            SimCache::fingerprint(&spec("mi-sha"), &ex5_big(Ex5Variant::Old), 1.0e9),
            SimCache::fingerprint(&spec("mi-sha"), &ex5_big(Ex5Variant::Fixed), 1.0e9)
        );
    }

    #[test]
    fn concurrent_requests_execute_each_tuple_once() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for &f in [600.0e6, 1.0e9].iter() {
                        cache.run(&cortex_a15_hw(), &s, f);
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 2, "each tuple simulated exactly once");
        assert_eq!(cache.hits(), 14);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn global_cache_is_shared() {
        let a = SimCache::global();
        let b = SimCache::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn trace_replay_is_bit_identical_to_direct_generation() {
        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        let traced = SimCache::execute_with(&TraceCache::new(), &cfg, &s, 1.0e9);
        let direct = SimCache::execute_with(&TraceCache::with_budget(0), &cfg, &s, 1.0e9);
        assert_eq!(traced.seconds, direct.seconds);
        assert_eq!(traced.stats.cycles, direct.stats.cycles);
        assert_eq!(traced.stats.gem5_stats_map(), direct.stats.gem5_stats_map());
    }

    #[test]
    fn tiers_never_share_cache_entries() {
        use gemstone_uarch::backend::{Fidelity, SampleParams};

        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        let tiers = [
            TierConfig::atomic(),
            TierConfig::approx(),
            TierConfig::sampled(SampleParams::default()),
        ];
        let mut results = Vec::new();
        for &tier in &tiers {
            results.push(cache.run_tier(&cfg, &s, 1.0e9, tier));
        }
        // Three distinct entries: a warm run at one tier never serves
        // another tier's request.
        assert_eq!(cache.misses(), 3, "one engine execution per tier");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 3);
        for (tier, out) in tiers.iter().zip(&results) {
            assert_eq!(
                out.stats.fidelity, tier.fidelity,
                "result tagged with its tier"
            );
            let warm = cache.run_tier(&cfg, &s, 1.0e9, *tier);
            assert_eq!(warm.stats.cycles, out.stats.cycles);
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3, "warm re-runs never re-execute");
        // The legacy entry points are the approximate tier.
        let legacy = cache.run(&cfg, &s, 1.0e9);
        assert_eq!(cache.misses(), 3, "run() shares the approx entry");
        assert_eq!(legacy.stats.fidelity, Fidelity::Approx);
    }

    #[test]
    fn tier_keys_are_distinct_but_sample_knobs_only_affect_sampled() {
        use gemstone_uarch::backend::SampleParams;

        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        let approx = SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::approx());
        let atomic = SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::atomic());
        let sampled = SimCache::fingerprint_tier(
            &s,
            &cfg,
            1.0e9,
            TierConfig::sampled(SampleParams::default()),
        );
        assert_ne!(approx, atomic);
        assert_ne!(approx, sampled);
        assert_ne!(atomic, sampled);
        assert_eq!(approx, SimCache::fingerprint(&s, &cfg, 1.0e9));
        // Sampling geometry is part of the sampled key only.
        let wide = SampleParams {
            interval: 10_000,
            ..SampleParams::default()
        };
        assert_ne!(
            sampled,
            SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::sampled(wide))
        );
        let mut approx_with_knobs = TierConfig::approx();
        approx_with_knobs.sample = wide;
        assert_eq!(
            approx,
            SimCache::fingerprint_tier(&s, &cfg, 1.0e9, approx_with_knobs),
            "canonicalisation collapses sample knobs for non-sampled tiers"
        );
    }

    #[test]
    fn run_fills_the_trace_cache_once_per_spec() {
        let traces = Arc::new(TraceCache::new());
        let cache = SimCache::with_trace_cache(traces.clone());
        let s = spec("mi-sha");
        for &f in &[600.0e6, 1.0e9] {
            cache.run(&cortex_a15_hw(), &s, f);
            cache.run(&cortex_a7_hw(), &s, f);
        }
        // Four (config, freq) tuples, one generation; the rest replayed.
        assert_eq!(traces.misses(), 1);
        assert_eq!(traces.hits(), 3);
        assert!(Arc::ptr_eq(cache.trace_cache(), &traces));
    }

    const FREQS: [f64; 4] = [600.0e6, 1.0e9, 1.4e9, 1.8e9];

    #[test]
    fn grid_fills_whole_column_from_one_replay() {
        use gemstone_uarch::backend::SampleParams;

        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        for tier in [
            TierConfig::atomic(),
            TierConfig::approx(),
            TierConfig::sampled(SampleParams::default()),
        ] {
            let cache = SimCache::new();
            let column = cache.run_grid(&cfg, &s, &FREQS, tier);
            assert_eq!(column.len(), FREQS.len());
            assert_eq!(cache.misses(), FREQS.len() as u64);
            assert_eq!(cache.grid_fills(), FREQS.len() as u64);
            assert_eq!(cache.hits(), 0);
            assert_eq!(cache.len(), FREQS.len());
            // Each lane is bit-identical to the per-frequency entry and a
            // warm per-frequency lookup hits the grid-installed slot.
            for (&f, out) in FREQS.iter().zip(&column) {
                let warm = cache.run_tier(&cfg, &s, f, tier);
                assert_eq!(warm.seconds, out.seconds);
                assert_eq!(warm.stats.gem5_stats_map(), out.stats.gem5_stats_map());
            }
            assert_eq!(cache.misses(), FREQS.len() as u64, "column fully warm");
            assert_eq!(cache.hits(), FREQS.len() as u64);
        }
    }

    #[test]
    fn grid_is_bit_identical_to_per_frequency_runs() {
        let s = spec("mi-sha");
        for cfg in [cortex_a15_hw(), cortex_a7_hw()] {
            let fused = SimCache::new().run_grid(&cfg, &s, &FREQS, TierConfig::approx());
            let reference = SimCache::new();
            for (&f, out) in FREQS.iter().zip(&fused) {
                let single = reference.run_tier(&cfg, &s, f, TierConfig::approx());
                assert_eq!(single.seconds, out.seconds);
                assert_eq!(single.stats.gem5_stats_map(), out.stats.gem5_stats_map());
            }
        }
    }

    #[test]
    fn grid_reuses_warm_lanes_and_replays_only_the_gap() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        let cfg = cortex_a7_hw();
        // Pre-warm two of the four lanes through the scalar path.
        let warm_a = cache.run_tier(&cfg, &s, FREQS[1], TierConfig::approx());
        let warm_b = cache.run_tier(&cfg, &s, FREQS[3], TierConfig::approx());
        assert_eq!((cache.misses(), cache.grid_fills()), (2, 0));
        let column = cache.run_grid(&cfg, &s, &FREQS, TierConfig::approx());
        assert_eq!(cache.misses(), 4, "only the two cold lanes executed");
        assert_eq!(cache.grid_fills(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(column[1].stats.cycles, warm_a.stats.cycles);
        assert_eq!(column[3].stats.cycles, warm_b.stats.cycles);
        // The partially-fused column still matches fresh scalar runs.
        for (&f, out) in FREQS.iter().zip(&column) {
            let single = SimCache::execute_tier_with(
                &TraceCache::global(),
                &cfg,
                &s,
                f,
                TierConfig::approx(),
            );
            assert_eq!(single.stats.gem5_stats_map(), out.stats.gem5_stats_map());
        }
    }

    #[test]
    fn grid_never_crosses_tiers() {
        use gemstone_uarch::backend::{Fidelity, SampleParams};

        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        // Warm the approx column, then ask for the same frequencies at the
        // other tiers: every lane must be a fresh fill, never an approx hit.
        cache.run_grid(&cfg, &s, &FREQS, TierConfig::approx());
        assert_eq!(cache.misses(), 4);
        let atomic = cache.run_grid(&cfg, &s, &FREQS, TierConfig::atomic());
        assert_eq!(cache.misses(), 8, "atomic column never hits approx lanes");
        assert_eq!(cache.hits(), 0);
        let sampled = cache.run_grid(
            &cfg,
            &s,
            &FREQS,
            TierConfig::sampled(SampleParams::default()),
        );
        assert_eq!(cache.misses(), 12, "sampled column never hits either");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.grid_fills(), 12);
        assert_eq!(cache.len(), 12);
        for out in &atomic {
            assert_eq!(out.stats.fidelity, Fidelity::Atomic);
        }
        for out in &sampled {
            assert_eq!(out.stats.fidelity, Fidelity::Sampled);
        }
    }

    #[test]
    fn grid_on_disabled_cache_stays_fused_but_unmemoised() {
        let cache = SimCache::disabled();
        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        let column = cache.run_grid(&cfg, &s, &FREQS, TierConfig::approx());
        assert_eq!(column.len(), FREQS.len());
        assert_eq!(cache.len(), 0);
        assert_eq!(
            (cache.hits(), cache.misses(), cache.grid_fills()),
            (0, 0, 0)
        );
        let direct = SimCache::execute_grid_with(
            &TraceCache::global(),
            &cfg,
            &s,
            &FREQS,
            TierConfig::approx(),
        );
        for (a, b) in column.iter().zip(&direct) {
            assert_eq!(a.stats.gem5_stats_map(), b.stats.gem5_stats_map());
        }
    }

    #[test]
    fn grid_handles_empty_and_single_lane_columns() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a7_hw();
        assert!(cache
            .run_grid(&cfg, &s, &[], TierConfig::approx())
            .is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let one = cache.run_grid(&cfg, &s, &[1.0e9], TierConfig::approx());
        let scalar = SimCache::new().run_tier(&cfg, &s, 1.0e9, TierConfig::approx());
        assert_eq!(one[0].stats.gem5_stats_map(), scalar.stats.gem5_stats_map());
    }

    #[test]
    fn concurrent_grid_and_scalar_requests_execute_each_lane_once() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        let cfg = cortex_a15_hw();
        let (cache, s, cfg) = (&cache, &s, &cfg);
        std::thread::scope(|scope| {
            for i in 0..8 {
                scope.spawn(move || {
                    if i % 2 == 0 {
                        cache.run_grid(cfg, s, &FREQS, TierConfig::approx());
                    } else {
                        for &f in &FREQS {
                            cache.run_tier(cfg, s, f, TierConfig::approx());
                        }
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 4, "each lane simulated exactly once");
        assert_eq!(cache.hits(), 28);
        assert_eq!(cache.len(), 4);
        assert!(cache.grid_fills() <= 4);
    }
}
