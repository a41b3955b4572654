//! The three tier engines, each a fused multi-frequency grid.
//!
//! A DVFS sweep runs the *same* instruction stream once per frequency
//! point, yet the detailed engine consumes `freq_hz` in exactly two
//! places: the DRAM latency in core cycles
//! (`cfg.dram.access_cycles(freq_hz)`, precomputed at construction) and
//! the final cycles→seconds conversion. Every long-lived structure —
//! caches, TLBs, branch predictor, wrong-path pollution, the stochastic
//! micro-event RNG — evolves identically across the grid (see DESIGN.md
//! §11 for the full invariance argument).
//!
//! [`GridEngine`], the cycle-approximate tier, exploits that: it steps the
//! shared frequency-invariant structures **once** per instruction and
//! accumulates N per-frequency *lanes*, each carrying only its own DRAM
//! stall cost and cycle/stall accumulators. Each lane performs exactly the
//! sequence of `f64` additions a one-lane grid at that frequency performs
//! (floating-point addition is not associative, so ordering is part of
//! the contract): a K-lane replay is bit-identical to K one-lane replays.
//! A single-frequency run *is* a one-lane grid — there is no separate
//! scalar engine. The recorded bit patterns in `tests/golden_bits.rs` pin
//! every tier's results.
//!
//! [`AtomicGridEngine`] is the functional tier: its cost table is
//! frequency-independent, so one pass serves every lane.
//! [`SampledGridEngine`] is the SMARTS-style sampled tier: it shares its
//! fast-forward warming and window schedule across lanes while measuring
//! per-lane cycle deltas. [`GridBackend`] dispatches between the three.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_uarch::grid::GridEngine;
//! use gemstone_uarch::instr::{Instr, InstrClass};
//!
//! let stream: Vec<Instr> = (0..5_000)
//!     .map(|i| Instr::alu(InstrClass::IntAlu, (i % 256) * 4))
//!     .collect();
//! let freqs = [0.6e9, 1.0e9, 1.4e9, 1.8e9];
//! let mut grid = GridEngine::new(cortex_a15_hw(), &freqs, 1);
//! let fused = grid.run(stream.clone().into_iter());
//! for (&f, r) in freqs.iter().zip(&fused) {
//!     // A single-frequency run is a one-lane grid.
//!     let one = GridEngine::new(cortex_a15_hw(), &[f], 1).run(stream.clone().into_iter());
//!     assert_eq!(r.cycles.to_bits(), one[0].cycles.to_bits());
//!     assert_eq!(r.seconds.to_bits(), one[0].seconds.to_bits());
//! }
//! ```

use crate::backend::{
    record_tier_run, sampled_detailed_counter, sampled_fastforward_counter,
    sampled_windows_counter, scale_stats, Fidelity, SampleMeta, SampleParams, TierConfig,
};
use crate::branch::BranchUnit;
use crate::cache::{run_prefetch, warm_prefetch, Cache};
use crate::core::{CoreConfig, CycleSpan, Drain, SimResult};
use crate::instr::{Instr, InstrClass};
use crate::stats::{ClassCounts, SimStats, StallCycles};
use crate::tlb::{TlbHierarchy, TlbKind};
use gemstone_rng::SmallRng;
use std::sync::OnceLock;

/// Process-wide count of grid replays (`engine.grid.replays`).
fn grid_replays_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<std::sync::Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("engine.grid.replays"))
}

/// Process-wide count of frequency lanes served by grid replays
/// (`engine.grid.lanes`).
fn grid_lanes_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<std::sync::Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("engine.grid.lanes"))
}

/// Records one completed grid replay serving `lanes` frequency lanes of
/// `instructions` committed instructions each: bumps the `engine.grid.*`
/// counters and credits the `engine.*` / `engine.tier.*` accounting with
/// the `lanes` logical runs the replay stands in for. Every replay passes
/// through here — a single-frequency run counts as a one-lane replay.
pub fn record_grid_run(fidelity: Fidelity, lanes: usize, instructions: u64) {
    grid_replays_counter().inc();
    grid_lanes_counter().add(lanes as u64);
    for _ in 0..lanes {
        record_tier_run(fidelity, instructions);
    }
}

/// One replay of `stream` at `fidelity`: the per-tier obs span (with a
/// `lanes` attribute), the sequential drive loop, and the `engine.*`
/// accounting. Returns one result per lane.
fn replay<E: Drain>(
    fidelity: Fidelity,
    engine: &mut E,
    stream: impl Iterator<Item = Instr>,
) -> Vec<SimResult> {
    let _span = gemstone_obs::span::span(fidelity.span_name()).attr("lanes", engine.lane_count());
    crate::core::drive(engine, stream);
    let results = engine.finish();
    record_grid_run(
        fidelity,
        results.len(),
        results[0].stats.committed_instructions,
    );
    results
}

/// Per-frequency accumulator state: everything in the engine that
/// actually depends on `freq_hz`. The DRAM stall cost is folded into
/// `stall_fetch` (front-end fills) and `stall_memory` (data fills); every
/// other stall bucket is frequency-invariant and lives once in the shared
/// engine.
#[derive(Debug, Clone)]
struct GridLane {
    freq_hz: f64,
    dram_cycles: f64,
    // Open accumulator span since the last drain; `drained` is the
    // left-to-right sum of the spans before it. Totals are always
    // `drained` plus the open span.
    cycles: f64,
    stall_fetch: f64,
    stall_memory: f64,
    drained: CycleSpan,
}

/// The cycle-approximate trace-driven timing engine, over one or more
/// frequency lanes: steps the shared frequency-invariant structures once
/// per instruction and accumulates one cycle lane per frequency. Each
/// lane's [`SimResult`] is bit-identical to a one-lane engine's at that
/// frequency.
#[derive(Debug)]
pub struct GridEngine {
    cfg: CoreConfig,
    threads: u32,
    bu: BranchUnit,
    tlbs: TlbHierarchy,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    rng: SmallRng,
    lanes: Vec<GridLane>,
    // Shared (frequency-invariant) accumulators; `stalls.fetch` /
    // `stalls.memory` stay zero here and live per lane.
    stalls: StallCycles,
    committed: ClassCounts,
    wrong_path: ClassCounts,
    l1i_reported_accesses: u64,
    unaligned_loads: u64,
    unaligned_stores: u64,
    strex_fails: u64,
    dtlb_miss_loads: u64,
    dtlb_miss_stores: u64,
    snoops: u64,
    nonspec_stalls: u64,
    last_fetch_line: u64,
    last_data_page: u64,
    instr_since_flush: u64,
    group_fill: u32,
    // Hot-path precomputation: the per-instruction issue cost
    // (1 / effective width) and the L1D byte→line shift, so the
    // per-instruction path never divides.
    issue_cost: f64,
    l1d_line_shift: u32,
}

impl GridEngine {
    /// Builds an engine for `cfg` over the frequency lanes `freqs_hz`
    /// (one lane per entry, results emitted in the same order), running a
    /// workload with `threads` software threads (threads > 1 turns on
    /// coherence and barrier-synchronisation effects). Uses a fixed
    /// default seed; see [`GridEngine::with_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is `<= 0`, or
    /// `threads == 0`.
    pub fn new(cfg: CoreConfig, freqs_hz: &[f64], threads: u32) -> Self {
        Self::with_seed(cfg, freqs_hz, threads, 0x5EED_CAFE)
    }

    /// Like [`GridEngine::new`] with an explicit RNG seed (the RNG drives
    /// only stochastic micro-events: wrong-path page selection, coherence
    /// snoops and store-exclusive failures, all shared by every lane).
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is `<= 0`, or
    /// `threads == 0`.
    pub fn with_seed(cfg: CoreConfig, freqs_hz: &[f64], threads: u32, seed: u64) -> Self {
        assert!(!freqs_hz.is_empty(), "at least one frequency lane");
        assert!(
            freqs_hz.iter().all(|&f| f > 0.0),
            "frequencies must be positive"
        );
        assert!(threads > 0, "at least one thread");
        let bu = BranchUnit::new(
            cfg.bp.build(),
            cfg.btb_entries,
            cfg.ras_entries,
            cfg.indirect_entries,
        );
        let tlbs = TlbHierarchy::new(cfg.itlb, cfg.dtlb, cfg.l2tlb.build());
        let lanes = freqs_hz
            .iter()
            .map(|&f| GridLane {
                freq_hz: f,
                dram_cycles: cfg.dram.access_cycles(f),
                cycles: 0.0,
                stall_fetch: 0.0,
                stall_memory: 0.0,
                drained: CycleSpan::default(),
            })
            .collect();
        let eff_width = f64::from(cfg.width) * cfg.issue_efficiency;
        GridEngine {
            threads,
            bu,
            tlbs,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            rng: SmallRng::seed_from_u64(seed),
            lanes,
            stalls: StallCycles::default(),
            committed: ClassCounts::default(),
            wrong_path: ClassCounts::default(),
            l1i_reported_accesses: 0,
            unaligned_loads: 0,
            unaligned_stores: 0,
            strex_fails: 0,
            dtlb_miss_loads: 0,
            dtlb_miss_stores: 0,
            snoops: 0,
            nonspec_stalls: 0,
            last_fetch_line: u64::MAX,
            last_data_page: 0,
            instr_since_flush: 0,
            group_fill: 0,
            issue_cost: 1.0 / eff_width.max(0.25),
            l1d_line_shift: cfg.l1d.line_shift(),
            cfg,
        }
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The frequency of lane `i` in Hz.
    pub fn lane_freq(&self, i: usize) -> f64 {
        self.lanes[i].freq_hz
    }

    /// Lane `i`'s *open* cycle span — cycles since the last drain. The
    /// sampled tier reads per-instruction cycle deltas through this:
    /// deltas measured against the open span round the same way whatever
    /// the size of the drained total.
    pub(crate) fn lane_cycles(&self, i: usize) -> f64 {
        self.lanes[i].cycles
    }

    /// Folds every lane's open span (and the shared stall buckets) into
    /// the lane's drained total. Each lane's span carries the shared stall
    /// components plus its own fetch/memory buckets, mirroring how
    /// [`GridEngine::finish`] assembles per-lane stall totals.
    pub(crate) fn drain(&mut self) {
        let shared = self.stalls;
        for lane in &mut self.lanes {
            lane.drained.accumulate(&CycleSpan {
                cycles: lane.cycles,
                stalls: StallCycles {
                    fetch: lane.stall_fetch,
                    memory: lane.stall_memory,
                    ..shared
                },
            });
            lane.cycles = 0.0;
            lane.stall_fetch = 0.0;
            lane.stall_memory = 0.0;
        }
        self.stalls = StallCycles::default();
    }

    /// Runs the engine over an instruction stream and returns one result
    /// per lane, recorded as one approx-tier replay.
    pub fn run(&mut self, stream: impl Iterator<Item = Instr>) -> Vec<SimResult> {
        replay(Fidelity::Approx, self, stream)
    }

    /// Processes one instruction on every lane (the shared structures step
    /// once; each lane replays only the cycle additions).
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        self.fetch(instr);
        self.issue(instr);
        match instr.class {
            c if c.is_memory() => self.memory(instr),
            c if c.is_branch() => self.branch(instr),
            InstrClass::Barrier => self.barrier(),
            _ => {}
        }
        self.count_committed(instr.class);
    }

    /// Functional warming: advances every piece of long-lived
    /// microarchitectural state — caches, TLBs, branch predictor,
    /// fetch-line tracking, and the ITLB/L1I pollution of wrong-path fetch
    /// bursts — exactly as [`GridEngine::step`] would, but charges no
    /// cycles and records no events. The RNG is kept in lockstep with the
    /// detailed path: it is drawn for wrong-path page selection and, in
    /// multi-threaded runs, for the coherence-snoop and store-exclusive
    /// outcomes that a detailed step would roll — so an engine warmed over
    /// a prefix is state-identical (RNG included) to one that stepped it.
    /// The sampled tier drives this through fast-forward phases; the
    /// warmed structures are all shared, so one pass serves every lane.
    #[inline]
    pub fn warm_state(&mut self, instr: &Instr) {
        // An instruction is never both a memory op and a branch, so adding
        // the data side after the front end keeps the detailed path's RNG
        // draw order.
        self.warm_frontend(instr);
        let (true, Some(mem)) = (instr.class.is_memory(), instr.mem) else {
            return;
        };
        self.last_data_page = mem.page();
        self.tlbs.warm(TlbKind::Data, mem.page());
        let line = mem.vaddr >> self.l1d_line_shift;
        if mem.unaligned {
            self.l1d.warm(line + 1, mem.is_store);
        }
        let a = self.l1d.warm(line, mem.is_store);
        if !a.hit {
            self.warm_level2(line, mem.is_store);
        }
        if let Some(victim) = a.writeback_line {
            self.l2.warm(victim, true);
        }
        // Keep the RNG in lockstep with the detailed path's stochastic
        // micro-events (same draw conditions, same order; outcomes charge
        // no cycles here).
        if mem.shared && self.threads > 1 {
            let _ = self.rng.next_f64();
        }
        if instr.class == InstrClass::StoreExclusive && self.threads > 1 {
            let _ = self.rng.next_f64();
        }
    }

    /// Front-end half of [`GridEngine::warm_state`]: advances the periodic
    /// ITLB flush cadence, fetch-line and fetch-group phase, ITLB and L1I
    /// (including their L2 fills and prefetch triggers), the branch
    /// predictor, and the wrong-path pollution of mispredicted branches
    /// (same RNG draws as a detailed mispredict). Charges no cycles and
    /// records no events.
    #[inline]
    fn warm_frontend(&mut self, instr: &Instr) {
        // The periodic ITLB flush keeps its cadence across warmed
        // stretches; otherwise resumed windows would see an unrealistically
        // warm instruction TLB.
        if let Some(interval) = self.cfg.itlb_flush_interval {
            self.instr_since_flush += 1;
            if self.instr_since_flush >= interval {
                self.instr_since_flush = 0;
                self.tlbs.flush_instruction_l1();
            }
        }
        let line = instr.fetch_line();
        let new_line = line != self.last_fetch_line;
        // Fetch-group phase is state (it decides when the reported-access
        // counter ticks), so warming must advance it even though the tick
        // itself is not recorded.
        self.group_fill += 1;
        if new_line || self.group_fill >= self.cfg.fetch_group_size {
            self.group_fill = 0;
        }
        if new_line {
            self.last_fetch_line = line;
            self.tlbs.warm(TlbKind::Instruction, instr.page());
            if !self.l1i.warm(line, false).hit {
                self.warm_level2(line, false);
            }
        }
        // `warm` must run for every branch — it updates the predictor
        // tables; mispredicted ones additionally warm the wrong-path
        // pollution.
        if instr.class.is_branch() && self.bu.warm(instr) {
            self.warm_wrong_path(instr);
        }
    }

    /// Counter-free companion of [`GridEngine::level2_fill_shared`].
    fn warm_level2(&mut self, line: u64, is_write: bool) {
        if !self.l2.warm(line, is_write).hit && self.cfg.prefetch.degree > 0 {
            warm_prefetch(&mut self.l2, line, self.cfg.prefetch);
        }
    }

    /// Counter-free companion of [`GridEngine::wrong_path_fetch`]: the
    /// ITLB/L1I/DTLB pollution of the wrong-path burst is long-lived state
    /// that measurement windows observe, so fast-forwarding must reproduce
    /// it (same RNG draws as the detailed path) or sampled CPI drifts by
    /// several percent on mispredict-heavy workloads.
    fn warm_wrong_path(&mut self, instr: &Instr) {
        let depth = self.cfg.wrong_path_depth;
        if depth == 0 {
            return;
        }
        let br = instr.branch.expect("branch without metadata");
        let wp_page = br.target_page ^ (1 + (self.rng.next_u64() & 0x1F));
        self.tlbs.warm(TlbKind::Instruction, wp_page);
        let lines = (u64::from(depth)).div_ceil(16).max(1);
        let base = self.rng.next_u64() & 0x3F;
        for i in 0..lines {
            let line = (wp_page << 6) | ((base + i) & 0x3F);
            if !self.l1i.warm(line, false).hit {
                self.warm_level2(line, false);
            }
        }
        for _ in 0..3 {
            let page = self.last_data_page ^ (1 + (self.rng.next_u64() & 0x7F));
            self.tlbs.warm(TlbKind::Data, page);
        }
    }

    /// Adds a frequency-invariant cycle amount to every lane (the shared
    /// stall bucket is updated once by the caller). Every instruction lands
    /// here at least once, so the first lane, which every grid has, is
    /// peeled out of the loop: only the lanes after it pay the loop's
    /// set-up.
    #[inline]
    fn add_all(&mut self, amount: f64) {
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        first.cycles += amount;
        for lane in rest {
            lane.cycles += amount;
        }
    }

    /// Sends a miss to the L2: one L2 access plus the prefetch trigger on
    /// demand misses. Returns whether the L2 hit, so each lane can price
    /// the fill against its own DRAM latency (L2 latency, plus DRAM on a
    /// miss).
    fn level2_fill_shared(&mut self, line: u64, is_write: bool) -> bool {
        let a = self.l2.access(line, is_write);
        if !a.hit && self.cfg.prefetch.degree > 0 {
            run_prefetch(&mut self.l2, line, self.cfg.prefetch);
        }
        a.hit
    }

    /// A front-end (L1I-miss) fill: the L2/DRAM latency is exposed through
    /// the frontend stall factor, per lane.
    fn fill_frontend(&mut self, line: u64) {
        let l2_hit = self.level2_fill_shared(line, false);
        let l2_latency = f64::from(self.l2.latency());
        let frontend = self.cfg.stall.frontend;
        for lane in &mut self.lanes {
            let mut cost = l2_latency;
            if !l2_hit {
                cost += lane.dram_cycles;
            }
            let exposed = cost * frontend;
            lane.stall_fetch += exposed;
            lane.cycles += exposed;
        }
    }

    #[inline]
    fn fetch(&mut self, instr: &Instr) {
        if let Some(interval) = self.cfg.itlb_flush_interval {
            self.instr_since_flush += 1;
            if self.instr_since_flush >= interval {
                self.instr_since_flush = 0;
                self.tlbs.flush_instruction_l1();
            }
        }
        let line = instr.fetch_line();
        let new_line = line != self.last_fetch_line;
        self.group_fill += 1;
        if new_line || self.group_fill >= self.cfg.fetch_group_size {
            self.l1i_reported_accesses += 1;
            self.group_fill = 0;
        }
        if !new_line {
            return;
        }
        self.last_fetch_line = line;
        // ITLB translation for the instruction page.
        let t = self.tlbs.translate(TlbKind::Instruction, instr.page());
        if t.stall_cycles > 0 {
            self.stalls.fetch_tlb += f64::from(t.stall_cycles);
            self.add_all(f64::from(t.stall_cycles));
        }
        // L1I access for the new line.
        let a = self.l1i.access(line, false);
        if !a.hit {
            self.fill_frontend(line);
        }
    }

    #[inline]
    fn issue(&mut self, instr: &Instr) {
        self.add_all(self.issue_cost);
        // Long-latency classes.
        let extra = match instr.class {
            InstrClass::IntMul => self.cfg.op_extra.int_mul,
            InstrClass::IntDiv => self.cfg.op_extra.int_div,
            InstrClass::FpAlu => self.cfg.op_extra.fp_alu,
            InstrClass::FpDiv => self.cfg.op_extra.fp_div,
            InstrClass::Simd => self.cfg.op_extra.simd,
            _ => 0.0,
        };
        if extra > 0.0 {
            let exposed = extra * self.cfg.stall.execute;
            self.stalls.execute += exposed;
            self.add_all(exposed);
        }
    }

    #[inline]
    fn memory(&mut self, instr: &Instr) {
        let mem = match instr.mem {
            Some(m) => m,
            None => return,
        };
        let is_store = mem.is_store;
        self.last_data_page = mem.page();
        // DTLB.
        let t = self.tlbs.translate(TlbKind::Data, mem.page());
        if !t.l1_hit {
            if is_store {
                self.dtlb_miss_stores += 1;
            } else {
                self.dtlb_miss_loads += 1;
            }
        }
        if t.stall_cycles > 0 {
            let exposed = f64::from(t.stall_cycles) * self.cfg.stall.dtlb;
            self.stalls.data_tlb += exposed;
            self.add_all(exposed);
        }
        // Unaligned accesses cost an extra L1D access.
        let line = mem.vaddr >> self.l1d_line_shift;
        if mem.unaligned {
            if is_store {
                self.unaligned_stores += 1;
            } else {
                self.unaligned_loads += 1;
            }
            self.l1d.access(line + 1, is_store);
            self.add_all(1.0);
        }
        // L1D access.
        let a = self.l1d.access(line, is_store);
        let l2_fill = if a.hit {
            None
        } else {
            Some(self.level2_fill_shared(line, is_store))
        };
        if let Some(victim) = a.writeback_line {
            // The dirty victim travels to L2 (usually still resident there).
            self.l2.access(victim, true);
        }
        // Coherence for shared data in multi-threaded runs.
        let mut snooped = false;
        if mem.shared && self.threads > 1 && self.rng.next_f64() < self.cfg.coherence_miss_prob {
            self.snoops += 1;
            snooped = true;
        }
        // Lane-divergent cost: an L1D miss includes the per-lane DRAM
        // latency; the snoop component is invariant. The per-lane `f64`
        // sequence is fixed: zero-init, fill add, snoop add, one multiply.
        // An L1D hit without a snoop costs nothing on any lane, so it
        // skips the lane loop.
        if l2_fill.is_some() || snooped {
            let l2_latency = f64::from(self.l2.latency());
            let snoop_cost = self.cfg.snoop_cost;
            let factor = if is_store {
                self.cfg.stall.store
            } else if mem.dependent {
                // A serial dependence chain exposes the whole latency.
                1.0
            } else {
                self.cfg.stall.load
            };
            for lane in &mut self.lanes {
                let mut cost = 0.0;
                if let Some(l2_hit) = l2_fill {
                    let mut fill = l2_latency;
                    if !l2_hit {
                        fill += lane.dram_cycles;
                    }
                    cost += fill;
                }
                if snooped {
                    cost += snoop_cost;
                }
                if cost > 0.0 {
                    let exposed = cost * factor;
                    lane.stall_memory += exposed;
                    lane.cycles += exposed;
                }
            }
        }
        // Exclusives serialise.
        match instr.class {
            InstrClass::LoadExclusive => {
                self.nonspec_stalls += 1;
                let c = self.cfg.exclusive_cost * 0.5;
                self.stalls.serialization += c;
                self.add_all(c);
            }
            InstrClass::StoreExclusive => {
                self.nonspec_stalls += 1;
                let mut c = self.cfg.exclusive_cost;
                if self.threads > 1 && self.rng.next_f64() < self.cfg.strex_fail_rate {
                    self.strex_fails += 1;
                    c *= 2.0; // retry
                }
                self.stalls.serialization += c;
                self.add_all(c);
            }
            _ => {}
        }
    }

    #[inline]
    fn branch(&mut self, instr: &Instr) {
        let outcome = self.bu.process(instr);
        if !outcome.mispredicted {
            return;
        }
        let penalty = f64::from(self.cfg.pipeline_depth);
        self.stalls.mispredict += penalty;
        self.add_all(penalty);
        self.wrong_path_fetch(instr);
    }

    /// Models the wrong-path fetch burst after a mispredict: the front end
    /// runs ahead on a wrong code page, polluting the ITLB and L1I — the
    /// coupling behind the paper's "a large number of branch mispredictions
    /// are causing a large number of ITLB misses".
    fn wrong_path_fetch(&mut self, instr: &Instr) {
        let depth = self.cfg.wrong_path_depth;
        if depth == 0 {
            return;
        }
        let br = instr.branch.expect("branch without metadata");
        // The wrong path starts at a wrong target somewhere in the code
        // footprint: stale BTB entries and fall-through paths scatter over
        // nearby pages.
        let wp_page = br.target_page ^ (1 + (self.rng.next_u64() & 0x1F));
        let t = self.tlbs.translate(TlbKind::Instruction, wp_page);
        if t.stall_cycles > 0 {
            // Wrong-path translation stalls the squash-recovery.
            let exposed = f64::from(t.stall_cycles) * self.cfg.stall.frontend;
            self.stalls.fetch_tlb += exposed;
            self.add_all(exposed);
        }
        let lines = (u64::from(depth)).div_ceil(16).max(1);
        let base = self.rng.next_u64() & 0x3F;
        for i in 0..lines {
            let line = (wp_page << 6) | ((base + i) & 0x3F);
            let a = self.l1i.access(line, false);
            if !a.hit {
                // Wrong-path fills occupy the fetch path while the squash
                // resolves: part of their latency delays the redirect, the
                // rest is pure pollution.
                self.fill_frontend(line);
            }
        }
        // Only a fraction of wrong-path *fetches* actually issue and count
        // as speculatively executed; the generic composition below models
        // them. Wrong-path loads also translate through the DTLB, which is
        // how the model's wrong path inflates its DTLB refill counts.
        let d = (u64::from(depth) / 8).max(1);
        self.wrong_path.int_alu += d * 5 / 10;
        self.wrong_path.loads += d * 2 / 10;
        self.wrong_path.stores += d / 10;
        self.wrong_path.branches += d / 10;
        self.wrong_path.nops += d - (d * 5 / 10 + d * 2 / 10 + d / 10 + d / 10);
        // A couple of wrong-path loads translate through the DTLB per
        // squash: latency is hidden, but the counts and TLB pollution are
        // real.
        for _ in 0..3 {
            let page = self.last_data_page ^ (1 + (self.rng.next_u64() & 0x7F));
            let t = self.tlbs.translate(TlbKind::Data, page);
            if !t.l1_hit {
                self.dtlb_miss_loads += 1;
            }
        }
    }

    fn barrier(&mut self) {
        self.nonspec_stalls += 1;
        let sync = 1.0 + f64::from(self.threads - 1) * self.cfg.barrier_sync_factor;
        let c = self.cfg.barrier_cost * sync;
        self.stalls.serialization += c;
        self.add_all(c);
    }

    #[inline]
    fn count_committed(&mut self, class: InstrClass) {
        let c = &mut self.committed;
        match class {
            InstrClass::IntAlu => c.int_alu += 1,
            InstrClass::IntMul => c.int_mul += 1,
            InstrClass::IntDiv => c.int_div += 1,
            InstrClass::FpAlu => c.fp_alu += 1,
            InstrClass::FpDiv => c.fp_div += 1,
            InstrClass::Simd => c.simd += 1,
            InstrClass::Load => c.loads += 1,
            InstrClass::Store => c.stores += 1,
            InstrClass::Branch => c.branches += 1,
            InstrClass::IndirectBranch => c.indirect_branches += 1,
            InstrClass::Call => c.calls += 1,
            InstrClass::Return => c.returns += 1,
            InstrClass::LoadExclusive => c.load_exclusives += 1,
            InstrClass::StoreExclusive => c.store_exclusives += 1,
            InstrClass::Barrier => c.barriers += 1,
            InstrClass::Nop => c.nops += 1,
        }
    }

    /// Finalises every lane into a [`SimResult`] (one per frequency, in
    /// construction order). Reentrant: the engine can keep stepping
    /// afterwards and counters continue to accumulate.
    pub fn finish(&mut self) -> Vec<SimResult> {
        // Speculative = committed + wrong path.
        let mut spec = self.committed;
        let wp = &self.wrong_path;
        spec.int_alu += wp.int_alu;
        spec.loads += wp.loads;
        spec.stores += wp.stores;
        spec.branches += wp.branches;
        spec.nops += wp.nops;
        let l2c = self.l2.counters();
        let dram_reads = l2c.refill_reads
            + self.tlbs.instruction_counters().walks / 4
            + self.tlbs.data_counters().walks / 4;
        let dram_writes = l2c.refill_writes + l2c.writeback_lines;
        self.lanes
            .iter()
            .map(|lane| {
                // Per-lane totals are the drained total plus the open span.
                let mut folded = lane.drained;
                folded.accumulate(&CycleSpan {
                    cycles: lane.cycles,
                    stalls: StallCycles {
                        fetch: lane.stall_fetch,
                        memory: lane.stall_memory,
                        ..self.stalls
                    },
                });
                let mut stats = SimStats {
                    freq_hz: lane.freq_hz,
                    cycles: folded.cycles,
                    seconds: folded.cycles / lane.freq_hz,
                    committed: self.committed,
                    committed_instructions: self.committed.total(),
                    ..SimStats::default()
                };
                stats.speculative = spec;
                stats.speculative_instructions = spec.total();
                stats.wrong_path_instructions = self.wrong_path.total();
                stats.unaligned_loads = self.unaligned_loads;
                stats.unaligned_stores = self.unaligned_stores;
                stats.strex_fails = self.strex_fails;
                stats.branch = self.bu.counters();
                stats.itlb = self.tlbs.instruction_counters();
                stats.dtlb = self.tlbs.data_counters();
                stats.dtlb_miss_loads = self.dtlb_miss_loads;
                stats.dtlb_miss_stores = self.dtlb_miss_stores;
                stats.l1i = self.l1i.counters();
                stats.l1i_reported_accesses = self.l1i_reported_accesses;
                stats.l1d = self.l1d.counters();
                stats.l2 = self.l2.counters();
                stats.dram_reads = dram_reads;
                stats.dram_writes = dram_writes;
                stats.dram_accesses = dram_reads + dram_writes;
                stats.snoops = self.snoops;
                stats.nonspec_stalls = self.nonspec_stalls;
                stats.stalls = folded.stalls;
                stats.fp_counted_as_simd = self.cfg.fp_counted_as_simd;
                stats.split_l2_tlb = self.cfg.l2tlb.is_split();
                SimResult {
                    cycles: folded.cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// The atomic/functional tier: every instruction retires at a fixed
/// per-class cost, and only architectural (committed) events are counted.
/// No cache, TLB or branch-predictor state is walked. The cost table
/// depends only on the configuration and thread count, so one functional
/// pass serves every frequency lane and only the cycles→seconds
/// conversion differs.
#[derive(Debug)]
pub struct AtomicGridEngine {
    freqs: Vec<f64>,
    costs: [f64; InstrClass::COUNT],
    counts: [u64; InstrClass::COUNT],
    fp_counted_as_simd: bool,
    split_l2_tlb: bool,
}

impl AtomicGridEngine {
    /// Builds an atomic engine for `cfg` over `freqs_hz` with `threads`
    /// software threads (threads only scale the fixed barrier cost).
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is `<= 0`, or
    /// `threads == 0`.
    pub fn new(cfg: &CoreConfig, freqs_hz: &[f64], threads: u32) -> Self {
        assert!(!freqs_hz.is_empty(), "at least one frequency lane");
        assert!(
            freqs_hz.iter().all(|&f| f > 0.0),
            "frequencies must be positive"
        );
        assert!(threads > 0, "at least one thread");
        AtomicGridEngine {
            freqs: freqs_hz.to_vec(),
            costs: Self::cost_table(cfg, threads),
            counts: [0; InstrClass::COUNT],
            fp_counted_as_simd: cfg.fp_counted_as_simd,
            split_l2_tlb: cfg.l2tlb.is_split(),
        }
    }

    /// The fixed per-class retire cost in cycles: the issue cost plus the
    /// exposed long-latency / serialisation component the detailed engine
    /// charges unconditionally for that class. Memory-hierarchy and
    /// branch-mispredict stalls are state-dependent and deliberately absent.
    fn cost_table(cfg: &CoreConfig, threads: u32) -> [f64; InstrClass::COUNT] {
        let eff_width = f64::from(cfg.width) * cfg.issue_efficiency;
        let issue = 1.0 / eff_width.max(0.25);
        let sync = 1.0 + f64::from(threads - 1) * cfg.barrier_sync_factor;
        let mut costs = [issue; InstrClass::COUNT];
        let mut extra = |class: InstrClass, c: f64| {
            costs[class.index() as usize] += c;
        };
        extra(InstrClass::IntMul, cfg.op_extra.int_mul * cfg.stall.execute);
        extra(InstrClass::IntDiv, cfg.op_extra.int_div * cfg.stall.execute);
        extra(InstrClass::FpAlu, cfg.op_extra.fp_alu * cfg.stall.execute);
        extra(InstrClass::FpDiv, cfg.op_extra.fp_div * cfg.stall.execute);
        extra(InstrClass::Simd, cfg.op_extra.simd * cfg.stall.execute);
        extra(InstrClass::LoadExclusive, cfg.exclusive_cost * 0.5);
        extra(InstrClass::StoreExclusive, cfg.exclusive_cost);
        extra(InstrClass::Barrier, cfg.barrier_cost * sync);
        costs
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.freqs.len()
    }

    /// Retires one instruction on every lane.
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        self.counts[instr.class.index() as usize] += 1;
    }

    /// Retires a whole class histogram at once — the packed-trace fast
    /// path, bit-identical to stepping each instruction.
    pub fn absorb_histogram(&mut self, hist: &[u64; InstrClass::COUNT]) {
        for (count, add) in self.counts.iter_mut().zip(hist) {
            *count += add;
        }
    }

    /// Finalises one result per lane: the shared cycle count converted at
    /// each lane's frequency. Reentrant.
    pub fn finish(&mut self) -> Vec<SimResult> {
        let cycles: f64 = self
            .counts
            .iter()
            .zip(&self.costs)
            .map(|(&n, &c)| n as f64 * c)
            .sum();
        let committed = ClassCounts::from_histogram(&self.counts);
        self.freqs
            .iter()
            .map(|&freq_hz| {
                let stats = SimStats {
                    freq_hz,
                    cycles,
                    seconds: cycles / freq_hz,
                    committed,
                    committed_instructions: committed.total(),
                    // No speculation is modelled: speculative == architectural.
                    speculative: committed,
                    speculative_instructions: committed.total(),
                    fidelity: Fidelity::Atomic,
                    fp_counted_as_simd: self.fp_counted_as_simd,
                    split_l2_tlb: self.split_l2_tlb,
                    ..SimStats::default()
                };
                SimResult {
                    cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// Per-lane measurement accumulators of the sampled grid tier.
#[derive(Debug, Clone, Default)]
struct SampledLane {
    // Measured cycles since the last drain; `measured_drained` sums the
    // spans before it (the discipline of the lane accumulators).
    measured_cycles: f64,
    measured_drained: f64,
    window_cycles: f64,
    window_cpis: Vec<f64>,
}

/// The SMARTS-style sampled tier: systematic periods of functional
/// fast-forward, detailed warming and detailed measurement over an inner
/// cycle-approximate [`GridEngine`], with results extrapolated to the
/// whole stream. The window schedule, fast-forward warming and
/// architectural counts are shared across frequency lanes; each lane
/// measures its own per-window cycle deltas.
///
/// Each period of `interval` instructions starts with `warmup` detailed
/// (unmeasured) instructions, then `window` detailed measured
/// instructions; the rest fast-forwards through
/// [`GridEngine::warm_state`]. Architectural (committed) instruction
/// counts stay exact; micro-architectural event counts are scaled from
/// the detailed fraction, and each result carries a [`SampleMeta`].
#[derive(Debug)]
pub struct SampledGridEngine {
    interval: u64,
    detailed_len: u64,
    warm_len: u64,
    detailed: GridEngine,
    counts: [u64; InstrClass::COUNT],
    pos: u64,
    total: u64,
    detailed_instr: u64,
    measured_instr: u64,
    window_instr: u64,
    accs: Vec<SampledLane>,
    /// Scratch: per-lane cycle counts before the current measured step.
    before: Vec<f64>,
}

impl SampledGridEngine {
    /// Builds a sampled engine over `freqs_hz` with the given sampling
    /// geometry. The detailed windows run on an inner [`GridEngine`] built
    /// with exactly the given configuration and seed, so a fully-detailed
    /// sampled run is bit-identical to the approx tier.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is `<= 0`, or
    /// `threads == 0`.
    pub fn new(
        cfg: CoreConfig,
        freqs_hz: &[f64],
        threads: u32,
        seed: u64,
        params: SampleParams,
    ) -> Self {
        let interval = params.interval.max(1);
        let detailed_len = params.detailed_len();
        SampledGridEngine {
            interval,
            detailed_len,
            warm_len: params.warmup.min(detailed_len),
            detailed: GridEngine::with_seed(cfg, freqs_hz, threads, seed),
            counts: [0; InstrClass::COUNT],
            pos: 0,
            total: 0,
            detailed_instr: 0,
            measured_instr: 0,
            window_instr: 0,
            accs: vec![SampledLane::default(); freqs_hz.len()],
            before: vec![0.0; freqs_hz.len()],
        }
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.accs.len()
    }

    fn close_window(&mut self) {
        if self.window_instr > 0 {
            for acc in &mut self.accs {
                acc.window_cpis
                    .push(acc.window_cycles / self.window_instr as f64);
                acc.window_cycles = 0.0;
            }
            self.window_instr = 0;
        }
    }

    /// Drains the inner engine's lane spans and every lane's
    /// measured-cycles span.
    fn drain(&mut self) {
        self.detailed.drain();
        for acc in &mut self.accs {
            acc.measured_drained += acc.measured_cycles;
            acc.measured_cycles = 0.0;
        }
    }

    fn lane_meta(&self, acc: &SampledLane) -> SampleMeta {
        let n = acc.window_cpis.len();
        let mean = if n > 0 {
            acc.window_cpis.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let stddev = if n > 1 {
            let var = acc
                .window_cpis
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        let rel_ci95 = if n > 1 && mean > 0.0 {
            1.96 * stddev / (n as f64).sqrt() / mean
        } else {
            0.0
        };
        SampleMeta {
            windows: n as u64,
            measured_instructions: self.measured_instr,
            detailed_instructions: self.detailed_instr,
            total_instructions: self.total,
            coverage: if self.total > 0 {
                self.detailed_instr as f64 / self.total as f64
            } else {
                0.0
            },
            cpi_mean: mean,
            cpi_stddev: stddev,
            rel_ci95,
        }
    }

    /// Processes one instruction, following the shared window schedule.
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        if self.pos < self.detailed_len {
            if self.pos < self.warm_len {
                self.detailed.step(instr);
            } else {
                // Deltas are measured against the *open* span, so their
                // rounding does not depend on the size of the drained total.
                for (i, b) in self.before.iter_mut().enumerate() {
                    *b = self.detailed.lane_cycles(i);
                }
                self.detailed.step(instr);
                for (i, acc) in self.accs.iter_mut().enumerate() {
                    let delta = self.detailed.lane_cycles(i) - self.before[i];
                    acc.measured_cycles += delta;
                    acc.window_cycles += delta;
                }
                self.measured_instr += 1;
                self.window_instr += 1;
            }
            self.detailed_instr += 1;
            if self.pos + 1 == self.detailed_len {
                self.close_window();
            }
        } else {
            // Fast-forward phase: no timing, but functionally warm the
            // long-lived microarchitectural state (caches, TLBs, branch
            // predictor) so the next window measures live state instead of
            // state frozen at the end of the previous one. Skipping this
            // biases measured CPI upwards by 5-20 % on cache-heavy
            // workloads.
            self.detailed.warm_state(instr);
        }
        self.counts[instr.class.index() as usize] += 1;
        self.total += 1;
        self.pos += 1;
        if self.pos == self.interval {
            self.pos = 0;
        }
    }

    /// Finalises one extrapolated result per lane. Reentrant.
    pub fn finish(&mut self) -> Vec<SimResult> {
        // A stream ending mid-window still contributes its partial CPI.
        self.close_window();
        let committed = ClassCounts::from_histogram(&self.counts);
        let total = committed.total();
        let det_results = self.detailed.finish();
        det_results
            .into_iter()
            .enumerate()
            .map(|(i, det)| {
                let meta = self.lane_meta(&self.accs[i]);
                sampled_windows_counter().add(meta.windows);
                sampled_detailed_counter().add(meta.detailed_instructions);
                sampled_fastforward_counter().add(total - meta.detailed_instructions);
                if meta.detailed_instructions >= total {
                    // Everything ran in detail: the approx result, exactly.
                    let mut result = det;
                    result.stats.fidelity = Fidelity::Sampled;
                    result.stats.sample = Some(meta);
                    return result;
                }
                let det_instr = det.stats.committed_instructions.max(1);
                let ratio = total as f64 / det_instr as f64;
                // CPI from measurement windows only (the warming prefix is
                // biased cold); fall back to the whole detailed fraction
                // without windows.
                let cpi = if meta.measured_instructions > 0 {
                    let acc = &self.accs[i];
                    (acc.measured_drained + acc.measured_cycles) / meta.measured_instructions as f64
                } else {
                    det.cycles / det_instr as f64
                };
                let cycles = cpi * total as f64;
                let freq_hz = self.detailed.lane_freq(i);
                let mut stats = scale_stats(&det.stats, ratio);
                // Architectural counts are exact: every instruction was
                // counted.
                let wrong_path = stats.speculative.saturating_sub(&stats.committed);
                stats.committed = committed;
                stats.committed_instructions = total;
                stats.speculative = committed.add(&wrong_path);
                stats.speculative_instructions = stats.speculative.total();
                stats.wrong_path_instructions = wrong_path.total();
                stats.freq_hz = freq_hz;
                stats.cycles = cycles;
                stats.seconds = cycles / freq_hz;
                stats.fidelity = Fidelity::Sampled;
                stats.sample = Some(meta);
                SimResult {
                    cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// The tier dispatch: one engine per fidelity tier, each over one or more
/// frequency lanes. A concrete enum keeps dynamic dispatch out of the
/// per-instruction hot loop.
#[derive(Debug)]
pub enum GridBackend {
    /// The atomic/functional tier (one pass, per-lane time conversion).
    Atomic(Box<AtomicGridEngine>),
    /// The cycle-approximate reference tier (fused lanes).
    Approx(Box<GridEngine>),
    /// The SMARTS-style sampled tier (shared windows, per-lane deltas).
    Sampled(Box<SampledGridEngine>),
}

impl GridBackend {
    /// Builds the engine selected by `tier` over the given core
    /// configuration, frequency lanes, thread count and seed. A
    /// single-frequency run passes `&[freq_hz]` and takes lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is `<= 0`, or
    /// `threads == 0`.
    pub fn new(
        tier: TierConfig,
        cfg: &CoreConfig,
        freqs_hz: &[f64],
        threads: u32,
        seed: u64,
    ) -> Self {
        match tier.fidelity {
            Fidelity::Atomic => {
                GridBackend::Atomic(Box::new(AtomicGridEngine::new(cfg, freqs_hz, threads)))
            }
            Fidelity::Approx => GridBackend::Approx(Box::new(GridEngine::with_seed(
                cfg.clone(),
                freqs_hz,
                threads,
                seed,
            ))),
            Fidelity::Sampled => GridBackend::Sampled(Box::new(SampledGridEngine::new(
                cfg.clone(),
                freqs_hz,
                threads,
                seed,
                tier.sample,
            ))),
        }
    }

    /// Does nothing: the stream is dropped without being decoded, and the
    /// engine stays cold. Kept only for the repository benchmark
    /// (`gsbench`), whose replay workload calls it before
    /// [`GridBackend::run_stream`]; nothing in the workspace calls it.
    pub fn warm_prologue(&mut self, _stream: impl Iterator<Item = Instr>) {}

    /// Runs the engine over an instruction stream with the per-tier obs
    /// span (carrying a `lanes` attribute) and `engine.*` accounting;
    /// returns one result per lane.
    pub fn run_stream(&mut self, stream: impl Iterator<Item = Instr>) -> Vec<SimResult> {
        // Dispatch once per replay, not once per instruction.
        match self {
            GridBackend::Atomic(b) => replay(Fidelity::Atomic, b.as_mut(), stream),
            GridBackend::Approx(b) => replay(Fidelity::Approx, b.as_mut(), stream),
            GridBackend::Sampled(b) => replay(Fidelity::Sampled, b.as_mut(), stream),
        }
    }
}

impl Drain for GridEngine {
    fn step(&mut self, instr: &Instr) {
        GridEngine::step(self, instr);
    }

    fn drain(&mut self) {
        GridEngine::drain(self);
    }

    fn lane_count(&self) -> usize {
        GridEngine::lane_count(self)
    }

    fn finish(&mut self) -> Vec<SimResult> {
        GridEngine::finish(self)
    }
}

impl Drain for AtomicGridEngine {
    fn step(&mut self, instr: &Instr) {
        AtomicGridEngine::step(self, instr);
    }

    /// A no-op: the atomic tier's integer counts need no drain.
    fn drain(&mut self) {}

    fn lane_count(&self) -> usize {
        AtomicGridEngine::lane_count(self)
    }

    fn finish(&mut self) -> Vec<SimResult> {
        AtomicGridEngine::finish(self)
    }
}

impl Drain for SampledGridEngine {
    fn step(&mut self, instr: &Instr) {
        SampledGridEngine::step(self, instr);
    }

    fn drain(&mut self) {
        SampledGridEngine::drain(self);
    }

    fn lane_count(&self) -> usize {
        SampledGridEngine::lane_count(self)
    }

    fn finish(&mut self) -> Vec<SimResult> {
        SampledGridEngine::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use crate::instr::{BranchRef, MemRef};

    /// A mixed stream exercising every structural path (same shape as the
    /// backend tests: ALU, long-latency, memory, branches, exclusives).
    fn mixed_stream(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| {
                let pc = (i as u64 % 2048) * 4;
                match i % 17 {
                    0..=3 => Instr::alu(InstrClass::IntAlu, pc),
                    4 => Instr::alu(InstrClass::IntMul, pc),
                    5 => Instr::alu(InstrClass::FpAlu, pc),
                    6..=8 => Instr::mem(
                        InstrClass::Load,
                        pc,
                        MemRef::load((i as u64).wrapping_mul(2654435761) % (8 << 20), 4),
                    ),
                    9 => Instr::mem(
                        InstrClass::Store,
                        pc,
                        MemRef::store((i as u64 * 64) % (1 << 20), 4).with_shared(i % 2 == 0),
                    ),
                    10 | 11 => Instr::branch(
                        InstrClass::Branch,
                        pc,
                        BranchRef {
                            static_id: (i % 32) as u32,
                            taken: i % 5 != 0,
                            target_page: (i as u64 / 64) % 16,
                        },
                    ),
                    12 => Instr::alu(InstrClass::Simd, pc),
                    13 => Instr::mem(
                        InstrClass::StoreExclusive,
                        pc,
                        MemRef::store(0x2000 + (i as u64 % 32) * 4, 4).with_shared(true),
                    ),
                    14 => Instr::alu(InstrClass::Nop, pc),
                    _ => Instr::alu(InstrClass::IntAlu, pc),
                }
            })
            .collect()
    }

    const FREQS: [f64; 4] = [0.6e9, 1.0e9, 1.4e9, 1.8e9];

    #[test]
    fn grid_bit_identical_to_per_frequency_runs() {
        for cfg in [cortex_a15_hw(), cortex_a7_hw(), ex5_big(Ex5Variant::Old)] {
            for threads in [1, 4] {
                let stream = mixed_stream(30_000);
                let mut grid = GridEngine::with_seed(cfg.clone(), &FREQS, threads, 0x5EED_CAFE);
                let fused = grid.run(stream.clone().into_iter());
                assert_eq!(fused.len(), FREQS.len());
                for (&f, r) in FREQS.iter().zip(&fused) {
                    let mut e = GridEngine::new(cfg.clone(), &[f], threads);
                    let expect = e.run(stream.clone().into_iter()).remove(0);
                    assert_eq!(r.cycles, expect.cycles, "{} @ {f}", cfg.name);
                    assert_eq!(r.seconds, expect.seconds);
                    assert_eq!(r.stats.gem5_stats_map(), expect.stats.gem5_stats_map());
                }
            }
        }
    }

    #[test]
    fn atomic_grid_bit_identical_to_per_frequency_runs() {
        let stream = mixed_stream(20_000);
        let cfg = cortex_a7_hw();
        let mut grid = GridBackend::new(TierConfig::atomic(), &cfg, &FREQS, 2, 0);
        let fused = grid.run_stream(stream.clone().into_iter());
        for (&f, r) in FREQS.iter().zip(&fused) {
            let mut b = GridBackend::new(TierConfig::atomic(), &cfg, &[f], 2, 0);
            let expect = b.run_stream(stream.clone().into_iter()).remove(0);
            assert_eq!(r.cycles, expect.cycles);
            assert_eq!(r.seconds, expect.seconds);
            assert_eq!(
                r.stats.committed.to_histogram(),
                expect.stats.committed.to_histogram()
            );
        }
    }

    #[test]
    fn sampled_grid_bit_identical_to_per_frequency_runs() {
        let stream = mixed_stream(50_000);
        let cfg = cortex_a15_hw();
        let params = SampleParams::default();
        let mut grid = SampledGridEngine::new(cfg.clone(), &FREQS, 1, 9, params);
        for i in &stream {
            grid.step(i);
        }
        let fused = grid.finish();
        for (&f, r) in FREQS.iter().zip(&fused) {
            let mut e = SampledGridEngine::new(cfg.clone(), &[f], 1, 9, params);
            for i in &stream {
                e.step(i);
            }
            let expect = e.finish().remove(0);
            assert_eq!(r.cycles, expect.cycles, "sampled lane @ {f}");
            assert_eq!(r.seconds, expect.seconds);
            assert_eq!(r.stats.sample, expect.stats.sample);
            assert_eq!(r.stats.gem5_stats_map(), expect.stats.gem5_stats_map());
        }
    }

    #[test]
    fn grid_finish_is_reentrant() {
        let cfg = cortex_a7_hw();
        let mut grid = GridEngine::new(cfg, &FREQS, 1);
        for i in mixed_stream(1_000) {
            grid.step(&i);
        }
        let r1 = grid.finish();
        for i in mixed_stream(1_000) {
            grid.step(&i);
        }
        let r2 = grid.finish();
        assert_eq!(r2[0].stats.committed_instructions, 2_000);
        assert!(r2[0].cycles > r1[0].cycles);
    }

    #[test]
    #[should_panic(expected = "at least one frequency lane")]
    fn empty_grid_rejected() {
        let _ = GridEngine::new(cortex_a7_hw(), &[], 1);
    }
}
