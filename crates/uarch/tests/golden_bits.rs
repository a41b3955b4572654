//! Golden bit patterns of every sequential replay path.
//!
//! Each detailed tier sums its f64 cycle accumulators in spans of a fixed
//! number of instructions and folds the drained spans left to right from
//! 0.0. That cadence and that fold order fix the low bits of every
//! simulated time the repository writes, so both are part of the artefact
//! contract. This test replays one deterministic stream, longer than three
//! drain spans, through one-lane and 4-lane grids at the approx and
//! sampled tiers, and compares the cycles and seconds of every result with
//! recorded bit patterns. Changing the drain
//! cadence, the fold order or any per-step f64 operation fails it; the
//! failure message prints the new table for a change that means to.
//!
//! A second table pins every tier (atomic included) on the in-order A7,
//! the A15 and the old `ex5_big` model (stale-history gshare, split L2
//! TLB), at one and four threads, every run starting from a cold engine.
//! Besides the time bits it records an FNV-1a digest of each result's
//! gem5 statistics map, so event counters are pinned as well as time.
//!
//! Both tables were recorded from the separate single-frequency engines
//! that preceded the one-lane grids; they are the reference every tier is
//! held to.

use gemstone_uarch::backend::{SampleParams, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
use gemstone_uarch::core::{CoreConfig, SimResult};
use gemstone_uarch::grid::GridBackend;
use gemstone_uarch::instr::{BranchRef, Instr, InstrClass, MemRef};

/// Three full 65 536-instruction drain spans plus a partial fourth.
const LEN: usize = 3 * 65_536 + 12_345;
const FREQS: [f64; 4] = [0.6e9, 1.0e9, 1.4e9, 1.8e9];
const THREADS: u32 = 4;
const SEED: u64 = 0x5EED_CAFE;

/// A mixed stream that walks every structural path: ALU and long-latency
/// ops, loads over an 8 MiB footprint, shared stores and store-exclusives
/// (which draw from the engine RNG with more than one thread), biased
/// branches, SIMD and barriers.
fn stream() -> impl Iterator<Item = Instr> {
    stream_of(LEN)
}

fn stream_of(len: usize) -> impl Iterator<Item = Instr> {
    (0..len).map(|i| {
        let pc = (i as u64 % 4096) * 4;
        match i % 19 {
            0..=3 => Instr::alu(InstrClass::IntAlu, pc),
            4 => Instr::alu(InstrClass::IntMul, pc),
            5 => Instr::alu(InstrClass::FpAlu, pc),
            6..=8 => Instr::mem(
                InstrClass::Load,
                pc,
                MemRef::load((i as u64).wrapping_mul(2_654_435_761) % (8 << 20), 4),
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
                    static_id: (i % 48) as u32,
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
            14 => Instr::alu(InstrClass::FpDiv, pc),
            15 if i % 1_000 == 15 => Instr::alu(InstrClass::Barrier, pc),
            16 => Instr::alu(InstrClass::Nop, pc),
            _ => Instr::alu(InstrClass::IntAlu, pc),
        }
    })
}

fn sampled() -> TierConfig {
    TierConfig::sampled(SampleParams::default())
}

/// One single-frequency (one-lane) replay per frequency.
fn one_lane(tier: TierConfig) -> Vec<SimResult> {
    FREQS
        .iter()
        .map(|&f| {
            GridBackend::new(tier, &cortex_a15_hw(), &[f], THREADS, SEED)
                .run_stream(stream())
                .remove(0)
        })
        .collect()
}

fn grid(tier: TierConfig) -> Vec<SimResult> {
    GridBackend::new(tier, &cortex_a15_hw(), &FREQS, THREADS, SEED).run_stream(stream())
}

/// `(cycles, seconds)` bit patterns, one row per frequency lane.
type Bits = [(u64, u64); 4];

fn bits(results: &[SimResult]) -> Bits {
    assert_eq!(results.len(), FREQS.len());
    let mut out = [(0, 0); 4];
    for (slot, r) in out.iter_mut().zip(results) {
        assert_eq!(r.stats.committed_instructions, LEN as u64);
        *slot = (r.cycles.to_bits(), r.seconds.to_bits());
    }
    out
}

fn render(name: &str, b: &Bits) -> String {
    let rows: Vec<String> = b
        .iter()
        .map(|(c, s)| format!("    (0x{c:016x}, 0x{s:016x}),"))
        .collect();
    format!("const {name}: Bits = [\n{}\n];", rows.join("\n"))
}

// Recorded from the implementation that kept every drained span in a list
// and folded the list at finish: the running total must match it bit for
// bit.
const APPROX: Bits = [
    (0x41446e4879fa07e8, 0x3f7247fa65310e47),
    (0x4148513279fa070f, 0x3f6a1c412b5f6d11),
    (0x414c341c79f9fc6f, 0x3f65a1867982d137),
    (0x41500b833cfcf7e9, 0x3f63247416b2eb39),
];
const SAMPLED: Bits = [
    (0x4144569fbc29dddd, 0x3f7232ceea2de818),
    (0x4148368e039fc980, 0x3f69ffa5c0f7a57a),
    (0x414c167c4b15b44a, 0x3f658acdb8a824ce),
    (0x414ff66a928b9d74, 0x3f6311005eb4dc5a),
];

#[test]
fn sequential_replays_match_the_golden_bits() {
    let approx_one = bits(&one_lane(TierConfig::approx()));
    let approx_grid = bits(&grid(TierConfig::approx()));
    let sampled_one = bits(&one_lane(sampled()));
    let sampled_grid = bits(&grid(sampled()));
    let table = format!(
        "{}\n{}",
        render("APPROX", &approx_one),
        render("SAMPLED", &sampled_one)
    );
    // A fused lane replays the exact f64 sequence of its one-lane run.
    assert_eq!(approx_grid, approx_one, "approx grid vs one-lane");
    assert_eq!(sampled_grid, sampled_one, "sampled grid vs one-lane");
    assert_eq!(approx_one, APPROX, "approx bits moved; now:\n{table}");
    assert_eq!(sampled_one, SAMPLED, "sampled bits moved; now:\n{table}");
}

/// One drain span plus a partial second: long enough to cross a drain,
/// short enough to replay the whole matrix in a debug build.
const MATRIX_LEN: usize = 65_536 + 4_321;
const MATRIX_FREQS: [f64; 2] = [0.6e9, 1.8e9];

fn configs() -> [(&'static str, CoreConfig); 3] {
    [
        ("a15", cortex_a15_hw()),
        ("a7", cortex_a7_hw()),
        ("ex5old", ex5_big(Ex5Variant::Old)),
    ]
}

/// FNV-1a over the name bytes and value bits of every gem5 statistic.
fn stats_digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in r.stats.gem5_stats_map() {
        for b in k.bytes().chain(v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One single-frequency run on a cold engine.
fn matrix_run(tier: TierConfig, cfg: &CoreConfig, f: f64, threads: u32) -> SimResult {
    GridBackend::new(tier, cfg, &[f], threads, SEED)
        .run_stream(stream_of(MATRIX_LEN))
        .remove(0)
}

/// `(run, cycles bits, seconds bits, gem5 stats digest)`.
type Row = (String, u64, u64, u64);

fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, cfg) in configs() {
        for threads in [1, 4] {
            for tier in [TierConfig::atomic(), TierConfig::approx(), sampled()] {
                for f in MATRIX_FREQS {
                    let r = matrix_run(tier, &cfg, f, threads);
                    assert_eq!(r.stats.committed_instructions, MATRIX_LEN as u64);
                    let t = tier.fidelity.name();
                    let ghz = f / 1e9;
                    rows.push((
                        format!("{name}/t{threads}/cold/{t}@{ghz}"),
                        r.cycles.to_bits(),
                        r.seconds.to_bits(),
                        stats_digest(&r),
                    ));
                }
            }
        }
    }
    rows
}

// Recorded from the separate single-frequency tier engines, before they
// were folded into one-lane grids.
const MATRIX: &[(&str, u64, u64, u64)] = &[
    (
        "a15/t1/cold/atomic@0.6",
        0x40f84c6808080808,
        0x3f25bdece7425973,
        0x8368bec09a4022cd,
    ),
    (
        "a15/t1/cold/atomic@1.8",
        0x40f84c6808080808,
        0x3f0cfd3bdf0321ef,
        0xa534b8362e5701e6,
    ),
    (
        "a15/t1/cold/approx@0.6",
        0x412c777c9a9aadb6,
        0x3f5978bb9568213a,
        0x4d5a9ca2d59664a5,
    ),
    (
        "a15/t1/cold/approx@1.8",
        0x413730664d4d4011,
        0x3f4baa668ea70a7b,
        0x2d2eade2189f3951,
    ),
    (
        "a15/t1/cold/sampled@0.6",
        0x412c73b254d5e71f,
        0x3f597557660108da,
        0x3abe9ab049b5bcd1,
    ),
    (
        "a15/t1/cold/sampled@1.8",
        0x413759613fc68b73,
        0x3f4bdb4abea680d8,
        0x553f4ec2ec6b8441,
    ),
    (
        "a15/t4/cold/atomic@0.6",
        0x40f85b6808080808,
        0x3f25cb58e08fb7cb,
        0x3d023cbdd7f56688,
    ),
    (
        "a15/t4/cold/atomic@1.8",
        0x40f85b6808080808,
        0x3f0d0f212b6a4a64,
        0x91b985a0d0b92cc5,
    ),
    (
        "a15/t4/cold/approx@0.6",
        0x412c9e4434344762,
        0x3f599b6ea654b63d,
        0x45a7687b47784530,
    ),
    (
        "a15/t4/cold/approx@1.8",
        0x413748b01a1a0c8e,
        0x3f4bc760ae7c509e,
        0x3ea7bbdb033093f9,
    ),
    (
        "a15/t4/cold/sampled@0.6",
        0x412c57e8e4936e4d,
        0x3f595c7a66c32c0c,
        0x64070a9a31320e4b,
    ),
    (
        "a15/t4/cold/sampled@1.8",
        0x4137124284ddc65f,
        0x3f4b867145057a08,
        0xa260f43417fa796b,
    ),
    (
        "a7/t1/cold/atomic@0.6",
        0x4109553eeeeeeef0,
        0x3f36aae6557aafd8,
        0x461119911a08ce6c,
    ),
    (
        "a7/t1/cold/atomic@1.8",
        0x4109553eeeeeeef0,
        0x3f1e39331ca39520,
        0x42646f06e5e3e67c,
    ),
    (
        "a7/t1/cold/approx@0.6",
        0x413d893677775770,
        0x3f6a6da89d577e41,
        0x1198a3cff841d2c6,
    ),
    (
        "a7/t1/cold/approx@1.8",
        0x414b4bbe0888a6e4,
        0x3f604859c4a1630f,
        0x7ce62813c03a531a,
    ),
    (
        "a7/t1/cold/sampled@0.6",
        0x413d911028ef89f8,
        0x3f6a74aedb9169a6,
        0x2d29e30486d88e40,
    ),
    (
        "a7/t1/cold/sampled@1.8",
        0x414b4faf65990952,
        0x3f604ab3e07bac11,
        0x71e66dd5f9852fcf,
    ),
    (
        "a7/t4/cold/atomic@0.6",
        0x410959beeeeeeef0,
        0x3f36aeed204518f2,
        0x7a56057f7deb5cf5,
    ),
    (
        "a7/t4/cold/atomic@1.8",
        0x410959beeeeeeef0,
        0x3f1e3e91805c2143,
        0x971152bcd02073ce,
    ),
    (
        "a7/t4/cold/approx@0.6",
        0x413dc1cfddddbd38,
        0x3f6aa04d82a11071,
        0x6142d05665f2d8a2,
    ),
    (
        "a7/t4/cold/approx@1.8",
        0x414b682522224112,
        0x3f60594b25ef7e75,
        0x4c4f5fece5cd1be2,
    ),
    (
        "a7/t4/cold/sampled@0.6",
        0x413db86cdda6f62d,
        0x3f6a97e7576dd599,
        0xb454cb9748027e11,
    ),
    (
        "a7/t4/cold/sampled@1.8",
        0x414b73d51eecbb04,
        0x3f606043f02fc20d,
        0xfcad04835134ed27,
    ),
    (
        "ex5old/t1/cold/atomic@0.6",
        0x40f16d1f38569e31,
        0x3f1f2f7d1bceba56,
        0x4792c5c08535156a,
    ),
    (
        "ex5old/t1/cold/atomic@1.8",
        0x40f16d1f38569e31,
        0x3f04ca5367df26e4,
        0x8e1d3b8cc6211b7d,
    ),
    (
        "ex5old/t1/cold/approx@0.6",
        0x4133546e59ebd033,
        0x3f614bc7fa18180b,
        0x3c8ec433e72d58ca,
    ),
    (
        "ex5old/t1/cold/approx@1.8",
        0x4138328d26b88d1d,
        0x3f4cde633d54a558,
        0x306d598920e6541e,
    ),
    (
        "ex5old/t1/cold/sampled@0.6",
        0x413343aa89fc57b5,
        0x3f613cc7ba74532f,
        0x06cef9ee13b3486b,
    ),
    (
        "ex5old/t1/cold/sampled@1.8",
        0x41381c28781c11cc,
        0x3f4cc3abe229f9ca,
        0x587930d468d4cb37,
    ),
    (
        "ex5old/t4/cold/atomic@0.6",
        0x40f16e3f38569e31,
        0x3f1f31808133eee3,
        0x612f24fecdf16f36,
    ),
    (
        "ex5old/t4/cold/atomic@1.8",
        0x40f16e3f38569e31,
        0x3f04cbab00cd49ed,
        0x24ed4cbadf102196,
    ),
    (
        "ex5old/t4/cold/approx@0.6",
        0x41335aa7c0523660,
        0x3f615159ba243caf,
        0x9570c65dab2db820,
    ),
    (
        "ex5old/t4/cold/approx@1.8",
        0x413838c68d1ef384,
        0x3f4ce5d03d64d678,
        0xed54cfd84dedcda8,
    ),
    (
        "ex5old/t4/cold/sampled@0.6",
        0x413340882e746a27,
        0x3f6139f9ca7c6e97,
        0x47dc298880e851df,
    ),
    (
        "ex5old/t4/cold/sampled@1.8",
        0x41382a3d1723089f,
        0x3f4cd4785d32bb8e,
        0x7f41fbcdc1118a13,
    ),
];

#[test]
fn every_tier_and_config_matches_the_golden_bits() {
    let rows = matrix();
    let table: Vec<String> = rows
        .iter()
        .map(|(k, c, s, d)| format!("    (\"{k}\", 0x{c:016x}, 0x{s:016x}, 0x{d:016x}),"))
        .collect();
    let table = table.join("\n");
    let got: Vec<(&str, u64, u64, u64)> = rows
        .iter()
        .map(|(k, c, s, d)| (k.as_str(), *c, *s, *d))
        .collect();
    assert_eq!(got.len(), MATRIX.len(), "matrix shape moved; now:\n{table}");
    for (g, want) in got.iter().zip(MATRIX) {
        assert_eq!(g, want, "bits moved; now:\n{table}");
    }
}
