//! Steady-state loop detection and extrapolation.
//!
//! Long-running kernels dominated by a regular inner loop produce warp
//! streams that are the same iteration body repeated hundreds of times.
//! Simulating every repetition is wasted work once the machine reaches
//! steady state: each extra iteration shifts every event count and the
//! makespan by the same delta. This module detects that structure and
//! replaces the tail with linear extrapolation:
//!
//! 1. **Detection** — each warp stream's minimal period is found with the
//!    KMP prefix function; the launch's common repetition count `R` is the
//!    gcd of the per-warp repetition counts. Extrapolation is considered
//!    only when `R >= MIN_REPETITIONS`.
//! 2. **Probing** — three truncated copies of the resident set are
//!    simulated in full detail, at `W-1`, `W` and `W+1` iterations
//!    (`W = PROBE_ITERATIONS`), each from fresh caches, exactly like a real
//!    launch would start.
//! 3. **Guard** — the two consecutive deltas must agree: exactly for
//!    count-like fields (integer-valued, so equality is exact in f64), and
//!    within 1e-9 relative for time-like fields. If the machine has not
//!    reached steady state (cold caches still warming, occupancy ramping),
//!    the deltas differ and the launch falls back to full simulation.
//! 4. **Extrapolation** — the accepted delta is applied `R-(W+1)` more
//!    times. Integer event counts stay exact (products and sums of
//!    integers below 2^53); the derived cycle fields are rebuilt from the
//!    extrapolated makespan the same way the execute loop does.
//!
//! The differential oracle in bf-analyze gates this in the test suite: all
//! statically exact counters of an extrapolated launch must agree with the
//! fully simulated launch to 1e-9.

use crate::arch::GpuConfig;
use crate::counters::{RawEvents, RAW_EVENT_FIELDS};
use crate::engine::fresh_caches;
use crate::soa::{self, SmResult};
use crate::trace::{BlockTrace, WarpInstruction};

/// Minimum common repetition count before extrapolation is attempted.
/// Below this the probe simulations cost as much as just simulating.
pub const MIN_REPETITIONS: usize = 32;

/// Iterations simulated in detail for the middle probe.
pub const PROBE_ITERATIONS: usize = 6;

/// Relative tolerance for time-like delta agreement.
const TIME_DELTA_RTOL: f64 = 1e-9;

/// Minimal period of a stream (KMP prefix function). A stream whose length
/// is not a multiple of its smallest border-derived period is aperiodic and
/// reports its full length.
fn minimal_period(stream: &[WarpInstruction]) -> usize {
    let n = stream.len();
    if n == 0 {
        return 0;
    }
    let mut pi = vec![0usize; n];
    for i in 1..n {
        let mut j = pi[i - 1];
        while j > 0 && stream[i] != stream[j] {
            j = pi[j - 1];
        }
        if stream[i] == stream[j] {
            j += 1;
        }
        pi[i] = j;
    }
    let p = n - pi[n - 1];
    if n.is_multiple_of(p) {
        p
    } else {
        n
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The common repetition count of a resident set: the gcd over all
/// non-empty warp streams of each stream's repetition count. Returns 0 when
/// every stream is empty.
pub fn common_repetitions(blocks: &[BlockTrace]) -> usize {
    let mut common: Option<usize> = None;
    for b in blocks {
        for stream in &b.warps {
            if stream.is_empty() {
                continue;
            }
            let reps = stream.len() / minimal_period(stream);
            common = Some(match common {
                None => reps,
                Some(g) => gcd(g, reps),
            });
            if common == Some(1) {
                return 1;
            }
        }
    }
    common.unwrap_or(0)
}

/// Truncates every warp stream to `k` of its `r_total` iteration units.
/// Barrier counts stay matched across each block's warps because every
/// unit carries `total_barriers / r_total` barriers (all warps of a block
/// have equal totals, enforced by `BlockTrace::validate`). The copies
/// share the originals' lane vectors: cloning an instruction clones its
/// [`Lanes`](crate::trace::Lanes) handle, not the addresses.
fn truncated(blocks: &[BlockTrace], r_total: usize, k: usize) -> Vec<BlockTrace> {
    blocks
        .iter()
        .map(|b| BlockTrace {
            warps: b
                .warps
                .iter()
                .map(|stream| {
                    let unit = stream.len() / r_total;
                    stream[..unit * k].to_vec()
                })
                .collect(),
        })
        .collect()
}

/// Flat view of an [`SmResult`]: `[cycles, dram_bytes, events...]`.
fn flatten(r: &SmResult) -> [f64; RAW_EVENT_FIELDS + 2] {
    let mut out = [0.0; RAW_EVENT_FIELDS + 2];
    out[0] = r.cycles;
    out[1] = r.dram_bytes;
    out[2..].copy_from_slice(&r.events.as_array());
    out
}

/// Whether flat-index `i` holds a time-like quantity (accumulated f64
/// arithmetic, compared with a relative tolerance) rather than an exact
/// integer count. Flat layout: 0 = cycles, 1 = dram_bytes, then the
/// `RawEvents` fields in declaration order.
fn is_time_like(i: usize) -> bool {
    const ELAPSED_CYCLES: usize = 2;
    const ACTIVE_WARP_CYCLES: usize = 2 + 23;
    const ACTIVE_CYCLES: usize = 2 + 24;
    const LDST_BUSY_CYCLES: usize = 2 + 25;
    const ISSUE_SLOTS: usize = 2 + 26;
    const TIME_SECONDS: usize = 2 + 29;
    matches!(
        i,
        0 | ELAPSED_CYCLES
            | ACTIVE_WARP_CYCLES
            | ACTIVE_CYCLES
            | LDST_BUSY_CYCLES
            | ISSUE_SLOTS
            | TIME_SECONDS
    )
}

/// Attempts steady-state extrapolation of a resident set. Returns `None`
/// when the set is not sufficiently periodic or the probe deltas have not
/// stabilised — the caller then falls back to full simulation. Each probe
/// starts from the cold caches a full launch simulation starts from.
pub fn try_extrapolate(gpu: &GpuConfig, blocks: &[BlockTrace]) -> Option<SmResult> {
    let r_total = {
        let _period = bf_trace::span!("steady.period");
        common_repetitions(blocks)
    };
    if r_total < MIN_REPETITIONS {
        return None;
    }
    let w = PROBE_ITERATIONS;
    let mut probes = Vec::with_capacity(3);
    for k in [w - 1, w, w + 1] {
        let t = {
            let _truncate = bf_trace::span!("steady.truncate");
            truncated(blocks, r_total, k)
        };
        // A truncation that fails to compile (it cannot, structurally,
        // but stay corruption-tolerant) falls back to the full path.
        let compiled = soa::compile(gpu, &t).ok()?;
        let (mut l1, mut l2) = fresh_caches(gpu);
        probes.push(soa::execute(gpu, &compiled, &mut l1, &mut l2));
    }
    let (a1, a2, a3) = (
        flatten(&probes[0]),
        flatten(&probes[1]),
        flatten(&probes[2]),
    );

    // Guard: consecutive deltas must agree before the tail is trusted to
    // the linear model.
    for i in 0..a1.len() {
        let d12 = a2[i] - a1[i];
        let d23 = a3[i] - a2[i];
        let stable = if is_time_like(i) {
            (d12 - d23).abs() <= TIME_DELTA_RTOL * d12.abs().max(d23.abs()).max(1e-12)
        } else {
            d12 == d23
        };
        if !stable {
            return None;
        }
    }

    let rem = (r_total - (w + 1)) as f64;
    let mut out = [0.0; RAW_EVENT_FIELDS + 2];
    for i in 0..out.len() {
        out[i] = a3[i] + (a3[i] - a2[i]) * rem;
    }
    let cycles = out[0].max(1.0);
    let mut events = RawEvents::from_array(out[2..].try_into().unwrap());
    // Rebuild the derived cycle fields exactly as the execute loop does.
    events.elapsed_cycles = cycles;
    events.active_cycles = cycles;
    events.issue_slots = cycles * gpu.warp_schedulers as f64;
    events.time_seconds = cycles / (gpu.clock_ghz * 1e9);
    bf_trace::counter!("sim.loop_extrapolated");
    Some(SmResult {
        cycles,
        events,
        dram_bytes: out[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FULL_MASK;

    fn repeat_unit(unit: &[WarpInstruction], reps: usize) -> Vec<WarpInstruction> {
        let mut v = Vec::with_capacity(unit.len() * reps);
        for _ in 0..reps {
            v.extend_from_slice(unit);
        }
        v
    }

    fn alu(count: u32) -> WarpInstruction {
        WarpInstruction::Alu {
            count,
            mask: FULL_MASK,
        }
    }

    #[test]
    fn minimal_period_detects_repeats() {
        let unit = vec![alu(3), WarpInstruction::Barrier];
        let stream = repeat_unit(&unit, 10);
        assert_eq!(minimal_period(&stream), 2);
        assert_eq!(minimal_period(&[alu(1), alu(2), alu(1)]), 3);
        assert_eq!(minimal_period(&[]), 0);
    }

    #[test]
    fn common_repetitions_takes_gcd_across_warps() {
        let mut b = BlockTrace::with_warps(2);
        b.warps[0] = repeat_unit(&[alu(1)], 64);
        b.warps[1] = repeat_unit(&[alu(2), alu(3)], 32); // 32 reps of a 2-op unit
        assert_eq!(common_repetitions(&[b]), 32);
    }

    #[test]
    fn aperiodic_stream_blocks_extrapolation() {
        let mut b = BlockTrace::with_warps(2);
        b.warps[0] = repeat_unit(&[alu(1)], 64);
        b.warps[1] = vec![alu(1), alu(2)]; // aperiodic pair: reps = 1
        assert_eq!(common_repetitions(&[b]), 1);
    }

    #[test]
    fn truncation_preserves_barrier_balance() {
        let unit0 = vec![alu(1), WarpInstruction::Barrier];
        let unit1 = vec![alu(2), alu(4), WarpInstruction::Barrier];
        let mut b = BlockTrace::with_warps(2);
        b.warps[0] = repeat_unit(&unit0, 40);
        b.warps[1] = repeat_unit(&unit1, 40);
        let r = common_repetitions(std::slice::from_ref(&b));
        assert_eq!(r, 40);
        for k in [5, 6, 7] {
            let t = truncated(std::slice::from_ref(&b), r, k);
            assert!(t[0].validate().is_ok());
            assert_eq!(t[0].warps[0].len(), 2 * k);
            assert_eq!(t[0].warps[1].len(), 3 * k);
        }
    }

    #[test]
    fn steady_alu_loop_extrapolates_exactly() {
        let g = GpuConfig::gtx580();
        let reps = 200;
        let mut b = BlockTrace::with_warps(4);
        for stream in &mut b.warps {
            *stream = repeat_unit(&[alu(5)], reps);
        }
        let extrapolated =
            try_extrapolate(&g, std::slice::from_ref(&b)).expect("should extrapolate");
        let (mut l1, mut l2) = fresh_caches(&g);
        let compiled = soa::compile(&g, std::slice::from_ref(&b)).unwrap();
        let full = soa::execute(&g, &compiled, &mut l1, &mut l2);
        // Statically exact counters are exactly right.
        assert_eq!(extrapolated.events.inst_executed, full.events.inst_executed);
        assert_eq!(
            extrapolated.events.thread_inst_executed,
            full.events.thread_inst_executed
        );
        // Makespan agrees tightly for a perfectly regular loop.
        let rel = (extrapolated.cycles - full.cycles).abs() / full.cycles;
        assert!(rel < 1e-6, "cycles off by {rel}");
    }

    #[test]
    fn unstable_deltas_fall_back() {
        // A stream periodic in *instructions* but whose memory footprint
        // has not reached cache steady state within the probe window would
        // be rejected; emulate instability cheaply with too few reps.
        let mut b = BlockTrace::with_warps(1);
        b.warps[0] = repeat_unit(&[alu(1)], MIN_REPETITIONS - 1);
        let g = GpuConfig::gtx580();
        assert!(try_extrapolate(&g, std::slice::from_ref(&b)).is_none());
    }
}
