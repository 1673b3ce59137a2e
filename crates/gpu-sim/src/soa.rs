//! Structure-of-arrays batch execution engine for one SM's resident set.
//!
//! The engine is the single home of the per-instruction counting rules. It
//! splits the work into two stages:
//!
//! 1. **Compile** ([`compile`]): three tight sweeps over the resident set
//!    lay every instruction out as a fixed-size [`Op`] record in one
//!    contiguous array, with all data-independent work — active-lane
//!    counts, requested bytes, coalesced transaction addresses (into a
//!    shared `u64` arena), bank-conflict replay counts — precomputed using
//!    reusable scratch buffers (no per-access allocation). Its read-only
//!    view ([`CompiledLaunch::warps`]) is what bf-analyze's static walk and
//!    block attribution fold over, so the statically exact counters have
//!    one producer. Three shortcuts keep it fast, each exact:
//!    - The bank sweep reuses the replays of the previous warp's access at
//!      the same index when this access has the same width and mask and
//!      moves every active offset by one multiple of `banks × bank_width`
//!      ([`banks::is_translation`]): each word lands in its own bank again,
//!      one to one, so the degree cannot change. An access holding the
//!      very same [`Lanes`] handle ([`Lanes::ptr_eq`]) is the translation
//!      by zero and reuses without reading its lanes. Other accesses are
//!      counted by [`banks::conflict_degree_scratch`], whose monotone fast
//!      path needs no division and no sort.
//!    - [`coalesce_into`] sorts only accesses whose segments fall back
//!      below the last one emitted; otherwise its output is already
//!      ascending and unique.
//!    - A store's L1 evict list is its sector list whenever L1 lines are
//!      at least 32 bytes: `Cache::write_evict` drops the line holding an
//!      address, so evicting each sector drops exactly the store's lines.
//! 2. **Execute** ([`execute`]): the event-driven scheduler loop runs over
//!    the `Op` slice. Only genuinely dynamic state remains: the ready
//!    queue, pipeline next-free times, and L1/L2 tag lookups.
//!
//! The scheduler models issue bandwidth ([`GpuConfig::issue_width`]),
//! ALU/LDST/SFU pipeline throughput, per-class dependent-issue latencies,
//! bank-conflict replays, coalescing with L1/L2 lookup and DRAM latency,
//! and `__syncthreads` barriers (warps park until the whole block arrives).
//!
//! Results are bit-deterministic — the contract the memoization layer and
//! the determinism suite rely on. The `soa_equivalence` proptests pin the
//! engine to a reference interpreter kept under `tests/reference`, which
//! re-derives coalescing and bank conflicts per instruction straight from
//! the trace.

use crate::arch::GpuConfig;
use crate::banks::{self, BankScratch};
use crate::cache::{Access, Cache};
use crate::coalesce::{coalesce_into, requested_bytes};
use crate::counters::RawEvents;
use crate::trace::{BlockTrace, LaneMask, Lanes, WarpInstruction};
use crate::{Result, SimError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of simulating one resident set on one SM.
#[derive(Debug, Clone)]
pub struct SmResult {
    /// Cycles until the last resident warp retires.
    pub cycles: f64,
    /// Raw events accumulated by the resident set (unscaled).
    pub events: RawEvents,
    /// Bytes moved to/from DRAM by the resident set (for the wave-level
    /// bandwidth model).
    pub dram_bytes: f64,
}

/// Totally ordered f64 wrapper so the ready-queue is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Instruction class of a compiled [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// ALU burst.
    Alu,
    /// Special-function unit instruction.
    Sfu,
    /// Branch.
    Branch,
    /// Shared-memory load.
    LoadShared,
    /// Shared-memory store.
    StoreShared,
    /// Global-memory load.
    LoadGlobal,
    /// Global-memory store.
    StoreGlobal,
    /// `__syncthreads` barrier.
    Barrier,
}

/// One compiled warp instruction: every data-independent quantity the
/// scheduler needs, precomputed into a flat `Copy` record. Transaction
/// addresses live in the launch's shared arena, referenced by range. The
/// public fields are the statically exact per-instruction counts, as the
/// narrowest integers that hold them for any 32-lane access of at most 255
/// bytes a lane (28 bytes an op; the event accumulation converts them to
/// f64 exactly).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Instruction class.
    pub kind: OpKind,
    /// Branch divergence flag.
    pub divergent: bool,
    /// Active lanes.
    pub lanes: u8,
    /// ALU burst length.
    pub count: u32,
    /// Shared-memory bank-conflict replays.
    pub replays: u16,
    /// Global-store transaction count at 128-byte reporting granularity.
    pub store_trans: u16,
    /// Bytes the active lanes requested (global load/store).
    pub req_bytes: u16,
    /// Arena range of coalesced transaction addresses, at the load-segment
    /// granularity ([`GpuConfig::load_segment_bytes`]: whole L1 lines on
    /// Fermi, 32-byte sectors everywhere else) for loads and 32-byte
    /// sectors for stores.
    trans_start: u32,
    trans_len: u16,
    /// Arena range of L1 tags a store evicts on global-caching L1s
    /// (whole Fermi lines, Pascal/Volta sectors).
    evict_start: u32,
    evict_len: u16,
}

impl Op {
    fn new(kind: OpKind, lanes: u8) -> Op {
        Op {
            kind,
            divergent: false,
            lanes,
            count: 0,
            replays: 0,
            store_trans: 0,
            req_bytes: 0,
            trans_start: 0,
            trans_len: 0,
            evict_start: 0,
            evict_len: 0,
        }
    }

    /// Coalesced transactions of a global access: load-segment-sized for
    /// loads, 32-byte sectors for stores (0 for every other kind).
    pub fn transactions(&self) -> usize {
        self.trans_len as usize
    }
}

/// One warp's slice of the op array, plus its block id.
#[derive(Debug, Clone, Copy)]
struct CompiledWarp {
    block: u32,
    start: u32,
    len: u32,
}

/// A resident set compiled to SoA form: the flat op array, per-warp ranges,
/// and the shared transaction-address arena.
#[derive(Debug)]
pub struct CompiledLaunch {
    ops: Vec<Op>,
    warps: Vec<CompiledWarp>,
    arena: Vec<u64>,
    /// Warps per block, indexed by block id (drives barrier release).
    block_warp_counts: Vec<usize>,
}

impl CompiledLaunch {
    /// Every compiled warp in trace order (blocks in order, each block's
    /// warps in order): the index of its block in the compiled set and its
    /// ops in stream order.
    pub fn warps(&self) -> impl Iterator<Item = (usize, &[Op])> + '_ {
        self.warps.iter().map(|w| {
            let start = w.start as usize;
            (w.block as usize, &self.ops[start..start + w.len as usize])
        })
    }

    /// The arena range `start..start + len`.
    fn arena(&self, start: u32, len: u16) -> &[u64] {
        &self.arena[start as usize..start as usize + len as usize]
    }
}

/// Appends one access's transactions (at most 32 lanes × 9 segments) to the
/// arena and returns their range.
fn arena_push(arena: &mut Vec<u64>, addrs: &[u64]) -> Result<(u32, u16)> {
    let start = u32::try_from(arena.len())
        .map_err(|_| SimError::BadTrace("transaction arena exceeds u32 range".into()))?;
    arena.extend_from_slice(addrs);
    Ok((start, addrs.len() as u16))
}

/// The offsets, width and mask of a shared-memory access.
fn shared_access(instr: &WarpInstruction) -> Option<(&Lanes<u32>, u8, LaneMask)> {
    match instr {
        WarpInstruction::LoadShared {
            offsets,
            width,
            mask,
        }
        | WarpInstruction::StoreShared {
            offsets,
            width,
            mask,
        } => Some((offsets, *width, *mask)),
        _ => None,
    }
}

/// Compiles a resident set into SoA form. Validates every block and runs
/// the coalescing and bank-conflict sweeps with reused scratch buffers.
pub fn compile(gpu: &GpuConfig, blocks: &[BlockTrace]) -> Result<CompiledLaunch> {
    {
        let _validate = bf_trace::span!("validate");
        for b in blocks {
            b.validate()?;
        }
    }

    // Pass 1 — trace walk: assemble the op skeletons (kind, lanes, and the
    // per-kind static costs that need no address analysis).
    let mut cl = {
        let _walk = bf_trace::span!("trace_walk");
        // Sized up front: one allocation per launch, no growth copies.
        let streams = || blocks.iter().flat_map(|b| &b.warps);
        let mut ops: Vec<Op> = Vec::with_capacity(streams().map(Vec::len).sum());
        let mut warps: Vec<CompiledWarp> = Vec::with_capacity(streams().count());
        let mut block_warp_counts = Vec::with_capacity(blocks.len());
        for (bi, b) in blocks.iter().enumerate() {
            block_warp_counts.push(b.warps.len());
            for stream in &b.warps {
                let start = u32::try_from(ops.len())
                    .map_err(|_| SimError::BadTrace("op array exceeds u32 range".into()))?;
                for instr in stream {
                    let lanes = instr.active_lanes() as u8;
                    let op = match instr {
                        WarpInstruction::Alu { count, .. } => {
                            let mut op = Op::new(OpKind::Alu, lanes);
                            op.count = *count;
                            op
                        }
                        WarpInstruction::Sfu { .. } => Op::new(OpKind::Sfu, lanes),
                        WarpInstruction::Branch { divergent, .. } => {
                            let mut op = Op::new(OpKind::Branch, lanes);
                            op.divergent = *divergent;
                            op
                        }
                        WarpInstruction::LoadShared { .. } => Op::new(OpKind::LoadShared, lanes),
                        WarpInstruction::StoreShared { .. } => Op::new(OpKind::StoreShared, lanes),
                        WarpInstruction::LoadGlobal { width, mask, .. } => {
                            let mut op = Op::new(OpKind::LoadGlobal, lanes);
                            op.req_bytes = requested_bytes(*width, *mask) as u16;
                            op
                        }
                        WarpInstruction::StoreGlobal { width, mask, .. } => {
                            let mut op = Op::new(OpKind::StoreGlobal, lanes);
                            op.req_bytes = requested_bytes(*width, *mask) as u16;
                            op
                        }
                        WarpInstruction::Barrier => Op::new(OpKind::Barrier, lanes),
                    };
                    ops.push(op);
                }
                warps.push(CompiledWarp {
                    block: bi as u32,
                    start,
                    len: stream.len() as u32,
                });
            }
        }
        CompiledLaunch {
            ops,
            warps,
            arena: Vec::new(),
            block_warp_counts,
        }
    };

    // Pass 2 — coalescing sweep: fold lane addresses of every global access
    // into segment transactions, appending the addresses to the arena.
    {
        let _coal = bf_trace::span!("coalesce");
        let mut scratch: Vec<u64> = Vec::with_capacity(64);
        let mut cursor = 0usize;
        let load_segment = gpu.load_segment_bytes();
        // L1 tags a store evicts, on L1s that cache globals.
        let evict_line = gpu.l1_caches_globals.then(|| gpu.l1_tag_line() as u32);
        for b in blocks {
            for stream in &b.warps {
                for instr in stream {
                    let op = &mut cl.ops[cursor];
                    cursor += 1;
                    match instr {
                        WarpInstruction::LoadGlobal { addrs, width, mask } => {
                            coalesce_into(addrs, *width, *mask, load_segment, &mut scratch);
                            (op.trans_start, op.trans_len) = arena_push(&mut cl.arena, &scratch)?;
                        }
                        WarpInstruction::StoreGlobal { addrs, width, mask } => {
                            coalesce_into(addrs, *width, *mask, 32, &mut scratch);
                            (op.trans_start, op.trans_len) = arena_push(&mut cl.arena, &scratch)?;
                            // `Cache::write_evict` drops the line holding an
                            // address, so on L1 lines of at least 32 bytes
                            // the store's sectors evict exactly its lines.
                            if let Some(line) = evict_line {
                                (op.evict_start, op.evict_len) = if line >= 32 {
                                    (op.trans_start, op.trans_len)
                                } else {
                                    coalesce_into(addrs, *width, *mask, line, &mut scratch);
                                    arena_push(&mut cl.arena, &scratch)?
                                };
                            }
                            // Hardware reports stores in up-to-128-byte
                            // transactions regardless of the sector path.
                            coalesce_into(addrs, *width, *mask, 128, &mut scratch);
                            op.store_trans = scratch.len() as u16;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // Pass 3 — bank-conflict sweep over the shared-memory accesses. An
    // access that translates the previous warp's access at the same index
    // by a whole bank period reuses its replays (`banks::is_translation`);
    // sharing that access's handle is the translation by zero.
    {
        let _banks = bf_trace::span!("banks");
        let mut scratch = BankScratch::new();
        let (banks, bank_width) = (gpu.shared_banks as u32, gpu.bank_width as u32);
        let period = (gpu.shared_banks as u64).saturating_mul(gpu.bank_width as u64);
        let mut cursor = 0usize;
        // The previous warp's stream and the index of its first op.
        let mut prev: Option<(&[WarpInstruction], usize)> = None;
        for b in blocks {
            for stream in &b.warps {
                let start = cursor;
                for (i, instr) in stream.iter().enumerate() {
                    let op = cursor;
                    cursor += 1;
                    let Some((offsets, width, mask)) = shared_access(instr) else {
                        continue;
                    };
                    let translated = prev.and_then(|(pstream, pstart)| {
                        let (poffsets, pwidth, pmask) = shared_access(pstream.get(i)?)?;
                        (pwidth == width
                            && pmask == mask
                            && (Lanes::ptr_eq(poffsets, offsets)
                                || banks::is_translation(poffsets, offsets, mask, period)))
                        .then(|| cl.ops[pstart + i].replays)
                    });
                    cl.ops[op].replays = translated.unwrap_or_else(|| {
                        banks::replays_scratch(
                            offsets,
                            width,
                            mask,
                            banks,
                            bank_width,
                            &mut scratch,
                        ) as u16
                    });
                }
                prev = Some((stream, start));
            }
        }
    }

    Ok(cl)
}

struct BarrierState {
    arrived: usize,
    release_time: f64,
    parked: Vec<usize>,
    total_warps: usize,
}

/// Runs the event-driven scheduler over a compiled resident set: warps
/// issue earliest-ready first (ties by warp index), and barriers release
/// at the latest arrival.
pub fn execute(gpu: &GpuConfig, cl: &CompiledLaunch, l1: &mut Cache, l2: &mut Cache) -> SmResult {
    let _issue_span = bf_trace::span!("issue_loop");
    let nwarps = cl.warps.len();
    let mut pc: Vec<u32> = vec![0; nwarps];
    let mut finish: Vec<f64> = vec![0.0; nwarps];
    let mut barriers: Vec<BarrierState> = cl
        .block_warp_counts
        .iter()
        .map(|&n| BarrierState {
            arrived: 0,
            release_time: 0.0,
            parked: Vec::new(),
            total_warps: n,
        })
        .collect();
    let mut ev = RawEvents {
        warps_launched: nwarps as f64,
        blocks_launched: cl.block_warp_counts.len() as f64,
        ..RawEvents::default()
    };

    let mut ready: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for i in 0..nwarps {
        ready.push(Reverse((Time(0.0), i)));
    }

    let mut issue_free = 0.0f64;
    let mut alu_free = 0.0f64;
    let mut ldst_free = 0.0f64;
    let mut sfu_free = 0.0f64;
    let issue_period = 1.0 / gpu.issue_width() as f64;
    let alu_period = 1.0 / gpu.alu_throughput;
    let ldst_period = 1.0 / gpu.ldst_units;
    let sfu_period = 1.0 / gpu.sfu_throughput;

    let mut dram_bytes = 0.0f64;
    let mut makespan = 0.0f64;

    while let Some(Reverse((Time(ready_t), wi))) = ready.pop() {
        let w = cl.warps[wi];
        if pc[wi] >= w.len {
            continue;
        }
        let op = cl.ops[(w.start + pc[wi]) as usize];
        if op.kind == OpKind::Barrier {
            ev.inst_executed += 1.0;
            ev.inst_issued += 1.0;
            let bar = &mut barriers[w.block as usize];
            bar.arrived += 1;
            bar.release_time = bar.release_time.max(ready_t);
            pc[wi] += 1;
            if bar.arrived == bar.total_warps {
                let t = bar.release_time;
                bar.arrived = 0;
                bar.release_time = 0.0;
                let parked = std::mem::take(&mut bar.parked);
                for p in parked {
                    ready.push(Reverse((Time(t), p)));
                }
                ready.push(Reverse((Time(t), wi)));
            } else {
                bar.parked.push(wi);
            }
            continue;
        }

        let t_issue = ready_t.max(issue_free);
        issue_free = t_issue + issue_period;
        let lanes = op.lanes as f64;

        let next_ready = match op.kind {
            OpKind::Alu => {
                let c = op.count as f64;
                let start = t_issue.max(alu_free);
                alu_free = start + c * alu_period;
                ev.inst_executed += c;
                ev.inst_issued += c;
                ev.thread_inst_executed += c * lanes;
                start + (c - 1.0) * alu_period + gpu.alu_latency as f64
            }
            OpKind::Sfu => {
                let start = t_issue.max(sfu_free);
                sfu_free = start + sfu_period;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0;
                ev.thread_inst_executed += lanes;
                start + gpu.sfu_latency as f64
            }
            OpKind::Branch => {
                let start = t_issue.max(alu_free);
                alu_free = start + alu_period;
                ev.inst_executed += 1.0;
                ev.branch += 1.0;
                ev.thread_inst_executed += lanes;
                if op.divergent {
                    ev.divergent_branch += 1.0;
                    ev.inst_issued += 2.0;
                    start + 2.0 * gpu.alu_latency as f64
                } else {
                    ev.inst_issued += 1.0;
                    start + gpu.alu_latency as f64
                }
            }
            OpKind::LoadShared => {
                let r = op.replays as f64;
                let start = t_issue.max(ldst_free);
                let busy = (1.0 + r) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0 + r;
                ev.shared_load += 1.0;
                ev.shared_load_replay += r;
                ev.thread_inst_executed += lanes;
                start + gpu.smem_latency as f64 + r
            }
            OpKind::StoreShared => {
                let r = op.replays as f64;
                let start = t_issue.max(ldst_free);
                let busy = (1.0 + r) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0 + r;
                ev.shared_store += 1.0;
                ev.shared_store_replay += r;
                ev.thread_inst_executed += lanes;
                start + r + 2.0
            }
            OpKind::LoadGlobal => {
                ev.gld_request += 1.0;
                ev.gld_requested_bytes += op.req_bytes as f64;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                let mut worst_latency = gpu.l1_latency as f64;
                let trans = cl.arena(op.trans_start, op.trans_len);
                let ntrans = trans.len() as f64;
                if gpu.l1_caches_globals {
                    let segment = gpu.load_segment_bytes();
                    for &line in trans {
                        match l1.read(line) {
                            Access::Hit => {
                                ev.l1_global_load_hit += 1.0;
                            }
                            Access::Miss => {
                                ev.l1_global_load_miss += 1.0;
                                worst_latency = worst_latency.max(gpu.l2_latency as f64);
                                let sectors = (segment / 32).max(1) as u64;
                                for s in 0..sectors {
                                    ev.l2_read_transactions += 1.0;
                                    match l2.read(line + s * 32) {
                                        Access::Hit => ev.l2_read_hits += 1.0,
                                        Access::Miss => {
                                            ev.dram_read_transactions += 1.0;
                                            dram_bytes += 32.0;
                                            worst_latency =
                                                worst_latency.max(gpu.dram_latency as f64);
                                        }
                                    }
                                }
                            }
                        }
                    }
                } else {
                    worst_latency = gpu.l2_latency as f64;
                    for &sec in trans {
                        ev.l2_read_transactions += 1.0;
                        match l2.read(sec) {
                            Access::Hit => ev.l2_read_hits += 1.0,
                            Access::Miss => {
                                ev.dram_read_transactions += 1.0;
                                dram_bytes += 32.0;
                                worst_latency = worst_latency.max(gpu.dram_latency as f64);
                            }
                        }
                    }
                }
                ev.global_load_transactions += ntrans;
                ev.inst_issued += ntrans.max(1.0);
                let busy = ntrans.max(1.0) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                start + worst_latency
            }
            OpKind::StoreGlobal => {
                ev.gst_request += 1.0;
                ev.gst_requested_bytes += op.req_bytes as f64;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                let sectors = cl.arena(op.trans_start, op.trans_len);
                if gpu.l1_caches_globals {
                    for &line in cl.arena(op.evict_start, op.evict_len) {
                        l1.write_evict(line);
                    }
                }
                for &sec in sectors {
                    ev.l2_write_transactions += 1.0;
                    let _ = l2.write_allocate(sec);
                    ev.dram_write_transactions += 1.0;
                    dram_bytes += 32.0;
                }
                let store_trans = op.store_trans as f64;
                ev.global_store_transactions += store_trans;
                let ntrans = sectors.len() as f64;
                ev.inst_issued += store_trans.max(1.0);
                let busy = ntrans.max(1.0) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                start + 4.0
            }
            OpKind::Barrier => unreachable!("handled above"),
        };

        pc[wi] += 1;
        finish[wi] = next_ready;
        makespan = makespan.max(next_ready);
        if pc[wi] < w.len {
            ready.push(Reverse((Time(next_ready), wi)));
        }
    }

    for f in &finish {
        ev.active_warp_cycles += *f;
    }
    let cycles = makespan.max(1.0);
    ev.elapsed_cycles = cycles;
    ev.active_cycles = cycles;
    ev.issue_slots = cycles * gpu.issue_width() as f64;
    ev.time_seconds = cycles / (gpu.clock_ghz * 1e9);
    SmResult {
        cycles,
        events: ev,
        dram_bytes,
    }
}

/// Compiles and executes a resident set: the detailed simulation of one
/// SM the launch engine runs.
pub fn simulate_resident_set(
    gpu: &GpuConfig,
    blocks: &[BlockTrace],
    l1: &mut Cache,
    l2: &mut Cache,
) -> Result<SmResult> {
    let cl = compile(gpu, blocks)?;
    Ok(execute(gpu, &cl, l1, l2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{TraceBuilder, WarpStream};
    use crate::trace::first_lanes;

    fn gpu() -> GpuConfig {
        GpuConfig::gtx580()
    }

    /// Simulates `blocks` from cold caches.
    fn run(g: &GpuConfig, blocks: &[BlockTrace]) -> SmResult {
        let mut l1 = Cache::new(g.l1_size, g.l1_tag_line(), g.l1_assoc);
        let mut l2 = Cache::new(g.l2_size / g.num_sms, g.l2_line.max(32), g.l2_assoc);
        simulate_resident_set(g, blocks, &mut l1, &mut l2).unwrap()
    }

    /// A block of `n` warps, warp `w`'s stream written by `body(stream, w)`.
    fn block(n: usize, body: impl Fn(WarpStream<'_>, usize) -> WarpStream<'_>) -> BlockTrace {
        let mut b = TraceBuilder::new(n);
        for w in 0..n {
            body(b.warp(w), w);
        }
        b.build().unwrap()
    }

    /// `n` dependent single ALU instructions.
    fn alu_chain(w: WarpStream<'_>, n: usize) -> WarpStream<'_> {
        (0..n).fold(w, |w, _| w.alu(1))
    }

    /// One warp loading the same coalesced 128 bytes twice.
    fn load_twice() -> BlockTrace {
        block(1, |w, _| w.load_global_seq(0, 4).load_global_seq(0, 4))
    }

    #[test]
    fn ops_stay_compact() {
        // The op array sits beside the traces in bf-analyze's sampled
        // launches, so its size is part of lint's peak memory.
        assert_eq!(std::mem::size_of::<Op>(), 28);
    }

    #[test]
    fn single_alu_warp_takes_latency() {
        let g = gpu();
        let r = run(&g, &[block(1, |w, _| w.alu(1))]);
        assert!((r.cycles - g.alu_latency as f64).abs() < 2.0);
        assert_eq!(r.events.inst_executed, 1.0);
    }

    #[test]
    fn dependent_alu_chain_accumulates() {
        let g = gpu();
        let r1 = run(&g, &[block(1, |w, _| alu_chain(w, 1))]);
        let r10 = run(&g, &[block(1, |w, _| alu_chain(w, 10))]);
        // Ten dependent instructions take ~10x the latency for one warp.
        assert!(r10.cycles > 8.0 * r1.cycles);
    }

    #[test]
    fn many_warps_hide_alu_latency() {
        // 1 warp running 32 dependent ALU ops vs 32 warps each doing the
        // same: per-instruction cost should drop dramatically.
        let g = gpu();
        let r_solo = run(&g, &[block(1, |w, _| alu_chain(w, 32))]);
        let r_many = run(&g, &[block(32, |w, _| alu_chain(w, 32))]);
        let per_instr_solo = r_solo.cycles / 32.0;
        let per_instr_many = r_many.cycles / (32.0 * 32.0);
        assert!(
            per_instr_many < per_instr_solo / 4.0,
            "latency hiding failed: {per_instr_solo} vs {per_instr_many}"
        );
    }

    #[test]
    fn coalesced_load_counts_one_transaction() {
        let r = run(&gpu(), &[block(1, |w, _| w.load_global_seq(0, 4))]);
        assert_eq!(r.events.gld_request, 1.0);
        assert_eq!(r.events.global_load_transactions, 1.0);
        assert_eq!(r.events.l1_global_load_miss, 1.0);
        assert_eq!(r.events.l1_global_load_hit, 0.0);
        assert_eq!(r.events.l2_read_transactions, 4.0); // 128B = 4 sectors
        assert_eq!(r.events.gld_requested_bytes, 128.0);
    }

    #[test]
    fn repeated_load_hits_l1_on_fermi() {
        let r = run(&gpu(), &[load_twice()]);
        assert_eq!(r.events.l1_global_load_hit, 1.0);
        assert_eq!(r.events.l1_global_load_miss, 1.0);
    }

    #[test]
    fn kepler_loads_bypass_l1() {
        let r = run(&GpuConfig::k20m(), &[load_twice()]);
        assert_eq!(r.events.l1_global_load_hit, 0.0);
        assert_eq!(r.events.l1_global_load_miss, 0.0);
        assert_eq!(r.events.l2_read_transactions, 8.0);
        assert_eq!(r.events.l2_read_hits, 4.0); // second access hits L2
    }

    #[test]
    fn pascal_loads_cache_in_l1_at_sector_granularity() {
        let r = run(&GpuConfig::gtx1080(), &[load_twice()]);
        // 128 requested bytes coalesce into 4 × 32B sectors, each tagged
        // separately in the sectored L1: 4 cold misses, then 4 hits.
        assert_eq!(r.events.global_load_transactions, 8.0);
        assert_eq!(r.events.l1_global_load_miss, 4.0);
        assert_eq!(r.events.l1_global_load_hit, 4.0);
        // Each sector miss refills exactly one L2 sector (no 128B lines).
        assert_eq!(r.events.l2_read_transactions, 4.0);
        assert_eq!(r.events.dram_read_transactions, 4.0);
    }

    #[test]
    fn maxwell_loads_bypass_l1_like_kepler() {
        let r = run(&GpuConfig::gtx980(), &[load_twice()]);
        assert_eq!(r.events.l1_global_load_hit, 0.0);
        assert_eq!(r.events.l1_global_load_miss, 0.0);
        assert_eq!(r.events.l2_read_transactions, 8.0);
        assert_eq!(r.events.l2_read_hits, 4.0);
    }

    #[test]
    fn scattered_load_issues_replays() {
        let r = run(&gpu(), &[block(1, |w, _| w.load_global_strided(0, 512, 4))]);
        assert_eq!(r.events.global_load_transactions, 32.0);
        assert_eq!(r.events.inst_executed, 1.0);
        assert!(r.events.inst_issued >= 32.0);
    }

    #[test]
    fn bank_conflicts_replay_shared_accesses() {
        // Stride-8 word offsets: 2-way conflict -> 1 replay per access.
        let r = run(&gpu(), &[block(1, |w, _| w.load_shared_strided(0, 8, 4))]);
        assert_eq!(r.events.shared_load, 1.0);
        assert_eq!(r.events.shared_load_replay, 1.0);
        assert_eq!(r.events.inst_issued, 2.0);
    }

    #[test]
    fn conflict_free_shared_access_has_no_replays() {
        let r = run(&gpu(), &[block(1, |w, _| w.store_shared_seq(0, 4))]);
        assert_eq!(r.events.shared_store, 1.0);
        assert_eq!(r.events.shared_store_replay, 0.0);
    }

    #[test]
    fn barrier_synchronises_block() {
        let g = gpu();
        // Warp 0 does a long chain before the barrier; warp 1 arrives early.
        // After the barrier both do one ALU op.
        let mut b = TraceBuilder::new(2);
        alu_chain(b.warp(0), 20);
        b.barrier();
        b.warp(0).alu(1);
        b.warp(1).alu(1);
        let r = run(&g, &[b.build().unwrap()]);
        // Warp 1's post-barrier work cannot start before warp 0's 20-op
        // chain completes.
        assert!(r.cycles > 20.0 * g.alu_latency as f64 * 0.8);
    }

    #[test]
    fn mismatched_barriers_rejected() {
        let g = gpu();
        let mut b = BlockTrace::with_warps(2);
        b.warps[0].push(WarpInstruction::Barrier);
        let mut l1 = Cache::new(g.l1_size, g.l1_tag_line(), g.l1_assoc);
        let mut l2 = Cache::new(g.l2_size / g.num_sms, 32, g.l2_assoc);
        assert!(simulate_resident_set(&g, &[b], &mut l1, &mut l2).is_err());
    }

    #[test]
    fn divergent_branch_counted_and_costed() {
        let r = run(&gpu(), &[block(1, |w, _| w.branch(true).branch(false))]);
        assert_eq!(r.events.branch, 2.0);
        assert_eq!(r.events.divergent_branch, 1.0);
        assert_eq!(r.events.inst_issued, 3.0); // 2 + 1 replay
    }

    #[test]
    fn partial_warp_lowers_thread_inst() {
        let r = run(&gpu(), &[block(1, |w, _| w.mask(first_lanes(16)).alu(1))]);
        assert_eq!(r.events.thread_inst_executed, 16.0);
        assert_eq!(r.events.inst_executed, 1.0);
    }

    #[test]
    fn dram_bytes_accumulate_on_misses() {
        let b = block(1, |w, _| w.load_global_seq(0, 4).store_global_seq(4096, 4));
        let r = run(&gpu(), &[b]);
        // 128B load refill + 128B store write-through.
        assert_eq!(r.dram_bytes, 256.0);
        assert_eq!(r.events.dram_read_transactions, 4.0);
        assert_eq!(r.events.dram_write_transactions, 4.0);
    }

    #[test]
    fn store_counts_transaction_at_128b_granularity() {
        let r = run(&gpu(), &[block(1, |w, _| w.store_global_seq(0, 4))]);
        assert_eq!(r.events.global_store_transactions, 1.0);
        assert_eq!(r.events.l2_write_transactions, 4.0);
    }

    #[test]
    fn occupancy_integral_reflects_warp_count() {
        let g = gpu();
        let r1 = run(&g, &[block(1, |w, _| w.alu(100))]);
        let occ1 = r1.events.active_warp_cycles / r1.cycles;
        assert!(occ1 <= 1.0 + 1e-9);

        let r8 = run(&g, &[block(8, |w, _| w.alu(100))]);
        let occ8 = r8.events.active_warp_cycles / r8.cycles;
        assert!(occ8 > 4.0, "expected >4 average active warps, got {occ8}");
    }

    #[test]
    fn deterministic_simulation() {
        let g = gpu();
        let mut b = TraceBuilder::new(4);
        for w in 0..4 {
            b.warp(w).load_global_seq(w as u64 * 4096, 4).alu(7);
        }
        b.barrier();
        for w in 0..4 {
            b.warp(w).alu(3);
        }
        let b = b.build().unwrap();
        let r1 = run(&g, std::slice::from_ref(&b));
        let r2 = run(&g, std::slice::from_ref(&b));
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.events.inst_issued, r2.events.inst_issued);
    }
}
