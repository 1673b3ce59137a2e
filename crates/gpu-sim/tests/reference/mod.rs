//! The reference interpreter: an independent, deliberately naive
//! simulation of one SM, kept out of the library so tests can check the
//! engine that runs against it.
//!
//! [`simulate_sm`] walks `Vec<WarpInstruction>` streams and re-derives
//! coalescing ([`coalesce`]) and bank conflicts ([`conflict_degree`]) per
//! instruction with allocating primitives, where `gpu_sim::soa` compiles
//! them once with reused scratch buffers. It uses only `gpu_sim`'s public
//! API. `soa_equivalence` pins the engine to it bit for bit,
//! `static_primitives` pins the scratch primitives to its allocating ones,
//! and bf-analyze's differential suite includes it (by `#[path]`) as the
//! third party of the static-vs-dynamic oracle.
//!
//! The scheduler is a greedy earliest-ready-first loop modelling issue
//! bandwidth, ALU/LDST/SFU pipeline throughput, dependent-issue latencies,
//! bank-conflict replays, coalescing with L1/L2 lookup and DRAM latency,
//! and `__syncthreads` barriers.

// Each including test uses a different part of the module.
#![allow(dead_code)]

use gpu_sim::cache::{Access, Cache};
use gpu_sim::coalesce::requested_bytes;
use gpu_sim::soa::SmResult;
use gpu_sim::trace::{BlockTrace, LaneMask, WarpInstruction};
use gpu_sim::{GpuConfig, RawEvents, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

struct WarpState {
    block: usize,
    stream: Vec<WarpInstruction>,
    pc: usize,
    finish: f64,
}

struct BarrierState {
    arrived: usize,
    release_time: f64,
    parked: Vec<usize>,
    total_warps: usize,
}

/// Simulates the given resident blocks to completion on one SM.
///
/// `l1` and `l2` are the cache tag stores to use (the engine owns them so
/// state can persist across waves). Returns cycles, events, and DRAM bytes.
///
/// Re-derives coalescing and bank conflicts per instruction, straight from
/// the trace, with the allocating primitives below.
pub fn simulate_sm(
    gpu: &GpuConfig,
    blocks: &[BlockTrace],
    l1: &mut Cache,
    l2: &mut Cache,
) -> Result<SmResult> {
    for b in blocks {
        b.validate()?;
    }
    let mut warps: Vec<WarpState> = Vec::new();
    let mut barriers: Vec<BarrierState> = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        barriers.push(BarrierState {
            arrived: 0,
            release_time: 0.0,
            parked: Vec::new(),
            total_warps: b.warps.len(),
        });
        for w in &b.warps {
            warps.push(WarpState {
                block: bi,
                stream: w.clone(),
                pc: 0,
                finish: 0.0,
            });
        }
    }
    let mut ev = RawEvents {
        warps_launched: warps.len() as f64,
        blocks_launched: blocks.len() as f64,
        ..RawEvents::default()
    };

    // Ready queue keyed by (ready_time, warp_id) for determinism.
    let mut ready: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for i in 0..warps.len() {
        ready.push(Reverse((Time(0.0), i)));
    }

    // Pipeline next-free times.
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
        let (instr, block_id) = {
            let w = &warps[wi];
            if w.pc >= w.stream.len() {
                continue;
            }
            (w.stream[w.pc].clone(), w.block)
        };
        // Barriers don't consume an issue slot in this model; handle first.
        if let WarpInstruction::Barrier = instr {
            ev.inst_executed += 1.0;
            ev.inst_issued += 1.0;
            let bar = &mut barriers[block_id];
            bar.arrived += 1;
            bar.release_time = bar.release_time.max(ready_t);
            warps[wi].pc += 1;
            if bar.arrived == bar.total_warps {
                // Release everyone (including this warp).
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
        let lanes = instr.active_lanes() as f64;

        let next_ready = match &instr {
            WarpInstruction::Alu { count, .. } => {
                let c = *count as f64;
                let start = t_issue.max(alu_free);
                alu_free = start + c * alu_period;
                ev.inst_executed += c;
                ev.inst_issued += c;
                ev.thread_inst_executed += c * lanes;
                start + (c - 1.0) * alu_period + gpu.alu_latency as f64
            }
            WarpInstruction::Sfu { .. } => {
                let start = t_issue.max(sfu_free);
                sfu_free = start + sfu_period;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0;
                ev.thread_inst_executed += lanes;
                start + gpu.sfu_latency as f64
            }
            WarpInstruction::Branch { divergent, .. } => {
                let start = t_issue.max(alu_free);
                alu_free = start + alu_period;
                ev.inst_executed += 1.0;
                ev.branch += 1.0;
                ev.thread_inst_executed += lanes;
                if *divergent {
                    ev.divergent_branch += 1.0;
                    // The diverged paths serialise: charge one replayed issue.
                    ev.inst_issued += 2.0;
                    start + 2.0 * gpu.alu_latency as f64
                } else {
                    ev.inst_issued += 1.0;
                    start + gpu.alu_latency as f64
                }
            }
            WarpInstruction::LoadShared {
                offsets,
                width,
                mask,
            }
            | WarpInstruction::StoreShared {
                offsets,
                width,
                mask,
            } => {
                let banks = gpu.shared_banks as u32;
                let r = replays(offsets, *width, *mask, banks, gpu.bank_width as u32) as f64;
                let start = t_issue.max(ldst_free);
                let busy = (1.0 + r) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0 + r;
                ev.thread_inst_executed += lanes;
                if matches!(instr, WarpInstruction::LoadShared { .. }) {
                    ev.shared_load += 1.0;
                    ev.shared_load_replay += r;
                    start + gpu.smem_latency as f64 + r
                } else {
                    ev.shared_store += 1.0;
                    ev.shared_store_replay += r;
                    // Stores retire quickly; the warp doesn't wait for them.
                    start + r + 2.0
                }
            }
            WarpInstruction::LoadGlobal { addrs, width, mask } => {
                ev.gld_request += 1.0;
                ev.gld_requested_bytes += requested_bytes(*width, *mask) as f64;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                let mut worst_latency = gpu.l1_latency as f64;
                let ntrans: f64;
                if gpu.l1_caches_globals {
                    // Fermi: whole 128-byte L1 lines; Pascal/Volta: the
                    // same walk at 32-byte sector granularity
                    // (load_segment_bytes covers both).
                    let segment = gpu.load_segment_bytes();
                    let lines = coalesce(addrs, *width, *mask, segment);
                    ntrans = lines.len() as f64;
                    for line in &lines {
                        match l1.read(line.addr) {
                            Access::Hit => {
                                ev.l1_global_load_hit += 1.0;
                            }
                            Access::Miss => {
                                ev.l1_global_load_miss += 1.0;
                                worst_latency = worst_latency.max(gpu.l2_latency as f64);
                                // The refill is serviced as 32B L2 sectors:
                                // four per Fermi line, one per sector miss.
                                let sectors = (segment / 32).max(1) as u64;
                                for s in 0..sectors {
                                    ev.l2_read_transactions += 1.0;
                                    match l2.read(line.addr + s * 32) {
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
                    // Kepler/Maxwell: straight to L2 in 32-byte sectors.
                    let sectors = coalesce(addrs, *width, *mask, 32);
                    ntrans = sectors.len() as f64;
                    worst_latency = gpu.l2_latency as f64;
                    for sec in &sectors {
                        ev.l2_read_transactions += 1.0;
                        match l2.read(sec.addr) {
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
            WarpInstruction::StoreGlobal { addrs, width, mask } => {
                ev.gst_request += 1.0;
                ev.gst_requested_bytes += requested_bytes(*width, *mask) as f64;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                // Stores are write-through to L2 in 32-byte sectors on
                // every architecture; global-caching L1s additionally
                // evict at their tag granularity (whole Fermi lines,
                // Pascal/Volta sectors).
                let sectors = coalesce(addrs, *width, *mask, 32);
                if gpu.l1_caches_globals {
                    let lines = coalesce(addrs, *width, *mask, gpu.l1_tag_line() as u32);
                    for line in &lines {
                        l1.write_evict(line.addr);
                    }
                }
                for sec in &sectors {
                    ev.l2_write_transactions += 1.0;
                    if l2.write_allocate(sec.addr) == Access::Miss {
                        // Dirty traffic eventually reaches DRAM; count it now.
                    }
                    ev.dram_write_transactions += 1.0;
                    dram_bytes += 32.0;
                }
                // Transaction granularity reported by the HW counter differs
                // from sectors: report in up-to-128-byte transactions.
                let store_trans = coalesce(addrs, *width, *mask, 128).len() as f64;
                ev.global_store_transactions += store_trans;
                let ntrans = sectors.len() as f64;
                ev.inst_issued += store_trans.max(1.0);
                let busy = ntrans.max(1.0) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                // Fire-and-forget: short pipeline occupancy only.
                start + 4.0
            }
            WarpInstruction::Barrier => unreachable!("handled above"),
        };

        let w = &mut warps[wi];
        w.pc += 1;
        w.finish = next_ready;
        makespan = makespan.max(next_ready);
        if w.pc < w.stream.len() {
            ready.push(Reverse((Time(next_ready), wi)));
        }
    }

    // Residency integral: every warp is resident from 0 to its retire time.
    for w in &warps {
        ev.active_warp_cycles += w.finish;
    }
    let cycles = makespan.max(1.0);
    ev.elapsed_cycles = cycles;
    ev.active_cycles = cycles;
    ev.issue_slots = cycles * gpu.issue_width() as f64;
    ev.time_seconds = cycles / (gpu.clock_ghz * 1e9);
    Ok(SmResult {
        cycles,
        events: ev,
        dram_bytes,
    })
}

/// Computes the conflict degree of a shared-memory access: the maximum
/// number of *distinct words* any single bank must serve. Degree 1 means
/// conflict-free; degree `d` costs `d - 1` replays.
pub fn conflict_degree(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
) -> u32 {
    // Words per bank this access touches; small fixed arrays would also work
    // but a Vec keeps `banks` flexible.
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
    let words_per_access = (width as u32).div_ceil(bank_width).max(1);
    for (lane, &off) in offsets.iter().enumerate() {
        if mask & (1 << lane) == 0 {
            continue;
        }
        for w in 0..words_per_access {
            let word = off / bank_width + w;
            let bank = (word % banks) as usize;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Replays for an access: `conflict_degree - 1`.
pub fn replays(offsets: &[u32], width: u8, mask: LaneMask, banks: u32, bank_width: u32) -> u32 {
    conflict_degree(offsets, width, mask, banks, bank_width) - 1
}

/// One memory transaction produced by coalescing: a segment-aligned address
/// and segment size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Segment-aligned byte address.
    pub addr: u64,
    /// Segment size in bytes (128 for L1 lines, 32 for L2 sectors).
    pub size: u32,
}

/// Collects the unique `segment`-aligned transactions covering the active
/// lanes' accesses, in ascending order. `width` is bytes per lane. Accesses
/// that straddle a segment boundary produce both segments (possible with
/// 8-byte words at 4-byte alignment).
pub fn coalesce(addrs: &[u64], width: u8, mask: LaneMask, segment: u32) -> Vec<Transaction> {
    let seg = segment as u64;
    let mut out: Vec<u64> = Vec::new();
    for (lane, &addr) in addrs.iter().enumerate() {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let mut s = addr - addr % seg;
        while s < addr + width as u64 {
            if !out.contains(&s) {
                out.push(s);
            }
            s += seg;
        }
    }
    out.sort_unstable();
    out.into_iter()
        .map(|addr| Transaction {
            addr,
            size: segment,
        })
        .collect()
}
