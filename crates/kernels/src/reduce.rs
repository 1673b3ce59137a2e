//! The CUDA SDK parallel-reduction kernels, `reduce0` .. `reduce6`.
//!
//! Each variant reproduces one step of Mark Harris's "Optimizing Parallel
//! Reduction in CUDA" tutorial, which is exactly the benchmark the paper's
//! §5 dissects:
//!
//! | # | technique | characteristic bottleneck |
//! |---|-----------|---------------------------|
//! | 0 | interleaved addressing, modulo branch | warp divergence |
//! | 1 | interleaved addressing, strided index | **shared-memory bank conflicts** (paper §5.2) |
//! | 2 | sequential addressing | idle threads, memory-subsystem bound (§5.3) |
//! | 3 | first add during global load | halved block count |
//! | 4 | unroll last warp | sync overhead removed in final steps |
//! | 5 | completely unrolled | loop overhead removed |
//! | 6 | multiple elements per thread (grid-stride) | bandwidth-bound steady state (§5.4) |
//!
//! The functional implementations execute the *same floating-point operations
//! in the same order* as the CUDA code (SIMD lockstep semantics for the
//! warp-synchronous tail), and the trace generators reproduce the same
//! shared/global address patterns, including the bank-conflict-inducing
//! `index = 2*s*tid` of `reduce1`.

use crate::{Application, INPUT_BASE, OUTPUT_BASE};
use gpu_sim::trace::{BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};
use gpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};

/// Which reduction kernel variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceVariant {
    /// Interleaved addressing with divergent modulo branching.
    Reduce0,
    /// Interleaved addressing with strided indexing (bank conflicts).
    Reduce1,
    /// Sequential addressing.
    Reduce2,
    /// First add during global load.
    Reduce3,
    /// Unrolled last warp.
    Reduce4,
    /// Completely unrolled.
    Reduce5,
    /// Multiple elements per thread (grid-stride loop).
    Reduce6,
}

impl ReduceVariant {
    /// All seven variants in tutorial order.
    pub const ALL: [ReduceVariant; 7] = [
        ReduceVariant::Reduce0,
        ReduceVariant::Reduce1,
        ReduceVariant::Reduce2,
        ReduceVariant::Reduce3,
        ReduceVariant::Reduce4,
        ReduceVariant::Reduce5,
        ReduceVariant::Reduce6,
    ];

    /// Kernel name, e.g. `"reduce1"`.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceVariant::Reduce0 => "reduce0",
            ReduceVariant::Reduce1 => "reduce1",
            ReduceVariant::Reduce2 => "reduce2",
            ReduceVariant::Reduce3 => "reduce3",
            ReduceVariant::Reduce4 => "reduce4",
            ReduceVariant::Reduce5 => "reduce5",
            ReduceVariant::Reduce6 => "reduce6",
        }
    }

    /// Elements consumed per thread block in one pass.
    pub fn elems_per_block(&self, threads: usize) -> usize {
        match self {
            ReduceVariant::Reduce0 | ReduceVariant::Reduce1 | ReduceVariant::Reduce2 => threads,
            _ => threads * 2,
        }
    }

    /// Grid size for a pass over `n` elements (reduce6 uses a capped grid
    /// with a grid-stride loop, like the SDK benchmark).
    pub fn grid_for(&self, n: usize, threads: usize) -> usize {
        let per_block = self.elems_per_block(threads);
        let blocks = n.div_ceil(per_block).max(1);
        match self {
            ReduceVariant::Reduce6 => blocks.min(64),
            _ => blocks,
        }
    }
}

// ---------------------------------------------------------------------------
// Functional implementations (value-accurate, same op order as the CUDA code)
// ---------------------------------------------------------------------------

/// Runs one block of the given variant over shared memory, in the exact
/// evaluation order of the CUDA kernel. `sdata` has `threads` elements,
/// preloaded by the caller. Returns `sdata[0]`.
fn block_reduce(variant: ReduceVariant, sdata: &mut [f32]) -> f32 {
    let t = sdata.len();
    match variant {
        ReduceVariant::Reduce0 => {
            let mut s = 1;
            while s < t {
                step_snapshot(sdata, |tid| {
                    if tid % (2 * s) == 0 && tid + s < t {
                        Some((tid, tid + s))
                    } else {
                        None
                    }
                });
                s *= 2;
            }
        }
        ReduceVariant::Reduce1 => {
            let mut s = 1;
            while s < t {
                step_snapshot(sdata, |tid| {
                    let index = 2 * s * tid;
                    if index + s < t {
                        Some((index, index + s))
                    } else {
                        None
                    }
                });
                s *= 2;
            }
        }
        ReduceVariant::Reduce2 => {
            let mut s = t / 2;
            while s > 0 {
                step_snapshot(
                    sdata,
                    |tid| if tid < s { Some((tid, tid + s)) } else { None },
                );
                s /= 2;
            }
        }
        // Variants 3..6 share the sequential loop; 4..6 run the last warp
        // without barriers (warp-synchronous), which in lockstep SIMD
        // semantics is the same read-all-then-write-all step.
        ReduceVariant::Reduce3 => {
            let mut s = t / 2;
            while s > 0 {
                step_snapshot(
                    sdata,
                    |tid| if tid < s { Some((tid, tid + s)) } else { None },
                );
                s /= 2;
            }
        }
        ReduceVariant::Reduce4 | ReduceVariant::Reduce5 | ReduceVariant::Reduce6 => {
            let mut s = t / 2;
            while s > 32 {
                step_snapshot(
                    sdata,
                    |tid| if tid < s { Some((tid, tid + s)) } else { None },
                );
                s /= 2;
            }
            // Warp-synchronous tail: all 32 lanes execute each step.
            let mut s = 32.min(t / 2);
            while s > 0 {
                step_snapshot(sdata, |tid| {
                    if tid < 32 && tid + s < t {
                        Some((tid, tid + s))
                    } else {
                        None
                    }
                });
                s /= 2;
            }
        }
    }
    sdata[0]
}

/// One reduction step with SIMD lockstep semantics: all participating lanes
/// read the old values, then all write.
fn step_snapshot(sdata: &mut [f32], pick: impl Fn(usize) -> Option<(usize, usize)>) {
    let snapshot: Vec<(usize, f32)> = (0..sdata.len())
        .filter_map(|tid| pick(tid).map(|(dst, src)| (dst, sdata[src])))
        .collect();
    for (dst, add) in snapshot {
        sdata[dst] += add;
    }
}

/// Runs one full pass of a variant over `input`, producing one partial sum
/// per block (exact CUDA semantics including grid-stride for reduce6).
pub fn reduce_pass(variant: ReduceVariant, input: &[f32], threads: usize) -> Vec<f32> {
    assert!(
        threads >= 64 && threads.is_power_of_two(),
        "threads must be a power of two >= 64"
    );
    let n = input.len();
    let grid = variant.grid_for(n, threads);
    let mut out = Vec::with_capacity(grid);
    for b in 0..grid {
        let mut sdata = vec![0.0f32; threads];
        match variant {
            ReduceVariant::Reduce0 | ReduceVariant::Reduce1 | ReduceVariant::Reduce2 => {
                for tid in 0..threads {
                    let i = b * threads + tid;
                    sdata[tid] = if i < n { input[i] } else { 0.0 };
                }
            }
            ReduceVariant::Reduce3 | ReduceVariant::Reduce4 | ReduceVariant::Reduce5 => {
                for tid in 0..threads {
                    let i = b * threads * 2 + tid;
                    let mut v = if i < n { input[i] } else { 0.0 };
                    if i + threads < n {
                        v += input[i + threads];
                    }
                    sdata[tid] = v;
                }
            }
            ReduceVariant::Reduce6 => {
                let grid_size = threads * 2 * grid;
                for tid in 0..threads {
                    let mut i = b * threads * 2 + tid;
                    let mut sum = 0.0f32;
                    while i < n {
                        sum += input[i];
                        if i + threads < n {
                            sum += input[i + threads];
                        }
                        i += grid_size;
                    }
                    sdata[tid] = sum;
                }
            }
        }
        out.push(block_reduce(variant, &mut sdata));
    }
    out
}

/// Reduces `input` to a single value with repeated passes, exactly as the
/// SDK benchmark's host loop does.
pub fn reduce_full(variant: ReduceVariant, input: &[f32], threads: usize) -> f32 {
    let mut data = input.to_vec();
    while data.len() > 1 {
        data = reduce_pass(variant, &data, threads);
    }
    data.first().copied().unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// One reduction kernel launch (one pass) as a simulator trace.
#[derive(Debug, Clone)]
pub struct ReduceKernel {
    /// Variant to trace.
    pub variant: ReduceVariant,
    /// Elements in this pass.
    pub n: usize,
    /// Threads per block.
    pub threads: usize,
    /// Base address of the pass input.
    pub input_base: u64,
    /// Base address of the pass output (per-block partials).
    pub output_base: u64,
}

impl ReduceKernel {
    /// Lane mask of warp `w` selecting threads for which `pred(tid)` holds.
    fn mask_where(&self, w: usize, pred: impl Fn(usize) -> bool) -> u32 {
        let mut mask = 0u32;
        for lane in 0..32 {
            let tid = w * 32 + lane;
            if tid < self.threads && pred(tid) {
                mask |= 1 << lane;
            }
        }
        mask
    }

    /// Emits the `sdata[dst(tid)] += sdata[src(tid)]` step for one warp:
    /// two shared loads, the add, and the shared store.
    fn emit_step(
        stream: &mut Vec<WarpInstruction>,
        w: usize,
        mask: u32,
        dst: impl Fn(usize) -> usize,
        src: impl Fn(usize) -> usize,
    ) {
        if mask == 0 {
            return;
        }
        let offsets_src: Lanes<u32> = (0..32)
            .map(|lane| {
                let tid = w * 32 + lane;
                if mask & (1 << lane) != 0 {
                    (src(tid) * 4) as u32
                } else {
                    0
                }
            })
            .collect();
        let offsets_dst: Lanes<u32> = (0..32)
            .map(|lane| {
                let tid = w * 32 + lane;
                if mask & (1 << lane) != 0 {
                    (dst(tid) * 4) as u32
                } else {
                    0
                }
            })
            .collect();
        stream.push(WarpInstruction::LoadShared {
            offsets: offsets_src,
            width: 4,
            mask,
        });
        stream.push(WarpInstruction::LoadShared {
            offsets: offsets_dst.clone(),
            width: 4,
            mask,
        });
        stream.push(WarpInstruction::Alu { count: 1, mask });
        stream.push(WarpInstruction::StoreShared {
            offsets: offsets_dst,
            width: 4,
            mask,
        });
    }

    /// Global load of `input[idx(tid)]` for active threads of warp `w`.
    fn emit_global_load(
        &self,
        stream: &mut Vec<WarpInstruction>,
        w: usize,
        mask: u32,
        idx: impl Fn(usize) -> usize,
    ) {
        if mask == 0 {
            return;
        }
        let addrs: Lanes<u64> = (0..32)
            .map(|lane| {
                let tid = w * 32 + lane;
                if mask & (1 << lane) != 0 {
                    self.input_base + (idx(tid) as u64) * 4
                } else {
                    0
                }
            })
            .collect();
        stream.push(WarpInstruction::LoadGlobal {
            addrs,
            width: 4,
            mask,
        });
    }
}

impl KernelTrace for ReduceKernel {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        let regs = match self.variant {
            ReduceVariant::Reduce0 | ReduceVariant::Reduce1 | ReduceVariant::Reduce2 => 12,
            ReduceVariant::Reduce3 | ReduceVariant::Reduce4 | ReduceVariant::Reduce5 => 14,
            ReduceVariant::Reduce6 => 18,
        };
        LaunchConfig {
            grid_blocks: self.variant.grid_for(self.n, self.threads),
            threads_per_block: self.threads,
            regs_per_thread: regs,
            shared_mem_per_block: self.threads * 4,
        }
    }

    fn content_tag(&self) -> Option<u128> {
        // `block_trace` below reads only these fields, block_id, and
        // gpu.warp_size (covered by the memo key's GPU fingerprint).
        Some(crate::content_tag128(
            0x7264, // "rd"
            &(
                self.variant,
                self.n,
                self.threads,
                self.input_base,
                self.output_base,
            ),
        ))
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        let t = self.threads;
        let warps = t.div_ceil(gpu.warp_size);
        let grid = self.variant.grid_for(self.n, t);
        let mut trace = BlockTrace::with_warps(warps);
        let v = self.variant;
        let n = self.n;

        // --- Load phase ---
        for w in 0..warps {
            let stream = &mut trace.warps[w];
            match v {
                ReduceVariant::Reduce0 | ReduceVariant::Reduce1 | ReduceVariant::Reduce2 => {
                    let mask = self.mask_where(w, |tid| block_id * t + tid < n);
                    stream.push(WarpInstruction::Alu {
                        count: 2,
                        mask: self.mask_where(w, |_| true),
                    });
                    self.emit_global_load(stream, w, mask, |tid| block_id * t + tid);
                }
                ReduceVariant::Reduce3 | ReduceVariant::Reduce4 | ReduceVariant::Reduce5 => {
                    let full = self.mask_where(w, |_| true);
                    stream.push(WarpInstruction::Alu {
                        count: 3,
                        mask: full,
                    });
                    let m1 = self.mask_where(w, |tid| block_id * t * 2 + tid < n);
                    self.emit_global_load(stream, w, m1, |tid| block_id * t * 2 + tid);
                    let m2 = self.mask_where(w, |tid| block_id * t * 2 + tid + t < n);
                    self.emit_global_load(stream, w, m2, |tid| block_id * t * 2 + tid + t);
                    stream.push(WarpInstruction::Alu { count: 1, mask: m1 });
                }
                ReduceVariant::Reduce6 => {
                    let full = self.mask_where(w, |_| true);
                    let grid_size = t * 2 * grid;
                    stream.push(WarpInstruction::Alu {
                        count: 3,
                        mask: full,
                    });
                    let mut i0 = block_id * t * 2;
                    while i0 < n {
                        let base = i0;
                        let m1 = self.mask_where(w, |tid| base + tid < n);
                        self.emit_global_load(stream, w, m1, |tid| base + tid);
                        let m2 = self.mask_where(w, |tid| base + tid + t < n);
                        self.emit_global_load(stream, w, m2, |tid| base + tid + t);
                        stream.push(WarpInstruction::Alu { count: 2, mask: m1 });
                        i0 += grid_size;
                    }
                }
            }
            // Store the thread's value to shared memory (conflict-free).
            let full = self.mask_where(w, |_| true);
            let offsets: Lanes<u32> = (0..32).map(|lane| ((w * 32 + lane) * 4) as u32).collect();
            stream.push(WarpInstruction::StoreShared {
                offsets,
                width: 4,
                mask: full,
            });
            stream.push(WarpInstruction::Barrier);
        }

        // --- In-block reduction phase ---
        match v {
            ReduceVariant::Reduce0 => {
                let mut s = 1;
                while s < t {
                    for w in 0..warps {
                        let mask = self.mask_where(w, |tid| tid % (2 * s) == 0 && tid + s < t);
                        let active = self.mask_where(w, |_| true);
                        let stream = &mut trace.warps[w];
                        // Modulo test: scattered participants -> divergence
                        // whenever the warp splits.
                        stream.push(WarpInstruction::Branch {
                            divergent: mask != 0 && mask != active,
                            mask: active,
                        });
                        Self::emit_step(stream, w, mask, |tid| tid, |tid| tid + s);
                        stream.push(WarpInstruction::Barrier);
                    }
                    s *= 2;
                }
            }
            ReduceVariant::Reduce1 => {
                let mut s = 1;
                while s < t {
                    for w in 0..warps {
                        let mask = self.mask_where(w, |tid| 2 * s * tid + s < t);
                        let active = self.mask_where(w, |_| true);
                        let stream = &mut trace.warps[w];
                        stream.push(WarpInstruction::Branch {
                            divergent: mask != 0 && mask != active,
                            mask: active,
                        });
                        // index = 2*s*tid: the strided pattern that produces
                        // the bank conflicts of paper Figure 2.
                        Self::emit_step(stream, w, mask, |tid| 2 * s * tid, |tid| 2 * s * tid + s);
                        stream.push(WarpInstruction::Barrier);
                    }
                    s *= 2;
                }
            }
            ReduceVariant::Reduce2 | ReduceVariant::Reduce3 => {
                let mut s = t / 2;
                while s > 0 {
                    for w in 0..warps {
                        let mask = self.mask_where(w, |tid| tid < s);
                        let active = self.mask_where(w, |_| true);
                        let stream = &mut trace.warps[w];
                        stream.push(WarpInstruction::Branch {
                            divergent: mask != 0 && mask != active,
                            mask: active,
                        });
                        Self::emit_step(stream, w, mask, |tid| tid, |tid| tid + s);
                        stream.push(WarpInstruction::Barrier);
                    }
                    s /= 2;
                }
            }
            ReduceVariant::Reduce4 | ReduceVariant::Reduce5 | ReduceVariant::Reduce6 => {
                let mut s = t / 2;
                while s > 32 {
                    for w in 0..warps {
                        let mask = self.mask_where(w, |tid| tid < s);
                        let active = self.mask_where(w, |_| true);
                        let stream = &mut trace.warps[w];
                        if v == ReduceVariant::Reduce4 {
                            // reduce5/6 are fully unrolled: no loop branch.
                            stream.push(WarpInstruction::Branch {
                                divergent: mask != 0 && mask != active,
                                mask: active,
                            });
                        }
                        Self::emit_step(stream, w, mask, |tid| tid, |tid| tid + s);
                        stream.push(WarpInstruction::Barrier);
                    }
                    s /= 2;
                }
                // Warp-synchronous tail on warp 0: all 32 lanes execute, no
                // barriers.
                let mut s = 32.min(t / 2);
                while s > 0 {
                    let mask = self.mask_where(0, |tid| tid + s < t);
                    Self::emit_step(&mut trace.warps[0], 0, mask, |tid| tid, |tid| tid + s);
                    s /= 2;
                }
            }
        }

        // --- Write-out: thread 0 stores the block result ---
        let stream = &mut trace.warps[0];
        stream.push(WarpInstruction::Branch {
            divergent: true,
            mask: self.mask_where(0, |_| true),
        });
        let mut addrs = [0u64; 32];
        addrs[0] = self.output_base + block_id as u64 * 4;
        stream.push(WarpInstruction::StoreGlobal {
            addrs: addrs.into(),
            width: 4,
            mask: 1,
        });
        trace
    }
}

/// Builds the full multi-pass reduction application for `n` elements.
pub fn reduce_application(variant: ReduceVariant, n: usize, threads: usize) -> Application {
    let mut launches: Vec<Box<dyn KernelTrace>> = Vec::new();
    let mut remaining = n;
    let mut input_base = INPUT_BASE;
    let mut output_base = OUTPUT_BASE;
    while remaining > 1 {
        let k = ReduceKernel {
            variant,
            n: remaining,
            threads,
            input_base,
            output_base,
        };
        let grid = variant.grid_for(remaining, threads);
        launches.push(Box::new(k));
        remaining = grid;
        std::mem::swap(&mut input_base, &mut output_base);
    }
    Application {
        name: variant.name().to_string(),
        launches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::banks::{replays_scratch, BankScratch};

    fn input(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 / 100.0)
            .collect()
    }

    #[test]
    fn all_variants_compute_the_sum() {
        let data = input(1 << 14);
        let expect: f64 = data.iter().map(|&v| v as f64).sum();
        for v in ReduceVariant::ALL {
            let got = reduce_full(v, &data, 256) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 1e-3, "{}: {got} vs {expect}", v.name());
        }
    }

    #[test]
    fn variants_agree_with_each_other_bitwise_for_powers_of_two() {
        // reduce2 and reduce3 have identical in-block op order; check both
        // give identical results for clean sizes.
        let data = input(1 << 12);
        let a = reduce_full(ReduceVariant::Reduce2, &data, 128);
        let b = reduce_full(ReduceVariant::Reduce3, &data, 128);
        assert!((a - b).abs() / a.abs() < 1e-5);
    }

    #[test]
    fn non_power_of_two_sizes_handled_by_masking() {
        let data = input(1000);
        let expect: f64 = data.iter().map(|&v| v as f64).sum();
        for v in [
            ReduceVariant::Reduce1,
            ReduceVariant::Reduce2,
            ReduceVariant::Reduce6,
        ] {
            let got = reduce_full(v, &data, 64) as f64;
            assert!((got - expect).abs() / expect < 1e-3, "{}", v.name());
        }
    }

    #[test]
    fn single_element_is_identity() {
        for v in ReduceVariant::ALL {
            assert_eq!(reduce_full(v, &[42.0], 64), 42.0);
        }
    }

    #[test]
    fn grid_sizes_follow_variant_rules() {
        assert_eq!(ReduceVariant::Reduce1.grid_for(1 << 16, 256), 256);
        assert_eq!(ReduceVariant::Reduce3.grid_for(1 << 16, 256), 128);
        assert_eq!(ReduceVariant::Reduce6.grid_for(1 << 20, 256), 64);
        assert_eq!(ReduceVariant::Reduce6.grid_for(256, 128), 1);
    }

    #[test]
    fn traces_are_structurally_valid() {
        let gpu = GpuConfig::gtx580();
        for v in ReduceVariant::ALL {
            let k = ReduceKernel {
                variant: v,
                n: 1 << 14,
                threads: 256,
                input_base: INPUT_BASE,
                output_base: OUTPUT_BASE,
            };
            let t = k.block_trace(0, &gpu);
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", v.name()));
            assert_eq!(t.warps.len(), 8);
        }
    }

    #[test]
    fn reduce1_trace_has_bank_conflicts_reduce2_does_not() {
        let gpu = GpuConfig::gtx580();
        let mk = |v| ReduceKernel {
            variant: v,
            n: 1 << 14,
            threads: 256,
            input_base: INPUT_BASE,
            output_base: OUTPUT_BASE,
        };
        let conflicts = |v: ReduceVariant| -> u32 {
            let t = mk(v).block_trace(0, &gpu);
            t.warps
                .iter()
                .flatten()
                .map(|i| match i {
                    WarpInstruction::LoadShared {
                        offsets,
                        width,
                        mask,
                    }
                    | WarpInstruction::StoreShared {
                        offsets,
                        width,
                        mask,
                    } => replays_scratch(offsets, *width, *mask, 32, 4, &mut BankScratch::new()),
                    _ => 0,
                })
                .sum()
        };
        assert!(conflicts(ReduceVariant::Reduce1) > 0);
        assert_eq!(conflicts(ReduceVariant::Reduce2), 0);
    }

    #[test]
    fn reduce0_trace_is_divergent_reduce2_mostly_not() {
        let gpu = GpuConfig::gtx580();
        let mk = |v| ReduceKernel {
            variant: v,
            n: 1 << 14,
            threads: 256,
            input_base: INPUT_BASE,
            output_base: OUTPUT_BASE,
        };
        let divergent = |v: ReduceVariant| -> usize {
            mk(v)
                .block_trace(0, &gpu)
                .warps
                .iter()
                .flatten()
                .filter(|i| {
                    matches!(
                        i,
                        WarpInstruction::Branch {
                            divergent: true,
                            ..
                        }
                    )
                })
                .count()
        };
        assert!(divergent(ReduceVariant::Reduce0) > 3 * divergent(ReduceVariant::Reduce2));
    }

    #[test]
    fn application_reduces_to_single_value_in_passes() {
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 16, 256);
        // 65536 -> 256 -> 1: two passes.
        assert_eq!(app.launches.len(), 2);
        let app6 = reduce_application(ReduceVariant::Reduce6, 1 << 20, 256);
        // 1M -> 64 -> 1: two passes.
        assert_eq!(app6.launches.len(), 2);
    }

    #[test]
    fn application_profiles_on_both_gpus() {
        for gpu in [GpuConfig::gtx580(), GpuConfig::k20m()] {
            let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
            let run = app.profile(&gpu).unwrap();
            assert!(run.time_ms > 0.0);
            assert!(run.counters.get("gld_request").unwrap() > 0.0);
            assert!(run.counters.get("shared_replay_overhead").unwrap() > 0.0);
        }
    }

    #[test]
    fn reduce2_profile_shows_no_shared_replays() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce2, 1 << 14, 128);
        let run = app.profile(&gpu).unwrap();
        assert_eq!(run.counters.get("shared_replay_overhead"), Some(0.0));
    }

    #[test]
    fn reduce6_is_faster_than_reduce1_at_scale() {
        let gpu = GpuConfig::gtx580();
        let t1 = reduce_application(ReduceVariant::Reduce1, 1 << 20, 256)
            .profile(&gpu)
            .unwrap()
            .time_ms;
        let t6 = reduce_application(ReduceVariant::Reduce6, 1 << 20, 256)
            .profile(&gpu)
            .unwrap()
            .time_ms;
        assert!(t6 < t1, "reduce6 {t6} ms should beat reduce1 {t1} ms");
    }

    #[test]
    fn loads_are_coalesced_for_sequential_variants() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce2, 1 << 16, 256);
        let run = app.profile(&gpu).unwrap();
        // Coalesced 4-byte loads: ~1 transaction per request.
        let req = run.counters.get("gld_request").unwrap();
        let trans = run.counters.get("global_load_transaction").unwrap();
        assert!(trans <= req * 1.1, "req {req} trans {trans}");
    }
}
