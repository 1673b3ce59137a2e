//! Matrix multiplication: the CUDA SDK `matrixMul` kernel (tiled, shared
//! memory) and a naive global-memory baseline.
//!
//! The tiled kernel is the paper's first prediction case study (§6.1.1):
//! `C = A x B` for `n x n` matrices, computed by a grid of `(n/b) x (n/b)`
//! thread blocks, each loading `b x b` tiles of A and B into shared memory
//! and accumulating partial dot products. The kernel performs `O(n^3)`
//! arithmetic against `O(n^2)` unique data, is store-unbalanced (one store
//! per `b` tile-loads, the imbalance behind the paper's observation that
//! *store* throughput counters dominate variable importance), and is
//! bandwidth-limited at large sizes.

use crate::{Application, INPUT2_BASE, INPUT_BASE, OUTPUT_BASE};
use gpu_sim::trace::{BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};
use gpu_sim::GpuConfig;

/// Tile edge (the SDK's BLOCK_SIZE): 16 threads in x and y.
pub const BLOCK_SIZE: usize = 16;

// ---------------------------------------------------------------------------
// Functional implementations
// ---------------------------------------------------------------------------

/// Naive row-major reference multiply (f64 accumulation).
pub fn matmul_reference(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f64;
            for k in 0..n {
                acc += a[i * n + k] as f64 * b[k * n + j] as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

/// Tiled multiply in the exact accumulation order of the CUDA kernel
/// (per-thread f32 accumulator, tiles consumed in k order), with the
/// SDK-default 16x16 tiles.
pub fn matmul_tiled(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    matmul_tiled_with(a, b, n, BLOCK_SIZE)
}

/// Tiled multiply with an explicit tile edge `t` (must divide `n`).
pub fn matmul_tiled_with(a: &[f32], b: &[f32], n: usize, t: usize) -> Vec<f32> {
    assert!(
        t >= 1 && n.is_multiple_of(t),
        "n must be a multiple of the tile edge"
    );
    let nb = n / t;
    let mut c = vec![0.0f32; n * n];
    let mut a_s = vec![0.0f32; t * t];
    let mut b_s = vec![0.0f32; t * t];
    let mut acc = vec![0.0f32; t * t];
    for by in 0..nb {
        for bx in 0..nb {
            acc.iter_mut().for_each(|v| *v = 0.0);
            for m in 0..nb {
                // Cooperative tile loads.
                for ty in 0..t {
                    for tx in 0..t {
                        a_s[ty * t + tx] = a[(by * t + ty) * n + m * t + tx];
                        b_s[ty * t + tx] = b[(m * t + ty) * n + bx * t + tx];
                    }
                }
                // Partial dot products.
                for ty in 0..t {
                    for tx in 0..t {
                        let mut sum = acc[ty * t + tx];
                        for k in 0..t {
                            sum += a_s[ty * t + k] * b_s[k * t + tx];
                        }
                        acc[ty * t + tx] = sum;
                    }
                }
            }
            for ty in 0..t {
                for tx in 0..t {
                    c[(by * t + ty) * n + bx * t + tx] = acc[ty * t + tx];
                }
            }
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// The tiled `matrixMul` kernel as a simulator trace.
#[derive(Debug, Clone)]
pub struct MatmulTiled {
    /// Matrix edge; must be a multiple of `tile`.
    pub n: usize,
    /// Tile edge (the CUDA BLOCK_SIZE): 8, 16, or 32. The SDK ships 16 and
    /// 32; `tile` is a tunable problem characteristic for block-size
    /// studies.
    pub tile: usize,
}

impl MatmulTiled {
    /// The SDK-default 16x16 tiling.
    pub fn new(n: usize) -> MatmulTiled {
        MatmulTiled {
            n,
            tile: BLOCK_SIZE,
        }
    }

    fn check(&self) {
        assert!(matches!(self.tile, 8 | 16 | 32), "tile must be 8, 16 or 32");
        assert!(
            self.n.is_multiple_of(self.tile),
            "n must be a multiple of tile"
        );
    }
}

/// The naive one-thread-per-element kernel (baseline; every k-iteration
/// reads A and B from global memory).
#[derive(Debug, Clone)]
pub struct MatmulNaive {
    /// Matrix edge; must be a multiple of [`BLOCK_SIZE`].
    pub n: usize,
}

/// Row-major element address of matrix at `base`.
fn elem(base: u64, n: usize, row: usize, col: usize) -> u64 {
    base + ((row * n + col) as u64) * 4
}

/// Per-warp thread coordinates for a `t x t` block: thread id
/// `tid = w*32 + lane` maps to `tx = tid % t`, `ty = tid / t` (row-major
/// thread layout, CUDA's convention).
fn warp_coords(w: usize, t: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..32).map(move |lane| {
        let tid = w * 32 + lane;
        (lane, tid % t, tid / t)
    })
}

impl KernelTrace for MatmulTiled {
    fn name(&self) -> String {
        "matrixMul".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        self.check();
        let t = self.tile;
        let nb = self.n / t;
        LaunchConfig {
            grid_blocks: nb * nb,
            threads_per_block: t * t,
            regs_per_thread: 21,
            shared_mem_per_block: 2 * t * t * 4,
        }
    }

    fn content_tag(&self) -> Option<u128> {
        // `block_trace` below reads only (n, tile), block_id, and
        // gpu.warp_size (covered by the memo key's GPU fingerprint).
        Some(crate::content_tag128(0x6D74, &(self.n, self.tile))) // "mt"
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        self.check();
        let n = self.n;
        let t = self.tile;
        let nb = n / t;
        let (bx, by) = (block_id % nb, block_id / nb);
        let warps = (t * t).div_ceil(gpu.warp_size);
        let mut trace = BlockTrace::with_warps(warps);
        let bs_base = (t * t * 4) as u32; // Bs after As

        // Shared offsets depend only on the warp and the tile edge, so each
        // warp's patterns are built once and shared by every tile step.
        let shared: Vec<TileOffsets> = (0..warps)
            .map(|w| TileOffsets::new(w, t, bs_base))
            .collect();
        for m in 0..nb {
            for (w, offs) in shared.iter().enumerate() {
                let stream = &mut trace.warps[w];
                // Index arithmetic for the tile loads.
                stream.push(WarpInstruction::Alu {
                    count: 4,
                    mask: u32::MAX,
                });
                // Load A[by*t+ty][m*t+tx] -> As[ty][tx].
                let mut a_addrs = [0u64; 32];
                let mut b_addrs = [0u64; 32];
                for (lane, tx, ty) in warp_coords(w, t) {
                    a_addrs[lane] = elem(INPUT_BASE, n, by * t + ty, m * t + tx);
                    b_addrs[lane] = elem(INPUT2_BASE, n, m * t + ty, bx * t + tx);
                }
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: a_addrs.into(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::StoreShared {
                    offsets: offs.a_store.clone(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: b_addrs.into(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::StoreShared {
                    offsets: offs.b_store.clone(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::Barrier);
                // t multiply-accumulate steps.
                for (as_k, bs_k) in offs.a_rows.iter().zip(&offs.b_cols) {
                    stream.push(WarpInstruction::LoadShared {
                        offsets: as_k.clone(),
                        width: 4,
                        mask: u32::MAX,
                    });
                    stream.push(WarpInstruction::LoadShared {
                        offsets: bs_k.clone(),
                        width: 4,
                        mask: u32::MAX,
                    });
                    stream.push(WarpInstruction::Alu {
                        count: 1,
                        mask: u32::MAX,
                    });
                }
                stream.push(WarpInstruction::Barrier);
            }
        }
        // Store C[by*t+ty][bx*t+tx].
        for w in 0..warps {
            let stream = &mut trace.warps[w];
            stream.push(WarpInstruction::Alu {
                count: 3,
                mask: u32::MAX,
            });
            let mut c_addrs = [0u64; 32];
            for (lane, tx, ty) in warp_coords(w, t) {
                c_addrs[lane] = elem(OUTPUT_BASE, n, by * t + ty, bx * t + tx);
            }
            stream.push(WarpInstruction::StoreGlobal {
                addrs: c_addrs.into(),
                width: 4,
                mask: u32::MAX,
            });
        }
        trace
    }
}

/// One warp's shared-memory offsets in the tiled kernel, identical in every
/// tile step: the `As[ty][tx]`/`Bs[ty][tx]` tile stores and, for each
/// `k < tile`, the `As[ty][k]`/`Bs[k][tx]` loads.
struct TileOffsets {
    a_store: Lanes<u32>,
    b_store: Lanes<u32>,
    a_rows: Vec<Lanes<u32>>,
    b_cols: Vec<Lanes<u32>>,
}

impl TileOffsets {
    fn new(w: usize, t: usize, bs_base: u32) -> TileOffsets {
        let lanes = |base: u32, word: &dyn Fn(usize, usize) -> usize| -> Lanes<u32> {
            warp_coords(w, t)
                .map(|(_, tx, ty)| base + (word(tx, ty) * 4) as u32)
                .collect()
        };
        TileOffsets {
            a_store: lanes(0, &|tx, ty| ty * t + tx),
            b_store: lanes(bs_base, &|tx, ty| ty * t + tx),
            a_rows: (0..t).map(|k| lanes(0, &|_, ty| ty * t + k)).collect(),
            b_cols: (0..t)
                .map(|k| lanes(bs_base, &|tx, _| k * t + tx))
                .collect(),
        }
    }
}

impl KernelTrace for MatmulNaive {
    fn name(&self) -> String {
        "matrixMulNaive".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        let nb = self.n / BLOCK_SIZE;
        LaunchConfig {
            grid_blocks: nb * nb,
            threads_per_block: BLOCK_SIZE * BLOCK_SIZE,
            regs_per_thread: 14,
            shared_mem_per_block: 0,
        }
    }

    fn content_tag(&self) -> Option<u128> {
        // `block_trace` below reads only `n`, block_id, and gpu.warp_size
        // (covered by the memo key's GPU fingerprint).
        Some(crate::content_tag128(0x6D6E, &(self.n,))) // "mn"
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        let n = self.n;
        let nb = n / BLOCK_SIZE;
        let (bx, by) = (block_id % nb, block_id / nb);
        let warps = (BLOCK_SIZE * BLOCK_SIZE).div_ceil(gpu.warp_size);
        let mut trace = BlockTrace::with_warps(warps);
        for w in 0..warps {
            let stream = &mut trace.warps[w];
            stream.push(WarpInstruction::Alu {
                count: 4,
                mask: u32::MAX,
            });
            for k in 0..n {
                let mut a_addrs = [0u64; 32];
                let mut b_addrs = [0u64; 32];
                for (lane, tx, ty) in warp_coords(w, BLOCK_SIZE) {
                    // A[row][k] is a per-row broadcast; B[k][col] is coalesced.
                    a_addrs[lane] = elem(INPUT_BASE, n, by * BLOCK_SIZE + ty, k);
                    b_addrs[lane] = elem(INPUT2_BASE, n, k, bx * BLOCK_SIZE + tx);
                }
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: a_addrs.into(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: b_addrs.into(),
                    width: 4,
                    mask: u32::MAX,
                });
                stream.push(WarpInstruction::Alu {
                    count: 1,
                    mask: u32::MAX,
                });
            }
            let mut c_addrs = [0u64; 32];
            for (lane, tx, ty) in warp_coords(w, BLOCK_SIZE) {
                c_addrs[lane] = elem(OUTPUT_BASE, n, by * BLOCK_SIZE + ty, bx * BLOCK_SIZE + tx);
            }
            stream.push(WarpInstruction::StoreGlobal {
                addrs: c_addrs.into(),
                width: 4,
                mask: u32::MAX,
            });
        }
        trace
    }
}

/// The single-launch `matrixMul` application for an `n x n` problem
/// (SDK-default 16x16 tiles).
pub fn matmul_application(n: usize) -> Application {
    Application {
        name: "matrixMul".into(),
        launches: vec![Box::new(MatmulTiled::new(n))],
    }
}

/// `matrixMul` with an explicit tile size (8, 16 or 32).
pub fn matmul_application_tiled(n: usize, tile: usize) -> Application {
    Application {
        name: "matrixMul".into(),
        launches: vec![Box::new(MatmulTiled { n, tile })],
    }
}

/// The naive baseline as an application.
pub fn matmul_naive_application(n: usize) -> Application {
    Application {
        name: "matrixMulNaive".into(),
        launches: vec![Box::new(MatmulNaive { n })],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::banks::{replays_scratch, BankScratch};
    use gpu_sim::coalesce::coalesce_into;

    fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..n * n).map(|i| ((i * 37) % 19) as f32 / 19.0).collect();
        let b = (0..n * n).map(|i| ((i * 53) % 23) as f32 / 23.0).collect();
        (a, b)
    }

    #[test]
    fn tiled_matches_reference() {
        let n = 48;
        let (a, b) = inputs(n);
        let want = matmul_reference(&a, &b, n);
        let got = matmul_tiled(&a, &b, n);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn identity_times_matrix_is_matrix() {
        let n = 32;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let (_, b) = inputs(n);
        let got = matmul_tiled(&a, &b, n);
        for (g, w) in got.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn trace_is_valid_and_sized_correctly() {
        let gpu = GpuConfig::gtx580();
        let k = MatmulTiled::new(128);
        assert_eq!(k.launch_config().grid_blocks, 64);
        let t = k.block_trace(0, &gpu);
        t.validate().unwrap();
        assert_eq!(t.warps.len(), 8);
        // Phases = 8 tiles; each warp has 2 barriers per phase.
        let barriers = t.warps[0]
            .iter()
            .filter(|i| matches!(i, WarpInstruction::Barrier))
            .count();
        assert_eq!(barriers, 16);
    }

    #[test]
    fn tile_loads_are_two_transactions_per_warp() {
        // Each warp covers 2 rows of 16 consecutive floats: 64 bytes per row,
        // rows n*4 bytes apart -> 2 L1 transactions for n >= 32.
        let gpu = GpuConfig::gtx580();
        let k = MatmulTiled::new(256);
        let t = k.block_trace(3, &gpu);
        for instr in &t.warps[0] {
            if let WarpInstruction::LoadGlobal { addrs, width, mask } = instr {
                let mut trans = Vec::new();
                coalesce_into(addrs, *width, *mask, 128, &mut trans);
                assert!(trans.len() <= 2, "expected <=2 lines, got {}", trans.len());
            }
        }
    }

    #[test]
    fn shared_accesses_are_conflict_free() {
        let gpu = GpuConfig::gtx580();
        let k = MatmulTiled::new(128);
        let t = k.block_trace(0, &gpu);
        for stream in &t.warps {
            for instr in stream {
                if let WarpInstruction::LoadShared {
                    offsets,
                    width,
                    mask,
                }
                | WarpInstruction::StoreShared {
                    offsets,
                    width,
                    mask,
                } = instr
                {
                    assert_eq!(
                        replays_scratch(offsets, *width, *mask, 32, 4, &mut BankScratch::new()),
                        0
                    );
                }
            }
        }
    }

    #[test]
    fn profile_scales_superlinearly_with_n() {
        let gpu = GpuConfig::gtx580();
        let t64 = matmul_application(64).profile(&gpu).unwrap().time_ms;
        let t256 = matmul_application(256).profile(&gpu).unwrap().time_ms;
        // 4x the size -> 64x the flops; with overheads expect >> 8x time.
        assert!(t256 > t64 * 8.0, "t64={t64} t256={t256}");
    }

    #[test]
    fn loads_dwarf_stores() {
        let gpu = GpuConfig::gtx580();
        let run = matmul_application(256).profile(&gpu).unwrap();
        let gld = run.counters.get("gld_request").unwrap();
        let gst = run.counters.get("gst_request").unwrap();
        // 2 loads per thread per phase (16 phases at n=256) vs 1 store.
        assert!(gld > 20.0 * gst, "gld={gld} gst={gst}");
    }

    #[test]
    fn naive_is_slower_than_tiled() {
        let gpu = GpuConfig::gtx580();
        let tiled = matmul_application(256).profile(&gpu).unwrap().time_ms;
        let naive = matmul_naive_application(256).profile(&gpu).unwrap().time_ms;
        assert!(naive > tiled, "naive {naive} vs tiled {tiled}");
    }

    #[test]
    fn all_tile_sizes_compute_the_same_product() {
        let n = 64;
        let (a, b) = inputs(n);
        let want = matmul_reference(&a, &b, n);
        for t in [8usize, 16, 32] {
            let got = matmul_tiled_with(&a, &b, n, t);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-2, "tile {t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn tile_size_changes_launch_geometry_and_traces_validate() {
        let gpu = GpuConfig::gtx580();
        for t in [8usize, 16, 32] {
            let k = MatmulTiled { n: 128, tile: t };
            let lc = k.launch_config();
            assert_eq!(lc.threads_per_block, t * t);
            assert_eq!(lc.grid_blocks, (128 / t) * (128 / t));
            k.block_trace(0, &gpu).validate().unwrap();
        }
    }

    #[test]
    fn tile32_reduces_global_traffic_per_flop() {
        // Bigger tiles reuse each loaded element more: fewer load requests
        // for the same n.
        let gpu = GpuConfig::gtx580();
        let r16 = matmul_application_tiled(256, 16).profile(&gpu).unwrap();
        let r32 = matmul_application_tiled(256, 32).profile(&gpu).unwrap();
        assert!(
            r32.counters.get("gld_request").unwrap() < r16.counters.get("gld_request").unwrap()
        );
    }

    #[test]
    fn occupancy_is_warp_limited_for_tiled_mm() {
        let gpu = GpuConfig::gtx580();
        let run = matmul_application(512).profile(&gpu).unwrap();
        let occ = run.counters.get("achieved_occupancy").unwrap();
        assert!(occ > 0.5, "occupancy {occ}");
    }
}
