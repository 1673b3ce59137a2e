//! 2D Jacobi 5-point stencil — an *extension workload* beyond the paper's
//! three case studies (§7 lists "more applications" as current work).
//!
//! One Jacobi sweep over an `n x n` grid: every interior cell becomes the
//! weighted average of itself and its four neighbours. The CUDA-style
//! implementation tiles the grid into 16x16 thread blocks that stage a
//! `18x18` halo tile in shared memory: interior loads are coalesced, the
//! halo columns are not, and the kernel is strongly bandwidth-bound with a
//! mild cache-locality component — a profile distinct from all three paper
//! workloads, which is exactly what makes it a good generality check for
//! BlackForest.

use crate::{Application, INPUT_BASE, OUTPUT_BASE};
use gpu_sim::trace::{BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};
use gpu_sim::GpuConfig;

/// Tile edge (threads per block side).
pub const BLOCK_SIZE: usize = 16;

/// Stencil coefficients: centre and the four von-Neumann neighbours.
pub const W_CENTER: f32 = 0.5;
/// Neighbour weight (four neighbours share the remaining mass).
pub const W_NEIGHBOR: f32 = 0.125;

// ---------------------------------------------------------------------------
// Functional implementation
// ---------------------------------------------------------------------------

/// One Jacobi sweep on an `n x n` grid (boundary cells copied unchanged).
/// Reference row-major implementation.
pub fn stencil_reference(input: &[f32], n: usize) -> Vec<f32> {
    assert_eq!(input.len(), n * n);
    let mut out = input.to_vec();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            out[i * n + j] = W_CENTER * input[i * n + j]
                + W_NEIGHBOR
                    * (input[(i - 1) * n + j]
                        + input[(i + 1) * n + j]
                        + input[i * n + j - 1]
                        + input[i * n + j + 1]);
        }
    }
    out
}

/// The tiled evaluation in CUDA block order; must equal the reference
/// exactly (same FP expression per cell, just a different schedule).
pub fn stencil_tiled(input: &[f32], n: usize) -> Vec<f32> {
    assert!(
        n.is_multiple_of(BLOCK_SIZE),
        "n must be a multiple of {BLOCK_SIZE}"
    );
    let mut out = input.to_vec();
    let nb = n / BLOCK_SIZE;
    let mut tile = [[0.0f32; BLOCK_SIZE + 2]; BLOCK_SIZE + 2];
    for by in 0..nb {
        for bx in 0..nb {
            // Stage the 18x18 halo tile (clamped at grid borders).
            for ty in 0..BLOCK_SIZE + 2 {
                for tx in 0..BLOCK_SIZE + 2 {
                    let gi = (by * BLOCK_SIZE + ty).saturating_sub(1).min(n - 1);
                    let gj = (bx * BLOCK_SIZE + tx).saturating_sub(1).min(n - 1);
                    tile[ty][tx] = input[gi * n + gj];
                }
            }
            for ty in 0..BLOCK_SIZE {
                for tx in 0..BLOCK_SIZE {
                    let i = by * BLOCK_SIZE + ty;
                    let j = bx * BLOCK_SIZE + tx;
                    if i == 0 || j == 0 || i == n - 1 || j == n - 1 {
                        continue;
                    }
                    out[i * n + j] = W_CENTER * tile[ty + 1][tx + 1]
                        + W_NEIGHBOR
                            * (tile[ty][tx + 1]
                                + tile[ty + 2][tx + 1]
                                + tile[ty + 1][tx]
                                + tile[ty + 1][tx + 2]);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// One Jacobi sweep as a simulator trace.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    /// Grid edge; must be a multiple of [`BLOCK_SIZE`].
    pub n: usize,
}

/// Shared tile offset of element (ty, tx) in the 18x18 staging array.
fn tile_off(ty: usize, tx: usize) -> u32 {
    ((ty * (BLOCK_SIZE + 2) + tx) * 4) as u32
}

impl KernelTrace for StencilKernel {
    fn name(&self) -> String {
        "jacobi2d".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        let nb = self.n / BLOCK_SIZE;
        LaunchConfig {
            grid_blocks: nb * nb,
            threads_per_block: BLOCK_SIZE * BLOCK_SIZE,
            regs_per_thread: 18,
            shared_mem_per_block: (BLOCK_SIZE + 2) * (BLOCK_SIZE + 2) * 4,
        }
    }

    fn content_tag(&self) -> Option<u128> {
        // `block_trace` below reads only `n`, block_id, and gpu.warp_size
        // (covered by the memo key's GPU fingerprint).
        Some(crate::content_tag128(0x7374, &(self.n,))) // "st"
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        let n = self.n;
        let nb = n / BLOCK_SIZE;
        let (bx, by) = (block_id % nb, block_id / nb);
        let warps = (BLOCK_SIZE * BLOCK_SIZE).div_ceil(gpu.warp_size);
        let mut trace = BlockTrace::with_warps(warps);
        let gaddr = |i: usize, j: usize| INPUT_BASE + ((i * n + j) as u64) * 4;
        let clamp = |v: isize| -> usize { v.clamp(0, n as isize - 1) as usize };

        for w in 0..warps {
            let stream = &mut trace.warps[w];
            stream.push(WarpInstruction::Alu {
                count: 4,
                mask: u32::MAX,
            });
            // Interior tile load: thread (tx, ty) loads its own cell into
            // tile[ty+1][tx+1] — coalesced (2 rows of 16 floats per warp).
            let mut addrs = [0u64; 32];
            let mut offs = [0u32; 32];
            for lane in 0..32 {
                let ty = 2 * w + lane / 16;
                let tx = lane % 16;
                addrs[lane] = gaddr(by * BLOCK_SIZE + ty, bx * BLOCK_SIZE + tx);
                offs[lane] = tile_off(ty + 1, tx + 1);
            }
            stream.push(WarpInstruction::LoadGlobal {
                addrs: addrs.into(),
                width: 4,
                mask: u32::MAX,
            });
            stream.push(WarpInstruction::StoreShared {
                offsets: offs.into(),
                width: 4,
                mask: u32::MAX,
            });
        }
        // Halo loads, done by warp 0 (like the boundary threads would):
        // north/south rows are coalesced, west/east columns are strided.
        {
            let stream = &mut trace.warps[0];
            let mask16 = 0xFFFFu32;
            // North and south rows (coalesced row segments).
            for (row, tile_row) in [(-1isize, 0usize), (BLOCK_SIZE as isize, BLOCK_SIZE + 1)] {
                let gi = clamp(by as isize * BLOCK_SIZE as isize + row);
                let addrs: Lanes<u64> = (0..32)
                    .map(|l| {
                        if l < 16 {
                            gaddr(gi, bx * BLOCK_SIZE + l)
                        } else {
                            0
                        }
                    })
                    .collect();
                stream.push(WarpInstruction::LoadGlobal {
                    addrs,
                    width: 4,
                    mask: mask16,
                });
                stream.push(WarpInstruction::StoreShared {
                    offsets: (0..32).map(|l| tile_off(tile_row, (l % 16) + 1)).collect(),
                    width: 4,
                    mask: mask16,
                });
            }
            // West and east columns (strided by the row size: uncoalesced).
            for (col, tile_col) in [(-1isize, 0usize), (BLOCK_SIZE as isize, BLOCK_SIZE + 1)] {
                let gj = clamp(bx as isize * BLOCK_SIZE as isize + col);
                let addrs: Lanes<u64> = (0..32)
                    .map(|l| {
                        if l < 16 {
                            gaddr(by * BLOCK_SIZE + l, gj)
                        } else {
                            0
                        }
                    })
                    .collect();
                stream.push(WarpInstruction::LoadGlobal {
                    addrs,
                    width: 4,
                    mask: mask16,
                });
                stream.push(WarpInstruction::StoreShared {
                    offsets: (0..32).map(|l| tile_off((l % 16) + 1, tile_col)).collect(),
                    width: 4,
                    mask: mask16,
                });
            }
        }
        for w in 0..warps {
            trace.warps[w].push(WarpInstruction::Barrier);
        }
        // Compute phase: 5 shared loads + 1 folded FMA chain, then the
        // coalesced store of the result.
        for w in 0..warps {
            let stream = &mut trace.warps[w];
            for (dy, dx) in [(1usize, 1usize), (0, 1), (2, 1), (1, 0), (1, 2)] {
                let offs: Lanes<u32> = (0..32)
                    .map(|lane| {
                        let ty = 2 * w + lane / 16;
                        let tx = lane % 16;
                        tile_off(ty + dy, tx + dx)
                    })
                    .collect();
                stream.push(WarpInstruction::LoadShared {
                    offsets: offs,
                    width: 4,
                    mask: u32::MAX,
                });
            }
            stream.push(WarpInstruction::Alu {
                count: 5,
                mask: u32::MAX,
            });
            let addrs: Lanes<u64> = (0..32)
                .map(|lane| {
                    let ty = 2 * w + lane / 16;
                    let tx = lane % 16;
                    OUTPUT_BASE + (((by * BLOCK_SIZE + ty) * n + bx * BLOCK_SIZE + tx) as u64) * 4
                })
                .collect();
            stream.push(WarpInstruction::StoreGlobal {
                addrs,
                width: 4,
                mask: u32::MAX,
            });
        }
        trace
    }
}

/// The stencil application: `sweeps` Jacobi iterations over an `n x n` grid.
pub fn stencil_application(n: usize, sweeps: usize) -> Application {
    let launches: Vec<Box<dyn KernelTrace>> = (0..sweeps.max(1))
        .map(|_| Box::new(StencilKernel { n }) as Box<dyn KernelTrace>)
        .collect();
    Application {
        name: "jacobi2d".into(),
        launches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::banks::{replays_scratch, BankScratch};
    use gpu_sim::coalesce::coalesce_into;

    fn grid(n: usize) -> Vec<f32> {
        (0..n * n).map(|i| ((i * 31) % 17) as f32 / 17.0).collect()
    }

    #[test]
    fn tiled_matches_reference_exactly() {
        for n in [16, 32, 64] {
            let g = grid(n);
            assert_eq!(stencil_reference(&g, n), stencil_tiled(&g, n), "n={n}");
        }
    }

    #[test]
    fn boundary_cells_unchanged() {
        let n = 32;
        let g = grid(n);
        let out = stencil_reference(&g, n);
        for j in 0..n {
            assert_eq!(out[j], g[j]);
            assert_eq!(out[(n - 1) * n + j], g[(n - 1) * n + j]);
            assert_eq!(out[j * n], g[j * n]);
            assert_eq!(out[j * n + n - 1], g[j * n + n - 1]);
        }
    }

    #[test]
    fn uniform_field_is_fixed_point() {
        let n = 32;
        let g = vec![3.0f32; n * n];
        let out = stencil_reference(&g, n);
        for (&a, &b) in out.iter().zip(g.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn trace_is_valid_and_conflict_free_in_shared() {
        let gpu = GpuConfig::gtx580();
        let k = StencilKernel { n: 128 };
        let t = k.block_trace(5, &gpu);
        t.validate().unwrap();
        for stream in &t.warps {
            for instr in stream {
                if let WarpInstruction::LoadShared {
                    offsets,
                    width,
                    mask,
                } = instr
                {
                    // Row-major 18-wide tile: lanes stride 1 word within a
                    // row; the 18-word row pitch avoids 2-way conflicts for
                    // the two half-warps.
                    let r = replays_scratch(offsets, *width, *mask, 32, 4, &mut BankScratch::new());
                    assert!(r <= 1, "replays {r}");
                }
            }
        }
    }

    #[test]
    fn halo_columns_are_uncoalesced() {
        let gpu = GpuConfig::gtx580();
        let k = StencilKernel { n: 512 };
        let t = k.block_trace(10, &gpu);
        let worst = t.warps[0]
            .iter()
            .filter_map(|i| match i {
                WarpInstruction::LoadGlobal { addrs, width, mask } => {
                    let mut lines = Vec::new();
                    coalesce_into(addrs, *width, *mask, 128, &mut lines);
                    Some(lines.len())
                }
                _ => None,
            })
            .max()
            .unwrap();
        assert!(
            worst >= 16,
            "expected a 16-transaction column load, got {worst}"
        );
    }

    #[test]
    fn profile_is_bandwidth_heavy() {
        let gpu = GpuConfig::gtx580();
        let run = stencil_application(512, 1).profile(&gpu).unwrap();
        // One load+store per cell, ~10 arithmetic ops: low arithmetic
        // intensity => DRAM traffic close to 2 floats per cell.
        let bytes = run.counters.get("dram_read_transactions").unwrap() * 32.0
            + run.counters.get("dram_write_transactions").unwrap() * 32.0;
        let ideal = (512.0 * 512.0) * 8.0;
        assert!(bytes > 0.5 * ideal, "bytes {bytes} vs ideal {ideal}");
    }

    #[test]
    fn multiple_sweeps_accumulate_time() {
        let gpu = GpuConfig::gtx580();
        let t1 = stencil_application(256, 1).profile(&gpu).unwrap().time_ms;
        let t4 = stencil_application(256, 4).profile(&gpu).unwrap().time_ms;
        assert!(t4 > 3.0 * t1, "t1={t1} t4={t4}");
    }
}
