//! Needleman-Wunsch global sequence alignment — the Rodinia `needle`
//! benchmark, the paper's second prediction case study (§6.1.2).
//!
//! The score matrix is filled with the classic recurrence
//! `S[i][j] = max(S[i-1][j-1] + ref[i][j], S[i][j-1] - p, S[i-1][j] - p)`.
//! The Rodinia GPU implementation processes the `(n+1) x (n+1)` matrix in
//! 16x16 tiles along anti-diagonals: kernel 1 sweeps the top-left triangle
//! (one launch per diagonal, with as many 16-thread blocks as tiles on the
//! diagonal), kernel 2 the bottom-right. Inside a tile, 16 threads walk the
//! 31 intra-tile diagonals through shared memory.
//!
//! Performance characteristics preserved here, all load-bearing for the
//! paper's Figures 6 and 8:
//! * 16-thread blocks cap occupancy at the block-slot limit (8 blocks/SM on
//!   Fermi -> 8 of 48 warps resident), making `achieved_occupancy` and the
//!   problem `size` the dominant predictors;
//! * the west-column boundary load is strided by the matrix row size
//!   (uncoalesced), and tile locality is poor, loading L1/L2 (Fermi) —
//!   the `l1_global_load_miss` / `l2_read_transactions` importance;
//! * intra-tile diagonal accesses stride shared memory by 16 words, a
//!   2-way-per-pair pattern that produces real bank conflicts
//!   (`l1_shared_bank_conflict` on Fermi).

use crate::{Application, INPUT2_BASE, INPUT_BASE};
use gpu_sim::trace::{first_lanes, BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};
use gpu_sim::GpuConfig;

/// Tile edge / threads per block (Rodinia's BLOCK_SIZE).
pub const BLOCK_SIZE: usize = 16;

// ---------------------------------------------------------------------------
// Functional implementations
// ---------------------------------------------------------------------------

/// Deterministic "substitution matrix" value for cell `(i, j)`, standing in
/// for `blosum62[seq1[i]][seq2[j]]` with a blosum-like value range [-4, 11].
pub fn reference_score(i: usize, j: usize) -> i32 {
    let h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    ((h >> 33) % 16) as i32 - 4
}

/// Sequential reference DP over an `n x n` alignment problem (score matrix
/// is `(n+1) x (n+1)`). Returns the full matrix, row-major.
pub fn nw_reference(n: usize, penalty: i32) -> Vec<i32> {
    let cols = n + 1;
    let mut s = vec![0i32; cols * cols];
    for i in 1..cols {
        s[i * cols] = -(i as i32) * penalty;
        s[i] = -(i as i32) * penalty;
    }
    for i in 1..cols {
        for j in 1..cols {
            let diag = s[(i - 1) * cols + (j - 1)] + reference_score(i, j);
            let west = s[i * cols + (j - 1)] - penalty;
            let north = s[(i - 1) * cols + j] - penalty;
            s[i * cols + j] = diag.max(west).max(north);
        }
    }
    s
}

/// Tiled evaluation in the exact Rodinia order: top-left diagonals of tiles,
/// then bottom-right, with the intra-tile double diagonal sweep. Returns the
/// full matrix and must equal [`nw_reference`] exactly (integer DP).
pub fn nw_tiled(n: usize, penalty: i32) -> Vec<i32> {
    assert!(
        n.is_multiple_of(BLOCK_SIZE),
        "n must be a multiple of {BLOCK_SIZE}"
    );
    let cols = n + 1;
    let bw = n / BLOCK_SIZE;
    let mut s = vec![0i32; cols * cols];
    for i in 1..cols {
        s[i * cols] = -(i as i32) * penalty;
        s[i] = -(i as i32) * penalty;
    }
    let mut do_tile = |by: usize, bx: usize| {
        // temp[17][17] seeded with the tile's north/west boundaries.
        let mut temp = [[0i32; BLOCK_SIZE + 1]; BLOCK_SIZE + 1];
        let base_r = by * BLOCK_SIZE;
        let base_c = bx * BLOCK_SIZE;
        for t in 0..=BLOCK_SIZE {
            temp[0][t] = s[base_r * cols + base_c + t];
            temp[t][0] = s[(base_r + t) * cols + base_c];
        }
        // Forward then backward intra-tile diagonals (Rodinia's two loops).
        for m in 0..BLOCK_SIZE {
            for tid in 0..=m {
                let tx = tid + 1;
                let ty = m - tid + 1;
                let r = base_r + ty;
                let c = base_c + tx;
                let diag = temp[ty - 1][tx - 1] + reference_score(r, c);
                temp[ty][tx] = diag
                    .max(temp[ty][tx - 1] - penalty)
                    .max(temp[ty - 1][tx] - penalty);
            }
        }
        for m in (0..BLOCK_SIZE - 1).rev() {
            for tid in 0..=m {
                let tx = tid + BLOCK_SIZE - m;
                let ty = BLOCK_SIZE - tid;
                let r = base_r + ty;
                let c = base_c + tx;
                let diag = temp[ty - 1][tx - 1] + reference_score(r, c);
                temp[ty][tx] = diag
                    .max(temp[ty][tx - 1] - penalty)
                    .max(temp[ty - 1][tx] - penalty);
            }
        }
        for ty in 1..=BLOCK_SIZE {
            for tx in 1..=BLOCK_SIZE {
                s[(base_r + ty) * cols + base_c + tx] = temp[ty][tx];
            }
        }
    };
    // Kernel-1 sweep: diagonals of the top-left triangle.
    for i in 1..=bw {
        for bx in 0..i {
            do_tile(i - 1 - bx, bx);
        }
    }
    // Kernel-2 sweep: diagonals of the bottom-right triangle.
    for i in (1..bw).rev() {
        for bx in 0..i {
            do_tile(bw - 1 - bx, bx + bw - i);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// One NW diagonal launch (either kernel) as a simulator trace.
#[derive(Debug, Clone)]
pub struct NwKernel {
    /// Alignment problem size (matrix is `(n+1)^2`).
    pub n: usize,
    /// Which Rodinia kernel: 1 (top-left sweep) or 2 (bottom-right).
    pub kernel: u8,
    /// Diagonal iteration index `i` (grid has `i` blocks).
    pub iteration: usize,
}

impl NwKernel {
    /// Tile coordinates (block-row, block-col) for grid block `bx`.
    fn tile(&self, bx: usize) -> (usize, usize) {
        let bw = self.n / BLOCK_SIZE;
        match self.kernel {
            1 => (self.iteration - 1 - bx, bx),
            _ => (bw - 1 - bx, bx + bw - self.iteration),
        }
    }
}

const T16: u32 = 0xFFFF; // 16 active lanes
/// Shared-memory offset of temp[ty][tx] (17x17 i32 array at offset 0).
fn temp_off(ty: usize, tx: usize) -> u32 {
    ((ty * (BLOCK_SIZE + 1) + tx) * 4) as u32
}
/// Shared-memory offset of ref[ty][tx] (16x16 i32 array after temp).
fn ref_off(ty: usize, tx: usize) -> u32 {
    (((BLOCK_SIZE + 1) * (BLOCK_SIZE + 1) + ty * BLOCK_SIZE + tx) * 4) as u32
}

impl KernelTrace for NwKernel {
    fn name(&self) -> String {
        format!("needle_cuda_shared_{}", self.kernel)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.iteration,
            threads_per_block: BLOCK_SIZE,
            regs_per_thread: 20,
            shared_mem_per_block: ((BLOCK_SIZE + 1) * (BLOCK_SIZE + 1) + BLOCK_SIZE * BLOCK_SIZE)
                * 4,
        }
    }

    fn content_tag(&self) -> Option<u128> {
        // `block_trace` below reads only (n, kernel, iteration, block_id).
        Some(crate::content_tag128(
            0x6E77, // "nw"
            &(self.n, self.kernel, self.iteration),
        ))
    }

    fn block_trace(&self, block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
        let cols = (self.n + 1) as u64;
        let (by, bx) = self.tile(block_id);
        let base_r = (by * BLOCK_SIZE) as u64;
        let base_c = (bx * BLOCK_SIZE) as u64;
        let items = |r: u64, c: u64| INPUT_BASE + (r * cols + c) * 4;
        let refm = |r: u64, c: u64| INPUT2_BASE + (r * cols + c) * 4;
        // Global addresses of one 16-lane tile row or column; lanes 16..32
        // are inactive and hold 0.
        let row16 = |addr: &dyn Fn(u64) -> u64| -> Lanes<u64> {
            (0..32u64)
                .map(|l| if l < 16 { addr(l) } else { 0 })
                .collect()
        };

        let mut trace = BlockTrace::with_warps(1);
        let s = &mut trace.warps[0];
        TILE_OFFSETS.with(|offs| {
            let shared_store = |s: &mut Vec<WarpInstruction>, offsets: &Lanes<u32>, mask| {
                s.push(WarpInstruction::StoreShared {
                    offsets: offsets.clone(),
                    width: 4,
                    mask,
                });
            };

            // Index arithmetic.
            s.push(WarpInstruction::Alu {
                count: 6,
                mask: T16,
            });

            // North boundary row: itemsets[base_r][base_c + tid + 1] —
            // coalesced.
            s.push(WarpInstruction::LoadGlobal {
                addrs: row16(&|l| items(base_r, base_c + l + 1)),
                width: 4,
                mask: T16,
            });
            shared_store(s, &offs.north, T16);
            // West boundary column: itemsets[base_r + tid + 1][base_c] —
            // strided by the full matrix row: one transaction per lane.
            s.push(WarpInstruction::LoadGlobal {
                addrs: row16(&|l| items(base_r + l + 1, base_c)),
                width: 4,
                mask: T16,
            });
            shared_store(s, &offs.west, T16);
            // NW corner by lane 0.
            let mut corner = [0u64; 32];
            corner[0] = items(base_r, base_c);
            s.push(WarpInstruction::LoadGlobal {
                addrs: corner.into(),
                width: 4,
                mask: 1,
            });
            shared_store(s, &offs.corner, 1);

            // Reference tile: 16 coalesced row loads.
            for (ty, row) in offs.reference.iter().enumerate() {
                let r = base_r + ty as u64 + 1;
                s.push(WarpInstruction::LoadGlobal {
                    addrs: row16(&|l| refm(r, base_c + l + 1)),
                    width: 4,
                    mask: T16,
                });
                shared_store(s, row, T16);
            }
            s.push(WarpInstruction::Barrier);

            // Intra-tile diagonals: forward m = 0..16, then backward
            // m = 14..=0. Shared offsets stride 16 words between lanes, the
            // bank-conflicting pattern described in the module docs.
            let steps = (0..BLOCK_SIZE)
                .map(|m| (m, &offs.forward[m]))
                .chain((0..BLOCK_SIZE - 1).rev().map(|m| (m, &offs.backward[m])));
            for (m, [loads @ .., store]) in steps {
                let mask = first_lanes(m + 1);
                s.push(WarpInstruction::Branch {
                    divergent: m + 1 < BLOCK_SIZE,
                    mask: T16,
                });
                // Load NW, W, N neighbours and the reference cell.
                for offsets in loads {
                    s.push(WarpInstruction::LoadShared {
                        offsets: offsets.clone(),
                        width: 4,
                        mask,
                    });
                }
                s.push(WarpInstruction::Alu { count: 3, mask });
                shared_store(s, store, mask);
                s.push(WarpInstruction::Barrier);
            }

            // Write the tile back: 16 coalesced row stores.
            for (ty, row) in offs.write_back.iter().enumerate() {
                let r = base_r + ty as u64 + 1;
                s.push(WarpInstruction::LoadShared {
                    offsets: row.clone(),
                    width: 4,
                    mask: T16,
                });
                s.push(WarpInstruction::StoreGlobal {
                    addrs: row16(&|l| items(r, base_c + l + 1)),
                    width: 4,
                    mask: T16,
                });
            }
        });
        trace
    }
}

/// The shared-memory offsets of one NW block. They are tile-relative, so
/// every block of every launch uses the same ~190 patterns.
struct TileOffsets {
    /// `temp[0][tid + 1]`: the north boundary row.
    north: Lanes<u32>,
    /// `temp[tid + 1][0]`: the west boundary column.
    west: Lanes<u32>,
    /// `temp[0][0]`, lane 0 only.
    corner: Lanes<u32>,
    /// `ref[ty][tid]` for each reference row `ty`.
    reference: Vec<Lanes<u32>>,
    /// Forward diagonal `m`: the NW, W, N and reference loads, then the
    /// store, over lanes `0..=m`.
    forward: Vec<[Lanes<u32>; 5]>,
    /// Backward diagonal `m`, in the same order.
    backward: Vec<[Lanes<u32>; 5]>,
    /// `temp[ty + 1][tid + 1]` for each row `ty` written back.
    write_back: Vec<Lanes<u32>>,
}

impl TileOffsets {
    fn new() -> TileOffsets {
        let lanes = |off: &dyn Fn(usize) -> u32| -> Lanes<u32> { (0..32).map(off).collect() };
        // The five accesses of diagonal step `m`; lanes past `m` hold 0.
        let diagonal = |m: usize, forward: bool| -> [Lanes<u32>; 5] {
            let coords = |tid: usize| -> (usize, usize) {
                if forward {
                    (m - tid + 1, tid + 1)
                } else {
                    (BLOCK_SIZE - tid, tid + BLOCK_SIZE - m)
                }
            };
            let at = |f: fn(usize, usize) -> u32| {
                lanes(&|l| {
                    if l <= m {
                        let (ty, tx) = coords(l);
                        f(ty, tx)
                    } else {
                        0
                    }
                })
            };
            [
                at(|ty, tx| temp_off(ty - 1, tx - 1)),
                at(|ty, tx| temp_off(ty, tx - 1)),
                at(|ty, tx| temp_off(ty - 1, tx)),
                at(|ty, tx| ref_off(ty - 1, tx - 1)),
                at(temp_off),
            ]
        };
        TileOffsets {
            north: lanes(&|l| temp_off(0, (l % 16) + 1)),
            west: lanes(&|l| temp_off((l % 16) + 1, 0)),
            corner: lanes(&|l| if l == 0 { temp_off(0, 0) } else { 0 }),
            reference: (0..BLOCK_SIZE)
                .map(|ty| lanes(&|l| ref_off(ty, l % 16)))
                .collect(),
            forward: (0..BLOCK_SIZE).map(|m| diagonal(m, true)).collect(),
            backward: (0..BLOCK_SIZE - 1).map(|m| diagonal(m, false)).collect(),
            write_back: (0..BLOCK_SIZE)
                .map(|ty| lanes(&|l| temp_off(ty + 1, (l % 16) + 1)))
                .collect(),
        }
    }
}

thread_local! {
    /// Each thread's copy of the table, so parallel workers never share a
    /// reference count.
    static TILE_OFFSETS: TileOffsets = TileOffsets::new();
}

/// The full NW application for an `n x n` problem: one launch per diagonal,
/// both kernels, exactly Rodinia's host loop.
pub fn nw_application(n: usize, _penalty: i32) -> Application {
    assert!(
        n.is_multiple_of(BLOCK_SIZE),
        "n must be a multiple of {BLOCK_SIZE}"
    );
    let bw = n / BLOCK_SIZE;
    let mut launches: Vec<Box<dyn KernelTrace>> = Vec::new();
    for i in 1..=bw {
        launches.push(Box::new(NwKernel {
            n,
            kernel: 1,
            iteration: i,
        }));
    }
    for i in (1..bw).rev() {
        launches.push(Box::new(NwKernel {
            n,
            kernel: 2,
            iteration: i,
        }));
    }
    Application {
        name: "needle".into(),
        launches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::banks::{replays_scratch, BankScratch};
    use gpu_sim::coalesce::coalesce_into;

    #[test]
    fn tiled_dp_matches_reference_exactly() {
        for n in [16, 32, 64, 128] {
            let a = nw_reference(n, 10);
            let b = nw_tiled(n, 10);
            assert_eq!(a, b, "mismatch at n={n}");
        }
    }

    #[test]
    fn boundary_rows_are_gap_penalties() {
        let n = 32;
        let p = 7;
        let s = nw_reference(n, p);
        let cols = n + 1;
        for i in 1..=n {
            assert_eq!(s[i], -(i as i32) * p);
            assert_eq!(s[i * cols], -(i as i32) * p);
        }
    }

    #[test]
    fn reference_score_is_deterministic_and_blosum_ranged() {
        for i in 0..100 {
            for j in 0..100 {
                let v = reference_score(i, j);
                assert_eq!(v, reference_score(i, j));
                assert!((-4..=11).contains(&v));
            }
        }
    }

    #[test]
    fn tile_coordinates_cover_all_tiles_exactly_once() {
        let n = 128;
        let bw = n / BLOCK_SIZE;
        let mut seen = std::collections::HashSet::new();
        for i in 1..=bw {
            let k = NwKernel {
                n,
                kernel: 1,
                iteration: i,
            };
            for bx in 0..i {
                assert!(seen.insert(k.tile(bx)), "duplicate tile");
            }
        }
        for i in (1..bw).rev() {
            let k = NwKernel {
                n,
                kernel: 2,
                iteration: i,
            };
            for bx in 0..i {
                assert!(seen.insert(k.tile(bx)), "duplicate tile");
            }
        }
        assert_eq!(seen.len(), bw * bw);
        for by in 0..bw {
            for bx in 0..bw {
                assert!(seen.contains(&(by, bx)));
            }
        }
    }

    #[test]
    fn traces_validate_and_use_one_warp() {
        let gpu = GpuConfig::gtx580();
        let k = NwKernel {
            n: 128,
            kernel: 1,
            iteration: 3,
        };
        let t = k.block_trace(1, &gpu);
        t.validate().unwrap();
        assert_eq!(t.warps.len(), 1);
    }

    #[test]
    fn diagonal_accesses_have_bank_conflicts() {
        let gpu = GpuConfig::gtx580();
        let k = NwKernel {
            n: 128,
            kernel: 1,
            iteration: 1,
        };
        let t = k.block_trace(0, &gpu);
        let total: u32 = t.warps[0]
            .iter()
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
            .sum();
        assert!(total > 0, "NW tile should conflict in shared memory");
    }

    #[test]
    fn west_column_load_is_uncoalesced() {
        let gpu = GpuConfig::gtx580();
        let k = NwKernel {
            n: 512,
            kernel: 1,
            iteration: 1,
        };
        let t = k.block_trace(0, &gpu);
        // Find the max transaction count over global loads: the west column
        // must hit 16 distinct lines.
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
        assert_eq!(worst, 16);
    }

    #[test]
    fn application_launch_count_matches_rodinia_host_loop() {
        let app = nw_application(128, 10);
        let bw = 128 / BLOCK_SIZE;
        assert_eq!(app.launches.len(), 2 * bw - 1);
    }

    #[test]
    fn profile_runs_and_has_low_occupancy_on_fermi() {
        let gpu = GpuConfig::gtx580();
        let run = nw_application(128, 10).profile(&gpu).unwrap();
        let occ = run.counters.get("achieved_occupancy").unwrap();
        // 16-thread blocks, 8 block slots: <= 8/48 theoretical.
        assert!(occ < 0.2, "occupancy {occ}");
        assert!(run.counters.get("l1_shared_bank_conflict").unwrap() > 0.0);
    }

    #[test]
    fn kepler_occupancy_higher_than_fermi_for_nw() {
        let f = nw_application(128, 10)
            .profile(&GpuConfig::gtx580())
            .unwrap();
        let k = nw_application(128, 10).profile(&GpuConfig::k20m()).unwrap();
        assert!(
            k.counters.get("achieved_occupancy").unwrap()
                > f.counters.get("achieved_occupancy").unwrap()
        );
    }

    #[test]
    fn per_kernel_breakdown_reports_both_nw_kernels() {
        let gpu = GpuConfig::gtx580();
        let app = nw_application(128, 10);
        // The host loop issues every kernel-1 diagonal before any kernel-2
        // one, so the launch list splits at the first kernel-2 launch.
        let split = app
            .launches
            .iter()
            .position(|k| k.name() != app.launches[0].name())
            .unwrap();
        let (first, second) = app.launches.split_at(split);
        let (k1, k2) = (first[0].name(), second[0].name());
        let apps: [(&str, &[Box<dyn KernelTrace>]); 2] = [(&k1, first), (&k2, second)];
        let per_kernel = gpu_sim::profile_applications(&gpu, &apps, None).unwrap();
        assert_eq!(per_kernel.len(), 2);
        assert_eq!(per_kernel[0].kernel, "needle_cuda_shared_1");
        assert_eq!(per_kernel[1].kernel, "needle_cuda_shared_2");
        // Kernel 1 covers one more diagonal than kernel 2.
        assert!(per_kernel[0].time_ms > per_kernel[1].time_ms);
        // The two together match the aggregate application profile.
        let total = app.profile(&gpu).unwrap();
        let sum = per_kernel[0].time_ms + per_kernel[1].time_ms;
        assert!((sum - total.time_ms).abs() / total.time_ms < 1e-9);
    }

    #[test]
    fn bigger_problems_take_longer() {
        let gpu = GpuConfig::gtx580();
        let t64 = nw_application(64, 10).profile(&gpu).unwrap().time_ms;
        let t256 = nw_application(256, 10).profile(&gpu).unwrap().time_ms;
        assert!(t256 > 2.0 * t64, "t64={t64} t256={t256}");
    }
}
