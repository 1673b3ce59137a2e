//! Property tests for the primitives shared by the dynamic simulator and the
//! static analyzer (`bf-analyze`): coalescing, bank conflicts, occupancy.
//!
//! These are the contracts the differential oracle leans on — if a refactor
//! bends any of them, the static and dynamic paths drift apart silently, so
//! they are pinned here independently of either consumer. The library has
//! one form of each primitive, the allocation-free one
//! (`conflict_degree_scratch`, `coalesce_into`) that the SoA compile stage
//! runs; the test-only reference interpreter keeps naive allocating ones
//! (`reference::{conflict_degree, coalesce}`). The oracle's independence
//! rests on the two agreeing — including when one scratch buffer is reused
//! access after access.

mod reference;

use gpu_sim::banks::{conflict_degree_scratch, replays_scratch, BankScratch};
use gpu_sim::coalesce::{coalesce_into, requested_bytes};
use gpu_sim::occupancy::{occupancy, OccupancyLimiter};
use gpu_sim::trace::LaunchConfig;
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use reference::{coalesce, conflict_degree, replays};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One `BankScratch` reused over a whole access sequence gives the
    /// allocating `conflict_degree` for every access: per-bank counts left
    /// over from an earlier access (or an earlier bank count) would show.
    #[test]
    fn reused_bank_scratch_matches_conflict_degree(
        accesses in prop::collection::vec(
            (
                prop::collection::vec(0u32..8192, 32),
                prop_oneof![Just(4u8), Just(8u8)],
                any::<u32>(),
                prop_oneof![Just(16u32), Just(32u32)],
                prop_oneof![Just(4u32), Just(8u32)],
            ),
            1..24,
        ),
    ) {
        let mut scratch = BankScratch::new();
        for (i, (offsets, width, mask, banks, bank_width)) in accesses.iter().enumerate() {
            let reused = conflict_degree_scratch(
                offsets, *width, *mask, *banks, *bank_width, &mut scratch,
            );
            let reference = conflict_degree(offsets, *width, *mask, *banks, *bank_width);
            prop_assert_eq!(reused, reference, "access {} diverged", i);
        }
    }

    /// One output buffer reused over a whole access sequence gives
    /// `coalesce`'s transaction addresses for every access.
    #[test]
    fn reused_coalesce_buffer_matches_coalesce(
        accesses in prop::collection::vec(
            (
                prop::collection::vec(0u64..(1 << 16), 32),
                prop_oneof![Just(1u8), Just(4u8), Just(8u8)],
                any::<u32>(),
                prop_oneof![Just(32u32), Just(128u32)],
            ),
            1..24,
        ),
    ) {
        let mut out = Vec::new();
        for (i, (addrs, width, mask, segment)) in accesses.iter().enumerate() {
            coalesce_into(addrs, *width, *mask, *segment, &mut out);
            let reference: Vec<u64> = coalesce(addrs, *width, *mask, *segment)
                .iter()
                .map(|t| t.addr)
                .collect();
            prop_assert_eq!(&out, &reference, "access {} diverged", i);
        }
    }

    /// Every byte an active lane requests is covered by exactly one
    /// transaction: transactions are segment-aligned, strictly ascending
    /// (hence unique and non-overlapping), and their union contains every
    /// requested byte range.
    #[test]
    fn coalesce_covers_requests_without_overlap(
        addrs in prop::collection::vec(0u64..(1 << 16), 32),
        width in prop_oneof![Just(1u8), Just(4u8), Just(8u8)],
        mask in any::<u32>(),
        segment in prop_oneof![Just(32u32), Just(128u32)],
    ) {
        let mut txs = Vec::new();
        coalesce_into(&addrs, width, mask, segment, &mut txs);
        let seg = segment as u64;
        for t in &txs {
            prop_assert_eq!(t % seg, 0, "unaligned transaction");
        }
        for w in txs.windows(2) {
            prop_assert!(w[0] < w[1], "transactions overlap or are unsorted");
        }
        for (lane, &addr) in addrs.iter().enumerate() {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for byte in addr..addr + width as u64 {
                let covered = txs
                    .iter()
                    .any(|&t| t <= byte && byte < t + seg);
                prop_assert!(covered, "byte {byte} of lane {lane} not covered");
            }
        }
        if mask == 0 {
            prop_assert!(txs.is_empty());
        }
        // A lane touches at most two segments (boundary straddle), so the
        // transaction count is bounded by the active accesses.
        prop_assert!(txs.len() as u32 <= 2 * mask.count_ones().max(1));
        // Sanity for the throughput counters: requested bytes never exceed
        // the bytes the transactions move.
        prop_assert!(
            requested_bytes(width, mask) <= txs.len() as u64 * seg
                || mask == 0
        );
    }

    /// The conflict degree is at least the pigeonhole lower bound (distinct
    /// words spread over the banks) and at most the total words accessed.
    #[test]
    fn bank_replays_respect_pigeonhole_bounds(
        offsets in prop::collection::vec(0u32..8192, 32),
        width in prop_oneof![Just(4u8), Just(8u8)],
        mask in any::<u32>(),
    ) {
        let (banks, bank_width) = (32u32, 4u32);
        let mut scratch = BankScratch::new();
        let degree = conflict_degree_scratch(&offsets, width, mask, banks, bank_width, &mut scratch);
        let words_per_access = (width as u32).div_ceil(bank_width);
        let mut distinct: Vec<u32> = Vec::new();
        for (lane, &off) in offsets.iter().enumerate() {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for w in 0..words_per_access {
                let word = off / bank_width + w;
                if !distinct.contains(&word) {
                    distinct.push(word);
                }
            }
        }
        let lower = (distinct.len() as u32).div_ceil(banks).max(1);
        prop_assert!(degree >= lower, "degree {degree} below pigeonhole bound {lower}");
        let upper = (mask.count_ones() * words_per_access).max(1);
        prop_assert!(degree <= upper, "degree {degree} above access count {upper}");
        prop_assert_eq!(replays(&offsets, width, mask, banks, bank_width), degree - 1);
    }

    /// Broadcast (all lanes read one word) and sequential (each lane its own
    /// bank) patterns are conflict-free for any lane mask.
    #[test]
    fn conflict_free_patterns_have_zero_replays(
        word in 0u32..2048,
        base in 0u32..64,
        mask in any::<u32>(),
    ) {
        let broadcast = vec![word * 4; 32];
        let mut scratch = BankScratch::new();
        prop_assert_eq!(replays_scratch(&broadcast, 4, mask, 32, 4, &mut scratch), 0);
        let sequential: Vec<u32> = (0..32).map(|i| (base + i) * 4).collect();
        prop_assert_eq!(replays_scratch(&sequential, 4, mask, 32, 4, &mut scratch), 0);
    }

    /// Residency never exceeds any hardware limit, and the reported limiter
    /// is the binding constraint (its limit equals the resident block count,
    /// which no other limit undercuts).
    #[test]
    fn occupancy_within_limits_and_limiter_is_binding(
        threads in 1usize..=1024,
        regs in 0usize..=63,
        smem_kb in 0usize..=48,
        grid in 1usize..=4096,
    ) {
        for gpu in [GpuConfig::gtx580(), GpuConfig::k20m()] {
            let lc = LaunchConfig {
                grid_blocks: grid,
                threads_per_block: threads,
                regs_per_thread: regs,
                shared_mem_per_block: smem_kb * 1024,
            };
            let Ok(o) = occupancy(&gpu, &lc) else {
                // Impossible blocks are rejected, never mis-reported.
                continue;
            };
            let wpb = lc.warps_per_block(gpu.warp_size);
            let regs_per_block = regs.max(1) * wpb * gpu.warp_size;
            prop_assert!(o.blocks_per_sm >= 1);
            prop_assert!(o.blocks_per_sm <= gpu.max_blocks_per_sm);
            prop_assert!(o.warps_per_sm <= gpu.max_warps_per_sm);
            prop_assert_eq!(o.warps_per_sm, o.blocks_per_sm * wpb);
            prop_assert!(o.blocks_per_sm * regs_per_block <= gpu.registers_per_sm);
            prop_assert!(o.blocks_per_sm * lc.shared_mem_per_block <= gpu.shared_mem_per_sm);
            prop_assert!(o.theoretical <= 1.0 + 1e-12);

            let by_blocks = gpu.max_blocks_per_sm;
            let by_warps = gpu.max_warps_per_sm / wpb;
            let by_regs = gpu.registers_per_sm / regs_per_block;
            let by_smem = gpu
                .shared_mem_per_sm
                .checked_div(lc.shared_mem_per_block)
                .unwrap_or(usize::MAX);
            let resource_min = by_blocks.min(by_warps).min(by_regs).min(by_smem);
            let binding = match o.limiter {
                OccupancyLimiter::BlockSlots => by_blocks,
                OccupancyLimiter::WarpSlots => by_warps,
                OccupancyLimiter::Registers => by_regs,
                OccupancyLimiter::SharedMemory => by_smem,
                OccupancyLimiter::GridSize => grid.div_ceil(gpu.num_sms).max(1),
            };
            prop_assert_eq!(
                o.blocks_per_sm, binding,
                "limiter {:?} not binding", o.limiter
            );
            if o.limiter == OccupancyLimiter::GridSize {
                prop_assert!(o.blocks_per_sm <= resource_min);
            } else {
                prop_assert_eq!(o.blocks_per_sm, resource_min);
            }
        }
    }
}
