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
//!
//! The fast paths get inputs shaped to reach them and their edges: monotone
//! and affine offsets (rising and falling), straddling widths, partial,
//! single-lane and empty masks over non-zero inactive lanes, offsets near
//! `u32::MAX`, and non-power-of-two banks and segments, which must take the
//! general path. The translated-warp reuse is pinned twice: the predicate
//! [`is_translation`] against a naive Δ check, and compile's whole bank
//! sweep against the reference, access by access. The sweep's inputs
//! include warps that share the previous warp's [`Lanes`] handle, with the
//! same or another width and mask, and equal copies in their own
//! allocation: identity is a translation by Δ = 0, and sharing a handle
//! must never change a count.

mod reference;

use gpu_sim::banks::{conflict_degree_scratch, is_translation, replays_scratch, BankScratch};
use gpu_sim::coalesce::{coalesce_into, requested_bytes};
use gpu_sim::occupancy::{occupancy, OccupancyLimiter};
use gpu_sim::soa;
use gpu_sim::trace::{
    first_lanes, BlockTrace, LaneMask, Lanes, LaunchConfig, WarpInstruction, FULL_MASK,
};
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use reference::{coalesce, conflict_degree, replays};

/// 32 lane values of the shapes the fast paths key on: affine in the lane
/// with either stride sign, sorted either way, a few repeated words, plain
/// random, and sorted or random within `top` of `max`.
fn arb_lanes(max: u64, top: u64) -> impl Strategy<Value = Vec<u64>> {
    let span = max.min(1 << 16);
    let near_top = move || proptest::collection::vec(max - top..=max, 32);
    prop_oneof![
        (0..span, -260i64..=260).prop_map(move |(base, stride)| {
            (0..32)
                .map(|l| (base as i64 + span as i64 / 2 + l * stride).clamp(0, max as i64) as u64)
                .collect()
        }),
        proptest::collection::vec(0..span, 32).prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
        proptest::collection::vec(0..span, 32).prop_map(|mut v| {
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }),
        proptest::collection::vec(
            prop_oneof![Just(0u64), Just(128), Just(132), Just(4096)],
            32
        ),
        proptest::collection::vec(0..span, 32),
        near_top().prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
        near_top(),
    ]
}

fn arb_offsets() -> impl Strategy<Value = Vec<u32>> {
    arb_lanes(u32::MAX as u64, 4096).prop_map(|v| v.into_iter().map(|o| o as u32).collect())
}

/// Full, random, leading, single-lane and empty masks.
fn arb_mask() -> impl Strategy<Value = LaneMask> {
    prop_oneof![
        Just(FULL_MASK),
        any::<u32>(),
        (0usize..=32).prop_map(first_lanes),
        (0u32..32).prop_map(|l| 1 << l),
        Just(0),
    ]
}

/// Bytes per lane, including widths that straddle banks and segments.
fn arb_width() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(4u8), Just(8u8), Just(16u8)]
}

/// `(shared_banks, bank_width)`: power-of-two layouts, and two that must
/// take the general path (12-byte banks, 48 of them or 32).
fn arb_banks() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        Just((32u32, 4u32)),
        Just((16, 4)),
        Just((32, 8)),
        Just((64, 4)),
        Just((48, 12)),
        Just((32, 12)),
    ]
}

/// The naive translation test: the active lanes share one Δ, taken without
/// wrap-around, and it is a multiple of `period`.
fn naive_translation(prev: &[u32], offsets: &[u32], mask: LaneMask, period: u64) -> bool {
    let mut deltas = (0..32)
        .filter(|&l| mask & (1 << l) != 0)
        .map(|l| offsets[l] as i64 - prev[l] as i64);
    match deltas.next() {
        None => true,
        Some(d) => d % period as i64 == 0 && deltas.all(|e| e == d),
    }
}

/// How a warp's access derives from the previous warp's at the same index.
#[derive(Debug, Clone)]
enum Derive {
    /// Every lane moves by this many bank periods (no move if that would
    /// leave the `u32` range).
    Translate(i64),
    /// Every lane moves by a Δ that is not a multiple of the period.
    Skew(i64),
    /// The previous warp's own handle: shared, not copied.
    Same,
    /// The previous warp's offsets copied into a new allocation.
    Copy,
    /// Translated, then one lane (active or not) moved by a few bytes.
    Perturb(i64, usize),
    /// Same offsets, another width.
    Width(u8),
    /// Same offsets, another mask.
    Mask(LaneMask),
    /// An unrelated shared access.
    Fresh(Vec<u32>, u8, LaneMask),
    /// No shared access at this index.
    Alu,
}

/// The derivations that keep the width and the mask.
fn arb_move() -> impl Strategy<Value = Derive> {
    prop_oneof![
        // Translations twice, so reuse is drawn often.
        (-3i64..=3).prop_map(Derive::Translate),
        (-3i64..=3).prop_map(Derive::Translate),
        Just(Derive::Same),
        Just(Derive::Copy),
        (-3i64..=3).prop_map(Derive::Skew),
        (-3i64..=3, 0usize..32).prop_map(|(k, l)| Derive::Perturb(k, l)),
    ]
}

fn arb_derive() -> impl Strategy<Value = Derive> {
    prop_oneof![
        arb_move(),
        arb_move(),
        arb_width().prop_map(Derive::Width),
        arb_mask().prop_map(Derive::Mask),
        (arb_offsets(), arb_width(), arb_mask()).prop_map(|(o, w, m)| Derive::Fresh(o, w, m)),
        Just(Derive::Alu),
    ]
}

fn shared(offsets: impl Into<Lanes<u32>>, width: u8, mask: LaneMask) -> WarpInstruction {
    WarpInstruction::LoadShared {
        offsets: offsets.into(),
        width,
        mask,
    }
}

/// Moves every lane by `delta` bytes, or returns `None` if one would leave
/// the `u32` range.
fn shifted(offsets: &[u32], delta: i64) -> Option<Vec<u32>> {
    offsets
        .iter()
        .map(|&o| u32::try_from(o as i64 + delta).ok())
        .collect()
}

/// `blocks` with every lane vector copied into its own allocation, so no
/// two instructions share a handle.
fn deep_copied(blocks: &[BlockTrace]) -> Vec<BlockTrace> {
    let copy = |instr: &WarpInstruction| match instr {
        WarpInstruction::LoadShared {
            offsets,
            width,
            mask,
        } => shared(offsets.to_vec(), *width, *mask),
        other => other.clone(),
    };
    blocks
        .iter()
        .map(|b| BlockTrace {
            warps: b
                .warps
                .iter()
                .map(|w| w.iter().map(copy).collect())
                .collect(),
        })
        .collect()
}

/// Warp `k + 1`'s stream from warp `k`'s: `derives[i]` rewrites access `i`;
/// indices past the previous stream become fresh accesses, and a shorter
/// `derives` leaves the new stream shorter.
fn derive_stream(
    prev: &[WarpInstruction],
    derives: &[Derive],
    period: u64,
) -> Vec<WarpInstruction> {
    let period = period as i64;
    derives
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let Some(WarpInstruction::LoadShared {
                offsets,
                width,
                mask,
            }) = prev.get(i)
            else {
                return match d {
                    Derive::Fresh(o, w, m) => shared(o.clone(), *w, *m),
                    _ => WarpInstruction::Alu {
                        count: 1,
                        mask: FULL_MASK,
                    },
                };
            };
            let moved = |delta: i64| shifted(offsets, delta).unwrap_or_else(|| offsets.to_vec());
            match d {
                Derive::Translate(k) => shared(moved(k * period), *width, *mask),
                Derive::Skew(k) => shared(moved(k * period + 4), *width, *mask),
                Derive::Same => shared(offsets.clone(), *width, *mask),
                Derive::Copy => shared(offsets.to_vec(), *width, *mask),
                Derive::Perturb(k, lane) => {
                    let mut o = moved(k * period);
                    o[*lane] = o[*lane].wrapping_add(4);
                    shared(o, *width, *mask)
                }
                Derive::Width(w) => shared(offsets.clone(), *w, *mask),
                Derive::Mask(m) => shared(offsets.clone(), *width, *m),
                Derive::Fresh(o, w, m) => shared(o.clone(), *w, *m),
                Derive::Alu => WarpInstruction::Alu {
                    count: 1,
                    mask: FULL_MASK,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The degree function, fast path and general path alike, gives the
    /// reference's degree on every shaped access, with one scratch reused
    /// across bank layouts.
    #[test]
    fn conflict_degree_matches_reference_on_shaped_offsets(
        accesses in prop::collection::vec(
            (arb_offsets(), arb_width(), arb_mask(), arb_banks()),
            1..16,
        ),
    ) {
        let mut scratch = BankScratch::new();
        for (i, (offsets, width, mask, (banks, bank_width))) in accesses.iter().enumerate() {
            let fast = conflict_degree_scratch(
                offsets, *width, *mask, *banks, *bank_width, &mut scratch,
            );
            let reference = conflict_degree(offsets, *width, *mask, *banks, *bank_width);
            prop_assert_eq!(fast, reference, "access {} diverged", i);
        }
    }

    /// `is_translation` agrees with the naive Δ check, and whenever it
    /// holds the reference gives both accesses one degree.
    #[test]
    fn translation_predicate_is_exact_and_preserves_degree(
        prev in arb_offsets(),
        width in arb_width(),
        mask in arb_mask(),
        (banks, bank_width) in arb_banks(),
        derive in arb_move(),
    ) {
        let period = banks as u64 * bank_width as u64;
        let before = shared(prev.clone(), width, mask);
        let after = derive_stream(std::slice::from_ref(&before), &[derive], period);
        let WarpInstruction::LoadShared { offsets, .. } = &after[0] else {
            unreachable!("a move keeps the shared access");
        };
        let translated = is_translation(&prev, offsets, mask, period);
        prop_assert_eq!(translated, naive_translation(&prev, offsets, mask, period));
        if translated {
            prop_assert_eq!(
                conflict_degree(&prev, width, mask, banks, bank_width),
                conflict_degree(offsets, width, mask, banks, bank_width)
            );
        }
    }

    /// Compile's bank sweep, reuse across translated and shared warps
    /// included, gives every shared access the reference's replays: warps
    /// derive from the previous one by translations, the same handle, equal
    /// copies, skews, perturbed lanes, other widths or masks (on the same
    /// handle), unrelated accesses and shorter or longer streams, across
    /// block boundaries. The same blocks with every handle deep-copied
    /// compile to the same replays.
    #[test]
    fn bank_sweep_matches_reference_across_derived_warps(
        first in prop::collection::vec((arb_offsets(), arb_width(), arb_mask()), 1..6),
        derived in prop::collection::vec(prop::collection::vec(arb_derive(), 0..8), 1..6),
        per_block in 1usize..=3,
        (banks, bank_width) in arb_banks(),
    ) {
        let mut gpu = GpuConfig::gtx580();
        gpu.shared_banks = banks as usize;
        gpu.bank_width = bank_width as usize;
        let period = banks as u64 * bank_width as u64;
        let mut streams = vec![first
            .into_iter()
            .map(|(o, w, m)| shared(o, w, m))
            .collect::<Vec<_>>()];
        for derives in &derived {
            let next = derive_stream(streams.last().expect("non-empty"), derives, period);
            streams.push(next);
        }
        let blocks: Vec<BlockTrace> = streams
            .chunks(per_block)
            .map(|warps| BlockTrace { warps: warps.to_vec() })
            .collect();
        let compiled = soa::compile(&gpu, &blocks).unwrap();
        let unshared = soa::compile(&gpu, &deep_copied(&blocks)).unwrap();
        let replays_of = |c: &soa::CompiledLaunch| -> Vec<u16> {
            c.warps().flat_map(|(_, ops)| ops.iter().map(|op| op.replays)).collect()
        };
        prop_assert_eq!(replays_of(&compiled), replays_of(&unshared));
        let mut checked = 0;
        for ((_, ops), stream) in compiled.warps().zip(&streams) {
            for (i, (op, instr)) in ops.iter().zip(stream).enumerate() {
                if let WarpInstruction::LoadShared { offsets, width, mask } = instr {
                    let expect = replays(offsets, *width, *mask, banks, bank_width);
                    prop_assert_eq!(op.replays as u32, expect, "op {} of a warp diverged", i);
                    checked += 1;
                }
            }
        }
        prop_assert!(checked > 0);
    }

    /// Coalescing gives the reference's transactions on shaped addresses:
    /// ascending runs whose straddling lanes fall back below the last
    /// segment, descending and random runs, and a non-power-of-two segment.
    #[test]
    fn coalesce_matches_reference_on_shaped_addresses(
        accesses in prop::collection::vec(
            (
                arb_lanes(u64::MAX / 2, 1 << 12),
                arb_width(),
                arb_mask(),
                prop_oneof![Just(32u32), Just(128u32), Just(96u32)],
            ),
            1..16,
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
}

/// A 48-bank, 12-byte layout is neither power of two: every access takes
/// the general path, and the counts still match the reference.
#[test]
fn non_power_of_two_banks_match_reference() {
    let mut scratch = BankScratch::new();
    for stride in [0u32, 4, 8, 12, 24, 48, 96, 576] {
        for width in [4u8, 8, 12, 16] {
            for mask in [FULL_MASK, first_lanes(17), 1 << 9, 0] {
                let offsets: Vec<u32> = (0..32).map(|l| 36 + l * stride).collect();
                assert_eq!(
                    conflict_degree_scratch(&offsets, width, mask, 48, 12, &mut scratch),
                    conflict_degree(&offsets, width, mask, 48, 12),
                    "stride {stride} width {width} mask {mask:#x}"
                );
            }
        }
    }
}

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
