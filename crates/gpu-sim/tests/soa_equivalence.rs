//! Property suite pinning the SoA batch engine to the reference
//! interpreter.
//!
//! The reference ([`reference::simulate_sm`], test-only) re-derives
//! coalescing and bank conflicts per instruction straight from the trace;
//! the launch engine runs the precompiled SoA path ([`gpu_sim::soa`])
//! instead. The two must be **bit-identical** — every cycle count, every
//! raw event, every DRAM byte — over *arbitrary* valid traces on every
//! architecture generation's memory path (line-tagged L1, L1 bypass,
//! sector-tagged L1), not just the shipped kernels. Proptest generates
//! those traces here; fixed mixed blocks cover every preset.
//!
//! A second property pins steady-state loop extrapolation
//! ([`gpu_sim::steady`]): for periodic warp streams, the statically exact
//! counters of an extrapolated launch must match the fully simulated launch
//! to the differential-oracle tolerance (1e-9 relative, float noise only).

mod reference;

use gpu_sim::builder::TraceBuilder;
use gpu_sim::cache::Cache;
use gpu_sim::occupancy::occupancy;
use gpu_sim::trace::{first_lanes, BlockTrace, LaunchConfig, WarpInstruction, FULL_MASK};
use gpu_sim::{
    simulate_sampled_launch_with, soa, EngineOptions, GpuConfig, RawEvents, SampledBlocks,
};
use proptest::prelude::*;
use reference::simulate_sm;

/// The cold cache state every launch starts from (mirrors the engine's
/// private `fresh_caches`): fresh L1, tagged at the L1's tag granularity
/// (sectors on Pascal/Volta, lines elsewhere), plus this SM's slice of the
/// shared L2.
fn fresh_caches(gpu: &GpuConfig) -> (Cache, Cache) {
    let l2_slice = (gpu.l2_size / gpu.num_sms).max(gpu.l2_line * gpu.l2_assoc);
    (
        Cache::new(gpu.l1_size, gpu.l1_tag_line(), gpu.l1_assoc),
        Cache::new(l2_slice, gpu.l2_line.max(32), gpu.l2_assoc),
    )
}

/// One GPU per architecture generation, so every global-memory path is
/// drawn.
fn arb_gpu() -> impl Strategy<Value = GpuConfig> {
    (0..GpuConfig::arch_representatives().len())
        .prop_map(|i| GpuConfig::arch_representatives().swap_remove(i))
}

/// Asserts the engine and the reference agree bit for bit on one resident
/// set: cycles, DRAM bytes and every raw-event slot.
fn assert_bit_identical(gpu: &GpuConfig, blocks: &[BlockTrace]) {
    let (mut l1_ref, mut l2_ref) = fresh_caches(gpu);
    let reference = simulate_sm(gpu, blocks, &mut l1_ref, &mut l2_ref).unwrap();
    let (mut l1_soa, mut l2_soa) = fresh_caches(gpu);
    let batched = soa::simulate_resident_set(gpu, blocks, &mut l1_soa, &mut l2_soa).unwrap();
    assert_eq!(batched.cycles.to_bits(), reference.cycles.to_bits());
    assert_eq!(batched.dram_bytes.to_bits(), reference.dram_bytes.to_bits());
    let (a, b) = (batched.events.as_array(), reference.events.as_array());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: event field {i} diverges: soa {x} vs reference {y}",
            gpu.name
        );
    }
}

/// One block of four warps touching every instruction kind, with a
/// conflicted shared load, partial masks, a barrier and scattered stores.
fn mixed_block(seed: u64) -> BlockTrace {
    let mut b = TraceBuilder::new(4);
    for w in 0..4 {
        let base = seed + w as u64 * 4096;
        b.warp(w)
            .load_global_seq(base, 4)
            .load_shared_strided(0, 8, 4)
            .mask(first_lanes(17))
            .alu(7);
    }
    b.barrier();
    for w in 0..4 {
        let base = seed + w as u64 * 4096 + (1 << 20);
        b.warp(w)
            .branch(w % 2 == 0)
            .mask(first_lanes(9))
            .sfu()
            .mask(first_lanes(23))
            .store_shared_seq(0, 4)
            .mask(FULL_MASK)
            .store_global((0..32).map(|i| base + i * 512).collect::<Vec<_>>(), 8);
    }
    b.build().unwrap()
}

#[test]
fn mixed_blocks_match_reference_on_every_preset() {
    for gpu in GpuConfig::presets() {
        assert_bit_identical(&gpu, &[mixed_block(0), mixed_block(1 << 16)]);
    }
}

/// Layouts no preset has: 48 banks of 12 bytes, which every shared access
/// counts on the general path, and L1 lines of 16, 64 and 256 bytes, whose
/// stores evict through their own list below 32 bytes and through their
/// sectors from 32 up.
#[test]
fn off_preset_layouts_match_reference() {
    // Every lane loads, stores and reloads bytes 16..20 of its own sector:
    // on 16-byte lines the store must evict the line at 16, not the one
    // at the sector's start, or the reload would hit.
    let upper_halves: Vec<u64> = (0..32).map(|i| 16 + i * 32).collect();
    let mut reload = TraceBuilder::new(1);
    reload
        .warp(0)
        .load_global(upper_halves.clone(), 4)
        .store_global(upper_halves.clone(), 4)
        .load_global(upper_halves, 4);
    let blocks = [
        mixed_block(0),
        mixed_block(1 << 16),
        reload.build().unwrap(),
    ];
    let mut gpu = GpuConfig::gtx580();
    gpu.shared_banks = 48;
    gpu.bank_width = 12;
    assert_bit_identical(&gpu, &blocks);
    for l1_line in [16, 64, 256] {
        let mut gpu = GpuConfig::gtx580();
        gpu.l1_line = l1_line;
        assert_bit_identical(&gpu, &blocks);
    }
}

#[test]
fn empty_and_tiny_blocks_match_reference() {
    let mut uneven = BlockTrace::with_warps(3);
    uneven.warps[1].push(WarpInstruction::Alu {
        count: 1,
        mask: FULL_MASK,
    });
    assert_bit_identical(&GpuConfig::gtx580(), &[BlockTrace::with_warps(2), uneven]);
}

#[test]
fn invalid_traces_are_rejected_like_reference() {
    let g = GpuConfig::gtx580();
    let mut bad = BlockTrace::with_warps(2);
    bad.warps[0].push(WarpInstruction::Barrier);
    let (mut l1, mut l2) = fresh_caches(&g);
    assert!(simulate_sm(&g, std::slice::from_ref(&bad), &mut l1, &mut l2).is_err());
    assert!(soa::simulate_resident_set(&g, &[bad], &mut l1, &mut l2).is_err());
}

/// 32 per-lane global byte addresses spanning several L1/L2 lines, so the
/// generated patterns exercise coalescing, set conflicts, and broadcasts.
fn arb_addrs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 20), 32)
}

/// 32 per-lane shared-memory byte offsets across all 32 banks, including
/// the conflict-heavy strided patterns.
fn arb_offsets() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..4096, 32)
}

fn arb_width() -> impl Strategy<Value = u8> {
    prop_oneof![Just(4u8), Just(8u8)]
}

/// Any non-barrier warp instruction, arbitrary masks included (partial,
/// full, and empty masks must all agree between the two engines).
fn arb_instruction() -> impl Strategy<Value = WarpInstruction> {
    prop_oneof![
        (1u32..8, any::<u32>()).prop_map(|(count, mask)| WarpInstruction::Alu { count, mask }),
        any::<u32>().prop_map(|mask| WarpInstruction::Sfu { mask }),
        (arb_addrs(), arb_width(), any::<u32>()).prop_map(|(addrs, width, mask)| {
            WarpInstruction::LoadGlobal {
                addrs: addrs.into(),
                width,
                mask,
            }
        }),
        (arb_addrs(), arb_width(), any::<u32>()).prop_map(|(addrs, width, mask)| {
            WarpInstruction::StoreGlobal {
                addrs: addrs.into(),
                width,
                mask,
            }
        }),
        (arb_offsets(), arb_width(), any::<u32>()).prop_map(|(offsets, width, mask)| {
            WarpInstruction::LoadShared {
                offsets: offsets.into(),
                width,
                mask,
            }
        }),
        (arb_offsets(), arb_width(), any::<u32>()).prop_map(|(offsets, width, mask)| {
            WarpInstruction::StoreShared {
                offsets: offsets.into(),
                width,
                mask,
            }
        }),
        (any::<bool>(), any::<u32>())
            .prop_map(|(divergent, mask)| WarpInstruction::Branch { divergent, mask }),
    ]
}

/// A structurally valid block: 1..=4 warps, each stream split into the same
/// number of barrier-separated segments (the validity invariant `validate`
/// enforces — mismatched barrier counts would deadlock real hardware).
fn arb_block() -> impl Strategy<Value = BlockTrace> {
    (1usize..=4, 0usize..=2).prop_flat_map(|(warps, barriers)| {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(arb_instruction(), 0..4),
                barriers + 1,
            ),
            warps,
        )
        .prop_map(|warp_segments| {
            let mut t = BlockTrace::with_warps(warp_segments.len());
            for (w, segments) in warp_segments.into_iter().enumerate() {
                for (i, segment) in segments.into_iter().enumerate() {
                    if i > 0 {
                        t.warps[w].push(WarpInstruction::Barrier);
                    }
                    t.warps[w].extend(segment);
                }
            }
            t
        })
    })
}

/// The raw-event fields with exact static counterparts, i.e. the 19
/// counters the bf-analyze differential oracle compares at 1e-9.
fn statically_exact(ev: &RawEvents) -> [f64; 19] {
    [
        ev.inst_executed,
        ev.inst_issued,
        ev.thread_inst_executed,
        ev.branch,
        ev.divergent_branch,
        ev.shared_load,
        ev.shared_store,
        ev.shared_load_replay,
        ev.shared_store_replay,
        ev.gld_request,
        ev.gst_request,
        ev.gld_requested_bytes,
        ev.gst_requested_bytes,
        ev.global_load_transactions,
        ev.global_store_transactions,
        ev.l2_write_transactions,
        ev.dram_write_transactions,
        ev.warps_launched,
        ev.blocks_launched,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA engine is bit-identical to the reference interpreter over
    /// arbitrary resident sets on every GPU generation: same cycles, same
    /// DRAM bytes, same value in every raw-event slot, down to the last
    /// mantissa bit.
    #[test]
    fn soa_engine_matches_reference_interpreter_bit_exactly(
        gpu in arb_gpu(),
        blocks in proptest::collection::vec(arb_block(), 1..4),
    ) {
        let (mut l1_ref, mut l2_ref) = fresh_caches(&gpu);
        let reference = simulate_sm(&gpu, &blocks, &mut l1_ref, &mut l2_ref).unwrap();
        let (mut l1_soa, mut l2_soa) = fresh_caches(&gpu);
        let batched = soa::simulate_resident_set(&gpu, &blocks, &mut l1_soa, &mut l2_soa).unwrap();

        prop_assert_eq!(
            batched.cycles.to_bits(),
            reference.cycles.to_bits(),
            "cycles diverged: soa {} vs reference {}",
            batched.cycles,
            reference.cycles
        );
        prop_assert_eq!(
            batched.dram_bytes.to_bits(),
            reference.dram_bytes.to_bits(),
            "dram bytes diverged: soa {} vs reference {}",
            batched.dram_bytes,
            reference.dram_bytes
        );
        let ev_ref = reference.events.as_array();
        let ev_soa = batched.events.as_array();
        for (i, (s, r)) in ev_soa.iter().zip(ev_ref.iter()).enumerate() {
            prop_assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "raw event slot {} diverged: soa {} vs reference {}",
                i,
                s,
                r
            );
        }
    }

    /// Loop extrapolation is counter-exact: a launch whose warps repeat a
    /// steady-state unit many times yields the same statically exact
    /// counters whether the tail is simulated or extrapolated, to the
    /// differential-oracle tolerance.
    #[test]
    fn loop_extrapolation_preserves_statically_exact_counters(
        gpu in arb_gpu(),
        unit in proptest::collection::vec(arb_instruction(), 1..4),
        with_barrier in any::<bool>(),
        warps in 1usize..=4,
        reps in 8usize..48,
        grid_mult in 1usize..4,
    ) {
        let mut block = BlockTrace::with_warps(warps);
        for stream in &mut block.warps {
            for _ in 0..reps {
                stream.extend(unit.iter().cloned());
                if with_barrier {
                    stream.push(WarpInstruction::Barrier);
                }
            }
        }
        let lc = LaunchConfig {
            grid_blocks: warps * grid_mult * gpu.num_sms,
            threads_per_block: warps * 32,
            regs_per_thread: 16,
            shared_mem_per_block: 0,
        };
        let sampled = SampledBlocks {
            launch: lc,
            occupancy: occupancy(&gpu, &lc).unwrap(),
            ids: vec![0],
            traces: vec![block],
        };
        let full = simulate_sampled_launch_with(
            &gpu, &sampled,
            &EngineOptions { loop_extrapolation: false },
        ).unwrap();
        let extr = simulate_sampled_launch_with(
            &gpu, &sampled,
            &EngineOptions { loop_extrapolation: true },
        ).unwrap();

        prop_assert_eq!(extr.waves, full.waves);
        prop_assert_eq!(extr.sampled_blocks, full.sampled_blocks);
        let a = statically_exact(&extr.events);
        let b = statically_exact(&full.events);
        for (i, (x, f)) in a.iter().zip(b.iter()).enumerate() {
            let rel = (x - f).abs() / f.abs().max(1.0);
            prop_assert!(
                rel <= 1e-9,
                "statically exact counter {} drifted: extrapolated {} vs full {} (rel {:.3e})",
                i, x, f, rel
            );
        }
    }
}
