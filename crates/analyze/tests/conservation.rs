//! Conservation property suite for basic-block attribution.
//!
//! [`bf_analyze::attribute_launch`] splits the static walk's counters by
//! basic block; the hard invariant is that nothing is lost or double
//! counted — per-block sums must equal the launch totals **bit for bit**
//! for every counter, over *arbitrary* valid traces, not just the shipped
//! kernels. Proptest generates those traces here; a seeded-bug test shows
//! that a deliberately mis-attributed counter is caught; and an acceptance
//! sweep pins the invariant across the paper's workloads on both GPU
//! generations.

use bf_analyze::{analyze_launch, attribute_launch, check_conservation, workload_sweep_with_chars};
use gpu_sim::trace::{BlockTrace, KernelTrace, LaunchConfig, WarpInstruction};
use gpu_sim::GpuConfig;
use proptest::prelude::*;

/// A synthetic kernel replaying one generated block trace for every grid
/// block — the minimal [`KernelTrace`] needed to drive the analyzer over
/// proptest-generated streams.
struct SyntheticKernel {
    trace: BlockTrace,
    grid_blocks: usize,
}

impl KernelTrace for SyntheticKernel {
    fn name(&self) -> String {
        "synthetic_proptest_kernel".to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.grid_blocks,
            threads_per_block: self.trace.warps.len().max(1) * 32,
            regs_per_thread: 16,
            shared_mem_per_block: 4096,
        }
    }

    fn block_trace(&self, _block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
        self.trace.clone()
    }
}

/// Any zoo preset — all five architecture generations, both memory-path
/// variants — with randomly perturbed geometry on top: SM count,
/// scheduler/dispatch width, bank count, and the full L1 mode matrix
/// (line-tagged, bypassed, sectored). Conservation must hold on the whole
/// configuration space, not just the shipped points.
fn arb_gpu() -> impl Strategy<Value = GpuConfig> {
    (
        0usize..GpuConfig::presets().len(),
        1usize..=32,                                                  // num_sms
        1usize..=4,                                                   // warp_schedulers
        1usize..=2,                                                   // dispatch_per_scheduler
        prop_oneof![Just(16usize), Just(32)],                         // shared_banks
        any::<bool>(),                                                // l1_caches_globals
        any::<bool>(),                                                // l1_sectored
        prop_oneof![Just(524288usize), Just(1572864), Just(6291456)], // l2_size
    )
        .prop_map(
            |(preset, num_sms, warp_schedulers, dispatch, banks, l1_globals, l1_sectored, l2)| {
                GpuConfig {
                    num_sms,
                    warp_schedulers,
                    dispatch_per_scheduler: dispatch,
                    shared_banks: banks,
                    l1_caches_globals: l1_globals,
                    l1_sectored,
                    l2_size: l2,
                    ..GpuConfig::presets().swap_remove(preset)
                }
            },
        )
}

fn arb_addrs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 20), 32)
}

fn arb_offsets() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..4096, 32)
}

fn arb_width() -> impl Strategy<Value = u8> {
    prop_oneof![Just(4u8), Just(8u8)]
}

/// Any non-barrier warp instruction — arbitrary masks (full, partial,
/// empty) and full 32-slot address vectors, the documented convention.
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

/// A structurally valid block: every warp has the same number of barriers
/// (the deadlock-freedom invariant `BlockTrace::validate` enforces), with
/// arbitrary barrier-separated segments around them.
fn arb_block() -> impl Strategy<Value = BlockTrace> {
    (1usize..=4, 0usize..=2).prop_flat_map(|(warps, barriers)| {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(arb_instruction(), 0..5),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over arbitrary valid traces on both GPU generations, every one of
    /// the 25 statically exact counters attributed across basic blocks
    /// sums back to the launch total bit for bit.
    #[test]
    fn attribution_conserves_all_counters_over_arbitrary_traces(
        gpu in arb_gpu(),
        trace in arb_block(),
        grid_blocks in 1usize..64,
    ) {
        let kernel = SyntheticKernel { trace, grid_blocks };
        let launch = analyze_launch(&gpu, &kernel).unwrap();
        let blocks = attribute_launch(&gpu, &kernel).unwrap();
        for c in check_conservation(&blocks, &launch) {
            prop_assert!(
                c.ok,
                "counter {} not conserved: attributed {} vs launch {} (rel {:.3e})",
                c.counter, c.attributed, c.launch_total, c.rel_error
            );
            prop_assert!(
                c.exact,
                "counter {} conserved only approximately: attributed {} vs launch {}",
                c.counter, c.attributed, c.launch_total
            );
        }
        // Sanity: the attribution actually partitioned the stream (any
        // non-empty warp stream yields at least one block).
        if blocks.blocks.is_empty() {
            prop_assert_eq!(launch.counts.inst_issued, 0.0);
        }
    }
}

/// The check has teeth: seeding a deliberate mis-attribution (one extra
/// issue slot credited to the hottest block) is flagged on exactly the
/// perturbed counter.
#[test]
fn seeded_misattribution_is_caught() {
    use bf_kernels::reduce::{reduce_application, ReduceVariant};

    let gpu = GpuConfig::gtx580();
    let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
    let kernel = app.launches[0].as_ref();
    let launch = analyze_launch(&gpu, kernel).unwrap();
    let mut blocks = attribute_launch(&gpu, kernel).unwrap();

    // Green before the bug is seeded.
    assert!(check_conservation(&blocks, &launch).iter().all(|c| c.ok));

    blocks.blocks[0].counts.inst_issued += 1.0;
    let checks = check_conservation(&blocks, &launch);
    let bad: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
    assert_eq!(bad.len(), 1, "exactly the perturbed counter fails: {bad:?}");
    assert_eq!(bad[0].counter, "inst_issued");
    assert!(bad[0].rel_error > bf_analyze::REL_TOLERANCE);
}

/// Acceptance: conservation is green (and bit-for-bit) across the paper's
/// workload sweeps — all seven reduce variants, Needleman-Wunsch, and the
/// stencil — on one representative of every architecture generation.
#[test]
fn conservation_holds_across_paper_workloads_on_every_architecture() {
    for gpu in GpuConfig::arch_representatives() {
        for workload in [
            "reduce0", "reduce1", "reduce2", "reduce3", "reduce4", "reduce5", "reduce6", "nw",
            "stencil",
        ] {
            let (apps, _) = workload_sweep_with_chars(workload, true).unwrap();
            for app in &apps {
                for (i, kernel) in app.launches.iter().enumerate() {
                    let launch = analyze_launch(&gpu, kernel.as_ref()).unwrap();
                    let blocks = attribute_launch(&gpu, kernel.as_ref()).unwrap();
                    for c in check_conservation(&blocks, &launch) {
                        assert!(
                            c.ok && c.exact,
                            "{} launch {i} on {} ({}): counter {} drifted \
                             (attributed {} vs launch {}, rel {:.3e})",
                            app.name,
                            gpu.name,
                            gpu.arch.name(),
                            c.counter,
                            c.attributed,
                            c.launch_total,
                            c.rel_error
                        );
                    }
                }
            }
        }
    }
}
