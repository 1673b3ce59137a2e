//! Property tests of the SM event scheduler (the SoA engine the launch
//! engine runs): for arbitrary well-formed traces (matched barriers across
//! warps), the simulation must terminate, produce self-consistent counters,
//! and respect basic monotonicity.

use blackforest_suite::gpu_sim::cache::Cache;
use blackforest_suite::gpu_sim::soa::{compile, execute, SmResult};
use blackforest_suite::gpu_sim::trace::{BlockTrace, WarpInstruction, FULL_MASK};
use blackforest_suite::gpu_sim::GpuConfig;
use proptest::prelude::*;

/// One segment of per-warp work between two barriers.
#[derive(Debug, Clone)]
enum Op {
    Alu(u32),
    LoadGlobal { base: u64, stride: u64 },
    StoreGlobal { base: u64 },
    LoadShared { stride: u32 },
    Branch { divergent: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..6).prop_map(Op::Alu),
        (
            (0u64..(1 << 16)),
            prop_oneof![Just(4u64), Just(8), Just(128)]
        )
            .prop_map(|(base, stride)| Op::LoadGlobal {
                base: base * 4,
                stride
            }),
        (0u64..(1 << 16)).prop_map(|b| Op::StoreGlobal { base: b * 4 }),
        prop_oneof![Just(4u32), Just(8), Just(16), Just(128)]
            .prop_map(|stride| Op::LoadShared { stride }),
        any::<bool>().prop_map(|divergent| Op::Branch { divergent }),
    ]
}

fn materialize(op: &Op) -> WarpInstruction {
    match *op {
        Op::Alu(count) => WarpInstruction::Alu {
            count,
            mask: FULL_MASK,
        },
        Op::LoadGlobal { base, stride } => WarpInstruction::LoadGlobal {
            addrs: (0..32).map(|i| base + i * stride).collect(),
            width: 4,
            mask: FULL_MASK,
        },
        Op::StoreGlobal { base } => WarpInstruction::StoreGlobal {
            addrs: (0..32).map(|i| base + i * 4).collect(),
            width: 4,
            mask: FULL_MASK,
        },
        Op::LoadShared { stride } => WarpInstruction::LoadShared {
            offsets: (0..32).map(|i| (i * stride) % 8192).collect(),
            width: 4,
            mask: FULL_MASK,
        },
        Op::Branch { divergent } => WarpInstruction::Branch {
            divergent,
            mask: FULL_MASK,
        },
    }
}

/// A block of `warps` warps, each executing the same segment structure
/// (possibly different per-warp op parameters would also be legal; shared
/// structure guarantees matched barriers).
fn block_strategy() -> impl Strategy<Value = BlockTrace> {
    (
        1usize..6,                                                               // warps
        prop::collection::vec(prop::collection::vec(op_strategy(), 0..6), 1..4), // segments
    )
        .prop_map(|(warps, segments)| {
            let mut t = BlockTrace::with_warps(warps);
            for (si, seg) in segments.iter().enumerate() {
                for w in &mut t.warps {
                    for op in seg {
                        w.push(materialize(op));
                    }
                    // Barrier between segments (not after the last).
                    if si + 1 < segments.len() {
                        w.push(WarpInstruction::Barrier);
                    }
                }
            }
            t
        })
}

fn run(gpu: &GpuConfig, blocks: &[BlockTrace]) -> SmResult {
    let mut l1 = Cache::new(gpu.l1_size, gpu.l1_line, gpu.l1_assoc);
    let mut l2 = Cache::new(gpu.l2_size / gpu.num_sms, 32, gpu.l2_assoc);
    let compiled = compile(gpu, blocks).expect("valid trace must compile");
    execute(gpu, &compiled, &mut l1, &mut l2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any well-formed resident set simulates to completion with
    /// self-consistent counters.
    #[test]
    fn scheduler_terminates_with_consistent_counters(
        blocks in prop::collection::vec(block_strategy(), 1..4),
    ) {
        for gpu in [GpuConfig::gtx580(), GpuConfig::k20m()] {
            let r = run(&gpu, &blocks);
            let ev = &r.events;
            prop_assert!(r.cycles >= 1.0 && r.cycles.is_finite());
            prop_assert!(ev.inst_issued >= ev.inst_executed);
            prop_assert!(ev.divergent_branch <= ev.branch);
            prop_assert!(ev.l1_global_load_hit + ev.l1_global_load_miss
                <= ev.global_load_transactions + 1e-9);
            prop_assert!(ev.dram_read_transactions <= ev.l2_read_transactions + 1e-9);
            prop_assert!(ev.shared_load_replay <= 31.0 * ev.shared_load + 1e-9);
            prop_assert!(r.dram_bytes >= 32.0 * ev.dram_read_transactions - 1e-6);
            prop_assert!(ev.active_warp_cycles <= r.cycles * ev.warps_launched + 1e-6);
        }
    }

    /// Adding work to every warp never makes the resident set finish sooner.
    #[test]
    fn more_work_never_finishes_earlier(
        block in block_strategy(),
        extra in 1u32..8,
    ) {
        let gpu = GpuConfig::gtx580();
        let base = run(&gpu, std::slice::from_ref(&block));
        let mut bigger = block.clone();
        for w in &mut bigger.warps {
            w.push(WarpInstruction::Alu { count: extra, mask: FULL_MASK });
        }
        let more = run(&gpu, &[bigger]);
        prop_assert!(more.cycles + 1e-9 >= base.cycles);
        prop_assert!(more.events.inst_executed > base.events.inst_executed);
    }

    /// Simulation is a pure function of its inputs (fresh caches): two runs
    /// agree bit-for-bit.
    #[test]
    fn simulation_is_deterministic(blocks in prop::collection::vec(block_strategy(), 1..3)) {
        let gpu = GpuConfig::gtx580();
        let a = run(&gpu, &blocks);
        let b = run(&gpu, &blocks);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.events.inst_issued, b.events.inst_issued);
        prop_assert_eq!(a.dram_bytes, b.dram_bytes);
    }
}
