//! Property suite over *arbitrary-but-valid* GPU configurations.
//!
//! The zoo presets pin ten known-good points in configuration space; this
//! suite walks the space between them. Proptest draws configurations with
//! random SM counts, scheduler widths, bank counts, cache geometries, and
//! memory paths — each field within its own per-field bounds — and checks
//! the contracts the rest of the toolchain leans on:
//!
//! * simulation never panics and produces finite, positive results;
//! * the profiler emits exactly the counters the architecture's
//!   availability mask admits — nothing more, nothing less;
//! * the configuration fingerprint is sensitive to every
//!   simulation-relevant field, so SimCache/memo keys (which embed the
//!   fingerprint) can never alias results across differing hardware.

use gpu_sim::counters::counters_for;
use gpu_sim::trace::{BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};
use gpu_sim::{
    profile_kernel, simulate_launch, simulate_launch_cached, GpuArchitecture, GpuConfig, SimCache,
};
use proptest::prelude::*;

/// A small kernel mixing every instruction family: strided global loads
/// (coalescing + cache paths), conflicted shared accesses (bank logic),
/// ALU/SFU work, a divergent branch, and a barrier.
struct MixedKernel {
    grid_blocks: usize,
}

impl KernelTrace for MixedKernel {
    fn name(&self) -> String {
        "zoo_prop_mixed".to_string()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.grid_blocks,
            threads_per_block: 64,
            regs_per_thread: 20,
            shared_mem_per_block: 2048,
        }
    }

    fn block_trace(&self, block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
        let mut t = BlockTrace::with_warps(2);
        for w in 0..2 {
            let base = (block_id as u64) << 14;
            let strided: Lanes<u64> = (0..32).map(|i| base + i * 64).collect();
            let coalesced: Lanes<u64> = (0..32).map(|i| base + i * 4).collect();
            let conflicted: Lanes<u32> = (0..32).map(|i| ((i % 2) * 128) as u32).collect();
            t.warps[w].push(WarpInstruction::Alu {
                count: 4,
                mask: u32::MAX,
            });
            t.warps[w].push(WarpInstruction::LoadGlobal {
                addrs: strided,
                width: 4,
                mask: u32::MAX,
            });
            t.warps[w].push(WarpInstruction::LoadShared {
                offsets: conflicted.clone(),
                width: 4,
                mask: u32::MAX,
            });
            t.warps[w].push(WarpInstruction::Barrier);
            t.warps[w].push(WarpInstruction::Branch {
                divergent: true,
                mask: u32::MAX,
            });
            t.warps[w].push(WarpInstruction::StoreShared {
                offsets: conflicted,
                width: 4,
                mask: 0xFFFF,
            });
            t.warps[w].push(WarpInstruction::Sfu { mask: u32::MAX });
            t.warps[w].push(WarpInstruction::StoreGlobal {
                addrs: coalesced,
                width: 4,
                mask: u32::MAX,
            });
        }
        t
    }
}

fn arb_arch() -> impl Strategy<Value = GpuArchitecture> {
    prop_oneof![
        Just(GpuArchitecture::Fermi),
        Just(GpuArchitecture::Kepler),
        Just(GpuArchitecture::Maxwell),
        Just(GpuArchitecture::Pascal),
        Just(GpuArchitecture::Volta),
    ]
}

/// An arbitrary-but-valid configuration: every field inside its own
/// bounds, resource limits consistent enough for real occupancy
/// calculations (warps × warp_size ≤ threads the register file can feed).
fn arb_gpu() -> impl Strategy<Value = GpuConfig> {
    (
        arb_arch(),
        1usize..=96,                                                          // num_sms
        prop_oneof![Just(32usize), Just(48), Just(64), Just(128), Just(192)], // cores_per_sm
        1usize..=4,                                                           // warp_schedulers
        1usize..=2,                           // dispatch_per_scheduler
        prop_oneof![Just(16usize), Just(32)], // shared_banks
        prop_oneof![Just(4usize), Just(8)],   // bank_width
        (
            prop_oneof![Just(16384usize), Just(24576), Just(32768), Just(49152)], // l1_size
            prop_oneof![Just(64usize), Just(128)],                                // l1_line
            prop_oneof![Just(4usize), Just(6), Just(8)],                          // l1_assoc
            any::<bool>(), // l1_caches_globals
            any::<bool>(), // l1_sectored
        ),
        (
            prop_oneof![
                Just(393216usize),
                Just(786432),
                Just(1572864),
                Just(4194304),
                Just(6291456)
            ], // l2_size
            prop_oneof![Just(8usize), Just(16)], // l2_assoc
        ),
        (0.5f64..2.0, 50.0f64..1000.0), // clock_ghz, mem_bandwidth_gbps
    )
        .prop_map(
            |(
                arch,
                num_sms,
                cores_per_sm,
                warp_schedulers,
                dispatch_per_scheduler,
                shared_banks,
                bank_width,
                (l1_size, l1_line, l1_assoc, l1_caches_globals, l1_sectored),
                (l2_size, l2_assoc),
                (clock_ghz, mem_bandwidth_gbps),
            )| {
                GpuConfig {
                    name: "zoo-prop".to_string(),
                    arch,
                    num_sms,
                    cores_per_sm,
                    warp_schedulers,
                    dispatch_per_scheduler,
                    clock_ghz,
                    mem_bandwidth_gbps,
                    warp_size: 32,
                    max_warps_per_sm: 48,
                    max_blocks_per_sm: 16,
                    max_threads_per_block: 1024,
                    registers_per_sm: 65536,
                    max_registers_per_thread: 255,
                    shared_mem_per_sm: 49152,
                    shared_banks,
                    bank_width,
                    l1_size,
                    l1_line,
                    l1_assoc,
                    l1_caches_globals,
                    l1_sectored,
                    l2_size,
                    l2_line: 128,
                    l2_assoc,
                    alu_latency: 6,
                    sfu_latency: 14,
                    smem_latency: 24,
                    l1_latency: 28,
                    l2_latency: 200,
                    dram_latency: 400,
                    alu_throughput: (cores_per_sm / 32).max(1) as f64,
                    ldst_units: 1.0,
                    sfu_throughput: 1.0,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid configuration simulates any grid without panicking, and
    /// the result is physically sane: positive time, finite counters.
    #[test]
    fn simulation_never_panics_and_stays_finite(
        gpu in arb_gpu(),
        grid_blocks in 1usize..512,
    ) {
        let kernel = MixedKernel { grid_blocks };
        let r = simulate_launch(&gpu, &kernel).unwrap();
        prop_assert!(r.time_seconds > 0.0 && r.time_seconds.is_finite());
        prop_assert!(r.events.inst_issued > 0.0);
        prop_assert!(r.events.issue_slots > 0.0 && r.events.issue_slots.is_finite());
        for (name, v) in [
            ("inst_executed", r.events.inst_executed),
            ("l2_read_transactions", r.events.l2_read_transactions),
            ("dram_read_transactions", r.events.dram_read_transactions),
            ("shared_load_replay", r.events.shared_load_replay),
        ] {
            prop_assert!(v.is_finite() && v >= 0.0, "{} = {}", name, v);
        }
    }

    /// The profiler's counter set matches the availability mask exactly,
    /// for every architecture the configuration may claim: the mask is
    /// what `collect` sees, so this is the end-to-end guarantee that
    /// models never train on counters the hardware cannot produce.
    #[test]
    fn profiled_counters_match_the_availability_mask(gpu in arb_gpu()) {
        let run = profile_kernel(&gpu, &MixedKernel { grid_blocks: 8 }).unwrap();
        let mut got: Vec<&str> = run.counters.names();
        let mut expect = counters_for(gpu.arch);
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect, "counter set diverges from mask on {}", gpu.arch.name());
    }

    /// Every simulation-relevant field perturbs the fingerprint — the
    /// memoization key embeds it, so two configurations differing in any
    /// of these fields can never alias each other's cached results.
    #[test]
    fn fingerprint_is_sensitive_to_every_relevant_field(gpu in arb_gpu()) {
        let base = gpu.fingerprint();
        prop_assert_eq!(base, gpu.clone().fingerprint(), "fingerprint must be stable");
        let mutations: Vec<(&str, GpuConfig)> = vec![
            ("num_sms", GpuConfig { num_sms: gpu.num_sms + 1, ..gpu.clone() }),
            ("cores_per_sm", GpuConfig { cores_per_sm: gpu.cores_per_sm + 32, ..gpu.clone() }),
            ("warp_schedulers", GpuConfig { warp_schedulers: gpu.warp_schedulers + 1, ..gpu.clone() }),
            ("dispatch_per_scheduler", GpuConfig { dispatch_per_scheduler: 3 - gpu.dispatch_per_scheduler, ..gpu.clone() }),
            ("clock_ghz", GpuConfig { clock_ghz: gpu.clock_ghz * 1.5, ..gpu.clone() }),
            ("mem_bandwidth_gbps", GpuConfig { mem_bandwidth_gbps: gpu.mem_bandwidth_gbps + 1.0, ..gpu.clone() }),
            ("shared_banks", GpuConfig { shared_banks: 48 - gpu.shared_banks, ..gpu.clone() }),
            ("bank_width", GpuConfig { bank_width: 12 - gpu.bank_width, ..gpu.clone() }),
            ("l1_size", GpuConfig { l1_size: gpu.l1_size + 1024, ..gpu.clone() }),
            ("l1_line", GpuConfig { l1_line: gpu.l1_line * 2, ..gpu.clone() }),
            ("l1_assoc", GpuConfig { l1_assoc: gpu.l1_assoc + 1, ..gpu.clone() }),
            ("l1_caches_globals", GpuConfig { l1_caches_globals: !gpu.l1_caches_globals, ..gpu.clone() }),
            ("l1_sectored", GpuConfig { l1_sectored: !gpu.l1_sectored, ..gpu.clone() }),
            ("l2_size", GpuConfig { l2_size: gpu.l2_size + gpu.l2_line, ..gpu.clone() }),
            ("l2_assoc", GpuConfig { l2_assoc: gpu.l2_assoc + 1, ..gpu.clone() }),
            ("alu_latency", GpuConfig { alu_latency: gpu.alu_latency + 1, ..gpu.clone() }),
            ("dram_latency", GpuConfig { dram_latency: gpu.dram_latency + 1, ..gpu.clone() }),
            ("alu_throughput", GpuConfig { alu_throughput: gpu.alu_throughput + 0.5, ..gpu.clone() }),
        ];
        for (field, mutated) in mutations {
            prop_assert!(
                base != mutated.fingerprint(),
                "fingerprint blind to {}", field
            );
        }
    }
}

/// Two configurations that differ in a single fingerprint-relevant field
/// sharing one `SimCache` never serve each other's results: the second
/// simulation is a miss, and the per-config results differ where the
/// hardware says they must.
#[test]
fn sim_cache_never_aliases_across_differing_configs() {
    let kernel = MixedKernel { grid_blocks: 16 };
    let a = GpuConfig::gtx1080();
    // Same card with the L1 switched from sectored to line-tagged — the
    // kind of near-identical pair most likely to collide.
    let b = GpuConfig {
        l1_sectored: false,
        ..a.clone()
    };
    let cache = SimCache::new();
    let ra = simulate_launch_cached(&a, a.fingerprint(), &kernel, None, Some(&cache)).unwrap();
    assert_eq!(cache.stats().misses, 1);
    let rb = simulate_launch_cached(&b, b.fingerprint(), &kernel, None, Some(&cache)).unwrap();
    assert_eq!(
        cache.stats().misses,
        2,
        "config b must not hit config a's entry"
    );
    assert_eq!(cache.stats().hits, 0);
    // And the physics genuinely differ: a line-tagged L1 refills 4 sectors
    // per miss where the sectored L1 refills 1.
    assert!(
        rb.events.l2_read_transactions > ra.events.l2_read_transactions,
        "line-tagged refill must move more L2 sectors ({} vs {})",
        rb.events.l2_read_transactions,
        ra.events.l2_read_transactions
    );
    // Replaying either config is a pure hit.
    let ra2 = simulate_launch_cached(&a, a.fingerprint(), &kernel, None, Some(&cache)).unwrap();
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(ra.time_seconds.to_bits(), ra2.time_seconds.to_bits());
}
