//! Launch-level simulation: block sampling, wave execution, and the DRAM
//! bandwidth bound.
//!
//! A kernel launch executes in *waves*: each wave fills every SM with its
//! resident-block quota. The engine simulates one representative resident set
//! in cycle detail ([`crate::soa`]), then:
//!
//! * wave time = max(SM compute/latency time, wave DRAM bytes / bandwidth) —
//!   the classic roofline coupling that makes the reduction kernels
//!   bandwidth-bound at large sizes;
//! * launch time = wave time x effective waves + launch overhead;
//! * raw event counts scale by `grid_blocks / sampled_blocks`.
//!
//! Sampled block ids are spread evenly across the grid so address-dependent
//! behaviour (cache sets, alignment) is representative.

use crate::arch::GpuConfig;
use crate::cache::Cache;
use crate::counters::RawEvents;
use crate::occupancy::{occupancy, Occupancy};
use crate::trace::{BlockTrace, KernelTrace, LaunchConfig};
use crate::{soa, steady, Result};

/// Fixed kernel-launch overhead (driver + dispatch), in seconds. Matters for
/// applications issuing many small launches (multi-pass reduction, NW's
/// per-diagonal kernels).
pub const LAUNCH_OVERHEAD_S: f64 = 3.5e-6;

/// Result of simulating one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    /// Elapsed time of the launch in seconds (including launch overhead).
    pub time_seconds: f64,
    /// Raw events scaled to the full grid.
    pub events: RawEvents,
    /// Occupancy achieved by the launch.
    pub occupancy: Occupancy,
    /// Number of full waves (ceil).
    pub waves: usize,
    /// Blocks simulated in detail.
    pub sampled_blocks: usize,
}

/// Picks `count` representative block ids spread across `grid` blocks.
/// An empty grid has no blocks to sample, so it yields no ids (rather than a
/// phantom block 0 that no kernel ever launched).
fn sample_block_ids(grid: usize, count: usize) -> Vec<usize> {
    if grid == 0 {
        return Vec::new();
    }
    let count = count.min(grid).max(1);
    let mut ids: Vec<usize> = (0..count).map(|k| k * grid / count).collect();
    ids.dedup();
    ids
}

/// Engine tuning knobs, resolved once per launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Steady-state loop extrapolation (see [`crate::steady`]): highly
    /// periodic warp streams simulate a few representative iterations and
    /// extrapolate the tail. Exact for the statically derived counters;
    /// makespan agreement is guarded by delta stabilisation.
    pub loop_extrapolation: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            loop_extrapolation: true,
        }
    }
}

/// The cold cache state every launch simulation starts from: fresh L1 plus
/// this SM's 1/num_sms slice of the shared L2 (standard approximation for
/// single-SM sampling).
fn fresh_caches(gpu: &GpuConfig) -> (Cache, Cache) {
    let l2_slice = (gpu.l2_size / gpu.num_sms).max(gpu.l2_line * gpu.l2_assoc);
    (
        // Sector-tagged L1s (Pascal/Volta) track 32-byte sectors in their
        // tag store; line-tagged L1s track whole lines.
        Cache::new(gpu.l1_size, gpu.l1_tag_line(), gpu.l1_assoc),
        Cache::new(l2_slice, gpu.l2_line.max(32), gpu.l2_assoc),
    )
}

/// One launch's representative blocks: its geometry and occupancy, the
/// sampled block ids, and their traces.
#[derive(Debug, Clone)]
pub struct SampledBlocks {
    /// The launch configuration.
    pub launch: LaunchConfig,
    /// Theoretical occupancy of `launch` on the GPU.
    pub occupancy: Occupancy,
    /// The sampled block ids, in simulation order.
    pub ids: Vec<usize>,
    /// The trace of each id in `ids`.
    pub traces: Vec<BlockTrace>,
}

/// The block sampler every path from a launch to its counters shares: one
/// resident set's worth of block ids (`sample_block_ids` with the
/// occupancy-derived resident count) and their traces. The engine, the
/// memo's miss path and the static walk all sample through here, so they
/// always see the same blocks.
pub fn sample_blocks(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<SampledBlocks> {
    let _span = bf_trace::span!("sample_blocks");
    let launch = kernel.launch_config();
    let occupancy = occupancy(gpu, &launch)?;
    let ids = sample_block_ids(launch.grid_blocks, occupancy.blocks_per_sm);
    let traces = ids.iter().map(|&b| kernel.block_trace(b, gpu)).collect();
    Ok(SampledBlocks {
        launch,
        occupancy,
        ids,
        traces,
    })
}

/// Simulates one kernel launch on the GPU.
pub fn simulate_launch(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<LaunchResult> {
    simulate_sampled_launch_with(gpu, &sample_blocks(gpu, kernel)?, &EngineOptions::default())
}

/// Simulates a launch from its sampled blocks ([`sample_blocks`]) with
/// explicit [`EngineOptions`]. The memoization layer ([`crate::memo`])
/// calls this after hashing the traces, so a cache miss does not rebuild
/// them; tests pass options directly instead of racing on environment
/// variables.
pub fn simulate_sampled_launch_with(
    gpu: &GpuConfig,
    sampled: &SampledBlocks,
    opts: &EngineOptions,
) -> Result<LaunchResult> {
    let SampledBlocks {
        launch: lc,
        occupancy: occ,
        traces,
        ..
    } = sampled;
    let blocks_per_wave = occ.blocks_per_sm * gpu.num_sms;
    let waves = lc.grid_blocks.div_ceil(blocks_per_wave);

    // Detailed simulation of one SM's resident set, through the SoA batch
    // engine; sufficiently periodic sets short-circuit through steady-state
    // extrapolation instead of simulating every iteration.
    let extrapolated = if opts.loop_extrapolation {
        steady::try_extrapolate(gpu, traces, || fresh_caches(gpu))
    } else {
        None
    };
    let sm = match extrapolated {
        Some(sm) => sm,
        None => {
            let (mut l1, mut l2) = fresh_caches(gpu);
            soa::simulate_resident_set(gpu, traces, &mut l1, &mut l2)?
        }
    };

    // Wave timing: compute/latency vs bandwidth.
    let sm_seconds = sm.cycles / (gpu.clock_ghz * 1e9);
    let wave_dram_bytes = sm.dram_bytes * gpu.num_sms as f64;
    let bw_seconds = wave_dram_bytes / (gpu.mem_bandwidth_gbps * 1e9);
    let wave_seconds = sm_seconds.max(bw_seconds);
    let effective_waves = (lc.grid_blocks as f64 / blocks_per_wave as f64).max(1.0);
    let time_seconds = wave_seconds * effective_waves + LAUNCH_OVERHEAD_S;

    // Scale events to the full grid.
    let factor = lc.grid_blocks as f64 / traces.len() as f64;
    let mut events = sm.events.scaled_counts(factor);
    let elapsed_cycles = time_seconds * gpu.clock_ghz * 1e9;
    events.elapsed_cycles = elapsed_cycles;
    events.active_cycles = elapsed_cycles;
    events.issue_slots = elapsed_cycles * gpu.issue_width() as f64;
    events.time_seconds = time_seconds;

    Ok(LaunchResult {
        time_seconds,
        events,
        occupancy: *occ,
        waves,
        sampled_blocks: traces.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LaunchConfig, WarpInstruction, FULL_MASK};

    /// A synthetic homogeneous kernel: each block's warps stream `loads`
    /// coalesced loads and `alus` ALU bursts over a private address range.
    struct Synthetic {
        blocks: usize,
        threads: usize,
        loads: usize,
        alus: u32,
        array_bytes: u64,
    }

    impl KernelTrace for Synthetic {
        fn name(&self) -> String {
            "synthetic".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: self.blocks,
                threads_per_block: self.threads,
                regs_per_thread: 16,
                shared_mem_per_block: 0,
            }
        }

        fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
            let warps = self.threads.div_ceil(gpu.warp_size);
            let mut t = BlockTrace::with_warps(warps);
            for (w, stream) in t.warps.iter_mut().enumerate() {
                for l in 0..self.loads {
                    let base =
                        ((block_id * warps + w) * self.loads + l) as u64 * 128 % self.array_bytes;
                    stream.push(WarpInstruction::LoadGlobal {
                        addrs: (0..32).map(|i| base + i * 4).collect(),
                        width: 4,
                        mask: FULL_MASK,
                    });
                }
                if self.alus > 0 {
                    stream.push(WarpInstruction::Alu {
                        count: self.alus,
                        mask: FULL_MASK,
                    });
                }
            }
            t
        }
    }

    #[test]
    fn more_blocks_take_more_time() {
        let gpu = GpuConfig::gtx580();
        let small = Synthetic {
            blocks: 96,
            threads: 256,
            loads: 8,
            alus: 16,
            array_bytes: 1 << 24,
        };
        let large = Synthetic {
            blocks: 960,
            threads: 256,
            loads: 8,
            alus: 16,
            array_bytes: 1 << 24,
        };
        let rs = simulate_launch(&gpu, &small).unwrap();
        let rl = simulate_launch(&gpu, &large).unwrap();
        // 10x the blocks -> 10x the waves; launch overhead compresses the
        // observable ratio somewhat.
        assert!(rl.time_seconds > rs.time_seconds * 4.0);
    }

    #[test]
    fn events_scale_with_grid() {
        let gpu = GpuConfig::gtx580();
        let k = Synthetic {
            blocks: 960,
            threads: 256,
            loads: 4,
            alus: 0,
            array_bytes: 1 << 24,
        };
        let r = simulate_launch(&gpu, &k).unwrap();
        // 960 blocks x 8 warps x 4 loads.
        assert!((r.events.gld_request - 960.0 * 8.0 * 4.0).abs() < 1e-6);
    }

    #[test]
    fn wave_count_matches_occupancy() {
        let gpu = GpuConfig::gtx580();
        let k = Synthetic {
            blocks: 960,
            threads: 256,
            loads: 1,
            alus: 1,
            array_bytes: 1 << 20,
        };
        let r = simulate_launch(&gpu, &k).unwrap();
        let expected_waves = 960usize.div_ceil(r.occupancy.blocks_per_sm * gpu.num_sms);
        assert_eq!(r.waves, expected_waves);
    }

    #[test]
    fn bandwidth_bound_workload_is_limited_by_dram() {
        let gpu = GpuConfig::gtx580();
        // Huge streaming loads, no compute: time should be close to
        // bytes / bandwidth.
        let blocks = 2048;
        let k = Synthetic {
            blocks,
            threads: 256,
            loads: 32,
            alus: 0,
            array_bytes: 1 << 30,
        };
        let r = simulate_launch(&gpu, &k).unwrap();
        let bytes = r.events.dram_read_transactions * 32.0;
        let bw_time = bytes / (gpu.mem_bandwidth_gbps * 1e9);
        assert!(
            r.time_seconds >= bw_time * 0.9,
            "time {} below bandwidth floor {}",
            r.time_seconds,
            bw_time
        );
    }

    #[test]
    fn sample_ids_spread_and_dedup() {
        assert_eq!(sample_block_ids(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(sample_block_ids(2, 8), vec![0, 1]);
        assert_eq!(sample_block_ids(1, 1), vec![0]);
    }

    #[test]
    fn empty_grid_samples_no_blocks() {
        assert!(sample_block_ids(0, 4).is_empty());
        assert!(sample_block_ids(0, 0).is_empty());
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let gpu = GpuConfig::gtx580();
        let k = Synthetic {
            blocks: 1,
            threads: 32,
            loads: 1,
            alus: 1,
            array_bytes: 4096,
        };
        let r = simulate_launch(&gpu, &k).unwrap();
        assert!(r.time_seconds >= LAUNCH_OVERHEAD_S);
    }

    #[test]
    fn kepler_and_fermi_produce_different_counter_profiles() {
        let fermi = GpuConfig::gtx580();
        let kepler = GpuConfig::k20m();
        let k = Synthetic {
            blocks: 208,
            threads: 256,
            loads: 8,
            alus: 8,
            array_bytes: 1 << 22,
        };
        let rf = simulate_launch(&fermi, &k).unwrap();
        let rk = simulate_launch(&kepler, &k).unwrap();
        assert!(rf.events.l1_global_load_miss > 0.0);
        assert_eq!(rk.events.l1_global_load_miss, 0.0);
        assert!(rk.events.l2_read_transactions > 0.0);
    }
}
