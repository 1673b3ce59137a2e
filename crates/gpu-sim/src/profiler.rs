//! The nvprof stand-in: derives named metrics from raw events.
//!
//! `nvprof` turns PM-unit event counts into the metrics of the paper's
//! Table 1; this module does the same for simulated launches. Counter
//! availability honours the architecture (see [`crate::counters`]), which is
//! what breaks naive hardware scaling in the paper's §6.2 — e.g. Fermi's
//! `l1_shared_bank_conflict` simply does not exist on Kepler.

use crate::arch::GpuConfig;
use crate::counters::{counters_for, CounterSet, RawEvents};
use crate::engine::{simulate_launch, LaunchResult};
use crate::memo::{self, SimCache};
use crate::power::{estimate_power, PowerModel};
use crate::trace::KernelTrace;
use crate::Result;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One profiled run: elapsed time plus a full counter set, the simulator's
/// equivalent of one `nvprof` invocation (plus the power sample the paper's
/// §7 suggests reading from the system management interface).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfiledRun {
    /// Kernel or application name.
    pub kernel: String,
    /// GPU name.
    pub gpu: String,
    /// Elapsed time in milliseconds (the paper's response variable).
    pub time_ms: f64,
    /// Average power draw in watts (the §7 alternative response).
    pub avg_power_w: f64,
    /// All counters available on this GPU.
    pub counters: CounterSet,
}

/// Derives the full per-architecture counter set from accumulated raw events.
pub fn derive_counters(gpu: &GpuConfig, ev: &RawEvents) -> CounterSet {
    let mut cs = CounterSet::new();
    let time = ev.time_seconds.max(1e-12);
    let elapsed_per_sm = ev.elapsed_cycles.max(1.0);
    let sms = gpu.num_sms as f64;
    let inst_exec = ev.inst_executed.max(1.0);
    let shared_replays = ev.shared_load_replay + ev.shared_store_replay;
    // Transaction size for global loads: the L1 line on line-tagged Fermi,
    // one 32-byte sector on every other path.
    let line_bytes = gpu.load_segment_bytes() as f64;
    let gbps = |bytes: f64| bytes / time / 1e9;

    for name in counters_for(gpu.arch) {
        let value = match name {
            "shared_replay_overhead" => shared_replays / inst_exec,
            "shared_load" => ev.shared_load,
            "shared_store" => ev.shared_store,
            "inst_replay_overhead" => (ev.inst_issued - ev.inst_executed).max(0.0) / inst_exec,
            "l1_global_load_hit" => ev.l1_global_load_hit,
            "l1_global_load_miss" => ev.l1_global_load_miss,
            "l1_shared_bank_conflict" => shared_replays,
            "shared_load_replay" => ev.shared_load_replay,
            "shared_store_replay" => ev.shared_store_replay,
            // Maxwell-era spelling of the same bank-conflict events.
            "shared_ld_bank_conflict" => ev.shared_load_replay,
            "shared_st_bank_conflict" => ev.shared_store_replay,
            "global_hit_rate" => {
                let looked_up = ev.l1_global_load_hit + ev.l1_global_load_miss;
                if looked_up > 0.0 {
                    ev.l1_global_load_hit / looked_up * 100.0
                } else {
                    0.0
                }
            }
            "gld_request" => ev.gld_request,
            "gst_request" => ev.gst_request,
            "global_load_transaction" => ev.global_load_transactions,
            "global_store_transaction" => ev.global_store_transactions,
            "gld_requested_throughput" => gbps(ev.gld_requested_bytes),
            "gst_requested_throughput" => gbps(ev.gst_requested_bytes),
            "gld_throughput" => gbps(ev.global_load_transactions * line_bytes),
            "gst_throughput" => gbps(ev.l2_write_transactions * 32.0),
            "achieved_occupancy" => (ev.active_warp_cycles
                / (elapsed_per_sm * sms * gpu.max_warps_per_sm as f64))
                .min(1.0),
            "l2_read_transactions" => ev.l2_read_transactions,
            "l2_write_transactions" => ev.l2_write_transactions,
            "l2_read_throughput" => gbps(ev.l2_read_transactions * 32.0),
            "l2_write_throughput" => gbps(ev.l2_write_transactions * 32.0),
            "dram_read_transactions" => ev.dram_read_transactions,
            "dram_write_transactions" => ev.dram_write_transactions,
            "ipc" => ev.inst_executed / (elapsed_per_sm * sms),
            "issue_slot_utilization" => {
                (ev.inst_issued / (elapsed_per_sm * sms * gpu.issue_width() as f64)).min(1.0)
                    * 100.0
            }
            "warp_execution_efficiency" => {
                (ev.thread_inst_executed / (inst_exec * gpu.warp_size as f64)).min(1.0) * 100.0
            }
            "inst_executed" => ev.inst_executed,
            "inst_issued" => ev.inst_issued,
            "branch" => ev.branch,
            "divergent_branch" => ev.divergent_branch,
            "ldst_fu_utilization" => (ev.ldst_busy_cycles / (elapsed_per_sm * sms)).min(1.0) * 10.0,
            other => unreachable!("counter {other} missing a derivation"),
        };
        cs.set(name, value);
    }
    cs
}

impl ProfiledRun {
    /// The profiled run of a launch or application whose raw events are
    /// `ev`: its time, its estimated power and its derived counters.
    fn from_events(gpu: &GpuConfig, kernel: &str, ev: &RawEvents) -> ProfiledRun {
        let power = estimate_power(gpu, ev, &PowerModel::for_arch(gpu.arch));
        ProfiledRun {
            kernel: kernel.to_string(),
            gpu: gpu.name.clone(),
            time_ms: ev.time_seconds * 1e3,
            avg_power_w: power.average_w,
            counters: derive_counters(gpu, ev),
        }
    }
}

/// Profiles a single kernel launch (one simulated `nvprof` run).
pub fn profile_kernel(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<ProfiledRun> {
    let r = simulate_launch(gpu, kernel)?;
    Ok(ProfiledRun::from_events(gpu, &kernel.name(), &r.events))
}

/// Profiles a batch of applications as one flat, launch-level parallel job:
/// simulates every launch, accumulates each application's raw events and
/// time, then derives one counter set per application — how the paper
/// aggregates NW's two kernels and the reduction's passes.
///
/// This is the one parallel launch loop. Every launch of every application
/// goes into a single scheduler queue, so small applications no longer
/// finish instantly while a single 1000-launch job serialises on one
/// thread (thread count follows `RAYON_NUM_THREADS`). Results come back in
/// issue order and each application's events accumulate strictly in that
/// order, making the output bit-identical to profiling each application
/// sequentially. `cache` (usually one per sweep, see [`SimCache::from_env`])
/// lets structurally identical launches from *different* applications
/// share simulations — multi-pass reductions funnelling into the same tail
/// passes, stencil sweeps repeating the same grid; cached replay is
/// bit-identical by purity. `None` simulates every launch.
pub fn profile_applications(
    gpu: &GpuConfig,
    apps: &[(&str, &[Box<dyn KernelTrace>])],
    cache: Option<&SimCache>,
) -> Result<Vec<ProfiledRun>> {
    let flat: Vec<(usize, &dyn KernelTrace)> = apps
        .iter()
        .flat_map(|(_, launches)| launches.iter().enumerate().map(|(i, k)| (i, k.as_ref())))
        .collect();
    let batch = bf_trace::span!(
        "profile_applications",
        apps = apps.len(),
        launches = flat.len()
    );
    let batch_id = batch.id();
    // The GPU configuration is constant across the batch: fingerprint it
    // once here instead of once per launch inside the memo key.
    let cache = cache.map(|c| (c, gpu.fingerprint()));
    let results: Vec<LaunchResult> = flat
        .into_par_iter()
        .map(|(i, k)| {
            // Workers parent their per-launch spans back to the batch span
            // on the issuing thread, not to whatever ran last on the worker.
            bf_trace::with_parent(batch_id, || {
                let _launch = bf_trace::span!("launch", kernel = k.name(), index = i);
                match cache {
                    Some((c, gpu_fp)) => memo::simulate_launch_cached(gpu, gpu_fp, k, c),
                    None => simulate_launch(gpu, k),
                }
                // A bad launch config or malformed trace (mismatched
                // barriers) surfaces here with the kernel named, instead of
                // an anonymous message from deep inside the batch.
                .map_err(|e| e.in_kernel(&k.name(), i))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut results = results.iter();
    let runs = apps.iter().map(|(name, launches)| {
        let mut total = RawEvents::default();
        for r in results.by_ref().take(launches.len()) {
            total.accumulate(&r.events);
        }
        ProfiledRun::from_events(gpu, name, &total)
    });
    Ok(runs.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BlockTrace, LaunchConfig, WarpInstruction, FULL_MASK};

    struct Mini {
        conflict: bool,
    }

    impl KernelTrace for Mini {
        fn name(&self) -> String {
            "mini".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: 64,
                threads_per_block: 128,
                regs_per_thread: 16,
                shared_mem_per_block: 4096,
            }
        }

        fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
            let warps = 128 / gpu.warp_size;
            let mut t = BlockTrace::with_warps(warps);
            for (w, stream) in t.warps.iter_mut().enumerate() {
                let base = (block_id * warps + w) as u64 * 128;
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: (0..32).map(|i| base + i * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                });
                let stride = if self.conflict { 8 } else { 4 };
                stream.push(WarpInstruction::LoadShared {
                    offsets: (0..32).map(|i| i * stride).collect(),
                    width: 4,
                    mask: FULL_MASK,
                });
                stream.push(WarpInstruction::Alu {
                    count: 4,
                    mask: FULL_MASK,
                });
                stream.push(WarpInstruction::Barrier);
                stream.push(WarpInstruction::StoreGlobal {
                    addrs: (0..32).map(|i| (1 << 22) + base + i * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                });
            }
            t
        }
    }

    #[test]
    fn profile_emits_all_arch_counters() {
        let gpu = GpuConfig::gtx580();
        let run = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        for name in counters_for(gpu.arch) {
            assert!(run.counters.contains(name), "missing {name}");
        }
        assert!(run.time_ms > 0.0);
    }

    #[test]
    fn kepler_profile_has_no_fermi_counters() {
        let gpu = GpuConfig::k20m();
        let run = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        assert!(!run.counters.contains("l1_global_load_hit"));
        assert!(!run.counters.contains("l1_shared_bank_conflict"));
        assert!(run.counters.contains("shared_load_replay"));
    }

    #[test]
    fn conflicting_kernel_shows_shared_replay_overhead() {
        let gpu = GpuConfig::gtx580();
        let clean = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        let bad = profile_kernel(&gpu, &Mini { conflict: true }).unwrap();
        assert_eq!(clean.counters.get("shared_replay_overhead"), Some(0.0));
        assert!(bad.counters.get("shared_replay_overhead").unwrap() > 0.0);
        assert!(
            bad.counters.get("inst_replay_overhead").unwrap()
                >= bad.counters.get("shared_replay_overhead").unwrap()
        );
    }

    #[test]
    fn occupancy_and_efficiency_are_fractions() {
        let gpu = GpuConfig::gtx580();
        let run = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        let occ = run.counters.get("achieved_occupancy").unwrap();
        assert!((0.0..=1.0).contains(&occ));
        let wee = run.counters.get("warp_execution_efficiency").unwrap();
        assert!((0.0..=100.0).contains(&wee));
        let isu = run.counters.get("issue_slot_utilization").unwrap();
        assert!((0.0..=100.0).contains(&isu));
    }

    #[test]
    fn throughputs_are_consistent() {
        let gpu = GpuConfig::gtx580();
        let run = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        // Requested <= achieved for perfectly coalesced 4-byte loads, the
        // two should be equal (128 requested bytes per 128-byte line).
        let req = run.counters.get("gld_requested_throughput").unwrap();
        let ach = run.counters.get("gld_throughput").unwrap();
        assert!((req - ach).abs() / ach.max(1e-12) < 1e-9);
    }

    /// A kernel whose trace deadlocks: warp 0 hits a barrier no other warp
    /// ever reaches.
    struct Malformed;

    impl KernelTrace for Malformed {
        fn name(&self) -> String {
            "deadlock".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: 8,
                threads_per_block: 64,
                regs_per_thread: 16,
                shared_mem_per_block: 0,
            }
        }

        fn block_trace(&self, _block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
            let mut t = BlockTrace::with_warps(2);
            t.warps[0].push(WarpInstruction::Barrier);
            t
        }
    }

    #[test]
    fn malformed_trace_fails_with_kernel_named() {
        let gpu = GpuConfig::gtx580();
        let launches: Vec<Box<dyn KernelTrace>> =
            vec![Box::new(Mini { conflict: false }), Box::new(Malformed)];
        let apps: [(&str, &[Box<dyn KernelTrace>]); 1] = [("bad_app", &launches)];
        let err = profile_applications(&gpu, &apps, None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "error lacks kernel name: {msg}");
        assert!(msg.contains("launch 1"), "error lacks launch index: {msg}");
        assert!(msg.contains("barrier"), "error lacks the cause: {msg}");

        // The memoized path annotates identically.
        let err = profile_applications(&gpu, &apps, Some(&SimCache::new())).unwrap_err();
        assert_eq!(err.to_string(), msg);
    }

    #[test]
    fn application_profile_accumulates_launches() {
        let gpu = GpuConfig::gtx580();
        let single = profile_kernel(&gpu, &Mini { conflict: false }).unwrap();
        let launches: Vec<Box<dyn KernelTrace>> = vec![
            Box::new(Mini { conflict: false }),
            Box::new(Mini { conflict: false }),
        ];
        let apps: [(&str, &[Box<dyn KernelTrace>]); 1] = [("mini_x2", &launches)];
        let app = profile_applications(&gpu, &apps, None).unwrap().remove(0);
        let s = single.counters.get("gld_request").unwrap();
        let a = app.counters.get("gld_request").unwrap();
        assert!((a - 2.0 * s).abs() < 1e-6);
        assert!(app.time_ms > single.time_ms * 1.5);
    }
}
