//! Loop-extrapolation accuracy, gated by the differential oracle.
//!
//! Steady-state extrapolation ([`gpu_sim::steady`]) replaces the tail of
//! highly periodic warp streams with a closed-form scale-up. The static
//! walk knows nothing about that shortcut — it derives every counter from
//! the full trace — so running the oracle against an *extrapolating*
//! simulation proves the shortcut is counter-exact on the real workloads:
//! every statically checkable counter within `REL_TOLERANCE` (1e-9),
//! occupancy exact, over reduce0..6, NW, and the stencil, on both GPU
//! generations.
//!
//! Both engine modes are pinned explicitly (options passed directly), so a
//! regression in either the extrapolation rule or its stabilisation guard
//! fails here whatever the default engine options are.

use bf_analyze::oracle::compare;
use bf_analyze::walk::analyze_launch;
use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{
    simulate_sampled_launch_with, EngineOptions, GpuConfig, LaunchResult, SampledLaunch,
};

fn gpus() -> Vec<GpuConfig> {
    vec![GpuConfig::gtx580(), GpuConfig::k20m()]
}

/// Simulates one launch with explicit engine options (mirrors
/// `simulate_launch` but does not consult the environment).
fn simulate_with(
    gpu: &GpuConfig,
    kernel: &dyn gpu_sim::KernelTrace,
    loop_extrapolation: bool,
) -> LaunchResult {
    let sampled = SampledLaunch::new(gpu, kernel).unwrap();
    simulate_sampled_launch_with(gpu, &sampled, &EngineOptions { loop_extrapolation })
}

fn assert_oracle_green(gpu: &GpuConfig, app: &Application, loop_extrapolation: bool) {
    for (i, kernel) in app.launches.iter().enumerate() {
        let a = analyze_launch(gpu, kernel.as_ref()).unwrap();
        let d = simulate_with(gpu, kernel.as_ref(), loop_extrapolation);
        let report = compare(&a, &d, i);
        assert!(
            report.occupancy_ok,
            "{} launch {i} ({}) on {}: occupancy mismatch (extrapolation={loop_extrapolation})",
            app.name, report.kernel, gpu.name
        );
        if let Some(c) = report.failures().into_iter().next() {
            panic!(
                "{} launch {i} ({}) on {} with extrapolation={loop_extrapolation}: \
                 {} diverged — static {} vs dynamic {} (rel {:.3e})",
                app.name,
                report.kernel,
                gpu.name,
                c.counter,
                c.static_value,
                c.dynamic_value,
                c.rel_error
            );
        }
    }
}

fn apps() -> Vec<Application> {
    let mut apps: Vec<Application> = ReduceVariant::ALL
        .iter()
        .map(|&v| reduce_application(v, 1 << 16, 256))
        .collect();
    apps.push(nw_application(256, 10));
    apps.push(stencil_application(128, 2));
    apps
}

#[test]
fn extrapolating_engine_stays_oracle_exact_on_all_workloads() {
    for gpu in gpus() {
        for app in apps() {
            assert_oracle_green(&gpu, &app, true);
        }
    }
}

#[test]
fn full_simulation_stays_oracle_exact_on_all_workloads() {
    for gpu in gpus() {
        for app in apps() {
            assert_oracle_green(&gpu, &app, false);
        }
    }
}

/// The two modes must also agree with *each other* on the statically exact
/// counters — extrapolation changes how much is simulated, never what is
/// counted.
#[test]
fn extrapolated_and_full_counters_agree_directly() {
    for gpu in gpus() {
        for app in apps() {
            for kernel in &app.launches {
                let full = simulate_with(&gpu, kernel.as_ref(), false);
                let extr = simulate_with(&gpu, kernel.as_ref(), true);
                let a = analyze_launch(&gpu, kernel.as_ref()).unwrap();
                // Reuse the oracle's counter list by comparing both dynamic
                // runs against the same static analysis: if both are green,
                // they agree pairwise within 2e-9.
                assert!(!compare(&a, &full, 0).divergent());
                assert!(!compare(&a, &extr, 0).divergent());
                assert_eq!(full.waves, extr.waves, "{}", kernel.name());
                assert_eq!(full.sampled_blocks, extr.sampled_blocks);
            }
        }
    }
}
