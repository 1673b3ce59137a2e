//! The differential oracle as an integration suite: static predictions must
//! match dynamic counters across the paper's workload sweeps, on every
//! architecture generation in the zoo, for every launch of every
//! application.
//!
//! The oracle is three-way. The static walk folds the engine's compiled
//! ops, so the walk and the engine share one compile stage; every launch is
//! therefore also run through the test-only reference interpreter
//! (`gpu-sim/tests/reference`), which re-derives coalescing and bank
//! conflicts from the traces on its own. Its statically exact counters,
//! scaled with the walk's single multiply, must equal the walk's bit for
//! bit.
//!
//! Tolerances (see `DESIGN.md`): occupancy exact; walk-vs-engine counters
//! within `REL_TOLERANCE` (float noise only). A failure here means the
//! static walk, the cycle engine or the reference disagree about the
//! machine's causal structure — i.e. somebody introduced a bug — and the
//! panic names the GPU *and its architecture* so a generation-specific
//! memory-path regression is immediately attributable.

#[path = "../../gpu-sim/tests/reference/mod.rs"]
mod reference;

use bf_analyze::oracle::{check_application, compare, OracleReport};
use bf_analyze::walk::analyze_launch;
use bf_kernels::matmul::matmul_application;
use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::cache::Cache;
use gpu_sim::counters::raw_event_field_names;
use gpu_sim::trace::KernelTrace;
use gpu_sim::{sample_blocks, simulate_launch, GpuConfig};

/// One GPU per architecture generation: Fermi, Kepler, Maxwell, Pascal,
/// Volta. Each generation exercises a different global-memory path
/// (line-tagged L1 / L1 bypass / sector-tagged L1), so agreement here
/// means the static walk models all three.
fn gpus() -> Vec<GpuConfig> {
    GpuConfig::arch_representatives()
}

/// The reference interpreter's raw events for one launch, by field name:
/// the blocks the walk samples, from cold caches, scaled to the grid with
/// the walk's single multiply.
fn reference_events(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Vec<(&'static str, f64)> {
    let sampled = sample_blocks(gpu, kernel).unwrap();
    let l2_slice = (gpu.l2_size / gpu.num_sms).max(gpu.l2_line * gpu.l2_assoc);
    let mut l1 = Cache::new(gpu.l1_size, gpu.l1_tag_line(), gpu.l1_assoc);
    let mut l2 = Cache::new(l2_slice, gpu.l2_line.max(32), gpu.l2_assoc);
    let r = reference::simulate_sm(gpu, &sampled.traces, &mut l1, &mut l2).unwrap();
    let scale = sampled.launch.grid_blocks as f64 / sampled.traces.len() as f64;
    let values = r.events.as_array().map(|v| v * scale);
    raw_event_field_names().into_iter().zip(values).collect()
}

fn assert_agrees(gpu: &GpuConfig, app: &Application) {
    let reports: Vec<OracleReport> = check_application(gpu, app)
        .unwrap_or_else(|e| panic!("{} on {} ({}): {e}", app.name, gpu.name, gpu.arch.name()));
    for r in &reports {
        let reference = reference_events(gpu, app.launches[r.launch].as_ref());
        for c in &r.checks {
            let (_, v) = reference.iter().find(|(n, _)| *n == c.counter).unwrap();
            assert!(
                c.static_value.to_bits() == v.to_bits(),
                "{} launch {} ({}) on {} ({}): {} — walk {} vs reference {v}",
                app.name,
                r.launch,
                r.kernel,
                gpu.name,
                gpu.arch.name(),
                c.counter,
                c.static_value
            );
        }
        assert!(
            r.occupancy_ok,
            "{} launch {} ({}): occupancy mismatch on {} ({})",
            app.name,
            r.launch,
            r.kernel,
            gpu.name,
            gpu.arch.name()
        );
        if let Some(c) = r.failures().into_iter().next() {
            panic!(
                "{} launch {} ({}) on {} ({}): {} diverged — static {} vs dynamic {} (rel {:.3e})",
                app.name,
                r.launch,
                r.kernel,
                gpu.name,
                gpu.arch.name(),
                c.counter,
                c.static_value,
                c.dynamic_value,
                c.rel_error
            );
        }
    }
}

#[test]
fn reduce_sweep_agrees_on_every_architecture() {
    // A representative slice of the paper's sweep (§5): every variant at one
    // size, plus the analysed variants (1, 2, 6) across sizes and block
    // sizes.
    for gpu in gpus() {
        for variant in ReduceVariant::ALL {
            assert_agrees(&gpu, &reduce_application(variant, 1 << 14, 128));
        }
        for variant in [
            ReduceVariant::Reduce1,
            ReduceVariant::Reduce2,
            ReduceVariant::Reduce6,
        ] {
            for n in [1 << 16, 1 << 18, 1 << 20] {
                for threads in [64, 128, 256, 512] {
                    assert_agrees(&gpu, &reduce_application(variant, n, threads));
                }
            }
        }
    }
}

#[test]
fn matmul_sweep_agrees_on_every_architecture() {
    for gpu in gpus() {
        for n in [32, 96, 256] {
            assert_agrees(&gpu, &matmul_application(n));
        }
    }
}

#[test]
fn nw_sweep_agrees_on_every_architecture() {
    for gpu in gpus() {
        for n in [64, 256, 1024, 2048] {
            assert_agrees(&gpu, &nw_application(n, 10));
        }
    }
}

#[test]
fn stencil_sweep_agrees_on_every_architecture() {
    for gpu in gpus() {
        for n in [64, 128, 256] {
            for sweeps in [1, 2] {
                assert_agrees(&gpu, &stencil_application(n, sweeps));
            }
        }
    }
}

/// Every zoo preset — not just the per-generation representatives — clears
/// the oracle on one kernel from each workload family. This is the cheap
/// tripwire that a newly added config (however exotic its geometry) is
/// internally consistent between the walk and the engine.
#[test]
fn whole_zoo_agrees_on_a_cross_workload_slice() {
    for gpu in GpuConfig::presets() {
        assert_agrees(
            &gpu,
            &reduce_application(ReduceVariant::Reduce1, 1 << 14, 256),
        );
        assert_agrees(&gpu, &matmul_application(64));
        assert_agrees(&gpu, &nw_application(128, 10));
        assert_agrees(&gpu, &stencil_application(64, 1));
    }
}

/// The oracle must have teeth: perturb genuine dynamic results one counter
/// at a time and check it flags exactly the counter that was broken.
#[test]
fn oracle_flags_each_injected_counter_bug() {
    let gpu = GpuConfig::gtx580();
    let app = reduce_application(ReduceVariant::Reduce1, 1 << 16, 256);
    let kernel = app.launches[0].as_ref();
    let a = analyze_launch(&gpu, kernel).unwrap();
    let clean = simulate_launch(&gpu, kernel).unwrap();
    assert!(
        !compare(&a, &clean, 0).divergent(),
        "baseline must be clean"
    );

    // (mutator, counter the oracle must blame)
    type Mutator = fn(&mut gpu_sim::RawEvents);
    let cases: Vec<(Mutator, &str)> = vec![
        (
            |ev| ev.global_load_transactions *= 0.9,
            "global_load_transactions",
        ),
        (|ev| ev.shared_load_replay += 1.0, "shared_load_replay"),
        (|ev| ev.inst_issued *= 1.01, "inst_issued"),
        (|ev| ev.gst_requested_bytes += 32.0, "gst_requested_bytes"),
        (
            |ev| ev.dram_write_transactions = 0.0,
            "dram_write_transactions",
        ),
    ];
    for (mutate, counter) in cases {
        let mut broken = clean.clone();
        mutate(&mut broken.events);
        let report = compare(&a, &broken, 0);
        assert!(report.divergent(), "oracle missed a broken {counter}");
        let blamed: Vec<&str> = report.failures().iter().map(|c| c.counter).collect();
        assert_eq!(blamed, vec![counter], "wrong counter blamed");
    }
}

/// An injected occupancy bug (wrong limiter or block count) is also caught.
#[test]
fn oracle_flags_injected_occupancy_bug() {
    let gpu = GpuConfig::gtx580();
    let app = nw_application(256, 10);
    let kernel = app.launches[0].as_ref();
    let a = analyze_launch(&gpu, kernel).unwrap();
    let mut d = simulate_launch(&gpu, kernel).unwrap();
    d.occupancy.blocks_per_sm += 1;
    let report = compare(&a, &d, 0);
    assert!(!report.occupancy_ok);
    assert!(report.divergent());
}
