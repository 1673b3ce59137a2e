//! One compile per launch: a command that both walks and simulates a launch
//! (lint with the differential oracle, collection with static features)
//! builds its `SampledLaunch` once, so the engine's compile stage — whose
//! first pass is the `validate` span — runs exactly once per launch.

use blackforest_suite::analyze::{lint_workload_with, LintConfig};
use blackforest_suite::blackforest::collect::{collect_reduce, CollectOptions};
use blackforest_suite::gpu_sim::GpuConfig;
use blackforest_suite::kernels::reduce::ReduceVariant;

fn spans(trace: &bf_trace::Trace, name: &str) -> usize {
    trace.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn lint_with_the_oracle_compiles_each_launch_once() {
    let cfg = LintConfig {
        quick: true,
        oracle: true,
        ..LintConfig::default()
    };
    let (report, trace) =
        bf_trace::capture(|| lint_workload_with(&GpuConfig::gtx580(), "reduce1", &cfg));
    let report = report.expect("reduce1 is a lint workload");
    let oracle = report.oracle.expect("the oracle ran");
    assert_eq!(oracle.launches_checked, report.launches);
    assert_eq!(spans(&trace, "validate"), report.launches);
}

#[test]
fn static_features_collect_compiles_each_launch_once() {
    // The CLI's quick reduce sweep.
    let sizes: Vec<usize> = (14..=18).map(|e| 1usize << e).collect();
    let opts = CollectOptions {
        include_static_features: true,
        ..CollectOptions::default()
    };
    let (ds, trace) = bf_trace::capture(|| {
        collect_reduce(
            &GpuConfig::gtx580(),
            ReduceVariant::Reduce1,
            &sizes,
            &[64, 128, 256, 512],
            &opts,
        )
    });
    ds.expect("collect_reduce");
    let launches = spans(&trace, "launch");
    assert!(launches > 0);
    assert_eq!(spans(&trace, "validate"), launches);
}
