//! Golden end-to-end trace snapshot: runs the quick training pipeline (the
//! same configuration `blackforest train --quick` uses, seed 2016) on the
//! reduce1 and stencil workloads under a trace capture, and pins
//!
//! * the exact span topology (names, nesting, counts — never durations),
//! * the deterministic trace counters, and
//! * the final prediction vector, down to the f64 bit pattern,
//!
//! against `tests/golden/pipeline_trace.txt`. Any drift — a renamed span, a
//! lost launch, a changed prediction — fails with a line-level diff. To
//! accept intentional changes, regenerate with:
//!
//! ```text
//! BF_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! This file holds exactly one `#[test]` because it pins `RAYON_NUM_THREADS`
//! for the duration of the run (determinism of the cache counters); a second
//! test in the same binary would race on the environment.

use blackforest_suite::blackforest::model::ModelConfig;
use blackforest_suite::blackforest::{BlackForest, Workload};
use blackforest_suite::gpu_sim::GpuConfig;
use blackforest_suite::kernels::reduce::ReduceVariant;
use std::fmt::Write as _;

mod common;

/// The CLI's `--quick` sweep for each golden workload (see
/// `default_sizes` in `crates/cli/src/main.rs`).
fn quick_sizes(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::Reduce(_) => (14..=18).map(|e| 1usize << e).collect(),
        Workload::Stencil => (2..=16).step_by(2).map(|k| k * 16).collect(),
        _ => unreachable!("golden suite covers reduce1 and stencil"),
    }
}

/// Runs one quick analysis under a trace capture and renders its golden
/// section: topology, counters, and the per-size prediction vector.
fn golden_section(workload: Workload) -> String {
    let bf = BlackForest::new(GpuConfig::gtx580()).with_config(ModelConfig::quick(2016));
    let sizes = quick_sizes(workload);
    let (report, trace) = bf_trace::capture(|| {
        bf.analyze(workload, &sizes)
            .unwrap_or_else(|e| panic!("analyze {}: {e}", workload.name()))
    });

    let defects = trace.validate();
    assert!(
        defects.is_empty(),
        "{} trace has structural defects: {defects:?}",
        workload.name()
    );

    let mut out = String::new();
    writeln!(out, "== workload: {} ==", workload.name()).unwrap();
    writeln!(out, "-- span topology --").unwrap();
    out.push_str(&trace.topology());
    writeln!(out, "-- counters --").unwrap();
    for (name, value) in &trace.counters {
        writeln!(out, "{name} = {value}").unwrap();
    }
    writeln!(out, "-- predictions --").unwrap();
    for &size in &sizes {
        let chars: Vec<f64> = workload
            .characteristics()
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if i == 0 {
                    size as f64
                } else {
                    Workload::default_characteristic(name)
                        .unwrap_or_else(|| panic!("no default for characteristic {name}"))
                }
            })
            .collect();
        let ms = report
            .predictor
            .predict(&chars)
            .unwrap_or_else(|e| panic!("predict size {size}: {e}"));
        writeln!(out, "size {size}: {ms:.9e} ms (bits {:016x})", ms.to_bits()).unwrap();
    }
    out
}

#[test]
fn quick_pipeline_trace_and_predictions_match_golden() {
    // One worker: cache hit/miss order — and therefore the counter values
    // pinned below — is only deterministic sequentially. (Span topology is
    // thread-count-independent; tests/trace_concurrency.rs proves that.)
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let mut actual = String::from(
        "# Golden pipeline trace: quick train (seed 2016) on gtx580.\n\
         # Regenerate with: BF_UPDATE_GOLDEN=1 cargo test --test golden_trace\n",
    );
    actual.push_str(&golden_section(Workload::Reduce(ReduceVariant::Reduce1)));
    actual.push_str(&golden_section(Workload::Stencil));

    std::env::remove_var("RAYON_NUM_THREADS");

    common::check_golden("pipeline_trace.txt", "golden_trace", &actual);
}
