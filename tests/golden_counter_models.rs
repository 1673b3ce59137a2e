//! Golden snapshot of the MARS counter models across the workload zoo: for
//! every workload's `--quick` sweep on gtx580 (seed 2016), the forest's
//! selected counters are modelled with `ModelStrategy::Mars` forced, and
//! each counter's basis (hinge feature, knot and sign) and the bits of its
//! coefficients, GCV and training R² are pinned against
//! `tests/golden/counter_models.txt`.
//!
//! MARS fitting has a fast path (Gram matrix reuse) whose output must stay
//! bit-identical to the plain least-squares refit per candidate; this file
//! is the end-to-end tripwire for any drift in it. To accept intentional
//! changes, regenerate with:
//!
//! ```text
//! BF_UPDATE_GOLDEN=1 cargo test --test golden_counter_models
//! ```

use blackforest_suite::blackforest::countermodel::{CounterFit, ModelStrategy};
use blackforest_suite::blackforest::model::ModelConfig;
use blackforest_suite::blackforest::{BlackForest, ProblemScalingPredictor, Workload};
use blackforest_suite::gpu_sim::GpuConfig;
use blackforest_suite::kernels::reduce::ReduceVariant;
use std::fmt::Write as _;

mod common;

/// The CLI's `--quick` sweep for each workload (see `default_sizes` in
/// `crates/cli/src/main.rs`).
fn quick_sizes(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::Reduce(_) => (14..=18).map(|e| 1usize << e).collect(),
        Workload::MatMul => (2..=24).step_by(2).map(|k| k * 16).collect(),
        Workload::Nw => (1..=16).map(|k| k * 64).collect(),
        Workload::Stencil => (2..=16).step_by(2).map(|k| k * 16).collect(),
    }
}

/// Renders one workload's counter models.
fn golden_section(workload: Workload) -> String {
    let bf = BlackForest::new(GpuConfig::gtx580()).with_config(ModelConfig::quick(2016));
    let data = bf
        .collect(workload, &quick_sizes(workload))
        .unwrap_or_else(|e| panic!("collect {}: {e}", workload.name()));
    let predictor = ProblemScalingPredictor::fit(
        &data,
        &bf.config,
        &workload.characteristics(),
        ModelStrategy::Mars,
    )
    .unwrap_or_else(|e| panic!("fit {}: {e}", workload.name()));

    let mut out = String::new();
    writeln!(out, "== workload: {} ==", workload.name()).unwrap();
    for model in &predictor.counters.models {
        let m = match &model.fit {
            CounterFit::Mars(m) => m,
            CounterFit::Identity { index } => {
                writeln!(out, "counter {}: identity {index}", model.counter).unwrap();
                continue;
            }
            CounterFit::Glm(_) => panic!("GLM fit under a forced MARS strategy"),
        };
        writeln!(
            out,
            "counter {}: gcv {:016x} r2 {:016x}",
            model.counter,
            m.gcv.to_bits(),
            m.train_r_squared.to_bits()
        )
        .unwrap();
        for (basis, coef) in m.basis.iter().zip(&m.coefficients) {
            let mut term = String::from("1");
            for h in &basis.hinges {
                let sign = if h.positive { '+' } else { '-' };
                write!(term, " * h{sign}(x{}, {:?})", h.feature, h.knot).unwrap();
            }
            writeln!(out, "  {:016x} {term}", coef.to_bits()).unwrap();
        }
    }
    out
}

#[test]
fn zoo_mars_counter_models_match_golden() {
    let mut actual = String::from(
        "# Golden MARS counter models: quick sweep (seed 2016) of every workload\n\
         # on gtx580; per counter the GCV and R² bits, then one line per basis\n\
         # function: coefficient bits, then its hinges h±(feature, knot).\n\
         # Regenerate with: BF_UPDATE_GOLDEN=1 cargo test --test golden_counter_models\n",
    );
    let workloads = ReduceVariant::ALL.into_iter().map(Workload::Reduce).chain([
        Workload::MatMul,
        Workload::Nw,
        Workload::Stencil,
    ]);
    for workload in workloads {
        actual.push_str(&golden_section(workload));
    }
    common::check_golden("counter_models.txt", "golden_counter_models", &actual);
}
