//! Ablation: GLM vs MARS counter models on the NW workload (§6.1.2 uses
//! MARS because the NW counters are nonlinear in the sequence length).
//!
//! Both families model the same forest-selected counters from the sequence
//! length and are scored by training R² per counter. The output is
//! deterministic and is committed as `results/ablation_regress.txt`; the
//! mean row also prints at full round-trip precision, so a diff catches any
//! drift in the fits.

use bf_bench::banner;
use blackforest::collect::{collect_nw, CollectOptions};
use blackforest::countermodel::{CounterModelSet, ModelStrategy};
use blackforest::model::{BlackForestModel, ModelConfig};
use gpu_sim::GpuConfig;

fn main() {
    banner("Ablation", "Counter model family on NW: GLM vs MARS");
    let lengths: Vec<usize> = (1..=24).map(|k| k * 64).collect();
    let ds = collect_nw(
        &GpuConfig::gtx580(),
        &lengths,
        &CollectOptions::default().with_repetitions(2, 0.02),
    )
    .expect("collection");
    let model = BlackForestModel::fit(&ds, &ModelConfig::quick(77)).expect("forest fit");
    let chars = vec!["size".to_string()];
    let fit = |strategy| {
        CounterModelSet::fit(&ds, &model.selected, &chars, strategy).expect("counter models")
    };
    let (glm, mars) = (fit(ModelStrategy::Glm), fit(ModelStrategy::Mars));
    println!(
        "dataset: nw on gtx580, {} lengths from {} to {}, {} rows; {} selected counters\n",
        lengths.len(),
        lengths[0],
        lengths[lengths.len() - 1],
        ds.rows.len(),
        model.selected.len()
    );

    println!(
        "  {:<28} {:>10} {:>10}",
        "counter (training R^2)", "GLM", "MARS"
    );
    for (g, m) in glm.models.iter().zip(&mars.models) {
        println!(
            "  {:<28} {:>10.4} {:>10.4}",
            g.counter, g.r_squared, m.r_squared
        );
    }
    let (g, m) = (glm.mean_r_squared(), mars.mean_r_squared());
    println!("  {:<28} {g:>10.4} {m:>10.4}", "mean");
    println!("\nmean R^2 exact: GLM {g:?}, MARS {m:?}");
}
