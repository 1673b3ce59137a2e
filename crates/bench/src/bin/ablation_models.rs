//! Ablation: random forest vs a single regression tree vs a linear GLM as
//! the response model (paper §1: RF "usually outperforms the more
//! traditional classification and regression algorithms ... especially for
//! scarce training data").
//!
//! Each family is fit on the same 80:20 split of the MM dataset and scored
//! by held-out R². The output is deterministic (fixed seeds, bit-exact
//! parallel fits) and is committed as `results/ablation_models.txt`; the
//! `exact` column prints each R² at full round-trip precision, so a diff
//! catches any drift in the fits.

use bf_bench::banner;
use bf_forest::{ForestParams, RandomForest};
use bf_linalg::stats::r_squared;
use bf_regress::glm::{Basis, LinearModel};
use blackforest::collect::{collect_matmul, CollectOptions};
use gpu_sim::GpuConfig;

fn main() {
    banner(
        "Ablation",
        "Response model family on MM: RF vs single tree vs GLM",
    );
    let sizes: Vec<usize> = (2..=20).map(|k| k * 16).collect();
    let ds = collect_matmul(
        &GpuConfig::gtx580(),
        &sizes,
        &CollectOptions::default().with_repetitions(3, 0.02),
    )
    .expect("collection");
    let (train, test) = ds.split(0.8, 99);
    println!(
        "dataset: matmul on gtx580, {} sizes from {} to {}, {} rows ({} train / {} test)\n",
        sizes.len(),
        sizes[0],
        sizes[sizes.len() - 1],
        ds.rows.len(),
        train.rows.len(),
        test.rows.len()
    );

    let forest = |trees: usize| {
        RandomForest::fit(
            &train.rows,
            &train.response,
            &ForestParams::default().with_trees(trees).with_seed(1),
        )
        .expect("forest fit")
        .predict_batch(&test.rows)
        .expect("forest predict")
    };
    let mut basis = vec![Basis::Intercept];
    basis.extend((0..ds.n_features()).map(|feature| Basis::Power { feature, power: 1 }));
    let glm = LinearModel::fit(&basis, &train.rows, &train.response).expect("glm fit");

    let results = [
        ("random forest (500 trees)", forest(500)),
        ("single tree", forest(1)),
        ("linear GLM", glm.predict(&test.rows)),
    ];
    println!("  {:<26} {:>10}  exact", "model", "test R^2");
    for (model, pred) in &results {
        let r2 = r_squared(pred, &test.response);
        println!("  {model:<26} {r2:>10.4}  {r2:?}");
    }
}
