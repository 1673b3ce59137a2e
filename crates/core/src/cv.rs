//! K-fold cross-validation for BlackForest response models.
//!
//! §7 of the paper: "Additional studies need to be made to determine the
//! minimal training set, thus limiting the overhead to a minimum." This
//! module provides the machinery for those studies: deterministic k-fold
//! splits, per-fold fit/score of the forest, and a training-set-size
//! learning curve.

use crate::dataset::Dataset;
use crate::{BfError, Result};
use bf_forest::{ForestParams, RandomForest};
use bf_linalg::stats;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Per-fold and aggregate scores of a cross-validation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CvResult {
    /// Held-out R² of each fold.
    pub fold_r_squared: Vec<f64>,
    /// Held-out MSE of each fold.
    pub fold_mse: Vec<f64>,
    /// Mean held-out R².
    pub mean_r_squared: f64,
    /// Mean held-out MSE.
    pub mean_mse: f64,
}

/// Deterministically assigns each observation to one of `k` folds.
pub fn fold_assignments(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut folds = vec![0usize; n];
    for (rank, &i) in order.iter().enumerate() {
        folds[i] = rank % k;
    }
    folds
}

/// Runs k-fold cross-validation of a random forest on the dataset.
pub fn kfold_forest(
    data: &Dataset,
    k: usize,
    params: &ForestParams,
    seed: u64,
) -> Result<CvResult> {
    if k < 2 {
        return Err(BfError::Data("need at least 2 folds".into()));
    }
    if data.len() < 2 * k {
        return Err(BfError::Data(format!(
            "need at least {} observations for {k}-fold CV, have {}",
            2 * k,
            data.len()
        )));
    }
    let folds = fold_assignments(data.len(), k, seed);
    let mut fold_r_squared = Vec::with_capacity(k);
    let mut fold_mse = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for (i, row) in data.rows.iter().enumerate() {
            if folds[i] == fold {
                test_x.push(row.clone());
                test_y.push(data.response[i]);
            } else {
                train_x.push(row.clone());
                train_y.push(data.response[i]);
            }
        }
        let forest = RandomForest::fit(&train_x, &train_y, params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let preds = forest
            .predict_batch(&test_x)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        fold_r_squared.push(stats::r_squared(&preds, &test_y));
        fold_mse.push(stats::mse(&preds, &test_y));
    }
    let mean_r_squared = fold_r_squared.iter().sum::<f64>() / k as f64;
    let mean_mse = fold_mse.iter().sum::<f64>() / k as f64;
    Ok(CvResult {
        fold_r_squared,
        fold_mse,
        mean_r_squared,
        mean_mse,
    })
}

/// One point of the learning curve: training size vs CV accuracy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearningCurvePoint {
    /// Number of training observations used.
    pub train_size: usize,
    /// Mean held-out R² at that size.
    pub r_squared: f64,
    /// Mean held-out MSE at that size.
    pub mse: f64,
}

/// Builds a learning curve: for each fraction of the data (shuffled once),
/// run k-fold CV on that subset. This is the §7 "minimal training set"
/// study as an API.
pub fn learning_curve(
    data: &Dataset,
    fractions: &[f64],
    k: usize,
    params: &ForestParams,
    seed: u64,
) -> Result<Vec<LearningCurvePoint>> {
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
    order.shuffle(&mut rng);
    let mut out = Vec::with_capacity(fractions.len());
    for &frac in fractions {
        let n = ((data.len() as f64 * frac).round() as usize).clamp(2 * k, data.len());
        let mut subset = Dataset::new(data.feature_names.clone(), &data.response_name);
        for &i in order.iter().take(n) {
            subset.rows.push(data.rows[i].clone());
            subset.response.push(data.response[i]);
        }
        let cv = kfold_forest(&subset, k, params, seed)?;
        out.push(LearningCurvePoint {
            train_size: n,
            r_squared: cv.mean_r_squared,
            mse: cv.mean_mse,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_matmul, CollectOptions};
    use gpu_sim::GpuConfig;

    fn mm_data() -> Dataset {
        let sizes: Vec<usize> = (2..=20).step_by(2).map(|k| k * 16).collect();
        collect_matmul(
            &GpuConfig::gtx580(),
            &sizes,
            &CollectOptions::default().with_repetitions(3, 0.02),
        )
        .unwrap()
    }

    #[test]
    fn fold_assignments_are_balanced_and_deterministic() {
        let f1 = fold_assignments(23, 5, 9);
        let f2 = fold_assignments(23, 5, 9);
        assert_eq!(f1, f2);
        for fold in 0..5 {
            let count = f1.iter().filter(|&&f| f == fold).count();
            assert!((4..=5).contains(&count), "fold {fold} has {count}");
        }
        assert_ne!(f1, fold_assignments(23, 5, 10));
    }

    #[test]
    fn kfold_scores_reasonably_on_mm() {
        let data = mm_data();
        let cv = kfold_forest(
            &data,
            5,
            &ForestParams::default().with_trees(100).with_seed(3),
            11,
        )
        .unwrap();
        assert_eq!(cv.fold_r_squared.len(), 5);
        assert!(cv.mean_r_squared > 0.5, "r2 {}", cv.mean_r_squared);
        assert!(cv.mean_mse >= 0.0);
    }

    #[test]
    fn kfold_rejects_degenerate_setups() {
        let data = mm_data();
        assert!(kfold_forest(&data, 1, &ForestParams::default(), 1).is_err());
        let mut tiny = Dataset::new(data.feature_names.clone(), "time_ms");
        for i in 0..5 {
            tiny.rows.push(data.rows[i].clone());
            tiny.response.push(data.response[i]);
        }
        assert!(kfold_forest(&tiny, 5, &ForestParams::default(), 1).is_err());
    }

    #[test]
    fn learning_curve_improves_with_more_data() {
        let data = mm_data();
        let curve = learning_curve(
            &data,
            &[0.4, 1.0],
            4,
            &ForestParams::default().with_trees(80).with_seed(5),
            13,
        )
        .unwrap();
        assert_eq!(curve.len(), 2);
        assert!(curve[0].train_size < curve[1].train_size);
        // More data should not make CV accuracy much worse.
        assert!(curve[1].r_squared >= curve[0].r_squared - 0.1);
    }
}
