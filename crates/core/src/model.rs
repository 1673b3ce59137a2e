//! Stage 2–4 of the methodology: random-forest construction and validation,
//! variable-importance analysis, and PCA refinement.

use crate::dataset::Dataset;
use crate::{BfError, Result};
use bf_forest::{ForestParams, PartialDependence, RandomForest, SplitStrategy, VariableImportance};
use bf_linalg::{stats, Matrix};
use bf_pca::{varimax, Pca, PcaOptions};
use serde::{Deserialize, Serialize};

/// Configuration of the modeling pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Trees in the forest (paper/R default: 500).
    pub n_trees: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Train fraction of the random split (paper: 0.8).
    pub train_fraction: f64,
    /// How many top-importance variables to retain (paper: "usually between
    /// 6 and 8").
    pub top_k: usize,
    /// Cumulative explained-variance threshold for retaining principal
    /// components (paper observes 4 components covering 96–97%).
    pub pca_variance_threshold: f64,
    /// Minimum samples per tree leaf.
    pub min_node_size: usize,
    /// Split-search backend for every forest the pipeline fits (default:
    /// histogram with 256 bins; see [`bf_forest::SplitStrategy`]).
    pub split_strategy: SplitStrategy,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            n_trees: 500,
            seed: 0xB1AC_F05E,
            train_fraction: 0.8,
            top_k: 6,
            pca_variance_threshold: 0.95,
            min_node_size: 5,
            split_strategy: SplitStrategy::default(),
        }
    }
}

impl ModelConfig {
    /// A lighter configuration for tests and interactive use.
    pub fn quick(seed: u64) -> ModelConfig {
        ModelConfig {
            n_trees: 120,
            seed,
            ..ModelConfig::default()
        }
    }
}

/// Accuracy metrics of a forest on held-out data plus its OOB statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationMetrics {
    /// Test-set mean squared error.
    pub mse: f64,
    /// Test-set root mean squared error.
    pub rmse: f64,
    /// Test-set R².
    pub r_squared: f64,
    /// Test-set mean absolute percentage error.
    pub mape: f64,
    /// Out-of-bag MSE of the fitted forest.
    pub oob_mse: f64,
    /// Out-of-bag explained variance (R's "% Var explained").
    pub oob_r_squared: f64,
}

/// PCA refinement summary: retained components and varimax-rotated loadings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PcaSummary {
    /// Number of retained components.
    pub n_components: usize,
    /// Explained-variance fraction of each retained component.
    pub explained: Vec<f64>,
    /// Cumulative explained variance of the retained set.
    pub cumulative: f64,
    /// Varimax-rotated loadings (`features x components`).
    pub loadings: Matrix,
    /// Feature names aligned with loading rows.
    pub feature_names: Vec<String>,
}

impl PcaSummary {
    /// The `top` variables dominating component `c`, with signed loadings.
    pub fn dominant(&self, c: usize, top: usize) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .feature_names
            .iter()
            .enumerate()
            .map(|(j, n)| (n.clone(), self.loadings[(j, c)]))
            .collect();
        pairs.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
        pairs.truncate(top);
        pairs
    }
}

/// A fitted BlackForest model: the forest, its interpretation artefacts,
/// and the retained-variable refit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlackForestModel {
    /// Full predictor schema (training order).
    pub feature_names: Vec<String>,
    /// Forest over all predictors.
    pub forest: RandomForest,
    /// Permutation importance of the full forest.
    pub importance: VariableImportance,
    /// Feature names sorted by decreasing importance.
    pub ranking: Vec<String>,
    /// The retained top-k features.
    pub selected: Vec<String>,
    /// Forest refitted on the retained features only.
    pub reduced_forest: RandomForest,
    /// Validation of the full forest.
    pub validation: ValidationMetrics,
    /// Validation of the reduced forest (the paper checks it "retains most
    /// of the predictive power").
    pub reduced_validation: ValidationMetrics,
    /// PCA refinement over the counter matrix.
    pub pca: Option<PcaSummary>,
    /// The training split.
    pub train: Dataset,
    /// The held-out split.
    pub test: Dataset,
}

fn validate(forest: &RandomForest, test: &Dataset) -> Result<ValidationMetrics> {
    let preds = forest
        .predict(&test.rows)
        .map_err(|e| BfError::Fit(e.to_string()))?;
    let (oob_mse, oob_r_squared) = forest.oob_errors();
    Ok(ValidationMetrics {
        mse: stats::mse(&preds, &test.response),
        rmse: stats::rmse(&preds, &test.response),
        r_squared: stats::r_squared(&preds, &test.response),
        mape: stats::mape(&preds, &test.response),
        oob_mse,
        oob_r_squared,
    })
}

impl BlackForestModel {
    /// Runs stages 2–4: split, fit, validate, rank, select, refit, PCA.
    pub fn fit(data: &Dataset, config: &ModelConfig) -> Result<BlackForestModel> {
        if data.len() < 10 {
            return Err(BfError::Data(format!(
                "need at least 10 observations, have {}",
                data.len()
            )));
        }
        let _fit_span = bf_trace::span!(
            "fit_model",
            rows = data.len(),
            features = data.n_features(),
            trees = config.n_trees
        );
        let (train, test) = data.split(config.train_fraction, config.seed);
        let params = ForestParams {
            n_trees: config.n_trees,
            min_node_size: config.min_node_size.min(train.len() / 4).max(1),
            split_strategy: config.split_strategy,
            ..ForestParams::default().with_seed(config.seed)
        };
        let forest = RandomForest::fit(&train.rows, &train.response, &params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let validation = {
            let _v = bf_trace::span!("validate");
            validate(&forest, &test)?
        };
        let (importance, ranking) = {
            let _imp = bf_trace::span!("importance");
            let importance = forest.permutation_importance();
            let ranking: Vec<String> = importance
                .ranking()
                .into_iter()
                .map(|j| data.feature_names[j].clone())
                .collect();
            (importance, ranking)
        };
        let k = config.top_k.min(data.n_features()).max(1);
        let selected: Vec<String> = ranking.iter().take(k).cloned().collect();

        let select_span = bf_trace::span!("select_refit", top_k = k);
        let train_sel = train.select(&selected)?;
        let test_sel = test.select(&selected)?;
        let reduced_forest = RandomForest::fit(&train_sel.rows, &train_sel.response, &params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let reduced_validation = {
            let _v = bf_trace::span!("validate");
            validate(&reduced_forest, &test_sel)?
        };
        drop(select_span);

        let pca = {
            let _pca = bf_trace::span!("pca");
            Self::run_pca(&train, config).ok()
        };

        Ok(BlackForestModel {
            feature_names: data.feature_names.clone(),
            forest,
            importance,
            ranking,
            selected,
            reduced_forest,
            validation,
            reduced_validation,
            pca,
            train,
            test,
        })
    }

    /// PCA with varimax rotation over the training predictors.
    fn run_pca(train: &Dataset, config: &ModelConfig) -> std::result::Result<PcaSummary, String> {
        let x = Matrix::from_rows(&train.rows).map_err(|e| e.to_string())?;
        let pca = Pca::fit(&x, PcaOptions { scale: true }).map_err(|e| e.to_string())?;
        let k = pca
            .components_for(config.pca_variance_threshold)
            .clamp(1, train.n_features());
        let raw = pca.factor_loadings(k).map_err(|e| e.to_string())?;
        let rotated = if k >= 2 {
            varimax(&raw, true).loadings
        } else {
            raw
        };
        let ratios = pca.explained_variance_ratio();
        Ok(PcaSummary {
            n_components: k,
            explained: ratios[..k].to_vec(),
            cumulative: ratios[..k].iter().sum(),
            loadings: rotated,
            feature_names: train.feature_names.clone(),
        })
    }

    /// Importance value for a named feature.
    pub fn importance_of(&self, name: &str) -> Option<f64> {
        let j = self.feature_names.iter().position(|n| n == name)?;
        Some(self.importance.mean_increase_mse[j])
    }

    /// Partial-dependence curve of the *full* forest for a named feature.
    pub fn partial_dependence(&self, name: &str, grid: usize) -> Option<PartialDependence> {
        let j = self.feature_names.iter().position(|n| n == name)?;
        Some(PartialDependence::compute(&self.forest, j, grid))
    }

    /// Predicts execution time from a full feature row (schema order).
    pub fn predict_row(&self, row: &[f64]) -> Result<f64> {
        self.forest
            .predict_row(row)
            .map_err(|e| BfError::Fit(e.to_string()))
    }

    /// Predicts execution time from the *selected* features only, in
    /// `self.selected` order — the entry point used by the counter-model
    /// prediction chain.
    pub fn predict_selected(&self, row: &[f64]) -> Result<f64> {
        self.reduced_forest
            .predict_row(row)
            .map_err(|e| BfError::Fit(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_matmul, CollectOptions};
    use gpu_sim::GpuConfig;

    fn matmul_dataset() -> Dataset {
        let gpu = GpuConfig::gtx580();
        let sizes: Vec<usize> = (2..=16).map(|k| k * 16).collect();
        collect_matmul(&gpu, &sizes, &CollectOptions::default()).unwrap()
    }

    #[test]
    fn fit_produces_accurate_model() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(1)).unwrap();
        assert!(
            m.validation.r_squared > 0.5,
            "r2 = {}",
            m.validation.r_squared
        );
        assert!(m.validation.oob_r_squared > 0.5);
    }

    #[test]
    fn reduced_model_retains_predictive_power() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(2)).unwrap();
        // The paper's criterion: the top-k refit keeps most of the accuracy.
        assert!(
            m.reduced_validation.r_squared > m.validation.r_squared - 0.25,
            "full {} vs reduced {}",
            m.validation.r_squared,
            m.reduced_validation.r_squared
        );
        assert_eq!(m.selected.len(), 6.min(data.n_features()));
    }

    #[test]
    fn ranking_is_sorted_by_importance() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(3)).unwrap();
        let imps: Vec<f64> = m
            .ranking
            .iter()
            .map(|n| m.importance_of(n).unwrap())
            .collect();
        for w in imps.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn pca_summary_is_sane() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(4)).unwrap();
        let pca = m.pca.as_ref().expect("pca should fit");
        assert!(pca.n_components >= 1);
        assert!(pca.cumulative >= 0.95 || pca.n_components == data.n_features());
        assert_eq!(pca.loadings.rows(), data.n_features());
        let dom = pca.dominant(0, 3);
        assert_eq!(dom.len(), 3);
        assert!(dom[0].1.abs() >= dom[1].1.abs());
    }

    #[test]
    fn rejects_tiny_datasets() {
        let mut ds = Dataset::new(vec!["a".into()], "time_ms");
        for i in 0..5 {
            ds.push(vec![i as f64], i as f64).unwrap();
        }
        assert!(BlackForestModel::fit(&ds, &ModelConfig::quick(5)).is_err());
    }

    #[test]
    fn partial_dependence_of_size_is_increasing() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(6)).unwrap();
        let pd = m.partial_dependence("size", 12).unwrap();
        assert!(pd.correlation() > 0.8, "corr = {}", pd.correlation());
    }

    #[test]
    fn predict_selected_accepts_reduced_rows() {
        let data = matmul_dataset();
        let m = BlackForestModel::fit(&data, &ModelConfig::quick(7)).unwrap();
        let sel = data.select(&m.selected).unwrap();
        let p = m.predict_selected(&sel.rows[3]).unwrap();
        assert!(p.is_finite() && p >= 0.0);
    }
}
