//! Random forests: bagged ensembles of unpruned CART trees.
//!
//! Construction follows the paper's algorithm verbatim: (1) draw `n_trees`
//! bootstrap samples, (2) grow an unpruned regression tree on each with
//! `mtry` random candidate features per node, (3) predict new data by
//! averaging the trees. Out-of-bag (OOB) samples provide an unbiased error
//! estimate and feed the permutation-importance calculation.

use crate::binned::{BinnedDataset, MAX_BINS_LIMIT};
use crate::importance::VariableImportance;
use crate::tree::{rows_to_columns, RegressionTree, TreeParams};
use crate::{ForestError, Result};
use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How candidate splits are searched at each tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// Sort every node's samples on every candidate feature and sweep all
    /// boundaries — the textbook CART search. `O(n log n)` per (node,
    /// feature); exact.
    Exact,
    /// Quantise each feature into at most `max_bins` bins once per fit, then
    /// search splits over per-bin `(count, Σy)` histograms accumulated in one
    /// `O(n)` pass per (node, feature). Identical trees to [`Exact`] whenever
    /// every feature has at most `max_bins` distinct values; a quantile
    /// approximation (and a large speedup) otherwise. See [`crate::binned`].
    Histogram {
        /// Bin-count ceiling per feature, `2..=65536`.
        max_bins: usize,
    },
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::Histogram { max_bins: 256 }
    }
}

/// Forest hyperparameters. Defaults mirror R's `randomForest` for regression:
/// 500 trees, `mtry = max(p/3, 1)`, minimum node size 5 — plus histogram
/// split search with 256 bins, which reproduces the exact search on the
/// moderate-cardinality data BlackForest trains on.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees `n_t`.
    pub n_trees: usize,
    /// Candidate features per split; `None` selects `max(p/3, 1)`.
    pub mtry: Option<usize>,
    /// Minimum samples per terminal node.
    pub min_node_size: usize,
    /// Optional depth cap (default: unbounded, as RF prescribes).
    pub max_depth: usize,
    /// RNG seed for reproducible forests.
    pub seed: u64,
    /// Split-search backend (default: `Histogram { max_bins: 256 }`).
    pub split_strategy: SplitStrategy,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 500,
            mtry: None,
            min_node_size: 5,
            max_depth: usize::MAX,
            seed: 0xB1AC_F05E,
            split_strategy: SplitStrategy::default(),
        }
    }
}

impl ForestParams {
    /// Returns a copy with the given seed (builder-style convenience).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given tree count.
    pub fn with_trees(mut self, n: usize) -> Self {
        self.n_trees = n;
        self
    }

    /// Returns a copy with an explicit `mtry`.
    pub fn with_mtry(mut self, mtry: usize) -> Self {
        self.mtry = Some(mtry);
        self
    }

    /// Returns a copy with the given split-search strategy.
    pub fn with_split_strategy(mut self, strategy: SplitStrategy) -> Self {
        self.split_strategy = strategy;
        self
    }
}

/// A fitted random-forest regressor, retaining the training data (column
/// major) so OOB statistics, importance, and partial dependence can be
/// computed after the fact — the same data the R object keeps around.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    pub(crate) trees: Vec<RegressionTree>,
    /// For each tree, the sorted list of OOB sample indices.
    pub(crate) oob_indices: Vec<Vec<u32>>,
    /// Column-major copy of the training features.
    pub(crate) columns: Vec<Vec<f64>>,
    /// Training response.
    pub(crate) y: Vec<f64>,
    pub(crate) params: ForestParams,
    pub(crate) n_features: usize,
    /// Seeds used per tree (needed to reproduce importance permutations).
    pub(crate) tree_seeds: Vec<u64>,
}

impl RandomForest {
    /// Fits a forest on row-major observations `x` and response `y`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &ForestParams) -> Result<RandomForest> {
        if x.is_empty() || y.is_empty() {
            return Err(ForestError::BadTrainingData("empty training set".into()));
        }
        if x.len() != y.len() {
            return Err(ForestError::BadTrainingData(format!(
                "{} feature rows but {} responses",
                x.len(),
                y.len()
            )));
        }
        let p = x[0].len();
        if p == 0 {
            return Err(ForestError::BadTrainingData("zero features".into()));
        }
        if x.iter().any(|r| r.len() != p) {
            return Err(ForestError::BadTrainingData("ragged feature rows".into()));
        }
        if params.n_trees == 0 {
            return Err(ForestError::BadParams("n_trees must be positive".into()));
        }
        if params.min_node_size == 0 {
            return Err(ForestError::BadParams(
                "min_node_size must be positive".into(),
            ));
        }
        let fit_span = bf_trace::span!("fit_forest", rows = y.len(), trees = params.n_trees);
        let fit_id = fit_span.id();
        let n = y.len();
        let columns = rows_to_columns(x);
        let mtry = params.mtry.unwrap_or_else(|| (p / 3).max(1)).min(p);
        let tree_params = TreeParams {
            min_node_size: params.min_node_size,
            mtry,
            max_depth: params.max_depth,
        };
        // Histogram strategy: quantise the features ONCE, before the parallel
        // tree loop; every tree shares the read-only binned dataset and only
        // its bootstrap index vector differs.
        let binned = match params.split_strategy {
            SplitStrategy::Exact => None,
            SplitStrategy::Histogram { max_bins } => {
                if !(2..=MAX_BINS_LIMIT).contains(&max_bins) {
                    return Err(ForestError::BadParams(format!(
                        "max_bins must be in 2..={MAX_BINS_LIMIT}, got {max_bins}"
                    )));
                }
                let _bins = bf_trace::span!("build_bins", max_bins = max_bins);
                Some(BinnedDataset::build(&columns, max_bins))
            }
        };
        // Derive one independent seed per tree from the master seed so the
        // parallel build is deterministic regardless of scheduling.
        let mut master = StdRng::seed_from_u64(params.seed);
        let tree_seeds: Vec<u64> = (0..params.n_trees).map(|_| master.random()).collect();

        let built: Vec<(RegressionTree, Vec<u32>)> = tree_seeds
            .par_iter()
            .map(|&seed| {
                bf_trace::with_parent(fit_id, || {
                    let _tree_span = bf_trace::span!("fit_tree");
                    let mut rng = StdRng::seed_from_u64(seed);
                    // Bootstrap sample of size n, with replacement.
                    let mut in_bag = vec![false; n];
                    let mut idx = Vec::with_capacity(n);
                    for _ in 0..n {
                        let i = rng.random_range(0..n);
                        idx.push(i as u32);
                        in_bag[i] = true;
                    }
                    let tree = match &binned {
                        Some(b) => {
                            crate::binned::fit_binned_on_indices(b, y, &idx, &tree_params, &mut rng)
                        }
                        None => RegressionTree::fit_on_indices(
                            &columns,
                            y,
                            &idx,
                            &tree_params,
                            &mut rng,
                        ),
                    };
                    let oob: Vec<u32> = (0..n as u32).filter(|&i| !in_bag[i as usize]).collect();
                    (tree, oob)
                })
            })
            .collect();

        let (trees, oob_indices): (Vec<_>, Vec<_>) = built.into_iter().unzip();
        Ok(RandomForest {
            trees,
            oob_indices,
            columns,
            y: y.to_vec(),
            params: ForestParams {
                mtry: Some(mtry),
                ..*params
            },
            n_features: p,
            tree_seeds,
        })
    }

    /// Predicts the response for one feature row (average over all trees).
    pub fn predict_row(&self, row: &[f64]) -> Result<f64> {
        if row.len() != self.n_features {
            return Err(ForestError::BadQuery {
                expected: self.n_features,
                got: row.len(),
            });
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
        Ok(sum / self.trees.len() as f64)
    }

    /// Predicts a batch of rows.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Out-of-bag prediction for every training sample. Samples that were
    /// in-bag for every tree (rare beyond ~20 trees) fall back to the full
    /// forest prediction.
    pub fn oob_predictions(&self) -> Vec<f64> {
        let n = self.y.len();
        let mut sums = vec![0.0; n];
        let mut counts = vec![0u32; n];
        for (tree, oob) in self.trees.iter().zip(self.oob_indices.iter()) {
            for &i in oob {
                sums[i as usize] += tree.predict_columns(&self.columns, i as usize, None);
                counts[i as usize] += 1;
            }
        }
        (0..n)
            .map(|i| {
                if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else {
                    let row: Vec<f64> = self.columns.iter().map(|c| c[i]).collect();
                    self.predict_row(&row).unwrap_or(0.0)
                }
            })
            .collect()
    }

    /// Out-of-bag mean squared error — the forest's honest generalisation
    /// error estimate (the paper's `MSE_OOB`).
    pub fn oob_mse(&self) -> f64 {
        self.oob_errors().0
    }

    /// Percentage of response variance explained, computed from OOB error as
    /// R's `randomForest` does: `1 - MSE_OOB / var(y)`.
    pub fn oob_r_squared(&self) -> f64 {
        self.oob_errors().1
    }

    /// [`Self::oob_mse`] and [`Self::oob_r_squared`] from one pass over the
    /// OOB predictions.
    pub fn oob_errors(&self) -> (f64, f64) {
        let mse = bf_mse(&self.oob_predictions(), &self.y);
        let var = population_variance(&self.y);
        let r_squared = if var == 0.0 {
            if mse == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - mse / var
        };
        (mse, r_squared)
    }

    /// Permutation variable importance (see [`crate::importance`]).
    pub fn permutation_importance(&self) -> VariableImportance {
        VariableImportance::compute(self)
    }

    /// Impurity-based importance: total SSE decrease credited to each
    /// feature, summed over all trees, normalised to sum to 1. A cheap
    /// cross-check on the permutation measure.
    pub fn impurity_importance(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (t, &v) in total.iter_mut().zip(tree.impurity_importance.iter()) {
                *t += v;
            }
        }
        let s: f64 = total.iter().sum();
        if s > 0.0 {
            for t in &mut total {
                *t /= s;
            }
        }
        total
    }

    /// Number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Borrow the fitted trees (used by parity tests and diagnostics).
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of features the forest was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The effective parameters used in the fit (with `mtry` resolved).
    pub fn params(&self) -> &ForestParams {
        &self.params
    }

    /// Borrow the training response.
    pub fn training_response(&self) -> &[f64] {
        &self.y
    }

    /// Borrow the column-major training features.
    pub fn training_columns(&self) -> &[Vec<f64>] {
        &self.columns
    }
}

pub(crate) fn bf_mse(pred: &[f64], obs: &[f64]) -> f64 {
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(obs.iter())
        .map(|(p, o)| (p - o) * (p - o))
        .sum::<f64>()
        / pred.len() as f64
}

pub(crate) fn population_variance(y: &[f64]) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    let m = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / y.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_linear(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 2*x0 + noiseless; x1 is shuffled noise.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, ((i * 31) % 17) as f64])
            .collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        (x, y)
    }

    #[test]
    fn fit_predict_recovers_monotone_signal() {
        let (x, y) = make_linear(80);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(100).with_seed(1),
        )
        .unwrap();
        let p = f.predict_row(&[40.0, 3.0]).unwrap();
        assert!((p - 80.0).abs() < 12.0, "prediction {p} too far from 80");
    }

    #[test]
    fn oob_r_squared_high_on_learnable_signal() {
        let (x, y) = make_linear(100);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(200).with_seed(2),
        )
        .unwrap();
        assert!(f.oob_r_squared() > 0.9, "r2 = {}", f.oob_r_squared());
    }

    #[test]
    fn oob_r_squared_near_zero_on_pure_noise() {
        // Response unrelated to features: OOB R² must not be meaningfully
        // positive.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100)
            .map(|i| ((i * 2654435761usize) % 97) as f64)
            .collect();
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(100).with_seed(3),
        )
        .unwrap();
        assert!(f.oob_r_squared() < 0.3, "r2 = {}", f.oob_r_squared());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = make_linear(50);
        let p = ForestParams::default().with_trees(50).with_seed(42);
        let f1 = RandomForest::fit(&x, &y, &p).unwrap();
        let f2 = RandomForest::fit(&x, &y, &p).unwrap();
        assert_eq!(
            f1.predict_row(&[25.0, 1.0]).unwrap(),
            f2.predict_row(&[25.0, 1.0]).unwrap()
        );
        assert_eq!(f1.oob_mse(), f2.oob_mse());
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = make_linear(50);
        let f1 = RandomForest::fit(&x, &y, &ForestParams::default().with_trees(50).with_seed(1))
            .unwrap();
        let f2 = RandomForest::fit(&x, &y, &ForestParams::default().with_trees(50).with_seed(2))
            .unwrap();
        // Same data, same hyperparameters, different bootstraps: OOB error
        // will almost surely differ.
        assert_ne!(f1.oob_mse(), f2.oob_mse());
    }

    #[test]
    fn forest_beats_or_matches_small_forest_oob() {
        // With a single tree most rows have no OOB tree at all and fall back
        // to (in-bag) full-forest predictions, so its "OOB" error is biased
        // low and the comparison is seed luck. Eight trees leave virtually no
        // uncovered rows while still averaging far fewer bootstraps, and
        // averaging over several seeds removes the remaining bootstrap noise.
        let (x, y) = make_linear(120);
        let mean_oob = |trees: usize| -> f64 {
            [1u64, 5, 9]
                .iter()
                .map(|&seed| {
                    RandomForest::fit(
                        &x,
                        &y,
                        &ForestParams::default().with_trees(trees).with_seed(seed),
                    )
                    .unwrap()
                    .oob_mse()
                })
                .sum::<f64>()
                / 3.0
        };
        assert!(mean_oob(200) <= mean_oob(8) * 1.05);
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        assert!(RandomForest::fit(&[], &[], &ForestParams::default()).is_err());
        let x = vec![vec![1.0], vec![2.0]];
        assert!(RandomForest::fit(&x, &[1.0], &ForestParams::default()).is_err());
    }

    #[test]
    fn rejects_ragged_rows() {
        let x = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(RandomForest::fit(&x, &[1.0, 2.0], &ForestParams::default()).is_err());
    }

    #[test]
    fn rejects_zero_trees_or_zero_node_size() {
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![1.0, 2.0];
        let p = ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        };
        assert!(RandomForest::fit(&x, &y, &p).is_err());
        let p = ForestParams {
            min_node_size: 0,
            ..ForestParams::default()
        };
        assert!(RandomForest::fit(&x, &y, &p).is_err());
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, y) = make_linear(30);
        let f = RandomForest::fit(&x, &y, &ForestParams::default().with_trees(10)).unwrap();
        assert!(matches!(
            f.predict_row(&[1.0]),
            Err(ForestError::BadQuery {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn mtry_defaults_to_third_of_features() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| (0..9).map(|j| ((i * (j + 1)) % 13) as f64).collect())
            .collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let f = RandomForest::fit(&x, &y, &ForestParams::default().with_trees(5)).unwrap();
        assert_eq!(f.params().mtry, Some(3));
    }

    #[test]
    fn oob_predictions_cover_every_sample() {
        let (x, y) = make_linear(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(100).with_seed(8),
        )
        .unwrap();
        let preds = f.oob_predictions();
        assert_eq!(preds.len(), 60);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn impurity_importance_sums_to_one_and_ranks_signal_first() {
        let (x, y) = make_linear(100);
        let f = RandomForest::fit(&x, &y, &ForestParams::default().with_trees(60).with_seed(9))
            .unwrap();
        let imp = f.impurity_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn default_strategy_is_histogram_256() {
        assert_eq!(
            ForestParams::default().split_strategy,
            SplitStrategy::Histogram { max_bins: 256 }
        );
    }

    #[test]
    fn histogram_forest_identical_to_exact_on_low_cardinality_data() {
        // Integer features/response with < 256 distinct values: every bin is
        // pure, so the histogram path must reproduce the exact trees bit for
        // bit (same RNG stream, same thresholds, same leaf means).
        let (x, y) = make_linear(120);
        let base = ForestParams::default().with_trees(40).with_seed(11);
        let exact =
            RandomForest::fit(&x, &y, &base.with_split_strategy(SplitStrategy::Exact)).unwrap();
        let hist = RandomForest::fit(
            &x,
            &y,
            &base.with_split_strategy(SplitStrategy::Histogram { max_bins: 256 }),
        )
        .unwrap();
        assert_eq!(exact.trees(), hist.trees());
        assert_eq!(exact.oob_mse(), hist.oob_mse());
    }

    #[test]
    fn coarse_histogram_still_learns_signal() {
        let (x, y) = make_linear(200);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default()
                .with_trees(60)
                .with_seed(12)
                .with_split_strategy(SplitStrategy::Histogram { max_bins: 16 }),
        )
        .unwrap();
        assert!(f.oob_r_squared() > 0.8, "r2 = {}", f.oob_r_squared());
    }

    #[test]
    fn rejects_degenerate_max_bins() {
        let (x, y) = make_linear(30);
        for bad in [0usize, 1, MAX_BINS_LIMIT + 1] {
            let p = ForestParams::default()
                .with_trees(5)
                .with_split_strategy(SplitStrategy::Histogram { max_bins: bad });
            assert!(RandomForest::fit(&x, &y, &p).is_err(), "max_bins = {bad}");
        }
    }

    #[test]
    fn predictions_bounded_by_training_response() {
        let (x, y) = make_linear(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(50).with_seed(10),
        )
        .unwrap();
        let (lo, hi) = (0.0, 118.0);
        for q in [-50.0, 0.0, 30.0, 59.0, 500.0] {
            let p = f.predict_row(&[q, 0.0]).unwrap();
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
