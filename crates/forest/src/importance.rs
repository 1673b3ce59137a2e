//! Permutation variable importance.
//!
//! The paper (§4.1.1): *"Variable importance is estimated by looking at how
//! much the prediction error increases when the values for that variable in
//! the OOB sample are permuted while all others are left unchanged; the
//! necessary calculations are carried out tree by tree as the forest is
//! constructed."*
//!
//! We report both the raw mean increase in OOB MSE (`%IncMSE` before
//! normalisation, what the paper's Figures 2–4 plot on the x-axis) and a
//! z-score-style standardised value, mirroring R's `importance()` output.

use crate::forest::{bf_mse, RandomForest};
use crate::tree::path_bit;
use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Permutation-importance scores for every predictor of a fitted forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariableImportance {
    /// Mean increase in OOB MSE per feature (can be slightly negative for
    /// pure-noise features; that is expected and diagnostic).
    pub mean_increase_mse: Vec<f64>,
    /// Standard deviation of the per-tree increases.
    pub sd_increase_mse: Vec<f64>,
    /// `mean / (sd / sqrt(n_trees))` — the standardised importance R prints.
    pub standardized: Vec<f64>,
}

impl VariableImportance {
    /// Computes permutation importance for the given forest, tree by tree.
    pub fn compute(forest: &RandomForest) -> VariableImportance {
        Self::from_increases(forest.n_features(), &per_tree_increases(forest))
    }

    /// Mean, standard deviation and standardised score per feature from
    /// every tree's OOB-MSE increases.
    fn from_increases(p: usize, per_tree: &[Vec<f64>]) -> VariableImportance {
        let n_trees = per_tree.len();
        let mut mean = vec![0.0; p];
        for tree_incs in per_tree {
            for (m, &v) in mean.iter_mut().zip(tree_incs.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n_trees as f64;
        }
        let mut sd = vec![0.0; p];
        if n_trees > 1 {
            for tree_incs in per_tree {
                for ((s, &v), &m) in sd.iter_mut().zip(tree_incs.iter()).zip(mean.iter()) {
                    *s += (v - m) * (v - m);
                }
            }
            for s in &mut sd {
                *s = (*s / (n_trees - 1) as f64).sqrt();
            }
        }
        let standardized = mean
            .iter()
            .zip(sd.iter())
            .map(|(&m, &s)| {
                if s > 0.0 {
                    m / (s / (n_trees as f64).sqrt())
                } else if m == 0.0 {
                    0.0
                } else {
                    f64::INFINITY.copysign(m)
                }
            })
            .collect();
        VariableImportance {
            mean_increase_mse: mean,
            sd_increase_mse: sd,
            standardized,
        }
    }

    /// Indices of features sorted by decreasing mean MSE increase — the
    /// importance ranking the paper's figures display top-to-bottom.
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.mean_increase_mse.len()).collect();
        order.sort_by(|&a, &b| {
            self.mean_increase_mse[b]
                .partial_cmp(&self.mean_increase_mse[a])
                .unwrap()
        });
        order
    }

    /// The top `k` feature indices by importance.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.ranking().into_iter().take(k).collect()
    }

    /// Importance normalised so the maximum is 100 (handy for plotting).
    pub fn relative(&self) -> Vec<f64> {
        let max = self
            .mean_increase_mse
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if max <= 0.0 {
            return vec![0.0; self.mean_increase_mse.len()];
        }
        self.mean_increase_mse
            .iter()
            .map(|&v| (v / max * 100.0).max(0.0))
            .collect()
    }
}

/// Every tree's increase in OOB MSE per permuted feature, `[tree][feature]`.
fn per_tree_increases(forest: &RandomForest) -> Vec<Vec<f64>> {
    let p = forest.n_features();
    // Per tree: baseline OOB MSE, then the OOB MSE with each variable's
    // OOB values permuted. The permutation is simulated cheaply: we walk
    // the OOB rows pairing each with a shuffled donor row's value for the
    // permuted feature, using `predict_columns`' override hook so no row
    // copies are made. Only rows whose path splits on the permuted
    // feature can change, so every other row reuses its base prediction.
    (0..forest.trees.len())
        .into_par_iter()
        .map(|t| {
            let tree = &forest.trees[t];
            let oob = &forest.oob_indices[t];
            let mut incs = vec![0.0; p];
            if oob.len() < 2 {
                return incs;
            }
            let (base_preds, paths): (Vec<f64>, Vec<u64>) = oob
                .iter()
                .map(|&i| tree.leaf_and_path(&forest.columns, i as usize))
                .unzip();
            let obs: Vec<f64> = oob.iter().map(|&i| forest.y[i as usize]).collect();
            let base_mse = bf_mse(&base_preds, &obs);
            // Permuting a feature no OOB path splits on leaves every
            // prediction equal to the base one, so its increase is this
            // value; each stream below is seeded fresh, so skipping one
            // shifts no other.
            let any_path = paths.iter().fold(0, |acc, &m| acc | m);
            let unread_inc = bf_mse(&base_preds, &obs) - base_mse;
            // Deterministic permutation stream per (tree, feature).
            for f in 0..p {
                let bit = path_bit(f);
                if any_path & bit == 0 {
                    incs[f] = unread_inc;
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(
                    forest.tree_seeds[t] ^ (f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut perm: Vec<u32> = oob.to_vec();
                perm.shuffle(&mut rng);
                let preds: Vec<f64> = oob
                    .iter()
                    .zip(&perm)
                    .zip(base_preds.iter().zip(&paths))
                    .map(|((&i, &donor), (&base, &path))| {
                        if path & bit == 0 {
                            return base;
                        }
                        let v = forest.columns[f][donor as usize];
                        tree.predict_columns(&forest.columns, i as usize, Some((f, v)))
                    })
                    .collect();
                incs[f] = bf_mse(&preds, &obs) - base_mse;
            }
            incs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;
    use crate::{ForestParams, SplitStrategy};

    /// The reference: every OOB row walked again for every permuted
    /// feature, with the same per-(tree, feature) permutation streams.
    fn reference_increases(forest: &RandomForest) -> Vec<Vec<f64>> {
        let p = forest.n_features();
        (0..forest.trees.len())
            .map(|t| {
                let tree = &forest.trees[t];
                let oob = &forest.oob_indices[t];
                let mut incs = vec![0.0; p];
                if oob.len() < 2 {
                    return incs;
                }
                let walk = |override_feature| -> Vec<f64> {
                    oob.iter()
                        .map(|&i| {
                            tree.predict_columns(&forest.columns, i as usize, override_feature)
                        })
                        .collect()
                };
                let obs: Vec<f64> = oob.iter().map(|&i| forest.y[i as usize]).collect();
                let base_mse = bf_mse(&walk(None), &obs);
                for f in 0..p {
                    let mut rng = StdRng::seed_from_u64(
                        forest.tree_seeds[t] ^ (f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut perm: Vec<u32> = oob.to_vec();
                    perm.shuffle(&mut rng);
                    let preds: Vec<f64> = oob
                        .iter()
                        .zip(&perm)
                        .map(|(&i, &donor)| {
                            let v = forest.columns[f][donor as usize];
                            tree.predict_columns(&forest.columns, i as usize, Some((f, v)))
                        })
                        .collect();
                    incs[f] = bf_mse(&preds, &obs) - base_mse;
                }
                incs
            })
            .collect()
    }

    /// `p` features, the response driven by features spread across the
    /// whole index range so that with `p > 64` trees split on features
    /// that share the top path bit.
    fn wide_forest(p: usize, seed: u64, strategy: SplitStrategy) -> RandomForest {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                (0..p)
                    .map(|j| (((i + 3) * (j * 7 + 5)) % (11 + j % 13)) as f64 * 0.5)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| {
                (0..p)
                    .step_by(5)
                    .map(|j| r[j] * (1.0 + (j % 3) as f64))
                    .sum::<f64>()
                    + (r[p - 1] * 0.7).sin() * 4.0
            })
            .collect();
        let params = ForestParams::default()
            .with_trees(30)
            .with_seed(seed)
            .with_split_strategy(strategy);
        RandomForest::fit(&x, &y, &params).unwrap()
    }

    #[test]
    fn path_skipping_matches_walking_every_oob_row() {
        let (x, y) = graded_data(90);
        let graded = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(40).with_seed(18),
        )
        .unwrap();
        let forests = [
            graded,
            wide_forest(12, 1, SplitStrategy::Exact),
            wide_forest(70, 2, SplitStrategy::Histogram { max_bins: 256 }),
            wide_forest(70, 3, SplitStrategy::Exact),
        ];
        for forest in &forests {
            let got = per_tree_increases(forest);
            let want = reference_increases(forest);
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                let g: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
                let w: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(g, w, "tree {t}");
            }
        }
        // The wide forests really split on features sharing the top bit.
        assert!(forests[2..].iter().all(|f| f.trees.iter().any(|t| t
            .nodes()
            .iter()
            .any(|node| matches!(node, Node::Internal { feature, .. } if *feature >= 63)))));
    }

    /// y depends strongly on x0, weakly on x1, not at all on x2.
    fn graded_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    i as f64,
                    ((i * 7) % 23) as f64,
                    ((i * 2654435761usize) % 101) as f64,
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0] + 0.5 * r[1]).collect();
        (x, y)
    }

    #[test]
    fn feature_no_tree_splits_on_scores_exactly_zero() {
        // Feature 1 is constant, so no split can separate its values.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, 3.0, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + r[2]).collect();
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(50).with_seed(17),
        )
        .unwrap();
        assert!(f.trees.iter().all(|t| t
            .nodes()
            .iter()
            .all(|node| !matches!(node, Node::Internal { feature: 1, .. }))));
        let imp = f.permutation_importance();
        assert_eq!(imp.mean_increase_mse[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(imp.sd_increase_mse[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(imp.standardized[1].to_bits(), 0.0f64.to_bits());
        assert!(imp.mean_increase_mse[0] > 0.0);
    }

    #[test]
    fn ranks_signal_above_weak_above_noise() {
        let (x, y) = graded_data(120);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(150).with_seed(11),
        )
        .unwrap();
        let imp = f.permutation_importance();
        let rank = imp.ranking();
        assert_eq!(rank[0], 0, "importances: {:?}", imp.mean_increase_mse);
        assert!(
            imp.mean_increase_mse[0] > 10.0 * imp.mean_increase_mse[2].abs(),
            "signal should dwarf noise: {:?}",
            imp.mean_increase_mse
        );
    }

    #[test]
    fn noise_feature_importance_is_near_zero() {
        let (x, y) = graded_data(120);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(150).with_seed(12),
        )
        .unwrap();
        let imp = f.permutation_importance();
        // Relative to the dominant feature, noise is negligible.
        let rel = imp.relative();
        assert!(rel[2] < 10.0, "relative importances: {rel:?}");
    }

    #[test]
    fn importance_is_deterministic_for_fixed_seed() {
        let (x, y) = graded_data(60);
        let p = ForestParams::default().with_trees(40).with_seed(13);
        let f1 = RandomForest::fit(&x, &y, &p).unwrap();
        let f2 = RandomForest::fit(&x, &y, &p).unwrap();
        assert_eq!(
            f1.permutation_importance().mean_increase_mse,
            f2.permutation_importance().mean_increase_mse
        );
    }

    #[test]
    fn top_k_truncates_ranking() {
        let (x, y) = graded_data(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(40).with_seed(14),
        )
        .unwrap();
        let imp = f.permutation_importance();
        assert_eq!(imp.top_k(2).len(), 2);
        assert_eq!(imp.top_k(2)[0], imp.ranking()[0]);
        assert_eq!(imp.top_k(99).len(), 3);
    }

    #[test]
    fn relative_scales_max_to_100() {
        let (x, y) = graded_data(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(40).with_seed(15),
        )
        .unwrap();
        let rel = f.permutation_importance().relative();
        let max = rel.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 100.0).abs() < 1e-9);
        assert!(rel.iter().all(|&v| (0.0..=100.0).contains(&v)));
    }

    #[test]
    fn agrees_with_impurity_importance_on_dominant_feature() {
        let (x, y) = graded_data(100);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(80).with_seed(16),
        )
        .unwrap();
        let perm_rank = f.permutation_importance().ranking()[0];
        let imp = f.impurity_importance();
        let impurity_rank = (0..3)
            .max_by(|&a, &b| imp[a].partial_cmp(&imp[b]).unwrap())
            .unwrap();
        assert_eq!(perm_rank, impurity_rank);
    }
}
