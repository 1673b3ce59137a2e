//! Partial dependence: the marginal effect of one predictor on the forest's
//! average prediction.
//!
//! For a grid of values `v` of feature `j`, the partial dependence is
//! `PD_j(v) = mean_i f(x_i with x_ij := v)` over the training set. The paper
//! reads these plots qualitatively: a monotonic decrease means the counter is
//! *negatively* correlated with execution time over its range (e.g.
//! `shared_replay_overhead` for `reduce1`, Figure 2b), a monotonic increase a
//! positive correlation (e.g. `gst_request` for `reduce6`, Figure 4b).

use crate::forest::RandomForest;
use crate::tree::path_bit;
use serde::{Deserialize, Serialize};

/// A computed partial-dependence curve for one feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialDependence {
    /// Feature index the curve describes.
    pub feature: usize,
    /// Grid of feature values (ascending).
    pub grid: Vec<f64>,
    /// Average forest prediction at each grid value.
    pub response: Vec<f64>,
}

/// Qualitative trend classification of a partial-dependence curve, used by
/// the bottleneck analyser to decide whether a counter helps or hurts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trend {
    /// Response increases with the feature over (almost) the whole range.
    Increasing,
    /// Response decreases with the feature over (almost) the whole range.
    Decreasing,
    /// No dominant monotone direction.
    Mixed,
    /// Response is essentially flat.
    Flat,
}

/// Upper bound on the (leaf, path) entries [`PartialDependence::compute_many`]
/// holds at once (16 bytes each): a larger forest is walked in row blocks.
const PATH_TABLE_ENTRIES: usize = 1 << 20;

impl PartialDependence {
    /// Computes the curve for `feature` on an evenly spaced grid of
    /// `grid_size` points spanning the feature's training range.
    pub fn compute(forest: &RandomForest, feature: usize, grid_size: usize) -> PartialDependence {
        Self::compute_many(forest, &[feature], grid_size)
            .pop()
            .expect("one curve per feature")
    }

    /// [`Self::compute`] for each of `features`, in order, walking every
    /// (row, tree) pair's natural path once for all of the curves.
    pub fn compute_many(
        forest: &RandomForest,
        features: &[usize],
        grid_size: usize,
    ) -> Vec<PartialDependence> {
        let curves = features
            .iter()
            .map(|&feature| {
                let col = &forest.training_columns()[feature];
                let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let grid: Vec<f64> = if grid_size <= 1 || lo == hi {
                    vec![lo]
                } else {
                    (0..grid_size)
                        .map(|k| lo + (hi - lo) * k as f64 / (grid_size - 1) as f64)
                        .collect()
                };
                (feature, grid)
            })
            .collect();
        Self::on_grids(forest, curves, Self::block_rows(forest))
    }

    /// Computes the curve on the feature's observed unique values (closer to
    /// R's `partialPlot` when training points are sparse).
    pub fn compute_at_observed(forest: &RandomForest, feature: usize) -> PartialDependence {
        let mut grid: Vec<f64> = forest.training_columns()[feature].clone();
        grid.sort_by(|a, b| a.partial_cmp(b).unwrap());
        grid.dedup();
        Self::on_grids(forest, vec![(feature, grid)], Self::block_rows(forest))
            .pop()
            .expect("one curve per feature")
    }

    /// Rows per block of [`Self::on_grids`], so that a block's (leaf, path)
    /// table holds at most [`PATH_TABLE_ENTRIES`] entries.
    fn block_rows(forest: &RandomForest) -> usize {
        (PATH_TABLE_ENTRIES / forest.trees.len()).max(1)
    }

    /// The curve of each `(feature, grid)`, `grid` ascending: the forest's
    /// mean prediction over the training rows with `feature` set to each
    /// grid value.
    ///
    /// Each (row, tree) pair is walked once along its natural path, which
    /// gives its leaf value and the features the path splits on. A curve
    /// whose feature is off that path gets the leaf value at every grid
    /// point, since no override of it can change the walk; otherwise one
    /// walk serves the whole grid (see `RegressionTree::accumulate_grid`).
    /// `totals[k]` still receives its leaf values rows outer, trees inner,
    /// and is divided by the same `n * trees`, so every response is
    /// bit-identical to walking the forest once per grid value, whatever
    /// `block` of rows each table covers. Each curve opens one span per
    /// block.
    fn on_grids(
        forest: &RandomForest,
        curves: Vec<(usize, Vec<f64>)>,
        block: usize,
    ) -> Vec<PartialDependence> {
        let columns = forest.training_columns();
        let trees = &forest.trees;
        let n = forest.training_response().len();
        let mut totals: Vec<Vec<f64>> = curves.iter().map(|(_, g)| vec![0.0; g.len()]).collect();
        let mut paths: Vec<(f64, u64)> = Vec::with_capacity(block.min(n) * trees.len());
        for start in (0..n).step_by(block) {
            let rows = start..(start + block).min(n);
            paths.clear();
            for i in rows.clone() {
                paths.extend(trees.iter().map(|tree| tree.leaf_and_path(columns, i)));
            }
            for ((feature, grid), acc) in curves.iter().zip(&mut totals) {
                let _span = bf_trace::span!(
                    "partial_dependence",
                    feature = *feature,
                    grid = grid.len(),
                    rows = rows.len()
                );
                let bit = path_bit(*feature);
                for (i, row_paths) in rows.clone().zip(paths.chunks(trees.len())) {
                    for (tree, &(leaf, path)) in trees.iter().zip(row_paths) {
                        if path & bit == 0 {
                            for a in acc.iter_mut() {
                                *a += leaf;
                            }
                        } else {
                            tree.accumulate_grid(columns, i, *feature, grid, acc);
                        }
                    }
                }
            }
        }
        let count = n as f64 * trees.len() as f64;
        curves
            .into_iter()
            .zip(totals)
            .map(|((feature, grid), totals)| PartialDependence {
                feature,
                grid,
                response: totals.into_iter().map(|total| total / count).collect(),
            })
            .collect()
    }

    /// Classifies the curve's qualitative trend.
    ///
    /// The curve is `Flat` when its total span is below 1% of the mean
    /// response magnitude; otherwise the balance of up-steps vs down-steps
    /// decides between `Increasing`, `Decreasing`, and `Mixed`.
    pub fn trend(&self) -> Trend {
        if self.response.len() < 2 {
            return Trend::Flat;
        }
        let max = self
            .response
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.response.iter().cloned().fold(f64::INFINITY, f64::min);
        let scale = self.response.iter().map(|v| v.abs()).sum::<f64>() / self.response.len() as f64;
        if max - min <= 0.01 * scale.max(1e-300) {
            return Trend::Flat;
        }
        let mut up = 0.0f64;
        let mut down = 0.0f64;
        for w in self.response.windows(2) {
            let d = w[1] - w[0];
            if d > 0.0 {
                up += d;
            } else {
                down -= d;
            }
        }
        let total = up + down;
        if up / total >= 0.85 {
            Trend::Increasing
        } else if down / total >= 0.85 {
            Trend::Decreasing
        } else {
            Trend::Mixed
        }
    }

    /// Pearson correlation between grid and response — a scalar summary of
    /// the direction and strength of the marginal relationship.
    pub fn correlation(&self) -> f64 {
        pearson(&self.grid, &self.response)
    }
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / xs.len() as f64;
    let my = ys.iter().sum::<f64>() / ys.len() as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForestParams, RandomForest, SplitStrategy};

    /// The reference: one full forest walk per (grid value, row, tree).
    fn average_prediction(forest: &RandomForest, feature: usize, value: f64) -> f64 {
        let n = forest.training_response().len();
        let mut total = 0.0;
        for i in 0..n {
            for tree in &forest.trees {
                total += tree.predict_columns(forest.training_columns(), i, Some((feature, value)));
            }
        }
        total / (n as f64 * forest.trees.len() as f64)
    }

    fn assert_matches_reference(forest: &RandomForest, pd: &PartialDependence) {
        assert_eq!(pd.grid.len(), pd.response.len());
        for (&v, &r) in pd.grid.iter().zip(&pd.response) {
            let want = average_prediction(forest, pd.feature, v);
            assert_eq!(
                r.to_bits(),
                want.to_bits(),
                "feature {} at {v}: {r} vs reference {want}",
                pd.feature
            );
        }
    }

    /// Three features with interacting effects, so every tree splits on
    /// each feature at several depths.
    fn interacting_forest(seed: u64, strategy: SplitStrategy) -> RandomForest {
        let x: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                vec![
                    (i % 15) as f64 * 0.7,
                    ((i * 7) % 11) as f64,
                    ((i * 13) % 17) as f64 - 8.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| r[0] * r[1] + (r[2] * 0.5).sin() * 10.0 + if r[1] > 5.0 { r[2] } else { 0.0 })
            .collect();
        let params = ForestParams::default()
            .with_trees(40)
            .with_seed(seed)
            .with_split_strategy(strategy);
        RandomForest::fit(&x, &y, &params).unwrap()
    }

    fn forests() -> Vec<RandomForest> {
        vec![
            interacting_forest(31, SplitStrategy::Exact),
            interacting_forest(32, SplitStrategy::Exact),
            interacting_forest(33, SplitStrategy::Histogram { max_bins: 8 }),
            fit_monotone(true),
        ]
    }

    #[test]
    fn single_walk_matches_per_value_reference_bit_for_bit() {
        for forest in forests() {
            for feature in 0..forest.n_features() {
                for grid_size in [1, 2, 3, 16, 40] {
                    let pd = PartialDependence::compute(&forest, feature, grid_size);
                    assert_matches_reference(&forest, &pd);
                }
            }
        }
    }

    #[test]
    fn observed_grid_matches_per_value_reference_bit_for_bit() {
        for forest in forests() {
            for feature in 0..forest.n_features() {
                let pd = PartialDependence::compute_at_observed(&forest, feature);
                assert!(pd.grid.len() > 2);
                assert_matches_reference(&forest, &pd);
            }
        }
    }

    #[test]
    fn grid_values_on_split_thresholds_match_reference() {
        for forest in forests() {
            for feature in 0..forest.n_features() {
                // Every threshold the forest splits this feature at, plus
                // the values either side of it: `v == threshold` must go
                // left exactly as the per-value walk sends it.
                let mut grid: Vec<f64> = forest
                    .trees
                    .iter()
                    .flat_map(|t| t.feature.iter().zip(&t.threshold))
                    .filter(|&(&f, _)| f as usize == feature)
                    .map(|(_, &threshold)| threshold)
                    .flat_map(|t| [t.next_down(), t, t.next_up()])
                    .collect();
                assert!(!grid.is_empty(), "no split on feature {feature}");
                grid.sort_by(|a, b| a.partial_cmp(b).unwrap());
                grid.dedup();
                let pd = PartialDependence::on_grids(&forest, vec![(feature, grid)], 1 << 20);
                assert_matches_reference(&forest, &pd[0]);
            }
        }
    }

    /// `p` features with the response spread across the whole index
    /// range, so with `p > 64` trees split on features that share the top
    /// path bit.
    fn wide_forest(p: usize) -> RandomForest {
        let x: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                (0..p)
                    .map(|j| (((i + 3) * (j * 7 + 5)) % (9 + j % 11)) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| {
                (0..p)
                    .step_by(4)
                    .map(|j| r[j] * (1.5 + (j % 5) as f64))
                    .sum()
            })
            .collect();
        let params = ForestParams::default().with_trees(25).with_seed(35);
        RandomForest::fit(&x, &y, &params).unwrap()
    }

    #[test]
    fn compute_many_matches_per_value_reference_past_64_features() {
        let forest = wide_forest(70);
        let high: Vec<usize> = (63..70)
            .filter(|&f| forest.trees.iter().any(|t| t.feature.contains(&(f as u32))))
            .collect();
        assert!(high.len() >= 2, "too few splits past feature 63: {high:?}");
        // Low and high features, one of them twice, and one past 63 the
        // forest may never split on.
        let mut features = vec![0, high[0], 5, high[1], 0, 69, 40];
        features.extend(&high);
        let many = PartialDependence::compute_many(&forest, &features, 9);
        assert_eq!(many.len(), features.len());
        for (pd, &feature) in many.iter().zip(&features) {
            assert_eq!(pd.feature, feature);
            assert_matches_reference(&forest, pd);
            let one = PartialDependence::compute(&forest, feature, 9);
            assert_eq!(one.grid, pd.grid);
            assert_eq!(one.response, pd.response);
        }
        // Row blocks smaller than the training set change no bit either.
        let curves: Vec<(usize, Vec<f64>)> = many
            .iter()
            .map(|pd| (pd.feature, pd.grid.clone()))
            .collect();
        for block in [1, 7, 79, 80] {
            let blocked = PartialDependence::on_grids(&forest, curves.clone(), block);
            for (b, pd) in blocked.iter().zip(&many) {
                assert_eq!(b.response, pd.response, "block {block}");
            }
        }
    }

    #[test]
    fn constant_column_matches_reference() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 7.0]).collect();
        let y: Vec<f64> = (0..30).map(|i| (i * i) as f64).collect();
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(25).with_seed(34),
        )
        .unwrap();
        for grid_size in [1, 2, 16] {
            let pd = PartialDependence::compute(&forest, 1, grid_size);
            assert_eq!(pd.grid, vec![7.0]);
            assert_matches_reference(&forest, &pd);
        }
        let pd = PartialDependence::compute_at_observed(&forest, 1);
        assert_eq!(pd.grid, vec![7.0]);
        assert_matches_reference(&forest, &pd);
    }

    fn fit_monotone(increasing: bool) -> RandomForest {
        let x: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![i as f64, ((i * 13) % 7) as f64])
            .collect();
        let y: Vec<f64> = (0..80)
            .map(|i| {
                if increasing {
                    3.0 * i as f64
                } else {
                    240.0 - 3.0 * i as f64
                }
            })
            .collect();
        RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(60).with_seed(21),
        )
        .unwrap()
    }

    #[test]
    fn increasing_signal_yields_increasing_trend() {
        let f = fit_monotone(true);
        let pd = PartialDependence::compute(&f, 0, 20);
        assert_eq!(pd.trend(), Trend::Increasing);
        assert!(pd.correlation() > 0.95);
    }

    #[test]
    fn decreasing_signal_yields_decreasing_trend() {
        let f = fit_monotone(false);
        let pd = PartialDependence::compute(&f, 0, 20);
        assert_eq!(pd.trend(), Trend::Decreasing);
        assert!(pd.correlation() < -0.95);
    }

    #[test]
    fn irrelevant_feature_is_flat_or_weak() {
        let f = fit_monotone(true);
        let pd = PartialDependence::compute(&f, 1, 10);
        // Feature 1 carries no signal; the curve's span should be tiny
        // compared to the response range (0..237).
        let span = pd
            .response
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            - pd.response.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(span < 30.0, "span {span}");
    }

    #[test]
    fn grid_spans_training_range() {
        let f = fit_monotone(true);
        let pd = PartialDependence::compute(&f, 0, 11);
        assert_eq!(pd.grid.len(), 11);
        assert!((pd.grid[0] - 0.0).abs() < 1e-12);
        assert!((pd.grid[10] - 79.0).abs() < 1e-12);
    }

    #[test]
    fn observed_grid_dedups_and_sorts() {
        let x = vec![
            vec![3.0],
            vec![1.0],
            vec![3.0],
            vec![2.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![1.0],
            vec![2.0],
            vec![1.0],
            vec![3.0],
            vec![2.0],
        ];
        let y = vec![3.0, 1.0, 3.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 3.0, 2.0];
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default()
                .with_trees(30)
                .with_seed(22)
                .with_mtry(1),
        )
        .unwrap();
        let pd = PartialDependence::compute_at_observed(&f, 0);
        assert_eq!(pd.grid, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn constant_feature_gives_single_point_flat() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 7.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(20).with_seed(23),
        )
        .unwrap();
        let pd = PartialDependence::compute(&f, 1, 10);
        assert_eq!(pd.grid.len(), 1);
        assert_eq!(pd.trend(), Trend::Flat);
    }

    #[test]
    fn response_stays_within_training_bounds() {
        let f = fit_monotone(true);
        let pd = PartialDependence::compute(&f, 0, 25);
        for &r in &pd.response {
            assert!((0.0..=237.0 + 1e-9).contains(&r));
        }
    }
}
