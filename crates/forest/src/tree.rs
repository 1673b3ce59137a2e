//! CART regression trees.
//!
//! Trees are grown exactly as §4.1.1 of the paper describes: greedy recursive
//! binary splitting on the sum-of-squares criterion, stopping at a minimum
//! node size (default 5), **unpruned** — the forest's averaging supplies the
//! variance reduction that pruning would otherwise have to.
//!
//! Storage is a flat arena of nodes (no boxes, no recursion on drop), which
//! keeps trees compact and prediction cache-friendly.

use crate::split::{best_split_on_feature, partition_indices, SplitScratch};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// One node in the flat tree arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal node: route to `left` if `x[feature] <= threshold`, else to
    /// `left + 1`'s sibling stored in `right`.
    Internal {
        /// Splitting variable.
        feature: u32,
        /// Split point.
        threshold: f64,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
    /// Terminal node carrying the constant prediction (mean of its region).
    Leaf {
        /// Region mean — the `c_m` of the paper's Eq. (1).
        value: f64,
        /// Number of training samples in the region.
        count: u32,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Per-feature total sum-of-squares improvement contributed by splits on
    /// that feature (impurity importance).
    pub(crate) impurity_importance: Vec<f64>,
}

/// Tree-growing parameters (shared with the forest).
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Minimum number of samples in a terminal node (paper: 5).
    pub min_node_size: usize,
    /// Number of candidate features drawn (without replacement) at each node.
    pub mtry: usize,
    /// Optional depth cap; `usize::MAX` grows full trees as RF requires.
    pub max_depth: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            min_node_size: 5,
            mtry: usize::MAX, // "all features" until the forest overrides it
            max_depth: usize::MAX,
        }
    }
}

/// Work item for the explicit-stack tree builder.
struct BuildItem {
    /// Range into the shared index buffer owned by this node.
    start: usize,
    end: usize,
    depth: usize,
    /// Arena slot to fill in with this node.
    slot: usize,
}

impl RegressionTree {
    /// Assembles a tree from a finished node arena (used by the histogram
    /// builder in [`crate::binned`], which shares this storage format).
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        n_features: usize,
        impurity_importance: Vec<f64>,
    ) -> RegressionTree {
        RegressionTree {
            nodes,
            n_features,
            impurity_importance,
        }
    }

    /// Fits a tree on the samples selected by `idx` (indices into the
    /// column-major training data `columns` / response `y`).
    ///
    /// `columns[j][i]` is feature `j` of sample `i`. The index buffer is the
    /// bootstrap sample, so repeated indices are expected.
    pub fn fit_on_indices(
        columns: &[Vec<f64>],
        y: &[f64],
        idx: &[u32],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> RegressionTree {
        let n_features = columns.len();
        let mtry = params.mtry.min(n_features).max(1);
        let mut nodes: Vec<Node> = Vec::new();
        let mut impurity = vec![0.0; n_features];
        let mut indices: Vec<u32> = idx.to_vec();
        let mut scratch = SplitScratch::default();
        let mut feature_pool: Vec<usize> = (0..n_features).collect();

        nodes.push(Node::Leaf {
            value: 0.0,
            count: 0,
        }); // placeholder root
        let mut stack = vec![BuildItem {
            start: 0,
            end: indices.len(),
            depth: 0,
            slot: 0,
        }];

        while let Some(item) = stack.pop() {
            let node_idx = &indices[item.start..item.end];
            let n = node_idx.len();
            let mean = if n == 0 {
                0.0
            } else {
                node_idx.iter().map(|&i| y[i as usize]).sum::<f64>() / n as f64
            };

            let can_split = n >= 2 * params.min_node_size && item.depth < params.max_depth;
            let mut chosen = None;
            if can_split {
                // Draw `mtry` candidate features without replacement via a
                // partial Fisher-Yates over the reusable pool.
                for k in 0..mtry {
                    let pick = rng.random_range(k..n_features);
                    feature_pool.swap(k, pick);
                }
                for &f in &feature_pool[..mtry] {
                    if let Some(s) = best_split_on_feature(
                        f,
                        &columns[f],
                        y,
                        node_idx,
                        params.min_node_size,
                        &mut scratch,
                    ) {
                        if chosen.is_none_or(|c: crate::split::Split| s.improvement > c.improvement)
                        {
                            chosen = Some(s);
                        }
                    }
                }
            }

            match chosen {
                None => {
                    nodes[item.slot] = Node::Leaf {
                        value: mean,
                        count: n as u32,
                    };
                }
                Some(split) => {
                    impurity[split.feature] += split.improvement;
                    let boundary = item.start
                        + partition_indices(
                            &columns[split.feature],
                            split.threshold,
                            &mut indices[item.start..item.end],
                        );
                    debug_assert!(boundary > item.start && boundary < item.end);
                    let left_slot = nodes.len();
                    let right_slot = nodes.len() + 1;
                    nodes.push(Node::Leaf {
                        value: 0.0,
                        count: 0,
                    });
                    nodes.push(Node::Leaf {
                        value: 0.0,
                        count: 0,
                    });
                    nodes[item.slot] = Node::Internal {
                        feature: split.feature as u32,
                        threshold: split.threshold,
                        left: left_slot as u32,
                        right: right_slot as u32,
                    };
                    stack.push(BuildItem {
                        start: item.start,
                        end: boundary,
                        depth: item.depth + 1,
                        slot: left_slot,
                    });
                    stack.push(BuildItem {
                        start: boundary,
                        end: item.end,
                        depth: item.depth + 1,
                        slot: right_slot,
                    });
                }
            }
        }

        RegressionTree {
            nodes,
            n_features,
            impurity_importance: impurity,
        }
    }

    /// Convenience fit over the full training set (row-major input).
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &TreeParams, rng: &mut impl Rng) -> Self {
        let columns = rows_to_columns(x);
        let idx: Vec<u32> = (0..y.len() as u32).collect();
        Self::fit_on_indices(&columns, y, &idx, params, rng)
    }

    /// Predicts the response for a single feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value, .. } => return *value,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Predicts for sample `i` of column-major data, optionally overriding
    /// one feature's value (used by permutation importance without copying
    /// whole rows).
    pub(crate) fn predict_columns(
        &self,
        columns: &[Vec<f64>],
        i: usize,
        override_feature: Option<(usize, f64)>,
    ) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value, .. } => return *value,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let f = *feature as usize;
                    let v = match override_feature {
                        Some((of, ov)) if of == f => ov,
                        _ => columns[f][i],
                    };
                    at = if v <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// The leaf value for sample `i` of column-major data, plus the
    /// [`path_bit`]s of every feature split on along its path.
    ///
    /// Overriding a feature whose bit is absent from the mask cannot change
    /// the walk, so [`Self::predict_columns`] with that override returns
    /// the same leaf value.
    pub(crate) fn leaf_and_path(&self, columns: &[Vec<f64>], i: usize) -> (f64, u64) {
        let mut path = 0u64;
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value, .. } => return (*value, path),
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let f = *feature as usize;
                    path |= path_bit(f);
                    at = if columns[f][i] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Adds to `acc[k]` the prediction for sample `i` of column-major data
    /// with `feature` overridden to `grid[k]`, for every `k` in one walk.
    ///
    /// `grid` must be ascending, so at a split on `feature` the values that
    /// go left (`v <= threshold`) form a prefix: the walk splits the grid
    /// there and follows each part. Every other split reads `columns` as
    /// [`Self::predict_columns`] does, so `acc[k]` gains exactly the leaf
    /// value `predict_columns(columns, i, Some((feature, grid[k])))` returns.
    pub(crate) fn accumulate_grid(
        &self,
        columns: &[Vec<f64>],
        i: usize,
        feature: usize,
        grid: &[f64],
        acc: &mut [f64],
    ) {
        debug_assert_eq!(grid.len(), acc.len());
        self.accumulate_grid_from(0, columns, i, feature, grid, acc);
    }

    fn accumulate_grid_from(
        &self,
        mut at: usize,
        columns: &[Vec<f64>],
        i: usize,
        feature: usize,
        mut grid: &[f64],
        mut acc: &mut [f64],
    ) {
        while !grid.is_empty() {
            match &self.nodes[at] {
                Node::Leaf { value, .. } => {
                    for a in acc.iter_mut() {
                        *a += *value;
                    }
                    return;
                }
                Node::Internal {
                    feature: f,
                    threshold,
                    left,
                    right,
                } => {
                    let f = *f as usize;
                    if f == feature {
                        let k = grid.partition_point(|&v| v <= *threshold);
                        let (acc_left, acc_right) = std::mem::take(&mut acc).split_at_mut(k);
                        self.accumulate_grid_from(
                            *left as usize,
                            columns,
                            i,
                            feature,
                            &grid[..k],
                            acc_left,
                        );
                        grid = &grid[k..];
                        acc = acc_right;
                        at = *right as usize;
                    } else {
                        at = if columns[f][i] <= *threshold {
                            *left as usize
                        } else {
                            *right as usize
                        };
                    }
                }
            }
        }
    }

    /// Borrow the node arena (used by the level-order batch layout in
    /// [`crate::flat`]).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth of the tree (root = 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize, d: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => d,
                Node::Internal { left, right, .. } => {
                    walk(nodes, *left as usize, d + 1).max(walk(nodes, *right as usize, d + 1))
                }
            }
        }
        walk(&self.nodes, 0, 0)
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// A feature's bit in a path mask from [`RegressionTree::leaf_and_path`].
/// Features 63 and above share the top bit, so a mask that has it may or
/// may not contain a given such feature, and only a full walk can tell.
pub(crate) fn path_bit(feature: usize) -> u64 {
    1 << feature.min(63)
}

/// Transposes row-major observations into column-major storage, the layout
/// the split search wants.
pub fn rows_to_columns(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if x.is_empty() {
        return Vec::new();
    }
    let p = x[0].len();
    let mut cols = vec![Vec::with_capacity(x.len()); p];
    for row in x {
        for (c, &v) in cols.iter_mut().zip(row.iter()) {
            c.push(v);
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 9.0 }).collect();
        (x, y)
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = step_data();
        let mut rng = StdRng::seed_from_u64(1);
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        assert!((t.predict_row(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[33.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_is_in_training_range() {
        let (x, y) = step_data();
        let mut rng = StdRng::seed_from_u64(2);
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        for q in [-100.0, 0.0, 19.5, 100.0] {
            let p = t.predict_row(&[q]);
            assert!((1.0..=9.0).contains(&p));
        }
    }

    #[test]
    fn constant_response_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![4.0; 20];
        let mut rng = StdRng::seed_from_u64(3);
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        assert!((t.predict_row(&[5.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_node_size_bounds_leaf_population() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let params = TreeParams {
            min_node_size: 8,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&x, &y, &params, &mut rng);
        // With min size 8 on 64 points we can have at most 8 leaves.
        assert!(t.leaf_count() <= 8);
    }

    #[test]
    fn max_depth_caps_tree() {
        let x: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let params = TreeParams {
            min_node_size: 1,
            max_depth: 3,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&x, &y, &params, &mut rng);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn impurity_importance_credits_informative_feature() {
        // Feature 0 drives y; feature 1 is noise.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, ((i * 37) % 11) as f64])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| (i / 10) as f64).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        assert!(t.impurity_importance[0] > t.impurity_importance[1]);
    }

    #[test]
    fn two_feature_interaction_is_partitioned() {
        // y = 10 when both features above their midpoints.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                x.push(vec![a as f64, b as f64]);
                y.push(if a >= 4 && b >= 4 { 10.0 } else { 0.0 });
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let params = TreeParams {
            min_node_size: 2,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&x, &y, &params, &mut rng);
        assert!(t.predict_row(&[6.0, 6.0]) > 7.0);
        assert!(t.predict_row(&[1.0, 6.0]) < 3.0);
        assert!(t.predict_row(&[6.0, 1.0]) < 3.0);
    }

    #[test]
    fn bootstrap_indices_with_repeats_work() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let columns = rows_to_columns(&x);
        let idx = vec![0u32, 0, 1, 1, 5, 5, 9, 9, 9, 9];
        let mut rng = StdRng::seed_from_u64(8);
        let t = RegressionTree::fit_on_indices(
            &columns,
            &y,
            &idx,
            &TreeParams {
                min_node_size: 2,
                ..TreeParams::default()
            },
            &mut rng,
        );
        // Prediction near 18 for the repeated high point.
        assert!(t.predict_row(&[9.0]) > 10.0);
    }

    #[test]
    fn rows_to_columns_transposes() {
        let x = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let cols = rows_to_columns(&x);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], vec![1.0, 3.0, 5.0]);
        assert_eq!(cols[1], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn predict_columns_override_redirects_routing() {
        let (x, y) = step_data();
        let mut rng = StdRng::seed_from_u64(9);
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng);
        let columns = rows_to_columns(&x);
        let lo = t.predict_columns(&columns, 0, None);
        let hi = t.predict_columns(&columns, 0, Some((0, 35.0)));
        assert!((lo - 1.0).abs() < 1e-9);
        assert!((hi - 9.0).abs() < 1e-9);
    }
}
