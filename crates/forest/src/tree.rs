//! CART regression trees.
//!
//! Trees are grown exactly as §4.1.1 of the paper describes: greedy recursive
//! binary splitting on the sum-of-squares criterion, stopping at a minimum
//! node size (default 5), **unpruned** — the forest's averaging supplies the
//! variance reduction that pruning would otherwise have to.
//!
//! A tree is three parallel arrays with one slot per node, in the order the
//! builder creates the nodes (the root first, and each split's two children
//! appended together, so they sit in adjacent slots after their parent):
//!
//! * `feature[i]` — the splitting variable, or `LEAF` for a terminal;
//! * `threshold[i]` — the split point, or a terminal's value;
//! * `left[i]` — the left child's slot (the right child is `left[i] + 1`),
//!   or the number of training samples in a terminal's region.
//!
//! This is the only layout after fitting: prediction, out-of-bag error,
//! permutation importance and partial dependence all descend the same
//! arrays. A step is `next = left + (value goes right)`, with no enum match
//! and no load of a right index. Routing is written `!(x <= threshold)`, so
//! NaN goes right.
//!
//! Bundles store a tree as a list of `Internal`/`Leaf` nodes (see
//! `Node`). Reading one refuses a malformed tree — no nodes, a child out
//! of range or not after its parent, a right child that is not `left + 1`,
//! or a split on a feature the tree does not have — since a cycle would
//! make every walk loop forever and a bad index would panic it.

use crate::split::{best_split_on_feature, partition_indices, SplitScratch};
use rand::prelude::*;
use serde::{Deserialize, Error, Serialize, Value};

/// Sentinel in `feature[]` marking a terminal node.
pub(crate) const LEAF: u32 = u32::MAX;

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    /// Splitting variable per node; [`LEAF`] for terminals.
    pub(crate) feature: Vec<u32>,
    /// Split point per internal node; the value of a terminal.
    pub(crate) threshold: Vec<f64>,
    /// Left-child slot per internal node (the right child is `left + 1`);
    /// the training-sample count of a terminal.
    pub(crate) left: Vec<u32>,
    n_features: usize,
    /// Per-feature total sum-of-squares improvement contributed by splits on
    /// that feature (impurity importance).
    pub(crate) impurity_importance: Vec<f64>,
}

/// One node as bundles store it: the JSON shape trees have always been
/// written in, so bundle bytes do not depend on the in-memory layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    /// Internal node: route to `left` if `x[feature] <= threshold`, else to
    /// `right`.
    Internal {
        /// Splitting variable.
        feature: u32,
        /// Split point.
        threshold: f64,
        /// Index of the left child.
        left: u32,
        /// Index of the right child.
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
    /// Slot to fill in with this node.
    slot: usize,
}

impl RegressionTree {
    /// A tree of one placeholder leaf, the root, which a builder then fills
    /// with [`Self::set_leaf`] or [`Self::split`].
    pub(crate) fn with_root(n_features: usize) -> RegressionTree {
        RegressionTree {
            feature: vec![LEAF],
            threshold: vec![0.0],
            left: vec![0],
            n_features,
            impurity_importance: vec![0.0; n_features],
        }
    }

    /// Makes `slot` a terminal with `value` over `count` training samples.
    pub(crate) fn set_leaf(&mut self, slot: usize, value: f64, count: usize) {
        self.threshold[slot] = value;
        self.left[slot] = count as u32;
    }

    /// Makes `slot` a split on `feature` at `threshold`, credits
    /// `improvement` to the feature's impurity importance, and appends the
    /// two children as placeholder leaves. Returns the left child's slot.
    pub(crate) fn split(
        &mut self,
        slot: usize,
        feature: usize,
        threshold: f64,
        improvement: f64,
    ) -> usize {
        let left = self.feature.len();
        self.feature[slot] = feature as u32;
        self.threshold[slot] = threshold;
        self.left[slot] = left as u32;
        self.impurity_importance[feature] += improvement;
        self.feature.extend([LEAF, LEAF]);
        self.threshold.extend([0.0, 0.0]);
        self.left.extend([0, 0]);
        left
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
        let mut tree = RegressionTree::with_root(n_features);
        let mut indices: Vec<u32> = idx.to_vec();
        let mut scratch = SplitScratch::default();
        let mut feature_pool: Vec<usize> = (0..n_features).collect();

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
                None => tree.set_leaf(item.slot, mean, n),
                Some(split) => {
                    let boundary = item.start
                        + partition_indices(
                            &columns[split.feature],
                            split.threshold,
                            &mut indices[item.start..item.end],
                        );
                    debug_assert!(boundary > item.start && boundary < item.end);
                    let left =
                        tree.split(item.slot, split.feature, split.threshold, split.improvement);
                    stack.push(BuildItem {
                        start: item.start,
                        end: boundary,
                        depth: item.depth + 1,
                        slot: left,
                    });
                    stack.push(BuildItem {
                        start: boundary,
                        end: item.end,
                        depth: item.depth + 1,
                        slot: left + 1,
                    });
                }
            }
        }
        tree
    }

    /// Convenience fit over the full training set (row-major input).
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &TreeParams, rng: &mut impl Rng) -> Self {
        let columns = rows_to_columns(x);
        let idx: Vec<u32> = (0..y.len() as u32).collect();
        Self::fit_on_indices(&columns, y, &idx, params, rng)
    }

    /// The slot reached from split `at` when its feature reads `x`.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must route right
    fn child(&self, at: usize, x: f64) -> usize {
        self.left[at] as usize + !(x <= self.threshold[at]) as usize
    }

    /// The leaf slot a walk from the root reaches when each split on
    /// feature `f` reads `value(f)`.
    #[inline]
    fn descend(&self, mut value: impl FnMut(usize) -> f64) -> usize {
        let mut at = 0;
        loop {
            let f = self.feature[at];
            if f == LEAF {
                return at;
            }
            at = self.child(at, value(f as usize));
        }
    }

    /// Predicts the response for a single feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.threshold[self.descend(|f| row[f])]
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
        self.threshold[self.descend(|f| match override_feature {
            Some((of, ov)) if of == f => ov,
            _ => columns[f][i],
        })]
    }

    /// The leaf value for sample `i` of column-major data, plus the
    /// [`path_bit`]s of every feature split on along its path.
    ///
    /// Overriding a feature whose bit is absent from the mask cannot change
    /// the walk, so [`Self::predict_columns`] with that override returns
    /// the same leaf value.
    pub(crate) fn leaf_and_path(&self, columns: &[Vec<f64>], i: usize) -> (f64, u64) {
        let mut path = 0u64;
        let leaf = self.descend(|f| {
            path |= path_bit(f);
            columns[f][i]
        });
        (self.threshold[leaf], path)
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
            let f = self.feature[at];
            if f == LEAF {
                for a in acc.iter_mut() {
                    *a += self.threshold[at];
                }
                return;
            }
            let f = f as usize;
            if f == feature {
                let threshold = self.threshold[at];
                let k = grid.partition_point(|&v| v <= threshold);
                let (acc_left, acc_right) = std::mem::take(&mut acc).split_at_mut(k);
                let left = self.left[at] as usize;
                self.accumulate_grid_from(left, columns, i, feature, &grid[..k], acc_left);
                grid = &grid[k..];
                acc = acc_right;
                at = left + 1;
            } else {
                at = self.child(at, columns[f][i]);
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.feature.iter().filter(|&&f| f == LEAF).count()
    }

    /// Maximum depth of the tree (root = 0). Children follow their parent,
    /// so one forward pass sees every parent's depth before its children's.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0; self.feature.len()];
        for at in 0..self.feature.len() {
            if self.feature[at] != LEAF {
                let left = self.left[at] as usize;
                depth[left] = depth[at] + 1;
                depth[left + 1] = depth[at] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Node `at` in its bundle form.
    pub(crate) fn node(&self, at: usize) -> Node {
        match self.feature[at] {
            LEAF => Node::Leaf {
                value: self.threshold[at],
                count: self.left[at],
            },
            feature => Node::Internal {
                feature,
                threshold: self.threshold[at],
                left: self.left[at],
                right: self.left[at] + 1,
            },
        }
    }

    /// Builds a tree from its bundle form, refusing one whose walks could
    /// loop or index out of bounds.
    pub(crate) fn from_nodes(
        nodes: &[Node],
        n_features: usize,
        impurity_importance: Vec<f64>,
    ) -> Result<RegressionTree, String> {
        if nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        let mut tree = RegressionTree {
            feature: Vec::with_capacity(nodes.len()),
            threshold: Vec::with_capacity(nodes.len()),
            left: Vec::with_capacity(nodes.len()),
            n_features,
            impurity_importance,
        };
        for (at, node) in nodes.iter().enumerate() {
            let (feature, threshold, left) = match *node {
                Node::Leaf { value, count } => (LEAF, value, count),
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if feature as usize >= n_features {
                        return Err(format!(
                            "node {at} splits on feature {feature} of {n_features}"
                        ));
                    }
                    if u64::from(right) != u64::from(left) + 1 {
                        return Err(format!(
                            "node {at}: right child {right} is not left child {left} + 1"
                        ));
                    }
                    if left as usize <= at || right as usize >= nodes.len() {
                        return Err(format!(
                            "node {at}: children {left} and {right} must lie after it, \
                             within the tree's {} nodes",
                            nodes.len()
                        ));
                    }
                    (feature, threshold, left)
                }
            };
            tree.feature.push(feature);
            tree.threshold.push(threshold);
            tree.left.push(left);
        }
        Ok(tree)
    }
}

impl Serialize for RegressionTree {
    fn serialize_value(&self) -> Value {
        let nodes = (0..self.feature.len())
            .map(|at| self.node(at).serialize_value())
            .collect();
        Value::Map(vec![
            ("nodes".into(), Value::Seq(nodes)),
            ("n_features".into(), self.n_features.serialize_value()),
            (
                "impurity_importance".into(),
                self.impurity_importance.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for RegressionTree {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let nodes = Vec::<Node>::deserialize_value(v.field("nodes"))?;
        RegressionTree::from_nodes(
            &nodes,
            Deserialize::deserialize_value(v.field("n_features"))?,
            Deserialize::deserialize_value(v.field("impurity_importance"))?,
        )
        .map_err(Error)
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

    /// Decodes a two-feature tree from its bundle JSON nodes.
    fn decode(nodes: &str) -> Result<RegressionTree, String> {
        let json =
            format!(r#"{{"nodes":[{nodes}],"n_features":2,"impurity_importance":[0.0,0.0]}}"#);
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }

    /// A root split on `feature` with children `left`/`right`, then two leaves.
    fn stump(feature: u32, left: u32, right: u32) -> String {
        format!(
            r#"{{"Internal":{{"feature":{feature},"threshold":0.5,"left":{left},"right":{right}}}}},
               {{"Leaf":{{"value":1.0,"count":3}}}},{{"Leaf":{{"value":2.0,"count":4}}}}"#
        )
    }

    fn refused(nodes: &str, why: &str) {
        let err = decode(nodes).unwrap_err();
        assert!(err.contains(why), "{err}");
    }

    #[test]
    fn well_formed_tree_decodes_and_walks() {
        let t = decode(&stump(1, 1, 2)).unwrap();
        assert_eq!((t.node_count(), t.leaf_count(), t.depth()), (3, 2, 1));
        assert_eq!(t.predict_row(&[9.0, 0.0]), 1.0);
        assert_eq!(t.predict_row(&[9.0, f64::NAN]), 2.0);
    }

    #[test]
    fn tree_without_nodes_is_refused() {
        refused("", "no nodes");
    }

    #[test]
    fn child_pointing_back_at_its_parent_is_refused() {
        // Would loop forever: the root's left child is the root.
        refused(
            &stump(0, 0, 1),
            "node 0: children 0 and 1 must lie after it",
        );
    }

    #[test]
    fn child_past_the_last_node_is_refused() {
        refused(&stump(0, 999_999, 1_000_000), "within the tree's 3 nodes");
    }

    #[test]
    fn right_child_not_next_to_left_is_refused() {
        refused(&stump(0, 1, 3), "right child 3 is not left child 1 + 1");
    }

    #[test]
    fn split_on_a_missing_feature_is_refused() {
        refused(&stump(2, 1, 2), "node 0 splits on feature 2 of 2");
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
