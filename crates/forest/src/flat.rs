//! Level-order flat tree layout for batched prediction.
//!
//! [`RegressionTree`]'s arena stores children wherever the depth-first
//! builder happened to push them, and every node is an enum that must be
//! matched per step. That is fine for one row at a time but leaves easy
//! throughput on the table when many rows traverse the same forest: the
//! branch on the node kind and the pointer-chasing through `left`/`right`
//! dominate, and each tree's nodes are revisited once per row in an order
//! that thrashes the cache.
//!
//! [`FlatForest`] recompiles each fitted tree once into a structure-of-arrays
//! layout in **level order** (breadth-first), with the two children of every
//! internal node adjacent:
//!
//! * `feature[i]` — splitting variable, or [`LEAF`] for terminals;
//! * `threshold[i]` — split point, or the leaf value for terminals;
//! * `left[i]` — index of the left child; the right child is `left[i] + 1`.
//!
//! Traversal needs no enum match and no `right` load: `next = left +
//! (value goes right)`. Prediction then runs **one pass per tree over the
//! whole batch**, so a tree's (compact, contiguous) arrays stay hot across
//! all rows before the next tree is touched.
//!
//! The routing predicate is written `!(x <= threshold)` — not `x > threshold`
//! — so NaN inputs take the same (right) branch the arena walker's `if x <=
//! threshold { left } else { right }` takes, and the accumulation loop adds
//! tree values in exactly the order [`RandomForest::predict_row`] sums them.
//! Batched predictions are therefore **bit-identical** to row-by-row
//! predictions, which the tests in this module and the serving stack's
//! equality suite pin.

use crate::forest::RandomForest;
use crate::tree::{Node, RegressionTree};
use crate::{ForestError, Result};
use std::collections::VecDeque;

/// Sentinel in `feature[]` marking a terminal node.
pub const LEAF: u32 = u32::MAX;

/// One tree in structure-of-arrays, level-order form.
#[derive(Debug, Clone)]
struct FlatTree {
    /// Splitting variable per node; [`LEAF`] for terminals.
    feature: Vec<u32>,
    /// Split point per internal node; leaf value for terminals.
    threshold: Vec<f64>,
    /// Left-child index per internal node (right child is `left + 1`);
    /// unused (0) for terminals.
    left: Vec<u32>,
}

impl FlatTree {
    /// Recompiles an arena tree into level order.
    fn compile(tree: &RegressionTree) -> FlatTree {
        let nodes = tree.nodes();
        let mut feature = Vec::with_capacity(nodes.len());
        let mut threshold = Vec::with_capacity(nodes.len());
        let mut left = Vec::with_capacity(nodes.len());

        // Breadth-first walk over the arena. Slots are assigned in pop
        // order; each internal node reserves the next two consecutive slots
        // for its children before enqueueing them, so sibling adjacency
        // holds by construction.
        let mut queue: VecDeque<usize> = VecDeque::with_capacity(nodes.len());
        queue.push_back(0);
        let mut next_slot: u32 = 1;
        while let Some(at) = queue.pop_front() {
            match &nodes[at] {
                Node::Leaf { value, .. } => {
                    feature.push(LEAF);
                    threshold.push(*value);
                    left.push(0);
                }
                Node::Internal {
                    feature: f,
                    threshold: t,
                    left: l,
                    right: r,
                } => {
                    feature.push(*f);
                    threshold.push(*t);
                    left.push(next_slot);
                    next_slot += 2;
                    queue.push_back(*l as usize);
                    queue.push_back(*r as usize);
                }
            }
        }
        FlatTree {
            feature,
            threshold,
            left,
        }
    }

    /// Walks one row to its leaf value.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must route right
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            let f = self.feature[at];
            if f == LEAF {
                return self.threshold[at];
            }
            // `!(x <= t)` — not `x > t` — so NaN routes right, exactly as
            // the arena walker's if/else does.
            let go_right = !(row[f as usize] <= self.threshold[at]);
            at = self.left[at] as usize + go_right as usize;
        }
    }
}

/// A forest recompiled for batched prediction.
///
/// Build once per fitted forest (cheap: one breadth-first pass over each
/// tree) and reuse across calls; the serving stack compiles the bundle's
/// reduced forest at startup.
#[derive(Debug, Clone)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
    n_features: usize,
}

impl FlatForest {
    /// Recompiles every tree of a fitted forest into level order.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        FlatForest {
            trees: forest.trees().iter().map(FlatTree::compile).collect(),
            n_features: forest.n_features(),
        }
    }

    /// Number of features the source forest was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Touches every node of every compiled tree in one linear pass and
    /// returns a checksum of the visited layout. The model registry runs
    /// this before publishing a freshly loaded bundle, so the compiled
    /// arrays are faulted into memory (and the checksum recorded as proof
    /// a warm pass happened) before the first live request can reach the
    /// model — a hot swap never pays first-touch cost on the serving path.
    pub fn warm(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        for tree in &self.trees {
            for i in 0..tree.feature.len() {
                acc = acc
                    .wrapping_mul(0x0100_0000_01b3)
                    .wrapping_add(u64::from(tree.feature[i]))
                    .wrapping_add(tree.threshold[i].to_bits())
                    .wrapping_add(u64::from(tree.left[i]));
            }
        }
        acc
    }

    /// Predicts one row — identical result (and bit pattern) to
    /// [`RandomForest::predict_row`].
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

    /// Predicts a batch of rows with one pass per tree over the whole batch.
    ///
    /// Accumulation order per row matches [`RandomForest::predict_row`]
    /// exactly (tree 0, tree 1, …, divide last), so results are
    /// bit-identical to calling `predict_row` on each row.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        for row in rows {
            if row.len() != self.n_features {
                return Err(ForestError::BadQuery {
                    expected: self.n_features,
                    got: row.len(),
                });
            }
        }
        let mut acc = vec![0.0f64; rows.len()];
        for tree in &self.trees {
            for (row, a) in rows.iter().zip(acc.iter_mut()) {
                *a += tree.predict_row(row);
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;

    fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Two informative features plus one noisy one; non-trivial trees.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    i as f64,
                    ((i * 31) % 17) as f64,
                    ((i * 7) % 5) as f64 * 0.25,
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 3.0 * r[1]).collect();
        (x, y)
    }

    fn query_grid() -> Vec<Vec<f64>> {
        // Interior, boundary, and extrapolated points.
        let mut q = Vec::new();
        for i in 0..40 {
            q.push(vec![
                i as f64 * 3.7 - 20.0,
                (i % 19) as f64,
                (i % 3) as f64 * 0.5,
            ]);
        }
        q.push(vec![-1e9, 0.0, 0.0]);
        q.push(vec![1e9, 1e9, 1e9]);
        q
    }

    #[test]
    fn flat_predictions_bit_identical_to_arena_per_row() {
        let (x, y) = training_data(90);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(60).with_seed(21),
        )
        .unwrap();
        let flat = FlatForest::from_forest(&f);
        for q in query_grid() {
            let arena = f.predict_row(&q).unwrap();
            let level = flat.predict_row(&q).unwrap();
            assert_eq!(arena.to_bits(), level.to_bits(), "row {q:?}");
        }
    }

    #[test]
    fn predict_batch_bit_identical_to_row_by_row_predict() {
        let (x, y) = training_data(120);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(80).with_seed(22),
        )
        .unwrap();
        let queries = query_grid();
        let one_by_one = f.predict(&queries).unwrap();
        let batched = FlatForest::from_forest(&f).predict_batch(&queries).unwrap();
        assert_eq!(one_by_one.len(), batched.len());
        for (i, (a, b)) in one_by_one.iter().zip(batched.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn nan_rows_route_identically() {
        let (x, y) = training_data(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(30).with_seed(23),
        )
        .unwrap();
        let q = vec![vec![f64::NAN, 5.0, 0.5], vec![30.0, f64::NAN, f64::NAN]];
        let arena: Vec<f64> = q.iter().map(|r| f.predict_row(r).unwrap()).collect();
        let batched = FlatForest::from_forest(&f).predict_batch(&q).unwrap();
        for (a, b) in arena.iter().zip(batched.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_rejects_wrong_width_rows() {
        let (x, y) = training_data(40);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(10).with_seed(24),
        )
        .unwrap();
        let err = FlatForest::from_forest(&f)
            .predict_batch(&[vec![1.0, 2.0, 3.0], vec![1.0]])
            .unwrap_err();
        assert!(matches!(
            err,
            ForestError::BadQuery {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let (x, y) = training_data(40);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(10).with_seed(25),
        )
        .unwrap();
        assert_eq!(
            FlatForest::from_forest(&f).predict_batch(&[]).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn warm_checksum_is_deterministic_and_layout_sensitive() {
        let (x, y) = training_data(60);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(12).with_seed(27),
        )
        .unwrap();
        let flat = FlatForest::from_forest(&f);
        let a = flat.warm();
        let b = flat.warm();
        assert_eq!(a, b, "warm must be a pure function of the layout");
        assert_eq!(FlatForest::from_forest(&f).warm(), a);
        // A different forest yields a different layout checksum.
        let g = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(12).with_seed(28),
        )
        .unwrap();
        assert_ne!(FlatForest::from_forest(&g).warm(), a);
    }

    #[test]
    fn compile_preserves_node_counts_and_sibling_adjacency() {
        let (x, y) = training_data(80);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams::default().with_trees(20).with_seed(26),
        )
        .unwrap();
        let flat = FlatForest::from_forest(&f);
        assert_eq!(flat.n_trees(), f.n_trees());
        assert_eq!(flat.n_features(), f.n_features());
        for (flat_tree, arena_tree) in flat.trees.iter().zip(f.trees().iter()) {
            assert_eq!(flat_tree.feature.len(), arena_tree.node_count());
            let leaves = flat_tree.feature.iter().filter(|&&f| f == LEAF).count();
            assert_eq!(leaves, arena_tree.leaf_count());
            // Level order: every internal node's children sit at left,
            // left + 1, and child indices strictly exceed the parent's.
            for (i, &f) in flat_tree.feature.iter().enumerate() {
                if f != LEAF {
                    let l = flat_tree.left[i] as usize;
                    assert!(l > i && l + 1 < flat_tree.feature.len());
                }
            }
        }
    }
}
