//! The arena layout trees had before they became flat arrays, kept as the
//! test reference: a `Vec` of [`Node`]s, walked by matching each node, and
//! serialized by derive. A proptest grows forests with both split
//! strategies, on more than 63 features too (where path masks share their
//! top bit), and checks every walk of [`RegressionTree`] against the arena
//! bit for bit, NaN inputs included. It also checks that a forest
//! serializes byte for byte as its arena would, and loads back unchanged.

use crate::forest::{ForestParams, RandomForest, SplitStrategy};
use crate::tree::{path_bit, Node, RegressionTree, LEAF};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;

#[derive(Serialize)]
struct ArenaTree {
    nodes: Vec<Node>,
    n_features: usize,
    impurity_importance: Vec<f64>,
}

impl ArenaTree {
    fn from_tree(tree: &RegressionTree) -> ArenaTree {
        let nodes = (0..tree.node_count())
            .map(|i| {
                if tree.feature[i] == LEAF {
                    Node::Leaf {
                        value: tree.threshold[i],
                        count: tree.left[i],
                    }
                } else {
                    Node::Internal {
                        feature: tree.feature[i],
                        threshold: tree.threshold[i],
                        left: tree.left[i],
                        right: tree.left[i] + 1,
                    }
                }
            })
            .collect();
        ArenaTree {
            nodes,
            n_features: tree.n_features(),
            impurity_importance: tree.impurity_importance.clone(),
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_with(|f| row[f])
    }

    fn predict_columns(
        &self,
        columns: &[Vec<f64>],
        i: usize,
        override_feature: Option<(usize, f64)>,
    ) -> f64 {
        self.predict_with(|f| match override_feature {
            Some((of, ov)) if of == f => ov,
            _ => columns[f][i],
        })
    }

    fn predict_with(&self, value: impl Fn(usize) -> f64) -> f64 {
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
                    at = if value(*feature as usize) <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    fn leaf_and_path(&self, columns: &[Vec<f64>], i: usize) -> (f64, u64) {
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

    /// Adds each grid value's prediction to `acc`, one walk per value.
    fn accumulate_grid(
        &self,
        columns: &[Vec<f64>],
        i: usize,
        feature: usize,
        grid: &[f64],
        acc: &mut [f64],
    ) {
        for (a, &v) in acc.iter_mut().zip(grid) {
            *a += self.predict_columns(columns, i, Some((feature, v)));
        }
    }
}

/// The forest's serialized fields, with each tree as its arena.
#[derive(Serialize)]
struct ArenaForest {
    trees: Vec<ArenaTree>,
    oob_indices: Vec<Vec<u32>>,
    columns: Vec<Vec<f64>>,
    y: Vec<f64>,
    params: ForestParams,
    n_features: usize,
    tree_seeds: Vec<u64>,
}

impl ArenaForest {
    fn from_forest(forest: &RandomForest) -> ArenaForest {
        ArenaForest {
            trees: forest.trees.iter().map(ArenaTree::from_tree).collect(),
            oob_indices: forest.oob_indices.clone(),
            columns: forest.columns.clone(),
            y: forest.y.clone(),
            params: forest.params,
            n_features: forest.n_features,
            tree_seeds: forest.tree_seeds.clone(),
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
        sum / self.trees.len() as f64
    }
}

/// `rows` × `p` features of few distinct values (so splits land on shared
/// thresholds), and a response that reads features across the whole index
/// range.
fn data(rows: usize, p: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..p)
                .map(|j| rng.random_range(0..(3 + j % 9)) as f64 * 0.5)
                .collect()
        })
        .collect();
    let y = x
        .iter()
        .map(|r| {
            (0..p)
                .step_by(3)
                .map(|j| r[j] * (1.0 + (j % 4) as f64))
                .sum::<f64>()
                + (r[p - 1] * 1.3).sin() * 3.0
        })
        .collect();
    (x, y)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_walk_and_the_encoding_match_the_arena_reference(
        wide in any::<bool>(),
        rows in 24usize..70,
        seed in 0u64..10_000,
        max_bins in prop_oneof![Just(0usize), 3usize..12, Just(256usize)],
    ) {
        let p = if wide { 64 + seed as usize % 8 } else { 2 + seed as usize % 5 };
        let (x, y) = data(rows, p, seed);
        let strategy = match max_bins {
            0 => SplitStrategy::Exact,
            max_bins => SplitStrategy::Histogram { max_bins },
        };
        let params = ForestParams::default()
            .with_trees(8)
            .with_seed(seed)
            .with_split_strategy(strategy);
        let forest = RandomForest::fit(&x, &y, &params).unwrap();
        let arena = ArenaForest::from_forest(&forest);
        let columns = &forest.columns;

        // Queries: the training rows, then copies with NaN in each feature
        // in turn and values past both ends of every column.
        let mut queries = x.clone();
        for f in 0..p {
            let mut q = x[f % rows].clone();
            q[f] = f64::NAN;
            queries.push(q);
        }
        queries.push(vec![-1e9; p]);
        queries.push(vec![1e9; p]);
        queries.push(vec![f64::NAN; p]);

        for (tree, reference) in forest.trees.iter().zip(&arena.trees) {
            for q in &queries {
                prop_assert_eq!(tree.predict_row(q).to_bits(), reference.predict_row(q).to_bits());
            }
            for i in 0..rows {
                prop_assert_eq!(
                    tree.predict_columns(columns, i, None).to_bits(),
                    reference.predict_columns(columns, i, None).to_bits()
                );
                let (leaf, path) = tree.leaf_and_path(columns, i);
                let (ref_leaf, ref_path) = reference.leaf_and_path(columns, i);
                prop_assert_eq!((leaf.to_bits(), path), (ref_leaf.to_bits(), ref_path));
                for f in 0..p {
                    let mut grid: Vec<f64> = columns[f].clone();
                    grid.extend([-1e9, 1e9]);
                    grid.sort_by(f64::total_cmp);
                    grid.dedup();
                    for &v in grid.iter().chain(&[f64::NAN]) {
                        prop_assert_eq!(
                            tree.predict_columns(columns, i, Some((f, v))).to_bits(),
                            reference.predict_columns(columns, i, Some((f, v))).to_bits()
                        );
                    }
                    let mut acc = vec![0.0; grid.len()];
                    let mut ref_acc = vec![0.0; grid.len()];
                    tree.accumulate_grid(columns, i, f, &grid, &mut acc);
                    reference.accumulate_grid(columns, i, f, &grid, &mut ref_acc);
                    prop_assert_eq!(bits(&acc), bits(&ref_acc));
                }
            }
        }

        let batch = forest.predict_batch(&queries).unwrap();
        let by_row: Vec<f64> = queries.iter().map(|q| forest.predict_row(q).unwrap()).collect();
        let reference: Vec<f64> = queries.iter().map(|q| arena.predict_row(q)).collect();
        prop_assert_eq!(bits(&batch), bits(&reference));
        prop_assert_eq!(bits(&by_row), bits(&reference));

        let json = serde_json::to_string(&forest).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&arena).unwrap());
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back.trees, &forest.trees);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
