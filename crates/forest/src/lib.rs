//! Random-forest regression for BlackForest.
//!
//! This crate is a from-scratch implementation of the modeling core of the
//! paper: Breiman-style random forests of CART regression trees, with the two
//! interpretation tools the methodology leans on —
//!
//! * **permutation variable importance** (increase in out-of-bag MSE when one
//!   predictor's OOB values are shuffled, computed tree-by-tree as the forest
//!   is constructed, exactly as R's `randomForest` does), and
//! * **partial dependence** (the marginal effect of one predictor on the
//!   average prediction).
//!
//! A fitted tree has one layout, which every walk reads: parallel
//! `feature` / `threshold` / `left` arrays in the order the builder grew the
//! nodes, with each split's right child at `left + 1` (see [`tree`]).
//! Prediction ([`RandomForest::predict_batch`] runs one pass per tree over a
//! batch), out-of-bag error, importance and partial dependence all descend
//! those arrays. Serialized forests keep the `Internal`/`Leaf` node-list
//! JSON, and decoding refuses a tree whose walks could loop or index out of
//! bounds.
//!
//! The API mirrors how the paper uses R:
//!
//! ```
//! use bf_forest::{ForestParams, RandomForest};
//!
//! // 100 observations of 3 predictors; y depends only on the first.
//! let x: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![i as f64, (i % 7) as f64, ((i * 13) % 5) as f64])
//!     .collect();
//! let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 1.0).collect();
//! let params = ForestParams::default().with_seed(7).with_mtry(2);
//! let forest = RandomForest::fit(&x, &y, &params).unwrap();
//! let importance = forest.permutation_importance();
//! assert_eq!(importance.ranking()[0], 0); // predictor 0 dominates
//! assert!(forest.oob_r_squared() > 0.8);
//! ```

// Index-based loops are the clearer idiom throughout this numeric code
// (parallel arrays, in-place matrix updates), so the pedantic lint is off.
#![allow(clippy::needless_range_loop)]

pub mod binned;
pub mod forest;
pub mod importance;
pub mod partial;
#[cfg(test)]
mod reference;
pub mod split;
pub mod tree;

pub use binned::BinnedDataset;
pub use forest::{ForestParams, RandomForest, SplitStrategy};
pub use importance::VariableImportance;
pub use partial::PartialDependence;
pub use tree::RegressionTree;

/// Errors produced while fitting or querying forests.
#[derive(Debug, Clone, PartialEq)]
pub enum ForestError {
    /// The training set was empty or features/response lengths disagree.
    BadTrainingData(String),
    /// A query row had the wrong number of features.
    BadQuery {
        /// Number of features the model was trained with.
        expected: usize,
        /// Number of features supplied.
        got: usize,
    },
    /// Parameters out of range (e.g. zero trees).
    BadParams(String),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::BadTrainingData(msg) => write!(f, "bad training data: {msg}"),
            ForestError::BadQuery { expected, got } => {
                write!(f, "query has {got} features, model expects {expected}")
            }
            ForestError::BadParams(msg) => write!(f, "bad parameters: {msg}"),
        }
    }
}

impl std::error::Error for ForestError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ForestError>;
