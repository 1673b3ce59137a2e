//! Regression substrate for BlackForest: GLM and MARS.
//!
//! §4.2 of the paper ("Results interpretation"): after the most influential
//! counters are identified, each is modelled *in terms of the problem and/or
//! machine characteristics* so that predictions can be made from those
//! characteristics alone. For trivial relationships (e.g. counters driven by
//! a single matrix dimension) **generalized linear models** suffice; for
//! nonlinear, interacting relationships (e.g. Needleman-Wunsch) the paper
//! uses **MARS** — multivariate adaptive regression splines (R's `earth`).
//!
//! * [`glm`] — ordinary least squares over arbitrary bases (polynomial and
//!   log terms included), with residual deviance and R² reporting that
//!   matches how the paper judges its counter models ("residual deviance
//!   between 0 and 2.7, except `inst_replay_overhead` … as large as 203").
//! * [`mars`] — Friedman's MARS: forward selection of hinge-function pairs,
//!   then backward pruning on the generalized cross-validation (GCV) score.

// Index-based loops are the clearer idiom throughout this numeric code
// (parallel arrays, in-place matrix updates), so the pedantic lint is off.
#![allow(clippy::needless_range_loop)]

pub mod glm;
pub mod mars;

pub use glm::{Basis, LinearModel, PolynomialModel};
pub use mars::{Mars, MarsParams};

/// Errors produced by the regression fitters.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressError {
    /// Mismatched or empty training data.
    BadTrainingData(String),
    /// The underlying linear solve failed.
    Solve(String),
}

impl std::fmt::Display for RegressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressError::BadTrainingData(msg) => write!(f, "bad training data: {msg}"),
            RegressError::Solve(msg) => write!(f, "linear solve failed: {msg}"),
        }
    }
}

impl std::error::Error for RegressError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RegressError>;
