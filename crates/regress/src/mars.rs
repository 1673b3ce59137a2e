//! MARS — Multivariate Adaptive Regression Splines (Friedman 1991).
//!
//! The model (paper Eq. 4) is `f(x) = Σ c_i B_i(x)` where each basis
//! function `B_i` is the intercept, a hinge `max(0, x_j - c)` /
//! `max(0, c - x_j)`, or a product of hinges (interactions). The fit has two
//! phases:
//!
//! 1. **Forward pass** — greedily add the reflected hinge *pair* (parent
//!    basis × new hinge on a candidate knot) that most reduces the residual
//!    sum of squares, until the term budget is exhausted or the improvement
//!    stalls.
//! 2. **Backward pass** — prune terms one at a time, keeping the subset with
//!    the best generalized cross-validation (GCV) score.
//!
//! This mirrors R's `earth`, which the paper uses for the Needleman-Wunsch
//! counter models ("with average R-squared of 0.99").

use crate::{check_training_set, RegressError, Result};
use bf_linalg::{cholesky::solve_spd_ridge, Matrix};
use serde::{Deserialize, Serialize};

/// One hinge factor `max(0, ±(x_j - knot))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hinge {
    /// Input feature index.
    pub feature: usize,
    /// Knot location `c`.
    pub knot: f64,
    /// `true` for `max(0, x - c)`, `false` for `max(0, c - x)`.
    pub positive: bool,
}

impl Hinge {
    fn eval(&self, row: &[f64]) -> f64 {
        let d = row[self.feature] - self.knot;
        if self.positive {
            d.max(0.0)
        } else {
            (-d).max(0.0)
        }
    }
}

/// A MARS basis function: a product of hinges (empty product = intercept).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasisFunction {
    /// The hinge factors; empty means the constant term.
    pub hinges: Vec<Hinge>,
}

impl BasisFunction {
    fn intercept() -> Self {
        BasisFunction { hinges: Vec::new() }
    }

    fn eval(&self, row: &[f64]) -> f64 {
        self.hinges.iter().map(|h| h.eval(row)).product()
    }

    fn degree(&self) -> usize {
        self.hinges.len()
    }

    fn uses_feature(&self, f: usize) -> bool {
        self.hinges.iter().any(|h| h.feature == f)
    }
}

/// MARS hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarsParams {
    /// Maximum number of basis functions grown in the forward pass
    /// (including the intercept). `earth` default is 21 for small problems.
    pub max_terms: usize,
    /// Maximum interaction degree (1 = additive model, 2 = pairwise).
    pub max_degree: usize,
    /// GCV penalty per knot; Friedman recommends 3 for interactive models,
    /// 2 for additive.
    pub penalty: f64,
    /// Maximum number of candidate knots per feature (evenly spaced
    /// quantiles of the observed values). Caps the forward-pass cost.
    pub max_knots: usize,
    /// Forward pass stops early when RSS improvement falls below this
    /// fraction of the current RSS.
    pub min_improvement: f64,
}

impl Default for MarsParams {
    fn default() -> Self {
        MarsParams {
            max_terms: 21,
            max_degree: 2,
            penalty: 3.0,
            max_knots: 32,
            min_improvement: 1e-4,
        }
    }
}

/// A fitted MARS model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mars {
    /// Retained basis functions (first is always the intercept).
    pub basis: Vec<BasisFunction>,
    /// Coefficients aligned with `basis`.
    pub coefficients: Vec<f64>,
    /// GCV score of the final model.
    pub gcv: f64,
    /// Training R².
    pub train_r_squared: f64,
}

/// Ridge added to every normal-equation solve (see `solve_spd_ridge`).
const RIDGE: f64 = 1e-9;

impl Mars {
    /// Fits a MARS model to row-major observations.
    ///
    /// Every least-squares solve reads its Gram matrix and Xᵀy from the
    /// normal equations of the accepted columns, so a forward candidate
    /// computes only its two new Gram rows and a backward trial none. The
    /// result is bit-identical to refitting each candidate from its columns:
    /// each entry is the same ordered dot product.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &MarsParams) -> Result<Mars> {
        let p = check_training_data(x, y, params)?;
        let n = x.len();
        let knots = candidate_knots(x, p, params.max_knots);

        // Forward pass.
        let mut basis = vec![BasisFunction::intercept()];
        // Column cache: evaluated basis columns over the training set, and
        // their normal equations.
        let mut columns: Vec<Vec<f64>> = vec![vec![1.0; n]];
        let (mut gram, mut xty) = normal_equations(&columns, y);
        let mut pred = vec![0.0; n];
        let mut current_rss = fit_subset(&gram, &xty, &columns, &[0], y, &mut pred)?.1;
        let total_ss = current_rss; // intercept-only RSS == TSS
        let mut col_pos = vec![0.0; n];
        let mut col_neg = vec![0.0; n];

        while basis.len() + 2 <= params.max_terms {
            // The candidate system: the accepted block, bordered by two rows
            // and columns that each candidate rewrites.
            let k = columns.len();
            let accepted: Vec<usize> = (0..k).collect();
            let (mut trial, mut rhs) = block(&gram, &xty, &accepted, 2);
            let mut best: Option<(f64, usize, Hinge, Hinge)> = None;
            for (parent_idx, parent) in basis.iter().enumerate() {
                if parent.degree() >= params.max_degree {
                    continue;
                }
                for f in 0..p {
                    // Standard MARS restriction: a feature appears at most
                    // once per product.
                    if parent.uses_feature(f) {
                        continue;
                    }
                    for &knot in &knots[f] {
                        let pos = Hinge {
                            feature: f,
                            knot,
                            positive: true,
                        };
                        let neg = Hinge {
                            feature: f,
                            knot,
                            positive: false,
                        };
                        // Evaluate the two new columns.
                        let parent_col = &columns[parent_idx];
                        for (i, row) in x.iter().enumerate() {
                            col_pos[i] = parent_col[i] * pos.eval(row);
                            col_neg[i] = parent_col[i] * neg.eval(row);
                        }
                        // Skip degenerate (all-zero) additions.
                        let live_pos = col_pos.iter().any(|&v| v != 0.0);
                        let live_neg = col_neg.iter().any(|&v| v != 0.0);
                        if !live_pos && !live_neg {
                            continue;
                        }
                        let pair = [col_pos.as_slice(), col_neg.as_slice()];
                        let Some(rss) =
                            candidate_rss(&mut trial, &mut rhs, &columns, pair, y, &mut pred)
                        else {
                            continue;
                        };
                        if best.as_ref().is_none_or(|(b_rss, ..)| rss < *b_rss) {
                            best = Some((rss, parent_idx, pos, neg));
                        }
                    }
                }
            }
            let Some((rss, parent_idx, pos, neg)) = best else {
                break;
            };
            let improvement = current_rss - rss;
            if improvement < params.min_improvement * current_rss.max(1e-300) {
                break;
            }
            // Accept the pair.
            let parent = basis[parent_idx].clone();
            for hinge in [pos, neg] {
                let mut b = parent.clone();
                b.hinges.push(hinge);
                let col: Vec<f64> = x.iter().map(|r| b.eval(r)).collect();
                basis.push(b);
                columns.push(col);
            }
            // Accepts are rare next to candidates: rebuild in full.
            (gram, xty) = normal_equations(&columns, y);
            current_rss = rss;
            if current_rss <= 1e-12 * total_ss.max(1e-300) {
                break;
            }
        }

        // Backward pass: prune by GCV.
        let gcv_of = |active: &[usize], pred: &mut [f64]| -> Result<f64> {
            let (_, rss) = fit_subset(&gram, &xty, &columns, active, y, pred)?;
            Ok(gcv_score(rss, active.len(), n, params.penalty))
        };
        let mut active: Vec<usize> = (0..basis.len()).collect();
        let mut best_active = active.clone();
        let mut best_gcv = gcv_of(&active, &mut pred)?;
        while active.len() > 1 {
            // Drop the term (never the intercept) whose removal yields the
            // best GCV.
            let mut round_best: Option<(f64, usize)> = None;
            for (pos, &term) in active.iter().enumerate() {
                if term == 0 {
                    continue; // keep the intercept
                }
                let mut trial = active.clone();
                trial.remove(pos);
                let g = gcv_of(&trial, &mut pred)?;
                if round_best.as_ref().is_none_or(|(bg, _)| g < *bg) {
                    round_best = Some((g, pos));
                }
            }
            let Some((g, pos)) = round_best else { break };
            active.remove(pos);
            if g < best_gcv {
                best_gcv = g;
                best_active = active.clone();
            }
        }

        // Final fit on the surviving subset.
        let (coefficients, rss) = fit_subset(&gram, &xty, &columns, &best_active, y, &mut pred)?;
        let final_basis: Vec<BasisFunction> =
            best_active.iter().map(|&i| basis[i].clone()).collect();
        let train_r_squared = if total_ss == 0.0 {
            1.0
        } else {
            1.0 - rss / total_ss
        };
        Ok(Mars {
            basis: final_basis,
            coefficients,
            gcv: best_gcv,
            train_r_squared,
        })
    }

    /// Predicts the response for one input row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(self.coefficients.iter())
            .map(|(b, &c)| c * b.eval(row))
            .sum()
    }

    /// Predicts a batch of rows.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of basis functions (including the intercept).
    pub fn n_terms(&self) -> usize {
        self.basis.len()
    }
}

/// Validates the training set and parameters; returns the feature count.
fn check_training_data(x: &[Vec<f64>], y: &[f64], params: &MarsParams) -> Result<usize> {
    check_training_set(x, y)?;
    let p = x[0].len();
    if x.iter().any(|r| r.len() != p) {
        return Err(RegressError::BadTrainingData("ragged rows".into()));
    }
    if params.max_knots < 2 {
        return Err(RegressError::BadTrainingData(format!(
            "max_knots must be at least 2, got {}",
            params.max_knots
        )));
    }
    Ok(p)
}

/// Candidate knots per feature: unique observed values, thinned to
/// `max_knots` evenly spaced quantiles.
fn candidate_knots(x: &[Vec<f64>], p: usize, max_knots: usize) -> Vec<Vec<f64>> {
    (0..p)
        .map(|f| {
            let mut vals: Vec<f64> = x.iter().map(|r| r[f]).collect();
            // The inputs are finite (see `check_training_data`).
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vals.dedup();
            if vals.len() > max_knots {
                let m = vals.len();
                (0..max_knots)
                    .map(|k| vals[k * (m - 1) / (max_knots - 1)])
                    .collect()
            } else {
                vals
            }
        })
        .collect()
}

/// `Σ a[i]·b[i]`, summed in index order. Every Gram and Xᵀy entry is this
/// loop, so an entry never depends on which system it is assembled into.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (u, v) in a.iter().zip(b) {
        s += u * v;
    }
    s
}

/// Writes `v` at `(a, b)` and `(b, a)`.
fn set_sym(m: &mut Matrix, a: usize, b: usize, v: f64) {
    m[(a, b)] = v;
    m[(b, a)] = v;
}

/// The Gram matrix `XᵀX` and `Xᵀy` of the given columns.
fn normal_equations(columns: &[Vec<f64>], y: &[f64]) -> (Matrix, Vec<f64>) {
    let k = columns.len();
    let mut gram = Matrix::zeros(k, k);
    for a in 0..k {
        for b in a..k {
            set_sym(&mut gram, a, b, dot(&columns[a], &columns[b]));
        }
    }
    (gram, columns.iter().map(|c| dot(c, y)).collect())
}

/// The sub-system of the terms `idx` (a sub-block of `gram` and the
/// matching entries of `xty`), bordered by `extra` zeroed rows and columns.
fn block(gram: &Matrix, xty: &[f64], idx: &[usize], extra: usize) -> (Matrix, Vec<f64>) {
    let k = idx.len() + extra;
    let mut sub = Matrix::zeros(k, k);
    let mut rhs = vec![0.0; k];
    for (s, &a) in idx.iter().enumerate() {
        for (t, &b) in idx.iter().enumerate() {
            sub[(s, t)] = gram[(a, b)];
        }
        rhs[s] = xty[a];
    }
    (sub, rhs)
}

/// RSS of the least-squares fit of `y` on the accepted `columns` plus the
/// candidate `pair`, or `None` if the solve fails. `trial` and `rhs` hold
/// the accepted block of the normal equations and two spare rows; only the
/// pair's Gram rows and Xᵀy entries are computed, into those rows.
fn candidate_rss(
    trial: &mut Matrix,
    rhs: &mut [f64],
    columns: &[Vec<f64>],
    [pos, neg]: [&[f64]; 2],
    y: &[f64],
    pred: &mut [f64],
) -> Option<f64> {
    let k = columns.len();
    for (a, col) in columns.iter().enumerate() {
        set_sym(trial, a, k, dot(col, pos));
        set_sym(trial, a, k + 1, dot(col, neg));
    }
    set_sym(trial, k, k, dot(pos, pos));
    set_sym(trial, k, k + 1, dot(pos, neg));
    set_sym(trial, k + 1, k + 1, dot(neg, neg));
    rhs[k] = dot(pos, y);
    rhs[k + 1] = dot(neg, y);
    let coef = solve_spd_ridge(trial, rhs, RIDGE).ok()?;
    let cols = columns.iter().map(Vec::as_slice).chain([pos, neg]);
    Some(rss(&coef, cols, y, pred))
}

/// Least-squares fit of `y` on the columns `active`, solved from their
/// sub-block of the normal equations; returns (coefficients, RSS).
fn fit_subset(
    gram: &Matrix,
    xty: &[f64],
    columns: &[Vec<f64>],
    active: &[usize],
    y: &[f64],
    pred: &mut [f64],
) -> Result<(Vec<f64>, f64)> {
    let (sub, rhs) = block(gram, xty, active, 0);
    let coef =
        solve_spd_ridge(&sub, &rhs, RIDGE).map_err(|e| RegressError::Solve(e.to_string()))?;
    let cols = active.iter().map(|&a| columns[a].as_slice());
    let rss = rss(&coef, cols, y, pred);
    Ok((coef, rss))
}

/// RSS of the fit `Σ_a coef[a]·columns[a]` against `y`, using `pred` as
/// scratch. Each row's prediction adds its terms in column order.
fn rss<'a>(
    coef: &[f64],
    columns: impl Iterator<Item = &'a [f64]>,
    y: &[f64],
    pred: &mut [f64],
) -> f64 {
    pred.fill(0.0);
    for (&c, col) in coef.iter().zip(columns) {
        for (p, &v) in pred.iter_mut().zip(col) {
            *p += c * v;
        }
    }
    pred.iter()
        .zip(y)
        .fold(0.0, |acc, (p, o)| acc + (p - o) * (p - o))
}

/// GCV = (RSS / n) / (1 - C(M)/n)² with effective parameters
/// `C(M) = M + penalty * (M - 1) / 2` where `M` is the number of terms.
fn gcv_score(rss: f64, terms: usize, n: usize, penalty: f64) -> f64 {
    let n = n as f64;
    let m = terms as f64;
    let c = m + penalty * (m - 1.0) / 2.0;
    let denom = (1.0 - c / n).max(1e-3);
    (rss / n) / (denom * denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The from-scratch fitter `Mars::fit` must match bit for bit: every
    /// forward candidate and backward trial copies its columns and rebuilds
    /// its Gram matrix and Xᵀy.
    fn reference_fit(x: &[Vec<f64>], y: &[f64], params: &MarsParams) -> Result<Mars> {
        let p = check_training_data(x, y, params)?;
        let n = x.len();
        let knots = candidate_knots(x, p, params.max_knots);

        let mut basis = vec![BasisFunction::intercept()];
        let mut columns: Vec<Vec<f64>> = vec![vec![1.0; n]];
        let mut current_rss = fit_rss(&columns, y)?.1;
        let total_ss = current_rss;

        while basis.len() + 2 <= params.max_terms {
            let mut best: Option<(f64, usize, Hinge, Hinge)> = None;
            for (parent_idx, parent) in basis.iter().enumerate() {
                if parent.degree() >= params.max_degree {
                    continue;
                }
                for f in 0..p {
                    if parent.uses_feature(f) {
                        continue;
                    }
                    for &knot in &knots[f] {
                        let pos = Hinge {
                            feature: f,
                            knot,
                            positive: true,
                        };
                        let neg = Hinge {
                            feature: f,
                            knot,
                            positive: false,
                        };
                        let parent_col = &columns[parent_idx];
                        let mut col_pos = Vec::with_capacity(n);
                        let mut col_neg = Vec::with_capacity(n);
                        for (i, row) in x.iter().enumerate() {
                            col_pos.push(parent_col[i] * pos.eval(row));
                            col_neg.push(parent_col[i] * neg.eval(row));
                        }
                        let live_pos = col_pos.iter().any(|&v| v != 0.0);
                        let live_neg = col_neg.iter().any(|&v| v != 0.0);
                        if !live_pos && !live_neg {
                            continue;
                        }
                        let mut trial = columns.clone();
                        trial.push(col_pos);
                        trial.push(col_neg);
                        let Ok((_, rss)) = fit_rss(&trial, y) else {
                            continue;
                        };
                        if best.as_ref().is_none_or(|(b_rss, ..)| rss < *b_rss) {
                            best = Some((rss, parent_idx, pos, neg));
                        }
                    }
                }
            }
            let Some((rss, parent_idx, pos, neg)) = best else {
                break;
            };
            if current_rss - rss < params.min_improvement * current_rss.max(1e-300) {
                break;
            }
            let parent = basis[parent_idx].clone();
            for hinge in [pos, neg] {
                let mut b = parent.clone();
                b.hinges.push(hinge);
                columns.push(x.iter().map(|r| b.eval(r)).collect());
                basis.push(b);
            }
            current_rss = rss;
            if current_rss <= 1e-12 * total_ss.max(1e-300) {
                break;
            }
        }

        let gcv_of = |active: &[usize]| -> Result<f64> {
            let (_, rss) = fit_rss(&subset(&columns, active), y)?;
            Ok(gcv_score(rss, active.len(), n, params.penalty))
        };
        let mut active: Vec<usize> = (0..basis.len()).collect();
        let mut best_active = active.clone();
        let mut best_gcv = gcv_of(&active)?;
        while active.len() > 1 {
            let mut round_best: Option<(f64, usize)> = None;
            for (pos, &term) in active.iter().enumerate() {
                if term == 0 {
                    continue;
                }
                let mut trial = active.clone();
                trial.remove(pos);
                let g = gcv_of(&trial)?;
                if round_best.as_ref().is_none_or(|(bg, _)| g < *bg) {
                    round_best = Some((g, pos));
                }
            }
            let Some((g, pos)) = round_best else { break };
            active.remove(pos);
            if g < best_gcv {
                best_gcv = g;
                best_active = active.clone();
            }
        }

        let (coefficients, rss) = fit_rss(&subset(&columns, &best_active), y)?;
        Ok(Mars {
            basis: best_active.iter().map(|&i| basis[i].clone()).collect(),
            coefficients,
            gcv: best_gcv,
            train_r_squared: if total_ss == 0.0 {
                1.0
            } else {
                1.0 - rss / total_ss
            },
        })
    }

    /// Least-squares fit of `y` on the given columns, building the Gram
    /// matrix from scratch; returns (coefficients, RSS).
    fn fit_rss(columns: &[Vec<f64>], y: &[f64]) -> Result<(Vec<f64>, f64)> {
        let k = columns.len();
        let n = y.len();
        let mut gram = Matrix::zeros(k, k);
        for a in 0..k {
            for b in a..k {
                let mut s = 0.0;
                for i in 0..n {
                    s += columns[a][i] * columns[b][i];
                }
                gram[(a, b)] = s;
                gram[(b, a)] = s;
            }
        }
        let mut rhs = vec![0.0; k];
        for a in 0..k {
            let mut s = 0.0;
            for i in 0..n {
                s += columns[a][i] * y[i];
            }
            rhs[a] = s;
        }
        let coef =
            solve_spd_ridge(&gram, &rhs, RIDGE).map_err(|e| RegressError::Solve(e.to_string()))?;
        let mut rss = 0.0;
        for i in 0..n {
            let mut pred = 0.0;
            for a in 0..k {
                pred += coef[a] * columns[a][i];
            }
            rss += (pred - y[i]) * (pred - y[i]);
        }
        Ok((coef, rss))
    }

    fn subset(columns: &[Vec<f64>], active: &[usize]) -> Vec<Vec<f64>> {
        active.iter().map(|&i| columns[i].clone()).collect()
    }

    /// Asserts that the fast and the reference fitter agree bit for bit.
    fn assert_matches_reference(x: &[Vec<f64>], y: &[f64], params: &MarsParams) {
        match (Mars::fit(x, y, params), reference_fit(x, y, params)) {
            (Ok(fast), Ok(reference)) => {
                assert_eq!(fast.basis, reference.basis);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast.coefficients), bits(&reference.coefficients));
                assert_eq!(fast.gcv.to_bits(), reference.gcv.to_bits());
                assert_eq!(
                    fast.train_r_squared.to_bits(),
                    reference.train_r_squared.to_bits()
                );
            }
            (Err(fast), Err(reference)) => assert_eq!(fast, reference),
            (fast, reference) => panic!("fast {fast:?} but reference {reference:?}"),
        }
    }

    /// Random training data: `n` rows of three features, where `layout`
    /// makes feature 1 a copy of feature 0 (exactly collinear hinge
    /// columns, so the ridge escalates) and/or feature 2 constant.
    fn random_data() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
        (3usize..40, 0u8..4).prop_flat_map(|(n, layout)| {
            (
                prop::collection::vec(-10.0f64..10.0, n * 3),
                prop::collection::vec(-100.0f64..100.0, n),
            )
                .prop_map(move |(vals, y)| {
                    let x = vals
                        .chunks(3)
                        .map(|r| {
                            let mut row = r.to_vec();
                            if layout & 1 != 0 {
                                row[1] = row[0];
                            }
                            if layout & 2 != 0 {
                                row[2] = 4.0;
                            }
                            row
                        })
                        .collect();
                    (x, y)
                })
        })
    }

    /// Random columns for the solve-level checks: an intercept plus
    /// `k` - 1 random columns, then a candidate pair that `layout` makes
    /// a copy of the last column and/or all zero (both singular systems).
    fn random_system() -> impl Strategy<Value = (Vec<Vec<f64>>, [Vec<f64>; 2], Vec<f64>)> {
        (3usize..30, 1usize..9, 0u8..4).prop_flat_map(|(n, k, layout)| {
            (
                prop::collection::vec(-5.0f64..5.0, n * (k + 1)),
                prop::collection::vec(-50.0f64..50.0, n),
            )
                .prop_map(move |(vals, y)| {
                    let mut cols: Vec<Vec<f64>> = vals.chunks(n).map(<[f64]>::to_vec).collect();
                    cols[0] = vec![1.0; n];
                    let mut pos = vec![0.0; n];
                    let mut neg = vec![0.0; n];
                    for i in 0..n {
                        pos[i] = cols[k][i].max(0.0);
                        neg[i] = (-cols[k][i]).max(0.0);
                    }
                    cols.truncate(k);
                    if layout & 1 != 0 {
                        pos = cols[k - 1].clone();
                    }
                    if layout & 2 != 0 {
                        neg = vec![0.0; n];
                    }
                    (cols, [pos, neg], y)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A forward candidate's RSS, from the accepted block plus two new
        /// Gram rows, has the bits of a from-scratch refit on its columns.
        #[test]
        fn candidate_rss_matches_refit((columns, [pos, neg], y) in random_system()) {
            let k = columns.len();
            let (gram, xty) = normal_equations(&columns, &y);
            let all: Vec<usize> = (0..k).collect();
            let (mut trial, mut rhs) = block(&gram, &xty, &all, 2);
            let mut pred = vec![0.0; y.len()];
            let fast = candidate_rss(&mut trial, &mut rhs, &columns, [&pos, &neg], &y, &mut pred);
            let mut copied = columns.clone();
            copied.push(pos);
            copied.push(neg);
            let reference = fit_rss(&copied, &y).ok().map(|(_, rss)| rss);
            prop_assert_eq!(fast.map(f64::to_bits), reference.map(f64::to_bits));
        }

        /// A backward trial's fit, from a sub-block of the full normal
        /// equations, has the bits of a refit on the copied subset.
        #[test]
        fn subset_fit_matches_refit(
            (columns, _, y) in random_system(),
            drop in 0usize..8,
        ) {
            let (gram, xty) = normal_equations(&columns, &y);
            let mut active: Vec<usize> = (0..columns.len()).collect();
            if active.len() > 1 {
                active.remove(1 + drop % (active.len() - 1));
            }
            let mut pred = vec![0.0; y.len()];
            let fast = fit_subset(&gram, &xty, &columns, &active, &y, &mut pred).unwrap();
            let reference = fit_rss(&subset(&columns, &active), &y).unwrap();
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast.0), bits(&reference.0));
            prop_assert_eq!(fast.1.to_bits(), reference.1.to_bits());
        }

        /// Gram reuse changes no bit of the fit. Small `n` against up to
        /// 15 terms drives the GCV denominator to its 1e-3 clamp.
        #[test]
        fn gram_reuse_matches_reference_fit(
            (x, y) in random_data(),
            max_degree in 1usize..3,
            max_terms in 3usize..16,
            max_knots in 2usize..12,
        ) {
            let params = MarsParams {
                max_terms,
                max_degree,
                max_knots,
                ..MarsParams::default()
            };
            assert_matches_reference(&x, &y, &params);
        }
    }

    #[test]
    fn gram_reuse_matches_reference_on_edge_cases() {
        // Identical features: a hinge on feature 1 duplicates the accepted
        // hinge on feature 0, so its trial Gram matrix is singular.
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] - 5.0).abs()).collect();
        assert_matches_reference(&x, &y, &MarsParams::default());
        // Four rows against a 21-term budget: every model of three or more
        // terms has 1 - C(M)/n below the 1e-3 clamp.
        assert_eq!(gcv_score(1.0, 3, 4, 3.0), 0.25 / (1e-3 * 1e-3));
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        assert_matches_reference(&x, &[0.0, 3.0, 1.0, 2.0], &MarsParams::default());
    }

    fn default_small() -> MarsParams {
        MarsParams {
            max_terms: 11,
            ..MarsParams::default()
        }
    }

    #[test]
    fn fits_piecewise_linear_exactly() {
        // A single hinge at x = 5: y = 2x for x < 5, y = 10 for x >= 5.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0].min(5.0)).collect();
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        assert!(m.train_r_squared > 0.999, "r2 = {}", m.train_r_squared);
        assert!((m.predict_row(&[1.0]) - 2.0).abs() < 0.1);
        assert!((m.predict_row(&[8.0]) - 10.0).abs() < 0.1);
    }

    #[test]
    fn fits_linear_function() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 2.0).collect();
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        assert!(m.train_r_squared > 0.999);
        assert!((m.predict_row(&[15.5]) - (3.0 * 15.5 + 2.0)).abs() < 0.5);
    }

    #[test]
    fn captures_interaction_when_allowed() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                x.push(vec![a as f64, b as f64]);
                y.push(a as f64 * b as f64);
            }
        }
        let m = Mars::fit(
            &x,
            &y,
            &MarsParams {
                max_degree: 2,
                max_terms: 15,
                ..MarsParams::default()
            },
        )
        .unwrap();
        assert!(m.train_r_squared > 0.95, "r2 = {}", m.train_r_squared);
        // At least one basis function of degree 2 should survive pruning.
        assert!(m.basis.iter().any(|b| b.degree() == 2));
    }

    #[test]
    fn additive_restriction_blocks_interactions() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                x.push(vec![a as f64, b as f64]);
                y.push(a as f64 * b as f64);
            }
        }
        let m = Mars::fit(
            &x,
            &y,
            &MarsParams {
                max_degree: 1,
                ..default_small()
            },
        )
        .unwrap();
        assert!(m.basis.iter().all(|b| b.degree() <= 1));
    }

    #[test]
    fn intercept_always_first_and_retained() {
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].powi(2)).collect();
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        assert!(m.basis[0].hinges.is_empty());
    }

    #[test]
    fn constant_response_yields_intercept_only() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 20];
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        assert_eq!(m.n_terms(), 1);
        assert!((m.predict_row(&[3.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_terms_budget() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] / 10.0).sin() * 10.0).collect();
        let m = Mars::fit(
            &x,
            &y,
            &MarsParams {
                max_terms: 7,
                min_improvement: 0.0,
                ..MarsParams::default()
            },
        )
        .unwrap();
        assert!(m.n_terms() <= 7);
    }

    #[test]
    fn smooth_nonlinearity_well_approximated() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 8.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
        let m = Mars::fit(
            &x,
            &y,
            &MarsParams {
                max_terms: 21,
                ..MarsParams::default()
            },
        )
        .unwrap();
        assert!(m.train_r_squared > 0.99);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Mars::fit(&[], &[], &MarsParams::default()).is_err());
        let x = vec![vec![1.0], vec![2.0]];
        assert!(Mars::fit(&x, &[1.0], &MarsParams::default()).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Mars::fit(&ragged, &[1.0, 2.0], &MarsParams::default()).is_err());
    }

    fn is_bad_data<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(RegressError::BadTrainingData(_)))
    }

    #[test]
    fn rejects_nan_input() {
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        x[3][0] = f64::NAN;
        assert!(is_bad_data(Mars::fit(&x, &y, &MarsParams::default())));
    }

    #[test]
    fn rejects_infinite_response() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mut y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        y[7] = f64::INFINITY;
        assert!(is_bad_data(Mars::fit(&x, &y, &MarsParams::default())));
    }

    #[test]
    fn rejects_fewer_than_two_knots() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        for max_knots in [0, 1] {
            let params = MarsParams {
                max_knots,
                ..MarsParams::default()
            };
            assert!(is_bad_data(Mars::fit(&x, &y, &params)));
        }
    }

    #[test]
    fn prediction_is_finite_outside_training_range() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0]).collect();
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        for q in [-100.0, 1000.0] {
            assert!(m.predict_row(&[q]).is_finite());
        }
    }

    #[test]
    fn gcv_positive_for_noisy_data() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40)
            .map(|i| i as f64 + ((i * 2654435761usize) % 7) as f64)
            .collect();
        let m = Mars::fit(&x, &y, &default_small()).unwrap();
        assert!(m.gcv > 0.0);
    }
}
