//! Gaussian GLMs (ordinary least squares) over explicit bases.
//!
//! BlackForest's counter models for "trivial cases (e.g., single problem
//! characteristics such as matrix size in matrix multiply)" are generalized
//! linear models. With a Gaussian family and identity link — the relevant
//! configuration for counter values — the GLM reduces to OLS, and the
//! *residual deviance* the paper reports is exactly the residual sum of
//! squares.

use crate::{check_training_set, RegressError, Result};
use bf_linalg::{qr::least_squares, stats, Matrix};
use serde::{Deserialize, Serialize};

/// One term of a regression basis over a multivariate input row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Basis {
    /// The constant 1 (intercept).
    Intercept,
    /// `x[feature] ^ power` for integer `power >= 1`.
    Power {
        /// Input feature index.
        feature: usize,
        /// Exponent.
        power: u32,
    },
    /// `ln(max(x[feature], floor))` — log terms are the natural basis for
    /// counters that grow polynomially in the problem size.
    Log {
        /// Input feature index.
        feature: usize,
        /// Values below this floor are clamped before the log.
        floor: f64,
    },
    /// Product of two features (first-order interaction).
    Interaction {
        /// First feature index.
        a: usize,
        /// Second feature index.
        b: usize,
    },
}

impl Basis {
    /// Evaluates the term on one input row.
    pub fn eval(&self, row: &[f64]) -> f64 {
        match *self {
            Basis::Intercept => 1.0,
            Basis::Power { feature, power } => row[feature].powi(power as i32),
            Basis::Log { feature, floor } => row[feature].max(floor).ln(),
            Basis::Interaction { a, b } => row[a] * row[b],
        }
    }

    /// A polynomial basis `1, x, x², …, x^degree` over a single feature.
    pub fn polynomial(feature: usize, degree: u32) -> Vec<Basis> {
        let mut terms = vec![Basis::Intercept];
        for power in 1..=degree {
            terms.push(Basis::Power { feature, power });
        }
        terms
    }
}

/// A fitted linear model over an explicit basis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearModel {
    /// The basis terms, in coefficient order.
    pub basis: Vec<Basis>,
    /// Fitted coefficients.
    pub coefficients: Vec<f64>,
    /// Residual deviance (Gaussian family: residual sum of squares).
    pub residual_deviance: f64,
    /// Null deviance (total sum of squares around the mean).
    pub null_deviance: f64,
    /// Number of training observations.
    pub n_obs: usize,
}

impl LinearModel {
    /// Fits the model by least squares on row-major observations.
    pub fn fit(basis: &[Basis], x: &[Vec<f64>], y: &[f64]) -> Result<LinearModel> {
        check_training_set(x, y)?;
        if basis.is_empty() {
            return Err(RegressError::BadTrainingData("empty basis".into()));
        }
        let rows: Vec<Vec<f64>> = x
            .iter()
            .map(|row| basis.iter().map(|b| b.eval(row)).collect())
            .collect();
        let design = Matrix::from_rows(&rows).map_err(|e| RegressError::Solve(e.to_string()))?;
        let coefficients =
            least_squares(&design, y).map_err(|e| RegressError::Solve(e.to_string()))?;
        let fitted: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(coefficients.iter()).map(|(a, b)| a * b).sum())
            .collect();
        let residual_deviance: f64 = fitted
            .iter()
            .zip(y.iter())
            .map(|(p, o)| (p - o) * (p - o))
            .sum();
        let mean = stats::mean(y);
        let null_deviance: f64 = y.iter().map(|&v| (v - mean) * (v - mean)).sum();
        Ok(LinearModel {
            basis: basis.to_vec(),
            coefficients,
            residual_deviance,
            null_deviance,
            n_obs: y.len(),
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

    /// R² on the training data (1 - residual/null deviance).
    pub fn r_squared(&self) -> f64 {
        if self.null_deviance == 0.0 {
            if self.residual_deviance == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - self.residual_deviance / self.null_deviance
        }
    }

    /// Mean residual deviance per observation — the "average residual
    /// deviance" scale the paper quotes per counter model.
    pub fn mean_residual_deviance(&self) -> f64 {
        self.residual_deviance / self.n_obs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_coefficients() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 4.0 + 2.5 * i as f64).collect();
        let m = LinearModel::fit(&Basis::polynomial(0, 1), &x, &y).unwrap();
        assert!((m.coefficients[0] - 4.0).abs() < 1e-8);
        assert!((m.coefficients[1] - 2.5).abs() < 1e-8);
        assert!(m.residual_deviance < 1e-8);
        assert!((m.r_squared() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn recovers_cubic() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 3.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 1.0 - r[0] + 0.5 * r[0].powi(3)).collect();
        let m = LinearModel::fit(&Basis::polynomial(0, 3), &x, &y).unwrap();
        assert!(m.r_squared() > 0.999999);
        assert!((m.predict_row(&[5.0]) - (1.0 - 5.0 + 0.5 * 125.0)).abs() < 1e-5);
    }

    #[test]
    fn log_basis_fits_logarithmic_growth() {
        let x: Vec<Vec<f64>> = (1..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 + 7.0 * r[0].ln()).collect();
        let basis = vec![
            Basis::Intercept,
            Basis::Log {
                feature: 0,
                floor: 1e-9,
            },
        ];
        let m = LinearModel::fit(&basis, &x, &y).unwrap();
        assert!((m.coefficients[1] - 7.0).abs() < 1e-8);
    }

    #[test]
    fn interaction_basis_fits_product_term() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                x.push(vec![a as f64, b as f64]);
                y.push(3.0 * a as f64 * b as f64 + 1.0);
            }
        }
        let basis = vec![Basis::Intercept, Basis::Interaction { a: 0, b: 1 }];
        let m = LinearModel::fit(&basis, &x, &y).unwrap();
        assert!((m.coefficients[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn residual_deviance_positive_for_noisy_fit() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        // A step function badly approximated by a line.
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 100.0 }).collect();
        let m = LinearModel::fit(&Basis::polynomial(0, 1), &x, &y).unwrap();
        assert!(m.residual_deviance > 1.0);
        assert!(m.mean_residual_deviance() > 0.05);
        assert!(m.r_squared() < 1.0);
    }

    #[test]
    fn rejects_empty_or_mismatched() {
        assert!(LinearModel::fit(&Basis::polynomial(0, 1), &[], &[]).is_err());
        let x = vec![vec![1.0]];
        assert!(LinearModel::fit(&Basis::polynomial(0, 1), &x, &[1.0, 2.0]).is_err());
        assert!(LinearModel::fit(&[], &x, &[1.0]).is_err());
    }

    #[test]
    fn rejects_non_finite_data() {
        let basis = Basis::polynomial(0, 1);
        let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..6).map(|i| 2.0 * i as f64).collect();
        let mut bad_x = x.clone();
        bad_x[2][0] = f64::NAN;
        let mut bad_y = y.clone();
        bad_y[4] = f64::NEG_INFINITY;
        for (x, y) in [(&bad_x, &y), (&x, &bad_y)] {
            assert!(matches!(
                LinearModel::fit(&basis, x, y),
                Err(RegressError::BadTrainingData(_))
            ));
        }
    }

    #[test]
    fn survives_collinear_basis() {
        // x and 2x as separate "features" via powers of the same feature is
        // fine, but literal duplicate terms force the ridge fallback.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let basis = vec![
            Basis::Intercept,
            Basis::Power {
                feature: 0,
                power: 1,
            },
            Basis::Power {
                feature: 0,
                power: 1,
            },
        ];
        let m = LinearModel::fit(&basis, &x, &y).unwrap();
        assert!(m.coefficients.iter().all(|c| c.is_finite()));
        assert!(m.r_squared() > 0.999);
    }

    #[test]
    fn predict_batch_matches_rowwise() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let m = LinearModel::fit(&Basis::polynomial(0, 1), &x, &y).unwrap();
        let batch = m.predict(&x);
        for (i, row) in x.iter().enumerate() {
            assert_eq!(batch[i], m.predict_row(row));
        }
    }
}
