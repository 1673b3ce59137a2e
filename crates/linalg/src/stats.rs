//! Column-wise summary statistics shared by the model crates.
//!
//! These are the standard estimators (sample mean/variance, Pearson
//! correlation, covariance/correlation matrices, R², MSE) used throughout the
//! BlackForest pipeline: PCA standardises columns, the forest reports
//! explained variance, and the counter models report residual deviance.

use crate::{LinalgError, Matrix, Result};

/// Arithmetic mean of a slice; `NaN` for empty input is deliberately avoided
/// by returning 0.0 (callers check emptiness where it matters).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n - 1`); 0.0 for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Mean squared error between predictions and observations.
pub fn mse(pred: &[f64], obs: &[f64]) -> f64 {
    debug_assert_eq!(pred.len(), obs.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(obs.iter())
        .map(|(p, o)| (p - o) * (p - o))
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
pub fn rmse(pred: &[f64], obs: &[f64]) -> f64 {
    mse(pred, obs).sqrt()
}

/// Mean absolute percentage error, skipping observations that are exactly 0.
pub fn mape(pred: &[f64], obs: &[f64]) -> f64 {
    debug_assert_eq!(pred.len(), obs.len());
    let mut total = 0.0;
    let mut n = 0usize;
    for (p, o) in pred.iter().zip(obs.iter()) {
        if *o != 0.0 {
            total += ((p - o) / o).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Coefficient of determination R² of predictions against observations.
///
/// 1.0 is perfect; 0.0 means "no better than predicting the mean"; negative
/// values mean worse than the mean predictor. Returns 1.0 for constant
/// observations with zero residual (the degenerate-but-perfect case).
pub fn r_squared(pred: &[f64], obs: &[f64]) -> f64 {
    debug_assert_eq!(pred.len(), obs.len());
    let m = mean(obs);
    let ss_tot: f64 = obs.iter().map(|&y| (y - m) * (y - m)).sum();
    let ss_res: f64 = pred
        .iter()
        .zip(obs.iter())
        .map(|(p, y)| (y - p) * (y - p))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Pearson correlation coefficient; 0.0 when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
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

/// Column means of a data matrix (observations in rows).
pub fn column_means(x: &Matrix) -> Vec<f64> {
    let (n, p) = x.shape();
    let mut means = vec![0.0; p];
    for i in 0..n {
        for (m, &v) in means.iter_mut().zip(x.row(i).iter()) {
            *m += v;
        }
    }
    if n > 0 {
        for m in &mut means {
            *m /= n as f64;
        }
    }
    means
}

/// Column standard deviations (sample, `n - 1`) of a data matrix.
pub fn column_std_devs(x: &Matrix) -> Vec<f64> {
    let (n, p) = x.shape();
    if n < 2 {
        return vec![0.0; p];
    }
    let means = column_means(x);
    let mut vars = vec![0.0; p];
    for i in 0..n {
        for ((v, &m), &val) in vars.iter_mut().zip(means.iter()).zip(x.row(i).iter()) {
            *v += (val - m) * (val - m);
        }
    }
    vars.iter_mut().for_each(|v| *v /= (n - 1) as f64);
    vars.into_iter().map(f64::sqrt).collect()
}

/// Sample covariance matrix of a data matrix (observations in rows).
pub fn covariance_matrix(x: &Matrix) -> Result<Matrix> {
    let (n, p) = x.shape();
    if n < 2 {
        return Err(LinalgError::Empty);
    }
    let means = column_means(x);
    let mut cov = Matrix::zeros(p, p);
    for i in 0..n {
        let row = x.row(i);
        for a in 0..p {
            let da = row[a] - means[a];
            if da == 0.0 {
                continue;
            }
            for b in a..p {
                cov[(a, b)] += da * (row[b] - means[b]);
            }
        }
    }
    let denom = (n - 1) as f64;
    for a in 0..p {
        for b in a..p {
            cov[(a, b)] /= denom;
            cov[(b, a)] = cov[(a, b)];
        }
    }
    Ok(cov)
}

/// Sample correlation matrix. Constant columns get zero off-diagonal
/// correlations and a unit diagonal, mirroring R's `cor` behaviour closely
/// enough for PCA on standardised data.
pub fn correlation_matrix(x: &Matrix) -> Result<Matrix> {
    let cov = covariance_matrix(x)?;
    let p = cov.rows();
    let sd: Vec<f64> = (0..p).map(|i| cov[(i, i)].sqrt()).collect();
    let mut cor = Matrix::zeros(p, p);
    for a in 0..p {
        for b in 0..p {
            cor[(a, b)] = if a == b {
                1.0
            } else if sd[a] == 0.0 || sd[b] == 0.0 {
                0.0
            } else {
                cov[(a, b)] / (sd[a] * sd[b])
            };
        }
    }
    Ok(cor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // var([2,4,4,4,5,5,7,9]) with n-1 denominator = 32/7.
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_singleton_is_zero() {
        assert_eq!(variance(&[42.0]), 0.0);
    }

    #[test]
    fn mse_and_rmse_consistent() {
        let pred = [1.0, 2.0, 3.0];
        let obs = [1.0, 4.0, 3.0];
        assert!((mse(&pred, &obs) - 4.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&pred, &obs) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_prediction_is_one() {
        let obs = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&obs, &obs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_mean_prediction_is_zero() {
        let obs = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&pred, &obs).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_linear_relation_is_unit() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x - 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|&x| -2.0 * x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn mape_skips_zero_observations() {
        let pred = [1.0, 110.0];
        let obs = [0.0, 100.0];
        assert!((mape(&pred, &obs) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn column_means_and_stds() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]).unwrap();
        let m = column_means(&x);
        assert!((m[0] - 2.0).abs() < 1e-12);
        assert!((m[1] - 10.0).abs() < 1e-12);
        let s = column_std_devs(&x);
        assert!((s[0] - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn covariance_matrix_is_symmetric_and_matches_variance() {
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 4.0],
            vec![4.0, 3.0],
        ])
        .unwrap();
        let c = covariance_matrix(&x).unwrap();
        assert!((c[(0, 1)] - c[(1, 0)]).abs() < 1e-12);
        assert!((c[(0, 0)] - variance(&x.col(0))).abs() < 1e-12);
        assert!((c[(1, 1)] - variance(&x.col(1))).abs() < 1e-12);
    }

    #[test]
    fn correlation_matrix_has_unit_diagonal_and_bounded_entries() {
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0, -1.0],
            vec![2.0, 1.5, -2.5],
            vec![3.0, 4.0, -2.0],
            vec![4.0, 3.0, -4.5],
        ])
        .unwrap();
        let c = correlation_matrix(&x).unwrap();
        for i in 0..3 {
            assert!((c[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert!(c[(i, j)].abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn correlation_of_constant_column_is_zero() {
        let x = Matrix::from_rows(&[vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]).unwrap();
        let c = correlation_matrix(&x).unwrap();
        assert_eq!(c[(0, 1)], 0.0);
        assert_eq!(c[(1, 1)], 1.0);
    }

    #[test]
    fn covariance_requires_two_rows() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(covariance_matrix(&x).is_err());
    }
}
