//! Property-based tests of the statistical substrates' core invariants,
//! exercised through the public API of the suite.

use blackforest_suite::forest::{ForestParams, RandomForest};
use blackforest_suite::gpu_sim::banks::{conflict_degree_scratch, BankScratch};
use blackforest_suite::gpu_sim::coalesce::coalesce_into;
use blackforest_suite::linalg::{stats, Matrix, SymmetricEigen};
use blackforest_suite::pca::{varimax, varimax::varimax_criterion, Pca, PcaOptions};
use blackforest_suite::regress::{Basis, LinearModel, Mars, MarsParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forest predictions are always within the training-response range:
    /// every leaf value is an average of training responses.
    #[test]
    fn forest_predictions_bounded_by_response_range(
        ys in prop::collection::vec(-1000.0f64..1000.0, 20..60),
        query in -1.0e6f64..1.0e6,
        seed in 0u64..1000,
    ) {
        let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let f = RandomForest::fit(&x, &ys, &ForestParams::default().with_trees(20).with_seed(seed)).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = f.predict_row(&[query]).unwrap();
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// OOB R-squared never exceeds 1.
    #[test]
    fn oob_r_squared_at_most_one(
        ys in prop::collection::vec(0.0f64..100.0, 25..50),
        seed in 0u64..100,
    ) {
        let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let f = RandomForest::fit(&x, &ys, &ForestParams::default().with_trees(30).with_seed(seed)).unwrap();
        prop_assert!(f.oob_r_squared() <= 1.0 + 1e-12);
    }

    /// Eigendecomposition of any symmetric matrix reconstructs it and the
    /// eigenvalue sum equals the trace.
    #[test]
    fn eigen_reconstruction_and_trace(
        vals in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        // Build a 3x3 symmetric matrix from 6 free values.
        let a = Matrix::from_rows(&[
            vec![vals[0], vals[1], vals[2]],
            vec![vals[1], vals[3], vals[4]],
            vec![vals[2], vals[4], vals[5]],
        ]).unwrap();
        let e = SymmetricEigen::decompose(&a).unwrap();
        let trace = vals[0] + vals[3] + vals[5];
        prop_assert!((e.values.iter().sum::<f64>() - trace).abs() < 1e-8);
        // Eigenvalues are sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // V^T V = I.
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.approx_eq(&Matrix::identity(3), 1e-8));
    }

    /// PCA explained-variance ratios are a probability vector, and scores
    /// of distinct components are uncorrelated.
    #[test]
    fn pca_ratios_and_orthogonality(
        raw in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 12..30),
    ) {
        let x = Matrix::from_rows(&raw).unwrap();
        let pca = Pca::fit(&x, PcaOptions { scale: false }).unwrap();
        let ratios = pca.explained_variance_ratio();
        let total: f64 = ratios.iter().sum();
        prop_assert!(ratios.iter().all(|&r| (-1e-9..=1.0 + 1e-9).contains(&r)));
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
        let scores = pca.transform(&x, 3).unwrap();
        for a in 0..3 {
            for b in (a + 1)..3 {
                let r = stats::pearson(&scores.col(a), &scores.col(b));
                prop_assert!(r.abs() < 1e-6, "components {a},{b} correlate: {r}");
            }
        }
    }

    /// Varimax rotation never decreases the varimax criterion and preserves
    /// row communalities.
    #[test]
    fn varimax_improves_criterion_and_preserves_communality(
        raw in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 2), 4..10),
    ) {
        let l = Matrix::from_rows(&raw).unwrap();
        let r = varimax(&l, false);
        prop_assert!(varimax_criterion(&r.loadings) >= varimax_criterion(&l) - 1e-9);
        for i in 0..l.rows() {
            let before: f64 = l.row(i).iter().map(|v| v * v).sum();
            let after: f64 = r.loadings.row(i).iter().map(|v| v * v).sum();
            prop_assert!((before - after).abs() < 1e-8);
        }
    }

    /// A GLM over a polynomial basis, trained on exact polynomial data,
    /// recovers it.
    #[test]
    fn glm_recovers_polynomials(
        c0 in -10.0f64..10.0,
        c1 in -5.0f64..5.0,
        c2 in -1.0f64..1.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 3.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| c0 + c1 * r[0] + c2 * r[0] * r[0]).collect();
        let m = LinearModel::fit(&Basis::polynomial(0, 2), &xs, &ys).unwrap();
        prop_assert!(m.r_squared() > 1.0 - 1e-6);
        let p = m.predict_row(&[12.5]);
        let t = c0 + c1 * 12.5 + c2 * 12.5 * 12.5;
        prop_assert!((p - t).abs() < 1e-4 * (1.0 + t.abs()));
    }

    /// MARS training R-squared is at most 1 and prediction is finite.
    #[test]
    fn mars_r_squared_bounded(
        ys in prop::collection::vec(-100.0f64..100.0, 20..40),
    ) {
        let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let m = Mars::fit(&x, &ys, &MarsParams { max_terms: 9, ..MarsParams::default() }).unwrap();
        prop_assert!(m.train_r_squared <= 1.0 + 1e-9);
        prop_assert!(m.predict_row(&[5.5]).is_finite());
    }

    /// Coalescing: transaction count is between 1 and the number of active
    /// lanes (for accesses that fit one segment each).
    #[test]
    fn coalesce_transaction_bounds(
        addrs in prop::collection::vec(0u64..(1 << 20), 32),
        mask in 1u32..=u32::MAX,
    ) {
        // 4-byte accesses at 4-byte alignment never straddle segments.
        let aligned: Vec<u64> = addrs.iter().map(|a| a & !3).collect();
        let mut t = Vec::new();
        coalesce_into(&aligned, 4, mask, 128, &mut t);
        let active = mask.count_ones() as usize;
        prop_assert!(!t.is_empty());
        prop_assert!(t.len() <= active);
        // Deduplicated, sorted, aligned.
        for w in t.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for tr in &t {
            prop_assert_eq!(tr % 128, 0);
        }
    }

    /// Bank conflicts: degree is between 1 and the active-lane count.
    #[test]
    fn conflict_degree_bounds(
        offsets in prop::collection::vec(0u32..8192, 32),
        mask in 1u32..=u32::MAX,
    ) {
        let aligned: Vec<u32> = offsets.iter().map(|o| o & !3).collect();
        let d = conflict_degree_scratch(&aligned, 4, mask, 32, 4, &mut BankScratch::new());
        prop_assert!(d >= 1);
        prop_assert!(d <= mask.count_ones().max(1));
    }

    /// Dataset split is an exact partition for any fraction.
    #[test]
    fn dataset_split_partitions(
        n in 4usize..60,
        frac in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let mut ds = blackforest_suite::blackforest::Dataset::new(vec!["x".into()], "y");
        for i in 0..n {
            ds.push(vec![i as f64], i as f64).unwrap();
        }
        let (tr, te) = ds.split(frac, seed);
        prop_assert_eq!(tr.len() + te.len(), n);
        prop_assert!(!tr.is_empty());
        // Every original response appears exactly once across the halves.
        let mut all: Vec<f64> = tr.response.iter().chain(te.response.iter()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(all, expect);
    }
}
