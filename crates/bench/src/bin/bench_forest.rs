//! Forest-training performance trajectory: exact vs histogram split search.
//!
//! Fits the same synthetic regression problem (20 features, default forest
//! hyperparameters) with both split strategies at increasing training-set
//! sizes, timing each fit, and writes the results to `BENCH_forest.json` so
//! the speedup is tracked as a first-class artifact. `BF_QUICK=1` skips the
//! largest size.
//!
//! A second section times the shape BlackForest itself trains on: about
//! 170 rows of 30 distinct-valued features, 500 trees, histogram search.
//! There the fit, permutation importance and the bottleneck report's ten
//! 16-point partial-dependence curves are each timed as the median of
//! several runs.

use bf_forest::{ForestParams, PartialDependence, RandomForest, SplitStrategy};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct SizePoint {
    n_rows: usize,
    n_features: usize,
    n_trees: usize,
    exact_seconds: f64,
    histogram_seconds: f64,
    speedup: f64,
    oob_r2_exact: f64,
    oob_r2_histogram: f64,
}

/// Median timings at the shape BlackForest trains on.
#[derive(Debug, Serialize)]
struct ModelShapePoint {
    n_rows: usize,
    n_features: usize,
    n_trees: usize,
    repetitions: usize,
    fit_seconds: f64,
    importance_seconds: f64,
    /// `curves` partial-dependence curves of `grid` points, as
    /// `BottleneckReport::analyze` asks for them.
    partial_dependence_seconds: f64,
    curves: usize,
    grid: usize,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    max_bins: usize,
    points: Vec<SizePoint>,
    model_shape: ModelShapePoint,
}

/// Continuous synthetic data, high-cardinality on purpose so the histogram
/// path has to do real quantile binning (the honest comparison).
fn synthetic(n: usize, p: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..p)
                .map(|j| {
                    let t = ((i + 1) * (j + 3)) as f64;
                    (t * 0.61803398875).fract() * 1000.0
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| r[0] * 2.0 + r[1].sqrt() * 10.0 + (r[2] * 0.01).sin() * 5.0)
        .collect();
    (x, y)
}

fn timed_fit(x: &[Vec<f64>], y: &[f64], params: &ForestParams) -> (f64, f64) {
    let t0 = Instant::now();
    let forest = RandomForest::fit(x, y, params).expect("fit");
    (t0.elapsed().as_secs_f64(), forest.oob_r_squared())
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[reps / 2]
}

/// Times fit, importance and partial dependence at BlackForest's shape.
fn model_shape(max_bins: usize) -> ModelShapePoint {
    let (n, p, trees, reps, curves, grid) = (170, 30, 500, 5, 10, 16);
    let (x, y) = synthetic(n, p);
    let params = ForestParams::default()
        .with_trees(trees)
        .with_seed(7)
        .with_split_strategy(SplitStrategy::Histogram { max_bins });
    let fit = || RandomForest::fit(&x, &y, &params).expect("fit");
    let fit_seconds = median_seconds(reps, || {
        std::hint::black_box(fit());
    });
    let forest = fit();
    let importance_seconds = median_seconds(reps, || {
        std::hint::black_box(forest.permutation_importance());
    });
    let features = forest.permutation_importance().top_k(curves);
    let partial_dependence_seconds = median_seconds(reps, || {
        std::hint::black_box(PartialDependence::compute_many(&forest, &features, grid));
    });
    println!(
        "model shape {n} x {p}, {trees} trees: fit {fit_seconds:.3}s  \
         importance {importance_seconds:.3}s  \
         partial dependence ({curves} x {grid}) {partial_dependence_seconds:.3}s"
    );
    ModelShapePoint {
        n_rows: n,
        n_features: p,
        n_trees: trees,
        repetitions: reps,
        fit_seconds,
        importance_seconds,
        partial_dependence_seconds,
        curves,
        grid,
    }
}

fn main() {
    bf_bench::banner("Bench", "Forest fit wall-clock: exact vs histogram splits");
    let max_bins = 256;
    let trees = 20;
    let p = 20;
    let sizes: &[usize] = if bf_bench::quick_mode() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let mut points = Vec::new();
    for &n in sizes {
        let (x, y) = synthetic(n, p);
        let base = ForestParams::default().with_trees(trees).with_seed(7);
        let (exact_seconds, oob_r2_exact) =
            timed_fit(&x, &y, &base.with_split_strategy(SplitStrategy::Exact));
        let (histogram_seconds, oob_r2_histogram) = timed_fit(
            &x,
            &y,
            &base.with_split_strategy(SplitStrategy::Histogram { max_bins }),
        );
        let speedup = exact_seconds / histogram_seconds;
        println!(
            "n = {n:>6}: exact {exact_seconds:>8.3}s  histogram {histogram_seconds:>8.3}s  \
             speedup {speedup:>5.2}x  (OOB R2 {oob_r2_exact:.4} vs {oob_r2_histogram:.4})"
        );
        points.push(SizePoint {
            n_rows: n,
            n_features: p,
            n_trees: trees,
            exact_seconds,
            histogram_seconds,
            speedup,
            oob_r2_exact,
            oob_r2_histogram,
        });
    }

    let model_shape = model_shape(max_bins);

    let report = BenchReport {
        benchmark: "forest_fit_exact_vs_histogram".to_string(),
        max_bins,
        points,
        model_shape,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write("BENCH_forest.json", &json).expect("write BENCH_forest.json");
    println!("wrote BENCH_forest.json");
}
