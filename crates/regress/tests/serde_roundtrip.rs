//! Serde round-trip guarantees for every persisted regression model: fit →
//! serialize → deserialize → *bit-identical* predictions on a probe grid.
//! These are the models a saved `ModelBundle` carries, so any drift here
//! silently breaks served-vs-trained prediction parity.

use bf_regress::glm::{Basis, LinearModel};
use bf_regress::mars::{Mars, MarsParams};
use serde::{Deserialize, Serialize};

/// Deterministic two-feature training data with curvature and a kink, so
/// GLM and MARS both produce non-trivial fits.
fn training_data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..60 {
        let a = i as f64 * 0.5;
        let b = ((i * 7) % 13) as f64;
        let kink = if a > 12.0 { 3.0 * (a - 12.0) } else { 0.0 };
        x.push(vec![a, b]);
        y.push(1.5 + 0.8 * a + 0.05 * a * a - 0.3 * b + kink);
    }
    (x, y)
}

/// The probe grid deliberately includes off-training points, extrapolation
/// beyond the fitted range, zero, and subnormal-scale values.
fn probe_grid() -> Vec<Vec<f64>> {
    let mut grid = Vec::new();
    for i in 0..40 {
        grid.push(vec![i as f64 * 0.83 - 3.0, (i % 9) as f64 * 1.7]);
    }
    grid.push(vec![0.0, 0.0]);
    grid.push(vec![1e-300, 1e-300]);
    grid.push(vec![1e6, -1e6]);
    grid
}

fn assert_bit_identical<M>(label: &str, original: &M, predict: impl Fn(&M, &[f64]) -> f64)
where
    M: Serialize + Deserialize,
{
    let json = serde_json::to_string(original).expect("serialize");
    let restored: M = serde_json::from_str(&json).expect("deserialize");
    for row in probe_grid() {
        let a = predict(original, &row);
        let b = predict(&restored, &row);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: prediction drifted after round-trip at {row:?}: {a} vs {b}"
        );
    }
}

#[test]
fn linear_model_round_trips_bit_identical() {
    let (x, y) = training_data();
    let basis = vec![
        Basis::Intercept,
        Basis::Power {
            feature: 0,
            power: 1,
        },
        Basis::Power {
            feature: 0,
            power: 2,
        },
        Basis::Power {
            feature: 1,
            power: 1,
        },
        Basis::Interaction { a: 0, b: 1 },
    ];
    let model = LinearModel::fit(&basis, &x, &y).expect("glm fit");
    assert_bit_identical("LinearModel", &model, |m, row| m.predict_row(row));
}

#[test]
fn mars_round_trips_bit_identical() {
    let (x, y) = training_data();
    let model = Mars::fit(&x, &y, &MarsParams::default()).expect("mars fit");
    assert!(model.train_r_squared > 0.9, "r2 {}", model.train_r_squared);
    assert_bit_identical("Mars", &model, |m, row| m.predict_row(row));
}

#[test]
fn params_round_trip_exactly() {
    let mars = MarsParams::default();
    let back: MarsParams = serde_json::from_str(&serde_json::to_string(&mars).unwrap()).unwrap();
    assert_eq!(mars, back);
}

/// Recursively asserts a serialized value tree carries no `Null` leaf. The
/// serializer maps non-finite floats to `Null`, so any `Null` inside a fitted
/// model means a NaN/inf coefficient would silently reload as garbage. (A
/// textual "null" scan would false-positive on the `null_deviance` field name.)
fn assert_no_null(label: &str, value: &serde::Value) {
    match value {
        serde::Value::Null => panic!("{label}: non-finite value leaked into serialized model"),
        serde::Value::Seq(items) => items.iter().for_each(|v| assert_no_null(label, v)),
        serde::Value::Map(entries) => entries.iter().for_each(|(_, v)| assert_no_null(label, v)),
        _ => {}
    }
}

#[test]
fn serialized_models_stay_finite_valid_json() {
    let (x, y) = training_data();
    let mars = Mars::fit(&x, &y, &MarsParams::default()).unwrap();
    assert_no_null("Mars", &mars.serialize_value());
    let glm = LinearModel::fit(
        &[
            Basis::Intercept,
            Basis::Power {
                feature: 0,
                power: 1,
            },
        ],
        &x,
        &y,
    )
    .unwrap();
    assert_no_null("LinearModel", &glm.serialize_value());
}
