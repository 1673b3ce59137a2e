//! Every entry point of the prediction chain — the in-memory predictor,
//! the bundle's `predict` and `predict_ms_with`, and `predict_rows` through
//! the registry's compiled forest — prices a size grid to the same bits.

use bf_registry::{ModelBundle, Registry};
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::sync::Arc;

fn quick_bundle(seed: u64) -> ModelBundle {
    let gpu = GpuConfig::gtx580();
    let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(seed));
    let sizes: Vec<usize> = (2..=14).map(|k| k * 16).collect();
    let report = bf.analyze(Workload::MatMul, &sizes).unwrap();
    ModelBundle::from_report(&report, &gpu, &sizes, true)
}

#[test]
fn every_entry_point_prices_a_size_grid_to_identical_bits() {
    let bundle = quick_bundle(611);
    let registry = Arc::new(Registry::new());
    let id = registry.load_bundle(bundle.clone()).unwrap();
    let model = registry
        .reader()
        .resolve(&format!("{id:016x}"))
        .unwrap()
        .model;
    let unretained = bundle
        .feature_names
        .iter()
        .find(|n| !bundle.selected.contains(n))
        .expect("the forest drops some counter")
        .clone();

    // Inside, between and beyond the swept sizes (32..=224).
    let rows: Vec<Vec<f64>> = (1..=30)
        .map(|k| {
            bundle
                .characteristics_for(k as f64 * 9.5, None, None)
                .unwrap()
        })
        .collect();
    let batch = bundle
        .predictor
        .predict_rows(&rows, &[], Some(&model.flat))
        .unwrap();
    assert_eq!(batch.len(), rows.len());
    for (row, want) in rows.iter().zip(&batch) {
        let bits = want.predicted_ms.to_bits();
        assert_eq!(bundle.predictor.predict(row).unwrap().to_bits(), bits);
        let single = bundle.predict(row).unwrap();
        assert_eq!(single.predicted_ms.to_bits(), bits);
        assert_eq!(single.counters.len(), want.counters.len());
        for ((name, got), (want_name, value)) in single.counters.iter().zip(&want.counters) {
            assert_eq!(name, want_name);
            assert_eq!(got.to_bits(), value.to_bits());
        }

        let named: Vec<(String, f64)> = bundle
            .characteristics
            .iter()
            .cloned()
            .zip(row.iter().copied())
            .collect();
        let priced = |overrides: &[(String, f64)]| {
            bundle.predict_ms_with(&named, overrides).unwrap().to_bits()
        };
        assert_eq!(priced(&[]), bits);
        for counter in &want.counters {
            assert_eq!(priced(std::slice::from_ref(counter)), bits, "{counter:?}");
        }
        assert_eq!(priced(&want.counters), bits);
        // A counter the reduced forest did not retain cannot move the price.
        assert_eq!(priced(&[(unretained.clone(), 1e12)]), bits);
    }
}
