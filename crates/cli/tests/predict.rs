//! `blackforest predict --model B --size S` prints the bundle's own
//! prediction, to four decimals.

use bf_serve::ModelBundle;
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::process::Command;

#[test]
fn predict_with_model_prints_the_bundle_prediction() {
    let gpu = GpuConfig::gtx580();
    let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(621));
    let sizes: Vec<usize> = (2..=14).map(|k| k * 16).collect();
    let report = bf.analyze(Workload::MatMul, &sizes).unwrap();
    let bundle = ModelBundle::from_report(&report, &gpu, &sizes, true);
    let dir = std::env::temp_dir().join(format!("bf_cli_predict_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mm.json");
    bundle.save(&path).unwrap();

    for size in [48, 200] {
        let out = Command::new(env!("CARGO_BIN_EXE_blackforest"))
            .args(["predict", "--model"])
            .arg(&path)
            .args(["--size", &size.to_string()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let chars = bundle.characteristics_for(size as f64, None, None).unwrap();
        let t = bundle.predict(&chars).unwrap().predicted_ms;
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!(
                "{} on {}, size {size}: predicted execution time {t:.4} ms\n",
                bundle.workload, bundle.gpu_name
            )
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
