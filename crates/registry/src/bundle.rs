//! Versioned model-artifact bundles.
//!
//! A [`ModelBundle`] persists everything the prediction chain needs to
//! answer queries without re-profiling or re-training: the fitted
//! forest/counter-model predictor, the feature schema and retained
//! variables, the training-GPU fingerprint, and the sweep that produced the
//! training data. Bundles are plain JSON with an explicit
//! [`SCHEMA_VERSION`]; the loader probes the version *before* attempting a
//! full decode so a stale or foreign file fails with a clear message
//! instead of a deep deserialization error.

use blackforest::bottleneck::BottleneckReport;
pub use blackforest::predict::Prediction;
use blackforest::predict::ProblemScalingPredictor;
use blackforest::toolchain::{AnalysisReport, Workload};
use gpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Current bundle schema version. Bump on any breaking change to the
/// serialized layout of [`ModelBundle`] or the models nested inside it.
/// Version 2 added `gpu_arch` (the training GPU's architecture name) so
/// consumers can reason about cross-architecture promotion without
/// re-deriving the architecture from the fingerprint.
pub const SCHEMA_VERSION: u32 = 2;

/// Errors raised when saving or loading a bundle.
#[derive(Debug)]
pub enum BundleError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not valid JSON or not a bundle at all.
    Format(String),
    /// The file is a bundle, but from an incompatible schema version.
    Version {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle io error: {e}"),
            BundleError::Format(msg) => write!(f, "bundle format error: {msg}"),
            BundleError::Version { found, expected } => write!(
                f,
                "bundle schema version {found} is not supported (this build reads \
                 version {expected}); re-train with `blackforest train --save`"
            ),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// Metadata of the profiling sweep a bundle was trained on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepMeta {
    /// The swept values of the primary problem characteristic.
    pub sizes: Vec<usize>,
    /// Whether the quick (reduced) sweep/forest configuration was used.
    pub quick: bool,
    /// Rows in the collected dataset (after repetition expansion).
    pub n_runs: usize,
    /// Predictor columns in the collected dataset.
    pub n_features: usize,
    /// Unix timestamp (seconds) of bundle creation.
    pub created_unix: u64,
}

/// Minimal probe used to check the version field before a full decode.
#[derive(Deserialize)]
struct VersionProbe {
    schema_version: Option<u32>,
}

/// A self-contained, reloadable model artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Bundle layout version; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Workload name (parses back via [`Workload::from_name`]).
    pub workload: String,
    /// Name of the GPU the sweep ran on.
    pub gpu_name: String,
    /// Architecture generation of the training GPU (`fermi`, `kepler`,
    /// `maxwell`, `pascal`, `volta`). Counter availability differs across
    /// generations, so a bundle's retained features only make sense on
    /// architectures that produce them.
    pub gpu_arch: String,
    /// Configuration fingerprint of the training GPU — a prediction served
    /// from this bundle is only valid for a GPU with this exact fingerprint.
    pub gpu_fingerprint: u64,
    /// Problem-characteristic names, in query order.
    pub characteristics: Vec<String>,
    /// Full predictor schema of the training data, in column order.
    pub feature_names: Vec<String>,
    /// The retained top-k features driving the reduced forest.
    pub selected: Vec<String>,
    /// Provenance of the training sweep.
    pub sweep: SweepMeta,
    /// The fitted prediction chain (forest + counter models).
    pub predictor: ProblemScalingPredictor,
    /// The ranked bottleneck findings of the training-time analysis.
    pub bottlenecks: BottleneckReport,
}

impl ModelBundle {
    /// Packages a finished analysis into a bundle.
    pub fn from_report(
        report: &AnalysisReport,
        gpu: &GpuConfig,
        sizes: &[usize],
        quick: bool,
    ) -> ModelBundle {
        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        ModelBundle {
            schema_version: SCHEMA_VERSION,
            workload: report.workload.name(),
            gpu_name: gpu.name.clone(),
            gpu_arch: gpu.arch.name().to_string(),
            gpu_fingerprint: gpu.fingerprint(),
            characteristics: report.predictor.counters.characteristics.clone(),
            feature_names: report.predictor.model.feature_names.clone(),
            selected: report.predictor.model.selected.clone(),
            sweep: SweepMeta {
                sizes: sizes.to_vec(),
                quick,
                n_runs: report.dataset.len(),
                n_features: report.dataset.n_features(),
                created_unix,
            },
            predictor: report.predictor.clone(),
            bottlenecks: report.bottlenecks.clone(),
        }
    }

    /// Writes the bundle as JSON.
    pub fn save(&self, path: &Path) -> Result<(), BundleError> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), self)
            .map_err(|e| BundleError::Format(format!("serialize bundle: {e}")))
    }

    /// Loads a bundle, rejecting non-bundle files and mismatched schema
    /// versions with targeted errors.
    pub fn load(path: &Path) -> Result<ModelBundle, BundleError> {
        let text = std::fs::read_to_string(path)?;
        let probe: VersionProbe = serde_json::from_str(&text)
            .map_err(|e| BundleError::Format(format!("{}: not valid JSON: {e}", path.display())))?;
        match probe.schema_version {
            None => {
                return Err(BundleError::Format(format!(
                    "{}: no schema_version field — not a model bundle (perhaps a raw \
                     predictor JSON from an older `train`?)",
                    path.display()
                )))
            }
            Some(v) if v != SCHEMA_VERSION => {
                return Err(BundleError::Version {
                    found: v,
                    expected: SCHEMA_VERSION,
                })
            }
            Some(_) => {}
        }
        serde_json::from_str(&text)
            .map_err(|e| BundleError::Format(format!("{}: decode bundle: {e}", path.display())))
    }

    /// A stable content identifier: a hash of the serialized bundle,
    /// leaving out `sweep.created_unix`, its only wall-clock field, so a
    /// re-train of the same model keeps its id. Used to key the server's
    /// prediction cache so a reloaded (different) bundle can never serve
    /// another bundle's cached answers.
    pub fn content_id(&self) -> u64 {
        let mut unstamped = self.clone();
        unstamped.sweep.created_unix = 0;
        let json = serde_json::to_string(&unstamped).unwrap_or_default();
        let mut h = DefaultHasher::new();
        json.hash(&mut h);
        h.finish()
    }

    /// The workload enum this bundle was trained for.
    pub fn workload(&self) -> Option<Workload> {
        Workload::from_name(&self.workload)
    }

    /// Builds the characteristic vector for a query that names the primary
    /// size plus optional secondary characteristics (`threads`, `sweeps`).
    /// Unsupplied secondaries take the workload defaults; a characteristic
    /// with no default is an error.
    pub fn characteristics_for(
        &self,
        size: f64,
        threads: Option<f64>,
        sweeps: Option<f64>,
    ) -> Result<Vec<f64>, String> {
        self.characteristics
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if i == 0 {
                    return Ok(size);
                }
                let supplied = match name.as_str() {
                    "threads" => threads,
                    "sweeps" => sweeps,
                    _ => None,
                };
                supplied
                    .or_else(|| Workload::default_characteristic(name))
                    .ok_or_else(|| format!("characteristic {name} required but not supplied"))
            })
            .collect()
    }

    /// Runs the prediction chain for one characteristic vector; see
    /// [`ProblemScalingPredictor::predict_rows`].
    pub fn predict(&self, chars: &[f64]) -> Result<Prediction, String> {
        let mut answers = self
            .predictor
            .predict_rows(&[chars], &[], None)
            .map_err(|e| e.to_string())?;
        Ok(answers.remove(0))
    }

    /// Runs the prediction chain with explicit counter overrides: the
    /// characteristic vector is assembled by name (workload defaults fill
    /// unsupplied secondaries), then [`ProblemScalingPredictor::predict_rows`]
    /// replaces any retained counter named in `overrides` before the
    /// reduced forest prices the row.
    ///
    /// This is the engine behind the lint what-if estimator: the overrides
    /// are statically derived counters of a hypothetical (baseline or
    /// fixed) kernel, so the difference between two calls prices the fix
    /// in predicted milliseconds.
    pub fn predict_ms_with(
        &self,
        chars: &[(String, f64)],
        overrides: &[(String, f64)],
    ) -> Result<f64, String> {
        let char_values: Vec<f64> = self
            .characteristics
            .iter()
            .map(|name| {
                chars
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .or_else(|| Workload::default_characteristic(name))
                    .ok_or_else(|| format!("characteristic {name} required but not supplied"))
            })
            .collect::<Result<_, _>>()?;
        let answers = self
            .predictor
            .predict_rows(&[char_values], overrides, None)
            .map_err(|e| e.to_string())?;
        Ok(answers[0].predicted_ms)
    }
}

impl bf_analyze::WhatIfModel for ModelBundle {
    fn predict_ms(
        &self,
        characteristics: &[(String, f64)],
        overrides: &[(String, f64)],
    ) -> Result<f64, String> {
        self.predict_ms_with(characteristics, overrides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackforest::{BlackForest, ModelConfig, Workload};

    fn quick_bundle(seed: u64) -> (ModelBundle, AnalysisReport) {
        let gpu = GpuConfig::gtx580();
        let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(seed));
        let sizes: Vec<usize> = (2..=14).map(|k| k * 16).collect();
        let report = bf.analyze(Workload::MatMul, &sizes).unwrap();
        let bundle = ModelBundle::from_report(&report, &gpu, &sizes, true);
        (bundle, report)
    }

    #[test]
    fn bundle_round_trips_bit_exact_predictions() {
        let (bundle, report) = quick_bundle(401);
        let dir = std::env::temp_dir().join("bf_serve_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mm.bundle.json");
        bundle.save(&path).unwrap();
        let back = ModelBundle::load(&path).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.workload, "matrixMul");
        assert_eq!(back.gpu_fingerprint, GpuConfig::gtx580().fingerprint());
        assert_eq!(back.gpu_arch, "fermi");
        for size in [48.0, 120.0, 224.0] {
            let chars = back.characteristics_for(size, None, None).unwrap();
            let p = back.predict(&chars).unwrap();
            let direct = report.predictor.predict(&chars).unwrap();
            assert_eq!(p.predicted_ms.to_bits(), direct.to_bits());
            let counters = report.predictor.counters.predict(&chars);
            assert_eq!(p.counters.len(), counters.len());
            for ((_, got), want) in p.counters.iter().zip(&counters) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        // A wrong-arity query fails with the in-memory predictor's message.
        let short = back.predict(&[]).unwrap_err();
        let direct = report.predictor.predict(&[]).unwrap_err().to_string();
        assert_eq!(short, direct);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loader_rejects_wrong_version_and_non_bundles() {
        let (bundle, _) = quick_bundle(402);
        let dir = std::env::temp_dir().join("bf_serve_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();

        let future = dir.join("future.bundle.json");
        let mut v2 = bundle.clone();
        v2.schema_version = SCHEMA_VERSION + 1;
        v2.save(&future).unwrap();
        match ModelBundle::load(&future) {
            Err(BundleError::Version { found, expected }) => {
                assert_eq!(found, SCHEMA_VERSION + 1);
                assert_eq!(expected, SCHEMA_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }

        let raw = dir.join("raw.json");
        std::fs::write(&raw, "{\"model\": 1}").unwrap();
        assert!(matches!(
            ModelBundle::load(&raw),
            Err(BundleError::Format(_))
        ));

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{not json").unwrap();
        assert!(matches!(
            ModelBundle::load(&garbage),
            Err(BundleError::Format(_))
        ));

        assert!(matches!(
            ModelBundle::load(&dir.join("does-not-exist.json")),
            Err(BundleError::Io(_))
        ));
        for p in [future, raw, garbage] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn content_id_ignores_only_the_creation_time() {
        let (a, _) = quick_bundle(403);
        let mut retrained = a.clone();
        retrained.sweep.created_unix += 3600;
        assert_eq!(a.content_id(), retrained.content_id());
        let edits: [fn(&mut ModelBundle); 7] = [
            |b| b.gpu_fingerprint ^= 1,
            |b| b.workload.push('x'),
            |b| b.sweep.n_runs += 1,
            |b| b.sweep.quick = !b.sweep.quick,
            |b| b.sweep.sizes.push(1),
            |b| b.selected.push("extra".into()),
            |b| {
                b.predictor.counters.models.pop();
            },
        ];
        for edit in edits {
            let mut b = a.clone();
            edit(&mut b);
            assert_ne!(a.content_id(), b.content_id());
        }
    }

    #[test]
    fn characteristics_fill_workload_defaults() {
        let (mut bundle, _) = quick_bundle(404);
        bundle.characteristics = vec!["size".into(), "threads".into()];
        assert_eq!(
            bundle.characteristics_for(4096.0, None, None).unwrap(),
            vec![4096.0, 256.0]
        );
        assert_eq!(
            bundle
                .characteristics_for(4096.0, Some(128.0), None)
                .unwrap(),
            vec![4096.0, 128.0]
        );
        bundle.characteristics = vec!["size".into(), "mystery".into()];
        assert!(bundle.characteristics_for(4096.0, None, None).is_err());
    }
}
