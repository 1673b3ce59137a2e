//! Performance prediction: problem scaling and hardware scaling (§6).
//!
//! *Problem scaling*: chain the counter models through the reduced forest —
//! characteristics → predicted counters → predicted execution time — so
//! unseen problem sizes can be predicted without running the application.
//!
//! *Hardware scaling*: train on one GPU (with Table-2 machine metrics
//! injected), predict on a similar GPU. Counter sets differ between
//! architectures, so the predictor works on the schema intersection; when
//! importance rankings diverge (the paper's NW-on-Kepler failure mode), it
//! falls back to the paper's workaround of training on a *mixture* of the
//! important variables from both architectures.

use crate::countermodel::{CounterModelSet, ModelStrategy};
use crate::dataset::Dataset;
use crate::model::{BlackForestModel, ModelConfig};
use crate::{BfError, Result};
use bf_forest::{FlatForest, ForestParams, RandomForest};
use bf_linalg::stats;
use serde::{Deserialize, Serialize};

/// One answered prediction: the execution time and the per-counter values
/// that fed the reduced forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted execution time (ms).
    pub predicted_ms: f64,
    /// `(counter name, value)` pairs in retained-feature order.
    pub counters: Vec<(String, f64)>,
}

/// A measured-vs-predicted pair for one evaluation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionPoint {
    /// The problem characteristics of the point (e.g. `[size]`).
    pub characteristics: Vec<f64>,
    /// Predicted execution time (ms).
    pub predicted_ms: f64,
    /// Measured execution time (ms).
    pub measured_ms: f64,
}

/// Summary statistics over a set of prediction points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionSummary {
    /// Mean squared error.
    pub mse: f64,
    /// R² of predictions vs measurements.
    pub r_squared: f64,
    /// Mean absolute percentage error.
    pub mape: f64,
}

/// Summarises prediction points.
pub fn summarize(points: &[PredictionPoint]) -> PredictionSummary {
    let pred: Vec<f64> = points.iter().map(|p| p.predicted_ms).collect();
    let meas: Vec<f64> = points.iter().map(|p| p.measured_ms).collect();
    PredictionSummary {
        mse: stats::mse(&pred, &meas),
        r_squared: stats::r_squared(&pred, &meas),
        mape: stats::mape(&pred, &meas),
    }
}

// ---------------------------------------------------------------------------
// Problem scaling
// ---------------------------------------------------------------------------

/// Predicts execution time for unseen problem characteristics on the
/// training GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProblemScalingPredictor {
    /// The underlying BlackForest model.
    pub model: BlackForestModel,
    /// Counter models driving the prediction chain.
    pub counters: CounterModelSet,
}

impl ProblemScalingPredictor {
    /// Fits the full chain on a collected dataset.
    pub fn fit(
        data: &Dataset,
        config: &ModelConfig,
        characteristics: &[&str],
        strategy: ModelStrategy,
    ) -> Result<ProblemScalingPredictor> {
        let model = BlackForestModel::fit(data, config)?;
        let chars: Vec<String> = characteristics.iter().map(|s| s.to_string()).collect();
        let counters = CounterModelSet::fit(&model.train, &model.selected, &chars, strategy)?;
        Ok(ProblemScalingPredictor { model, counters })
    }

    /// Predicts execution time from problem characteristics alone.
    pub fn predict(&self, characteristics: &[f64]) -> Result<f64> {
        Ok(self.predict_rows(&[characteristics], &[], None)?[0].predicted_ms)
    }

    /// The prediction chain, for a batch of characteristic rows. Every
    /// caller prices through here:
    ///
    /// 1. each row must carry one value per characteristic;
    /// 2. the counter models predict each row's retained counters;
    /// 3. any counter named in `overrides` takes the supplied value (names
    ///    the reduced forest did not retain are ignored — they cannot
    ///    influence the prediction by construction);
    /// 4. the reduced forest prices every row in one pass, through `flat`
    ///    (the caller's compiled copy of `model.reduced_forest`) when given,
    ///    else by walking the arena forest row by row — bit-identical;
    /// 5. each row's counter names are paired with the values that fed the
    ///    forest.
    pub fn predict_rows<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        overrides: &[(String, f64)],
        flat: Option<&FlatForest>,
    ) -> Result<Vec<Prediction>> {
        let want = self.counters.characteristics.len();
        if let Some(bad) = rows.iter().find(|r| r.as_ref().len() != want) {
            return Err(BfError::Data(format!(
                "expected {want} characteristics, got {}",
                bad.as_ref().len()
            )));
        }
        let models = &self.counters.models;
        let overridden: Vec<(usize, f64)> = models
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                let (_, v) = overrides.iter().find(|(n, _)| *n == m.counter)?;
                Some((i, *v))
            })
            .collect();
        let counter_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|chars| {
                let mut values = self.counters.predict(chars.as_ref());
                for &(i, v) in &overridden {
                    values[i] = v;
                }
                values
            })
            .collect();
        let times = match flat {
            Some(flat) => flat
                .predict_batch(&counter_rows)
                .map_err(|e| BfError::Fit(e.to_string()))?,
            None => counter_rows
                .iter()
                .map(|row| self.model.predict_selected(row))
                .collect::<Result<_>>()?,
        };
        Ok(counter_rows
            .into_iter()
            .zip(times)
            .map(|(values, predicted_ms)| Prediction {
                predicted_ms,
                counters: models
                    .iter()
                    .map(|m| m.counter.clone())
                    .zip(values)
                    .collect(),
            })
            .collect())
    }

    /// Evaluates the chain against the model's held-out test split (the
    /// paper's Figures 5b and 6b). The test rows carry measured times; the
    /// predictions use *only* their characteristics.
    pub fn evaluate_holdout(&self) -> Result<Vec<PredictionPoint>> {
        let char_idx: Vec<usize> = self
            .counters
            .characteristics
            .iter()
            .map(|c| {
                self.model
                    .test
                    .feature_index(c)
                    .ok_or_else(|| BfError::Data(format!("characteristic {c} missing in test")))
            })
            .collect::<Result<_>>()?;
        let chars: Vec<Vec<f64>> = self
            .model
            .test
            .rows
            .iter()
            .map(|row| char_idx.iter().map(|&j| row[j]).collect())
            .collect();
        let predictions = self.predict_rows(&chars, &[], None)?;
        let mut points: Vec<PredictionPoint> = chars
            .into_iter()
            .zip(predictions)
            .zip(&self.model.test.response)
            .map(|((characteristics, p), &measured_ms)| PredictionPoint {
                characteristics,
                predicted_ms: p.predicted_ms,
                measured_ms,
            })
            .collect();
        points.sort_by(|a, b| {
            a.characteristics[0]
                .partial_cmp(&b.characteristics[0])
                .unwrap()
        });
        Ok(points)
    }

    /// Persists the fitted predictor (forest, counter models, splits) as
    /// JSON so it can be reloaded without re-collecting or re-training.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), self)
            .map_err(|e| BfError::Data(format!("serialize model: {e}")))
    }

    /// Loads a predictor previously written by [`Self::save`].
    pub fn load(path: &std::path::Path) -> Result<ProblemScalingPredictor> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(file))
            .map_err(|e| BfError::Data(format!("deserialize model: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Hardware scaling
// ---------------------------------------------------------------------------

/// How the hardware-scaling feature set was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HwFeatureStrategy {
    /// Top-k variables of the source-GPU model only (works when rankings
    /// agree across GPUs, e.g. MM in §6.2).
    SourceImportance,
    /// The paper's workaround: union of the top variables from both GPUs
    /// (needed when rankings diverge, e.g. NW in §6.2).
    MixedImportance,
}

/// Predicts execution time on a target GPU from a forest trained on a
/// source GPU.
pub struct HardwareScalingPredictor {
    /// Features the transfer forest uses (subset of the schema
    /// intersection).
    pub features: Vec<String>,
    /// Forest trained on the source GPU's data.
    pub forest: RandomForest,
    /// Source importance ranking (top of).
    pub source_ranking: Vec<String>,
    /// Target calibration ranking (top of).
    pub target_ranking: Vec<String>,
    /// Rank-overlap similarity of the two top-k rankings in [0, 1] — the
    /// paper's "sufficiently similar hardware" test.
    pub similarity: f64,
    /// Spearman rank correlation of the two full importance rankings over
    /// the common features (a smoother similarity statistic than top-k
    /// overlap; robust to ties near the cutoff).
    pub rank_correlation: f64,
    /// Strategy that produced `features`.
    pub strategy: HwFeatureStrategy,
}

/// Spearman rank correlation between two orderings of the same name set.
fn spearman(a: &[String], b: &[String]) -> f64 {
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let pos_b: std::collections::HashMap<&str, usize> = b
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();
    let mut d2 = 0.0f64;
    for (i, name) in a.iter().enumerate() {
        let j = pos_b.get(name.as_str()).copied().unwrap_or(n);
        let d = i as f64 - j as f64;
        d2 += d * d;
    }
    1.0 - 6.0 * d2 / (n as f64 * (n as f64 * n as f64 - 1.0))
}

/// Intersection of two datasets' feature names, preserving `a`'s order.
fn common_features(a: &Dataset, b: &Dataset) -> Vec<String> {
    a.feature_names
        .iter()
        .filter(|n| b.feature_index(n).is_some())
        .cloned()
        .collect()
}

impl HardwareScalingPredictor {
    /// Trains the transfer model.
    ///
    /// * `source` — full sweep on the training GPU (machine metrics
    ///   injected as constant columns are fine; they are dropped from the
    ///   schema intersection only if absent on the target).
    /// * `target_train` — the target GPU's *training* split, used solely for
    ///   calibration (importance ranking), never for fitting the forest.
    pub fn fit(
        source: &Dataset,
        target_train: &Dataset,
        config: &ModelConfig,
        strategy: HwFeatureStrategy,
    ) -> Result<HardwareScalingPredictor> {
        let common = common_features(source, target_train);
        if common.is_empty() {
            return Err(BfError::Data(
                "no common features between source and target".into(),
            ));
        }
        let src = source.select(&common)?;
        let tgt = target_train.select(&common)?;

        // Importance on both sides (full common schema).
        let params = ForestParams {
            n_trees: config.n_trees,
            min_node_size: config.min_node_size.min(src.len() / 4).max(1),
            split_strategy: config.split_strategy,
            ..ForestParams::default().with_seed(config.seed)
        };
        let src_forest = RandomForest::fit(&src.rows, &src.response, &params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let src_rank: Vec<String> = src_forest
            .permutation_importance()
            .ranking()
            .into_iter()
            .map(|j| common[j].clone())
            .collect();
        let tgt_forest = RandomForest::fit(&tgt.rows, &tgt.response, &params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let tgt_rank: Vec<String> = tgt_forest
            .permutation_importance()
            .ranking()
            .into_iter()
            .map(|j| common[j].clone())
            .collect();

        let k = config.top_k.min(common.len()).max(1);
        let src_top: Vec<String> = src_rank.iter().take(k).cloned().collect();
        let tgt_top: Vec<String> = tgt_rank.iter().take(k).cloned().collect();
        let overlap = src_top.iter().filter(|n| tgt_top.contains(n)).count();
        let similarity = overlap as f64 / k as f64;

        let features: Vec<String> = match strategy {
            HwFeatureStrategy::SourceImportance => src_top,
            HwFeatureStrategy::MixedImportance => {
                let mut mixed = src_top;
                for n in tgt_top {
                    if !mixed.contains(&n) {
                        mixed.push(n);
                    }
                }
                mixed
            }
        };

        // The transfer forest trains on the source data restricted to the
        // chosen features.
        let src_sel = src.select(&features)?;
        let forest = RandomForest::fit(&src_sel.rows, &src_sel.response, &params)
            .map_err(|e| BfError::Fit(e.to_string()))?;
        let rank_correlation = spearman(&src_rank, &tgt_rank);
        Ok(HardwareScalingPredictor {
            features,
            forest,
            source_ranking: src_rank,
            target_ranking: tgt_rank,
            similarity,
            rank_correlation,
            strategy,
        })
    }

    /// Predicts times for the target GPU's test split and pairs them with
    /// the measured values (the paper's Figures 7 and 8c).
    pub fn evaluate(
        &self,
        target_test: &Dataset,
        characteristic: &str,
    ) -> Result<Vec<PredictionPoint>> {
        let sel = target_test.select(&self.features)?;
        let char_col = target_test
            .column(characteristic)
            .ok_or_else(|| BfError::Data(format!("characteristic {characteristic} missing")))?;
        let mut points = Vec::new();
        for ((row, &t), &c) in sel
            .rows
            .iter()
            .zip(sel.response.iter())
            .zip(char_col.iter())
        {
            let predicted_ms = self
                .forest
                .predict_row(row)
                .map_err(|e| BfError::Fit(e.to_string()))?;
            points.push(PredictionPoint {
                characteristics: vec![c],
                predicted_ms,
                measured_ms: t,
            });
        }
        points.sort_by(|a, b| {
            a.characteristics[0]
                .partial_cmp(&b.characteristics[0])
                .unwrap()
        });
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_matmul, CollectOptions};
    use gpu_sim::GpuConfig;

    fn mm_dataset(gpu: &GpuConfig, metrics: bool) -> Dataset {
        let sizes: Vec<usize> = (2..=16).map(|k| k * 16).collect();
        let opts = CollectOptions {
            include_machine_metrics: metrics,
            drop_constant: !metrics,
            ..CollectOptions::default()
        };
        collect_matmul(gpu, &sizes, &opts).unwrap()
    }

    #[test]
    fn problem_scaling_predicts_holdout_well() {
        // A fuller sweep (closer to the paper's 24 runs, with repetitions)
        // so the held-out points span the response range.
        let sizes: Vec<usize> = (2..=28).step_by(2).map(|k| k * 16).collect();
        let opts = CollectOptions::default().with_repetitions(2, 0.02);
        let data = collect_matmul(&GpuConfig::gtx580(), &sizes, &opts).unwrap();
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(31),
            &["size"],
            ModelStrategy::Auto,
        )
        .unwrap();
        let points = p.evaluate_holdout().unwrap();
        assert!(!points.is_empty());
        let s = summarize(&points);
        assert!(s.r_squared > 0.5, "r2 {}", s.r_squared);
    }

    #[test]
    fn problem_scaling_is_monotone_in_size_for_mm() {
        let data = mm_dataset(&GpuConfig::gtx580(), false);
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(32),
            &["size"],
            ModelStrategy::Auto,
        )
        .unwrap();
        let t_small = p.predict(&[48.0]).unwrap();
        let t_big = p.predict(&[240.0]).unwrap();
        assert!(t_big > t_small);
    }

    #[test]
    fn predict_rows_is_bit_identical_through_either_forest_walk() {
        let data = mm_dataset(&GpuConfig::gtx580(), false);
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(38),
            &["size"],
            ModelStrategy::Glm,
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = [32.0, 48.0, 97.0, 160.0, 240.0, 500.0]
            .iter()
            .map(|&s| vec![s])
            .collect();
        let flat = FlatForest::from_forest(&p.model.reduced_forest);
        let arena = p.predict_rows(&queries, &[], None).unwrap();
        let compiled = p.predict_rows(&queries, &[], Some(&flat)).unwrap();
        assert_eq!(arena.len(), queries.len());
        for ((q, a), c) in queries.iter().zip(&arena).zip(&compiled) {
            assert_eq!(p.predict(q).unwrap().to_bits(), a.predicted_ms.to_bits());
            assert_eq!(a.predicted_ms.to_bits(), c.predicted_ms.to_bits());
            assert_eq!(a.counters, c.counters);
            let names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, p.model.selected);
        }
        // Arity errors surface for any bad row in the batch.
        let err = p
            .predict_rows(&[vec![1.0], vec![1.0, 2.0]], &[], Some(&flat))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "data error: expected 1 characteristics, got 2"
        );
    }

    #[test]
    fn overrides_replace_retained_counters_by_name() {
        let data = mm_dataset(&GpuConfig::gtx580(), false);
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(39),
            &["size"],
            ModelStrategy::Glm,
        )
        .unwrap();
        let base = p.predict_rows(&[[160.0]], &[], None).unwrap().remove(0);
        let (name, _) = base.counters[0].clone();
        let pinned = vec![(name.clone(), 1e9), ("not_retained".into(), -1.0)];
        let got = p.predict_rows(&[[160.0]], &pinned, None).unwrap().remove(0);
        assert_eq!(got.counters[0], (name, 1e9));
        assert_eq!(got.counters[1..], base.counters[1..]);
    }

    #[test]
    fn predict_rejects_wrong_arity() {
        let data = mm_dataset(&GpuConfig::gtx580(), false);
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(33),
            &["size"],
            ModelStrategy::Glm,
        )
        .unwrap();
        assert!(p.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn hardware_scaling_mm_transfers_fermi_to_kepler() {
        let src = mm_dataset(&GpuConfig::gtx580(), true);
        let tgt = mm_dataset(&GpuConfig::k20m(), true);
        let (tgt_train, tgt_test) = tgt.split(0.8, 7);
        let hw = HardwareScalingPredictor::fit(
            &src,
            &tgt_train,
            &ModelConfig::quick(34),
            HwFeatureStrategy::SourceImportance,
        )
        .unwrap();
        assert!(hw.similarity >= 0.0 && hw.similarity <= 1.0);
        let points = hw.evaluate(&tgt_test, "size").unwrap();
        assert_eq!(points.len(), tgt_test.len());
        // Predictions should at least be positive and finite.
        assert!(points
            .iter()
            .all(|p| p.predicted_ms.is_finite() && p.predicted_ms > 0.0));
    }

    #[test]
    fn mixed_strategy_uses_superset_of_source_features() {
        let src = mm_dataset(&GpuConfig::gtx580(), true);
        let tgt = mm_dataset(&GpuConfig::k20m(), true);
        let (tgt_train, _) = tgt.split(0.8, 7);
        let cfg = ModelConfig::quick(35);
        let a = HardwareScalingPredictor::fit(
            &src,
            &tgt_train,
            &cfg,
            HwFeatureStrategy::SourceImportance,
        )
        .unwrap();
        let b = HardwareScalingPredictor::fit(
            &src,
            &tgt_train,
            &cfg,
            HwFeatureStrategy::MixedImportance,
        )
        .unwrap();
        assert!(b.features.len() >= a.features.len());
        for f in &a.features {
            assert!(b.features.contains(f));
        }
    }

    #[test]
    fn common_features_excludes_arch_specific_counters() {
        let src = mm_dataset(&GpuConfig::gtx580(), true);
        let tgt = mm_dataset(&GpuConfig::k20m(), true);
        let common = common_features(&src, &tgt);
        assert!(!common.iter().any(|n| n == "l1_global_load_hit"));
        assert!(!common.iter().any(|n| n == "shared_load_replay"));
        assert!(common.iter().any(|n| n == "size"));
        assert!(common.iter().any(|n| n == "mbw"));
    }

    #[test]
    fn predictor_round_trips_through_json() {
        let data = mm_dataset(&GpuConfig::gtx580(), false);
        let p = ProblemScalingPredictor::fit(
            &data,
            &ModelConfig::quick(36),
            &["size"],
            ModelStrategy::Glm,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("bf_predict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        p.save(&path).unwrap();
        let back = ProblemScalingPredictor::load(&path).unwrap();
        for q in [48.0, 160.0, 240.0] {
            assert_eq!(p.predict(&[q]).unwrap(), back.predict(&[q]).unwrap());
        }
        assert_eq!(p.model.selected, back.model.selected);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_garbage_file() {
        let dir = std::env::temp_dir().join("bf_predict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(ProblemScalingPredictor::load(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spearman_identity_and_reversal() {
        let a: Vec<String> = (0..6).map(|i| format!("c{i}")).collect();
        assert!((spearman(&a, &a) - 1.0).abs() < 1e-12);
        let rev: Vec<String> = a.iter().rev().cloned().collect();
        assert!((spearman(&a, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_correlation_is_reported_and_bounded() {
        let src = mm_dataset(&GpuConfig::gtx580(), true);
        let tgt = mm_dataset(&GpuConfig::k20m(), true);
        let (tgt_train, _) = tgt.split(0.8, 7);
        let hw = HardwareScalingPredictor::fit(
            &src,
            &tgt_train,
            &ModelConfig::quick(37),
            HwFeatureStrategy::SourceImportance,
        )
        .unwrap();
        assert!((-1.0..=1.0).contains(&hw.rank_correlation));
    }

    #[test]
    fn summarize_computes_consistent_metrics() {
        let points = vec![
            PredictionPoint {
                characteristics: vec![1.0],
                predicted_ms: 1.0,
                measured_ms: 1.0,
            },
            PredictionPoint {
                characteristics: vec![2.0],
                predicted_ms: 2.0,
                measured_ms: 2.2,
            },
        ];
        let s = summarize(&points);
        assert!(s.mse > 0.0 && s.mse < 0.1);
        assert!(s.mape > 0.0);
    }
}
