//! Shadow-mode replay: primary predictions are re-evaluated against a
//! shadow bundle off the hot path, and the paired results feed a
//! streaming divergence report.
//!
//! The engine is a bounded channel plus one dedicated thread. Submission
//! is `try_send`: when the queue is full the job is *dropped and counted*
//! rather than blocking — shadow mode must never backpressure the primary
//! path (the bench pins this: shadow adds no measurable p99). Divergence
//! is tracked as the relative delta `|shadow − primary| / max(|primary|,
//! 1e-12)` per row, aggregated overall and per workload.

use crate::registry::LoadedModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Jobs the shadow queue will hold before dropping new ones.
const SHADOW_QUEUE_CAP: usize = 1024;

/// One primary request replayed against a shadow model.
pub struct ShadowJob {
    /// The shadow model to evaluate.
    pub shadow: Arc<LoadedModel>,
    /// Content id of the primary that answered the live request.
    pub primary_id: u64,
    /// Workload name of the primary (the report's breakdown key).
    pub workload: String,
    /// The canonicalized characteristic rows of the request.
    pub rows: Vec<Vec<f64>>,
    /// The primary's predicted times, one per row.
    pub primary_ms: Vec<f64>,
}

/// Divergence aggregate for one workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadDelta {
    /// Paired rows compared.
    pub rows: u64,
    /// Mean relative delta over those rows.
    pub mean_rel_delta: f64,
    /// Largest relative delta seen.
    pub max_rel_delta: f64,
    /// Sum of relative deltas (the mean's numerator; kept so the report
    /// stays exactly mergeable).
    pub sum_rel_delta: f64,
}

/// The streaming divergence report served at `/v1/models/shadow/report`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Requests replayed against a shadow.
    pub requests: u64,
    /// Prediction rows compared.
    pub rows: u64,
    /// Jobs dropped because the shadow queue was full.
    pub dropped: u64,
    /// Rows whose shadow evaluation failed (e.g. schema drift).
    pub errors: u64,
    /// Mean relative delta over every compared row.
    pub mean_rel_delta: f64,
    /// Largest relative delta over every compared row.
    pub max_rel_delta: f64,
    /// Per-workload breakdown, keyed by workload name.
    pub per_workload: BTreeMap<String, WorkloadDelta>,
    /// `primary→shadow` content-id pairs and how many rows each compared.
    pub pairs: BTreeMap<String, u64>,
}

#[derive(Default)]
struct ShadowAccum {
    requests: u64,
    rows: u64,
    errors: u64,
    sum_rel: f64,
    max_rel: f64,
    per_workload: BTreeMap<String, WorkloadDelta>,
    pairs: BTreeMap<String, u64>,
}

impl ShadowAccum {
    /// Folds one evaluated job into the running aggregates. `shadow_ms` is
    /// `None` when the shadow could not price the job (e.g. schema drift):
    /// every row then counts as an error.
    fn record(
        &mut self,
        workload: &str,
        pair: String,
        primary_ms: &[f64],
        shadow_ms: Option<&[f64]>,
    ) {
        self.requests += 1;
        let entry = self.per_workload.entry(workload.to_string()).or_default();
        let pair_rows = self.pairs.entry(pair).or_insert(0);
        let Some(shadow_ms) = shadow_ms else {
            self.errors += primary_ms.len() as u64;
            return;
        };
        for (primary, shadow) in primary_ms.iter().zip(shadow_ms) {
            let rel = (shadow - primary).abs() / primary.abs().max(1e-12);
            self.rows += 1;
            *pair_rows += 1;
            self.sum_rel += rel;
            self.max_rel = self.max_rel.max(rel);
            entry.rows += 1;
            entry.sum_rel_delta += rel;
            entry.max_rel_delta = entry.max_rel_delta.max(rel);
        }
    }

    fn report(&self, dropped: u64) -> ShadowReport {
        let per_workload = self
            .per_workload
            .iter()
            .map(|(k, v)| {
                let mut v = v.clone();
                v.mean_rel_delta = if v.rows > 0 {
                    v.sum_rel_delta / v.rows as f64
                } else {
                    0.0
                };
                (k.clone(), v)
            })
            .collect();
        ShadowReport {
            requests: self.requests,
            rows: self.rows,
            dropped,
            errors: self.errors,
            mean_rel_delta: if self.rows > 0 {
                self.sum_rel / self.rows as f64
            } else {
                0.0
            },
            max_rel_delta: self.max_rel,
            per_workload,
            pairs: self.pairs.clone(),
        }
    }
}

/// The replay engine: a bounded queue and its evaluation thread.
pub(crate) struct ShadowEngine {
    tx: Mutex<Option<SyncSender<ShadowJob>>>,
    dropped: Arc<AtomicU64>,
    accum: Arc<Mutex<ShadowAccum>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl ShadowEngine {
    /// Spawns the evaluation thread and returns the engine.
    pub(crate) fn start() -> ShadowEngine {
        let (tx, rx) = sync_channel::<ShadowJob>(SHADOW_QUEUE_CAP);
        let accum: Arc<Mutex<ShadowAccum>> = Arc::default();
        let worker_accum = Arc::clone(&accum);
        let handle = std::thread::Builder::new()
            .name("bf-shadow".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let _span = bf_trace::span!("shadow.replay", rows = job.rows.len());
                    let shadow = &job.shadow;
                    let shadow_ms: Option<Vec<f64>> = shadow
                        .bundle
                        .predictor
                        .predict_rows(&job.rows, &[])
                        .ok()
                        .map(|answers| answers.iter().map(|p| p.predicted_ms).collect());
                    bf_trace::counter!("serve.shadow.replayed");
                    let pair = format!("{:016x}→{}", job.primary_id, shadow.id_hex());
                    worker_accum.lock().unwrap().record(
                        &job.workload,
                        pair,
                        &job.primary_ms,
                        shadow_ms.as_deref(),
                    );
                }
            })
            .expect("spawn shadow thread");
        ShadowEngine {
            tx: Mutex::new(Some(tx)),
            dropped: Arc::new(AtomicU64::new(0)),
            accum,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Enqueues a job; on a full queue the job is dropped and counted so
    /// the caller (the primary request path) never blocks.
    pub(crate) fn submit(&self, job: ShadowJob) {
        let guard = self.tx.lock().unwrap();
        let Some(tx) = guard.as_ref() else { return };
        match tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                bf_trace::counter!("serve.shadow.dropped");
            }
        }
    }

    /// The current streaming report.
    pub(crate) fn report(&self) -> ShadowReport {
        self.accum
            .lock()
            .unwrap()
            .report(self.dropped.load(Ordering::Relaxed))
    }

    /// Prometheus-style exposition (`bf_shadow_*`).
    pub(crate) fn render_metrics(&self) -> String {
        let report = self.report();
        let mut out = String::with_capacity(512);
        out.push_str("# HELP bf_shadow_requests_total Requests replayed against a shadow model.\n");
        out.push_str("# TYPE bf_shadow_requests_total counter\n");
        out.push_str(&format!("bf_shadow_requests_total {}\n", report.requests));
        out.push_str("# TYPE bf_shadow_rows_total counter\n");
        out.push_str(&format!("bf_shadow_rows_total {}\n", report.rows));
        out.push_str("# TYPE bf_shadow_dropped_total counter\n");
        out.push_str(&format!("bf_shadow_dropped_total {}\n", report.dropped));
        out.push_str("# TYPE bf_shadow_errors_total counter\n");
        out.push_str(&format!("bf_shadow_errors_total {}\n", report.errors));
        out.push_str(
            "# HELP bf_shadow_rel_delta Relative divergence of shadow vs primary predictions.\n",
        );
        out.push_str("# TYPE bf_shadow_rel_delta_mean gauge\n");
        out.push_str(&format!(
            "bf_shadow_rel_delta_mean {}\n",
            report.mean_rel_delta
        ));
        out.push_str("# TYPE bf_shadow_rel_delta_max gauge\n");
        out.push_str(&format!(
            "bf_shadow_rel_delta_max {}\n",
            report.max_rel_delta
        ));
        for (workload, delta) in &report.per_workload {
            out.push_str(&format!(
                "bf_shadow_rel_delta_mean{{workload=\"{workload}\"}} {}\n",
                delta.mean_rel_delta
            ));
            out.push_str(&format!(
                "bf_shadow_rel_delta_max{{workload=\"{workload}\"}} {}\n",
                delta.max_rel_delta
            ));
            out.push_str(&format!(
                "bf_shadow_rows_total{{workload=\"{workload}\"}} {}\n",
                delta.rows
            ));
        }
        out
    }
}

impl Drop for ShadowEngine {
    fn drop(&mut self) {
        // Closing the channel ends the thread's recv loop; join so queued
        // jobs are fully folded into the (now unobservable) report.
        *self.tx.lock().unwrap() = None;
        if let Some(handle) = self.handle.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_tracks_mean_max_and_per_workload() {
        // Exercise the math directly with synthetic shadow outcomes; the
        // engine's end-to-end path is covered by the crate's integration
        // tests with real bundles.
        let mut acc = ShadowAccum::default();
        acc.record(
            "reduce1",
            "aaaa→bbbb".into(),
            &[10.0, 100.0],
            Some(&[11.0, 90.0]),
        );
        let report = acc.report(3);
        assert_eq!(report.requests, 1);
        assert_eq!(report.rows, 2);
        assert_eq!(report.dropped, 3);
        assert_eq!(report.errors, 0);
        // Relative deltas: |11-10|/10 = 0.1 and |90-100|/100 = 0.1.
        assert!((report.mean_rel_delta - 0.1).abs() < 1e-12);
        assert!((report.max_rel_delta - 0.1).abs() < 1e-12);
        let wd = report.per_workload.get("reduce1").expect("workload entry");
        assert_eq!(wd.rows, 2);
        assert!((wd.mean_rel_delta - 0.1).abs() < 1e-12);
        assert_eq!(report.pairs.get("aaaa→bbbb"), Some(&2));

        // Errors count separately and never poison the aggregates.
        acc.record("reduce1", "aaaa→bbbb".into(), &[5.0], None);
        let report = acc.report(3);
        assert_eq!(report.errors, 1);
        assert_eq!(report.rows, 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut acc = ShadowAccum::default();
        acc.record("stencil", "aaaa→bbbb".into(), &[2.0], Some(&[3.0]));
        let report = acc.report(0);
        let json = serde_json::to_string(&report).unwrap();
        let back: ShadowReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows, report.rows);
        assert_eq!(back.per_workload.len(), 1);
        assert!((back.mean_rel_delta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_primary_uses_epsilon_floor() {
        let mut acc = ShadowAccum::default();
        acc.record("reduce1", "p→s".into(), &[0.0], Some(&[0.0]));
        let report = acc.report(0);
        assert_eq!(report.rows, 1);
        assert_eq!(report.max_rel_delta, 0.0);
    }
}
