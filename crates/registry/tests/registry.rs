//! Registry lifecycle tests with real trained bundles: load → alias →
//! swap → drain, A/B splits, admin validation errors, and the shadow
//! replay engine end-to-end.

use bf_registry::{
    AliasUpdate, BundleError, ModelBundle, Registry, RegistryError, ShadowJob, Split,
};
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn quick_bundle(seed: u64) -> ModelBundle {
    let gpu = GpuConfig::gtx580();
    let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(seed));
    let sizes: Vec<usize> = (2..=14).map(|k| k * 16).collect();
    let report = bf.analyze(Workload::MatMul, &sizes).unwrap();
    ModelBundle::from_report(&report, &gpu, &sizes, true)
}

/// Two distinct trained bundles, shared across tests (training dominates
/// this suite's runtime).
fn bundles() -> &'static (ModelBundle, ModelBundle) {
    static BUNDLES: OnceLock<(ModelBundle, ModelBundle)> = OnceLock::new();
    BUNDLES.get_or_init(|| (quick_bundle(601), quick_bundle(602)))
}

#[test]
fn load_alias_resolve_and_hot_swap() {
    let (a, b) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();
    assert_eq!(id_a, a.content_id());
    // Loading the same bundle again is an idempotent success.
    assert_eq!(registry.load_bundle(a.clone()).unwrap(), id_a);
    assert_eq!(registry.list().models.len(), 1);

    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .unwrap();

    let mut reader = registry.reader();
    let before = reader.resolve("default").unwrap();
    assert_eq!(before.model.content_id, id_a);
    assert_eq!(before.alias.as_deref(), Some("default"));
    // Direct content-id addressing resolves too.
    assert_eq!(
        reader
            .resolve(&format!("{id_a:016x}"))
            .unwrap()
            .model
            .content_id,
        id_a
    );

    // Hot swap: the reader sees the new model on its next resolve, while
    // the in-flight `Resolved` keeps the old model alive and bit-stable.
    let id_b = registry.load_bundle(b.clone()).unwrap();
    assert_ne!(id_a, id_b);
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_b),
            ..AliasUpdate::default()
        })
        .unwrap();
    let after = reader.resolve("default").unwrap();
    assert_eq!(after.model.content_id, id_b);
    assert_eq!(before.model.content_id, id_a, "in-flight Arc is unaffected");

    // Warm-up provably ran before publication on both models.
    assert_eq!(before.model.warm_checksum, before.model.flat.warm());
    assert_eq!(after.model.warm_checksum, after.model.flat.warm());
}

#[test]
fn bundle_whose_chain_cannot_run_is_refused_and_nothing_is_published() {
    let (a, _) = bundles();
    let registry = Registry::new();
    let id_a = registry.load_bundle(a.clone()).unwrap();
    let before = registry.list();

    let mut short = a.clone();
    short.predictor.counters.models.pop();
    let mut renamed = a.clone();
    renamed.characteristics[0] = "mystery".into();
    for (tampered, mismatch) in [
        (short, "cannot feed a reduced forest of width"),
        (renamed, "disagree with the counter models'"),
    ] {
        let err = registry.load_bundle(tampered).unwrap_err();
        assert!(
            matches!(&err, RegistryError::Bundle(BundleError::Format(msg)) if msg.contains(mismatch)),
            "{err}"
        );
        assert_eq!(err.http_status(), 400);
    }

    let after = registry.list();
    assert_eq!(
        after.epoch, before.epoch,
        "a refused load publishes nothing"
    );
    let ids: Vec<String> = after.models.iter().map(|m| m.id.clone()).collect();
    assert_eq!(ids, vec![format!("{id_a:016x}")]);
}

#[test]
fn ab_split_routes_the_configured_percentage() {
    let (a, b) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();
    let id_b = registry.load_bundle(b.clone()).unwrap();
    registry
        .set_alias(AliasUpdate {
            alias: "canary".into(),
            id: Some(id_a),
            create: true,
            split: Some(Split {
                secondary: id_b,
                percent: 25,
            }),
            ..AliasUpdate::default()
        })
        .unwrap();
    let mut reader = registry.reader();
    let mut secondary = 0usize;
    for _ in 0..400 {
        let r = reader.resolve("canary").unwrap();
        if r.split_secondary {
            assert_eq!(r.model.content_id, id_b);
            secondary += 1;
        } else {
            assert_eq!(r.model.content_id, id_a);
        }
    }
    // The arm selector is a deterministic counter mod 100: exactly 25%.
    assert_eq!(secondary, 100);
}

#[test]
fn unload_refuses_aliased_models_then_drains() {
    let (a, b) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();
    let id_b = registry.load_bundle(b.clone()).unwrap();
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .unwrap();

    // Still aliased: refused with the holding aliases named.
    match registry.unload(id_a) {
        Err(RegistryError::InUse { id, aliases }) => {
            assert_eq!(id, id_a);
            assert_eq!(aliases, vec!["default".to_string()]);
        }
        other => panic!("expected InUse, got {other:?}"),
    }

    // Repoint, hold a simulated in-flight reference, then unload.
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_b),
            ..AliasUpdate::default()
        })
        .unwrap();
    let mut reader = registry.reader();
    let inflight = reader.resolve(&format!("{id_a:016x}")).unwrap();
    registry.unload(id_a).unwrap();
    assert!(
        reader.resolve(&format!("{id_a:016x}")).is_err(),
        "unloaded model must disappear from routing"
    );
    // The in-flight Arc still works and keeps the model draining.
    assert_eq!(inflight.model.content_id, id_a);
    assert_eq!(registry.sweep_drained(), 1);
    let draining = registry.draining();
    assert_eq!(draining.len(), 1);
    assert_eq!(draining[0].0, id_a);
    // Dropping the last reference completes the drain.
    drop(inflight);
    assert_eq!(registry.sweep_drained(), 0);
    assert!(registry.list().draining.is_empty());

    // Unloading an unknown model is a 404-mapped error.
    assert!(matches!(
        registry.unload(id_a),
        Err(RegistryError::UnknownModel { .. })
    ));
}

#[test]
fn alias_validation_unknown_alias_fingerprint_and_compatibility() {
    let (a, _) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();

    // Updating a nonexistent alias without create is a 409.
    let err = registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            ..AliasUpdate::default()
        })
        .unwrap_err();
    assert!(matches!(err, RegistryError::UnknownAlias { .. }));
    assert_eq!(err.http_status(), 409);

    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .unwrap();

    // A bundle trained on a different GPU fingerprint cannot be swapped in
    // without force.
    let mut foreign = a.clone();
    foreign.gpu_fingerprint ^= 0xdead_beef;
    let id_foreign = registry.load_bundle(foreign).unwrap();
    let err = registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_foreign),
            ..AliasUpdate::default()
        })
        .unwrap_err();
    assert!(matches!(err, RegistryError::FingerprintMismatch { .. }));
    assert_eq!(err.http_status(), 409);
    assert!(err.to_string().contains("force"), "{err}");
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_foreign),
            force: true,
            ..AliasUpdate::default()
        })
        .unwrap();

    // A shadow with a different characteristic schema is rejected (the
    // rename reaches the counter models too, so the bundle itself loads).
    let mut skewed = a.clone();
    skewed.characteristics = vec!["width".into()];
    skewed.predictor.counters.characteristics = vec!["width".into()];
    let id_skewed = registry.load_bundle(skewed).unwrap();
    let err = registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            shadow: Some(id_skewed),
            force: true,
            ..AliasUpdate::default()
        })
        .unwrap_err();
    assert!(matches!(err, RegistryError::Incompatible { .. }));
    assert_eq!(err.http_status(), 409);

    // Pointing an alias at a model that was never loaded is a 404.
    let err = registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(0x1234),
            ..AliasUpdate::default()
        })
        .unwrap_err();
    assert!(matches!(err, RegistryError::UnknownModel { .. }));
    assert_eq!(err.http_status(), 404);

    // Percent must be a percentage.
    let err = registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            split: Some(Split {
                secondary: id_a,
                percent: 101,
            }),
            ..AliasUpdate::default()
        })
        .unwrap_err();
    assert!(matches!(err, RegistryError::BadRequest { .. }));
}

#[test]
fn shadow_engine_replays_and_reports_divergence() {
    let (a, b) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();
    let id_b = registry.load_bundle(b.clone()).unwrap();
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            shadow: Some(id_b),
            ..AliasUpdate::default()
        })
        .unwrap();

    let mut reader = registry.reader();
    let resolved = reader.resolve("default").unwrap();
    let shadow = resolved.shadow.clone().expect("shadow attached");
    assert_eq!(shadow.content_id, id_b);

    // Replay a few primary predictions against the shadow.
    let rows: Vec<Vec<f64>> = [48.0, 96.0, 160.0]
        .iter()
        .map(|&s| {
            resolved
                .model
                .bundle
                .characteristics_for(s, None, None)
                .unwrap()
        })
        .collect();
    let primary_ms: Vec<f64> = rows
        .iter()
        .map(|r| resolved.model.bundle.predictor.predict(r).unwrap())
        .collect();
    registry.submit_shadow(ShadowJob {
        shadow: Arc::clone(&shadow),
        primary_id: resolved.model.content_id,
        workload: resolved.model.bundle.workload.clone(),
        rows: rows.clone(),
        primary_ms: primary_ms.clone(),
    });

    // The engine is asynchronous; poll until the report lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let report = loop {
        let report = registry.shadow_report();
        if report.requests >= 1 || Instant::now() > deadline {
            break report;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(report.requests, 1);
    assert_eq!(report.rows, 3);
    assert_eq!(report.errors, 0);
    // Two differently seeded trainings genuinely disagree somewhere.
    assert!(report.max_rel_delta > 0.0, "report: {report:?}");
    assert!(report.mean_rel_delta <= report.max_rel_delta);
    let per = report
        .per_workload
        .get(&resolved.model.bundle.workload)
        .expect("per-workload entry");
    assert_eq!(per.rows, 3);
    let pair = format!("{id_a:016x}→{id_b:016x}");
    assert_eq!(report.pairs.get(&pair), Some(&3));

    // The metric exposition carries the same counters.
    let metrics = registry.render_metrics();
    assert!(metrics.contains("bf_shadow_requests_total 1"), "{metrics}");
    assert!(metrics.contains("bf_shadow_rows_total 3"));
    assert!(metrics.contains(&format!(
        "bf_shadow_rows_total{{workload=\"{}\"}} 3",
        resolved.model.bundle.workload
    )));
}

#[test]
fn reader_epoch_only_refreshes_on_publication() {
    let (a, _) = bundles();
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).unwrap();
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .unwrap();
    let epoch = registry.epoch();
    let mut reader = registry.reader();
    // Steady state: resolves do not move the epoch.
    for _ in 0..100 {
        reader.resolve("default").unwrap();
    }
    assert_eq!(registry.epoch(), epoch);
    // A publication moves it exactly once.
    registry
        .set_alias(AliasUpdate {
            alias: "canary".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .unwrap();
    assert_eq!(registry.epoch(), epoch + 1);
    // Per-model serving counters are caller-driven.
    let r = reader.resolve("default").unwrap();
    r.model.record_served(5);
    assert_eq!(r.model.served_requests.load(Ordering::Relaxed), 1);
    assert_eq!(r.model.served_rows.load(Ordering::Relaxed), 5);
    let metrics = registry.render_metrics();
    assert!(metrics.contains(&format!("bf_model_rows_total{{model=\"{id_a:016x}\"}} 5")));
}
