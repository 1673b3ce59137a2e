//! The registry proper: loaded models, alias routing, and the
//! epoch-validated snapshot reader.
//!
//! ## Concurrency design
//!
//! All routing state lives in one immutable [`RouteTable`] behind an
//! `Arc`. Mutations (load, unload, alias swap) clone the table, edit the
//! clone, and publish it by replacing the `Arc` and bumping an epoch
//! counter — classic read-copy-update. A [`RegistryReader`] caches the
//! `Arc` it last saw together with the epoch it was published at; each
//! request costs one atomic load to revalidate, and only the first read
//! *after* a mutation takes the table lock (to clone the new `Arc`).
//! Since mutations are rare (an operator action) and readers hold the lock
//! for a single `Arc::clone`, the serving hot path is lock-free in the
//! steady state and never waits on a reload in progress: the expensive
//! part of a load — decoding and checking the bundle — happens before the
//! lock is touched.
//!
//! ## Drain protocol
//!
//! Models are handed to requests as `Arc<LoadedModel>` clones resolved at
//! dispatch time, so an in-flight request keeps its model alive (and
//! bit-stable) across any number of concurrent swaps — requests never fail
//! or mix models mid-flight. An unloaded model moves to a *graveyard* and
//! is considered drained once its only remaining reference is the
//! graveyard's own (`Arc::strong_count == 1`): no request, worker, or
//! cached reader snapshot can still touch it. [`Registry::sweep_drained`]
//! drops drained entries; it runs implicitly on every list/metrics render.

use crate::bundle::{BundleError, ModelBundle};
use crate::shadow::{ShadowEngine, ShadowJob, ShadowReport};
use bf_forest::RandomForest;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// A bundle loaded for serving: the artifact, its content id, and
/// per-model serving counters. Predictions price through
/// `bundle.predictor`.
pub struct LoadedModel {
    /// The artifact itself.
    pub bundle: ModelBundle,
    /// Content hash of the serialized bundle; the model's address.
    pub content_id: u64,
    /// A clone of the bundle's reduced forest, which nothing in the
    /// workspace reads. It stays only for the benchmark's serve replay
    /// (`perfbench/src/serve.rs`), which calls `flat.predict_batch`; the
    /// benchmark change of ROADMAP item 3 moves that replay onto
    /// `predict_rows` and deletes this field.
    pub flat: RandomForest,
    /// Path the bundle was loaded from, when it came from disk.
    pub source: Option<PathBuf>,
    /// Unix seconds when the model was loaded into this registry.
    pub loaded_unix: u64,
    /// Requests answered by this model.
    pub served_requests: AtomicU64,
    /// Prediction rows answered by this model.
    pub served_rows: AtomicU64,
}

impl LoadedModel {
    /// Readies a bundle for serving. A bundle whose prediction chain cannot
    /// run ([`ModelBundle::check_chain`]) is refused, so it is never
    /// published.
    fn build(bundle: ModelBundle, source: Option<PathBuf>) -> Result<LoadedModel, BundleError> {
        let mut span = bf_trace::span!("registry.load", workload = bundle.workload.as_str());
        bundle.check_chain().map_err(BundleError::Format)?;
        let forest = &bundle.predictor.model.reduced_forest;
        let content_id = bundle.content_id();
        if span.is_active() {
            span.attr("content_id", format!("{content_id:016x}").as_str());
            span.attr("trees", forest.n_trees() as u64);
        }
        Ok(LoadedModel {
            flat: forest.clone(),
            bundle,
            content_id,
            source,
            loaded_unix: now_unix(),
            served_requests: AtomicU64::new(0),
            served_rows: AtomicU64::new(0),
        })
    }

    /// The model's address in hex, as used in URLs and metric labels.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.content_id)
    }

    /// Records one answered request of `rows` prediction rows.
    pub fn record_served(&self, rows: u64) {
        self.served_requests.fetch_add(1, Ordering::Relaxed);
        self.served_rows.fetch_add(rows, Ordering::Relaxed);
    }
}

/// Percentage traffic split attached to an alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Split {
    /// Content id of the secondary model.
    pub secondary: u64,
    /// Percent of requests (0–100) routed to the secondary.
    pub percent: u8,
}

/// What an alias routes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasTarget {
    /// Content id of the primary model.
    pub primary: u64,
    /// Optional percentage A/B split.
    pub split: Option<Split>,
    /// Optional shadow model: every primary request is replayed against it
    /// off the hot path.
    pub shadow: Option<u64>,
}

/// One immutable routing snapshot: the loaded models and the alias map.
#[derive(Clone, Default)]
pub struct RouteTable {
    models: Vec<Arc<LoadedModel>>,
    aliases: BTreeMap<String, AliasTarget>,
}

impl RouteTable {
    /// The model with this content id, if loaded.
    pub fn model(&self, id: u64) -> Option<&Arc<LoadedModel>> {
        self.models.iter().find(|m| m.content_id == id)
    }

    /// The alias entry with this name, if set.
    pub fn alias(&self, name: &str) -> Option<&AliasTarget> {
        self.aliases.get(name)
    }

    /// All loaded models.
    pub fn models(&self) -> &[Arc<LoadedModel>] {
        &self.models
    }

    /// All aliases, name-sorted.
    pub fn aliases(&self) -> impl Iterator<Item = (&String, &AliasTarget)> {
        self.aliases.iter()
    }
}

/// The outcome of resolving a predict target: the model the request must
/// use for its whole lifetime, plus the shadow model to replay against.
#[derive(Clone)]
pub struct Resolved {
    /// The model that answers the request.
    pub model: Arc<LoadedModel>,
    /// Shadow model attached to the resolved alias, if any.
    pub shadow: Option<Arc<LoadedModel>>,
    /// The alias the request came through, when it did.
    pub alias: Option<String>,
    /// Whether an A/B split routed this request to the secondary.
    pub split_secondary: bool,
}

/// Errors from registry operations, each with a canonical HTTP status.
#[derive(Debug)]
pub enum RegistryError {
    /// The bundle file failed to load or decode.
    Bundle(BundleError),
    /// No loaded model under this id or alias.
    UnknownModel {
        /// The id/alias as given.
        key: String,
    },
    /// An alias swap targeted an alias that does not exist (and `create`
    /// was not set).
    UnknownAlias {
        /// The alias as given.
        alias: String,
    },
    /// The proposed model was trained on a different GPU than the alias
    /// currently serves (and `force` was not set).
    FingerprintMismatch {
        /// The alias being updated.
        alias: String,
        /// Fingerprint of the currently aliased model.
        current: u64,
        /// Fingerprint of the proposed model.
        proposed: u64,
    },
    /// Models that cannot be paired (e.g. shadow with a different
    /// characteristic schema than the primary).
    Incompatible {
        /// Human-readable explanation.
        reason: String,
    },
    /// The model is still referenced by one or more aliases.
    InUse {
        /// The model being unloaded.
        id: u64,
        /// Aliases still routing to it.
        aliases: Vec<String>,
    },
    /// A malformed request (bad percent, missing field, ...).
    BadRequest {
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Bundle(e) => write!(f, "{e}"),
            RegistryError::UnknownModel { key } => {
                write!(f, "no loaded model under id or alias {key:?}")
            }
            RegistryError::UnknownAlias { alias } => write!(
                f,
                "alias {alias:?} does not exist; pass \"create\": true to create it"
            ),
            RegistryError::FingerprintMismatch {
                alias,
                current,
                proposed,
            } => write!(
                f,
                "alias {alias:?} currently serves a bundle with GPU fingerprint \
                 {current:#x}; the proposed bundle was trained on fingerprint {proposed:#x} \
                 — pass \"force\": true to swap across GPUs"
            ),
            RegistryError::Incompatible { reason } => write!(f, "incompatible models: {reason}"),
            RegistryError::InUse { id, aliases } => write!(
                f,
                "model {id:016x} is still aliased by {aliases:?}; repoint or drop the \
                 aliases before unloading"
            ),
            RegistryError::BadRequest { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<BundleError> for RegistryError {
    fn from(e: BundleError) -> Self {
        RegistryError::Bundle(e)
    }
}

impl RegistryError {
    /// The HTTP status the serving layer should answer with.
    pub fn http_status(&self) -> u16 {
        match self {
            RegistryError::Bundle(_) | RegistryError::BadRequest { .. } => 400,
            RegistryError::UnknownModel { .. } => 404,
            RegistryError::UnknownAlias { .. }
            | RegistryError::FingerprintMismatch { .. }
            | RegistryError::Incompatible { .. }
            | RegistryError::InUse { .. } => 409,
        }
    }
}

/// An admin alias update. `id` is the new primary (`None` keeps the
/// current one); `split`/`shadow` replace the alias's split and shadow
/// outright (`None` clears them).
#[derive(Debug, Default)]
pub struct AliasUpdate {
    /// Alias name to create or update.
    pub alias: String,
    /// New primary model (content id). `None` keeps the current primary.
    pub id: Option<u64>,
    /// Create the alias if it does not exist (otherwise 409).
    pub create: bool,
    /// Allow swapping to a model trained on a different GPU fingerprint.
    pub force: bool,
    /// Percentage A/B split to install (replaces any existing split).
    pub split: Option<Split>,
    /// Shadow model to attach (replaces any existing shadow).
    pub shadow: Option<u64>,
}

/// A model removed from the table, awaiting drain.
struct Retired {
    model: Arc<LoadedModel>,
    retired_unix: u64,
}

/// The registry: an epoch-published [`RouteTable`] plus the shadow engine
/// and the drain graveyard.
pub struct Registry {
    /// Bumped on every published mutation; readers revalidate against it.
    epoch: AtomicU64,
    table: Mutex<Arc<RouteTable>>,
    graveyard: Mutex<Vec<Retired>>,
    shadow: ShadowEngine,
    /// Deterministic A/B arm selector: request counter modulo 100.
    ab_counter: AtomicU64,
    /// Published mutations (loads, unloads, alias swaps) since start.
    swaps: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with a running shadow engine.
    pub fn new() -> Registry {
        Registry {
            epoch: AtomicU64::new(0),
            table: Mutex::new(Arc::new(RouteTable::default())),
            graveyard: Mutex::new(Vec::new()),
            shadow: ShadowEngine::start(),
            ab_counter: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current epoch. Changes exactly when the routing table does.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A fresh snapshot reader. Each serving thread owns one.
    pub fn reader(self: &Arc<Self>) -> RegistryReader {
        let table = self.snapshot();
        RegistryReader {
            registry: Arc::clone(self),
            epoch: self.epoch(),
            table,
        }
    }

    /// The current table (slow path: takes the table lock for one clone).
    pub fn snapshot(&self) -> Arc<RouteTable> {
        Arc::clone(&self.table.lock().unwrap())
    }

    /// Clones the current table, applies `mutate`, and publishes the
    /// result under a new epoch. The closure must be cheap: every
    /// expensive step (bundle decode and checks) happens in the caller
    /// before this is entered.
    fn publish<T>(
        &self,
        mutate: impl FnOnce(&mut RouteTable) -> Result<T, RegistryError>,
    ) -> Result<T, RegistryError> {
        let mut guard = self.table.lock().unwrap();
        let mut next = RouteTable::clone(&guard);
        let out = mutate(&mut next)?;
        *guard = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        bf_trace::counter!("registry.publishes");
        Ok(out)
    }

    /// Loads a bundle value into the registry (checks outside any lock,
    /// then publish). Loading an already-loaded bundle is an
    /// idempotent success. Returns the content id.
    pub fn load_bundle(&self, bundle: ModelBundle) -> Result<u64, RegistryError> {
        self.load_model(bundle, None)
    }

    /// Loads a bundle from a JSON file; see [`Registry::load_bundle`].
    pub fn load_path(&self, path: &Path) -> Result<u64, RegistryError> {
        let bundle = ModelBundle::load(path)?;
        self.load_model(bundle, Some(path.to_path_buf()))
    }

    fn load_model(
        &self,
        bundle: ModelBundle,
        source: Option<PathBuf>,
    ) -> Result<u64, RegistryError> {
        let model = Arc::new(LoadedModel::build(bundle, source)?);
        let id = model.content_id;
        self.publish(|table| {
            if table.model(id).is_none() {
                table.models.push(model);
            }
            Ok(id)
        })?;
        Ok(id)
    }

    /// Unloads a model. Refused while any alias still routes to it; the
    /// model then drains in the graveyard (see the module docs).
    pub fn unload(&self, id: u64) -> Result<(), RegistryError> {
        let retired = self.publish(|table| {
            let holders: Vec<String> = table
                .aliases
                .iter()
                .filter(|(_, t)| {
                    t.primary == id
                        || t.shadow == Some(id)
                        || t.split.map(|s| s.secondary == id).unwrap_or(false)
                })
                .map(|(name, _)| name.clone())
                .collect();
            if !holders.is_empty() {
                return Err(RegistryError::InUse {
                    id,
                    aliases: holders,
                });
            }
            let at = table.models.iter().position(|m| m.content_id == id).ok_or(
                RegistryError::UnknownModel {
                    key: format!("{id:016x}"),
                },
            )?;
            Ok(table.models.remove(at))
        })?;
        self.graveyard.lock().unwrap().push(Retired {
            model: retired,
            retired_unix: now_unix(),
        });
        Ok(())
    }

    /// Creates or updates an alias. Validation (existence, GPU
    /// fingerprint, shadow/split compatibility) happens against the table
    /// being published, so concurrent admin calls cannot interleave into
    /// an invalid state.
    pub fn set_alias(&self, update: AliasUpdate) -> Result<AliasTarget, RegistryError> {
        if let Some(split) = update.split {
            if split.percent > 100 {
                return Err(RegistryError::BadRequest {
                    reason: format!("split percent must be 0–100, got {}", split.percent),
                });
            }
        }
        self.publish(move |table| {
            let existing = table.aliases.get(&update.alias).cloned();
            if existing.is_none() && !update.create {
                return Err(RegistryError::UnknownAlias {
                    alias: update.alias.clone(),
                });
            }
            let primary_id = match update.id.or(existing.as_ref().map(|t| t.primary)) {
                Some(id) => id,
                None => {
                    return Err(RegistryError::BadRequest {
                        reason: "a new alias needs an \"id\" to point at".into(),
                    })
                }
            };
            let primary =
                table
                    .model(primary_id)
                    .cloned()
                    .ok_or_else(|| RegistryError::UnknownModel {
                        key: format!("{primary_id:016x}"),
                    })?;
            if let Some(current) = existing.as_ref().and_then(|t| table.model(t.primary)) {
                if current.bundle.gpu_fingerprint != primary.bundle.gpu_fingerprint && !update.force
                {
                    return Err(RegistryError::FingerprintMismatch {
                        alias: update.alias.clone(),
                        current: current.bundle.gpu_fingerprint,
                        proposed: primary.bundle.gpu_fingerprint,
                    });
                }
            }
            for (role, id) in [
                ("split secondary", update.split.map(|s| s.secondary)),
                ("shadow", update.shadow),
            ] {
                let Some(id) = id else { continue };
                let other =
                    table
                        .model(id)
                        .cloned()
                        .ok_or_else(|| RegistryError::UnknownModel {
                            key: format!("{id:016x}"),
                        })?;
                if other.bundle.characteristics != primary.bundle.characteristics {
                    return Err(RegistryError::Incompatible {
                        reason: format!(
                            "{role} {:016x} expects characteristics {:?} but the primary \
                             expects {:?}; paired predictions would be meaningless",
                            id, other.bundle.characteristics, primary.bundle.characteristics
                        ),
                    });
                }
            }
            let target = AliasTarget {
                primary: primary_id,
                split: update.split,
                shadow: update.shadow,
            };
            table.aliases.insert(update.alias.clone(), target.clone());
            bf_trace::counter!("registry.alias_swaps");
            Ok(target)
        })
    }

    /// Resolves an id or alias against the current table (slow path; the
    /// serving threads use [`RegistryReader::resolve`]).
    pub fn resolve(&self, key: &str) -> Result<Resolved, RegistryError> {
        resolve_in(&self.snapshot(), key, &self.ab_counter)
    }

    /// Submits a shadow replay job; drops it (counted) when the shadow
    /// queue is full rather than slowing the primary path.
    pub fn submit_shadow(&self, job: ShadowJob) {
        self.shadow.submit(job);
    }

    /// The current streaming shadow divergence report.
    pub fn shadow_report(&self) -> ShadowReport {
        self.shadow.report()
    }

    /// Drops graveyard entries whose only reference is the graveyard's
    /// own; returns how many models are still draining.
    pub fn sweep_drained(&self) -> usize {
        let mut graveyard = self.graveyard.lock().unwrap();
        graveyard.retain(|r| Arc::strong_count(&r.model) > 1);
        graveyard.len()
    }

    /// `(content id, outstanding refs)` for every model still draining.
    pub fn draining(&self) -> Vec<(u64, usize)> {
        self.sweep_drained();
        self.graveyard
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.model.content_id, Arc::strong_count(&r.model) - 1))
            .collect()
    }

    /// A serializable inventory: models, aliases, and draining entries.
    pub fn list(&self) -> ModelsReport {
        self.sweep_drained();
        let table = self.snapshot();
        let models = table
            .models
            .iter()
            .map(|m| ModelInfo {
                id: m.id_hex(),
                workload: m.bundle.workload.clone(),
                gpu: m.bundle.gpu_name.clone(),
                gpu_fingerprint: format!("{:#x}", m.bundle.gpu_fingerprint),
                schema_version: m.bundle.schema_version,
                trees: m.bundle.predictor.model.reduced_forest.n_trees(),
                characteristics: m.bundle.characteristics.clone(),
                source: m.source.as_ref().map(|p| p.display().to_string()),
                loaded_unix: m.loaded_unix,
                served_requests: m.served_requests.load(Ordering::Relaxed),
                served_rows: m.served_rows.load(Ordering::Relaxed),
            })
            .collect();
        let aliases = table
            .aliases
            .iter()
            .map(|(name, t)| AliasInfo {
                alias: name.clone(),
                primary: format!("{:016x}", t.primary),
                split: t.split,
                split_secondary: t.split.map(|s| format!("{:016x}", s.secondary)),
                shadow: t.shadow.map(|id| format!("{id:016x}")),
            })
            .collect();
        let draining = self
            .graveyard
            .lock()
            .unwrap()
            .iter()
            .map(|r| DrainInfo {
                id: format!("{:016x}", r.model.content_id),
                refs: Arc::strong_count(&r.model) - 1,
                retired_unix: r.retired_unix,
            })
            .collect();
        ModelsReport {
            epoch: self.epoch(),
            models,
            aliases,
            draining,
        }
    }

    /// Prometheus-style exposition of registry and shadow state, appended
    /// to the server's `/metrics` body.
    pub fn render_metrics(&self) -> String {
        let draining = self.sweep_drained();
        let table = self.snapshot();
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP bf_models_loaded Models currently loaded in the registry.\n");
        out.push_str("# TYPE bf_models_loaded gauge\n");
        out.push_str(&format!("bf_models_loaded {}\n", table.models.len()));
        out.push_str("# HELP bf_models_draining Unloaded models with outstanding references.\n");
        out.push_str("# TYPE bf_models_draining gauge\n");
        out.push_str(&format!("bf_models_draining {draining}\n"));
        out.push_str("# HELP bf_registry_epoch Routing-table publications since start.\n");
        out.push_str("# TYPE bf_registry_epoch counter\n");
        out.push_str(&format!("bf_registry_epoch {}\n", self.epoch()));
        out.push_str("# HELP bf_model_requests_total Requests answered, per model.\n");
        out.push_str("# TYPE bf_model_requests_total counter\n");
        for m in table.models.iter() {
            out.push_str(&format!(
                "bf_model_requests_total{{model=\"{}\"}} {}\n",
                m.id_hex(),
                m.served_requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP bf_model_rows_total Prediction rows answered, per model.\n");
        out.push_str("# TYPE bf_model_rows_total counter\n");
        for m in table.models.iter() {
            out.push_str(&format!(
                "bf_model_rows_total{{model=\"{}\"}} {}\n",
                m.id_hex(),
                m.served_rows.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&self.shadow.render_metrics());
        out
    }
}

/// Resolves `key` (an alias name or a 16-hex-digit content id) against a
/// table, applying the alias's A/B split if one is installed.
fn resolve_in(
    table: &RouteTable,
    key: &str,
    ab_counter: &AtomicU64,
) -> Result<Resolved, RegistryError> {
    if let Some(target) = table.alias(key) {
        let mut id = target.primary;
        let mut split_secondary = false;
        if let Some(split) = target.split {
            // Deterministic round-robin arm selection: exactly `percent`
            // of every 100 consecutive resolutions take the secondary.
            let tick = ab_counter.fetch_add(1, Ordering::Relaxed);
            if (tick % 100) < u64::from(split.percent) {
                id = split.secondary;
                split_secondary = true;
            }
        }
        let model = table
            .model(id)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel {
                key: format!("{id:016x}"),
            })?;
        let shadow = target.shadow.and_then(|sid| table.model(sid).cloned());
        return Ok(Resolved {
            model,
            shadow,
            alias: Some(key.to_string()),
            split_secondary,
        });
    }
    if let Some(id) = parse_id_hex(key) {
        if let Some(model) = table.model(id).cloned() {
            return Ok(Resolved {
                model,
                shadow: None,
                alias: None,
                split_secondary: false,
            });
        }
    }
    Err(RegistryError::UnknownModel {
        key: key.to_string(),
    })
}

/// Parses a 16-hex-digit content id.
pub fn parse_id_hex(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// A serving thread's cached view of the routing table. `table()` and
/// `resolve()` revalidate with one atomic load; the lock is taken only on
/// the first call after a mutation, for a single `Arc` clone.
pub struct RegistryReader {
    registry: Arc<Registry>,
    epoch: u64,
    table: Arc<RouteTable>,
}

impl RegistryReader {
    /// The current table snapshot (refreshed if the epoch moved).
    pub fn table(&mut self) -> &Arc<RouteTable> {
        let now = self.registry.epoch.load(Ordering::Acquire);
        if now != self.epoch {
            self.table = self.registry.snapshot();
            self.epoch = now;
        }
        &self.table
    }

    /// Resolves an id or alias through the cached snapshot.
    pub fn resolve(&mut self, key: &str) -> Result<Resolved, RegistryError> {
        let now = self.registry.epoch.load(Ordering::Acquire);
        if now != self.epoch {
            self.table = self.registry.snapshot();
            self.epoch = now;
        }
        resolve_in(&self.table, key, &self.registry.ab_counter)
    }

    /// The registry this reader views.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// One loaded model, as listed by `GET /v1/models`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Content id (16 hex digits).
    pub id: String,
    /// Workload the bundle was trained for.
    pub workload: String,
    /// GPU the training sweep ran on.
    pub gpu: String,
    /// Training-GPU configuration fingerprint.
    pub gpu_fingerprint: String,
    /// Bundle schema version.
    pub schema_version: u32,
    /// Trees in the reduced forest.
    pub trees: usize,
    /// Characteristic names, in query order.
    pub characteristics: Vec<String>,
    /// Source path, when loaded from disk.
    pub source: Option<String>,
    /// Unix seconds when the model was loaded.
    pub loaded_unix: u64,
    /// Requests answered by this model.
    pub served_requests: u64,
    /// Prediction rows answered by this model.
    pub served_rows: u64,
}

/// One alias, as listed by `GET /v1/models`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AliasInfo {
    /// Alias name.
    pub alias: String,
    /// Primary model id (16 hex digits).
    pub primary: String,
    /// Installed A/B split, if any.
    pub split: Option<Split>,
    /// Secondary model id in hex, when a split is installed.
    pub split_secondary: Option<String>,
    /// Shadow model id in hex, when a shadow is attached.
    pub shadow: Option<String>,
}

/// One draining (unloaded, still referenced) model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainInfo {
    /// Content id (16 hex digits).
    pub id: String,
    /// References outstanding beyond the graveyard's own.
    pub refs: usize,
    /// Unix seconds when the model was unloaded.
    pub retired_unix: u64,
}

/// The full `GET /v1/models` inventory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelsReport {
    /// Routing-table epoch the inventory was taken at.
    pub epoch: u64,
    /// Loaded models.
    pub models: Vec<ModelInfo>,
    /// Aliases.
    pub aliases: Vec<AliasInfo>,
    /// Unloaded models still draining.
    pub draining: Vec<DrainInfo>,
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_id_hex_requires_exactly_16_hex_digits() {
        assert_eq!(parse_id_hex("00000000000000ff"), Some(0xff));
        assert_eq!(parse_id_hex("ff"), None);
        assert_eq!(parse_id_hex("00000000000000zz"), None);
        assert_eq!(parse_id_hex("00000000000000ff0"), None);
    }

    #[test]
    fn empty_registry_resolves_nothing_and_sweeps_clean() {
        let r = Registry::new();
        assert!(matches!(
            r.resolve("default"),
            Err(RegistryError::UnknownModel { .. })
        ));
        assert_eq!(r.sweep_drained(), 0);
        assert_eq!(r.epoch(), 0);
        let report = r.list();
        assert!(report.models.is_empty() && report.aliases.is_empty());
    }

    #[test]
    fn error_statuses_map_to_http() {
        assert_eq!(
            RegistryError::UnknownModel { key: "x".into() }.http_status(),
            404
        );
        assert_eq!(
            RegistryError::UnknownAlias { alias: "x".into() }.http_status(),
            409
        );
        assert_eq!(
            RegistryError::FingerprintMismatch {
                alias: "default".into(),
                current: 1,
                proposed: 2
            }
            .http_status(),
            409
        );
        assert_eq!(
            RegistryError::InUse {
                id: 7,
                aliases: vec!["default".into()]
            }
            .http_status(),
            409
        );
        assert_eq!(
            RegistryError::BadRequest { reason: "x".into() }.http_status(),
            400
        );
    }
}
