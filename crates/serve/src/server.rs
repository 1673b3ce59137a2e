//! The prediction server: a nonblocking, readiness-driven event loop
//! (`epoll`, Linux only) with per-connection incremental parsers, HTTP/1.1
//! keep-alive and pipelining, a bounded admission queue (fast
//! `429 Too Many Requests` + `Retry-After` when full), and adaptive
//! micro-batching: concurrent `/predict` requests are coalesced into one
//! forest pass. See the `eventloop` module. This module holds the routing,
//! validation, prediction, metrics, and cache code the loop calls into.
//!
//! Since PR 8 the server fronts a [`Registry`] of N concurrently loaded
//! bundles instead of one frozen bundle. Prediction requests resolve their
//! model **at dispatch time** and carry the resolved `Arc` for their whole
//! lifetime, so an in-flight request never fails or mixes models across a
//! hot swap; new requests see the new routing table on their next resolve
//! (one atomic epoch check — the hot path never blocks on a reload).
//!
//! Routes:
//!
//! * `POST /predict` — JSON query → predicted time + per-counter
//!   predictions, answered by the `default` alias. The body may also be a
//!   JSON *array* of queries; the answer is then an array, evaluated
//!   through the forest in one batched pass and bit-identical to asking
//!   one by one.
//! * `POST /v1/models/{id-or-alias}/predict` — the same, addressed to a
//!   specific content id (16 hex digits) or alias.
//! * `GET /v1/models` — the registry inventory (models, aliases, draining).
//! * `GET /v1/models/shadow/report` — the streaming shadow divergence
//!   report.
//! * `POST /v1/models/load|unload|alias` — admin mutations; `403` unless
//!   the server was started with the admin API enabled, `409` on unknown
//!   aliases, GPU-fingerprint mismatches, and unload-while-aliased.
//! * `GET /bottleneck[?k=N]` — top-k permutation-importance findings of
//!   the default model.
//! * `GET /healthz` — liveness + registry identity.
//! * `GET /readyz` — readiness: `200` only once the `default` alias
//!   resolves to a loaded bundle, `503` before (and during initial load).
//! * `GET /metrics` — Prometheus-style text exposition (server + registry
//!   + shadow counters).
//!
//! Repeated queries are answered from an LRU cache keyed on
//! `(resolved bundle content id, exact query bits)` — the content id is
//! part of the key, so an alias swap can never serve a stale model's
//! cached prediction. Query vectors are canonicalized before keying:
//! non-finite characteristics are rejected with 422 (NaN bit patterns
//! would otherwise fragment the key space — and a NaN query is
//! meaningless to the forest anyway), and negative zero collapses to
//! `+0.0` so `-0.0` and `0.0` — equal to every tree split — share one
//! cache entry.

use crate::http::{Request, Response};
use crate::lru::LruCache;
use crate::metrics::{Metrics, Phase, Route};
use bf_registry::bundle::{ModelBundle, Prediction};
use bf_registry::registry::parse_id_hex;
use bf_registry::{
    AliasUpdate, LoadedModel, Registry, RegistryError, RegistryReader, Resolved, ShadowJob, Split,
};
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The serving engine. The event loop is the only one, and nothing
/// branches on this value. It stays because `perfbench` (the repository
/// benchmark, built as its own workspace) still sets [`ServeConfig::mode`];
/// the next change to perfbench removes both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// Nonblocking epoll event loop with micro-batching.
    #[default]
    EventLoop,
}

/// Tuning knobs for [`PredictServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Prediction worker threads.
    pub threads: usize,
    /// Capacity of the prediction LRU cache (entries).
    pub cache_capacity: usize,
    /// Serving engine; see [`ServeMode`] for why the field remains.
    pub mode: ServeMode,
    /// Admission bound: maximum in-flight `/predict` jobs (queued plus
    /// executing). Further predictions get a fast `429` + `Retry-After`
    /// instead of unbounded queueing.
    pub max_queue: usize,
    /// How long a prediction worker waits for more requests to coalesce
    /// into one batched forest pass. Zero (the default) adds no artificial
    /// delay: a worker batches whatever has already queued up behind it,
    /// so batches grow naturally with backlog and stay at one row when the
    /// server is keeping up. A positive window trades first-request latency
    /// for larger batches.
    pub batch_window: Duration,
    /// Largest micro-batch a worker will coalesce.
    pub max_batch: usize,
    /// Enables the mutating admin API (`POST /v1/models/load|unload|alias`).
    /// Off by default: a server exposed without `--admin` answers those
    /// routes with `403`.
    pub admin: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 4096,
            mode: ServeMode::default(),
            max_queue: 1024,
            batch_window: Duration::ZERO,
            max_batch: 64,
            admin: false,
        }
    }
}

/// Parses and validates a `host:port` listen address, resolving hostnames
/// like `localhost`. Errors spell out what was wrong.
pub fn parse_addr(addr: &str) -> Result<SocketAddr, String> {
    if let Ok(sa) = addr.parse::<SocketAddr>() {
        return Ok(sa);
    }
    if !addr.contains(':') {
        return Err(format!(
            "invalid --addr {addr:?}: expected host:port (e.g. 127.0.0.1:7878)"
        ));
    }
    match addr.to_socket_addrs() {
        Ok(mut it) => it
            .next()
            .ok_or_else(|| format!("invalid --addr {addr:?}: resolved to no addresses")),
        Err(e) => Err(format!(
            "invalid --addr {addr:?}: {e} (expected host:port, e.g. 127.0.0.1:7878)"
        )),
    }
}

/// Shared state every worker sees.
pub(crate) struct ServerState {
    /// The model registry: every loaded bundle, alias routing, shadow
    /// engine, and drain graveyard.
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: Metrics,
    pub(crate) cache: Mutex<LruCache<(u64, Vec<u64>), Prediction>>,
    pub(crate) cache_capacity: usize,
    /// Whether the mutating admin routes are enabled.
    pub(crate) admin: bool,
    pub(crate) shutdown: AtomicBool,
}

/// A bound, not-yet-running server.
pub struct PredictServer {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServeConfig,
}

/// A remote control for a running server: its address, registry, and a
/// `stop` switch.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server routes from — usable to load bundles and
    /// swap aliases in-process (tests, benches, embedded operators).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.registry)
    }

    /// Asks the server to shut down gracefully: stop accepting, finish
    /// in-flight requests, flush, exit. The dummy connection wakes
    /// `epoll_wait`.
    pub fn stop(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

impl PredictServer {
    /// Binds the listener around a single bundle: a fresh registry is
    /// created, the bundle loaded and published as the
    /// `default` alias. Compatibility constructor — multi-model callers
    /// use [`PredictServer::bind_registry`].
    pub fn bind(addr: &str, bundle: ModelBundle, config: ServeConfig) -> Result<Self, String> {
        let registry = Arc::new(Registry::new());
        let id = registry
            .load_bundle(bundle)
            .map_err(|e| format!("load bundle: {e}"))?;
        registry
            .set_alias(AliasUpdate {
                alias: "default".into(),
                id: Some(id),
                create: true,
                ..AliasUpdate::default()
            })
            .map_err(|e| format!("alias default: {e}"))?;
        Self::bind_registry(addr, registry, config)
    }

    /// Binds the listener over an existing registry. The registry may
    /// still be empty: the server answers `503` on `/readyz` (and on
    /// `/predict`) until a `default` alias is published, which makes
    /// "bind the socket first, load bundles behind it" the natural
    /// zero-downtime startup order.
    ///
    /// The engine is built on Linux `epoll`; on any other target this
    /// returns an error naming the platform.
    pub fn bind_registry(
        addr: &str,
        registry: Arc<Registry>,
        config: ServeConfig,
    ) -> Result<Self, String> {
        if !cfg!(target_os = "linux") {
            return Err(format!(
                "bf-serve needs Linux (epoll); this build targets {}",
                std::env::consts::OS
            ));
        }
        let sock_addr = parse_addr(addr)?;
        let listener =
            TcpListener::bind(sock_addr).map_err(|e| format!("bind {sock_addr}: {e}"))?;
        let cache_capacity = config.cache_capacity.max(1);
        Ok(PredictServer {
            listener,
            state: Arc::new(ServerState {
                registry,
                metrics: Metrics::new(),
                cache: Mutex::new(LruCache::new(cache_capacity)),
                cache_capacity,
                admin: config.admin,
                shutdown: AtomicBool::new(false),
            }),
            config,
        })
    }

    /// The actual bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// A handle usable to stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr(),
        }
    }

    /// Runs the event loop until [`ServerHandle::stop`]; returns once
    /// in-flight work has drained.
    pub fn run(self) {
        #[cfg(target_os = "linux")]
        crate::eventloop::run(self.listener, self.state, &self.config);
        #[cfg(not(target_os = "linux"))]
        unreachable!("bind_registry refuses non-Linux targets");
    }

    /// Runs the server on a background thread; the returned handle stops it.
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("bf-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawn accept loop");
        (handle, join)
    }
}

/// Mints a process-unique request trace id: a boot-time salt (so ids from
/// different server runs don't collide in aggregated logs) plus a sequence
/// number. Echoed back to clients as the `X-BF-Trace-Id` response header.
pub(crate) fn next_trace_id() -> String {
    static SALT: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let salt = *SALT.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
    });
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("bf-{:08x}-{seq:08x}", (salt ^ (salt >> 32)) as u32)
}

/// Routes one request inside a `request` trace span: the event loop's
/// inline (non-predict) path.
pub(crate) fn traced_handle(
    request: &Request,
    state: &ServerState,
    registry_reader: &mut RegistryReader,
    trace_id: &str,
) -> (Route, Response) {
    let mut span = bf_trace::span!(
        "request",
        method = request.method.as_str(),
        path = request.path.as_str(),
    );
    if span.is_active() {
        span.attr("trace_id", trace_id);
    }
    let (route, response) = handle_request(request, state, registry_reader);
    if span.is_active() {
        span.attr("status", response.status);
    }
    (route, response)
}

pub(crate) fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A `POST /predict` body. Either `characteristics` (exact vector, bundle
/// order) or `size` (+ optional secondaries) must be given.
#[derive(Debug, Deserialize)]
struct PredictRequest {
    /// Workload name, validated against the bundle when present.
    workload: Option<String>,
    /// Target GPU name, validated against the bundle when present.
    gpu: Option<String>,
    /// Primary problem size.
    size: Option<f64>,
    /// Threads per block (reduce workloads).
    threads: Option<f64>,
    /// Stencil sweep count.
    sweeps: Option<f64>,
    /// Full characteristic vector, bypassing the named fields.
    characteristics: Option<Vec<f64>>,
}

/// A `POST /predict` answer.
#[derive(Debug, Serialize)]
struct PredictResponse {
    workload: String,
    gpu: String,
    /// Content id of the bundle that answered (16 hex digits) — the
    /// client-visible attribution used by the hot-reload tests.
    model: String,
    characteristics: Vec<f64>,
    predicted_ms: f64,
    /// `(counter, predicted value)` pairs in retained-feature order.
    counters: Vec<(String, f64)>,
    /// Whether the answer came from the prediction cache.
    cached: bool,
}

#[derive(Debug, Serialize)]
struct HealthResponse {
    status: String,
    workload: String,
    gpu: String,
    schema_version: u32,
    bundle_id: String,
    trees: usize,
    selected: Vec<String>,
}

#[derive(Debug, Serialize)]
struct ReadyResponse {
    ready: bool,
    /// Content id of the default model when ready.
    default: Option<String>,
    /// What is missing when not ready.
    reason: Option<String>,
}

#[derive(Debug, Serialize)]
struct BottleneckResponse {
    workload: String,
    gpu: String,
    findings: Vec<blackforest::bottleneck::BottleneckFinding>,
}

/// The predict-target key a path addresses: `/predict` is the `default`
/// alias; `/v1/models/{key}/predict` names a content id or alias.
pub(crate) fn predict_model_key(path: &str) -> Option<&str> {
    if path == "/predict" {
        return Some("default");
    }
    let rest = path.strip_prefix("/v1/models/")?;
    let key = rest.strip_suffix("/predict")?;
    (!key.is_empty() && !key.contains('/')).then_some(key)
}

/// Resolves a predict target, mapping failures to the HTTP answer: a bare
/// `/predict` with no ready default is `503` (the server is up but not
/// ready), an explicitly addressed unknown model is `404`.
pub(crate) fn resolve_predict_target(
    path: &str,
    key: &str,
    registry_reader: &mut RegistryReader,
) -> Result<Resolved, Response> {
    registry_reader.resolve(key).map_err(|e| {
        if path == "/predict" {
            Response::error(
                503,
                &format!("no ready model at alias \"default\" ({e}); load a bundle first"),
            )
        } else {
            Response::error(e.http_status().max(404), &e.to_string())
        }
    })
}

/// Routes one request that is not a `POST` to a predict path (those go to
/// the prediction workers). Returns the route label for metrics plus the
/// answer.
pub(crate) fn handle_request(
    request: &Request,
    state: &ServerState,
    registry_reader: &mut RegistryReader,
) -> (Route, Response) {
    // Revalidate the reader's cached table (one atomic load) on every
    // request, not just resolves — otherwise a reader serving only
    // non-predict traffic would pin a retired table's models and stall
    // their drain.
    let _ = registry_reader.table();
    let method = request.method.as_str();
    let path = request.path.as_str();
    if predict_model_key(path).is_some() {
        return (
            Route::Other,
            Response::error(405, "method not allowed for this path"),
        );
    }
    match (method, path) {
        ("GET", "/bottleneck") => (Route::Bottleneck, handle_bottleneck(request, state)),
        ("GET", "/healthz") => (Route::Healthz, handle_healthz(state)),
        ("GET", "/readyz") => (Route::Healthz, handle_readyz(state)),
        ("GET", "/metrics") => {
            let body = state
                .metrics
                .render(state.cache.lock().unwrap().len(), state.cache_capacity)
                + &state.registry.render_metrics();
            (Route::Metrics, Response::text(200, body))
        }
        ("GET", "/v1/models") => (Route::Models, handle_models_list(state)),
        ("GET", "/v1/models/shadow/report") => (Route::Models, handle_shadow_report(state)),
        ("POST", "/v1/models/load") => (Route::Admin, handle_admin_load(request, state)),
        ("POST", "/v1/models/unload") => (Route::Admin, handle_admin_unload(request, state)),
        ("POST", "/v1/models/alias") => (Route::Admin, handle_admin_alias(request, state)),
        (
            _,
            "/predict"
            | "/bottleneck"
            | "/healthz"
            | "/readyz"
            | "/metrics"
            | "/v1/models"
            | "/v1/models/shadow/report"
            | "/v1/models/load"
            | "/v1/models/unload"
            | "/v1/models/alias",
        ) => (
            Route::Other,
            Response::error(405, "method not allowed for this path"),
        ),
        _ => (
            Route::Other,
            Response::error(404, &format!("no such route {}", request.path)),
        ),
    }
}

/// The validated rows of one `/predict` request.
pub(crate) struct PredictItems {
    /// One canonicalized characteristic vector per queried point.
    rows: Vec<Vec<f64>>,
    /// Whether the body was a JSON array (the answer mirrors the shape).
    batch: bool,
}

/// One queued `/predict` request, as handed to a prediction worker. The
/// model was resolved at dispatch time: swaps concurrent with the queue
/// wait cannot change (or mix) what this request predicts with.
pub(crate) struct PredictJob {
    pub(crate) request: Request,
    pub(crate) started: Instant,
    pub(crate) trace_id: String,
    pub(crate) resolved: Resolved,
}

/// Replays an answered request against the resolved shadow model, off the
/// hot path (bounded queue, drop-on-full — never blocks the caller).
fn submit_shadow(
    state: &ServerState,
    resolved: &Resolved,
    rows: &[Vec<f64>],
    results: &[(Prediction, bool)],
) {
    let Some(shadow) = &resolved.shadow else {
        return;
    };
    state.registry.submit_shadow(ShadowJob {
        shadow: Arc::clone(shadow),
        primary_id: resolved.model.content_id,
        workload: resolved.model.bundle.workload.clone(),
        rows: rows.to_vec(),
        primary_ms: results.iter().map(|(p, _)| p.predicted_ms).collect(),
    });
}

/// Per-job outcome of a coalesced forest pass: `(prediction, cache hit)`
/// per row, or the render-time error message.
type JobPredictions = Result<Vec<(Prediction, bool)>, String>;

/// Processes one micro-batch of `/predict` jobs pulled off the admission
/// queue: every job is parsed, then the rows of jobs sharing a resolved
/// model are coalesced into one forest pass per model, then per-job
/// responses are rendered. Route metrics (`observe`) are recorded here
/// too, so the event loop only ships bytes. Returns one response per
/// job, in order.
pub(crate) fn process_predict_jobs(state: &ServerState, jobs: &[PredictJob]) -> Vec<Response> {
    // Parse every job first so the rows can be coalesced.
    let mut parsed: Vec<Result<PredictItems, Response>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let parse_started = Instant::now();
        let r = {
            let _span = bf_trace::span!("parse", body_bytes = job.request.body.len());
            parse_predict_items(&job.request, &job.resolved.model)
        };
        state
            .metrics
            .observe_phase(Phase::Parse, elapsed_us(parse_started));
        parsed.push(r);
    }

    // Group parse-clean jobs by resolved model: one forest pass per model
    // over the union of its jobs' rows. (A batch spanning a hot swap
    // simply forms two groups — jobs never mix models.)
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (j, p) in parsed.iter().enumerate() {
        if p.is_err() {
            continue;
        }
        let id = jobs[j].resolved.model.content_id;
        match groups.iter_mut().find(|(gid, _)| *gid == id) {
            Some((_, members)) => members.push(j),
            None => groups.push((id, vec![j])),
        }
    }
    let predict_started = Instant::now();
    let mut job_results: Vec<Option<JobPredictions>> = (0..jobs.len()).map(|_| None).collect();
    for (_, members) in &groups {
        let model = &jobs[members[0]].resolved.model;
        let union: Vec<Vec<f64>> = members
            .iter()
            .flat_map(|&j| {
                parsed[j]
                    .as_ref()
                    .ok()
                    .map(|i| i.rows.clone())
                    .unwrap_or_default()
            })
            .collect();
        let mut span = bf_trace::span!("predict");
        let outcome = predict_rows(state, model, &union);
        if span.is_active() {
            span.attr("rows", union.len() as u64);
            span.attr("jobs", members.len() as u64);
            span.attr("model", model.id_hex().as_str());
        }
        drop(span);
        match outcome {
            Ok(results) => {
                let mut cursor = 0usize;
                for &j in members {
                    let n = parsed[j].as_ref().map(|i| i.rows.len()).unwrap_or(0);
                    job_results[j] = Some(Ok(results[cursor..cursor + n].to_vec()));
                    cursor += n;
                }
            }
            Err(msg) => {
                for &j in members {
                    job_results[j] = Some(Err(msg.clone()));
                }
            }
        }
    }
    let predict_us = elapsed_us(predict_started);

    // Render per job.
    let mut responses = Vec::with_capacity(jobs.len());
    for ((job, p), outcome) in jobs.iter().zip(parsed).zip(job_results) {
        let response = match p {
            Err(response) => response,
            Ok(items) => {
                state.metrics.observe_phase(Phase::Predict, predict_us);
                match outcome.expect("parsed job was grouped") {
                    Err(msg) => Response::error(500, &format!("prediction failed: {msg}")),
                    Ok(results) => {
                        job.resolved.model.record_served(items.rows.len() as u64);
                        submit_shadow(state, &job.resolved, &items.rows, &results);
                        let serialize_started = Instant::now();
                        let response = {
                            let _span = bf_trace::span!("serialize");
                            render_predictions(&job.resolved.model, &items, results)
                        };
                        state
                            .metrics
                            .observe_phase(Phase::Serialize, elapsed_us(serialize_started));
                        response
                    }
                }
            }
        };
        let mut span = bf_trace::span!(
            "request",
            method = job.request.method.as_str(),
            path = job.request.path.as_str(),
        );
        if span.is_active() {
            span.attr("trace_id", job.trace_id.as_str());
            span.attr("status", response.status);
            span.attr("batched_with", jobs.len() as u64);
        }
        drop(span);
        state
            .metrics
            .observe(Route::Predict, response.status, elapsed_us(job.started));
        responses.push(response);
    }
    responses
}

/// Evaluates canonicalized characteristic rows against one resolved model:
/// per-row cache lookups, then one prediction-chain call over all misses
/// through the model's reduced forest. Returns `(prediction,
/// was_cached)` per row, in order. Bit-identical to calling
/// [`ModelBundle::predict`] row by row.
pub(crate) fn predict_rows(
    state: &ServerState,
    model: &Arc<LoadedModel>,
    rows: &[Vec<f64>],
) -> Result<Vec<(Prediction, bool)>, String> {
    let mut out: Vec<Option<(Prediction, bool)>> = Vec::with_capacity(rows.len());
    out.resize_with(rows.len(), || None);
    let mut misses = Vec::new();
    {
        let mut cache = state.cache.lock().unwrap();
        for (i, chars) in rows.iter().enumerate() {
            let key = (
                model.content_id,
                chars.iter().map(|c| c.to_bits()).collect::<Vec<u64>>(),
            );
            // The multi-model cache-scoping invariant: every key carries
            // the *resolved* bundle's content id, so an alias swap can
            // never surface another model's cached prediction.
            debug_assert_eq!(key.0, model.bundle.content_id());
            match cache.get(&key).cloned() {
                Some(p) => out[i] = Some((p, true)),
                None => misses.push((i, key)),
            }
        }
    }
    for _ in 0..(rows.len() - misses.len()) {
        state.metrics.cache_hit();
        bf_trace::counter!("serve.predict_cache.hits");
    }
    for _ in 0..misses.len() {
        state.metrics.cache_miss();
        bf_trace::counter!("serve.predict_cache.misses");
    }

    if !misses.is_empty() {
        let miss_rows: Vec<&Vec<f64>> = misses.iter().map(|(i, _)| &rows[*i]).collect();
        let predictions = model
            .bundle
            .predictor
            .predict_rows(&miss_rows, &[])
            .map_err(|e| e.to_string())?;
        state.metrics.observe_batch(misses.len() as u64);
        let mut cache = state.cache.lock().unwrap();
        for ((i, key), p) in misses.into_iter().zip(predictions) {
            if let Some((evicted_key, _)) = cache.insert(key, p.clone()) {
                state.metrics.cache_evicted(evicted_key.0);
                bf_trace::counter!("serve.predict_cache.evictions");
            }
            out[i] = Some((p, false));
        }
    }
    Ok(out.into_iter().map(|o| o.expect("row answered")).collect())
}

/// Renders the answer for one `/predict` request: a single object, or an
/// array mirroring an array body.
fn render_predictions(
    model: &LoadedModel,
    items: &PredictItems,
    results: Vec<(Prediction, bool)>,
) -> Response {
    let payloads: Vec<PredictResponse> = items
        .rows
        .iter()
        .zip(results)
        .map(|(chars, (prediction, cached))| PredictResponse {
            workload: model.bundle.workload.clone(),
            gpu: model.bundle.gpu_name.clone(),
            model: model.id_hex(),
            characteristics: chars.clone(),
            predicted_ms: prediction.predicted_ms,
            counters: prediction.counters,
            cached,
        })
        .collect();
    let encoded = if items.batch {
        serde_json::to_string(&payloads)
    } else {
        serde_json::to_string(&payloads[0])
    };
    match encoded {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialize response: {e}")),
    }
}

/// The parse/validate half of `/predict`: from raw body bytes to the exact
/// canonicalized characteristic rows the forest expects, or the error
/// response to send. A body whose first non-whitespace byte is `[` is a
/// batch of queries; anything else is a single query.
pub(crate) fn parse_predict_items(
    request: &Request,
    model: &LoadedModel,
) -> Result<PredictItems, Response> {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Err(Response::error(400, "request body is not UTF-8")),
    };
    let is_batch = body
        .bytes()
        .find(|b| !b.is_ascii_whitespace())
        .map(|b| b == b'[')
        .unwrap_or(false);
    if !is_batch {
        let query: PredictRequest = match serde_json::from_str(body) {
            Ok(q) => q,
            Err(e) => return Err(Response::error(400, &format!("bad JSON body: {e}"))),
        };
        let row = chars_for_query(query, &model.bundle)
            .map_err(|(status, msg)| Response::error(status, &msg))?;
        return Ok(PredictItems {
            rows: vec![row],
            batch: false,
        });
    }
    let queries: Vec<PredictRequest> = match serde_json::from_str(body) {
        Ok(q) => q,
        Err(e) => return Err(Response::error(400, &format!("bad JSON body: {e}"))),
    };
    if queries.is_empty() {
        return Err(Response::error(400, "batch body must not be empty"));
    }
    let rows = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            chars_for_query(q, &model.bundle)
                .map_err(|(status, msg)| Response::error(status, &format!("item {i}: {msg}")))
        })
        .collect::<Result<Vec<_>, Response>>()?;
    Ok(PredictItems { rows, batch: true })
}

/// Validates one query against the bundle and resolves it to a
/// canonicalized characteristic vector.
fn chars_for_query(query: PredictRequest, bundle: &ModelBundle) -> Result<Vec<f64>, (u16, String)> {
    if let Some(w) = &query.workload {
        let matches = match (blackforest::Workload::from_name(w), bundle.workload()) {
            (Some(a), Some(b)) => a == b,
            _ => w.eq_ignore_ascii_case(&bundle.workload),
        };
        if !matches {
            return Err((
                422,
                format!(
                    "bundle was trained for workload {:?}, not {w:?}",
                    bundle.workload
                ),
            ));
        }
    }
    if let Some(g) = &query.gpu {
        if !g.eq_ignore_ascii_case(&bundle.gpu_name) {
            return Err((
                422,
                format!(
                    "bundle was trained on {} (fingerprint {:#x}); predictions for {g:?} \
                     need a bundle trained on that GPU",
                    bundle.gpu_name, bundle.gpu_fingerprint
                ),
            ));
        }
    }

    let chars = if let Some(chars) = query.characteristics {
        if chars.len() != bundle.characteristics.len() {
            return Err((
                422,
                format!(
                    "expected {} characteristics {:?}, got {}",
                    bundle.characteristics.len(),
                    bundle.characteristics,
                    chars.len()
                ),
            ));
        }
        chars
    } else {
        let size = match query.size {
            Some(s) if s.is_finite() && s > 0.0 => s,
            Some(_) => return Err((422, "size must be a positive finite number".into())),
            None => return Err((400, "body needs either size or characteristics".into())),
        };
        bundle
            .characteristics_for(size, query.threads, query.sweeps)
            .map_err(|msg| (422, msg))?
    };
    canonicalize_chars(chars)
}

/// Canonicalizes a characteristic vector for prediction and cache keying:
/// non-finite values are a 422 (a NaN/inf query is meaningless to the
/// forest, and NaN's many bit patterns would fragment the bitwise cache
/// key), and `-0.0` collapses to `+0.0` (equal to every tree threshold, so
/// both spellings must share one cache entry).
fn canonicalize_chars(mut chars: Vec<f64>) -> Result<Vec<f64>, (u16, String)> {
    for (i, c) in chars.iter_mut().enumerate() {
        if !c.is_finite() {
            return Err((422, format!("characteristic {i} must be finite, got {c}")));
        }
        if *c == 0.0 {
            *c = 0.0; // normalize -0.0
        }
    }
    Ok(chars)
}

fn handle_bottleneck(request: &Request, state: &ServerState) -> Response {
    let resolved = match state.registry.resolve("default") {
        Ok(r) => r,
        Err(e) => {
            return Response::error(503, &format!("no ready model at alias \"default\" ({e})"))
        }
    };
    let bundle = &resolved.model.bundle;
    let findings = &bundle.bottlenecks.findings;
    let k = match request.query_param("k") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => return Response::error(400, &format!("bad k={raw:?}: expected integer >= 1")),
        },
        None => findings.len(),
    };
    let payload = BottleneckResponse {
        workload: bundle.workload.clone(),
        gpu: bundle.gpu_name.clone(),
        findings: findings.iter().take(k).cloned().collect(),
    };
    match serde_json::to_string(&payload) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialize response: {e}")),
    }
}

/// Liveness: always `200` while the process serves; identifies the default
/// model when one is published.
fn handle_healthz(state: &ServerState) -> Response {
    match state.registry.resolve("default") {
        Ok(resolved) => {
            let bundle = &resolved.model.bundle;
            let payload = HealthResponse {
                status: "ok".into(),
                workload: bundle.workload.clone(),
                gpu: bundle.gpu_name.clone(),
                schema_version: bundle.schema_version,
                bundle_id: resolved.model.id_hex(),
                trees: bundle.predictor.model.reduced_forest.n_trees(),
                selected: bundle.selected.clone(),
            };
            match serde_json::to_string(&payload) {
                Ok(json) => Response::json(200, json),
                Err(e) => Response::error(500, &format!("serialize response: {e}")),
            }
        }
        // Alive but not ready: liveness stays 200 — readiness is /readyz.
        Err(_) => Response::json(
            200,
            "{\"status\":\"ok\",\"workload\":null,\"bundle_id\":null}".into(),
        ),
    }
}

/// Readiness: `200` only once the `default` alias resolves to a loaded
/// (and therefore checked — checks precede publication) bundle; `503`
/// before, including during initial load.
fn handle_readyz(state: &ServerState) -> Response {
    let (status, payload) = match state.registry.resolve("default") {
        Ok(resolved) => (
            200,
            ReadyResponse {
                ready: true,
                default: Some(resolved.model.id_hex()),
                reason: None,
            },
        ),
        Err(e) => (
            503,
            ReadyResponse {
                ready: false,
                default: None,
                reason: Some(e.to_string()),
            },
        ),
    };
    match serde_json::to_string(&payload) {
        Ok(json) => Response::json(status, json),
        Err(e) => Response::error(500, &format!("serialize response: {e}")),
    }
}

fn handle_models_list(state: &ServerState) -> Response {
    match serde_json::to_string(&state.registry.list()) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialize response: {e}")),
    }
}

fn handle_shadow_report(state: &ServerState) -> Response {
    match serde_json::to_string(&state.registry.shadow_report()) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("serialize response: {e}")),
    }
}

/// Decodes an admin JSON body, with the admin gate applied first.
fn admin_body<T: serde::Deserialize>(
    request: &Request,
    state: &ServerState,
) -> Result<T, Response> {
    if !state.admin {
        return Err(Response::error(
            403,
            "admin API disabled; restart the server with --admin to enable \
             /v1/models/load|unload|alias",
        ));
    }
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
    serde_json::from_str(body).map_err(|e| Response::error(400, &format!("bad JSON body: {e}")))
}

fn registry_error_response(e: &RegistryError) -> Response {
    Response::error(e.http_status(), &e.to_string())
}

#[derive(Deserialize)]
struct AdminLoadBody {
    /// Path of the bundle JSON to load, resolved on the server host.
    path: String,
}

fn handle_admin_load(request: &Request, state: &ServerState) -> Response {
    let body: AdminLoadBody = match admin_body(request, state) {
        Ok(b) => b,
        Err(r) => return r,
    };
    match state.registry.load_path(Path::new(&body.path)) {
        Ok(id) => Response::json(200, format!("{{\"id\":\"{id:016x}\",\"loaded\":true}}")),
        Err(e) => registry_error_response(&e),
    }
}

#[derive(Deserialize)]
struct AdminUnloadBody {
    /// Content id (16 hex digits) of the model to unload.
    id: String,
}

fn handle_admin_unload(request: &Request, state: &ServerState) -> Response {
    let body: AdminUnloadBody = match admin_body(request, state) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(id) = parse_id_hex(&body.id) else {
        return Response::error(
            400,
            &format!("bad id {:?}: expected 16 hex digits", body.id),
        );
    };
    match state.registry.unload(id) {
        Ok(()) => {
            let draining = state.registry.sweep_drained();
            Response::json(
                200,
                format!("{{\"id\":\"{id:016x}\",\"unloaded\":true,\"draining\":{draining}}}"),
            )
        }
        Err(e) => registry_error_response(&e),
    }
}

#[derive(Deserialize)]
struct AdminSplitBody {
    /// Secondary model id (16 hex digits).
    id: String,
    /// Percent of traffic (0–100) to the secondary.
    percent: u8,
}

#[derive(Deserialize)]
struct AdminAliasBody {
    /// Alias to create or update.
    alias: String,
    /// New primary model id (16 hex digits); omitted keeps the current.
    id: Option<String>,
    /// Create the alias if missing (otherwise 409).
    create: Option<bool>,
    /// Allow a GPU-fingerprint change (otherwise 409).
    force: Option<bool>,
    /// Percentage A/B split to install (replaces any existing).
    split: Option<AdminSplitBody>,
    /// Shadow model id (16 hex digits) to attach (replaces any existing).
    shadow: Option<String>,
}

fn handle_admin_alias(request: &Request, state: &ServerState) -> Response {
    let body: AdminAliasBody = match admin_body(request, state) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let parse_id = |field: &str, raw: &str| -> Result<u64, Response> {
        parse_id_hex(raw).ok_or_else(|| {
            Response::error(400, &format!("bad {field} {raw:?}: expected 16 hex digits"))
        })
    };
    let id = match body
        .id
        .as_deref()
        .map(|raw| parse_id("id", raw))
        .transpose()
    {
        Ok(id) => id,
        Err(r) => return r,
    };
    let shadow = match body
        .shadow
        .as_deref()
        .map(|raw| parse_id("shadow", raw))
        .transpose()
    {
        Ok(s) => s,
        Err(r) => return r,
    };
    let split = match body
        .split
        .as_ref()
        .map(|s| {
            parse_id("split.id", &s.id).map(|secondary| Split {
                secondary,
                percent: s.percent,
            })
        })
        .transpose()
    {
        Ok(s) => s,
        Err(r) => return r,
    };
    let update = AliasUpdate {
        alias: body.alias.clone(),
        id,
        create: body.create.unwrap_or(false),
        force: body.force.unwrap_or(false),
        split,
        shadow,
    };
    match state.registry.set_alias(update) {
        Ok(target) => Response::json(
            200,
            format!(
                "{{\"alias\":{:?},\"primary\":\"{:016x}\"}}",
                body.alias, target.primary
            ),
        ),
        Err(e) => registry_error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_addr_accepts_sockets_and_hostnames() {
        assert_eq!(
            parse_addr("127.0.0.1:7878").unwrap(),
            "127.0.0.1:7878".parse::<SocketAddr>().unwrap()
        );
        assert!(parse_addr("localhost:0").is_ok());
        let e = parse_addr("not-an-addr").unwrap_err();
        assert!(e.contains("host:port"), "{e}");
        assert!(parse_addr("127.0.0.1:notaport").is_err());
    }

    #[test]
    fn canonicalize_rejects_non_finite_and_collapses_negative_zero() {
        let ok = canonicalize_chars(vec![4096.0, -0.0, 2.5]).unwrap();
        assert_eq!(ok[1].to_bits(), 0.0f64.to_bits(), "-0.0 must become +0.0");
        assert_eq!(ok, vec![4096.0, 0.0, 2.5]);
        let err = canonicalize_chars(vec![1.0, f64::NAN]).unwrap_err();
        assert_eq!(err.0, 422);
        assert!(err.1.contains("characteristic 1"), "{}", err.1);
        assert_eq!(canonicalize_chars(vec![f64::INFINITY]).unwrap_err().0, 422);
        assert_eq!(
            canonicalize_chars(vec![f64::NEG_INFINITY]).unwrap_err().0,
            422
        );
    }

    #[test]
    fn predict_model_key_routes_root_and_versioned_paths() {
        assert_eq!(predict_model_key("/predict"), Some("default"));
        assert_eq!(
            predict_model_key("/v1/models/canary/predict"),
            Some("canary")
        );
        assert_eq!(
            predict_model_key("/v1/models/00000000000000ab/predict"),
            Some("00000000000000ab")
        );
        assert_eq!(predict_model_key("/v1/models"), None);
        assert_eq!(predict_model_key("/v1/models//predict"), None);
        assert_eq!(predict_model_key("/v1/models/a/b/predict"), None);
        assert_eq!(predict_model_key("/v1/models/shadow/report"), None);
        assert_eq!(predict_model_key("/healthz"), None);
    }
}
