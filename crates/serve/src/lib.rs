//! # bf-serve
//!
//! The serving layer of the BlackForest toolchain: a dependency-free HTTP
//! prediction server over a hot-reloadable, multi-model registry.
//!
//! The paper's end product is a *predictor* — a trained random forest
//! chained with per-counter GLM/MARS models that answers "what will this
//! kernel's execution time be at size N on GPU G" — but the training
//! pipeline is expensive (a full profiling sweep plus forest fits). This
//! crate is the query-time half:
//!
//! * [`server`] — a `std::net` HTTP/1.1 server serving `POST /predict`
//!   (single or batched; also addressable per model at
//!   `POST /v1/models/{id-or-alias}/predict`), `GET /bottleneck`,
//!   `GET /healthz`, `GET /readyz`, `GET /metrics`, the registry
//!   inventory at `GET /v1/models`, the shadow divergence report at
//!   `GET /v1/models/shadow/report`, and the opt-in admin API
//!   (`POST /v1/models/load|unload|alias`). The engine is a nonblocking
//!   epoll event loop with keep-alive, pipelining, adaptive
//!   micro-batching, bounded admission with fast 429s and graceful drain.
//!   It is Linux-only: on other targets the crate still compiles, so the
//!   rest of the workspace builds, but [`PredictServer::bind`] returns an
//!   error naming the platform. No new dependencies: the whole stack is
//!   `std` + the already-vendored serde (epoll is reached through a local
//!   `extern "C"` shim against the libc `std` already links).
//! * [`bf_registry`] (re-exported here) — the concurrent model registry:
//!   N loaded [`ModelBundle`]s addressed by content id and mutable
//!   aliases, epoch-validated lock-free reads, zero-downtime hot swap
//!   with drain tracking, percentage A/B splits, and asynchronous shadow
//!   replay with a streaming divergence report. The versioned JSON bundle
//!   format itself lives in [`bundle`] (re-exported
//!   `bf_registry::bundle`).
//! * [`lru`] — the O(1) LRU cache memoizing whole query → prediction
//!   results, keyed by `(bundle content id, query bits)`.
//! * [`metrics`] — lock-free request/latency/cache counters with a
//!   Prometheus-style text exposition (including the process-wide
//!   [`gpu_sim::memo`] simulation-cache counters and per-model eviction
//!   counts).
//! * [`http`] — the minimal request parser / response writer underneath.
//!
//! Bundle predictions are bit-identical to in-memory
//! [`blackforest::predict::ProblemScalingPredictor::predict`] calls: the
//! bundle stores the same structs the trainer produced, serialized through
//! exact round-trip float encoding.

// Off Linux the engine is compiled out and `bind` refuses, so the handler
// stack it drives is unused there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

#[cfg(target_os = "linux")]
mod eventloop;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;

/// The bundle format, now owned by `bf-registry`; re-exported so
/// `bf_serve::bundle::ModelBundle` paths keep working.
pub use bf_registry::bundle;
pub use bf_registry::{
    AliasInfo, AliasTarget, AliasUpdate, BundleError, DrainInfo, LoadedModel, ModelBundle,
    ModelInfo, ModelsReport, Prediction, Registry, RegistryError, RegistryReader, Resolved,
    ShadowReport, Split, SweepMeta, WorkloadDelta, SCHEMA_VERSION,
};
pub use lru::LruCache;
pub use metrics::Metrics;
pub use server::{parse_addr, PredictServer, ServeConfig, ServeMode, ServerHandle};
