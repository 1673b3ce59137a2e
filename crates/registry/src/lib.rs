//! # bf-registry
//!
//! A concurrent model registry for the BlackForest serving stack.
//!
//! The prediction server of [PR 7] serves exactly one [`ModelBundle`],
//! frozen at startup. This crate supplies the missing half of ROADMAP
//! item 3: *N* concurrently loaded bundles, addressed by content id and by
//! mutable aliases, with zero-downtime promotion of a retrained bundle and
//! a live measure of how much two bundles disagree.
//!
//! * [`bundle`] — the versioned JSON [`ModelBundle`] artifact (moved here
//!   from bf-serve so the registry, which owns bundle lifecycles, also owns
//!   the artifact format; bf-serve re-exports it unchanged).
//! * [`registry`] — the [`Registry`] itself: an immutable [`RouteTable`]
//!   snapshot behind an epoch counter. Readers ([`RegistryReader`]) cache
//!   the current `Arc<RouteTable>` and revalidate it with one relaxed
//!   atomic load per request; they touch a lock only in the instant after
//!   a mutation, so the serving hot path never blocks on a reload. Writers
//!   decode and check a bundle *outside* any lock and publish by swapping
//!   one `Arc`.
//! * [`shadow`] — the shadow-mode replay engine: primary predictions are
//!   resubmitted against a shadow bundle on a dedicated thread (bounded
//!   queue, drop-on-full — the primary path is never backpressured) and
//!   paired into a streaming divergence report (count, mean/max relative
//!   delta, per-workload breakdown).
//!
//! The registry is the serving-side analogue of bf-analyze's differential
//! oracle: Stevens & Klöckner (arXiv:1904.09538) argue the cost of asking
//! a model to predict beyond its training data must be made explicit —
//! shadow mode measures exactly that, continuously, against live traffic.

pub mod bundle;
pub mod registry;
pub mod shadow;

pub use bundle::{BundleError, ModelBundle, Prediction, SweepMeta, SCHEMA_VERSION};
pub use registry::{
    AliasInfo, AliasTarget, AliasUpdate, DrainInfo, LoadedModel, ModelInfo, ModelsReport, Registry,
    RegistryError, RegistryReader, Resolved, RouteTable, Split,
};
pub use shadow::{ShadowJob, ShadowReport, WorkloadDelta};
