//! A cycle-approximate, trace-driven GPU microarchitecture simulator.
//!
//! BlackForest (the paper) consumes two things from real hardware: elapsed
//! kernel time and nvprof hardware-performance-counter values. This crate is
//! the substitute substrate: it executes CUDA-like kernel *traces* — per-warp
//! instruction streams with real per-lane addresses — on a configurable GPU
//! model and emits both.
//!
//! The model reproduces the microarchitectural mechanisms the paper's
//! analyses hinge on:
//!
//! * **Occupancy** ([`occupancy`]) — resident thread blocks per SM limited by
//!   warp slots, registers, shared memory, and the block limit.
//! * **Coalescing** ([`coalesce`]) — per-lane global addresses are folded
//!   into 128-byte L1 transactions (Fermi) or 32-byte L2 sectors (Kepler,
//!   which does not cache global loads in L1).
//! * **Shared-memory bank conflicts** ([`banks`]) — 32 banks, 4-byte words,
//!   broadcast detection; conflict degree drives instruction replays.
//! * **Caches** ([`cache`]) — set-associative write-evict L1 and a shared L2.
//! * **Warp scheduling** ([`soa`]) — an event-driven greedy-then-oldest
//!   scheduler with issue-width, ALU/LDST/SFU pipeline, latency, and
//!   `__syncthreads` barrier modeling.
//! * **Wave execution and DRAM bandwidth** ([`engine`]) — launches execute in
//!   waves of `SMs x resident-blocks`; each wave's time is the max of its
//!   compute/latency time and its DRAM-bandwidth time.
//!
//! Because full per-thread simulation of large grids is intractable, the
//! engine samples representative thread blocks (all workloads studied in the
//! paper have homogeneous grids), simulates them in cycle detail, and scales
//! raw event counts to the full grid — the standard sampled-simulation
//! technique. See `DESIGN.md` for the fidelity argument.
//!
//! The [`profiler`] module is the nvprof stand-in: it derives the named
//! metrics of the paper's Table 1 (ipc, achieved_occupancy, replay overheads,
//! throughputs, ...) from raw event counts, honouring per-architecture
//! counter availability (e.g. `l1_shared_bank_conflict` exists only on Fermi,
//! `shared_load_replay`/`shared_store_replay` only on Kepler).
//!
//! A launch reaches its named counters along one path: [`sample_blocks`]
//! picks the sampled blocks and builds their traces, the engine simulates
//! them ([`simulate_launch`], or [`simulate_launch_cached`] through a
//! [`SimCache`]), and one `ProfiledRun` constructor turns the accumulated
//! raw events into time, power and [`profiler::derive_counters`]' counter
//! set.
//! [`profile_applications`] is the one batch driver; [`profile_kernel`] and
//! the workloads' `Application::profile` are thin entries over the same
//! steps.
//!
//! Launch simulation is *pure* — each launch builds fresh cache state and
//! shares nothing with its neighbours — which the batch driver exploits
//! twice: launches simulate **in parallel** (order-preserving accumulation
//! keeps results bit-identical to the sequential path; thread count follows
//! `RAYON_NUM_THREADS`), and structurally identical launches are **memoized**
//! through a content-addressed cache ([`memo`]; [`SimCache::from_env`]
//! yields none under `BF_SIM_CACHE=0`).

// Index-based loops are the clearer idiom throughout this numeric code
// (parallel arrays, in-place matrix updates), so the pedantic lint is off.
#![allow(clippy::needless_range_loop)]

pub mod arch;
pub mod banks;
pub mod blocks;
pub mod builder;
pub mod cache;
pub mod coalesce;
pub mod counters;
pub mod diskcache;
pub mod engine;
pub mod memo;
pub mod occupancy;
pub mod power;
pub mod profiler;
pub mod soa;
pub mod steady;
pub mod trace;

pub use arch::{GpuArchitecture, GpuConfig};
pub use blocks::{block_content_id, segment_stream, BlockSpan};
pub use builder::TraceBuilder;
pub use counters::{CounterSet, RawEvents};
pub use diskcache::DiskCache;
pub use engine::{
    sample_blocks, simulate_launch, simulate_sampled_launch_with, EngineOptions, LaunchResult,
    SampledBlocks,
};
pub use memo::{
    global_cache_stats, global_disk_cache_stats, reset_global_cache_stats, simulate_launch_cached,
    Bf128Hasher, CacheStats, SimCache, SIM_CONTENT_VERSION,
};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use power::{estimate_power, PowerEstimate, PowerModel};
pub use profiler::{profile_applications, profile_kernel, ProfiledRun};
pub use trace::{BlockTrace, KernelTrace, Lanes, LaunchConfig, WarpInstruction};

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The launch configuration is invalid for the target GPU.
    BadLaunch(String),
    /// A kernel trace is malformed (e.g. mismatched barrier counts).
    BadTrace(String),
}

impl SimError {
    /// Prefixes the error message with the kernel (and launch position) it
    /// came from, so a malformed trace deep inside a thousand-launch batch
    /// points straight at the offender.
    pub fn in_kernel(self, kernel: &str, launch_index: usize) -> SimError {
        let tag = format!("kernel `{kernel}` (launch {launch_index}): ");
        match self {
            SimError::BadLaunch(msg) => SimError::BadLaunch(format!("{tag}{msg}")),
            SimError::BadTrace(msg) => SimError::BadTrace(format!("{tag}{msg}")),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadLaunch(msg) => write!(f, "bad launch: {msg}"),
            SimError::BadTrace(msg) => write!(f, "bad trace: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
