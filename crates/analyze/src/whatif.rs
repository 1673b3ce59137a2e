//! What-if estimation: statically re-evaluate counters under a hypothetical
//! fix and push both counter vectors through a trained model.
//!
//! Each BF-Wxxx warning names a mechanism (bank conflicts, uncoalesced
//! access, divergence). The corresponding [`Fix`] rewrites the *trace* as if
//! the mechanism were repaired — conflict-free shared offsets, fully
//! coalesced global addresses, converged branches — and the ordinary static
//! walk re-derives the counters. Because the rewrite produces a real
//! [`KernelTrace`] ([`FixedKernel`]), the same hypothetical can also be run
//! through the cycle engine, which is how the test suite checks that the
//! model-predicted direction of each what-if agrees with the simulator.
//!
//! The model side is abstracted behind [`WhatIfModel`] so this crate stays
//! independent of the bundle format: `bf-registry` implements the trait for
//! `ModelBundle` by overriding the statically-derivable entries of the
//! selected-counter row before the forest prediction.

use crate::diag;
use crate::walk::{analyze_launch, StaticCounts, StaticLaunchAnalysis};
use bf_kernels::Application;
use gpu_sim::counters::RAW_EVENT_FIELDS;
use gpu_sim::profiler::derive_counters;
use gpu_sim::trace::{BlockTrace, KernelTrace, LaunchConfig, WarpInstruction};
use gpu_sim::{GpuConfig, RawEvents, Result};

/// A hypothetical fix for one warning mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fix {
    /// Sequential shared-memory addressing: lane `i` accesses offset
    /// `i * width` (conflict-free on 4-byte banks; addresses BF-W001).
    ConflictFreeShared,
    /// Fully coalesced global accesses: active lanes write consecutive
    /// `width`-byte slots from a 128-byte-aligned base (addresses BF-W002).
    CoalescedGlobal,
    /// Every divergent branch converges (addresses BF-W004).
    ConvergedBranches,
}

impl Fix {
    /// All fixes, in diagnostic-code order.
    pub const ALL: [Fix; 3] = [
        Fix::ConflictFreeShared,
        Fix::CoalescedGlobal,
        Fix::ConvergedBranches,
    ];

    /// Short machine-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fix::ConflictFreeShared => "conflict-free-shared",
            Fix::CoalescedGlobal => "coalesced-global",
            Fix::ConvergedBranches => "converged-branches",
        }
    }

    /// The diagnostic code this fix addresses.
    pub fn code(&self) -> &'static str {
        match self {
            Fix::ConflictFreeShared => diag::BANK_CONFLICT,
            Fix::CoalescedGlobal => diag::UNCOALESCED,
            Fix::ConvergedBranches => diag::DIVERGENCE,
        }
    }

    /// Applies the fix to one instruction.
    fn rewrite(&self, instr: &mut WarpInstruction) {
        match (self, instr) {
            (
                Fix::ConflictFreeShared,
                WarpInstruction::LoadShared { offsets, width, .. }
                | WarpInstruction::StoreShared { offsets, width, .. },
            ) => {
                let w = *width as u32;
                *offsets = (0..offsets.len() as u32).map(|i| i * w).collect();
            }
            (
                Fix::CoalescedGlobal,
                WarpInstruction::LoadGlobal { addrs, width, mask }
                | WarpInstruction::StoreGlobal { addrs, width, mask },
            ) => {
                if *mask == 0 {
                    return;
                }
                let m = *mask;
                let base = addrs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m & (1 << i) != 0)
                    .map(|(_, &a)| a)
                    .min()
                    .unwrap_or(0)
                    & !127u64;
                let mut rank = 0u64;
                *addrs = addrs
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        if m & (1 << i) == 0 {
                            return a;
                        }
                        rank += 1;
                        base + (rank - 1) * *width as u64
                    })
                    .collect();
            }
            (Fix::ConvergedBranches, WarpInstruction::Branch { divergent, .. }) => {
                *divergent = false;
            }
            _ => {}
        }
    }
}

/// A kernel with a [`Fix`] applied to every generated trace. A real
/// [`KernelTrace`], so the hypothetical is both statically analyzable and
/// dynamically simulable with the unmodified engines.
pub struct FixedKernel<'a> {
    /// The original kernel.
    pub inner: &'a dyn KernelTrace,
    /// The hypothetical fix.
    pub fix: Fix,
}

impl KernelTrace for FixedKernel<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn launch_config(&self) -> LaunchConfig {
        self.inner.launch_config()
    }

    fn block_trace(&self, block_id: usize, gpu: &GpuConfig) -> BlockTrace {
        let mut t = self.inner.block_trace(block_id, gpu);
        for stream in &mut t.warps {
            for instr in stream {
                self.fix.rewrite(instr);
            }
        }
        t
    }

    fn homogeneous(&self) -> bool {
        self.inner.homogeneous()
    }

    // content_tag deliberately stays `None`: the rewrite changes the traces,
    // so inheriting the inner kernel's tag would alias fixed and unfixed
    // launches in the memo cache.
}

/// The profiler counters a static walk determines exactly: each is a
/// function of statically exact raw events only. Time-dependent counters
/// (throughputs, ipc, achieved occupancy, cache hits) have no static
/// counterpart and are never overridden.
const STATIC_COUNTERS: [&str; 20] = [
    "shared_replay_overhead",
    "shared_load",
    "shared_store",
    "inst_replay_overhead",
    "l1_shared_bank_conflict",
    "shared_load_replay",
    "shared_store_replay",
    "shared_ld_bank_conflict",
    "shared_st_bank_conflict",
    "gld_request",
    "gst_request",
    "global_load_transaction",
    "global_store_transaction",
    "l2_write_transactions",
    "dram_write_transactions",
    "warp_execution_efficiency",
    "inst_executed",
    "inst_issued",
    "branch",
    "divergent_branch",
];

/// The statically exact subset of the profiler's named counters on `gpu`:
/// the static counts fill a [`RawEvents`] under their shared field names
/// ([`StaticCounts::raw_event_fields`]; timing and cache events stay
/// zero), the profiler's own [`derive_counters`] names them, and the
/// `STATIC_COUNTERS` are kept — the entries a [`WhatIfModel`] overrides
/// in the model's counter row.
pub fn static_counter_values(gpu: &GpuConfig, c: &StaticCounts) -> Vec<(String, f64)> {
    let mut events = [0.0; RAW_EVENT_FIELDS];
    for (_, i, value) in c.raw_event_fields() {
        events[i] = value;
    }
    derive_counters(gpu, &RawEvents::from_array(events))
        .iter()
        .filter(|(name, _)| STATIC_COUNTERS.contains(name))
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// A model that can predict application time from named characteristics with
/// a set of counter values pinned to externally supplied numbers.
///
/// Implemented by `bf-registry`'s `ModelBundle`: characteristics drive the
/// per-counter scaling models, then any selected counter named in
/// `overrides` is replaced before the forest predicts. Errors are plain
/// strings so the trait stays object-safe and dependency-free.
pub trait WhatIfModel {
    /// Predicts milliseconds for an application described by named
    /// characteristics, with `overrides` pinning selected counter values.
    fn predict_ms(
        &self,
        characteristics: &[(String, f64)],
        overrides: &[(String, f64)],
    ) -> std::result::Result<f64, String>;
}

/// One hypothetical fix for one application: the baseline and fixed static
/// counter vectors, ready to push through a [`WhatIfModel`].
#[derive(Debug, Clone)]
pub struct WhatIfScenario {
    /// The fix applied.
    pub fix: Fix,
    /// Statically-exact counters of the unmodified application.
    pub baseline: Vec<(String, f64)>,
    /// The same counters with the fix applied to every launch.
    pub fixed: Vec<(String, f64)>,
}

/// Sums the scaled static counts over every launch of an application —
/// the static mirror of how the profiler accumulates raw events before
/// deriving one application-level counter set.
fn app_static_counts(analyses: &[StaticLaunchAnalysis]) -> StaticCounts {
    let mut total = StaticCounts::default();
    for a in analyses {
        total.add(&a.counts);
    }
    total
}

fn analyze_all(
    gpu: &GpuConfig,
    app: &Application,
    fix: Option<Fix>,
) -> Result<Vec<StaticLaunchAnalysis>> {
    app.launches
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let inner = k.as_ref();
            match fix {
                Some(fix) => analyze_launch(gpu, &FixedKernel { inner, fix }),
                None => analyze_launch(gpu, inner),
            }
            .map_err(|e| e.in_kernel(&k.name(), i))
        })
        .collect()
}

/// Builds the applicable what-if scenarios for one application: a fix
/// qualifies when the mechanism it repairs actually fires somewhere in the
/// sweep (same thresholds as the diagnostics), and its fixed counter vector
/// comes from re-walking every launch with the fix applied.
pub fn whatif_scenarios(gpu: &GpuConfig, app: &Application) -> Result<Vec<WhatIfScenario>> {
    scenarios_from_baseline(gpu, app, &analyze_all(gpu, app, None)?)
}

/// [`whatif_scenarios`] from the baseline analyses of every launch of
/// `app`, in launch order: lint passes the walks it already made, so only
/// the fixed variants are sampled and walked here.
pub(crate) fn scenarios_from_baseline(
    gpu: &GpuConfig,
    app: &Application,
    analyses: &[StaticLaunchAnalysis],
) -> Result<Vec<WhatIfScenario>> {
    let baseline = static_counter_values(gpu, &app_static_counts(analyses));

    let mut applicable = Vec::new();
    for a in analyses {
        if diag::bank_conflicted(&a.shared) {
            applicable.push(Fix::ConflictFreeShared);
        }
        if diag::uncoalesced(&a.loads) || diag::uncoalesced(&a.stores) {
            applicable.push(Fix::CoalescedGlobal);
        }
        if diag::divergent_share(&a.divergence).is_some() {
            applicable.push(Fix::ConvergedBranches);
        }
    }

    let mut out = Vec::new();
    for fix in Fix::ALL {
        if !applicable.contains(&fix) {
            continue;
        }
        let fixed_analyses = analyze_all(gpu, app, Some(fix))?;
        out.push(WhatIfScenario {
            fix,
            baseline: baseline.clone(),
            fixed: static_counter_values(gpu, &app_static_counts(&fixed_analyses)),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::analyze_launch;
    use bf_kernels::reduce::{reduce_application, ReduceVariant};
    use gpu_sim::simulate_launch;

    fn value(v: &[(String, f64)], name: &str) -> f64 {
        v.iter().find(|(n, _)| n == name).map(|(_, x)| *x).unwrap()
    }

    #[test]
    fn conflict_free_fix_zeroes_shared_replays() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let scenarios = whatif_scenarios(&gpu, &app).unwrap();
        let s = scenarios
            .iter()
            .find(|s| s.fix == Fix::ConflictFreeShared)
            .expect("reduce1 is bank-conflicted");
        assert!(value(&s.baseline, "l1_shared_bank_conflict") > 0.0);
        assert_eq!(value(&s.fixed, "l1_shared_bank_conflict"), 0.0);
        assert!(value(&s.fixed, "inst_issued") < value(&s.baseline, "inst_issued"));
    }

    #[test]
    fn fixed_kernel_simulates_faster_when_conflicts_are_removed() {
        // The acceptance direction check at trace level: applying the
        // conflict-free rewrite to reduce1 must actually speed up the
        // simulated kernel.
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let mut base_ms = 0.0;
        let mut fixed_ms = 0.0;
        for k in &app.launches {
            base_ms += simulate_launch(&gpu, k.as_ref()).unwrap().time_seconds * 1e3;
            let fixed = FixedKernel {
                inner: k.as_ref(),
                fix: Fix::ConflictFreeShared,
            };
            fixed_ms += simulate_launch(&gpu, &fixed).unwrap().time_seconds * 1e3;
        }
        assert!(
            fixed_ms < base_ms,
            "conflict-free rewrite did not speed up reduce1: {fixed_ms} vs {base_ms}"
        );
    }

    #[test]
    fn coalesced_fix_reduces_transactions() {
        let gpu = GpuConfig::gtx580();
        // reduce2 stores one lane per block: heavily uncoalesced stores.
        let app = reduce_application(ReduceVariant::Reduce2, 1 << 14, 128);
        let scenarios = whatif_scenarios(&gpu, &app).unwrap();
        let s = scenarios
            .iter()
            .find(|s| s.fix == Fix::CoalescedGlobal)
            .expect("reduce2 has uncoalesced stores");
        assert!(
            value(&s.fixed, "global_load_transaction")
                <= value(&s.baseline, "global_load_transaction")
        );
    }

    #[test]
    fn converged_fix_zeroes_divergent_branches() {
        let gpu = GpuConfig::gtx580();
        // reduce0's interleaved addressing diverges heavily.
        let app = reduce_application(ReduceVariant::Reduce0, 1 << 14, 128);
        let scenarios = whatif_scenarios(&gpu, &app).unwrap();
        if let Some(s) = scenarios.iter().find(|s| s.fix == Fix::ConvergedBranches) {
            assert!(value(&s.baseline, "divergent_branch") > 0.0);
            assert_eq!(value(&s.fixed, "divergent_branch"), 0.0);
        }
    }

    #[test]
    fn static_counter_values_respect_architecture_availability() {
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let fermi = GpuConfig::gtx580();
        let kepler = GpuConfig::k20m();
        let a = analyze_launch(&fermi, app.launches[0].as_ref()).unwrap();
        let f = static_counter_values(&fermi, &a.counts);
        let k = static_counter_values(&kepler, &a.counts);
        assert!(f.iter().any(|(n, _)| n == "l1_shared_bank_conflict"));
        assert!(!k.iter().any(|(n, _)| n == "l1_shared_bank_conflict"));
        assert!(k.iter().any(|(n, _)| n == "shared_load_replay"));
        assert!(!f.iter().any(|(n, _)| n == "shared_load_replay"));
    }
}
