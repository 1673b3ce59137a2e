//! The differential oracle: static predictions vs dynamic counters.
//!
//! The static walk ([`crate::walk`]) folds the ops the engine's compile
//! stage produces from the sampled traces, and the cycle engine executes
//! those ops, so for every counter with a static counterpart the two must
//! agree to floating-point noise. This module turns that invariant into an
//! executable check: [`compare`] diffs one launch over the counts that
//! [`crate::walk::StaticCounts::raw_event_fields`] shares with the
//! simulator's events, [`check_application`] sweeps a whole application
//! (walking and simulating each launch from one [`SampledLaunch`]), and
//! any divergence is a simulator (or analyzer) bug — surfaced as a
//! [`crate::diag::ORACLE_DIVERGENCE`] error diagnostic by the lint driver.
//! The fold and the execute loop share the compile stage, so the test
//! suite makes the oracle three-way: a reference interpreter that
//! re-derives every count from the traces on its own
//! (`gpu-sim/tests/reference`) must match the walk bit for bit.
//!
//! Tolerances (documented in `DESIGN.md`): occupancy is compared **exactly**;
//! every counter pair uses relative tolerance [`REL_TOLERANCE`], which only
//! absorbs the float accumulation order (counts are integers in f64, exact up
//! to 2^53, but scaling multiplies in different orders on the two paths).
//! Counters with no static counterpart (cache hits, DRAM reads, cycles,
//! seconds) are out of scope by design.

use crate::walk::{SampledLaunch, StaticLaunchAnalysis};
use bf_kernels::Application;
use gpu_sim::{
    simulate_sampled_launch_with, EngineOptions, GpuConfig, KernelTrace, LaunchResult, Result,
};
use serde::Serialize;

/// Relative tolerance for counter comparison: floating-point noise only.
pub const REL_TOLERANCE: f64 = 1e-9;

/// One static-vs-dynamic counter comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CounterCheck {
    /// Counter name (matches `RawEvents` field).
    pub counter: &'static str,
    /// Statically predicted value (full-grid scaled).
    pub static_value: f64,
    /// Dynamically simulated value.
    pub dynamic_value: f64,
    /// `|static - dynamic| / max(|dynamic|, 1)`.
    pub rel_error: f64,
    /// Whether the pair is within [`REL_TOLERANCE`].
    pub ok: bool,
}

/// Oracle verdict for one launch.
#[derive(Debug, Clone, Serialize)]
pub struct OracleReport {
    /// Kernel name.
    pub kernel: String,
    /// Launch index within the application.
    pub launch: usize,
    /// Whether static and dynamic occupancy agree exactly.
    pub occupancy_ok: bool,
    /// Per-counter comparisons.
    pub checks: Vec<CounterCheck>,
}

impl OracleReport {
    /// True if any check (occupancy or counter) failed.
    pub fn divergent(&self) -> bool {
        !self.occupancy_ok || self.checks.iter().any(|c| !c.ok)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&CounterCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    /// Largest relative error across all counter checks.
    pub fn max_rel_error(&self) -> f64 {
        self.checks.iter().map(|c| c.rel_error).fold(0.0, f64::max)
    }
}

fn check(counter: &'static str, static_value: f64, dynamic_value: f64) -> CounterCheck {
    let rel_error = (static_value - dynamic_value).abs() / dynamic_value.abs().max(1.0);
    CounterCheck {
        counter,
        static_value,
        dynamic_value,
        rel_error,
        ok: rel_error <= REL_TOLERANCE,
    }
}

/// Diffs a static analysis against a dynamic launch result.
///
/// Separable from the simulation on purpose: the seeded-regression test
/// perturbs a genuine `LaunchResult` and asserts the oracle notices, proving
/// the harness has teeth.
pub fn compare(a: &StaticLaunchAnalysis, dynamic: &LaunchResult, launch: usize) -> OracleReport {
    let occupancy_ok = a.occupancy.blocks_per_sm == dynamic.occupancy.blocks_per_sm
        && a.occupancy.warps_per_sm == dynamic.occupancy.warps_per_sm
        && a.occupancy.limiter == dynamic.occupancy.limiter
        && a.occupancy.theoretical == dynamic.occupancy.theoretical;
    let dynamic = dynamic.events.as_array();
    let checks = a
        .counts
        .raw_event_fields()
        .into_iter()
        .map(|(counter, i, value)| check(counter, value, dynamic[i]))
        .collect();
    OracleReport {
        kernel: a.kernel.clone(),
        launch,
        occupancy_ok,
        checks,
    }
}

/// Samples one launch once, then walks and simulates its blocks and diffs
/// the two.
pub fn check_launch(
    gpu: &GpuConfig,
    kernel: &dyn KernelTrace,
    launch: usize,
) -> Result<OracleReport> {
    let s = SampledLaunch::new(gpu, kernel)?;
    let d = simulate_sampled_launch_with(gpu, &s.blocks, &EngineOptions::default())?;
    Ok(compare(&s.walk(gpu), &d, launch))
}

/// Runs the oracle over every launch of an application.
pub fn check_application(gpu: &GpuConfig, app: &Application) -> Result<Vec<OracleReport>> {
    app.launches
        .iter()
        .enumerate()
        .map(|(i, k)| check_launch(gpu, k.as_ref(), i).map_err(|e| e.in_kernel(&k.name(), i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::analyze_launch;
    use bf_kernels::reduce::{reduce_application, ReduceVariant};
    use gpu_sim::simulate_launch;

    #[test]
    fn oracle_agrees_on_a_reduce_launch() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        for r in check_application(&gpu, &app).unwrap() {
            assert!(
                !r.divergent(),
                "launch {} of {} diverged: {:?}",
                r.launch,
                r.kernel,
                r.failures()
            );
        }
    }

    #[test]
    fn oracle_catches_an_injected_counter_bug() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let k = app.launches[0].as_ref();
        let a = analyze_launch(&gpu, k).unwrap();
        let mut d = simulate_launch(&gpu, k).unwrap();
        // Inject the classic regression: the simulator silently drops 10% of
        // load transactions (e.g. a botched coalescing refactor).
        d.events.global_load_transactions *= 0.9;
        let report = compare(&a, &d, 0);
        assert!(report.divergent(), "oracle missed the injected bug");
        let failing: Vec<_> = report.failures().iter().map(|c| c.counter).collect();
        assert_eq!(failing, vec!["global_load_transactions"]);
    }
}
