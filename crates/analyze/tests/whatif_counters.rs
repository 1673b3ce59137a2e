//! The what-if rows name their counters through the profiler.
//!
//! A what-if row is what `bf-registry` pins in a model's counter row before
//! the forest prices a fix, so it must carry the profiler's own values:
//! across the whole zoo, every `(name, value)` of a reduce1 and an NW
//! what-if row (baseline and fixed) must equal `derive_counters` bit for bit
//! on the same raw events — the application's static counts, summed over
//! its launches in issue order — and the row must carry every bank-conflict
//! counter the architecture exposes, whatever the generation spells it.

use bf_analyze::{analyze_launch, whatif_scenarios, Fix, FixedKernel, StaticCounts};
use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::Application;
use gpu_sim::counters::counter_available;
use gpu_sim::profiler::derive_counters;
use gpu_sim::{GpuConfig, RawEvents};

/// Every spelling of the shared-memory bank-conflict events across the
/// generations.
const BANK_CONFLICT_COUNTERS: [&str; 5] = [
    "l1_shared_bank_conflict",
    "shared_load_replay",
    "shared_store_replay",
    "shared_ld_bank_conflict",
    "shared_st_bank_conflict",
];

/// The raw events a static walk determines: its counts under their
/// `RawEvents` names, every timing and cache event left at zero.
fn raw_events(c: &StaticCounts) -> RawEvents {
    RawEvents {
        inst_executed: c.inst_executed,
        inst_issued: c.inst_issued,
        thread_inst_executed: c.thread_inst_executed,
        gld_request: c.gld_request,
        gst_request: c.gst_request,
        gld_requested_bytes: c.gld_requested_bytes,
        gst_requested_bytes: c.gst_requested_bytes,
        global_load_transactions: c.global_load_transactions,
        global_store_transactions: c.global_store_transactions,
        shared_load: c.shared_load,
        shared_store: c.shared_store,
        shared_load_replay: c.shared_load_replay,
        shared_store_replay: c.shared_store_replay,
        l2_write_transactions: c.l2_write_transactions,
        dram_write_transactions: c.dram_write_transactions,
        branch: c.branch,
        divergent_branch: c.divergent_branch,
        warps_launched: c.warps_launched,
        blocks_launched: c.blocks_launched,
        ..RawEvents::default()
    }
}

/// The application's static counts, summed over its launches in issue
/// order (optionally with every launch rewritten by a fix).
fn app_counts(gpu: &GpuConfig, app: &Application, fix: Option<Fix>) -> StaticCounts {
    let mut total = StaticCounts::default();
    for k in &app.launches {
        let a = match fix {
            Some(fix) => analyze_launch(
                gpu,
                &FixedKernel {
                    inner: k.as_ref(),
                    fix,
                },
            ),
            None => analyze_launch(gpu, k.as_ref()),
        }
        .unwrap();
        total.add(&a.counts);
    }
    total
}

/// Checks one row against the profiler on the same raw events.
fn assert_row_is_derived(
    gpu: &GpuConfig,
    row: &[(String, f64)],
    counts: &StaticCounts,
    what: &str,
) {
    let derived = derive_counters(gpu, &raw_events(counts));
    for (name, value) in row {
        let expected = derived
            .get(name)
            .unwrap_or_else(|| panic!("{what} on {}: `{name}` is not a counter here", gpu.name));
        assert_eq!(
            value.to_bits(),
            expected.to_bits(),
            "{what} on {}: `{name}` is {value}, derive_counters gives {expected}",
            gpu.name
        );
    }
    for name in BANK_CONFLICT_COUNTERS {
        if counter_available(name, gpu.arch) {
            assert!(
                row.iter().any(|(n, _)| n == name),
                "{what} on {} ({}): the row lacks `{name}`",
                gpu.name,
                gpu.arch.name()
            );
        }
    }
}

#[test]
fn whatif_rows_equal_derive_counters_across_the_zoo() {
    let apps = [
        reduce_application(ReduceVariant::Reduce1, 1 << 14, 128),
        nw_application(128, 10),
    ];
    for gpu in GpuConfig::presets() {
        for app in &apps {
            let scenarios = whatif_scenarios(&gpu, app).unwrap();
            assert!(
                !scenarios.is_empty(),
                "{} on {}: no what-if applies",
                app.name,
                gpu.name
            );
            let baseline = app_counts(&gpu, app, None);
            for s in &scenarios {
                let what = format!("{} {}", app.name, s.fix.label());
                assert_row_is_derived(&gpu, &s.baseline, &baseline, &format!("{what} baseline"));
                let fixed = app_counts(&gpu, app, Some(s.fix));
                assert_row_is_derived(&gpu, &s.fixed, &fixed, &format!("{what} fixed"));
            }
        }
    }
}
