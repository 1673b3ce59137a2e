//! Tracing vs parallelism determinism, two guarantees in one run:
//!
//! 1. **Thread-count independence.** The same quick collection traced under
//!    `RAYON_NUM_THREADS=1` and `=4` yields the *identical* span multiset
//!    and topology — parallel scheduling may reorder spans but can never
//!    lose, duplicate, or re-parent one. Cache hit/miss counters are only
//!    compared as a sum (racing workers may double-compute a launch, so the
//!    split is scheduling-dependent, but every lookup is still counted), and
//!    the spans that run only on a cache miss (sampling, the steady-state
//!    probes, and the engine's compile and execute phases) are held to
//!    consistency (equal counts within each group, parallel ≥ sequential)
//!    rather than exact equality, for the same reason.
//!
//! 2. **Observer effect: none.** Running the full quick pipeline with
//!    tracing enabled produces bit-for-bit the same simulated counters and
//!    predictions as with tracing disabled.
//!
//! One `#[test]` only: the run mutates `RAYON_NUM_THREADS`, and a sibling
//! test in this binary would race on the environment.

use blackforest_suite::blackforest::collect::{collect_reduce, CollectOptions};
use blackforest_suite::blackforest::model::ModelConfig;
use blackforest_suite::blackforest::{BlackForest, Workload};
use blackforest_suite::gpu_sim::GpuConfig;
use blackforest_suite::kernels::reduce::ReduceVariant;

fn quick_collect() -> blackforest_suite::blackforest::Dataset {
    let sizes: Vec<usize> = (14..=17).map(|e| 1usize << e).collect();
    let threads = [64usize, 256];
    collect_reduce(
        &GpuConfig::gtx580(),
        ReduceVariant::Reduce6,
        &sizes,
        &threads,
        &CollectOptions::default(),
    )
    .expect("collect_reduce")
}

/// Every span that runs only on the miss path of
/// `gpu_sim::memo::simulate_launch_cached`, grouped by how often one miss
/// emits it. The hit/miss split is scheduling-dependent (racing workers may
/// double-compute a launch, see the module comment), so these counts can
/// legitimately differ across thread counts; they are compared for internal
/// consistency instead of exact equality. All are leaves of `launch`.
const MISS_PATH: [&[&str]; 4] = [
    // Once per miss: sampling a tagged kernel's blocks, and the
    // steady-state period probe in `steady::try_extrapolate`.
    &["sample_blocks", "steady.period"],
    // Up to three per extrapolation attempt: the truncated probe sets.
    &["steady.truncate"],
    // Once per compile (`soa::compile`): the sampled launch's, and each
    // probe's.
    &["validate", "trace_walk", "coalesce", "banks"],
    // Once per execute (`soa::execute`): each probe, and the sampled
    // launch unless its probes extrapolated it.
    &["issue_loop"],
];

#[test]
fn tracing_is_deterministic_across_threads_and_invisible_to_results() {
    // --- 1. Span multiset + topology survive any thread count. -----------
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (ds, mut trace) = bf_trace::capture(quick_collect);
        let defects = trace.validate();
        assert!(
            defects.is_empty(),
            "{threads}-thread trace has defects: {defects:?}"
        );
        let cache_events: u64 = trace
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sim_cache."))
            .map(|(_, v)| v)
            .sum();
        // Miss-path spans ride with the misses: strip them (they are
        // leaves, so no child is re-parented) and keep their counts aside
        // for the consistency check below.
        let misses: Vec<Vec<u64>> = MISS_PATH
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|p| trace.spans.iter().filter(|s| s.name == *p).count() as u64)
                    .collect()
            })
            .collect();
        trace
            .spans
            .retain(|s| !MISS_PATH.iter().any(|group| group.contains(&s.name)));
        runs.push((
            threads,
            ds,
            trace.multiset(),
            trace.topology(),
            cache_events,
            misses,
        ));
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    let (_, seq_ds, seq_multiset, seq_topology, seq_events, seq_misses) = &runs[0];
    assert!(
        seq_misses[0][0] > 0 && seq_misses.iter().all(|g| g.iter().all(|c| c == &g[0])),
        "each miss-path group emits its spans equally often: {seq_misses:?}"
    );
    for (threads, ds, multiset, topology, events, misses) in &runs[1..] {
        assert_eq!(
            multiset, seq_multiset,
            "span multiset differs between 1 and {threads} threads"
        );
        assert_eq!(
            topology, seq_topology,
            "span topology differs between 1 and {threads} threads"
        );
        // Every cache lookup is a hit or a miss; the sum is the launch
        // count and must not depend on scheduling.
        assert_eq!(
            events, seq_events,
            "total cache events differ between 1 and {threads} threads"
        );
        // Miss-path spans stay mutually consistent, and a parallel run can
        // only add double-computed misses, never lose one.
        for (group, seq_group) in misses.iter().zip(seq_misses) {
            assert!(
                group.iter().all(|c| c == &group[0]),
                "{threads}-thread run has unbalanced miss-path spans: {misses:?}"
            );
            assert!(
                group[0] >= seq_group[0],
                "{threads}-thread run lost misses: {misses:?} < {seq_misses:?}"
            );
        }
        // The data itself is identical too, of course.
        assert_eq!(ds.response, seq_ds.response);
    }
    // Sanity: the runs actually traced something.
    assert!(
        seq_multiset.get("launch").copied().unwrap_or(0) > 0,
        "expected launch spans in {seq_multiset:?}"
    );

    // --- 2. Tracing on vs off: results are bit-exact. ---------------------
    let analyze = || {
        let bf = BlackForest::new(GpuConfig::gtx580()).with_config(ModelConfig::quick(2016));
        let sizes: Vec<usize> = (14..=17).map(|e| 1usize << e).collect();
        let report = bf
            .analyze(Workload::Reduce(ReduceVariant::Reduce6), &sizes)
            .expect("analyze");
        let predictions: Vec<u64> = sizes
            .iter()
            .map(|&s| {
                report
                    .predictor
                    .predict(&[s as f64, 256.0])
                    .expect("predict")
                    .to_bits()
            })
            .collect();
        let responses: Vec<u64> = report
            .dataset
            .response
            .iter()
            .map(|r| r.to_bits())
            .collect();
        (predictions, responses)
    };

    assert!(!bf_trace::enabled(), "tracing must start disabled");
    let untraced = analyze();
    let (traced, trace) = bf_trace::capture(analyze);
    assert!(
        !trace.spans.is_empty(),
        "the traced run must actually record spans"
    );
    assert_eq!(
        untraced.0, traced.0,
        "enabling tracing changed a prediction bit"
    );
    assert_eq!(
        untraced.1, traced.1,
        "enabling tracing changed a simulated counter bit"
    );
}
