//! `train-stencil`: one op is one full train, from `BlackForest::analyze`
//! to the JSON bytes of the model bundle.

use crate::common::{self, Layers, Outcome};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use bf_registry::ModelBundle;
use blackforest::bottleneck::BottleneckReport;
use blackforest::countermodel::{CounterModelSet, ModelStrategy};
use blackforest::predict::ProblemScalingPredictor;
use blackforest::{
    AnalysisReport, BlackForest, BlackForestModel, CollectOptions, ModelConfig, Workload,
};
use gpu_sim::{GpuConfig, KernelTrace, SimCache};
use std::time::Instant;

pub const CHECKS: &[&str] = &["bundle_digest", "exact_counts"];
pub const TRACED_CHECKS: &[&str] = &["traced_digest"];

/// Model seed of the CLI's `train`; only the collection noise follows
/// `--seed`.
const MODEL_SEED: u64 = 2016;

const WORKLOAD: Workload = Workload::Stencil;

/// Counts one train op must reproduce exactly, on every seed.
const LAUNCHES: u64 = 168;
const MEMO_HITS: u64 = 144;
const MEMO_MISSES: u64 = 24;
const ROWS: usize = 216;
/// FNV-1a of the bundle JSON (`created_unix` zeroed) at [`common::DEFAULT_SEED`].
const DEFAULT_SEED_DIGEST: u64 = 0x08f9_2b76_7b76_8a07;

pub struct Spec {
    sizes: Vec<usize>,
    bf: BlackForest,
}

/// The CLI's `train --workload stencil` on gtx580: 24 sizes × sweep
/// counts {1,2,4} × 3 noisy repetitions, the default `ModelConfig`, with
/// the noise seed taken from `--seed`.
pub fn spec(seed: u64) -> Spec {
    let mut bf = BlackForest::new(GpuConfig::gtx580());
    bf.config = ModelConfig {
        seed: MODEL_SEED,
        ..ModelConfig::default()
    };
    bf.collect = CollectOptions::default().with_repetitions(3, 0.02);
    bf.collect.noise_seed = seed;
    Spec {
        sizes: (2..=48).step_by(2).map(|k| k * 16).collect(),
        bf,
    }
}

/// The bundle as the CLI would save it, with the one wall-clock field
/// zeroed so that identical trains give identical bytes.
fn encode(report: &AnalysisReport, spec: &Spec) -> String {
    let mut bundle = ModelBundle::from_report(report, &spec.bf.gpu, &spec.sizes, false);
    bundle.sweep.created_unix = 0;
    serde_json::to_string(&bundle).expect("bundle serializes")
}

/// One untraced op: the public train call, then the bundle bytes.
pub fn train_op(spec: &Spec) -> (String, usize) {
    let report = spec
        .bf
        .analyze(WORKLOAD, &spec.sizes)
        .expect("train succeeds");
    let rows = report.dataset.len();
    (encode(&report, spec), rows)
}

/// One traced op: the calls `BlackForest::analyze` makes, made one by one
/// and timed from here. Returns the bundle bytes, which must equal the
/// untraced op's.
fn traced_op(spec: &Spec, layers: &mut Layers) -> (String, f64) {
    let bf = &spec.bf;
    let t = Instant::now();
    let dataset = bf.collect(WORKLOAD, &spec.sizes).expect("collect succeeds");
    let t_collect = Instant::now();
    let model = BlackForestModel::fit(&dataset, &bf.config).expect("model fits");
    let t_model = Instant::now();
    let chars: Vec<String> = WORKLOAD
        .characteristics()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let counters = CounterModelSet::fit(&model.train, &model.selected, &chars, ModelStrategy::Auto)
        .expect("counter models fit");
    let t_counters = Instant::now();
    let predictor = ProblemScalingPredictor { model, counters };
    let bottlenecks = BottleneckReport::analyze(&predictor.model, 10.min(dataset.n_features()));
    let t_bottleneck = Instant::now();
    let report = AnalysisReport {
        workload: WORKLOAD,
        gpu: bf.gpu.name.clone(),
        dataset,
        predictor,
        bottlenecks,
    };
    let json = encode(&report, spec);
    let t_bundle = Instant::now();
    layers.add("collect.ms", common::ms(t_collect - t));
    layers.add("model.fit_ms", common::ms(t_model - t_collect));
    layers.add("countermodel.fit_ms", common::ms(t_counters - t_model));
    layers.add(
        "bottleneck.analyze_ms",
        common::ms(t_bottleneck - t_counters),
    );
    layers.add("registry.bundle_ms", common::ms(t_bundle - t_bottleneck));
    (json, common::ms(t_bundle - t))
}

/// The applications `collect` builds for this sweep, in the same order.
fn applications(spec: &Spec) -> Vec<Application> {
    spec.sizes
        .iter()
        .flat_map(|&n| [1, 2, 4].map(|s| stencil_application(n, s)))
        .collect()
}

/// Times the simulator alone on the sweep's applications, through a fresh
/// memo as `collect` uses. It runs inside `collect`, so it is a share of
/// `collect.ms`, measured by a separate call.
fn time_simulation(spec: &Spec, apps: &[Application]) -> f64 {
    let refs: Vec<(&str, &[Box<dyn KernelTrace>])> = apps
        .iter()
        .map(|a| (a.name.as_str(), a.launches.as_slice()))
        .collect();
    let cache = SimCache::new();
    let t = Instant::now();
    let runs = gpu_sim::profile_applications(&spec.bf.gpu, &refs, Some(&cache))
        .expect("simulation succeeds");
    let elapsed = common::ms(t.elapsed());
    std::hint::black_box(runs);
    elapsed
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::with_checks(CHECKS, trace.then_some(TRACED_CHECKS));
    let ((spec, reference), setups) = common::repeated_setup(&mut o.host, || {
        let spec = spec(seed);
        let (json, _) = train_op(&spec);
        (spec, common::digest(json.as_bytes()))
    });
    if seed == common::DEFAULT_SEED {
        o.verify_run("bundle_digest", reference == DEFAULT_SEED_DIGEST, || {
            format!("digest {reference:016x} differs from the recorded {DEFAULT_SEED_DIGEST:016x}")
        });
    }
    let apps = applications(&spec);

    let mut op_ms = Vec::new();
    let mut scaled_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = Layers::default();
    let mut rows = 0;
    let start = Instant::now();
    while common::keep_going(start, seconds, op_ms.len()) {
        gpu_sim::reset_global_cache_stats();
        let t = Instant::now();
        let (json, n) = std::hint::black_box(train_op(&spec));
        let ms = common::ms(t.elapsed());
        let stats = gpu_sim::global_cache_stats();
        op_ms.push(ms);
        scaled_ms.push(ms * o.host.probe_after(ms));
        rows = n;
        let d = common::digest(json.as_bytes());
        let mut ok = o.verify("bundle_digest", d == reference, || {
            format!("op digest {d:016x} differs from the first op's {reference:016x}")
        });
        let counts = (stats.hits + stats.misses, stats.hits, stats.misses, n);
        let want = (LAUNCHES, MEMO_HITS, MEMO_MISSES, ROWS);
        ok &= o.verify("exact_counts", counts == want, || {
            format!("(launches, hits, misses, rows) = {counts:?}, expected {want:?}")
        });

        if trace {
            gpu_sim::reset_global_cache_stats();
            let (json, ms) = traced_op(&spec, &mut layers);
            let stats = gpu_sim::global_cache_stats();
            traced_ms.push(ms);
            let d = common::digest(json.as_bytes());
            ok &= o.verify("traced_digest", d == reference, || {
                format!("traced op digest {d:016x} differs from the untraced {reference:016x}")
            });
            let counts = (stats.hits + stats.misses, stats.hits, stats.misses);
            ok &= o.verify("exact_counts", counts == (want.0, want.1, want.2), || {
                format!("traced (launches, hits, misses) = {counts:?}, expected {want:?}")
            });
            layers.add("sim.launches", (stats.hits + stats.misses) as f64);
            layers.add("sim.memo_hits", stats.hits as f64);
            layers.add("sim.memo_misses", stats.misses as f64);
            layers.add("sim.profile_ms", time_simulation(&spec, &apps));
        }
        o.op(ok);
    }

    if !trace {
        let items_per_s = rows as f64 / (common::median(&scaled_ms) / 1e3);
        o.end_to_end(&setups, &op_ms, &scaled_ms, items_per_s);
        return o;
    }
    common::traced_summary(
        &mut o,
        &layers,
        &[
            ("collect.ms", "ms", 1.0),
            ("model.fit_ms", "ms", 1.0),
            ("countermodel.fit_ms", "ms", 1.0),
            ("bottleneck.analyze_ms", "ms", 1.0),
            ("registry.bundle_ms", "ms", 1.0),
        ],
        common::median(&traced_ms),
        common::median(&traced_ms),
        &traced_ms,
        &op_ms,
    );
    let misses = layers.median("sim.memo_misses");
    o.metric("sim.profile_ms", layers.median("sim.profile_ms"), "ms");
    o.metric("sim.launches", layers.median("sim.launches"), "count");
    o.metric("sim.memo_hits", layers.median("sim.memo_hits"), "count");
    o.metric("sim.memo_misses", misses, "count");
    o.metric(
        "sim.us_per_miss",
        layers.median("sim.profile_ms") * 1e3 / misses.max(1.0),
        "us",
    );
    o.metric("dataset.rows", rows as f64, "count");
    o
}
