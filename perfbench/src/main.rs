//! The BlackForest benchmark: times the train, serve and lint paths end to
//! end (`--trace 0`) or layer by layer (`--trace 1`), checks their outputs,
//! and prints every metric with its unit. The last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`; the exit code is 0 only when every output check passed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-stencil --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! Run it from the repository root. `perfbench/NOTES.md` explains the
//! workloads, the metrics and how steady they are.

mod common;
mod lint;
mod serve;
mod train;

use common::Outcome;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["train-stencil", "serve-mix", "lint-zoo"];

/// Metrics of an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Metrics of a traced run. A workload whose op never calls a layer
/// reports that layer as 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("traced_op_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_pct", "pct"),
    ("trace_overhead_pct", "pct"),
    ("collect.ms", "ms"),
    ("sim.profile_ms", "ms"),
    ("sim.launches", "count"),
    ("sim.memo_hits", "count"),
    ("sim.memo_misses", "count"),
    ("sim.us_per_miss", "us"),
    ("model.fit_ms", "ms"),
    ("countermodel.fit_ms", "ms"),
    ("bottleneck.analyze_ms", "ms"),
    ("registry.bundle_ms", "ms"),
    ("dataset.rows", "count"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("registry.resolve_us", "us"),
    ("lru.lookup_us", "us"),
    ("lru.hit_ratio", "ratio"),
    ("countermodel.predict_us", "us"),
    ("forest.predict_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.mean_batch_rows", "rows"),
    ("server.queue_rejections", "count"),
    ("kernels.sweep_ms", "ms"),
    ("analyze.walk_ms", "ms"),
    ("analyze.attr_ms", "ms"),
    ("analyze.diag_ms", "ms"),
    ("analyze.whatif_ms", "ms"),
    ("lint.report_ms", "ms"),
    ("analyze.launches", "count"),
    ("lint.diagnostics", "count"),
];

/// The metrics a run reports: `(name, unit)`.
fn listed(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The output checks a run of `workload` makes.
fn checks_of(workload: &str, trace: bool) -> Vec<&'static str> {
    let (checks, traced) = match workload {
        "train-stencil" => (train::CHECKS, train::TRACED_CHECKS),
        "serve-mix" => (serve::CHECKS, serve::TRACED_CHECKS),
        _ => (lint::CHECKS, lint::TRACED_CHECKS),
    };
    let traced: &[&str] = if trace { traced } else { &[] };
    checks.iter().chain(traced).copied().collect()
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --self-check
workloads: train-stencil, serve-mix, lint-zoo";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: use 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins every knob that changes what a run computes or how fast, and
/// returns `(knob, inherited value, pinned value)` for the record.
fn pin_environment() -> Vec<(&'static str, String, &'static str)> {
    let pins: [(&str, Option<&str>); 4] = [
        // One thread: two rayon workers spread full NW train times by 17%
        // and race the in-memory launch memo, changing its hit count.
        ("RAYON_NUM_THREADS", Some("1")),
        ("BF_SIM_CACHE", Some("1")),
        // A disk cache would serve every op after the first from disk.
        ("BF_SIM_CACHE_DIR", None),
        ("BF_SIM_LOOP_EXTRAP", None),
    ];
    let record = pins
        .iter()
        .map(|&(knob, value)| {
            let found = std::env::var(knob).unwrap_or_else(|_| "unset".into());
            match value {
                Some(v) => std::env::set_var(knob, v),
                None => std::env::remove_var(knob),
            }
            (knob, found, value.unwrap_or("unset"))
        })
        .collect();
    bf_trace::disable();
    record
}

/// The commit checked out in the working directory, from `git rev-parse`;
/// `unknown` outside a git checkout or without git. The search for a
/// repository stops at the working directory.
fn git_revision() -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time the hypervisor took from this machine for other guests, summed
/// over all CPUs, in clock ticks (the `steal` column of `/proc/stat`).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "train-stencil" => train::run(args.seed, args.seconds, args.trace),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace),
        _ => lint::run(args.seed, args.seconds, args.trace),
    }
}

/// A measured value scaled to the reference host speed: times by
/// `factor`, rates by its inverse, counts and ratios not at all.
fn at_reference_speed(value: f64, unit: &str, factor: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => value * factor,
        "1/s" => value / factor,
        _ => value,
    }
}

/// Prints the run's checks and metrics, and returns the final JSON line.
/// Every listed metric must have been measured once, as a finite number,
/// and is reported at the reference host speed: the end-to-end metrics
/// come scaled op by op, the per-layer ones are scaled here by the run's
/// factor.
fn report(args: &Args, mut o: Outcome) -> (String, bool) {
    let factor = if args.trace { o.host.factor() } else { 1.0 };
    let mut measured: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    for (name, value, unit) in std::mem::take(&mut o.metrics) {
        if measured.insert(name.clone(), (value, unit)).is_some() {
            panic!("metric {name} measured twice");
        }
    }
    let mut fields = Vec::new();
    let mut well_formed = true;
    for &(name, unit) in listed(args.trace) {
        let (value, got_unit) = match measured.remove(name) {
            Some(m) => m,
            // The op of this workload never calls that layer.
            None if args.trace => (0.0, unit),
            None => panic!("end-to-end metric {name} not measured"),
        };
        assert_eq!(got_unit, unit, "metric {name} measured in {got_unit}");
        if !value.is_finite() {
            println!("metric {name} is not finite: {value}");
            well_formed = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let value = at_reference_speed(value, unit, factor);
        println!("metric {name:<26} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    assert!(
        measured.is_empty(),
        "unlisted metrics measured: {measured:?}"
    );
    for (name, c) in &o.checks {
        match &c.first {
            None => println!("check {name}: ok"),
            Some(first) => println!("check {name}: FAILED {} times; first: {first}", c.failures),
        }
    }
    let correct = o.correct() && well_formed;
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        fields.join(", ")
    );
    (json, correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-check") {
        return self_check();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = pin_environment();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} git={} workload={} seed={} seconds={} trace={}",
        git_revision(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (knob, found, pinned) in &pins {
        println!("env: {knob}={pinned} (inherited: {found})");
    }
    println!("env: rayon threads=1, launch memo on, disk cache off, bf-trace off");
    let steal_before = steal_ticks();
    let started = std::time::Instant::now();
    let outcome = run(&args);
    outcome.host.report();
    if let (Some(before), Some(after)) = (steal_before, steal_ticks()) {
        println!(
            "host steal: {} clock ticks taken by other guests over the {:.1} s run",
            after.saturating_sub(before),
            started.elapsed().as_secs_f64()
        );
    }
    let (json, correct) = report(&args, outcome);
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Any JSON document, as the vendored serde's value tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn deserialize_value(v: &serde::Value) -> Result<Json, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse_json(text: &str) -> Result<serde::Value, serde_json::Error> {
    serde_json::from_str::<Json>(text).map(|j| j.0)
}

/// A string field of a JSON object, or "" when absent.
fn text_field(v: &serde::Value, key: &str) -> String {
    match v.field(key) {
        serde::Value::Str(s) => s.clone(),
        _ => String::new(),
    }
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Checks `BENCHMARK.json` against this program's workloads and metrics,
/// then runs every workload traced and untraced for a few ops and checks
/// that each prints every listed metric with its unit and passes every
/// output check.
fn self_check() -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json").map(|t| parse_json(&t)) {
        Err(e) => problems.push(format!(
            "read BENCHMARK.json (run from the repository root): {e}"
        )),
        Ok(Err(e)) => problems.push(format!("BENCHMARK.json: {e}")),
        Ok(Ok(spec)) => {
            let items = |key: &str| match spec.field(key) {
                serde::Value::Seq(items) => items.clone(),
                _ => Vec::new(),
            };
            let workloads: Vec<String> = items("workloads")
                .iter()
                .map(|w| text_field(w, "name"))
                .collect();
            if workloads != WORKLOADS {
                problems.push(format!(
                    "BENCHMARK.json workloads {workloads:?}, program has {WORKLOADS:?}"
                ));
            }
            for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
                let got: Vec<(String, String)> = items(key)
                    .iter()
                    .map(|m| (text_field(m, "name"), text_field(m, "unit")))
                    .collect();
                if got != owned(listed(trace)) {
                    problems.push(format!(
                        "BENCHMARK.json {key} {got:?}, program has {:?}",
                        listed(trace)
                    ));
                }
            }
        }
    }

    let exe = std::env::current_exe().expect("own executable path");
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let label = format!("{workload} --trace {trace}");
            let before = problems.len();
            if !out.status.success() {
                problems.push(format!("{label}: exit {}", out.status));
            }
            let last = stdout.lines().last().unwrap_or("");
            match parse_json(last) {
                Err(e) => problems.push(format!("{label}: last line is not JSON: {e}")),
                Ok(v) => {
                    if v.field("correct") != &serde::Value::Bool(true) {
                        problems.push(format!("{label}: not correct"));
                    }
                    let metrics = match v.field("metrics") {
                        serde::Value::Map(m) => m.clone(),
                        _ => Vec::new(),
                    };
                    let got: Vec<(String, String)> = metrics
                        .iter()
                        .map(|(name, m)| (name.clone(), text_field(m, "unit")))
                        .collect();
                    let want = owned(listed(trace == "1"));
                    if got != want {
                        problems.push(format!("{label}: metrics {got:?}, expected {want:?}"));
                    }
                }
            }
            for check in checks_of(workload, trace == "1") {
                if !stdout.lines().any(|l| l == format!("check {check}: ok")) {
                    problems.push(format!("{label}: check {check} missing or failed"));
                }
            }
            let verdict = if problems.len() == before {
                "ok"
            } else {
                "FAILED"
            };
            println!("self-check {label}: {verdict}");
        }
    }
    for p in &problems {
        println!("problem: {p}");
    }
    if problems.is_empty() {
        println!("self-check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
