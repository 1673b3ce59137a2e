//! `blackforest` — the command-line front-end of the toolchain.
//!
//! Subcommands (run with no arguments for usage):
//!
//! * `gpus` — list the available GPU presets.
//! * `counters [--gpu NAME]` — list the counter catalogue (Table 1).
//! * `collect --workload W [--gpu NAME] [--out FILE]` — run the profiling
//!   sweep and write the dataset as CSV.
//! * `analyze --workload W [--gpu NAME]` — full pipeline: collect, model,
//!   bottleneck report.
//! * `predict --workload W --size N [--gpu NAME]` — problem-scaling
//!   prediction for an unseen size.
//! * `models [--addr HOST:PORT]` — query a running server's model
//!   registry (`GET /v1/models`).
//! * `lint --workload W [--format json] [--oracle]` — static analysis with
//!   clippy-style diagnostics; no simulation unless `--oracle` is given.

use bf_analyze::Severity;
use bf_serve::{AliasUpdate, ModelBundle, PredictServer, Registry, ServeConfig};
use blackforest::collect::CollectOptions;
use blackforest::model::ModelConfig;
use blackforest::{BlackForest, SplitStrategy, Workload};
use gpu_sim::GpuConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
blackforest - bottleneck analysis and performance prediction for GPU kernels

USAGE:
    blackforest <COMMAND> [OPTIONS]

COMMANDS:
    gpus                         list GPU presets
    counters [--gpu NAME]        list hardware performance counters
    collect  --workload W [--gpu NAME] [--out FILE] [--quick]
    analyze  --workload W [--gpu NAME] [--quick]
    train    --workload W --save BUNDLE.json [--gpu NAME] [--quick]
    serve    --model BUNDLE.json [--shadow BUNDLE.json] [--admin]
             [--addr HOST:PORT] [--threads N] [--cache-size N]
             [--max-queue N] [--batch-window USEC]
    models   [--addr HOST:PORT]  query a running server's model registry
    predict  --size N (--model BUNDLE.json | --workload W) [--gpu NAME] [--quick]
    hwscale  --workload W [--target NAME] [--quick] [--out FILE]
    lint     --workload W [--gpu NAME] [--format text|json] [--oracle]
             [--blocks] [--what-if --model BUNDLE.json]
             [--fail-on SEV] [--out FILE] [--quick]

    Every command also accepts --timing and --trace-out FILE.

WORKLOADS:
    reduce0..reduce6, matmul, nw, stencil

OPTIONS:
    --gpu NAME      gtx580 (default) or any zoo preset: gtx480, gtx680,
                    k20m, gtx750ti, gtx980, gtx1080, p100, titanv, v100
    --target NAME   hwscale prints only this held-out target's rows (the
                    sweep itself always holds out every zoo GPU in turn)
    --out FILE      output path (collect: CSV; train: alias of --save)
    --save FILE     where train writes the model bundle (versioned JSON)
    --size N        problem size to predict (predict)
    --model FILE    a bundle from `train --save`: predict answers offline
                    from it (no re-profiling), serve exposes it over HTTP
    --shadow FILE   serve also loads this bundle as the shadow of the
                    default alias: every /predict is asynchronously
                    replayed against it off the hot path, and the paired
                    predictions feed the divergence report at
                    GET /v1/models/shadow/report (and bf_shadow_* metrics)
    --admin         serve enables the mutating admin API
                    (POST /v1/models/load|unload|alias); off by default
    --addr H:P      serve listen address (default 127.0.0.1:7878);
                    for models: the server to query
    --cache-size N  serve prediction-LRU capacity in entries (default 4096)
    --max-queue N   serve admission bound on in-flight predictions; excess
                    concurrent requests get 429 + Retry-After (default 1024)
    --batch-window USEC  how long the event-loop workers wait to coalesce
                    concurrent predictions into one forest batch, in
                    microseconds (default 0: no artificial delay, batches
                    grow naturally with backlog)
    --quick         smaller sweep and forest (faster)
    --format F      lint output format: text (default) or json
    --oracle        lint also diffs static predictions against the dynamic
                    simulator (differential oracle; costs one simulation
                    per launch, divergence is a BF-E002 error)
    --blocks        lint attributes counters to basic blocks: warnings get
                    block-level spans ranked by attributed cost, the report
                    gains a hot-block table and a conservation check
                    (violations are BF-E003 errors), and the JSON schema
                    moves to version 2
    --what-if       lint prices each applicable fix (conflict-free shared
                    offsets, coalesced global addresses, converged
                    branches) through the --model bundle and ranks fixes
                    by predicted time saved; requires --model
    --fail-on SEV   lowest severity that makes lint exit non-zero:
                    info, warning, or error (default). Errors always fail.
    --static-features   collect also appends static_* predictor columns
                    (occupancy, conflict degree, coalescing, intensity)
    --split-strategy S   forest split search: histogram (default) or exact
    --max-bins N    histogram bin ceiling per feature, 2..=65536 (default 256)
    --threads N     worker threads: simulation workers during collection,
                    prediction workers for serve (default: all cores)
    --no-sim-cache  disable the launch-memoization cache (always re-simulate)
    --sim-cache-dir D   persist simulated launch results in directory D and
                    reuse them across runs (D may be `auto` for
                    ~/.cache/blackforest/simcache); shorthand for the
                    BF_SIM_CACHE_DIR environment variable
    --timing        print a per-phase timing summary (span count/total/
                    mean/max plus counters) after the command finishes
    --trace-out F   write a Chrome-tracing JSON trace of the run to F
                    (open in chrome://tracing or https://ui.perfetto.dev)

SERVING:
    train writes a self-contained model bundle (forest + counter models +
    GPU fingerprint + sweep metadata). serve fronts a hot-reloadable model
    registry with it: POST /predict (the `default` alias), per-model
    POST /v1/models/{id-or-alias}/predict, GET /v1/models, GET /bottleneck,
    GET /healthz, GET /readyz, and GET /metrics; predictions are
    bit-identical to the in-process chain. With --admin, bundles can be
    loaded and aliases swapped at runtime with zero downtime. Example:

        blackforest train --workload reduce1 --quick --save reduce1.json
        blackforest serve --model reduce1.json --addr 127.0.0.1:7878 &
        curl -s -X POST 127.0.0.1:7878/predict -d '{\"size\": 65536}'
        curl -s -X POST 127.0.0.1:7878/predict \\
             -d '[{\"size\": 65536}, {\"size\": 131072}]'
        blackforest models --addr 127.0.0.1:7878

    POST /predict also accepts a JSON array and answers with an array of
    predictions in the same order (one HTTP round-trip, one forest pass).

Launch simulation is deterministic: --threads, --no-sim-cache, and
--sim-cache-dir change wall-clock time only, never a collected value.
During collection the flags are shorthands for the RAYON_NUM_THREADS,
BF_SIM_CACHE=0, and BF_SIM_CACHE_DIR environment variables.
";

struct Args {
    command: String,
    workload: Option<String>,
    gpu: String,
    out: Option<PathBuf>,
    save: Option<PathBuf>,
    model: Option<PathBuf>,
    shadow: Option<PathBuf>,
    admin: bool,
    size: Option<f64>,
    target: Option<String>,
    addr: Option<String>,
    cache_size: Option<usize>,
    max_queue: Option<usize>,
    batch_window_us: Option<u64>,
    quick: bool,
    split_strategy: Option<String>,
    max_bins: Option<usize>,
    threads: Option<usize>,
    no_sim_cache: bool,
    sim_cache_dir: Option<String>,
    format: Option<String>,
    oracle: bool,
    blocks: bool,
    what_if: bool,
    fail_on: Option<String>,
    static_features: bool,
    timing: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    /// Resolves `--split-strategy`/`--max-bins` into a forest strategy.
    fn split_strategy(&self) -> Result<SplitStrategy, String> {
        match self.split_strategy.as_deref() {
            None | Some("histogram") => Ok(SplitStrategy::Histogram {
                max_bins: self.max_bins.unwrap_or(256),
            }),
            Some("exact") => {
                if self.max_bins.is_some() {
                    return Err("--max-bins only applies to --split-strategy histogram".into());
                }
                Ok(SplitStrategy::Exact)
            }
            Some(other) => Err(format!(
                "unknown split strategy {other}; use histogram or exact"
            )),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or("missing command")?,
        workload: None,
        gpu: "gtx580".into(),
        out: None,
        save: None,
        model: None,
        shadow: None,
        admin: false,
        size: None,
        target: None,
        addr: None,
        cache_size: None,
        max_queue: None,
        batch_window_us: None,
        quick: false,
        split_strategy: None,
        max_bins: None,
        threads: None,
        no_sim_cache: false,
        sim_cache_dir: None,
        format: None,
        oracle: false,
        blocks: false,
        what_if: false,
        fail_on: None,
        static_features: false,
        timing: false,
        trace_out: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload needs a value")?.clone())
            }
            "--gpu" => args.gpu = it.next().ok_or("--gpu needs a value")?.clone(),
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--save" => args.save = Some(PathBuf::from(it.next().ok_or("--save needs a value")?)),
            "--addr" => args.addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--cache-size" => {
                let n: usize = it
                    .next()
                    .ok_or("--cache-size needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cache-size: {e}"))?;
                if n == 0 {
                    return Err("--cache-size must be at least 1".into());
                }
                args.cache_size = Some(n);
            }
            "--max-queue" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-queue needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-queue: {e}"))?;
                if n == 0 {
                    return Err("--max-queue must be at least 1".into());
                }
                args.max_queue = Some(n);
            }
            "--batch-window" => {
                args.batch_window_us = Some(
                    it.next()
                        .ok_or("--batch-window needs a value (microseconds)")?
                        .parse()
                        .map_err(|e| format!("bad --batch-window: {e}"))?,
                )
            }
            "--model" => {
                args.model = Some(PathBuf::from(it.next().ok_or("--model needs a value")?))
            }
            "--shadow" => {
                args.shadow = Some(PathBuf::from(it.next().ok_or("--shadow needs a value")?))
            }
            "--admin" => args.admin = true,
            "--target" => args.target = Some(it.next().ok_or("--target needs a value")?.clone()),
            "--size" => {
                args.size = Some(
                    it.next()
                        .ok_or("--size needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --size: {e}"))?,
                )
            }
            "--quick" => args.quick = true,
            "--split-strategy" => {
                args.split_strategy =
                    Some(it.next().ok_or("--split-strategy needs a value")?.clone())
            }
            "--max-bins" => {
                args.max_bins = Some(
                    it.next()
                        .ok_or("--max-bins needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --max-bins: {e}"))?,
                )
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--no-sim-cache" => args.no_sim_cache = true,
            "--sim-cache-dir" => {
                args.sim_cache_dir = Some(it.next().ok_or("--sim-cache-dir needs a value")?.clone())
            }
            "--format" => args.format = Some(it.next().ok_or("--format needs a value")?.clone()),
            "--oracle" => args.oracle = true,
            "--blocks" => args.blocks = true,
            "--what-if" => args.what_if = true,
            "--fail-on" => args.fail_on = Some(it.next().ok_or("--fail-on needs a value")?.clone()),
            "--static-features" => args.static_features = true,
            "--timing" => args.timing = true,
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a value")?))
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

// Every artifact writer (`collect --out`, `analyze --out`, `train --save`,
// `lint --out`, `--trace-out`) routes through the shared helper so a typo'd
// directory fails with a clear message *before* minutes of simulation, not
// with a bare OS error after them. The helper lives in the core crate so
// the benchmark bins and the server share the same behaviour.
use blackforest::artifact::{resolve_out_path, write_artifact};

fn gpu_by_name(name: &str) -> Result<GpuConfig, String> {
    GpuConfig::by_name(name).ok_or_else(|| format!("unknown GPU {name}; try `blackforest gpus`"))
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))
}

/// Loads a bundle, rendering loader failures as CLI errors (missing file,
/// not-a-bundle, version mismatch each get their own message; all exit
/// non-zero).
fn load_bundle(path: &Path) -> Result<ModelBundle, String> {
    ModelBundle::load(path).map_err(|e| format!("--model {}: {e}", path.display()))
}

/// A one-shot HTTP GET against a BlackForest server (`models` subcommand).
/// `Connection: close` keeps the read loop trivial: everything after the
/// header block is the body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let sock_addr = bf_serve::parse_addr(addr)?;
    let mut stream =
        std::net::TcpStream::connect_timeout(&sock_addr, std::time::Duration::from_secs(5))
            .map_err(|e| format!("cannot connect to {addr}: {e} (is the server running?)"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading answer from {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP answer from {addr}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed HTTP status line from {addr}"))?;
    if status != 200 {
        return Err(format!("{addr}{path} answered {status}: {}", body.trim()));
    }
    Ok(body.to_string())
}

/// Default sweep of the primary problem characteristic per workload.
fn default_sizes(workload: Workload, quick: bool) -> Vec<usize> {
    match workload {
        Workload::Reduce(_) => {
            let hi = if quick { 18 } else { 21 };
            (14..=hi).map(|e| 1usize << e).collect()
        }
        Workload::MatMul => {
            let hi = if quick { 24 } else { 40 };
            (2..=hi).step_by(2).map(|k| k * 16).collect()
        }
        Workload::Nw => {
            let hi = if quick { 16 } else { 64 };
            (1..=hi).map(|k| k * 64).collect()
        }
        Workload::Stencil => {
            let hi = if quick { 16 } else { 48 };
            (2..=hi).step_by(2).map(|k| k * 16).collect()
        }
    }
}

fn toolchain(args: &Args) -> Result<BlackForest, String> {
    let gpu = gpu_by_name(&args.gpu)?;
    let split_strategy = args.split_strategy()?;
    let mut bf = BlackForest::new(gpu);
    bf.collect = CollectOptions::default().with_repetitions(3, 0.02);
    if args.quick {
        bf = bf.with_config(ModelConfig {
            split_strategy,
            ..ModelConfig::quick(2016)
        });
        bf.collect = CollectOptions::default();
    } else {
        bf = bf.with_config(ModelConfig {
            seed: 2016,
            split_strategy,
            ..ModelConfig::default()
        });
    }
    Ok(bf)
}

/// The static span name a command runs under when tracing is on (span
/// names aggregate by pointer-free `&'static str`, so the dynamic command
/// string maps onto a fixed vocabulary).
fn command_span_name(command: &str) -> &'static str {
    match command {
        "gpus" => "gpus",
        "counters" => "counters",
        "collect" => "collect_cmd",
        "analyze" => "analyze_cmd",
        "train" => "train",
        "serve" => "serve",
        "models" => "models",
        "predict" => "predict_cmd",
        "hwscale" => "hwscale",
        "lint" => "lint",
        _ => "command",
    }
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(&argv)?;
    // The simulator reads these per collection pass, so setting them here
    // (before any profiling starts) covers every subcommand.
    if let Some(n) = args.threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    if args.no_sim_cache {
        std::env::set_var("BF_SIM_CACHE", "0");
    }
    if let Some(dir) = &args.sim_cache_dir {
        std::env::set_var("BF_SIM_CACHE_DIR", dir);
    }
    if !args.timing && args.trace_out.is_none() {
        return run_command(&args);
    }
    // Validate the trace destination before the (possibly long) run.
    let trace_out = args
        .trace_out
        .as_deref()
        .map(resolve_out_path)
        .transpose()?;
    bf_trace::enable();
    let result = {
        let _top = bf_trace::Span::enter(command_span_name(&args.command));
        run_command(&args)
    };
    bf_trace::disable();
    let trace = bf_trace::drain();
    if args.timing {
        print!("{}", trace.summary_table());
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, trace.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans written to {} (open in chrome://tracing)",
            trace.spans.len(),
            path.display()
        );
    }
    result
}

fn run_command(args: &Args) -> Result<ExitCode, String> {
    match args.command.as_str() {
        "gpus" => {
            for gpu in GpuConfig::presets() {
                println!(
                    "{:<8} {:?}: {} SMs x {} cores @ {} GHz, {} GB/s",
                    gpu.name,
                    gpu.arch,
                    gpu.num_sms,
                    gpu.cores_per_sm,
                    gpu.clock_ghz,
                    gpu.mem_bandwidth_gbps
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "counters" => {
            let gpu = gpu_by_name(&args.gpu)?;
            for name in gpu_sim::counters::counters_for(gpu.arch) {
                let info = gpu_sim::counters::counter_info(name).unwrap();
                println!("{:<28} {}", info.name, info.meaning);
            }
            Ok(ExitCode::SUCCESS)
        }
        "collect" => {
            let workload =
                workload_by_name(args.workload.as_deref().ok_or("collect needs --workload")?)?;
            let mut bf = toolchain(args)?;
            bf.collect.include_static_features = args.static_features;
            let sizes = default_sizes(workload, args.quick);
            let ds = bf.collect(workload, &sizes).map_err(|e| e.to_string())?;
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("{}_{}.csv", workload.name(), args.gpu)));
            let out = resolve_out_path(&out)?;
            ds.write_csv(&out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} runs x {} predictors to {}",
                ds.len(),
                ds.n_features(),
                out.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let workload =
                workload_by_name(args.workload.as_deref().ok_or("analyze needs --workload")?)?;
            let bf = toolchain(args)?;
            let sizes = default_sizes(workload, args.quick);
            let report = bf.analyze(workload, &sizes).map_err(|e| e.to_string())?;
            println!("{}", report.render());
            if let Some(out) = &args.out {
                let md = blackforest::markdown::analysis_markdown(&report);
                write_artifact(out, &md)?;
                println!("markdown report written to {}", out.display());
            }
            Ok(ExitCode::SUCCESS)
        }
        "train" => {
            let workload =
                workload_by_name(args.workload.as_deref().ok_or("train needs --workload")?)?;
            let save = args
                .save
                .clone()
                .or_else(|| args.out.clone())
                .ok_or("train needs --save BUNDLE.json")?;
            let save = resolve_out_path(&save)?;
            let gpu = gpu_by_name(&args.gpu)?;
            let bf = toolchain(args)?;
            let sizes = default_sizes(workload, args.quick);
            let report = bf.analyze(workload, &sizes).map_err(|e| e.to_string())?;
            let bundle = ModelBundle::from_report(&report, &gpu, &sizes, args.quick);
            {
                let _span = bf_trace::span!("save_bundle");
                bundle.save(&save).map_err(|e| e.to_string())?;
            }
            println!(
                "trained {} on {} ({} runs, {} features); bundle v{} ({:016x}) written to {}",
                workload.name(),
                args.gpu,
                report.dataset.len(),
                report.dataset.n_features(),
                bundle.schema_version,
                bundle.content_id(),
                save.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let path = args
                .model
                .clone()
                .ok_or("serve needs --model BUNDLE.json")?;
            let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".into());
            // Validate eagerly so a bad --addr fails before we advertise.
            bf_serve::parse_addr(&addr)?;
            let config = ServeConfig {
                threads: args.threads.unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }),
                cache_capacity: args.cache_size.unwrap_or(4096),
                max_queue: args.max_queue.unwrap_or(1024),
                batch_window: std::time::Duration::from_micros(args.batch_window_us.unwrap_or(0)),
                admin: args.admin,
                ..ServeConfig::default()
            };
            // Load + publish through a registry so --shadow can attach to
            // the default alias before the socket starts answering.
            let registry = std::sync::Arc::new(Registry::new());
            let id = registry
                .load_path(&path)
                .map_err(|e| format!("--model {}: {e}", path.display()))?;
            registry
                .set_alias(AliasUpdate {
                    alias: "default".into(),
                    id: Some(id),
                    create: true,
                    ..AliasUpdate::default()
                })
                .map_err(|e| e.to_string())?;
            let shadow_id = match &args.shadow {
                Some(shadow_path) => {
                    let sid = registry
                        .load_path(shadow_path)
                        .map_err(|e| format!("--shadow {}: {e}", shadow_path.display()))?;
                    registry
                        .set_alias(AliasUpdate {
                            alias: "default".into(),
                            shadow: Some(sid),
                            ..AliasUpdate::default()
                        })
                        .map_err(|e| format!("--shadow {}: {e}", shadow_path.display()))?;
                    Some(sid)
                }
                None => None,
            };
            let resolved = registry.resolve("default").map_err(|e| e.to_string())?;
            let (workload_name, gpu_name) = (
                resolved.model.bundle.workload.clone(),
                resolved.model.bundle.gpu_name.clone(),
            );
            let server = PredictServer::bind_registry(&addr, registry, config.clone())?;
            let local = server.local_addr();
            println!(
                "serving {workload_name} ({gpu_name}) bundle {} ({:016x}) on http://{local}  \
                 [event-loop engine, {} workers, cache {}, queue {}{}]",
                path.display(),
                id,
                config.threads,
                config.cache_capacity,
                config.max_queue,
                if config.admin { ", admin" } else { "" }
            );
            if let Some(sid) = shadow_id {
                println!(
                    "shadow: {} ({sid:016x}) replaying every default-alias prediction; \
                     report at GET /v1/models/shadow/report",
                    args.shadow.as_ref().unwrap().display()
                );
            }
            println!(
                "routes: POST /predict, POST /v1/models/{{id-or-alias}}/predict, \
                 GET /v1/models, GET /bottleneck, GET /healthz, GET /readyz, GET /metrics{}",
                if config.admin {
                    ", POST /v1/models/load|unload|alias"
                } else {
                    ""
                }
            );
            // Warm-start the persistent simulation cache (if configured) so
            // the index is loaded before the first request needs it.
            if let Some(disk) = gpu_sim::diskcache::from_env() {
                println!(
                    "sim disk cache: {} entries at {}",
                    disk.len(),
                    disk.path().display()
                );
            }
            server.run();
            Ok(ExitCode::SUCCESS)
        }
        "models" => {
            let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".into());
            let body = http_get(&addr, "/v1/models")?;
            let report: bf_serve::ModelsReport = serde_json::from_str(&body)
                .map_err(|e| format!("unexpected /v1/models answer from {addr}: {e}"))?;
            println!("registry at http://{addr} (epoch {})", report.epoch);
            println!("models:");
            for m in &report.models {
                println!(
                    "  {}  {:<8} {:<8} {:>3} trees  {:>8} reqs  {}",
                    m.id,
                    m.workload,
                    m.gpu,
                    m.trees,
                    m.served_requests,
                    m.source.as_deref().unwrap_or("-"),
                );
            }
            println!("aliases:");
            for a in &report.aliases {
                let mut extras = String::new();
                if let Some(split) = &a.split {
                    extras.push_str(&format!(
                        "  split {}% -> {}",
                        split.percent,
                        a.split_secondary.as_deref().unwrap_or("?")
                    ));
                }
                if let Some(shadow) = &a.shadow {
                    extras.push_str(&format!("  shadow {shadow}"));
                }
                println!("  {:<12} -> {}{extras}", a.alias, a.primary);
            }
            if !report.draining.is_empty() {
                println!("draining:");
                for d in &report.draining {
                    println!("  {}  {} live refs", d.id, d.refs);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "predict" => {
            let size = args.size.ok_or("predict needs --size")?;
            let (bundle, label) = match &args.model {
                Some(path) => {
                    let bundle = load_bundle(path)?;
                    if let Some(w) = args.workload.as_deref() {
                        let requested = workload_by_name(w)?;
                        if bundle.workload() != Some(requested) {
                            return Err(format!(
                                "--model {} was trained for workload {}, not {w}",
                                path.display(),
                                bundle.workload
                            ));
                        }
                    }
                    let label = format!("{} on {}", bundle.workload, bundle.gpu_name);
                    (bundle, label)
                }
                None => {
                    let workload = workload_by_name(
                        args.workload
                            .as_deref()
                            .ok_or("predict needs --workload (or --model)")?,
                    )?;
                    let bf = toolchain(args)?;
                    let sizes = default_sizes(workload, args.quick);
                    let report = bf.analyze(workload, &sizes).map_err(|e| e.to_string())?;
                    let bundle = ModelBundle::from_report(&report, &bf.gpu, &sizes, args.quick);
                    (bundle, format!("{} on {}", workload.name(), args.gpu))
                }
            };
            let chars = bundle.characteristics_for(size, None, None)?;
            let t = bundle.predict(&chars)?.predicted_ms;
            println!("{label}, size {size}: predicted execution time {t:.4} ms");
            Ok(ExitCode::SUCCESS)
        }
        "hwscale" => {
            let workload =
                workload_by_name(args.workload.as_deref().ok_or("hwscale needs --workload")?)?;
            if let Some(t) = &args.target {
                gpu_by_name(t)?;
            }
            let zoo = GpuConfig::presets();
            let sizes = default_sizes(workload, args.quick);
            let cfg = if args.quick {
                ModelConfig {
                    split_strategy: args.split_strategy()?,
                    ..ModelConfig::quick(2016)
                }
            } else {
                ModelConfig {
                    seed: 2016,
                    split_strategy: args.split_strategy()?,
                    ..ModelConfig::default()
                }
            };
            let report = blackforest::hwscale::sweep_scopes(
                workload,
                &sizes,
                &zoo,
                &cfg,
                blackforest::predict::HwFeatureStrategy::MixedImportance,
            )
            .map_err(|e| e.to_string())?;
            println!(
                "hardware-scaling scope sweep: {} across {} GPUs, {} architectures",
                report.workload,
                report.zoo.len(),
                report.architectures.len()
            );
            println!();
            print!("{}", blackforest::hwscale::curve_table(&report));
            println!();
            println!(
                "{:<16} {:<10} {:<9} {:>8} {:>8} {:>8}  sources",
                "scope", "target", "arch", "MAPE%", "R2", "overlap"
            );
            for e in report.evaluations.iter().filter(|e| {
                args.target
                    .as_deref()
                    .is_none_or(|t| e.target.eq_ignore_ascii_case(t))
            }) {
                println!(
                    "{:<16} {:<10} {:<9} {:>8.2} {:>8.3} {:>8.2}  {}",
                    e.scope,
                    e.target,
                    e.target_arch,
                    e.mape,
                    e.r_squared,
                    e.similarity,
                    e.sources.join(",")
                );
            }
            if let Some(out) = &args.out {
                let json = serde_json::to_string_pretty(&report)
                    .map_err(|e| format!("serialize hwscale report: {e}"))?;
                write_artifact(out, &json)?;
                println!("\nwrote {}", out.display());
            }
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            let workload = args.workload.as_deref().ok_or("lint needs --workload")?;
            let gpu = gpu_by_name(&args.gpu)?;
            let fail_on = match args.fail_on.as_deref() {
                None => Severity::Error,
                Some(s) => Severity::parse(s)
                    .ok_or_else(|| format!("bad --fail-on {s}; use info, warning, or error"))?,
            };
            // What-if pricing needs a trained bundle; load and check it
            // against the linted workload before any analysis runs.
            let bundle = if args.what_if {
                let path = args
                    .model
                    .as_deref()
                    .ok_or("lint --what-if needs --model BUNDLE.json")?;
                let bundle = load_bundle(path)?;
                let requested = workload_by_name(workload)?;
                if bundle.workload() != Some(requested) {
                    return Err(format!(
                        "--model {} was trained for workload {}, not {workload}",
                        path.display(),
                        bundle.workload
                    ));
                }
                Some(bundle)
            } else {
                None
            };
            let cfg = bf_analyze::LintConfig {
                quick: args.quick,
                oracle: args.oracle,
                blocks: args.blocks,
                what_if: bundle.as_ref().map(|b| b as &dyn bf_analyze::WhatIfModel),
            };
            let report = bf_analyze::lint_workload_with(&gpu, workload, &cfg).ok_or_else(|| {
                format!(
                    "unknown lint workload {workload}; one of: {}",
                    bf_analyze::WORKLOADS.join(", ")
                )
            })?;
            let rendered = match args.format.as_deref() {
                None | Some("text") => bf_analyze::render_text(&report),
                Some("json") => report.to_json(),
                Some(other) => return Err(format!("unknown format {other}; use text or json")),
            };
            match &args.out {
                Some(path) => {
                    write_artifact(path, &rendered)?;
                    println!(
                        "lint report written to {} ({} errors, {} warnings, {} notes)",
                        path.display(),
                        report.summary.errors,
                        report.summary.warnings,
                        report.summary.info
                    );
                }
                None => print!("{rendered}"),
            }
            // Exit-code contract (documented in DESIGN.md): 3 for errors,
            // 2 when --fail-on pulls warnings/notes in, 0 otherwise; 1 is
            // reserved for usage/internal failures via main().
            Ok(match report.max_severity() {
                Some(Severity::Error) => ExitCode::from(3),
                Some(sev) if sev >= fail_on => ExitCode::from(2),
                _ => ExitCode::SUCCESS,
            })
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_out_path_accepts_cwd_relative_files() {
        assert_eq!(
            resolve_out_path(Path::new("report.json")).unwrap(),
            PathBuf::from("report.json")
        );
    }

    #[test]
    fn resolve_out_path_accepts_existing_directories() {
        let dir = std::env::temp_dir();
        let path = dir.join("bf_cli_resolve_ok.json");
        assert_eq!(resolve_out_path(&path).unwrap(), path);
    }

    #[test]
    fn resolve_out_path_rejects_missing_parent_with_clear_error() {
        let path = Path::new("/definitely/not/a/real/dir/out.json");
        let err = resolve_out_path(path).unwrap_err();
        assert!(
            err.contains("does not exist") && err.contains("/definitely/not/a/real/dir"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn resolve_out_path_rejects_directory_targets() {
        let err = resolve_out_path(&std::env::temp_dir()).unwrap_err();
        assert!(err.contains("is a directory"), "unhelpful error: {err}");
    }

    #[test]
    fn resolve_out_path_rejects_file_as_parent() {
        let file = std::env::temp_dir().join("bf_cli_parent_probe.txt");
        std::fs::write(&file, "x").unwrap();
        let err = resolve_out_path(&file.join("child.json")).unwrap_err();
        assert!(err.contains("not a directory"), "unhelpful error: {err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn parse_args_reads_tracing_flags() {
        let argv: Vec<String> = ["train", "--timing", "--trace-out", "t.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse_args(&argv).unwrap();
        assert!(args.timing);
        assert_eq!(args.trace_out.as_deref(), Some(Path::new("t.json")));
        assert_eq!(command_span_name(&args.command), "train");
    }

    #[test]
    fn trace_out_requires_a_value() {
        let argv: Vec<String> = ["train", "--trace-out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&argv).is_err());
    }
}
