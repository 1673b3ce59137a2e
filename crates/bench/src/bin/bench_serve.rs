//! Serving load benchmark: the event loop measured with closed-loop,
//! open-loop, and batched-body clients against real loopback sockets.
//!
//! Three scenarios run in-process on an ephemeral port:
//!
//! * **closed** — C concurrent clients, each issuing its next request only
//!   after the previous response, over persistent keep-alive connections
//!   (classic closed loop at production concurrency, C well above the
//!   worker count).
//! * **open** — one connection fed at a fixed arrival rate with pipelined
//!   writes, responses drained by a separate reader (open loop; latencies
//!   include queueing delay, immune to coordinated omission).
//! * **batch** — closed loop whose bodies are JSON arrays of B queries
//!   (one HTTP round-trip, one coalesced forest pass per request).
//!
//! Queries cycle through many more distinct characteristic vectors than the
//! prediction LRU holds, so the forest does real work on nearly every
//! request instead of the benchmark degenerating into a cache-hit echo
//! test. Results (throughput, p50/p99/p999, error counts, mean forest batch
//! rows) go to `BENCH_serve.json`; the run fails if any scenario sees a
//! transport error or a non-200 reply. `--quick` / `BF_QUICK=1` shrinks the
//! request counts; `--out FILE` redirects the artifact; `--model
//! BUNDLE.json` benchmarks an existing bundle instead of training a quick
//! one.
//!
//! A fourth section exercises the model registry: the same closed-loop
//! load in steady state, during continuous live `default` promotions
//! between two bundles (reload under load), and with a shadow model
//! replaying every request. Gates: zero errors in all three, at least one
//! promotion and one replay, and shadow p99 within noise of steady state
//! (the replay must stay off the hot path).

use bf_serve::{AliasUpdate, ModelBundle, PredictServer, Registry, ServeConfig, ServerHandle};
use blackforest::artifact::write_artifact;
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinct characteristic vectors the clients cycle through. Much larger
/// than `CACHE_CAPACITY` so most requests miss the LRU and hit the forest.
const QUERY_POOL: usize = 256;
const CACHE_CAPACITY: usize = 16;
/// Server prediction worker threads.
const SERVER_THREADS: usize = 4;
/// Closed-loop concurrency — deliberately well above `SERVER_THREADS`.
const CLOSED_CLIENTS: usize = 32;
/// Batch-scenario concurrency.
const BATCH_CLIENTS: usize = 4;
const BATCH_ROWS: usize = 16;

#[derive(Debug, Serialize)]
struct Scenario {
    scenario: String,
    requests: u64,
    rows: u64,
    transport_errors: u64,
    non_200: u64,
    elapsed_seconds: f64,
    throughput_rps: f64,
    rows_per_second: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

/// The registry scenarios: the same closed-loop load in steady state, with
/// `default` hot-swapped between two bundles mid-flight, and with a shadow
/// model replaying every request off the hot path.
#[derive(Debug, Serialize)]
struct RegistryReport {
    /// Live alias promotions performed during the reload scenario.
    swaps: u64,
    steady: Scenario,
    reload: Scenario,
    shadow: Scenario,
    /// Reload p99 / steady p99 — swap cost visible to clients.
    reload_p99_ratio: f64,
    /// Shadow p99 / steady p99 — gated: shadow must be off the hot path.
    shadow_p99_ratio: f64,
    /// Requests the shadow engine actually replayed.
    shadow_replayed_requests: u64,
    shadow_mean_rel_delta: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    quick: bool,
    query_pool: usize,
    cache_capacity: usize,
    server_threads: usize,
    closed_clients: usize,
    batch_rows: usize,
    open_loop_rate_rps: f64,
    /// Mean rows per forest pass, from the server's own batch histogram —
    /// >1 means micro-batching actually coalesced.
    mean_forest_batch_rows: f64,
    queue_rejections: u64,
    scenarios: Vec<Scenario>,
    registry: RegistryReport,
}

struct Load {
    closed_requests: u64,
    open_requests: u64,
    open_rate_rps: f64,
    batch_requests: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn body_for(query: usize) -> String {
    // [size, threads-per-block] characteristic pairs over a wide range.
    let size = 1024.0 + (query % QUERY_POOL) as f64 * 97.0;
    let threads = [32.0, 64.0, 128.0, 256.0][query % 4];
    format!("{{\"characteristics\": [{size}, {threads}]}}")
}

fn batch_body_for(query: usize) -> String {
    let items: Vec<String> = (0..BATCH_ROWS)
        .map(|k| {
            let size = 1024.0 + ((query * BATCH_ROWS + k) % QUERY_POOL) as f64 * 97.0;
            let threads = [32.0, 64.0, 128.0, 256.0][(query + k) % 4];
            format!("{{\"characteristics\": [{size}, {threads}]}}")
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response off a keep-alive connection; returns its status.
/// `Err` is a transport failure (short read, closed connection, bad frame).
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<u16, String> {
    let mut status = None;
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        if line == "\r\n" {
            break;
        }
        if status.is_none() {
            status = line.split_whitespace().nth(1).and_then(|v| v.parse().ok());
        }
        if let Some(rest) = line.strip_prefix("Content-Length: ") {
            length = rest.trim().parse().map_err(|_| "bad Content-Length")?;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    status.ok_or_else(|| "malformed status line".into())
}

struct Tally {
    latencies_us: Vec<u64>,
    transport_errors: u64,
    non_200: u64,
}

/// Closed loop: each client thread waits for its response before sending
/// the next request over its keep-alive connection.
fn run_closed(addr: SocketAddr, clients: usize, per_client: u64, batched: bool) -> Tally {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut tally = Tally {
                    latencies_us: Vec::with_capacity(per_client as usize),
                    transport_errors: 0,
                    non_200: 0,
                };
                let (mut writer, mut reader) = match TcpStream::connect(addr) {
                    Ok(stream) => {
                        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                        let writer = stream.try_clone().expect("clone stream");
                        (writer, BufReader::new(stream))
                    }
                    Err(_) => {
                        tally.transport_errors += per_client;
                        return tally;
                    }
                };
                for i in 0..per_client {
                    let query = c + i as usize * clients;
                    let body = if batched {
                        batch_body_for(query)
                    } else {
                        body_for(query)
                    };
                    let t0 = Instant::now();
                    let outcome = if writer.write_all(&request_bytes(&body)).is_err() {
                        Err("write failed".to_string())
                    } else {
                        read_response(&mut reader)
                    };
                    match outcome {
                        Ok(200) => tally.latencies_us.push(t0.elapsed().as_micros() as u64),
                        Ok(_) => tally.non_200 += 1,
                        Err(_) => {
                            tally.transport_errors += 1;
                            break; // the keep-alive stream is unusable now
                        }
                    }
                }
                tally
            })
        })
        .collect();
    let mut total = Tally {
        latencies_us: Vec::new(),
        transport_errors: 0,
        non_200: 0,
    };
    for h in handles {
        let t = h.join().expect("client thread");
        total.latencies_us.extend(t.latencies_us);
        total.transport_errors += t.transport_errors;
        total.non_200 += t.non_200;
    }
    total
}

/// Open loop: a writer pipelines requests at a fixed arrival rate on one
/// connection; a reader drains responses in order and measures latency
/// from the *scheduled* send time (no coordinated omission).
fn run_open(addr: SocketAddr, requests: u64, rate_rps: f64) -> Tally {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let sends: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));

    let reader_sends = Arc::clone(&sends);
    let reader_handle = std::thread::spawn(move || {
        let mut tally = Tally {
            latencies_us: Vec::with_capacity(requests as usize),
            transport_errors: 0,
            non_200: 0,
        };
        for _ in 0..requests {
            let sent = loop {
                // The writer enqueues the timestamp before the bytes, so a
                // response can never beat its own send record.
                match reader_sends.lock().unwrap().pop_front() {
                    Some(t) => break t,
                    None => std::thread::sleep(Duration::from_micros(50)),
                }
            };
            match read_response(&mut reader) {
                Ok(200) => tally.latencies_us.push(sent.elapsed().as_micros() as u64),
                Ok(_) => tally.non_200 += 1,
                Err(_) => {
                    tally.transport_errors += requests - tally.latencies_us.len() as u64;
                    break;
                }
            }
        }
        tally
    });

    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let start = Instant::now();
    for i in 0..requests {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        sends.lock().unwrap().push_back(due.max(now));
        if writer
            .write_all(&request_bytes(&body_for(i as usize)))
            .is_err()
        {
            break;
        }
    }
    reader_handle.join().expect("reader thread")
}

fn scrape_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("write metrics request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read metrics");
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

fn metric(text: &str, needle: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn summarize(
    scenario: &str,
    rows_per_request: u64,
    elapsed: Duration,
    mut tally: Tally,
) -> Scenario {
    tally.latencies_us.sort_unstable();
    let requests = tally.latencies_us.len() as u64;
    let elapsed_seconds = elapsed.as_secs_f64().max(1e-9);
    let throughput_rps = requests as f64 / elapsed_seconds;
    Scenario {
        scenario: scenario.to_string(),
        requests,
        rows: requests * rows_per_request,
        transport_errors: tally.transport_errors,
        non_200: tally.non_200,
        elapsed_seconds,
        throughput_rps,
        rows_per_second: throughput_rps * rows_per_request as f64,
        p50_us: percentile(&tally.latencies_us, 0.50),
        p99_us: percentile(&tally.latencies_us, 0.99),
        p999_us: percentile(&tally.latencies_us, 0.999),
        max_us: tally.latencies_us.last().copied().unwrap_or(0),
    }
}

/// Runs the closed, open and batch scenarios against one server. Returns
/// the scenarios plus the server's mean forest batch rows and queue
/// rejections, scraped from `/metrics`.
fn bench_engine(bundle: &ModelBundle, load: &Load) -> (Vec<Scenario>, f64, u64) {
    let server = PredictServer::bind(
        "127.0.0.1:0",
        bundle.clone(),
        ServeConfig {
            threads: SERVER_THREADS,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        },
    )
    .expect("bind benchmark server");
    let (handle, join): (ServerHandle, _) = server.spawn();
    let addr = handle.addr();

    // Warm up sockets and code paths outside the measured window.
    run_closed(addr, 1, 20, false);

    let mut scenarios = Vec::new();
    let t0 = Instant::now();
    let per_client = load.closed_requests / CLOSED_CLIENTS as u64;
    let tally = run_closed(addr, CLOSED_CLIENTS, per_client, false);
    scenarios.push(summarize("closed", 1, t0.elapsed(), tally));

    let t0 = Instant::now();
    let tally = run_open(addr, load.open_requests, load.open_rate_rps);
    scenarios.push(summarize("open", 1, t0.elapsed(), tally));

    let t0 = Instant::now();
    let per_client = load.batch_requests / BATCH_CLIENTS as u64;
    let tally = run_closed(addr, BATCH_CLIENTS, per_client, true);
    scenarios.push(summarize("batch", BATCH_ROWS as u64, t0.elapsed(), tally));

    let metrics = scrape_metrics(addr);
    let batch_count = metric(&metrics, "bf_predict_batch_rows_count");
    let batch_sum = metric(&metrics, "bf_predict_batch_rows_sum");
    let mean_forest_batch_rows = if batch_count > 0 {
        batch_sum as f64 / batch_count as f64
    } else {
        0.0
    };
    let queue_rejections = metric(&metrics, "bf_queue_rejections_total");

    handle.stop();
    join.join().expect("server thread exits");

    for s in &scenarios {
        println!(
            "  {:>6}: {:>7} req  {:>9.1} req/s  {:>9.1} rows/s  \
             p50 {:>6}us  p99 {:>7}us  p99.9 {:>7}us  errors {}",
            s.scenario,
            s.requests,
            s.throughput_rps,
            s.rows_per_second,
            s.p50_us,
            s.p99_us,
            s.p999_us,
            s.transport_errors + s.non_200,
        );
    }
    (scenarios, mean_forest_batch_rows, queue_rejections)
}

/// Benchmarks the registry path: identical closed-loop
/// load in steady state, during continuous live alias promotion between
/// two bundles, and with a shadow model attached. Swaps go through the
/// same `set_alias` path the admin API uses.
fn bench_registry(a: &ModelBundle, b: &ModelBundle, load: &Load) -> RegistryReport {
    let registry = Arc::new(Registry::new());
    let id_a = registry.load_bundle(a.clone()).expect("load bundle a");
    let id_b = registry.load_bundle(b.clone()).expect("load bundle b");
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            create: true,
            ..AliasUpdate::default()
        })
        .expect("publish default");
    let server = PredictServer::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            threads: SERVER_THREADS,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        },
    )
    .expect("bind registry benchmark server");
    let (handle, join): (ServerHandle, _) = server.spawn();
    let addr = handle.addr();
    let per_client = (load.closed_requests / 2).max(CLOSED_CLIENTS as u64) / CLOSED_CLIENTS as u64;

    // Warm up sockets and both compiled forests outside the measured window.
    run_closed(addr, 1, 20, false);

    let t0 = Instant::now();
    let tally = run_closed(addr, CLOSED_CLIENTS, per_client, false);
    let steady = summarize("registry-steady", 1, t0.elapsed(), tally);

    // Reload under load: a swapper thread promotes `default` back and
    // forth for the whole measured window.
    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let id = if swaps.is_multiple_of(2) { id_b } else { id_a };
                registry
                    .set_alias(AliasUpdate {
                        alias: "default".into(),
                        id: Some(id),
                        ..AliasUpdate::default()
                    })
                    .expect("live promotion");
                swaps += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            swaps
        })
    };
    let t0 = Instant::now();
    let tally = run_closed(addr, CLOSED_CLIENTS, per_client, false);
    let reload = summarize("registry-reload", 1, t0.elapsed(), tally);
    stop.store(true, Ordering::Relaxed);
    let swaps = swapper.join().expect("swapper thread");

    // Shadow replay: pin default back to a, attach b as its shadow, and
    // re-run the steady load. The replay happens on the shadow thread;
    // the client-visible p99 must not move materially.
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            shadow: Some(id_b),
            ..AliasUpdate::default()
        })
        .expect("attach shadow");
    let t0 = Instant::now();
    let tally = run_closed(addr, CLOSED_CLIENTS, per_client, false);
    let shadow = summarize("registry-shadow", 1, t0.elapsed(), tally);
    let shadow_report = registry.shadow_report();

    handle.stop();
    join.join().expect("server thread exits");

    for s in [&steady, &reload, &shadow] {
        println!(
            "  {:>15}: {:>7} req  {:>9.1} req/s  p50 {:>6}us  p99 {:>7}us  errors {}",
            s.scenario,
            s.requests,
            s.throughput_rps,
            s.p50_us,
            s.p99_us,
            s.transport_errors + s.non_200,
        );
    }
    println!(
        "  {swaps} live promotions; shadow replayed {} requests (mean rel delta {:.4})",
        shadow_report.requests, shadow_report.mean_rel_delta
    );
    RegistryReport {
        swaps,
        reload_p99_ratio: reload.p99_us as f64 / steady.p99_us.max(1) as f64,
        shadow_p99_ratio: shadow.p99_us as f64 / steady.p99_us.max(1) as f64,
        steady,
        reload,
        shadow,
        shadow_replayed_requests: shadow_report.requests,
        shadow_mean_rel_delta: shadow_report.mean_rel_delta,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = bf_bench::quick_mode();
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut model: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(it.next().expect("--out needs a value")),
            "--model" => model = Some(PathBuf::from(it.next().expect("--model needs a value"))),
            other => panic!("unknown option {other}; usage: bench_serve [--quick] [--out FILE] [--model BUNDLE.json]"),
        }
    }

    bf_bench::banner("Bench", "Serving throughput/latency of the event loop");
    let train_quick = |seed: u64| -> ModelBundle {
        let gpu = GpuConfig::gtx580();
        let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(seed));
        let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
        let report = bf
            .analyze(
                Workload::Reduce(bf_kernels::reduce::ReduceVariant::Reduce1),
                &sizes,
            )
            .expect("train quick bundle");
        ModelBundle::from_report(&report, &gpu, &sizes, true)
    };
    // The registry scenarios hot-swap between two models, which must share
    // a characteristic schema and GPU fingerprint — so that pair is always
    // a freshly trained quick duo; --model only drives the closed, open
    // and batch scenarios.
    let (bundle, pair_a, pair_b) = match model {
        Some(path) => {
            let loaded = ModelBundle::load(&path).expect("load --model bundle");
            println!("training a quick reduce1 pair for the registry scenarios...");
            (loaded, train_quick(81), train_quick(82))
        }
        None => {
            println!("training a quick reduce1 pair for the benchmark...");
            let a = train_quick(81);
            let b = train_quick(82);
            (a.clone(), a, b)
        }
    };

    let load = if quick {
        Load {
            closed_requests: 800,
            open_requests: 400,
            open_rate_rps: 400.0,
            batch_requests: 200,
        }
    } else {
        Load {
            closed_requests: 8_000,
            open_requests: 4_000,
            open_rate_rps: 1_000.0,
            batch_requests: 1_000,
        }
    };

    let (scenarios, mean_forest_batch_rows, queue_rejections) = bench_engine(&bundle, &load);
    println!("registry scenarios:");
    let registry = bench_registry(&pair_a, &pair_b, &load);

    // Hard gates: a load test with transport errors or non-200 replies
    // measured a broken server.
    for s in &scenarios {
        assert_eq!(
            s.transport_errors, 0,
            "{}: transport errors under load",
            s.scenario
        );
        assert_eq!(s.non_200, 0, "{}: non-200 responses", s.scenario);
    }
    // Registry gates: hot reload and shadow replay must be invisible as
    // errors, the swapper must actually have swapped, the shadow must
    // actually have replayed — and shadowing must stay off the hot path:
    // its p99 may not exceed steady state beyond measurement noise.
    for s in [&registry.steady, &registry.reload, &registry.shadow] {
        assert_eq!(s.transport_errors, 0, "{}: transport errors", s.scenario);
        assert_eq!(s.non_200, 0, "{}: non-200 responses", s.scenario);
    }
    assert!(
        registry.swaps > 0,
        "reload scenario performed no promotions"
    );
    assert!(
        registry.shadow_replayed_requests > 0,
        "shadow scenario replayed nothing"
    );
    let steady_p99 = registry.steady.p99_us as f64;
    let shadow_p99 = registry.shadow.p99_us as f64;
    assert!(
        shadow_p99 <= (steady_p99 * 2.0).max(steady_p99 + 2_000.0),
        "shadow replay regressed p99: {shadow_p99}us vs steady {steady_p99}us"
    );

    let report = BenchReport {
        benchmark: "serve_load_event_loop".to_string(),
        quick,
        query_pool: QUERY_POOL,
        cache_capacity: CACHE_CAPACITY,
        server_threads: SERVER_THREADS,
        closed_clients: CLOSED_CLIENTS,
        batch_rows: BATCH_ROWS,
        open_loop_rate_rps: load.open_rate_rps,
        mean_forest_batch_rows,
        queue_rejections,
        scenarios,
        registry,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    write_artifact(&out, &json).expect("write benchmark artifact");
    println!("wrote {}", out.display());
}
