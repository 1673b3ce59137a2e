//! Production-behaviour e2e tests for the event-loop serving engine:
//! keep-alive reuse, pipelining, batched prediction bit-equality,
//! admission-control 429s, graceful drain, and cache-key canonicalization
//! — all against a real socket, complementing `loopback.rs` (which pins
//! the metric accounting and single-request correctness).

#![cfg(target_os = "linux")]

use bf_serve::{ModelBundle, PredictServer, ServeConfig};
use blackforest::toolchain::AnalysisReport;
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use serde::Deserialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

#[derive(Debug, Deserialize)]
struct PredictBody {
    predicted_ms: f64,
    characteristics: Vec<f64>,
    cached: bool,
}

/// One quick trained reduce bundle shared by every test in this binary
/// (training dominates test wall-clock; the server under test is cheap).
fn trained() -> &'static (ModelBundle, AnalysisReport) {
    static TRAINED: OnceLock<(ModelBundle, AnalysisReport)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let gpu = GpuConfig::gtx580();
        let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(79));
        let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
        let report = bf
            .analyze(
                Workload::Reduce(bf_kernels::reduce::ReduceVariant::Reduce1),
                &sizes,
            )
            .expect("train quick reduce sweep");
        let bundle = ModelBundle::from_report(&report, &gpu, &sizes, true);
        (bundle, report)
    })
}

fn spawn_server(config: ServeConfig) -> (bf_serve::ServerHandle, std::thread::JoinHandle<()>) {
    let (bundle, _) = trained();
    let server = PredictServer::bind("127.0.0.1:0", bundle.clone(), config).expect("bind");
    server.spawn()
}

fn predict_request(body: &str, close: bool) -> String {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST /predict HTTP/1.1\r\nHost: loopback\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one HTTP/1.1 response (headers + Content-Length body) off a
/// keep-alive connection. Returns `(status, headers, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read header line");
        assert!(
            n > 0,
            "connection closed mid-response; head so far:\n{head}"
        );
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric content length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

/// One-shot request on a fresh `Connection: close` socket.
fn oneshot(addr: SocketAddr, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(predict_request(body, true).as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, payload)
}

fn metric(text: &str, needle: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {needle} missing"))
}

fn scrape_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("metrics body")
        .1
        .to_string()
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let addr = handle.addr();
    let (_, report) = trained();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..20 {
        let size = 4096.0 + (i * 64) as f64;
        let body = format!("{{\"size\": {size}, \"threads\": 64}}");
        stream
            .write_all(predict_request(&body, false).as_bytes())
            .expect("write");
        let (status, head, payload) = read_response(&mut reader);
        assert_eq!(status, 200, "{payload}");
        assert!(
            !head.contains("Connection: close"),
            "keep-alive response must not close: {head}"
        );
        let parsed: PredictBody = serde_json::from_str(&payload).unwrap();
        let expected = report.predictor.predict(&[size, 64.0]).unwrap();
        assert_eq!(parsed.predicted_ms.to_bits(), expected.to_bits());
    }

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let addr = handle.addr();

    // Fire all requests before reading any response. Distinct sizes let us
    // verify that response order matches request order exactly.
    let sizes: Vec<f64> = (0..12).map(|i| 2048.0 + (i * 128) as f64).collect();
    let mut wire = String::new();
    for size in &sizes {
        wire.push_str(&predict_request(
            &format!("{{\"size\": {size}, \"threads\": 64}}"),
            false,
        ));
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(wire.as_bytes()).expect("write pipeline");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for size in &sizes {
        let (status, _, payload) = read_response(&mut reader);
        assert_eq!(status, 200, "{payload}");
        let parsed: PredictBody = serde_json::from_str(&payload).unwrap();
        assert_eq!(
            parsed.characteristics[0], *size,
            "pipelined responses must preserve request order"
        );
    }

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn batched_predictions_match_singles_bit_for_bit() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let addr = handle.addr();
    let (_, report) = trained();

    let sizes: Vec<f64> = (0..8).map(|i| 3000.0 + (i * 500) as f64).collect();
    let batch_body = format!(
        "[{}]",
        sizes
            .iter()
            .map(|s| format!("{{\"size\": {s}, \"threads\": 128}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let (status, _, payload) = oneshot(addr, &batch_body);
    assert_eq!(status, 200, "{payload}");
    let batched: Vec<PredictBody> = serde_json::from_str(&payload).expect("array response");
    assert_eq!(batched.len(), sizes.len());

    for (size, from_batch) in sizes.iter().zip(&batched) {
        // Bit-identical to the in-memory chain...
        let expected = report.predictor.predict(&[*size, 128.0]).unwrap();
        assert_eq!(
            from_batch.predicted_ms.to_bits(),
            expected.to_bits(),
            "batched prediction for size {size} diverges from in-memory"
        );
        // ...and to a standalone single-query round-trip.
        let (status, _, single) = oneshot(addr, &format!("{{\"size\": {size}, \"threads\": 128}}"));
        assert_eq!(status, 200);
        let single: PredictBody = serde_json::from_str(&single).unwrap();
        assert_eq!(
            single.predicted_ms.to_bits(),
            from_batch.predicted_ms.to_bits()
        );
    }

    // Batch-size histogram saw an 8-row batch.
    let m = scrape_metrics(addr);
    assert!(
        metric(&m, "bf_predict_batch_rows_bucket{le=\"8\"}") >= 1,
        "{m}"
    );
    assert!(metric(&m, "bf_predict_batch_rows_sum") >= 8);

    // An empty batch is a 400, not a panic or an empty 200.
    let (status, _, err) = oneshot(addr, "[]");
    assert_eq!(status, 400, "{err}");

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn saturated_queue_answers_429_with_retry_after() {
    // One worker, an admission bound of one in-flight prediction, and a
    // long batch window: the first request parks in the worker's coalesce
    // wait, so a second concurrent request must be rejected fast.
    let (handle, join) = spawn_server(ServeConfig {
        threads: 1,
        max_queue: 1,
        batch_window: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let mut first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    first
        .write_all(predict_request("{\"size\": 4096, \"threads\": 64}", true).as_bytes())
        .unwrap();
    // Give the loop time to admit the first job into the (now-full) queue.
    std::thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    let (status, head, body) = oneshot(addr, "{\"size\": 8192, \"threads\": 64}");
    let rejected_in = started.elapsed();
    assert_eq!(status, 429, "{body}");
    assert!(
        head.lines().any(|l| l == "Retry-After: 1"),
        "429 must carry Retry-After: {head}"
    );
    assert!(
        rejected_in < Duration::from_millis(250),
        "rejection must not wait out the batch window (took {rejected_in:?})"
    );

    // The admitted request still completes normally.
    let mut response = String::new();
    first.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let m = scrape_metrics(addr);
    assert_eq!(metric(&m, "bf_queue_rejections_total"), 1, "{m}");
    assert_eq!(
        metric(&m, "bf_queue_depth"),
        0,
        "queue drains after completion"
    );
    assert_eq!(metric(&m, "bf_responses_total{class=\"4xx\"}"), 1, "{m}");

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    // A long batch window holds the job inside the worker when stop()
    // lands, so the drain path must finish executing work and flush the
    // response before the listener thread exits.
    let (handle, join) = spawn_server(ServeConfig {
        threads: 1,
        batch_window: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let (_, report) = trained();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(predict_request("{\"size\": 6144, \"threads\": 64}", true).as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    handle.stop();

    // The in-flight prediction is answered, complete and correct, even
    // though shutdown began while it was queued.
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let payload = response.split_once("\r\n\r\n").unwrap().1;
    let parsed: PredictBody = serde_json::from_str(payload).unwrap();
    let expected = report.predictor.predict(&[6144.0, 64.0]).unwrap();
    assert_eq!(parsed.predicted_ms.to_bits(), expected.to_bits());

    join.join().expect("server drains and exits");
}

#[test]
fn non_finite_characteristics_are_422_and_negative_zero_shares_the_cache_slot() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let addr = handle.addr();

    // JSON `1e999` overflows to +inf at parse time; the server must refuse
    // it before it can poison the bit-pattern cache key.
    let (status, _, body) = oneshot(addr, "{\"characteristics\": [1e999, 64.0]}");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("finite"), "{body}");
    let (status, _, body) = oneshot(addr, "{\"characteristics\": [4096.0, -1e999]}");
    assert_eq!(status, 422, "{body}");

    // -0.0 and 0.0 compare equal at every tree split, so they must share
    // one cache entry: the second query is a hit, not a fresh miss.
    let (status, _, first) = oneshot(addr, "{\"characteristics\": [4096.0, -0.0]}");
    assert_eq!(status, 200, "{first}");
    let first: PredictBody = serde_json::from_str(&first).unwrap();
    assert!(!first.cached);
    let (status, _, second) = oneshot(addr, "{\"characteristics\": [4096.0, 0.0]}");
    assert_eq!(status, 200, "{second}");
    let second: PredictBody = serde_json::from_str(&second).unwrap();
    assert!(second.cached, "0.0 must hit the entry keyed by -0.0");
    assert_eq!(first.predicted_ms.to_bits(), second.predicted_ms.to_bits());

    handle.stop();
    join.join().expect("server exits");
}
