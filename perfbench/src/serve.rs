//! `serve-mix`: the `train-stencil` bundle served by the event loop with
//! one prediction worker and the default 4096-entry LRU, driven by a
//! closed loop: one client thread, two keep-alive connections, one
//! outstanding request on each. One op is the round trip of one
//! single-row request.

use crate::common::{self, Layers, Outcome};
use crate::train;
use bf_registry::{ModelBundle, Prediction, RegistryReader};
use bf_serve::http::{RequestParser, Response};
use bf_serve::{LruCache, PredictServer, ServeConfig, ServeMode, ServerHandle};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Instant;

pub const CHECKS: &[&str] = &["status_200", "reply_bits", "hit_count"];
pub const TRACED_CHECKS: &[&str] = &["lru_matches_server"];

/// Requests in one iteration of the stream. Every iteration sends the same
/// mix in the same order, with fresh cold keys.
const REQUESTS_PER_ITER: usize = 4000;
/// Distinct hot keys; far fewer than the LRU holds.
const HOT_KEYS: usize = 64;
/// Cold rows in one batch request.
const BATCH_ROWS: usize = 16;
const CACHE_CAPACITY: usize = 4096;
/// Leading requests of iteration 0 sent after the hot keys in set-up.
const WARMUP_REQUESTS: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// One row that is never asked again, so it misses.
    Cold,
    /// One of [`HOT_KEYS`] rows, answered from the LRU after set-up.
    Hot,
    /// [`BATCH_ROWS`] cold rows in one body.
    Batch,
}

struct Request {
    class: Class,
    rows: Vec<[f64; 2]>,
    bytes: Vec<u8>,
}

/// SplitMix64: the stream's only source of randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`mix`].
fn shuffle<T>(items: &mut [T], seed: u64) {
    for k in (1..items.len()).rev() {
        let r = mix(seed ^ (k as u64) << 40);
        items.swap(k, r as usize % (k + 1));
    }
}

/// The request stream of one seed.
struct Stream {
    seed: u64,
    /// Class of each request of an iteration and, for hot requests, the key.
    plan: Vec<(Class, usize)>,
    /// Hot rows `(size, sweeps)`: whole sizes, so no cold row equals one.
    hot: Vec<[f64; 2]>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut hot: Vec<[f64; 2]> = Vec::with_capacity(HOT_KEYS);
        let mut i = 0u64;
        while hot.len() < HOT_KEYS {
            let r = mix(seed ^ 0x407 ^ (i << 32));
            i += 1;
            let row = [
                32.0 + (r % 737) as f64,
                [1.0, 2.0, 4.0][(r >> 20) as usize % 3],
            ];
            if !hot.contains(&row) {
                hot.push(row);
            }
        }
        // Exactly 60% cold, 30% hot and 10% batch requests in every
        // iteration, in a seeded order, so every seed sends the same rows.
        // No two batches are adjacent: each batch then delays the
        // single-row request in flight beside it, at least 1 in 9 of them,
        // and the p95 falls inside that delayed group.
        let batches = REQUESTS_PER_ITER / 10;
        let singles = REQUESTS_PER_ITER - batches;
        let mut single_classes: Vec<Class> = (0..singles)
            .map(|j| {
                if j < singles * 2 / 3 {
                    Class::Cold
                } else {
                    Class::Hot
                }
            })
            .collect();
        shuffle(&mut single_classes, seed ^ 0xc1a55);
        let mut gaps: Vec<usize> = (1..singles).collect();
        shuffle(&mut gaps, seed ^ 0xba7c);
        let mut before = vec![false; singles];
        for &g in &gaps[..batches] {
            before[g] = true;
        }
        let mut classes = Vec::with_capacity(REQUESTS_PER_ITER);
        for (class, batch_first) in single_classes.into_iter().zip(before) {
            if batch_first {
                classes.push(Class::Batch);
            }
            classes.push(class);
        }
        // Hot keys are visited in a fresh random order every round of
        // HOT_KEYS hot requests, so each key recurs within two rounds
        // (about 430 requests, under 1000 cache inserts) and stays cached.
        let mut order: Vec<usize> = Vec::new();
        let mut hot_seen = 0usize;
        let plan = classes
            .into_iter()
            .map(|class| {
                if class != Class::Hot {
                    return (class, 0);
                }
                if hot_seen.is_multiple_of(HOT_KEYS) {
                    order = (0..HOT_KEYS).collect();
                    shuffle(
                        &mut order,
                        seed ^ 0x5407 ^ ((hot_seen / HOT_KEYS) as u64) << 16,
                    );
                }
                hot_seen += 1;
                (class, order[(hot_seen - 1) % HOT_KEYS])
            })
            .collect();
        Stream { seed, plan, hot }
    }

    /// A cold row whose key no other request of the run uses: `id` picks a
    /// distinct pair (whole part, fraction), and every whole part and
    /// fraction is exact in an `f64`.
    fn cold(&self, id: u64) -> [f64; 2] {
        let whole = (id % 704 * 263 + self.seed % 704) % 704;
        let frac = ((id / 704) as f64 + 0.5) / 1_048_576.0;
        [
            32.0 + whole as f64 + frac,
            [1.0, 2.0, 4.0][(mix(id ^ self.seed) % 3) as usize],
        ]
    }

    /// Request `j` of iteration `iter`; iteration 0 is the set-up warm-up.
    fn request(&self, iter: u64, j: usize) -> Request {
        let id = (iter * REQUESTS_PER_ITER as u64 + j as u64) * BATCH_ROWS as u64;
        let (class, key) = self.plan[j];
        let rows: Vec<[f64; 2]> = match class {
            Class::Cold => vec![self.cold(id)],
            Class::Hot => vec![self.hot[key]],
            Class::Batch => (0..BATCH_ROWS as u64).map(|r| self.cold(id + r)).collect(),
        };
        let bytes = http_request(class, &rows);
        Request { class, rows, bytes }
    }

    /// Set-up traffic: every hot key once, then the head of iteration 0.
    fn warmup(&self) -> Vec<Request> {
        let mut reqs: Vec<Request> = self
            .hot
            .iter()
            .map(|row| Request {
                class: Class::Hot,
                rows: vec![*row],
                bytes: http_request(Class::Hot, &[*row]),
            })
            .collect();
        reqs.extend((0..WARMUP_REQUESTS).map(|j| self.request(0, j)));
        reqs
    }

    fn iteration(&self, iter: u64) -> Vec<Request> {
        (0..REQUESTS_PER_ITER)
            .map(|j| self.request(iter, j))
            .collect()
    }
}

fn query(row: &[f64; 2]) -> String {
    format!("{{\"size\":{},\"sweeps\":{}}}", row[0], row[1])
}

fn http_request(class: Class, rows: &[[f64; 2]]) -> Vec<u8> {
    let body = if class == Class::Batch {
        let items: Vec<String> = rows.iter().map(query).collect();
        format!("[{}]", items.join(","))
    } else {
        query(&rows[0])
    };
    format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The body of a `POST /predict` query, as the server decodes it.
#[derive(Deserialize)]
#[allow(dead_code)]
struct Query {
    workload: Option<String>,
    gpu: Option<String>,
    size: Option<f64>,
    threads: Option<f64>,
    sweeps: Option<f64>,
    characteristics: Option<Vec<f64>>,
}

/// One answered row, encoded as the server encodes it.
#[derive(Serialize)]
struct Answer {
    workload: String,
    gpu: String,
    model: String,
    characteristics: Vec<f64>,
    predicted_ms: f64,
    counters: Vec<(String, f64)>,
    cached: bool,
}

fn encode_answers(
    bundle: &ModelBundle,
    model_hex: &str,
    batch: bool,
    rows: Vec<(Vec<f64>, Prediction, bool)>,
) -> String {
    let answers: Vec<Answer> = rows
        .into_iter()
        .map(|(characteristics, p, cached)| Answer {
            workload: bundle.workload.clone(),
            gpu: bundle.gpu_name.clone(),
            model: model_hex.to_string(),
            characteristics,
            predicted_ms: p.predicted_ms,
            counters: p.counters,
            cached,
        })
        .collect();
    let json = if batch {
        serde_json::to_string(&answers)
    } else {
        serde_json::to_string(&answers[0])
    };
    json.expect("answer serializes")
}

/// The exact reply body a request must get: `ModelBundle::predict` per row.
struct Oracle<'a> {
    bundle: &'a ModelBundle,
    model_hex: String,
    hot: HashMap<u128, Prediction>,
}

impl Oracle<'_> {
    fn body(&mut self, req: &Request) -> String {
        let bundle = self.bundle;
        let rows = req
            .rows
            .iter()
            .map(|r| {
                let key = (r[0].to_bits() as u128) << 64 | r[1].to_bits() as u128;
                let hot = req.class == Class::Hot;
                let p = if hot {
                    self.hot
                        .entry(key)
                        .or_insert_with(|| bundle.predict(r).expect("bundle predicts"))
                        .clone()
                } else {
                    bundle.predict(r).expect("bundle predicts")
                };
                (r.to_vec(), p, hot)
            })
            .collect();
        encode_answers(bundle, &self.model_hex, req.class == Class::Batch, rows)
    }
}

/// One keep-alive client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let writer = TcpStream::connect(handle.addr()).expect("connect to the server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Conn { writer, reader }
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one response: `(status, body)`.
    fn receive(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    fn round_trip(&mut self, bytes: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.send(bytes)?;
        self.receive()
    }
}

/// What the closed loop saw for one request.
struct Reply {
    status: u16,
    body: Vec<u8>,
    latency_us: f64,
}

/// Sends `reqs` in order over the connections, request `j` on connection
/// `j % 2`, each connection sending its next request once its previous
/// answer is in. Answers are read round-robin, so an answer that arrives
/// while the other connection is being read waits for that read.
fn closed_loop(conns: &mut [Conn; 2], reqs: &[Request]) -> std::io::Result<Vec<Reply>> {
    let mut replies = Vec::with_capacity(reqs.len());
    let mut sent_at = [Instant::now(); 2];
    for (c, conn) in conns.iter_mut().enumerate().take(reqs.len()) {
        sent_at[c] = Instant::now();
        conn.send(&reqs[c].bytes)?;
    }
    for j in 0..reqs.len() {
        let c = j % 2;
        let (status, body) = conns[c].receive()?;
        let latency_us = common::us(sent_at[c].elapsed());
        replies.push(Reply {
            status,
            body,
            latency_us,
        });
        if let Some(next) = reqs.get(j + 2) {
            sent_at[c] = Instant::now();
            conns[c].send(&next.bytes)?;
        }
    }
    Ok(replies)
}

struct Server {
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
    bundle: ModelBundle,
    conns: [Conn; 2],
}

impl Drop for Server {
    fn drop(&mut self) {
        for conn in &self.conns {
            let _ = conn.writer.shutdown(std::net::Shutdown::Both);
        }
        self.handle.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Reads `bf_*` sample values off `GET /metrics`.
fn scrape(conn: &mut Conn) -> std::io::Result<HashMap<String, f64>> {
    let (status, body) =
        conn.round_trip(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")?;
    if status != 200 {
        return Err(std::io::Error::other(format!(
            "GET /metrics answered {status}"
        )));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Layers of one replayed request, in the order the server runs them.
const PARSE: usize = 0;
const RESOLVE: usize = 1;
const DECODE: usize = 2;
const LRU: usize = 3;
const COUNTERS: usize = 4;
const FOREST: usize = 5;
const ENCODE: usize = 6;
const WRITE: usize = 7;
const LAYER_NAMES: [(&str, usize); 8] = [
    ("http.parse_us", PARSE),
    ("registry.resolve_us", RESOLVE),
    ("json.decode_us", DECODE),
    ("lru.lookup_us", LRU),
    ("countermodel.predict_us", COUNTERS),
    ("forest.predict_us", FOREST),
    ("json.encode_us", ENCODE),
    ("http.write_us", WRITE),
];

/// Marks the end of a layer. The untraced replay uses a clock that does
/// nothing, so both replays run the same code.
trait Clock {
    fn mark(&mut self, layer: usize);
}

struct NoClock;

impl Clock for NoClock {
    #[inline(always)]
    fn mark(&mut self, _: usize) {}
}

struct LayerClock {
    last: Instant,
    us: [f64; 8],
}

impl LayerClock {
    fn start() -> LayerClock {
        LayerClock {
            last: Instant::now(),
            us: [0.0; 8],
        }
    }
}

impl Clock for LayerClock {
    fn mark(&mut self, layer: usize) {
        let now = Instant::now();
        self.us[layer] += common::us(now - self.last);
        self.last = now;
    }
}

/// The server's `/predict` path for one request, made through the public
/// calls of each layer in-process, against its own LRU.
struct Replay {
    reader: RegistryReader,
    lru: LruCache<(u64, Vec<u64>), Prediction>,
    hits: u64,
    misses: u64,
}

impl Replay {
    fn handle<C: Clock>(&mut self, bytes: &[u8], clock: &mut C) -> Vec<u8> {
        let mut parser = RequestParser::new();
        parser.push(bytes);
        let request = parser
            .next_request()
            .expect("request parses")
            .expect("request is complete");
        clock.mark(PARSE);
        let resolved = self.reader.resolve("default").expect("default model");
        let model = &resolved.model;
        let bundle = &model.bundle;
        clock.mark(RESOLVE);
        let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
        let batch = body.trim_start().starts_with('[');
        let queries: Vec<Query> = if batch {
            serde_json::from_str(body).expect("batch decodes")
        } else {
            vec![serde_json::from_str(body).expect("query decodes")]
        };
        let rows: Vec<Vec<f64>> = queries
            .into_iter()
            .map(|q| {
                bundle
                    .characteristics_for(q.size.expect("size"), q.threads, q.sweeps)
                    .expect("characteristics")
            })
            .collect();
        clock.mark(DECODE);
        let mut out: Vec<Option<(Prediction, bool)>> = vec![None; rows.len()];
        let mut misses = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let key = (
                model.content_id,
                row.iter().map(|c| c.to_bits()).collect::<Vec<u64>>(),
            );
            match self.lru.get(&key).cloned() {
                Some(p) => out[i] = Some((p, true)),
                None => misses.push((i, key)),
            }
        }
        self.hits += (rows.len() - misses.len()) as u64;
        self.misses += misses.len() as u64;
        clock.mark(LRU);
        if !misses.is_empty() {
            let counters = &bundle.predictor.counters;
            let counter_rows: Vec<Vec<f64>> = misses
                .iter()
                .map(|(i, _)| counters.predict(&rows[*i]))
                .collect();
            clock.mark(COUNTERS);
            let times = model
                .flat
                .predict_batch(&counter_rows)
                .expect("forest predicts");
            clock.mark(FOREST);
            for (((i, key), values), predicted_ms) in
                misses.into_iter().zip(counter_rows).zip(times)
            {
                let p = Prediction {
                    predicted_ms,
                    counters: counters
                        .models
                        .iter()
                        .zip(values)
                        .map(|(m, v)| (m.counter.clone(), v))
                        .collect(),
                };
                self.lru.insert(key, p.clone());
                out[i] = Some((p, false));
            }
            clock.mark(LRU);
        }
        let answered = rows
            .into_iter()
            .zip(out)
            .map(|(row, o)| {
                let (p, cached) = o.expect("row answered");
                (row, p, cached)
            })
            .collect();
        let json = encode_answers(bundle, &model.id_hex(), batch, answered);
        clock.mark(ENCODE);
        let mut wire = Vec::with_capacity(json.len() + 128);
        Response::json(200, json)
            .write_to(&mut wire, false)
            .expect("write to memory");
        clock.mark(WRITE);
        wire
    }
}

fn start(seed: u64) -> Server {
    let spec = train::spec(seed);
    let (json, _) = train::train_op(&spec);
    let bundle: ModelBundle = serde_json::from_str(&json).expect("bundle decodes");
    let config = ServeConfig {
        threads: 1,
        cache_capacity: CACHE_CAPACITY,
        mode: ServeMode::EventLoop,
        ..ServeConfig::default()
    };
    let server = PredictServer::bind("127.0.0.1:0", bundle.clone(), config).expect("server binds");
    let (handle, thread) = server.spawn();
    let conns = [Conn::open(&handle), Conn::open(&handle)];
    Server {
        handle,
        thread: Some(thread),
        bundle,
        conns,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::with_checks(CHECKS, trace.then_some(TRACED_CHECKS));
    let stream = Stream::new(seed);
    let warmup = stream.warmup();
    let (mut server, setups) = common::repeated_setup(&mut o.host, || {
        let mut server = start(seed);
        for req in &warmup {
            let (status, _) = server.conns[0]
                .round_trip(&req.bytes)
                .expect("warm-up request");
            assert_eq!(status, 200, "warm-up request failed");
        }
        server
    });
    let bundle = server.bundle.clone();
    let model_hex = server
        .handle
        .registry()
        .reader()
        .resolve("default")
        .expect("default model")
        .model
        .id_hex();
    let mut oracle = Oracle {
        bundle: &bundle,
        model_hex,
        hot: HashMap::new(),
    };

    // Rows the server should have answered from its LRU: set-up touched
    // every hot key first, so each later hot request hits.
    let mut expect_hits = warmup
        .iter()
        .skip(HOT_KEYS)
        .filter(|r| r.class == Class::Hot)
        .count() as u64;
    let mut expect_misses = HOT_KEYS as u64
        + warmup
            .iter()
            .skip(HOT_KEYS)
            .filter(|r| r.class != Class::Hot)
            .map(|r| r.rows.len() as u64)
            .sum::<u64>();

    // A traced run spends half its time replaying what it sent.
    let tcp_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut single_ms = Vec::new();
    let mut scaled_ms = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut reply_digests: Vec<u64> = Vec::new();
    let mut iterations = 0u64;
    let start = Instant::now();
    while common::keep_going(start, tcp_seconds, iterations as usize) {
        iterations += 1;
        let reqs = stream.iteration(iterations);
        let t = Instant::now();
        let replies = match closed_loop(&mut server.conns, &reqs) {
            Ok(r) => r,
            Err(e) => {
                o.verify_run("status_200", false, || format!("transport error: {e}"));
                iterations -= 1;
                break;
            }
        };
        let elapsed = t.elapsed().as_secs_f64();
        // The iteration's times at the host speed the probes right after
        // it read.
        let factor = o.host.probe_after(elapsed * 1e3);
        let rows: usize = reqs.iter().map(|r| r.rows.len()).sum();
        rows_per_s.push(rows as f64 / (elapsed * factor));
        for (req, reply) in reqs.iter().zip(&replies) {
            let mut ok = o.verify("status_200", reply.status == 200, || {
                format!("a request was answered {}", reply.status)
            });
            let want = oracle.body(req);
            ok &= o.verify("reply_bits", reply.body == want.as_bytes(), || {
                format!(
                    "reply {} differs from ModelBundle::predict's {want}",
                    String::from_utf8_lossy(&reply.body)
                )
            });
            o.op(ok);
            if req.class != Class::Batch {
                single_ms.push(reply.latency_us / 1e3);
                scaled_ms.push(reply.latency_us / 1e3 * factor);
            }
            if req.class == Class::Hot {
                expect_hits += 1;
            } else {
                expect_misses += req.rows.len() as u64;
            }
            if trace {
                reply_digests.push(common::digest(&reply.body));
            }
        }
    }

    let metrics = scrape(&mut server.conns[0]).unwrap_or_default();
    let value = |name: &str| metrics.get(name).copied().unwrap_or(f64::NAN);
    let (hits, misses) = (
        value("bf_prediction_cache_hits_total"),
        value("bf_prediction_cache_misses_total"),
    );
    o.verify_run(
        "hit_count",
        (hits, misses) == (expect_hits as f64, expect_misses as f64),
        || format!("server counted {hits} hits, {misses} misses; the stream has {expect_hits}, {expect_misses}"),
    );
    drop(server);

    // Only the median and p95 are metrics: p90 sits where the singles
    // delayed behind a batch begin, and p99 was not steady between runs.
    println!(
        "single-row latency ms over {} requests: p50 {:.4} p75 {:.4} p90 {:.4} p95 {:.4} p99 {:.4}",
        single_ms.len(),
        common::quantile(&single_ms, 0.5),
        common::quantile(&single_ms, 0.75),
        common::quantile(&single_ms, 0.9),
        common::quantile(&single_ms, 0.95),
        common::quantile(&single_ms, 0.99),
    );
    if !trace {
        o.end_to_end(&setups, &single_ms, &scaled_ms, common::median(&rows_per_s));
        return o;
    }

    // Replay: the same requests, set-up included, through the layers'
    // public calls; timed and untimed replays alternate per iteration,
    // each with its own LRU.
    let registry = {
        let r = std::sync::Arc::new(bf_registry::Registry::new());
        let id = r.load_bundle(bundle.clone()).expect("bundle loads");
        r.set_alias(bf_registry::AliasUpdate {
            alias: "default".into(),
            id: Some(id),
            create: true,
            ..Default::default()
        })
        .expect("alias default");
        r
    };
    let fresh = || Replay {
        reader: registry.reader(),
        lru: LruCache::new(CACHE_CAPACITY),
        hits: 0,
        misses: 0,
    };
    let (mut timed, mut untimed) = (fresh(), fresh());
    let mut layers = Layers::default();
    let (mut traced_us, mut untraced_us) = (Vec::new(), Vec::new());
    let mut k = 0usize;
    for iter in 0..=iterations {
        let reqs = if iter == 0 {
            stream.warmup()
        } else {
            stream.iteration(iter)
        };
        let t = Instant::now();
        for req in &reqs {
            std::hint::black_box(untimed.handle(&req.bytes, &mut NoClock));
        }
        untraced_us.push(common::us(t.elapsed()) / reqs.len() as f64);
        let t = Instant::now();
        let mut body_ok = true;
        for req in &reqs {
            let mut clock = LayerClock::start();
            let wire = timed.handle(&req.bytes, &mut clock);
            if iter > 0 {
                let body = &wire[wire.len() - body_len(&wire)..];
                body_ok &= common::digest(body) == reply_digests[k];
                k += 1;
                if req.class != Class::Batch {
                    for (name, i) in LAYER_NAMES {
                        layers.add(name, clock.us[i]);
                    }
                }
            }
        }
        traced_us.push(common::us(t.elapsed()) / reqs.len() as f64);
        o.verify_run("reply_bits", body_ok, || {
            format!("replayed iteration {iter} differs from the server's replies")
        });
    }
    let lru_ratio = timed.hits as f64 / (timed.hits + timed.misses) as f64;
    let server_ratio = hits / (hits + misses);
    o.verify_run("lru_matches_server", lru_ratio == server_ratio, || {
        format!("replay LRU hit ratio {lru_ratio} differs from the server's {server_ratio}")
    });

    let additive: Vec<(&'static str, &'static str, f64)> =
        LAYER_NAMES.iter().map(|(n, _)| (*n, "us", 1e-3)).collect();
    common::traced_summary(
        &mut o,
        &layers,
        &additive,
        common::median(&single_ms),
        common::median(&single_ms),
        &traced_us,
        &untraced_us,
    );
    o.metric("lru.hit_ratio", lru_ratio, "ratio");
    o.metric("server.cache_hit_ratio", server_ratio, "ratio");
    o.metric(
        "server.mean_batch_rows",
        value("bf_predict_batch_rows_sum") / value("bf_predict_batch_rows_count"),
        "rows",
    );
    o.metric(
        "server.queue_rejections",
        value("bf_queue_rejections_total"),
        "count",
    );
    o
}

/// Length of the body of a response written by `Response::write_to`.
fn body_len(wire: &[u8]) -> usize {
    let head_end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head ends")
        + 4;
    wire.len() - head_end
}
