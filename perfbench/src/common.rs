//! Shared pieces of every workload: the outcome record, order statistics,
//! the output digest, memory and the traced-run summary.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed whose outputs are recorded in the workloads' expected digests.
pub const DEFAULT_SEED: u64 = 1;

/// Smallest number of timed ops per run, however short `--seconds` is, so
/// that a median and a p95 always exist.
pub const MIN_OPS: usize = 3;

/// A run builds its set-up at least [`MIN_SETUPS`] times and until
/// [`SETUP_SECONDS`] have passed (at most [`MAX_SETUPS`] times); `setup_s`
/// is the median, so one slow set-up does not move it.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 15;
pub const SETUP_SECONDS: f64 = 2.0;

/// State of one named output check.
#[derive(Default)]
pub struct Check {
    pub failures: u64,
    pub first: Option<String>,
}

/// Probe time, in ms, at the host speed every reported time is scaled to.
pub const REFERENCE_PROBE_MS: f64 = 1.5;

/// Wall time in ms of a fixed integer loop of about 1.5 ms: eight
/// independent xorshift chains, so it is bound by how many instructions
/// the core issues per cycle, as the program's code is. It is the
/// benchmark's own code, so it reads the host's speed and not the
/// program's.
fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut xs = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..400_000 {
        for x in xs.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        }
    }
    std::hint::black_box(xs);
    ms(t.elapsed())
}

/// Host-speed probes taken through a run, after each set-up and op.
///
/// On a shared host the CPU's speed changes with other tenants' load, for
/// seconds to minutes at a time, and every op slows with it: the vCPU
/// shares its core with another guest, so code that issues several
/// instructions per cycle takes up to 1.5 times as long while a serial
/// dependency chain does not. The probe slows with the program, so each
/// set-up and op time is scaled to the speed at which the probe takes
/// [`REFERENCE_PROBE_MS`], by the probes taken right after it.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Probes for about 2% of `busy_ms`, the time of the work just done,
    /// and at least once. Returns what that work's time is multiplied by
    /// to read as at the reference speed: [`REFERENCE_PROBE_MS`] over the
    /// median of these probes.
    pub fn probe_after(&mut self, busy_ms: f64) -> f64 {
        let first = self.0.len();
        let mut spent = 0.0;
        while spent == 0.0 || spent < 0.02 * busy_ms {
            let p = probe_ms();
            self.0.push(p);
            spent += p;
        }
        REFERENCE_PROBE_MS / median(&self.0[first..])
    }

    /// The same over every probe of the run, for the traced run's layer
    /// times, which are not taken op by op.
    pub fn factor(&self) -> f64 {
        REFERENCE_PROBE_MS / median(&self.0)
    }

    /// Prints the median probe of the run and of its first and last
    /// quarters, and flags a run during which the host changed speed by
    /// more than 15%.
    pub fn report(&self) {
        let q = (self.0.len() / 4).max(1);
        let first = median(&self.0[..q]);
        let last = median(&self.0[self.0.len() - q..]);
        println!(
            "host speed: {} probes, median {:.4} ms (factor {:.4} to a {REFERENCE_PROBE_MS} ms probe); first quarter {first:.4} ms, last quarter {last:.4} ms",
            self.0.len(),
            median(&self.0),
            self.factor()
        );
        if first.max(last) > 1.15 * first.min(last) {
            println!("host speed: changed by more than 15% during the run");
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub checks: BTreeMap<String, Check>,
    pub host: HostSpeed,
}

impl Outcome {
    /// An outcome with the given output checks declared (all passing),
    /// plus those only a traced run makes.
    pub fn with_checks(names: &[&str], traced: Option<&[&str]>) -> Outcome {
        let mut o = Outcome::default();
        for n in names.iter().chain(traced.unwrap_or_default()) {
            o.checks.insert(n.to_string(), Check::default());
        }
        o
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one evaluation of a declared check; returns `ok`.
    pub fn verify(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let c = self
            .checks
            .get_mut(name)
            .unwrap_or_else(|| panic!("check {name} not declared"));
        if !ok {
            c.failures += 1;
            c.first.get_or_insert_with(detail);
        }
        ok
    }

    /// A check on the whole run rather than on one op: a mismatch counts
    /// as one failed op.
    pub fn verify_run(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !self.verify(name, ok, detail) {
            self.failed += 1;
        }
    }

    /// Counts one attempted op, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.values().all(|c| c.failures == 0)
    }

    /// The end-to-end metrics every workload reports, from the set-up
    /// times and the timed ops (`op_ms` in milliseconds) of one run, all at
    /// the reference host speed; `measured_ms` are the op times as
    /// measured, for the record.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        measured_ms: &[f64],
        op_ms: &[f64],
        items_per_s: f64,
    ) {
        self.metric("setup_s", median(setups_s), "s");
        for (label, ops) in [("as measured", measured_ms), ("at reference speed", op_ms)] {
            println!(
                "op ms over {} ops {label}: mean {:.4} p50 {:.4} p95 {:.4}",
                ops.len(),
                mean(ops),
                median(ops),
                quantile(ops, 0.95)
            );
        }
        self.metric("op_ms", median(op_ms), "ms");
        self.metric("op_p95_ms", quantile(op_ms, 0.95), "ms");
        self.metric("items_per_s", items_per_s, "1/s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("ok_ratio", ok, "ratio");
    }
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// 64-bit FNV-1a over the output bytes: stable across processes and
/// hosts, unlike `DefaultHasher`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Runs `setup` as often as [`MIN_SETUPS`] and [`SETUP_SECONDS`] ask, with
/// host-speed probes after each, and returns the last result with the
/// wall time of each at the reference host speed.
pub fn repeated_setup<T>(host: &mut HostSpeed, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Drop the previous set-up first, so that two never coexist.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let s = t.elapsed().as_secs_f64();
        times.push(s * host.probe_after(s * 1e3));
    }
    (last.expect("at least one set-up"), times)
}

/// Whether a timed loop that started at `start` and has run `ops` ops
/// should run another.
pub fn keep_going(start: Instant, seconds: f64, ops: usize) -> bool {
    ops < MIN_OPS || start.elapsed().as_secs_f64() < seconds
}

/// Per-layer samples of a traced run, one value per traced op.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn add(&mut self, layer: &'static str, value: f64) {
        self.0.entry(layer).or_default().push(value);
    }

    pub fn median(&self, layer: &str) -> f64 {
        self.0.get(layer).map(|v| median(v)).unwrap_or(0.0)
    }
}

/// Reports a traced run: the median of each layer, the traced op, the
/// part of `whole_ms` (the op the layers partition) that the additive
/// layers do not cover, and the cost of timing the layers. `additive`
/// lists the layers with their units; `ms_per_unit` converts a layer value
/// to milliseconds.
pub fn traced_summary(
    o: &mut Outcome,
    layers: &Layers,
    additive: &[(&'static str, &'static str, f64)],
    whole_ms: f64,
    traced_op_ms: f64,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    let mut covered = 0.0;
    for &(name, unit, ms_per_unit) in additive {
        let v = layers.median(name);
        covered += v * ms_per_unit;
        o.metric(name, v, unit);
    }
    let unattributed = whole_ms - covered;
    println!(
        "layers cover {:.2}% of the {whole_ms:.4} ms op",
        100.0 * covered / whole_ms
    );
    o.metric("traced_op_ms", traced_op_ms, "ms");
    o.metric("unattributed_ms", unattributed, "ms");
    o.metric("unattributed_pct", 100.0 * unattributed / whole_ms, "pct");
    let untraced = median(untraced_ms);
    o.metric(
        "trace_overhead_pct",
        100.0 * (median(traced_ms) - untraced) / untraced,
        "pct",
    );
}
