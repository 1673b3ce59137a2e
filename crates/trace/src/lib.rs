//! # bf-trace
//!
//! Structured tracing for the BlackForest toolchain: the observability the
//! paper demands of GPU kernels, applied to our own pipeline. The whole
//! method treats the GPU as a black box read through counters and elapsed
//! times; this crate gives the toolchain the same treatment — every phase
//! of a `train` run (sweep → simulate → fit → select → regress) and every
//! served request becomes a *span* with nanosecond timing, a parent, and
//! key=value attributes, plus process-wide named counters.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** This crate is `std` only, so every other crate
//!    can depend on it without dragging anything into their builds.
//! 2. **Disabled means free.** Tracing is off by default; a [`Span::enter`]
//!    with the recorder disabled is one relaxed atomic load and no clock
//!    read, no allocation, no lock. The simulator's per-launch spans must
//!    not show up in `bench_sim` (CI asserts < 1% overhead).
//! 3. **Thread-pool-correct parenting.** Work fanned out across the rayon
//!    pool parents back to the span that issued it via
//!    [`with_parent`], not to whatever happened to run last on the worker.
//! 4. **Topology is deterministic; durations are not.** Tests pin span
//!    *names, nesting and counts* (identical under any thread interleaving
//!    or cache state), never timings.
//!
//! ## Span model
//!
//! A span is recorded once, at close, as a [`SpanRecord`]: id, parent id,
//! static name, thread, start/end nanoseconds (monotonic, one process-wide
//! anchor), and attributes. Parenting comes from a thread-local stack of
//! open spans; when the stack is empty the thread-inherited parent set by
//! [`with_parent`] applies (that is how a launch simulated on a rayon
//! worker becomes a child of `profile_applications` on the main thread).
//!
//! ## Sinks
//!
//! * [`Trace::summary_table`] — per-name count/total/mean/max, the
//!   `--timing` output.
//! * [`Trace::chrome_json`] — a `chrome://tracing` / Perfetto-loadable
//!   event file of `B`/`E` pairs, the `--trace-out` output.
//! * [`Trace::topology`] / [`Trace::multiset`] — canonical, timing-free
//!   projections used by the golden-trace and concurrency test suites.
//!
//! ```
//! let ((), trace) = bf_trace::capture(|| {
//!     let _outer = bf_trace::span!("fit_forest", trees = 2u64);
//!     for _ in 0..2 {
//!         let _t = bf_trace::span!("fit_tree");
//!     }
//!     bf_trace::counter!("sim_cache.hits", 3);
//! });
//! assert_eq!(trace.spans.len(), 3);
//! assert_eq!(trace.counters["sim_cache.hits"], 3);
//! assert!(trace.topology().contains("fit_tree x2"));
//! ```

mod chrome;
mod report;

pub use report::TraceDefect;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Unique identifier of one span within the process (never 0).
pub type SpanId = u64;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Free-form text.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_attr_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$variant(v as $conv)
            }
        }
    )*};
}
impl_attr_from!(
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64,
    usize => UInt as u64, f32 => Float as f64, f64 => Float as f64,
);

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

/// One closed span, as stored by the recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: SpanId,
    /// Parent span id, `None` for roots.
    pub parent: Option<SpanId>,
    /// Static span name (aggregation key).
    pub name: &'static str,
    /// Dense per-thread index (chrome `tid`).
    pub thread: u64,
    /// Start, nanoseconds since the process trace anchor.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace anchor.
    pub end_ns: u64,
    /// `key = value` attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A drained trace: every span closed during the session plus the counter
/// totals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Closed spans, in close order.
    pub spans: Vec<SpanRecord>,
    /// Named counter totals.
    pub counters: BTreeMap<String, u64>,
}

// ---------------------------------------------------------------------------
// The global recorder
// ---------------------------------------------------------------------------

struct Recorder {
    enabled: AtomicBool,
    /// Bumped on every drain; guards from an older epoch discard themselves.
    epoch: AtomicU64,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// Held across a [`capture`] so concurrent captures serialize.
    session: Mutex<()>,
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    epoch: AtomicU64::new(0),
    next_id: AtomicU64::new(1),
    next_thread: AtomicU64::new(0),
    spans: Mutex::new(Vec::new()),
    counters: Mutex::new(BTreeMap::new()),
    session: Mutex::new(()),
};

/// The process-wide monotonic clock anchor (first use wins).
fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    /// Open spans on this thread: `(span id, epoch)`, innermost last.
    static STACK: RefCell<Vec<(SpanId, u64)>> = const { RefCell::new(Vec::new()) };
    /// Parent inherited from another thread via [`with_parent`].
    static INHERITED: Cell<Option<(SpanId, u64)>> = const { Cell::new(None) };
    /// Dense thread index, assigned on first trace activity.
    static THREAD_INDEX: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|c| {
        let v = c.get();
        if v != u64::MAX {
            return v;
        }
        let assigned = RECORDER.next_thread.fetch_add(1, Ordering::Relaxed);
        c.set(assigned);
        assigned
    })
}

/// Whether the recorder is currently collecting.
pub fn enabled() -> bool {
    RECORDER.enabled.load(Ordering::Relaxed)
}

/// Starts collecting spans and counters.
pub fn enable() {
    RECORDER.enabled.store(true, Ordering::SeqCst);
}

/// Stops collecting. Already-open spans still record on drop (they belong
/// to the current epoch) until [`drain`] is called.
pub fn disable() {
    RECORDER.enabled.store(false, Ordering::SeqCst);
}

/// Takes everything recorded so far and starts a fresh epoch. Spans still
/// open when `drain` runs belong to the old epoch and are discarded on
/// drop — close your spans before draining.
pub fn drain() -> Trace {
    RECORDER.epoch.fetch_add(1, Ordering::SeqCst);
    let spans = std::mem::take(&mut *lock_ignoring_poison(&RECORDER.spans));
    let counters = std::mem::take(&mut *lock_ignoring_poison(&RECORDER.counters));
    Trace { spans, counters }
}

/// Runs `f` with tracing enabled and returns its result together with the
/// drained trace. Captures serialize on a process-wide session lock, so
/// concurrent tests cannot contaminate each other; the recorder is disabled
/// again even if `f` panics.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let _session = lock_ignoring_poison(&RECORDER.session);
    let _ = drain(); // discard leftovers from crashed sessions
    struct DisableOnDrop;
    impl Drop for DisableOnDrop {
        fn drop(&mut self) {
            disable();
        }
    }
    let armed = DisableOnDrop;
    enable();
    let out = f();
    drop(armed);
    (out, drain())
}

/// The innermost open span on this thread (or the inherited parent), if
/// tracing is enabled.
pub fn current_span() -> Option<SpanId> {
    if !enabled() {
        return None;
    }
    let epoch = RECORDER.epoch.load(Ordering::Relaxed);
    let stacked = STACK.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|(_, e)| *e == epoch)
            .map(|(id, _)| *id)
    });
    stacked.or_else(|| INHERITED.with(|c| c.get().and_then(|(id, e)| (e == epoch).then_some(id))))
}

/// Runs `f` with `parent` installed as this thread's fallback parent: spans
/// opened while no other span is open on this thread become children of
/// `parent`. This is how work fanned out over a thread pool stays attached
/// to the span that issued it. The previous fallback is restored on exit
/// (nesting works), and the call is a plain passthrough when tracing is
/// disabled or `parent` is `None`.
pub fn with_parent<T>(parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
    let Some(parent) = parent else { return f() };
    if !enabled() {
        return f();
    }
    let epoch = RECORDER.epoch.load(Ordering::Relaxed);
    let previous = INHERITED.with(|c| c.replace(Some((parent, epoch))));
    struct Restore(Option<(SpanId, u64)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INHERITED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Adds `delta` to the named counter (no-op while disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut counters = lock_ignoring_poison(&RECORDER.counters);
    match counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            counters.insert(name.to_string(), delta);
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct ActiveSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    epoch: u64,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// An RAII span guard: created by [`Span::enter`] (usually via the
/// [`span!`] macro), recorded when dropped. While tracing is disabled the
/// guard is inert and costs one atomic load.
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// Opens a span. Parent is the innermost open span on this thread, or
    /// the [`with_parent`] fallback, or none (a root).
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        let epoch = RECORDER.epoch.load(Ordering::Relaxed);
        let parent = current_span();
        let id = RECORDER.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, epoch)));
        Span {
            inner: Some(ActiveSpan {
                id,
                parent,
                name,
                epoch,
                start_ns: now_ns(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Whether this guard is actually recording (use to skip attribute
    /// computation entirely when tracing is off).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, when active.
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|a| a.id)
    }

    /// Attaches a `key = value` attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(active) = self.inner.as_mut() {
            active.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        // Pop this id wherever it sits: guards dropped out of LIFO order
        // (stored in collections, moved across scopes) must not corrupt
        // the parenting of their siblings.
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(id, _)| *id == active.id) {
                stack.remove(pos);
            }
        });
        // Record only if the session the span belongs to is still current.
        if RECORDER.epoch.load(Ordering::Relaxed) != active.epoch {
            return;
        }
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread: thread_index(),
            start_ns: active.start_ns,
            end_ns: now_ns().max(active.start_ns),
            attrs: active.attrs,
        };
        lock_ignoring_poison(&RECORDER.spans).push(record);
    }
}

/// Opens an RAII span: `span!("name")` or
/// `span!("name", rows = n, cached = true)`. Attribute expressions are only
/// evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {{
        let mut __bf_span = $crate::Span::enter($name);
        if __bf_span.is_active() {
            $(__bf_span.attr(stringify!($key), $val);)+
        }
        __bf_span
    }};
}

/// Bumps a named counter: `counter!("sim_cache.hits")` or
/// `counter!("rows", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert_and_record_nothing() {
        // Not inside a capture: the recorder is disabled. Holding the
        // session lock keeps a parallel test's capture from enabling it
        // under the ghost span; it is released before our own capture.
        let session = lock_ignoring_poison(&RECORDER.session);
        let mut sp = span!("ghost", rows = 3u64);
        assert!(!sp.is_active());
        assert!(sp.id().is_none());
        sp.attr("extra", 1u64);
        drop(sp);
        counter!("ghost.count");
        drop(session);
        let (_, trace) = capture(|| {});
        assert!(
            trace.spans.is_empty(),
            "ghost span leaked: {:?}",
            trace.spans
        );
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn nesting_parents_spans_on_one_thread() {
        let (_, trace) = capture(|| {
            let outer = span!("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span!("inner");
                assert_eq!(
                    trace_parent(&inner),
                    Some(outer_id),
                    "inner should parent to outer"
                );
            }
        });
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    fn trace_parent(span: &Span) -> Option<SpanId> {
        span.inner.as_ref().and_then(|a| a.parent)
    }

    #[test]
    fn with_parent_attaches_cross_thread_work() {
        let (_, trace) = capture(|| {
            let root = span!("fanout");
            let root_id = root.id();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        with_parent(root_id, || {
                            let _sp = span!("worker_item");
                        })
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let root = trace.spans.iter().find(|s| s.name == "fanout").unwrap();
        let items: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "worker_item")
            .collect();
        assert_eq!(items.len(), 4);
        for item in items {
            assert_eq!(item.parent, Some(root.id));
        }
    }

    #[test]
    fn with_parent_restores_previous_fallback() {
        let (_, trace) = capture(|| {
            let a = span!("a");
            let b = span!("b");
            let (a_id, b_id) = (a.id(), b.id());
            std::thread::spawn(move || {
                with_parent(a_id, || {
                    with_parent(b_id, || {
                        let _x = span!("under_b");
                    });
                    let _y = span!("under_a");
                });
            })
            .join()
            .unwrap();
        });
        let find = |n: &str| trace.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("under_b").parent, Some(find("b").id));
        assert_eq!(find("under_a").parent, Some(find("a").id));
    }

    #[test]
    fn counters_accumulate() {
        let (_, trace) = capture(|| {
            counter!("hits");
            counter!("hits", 2);
            counter!("misses", 5);
        });
        assert_eq!(trace.counters["hits"], 3);
        assert_eq!(trace.counters["misses"], 5);
    }

    #[test]
    fn attrs_are_recorded_with_values() {
        let (_, trace) = capture(|| {
            let _sp = span!("fit", rows = 12u64, name = "reduce1", frac = 0.5f64);
        });
        let sp = &trace.spans[0];
        assert_eq!(sp.attrs[0], ("rows", AttrValue::UInt(12)));
        assert_eq!(sp.attrs[1], ("name", AttrValue::Str("reduce1".into())));
        assert_eq!(sp.attrs[2], ("frac", AttrValue::Float(0.5)));
    }

    #[test]
    fn spans_open_across_drain_are_discarded() {
        let _session = lock_ignoring_poison(&RECORDER.session);
        let _ = drain();
        enable();
        let stale = span!("stale");
        disable();
        let trace = drain(); // bumps the epoch while `stale` is open
        assert!(trace.spans.is_empty());
        enable();
        drop(stale); // must not record into the new epoch
        disable();
        let trace = drain();
        assert!(trace.spans.is_empty(), "stale span crossed epochs");
    }

    #[test]
    fn non_lifo_drop_keeps_stack_consistent() {
        let (_, trace) = capture(|| {
            let a = span!("a");
            let b = span!("b");
            drop(a); // out of order
            let c = span!("c"); // must parent to b (still open), not a
            let c_parent = trace_parent(&c);
            assert_eq!(c_parent, b.id());
        });
        assert_eq!(trace.spans.len(), 3);
    }

    #[test]
    fn capture_disables_even_on_panic() {
        let result = std::panic::catch_unwind(|| {
            capture(|| {
                let _sp = span!("doomed");
                panic!("boom");
            })
        });
        assert!(result.is_err());
        assert!(!enabled(), "recorder left enabled after panic");
        // And a later capture starts clean.
        let (_, trace) = capture(|| {});
        assert!(trace.spans.is_empty());
    }
}
