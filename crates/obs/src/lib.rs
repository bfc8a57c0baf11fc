//! `ldiv-trace`: request-scoped tracing, stage timing, and latency
//! histograms for the l-diversity pipeline.
//!
//! Design constraints (mirroring `ldiv-guard`'s fault layer):
//!
//! * **std-only, zero-dep** — sits at the bottom of the crate graph so
//!   every layer (exec, guard, shard, store, server, cli, bench) can
//!   emit spans without cycles.
//! * **Disarmed by default.** When tracing is off, every instrumentation
//!   point costs exactly one relaxed atomic load. Arm via [`set_armed`]
//!   (the `ldiv` binary calls it at startup when `LDIV_TRACE` is set).
//! * **Execution-only.** Nothing here may feed `Params::canonical()`,
//!   cache keys, or any published byte. Byte-identity suites must pass
//!   with tracing armed; the trace machinery only *observes* wall time.
//!
//! The span model: a request opens a trace ([`begin`]); code inside the
//! request records named child spans ([`span`] / [`span_labeled`]) which
//! land in a per-thread buffer and are flushed under one short lock when
//! the thread's context unwinds. Worker threads join a trace explicitly
//! via [`context`] + [`with_context`] (the fork-join seam in `ldiv-exec`
//! does this), so spans parent correctly across threads. Completed
//! traces go to a bounded global ring ([`recent_traces`]) that backs the
//! server's `GET /trace` endpoint and the CLI `--trace` table. A trace
//! whose wall time crosses the [`set_slow_ms`] threshold (`LDIV_SLOW_MS`
//! for the `ldiv` binary) is additionally logged to stderr as
//! single-line JSON.

pub mod hist;
pub mod registry;

pub use hist::{percentile, Histogram, BUCKET_BOUNDS_NS};
pub use registry::{validate_prometheus, Counter, HistogramFamily, Registry, Sample};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity of the global completed-trace ring.
pub const TRACE_RING_CAP: usize = 64;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Slow-log threshold in milliseconds; 0 means disabled.
static SLOW_MS: AtomicU64 = AtomicU64::new(0);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static RING: Mutex<Vec<Arc<FinishedTrace>>> = Mutex::new(Vec::new());

/// Returns whether tracing is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms or disarms tracing (the `ldiv` binary's `LDIV_TRACE`, CLI
/// `--trace`, tests, benches).
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Sets the slow-request threshold (milliseconds; 0, the default,
/// disables the slow log).
pub fn set_slow_ms(ms: u64) {
    SLOW_MS.store(ms, Ordering::Relaxed);
}

/// One recorded span. `parent == 0` marks a root span; ids are assigned
/// in creation order within a trace, starting at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its trace (1-based).
    pub id: u32,
    /// Parent span id, or 0 for spans opened directly under the trace.
    pub parent: u32,
    /// Static stage name, e.g. `"shard:anonymize"`.
    pub name: &'static str,
    /// Optional dynamic label, e.g. `"mondrian#3"`. Empty when unused.
    pub label: String,
    /// Start offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct TraceInner {
    id: u64,
    name: &'static str,
    started: Instant,
    next_span: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
    meta: Mutex<Vec<(&'static str, String)>>,
}

impl TraceInner {
    fn next_id(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn flush(&self, buf: &mut Vec<SpanRecord>) {
        if buf.is_empty() {
            return;
        }
        self.spans.lock().unwrap().append(buf);
    }
}

struct ThreadCtx {
    trace: Arc<TraceInner>,
    parent: u32,
    buf: Vec<SpanRecord>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Aggregate of all spans sharing a stage name within one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// The stage (span) name.
    pub stage: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// A completed trace: immutable span list plus wall time and metadata.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Process-unique trace id.
    pub id: u64,
    /// Root name given to [`begin`] (e.g. `"request"`).
    pub name: &'static str,
    /// Total wall time of the trace in nanoseconds.
    pub wall_ns: u64,
    /// Key/value annotations added via [`annotate`], in insertion order.
    pub meta: Vec<(&'static str, String)>,
    /// All recorded spans, sorted by id (creation order).
    pub spans: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Trace id rendered as 16 lowercase hex digits.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// Looks up an annotation by key (first match).
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Per-stage totals aggregated by span name, in first-seen order.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        let mut totals: Vec<StageTotal> = Vec::new();
        for span in &self.spans {
            match totals.iter_mut().find(|t| t.stage == span.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += span.dur_ns;
                }
                None => totals.push(StageTotal {
                    stage: span.name,
                    count: 1,
                    total_ns: span.dur_ns,
                }),
            }
        }
        totals
    }

    /// Sum of durations over leaf spans (spans that parent no other span).
    ///
    /// With sequential execution leaves nest inside their ancestors, so
    /// this is ≤ `wall_ns`; the gap is un-instrumented glue. Under
    /// parallel shard execution leaf time can exceed wall time (that is
    /// the speedup), so tolerance checks should pin threads/shards to 1.
    pub fn leaf_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !self.spans.iter().any(|c| c.parent == s.id))
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// Formats the single-line JSON emitted to stderr for slow requests.
/// Exposed so tests can pin the shape without capturing stderr.
pub fn slow_log_line(trace: &FinishedTrace) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"slow_request\":true,\"trace\":\"");
    out.push_str(&trace.id_hex());
    out.push_str("\",\"name\":\"");
    push_json_escaped(&mut out, trace.name);
    out.push_str("\",\"wall_ms\":");
    let wall_ms = trace.wall_ns as f64 / 1e6;
    out.push_str(&format!("{:.3}", wall_ms));
    out.push_str(",\"spans\":");
    out.push_str(&trace.spans.len().to_string());
    for (k, v) in &trace.meta {
        out.push_str(",\"");
        push_json_escaped(&mut out, k);
        out.push_str("\":\"");
        push_json_escaped(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

fn push_json_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Handle for an in-flight trace. Dropping (or calling
/// [`finish`](ActiveTrace::finish)) completes the trace: flushes this
/// thread's span buffer, pushes the result onto the global ring, and
/// emits the slow-request log if the threshold is crossed.
///
/// Must be completed on the thread that called [`begin`].
pub struct ActiveTrace {
    inner: Option<Arc<TraceInner>>,
}

impl ActiveTrace {
    /// Trace id rendered as 16 lowercase hex digits.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.inner.as_ref().map(|t| t.id).unwrap_or(0))
    }

    /// Completes the trace and returns it.
    pub fn finish(mut self) -> Arc<FinishedTrace> {
        let inner = self.inner.take().expect("trace already finished");
        complete(inner)
    }
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let _ = complete(inner);
        }
    }
}

fn complete(inner: Arc<TraceInner>) -> Arc<FinishedTrace> {
    // Flush this thread's buffer if it still points at this trace.
    CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        let ours = cur
            .as_ref()
            .map(|ctx| Arc::ptr_eq(&ctx.trace, &inner))
            .unwrap_or(false);
        if ours {
            if let Some(mut ctx) = cur.take() {
                inner.flush(&mut ctx.buf);
            }
        }
    });
    let wall_ns = inner.started.elapsed().as_nanos() as u64;
    let mut spans = std::mem::take(&mut *inner.spans.lock().unwrap());
    spans.sort_by_key(|s| s.id);
    let meta = std::mem::take(&mut *inner.meta.lock().unwrap());
    let finished = Arc::new(FinishedTrace {
        id: inner.id,
        name: inner.name,
        wall_ns,
        meta,
        spans,
    });
    {
        let mut ring = RING.lock().unwrap();
        if ring.len() >= TRACE_RING_CAP {
            ring.remove(0);
        }
        ring.push(Arc::clone(&finished));
    }
    let threshold = SLOW_MS.load(Ordering::Relaxed);
    if threshold > 0 && wall_ns >= threshold.saturating_mul(1_000_000) {
        eprintln!("{}", slow_log_line(&finished));
    }
    finished
}

/// Starts a trace on this thread. Returns `None` when tracing is
/// disarmed or a trace is already active on this thread (the outer
/// trace wins, so a connection-level trace subsumes handler-level
/// fallbacks).
pub fn begin(name: &'static str) -> Option<ActiveTrace> {
    if !armed() {
        return None;
    }
    let already = CURRENT.with(|cur| cur.borrow().is_some());
    if already {
        return None;
    }
    let inner = Arc::new(TraceInner {
        id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        name,
        started: Instant::now(),
        next_span: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
        meta: Mutex::new(Vec::new()),
    });
    CURRENT.with(|cur| {
        *cur.borrow_mut() = Some(ThreadCtx {
            trace: Arc::clone(&inner),
            parent: 0,
            buf: Vec::new(),
        });
    });
    Some(ActiveTrace { inner: Some(inner) })
}

/// Hex id of the trace active on this thread, if any.
pub fn current_trace_id_hex() -> Option<String> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.with(|cur| {
        cur.borrow()
            .as_ref()
            .map(|ctx| format!("{:016x}", ctx.trace.id))
    })
}

/// Attaches a key/value annotation to the active trace (no-op without one).
pub fn annotate(key: &'static str, value: String) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(ctx) = cur.borrow().as_ref() {
            ctx.trace.meta.lock().unwrap().push((key, value));
        }
    });
}

/// RAII guard recording one span; created by [`span`] / [`span_labeled`].
pub struct Span {
    state: Option<SpanState>,
}

struct SpanState {
    id: u32,
    parent: u32,
    name: &'static str,
    label: String,
    start: Instant,
    start_ns: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let dur_ns = state.start.elapsed().as_nanos() as u64;
        CURRENT.with(|cur| {
            let mut cur = cur.borrow_mut();
            if let Some(ctx) = cur.as_mut() {
                ctx.parent = state.parent;
                ctx.buf.push(SpanRecord {
                    id: state.id,
                    parent: state.parent,
                    name: state.name,
                    label: state.label,
                    start_ns: state.start_ns,
                    dur_ns,
                });
            }
        });
    }
}

/// Opens an unlabeled span under the active trace. Costs one relaxed
/// atomic load when tracing is disarmed or no trace is active.
pub fn span(name: &'static str) -> Span {
    span_inner(name, None::<fn() -> String>)
}

/// Opens a span with a lazily-computed label (the closure only runs when
/// a trace is actually recording, so labels are free when disarmed).
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    span_inner(name, Some(label))
}

fn span_inner<F: FnOnce() -> String>(name: &'static str, label: Option<F>) -> Span {
    if !ARMED.load(Ordering::Relaxed) {
        return Span { state: None };
    }
    CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        let Some(ctx) = cur.as_mut() else {
            return Span { state: None };
        };
        let id = ctx.trace.next_id();
        let parent = ctx.parent;
        ctx.parent = id;
        let start = Instant::now();
        let start_ns = start.duration_since(ctx.trace.started).as_nanos() as u64;
        Span {
            state: Some(SpanState {
                id,
                parent,
                name,
                label: label.map(|f| f()).unwrap_or_default(),
                start,
                start_ns,
            }),
        }
    })
}

/// A capture of the active trace position, cloneable across threads.
/// Spawned workers call [`with_context`] to parent their spans under the
/// span that was open at capture time.
#[derive(Clone)]
pub struct TraceContext {
    trace: Arc<TraceInner>,
    parent: u32,
}

/// Captures the active trace position on this thread, or `None` when
/// disarmed / no trace is active.
pub fn context() -> Option<TraceContext> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.with(|cur| {
        cur.borrow().as_ref().map(|ctx| TraceContext {
            trace: Arc::clone(&ctx.trace),
            parent: ctx.parent,
        })
    })
}

/// Runs `f` with `ctx` installed as this thread's trace context,
/// restoring any previous context afterwards (including on unwind, so
/// deadline panics propagated by `ldiv-exec` flush cleanly).
pub fn with_context<R>(ctx: &Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    let Some(ctx) = ctx else {
        return f();
    };
    struct Restore {
        saved: Option<ThreadCtx>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|cur| {
                let mut cur = cur.borrow_mut();
                if let Some(mut installed) = cur.take() {
                    installed.trace.flush(&mut installed.buf);
                }
                *cur = self.saved.take();
            });
        }
    }
    let saved = CURRENT.with(|cur| {
        cur.borrow_mut().replace(ThreadCtx {
            trace: Arc::clone(&ctx.trace),
            parent: ctx.parent,
            buf: Vec::new(),
        })
    });
    let _restore = Restore { saved };
    f()
}

/// Last `n` completed traces, oldest first.
pub fn recent_traces(n: usize) -> Vec<Arc<FinishedTrace>> {
    let ring = RING.lock().unwrap();
    let skip = ring.len().saturating_sub(n);
    ring[skip..].to_vec()
}

/// Drains and returns all completed traces (oldest first). Benches use
/// this to aggregate per-stage totals over a measurement window.
pub fn take_traces() -> Vec<Arc<FinishedTrace>> {
    std::mem::take(&mut *RING.lock().unwrap())
}

/// Clears the completed-trace ring.
pub fn clear_traces() {
    RING.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; serialize tests that arm it.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn armed_guard() -> std::sync::MutexGuard<'static, ()> {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(true);
        clear_traces();
        guard
    }

    #[test]
    fn disarmed_is_inert() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(false);
        assert!(begin("request").is_none());
        let _s = span("csv:read");
        assert!(context().is_none());
        assert!(current_trace_id_hex().is_none());
    }

    #[test]
    fn spans_nest_and_flush() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        {
            let _outer = span("outer");
            let _inner = span_labeled("inner", || "x".to_string());
        }
        let _sibling = span("sibling");
        drop(_sibling);
        let finished = trace.finish();
        assert_eq!(finished.spans.len(), 3);
        let outer = finished.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = finished.spans.iter().find(|s| s.name == "inner").unwrap();
        let sib = finished.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.label, "x");
        assert_eq!(sib.parent, 0);
        assert!(finished.leaf_total_ns() <= finished.wall_ns);
    }

    #[test]
    fn nested_begin_yields_none_and_outer_wins() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        assert!(begin("request").is_none());
        assert_eq!(
            current_trace_id_hex().as_deref(),
            Some(trace.id_hex().as_str())
        );
        trace.finish();
    }

    #[test]
    fn context_carries_spans_across_threads() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        let outer = span("outer");
        let ctx = context();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    with_context(&ctx, || {
                        let _s = span_labeled("worker", || "shard#0".to_string());
                    })
                })
                .join()
                .unwrap();
        });
        drop(outer);
        let finished = trace.finish();
        let outer = finished.spans.iter().find(|s| s.name == "outer").unwrap();
        let worker = finished.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, outer.id);
        assert_eq!(worker.label, "shard#0");
    }

    #[test]
    fn with_context_restores_previous_context() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        let ctx = context();
        // Re-entrant install on the same thread (exec's calling thread
        // runs a worker closure while already holding a context).
        with_context(&ctx, || {
            let _s = span("nested");
        });
        let _after = span("after");
        drop(_after);
        let finished = trace.finish();
        assert_eq!(finished.spans.len(), 2);
        assert!(finished.spans.iter().any(|s| s.name == "after"));
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _g = armed_guard();
        for _ in 0..(TRACE_RING_CAP + 5) {
            begin("request").expect("armed").finish();
        }
        let traces = recent_traces(usize::MAX);
        assert_eq!(traces.len(), TRACE_RING_CAP);
        for pair in traces.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
        assert_eq!(recent_traces(3).len(), 3);
        assert!(!take_traces().is_empty());
        assert!(recent_traces(10).is_empty());
    }

    #[test]
    fn annotations_and_stage_totals() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        annotate("route", "/anonymize".to_string());
        {
            let _a = span("stage");
        }
        {
            let _b = span("stage");
        }
        let finished = trace.finish();
        assert_eq!(finished.meta_value("route"), Some("/anonymize"));
        let totals = finished.stage_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].stage, "stage");
        assert_eq!(totals[0].count, 2);
    }

    #[test]
    fn slow_log_line_shape() {
        let finished = FinishedTrace {
            id: 0x2a,
            name: "request",
            wall_ns: 12_345_678,
            meta: vec![
                ("route", "/anonymize".to_string()),
                ("status", "200".to_string()),
            ],
            spans: Vec::new(),
        };
        assert_eq!(
            slow_log_line(&finished),
            "{\"slow_request\":true,\"trace\":\"000000000000002a\",\"name\":\"request\",\
             \"wall_ms\":12.346,\"spans\":0,\"route\":\"/anonymize\",\"status\":\"200\"}"
        );
    }

    #[test]
    fn unwind_through_with_context_still_flushes() {
        let _g = armed_guard();
        let trace = begin("request").expect("armed");
        let ctx = context();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_context(&ctx, || {
                let _s = span("doomed");
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        let finished = trace.finish();
        // The span guard dropped during unwind while the installed
        // context was live, so the span is recorded and the restore
        // guard left this thread's state clean.
        assert!(finished.spans.iter().any(|s| s.name == "doomed"));
        let trace2 = begin("request").expect("fresh trace after unwind");
        trace2.finish();
    }
}
