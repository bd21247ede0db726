//! `amrviz-obs` — lightweight observability for the compression→viz pipeline.
//!
//! The paper's analysis hinges on *where* time and error appear in the
//! pipeline (compress level-by-level → decompress → extract → score), so
//! every stage of the workspace reports into a single global recorder:
//!
//! * **Spans** — [`span!`] returns a guard that measures wall time and, when
//!   recording is enabled, captures name, key/value fields, thread id, and
//!   parent span (nesting is tracked per thread, safe under worker-pool fan-out).
//! * **Counters** — [`counter!`] accumulates monotonic totals (bytes
//!   in/out, quantizer outliers, triangles emitted, crack rim edges).
//! * **Histograms** — [`histogram!`] records `u64` samples into log-bucketed
//!   [`hist::Histogram`]s (per-piece latencies, blob sizes, hit rates) whose
//!   buckets are commutative integer sums, so p50/p90/p99 are identical at
//!   any thread count for the same multiset of samples.
//! * **Memory** — with [`mem::CountingAlloc`] installed as the global
//!   allocator, every span carries `mem_net_bytes` / `mem_peak_bytes`
//!   attribution (see [`mem`]).
//! * **Exporters** — [`chrome::render_chrome_trace`] emits a
//!   `chrome://tracing` / Perfetto `traceEvents` file;
//!   every other exporter renders one span tree of [`summary::SpanAgg`]
//!   nodes, keyed by stage and level: [`summary::build`] as a summary with
//!   percentages, [`flame::write_flamegraph_events`] as collapsed stacks or
//!   a self-contained HTML flamegraph.
//! * **Continuous operation** — every root span starts a **trace**
//!   (deterministic splitmix-derived `trace_id`, propagated across
//!   `amrviz-par` workers via [`current_context`] / [`context_scope`]);
//!   completed spans can stream to a JSONL [`journal`]. Recorder cells
//!   are totals since the last [`reset`]; rolling windows, SLOs and tail
//!   exemplars are request vocabulary and live with `amrviz-serve`.
//!
//! # Overhead
//!
//! Recording is **off by default**. A disabled [`SpanGuard`] is a pair of
//! `Instant` reads with no allocation and no locking, so instrumented code
//! can use `span!(..).finish()` as its only timing source (the reported
//! seconds and the trace can never disagree). Counters are meant to be
//! batched — callers tally per block/fab/mesh and report once — so the
//! per-value fast paths never touch the recorder. When enabled, completed
//! spans are pushed into one store under one lock; that lock per *span*
//! (not per value) is negligible next to the work a span wraps. A process
//! that only streams a journal turns recording on with [`enable_streaming`]
//! instead, and keeps no span at all.
//!
//! ```
//! amrviz_obs::reset();
//! amrviz_obs::enable();
//! {
//!     let _outer = amrviz_obs::span!("compress", level = 1usize);
//!     amrviz_obs::counter!("bytes_in", 4096usize);
//! }
//! let events = amrviz_obs::events_snapshot();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "compress");
//! assert_eq!(amrviz_obs::counters_snapshot()["bytes_in"], 4096);
//! amrviz_obs::disable();
//! ```

pub mod chrome;
pub mod flame;
pub mod hist;
pub mod journal;
pub mod mem;
pub mod summary;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    Int(i64),
    Float(f64),
    Str(String),
}

impl FieldValue {
    /// Renders the value as a JSON literal (floats use exponent notation;
    /// non-finite floats become `null`).
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Int(v) => v.to_string(),
            FieldValue::Float(v) => {
                if v.is_finite() {
                    format!("{v:e}")
                } else {
                    "null".to_string()
                }
            }
            FieldValue::Str(s) => format!("\"{}\"", amrviz_json::escape(s)),
        }
    }

    /// Integer view, when the value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            FieldValue::Int(v) => Some(*v),
            _ => None,
        }
    }
}

macro_rules! field_from_int {
    ($($t:ty),*) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::Int(v as i64)
            }
        })*
    };
}

field_from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::Float(v as f64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Unique id (creation order; parents always have smaller ids).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Trace this span belongs to. Every root span starts a trace whose id
    /// is splitmix-derived from the trace seed and the root's creation
    /// ordinal, so for a fixed workload the *k*-th trace has the same id
    /// at any `AMRVIZ_THREADS`.
    pub trace_id: u64,
    pub name: &'static str,
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Small sequential thread id (not the OS id).
    pub thread: u64,
    /// Start time in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Net bytes allocated minus freed on this thread while the span was
    /// active (0 unless [`mem::CountingAlloc`] is installed). Negative when
    /// the span freed more than it allocated.
    pub mem_net_bytes: i64,
    /// This thread's allocation high-water mark above the span's entry
    /// level (same availability as `mem_net_bytes`).
    pub mem_peak_bytes: u64,
}

impl SpanEvent {
    /// The `level = N` field, if the span carries one.
    pub fn level(&self) -> Option<i64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == "level")
            .and_then(|(_, v)| v.as_int())
    }
}

struct Recorder {
    enabled: AtomicBool,
    /// Whether finished spans are kept in `events` for a batch reader, or
    /// only streamed to the journal (see [`enable_streaming`]).
    retain: AtomicBool,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    /// Trace creation ordinal (0-based). Roots are created in program
    /// order on the submitting thread, so this sequence — and therefore
    /// the derived trace ids — is thread-count invariant.
    next_trace: AtomicU64,
    epoch: Instant,
    store: Mutex<Store>,
}

/// Everything recorded since the last [`reset`].
#[derive(Default)]
struct Store {
    events: Vec<SpanEvent>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, hist::Histogram>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            retain: AtomicBool::new(false),
            // 0 means "no parent", so real ids start at 1.
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            next_trace: AtomicU64::new(0),
            epoch: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }
}

/// Nanoseconds since the recorder epoch (process-global monotonic origin
/// shared by span `start_ns` values and journal `ts_ns` stamps).
pub fn epoch_elapsed_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(Recorder::new)
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small sequential id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|c| {
        let v = c.get();
        if v != u64::MAX {
            v
        } else {
            let id = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
            c.set(id);
            id
        }
    })
}

/// Id of the innermost span active on this thread (0 when none); the
/// `parent` half of a [`TraceContext`].
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

thread_local! {
    /// Ambient trace id for the calling thread; 0 outside any trace.
    static TRACE_STATE: Cell<u64> = const { Cell::new(0) };
}

/// Seed from which trace ids are derived (mixable per run: `repro` feeds
/// its `--seed` here so trace ids are reproducible across reruns).
static TRACE_SEED: AtomicU64 = AtomicU64::new(0xa317);

/// Sets the seed mixed into every derived trace id. Call before the first
/// root span of a run (typically right after [`enable`]).
pub fn set_trace_seed(seed: u64) {
    TRACE_SEED.store(seed, Ordering::Relaxed);
}

/// Trace id of the innermost active trace on this thread (0 when none).
pub fn current_trace_id() -> u64 {
    TRACE_STATE.with(|t| t.get())
}

/// Everything a pool worker needs to continue the submitter's causal
/// chain: ambient parent span plus trace identity. Capture on the
/// submitting thread with [`current_context`], re-establish on the worker
/// with [`context_scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Innermost active span id on the capturing thread (0 when none).
    pub parent: u64,
    /// Trace the capturing thread is inside (0 when none).
    pub trace: u64,
}

/// Captures the calling thread's ambient trace context.
pub fn current_context() -> TraceContext {
    TraceContext {
        parent: current_span_id(),
        trace: current_trace_id(),
    }
}

/// RAII guard holding a restored [`TraceContext`] on a worker thread:
/// spans opened under a `ContextScope` both nest under the submitting
/// span *and* join its trace.
pub struct ContextScope {
    pushed: bool,
    prev: u64,
}

/// Re-establishes `ctx` as the calling thread's ambient context.
pub fn context_scope(ctx: TraceContext) -> ContextScope {
    let pushed = ctx.parent != 0 && is_enabled();
    if pushed {
        SPAN_STACK.with(|s| s.borrow_mut().push(ctx.parent));
    }
    let prev = TRACE_STATE.with(|t| t.replace(ctx.trace));
    ContextScope { pushed, prev }
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        if self.pushed {
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        TRACE_STATE.with(|t| t.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Self-accounting
// ---------------------------------------------------------------------------

/// Span events pushed since the last [`reset`].
static SPANS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Recorder meta-metrics (read by `repro obs-overhead`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaSnapshot {
    /// Span events recorded since the last [`reset`].
    pub spans_recorded: u64,
    /// Journal lines accepted since process start.
    pub journal_enqueued: u64,
    /// Journal lines evicted by backpressure since process start.
    pub journal_dropped: u64,
}

/// Snapshot of the recorder's self-accounting meta-metrics.
pub fn meta_snapshot() -> MetaSnapshot {
    MetaSnapshot {
        spans_recorded: SPANS_RECORDED.load(Ordering::Relaxed),
        journal_enqueued: journal::enqueued(),
        journal_dropped: journal::dropped(),
    }
}

/// Turns recording on, keeping every finished span for a batch reader
/// ([`events_snapshot`] and the exporters built on it). Span/counter calls
/// before this are free no-ops.
pub fn enable() {
    recorder().retain.store(true, Ordering::Relaxed);
    recorder().enabled.store(true, Ordering::Relaxed);
}

/// Turns recording on for a [`journal`] alone: finished spans stream to it
/// and are not kept, so a long-running process holds no event per span
/// (counters and histograms record as under [`enable`]).
pub fn enable_streaming() {
    recorder().retain.store(false, Ordering::Relaxed);
    recorder().enabled.store(true, Ordering::Relaxed);
}

/// Turns recording off (already-recorded data is kept until [`reset`]).
pub fn disable() {
    recorder().enabled.store(false, Ordering::Relaxed);
}

/// Whether spans and counters are currently being recorded.
#[inline]
pub fn is_enabled() -> bool {
    // Cold until `enable()` is called; a relaxed load is the entire cost of
    // a disabled probe.
    RECORDER
        .get()
        .is_some_and(|r| r.enabled.load(Ordering::Relaxed))
}

/// Clears all recorded events, counters and histograms, zeroes the
/// span tally of [`meta_snapshot`], and collapses the global allocation
/// high-water mark back to the current live count (enabled state, thread
/// ids, and the trace ordinal counter are kept). Successive measurements
/// therefore never inherit a stale distribution or peak from an earlier
/// experiment. This is the **only** operation that lowers a total.
///
/// # Reset during active spans
///
/// `reset()` is safe to call while spans are in flight on any thread (the
/// long-running / `serve`-shaped use case). It cannot panic and cannot
/// corrupt the per-thread watermark stacks in [`mem`]:
///
/// * Span state lives in each guard and in per-thread stacks; `reset` only
///   clears the *completed* events. An active [`SpanGuard`] keeps
///   its id/parent/start and records normally into the fresh store when
///   it finishes (its `start_ns` predates the reset — callers slicing by
///   time can drop it; exporters handle it like any orphan).
/// * [`mem::reset_peak`] collapses only the *global* high-water mark.
///   Per-thread watermark frames are owned by the active guards
///   themselves, so `frame_exit` still pairs with its `frame_enter` and
///   thread-local peaks stay internally consistent (see
///   `mem::tests::reset_peak_during_active_frames_is_safe`).
pub fn reset() {
    *store() = Store::default();
    SPANS_RECORDED.store(0, Ordering::Relaxed);
    mem::reset_peak();
}

/// Locks a mutex, recovering from poisoning (a panicking instrumented
/// thread must not take the whole recorder down).
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn store() -> std::sync::MutexGuard<'static, Store> {
    lock_clean(&recorder().store)
}

/// Adds `delta` to the named monotonic counter.
///
/// # Disabled behaviour
///
/// This is a **silent no-op whenever recording is disabled** — including
/// when recording is turned off *mid-span*: a counter increment that races
/// with [`disable`] may or may not land, and nothing is buffered for a
/// later [`enable`]. Callers needing exact totals must keep the recorder
/// enabled for the whole measured region (the pattern used by `repro`:
/// `reset` → `enable` → work → snapshot).
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *store().counters.entry(name).or_default() += delta;
}

/// Records one `u64` sample into the named histogram. No-op while
/// disabled (same semantics as [`counter_add`]).
pub fn histogram_record(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    store().hists.entry(name).or_default().record(value);
}

/// Snapshot of all histograms (every sample since the last [`reset`]).
/// Recording is a bucket-wise integer sum, so the result is independent of
/// which thread recorded which sample.
pub fn histograms_snapshot() -> BTreeMap<&'static str, hist::Histogram> {
    store().hists.clone()
}

/// Snapshot of all counters (monotonic since the last [`reset`]).
pub fn counters_snapshot() -> BTreeMap<&'static str, u64> {
    store().counters.clone()
}

/// Snapshot of all completed spans, ordered by start time.
pub fn events_snapshot() -> Vec<SpanEvent> {
    let mut out = store().events.clone();
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// The recorded state of an enabled span (absent when recording is off).
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    thread: u64,
    start_ns: u64,
    mem: mem::MemFrame,
    /// Trace identity inherited (non-root) or freshly derived (root).
    trace: u64,
    /// For root spans: the thread's previous `TRACE_STATE`, restored when
    /// the root finishes. `None` for non-root spans (they never touch it).
    prev_trace: Option<u64>,
}

/// RAII timer for one pipeline stage. Always measures wall time (so
/// [`SpanGuard::finish`] can replace ad-hoc `Instant` pairs); records an
/// event only while the recorder is enabled.
pub struct SpanGuard {
    start: Instant,
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Starts a span. Prefer the [`span!`] macro, which skips building the
    /// field vector while recording is disabled.
    pub fn with_fields(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Self {
        let active = if is_enabled() {
            let r = recorder();
            let id = r.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied().unwrap_or(0);
                s.push(id);
                parent
            });
            let (trace, prev_trace) = if parent == 0 {
                // Root span: start a new trace. The id is derived from the
                // trace seed and the root's creation ordinal, so the k-th
                // trace of a fixed workload has the same id at any thread
                // count.
                let ordinal = r.next_trace.fetch_add(1, Ordering::Relaxed);
                let mut sm = TRACE_SEED.load(Ordering::Relaxed) ^ ordinal;
                let trace = amrviz_rng::splitmix64(&mut sm).max(1);
                (trace, Some(TRACE_STATE.with(|t| t.replace(trace))))
            } else {
                // Nested span: inherit the ambient trace (set either by an
                // enclosing root on this thread or by a ContextScope on a
                // pool worker).
                (current_trace_id(), None)
            };
            let a = ActiveSpan {
                id,
                parent,
                name,
                fields,
                thread: thread_id(),
                start_ns: r.epoch.elapsed().as_nanos() as u64,
                mem: mem::frame_enter(),
                trace,
                prev_trace,
            };
            Some(a)
        } else {
            None
        };
        SpanGuard {
            start: Instant::now(),
            active,
        }
    }

    /// Attaches a field after creation (e.g. an output size known only at
    /// the end of the stage). No-op while disabled.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = self.active.as_mut() {
            a.fields.push((key, value.into()));
        }
    }

    /// Ends the span, returning its wall time in seconds — valid whether or
    /// not recording is enabled, so callers can use it as their only timer.
    ///
    /// Exception: if recording was **disabled mid-span** (enabled at span
    /// start, disabled before `finish`), the half-recorded measurement is
    /// discarded — no event is pushed and `finish` returns `0.0` rather
    /// than a duration the recorder never saw. A span started while
    /// disabled still returns its true wall time.
    pub fn finish(mut self) -> f64 {
        self.record()
    }

    fn record(&mut self) -> f64 {
        let dur = self.start.elapsed();
        if let Some(a) = self.active.take() {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Guards are scoped, so the top of the stack is this span;
                // be defensive anyway in case of leaked guards.
                if s.last() == Some(&a.id) {
                    s.pop();
                } else {
                    s.retain(|&id| id != a.id);
                }
            });
            // A finishing root ends its trace on this thread regardless of
            // the enabled flag — ambient state must not leak.
            if let Some(prev) = a.prev_trace {
                TRACE_STATE.with(|t| t.set(prev));
            }
            let (mem_net_bytes, mem_peak_bytes) = mem::frame_exit(a.mem);
            if !is_enabled() {
                // Disabled mid-span: the event would be a torn measurement
                // (its counters and children may be partially dropped), so
                // discard it and report 0.0 instead of a stale duration.
                return 0.0;
            }
            let dur_ns = dur.as_nanos() as u64;
            if journal::is_active() {
                let mut body = format!(
                    "\"name\":\"{}\",\"trace\":\"{:016x}\",\"span\":{},\"parent\":{},\
                     \"thread\":{},\"start_ns\":{},\"dur_ns\":{}",
                    amrviz_json::escape(a.name),
                    a.trace,
                    a.id,
                    a.parent,
                    a.thread,
                    a.start_ns,
                    dur_ns
                );
                if !a.fields.is_empty() {
                    body.push_str(",\"fields\":{");
                    for (i, (k, v)) in a.fields.iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        body.push_str(&format!("\"{}\":{}", amrviz_json::escape(k), v.to_json()));
                    }
                    body.push('}');
                }
                journal::push_raw("span", &body);
            }
            let r = recorder();
            if !r.retain.load(Ordering::Relaxed) {
                return dur.as_secs_f64();
            }
            store().events.push(SpanEvent {
                id: a.id,
                parent: a.parent,
                trace_id: a.trace,
                name: a.name,
                fields: a.fields,
                thread: a.thread,
                start_ns: a.start_ns,
                dur_ns,
                mem_net_bytes,
                mem_peak_bytes,
            });
            SPANS_RECORDED.fetch_add(1, Ordering::Relaxed);
        }
        dur.as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

/// Starts a [`SpanGuard`]: `span!("compress", level = 2, bytes = n)`.
///
/// Field *values* are evaluated only when recording is enabled; keep them
/// side-effect free.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::with_fields($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let fields = if $crate::is_enabled() {
            ::std::vec![$((::core::stringify!($key), $crate::FieldValue::from($value))),+]
        } else {
            ::std::vec::Vec::new()
        };
        $crate::SpanGuard::with_fields($name, fields)
    }};
}

/// Adds to a monotonic counter: `counter!("bytes_out", blob.len())`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta as u64)
    };
}

/// Records a histogram sample: `histogram!("compress.blob_bytes", blob.len())`.
///
/// The *value* expression is always evaluated (keep it a cheap cast);
/// recording itself is a no-op while disabled.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram_record($name, $value as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global recorder.
    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The recording the exporters' pinned renderings are taken from:
    /// `level` fields, a repeated root, a child with its parent's key, an
    /// orphan whose parent was never recorded, and memory peaks in each
    /// unit the flamegraph prints.
    pub(crate) fn fixture_events() -> Vec<SpanEvent> {
        let ev = |id, parent, name, level: Option<i64>, dur_ns, mem_peak_bytes| SpanEvent {
            id,
            parent,
            trace_id: 0xfeed,
            name,
            fields: level.map_or(Vec::new(), |l| vec![("level", FieldValue::Int(l))]),
            thread: 0,
            start_ns: id * 10,
            dur_ns,
            mem_net_bytes: 0,
            mem_peak_bytes,
        };
        vec![
            ev(1, 0, "compress", None, 1_000_000_000, 4_096),
            ev(2, 1, "compress.level", Some(0), 300_000_000, 1_000),
            ev(3, 1, "compress.level", Some(1), 600_000_000, 3_500_000),
            ev(4, 0, "extract", None, 500_000_000, 0),
            ev(5, 2, "compress.level", Some(0), 50_000_000, 0),
            ev(6, 0, "extract", None, 250_000_000, 2_048),
            ev(8, 6, "extract.level", Some(1), 250_000_000, 0),
            ev(9, 7, "lost", None, 42, 0),
        ]
    }

    #[test]
    fn disabled_spans_record_nothing_but_still_time() {
        let _g = guard();
        disable();
        reset();
        let sp = span!("quiet", level = 3usize);
        let secs = sp.finish();
        assert!(secs >= 0.0);
        counter!("quiet_counter", 7u64);
        assert!(events_snapshot().is_empty());
        assert!(counters_snapshot().is_empty());
    }

    #[test]
    fn a_journal_alone_streams_every_span_and_keeps_none() {
        let _g = guard();
        let path = std::env::temp_dir().join(format!("amrviz_js_{}.jsonl", std::process::id()));
        reset();
        journal::start(&path).unwrap();
        enable_streaming();
        for i in 0..40usize {
            let _piece = span!("decode_piece", piece = i);
            let _inner = span!("szlr.decompress");
        }
        disable();
        journal::stop();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("\"kind\":\"span\"").count(),
            80,
            "a line per span"
        );
        assert!(events_snapshot().is_empty(), "no span is kept");
        enable();
        span!("kept").finish();
        disable();
        assert_eq!(events_snapshot().len(), 1, "`enable` keeps spans again");
        reset();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enabled_span_records_fields_and_duration() {
        let _g = guard();
        reset();
        enable();
        {
            let mut sp = span!("stage", level = 2usize, eb = 1e-3f64);
            sp.add_field("bytes", 123usize);
            let secs = sp.finish();
            assert!(secs >= 0.0);
        }
        disable();
        let ev = events_snapshot();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].name, "stage");
        assert_eq!(ev[0].level(), Some(2));
        assert_eq!(ev[0].parent, 0);
        assert!(ev[0]
            .fields
            .iter()
            .any(|(k, v)| *k == "bytes" && v.as_int() == Some(123)));
    }

    #[test]
    fn counters_accumulate() {
        let _g = guard();
        reset();
        enable();
        counter!("bytes", 10u64);
        counter!("bytes", 32usize);
        disable();
        assert_eq!(counters_snapshot()["bytes"], 42);
    }

    #[test]
    fn root_spans_start_traces_and_children_inherit() {
        let _g = guard();
        reset();
        enable();
        assert_eq!(current_trace_id(), 0, "no ambient trace outside spans");
        {
            let root = span!("root");
            let trace = current_trace_id();
            assert_ne!(trace, 0, "root must start a trace");
            {
                let child = span!("child");
                assert_eq!(current_trace_id(), trace, "children inherit");
                child.finish();
            }
            root.finish();
        }
        assert_eq!(current_trace_id(), 0, "trace ends with its root");
        {
            let _second = span!("root2");
            // Fresh ordinal → distinct trace id.
            assert_ne!(current_trace_id(), 0);
        }
        disable();
        let ev = events_snapshot();
        let root_ev = ev.iter().find(|e| e.name == "root").unwrap();
        let child_ev = ev.iter().find(|e| e.name == "child").unwrap();
        let second_ev = ev.iter().find(|e| e.name == "root2").unwrap();
        assert_eq!(child_ev.trace_id, root_ev.trace_id);
        assert_eq!(child_ev.parent, root_ev.id);
        assert_ne!(second_ev.trace_id, root_ev.trace_id);
    }

    #[test]
    fn context_scope_stitches_worker_spans_into_the_trace() {
        let _g = guard();
        reset();
        enable();
        let root = span!("root");
        let ctx = current_context();
        assert_ne!(ctx.parent, 0);
        assert_ne!(ctx.trace, 0);
        let handle = std::thread::spawn(move || {
            let _scope = context_scope(ctx);
            assert_eq!(current_trace_id(), ctx.trace);
            span!("work").finish();
        });
        handle.join().unwrap();
        root.finish();
        disable();
        let ev = events_snapshot();
        let root_ev = ev.iter().find(|e| e.name == "root").unwrap();
        let work_ev = ev.iter().find(|e| e.name == "work").unwrap();
        assert_eq!(work_ev.parent, root_ev.id, "worker span nests under root");
        assert_eq!(work_ev.trace_id, root_ev.trace_id, "one stitched trace");
        assert_ne!(work_ev.thread, root_ev.thread);
    }

    #[test]
    fn reset_during_active_span_cannot_corrupt_state() {
        let _g = guard();
        reset();
        enable();
        let outer = span!("outer");
        let ballast: Vec<u8> = vec![7u8; 1 << 16];
        // Reset mid-span: clears completed events + global peak only. The
        // active guard keeps its frame, so the exit pairs cleanly.
        reset();
        drop(ballast);
        let inner = span!("inner");
        inner.finish();
        let secs = outer.finish();
        assert!(secs >= 0.0);
        disable();
        let ev = events_snapshot();
        assert_eq!(ev.len(), 2, "both spans land in the fresh store");
        let outer_ev = ev.iter().find(|e| e.name == "outer").unwrap();
        let inner_ev = ev.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner_ev.parent, outer_ev.id, "nesting survives the reset");
        assert_eq!(inner_ev.trace_id, outer_ev.trace_id);
    }

    #[test]
    fn overhead_meta_metrics_accumulate_and_reset() {
        let _g = guard();
        reset();
        enable();
        for _ in 0..10 {
            span!("meta_probe").finish();
            counter!("meta.c", 1u64);
        }
        disable();
        assert_eq!(meta_snapshot().spans_recorded, 10);
        reset();
        assert_eq!(meta_snapshot().spans_recorded, 0);
    }

    #[test]
    fn field_value_json_forms() {
        assert_eq!(FieldValue::from(3usize).to_json(), "3");
        assert_eq!(FieldValue::from(-2i64).to_json(), "-2");
        assert_eq!(FieldValue::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(FieldValue::from(f64::NAN).to_json(), "null");
        let j = FieldValue::from(1e-3f64).to_json();
        assert!(j.contains('e'), "float json should be exponent form: {j}");
    }
}
