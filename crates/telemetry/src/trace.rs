//! Lightweight tracing spans with a pluggable [`Recorder`].
//!
//! A [`Tracer`] hands out drop-guard [`Span`]s; each finished span is
//! delivered to the tracer's recorder and — when the tracer is built
//! over a [`Registry`] — mirrored into a `<prefix>_<name>_ns` histogram,
//! so the span taxonomy and the metric namespace stay in lock-step
//! without double instrumentation at the call sites.
//!
//! Phases whose duration is measured elsewhere (the dispatcher already
//! times queue wait; backends already time the search) are injected
//! retroactively with [`Tracer::record`] instead of wrapping them in a
//! guard — same recorder, same histograms, no second clock read.
//!
//! ## Request-scoped traces
//!
//! A [`TraceContext`] identifies one request's span tree: the
//! `trace_id` groups every span the request produced anywhere in the
//! pipeline (client, CA, dispatcher, backend), and `parent_span` names
//! the span a child should attach under. The context is `Copy`,
//! serializable, and small enough to ride inside every protocol message
//! — minted once at `hello` on the client, it crosses the wire with the
//! messages and re-enters the tracer through [`Tracer::child_span`] and
//! [`Tracer::record_in`], so the spans on both sides of the network
//! boundary stitch into a single tree. Spans produced by the
//! context-free [`Tracer::span`]/[`Tracer::record`] carry zeroed trace
//! identity and stay anonymous, exactly as before.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::{wall_clock, ClockHandle};
use crate::metrics::{Histogram, Registry};

/// Process-wide id well: every trace id and span id is a splitmix64
/// scramble of a monotone counter — unique within the process, cheap
/// (one relaxed `fetch_add`), and free of wall-clock or RNG inputs so
/// tests stay deterministic.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

use rbc_splitmix::splitmix64;

/// A fresh nonzero id (0 is reserved for "no trace"/"no parent").
fn next_id() -> u64 {
    let id = splitmix64(NEXT_ID.fetch_add(1, Ordering::Relaxed).wrapping_add(1));
    if id == 0 {
        1
    } else {
        id
    }
}

/// The wire-propagated identity of one request's span tree.
///
/// `trace_id` names the tree; `parent_span` names the node new spans
/// should attach under (0 = attach at the root). Minted at `hello` by
/// the client, carried inside every protocol message, and threaded
/// through service → dispatcher → backend so all spans of one
/// authentication share a `trace_id` across the network boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceContext {
    /// Identifies the whole request tree; 0 means "untraced".
    pub trace_id: u64,
    /// Span id of the parent node; 0 means "root of the trace".
    pub parent_span: u64,
}

impl TraceContext {
    /// The absent context: untraced spans carry this.
    pub const NONE: TraceContext = TraceContext { trace_id: 0, parent_span: 0 };

    /// Mints a fresh root context (new `trace_id`, no parent). Called
    /// once per request, at the client's `hello`.
    pub fn mint() -> TraceContext {
        TraceContext { trace_id: next_id(), parent_span: 0 }
    }

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Phase name (e.g. `prepare`, `queue_wait`, `search`, `keygen`,
    /// `auth_total`).
    pub name: &'static str,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span duration.
    pub duration: Duration,
    /// Trace this span belongs to; 0 for anonymous spans.
    pub trace_id: u64,
    /// This span's own id (unique per process); 0 only for the
    /// placeholder records inside an empty flight-recorder ring.
    pub span_id: u64,
    /// Id of the parent span; 0 = root of the trace.
    pub parent_span: u64,
}

impl SpanRecord {
    /// The context a child of this span should carry.
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, parent_span: self.span_id }
    }
}

/// Structured anomaly classes the pipeline reports alongside spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The dispatcher shed the request (queue full or budget expired).
    Shed,
    /// A search breached the protocol deadline `T` (verdict timed out).
    DeadlineBreach,
    /// A search burned prefix-prescreen hits that were all false
    /// positives and still found nothing.
    PrefixExhausted,
    /// A link-level retransmission (stop-and-wait or RPC).
    Retransmit,
    /// The chaos harness injected a fault (crash, stall, corruption,
    /// clock skew) into a backend — recorded so post-mortems can tell
    /// induced failures from organic ones.
    FaultInjected,
    /// A supervised shard was re-dispatched from its last checkpoint to
    /// a healthy backend after its original backend faulted or stalled.
    ShardResumed,
    /// An SLO burn-rate alert fired (warn or page severity — the
    /// `detail` field carries which). Emitted by the SLO evaluator, not
    /// the request path, so `trace_id` is 0.
    SloBurn,
}

impl EventKind {
    /// Stable lowercase name for rendering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Shed => "shed",
            EventKind::DeadlineBreach => "deadline_breach",
            EventKind::PrefixExhausted => "prefix_exhausted",
            EventKind::Retransmit => "retransmit",
            EventKind::FaultInjected => "fault_injected",
            EventKind::ShardResumed => "shard_resumed",
            EventKind::SloBurn => "slo_burn",
        }
    }
}

/// One structured event: an anomaly, stamped with the trace it belongs
/// to (0 for link-level events that fire below the protocol layer).
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// What happened.
    pub kind: EventKind,
    /// The request it happened to; 0 if unattributable.
    pub trace_id: u64,
    /// Offset from the emitting tracer's epoch, in nanoseconds.
    pub at_ns: u64,
    /// Short static detail (e.g. which phase breached).
    pub detail: &'static str,
}

/// Receives finished spans and structured events. Implementations must
/// be cheap and non-blocking: recorders run inline on the instrumented
/// thread.
pub trait Recorder: Send + Sync {
    /// Called once per finished span.
    fn record(&self, span: &SpanRecord);

    /// Called once per structured event. Default: ignored.
    fn event(&self, event: &EventRecord) {
        let _ = event;
    }
}

/// Discards every span — the zero-cost default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _span: &SpanRecord) {}
}

/// Buffers every span and event in memory, for tests and offline
/// analysis.
#[derive(Debug, Default)]
pub struct CollectingRecorder {
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl CollectingRecorder {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Drains everything recorded so far.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans.lock())
    }

    /// Copies out every event recorded so far.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().clone()
    }
}

impl Recorder for CollectingRecorder {
    fn record(&self, span: &SpanRecord) {
        self.spans.lock().push(*span);
    }

    fn event(&self, event: &EventRecord) {
        self.events.lock().push(*event);
    }
}

/// Produces spans against one epoch and delivers them to a recorder,
/// optionally mirroring durations into per-phase histograms of a
/// [`Registry`].
pub struct Tracer {
    epoch: Instant,
    clock: ClockHandle,
    recorder: Arc<dyn Recorder>,
    mirror: Option<Mirror>,
}

struct Mirror {
    registry: Arc<Registry>,
    prefix: &'static str,
    cache: Mutex<HashMap<&'static str, Arc<Histogram>>>,
}

impl Mirror {
    fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.cache.lock().get(name) {
            return h.clone();
        }
        let h = self.registry.histogram(&format!("{}_{}_ns", self.prefix, name));
        self.cache.lock().insert(name, h.clone());
        h
    }
}

impl Tracer {
    /// A tracer delivering spans to `recorder` only, on the wall clock.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Tracer::with_clock(recorder, wall_clock())
    }

    /// A tracer delivering spans to `recorder`, reading time (span
    /// starts, durations, event timestamps) from `clock`. The epoch is
    /// `clock.now()` at construction, so a simulated tracer's offsets
    /// are virtual nanoseconds from scenario start.
    pub fn with_clock(recorder: Arc<dyn Recorder>, clock: ClockHandle) -> Self {
        Tracer { epoch: clock.now(), clock, recorder, mirror: None }
    }

    /// A tracer that discards spans and mirrors nothing.
    pub fn disabled() -> Self {
        Tracer::new(Arc::new(NullRecorder))
    }

    /// Additionally mirrors every span of phase `name` into the
    /// histogram `<prefix>_<name>_ns` of `registry` (created on first
    /// use, then cached — one map lookup per span). Spans carrying a
    /// trace id feed the histogram's tail exemplar, so a snapshot can
    /// name the trace behind its slowest sample.
    pub fn with_registry(mut self, registry: Arc<Registry>, prefix: &'static str) -> Self {
        self.mirror = Some(Mirror { registry, prefix, cache: Mutex::new(HashMap::new()) });
        self
    }

    /// Opens an anonymous span (no trace identity); it records itself
    /// when dropped or [`finish`](Span::finish)ed.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.child_span(TraceContext::NONE, name)
    }

    /// Opens a span attached to `ctx`: same trace id, parented under
    /// `ctx.parent_span`, with a freshly minted span id. Use
    /// [`Span::context`] to parent further children under it.
    pub fn child_span(&self, ctx: TraceContext, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            name,
            start: self.clock.now(),
            done: false,
            trace_id: ctx.trace_id,
            span_id: next_id(),
            parent_span: ctx.parent_span,
        }
    }

    /// Records an anonymous phase measured elsewhere, as if a span of
    /// `duration` had just ended now.
    pub fn record(&self, name: &'static str, duration: Duration) {
        self.record_in(TraceContext::NONE, name, duration);
    }

    /// Records a phase measured elsewhere into trace `ctx`, as if a
    /// child span of `duration` had just ended now. Returns the record's
    /// context so children can still be attached under it.
    pub fn record_in(
        &self,
        ctx: TraceContext,
        name: &'static str,
        duration: Duration,
    ) -> TraceContext {
        self.record_in_ended(ctx, name, duration, Duration::ZERO)
    }

    /// Like [`Tracer::record_in`], but for a phase that ended
    /// `ended_ago` before now: the span's start is back-dated by
    /// `duration + ended_ago`, so retroactively-recorded phases keep
    /// their true order (e.g. a queue wait that ended when the search
    /// it preceded began).
    pub fn record_in_ended(
        &self,
        ctx: TraceContext,
        name: &'static str,
        duration: Duration,
        ended_ago: Duration,
    ) -> TraceContext {
        let now_ns = self.offset_ns(self.clock.now());
        let ago_ns = u64::try_from(ended_ago.as_nanos()).unwrap_or(u64::MAX);
        let end_ns = now_ns.saturating_sub(ago_ns);
        let dur_ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            duration,
            trace_id: ctx.trace_id,
            span_id: next_id(),
            parent_span: ctx.parent_span,
        };
        self.deliver(&record);
        record.context()
    }

    /// Emits a structured event stamped with this tracer's clock.
    pub fn event(&self, kind: EventKind, trace_id: u64, detail: &'static str) {
        self.recorder.event(&EventRecord {
            kind,
            trace_id,
            at_ns: self.offset_ns(self.clock.now()),
            detail,
        });
    }

    /// The clock this tracer reads (the wall clock unless built with
    /// [`Tracer::with_clock`]).
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn deliver(&self, span: &SpanRecord) {
        if let Some(m) = &self.mirror {
            m.histogram(span.name).record_traced(
                u64::try_from(span.duration.as_nanos()).unwrap_or(u64::MAX),
                span.trace_id,
            );
        }
        self.recorder.record(span);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(mirrored={})", self.mirror.is_some())
    }
}

/// A live span; records itself on drop.
#[must_use = "a span measures until it is dropped or finished"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
    done: bool,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
}

impl Span<'_> {
    /// The context a child of this span should carry (same trace,
    /// parented under this span).
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, parent_span: self.span_id }
    }

    /// This span's own id.
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Ends the span now and returns its duration.
    pub fn finish(mut self) -> Duration {
        self.done = true;
        self.emit()
    }

    fn emit(&self) -> Duration {
        let duration = self.tracer.clock.now().saturating_duration_since(self.start);
        self.tracer.deliver(&SpanRecord {
            name: self.name,
            start_ns: self.tracer.offset_ns(self.start),
            duration,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span: self.parent_span,
        });
        duration
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    #[test]
    fn spans_reach_the_recorder_in_finish_order() {
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::new(collector.clone());
        {
            let outer = tracer.span("outer");
            tracer.span("inner").finish();
            drop(outer);
        }
        let spans = collector.take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "outer"]);
        // The outer span opened first and lasted at least as long.
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[1].duration >= spans[0].duration);
    }

    #[test]
    fn registry_mirror_feeds_per_phase_histograms() {
        let registry = Arc::new(Registry::new());
        let tracer =
            Tracer::new(Arc::new(NullRecorder)).with_registry(registry.clone(), "rbc_service");
        tracer.span("prepare").finish();
        tracer.record("search", Duration::from_millis(3));
        tracer.record("search", Duration::from_millis(5));

        let snap = registry.snapshot();
        assert_eq!(snap.histogram("rbc_service_prepare_ns").unwrap().count, 1);
        let search = snap.histogram("rbc_service_search_ns").unwrap();
        assert_eq!(search.count, 2);
        assert!(search.mean_duration() >= Duration::from_millis(3));
    }

    #[test]
    fn retroactive_record_backdates_the_start() {
        // On a SimClock: no real 2 ms sleep, and the offsets are exact
        // virtual nanoseconds instead of host-timing lower bounds.
        let sim = crate::clock::SimClock::new();
        let _actor = sim.enter();
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::with_clock(collector.clone(), sim.handle());
        sim.sleep(Duration::from_millis(2));
        tracer.record("late", Duration::from_millis(1));
        let spans = collector.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration, Duration::from_millis(1));
        // start = now − duration: exactly 1 ms after the epoch.
        assert_eq!(spans[0].start_ns, 1_000_000);
    }

    #[test]
    fn spans_and_events_read_virtual_time() {
        let sim = crate::clock::SimClock::new();
        let _actor = sim.enter();
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::with_clock(collector.clone(), sim.handle());

        let span = tracer.span("phase");
        sim.sleep(Duration::from_secs(7)); // instant in real time
        span.finish();
        tracer.event(EventKind::Shed, 0x1, "after");

        let spans = collector.take();
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].duration, Duration::from_secs(7));
        let events = collector.events();
        assert_eq!(events[0].at_ns, 7_000_000_000);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        tracer.span("anything").finish();
        tracer.record("other", Duration::from_secs(1));
        tracer.event(EventKind::Shed, 1, "ignored");
    }

    #[test]
    fn minted_contexts_are_unique_and_nonzero() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.parent_span, 0);
        assert!(!a.is_none());
        assert!(TraceContext::NONE.is_none());
    }

    #[test]
    fn child_spans_stitch_into_one_tree() {
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::new(collector.clone());
        let ctx = TraceContext::mint();

        let root = tracer.child_span(ctx, "auth_total");
        let root_ctx = root.context();
        tracer.child_span(root_ctx, "prepare").finish();
        let qw = tracer.record_in(root_ctx, "queue_wait", Duration::from_millis(1));
        assert_eq!(qw.trace_id, ctx.trace_id);
        root.finish();

        let spans = collector.take();
        assert_eq!(spans.len(), 3);
        // Every span carries the minted trace id.
        assert!(spans.iter().all(|s| s.trace_id == ctx.trace_id));
        // Span ids are unique and nonzero.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&id| id != 0));
        // prepare and queue_wait are parented under auth_total; the tree
        // has no orphans (every nonzero parent is a span in the trace).
        let auth = spans.iter().find(|s| s.name == "auth_total").unwrap();
        assert_eq!(auth.parent_span, 0, "root attaches at the wire context");
        for name in ["prepare", "queue_wait"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent_span, auth.span_id, "{name} parents under auth_total");
        }
    }

    #[test]
    fn record_in_ended_backdates_past_the_following_phase() {
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::new(collector.clone());
        let ctx = TraceContext::mint();

        // A 1 ms queue wait followed by a 500 ms search, both recorded
        // retroactively at search completion: the queue wait must still
        // *start* before the search does.
        let search = Duration::from_millis(500);
        tracer.record_in_ended(ctx, "queue_wait", Duration::from_millis(1), search);
        tracer.record_in(ctx, "search", search);

        let spans = collector.take();
        let start = |name: &str| spans.iter().find(|s| s.name == name).unwrap().start_ns;
        assert!(
            start("queue_wait") <= start("search"),
            "queue_wait at {} ns must not start after search at {} ns",
            start("queue_wait"),
            start("search")
        );
    }

    #[test]
    fn trace_context_serializes_round_trip() {
        let ctx = TraceContext { trace_id: 0x7f3a, parent_span: 42 };
        let json = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn events_reach_the_recorder_with_trace_identity() {
        let collector = Arc::new(CollectingRecorder::new());
        let tracer = Tracer::new(collector.clone());
        tracer.event(EventKind::DeadlineBreach, 0xabc, "search");
        tracer.event(EventKind::Retransmit, 0, "link");
        let events = collector.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::DeadlineBreach);
        assert_eq!(events[0].trace_id, 0xabc);
        assert_eq!(events[0].detail, "search");
        assert_eq!(events[1].trace_id, 0, "link-level events are unattributed");
        assert_eq!(EventKind::DeadlineBreach.name(), "deadline_breach");
    }
}
