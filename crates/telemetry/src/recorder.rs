//! The flight recorder: a black-box ring buffer of recent spans and
//! events with freeze-on-anomaly post-mortem dumps.
//!
//! Aggregate metrics answer "how slow is the p99"; the flight recorder
//! answers "what exactly happened to the request that just breached its
//! deadline" — *after the fact*, without keeping the full span firehose.
//! It retains the last `N` [`SpanRecord`]s and the last `M`
//! [`EventRecord`]s in fixed, pre-allocated rings. When an anomaly event
//! of a configured kind arrives (default: a deadline breach), the
//! recorder **freezes**: it pins the offending trace id and from then on
//! admits only records belonging to that trace, so the crash scene is
//! preserved while the offending request's remaining spans (the verdict
//! bookkeeping, the `auth_total` closure) still land in the ring.
//! [`FlightRecorder::dump`] then renders the complete stitched span
//! chain of any retained trace as JSON.
//!
//! ## Cost model
//!
//! Steady state performs **zero allocation**: both rings are filled
//! in-place and records are `Copy`. Admission is a handful of word
//! copies under a `parking_lot` mutex — a spin-then-park lock whose
//! uncontended path is one CAS, which keeps the hot path wait-free in
//! practice; strictly lock-free multi-word slot publication would
//! require `unsafe` seqlock machinery that this crate forbids
//! (`#![forbid(unsafe_code)]`). The freeze flag is checked with one
//! relaxed atomic load before the lock is touched.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::Value;

use crate::trace::{EventKind, EventRecord, Recorder, SpanRecord};

/// Bit per [`EventKind`], for the freeze-kind mask.
fn kind_bit(kind: EventKind) -> u32 {
    match kind {
        EventKind::Shed => 1 << 0,
        EventKind::DeadlineBreach => 1 << 1,
        EventKind::PrefixExhausted => 1 << 2,
        EventKind::Retransmit => 1 << 3,
        EventKind::ShardResumed => 1 << 4,
        EventKind::SloBurn => 1 << 5,
    }
}

/// A fixed-capacity ring; `next` is the oldest slot once `buf` is full.
struct Ring<T: Copy> {
    buf: Vec<T>,
    cap: usize,
    next: usize,
}

impl<T: Copy> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring { buf: Vec::with_capacity(cap), cap, next: 0 }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.next] = item;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Contents oldest → newest.
    fn ordered(&self) -> Vec<T> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

struct Rings {
    spans: Ring<SpanRecord>,
    events: Ring<EventRecord>,
}

/// A black-box recorder retaining the last N spans and events, freezing
/// on anomalies. Plug it into a [`crate::Tracer`] (it implements
/// [`Recorder`]) and share it with the harness that wants the dump.
pub struct FlightRecorder {
    rings: Mutex<Rings>,
    frozen: AtomicBool,
    frozen_trace: AtomicU64,
    freeze_mask: u32,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans and
    /// `capacity / 4` (min 64) events, freezing on deadline breaches.
    pub fn new(capacity: usize) -> Self {
        Self::with_capacities(capacity, (capacity / 4).max(64))
    }

    /// Explicit span/event ring capacities.
    pub fn with_capacities(spans: usize, events: usize) -> Self {
        assert!(spans > 0 && events > 0, "flight recorder rings need capacity");
        FlightRecorder {
            rings: Mutex::new(Rings { spans: Ring::new(spans), events: Ring::new(events) }),
            frozen: AtomicBool::new(false),
            frozen_trace: AtomicU64::new(0),
            freeze_mask: kind_bit(EventKind::DeadlineBreach),
        }
    }

    /// Replaces the set of event kinds that freeze the recorder
    /// (default: deadline breach only — sheds and retransmits are
    /// routine under load). An empty set never freezes.
    pub fn freeze_on(mut self, kinds: &[EventKind]) -> Self {
        self.freeze_mask = kinds.iter().fold(0, |m, &k| m | kind_bit(k));
        self
    }

    /// Whether an anomaly has frozen the ring.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// The trace pinned by the freeze, if frozen.
    pub fn frozen_trace(&self) -> Option<u64> {
        self.is_frozen().then(|| self.frozen_trace.load(Ordering::Relaxed))
    }

    /// Unfreezes and resumes normal admission (ring contents are kept).
    pub fn thaw(&self) {
        self.frozen_trace.store(0, Ordering::Relaxed);
        self.frozen.store(false, Ordering::Release);
    }

    /// Freezes the ring now, pinning `trace_id` (0 pins nothing, which
    /// still captures unattributable link-level events). For callers
    /// *outside* the event stream — e.g. the SLO evaluator paging on a
    /// burn rate, a condition no single event carries. A no-op if
    /// already frozen: the first anomaly keeps its pin.
    pub fn freeze(&self, trace_id: u64) {
        if self.frozen.load(Ordering::Acquire) {
            return;
        }
        self.frozen_trace.store(trace_id, Ordering::Relaxed);
        self.frozen.store(true, Ordering::Release);
    }

    /// Retained spans, oldest → newest.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.rings.lock().spans.ordered()
    }

    /// Retained events, oldest → newest.
    pub fn events(&self) -> Vec<EventRecord> {
        self.rings.lock().events.ordered()
    }

    /// The retained span chain of one trace, ordered by start time.
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> =
            self.spans().into_iter().filter(|s| s.trace_id == trace_id).collect();
        spans.sort_by_key(|s| s.start_ns);
        spans
    }

    /// Renders the post-mortem for `trace_id` as a JSON value: the full
    /// retained span chain (ordered by start time) plus the trace's
    /// events, ids in `0x…` form.
    pub fn dump_value(&self, trace_id: u64) -> Value {
        let spans = self
            .spans_for(trace_id)
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("span_id".to_string(), Value::Str(format!("{:#x}", s.span_id))),
                    ("parent_span".to_string(), Value::Str(format!("{:#x}", s.parent_span))),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    (
                        "duration_ns".to_string(),
                        Value::UInt(u64::try_from(s.duration.as_nanos()).unwrap_or(u64::MAX)),
                    ),
                ])
            })
            .collect();
        let events = self
            .events()
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .map(|e| {
                Value::Object(vec![
                    ("kind".to_string(), Value::Str(e.kind.name().to_string())),
                    ("at_ns".to_string(), Value::UInt(e.at_ns)),
                    ("detail".to_string(), Value::Str(e.detail.to_string())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("trace_id".to_string(), Value::Str(format!("{trace_id:#x}"))),
            ("frozen".to_string(), Value::Bool(self.is_frozen())),
            ("spans".to_string(), Value::Array(spans)),
            ("events".to_string(), Value::Array(events)),
        ])
    }

    /// [`FlightRecorder::dump_value`] rendered to a JSON string.
    pub fn dump(&self, trace_id: u64) -> String {
        serde_json::to_string(&self.dump_value(trace_id)).unwrap_or_default()
    }

    /// The post-mortem of the freeze-pinned trace, if frozen.
    pub fn dump_frozen(&self) -> Option<String> {
        self.frozen_trace().map(|t| self.dump(t))
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightRecorder(frozen={})", self.is_frozen())
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, span: &SpanRecord) {
        // Frozen: preserve the scene — admit only the pinned trace's
        // remaining spans so its chain completes.
        if self.frozen.load(Ordering::Acquire)
            && span.trace_id != self.frozen_trace.load(Ordering::Relaxed)
        {
            return;
        }
        self.rings.lock().spans.push(*span);
    }

    fn event(&self, event: &EventRecord) {
        let frozen = self.frozen.load(Ordering::Acquire);
        if frozen && event.trace_id != self.frozen_trace.load(Ordering::Relaxed) {
            return;
        }
        self.rings.lock().events.push(*event);
        if !frozen && self.freeze_mask & kind_bit(event.kind) != 0 {
            self.frozen_trace.store(event.trace_id, Ordering::Relaxed);
            self.frozen.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceContext, Tracer};
    use std::sync::Arc;
    use std::time::Duration;

    fn span(name: &'static str, trace: u64, span_id: u64, parent: u64, start: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: start,
            duration: Duration::from_millis(1),
            trace_id: trace,
            span_id,
            parent_span: parent,
        }
    }

    #[test]
    fn ring_retains_only_the_last_n_spans() {
        let fr = FlightRecorder::with_capacities(4, 4);
        for i in 0..10u64 {
            fr.record(&span("s", 1, i + 1, 0, i));
        }
        let spans = fr.spans();
        assert_eq!(spans.len(), 4);
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, [6, 7, 8, 9], "oldest → newest, last 4 only");
    }

    #[test]
    fn anomaly_freezes_and_pins_the_offending_trace() {
        let fr = FlightRecorder::with_capacities(16, 16);
        fr.record(&span("search", 0xbad, 2, 1, 10));
        fr.record(&span("search", 0x600d, 3, 1, 11));
        assert!(!fr.is_frozen());

        fr.event(&EventRecord {
            kind: EventKind::DeadlineBreach,
            trace_id: 0xbad,
            at_ns: 12,
            detail: "search",
        });
        assert!(fr.is_frozen());
        assert_eq!(fr.frozen_trace(), Some(0xbad));

        // The pinned trace's remaining spans still land; others do not.
        fr.record(&span("auth_total", 0xbad, 1, 0, 9));
        fr.record(&span("auth_total", 0x600d, 4, 0, 9));
        let chain = fr.spans_for(0xbad);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].name, "auth_total", "ordered by start time");
        assert_eq!(fr.spans_for(0x600d).len(), 1, "frozen ring rejects other traces");

        // Later anomalies on other traces cannot re-pin.
        fr.event(&EventRecord {
            kind: EventKind::DeadlineBreach,
            trace_id: 0x600d,
            at_ns: 13,
            detail: "search",
        });
        assert_eq!(fr.frozen_trace(), Some(0xbad));

        fr.thaw();
        assert!(!fr.is_frozen());
        fr.record(&span("hello", 0x600d, 5, 0, 20));
        assert_eq!(fr.spans_for(0x600d).len(), 2);
    }

    #[test]
    fn routine_events_do_not_freeze_by_default() {
        let fr = FlightRecorder::new(64);
        for kind in [EventKind::Shed, EventKind::Retransmit, EventKind::PrefixExhausted] {
            fr.event(&EventRecord { kind, trace_id: 7, at_ns: 1, detail: "" });
        }
        assert!(!fr.is_frozen());
        assert_eq!(fr.events().len(), 3, "non-freezing events are still retained");

        let fr = FlightRecorder::new(64).freeze_on(&[EventKind::Shed]);
        fr.event(&EventRecord { kind: EventKind::Shed, trace_id: 7, at_ns: 1, detail: "" });
        assert_eq!(fr.frozen_trace(), Some(7));
    }

    #[test]
    fn dump_renders_the_complete_stitched_chain() {
        let fr = Arc::new(FlightRecorder::new(64));
        let tracer = Tracer::new(fr.clone());
        let ctx = TraceContext::mint();
        let root = tracer.child_span(ctx, "auth_total");
        tracer.child_span(root.context(), "search").finish();
        tracer.event(EventKind::DeadlineBreach, ctx.trace_id, "search");
        root.finish();

        assert!(fr.is_frozen());
        let dump = fr.dump_frozen().expect("frozen dump");
        let v: Value = serde_json::from_str(&dump).expect("valid JSON");
        assert_eq!(
            v.field("trace_id").unwrap().as_str(),
            Some(format!("{:#x}", ctx.trace_id).as_str())
        );
        assert_eq!(v.field("frozen").unwrap().as_bool(), Some(true));
        let spans = v.field("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2, "search and the post-freeze auth_total closure");
        let names: Vec<_> =
            spans.iter().map(|s| s.field("name").unwrap().as_str().unwrap()).collect();
        assert!(names.contains(&"auth_total") && names.contains(&"search"));
        let events = v.field("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("kind").unwrap().as_str(), Some("deadline_breach"));
    }
}
