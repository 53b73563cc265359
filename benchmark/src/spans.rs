//! Benchmark-side tracing: spans kept in memory, the [`Recorder`] the
//! service writes its phase spans into, and per-layer self time.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (client, RPC, server handlers, backend decorator) plus the
//! service's own `hello` / `auth_total` / `prepare` / `queue_wait` /
//! `search` / `finish` spans. All of them share one timeline: nanoseconds
//! since the store's epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rbc_salted::telemetry::{Recorder, SpanRecord};
use serde_json::Value;

/// Benchmark span ids live above this bit, disjoint from the ids the
/// telemetry crate mints for the service's spans.
const OWN_IDS: u64 = 1 << 48;

/// One finished span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects every span of one traced pass.
pub struct SpanStore {
    epoch: Instant,
    next_id: AtomicU64,
    /// Offset of the service tracer's epoch from ours, in ns.
    service_offset_ns: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanStore {
    pub fn new(epoch: Instant) -> Self {
        SpanStore {
            epoch,
            next_id: AtomicU64::new(OWN_IDS),
            service_offset_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Call immediately before building the service that records into
    /// this store: its tracer's epoch is taken at construction.
    pub fn anchor_service(&self, at: Instant) {
        self.service_offset_ns.store(self.ns(at), Ordering::Relaxed);
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span store poisoned"))
    }
}

impl Recorder for SpanStore {
    fn record(&self, s: &SpanRecord) {
        let start_ns = s.start_ns + self.service_offset_ns.load(Ordering::Relaxed);
        let dur = u64::try_from(s.duration.as_nanos()).unwrap_or(u64::MAX);
        self.push(Span {
            name: s.name,
            trace: s.trace_id,
            id: s.span_id,
            parent: s.parent_span,
            start_ns,
            end_ns: start_ns.saturating_add(dur),
        });
    }
}

/// Runs `f` and, when tracing, records it as span `name` of `trace`
/// under `parent`. `f` receives the new span's id (0 when untraced) so
/// it can parent work it hands to another layer.
pub fn traced<R>(
    store: Option<&SpanStore>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(store) = store else { return f(0) };
    let id = store.new_id();
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    store.push(Span { name, trace, id, parent, start_ns: store.ns(start), end_ns: store.ns(end) });
    out
}

/// Gives the decorator's `backend.submit` spans, which cannot see the
/// service's span ids, the service's `search` span of the same trace as
/// parent (falling back to `auth_total`).
pub fn stitch(spans: &mut [Span]) {
    let mut by_trace: HashMap<(u64, &str), u64> = HashMap::new();
    for s in spans.iter() {
        if s.name == "search" || s.name == "auth_total" {
            by_trace.insert((s.trace, s.name), s.id);
        }
    }
    for s in spans.iter_mut().filter(|s| s.name == "backend.submit" && s.parent == 0) {
        if let Some(&p) =
            by_trace.get(&(s.trace, "search")).or_else(|| by_trace.get(&(s.trace, "auth_total")))
        {
            s.parent = p;
        }
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations in µs of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
}

/// The span file: every span with name, start, end, parent and trace id.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("trace".into(), Value::UInt(s.trace)),
                    ("id".into(), Value::UInt(s.id)),
                    ("parent".into(), Value::UInt(s.parent)),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, trace: 7, id, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("auth_total", 1, 0, 0, 100),
            // Overlapping children count once: [10, 50) covers 40.
            span("prepare", 2, 1, 10, 40),
            span("queue_wait", 3, 1, 30, 50),
            // A child reaching past its parent is clipped: [90, 100).
            span("finish", 4, 1, 90, 120),
            span("search", 5, 2, 12, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 30 - 8);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 8);
    }

    #[test]
    fn backend_spans_hang_under_the_service_search() {
        let mut spans = vec![
            span("auth_total", 1, 0, 0, 100),
            span("search", 2, 1, 20, 80),
            span("backend.submit", 3, 0, 19, 81),
        ];
        stitch(&mut spans);
        assert_eq!(spans[2].parent, 2);
        // The search span is now fully covered; its overhang is clipped.
        assert_eq!(self_times(&spans)[&2], 0);
    }

    #[test]
    fn traced_is_a_no_op_without_a_store() {
        assert_eq!(traced(None, "x", 1, 0, |id| id), 0);
        let store = SpanStore::new(Instant::now());
        let id = traced(Some(&store), "x", 9, 3, |id| id);
        let spans = store.take();
        assert_eq!((spans.len(), spans[0].id, spans[0].parent, spans[0].trace), (1, id, 3, 9));
        assert!(id > OWN_IDS);
    }
}
