//! Per-request cost accounting and workload attribution.
//!
//! The pipeline's metrics answer "how much did the fleet do"; this
//! module answers **"who is eating the hashes"**. Every completed
//! authentication mints a [`CostReceipt`] — the request's full resource
//! bill (hashes derived, batches refilled, prescreen hits, queue wait,
//! backend occupancy, kernel tier) — and an [`Attribution`] folds the
//! receipt stream into bounded-memory aggregates:
//!
//! * **Heavy hitters** per client id, by hashes consumed and by
//!   exhausted-`NotFound` count, via the space-saving algorithm
//!   ([`SpaceSaving`]): at capacity `k` every monitored count
//!   overestimates by at most `N/k` of the total stream weight `N`,
//!   so the true top consumers can never hide.
//! * **Point estimates** for *any* client (monitored or not) via a
//!   count-min sketch ([`CountMin`]): estimates only ever
//!   overestimate, by at most `e·N/width` with probability
//!   `1 − exp(−depth)`.
//! * **Difficulty-class histograms** `rbc_attrib_d{d}_{verdict}_hashes`
//!   splitting the per-request hash cost by effective search distance
//!   and verdict — the empirical form of the paper's Eq. 3 cost model.
//! * **Per-backend calibration** — hashes and busy nanoseconds per
//!   dispatcher substrate, whose ratio is the measured hashes/sec that
//!   feeds `CpuModel::from_measured`-style cost models.
//!
//! The exhaustion-share counters ([`HASHES_TOTAL`] vs
//! [`EXHAUSTED_HASHES_TOTAL`]) drive an availability-style SLO
//! ([`exhaustion_slo`]): a wrong-credential flood forces full
//! `C(256,d)` sweeps, the exhausted share of hash work burns the error
//! budget, and the standard multi-window evaluator pages — freezing the
//! flight recorder on the trace recorded in [`LAST_EXHAUSTED_TRACE`]
//! (the most recent offender).
//!
//! Everything here is bounded-cardinality by construction: sketches
//! have fixed capacity, and the Prometheus exposition
//! ([`render_topk_prometheus`]) emits at most `k` labelled samples with
//! escaped client-id labels.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::expose::escape_label_value;
use crate::metrics::{Counter, Gauge, Registry};
use crate::slo::SloSpec;

/// Counter of receipts folded into the attribution layer.
pub const RECEIPTS_TOTAL: &str = "rbc_attrib_receipts_total";
/// Counter of hashes (seed derivations) across all receipts.
pub const HASHES_TOTAL: &str = "rbc_attrib_hashes_total";
/// Counter of hashes spent on exhausted-`NotFound` searches — the
/// wrong-credential DoS signature.
pub const EXHAUSTED_HASHES_TOTAL: &str = "rbc_attrib_exhausted_hashes_total";
/// Counter of exhausted-`NotFound` searches.
pub const EXHAUSTED_TOTAL: &str = "rbc_attrib_exhausted_total";
/// Counter of engine batch refills across all receipts.
pub const BATCHES_TOTAL: &str = "rbc_attrib_batches_total";
/// Gauge holding the trace id of the most recent exhausted search —
/// what the exhaustion-share page freezes the flight recorder on.
pub const LAST_EXHAUSTED_TRACE: &str = "rbc_attrib_last_exhausted_trace";

/// Verdict class a receipt settles under (mirrors the protocol verdict
/// without depending on protocol types).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReceiptVerdict {
    /// Seed recovered within the bound.
    Accepted,
    /// Full exhaustion of the search space: no seed within the bound.
    /// This is the expensive outcome a credential-flood attacker buys.
    Rejected,
    /// Deadline expired mid-search.
    TimedOut,
    /// Shed before a search ran.
    Overloaded,
}

impl ReceiptVerdict {
    /// Stable lowercase name, used in metric names and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            ReceiptVerdict::Accepted => "accepted",
            ReceiptVerdict::Rejected => "rejected",
            ReceiptVerdict::TimedOut => "timed_out",
            ReceiptVerdict::Overloaded => "overloaded",
        }
    }
}

/// The resource bill of one authentication: minted by the service layer
/// from the CA's identity (client, difficulty), the dispatcher's
/// accounting (queue wait, backend, occupancy), and the backend's
/// report (hashes, and the search cost: batches, prescreen counters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostReceipt {
    /// The client whose credential drove the search.
    pub client_id: u64,
    /// Trace id of the authentication (links the bill to its spans).
    pub trace_id: u64,
    /// Effective difficulty class: the distance the seed was found at,
    /// or the search bound `d` for exhausted/expired sweeps.
    pub difficulty: u32,
    /// How the request settled.
    pub verdict: ReceiptVerdict,
    /// Seed derivations (hashes) the search consumed.
    pub hashes: u64,
    /// Engine batch refills behind those derivations.
    pub batches: u64,
    /// Prefix-prescreen hits (candidates that needed a full derivation).
    pub prefix_hits: u64,
    /// Prescreen hits whose full derivation did not match.
    pub prefix_false_positives: u64,
    /// Time queued before a backend slot freed up.
    pub queue_wait_ns: u64,
    /// Time the backend was occupied running this search.
    pub busy_ns: u64,
    /// The chosen backend's cumulative utilization (fixed-point x1000)
    /// at completion — how contended the substrate was.
    pub occupancy_permille: u32,
    /// Dispatcher pool index of the backend that ran the search
    /// (`None` for shed requests that never reached one).
    pub backend: Option<usize>,
    /// The backend's descriptor kind (`"cpu"`, `"cluster"`, …; `"none"`
    /// for shed requests).
    pub backend_kind: &'static str,
    /// Active SIMD kernel tier of the host the bill was minted on.
    pub kernel: &'static str,
}

impl CostReceipt {
    /// True when the search swept the full space and found nothing —
    /// the maximally expensive outcome.
    pub fn exhausted(&self) -> bool {
        self.verdict == ReceiptVerdict::Rejected
    }
}

/// One monitored heavy hitter: the key, its (over)estimated count, and
/// the maximum overestimation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeavyHitter {
    /// Client id (or arbitrary key) being monitored.
    pub key: String,
    /// Estimated total weight. Never underestimates the true weight;
    /// overestimates by at most `err`.
    pub count: u64,
    /// Upper bound on the overestimation (the evicted count this entry
    /// inherited when it entered the sketch).
    pub err: u64,
}

/// Streaming top-K heavy hitters (Metwally et al.'s *space-saving*).
///
/// Holds at most `k` monitored keys. Offering a monitored key adds to
/// its count; offering a new key when full evicts the minimum-count
/// entry and the newcomer inherits that count as its error bound.
/// Guarantees, with `N` the total offered weight:
///
/// * every monitored estimate satisfies `true ≤ estimate ≤ true + err`,
/// * `err ≤ min_count ≤ N / k`,
/// * any key with true weight `> N / k` is monitored.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    entries: Vec<HeavyHitter>,
    k: usize,
    total: u64,
}

impl SpaceSaving {
    /// A sketch monitoring at most `k` keys.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "space-saving capacity must be positive");
        SpaceSaving { entries: Vec::with_capacity(k), k, total: 0 }
    }

    /// Monitored-key capacity.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Total weight offered so far (`N` in the error bounds).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds `weight` for `key` into the sketch.
    pub fn offer(&mut self, key: &str, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.count += weight;
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push(HeavyHitter { key: key.to_string(), count: weight, err: 0 });
            return;
        }
        // Evict the minimum-count entry (first of the minima, so the
        // choice is deterministic for a deterministic stream); the
        // newcomer inherits its count as the overestimation bound.
        let min = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.count, *i))
            .map(|(i, _)| i)
            .expect("k > 0 implies entries when full");
        let floor = self.entries[min].count;
        self.entries[min] = HeavyHitter { key: key.to_string(), count: floor + weight, err: floor };
    }

    /// The monitored estimate for `key`, if monitored.
    pub fn estimate(&self, key: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.key == key).map(|e| e.count)
    }

    /// The top `n` monitored keys, sorted by descending count (ties
    /// break on the key, so equal streams render identically).
    pub fn top(&self, n: usize) -> Vec<HeavyHitter> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        out.truncate(n);
        out
    }
}

/// Count-min sketch: conservative point estimates for every key in a
/// stream, in `width × depth` counters.
///
/// Estimates never underestimate; the overestimate for any key is at
/// most `e·N/width` with probability `1 − exp(−depth)` (`N` = total
/// offered weight).
#[derive(Clone, Debug)]
pub struct CountMin {
    rows: Vec<Vec<u64>>,
    width: usize,
    total: u64,
}

impl CountMin {
    /// A sketch of `depth` rows of `width` counters.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "count-min dimensions must be positive");
        CountMin { rows: vec![vec![0; width]; depth], width, total: 0 }
    }

    /// Total weight offered so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn cell(&self, row: usize, key: &str) -> usize {
        // FNV-1a over the key bytes, then one splitmix per row: cheap,
        // deterministic, and row-independent.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mixed =
            rbc_splitmix::splitmix64(h ^ (row as u64 + 1).wrapping_mul(rbc_splitmix::GOLDEN_GAMMA));
        (mixed % self.width as u64) as usize
    }

    /// Folds `weight` for `key` into every row.
    pub fn offer(&mut self, key: &str, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        for row in 0..self.rows.len() {
            let c = self.cell(row, key);
            self.rows[row][c] += weight;
        }
    }

    /// Point estimate for `key`: the minimum over its row counters.
    /// Never below the true weight.
    pub fn estimate(&self, key: &str) -> u64 {
        (0..self.rows.len()).map(|row| self.rows[row][self.cell(row, key)]).min().unwrap_or(0)
    }
}

/// Measured throughput of one dispatcher substrate, derived purely from
/// receipts — the live calibration input for a cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendCalibration {
    /// Dispatcher pool index.
    pub backend: usize,
    /// Descriptor kind of the substrate.
    pub kind: &'static str,
    /// Hashes billed to this substrate.
    pub hashes: u64,
    /// Nanoseconds the substrate was occupied earning them.
    pub busy_ns: u64,
}

impl BackendCalibration {
    /// Calibrated hashes per second (zero while no busy time accrued).
    pub fn rate(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.hashes as f64 * 1e9 / self.busy_ns as f64
        }
    }
}

/// Sketch state behind the [`Attribution`] lock.
#[derive(Debug)]
struct AttribSketches {
    by_hashes: SpaceSaving,
    by_exhausted: SpaceSaving,
    cms: CountMin,
    backends: BTreeMap<usize, (&'static str, u64, u64)>,
}

/// The attribution aggregator: folds [`CostReceipt`]s into heavy-hitter
/// sketches, difficulty-class histograms, exhaustion counters and
/// per-backend calibration, all registered in the pipeline's
/// [`Registry`] so the scraper and SLO evaluator see them for free.
#[derive(Debug)]
pub struct Attribution {
    registry: Arc<Registry>,
    receipts: Arc<Counter>,
    hashes: Arc<Counter>,
    exhausted: Arc<Counter>,
    exhausted_hashes: Arc<Counter>,
    batches: Arc<Counter>,
    last_exhausted_trace: Arc<Gauge>,
    sketches: Mutex<AttribSketches>,
}

impl Attribution {
    /// An attribution layer registering its counters in `registry`,
    /// monitoring at most `k` clients per heavy-hitter dimension.
    pub fn new(registry: Arc<Registry>, k: usize) -> Self {
        Attribution {
            receipts: registry.counter(RECEIPTS_TOTAL),
            hashes: registry.counter(HASHES_TOTAL),
            exhausted: registry.counter(EXHAUSTED_TOTAL),
            exhausted_hashes: registry.counter(EXHAUSTED_HASHES_TOTAL),
            batches: registry.counter(BATCHES_TOTAL),
            last_exhausted_trace: registry.gauge(LAST_EXHAUSTED_TRACE),
            sketches: Mutex::new(AttribSketches {
                by_hashes: SpaceSaving::new(k),
                by_exhausted: SpaceSaving::new(k),
                cms: CountMin::new(512, 4),
                backends: BTreeMap::new(),
            }),
            registry,
        }
    }

    /// The registry the attribution counters live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Folds one receipt into every aggregate.
    pub fn observe(&self, r: &CostReceipt) {
        self.receipts.inc();
        self.hashes.add(r.hashes);
        self.batches.add(r.batches);
        if r.exhausted() {
            self.exhausted.inc();
            self.exhausted_hashes.add(r.hashes);
            // Bit-preserving through the i64 gauge: the freeze path
            // reads it back `as u64`.
            self.last_exhausted_trace.set(r.trace_id as i64);
        }

        // Difficulty-class histogram, split by verdict: the measured
        // per-request cost distribution of each (d, outcome) class.
        self.registry
            .histogram(&format!("rbc_attrib_d{}_{}_hashes", r.difficulty, r.verdict.name()))
            .record(r.hashes);

        let key = r.client_id.to_string();
        let mut s = self.sketches.lock();
        s.by_hashes.offer(&key, r.hashes);
        s.cms.offer(&key, r.hashes);
        if r.exhausted() {
            s.by_exhausted.offer(&key, 1);
        }
        if let Some(b) = r.backend {
            let entry = s.backends.entry(b).or_insert((r.backend_kind, 0, 0));
            entry.1 += r.hashes;
            entry.2 += r.busy_ns;
        }
    }

    /// Top clients by hashes consumed (at most the sketch capacity).
    pub fn top_hashes(&self, n: usize) -> Vec<HeavyHitter> {
        self.sketches.lock().by_hashes.top(n)
    }

    /// Top clients by exhausted-`NotFound` searches.
    pub fn top_exhausted(&self, n: usize) -> Vec<HeavyHitter> {
        self.sketches.lock().by_exhausted.top(n)
    }

    /// Count-min point estimate of hashes consumed by `client_id`
    /// (monitored or not; never underestimates).
    pub fn estimated_hashes(&self, client_id: u64) -> u64 {
        self.sketches.lock().cms.estimate(&client_id.to_string())
    }

    /// Per-backend measured throughput, in pool-index order.
    pub fn calibration(&self) -> Vec<BackendCalibration> {
        self.sketches
            .lock()
            .backends
            .iter()
            .map(|(&backend, &(kind, hashes, busy_ns))| BackendCalibration {
                backend,
                kind,
                hashes,
                busy_ns,
            })
            .collect()
    }

    /// Bounded-cardinality Prometheus exposition of both heavy-hitter
    /// dimensions: at most `k` labelled gauge samples each (see
    /// [`render_topk_prometheus`]).
    pub fn render_topk(&self) -> String {
        let s = self.sketches.lock();
        let mut out =
            render_topk_prometheus("rbc_attrib_top_hashes", &s.by_hashes.top(s.by_hashes.k));
        out.push_str(&render_topk_prometheus(
            "rbc_attrib_top_exhausted",
            &s.by_exhausted.top(s.by_exhausted.k),
        ));
        out
    }
}

/// Renders heavy hitters as a labelled Prometheus gauge: one
/// `metric{client="…"} count` sample per hitter, client ids escaped
/// with [`escape_label_value`]. Cardinality is bounded by the caller's
/// slice (the sketch never yields more than its capacity `k`).
pub fn render_topk_prometheus(metric: &str, hitters: &[HeavyHitter]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# HELP {metric} Heavy-hitter estimate (bounded top-K).\n"));
    out.push_str(&format!("# TYPE {metric} gauge\n"));
    for h in hitters {
        out.push_str(&format!(
            "{metric}{{client=\"{}\"}} {}\n",
            escape_label_value(&h.key),
            h.count
        ));
    }
    out
}

/// The exhaustion-share SLO: the fraction of hash work spent on
/// exhausted-`NotFound` sweeps must stay under 10% (objective 0.9 on
/// "good" hashes). A wrong-credential flood pushes the share toward
/// 100% — burn ≈ 10 — which pages under the default thresholds, and the
/// page freezes the flight recorder on [`LAST_EXHAUSTED_TRACE`] (the
/// most recent offender) instead of an anonymous trace 0.
pub fn exhaustion_slo(name: impl Into<String>) -> SloSpec {
    SloSpec::availability(name, HASHES_TOTAL, vec![EXHAUSTED_HASHES_TOTAL.to_string()], 0.9)
        .trace_from(LAST_EXHAUSTED_TRACE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt(client: u64, hashes: u64, verdict: ReceiptVerdict) -> CostReceipt {
        CostReceipt {
            client_id: client,
            trace_id: 0x1000 + client,
            difficulty: 2,
            verdict,
            hashes,
            batches: hashes / 64 + 1,
            prefix_hits: 1,
            prefix_false_positives: u64::from(verdict != ReceiptVerdict::Accepted),
            queue_wait_ns: 1_000,
            busy_ns: 90_000_000,
            occupancy_permille: 500,
            backend: Some(0),
            backend_kind: "cpu",
            kernel: "avx2",
        }
    }

    #[test]
    fn space_saving_tracks_exact_counts_under_capacity() {
        let mut ss = SpaceSaving::new(4);
        for _ in 0..10 {
            ss.offer("a", 5);
            ss.offer("b", 1);
        }
        assert_eq!(ss.estimate("a"), Some(50));
        assert_eq!(ss.estimate("b"), Some(10));
        assert_eq!(ss.total(), 60);
        let top = ss.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].err, 0, "never-evicted entries are exact");
    }

    #[test]
    fn space_saving_eviction_inherits_the_minimum() {
        let mut ss = SpaceSaving::new(2);
        ss.offer("a", 10);
        ss.offer("b", 3);
        ss.offer("c", 1); // evicts b (min 3): c = 3 + 1, err 3
        assert_eq!(ss.estimate("b"), None);
        assert_eq!(ss.estimate("c"), Some(4));
        let c = ss.top(2).into_iter().find(|h| h.key == "c").unwrap();
        assert_eq!(c.err, 3);
        // Heavy key still monitored and exact.
        assert_eq!(ss.estimate("a"), Some(10));
    }

    #[test]
    fn count_min_is_exact_for_sparse_streams() {
        let mut cm = CountMin::new(64, 4);
        cm.offer("x", 7);
        cm.offer("y", 11);
        assert_eq!(cm.estimate("x"), 7);
        assert_eq!(cm.estimate("y"), 11);
        assert_eq!(cm.estimate("never-seen"), 0);
    }

    #[test]
    fn attribution_splits_costs_by_difficulty_and_verdict() {
        let registry = Arc::new(Registry::new());
        let a = Attribution::new(registry.clone(), 4);
        a.observe(&receipt(1, 257, ReceiptVerdict::Accepted));
        a.observe(&receipt(2, 32_897, ReceiptVerdict::Rejected));
        a.observe(&receipt(2, 32_897, ReceiptVerdict::Rejected));

        let snap = registry.snapshot();
        assert_eq!(snap.counter(RECEIPTS_TOTAL), Some(3));
        assert_eq!(snap.counter(HASHES_TOTAL), Some(257 + 2 * 32_897));
        assert_eq!(snap.counter(EXHAUSTED_TOTAL), Some(2));
        assert_eq!(snap.counter(EXHAUSTED_HASHES_TOTAL), Some(2 * 32_897));
        assert_eq!(snap.gauge(LAST_EXHAUSTED_TRACE), Some(0x1002));
        assert_eq!(snap.histogram("rbc_attrib_d2_accepted_hashes").unwrap().count, 1);
        assert_eq!(snap.histogram("rbc_attrib_d2_rejected_hashes").unwrap().count, 2);

        let top = a.top_hashes(2);
        assert_eq!(top[0].key, "2");
        assert_eq!(top[0].count, 2 * 32_897);
        assert_eq!(a.top_exhausted(1)[0].key, "2");
        assert!(a.estimated_hashes(2) >= 2 * 32_897, "count-min never underestimates");

        let cal = a.calibration();
        assert_eq!(cal.len(), 1);
        assert_eq!(cal[0].hashes, 257 + 2 * 32_897);
        assert_eq!(cal[0].busy_ns, 3 * 90_000_000);
        let expected = cal[0].hashes as f64 * 1e9 / cal[0].busy_ns as f64;
        assert!((cal[0].rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn topk_exposition_is_bounded_and_round_trips_hostile_labels() {
        let hitters = vec![
            HeavyHitter { key: "plain".into(), count: 42, err: 0 },
            HeavyHitter { key: "ev\"il\\cli\nent".into(), count: 7, err: 1 },
        ];
        let text = render_topk_prometheus("rbc_attrib_top_hashes", &hitters);
        let samples = crate::expose::parse_prometheus(&text).expect("rendered text parses");
        assert_eq!(samples.len(), 2, "one sample per hitter, no more");
        assert_eq!(samples[0].labels, [("client".to_string(), "plain".to_string())]);
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(
            samples[1].labels,
            [("client".to_string(), "ev\"il\\cli\nent".to_string())],
            "escaping round-trips"
        );
        assert!(text.contains("# TYPE rbc_attrib_top_hashes gauge"));
    }

    #[test]
    fn attribution_exposition_caps_at_sketch_capacity() {
        let registry = Arc::new(Registry::new());
        let a = Attribution::new(registry, 3);
        for client in 0..50u64 {
            a.observe(&receipt(client, 100 + client, ReceiptVerdict::Rejected));
        }
        let text = a.render_topk();
        let samples = crate::expose::parse_prometheus(&text).expect("parses");
        let hashes: Vec<_> = samples.iter().filter(|s| s.name == "rbc_attrib_top_hashes").collect();
        let exhausted: Vec<_> =
            samples.iter().filter(|s| s.name == "rbc_attrib_top_exhausted").collect();
        assert_eq!(hashes.len(), 3, "bounded at k even after 50 distinct clients");
        assert_eq!(exhausted.len(), 3);
    }

    #[test]
    fn exhaustion_slo_reads_the_attrib_counters() {
        let spec = exhaustion_slo("exhaustion");
        match &spec.kind {
            crate::slo::SloKind::Availability { total, bad, objective } => {
                assert_eq!(total, HASHES_TOTAL);
                assert_eq!(bad, &[EXHAUSTED_HASHES_TOTAL.to_string()]);
                assert!((objective - 0.9).abs() < 1e-12);
            }
            other => panic!("expected availability kind, got {other:?}"),
        }
        assert_eq!(spec.trace_gauge.as_deref(), Some(LAST_EXHAUSTED_TRACE));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A mixed stream: a few heavy keys plus a uniform tail, the
        /// adversarial shape for both sketches.
        fn stream(weights: &[u64], tail: &[u8]) -> Vec<(String, u64)> {
            let mut s: Vec<(String, u64)> =
                weights.iter().enumerate().map(|(i, &w)| (format!("heavy-{i}"), w + 1)).collect();
            s.extend(
                tail.iter()
                    .enumerate()
                    .map(|(i, &t)| (format!("tail-{}", i % 11), u64::from(t) % 7 + 1)),
            );
            s
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Space-saving: monitored estimates never underestimate,
            /// and the per-entry error stays within `N / k` — under
            /// skewed heads, uniform tails, and interleavings thereof.
            #[test]
            fn space_saving_error_within_n_over_k(
                k in 1usize..12,
                weights in proptest::collection::vec(1u64..5000, 1..8),
                tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            ) {
                let stream = stream(&weights, &tail);
                let mut truth: std::collections::BTreeMap<String, u64> =
                    std::collections::BTreeMap::new();
                let mut ss = SpaceSaving::new(k);
                for (key, w) in &stream {
                    *truth.entry(key.clone()).or_insert(0) += *w;
                    ss.offer(key, *w);
                }
                let n = ss.total();
                prop_assert_eq!(n, truth.values().sum::<u64>());
                let bound = n / k as u64;
                for h in ss.top(k) {
                    let true_w = truth[&h.key];
                    prop_assert!(h.count >= true_w, "never underestimates");
                    prop_assert!(
                        h.count - true_w <= h.err,
                        "overestimate within the entry's recorded err"
                    );
                    prop_assert!(h.err <= bound, "err {} over N/k {}", h.err, bound);
                }
            }

            /// Count-min: estimates never underestimate any key's true
            /// weight, for skewed and uniform streams alike.
            #[test]
            fn count_min_only_overestimates(
                width in 1usize..128,
                depth in 1usize..5,
                weights in proptest::collection::vec(1u64..2000, 1..6),
                tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            ) {
                let stream = stream(&weights, &tail);
                let mut truth: std::collections::BTreeMap<String, u64> =
                    std::collections::BTreeMap::new();
                let mut cm = CountMin::new(width, depth);
                for (key, w) in &stream {
                    *truth.entry(key.clone()).or_insert(0) += *w;
                    cm.offer(key, *w);
                }
                for (key, &true_w) in &truth {
                    prop_assert!(
                        cm.estimate(key) >= true_w,
                        "estimate {} under true {}",
                        cm.estimate(key),
                        true_w
                    );
                }
                // And the aggregate sanity: no estimate exceeds N.
                for key in truth.keys() {
                    prop_assert!(cm.estimate(key) <= cm.total());
                }
            }
        }
    }
}
