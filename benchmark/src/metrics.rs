//! Turns one measured window into the benchmark's metrics.
//!
//! End-to-end metrics come from an untraced window; per-layer metrics
//! from a traced one (spans, the decorator's calls and the registry's
//! counters over the run).

use std::collections::{HashMap, HashSet};

use rbc_salted::telemetry::Snapshot;

use crate::drive::{Driven, Judgement, Sample};
use crate::spans::{durations_us, self_times, Span};
use crate::stack::Call;
use crate::stats::{median, percentile, sorted};
use crate::workload::Role;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of a sample.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) -> Self {
        Metric { name: name.into(), value, unit, n }
    }
}

/// Percentile `p` of `values`, 0 for an empty sample (a layer the
/// workload does not use).
fn pct(values: Vec<f64>, p: f64) -> f64 {
    percentile(&sorted(values), p).unwrap_or(0.0)
}

fn dist(name: &str, values: Vec<f64>, p: f64, unit: &'static str) -> Metric {
    let n = values.len();
    Metric::new(name, pct(values, p), unit, Some(n))
}

fn count(name: &str, value: u64) -> Metric {
    Metric::new(name, value as f64, "count", None)
}

/// Scored latencies in ms; failures are `+∞`.
pub fn scored_latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.scored).map(|s| s.latency_ms).collect()
}

/// The bounded end-to-end metrics: `setup_s`, `auth_p50_ms`,
/// `auth_per_s` and `server_khash_per_auth`. The last one covers the
/// whole run, lead-in included: the hashes every search derived
/// (attackers' too) per correct honest verdict.
pub fn end_to_end(d: &Driven, setup_s: &[f64], searches: &[Call]) -> Vec<Metric> {
    let lat = scored_latencies(&d.samples);
    let correct = |s: &&Sample| s.judgement == Judgement::Correct;
    let honest = d.samples.iter().filter(|s| matches!(s.role, Role::Honest { .. }));
    let honest_ok = honest.filter(correct).count();
    let scored_ok = d.samples.iter().filter(|s| s.scored).filter(correct).count();
    let per_s = scored_ok as f64 / d.window.as_secs_f64().max(1e-9);
    let khash = searches.iter().map(|c| c.hashes).sum::<u64>() as f64 / 1e3;
    let n = Some(lat.len());
    vec![
        Metric::new("setup_s", median(setup_s), "s", Some(setup_s.len())),
        dist("auth_p50_ms", lat, 50.0, "ms"),
        Metric::new("auth_per_s", per_s, "1/s", n),
        Metric::new(
            "server_khash_per_auth",
            khash / honest_ok.max(1) as f64,
            "khash",
            Some(honest_ok),
        ),
    ]
}

/// Reported with the end-to-end metrics but not bounded: the latency
/// tails, and the failure counts that must read 0. The tails are
/// unbounded because in `flood_sha1` they are set by whether the two
/// quarantined attackers' refill cycles collide, which changes them
/// several-fold from seed to seed.
pub fn unbounded(d: &Driven, counters: &Snapshot) -> Vec<Metric> {
    let lat = scored_latencies(&d.samples);
    let tally = Tally::of(&d.samples);
    let failed = (tally.failed + tally.wrong) as f64 / tally.sent.max(1) as f64;
    let counter = |name| counters.counter(name).unwrap_or(0);
    vec![
        dist("auth_p90_ms", lat.clone(), 90.0, "ms"),
        dist("auth_p99_ms", lat, 99.0, "ms"),
        Metric::new("failed_frac", failed, "ratio", Some(tally.sent as usize)),
        count("net.retransmits", counter("rbc_net_retransmits_total")),
        count("pool.redispatches", counter("rbc_resilience_redispatches_total")),
    ]
}

/// What a traced window leaves behind.
pub struct Traced<'a> {
    pub driven: &'a Driven,
    pub spans: &'a [Span],
    pub searches: &'a [Call],
    pub shards: &'a [Call],
    /// Registry change over the run.
    pub counters: &'a Snapshot,
    /// Searches the dispatcher runs at once.
    pub slots: usize,
}

impl Traced<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.counters.counter(name).unwrap_or(0)
    }

    /// Durations (µs) of `name` spans keyed by trace.
    fn by_trace(&self, name: &str) -> HashMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.trace, s.ns() as f64 / 1e3))
            .collect()
    }

    /// Client call time minus server handler time, per RPC, in µs.
    fn rpc_overheads(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (call, handler) in [("rpc.hello", "server.begin"), ("rpc.digest", "server.complete")] {
            let handled = self.by_trace(handler);
            for (trace, us) in self.by_trace(call) {
                if let Some(h) = handled.get(&trace) {
                    out.push(us - h);
                }
            }
        }
        out
    }

    /// Per pooled job: `submit` minus, at each distance, its longest
    /// shard attempt — the time the pool adds over its shards' critical
    /// path, in ms.
    fn pool_overheads(&self) -> Vec<f64> {
        let mut longest: HashMap<(u64, Option<u32>), f64> = HashMap::new();
        for s in self.shards {
            let slot = longest.entry((s.trace, s.d)).or_default();
            *slot = slot.max(s.ms());
        }
        let mut path: HashMap<u64, f64> = HashMap::new();
        for ((trace, _), ms) in longest {
            *path.entry(trace).or_default() += ms;
        }
        self.searches.iter().filter_map(|c| path.get(&c.trace).map(|p| c.ms() - p)).collect()
    }
}

/// Every per-layer metric except the ladder's and `trace.overhead_pct`.
pub fn layers(t: &Traced) -> Vec<Metric> {
    let spans = t.spans;
    let secs = |calls: &[Call]| calls.iter().map(|c| c.ms() / 1e3).sum::<f64>();
    let hashes = |calls: &[Call]| calls.iter().map(|c| c.hashes).sum::<u64>() as f64;
    let rate = |calls: &[Call]| {
        let busy = secs(calls);
        if busy > 0.0 {
            hashes(calls) / busy / 1e6
        } else {
            0.0
        }
    };

    let attackers: HashSet<u64> =
        t.driven.samples.iter().filter(|s| s.role == Role::Attacker).map(|s| s.trace).collect();
    let attack: Vec<Call> =
        t.searches.iter().filter(|c| attackers.contains(&c.trace)).copied().collect();

    let own = self_times(spans);
    let unattributed: Vec<f64> =
        spans.iter().filter(|s| s.name == "auth_total").map(|s| own[&s.id] as f64 / 1e3).collect();
    let queue_ms: Vec<f64> = durations_us(spans, "queue_wait").iter().map(|us| us / 1e3).collect();
    let search_ms: Vec<f64> = t.searches.iter().map(Call::ms).collect();
    let fixed_us: Vec<f64> =
        t.searches.iter().filter(|c| c.d.is_some_and(|d| d <= 1)).map(|c| c.ms() * 1e3).collect();
    let keygen = t.counters.histogram("rbc_ca_keygen_ns");
    let keygen_us = keygen.map_or(0.0, |h| h.percentile(50.0) as f64 / 1e3);
    let requests = t.driven.samples.len().max(1) as f64;
    let searches = t.searches.len().max(1) as f64;
    let elapsed_s = t.driven.elapsed.as_secs_f64().max(1e-9);

    vec![
        dist("gen.sched_late_us_p99", t.driven.late_us.clone(), 99.0, "us"),
        dist("client.respond_us_p50", durations_us(spans, "client.respond"), 50.0, "us"),
        dist("net.rpc_overhead_us_p50", t.rpc_overheads(), 50.0, "us"),
        Metric::new(
            "net.bytes_per_auth",
            t.counter("rbc_net_bytes_sent_total") as f64 / requests,
            "bytes",
            None,
        ),
        count("net.retransmits", t.counter("rbc_net_retransmits_total")),
        dist("service.hello_us_p50", durations_us(spans, "hello"), 50.0, "us"),
        dist("service.hello_us_p99", durations_us(spans, "hello"), 99.0, "us"),
        dist("service.prepare_us_p50", durations_us(spans, "prepare"), 50.0, "us"),
        dist("service.prepare_us_p99", durations_us(spans, "prepare"), 99.0, "us"),
        dist("service.finish_us_p50", durations_us(spans, "finish"), 50.0, "us"),
        Metric::new("ca.keygen_us_p50", keygen_us, "us", keygen.map(|h| h.count as usize)),
        dist("service.unattributed_us_p50", unattributed, 50.0, "us"),
        count("admission.attack_searches", attack.len() as u64),
        Metric::new("admission.attack_mhash", hashes(&attack) / 1e6, "Mhash", None),
        count("admission.cache_hits", t.counter("rbc_admission_negative_cache_hits_total")),
        count(
            "admission.refusals",
            t.counter("rbc_admission_tokens_refused_total") + t.counter("rbc_admission_shed_total"),
        ),
        count("admission.quarantines", t.counter("rbc_admission_quarantine_total")),
        dist("dispatch.queue_wait_ms_p50", queue_ms.clone(), 50.0, "ms"),
        dist("dispatch.queue_wait_ms_p99", queue_ms, 99.0, "ms"),
        Metric::new(
            "dispatch.busy_frac",
            secs(t.searches) / (elapsed_s * t.slots.max(1) as f64),
            "ratio",
            None,
        ),
        count("dispatch.sheds", t.counter("rbc_dispatch_shed_total")),
        dist("backend.search_ms_p50", search_ms.clone(), 50.0, "ms"),
        dist("backend.search_ms_p90", search_ms, 90.0, "ms"),
        Metric::new("backend.hashes_per_search", hashes(t.searches) / searches, "count", None),
        Metric::new("backend.mhash_per_busy_s", rate(t.searches), "Mhash/s", None),
        dist("backend.fixed_us_p50", fixed_us, 50.0, "us"),
        dist("shard.run_ms_p50", t.shards.iter().map(Call::ms).collect(), 50.0, "ms"),
        Metric::new("shard.mhash_per_busy_s", rate(t.shards), "Mhash/s", None),
        Metric::new(
            "pool.checkpoints_per_search",
            t.counter("rbc_resilience_checkpoints_total") as f64 / searches,
            "count",
            None,
        ),
        count("pool.redispatches", t.counter("rbc_resilience_redispatches_total")),
        count("pool.wasted_seeds", t.counter("rbc_resilience_wasted_seeds_total")),
        dist("pool.overhead_ms_p50", t.pool_overheads(), 50.0, "ms"),
    ]
}

/// Traced `auth_p50_ms` over untraced, as a percentage change.
pub fn trace_overhead(untraced: &Driven, traced: &Driven) -> Metric {
    let p50 = |d: &Driven| pct(scored_latencies(&d.samples), 50.0);
    let base = p50(untraced);
    let pct = if base > 0.0 { (p50(traced) / base - 1.0) * 100.0 } else { 0.0 };
    Metric::new("trace.overhead_pct", pct, "%", None)
}

/// Requests sent, answered correctly, failed (no usable answer) and
/// answered wrongly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub correct: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn of(samples: &[Sample]) -> Tally {
        samples.iter().fold(Tally::default(), |mut t, s| {
            t.sent += 1;
            match s.judgement {
                Judgement::Correct => t.correct += 1,
                Judgement::Failed => t.failed += 1,
                Judgement::Wrong => t.wrong += 1,
            }
            t
        })
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}
