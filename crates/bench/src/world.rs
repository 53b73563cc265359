//! The virtual-time world the staged scenarios share.
//!
//! `repro monitor`, `repro attrib` and `repro adversarial` drive a seeded
//! client population through one stack on one [`SimClock`] timeline
//! (DESIGN.md §10 describes it once):
//!
//! * **The stack.** Two single-backend [`SupervisedPool`]s, each over a
//!   1-thread [`CpuBackend`] wrapped in a [`Fault::Stall`] of 90 ms and
//!   98 ms per job, behind a [`RoutePolicy::LeastLoaded`] [`Dispatcher`]
//!   with a 2 s budget. The injected stalls are the searches' virtual
//!   cost, and their lengths differ so the two substrates never park at
//!   equal virtual targets.
//! * **The population.** A SHA-1, `max_d = 2` LightSaber CA with client
//!   `i` enrolled from `ModelPuf::noiseless(4096, mix(seed, puf ^ i))`.
//!   `repro sim` shares this part under [`CALM_SALTS`], behind its own
//!   fault-planned pool and lossy RPC links.
//! * **The actors.** One evaluator ticking at a fixed interval for a
//!   fixed tick count, spawned before the clients, then one actor per
//!   client, all under a starter guard ([`World::run`]).
//! * **The epilogue.** Ledger and timeline checks
//!   ([`ledger_violations`]) and the alert log, registry snapshot and
//!   virtual span folded into the replay digest ([`World::seal`]).
//!
//! `Registry::snapshot` keeps registration order, and the digest folds
//! the snapshot in that order. A scenario therefore registers its
//! `Attribution` / `AdmissionControl` on [`World::registry`] *before*
//! [`World::service`] registers the pools.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_core::backend::{CpuBackend, SearchBackend};
use rbc_core::ca::{CaConfig, CertificateAuthority};
use rbc_core::chaos::{ChaosBackend, Fault};
use rbc_core::clock::{ClockHandle, SimClock};
use rbc_core::dispatch::{Dispatcher, DispatcherConfig, RoutePolicy};
use rbc_core::engine::EngineConfig;
use rbc_core::pool::{SupervisedPool, SupervisedPoolConfig};
use rbc_core::protocol::Client;
use rbc_core::service::{AuthService, ServiceStats};
use rbc_hash::HashAlgo;
use rbc_pqc::LightSaber;
use rbc_puf::ModelPuf;
use rbc_splitmix::{splitmix64, GOLDEN_GAMMA};
use rbc_telemetry::{attrib, Alert, MetricSnapshot, Recorder, Registry, Severity, Snapshot};
use serde_json::Value as Json;

use crate::artifact::detail;
use crate::baseline::Worse;
use crate::Artifact;

/// Search bound of every scenario: a rejection exhausts C(256,0) +
/// C(256,1) + C(256,2) = 32 897 derivations, single-digit milliseconds
/// of real compute.
pub(crate) const MAX_D: u32 = 2;

/// Per-job stall of each substrate.
const STALLS_MS: [u64; 2] = [90, 98];

/// Derives an independent 64-bit value from `seed` for `salt`.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(GOLDEN_GAMMA))
}

/// Folds `v` into the running digest `h`.
pub(crate) fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h.rotate_left(23) ^ v)
}

/// Folds `bytes` (and their length) into the running digest `h`.
pub(crate) fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut v = [0u8; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(v));
    }
    fold(h, bytes.len() as u64)
}

/// Folds an alert log into `h`.
pub(crate) fn fold_alerts(mut h: u64, alerts: &[Alert]) -> u64 {
    for a in alerts {
        h = fold_bytes(h, a.spec.as_bytes());
        h = fold(h, a.severity as u64);
        h = fold(h, a.at_ns);
        h = fold(h, a.fast_burn.to_bits());
        h = fold(h, a.slow_burn.to_bits());
    }
    h
}

/// Folds a registry snapshot into `h`, in registration order. The
/// last-exhausted trace gauge is skipped, as are exemplars: trace ids
/// come from a process-global counter and are not replay-stable.
pub(crate) fn fold_snapshot(mut h: u64, snap: &Snapshot) -> u64 {
    for (name, metric) in &snap.entries {
        if name == attrib::LAST_EXHAUSTED_TRACE {
            continue;
        }
        h = fold_bytes(h, name.as_bytes());
        h = match metric {
            MetricSnapshot::Counter(v) => fold(h, *v),
            MetricSnapshot::Gauge(v) => fold(h, *v as u64),
            MetricSnapshot::Histogram(hist) => {
                let mut d = fold(fold(h, hist.count), hist.sum);
                for (bound, count) in &hist.buckets {
                    d = fold(fold(d, *bound), *count);
                }
                d
            }
        };
    }
    h
}

/// Wraps `s` in the ANSI escape `code` when `color` is set.
pub(crate) fn paint(color: bool, code: &str, s: &str) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

/// Renders an alert log for a scenario report, its `alerts` label
/// padded to `width` columns.
pub(crate) fn render_alerts(alerts: &[Alert], color: bool, width: usize) -> String {
    if alerts.is_empty() {
        return format!("  {:<width$}none\n", "alerts");
    }
    let mut out = String::from("  alerts\n");
    for a in alerts {
        let tag = match a.severity {
            Severity::Page => paint(color, "31;1", "PAGE "),
            Severity::Warn => paint(color, "33;1", "WARN "),
            Severity::Clear => paint(color, "32", "CLEAR"),
        };
        out.push_str(&format!(
            "    {tag} {:<13} @ {:>6.1}s  fast {:>7.2}x  slow {:>7.2}x\n",
            a.spec,
            a.at_ns as f64 / 1e9,
            a.fast_burn,
            a.slow_burn
        ));
    }
    out
}

/// How a staged scenario's replay check went.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// Replays run.
    pub replayed: u64,
    /// Replays whose digest (or ledger) differed from the first run.
    pub divergences: u64,
    /// Wall seconds for the run and its replays.
    pub wall_secs: f64,
}

/// The replay metrics `monitor`, `attrib` and `adversarial` share,
/// after their `<bench>.ticks`: `divergences` and `violations` exactly
/// 0 (both recorded exactly in `BASELINE.json`), a full run span
/// (`sim_secs` ≥ 85), at least one replay, and the wall time.
pub(crate) fn replay_metrics(a: &mut Artifact, replay: Replay, violations: usize, sim_secs: f64) {
    let bench = a.bench.clone();
    a.metric(format!("{bench}.divergences"), replay.divergences).exactly(0.0).baseline_exact();
    a.metric(format!("{bench}.violations"), violations).exactly(0.0).baseline_exact();
    a.metric(format!("{bench}.sim_secs"), sim_secs).at_least(85.0);
    a.metric(format!("{bench}.replayed"), replay.replayed).at_least(1.0);
    a.metric(format!("{bench}.wall_secs"), replay.wall_secs);
}

/// `issued` minus every verdict and error: 0 when the books balance.
pub(crate) fn unbooked(issued: u64, outcomes: [u64; 5]) -> f64 {
    issued as f64 - outcomes.iter().sum::<u64>() as f64
}

/// The staged incident's alert metrics: `<bench>.alerts` (recorded in
/// `BASELINE.json` at `tolerance`), at least one `<bench>.pages` (fewer
/// is worse) and a log that ends clear.
pub(crate) fn alert_metrics(a: &mut Artifact, alerts: &[Alert], tolerance: f64) {
    let bench = a.bench.clone();
    let pages = alerts.iter().filter(|a| a.severity == Severity::Page).count();
    let ends_clear = alerts.last().map(|a| a.severity) == Some(Severity::Clear);
    a.metric(format!("{bench}.alerts"), alerts.len()).baseline(tolerance, Worse::Differ);
    a.metric(format!("{bench}.pages"), pages).at_least(1.0).baseline(0.0, Worse::Lower);
    a.metric(format!("{bench}.ends_clear"), ends_clear).exactly(1.0);
}

/// An alert log for an artifact's `detail`.
pub(crate) fn alerts_detail(alerts: &[Alert]) -> Json {
    #[derive(serde::Serialize)]
    struct Row {
        spec: String,
        severity: &'static str,
        at_ns: u64,
        fast_burn: f64,
        slow_burn: f64,
    }
    let rows: Vec<Row> = alerts
        .iter()
        .map(|a| Row {
            spec: a.spec.clone(),
            severity: a.severity.name(),
            at_ns: a.at_ns,
            fast_burn: a.fast_burn,
            slow_burn: a.slow_burn,
        })
        .collect();
    detail(&rows)
}

/// The service-ledger and timeline checks every scenario ends with:
/// the books balance, no request failed CA validation, receipts (when
/// attribution is attached) cover every completed request, and every
/// actor has left the timeline (`actors` is `SimClock::actors`).
pub(crate) fn ledger_violations(
    stats: &ServiceStats,
    receipts: Option<u64>,
    actors: (usize, usize),
) -> Vec<String> {
    let mut violations = Vec::new();
    let tallied =
        stats.accepted + stats.rejected + stats.timed_out + stats.overloaded + stats.errors;
    if stats.issued != tallied {
        violations.push(format!("books do not balance: issued {} != {tallied}", stats.issued));
    }
    if stats.errors > 0 {
        violations
            .push(format!("{} CA errors (enrolled clients never fail validation)", stats.errors));
    }
    let completed = stats.issued.saturating_sub(stats.errors);
    if receipts.is_some_and(|r| r != completed) {
        violations.push(format!(
            "{} receipts for {completed} completed requests — every verdict must carry its bill",
            receipts.unwrap_or(0)
        ));
    }
    if actors != (0, 0) {
        violations
            .push(format!("timeline not quiescent ({} runnable, {} parked)", actors.0, actors.1));
    }
    violations
}

/// Seed salts for the CA key, the enrollment RNG and the client PUFs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Salts {
    ca_key: u64,
    enroll: u64,
    puf: u64,
}

/// The `monitor` and `sim` seed namespace.
pub(crate) const CALM_SALTS: Salts = Salts { ca_key: 0x11, enroll: 0x12, puf: 0x1000 };

/// The `attrib` and `adversarial` seed namespace.
pub(crate) const FLOOD_SALTS: Salts = Salts { ca_key: 0x21, enroll: 0x22, puf: 0x2000 };

/// The CA every scenario runs: SHA-1, [`MAX_D`], a 1-thread engine.
pub(crate) fn ca_config() -> CaConfig {
    CaConfig {
        max_d: MAX_D,
        algo: HashAlgo::Sha1,
        engine: EngineConfig { threads: 1, ..Default::default() },
        ..Default::default()
    }
}

/// Builds a CA from `ca_cfg` and enrolls clients `0..clients`, client
/// `i` carrying `noise(i)` extra response bits.
pub(crate) fn enroll(
    seed: u64,
    salts: Salts,
    ca_cfg: CaConfig,
    clients: usize,
    noise: impl Fn(usize) -> u32,
) -> (CertificateAuthority<LightSaber>, Vec<Client<ModelPuf>>) {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&mix(seed, salts.ca_key).to_le_bytes());
    let mut ca = CertificateAuthority::new(key, LightSaber, ca_cfg);
    let mut rng = StdRng::seed_from_u64(mix(seed, salts.enroll));
    let population = (0..clients as u64)
        .map(|id| {
            let mut c = Client::new(id, ModelPuf::noiseless(4096, mix(seed, salts.puf ^ id)));
            c.extra_noise = noise(id as usize);
            ca.enroll_client(id, c.device(), 0, &mut rng).expect("enroll");
            c
        })
        .collect();
    (ca, population)
}

/// The honest-plus-flood population `repro attrib` and `repro
/// adversarial` drive: honest clients for all three phases, attackers
/// with noise far beyond the search bound during the middle one.
#[derive(Clone, Debug)]
pub struct FloodSchedule {
    /// Seed for noise levels, staggers, and PUF instances.
    pub seed: u64,
    /// Honest clients (ids `0..honest`), active all three phases.
    pub honest: usize,
    /// Attacker clients (ids `honest..honest+attackers`), active only
    /// during the flood phase.
    pub attackers: usize,
    /// Virtual duration of each phase (calm, flood, recovery).
    pub phase: Duration,
    /// Evaluator interval (odd nanosecond tail keeps the evaluator's
    /// park targets off every client target).
    pub interval: Duration,
    /// Honest think time between authentications.
    pub think_honest: Duration,
    /// Attacker think time during the flood.
    pub think_flood: Duration,
    /// SLO fast window.
    pub fast_window: Duration,
    /// SLO slow window.
    pub slow_window: Duration,
}

impl FloodSchedule {
    /// Total virtual span (three phases).
    pub fn run_span(&self) -> Duration {
        self.phase * 3
    }

    /// Total client population (honest + attackers).
    pub fn clients(&self) -> usize {
        self.honest + self.attackers
    }

    /// Whether client `i` is an attacker.
    pub(crate) fn is_attacker(&self, i: usize) -> bool {
        i >= self.honest
    }

    pub(crate) fn mix(&self, salt: u64) -> u64 {
        mix(self.seed, salt)
    }

    /// Client `i`'s noise. Honest clients stay inside the search bound
    /// (accepts at d ∈ {0, 1}); attackers carry noise far beyond it, so
    /// every flood search exhausts before rejecting.
    pub(crate) fn noise(&self, i: usize) -> u32 {
        if self.is_attacker(i) {
            8
        } else if self.mix(0x40 ^ i as u64) % 10 < 7 {
            0
        } else {
            1
        }
    }

    /// Unique virtual arrival offset per client (disjoint 5 ms bands
    /// plus a per-client sub-microsecond phase — concurrent parks must
    /// never land on equal virtual targets).
    pub(crate) fn arrival(&self, i: usize) -> Duration {
        Duration::from_millis(5 * (i as u64 + 1))
            + Duration::from_micros(self.mix(0x80 ^ i as u64) % 4999)
            + Duration::from_nanos(347 * (i as u64 + 1))
    }

    /// Think time for client `i`: attackers hammer, honest clients
    /// amble. The per-client microsecond and nanosecond phases keep
    /// concurrent wake targets distinct.
    pub(crate) fn think(&self, i: usize) -> Duration {
        let base = if self.is_attacker(i) { self.think_flood } else { self.think_honest };
        base + Duration::from_micros(1013 * (i as u64 + 1) + self.mix(0xC0 ^ i as u64) % 499)
            + Duration::from_nanos(11 * (i as u64 + 1))
    }
}

/// Evaluator ticks in `span` at `interval` (at least one).
pub(crate) fn ticks(span: Duration, interval: Duration) -> u64 {
    (span.as_nanos() / interval.as_nanos()).max(1) as u64
}

/// One actor's view of the timeline.
pub(crate) struct Actor {
    clock: ClockHandle,
    epoch: Instant,
}

impl Actor {
    /// Parks for `d` of virtual time.
    pub(crate) fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }

    /// Virtual time since the run began.
    pub(crate) fn elapsed(&self) -> Duration {
        self.clock.now().saturating_duration_since(self.epoch)
    }
}

/// A fresh virtual timeline and the registry its stack reports into.
pub(crate) struct World {
    pub(crate) sim: SimClock,
    pub(crate) clock: ClockHandle,
    pub(crate) registry: Arc<Registry>,
}

impl World {
    /// A timeline at virtual time zero with an empty registry.
    pub(crate) fn new() -> Self {
        let sim = SimClock::new();
        World { clock: sim.handle(), sim, registry: Arc::new(Registry::new()) }
    }

    /// Builds the stalled two-pool stack behind a dispatcher with
    /// `queue_limit`, enrolls `clients` under `salts`, and returns the
    /// service (recording into `recorder`) for the caller to attach
    /// attribution or admission to.
    pub(crate) fn service(
        &self,
        seed: u64,
        salts: Salts,
        queue_limit: usize,
        clients: usize,
        noise: impl Fn(usize) -> u32,
        recorder: Arc<dyn Recorder>,
    ) -> (AuthService<LightSaber>, Vec<Client<ModelPuf>>) {
        let pools = STALLS_MS
            .into_iter()
            .map(|ms| {
                let cpu = CpuBackend::new(EngineConfig { threads: 1, ..Default::default() })
                    .with_clock(self.clock.clone());
                let chaos = ChaosBackend::wrap(Arc::new(cpu), Fault::Stall { ms })
                    .with_clock(self.clock.clone());
                Arc::new(SupervisedPool::with_clock(
                    vec![Arc::new(chaos) as Arc<dyn SearchBackend>],
                    SupervisedPoolConfig::default(),
                    self.registry.clone(),
                    self.clock.clone(),
                )) as Arc<dyn SearchBackend>
            })
            .collect();
        let dispatcher = Arc::new(Dispatcher::with_clock(
            pools,
            DispatcherConfig {
                queue_limit,
                budget: Duration::from_secs(2),
                policy: RoutePolicy::LeastLoaded,
            },
            self.registry.clone(),
            self.clock.clone(),
        ));
        let (ca, population) = enroll(seed, salts, ca_config(), clients, noise);
        (AuthService::with_recorder(ca, dispatcher, recorder), population)
    }

    /// Runs one evaluator actor calling `tick(at_ns)` every `interval`
    /// for `ticks(span, interval)` ticks, and one actor per entry of
    /// `clients` running `client(i, client, actor)`. Returns each
    /// client's result with its index, in spawn order.
    ///
    /// The coordinator holds a starter guard while it spawns: without
    /// it, the moment every already-spawned actor is parked the clock
    /// gallops and the first actors run ahead of later spawns by a
    /// race-dependent offset.
    pub(crate) fn run<R: Send>(
        &self,
        span: Duration,
        interval: Duration,
        mut tick: impl FnMut(u64) + Send,
        clients: impl IntoIterator<Item = (usize, Client<ModelPuf>)>,
        client: impl Fn(usize, Client<ModelPuf>, &Actor) -> R + Sync,
    ) -> Vec<(usize, R)> {
        let ticks = ticks(span, interval);
        let epoch = self.clock.now();
        let actor = || Actor { clock: self.clock.clone(), epoch };
        let client = &client;
        std::thread::scope(|s| {
            let starter = self.clock.enter();
            let guard = self.clock.enter();
            let eval = actor();
            let evaluator = s.spawn(move || {
                let _g = guard;
                for _ in 0..ticks {
                    eval.sleep(interval);
                    tick(u64::try_from(eval.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            });
            let handles: Vec<_> = clients
                .into_iter()
                .map(|(i, c)| {
                    let guard = self.clock.enter();
                    let me = actor();
                    (
                        i,
                        s.spawn(move || {
                            let _g = guard;
                            client(i, c, &me)
                        }),
                    )
                })
                .collect();
            drop(starter);
            let results =
                handles.into_iter().map(|(i, h)| (i, h.join().expect("client actor"))).collect();
            evaluator.join().expect("evaluator actor");
            results
        })
    }

    /// Finishes a digest: the alert log, the final registry snapshot
    /// and the virtual span.
    pub(crate) fn seal(&self, digest: u64, alerts: &[Alert]) -> u64 {
        let digest = fold_snapshot(fold_alerts(digest, alerts), &self.registry.snapshot());
        fold(digest, self.sim.virtual_elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_telemetry::{HistogramSnapshot, NullRecorder};

    #[test]
    fn epilogue_flags_every_failure_branch() {
        let world = World::new();
        let (service, _) = world.service(1, CALM_SALTS, 1, 0, |_| 0, Arc::new(NullRecorder));
        let clean = service.stats();
        assert!(ledger_violations(&clean, Some(0), world.sim.actors()).is_empty());

        let mut unbalanced = clean.clone();
        unbalanced.issued = 3;
        unbalanced.accepted = 2;
        let v = ledger_violations(&unbalanced, None, (0, 0));
        assert!(v.len() == 1 && v[0].contains("books do not balance"), "{v:?}");

        let mut errored = clean.clone();
        errored.issued = 1;
        errored.errors = 1;
        let v = ledger_violations(&errored, None, (0, 0));
        assert!(v.len() == 1 && v[0].contains("CA errors"), "{v:?}");

        let mut unbilled = clean.clone();
        unbilled.issued = 2;
        unbilled.accepted = 2;
        let v = ledger_violations(&unbilled, Some(1), (0, 0));
        assert!(v.len() == 1 && v[0].contains("1 receipts for 2"), "{v:?}");
        assert!(ledger_violations(&unbilled, Some(2), (0, 0)).is_empty());
        assert!(ledger_violations(&unbilled, None, (0, 0)).is_empty());

        for actors in [(1, 0), (0, 1)] {
            let v = ledger_violations(&clean, None, actors);
            assert!(v.len() == 1 && v[0].contains("not quiescent"), "{v:?}");
        }
    }

    #[test]
    fn snapshot_digest_skips_only_the_trace_gauge() {
        let hist = |buckets: Vec<(u64, u64)>| {
            MetricSnapshot::Histogram(HistogramSnapshot {
                count: buckets.iter().map(|b| b.1).sum(),
                sum: 100,
                buckets,
                exemplar: None,
            })
        };
        let base = Snapshot {
            entries: vec![
                ("c".to_string(), MetricSnapshot::Counter(7)),
                ("g".to_string(), MetricSnapshot::Gauge(-3)),
                ("h".to_string(), hist(vec![(10, 2), (20, 1)])),
                (attrib::LAST_EXHAUSTED_TRACE.to_string(), MetricSnapshot::Gauge(41)),
            ],
        };
        let digest = |s: &Snapshot| fold_snapshot(0xD16E, s);
        let d0 = digest(&base);

        let mut trace_moved = base.clone();
        trace_moved.entries[3].1 = MetricSnapshot::Gauge(42);
        assert_eq!(digest(&trace_moved), d0, "the trace gauge is not replay-stable");

        let mut renamed = base.clone();
        renamed.entries[3].0 = "rbc_other_gauge".to_string();
        assert_ne!(digest(&renamed), d0, "only the named metric is skipped");

        let variants = [
            (0, MetricSnapshot::Counter(8)),
            (1, MetricSnapshot::Gauge(-2)),
            (2, hist(vec![(10, 2), (20, 2)])),
            (2, hist(vec![(10, 2), (40, 1)])),
        ];
        for (i, metric) in variants {
            let mut moved = base.clone();
            moved.entries[i].1 = metric;
            assert_ne!(digest(&moved), d0, "entry {i} change must move the digest");
        }
        let mut exemplar = base.clone();
        if let MetricSnapshot::Histogram(h) = &mut exemplar.entries[2].1 {
            h.exemplar = Some(rbc_telemetry::Exemplar { value: 5, trace_id: 9 });
        }
        assert_eq!(digest(&exemplar), d0, "exemplars carry trace ids and stay out");
    }
}
