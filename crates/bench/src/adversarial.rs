//! Adversarial admission-control run (`repro adversarial`).
//!
//! `repro attrib` proved the *detection* side of the exhaustion-flood
//! problem: per-client [`rbc_telemetry::CostReceipt`] attribution
//! isolates wrong-credential floods at orders-of-magnitude separation.
//! This run closes the loop and measures *enforcement*
//! ([`rbc_core::admission::AdmissionControl`]): the same honest
//! population is driven twice through the virtual-time world of
//! DESIGN.md §10, on fresh timelines — once alone (the no-flood
//! baseline), once against a wrong-credential flood — and the service
//! survives the attack or the run fails its cross-checks.
//!
//! The flood world exercises every enforcement mechanism:
//!
//! * attackers replay a small rotation of known-bad credentials — the
//!   **negative cache** answers the replays in O(1) with zero search
//!   cost — and periodically mint fresh wrong credentials, which drain
//!   their hash-priced **token buckets** to refusal;
//! * settled receipts and the attrib `top_exhausted` ranking
//!   **quarantine** the heavy hitters (refill collapses to a trickle);
//! * SLO burn alerts and dispatcher queue depth drive the **brownout**
//!   state machine through Degraded/Emergency and back to Normal after
//!   the flood, hysteretically;
//! * refused requests carry `retry_after` hints that honest clients
//!   honor with jittered backoff before retrying.
//!
//! Headline gates (ISSUE 10): honest p99 in the flood world within 2×
//! of the no-flood baseline, honest acceptance ≥ 99%, and bit-identical
//! replay digests. The report also prices the attack with the
//! [`rbc_core::attack`] opponent model: Equation 1 server work per
//! rejection vs the Equation 2 opponent key space, and the measured
//! flood cost with and without enforcement. Results land in
//! `BENCH_adversarial.json` from [`AdversarialOutcome::artifact`].

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_core::admission::{AdmissionConfig, AdmissionControl, BrownoutLevel};
use rbc_core::attack;
use rbc_core::protocol::{Client, DigestMsg, Verdict};
use rbc_core::service::AuthService;
use rbc_hash::DynDigest;
use rbc_pqc::LightSaber;
use rbc_puf::ModelPuf;
use rbc_telemetry::{attrib, exhaustion_slo, Alert, Attribution, NullRecorder, SloEvaluator};

use serde_json::Value as Json;

use crate::artifact::{detail, object};
use crate::world::{self, fold, ledger_violations, Actor, Replay, World, FLOOD_SALTS, MAX_D};
use crate::{Artifact, FloodSchedule};

/// Dispatcher queue limit.
const QUEUE_LIMIT: usize = 12;

/// Known-bad credentials each attacker caches and replays.
const ROTATION: usize = 2;

/// Every Nth attacker request mints a fresh wrong credential instead of
/// replaying the rotation (keeps draining the bucket).
const FRESH_EVERY: usize = 4;

/// Honest retry budget per authentication (each retry honors the
/// server's `retry_after` hint first).
const MAX_TRIES: u32 = 6;

/// Parameters of one adversarial run (a baseline world plus a flood
/// world, same seed). [`AdversarialConfig::standard`] is the
/// artifact-producing configuration; [`AdversarialConfig::quick`]
/// shrinks every duration for unit tests.
#[derive(Clone, Debug)]
pub struct AdversarialConfig {
    /// The honest population (both worlds) and the flood (flood world
    /// only).
    pub schedule: FloodSchedule,
}

impl AdversarialConfig {
    /// The full 90-simulated-second run.
    pub fn standard(seed: u64) -> Self {
        AdversarialConfig {
            schedule: FloodSchedule {
                seed,
                honest: 8,
                attackers: 4,
                phase: Duration::from_secs(30),
                interval: Duration::from_nanos(250_000_019),
                think_honest: Duration::from_secs(1),
                think_flood: Duration::from_millis(250),
                fast_window: Duration::from_secs(5),
                slow_window: Duration::from_secs(60),
            },
        }
    }

    /// A shrunk run for unit tests: 15 simulated seconds.
    pub fn quick(seed: u64) -> Self {
        AdversarialConfig {
            schedule: FloodSchedule {
                seed,
                honest: 6,
                attackers: 3,
                phase: Duration::from_secs(5),
                interval: Duration::from_nanos(100_000_019),
                think_honest: Duration::from_millis(600),
                think_flood: Duration::from_millis(150),
                fast_window: Duration::from_secs(2),
                slow_window: Duration::from_secs(10),
            },
        }
    }

    /// The admission policy under test. Depth caps stay at d = 1 in
    /// both brownout levels: honest clients carry at most one bit of
    /// noise, so brownouts cheapen every *wrong* credential ~128× while
    /// never costing an honest client its acceptance.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            burst_requests: 4,
            refill_requests_per_sec: 1.0,
            quarantine_refill_permille: 50,
            quarantine_after_exhaustions: 3,
            negative_cache_capacity: 1024,
            retry_after_ms: 150,
            max_retry_after_ms: 2_000,
            degraded_queue_depth: 4,
            emergency_queue_depth: 9,
            recovery_observations: 8,
            degraded_max_d: 1,
            emergency_max_d: 1,
            ..AdmissionConfig::for_bound(MAX_D)
        }
    }
}

/// Unique backoff jitter for honest client `i`'s `tries`-th retry,
/// added on top of the server's `retry_after` hint.
fn retry_jitter(i: usize, tries: u32) -> Duration {
    Duration::from_nanos((i as u64 + 1) * 1_000_003 + tries as u64 * 131 + 17)
}

/// One sub-run's service ledger (the `issued = accepted + rejected +
/// timed_out + shed + errors` books, plus the honest-client tally).
#[derive(Clone, Debug, serde::Serialize)]
pub struct RunLedger {
    /// Requests issued (calls to `complete`).
    pub issued: u64,
    /// Accepted verdicts.
    pub accepted: u64,
    /// Rejected verdicts (cached and searched).
    pub rejected: u64,
    /// Timed-out verdicts.
    pub timed_out: u64,
    /// Shed verdicts (dispatcher + admission refusals).
    pub shed: u64,
    /// CA-validation errors.
    pub errors: u64,
    /// Receipts minted (must equal `issued - errors`).
    pub receipts: u64,
    /// Hashes billed across every receipt.
    pub hashes: u64,
    /// Honest authentications attempted (retry loops count once).
    pub honest_attempts: u64,
    /// Honest authentications that ended accepted.
    pub honest_accepted: u64,
}

/// Everything one world (baseline or flood) produced.
struct WorldResult {
    ledger: RunLedger,
    /// Honest end-to-end latencies (first hello to final verdict,
    /// retries and backoffs included), nanoseconds.
    latencies_ns: Vec<u64>,
    attacker_requests: u64,
    attacker_hashes: u64,
    tokens_spent: u64,
    tokens_refused: u64,
    cache_hits: u64,
    quarantines: u64,
    admission_shed: u64,
    depth_capped: u64,
    peak_level: BrownoutLevel,
    final_level: BrownoutLevel,
    alerts: Vec<Alert>,
    /// Total calibrated backend rate (hashes/sec) from the receipts.
    calibrated_rate: f64,
    sim_secs: f64,
    /// Ledger and timeline violations of this world.
    violations: Vec<String>,
    digest: u64,
}

/// One client actor's tally: honest clients fill the latency and
/// acceptance fields, attackers the request count.
#[derive(Default)]
struct Tally {
    latencies_ns: Vec<u64>,
    attempts: u64,
    accepted: u64,
    requests: u64,
}

/// The flood: replay a rotation of known-bad credentials
/// (negative-cache fodder) and mint a fresh wrong one every
/// [`FRESH_EVERY`] requests (bucket drain). Ignores every retry_after
/// hint — that is the point.
fn attacker(
    sched: &FloodSchedule,
    svc: &AuthService<LightSaber>,
    i: usize,
    client: Client<ModelPuf>,
    actor: &Actor,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(sched.mix(0x3000 ^ i as u64));
    let mut cached: Vec<DynDigest> = Vec::new();
    let mut n = 0usize;
    let mut requests = 0u64;
    actor.sleep(sched.phase);
    actor.sleep(sched.arrival(i));
    while actor.elapsed() < sched.phase * 2 {
        let hello = client.hello();
        let Ok(challenge) = svc.begin(&hello) else { break };
        let fresh = cached.len() < ROTATION || n.is_multiple_of(FRESH_EVERY);
        let msg = if fresh {
            client.respond(&challenge, &mut rng)
        } else {
            DigestMsg {
                client_id: client.id,
                session: challenge.session,
                digest: cached[n % cached.len()],
                trace: challenge.trace,
            }
        };
        n += 1;
        let Ok(v) = svc.complete(&msg) else { break };
        requests += 1;
        if fresh && v.verdict == Verdict::Rejected && cached.len() < ROTATION {
            cached.push(msg.digest);
        }
        actor.sleep(sched.think(i));
    }
    Tally { requests, ..Tally::default() }
}

/// Honest clients authenticate for the whole span. A shed verdict is
/// retried after honoring the server's retry_after hint (plus
/// client-unique jitter); the measured latency covers the full intent,
/// retries and backoff included.
fn honest(
    sched: &FloodSchedule,
    svc: &AuthService<LightSaber>,
    i: usize,
    client: Client<ModelPuf>,
    actor: &Actor,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(sched.mix(0x3000 ^ i as u64));
    let mut tally = Tally::default();
    actor.sleep(sched.arrival(i));
    while actor.elapsed() < sched.run_span() {
        let t0 = actor.elapsed();
        let mut accepted = false;
        let mut tries = 0u32;
        loop {
            tries += 1;
            let hello = client.hello();
            let Ok(challenge) = svc.begin(&hello) else { break };
            let digest = client.respond(&challenge, &mut rng);
            let Ok(v) = svc.complete(&digest) else { break };
            match v.verdict {
                Verdict::Accepted { .. } => {
                    accepted = true;
                    break;
                }
                Verdict::Overloaded { retry_after_ms } if tries < MAX_TRIES => {
                    actor.sleep(
                        Duration::from_millis(retry_after_ms.max(1)) + retry_jitter(i, tries),
                    );
                }
                _ => break,
            }
        }
        let lat = actor.elapsed() - t0;
        tally.latencies_ns.push(u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX));
        tally.attempts += 1;
        tally.accepted += u64::from(accepted);
        actor.sleep(sched.think(i));
    }
    tally
}

/// Runs one seeded world on a fresh virtual timeline; `with_attackers`
/// switches the flood on.
fn run_world(cfg: &AdversarialConfig, with_attackers: bool) -> WorldResult {
    let sched = &cfg.schedule;
    let world = World::new();
    let attribution = Arc::new(Attribution::new(world.registry.clone(), sched.clients()));
    let admission = Arc::new(AdmissionControl::with_clock(
        cfg.admission(),
        &world.registry,
        world.clock.clone(),
    ));
    let (service, clients) = world.service(
        sched.seed,
        FLOOD_SALTS,
        QUEUE_LIMIT,
        sched.clients(),
        |i| sched.noise(i),
        Arc::new(NullRecorder),
    );
    let service = service.with_attribution(attribution.clone()).with_admission(admission.clone());

    let slos = vec![exhaustion_slo("exhaustion")
        .windows(sched.fast_window, sched.slow_window)
        .thresholds(1.0, 6.0)];
    let mut evaluator = SloEvaluator::new(slos);
    let quarantine_after = cfg.admission().quarantine_after_exhaustions;
    let mut alerts: Vec<Alert> = Vec::new();
    let mut peak_level = BrownoutLevel::Normal;
    // The detect→enforce evaluator: observes the SLO over direct
    // registry snapshots, feeds burn alerts into the brownout state
    // machine, quarantines the attrib exhaustion heavy hitters, and
    // re-prices bucket refill from receipt-measured backend rates.
    let tick = |at_ns| {
        let new_alerts = evaluator.observe(at_ns, &world.registry.snapshot(), None);
        for a in &new_alerts {
            admission.observe_alert(a);
        }
        alerts.extend(new_alerts);
        peak_level = peak_level.max(admission.level());
        for h in attribution.top_exhausted(sched.clients()) {
            if h.count >= quarantine_after {
                if let Ok(id) = h.key.parse::<u64>() {
                    admission.quarantine(id);
                }
            }
        }
        let rate: f64 = attribution.calibration().iter().map(|c| c.rate()).sum();
        admission.calibrate(rate, sched.clients() as u64);
    };
    let tallies = world.run(
        sched.run_span(),
        sched.interval,
        tick,
        clients.into_iter().enumerate().filter(|(i, _)| with_attackers || !sched.is_attacker(*i)),
        |i, client, actor| {
            if sched.is_attacker(i) {
                attacker(sched, &service, i, client, actor)
            } else {
                honest(sched, &service, i, client, actor)
            }
        },
    );

    let stats = service.stats();
    let snap = world.registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let mut latencies_ns: Vec<u64> = Vec::new();
    let (mut honest_attempts, mut honest_accepted, mut attacker_requests) = (0u64, 0u64, 0u64);
    for (_, t) in tallies {
        latencies_ns.extend(t.latencies_ns);
        honest_attempts += t.attempts;
        honest_accepted += t.accepted;
        attacker_requests += t.requests;
    }
    latencies_ns.sort_unstable();
    let attacker_hashes: u64 = attribution
        .top_hashes(sched.clients())
        .iter()
        .filter(|h| h.key.parse::<usize>().is_ok_and(|id| sched.is_attacker(id)))
        .map(|h| h.count)
        .sum();
    let calibrated_rate: f64 = attribution.calibration().iter().map(|c| c.rate()).sum();
    let receipts = counter(attrib::RECEIPTS_TOTAL);

    // Digest over everything replay-stable: the honest latency series,
    // the service and admission ledgers, the alert log and the final
    // telemetry snapshot.
    let mut digest = fold(0xADA7_0001, sched.seed);
    digest = fold(digest, with_attackers as u64);
    for l in &latencies_ns {
        digest = fold(digest, *l);
    }
    for v in [
        stats.issued,
        stats.accepted,
        stats.rejected,
        stats.timed_out,
        stats.overloaded,
        stats.errors,
        honest_attempts,
        honest_accepted,
        attacker_requests,
        attacker_hashes,
    ] {
        digest = fold(digest, v);
    }
    let digest = world.seal(digest, &alerts);

    WorldResult {
        ledger: RunLedger {
            issued: stats.issued,
            accepted: stats.accepted,
            rejected: stats.rejected,
            timed_out: stats.timed_out,
            shed: stats.overloaded,
            errors: stats.errors,
            receipts,
            hashes: counter(attrib::HASHES_TOTAL),
            honest_attempts,
            honest_accepted,
        },
        latencies_ns,
        attacker_requests,
        attacker_hashes,
        tokens_spent: counter("rbc_admission_tokens_spent_total"),
        tokens_refused: counter("rbc_admission_tokens_refused_total"),
        cache_hits: counter("rbc_admission_negative_cache_hits_total"),
        quarantines: counter("rbc_admission_quarantine_total"),
        admission_shed: counter("rbc_admission_shed_total"),
        depth_capped: counter("rbc_admission_depth_capped_total"),
        peak_level,
        final_level: admission.level(),
        alerts,
        calibrated_rate,
        sim_secs: world.sim.virtual_elapsed().as_secs_f64(),
        violations: ledger_violations(&stats, Some(receipts), world.sim.actors()),
        digest,
    }
}

/// Everything one adversarial run produced (both worlds).
#[derive(Clone, Debug)]
pub struct AdversarialOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Evaluator ticks per world.
    pub ticks: u64,
    /// Virtual seconds the flood world spanned.
    pub sim_secs: f64,
    /// No-flood world ledger.
    pub baseline: RunLedger,
    /// Flood world ledger.
    pub flood: RunLedger,
    /// Honest p99 latency, no-flood world, milliseconds.
    pub p99_baseline_ms: f64,
    /// Honest p99 latency under the flood, milliseconds.
    pub p99_flood_ms: f64,
    /// `p99_flood_ms / p99_baseline_ms` — the headline ≤ 2.0 gate.
    pub p99_ratio: f64,
    /// Honest acceptance under the flood — the headline ≥ 0.99 gate.
    pub honest_acceptance: f64,
    /// Hashes debited from buckets at admission (flood world).
    pub tokens_spent: u64,
    /// Requests refused on an empty bucket (flood world).
    pub tokens_refused: u64,
    /// Replays answered from the negative cache (flood world).
    pub cache_hits: u64,
    /// Clients quarantined (flood world).
    pub quarantines: u64,
    /// Requests shed by the Emergency priority rule (flood world).
    pub admission_shed: u64,
    /// Requests admitted with a brownout-capped depth (flood world).
    pub depth_capped: u64,
    /// Highest brownout level observed during the flood world.
    pub brownout_peak: &'static str,
    /// Brownout level at the end of the flood world (must recover).
    pub brownout_final: &'static str,
    /// Requests the attackers completed.
    pub attacker_requests: u64,
    /// Hashes actually billed to attackers (enforced cost).
    pub attacker_hashes: u64,
    /// `attacker_requests × u(d)` — what the same flood would have cost
    /// without enforcement.
    pub unenforced_hashes: u64,
    /// `1 − attacker_hashes / unenforced_hashes` — search work the
    /// admission layer refused to do.
    pub avoided_share: f64,
    /// Equation 1 server work per wrong credential: `u(d)` hashes.
    pub server_price: u64,
    /// Equation 2 vs Equation 1 asymmetry at the configured `d`, bits.
    pub asymmetry_bits: f64,
    /// Expected opponent brute-force time at the receipt-calibrated
    /// backend rate, log10(years).
    pub opponent_log10_years: f64,
    /// Exhaustion-SLO transitions in the flood world, in order.
    pub alerts: Vec<Alert>,
    /// The active SIMD kernel tier (machine-dependent; excluded from
    /// the digest).
    pub kernel: &'static str,
    /// Digest over both worlds — the replay-determinism gate.
    pub digest: u64,
    /// Cross-checks that failed (empty on a clean run).
    pub violations: Vec<String>,
}

fn p99_ms(sorted_ns: &[u64]) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

/// Runs the baseline and flood worlds on the same seed and cross-checks
/// the enforcement story.
pub fn run_adversarial(cfg: &AdversarialConfig) -> AdversarialOutcome {
    let baseline = run_world(cfg, false);
    let flood = run_world(cfg, true);

    let p99_baseline_ms = p99_ms(&baseline.latencies_ns);
    let p99_flood_ms = p99_ms(&flood.latencies_ns);
    let p99_ratio = if p99_baseline_ms > 0.0 { p99_flood_ms / p99_baseline_ms } else { f64::NAN };
    let honest_acceptance = if flood.ledger.honest_attempts > 0 {
        flood.ledger.honest_accepted as f64 / flood.ledger.honest_attempts as f64
    } else {
        0.0
    };
    let price = cfg.admission().price();
    let unenforced_hashes = flood.attacker_requests.saturating_mul(price);
    let avoided_share = if unenforced_hashes > 0 {
        1.0 - flood.attacker_hashes as f64 / unenforced_hashes as f64
    } else {
        0.0
    };

    let mut violations = Vec::new();
    for (world, r) in [("baseline", &baseline), ("flood", &flood)] {
        violations.extend(r.violations.iter().map(|v| format!("{world}: {v}")));
        let l = &r.ledger;
        if l.honest_attempts > 0 && (l.honest_accepted as f64 / l.honest_attempts as f64) < 0.99 {
            violations.push(format!(
                "{world}: honest acceptance {}/{} below 99%",
                l.honest_accepted, l.honest_attempts
            ));
        }
    }
    if !(0.0..=2.0).contains(&p99_ratio) {
        violations.push(format!(
            "honest p99 blew the 2x budget: {p99_flood_ms:.1} ms vs {p99_baseline_ms:.1} ms \
             baseline ({p99_ratio:.2}x)"
        ));
    }
    if flood.attacker_requests == 0 {
        violations.push("the flood never issued a request".to_string());
    }
    if flood.cache_hits == 0 {
        violations.push("negative cache never answered a replay".to_string());
    }
    if flood.tokens_refused == 0 {
        violations.push("token bucket never refused a request".to_string());
    }
    if flood.quarantines == 0 {
        violations.push("no client was quarantined".to_string());
    }
    if flood.peak_level == BrownoutLevel::Normal {
        violations.push("brownout never engaged during the flood".to_string());
    }
    if flood.final_level != BrownoutLevel::Normal {
        violations.push(format!(
            "brownout did not recover: still {} at end of run",
            flood.final_level.name()
        ));
    }
    if avoided_share < 0.5 {
        violations.push(format!(
            "enforcement avoided only {:.0}% of the flood's search work",
            avoided_share * 100.0
        ));
    }

    let sched = &cfg.schedule;
    let digest = fold(fold(fold(0xADA7_D169, sched.seed), baseline.digest), flood.digest);

    AdversarialOutcome {
        seed: sched.seed,
        ticks: world::ticks(sched.run_span(), sched.interval),
        sim_secs: flood.sim_secs,
        baseline: baseline.ledger,
        flood: flood.ledger.clone(),
        p99_baseline_ms,
        p99_flood_ms,
        p99_ratio,
        honest_acceptance,
        tokens_spent: flood.tokens_spent,
        tokens_refused: flood.tokens_refused,
        cache_hits: flood.cache_hits,
        quarantines: flood.quarantines,
        admission_shed: flood.admission_shed,
        depth_capped: flood.depth_capped,
        brownout_peak: flood.peak_level.name(),
        brownout_final: flood.final_level.name(),
        attacker_requests: flood.attacker_requests,
        attacker_hashes: flood.attacker_hashes,
        unenforced_hashes,
        avoided_share,
        server_price: price,
        asymmetry_bits: attack::asymmetry_bits(MAX_D),
        opponent_log10_years: attack::opponent_log10_years(flood.calibrated_rate.max(1.0)),
        alerts: flood.alerts,
        kernel: rbc_hash::dispatch::active_level().name(),
        digest,
        violations,
    }
}

/// Renders the run as a plain-text enforcement report. `color` toggles
/// ANSI escapes.
pub fn render_adversarial(o: &AdversarialOutcome, color: bool) -> String {
    let paint = |code: &str, s: &str| world::paint(color, code, s);
    let ok = |good: bool, s: &str| {
        if good {
            paint("32", s)
        } else {
            paint("31;1", s)
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "== repro adversarial — seed {:#x}, {:.0} sim-s per world, kernel {} ==\n",
        o.seed, o.sim_secs, o.kernel
    ));
    out.push_str(&format!(
        "  honest p99  baseline {:.1} ms, under flood {:.1} ms ({})\n",
        o.p99_baseline_ms,
        o.p99_flood_ms,
        ok(o.p99_ratio <= 2.0, &format!("{:.2}x <= 2x", o.p99_ratio)),
    ));
    out.push_str(&format!(
        "  honest acceptance under flood  {} ({}/{})\n",
        ok(o.honest_acceptance >= 0.99, &format!("{:.2}%", o.honest_acceptance * 100.0)),
        o.flood.honest_accepted,
        o.flood.honest_attempts,
    ));
    out.push_str(&format!(
        "  enforcement  cache hits {}  bucket refusals {}  quarantined {}  \
         emergency sheds {}  depth-capped {}\n",
        o.cache_hits, o.tokens_refused, o.quarantines, o.admission_shed, o.depth_capped
    ));
    out.push_str(&format!(
        "  brownout     peak {}  final {}\n",
        o.brownout_peak,
        ok(o.brownout_final == "normal", o.brownout_final),
    ));
    out.push_str(&format!(
        "  flood cost   {} attacker requests billed {} hashes; unenforced {} \
         ({} avoided)\n",
        o.attacker_requests,
        o.attacker_hashes,
        o.unenforced_hashes,
        ok(o.avoided_share >= 0.5, &format!("{:.1}%", o.avoided_share * 100.0)),
    ));
    out.push_str(&format!(
        "  asymmetry    server u(d) = {} hashes/rejection (Eq. 1); opponent 2^256 \
         (Eq. 2): {:.1} bits apart, ~1e{:.0} years at the calibrated rate\n",
        o.server_price, o.asymmetry_bits, o.opponent_log10_years
    ));
    out.push_str(&world::render_alerts(&o.alerts, color, 13));
    let ledger = |name: &str, l: &RunLedger| {
        format!(
            "  {name:<12} issued {}  accepted {}  rejected {}  shed {}  timed-out {}\n",
            l.issued, l.accepted, l.rejected, l.shed, l.timed_out
        )
    };
    out.push_str(&ledger("baseline", &o.baseline));
    out.push_str(&ledger("flood", &o.flood));
    if o.violations.is_empty() {
        out.push_str(&format!("  checks       {}\n", paint("32", "all cross-checks passed")));
    } else {
        for v in &o.violations {
            out.push_str(&format!("  {} {v}\n", paint("31;1", "VIOLATION")));
        }
    }
    out.push_str(&format!("  digest       {:016x}\n", o.digest));
    out
}

impl AdversarialOutcome {
    /// The `BENCH_adversarial.json` artifact of this run and its
    /// `replay`. Gates a full run span, a replay with no divergence, no
    /// cross-check violation, balanced books (≥ 50 requests, a receipt
    /// per completed request) in both worlds, the headline bars (honest
    /// acceptance ≥ 99% and p99 within 2× of the baseline under the
    /// flood), every enforcement mechanism engaged (cache hits, bucket
    /// refusals, a quarantine, a brownout that engaged and recovered),
    /// at least half the flood's search work avoided, and the
    /// Equation 1 / Equation 2 asymmetry in range. Every enforcement
    /// and ledger counter is recorded exactly in `BASELINE.json`.
    /// `detail` holds both ledgers and the alert log.
    pub fn artifact(&self, replay: Replay) -> Artifact {
        let mut a = Artifact::new(
            "adversarial",
            object(vec![
                ("seed", Json::UInt(self.seed)),
                ("kernel", Json::Str(self.kernel.to_string())),
                ("brownout_peak", Json::Str(self.brownout_peak.to_string())),
                ("brownout_final", Json::Str(self.brownout_final.to_string())),
                ("baseline", detail(&self.baseline)),
                ("flood", detail(&self.flood)),
                ("alerts", world::alerts_detail(&self.alerts)),
            ]),
        );
        a.metric("adversarial.ticks", self.ticks).baseline_exact();
        world::replay_metrics(&mut a, replay, self.violations.len(), self.sim_secs);
        a.metric("adversarial.cache_hits", self.cache_hits).at_least(1.0).baseline_exact();
        a.metric("adversarial.tokens_refused", self.tokens_refused).at_least(1.0).baseline_exact();
        a.metric("adversarial.quarantines", self.quarantines).at_least(1.0).baseline_exact();
        a.metric("adversarial.admission_shed", self.admission_shed).baseline_exact();
        a.metric("adversarial.depth_capped", self.depth_capped).baseline_exact();
        a.metric("adversarial.attacker_requests", self.attacker_requests).baseline_exact();
        a.metric("adversarial.attacker_hashes", self.attacker_hashes).baseline_exact();
        for (world, l) in [("baseline", &self.baseline), ("flood", &self.flood)] {
            let id = format!("adversarial.{world}");
            a.metric(format!("{id}_issued"), l.issued).at_least(50.0).baseline_exact();
            a.metric(format!("{id}_accepted"), l.accepted).baseline_exact();
            a.metric(format!("{id}_rejected"), l.rejected).baseline_exact();
            a.metric(format!("{id}_shed"), l.shed).baseline_exact();
            let outcomes = [l.accepted, l.rejected, l.timed_out, l.shed, l.errors];
            a.metric(format!("{id}_unbooked"), world::unbooked(l.issued, outcomes)).exactly(0.0);
            let unbilled = l.issued as f64 - l.errors as f64 - l.receipts as f64;
            a.metric(format!("{id}_unbilled_requests"), unbilled).exactly(0.0);
        }
        a.metric("adversarial.honest_acceptance", self.honest_acceptance).at_least(0.99);
        a.metric("adversarial.p99_baseline_ms", self.p99_baseline_ms);
        a.metric("adversarial.p99_flood_ms", self.p99_flood_ms);
        a.metric("adversarial.p99_ratio", self.p99_ratio).at_most(2.0);
        a.metric("adversarial.tokens_spent", self.tokens_spent);
        a.metric("adversarial.brownout_engaged", self.brownout_peak != "normal").exactly(1.0);
        a.metric("adversarial.brownout_recovered", self.brownout_final == "normal").exactly(1.0);
        a.metric("adversarial.unenforced_hashes", self.unenforced_hashes);
        a.metric("adversarial.avoided_share", self.avoided_share).at_least(0.5);
        a.metric("adversarial.server_price", self.server_price);
        a.metric("adversarial.asymmetry_bits", self.asymmetry_bits).at_least(200.0);
        a.metric("adversarial.opponent_log10_years", self.opponent_log10_years).at_least(40.0);
        a.digest("adversarial.digest", self.digest);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_telemetry::Severity;

    #[test]
    fn quick_run_survives_the_flood_and_replays_identically() {
        let cfg = AdversarialConfig::quick(0xADA7_0B5E);
        let first = run_adversarial(&cfg);
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        assert!(first.honest_acceptance >= 0.99, "{}", first.honest_acceptance);
        assert!(first.p99_ratio <= 2.0, "{} vs {}", first.p99_flood_ms, first.p99_baseline_ms);
        assert!(first.cache_hits > 0 && first.tokens_refused > 0 && first.quarantines > 0);
        assert_ne!(first.brownout_peak, "normal");
        assert_eq!(first.brownout_final, "normal");
        assert!(first.avoided_share >= 0.5, "{}", first.avoided_share);

        let replay = run_adversarial(&cfg);
        assert_eq!(first.digest, replay.digest, "replay must be bit-identical");
        assert_eq!(first.flood.issued, replay.flood.issued);
    }

    #[test]
    fn adversarial_artifact_gates_enforcement() {
        let ledger = |issued: u64, accepted: u64, rejected: u64, shed: u64| RunLedger {
            issued,
            accepted,
            rejected,
            timed_out: 0,
            shed,
            errors: 0,
            receipts: issued,
            hashes: 1_000_000,
            honest_attempts: accepted + 1,
            honest_accepted: accepted,
        };
        let outcome = AdversarialOutcome {
            seed: 0xADA7,
            ticks: 360,
            sim_secs: 90.0,
            baseline: ledger(240, 240, 0, 0),
            flood: ledger(400, 238, 150, 12),
            p99_baseline_ms: 120.0,
            p99_flood_ms: 180.0,
            p99_ratio: 1.5,
            honest_acceptance: 0.996,
            tokens_spent: 500_000,
            tokens_refused: 40,
            cache_hits: 120,
            quarantines: 4,
            admission_shed: 6,
            depth_capped: 30,
            brownout_peak: "emergency",
            brownout_final: "normal",
            attacker_requests: 160,
            attacker_hashes: 400_000,
            unenforced_hashes: 160 * 32_897,
            avoided_share: 0.92,
            server_price: 32_897,
            asymmetry_bits: 241.0,
            opponent_log10_years: 60.0,
            alerts: vec![Alert {
                spec: "exhaustion".to_string(),
                severity: Severity::Warn,
                at_ns: 35_000_000_000,
                fast_burn: 3.0,
                slow_burn: 1.0,
            }],
            kernel: "avx2",
            digest: 0x0123_4567_89AB_CDEF,
            violations: Vec::new(),
        };
        let gate = |f: &dyn Fn(&mut AdversarialOutcome) -> (u64, u64)| {
            let mut o = outcome.clone();
            let (replayed, divergences) = f(&mut o);
            let a = o.artifact(Replay { replayed, divergences, wall_secs: 2.0 });
            a.gate(&a.to_json())
        };
        let fails_on = |id: &str, f: &dyn Fn(&mut AdversarialOutcome) -> (u64, u64)| {
            let err = gate(f).expect_err(id);
            assert!(err.contains(id), "{err}");
        };

        gate(&|_| (1, 0)).expect("round trip passes");
        fails_on("adversarial.divergences", &|_| (1, 1));
        fails_on("adversarial.replayed", &|_| (0, 0));
        fails_on("adversarial.honest_acceptance", &|o| {
            o.honest_acceptance = 0.9;
            (1, 0)
        });
        fails_on("adversarial.p99_ratio", &|o| {
            o.p99_ratio = 3.5;
            (1, 0)
        });
        fails_on("adversarial.cache_hits", &|o| {
            o.cache_hits = 0;
            (1, 0)
        });
        fails_on("adversarial.tokens_refused", &|o| {
            o.tokens_refused = 0;
            (1, 0)
        });
        fails_on("adversarial.quarantines", &|o| {
            o.quarantines = 0;
            (1, 0)
        });
        fails_on("adversarial.brownout_engaged", &|o| {
            o.brownout_peak = "normal";
            (1, 0)
        });
        fails_on("adversarial.brownout_recovered", &|o| {
            o.brownout_final = "degraded";
            (1, 0)
        });
        fails_on("adversarial.avoided_share", &|o| {
            o.avoided_share = 0.2;
            (1, 0)
        });
        fails_on("adversarial.flood_unbooked", &|o| {
            o.flood.accepted += 1;
            (1, 0)
        });
        fails_on("adversarial.baseline_unbilled_requests", &|o| {
            o.baseline.receipts -= 1;
            (1, 0)
        });
        fails_on("adversarial.flood_issued", &|o| {
            o.flood = ledger(40, 30, 10, 0);
            (1, 0)
        });
        fails_on("adversarial.asymmetry_bits", &|o| {
            o.asymmetry_bits = 150.0;
            (1, 0)
        });
        fails_on("adversarial.opponent_log10_years", &|o| {
            o.opponent_log10_years = 20.0;
            (1, 0)
        });
        // A NaN ratio (no baseline p99) is not a number the file can hold.
        fails_on("adversarial.p99_ratio", &|o| {
            o.p99_ratio = f64::NAN;
            (1, 0)
        });
    }

    #[test]
    fn report_renders_plain_and_colored() {
        let cfg = AdversarialConfig::quick(0xADA7_0B5E);
        let o = run_adversarial(&cfg);
        let plain = render_adversarial(&o, false);
        assert!(plain.contains("honest p99"));
        assert!(plain.contains("enforcement"));
        assert!(plain.contains("asymmetry"));
        assert!(!plain.contains('\x1b'), "plain mode has no escapes");
        let colored = render_adversarial(&o, true);
        assert!(colored.contains('\x1b'), "color mode uses ANSI escapes");
    }
}
