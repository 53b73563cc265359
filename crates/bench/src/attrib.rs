//! Workload-attribution run (`repro attrib`).
//!
//! Answers "who is eating the hashes?" with receipts instead of
//! aggregates: a seeded honest mix and a staged wrong-credential flood
//! share the virtual-time world of DESIGN.md §10, every verdict mints a
//! [`rbc_telemetry::CostReceipt`], and the [`Attribution`] sinks fold
//! the receipts into per-client heavy-hitter sketches, per-`d`
//! verdict-split histograms and per-backend calibration. Three phases:
//!
//! * **calm** (first third): honest clients authenticate inside the
//!   search bound — cheap accepts, exhaustion share ≈ 0;
//! * **flood** (second third): attacker clients join with noise far
//!   beyond `max_d`, so every one of their searches pays the full
//!   C(256,0..=d) exhaustion before rejecting. The exhaustion-share
//!   SLO burns through warn to page, which freezes the
//!   [`FlightRecorder`] on the offending trace;
//! * **recovery** (final third): the flood stops, the fast burn window
//!   drains, and the alert clears.
//!
//! The determinism gate matches `repro monitor`: the run is virtual
//! time end to end, and a replay of the same seed must reproduce the
//! top-K tables, the alert log, the calibration set and the whole
//! telemetry snapshot bit for bit. (The one excluded metric is the
//! `rbc_attrib_last_exhausted_trace` gauge — trace ids come from a
//! process-global counter; the frozen trace is instead cross-checked
//! against the attacker trace set.) Results land in
//! `BENCH_attrib.json` from [`AttribOutcome::artifact`].

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_telemetry::{
    attrib, exhaustion_slo, Alert, Attribution, BackendCalibration, FlightRecorder, HeavyHitter,
    Recorder, Severity, SloEvaluator, Tracer,
};

use serde_json::Value as Json;

use crate::artifact::{detail, object};
use crate::world::{self, fold, fold_bytes, ledger_violations, Replay, World, FLOOD_SALTS};
use crate::{Artifact, FloodSchedule};

/// Dispatcher queue limit.
const QUEUE_LIMIT: usize = 8;

/// Parameters of one attribution run. [`AttribConfig::standard`] is the
/// artifact-producing configuration; [`AttribConfig::quick`] shrinks
/// every duration for unit tests.
#[derive(Clone, Debug)]
pub struct AttribConfig {
    /// The honest population and the flood.
    pub schedule: FloodSchedule,
    /// Heavy-hitter table capacity. Smaller than the client population,
    /// so the run also exercises space-saving eviction.
    pub top_k: usize,
}

impl AttribConfig {
    /// The full 90-simulated-second staged-flood run.
    pub fn standard(seed: u64) -> Self {
        AttribConfig {
            schedule: FloodSchedule {
                seed,
                honest: 8,
                attackers: 4,
                phase: Duration::from_secs(30),
                interval: Duration::from_nanos(250_000_019),
                think_honest: Duration::from_secs(2),
                think_flood: Duration::from_millis(300),
                fast_window: Duration::from_secs(5),
                slow_window: Duration::from_secs(60),
            },
            top_k: 8,
        }
    }

    /// A shrunk run for unit tests: 15 simulated seconds.
    pub fn quick(seed: u64) -> Self {
        AttribConfig {
            schedule: FloodSchedule {
                seed,
                honest: 6,
                attackers: 3,
                phase: Duration::from_secs(5),
                interval: Duration::from_nanos(100_000_019),
                think_honest: Duration::from_millis(800),
                think_flood: Duration::from_millis(200),
                fast_window: Duration::from_secs(2),
                slow_window: Duration::from_secs(10),
            },
            top_k: 6,
        }
    }
}

/// Everything one attribution run produced.
#[derive(Clone, Debug)]
pub struct AttribOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// SLO evaluation ticks taken.
    pub ticks: u64,
    /// Virtual seconds the run spanned.
    pub sim_secs: f64,
    /// Heavy hitters by hashes consumed, descending.
    pub top_hashes: Vec<HeavyHitter>,
    /// Heavy hitters by exhausted-rejection count, descending.
    pub top_exhausted: Vec<HeavyHitter>,
    /// Per-backend calibrated rates derived from the receipts.
    pub calibration: Vec<BackendCalibration>,
    /// Exhaustion-SLO severity transitions, in order.
    pub alerts: Vec<Alert>,
    /// Requests issued (service ledger).
    pub issued: u64,
    /// Accepted verdicts.
    pub accepted: u64,
    /// Rejected verdicts (the flood's exhausted searches).
    pub rejected: u64,
    /// Timed-out verdicts.
    pub timed_out: u64,
    /// Shed (overloaded) verdicts.
    pub shed: u64,
    /// CA-validation errors.
    pub errors: u64,
    /// Receipts minted (must equal `issued - errors`).
    pub receipts: u64,
    /// Hashes billed across every receipt.
    pub hashes: u64,
    /// Hashes billed to exhausted (rejected) searches.
    pub exhausted_hashes: u64,
    /// Whether the page froze the flight recorder.
    pub flight_frozen: bool,
    /// Whether the frozen trace belongs to an attacker session — "the
    /// offending trace", cross-checked against the attacker trace set
    /// (trace ids are process-global, so this is a membership check,
    /// not a digest input).
    pub frozen_trace_is_attacker: bool,
    /// Whether the hashes-consumed top-K ranks every attacker above
    /// every honest client.
    pub attackers_isolated: bool,
    /// The active SIMD kernel tier receipts were stamped with
    /// (machine-dependent; excluded from the digest).
    pub kernel: &'static str,
    /// Digest over the top-K tables, calibration, alert log, and the
    /// final telemetry snapshot — the replay-determinism gate.
    pub digest: u64,
    /// Cross-checks that failed (empty on a clean run).
    pub violations: Vec<String>,
}

/// Runs one seeded attribution world on a fresh virtual timeline.
pub fn run_attrib(cfg: &AttribConfig) -> AttribOutcome {
    let sched = &cfg.schedule;
    let world = World::new();
    let attribution = Arc::new(Attribution::new(world.registry.clone(), cfg.top_k));
    let flight = Arc::new(FlightRecorder::with_capacities(512, 128).freeze_on(&[]));
    let recorder = flight.clone() as Arc<dyn Recorder>;
    let (service, clients) = world.service(
        sched.seed,
        FLOOD_SALTS,
        QUEUE_LIMIT,
        sched.clients(),
        |i| sched.noise(i),
        recorder.clone(),
    );
    let service = service.with_attribution(attribution.clone());
    let slo_tracer = Tracer::with_clock(recorder, world.clock.clone());

    let slos = vec![exhaustion_slo("exhaustion")
        .windows(sched.fast_window, sched.slow_window)
        .thresholds(1.0, 6.0)];
    let mut evaluator = SloEvaluator::new(slos).with_flight(flight.clone());
    let run_span = sched.run_span();
    let flood_start = sched.phase;
    let flood_end = sched.phase * 2;
    let mut alerts: Vec<Alert> = Vec::new();
    let traces = world.run(
        run_span,
        sched.interval,
        |at_ns| {
            alerts.extend(evaluator.observe(at_ns, &world.registry.snapshot(), Some(&slo_tracer)))
        },
        clients.into_iter().enumerate(),
        |i, client, actor| {
            let mut rng = StdRng::seed_from_u64(sched.mix(0x3000 ^ i as u64));
            let mut traces = Vec::new();
            // Attackers sit out the calm phase and leave when the
            // flood ends; honest clients run the whole span.
            let attacker = sched.is_attacker(i);
            let leave = if attacker { flood_end } else { run_span };
            if attacker {
                actor.sleep(flood_start);
            }
            actor.sleep(sched.arrival(i));
            while actor.elapsed() < leave {
                let hello = client.hello();
                traces.push(hello.trace.trace_id);
                let Ok(challenge) = service.begin(&hello) else { break };
                let digest = client.respond(&challenge, &mut rng);
                if service.complete(&digest).is_err() {
                    break;
                }
                actor.sleep(sched.think(i));
            }
            traces
        },
    );

    let stats = service.stats();
    let snap = world.registry.snapshot();
    let receipts = snap.counter(attrib::RECEIPTS_TOTAL).unwrap_or(0);
    let hashes = snap.counter(attrib::HASHES_TOTAL).unwrap_or(0);
    let exhausted_hashes = snap.counter(attrib::EXHAUSTED_HASHES_TOTAL).unwrap_or(0);
    let top_hashes = attribution.top_hashes(cfg.top_k);
    let top_exhausted = attribution.top_exhausted(cfg.top_k);
    let calibration = attribution.calibration();

    let attacker_ids: Vec<String> =
        (sched.honest..sched.clients()).map(|i| i.to_string()).collect();
    // Isolation: every attacker id occupies the head of the ranking,
    // strictly above the best honest client.
    let head: Vec<&str> = top_hashes.iter().take(sched.attackers).map(|h| h.key.as_str()).collect();
    let attackers_isolated = attacker_ids.iter().all(|id| head.contains(&id.as_str()))
        && match (
            top_hashes.get(sched.attackers.saturating_sub(1)),
            top_hashes.get(sched.attackers),
        ) {
            (Some(last_attacker), Some(best_honest)) => last_attacker.count > best_honest.count,
            _ => !top_hashes.is_empty(),
        };
    let frozen_trace_is_attacker = flight
        .frozen_trace()
        .map(|t| traces.iter().any(|(i, ts)| sched.is_attacker(*i) && ts.contains(&t)))
        .unwrap_or(false);

    let mut violations = ledger_violations(&stats, Some(receipts), world.sim.actors());
    if !attackers_isolated {
        violations.push(format!(
            "top-K failed to isolate the flood: head {head:?}, attackers {attacker_ids:?}"
        ));
    }
    let paged_in_flood = alerts.iter().any(|a| {
        a.severity == Severity::Page
            && a.at_ns >= flood_start.as_nanos() as u64
            && a.at_ns <= (flood_end + sched.fast_window).as_nanos() as u64
    });
    if !paged_in_flood {
        violations.push("exhaustion SLO never paged during the flood window".to_string());
    }
    if alerts.last().map(|a| a.severity) != Some(Severity::Clear) {
        violations.push("exhaustion alert did not clear after the flood".to_string());
    }
    if !flight.is_frozen() {
        violations.push("page did not freeze the flight recorder".to_string());
    } else if !frozen_trace_is_attacker {
        violations.push("frozen trace does not belong to an attacker session".to_string());
    }

    // Digest: the rankings, the calibration set, the alert log, the
    // final telemetry snapshot and the virtual span.
    let mut digest = fold(0xA77B_0001, sched.seed);
    for h in top_hashes.iter().chain(top_exhausted.iter()) {
        digest = fold_bytes(digest, h.key.as_bytes());
        digest = fold(fold(digest, h.count), h.err);
    }
    for c in &calibration {
        digest = fold(digest, c.backend as u64);
        digest = fold_bytes(digest, c.kind.as_bytes());
        digest = fold(fold(digest, c.hashes), c.busy_ns);
    }
    let digest = world.seal(digest, &alerts);

    AttribOutcome {
        seed: sched.seed,
        ticks: world::ticks(run_span, sched.interval),
        sim_secs: world.sim.virtual_elapsed().as_secs_f64(),
        top_hashes,
        top_exhausted,
        calibration,
        alerts,
        issued: stats.issued,
        accepted: stats.accepted,
        rejected: stats.rejected,
        timed_out: stats.timed_out,
        shed: stats.overloaded,
        errors: stats.errors,
        receipts,
        hashes,
        exhausted_hashes,
        flight_frozen: flight.is_frozen(),
        frozen_trace_is_attacker,
        attackers_isolated,
        kernel: rbc_hash::dispatch::active_level().name(),
        digest,
        violations,
    }
}

/// Renders the run as a plain-text attribution report: the two top-K
/// tables, the exhaustion share, per-backend calibrated rates, and the
/// alert log. `color` toggles ANSI escapes.
pub fn render_attrib(o: &AttribOutcome, color: bool) -> String {
    let paint = |code: &str, s: &str| world::paint(color, code, s);
    let mut out = String::new();
    out.push_str(&format!(
        "== repro attrib — seed {:#x}, {:.0} sim-s, {} receipts ==\n",
        o.seed, o.sim_secs, o.receipts
    ));
    let share =
        if o.hashes > 0 { 100.0 * o.exhausted_hashes as f64 / o.hashes as f64 } else { 0.0 };
    out.push_str(&format!(
        "  hashes      {} billed, {} ({share:.1}%) to exhausted searches  kernel {}\n",
        o.hashes, o.exhausted_hashes, o.kernel
    ));
    out.push_str("  top-K by hashes consumed\n");
    for h in &o.top_hashes {
        out.push_str(&format!("    client {:<6} {:>12} hashes (±{})\n", h.key, h.count, h.err));
    }
    out.push_str("  top-K by exhausted rejections\n");
    for h in &o.top_exhausted {
        out.push_str(&format!("    client {:<6} {:>12} exhausted (±{})\n", h.key, h.count, h.err));
    }
    out.push_str("  backends (calibrated from receipts)\n");
    for c in &o.calibration {
        out.push_str(&format!(
            "    backend {} ({})  {:.2e} hashes/s over {:.1} busy-s\n",
            c.backend,
            c.kind,
            c.rate(),
            c.busy_ns as f64 / 1e9
        ));
    }
    out.push_str(&world::render_alerts(&o.alerts, color, 12));
    out.push_str(&format!(
        "  isolation   {}\n  flight      {}\n  ledger      issued {}  accepted {}  rejected {}  shed {}\n",
        if o.attackers_isolated {
            paint("32", "flood clients isolated at the head of the ranking")
        } else {
            paint("31;1", "FAILED — attackers not isolated")
        },
        if o.flight_frozen {
            if o.frozen_trace_is_attacker {
                paint("31", "FROZEN on an attacker trace")
            } else {
                paint("31;1", "FROZEN on a non-attacker trace")
            }
        } else {
            "armed".to_string()
        },
        o.issued,
        o.accepted,
        o.rejected,
        o.shed,
    ));
    out.push_str(&format!("  digest      {:016x}\n", o.digest));
    out
}

impl AttribOutcome {
    /// The `BENCH_attrib.json` artifact of this run and its `replay`.
    /// Gates a full run span, a replay with no divergence, no
    /// cross-check violation, balanced books (≥ 100 requests) with a
    /// receipt for every completed request, an exhaustion-dominated
    /// flood (rejections, ≥ 80% of hashes billed to exhausted searches),
    /// attacker isolation in the top-K, the staged page-then-clear
    /// alerts, the flight recorder frozen on an attacker trace, and a
    /// non-empty top-K and calibration set. Every virtual-time counter is
    /// recorded exactly in `BASELINE.json`. `detail` holds the top-K
    /// tables, the calibration set and the alert log.
    pub fn artifact(&self, replay: Replay) -> Artifact {
        #[derive(serde::Serialize)]
        struct Calibration {
            backend: usize,
            kind: &'static str,
            hashes: u64,
            busy_ns: u64,
            rate: f64,
        }
        let hitters = |hs: &[HeavyHitter]| {
            detail(&hs.iter().map(|h| (h.key.clone(), h.count, h.err)).collect::<Vec<_>>())
        };
        let calibration: Vec<Calibration> = self
            .calibration
            .iter()
            .map(|c| Calibration {
                backend: c.backend,
                kind: c.kind,
                hashes: c.hashes,
                busy_ns: c.busy_ns,
                rate: c.rate(),
            })
            .collect();
        let mut a = Artifact::new(
            "attrib",
            object(vec![
                ("seed", Json::UInt(self.seed)),
                ("kernel", Json::Str(self.kernel.to_string())),
                ("top_hashes", hitters(&self.top_hashes)),
                ("top_exhausted", hitters(&self.top_exhausted)),
                ("calibration", detail(&calibration)),
                ("alerts", world::alerts_detail(&self.alerts)),
            ]),
        );
        a.metric("attrib.ticks", self.ticks).baseline_exact();
        world::replay_metrics(&mut a, replay, self.violations.len(), self.sim_secs);
        a.metric("attrib.issued", self.issued).at_least(100.0).baseline_exact();
        a.metric("attrib.accepted", self.accepted).baseline_exact();
        a.metric("attrib.rejected", self.rejected).at_least(1.0).baseline_exact();
        a.metric("attrib.receipts", self.receipts).baseline_exact();
        a.metric("attrib.hashes", self.hashes).baseline_exact();
        a.metric("attrib.exhausted_hashes", self.exhausted_hashes).baseline_exact();
        let outcomes = [self.accepted, self.rejected, self.timed_out, self.shed, self.errors];
        a.metric("attrib.unbooked", world::unbooked(self.issued, outcomes)).exactly(0.0);
        let unbilled = self.issued as f64 - self.errors as f64 - self.receipts as f64;
        a.metric("attrib.unbilled_requests", unbilled).exactly(0.0);
        let share = self.exhausted_hashes as f64 / (self.hashes as f64).max(1.0);
        a.metric("attrib.exhausted_share", share).at_least(0.8);
        world::alert_metrics(&mut a, &self.alerts, 0.0);
        a.metric("attrib.attackers_isolated", self.attackers_isolated).exactly(1.0);
        a.metric("attrib.flight_frozen", self.flight_frozen).exactly(1.0);
        a.metric("attrib.frozen_trace_is_attacker", self.frozen_trace_is_attacker).exactly(1.0);
        a.metric("attrib.top_hashes", self.top_hashes.len()).at_least(1.0);
        a.metric("attrib.calibrated_backends", self.calibration.len()).at_least(1.0);
        a.digest("attrib.digest", self.digest);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_isolates_the_flood_and_replays_identically() {
        let cfg = AttribConfig::quick(0xA77B_0B5E);
        let first = run_attrib(&cfg);
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        assert!(first.issued > 20, "load ran: issued {}", first.issued);
        assert!(first.rejected > 0, "flood must exhaust: {:?}", first.rejected);
        assert!(first.attackers_isolated, "top-K head: {:?}", first.top_hashes);
        let sevs: Vec<Severity> = first.alerts.iter().map(|a| a.severity).collect();
        assert!(sevs.contains(&Severity::Page), "flood must page: {sevs:?}");
        assert_eq!(sevs.last(), Some(&Severity::Clear), "recovery must clear: {sevs:?}");
        assert!(first.flight_frozen && first.frozen_trace_is_attacker);
        assert!(!first.calibration.is_empty());

        let replay = run_attrib(&cfg);
        assert_eq!(first.digest, replay.digest, "replay must be bit-identical");
        assert_eq!(first.alerts.len(), replay.alerts.len());
    }

    #[test]
    fn attrib_artifact_gates_the_staged_flood() {
        let outcome = AttribOutcome {
            seed: 0xA77B,
            ticks: 360,
            sim_secs: 90.0,
            top_hashes: vec![
                HeavyHitter { key: "9".to_string(), count: 3_000_000, err: 0 },
                HeavyHitter { key: "0".to_string(), count: 2_000, err: 0 },
            ],
            top_exhausted: vec![HeavyHitter { key: "9".to_string(), count: 90, err: 0 }],
            calibration: vec![BackendCalibration {
                backend: 0,
                kind: "supervised",
                hashes: 3_002_000,
                busy_ns: 40_000_000_000,
            }],
            alerts: vec![
                Alert {
                    spec: "exhaustion".to_string(),
                    severity: Severity::Page,
                    at_ns: 35_000_000_000,
                    fast_burn: 9.5,
                    slow_burn: 7.0,
                },
                Alert {
                    spec: "exhaustion".to_string(),
                    severity: Severity::Clear,
                    at_ns: 66_000_000_000,
                    fast_burn: 0.0,
                    slow_burn: 2.0,
                },
            ],
            issued: 400,
            accepted: 300,
            rejected: 90,
            timed_out: 0,
            shed: 10,
            errors: 0,
            receipts: 400,
            hashes: 3_002_000,
            exhausted_hashes: 2_960_730,
            flight_frozen: true,
            frozen_trace_is_attacker: true,
            attackers_isolated: true,
            kernel: "avx2",
            digest: 0x0123_4567_89AB_CDEF,
            violations: Vec::new(),
        };
        let gate = |f: &dyn Fn(&mut AttribOutcome) -> (u64, u64)| {
            let mut o = outcome.clone();
            let (replayed, divergences) = f(&mut o);
            let a = o.artifact(Replay { replayed, divergences, wall_secs: 2.0 });
            a.gate(&a.to_json())
        };
        let fails_on = |id: &str, f: &dyn Fn(&mut AttribOutcome) -> (u64, u64)| {
            let err = gate(f).expect_err(id);
            assert!(err.contains(id), "{err}");
        };

        gate(&|_| (1, 0)).expect("round trip passes");
        fails_on("attrib.divergences", &|_| (1, 1));
        fails_on("attrib.replayed", &|_| (0, 0));
        fails_on("attrib.rejected", &|o| {
            o.rejected = 0;
            o.accepted = 390;
            (1, 0)
        });
        fails_on("attrib.exhausted_share", &|o| {
            o.exhausted_hashes = o.hashes / 2;
            (1, 0)
        });
        fails_on("attrib.unbilled_requests", &|o| {
            o.receipts -= 1;
            (1, 0)
        });
        fails_on("attrib.unbooked", &|o| {
            o.accepted += 1;
            (1, 0)
        });
        fails_on("attrib.issued", &|o| {
            o.issued = 90;
            o.receipts = 90;
            o.accepted = 0;
            o.shed = 0;
            (1, 0)
        });
        fails_on("attrib.attackers_isolated", &|o| {
            o.attackers_isolated = false;
            (1, 0)
        });
        fails_on("attrib.pages", &|o| {
            o.alerts.remove(0);
            (1, 0)
        });
        fails_on("attrib.ends_clear", &|o| {
            o.alerts.pop();
            (1, 0)
        });
        fails_on("attrib.flight_frozen", &|o| {
            o.flight_frozen = false;
            (1, 0)
        });
        fails_on("attrib.frozen_trace_is_attacker", &|o| {
            o.frozen_trace_is_attacker = false;
            (1, 0)
        });
        fails_on("attrib.top_hashes", &|o| {
            o.top_hashes.clear();
            (1, 0)
        });
        fails_on("attrib.calibrated_backends", &|o| {
            o.calibration.clear();
            (1, 0)
        });
    }

    #[test]
    fn report_renders_plain_and_colored() {
        let cfg = AttribConfig::quick(0xA77B_0B5E);
        let o = run_attrib(&cfg);
        let plain = render_attrib(&o, false);
        assert!(plain.contains("top-K by hashes consumed"));
        assert!(plain.contains("PAGE"));
        assert!(plain.contains("calibrated from receipts"));
        assert!(!plain.contains('\x1b'), "plain mode has no escapes");
        let colored = render_attrib(&o, true);
        assert!(colored.contains('\x1b'), "color mode uses ANSI escapes");
    }
}
