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
//! `BENCH_attrib.json` behind [`validate_attrib_json`].

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_telemetry::{
    attrib, exhaustion_slo, Alert, Attribution, BackendCalibration, FlightRecorder, HeavyHitter,
    Recorder, Severity, SloEvaluator, Tracer,
};

use crate::world::{self, fold, fold_bytes, ledger_violations, World, FLOOD_SALTS};
use crate::FloodSchedule;

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

/// Writes the run (plus its replay verdict) to `path` as the
/// `BENCH_attrib.json` artifact.
pub fn write_attrib_json(
    path: &str,
    outcome: &AttribOutcome,
    replayed: u64,
    divergences: u64,
    wall_secs: f64,
) -> std::io::Result<()> {
    use serde_json::Value;
    let hitters = |hs: &[HeavyHitter]| {
        Value::Array(
            hs.iter()
                .map(|h| {
                    Value::Object(vec![
                        ("client".to_string(), Value::Str(h.key.clone())),
                        ("count".to_string(), Value::UInt(h.count)),
                        ("err".to_string(), Value::UInt(h.err)),
                    ])
                })
                .collect(),
        )
    };
    let calibration = Value::Array(
        outcome
            .calibration
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("backend".to_string(), Value::UInt(c.backend as u64)),
                    ("kind".to_string(), Value::Str(c.kind.to_string())),
                    ("hashes".to_string(), Value::UInt(c.hashes)),
                    ("busy_ns".to_string(), Value::UInt(c.busy_ns)),
                    ("rate".to_string(), Value::Float(c.rate())),
                ])
            })
            .collect(),
    );
    let alerts = Value::Array(
        outcome
            .alerts
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("spec".to_string(), Value::Str(a.spec.clone())),
                    ("severity".to_string(), Value::Str(a.severity.name().to_string())),
                    ("at_ns".to_string(), Value::UInt(a.at_ns)),
                    ("fast_burn".to_string(), Value::Float(a.fast_burn)),
                    ("slow_burn".to_string(), Value::Float(a.slow_burn)),
                ])
            })
            .collect(),
    );
    let doc = Value::Object(vec![
        ("bench".to_string(), Value::Str("attrib".to_string())),
        ("unit".to_string(), Value::Str("mixed".to_string())),
        ("seed".to_string(), Value::UInt(outcome.seed)),
        ("ticks".to_string(), Value::UInt(outcome.ticks)),
        ("sim_secs".to_string(), Value::Float(outcome.sim_secs)),
        ("wall_secs".to_string(), Value::Float(wall_secs)),
        ("digest".to_string(), Value::Str(format!("{:016x}", outcome.digest))),
        ("replayed".to_string(), Value::UInt(replayed)),
        ("divergences".to_string(), Value::UInt(divergences)),
        ("violations".to_string(), Value::UInt(outcome.violations.len() as u64)),
        ("issued".to_string(), Value::UInt(outcome.issued)),
        ("accepted".to_string(), Value::UInt(outcome.accepted)),
        ("rejected".to_string(), Value::UInt(outcome.rejected)),
        ("timed_out".to_string(), Value::UInt(outcome.timed_out)),
        ("shed".to_string(), Value::UInt(outcome.shed)),
        ("errors".to_string(), Value::UInt(outcome.errors)),
        ("receipts".to_string(), Value::UInt(outcome.receipts)),
        ("hashes".to_string(), Value::UInt(outcome.hashes)),
        ("exhausted_hashes".to_string(), Value::UInt(outcome.exhausted_hashes)),
        ("flight_frozen".to_string(), Value::Bool(outcome.flight_frozen)),
        ("frozen_trace_is_attacker".to_string(), Value::Bool(outcome.frozen_trace_is_attacker)),
        ("attackers_isolated".to_string(), Value::Bool(outcome.attackers_isolated)),
        ("kernel".to_string(), Value::Str(outcome.kernel.to_string())),
        ("top_hashes".to_string(), hitters(&outcome.top_hashes)),
        ("top_exhausted".to_string(), hitters(&outcome.top_exhausted)),
        ("calibration".to_string(), calibration),
        ("alerts".to_string(), alerts),
    ]);
    let text = serde_json::to_string(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

/// Validates a `BENCH_attrib.json` document — the `repro attrib
/// --smoke` CI gate. Requires the `attrib` envelope, a full run span, a
/// replayed run with zero digest divergences, no cross-check
/// violations, balanced books with receipts covering every completed
/// request, an exhaustion-dominated flood (rejections present, the
/// exhausted share of hashes above 80 %), attacker isolation in the
/// top-K, the staged page-then-clear alert sequence, the frozen flight
/// recorder pinned to an attacker trace, and a non-empty calibration
/// set.
pub fn validate_attrib_json(text: &str) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let bench = doc.field("bench").ok().and_then(serde_json::Value::as_str);
    if bench != Some("attrib") {
        return Err(format!("bench field is {bench:?}, expected \"attrib\""));
    }
    let get_u64 = |f: &str| {
        doc.field(f).ok().and_then(serde_json::Value::as_u64).ok_or(format!("missing field {f}"))
    };
    let get_bool = |f: &str| doc.field(f).ok().and_then(serde_json::Value::as_bool);
    let sim_secs =
        doc.field("sim_secs").ok().and_then(serde_json::Value::as_f64).ok_or("missing sim_secs")?;
    if sim_secs < 85.0 {
        return Err(format!("run spanned {sim_secs:.1} sim-seconds, need ≥ 85"));
    }
    if get_u64("replayed")? == 0 {
        return Err("no replay was run for the determinism check".to_string());
    }
    let divergences = get_u64("divergences")?;
    if divergences != 0 {
        return Err(format!("{divergences} replay digest divergences"));
    }
    if get_u64("violations")? != 0 {
        return Err("run reported cross-check violations".to_string());
    }
    let issued = get_u64("issued")?;
    if issued < 100 {
        return Err(format!("only {issued} requests issued, need ≥ 100"));
    }
    let tallied = get_u64("accepted")?
        + get_u64("rejected")?
        + get_u64("timed_out")?
        + get_u64("shed")?
        + get_u64("errors")?;
    if issued != tallied {
        return Err(format!("books do not balance: issued {issued} != tallied {tallied}"));
    }
    if get_u64("receipts")? != issued - get_u64("errors")? {
        return Err("receipts do not cover every completed request".to_string());
    }
    if get_u64("rejected")? == 0 {
        return Err("no rejections — the staged flood never exhausted a search".to_string());
    }
    let hashes = get_u64("hashes")?;
    let exhausted = get_u64("exhausted_hashes")?;
    if hashes == 0 || (exhausted as f64) / (hashes as f64) < 0.8 {
        return Err(format!(
            "exhausted share {exhausted}/{hashes} below 80% — the flood never dominated"
        ));
    }
    if get_bool("attackers_isolated") != Some(true) {
        return Err("top-K did not isolate the flood clients".to_string());
    }
    if get_bool("flight_frozen") != Some(true) {
        return Err("flight recorder was not frozen by the page".to_string());
    }
    if get_bool("frozen_trace_is_attacker") != Some(true) {
        return Err("frozen trace does not belong to an attacker session".to_string());
    }
    let alerts = doc
        .field("alerts")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing alerts array")?;
    let severities: Vec<&str> = alerts
        .iter()
        .map(|a| a.field("severity").ok().and_then(serde_json::Value::as_str).unwrap_or(""))
        .collect();
    if !severities.contains(&"page") {
        return Err(format!("no page alert during the staged flood: {severities:?}"));
    }
    if severities.last() != Some(&"clear") {
        return Err(format!("run must end with a recovery to clear: {severities:?}"));
    }
    let top = doc
        .field("top_hashes")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing top_hashes array")?;
    if top.is_empty() {
        return Err("empty hashes-consumed top-K".to_string());
    }
    let calibration = doc
        .field("calibration")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing calibration array")?;
    if calibration.is_empty() {
        return Err("empty backend calibration set".to_string());
    }
    Ok(())
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
    fn attrib_json_round_trips_and_validates() {
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
        let path = std::env::temp_dir().join("rbc_bench_attrib_test.json");
        let path = path.to_str().unwrap();
        let rewrite = |f: &mut dyn FnMut(&mut AttribOutcome) -> (u64, u64)| {
            let mut o = outcome.clone();
            let (replayed, divergences) = f(&mut o);
            write_attrib_json(path, &o, replayed, divergences, 2.0).expect("write");
            let text = std::fs::read_to_string(path).expect("read");
            let _ = std::fs::remove_file(path);
            text
        };

        let good = rewrite(&mut |_| (1, 0));
        validate_attrib_json(&good).expect("round-trip validates");
        assert!(validate_attrib_json("not json").is_err());

        let diverged = rewrite(&mut |_| (1, 1));
        assert!(validate_attrib_json(&diverged).is_err(), "divergence must fail");
        let no_replay = rewrite(&mut |_| (0, 0));
        assert!(validate_attrib_json(&no_replay).is_err(), "missing replay must fail");
        let no_rejections = rewrite(&mut |o| {
            o.rejected = 0;
            o.accepted = 390;
            (1, 0)
        });
        assert!(validate_attrib_json(&no_rejections).is_err(), "missing flood must fail");
        let diluted = rewrite(&mut |o| {
            o.exhausted_hashes = o.hashes / 2;
            (1, 0)
        });
        assert!(validate_attrib_json(&diluted).is_err(), "weak exhaustion share must fail");
        let missing_receipts = rewrite(&mut |o| {
            o.receipts -= 1;
            (1, 0)
        });
        assert!(validate_attrib_json(&missing_receipts).is_err(), "unbilled request must fail");
        let not_isolated = rewrite(&mut |o| {
            o.attackers_isolated = false;
            (1, 0)
        });
        assert!(validate_attrib_json(&not_isolated).is_err(), "non-isolation must fail");
        let no_page = rewrite(&mut |o| {
            o.alerts.remove(0);
            (1, 0)
        });
        assert!(validate_attrib_json(&no_page).is_err(), "missing page must fail");
        let no_clear = rewrite(&mut |o| {
            o.alerts.pop();
            (1, 0)
        });
        assert!(validate_attrib_json(&no_clear).is_err(), "missing recovery must fail");
        let wrong_trace = rewrite(&mut |o| {
            o.frozen_trace_is_attacker = false;
            (1, 0)
        });
        assert!(validate_attrib_json(&wrong_trace).is_err(), "wrong frozen trace must fail");
        let no_calibration = rewrite(&mut |o| {
            o.calibration.clear();
            (1, 0)
        });
        assert!(validate_attrib_json(&no_calibration).is_err(), "empty calibration must fail");
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
