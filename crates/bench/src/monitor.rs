//! Continuous-observability run (`repro monitor`).
//!
//! Drives a seeded multi-client load through the shared virtual-time
//! world (the stalled two-pool stack of DESIGN.md §10) while a
//! [`Scraper`] actor snapshots the registry every virtual interval and
//! an [`SloEvaluator`] computes multi-window burn rates over the same
//! snapshots. The scenario stages a deliberate incident:
//!
//! * **healthy** (first third): clients authenticate at a relaxed
//!   cadence — rates low, burn clear;
//! * **storm** (second third): think times collapse, offered load
//!   exceeds the two supervised substrates, the bounded queue sheds —
//!   the availability SLO burns through warn to page, which freezes
//!   the attached [`FlightRecorder`];
//! * **recovery** (final third): cadence relaxes, the fast window
//!   drains, and the alert clears while the slow window still
//!   remembers the outage.
//!
//! Everything that matters is virtual time, so the whole 90-simulated-
//! second run costs a couple of wall seconds, and a replay of the same
//! seed must reproduce the *entire* time-series set bit for bit — the
//! digest over every retained point is the determinism gate, exactly
//! like `repro sim`'s verdict digest. The run is rendered as an ANSI
//! dashboard (sparklines, per-substrate utilization bars, the alert
//! log) and written to `BENCH_monitor.json` from
//! [`MonitorOutcome::artifact`].

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_telemetry::{
    Alert, FlightRecorder, Recorder, ScrapeConfig, Scraper, SeriesPoint, SloEvaluator, SloSpec,
    Tracer,
};

use serde_json::Value as Json;

use crate::artifact::{detail, object};
use crate::baseline::Worse;
use crate::world::{self, fold, ledger_violations, Replay, World, CALM_SALTS};
use crate::Artifact;

/// Concurrent clients.
const CLIENTS: usize = 6;

/// Client think time during the storm phase.
const THINK_STORM: Duration = Duration::from_millis(50);

/// Dispatcher queue limit (small, so the storm sheds).
const QUEUE_LIMIT: usize = 1;

/// Parameters of one monitor run. [`MonitorConfig::standard`] is the
/// artifact-producing configuration; [`MonitorConfig::quick`] shrinks
/// every duration for unit tests.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Seed for noise levels, staggers, and PUF instances.
    pub seed: u64,
    /// Virtual duration of each phase (healthy, storm, recovery).
    pub phase: Duration,
    /// Scrape interval (odd nanosecond tail keeps scraper park targets
    /// off every microsecond-aligned client target).
    pub interval: Duration,
    /// Ring capacity per series tier (sized to retain every tier-0
    /// point of the run).
    pub capacity: usize,
    /// Client think time outside the storm phase.
    pub think_calm: Duration,
    /// SLO fast window.
    pub fast_window: Duration,
    /// SLO slow window.
    pub slow_window: Duration,
}

impl MonitorConfig {
    /// The full 90-simulated-second staged-incident run.
    pub fn standard(seed: u64) -> Self {
        MonitorConfig {
            seed,
            phase: Duration::from_secs(30),
            interval: Duration::from_nanos(250_000_013),
            capacity: 400,
            think_calm: Duration::from_secs(2),
            fast_window: Duration::from_secs(5),
            slow_window: Duration::from_secs(60),
        }
    }

    /// A shrunk run for unit tests: 15 simulated seconds.
    pub fn quick(seed: u64) -> Self {
        MonitorConfig {
            seed,
            phase: Duration::from_secs(5),
            interval: Duration::from_nanos(100_000_013),
            capacity: 256,
            think_calm: Duration::from_secs(1),
            fast_window: Duration::from_secs(2),
            slow_window: Duration::from_secs(10),
        }
    }

    /// Total virtual span (three phases).
    pub fn run_span(&self) -> Duration {
        self.phase * 3
    }

    fn mix(&self, salt: u64) -> u64 {
        world::mix(self.seed, salt)
    }

    /// Client `i`'s noise: mostly clean, some one- and two-bit flips —
    /// everyone stays inside the search bound, so every *served*
    /// authentication accepts.
    fn noise(&self, i: usize) -> u32 {
        match self.mix(0x40 ^ i as u64) % 10 {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2,
        }
    }

    /// Unique virtual arrival offset per client (disjoint 5 ms bands
    /// plus a per-client sub-microsecond phase — concurrent parks must
    /// never land on equal virtual targets, where the tie-break would
    /// be thread-race order).
    fn arrival(&self, i: usize) -> Duration {
        Duration::from_millis(5 * (i as u64 + 1))
            + Duration::from_micros(self.mix(0x80 ^ i as u64) % 4999)
            + Duration::from_nanos(331 * (i as u64 + 1))
    }

    /// Think time for client `i` at virtual offset `at`: the storm
    /// phase collapses it. The per-client microsecond and nanosecond
    /// phases keep concurrent wake targets distinct.
    fn think(&self, i: usize, at: Duration) -> Duration {
        let base =
            if at >= self.phase && at < self.phase * 2 { THINK_STORM } else { self.think_calm };
        base + Duration::from_micros(1009 * (i as u64 + 1) + self.mix(0xC0 ^ i as u64) % 499)
            + Duration::from_nanos(7 * (i as u64 + 1))
    }

    /// The two SLOs the run watches.
    fn slos(&self) -> Vec<SloSpec> {
        vec![
            SloSpec::availability(
                "availability",
                "rbc_service_requests_total",
                vec!["rbc_service_shed_total".to_string(), "rbc_service_timeout_total".to_string()],
                0.99,
            )
            .windows(self.fast_window, self.slow_window)
            .thresholds(1.0, 6.0),
            SloSpec::latency("latency", "rbc_service_auth_total_ns", Duration::from_millis(400))
                .windows(self.fast_window, self.slow_window)
                .thresholds(1.0, 6.0),
        ]
    }
}

/// Everything one monitor run produced.
#[derive(Clone, Debug)]
pub struct MonitorOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Scrapes taken.
    pub ticks: u64,
    /// Virtual seconds the run spanned.
    pub sim_secs: f64,
    /// Tier-0 points of every series, in first-seen order.
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    /// Severity transitions, in order.
    pub alerts: Vec<Alert>,
    /// Requests issued (service ledger).
    pub issued: u64,
    /// Accepted verdicts.
    pub accepted: u64,
    /// Rejected verdicts.
    pub rejected: u64,
    /// Timed-out verdicts.
    pub timed_out: u64,
    /// Shed (overloaded) verdicts.
    pub shed: u64,
    /// CA-validation errors.
    pub errors: u64,
    /// Whether the page froze the flight recorder.
    pub flight_frozen: bool,
    /// Digest over every series point, the alert log, and the final
    /// telemetry snapshot — the replay-determinism gate.
    pub digest: u64,
    /// Cross-checks that failed (empty on a clean run).
    pub violations: Vec<String>,
}

/// Runs one seeded monitor world on a fresh virtual timeline.
pub fn run_monitor(cfg: &MonitorConfig) -> MonitorOutcome {
    let world = World::new();
    let flight = Arc::new(FlightRecorder::with_capacities(512, 128).freeze_on(&[]));
    let recorder = flight.clone() as Arc<dyn Recorder>;
    let (service, clients) = world.service(
        cfg.seed,
        CALM_SALTS,
        QUEUE_LIMIT,
        CLIENTS,
        |i| cfg.noise(i),
        recorder.clone(),
    );
    let slo_tracer = Tracer::with_clock(recorder, world.clock.clone());

    let scrape =
        ScrapeConfig { interval: cfg.interval, capacity: cfg.capacity, tiers: 3, decimation: 8 };
    let mut scraper = Scraper::new(world.registry.clone(), world.clock.clone(), scrape);
    let mut evaluator = SloEvaluator::new(cfg.slos()).with_flight(flight.clone());
    let mut alerts: Vec<Alert> = Vec::new();
    let run_span = cfg.run_span();
    world.run(
        run_span,
        cfg.interval,
        |at_ns| {
            scraper.tick();
            let snap = scraper.latest_snapshot().expect("tick just ran");
            alerts.extend(evaluator.observe(at_ns, snap, Some(&slo_tracer)));
        },
        clients.into_iter().enumerate(),
        |i, client, actor| {
            let mut rng = StdRng::seed_from_u64(cfg.mix(0x3000 ^ i as u64));
            actor.sleep(cfg.arrival(i));
            loop {
                let at = actor.elapsed();
                if at >= run_span {
                    break;
                }
                let hello = client.hello();
                let Ok(challenge) = service.begin(&hello) else { break };
                let digest = client.respond(&challenge, &mut rng);
                if service.complete(&digest).is_err() {
                    break;
                }
                actor.sleep(cfg.think(i, at));
            }
        },
    );

    let stats = service.stats();
    let mut violations = ledger_violations(&stats, None, world.sim.actors());
    let total_ticks = world::ticks(run_span, cfg.interval);
    if scraper.ticks() != total_ticks {
        violations.push(format!("{} scrapes, expected {total_ticks}", scraper.ticks()));
    }

    // Digest: every retained series point, the alert log, the final
    // telemetry snapshot, and the virtual span. Trace ids and
    // exemplars are excluded (process-global counters).
    let digest = world.seal(fold(fold(0x0B5E_0001, cfg.seed), scraper.digest()), &alerts);

    MonitorOutcome {
        seed: cfg.seed,
        ticks: scraper.ticks(),
        sim_secs: world.sim.virtual_elapsed().as_secs_f64(),
        series: scraper.series().iter().map(|(name, s)| (name.clone(), s.points(0))).collect(),
        alerts,
        issued: stats.issued,
        accepted: stats.accepted,
        rejected: stats.rejected,
        timed_out: stats.timed_out,
        shed: stats.overloaded,
        errors: stats.errors,
        flight_frozen: flight.is_frozen(),
        digest,
        violations,
    }
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a Unicode sparkline of up to `width` cells
/// (newest values win when there are more than `width`).
pub fn sparkline(values: &[f64], width: usize) -> String {
    let tail = &values[values.len().saturating_sub(width)..];
    if tail.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in tail {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            SPARK[idx.min(7)]
        })
        .collect()
}

/// Renders a 0..=1000 fixed-point ratio as a bar of `width` cells.
fn util_bar(permille: f64, width: usize) -> String {
    let filled = ((permille / 1000.0) * width as f64).round() as usize;
    let filled = filled.min(width);
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

fn fmt_ns(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} µs", v / 1e3)
    } else {
        format!("{v:.0} ns")
    }
}

/// Renders the run as an ANSI dashboard: rate and latency sparklines,
/// queue depth, per-substrate utilization bars, and the alert log.
/// `color` toggles ANSI escapes (pass `false` for plain logs).
pub fn render_dashboard(o: &MonitorOutcome, color: bool) -> String {
    let paint = |code: &str, s: &str| world::paint(color, code, s);
    let width = 48;
    let mut out = String::new();
    out.push_str(&format!(
        "== repro monitor — seed {:#x}, {:.0} sim-s, {} ticks ==\n",
        o.seed, o.sim_secs, o.ticks
    ));
    let values = |name: &str| -> Vec<f64> {
        o.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, pts)| pts.iter().map(|p| p.value).collect())
            .unwrap_or_default()
    };
    let line = |out: &mut String, label: &str, name: &str, unit: &dyn Fn(f64) -> String| {
        let vs = values(name);
        let cur = vs.last().copied().unwrap_or(0.0);
        let peak = vs.iter().cloned().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  {label:<11} {:<width$}  cur {:>9}  peak {:>9}\n",
            sparkline(&vs, width),
            unit(cur),
            unit(peak),
        ));
    };
    line(&mut out, "req rate", "rbc_service_requests_total:rate", &|v| format!("{v:.1}/s"));
    line(&mut out, "shed rate", "rbc_service_shed_total:rate", &|v| format!("{v:.1}/s"));
    line(&mut out, "auth p50", "rbc_service_auth_total_ns:p50", &fmt_ns);
    line(&mut out, "auth p99", "rbc_service_auth_total_ns:p99", &fmt_ns);
    line(&mut out, "queue depth", "rbc_dispatch_queue_depth", &|v| format!("{v:.0}"));

    for i in 0..2 {
        let name = format!("rbc_backend_{i}_supervised_utilization_ratio");
        let vs = values(&name);
        let cur = vs.last().copied().unwrap_or(0.0);
        let depth = values(&format!("rbc_dispatch_backend_{i}_supervised_queue_depth"));
        out.push_str(&format!(
            "  substrate {i}  [{}] {:>5.1}%  in-flight {}\n",
            util_bar(cur, 24),
            cur / 10.0,
            depth.last().copied().unwrap_or(0.0)
        ));
    }

    out.push_str(&world::render_alerts(&o.alerts, color, 12));
    out.push_str(&format!(
        "  flight      {}\n  ledger      issued {}  accepted {}  shed {}  timed-out {}\n",
        if o.flight_frozen {
            paint("31", "FROZEN (page post-mortem pinned)")
        } else {
            "armed".to_string()
        },
        o.issued,
        o.accepted,
        o.shed,
        o.timed_out,
    ));
    out.push_str(&format!("  digest      {:016x}\n", o.digest));
    out
}

/// Dashboard series the smoke gate requires populated, with their
/// minimum point counts.
const SERIES_FLOORS: [(&str, usize); 6] = [
    ("rbc_service_requests_total:rate", 100),
    ("rbc_service_auth_total_ns:p99", 10),
    ("rbc_dispatch_queue_depth", 100),
    ("rbc_backend_0_supervised_utilization_ratio", 100),
    ("rbc_backend_1_supervised_utilization_ratio", 100),
    ("rbc_dispatch_backend_0_supervised_queue_depth", 100),
];

impl MonitorOutcome {
    /// The `BENCH_monitor.json` artifact of this run and its `replay`. Gates a full scrape count
    /// (≥ 300) and run span, a replay with no divergence, no cross-check
    /// violation, balanced books under real load (≥ 200 requests) with
    /// a real incident (sheds), the staged alerts (a page, ending clear,
    /// the flight recorder frozen) and the dashboard series populated.
    /// `detail` holds the alert log and every series.
    pub fn artifact(&self, replay: Replay) -> Artifact {
        let series = self
            .series
            .iter()
            .map(|(name, pts)| {
                let points: Vec<(u64, f64)> = pts.iter().map(|p| (p.at_ns, p.value)).collect();
                (name.as_str(), detail(&points))
            })
            .collect();
        let mut a = Artifact::new(
            "monitor",
            object(vec![
                ("seed", Json::UInt(self.seed)),
                ("alerts", world::alerts_detail(&self.alerts)),
                ("series", object(series)),
            ]),
        );
        a.metric("monitor.ticks", self.ticks).at_least(300.0).baseline_exact();
        world::replay_metrics(&mut a, replay, self.violations.len(), self.sim_secs);
        let ledger = Worse::Differ;
        a.metric("monitor.issued", self.issued).at_least(200.0).baseline(0.1, ledger);
        a.metric("monitor.accepted", self.accepted).baseline(0.1, ledger);
        a.metric("monitor.shed", self.shed).at_least(1.0).baseline(0.1, ledger);
        let outcomes = [self.accepted, self.rejected, self.timed_out, self.shed, self.errors];
        a.metric("monitor.unbooked", world::unbooked(self.issued, outcomes)).exactly(0.0);
        world::alert_metrics(&mut a, &self.alerts, 0.1);
        a.metric("monitor.flight_frozen", self.flight_frozen).exactly(1.0);
        for (name, floor) in SERIES_FLOORS {
            let points = self.series.iter().find(|(n, _)| n == name).map_or(0, |(_, p)| p.len());
            a.metric(format!("monitor.points.{name}"), points).at_least(floor as f64);
        }
        a.digest("monitor.series_digest", self.digest);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_telemetry::Severity;

    #[test]
    fn quick_run_stages_the_incident_and_replays_identically() {
        let cfg = MonitorConfig::quick(0x0B5E_0B5E);
        let first = run_monitor(&cfg);
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        assert!(first.issued > 20, "load ran: issued {}", first.issued);
        assert!(first.shed > 0, "storm must shed: issued {} shed {}", first.issued, first.shed);
        let sevs: Vec<Severity> = first.alerts.iter().map(|a| a.severity).collect();
        assert!(sevs.contains(&Severity::Page), "storm must page: {sevs:?}");
        assert_eq!(sevs.last(), Some(&Severity::Clear), "recovery must clear: {sevs:?}");
        assert!(first.flight_frozen, "page freezes the black box");
        assert!(
            first.series.iter().any(|(n, _)| n == "rbc_service_requests_total:rate"),
            "rate series present"
        );

        let replay = run_monitor(&cfg);
        assert_eq!(first.digest, replay.digest, "replay must be bit-identical");
        assert_eq!(first.alerts.len(), replay.alerts.len());
    }

    #[test]
    fn sparkline_and_bar_rendering() {
        assert_eq!(sparkline(&[], 8), "");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0], 8);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        // Width caps from the newest end.
        assert_eq!(sparkline(&[0.0, 1.0, 2.0, 3.0], 2).chars().count(), 2);
        assert_eq!(util_bar(500.0, 10).chars().filter(|&c| c == '█').count(), 5);
        assert_eq!(util_bar(2000.0, 10).chars().filter(|&c| c == '█').count(), 10);
    }

    #[test]
    fn monitor_artifact_gates_the_staged_incident() {
        let mk_series = |name: &str, n: usize| {
            (
                name.to_string(),
                (0..n)
                    .map(|i| SeriesPoint { at_ns: i as u64 * 250_000_000, value: i as f64 })
                    .collect::<Vec<_>>(),
            )
        };
        let outcome = MonitorOutcome {
            seed: 0x0B5E,
            ticks: 360,
            sim_secs: 90.0,
            series: SERIES_FLOORS.iter().map(|(name, floor)| mk_series(name, floor + 1)).collect(),
            alerts: vec![
                Alert {
                    spec: "availability".to_string(),
                    severity: Severity::Page,
                    at_ns: 35_000_000_000,
                    fast_burn: 40.0,
                    slow_burn: 9.0,
                },
                Alert {
                    spec: "availability".to_string(),
                    severity: Severity::Clear,
                    at_ns: 66_000_000_000,
                    fast_burn: 0.0,
                    slow_burn: 4.0,
                },
            ],
            issued: 900,
            accepted: 520,
            rejected: 0,
            timed_out: 0,
            shed: 380,
            errors: 0,
            flight_frozen: true,
            digest: 0xABCD_EF01_2345_6789,
            violations: Vec::new(),
        };
        let gate = |f: &dyn Fn(&mut MonitorOutcome) -> (u64, u64)| {
            let mut o = outcome.clone();
            let (replayed, divergences) = f(&mut o);
            let a = o.artifact(Replay { replayed, divergences, wall_secs: 2.0 });
            a.gate(&a.to_json())
        };
        let fails_on = |id: &str, f: &dyn Fn(&mut MonitorOutcome) -> (u64, u64)| {
            let err = gate(f).expect_err(id);
            assert!(err.contains(id), "{err}");
        };

        gate(&|_| (1, 0)).expect("round trip passes");
        fails_on("monitor.divergences", &|_| (1, 1));
        fails_on("monitor.replayed", &|_| (0, 0));
        fails_on("monitor.ticks", &|o| {
            o.ticks = 100;
            (1, 0)
        });
        fails_on("monitor.sim_secs", &|o| {
            o.sim_secs = 80.0;
            (1, 0)
        });
        fails_on("monitor.violations", &|o| {
            o.violations.push("x".to_string());
            (1, 0)
        });
        fails_on("monitor.issued", &|o| {
            o.issued = 150;
            o.accepted = 150;
            o.shed = 0;
            (1, 0)
        });
        fails_on("monitor.shed", &|o| {
            o.shed = 0;
            o.accepted = 900;
            (1, 0)
        });
        fails_on("monitor.unbooked", &|o| {
            o.accepted -= 1;
            (1, 0)
        });
        fails_on("monitor.pages", &|o| {
            o.alerts.remove(0);
            (1, 0)
        });
        fails_on("monitor.ends_clear", &|o| {
            o.alerts.pop();
            (1, 0)
        });
        fails_on("monitor.points.rbc_service_requests_total:rate", &|o| {
            o.series[0].1.truncate(10);
            (1, 0)
        });
        fails_on("monitor.flight_frozen", &|o| {
            o.flight_frozen = false;
            (1, 0)
        });
    }

    #[test]
    fn dashboard_renders_plain_and_colored() {
        let cfg = MonitorConfig::quick(0x0B5E_0B5E);
        let o = run_monitor(&cfg);
        let plain = render_dashboard(&o, false);
        assert!(plain.contains("req rate"));
        assert!(plain.contains("substrate 0"));
        assert!(plain.contains("PAGE"));
        assert!(!plain.contains('\x1b'), "plain mode has no escapes");
        let colored = render_dashboard(&o, true);
        assert!(colored.contains('\x1b'), "color mode uses ANSI escapes");
    }
}
