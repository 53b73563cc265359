//! Committed performance baseline and the `repro regress` gate.
//!
//! `BASELINE.json` (committed at the repository root, deliberately
//! named outside the gitignored `BENCH_*.json` family) records a flat
//! list of scalar metrics, each with a noise tolerance and a *direction
//! of worse*. Its entries are exactly the artifact metrics that declare
//! a baseline policy ([`crate::Artifact`], DESIGN.md §11), read back
//! with [`Artifact::parse`]:
//!
//! * `monitor.*`, `attrib.*`, `adversarial.*` — virtual time end to
//!   end, so determinism and ledger counters are exact (a few monitor
//!   ledger counts carry 10%).
//! * `sim.*` and every `*digest` — each replay digest, split into exact
//!   u32 `_hi` / `_lo` halves, since an entry's value is an f64. A run
//!   that replays itself but no longer matches the record fails.
//! * `hash.*` — dispatcher-selected lane rates. They depend on the SIMD
//!   tier, so they are compared **only** when the artifact's tier
//!   matches the one recorded here; a scalar-only container honestly
//!   skips them instead of "regressing".
//!
//! `repro regress` reads whichever [`ARTIFACTS`] are present (at least
//! one is required), compares, and exits nonzero on any out-of-tolerance
//! move in the worse direction. Improvements never fail. `repro regress
//! --update` rewrites `BASELINE.json` from the current artifacts.

use serde_json::Value;

use crate::Artifact;

/// Which direction of movement counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worse {
    /// Larger is worse (latencies, error counts with slack).
    Higher,
    /// Smaller is worse (throughput).
    Lower,
    /// Any move beyond tolerance is worse (determinism counters,
    /// ledger counts that should not drift in either direction).
    Differ,
}

impl Worse {
    /// Stable name used in `BASELINE.json`.
    pub fn name(self) -> &'static str {
        match self {
            Worse::Higher => "higher",
            Worse::Lower => "lower",
            Worse::Differ => "differ",
        }
    }

    /// Inverse of [`Worse::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Worse::Higher),
            "lower" => Some(Worse::Lower),
            "differ" => Some(Worse::Differ),
            _ => None,
        }
    }
}

/// One baselined metric.
#[derive(Clone, Debug)]
pub struct BaselineEntry {
    /// Dotted id, e.g. `hash.sha_1.x16.rate`.
    pub id: String,
    /// Recorded value.
    pub value: f64,
    /// Relative tolerance (0.1 = 10%). Zero means exact.
    pub tolerance: f64,
    /// Direction of worse.
    pub worse: Worse,
}

impl BaselineEntry {
    /// Checks `current` against this entry. `Ok(())` when within
    /// tolerance or strictly improved; `Err` describes the regression.
    pub fn check(&self, current: f64) -> Result<(), String> {
        let scale = self.value.abs().max(1.0);
        let slack = self.tolerance * scale;
        let fail = match self.worse {
            Worse::Higher => current > self.value + slack,
            Worse::Lower => current < self.value - slack,
            Worse::Differ => (current - self.value).abs() > slack,
        };
        if fail {
            Err(format!(
                "{}: {current:.6} vs baseline {:.6} (tolerance {:.0}%, worse = {})",
                self.id,
                self.value,
                self.tolerance * 100.0,
                self.worse.name()
            ))
        } else {
            Ok(())
        }
    }
}

/// The committed baseline: the hash tier its `hash.*` entries were
/// measured under, plus the entries themselves.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Active SIMD dispatch tier when `hash.*` entries were recorded
    /// (empty when the baseline carries none).
    pub hash_tier: String,
    /// The baselined metrics.
    pub entries: Vec<BaselineEntry>,
}

fn field_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.field(name).ok().and_then(Value::as_f64).ok_or(format!("missing numeric field {name}"))
}

/// The artifacts `repro regress` reads, in `BASELINE.json` order.
pub const ARTIFACTS: [&str; 7] = [
    "BENCH_monitor.json",
    "BENCH_attrib.json",
    "BENCH_adversarial.json",
    "BENCH_sim.json",
    "BENCH_hash_lanes.json",
    "BENCH_telemetry.json",
    "BENCH_triage.json",
];

/// Parses whichever of [`ARTIFACTS`] exist in `dir`.
pub fn read_artifacts(dir: &str) -> Result<Vec<Artifact>, String> {
    ARTIFACTS
        .iter()
        .filter_map(|name| {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).ok()?;
            Some(Artifact::parse(&text).map_err(|e| format!("{name}: {e}")))
        })
        .collect()
}

/// Builds a fresh baseline from every metric of `artifacts` that
/// declares a baseline policy, in artifact and declaration order.
pub fn build_baseline(artifacts: &[Artifact]) -> Result<Baseline, String> {
    if artifacts.is_empty() {
        return Err("no artifacts to baseline (run the repro scenarios first)".to_string());
    }
    let mut base = Baseline { hash_tier: String::new(), entries: Vec::new() };
    for artifact in artifacts {
        if let Some(tier) = &artifact.tier {
            base.hash_tier = tier.clone();
        }
        for m in &artifact.metrics {
            let Some((tolerance, worse)) = m.baseline else { continue };
            base.entries.extend(m.entries().into_iter().map(|(id, value)| BaselineEntry {
                id,
                value,
                tolerance,
                worse,
            }));
        }
    }
    Ok(base)
}

/// Serializes a baseline to the committed `BASELINE.json` shape.
pub fn render_baseline_json(base: &Baseline) -> String {
    let entries = Value::Array(
        base.entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(e.id.clone())),
                    ("value".to_string(), Value::Float(e.value)),
                    ("tolerance".to_string(), Value::Float(e.tolerance)),
                    ("worse".to_string(), Value::Str(e.worse.name().to_string())),
                ])
            })
            .collect(),
    );
    let doc = Value::Object(vec![
        ("baseline".to_string(), Value::Str("rbc-perf".to_string())),
        ("hash_tier".to_string(), Value::Str(base.hash_tier.clone())),
        ("entries".to_string(), entries),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

/// Parses `BASELINE.json`.
pub fn parse_baseline_json(text: &str) -> Result<Baseline, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("baseline: not JSON: {e}"))?;
    if doc.field("baseline").ok().and_then(Value::as_str) != Some("rbc-perf") {
        return Err("baseline: wrong envelope (expected baseline = \"rbc-perf\")".to_string());
    }
    let hash_tier =
        doc.field("hash_tier").ok().and_then(Value::as_str).unwrap_or_default().to_string();
    let raw = doc
        .field("entries")
        .ok()
        .and_then(Value::as_array)
        .ok_or("baseline: missing entries array")?;
    let mut entries = Vec::new();
    for e in raw {
        let id = e
            .field("id")
            .ok()
            .and_then(Value::as_str)
            .ok_or("baseline: entry missing id")?
            .to_string();
        let worse = e
            .field("worse")
            .ok()
            .and_then(Value::as_str)
            .and_then(Worse::parse)
            .ok_or(format!("baseline: entry {id} has a bad worse direction"))?;
        entries.push(BaselineEntry {
            value: field_f64(e, "value").map_err(|err| format!("baseline: entry {id}: {err}"))?,
            tolerance: field_f64(e, "tolerance")
                .map_err(|err| format!("baseline: entry {id}: {err}"))?,
            id,
            worse,
        });
    }
    if entries.is_empty() {
        return Err("baseline: no entries".to_string());
    }
    Ok(Baseline { hash_tier, entries })
}

/// Outcome of comparing current artifacts against a baseline.
#[derive(Clone, Debug, Default)]
pub struct RegressReport {
    /// Metrics compared and found within tolerance (or improved).
    pub passed: Vec<String>,
    /// Baselined metrics that could not be compared, with the reason
    /// (artifact absent, SIMD tier mismatch).
    pub skipped: Vec<String>,
    /// Out-of-tolerance regressions — any entry here fails the gate.
    pub regressions: Vec<String>,
}

impl RegressReport {
    /// True when the gate passes: something was compared and nothing
    /// regressed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && !self.passed.is_empty()
    }
}

/// The metric family of an id: its first dotted component.
fn family(id: &str) -> &str {
    id.split('.').next().unwrap_or(id)
}

/// Compares `artifacts` against `base`. An entry is skipped when no
/// artifact carries its family (`monitor`, `hash`, ...) or when the
/// artifact that does records a SIMD tier other than the baseline's; an
/// entry whose artifact is present but lacks it is a regression.
pub fn compare(base: &Baseline, artifacts: &[Artifact]) -> Result<RegressReport, String> {
    let mut report = RegressReport::default();
    for entry in &base.entries {
        let fam = family(&entry.id);
        let Some(artifact) =
            artifacts.iter().find(|a| a.metrics.iter().any(|m| family(&m.id) == fam))
        else {
            report.skipped.push(format!("{}: no artifact with {fam}.* metrics present", entry.id));
            continue;
        };
        if let Some(tier) = artifact.tier.as_deref().filter(|t| *t != base.hash_tier) {
            report.skipped.push(format!(
                "{}: SIMD tier mismatch (baseline {}, current {tier})",
                entry.id, base.hash_tier
            ));
            continue;
        }
        let current =
            artifact.metrics.iter().flat_map(|m| m.entries()).find(|(id, _)| *id == entry.id);
        match current {
            None => report.regressions.push(format!(
                "{}: metric disappeared from {}",
                entry.id,
                artifact.file_name()
            )),
            Some((_, current)) => match entry.check(current) {
                Ok(()) => report
                    .passed
                    .push(format!("{}: {current:.6} vs baseline {:.6}", entry.id, entry.value)),
                Err(msg) => report.regressions.push(msg),
            },
        }
    }
    if report.passed.is_empty() && report.regressions.is_empty() {
        return Err("no baselined metric could be compared (no artifacts present?)".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(divergences: u64, digest: u64) -> Artifact {
        let mut a = Artifact::new("monitor", Value::Null);
        a.metric("monitor.ticks", 359u64).baseline_exact();
        a.metric("monitor.divergences", divergences).baseline_exact();
        a.metric("monitor.issued", 2680u64).baseline(0.1, Worse::Differ);
        a.metric("monitor.pages", 1u64).baseline(0.0, Worse::Lower);
        a.metric("monitor.sim_secs", 90.0);
        a.digest("monitor.series_digest", digest);
        a
    }

    fn sim(storm_digest: u64) -> Artifact {
        let mut a = Artifact::new("sim", Value::Null);
        a.digest("sim.crash_stall_generous.digest", 7437265573964100524);
        a.digest("sim.deadline_storm_tight.digest", storm_digest);
        a
    }

    fn hash(tier: &str, rate: f64) -> Artifact {
        let mut a = Artifact::new("hash_lanes", Value::Null);
        a.tier = Some(tier.to_string());
        a.metric("hash.sha_1.x16.rate", rate).baseline(0.5, Worse::Lower);
        a.metric("hash.sha_1.x16.speedup", 8.0).at_least(1.0);
        a
    }

    const STORM: u64 = 0xDC4C_DFCD_6383_A2DE;

    fn full_set() -> Vec<Artifact> {
        vec![monitor(0, 0x72f1_6207_48cd_b521), sim(STORM), hash("avx512", 6.2e7)]
    }

    #[test]
    fn baseline_round_trips_and_passes_against_itself() {
        let set = full_set();
        let base = build_baseline(&set).expect("build");
        assert_eq!(base.hash_tier, "avx512");
        let ids: Vec<&str> = base.entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "monitor.ticks",
                "monitor.divergences",
                "monitor.issued",
                "monitor.pages",
                "monitor.series_digest_hi",
                "monitor.series_digest_lo",
                "sim.crash_stall_generous.digest_hi",
                "sim.crash_stall_generous.digest_lo",
                "sim.deadline_storm_tight.digest_hi",
                "sim.deadline_storm_tight.digest_lo",
                "hash.sha_1.x16.rate",
            ],
            "only metrics with a policy, in declaration order"
        );
        let parsed = parse_baseline_json(&render_baseline_json(&base)).expect("round trip");
        assert_eq!(parsed.entries.len(), base.entries.len());
        assert_eq!(parsed.hash_tier, "avx512");

        // Through the files the scenarios write, too.
        let reread: Vec<Artifact> =
            set.iter().map(|a| Artifact::parse(&a.to_json()).expect("parse")).collect();
        let report = compare(&parsed, &reread).expect("compare");
        assert!(report.ok(), "identical artifacts must pass: {:?}", report.regressions);
        assert!(report.skipped.is_empty());
        assert_eq!(report.passed.len(), 11);
    }

    #[test]
    fn wall_clock_slowdown_fails_and_improvement_passes() {
        let base = build_baseline(&full_set()).expect("build");

        // Under half the baseline rate is beyond the 50% tolerance.
        let mut slower = full_set();
        slower[2] = hash("avx512", 6.2e7 * 0.4);
        let report = compare(&base, &slower).expect("compare");
        assert!(!report.ok());
        assert!(
            report.regressions.iter().any(|r| r.contains("hash.sha_1.x16.rate")),
            "{:?}",
            report.regressions
        );

        // A faster rate is an improvement, never a failure.
        let mut faster = full_set();
        faster[2] = hash("avx512", 6.2e7 * 3.0);
        assert!(compare(&base, &faster).expect("compare").ok());
    }

    #[test]
    fn exact_counters_fail_on_any_move() {
        let base = build_baseline(&full_set()).expect("build");
        let mut diverged = full_set();
        diverged[0] = monitor(1, 0x72f1_6207_48cd_b521);
        let report = compare(&base, &diverged).expect("compare");
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("monitor.divergences"));
    }

    #[test]
    fn a_one_bit_digest_change_fails() {
        let base = build_baseline(&full_set()).expect("build");
        for bit in [0, 31, 32, 63] {
            let flipped = 0x72f1_6207_48cd_b521u64 ^ (1 << bit);
            let mut moved = full_set();
            moved[0] = monitor(0, flipped);
            let report = compare(&base, &moved).expect("compare");
            let half =
                if bit < 32 { "monitor.series_digest_lo" } else { "monitor.series_digest_hi" };
            assert!(report.regressions.iter().any(|r| r.contains(half)), "bit {bit}: {:?}", report);

            let entry = base.entries.iter().find(|e| e.id == half).expect("digest entry");
            let current = if bit < 32 { flipped as u32 } else { (flipped >> 32) as u32 };
            assert!(entry.check(f64::from(current)).is_err(), "bit {bit} must fail check");
        }

        // Digests are read as integers: the low bit of a digest above
        // 2^53 would vanish through an f64, here it fails.
        assert_eq!(STORM as f64, (STORM ^ 1) as f64);
        let mut moved = full_set();
        moved[1] = Artifact::parse(&sim(STORM ^ 1).to_json()).expect("parse");
        let report = compare(&base, &moved).expect("compare");
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("sim.deadline_storm_tight.digest_lo"));
    }

    #[test]
    fn tier_mismatch_skips_and_a_vanished_metric_regresses() {
        let base = build_baseline(&full_set()).expect("build");

        // Different SIMD tier: honest skip, not a regression.
        let mut other_tier = full_set();
        other_tier[2] = hash("portable", 2.0e6);
        let report = compare(&base, &other_tier).expect("compare");
        assert!(report.ok(), "{:?}", report.regressions);
        assert!(report.skipped.iter().any(|s| s.contains("tier mismatch")), "{:?}", report.skipped);

        // The artifact is present but the metric is gone.
        let mut shrunk = full_set();
        shrunk[0].metrics.retain(|m| m.id != "monitor.pages");
        let report = compare(&base, &shrunk).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("monitor.pages: metric disappeared")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn absent_artifacts_skip_but_empty_set_errors() {
        let base = build_baseline(&full_set()).expect("build");
        let only_monitor = vec![monitor(0, 0x72f1_6207_48cd_b521)];
        let report = compare(&base, &only_monitor).expect("compare");
        assert!(report.ok(), "{:?}", report.regressions);
        assert!(report.skipped.iter().any(|s| s.contains("no artifact with hash.* metrics")));

        assert!(compare(&base, &[]).is_err());
        assert!(build_baseline(&[]).is_err());
    }

    #[test]
    fn baseline_parser_rejects_malformed_documents() {
        assert!(parse_baseline_json("not json").is_err());
        assert!(parse_baseline_json(r#"{"baseline":"other","entries":[]}"#).is_err());
        assert!(parse_baseline_json(r#"{"baseline":"rbc-perf","entries":[]}"#).is_err());
        assert!(parse_baseline_json(
            r#"{"baseline":"rbc-perf","entries":[{"id":"x","value":1.0,"tolerance":0.1,"worse":"sideways"}]}"#
        )
        .is_err());
    }
}
