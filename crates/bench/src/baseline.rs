//! Committed performance baseline and the `repro regress` gate.
//!
//! `BASELINE.json` (committed at the repository root, deliberately
//! named outside the gitignored `BENCH_*.json` family) records a flat
//! list of scalar metrics extracted from the benchmark artifacts, each
//! with an explicit noise tolerance and a *direction of worse*:
//!
//! * `monitor.*` — from `BENCH_monitor.json`. The monitor runs under
//!   [`SimClock`](rbc_telemetry::SimClock) so its numbers are
//!   machine-independent: determinism counters carry **zero**
//!   tolerance, ledger counts a small one (they move only when the
//!   stack's behavior changes).
//! * `attrib.*` — from `BENCH_attrib.json`. Also virtual time end to
//!   end: receipt and hash counters are exact, like the monitor's
//!   determinism counters; only the wall-clock `wall_secs` is excluded
//!   (it never enters the baseline).
//! * `adversarial.*` — from `BENCH_adversarial.json`. Virtual time end
//!   to end like `attrib`: ledger and enforcement counters are exact —
//!   any drift means the admission layer's behavior changed.
//! * `sim.*` — from `BENCH_sim.json`: each fault-combo row's replay
//!   digest.
//!
//! The replay digests (`monitor.series_digest`, `attrib.digest`,
//! `adversarial.digest` and every `sim.<row>.digest`) are exact
//! entries: a run that replays itself but no longer matches the
//! committed record fails. Each u64 digest is split into exact u32
//! `_hi` / `_lo` halves, since an entry's value is an f64.
//! * `service.*` — from `BENCH_service.json`. Wall-clock latencies on
//!   whatever machine ran them, so tolerances are wide; only a large
//!   p99 regression fails.
//! * `hash.*` — from `BENCH_hash_lanes.json`. Throughput depends on
//!   the SIMD tier the dispatcher selected, so these are compared
//!   **only** when the current artifact's active tier matches the one
//!   recorded in the baseline — a scalar-only container honestly skips
//!   them instead of "regressing".
//!
//! `repro regress` extracts the same metrics from whatever artifacts
//! are present (at least one is required), compares, and exits nonzero
//! on any out-of-tolerance move in the worse direction. Improvements
//! never fail. `repro regress --update` rewrites `BASELINE.json` from
//! the current artifacts.

use serde_json::Value;

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
    /// Dotted id, e.g. `service.c8.p99_ms`.
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

/// Tolerance and direction for a metric id, by convention:
/// determinism and virtual-time metrics are exact, virtual-clock
/// ledger counts tight, wall-clock latencies and throughputs loose.
pub fn policy_for(id: &str) -> (f64, Worse) {
    match id {
        _ if id.starts_with("sim.") || id.ends_with("digest_hi") || id.ends_with("digest_lo") => {
            (0.0, Worse::Differ)
        }
        "monitor.ticks" | "monitor.divergences" | "monitor.violations" => (0.0, Worse::Differ),
        "monitor.pages" => (0.0, Worse::Lower),
        "attrib.divergences" | "attrib.violations" => (0.0, Worse::Differ),
        "attrib.pages" => (0.0, Worse::Lower),
        // Attribution counters are virtual-time deterministic: any
        // drift means the stack's cost behavior changed.
        _ if id.starts_with("attrib.") => (0.0, Worse::Differ),
        // Admission-control counters are likewise virtual-time
        // deterministic: exact or the enforcement story changed.
        _ if id.starts_with("adversarial.") => (0.0, Worse::Differ),
        _ if id.starts_with("monitor.") => (0.10, Worse::Differ),
        _ if id.ends_with(".p99_ms") => (1.0, Worse::Higher),
        _ if id.starts_with("hash.") => (0.5, Worse::Lower),
        _ => (0.25, Worse::Differ),
    }
}

fn ident(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut pending = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if pending && !out.is_empty() {
                out.push('_');
            }
            pending = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending = true;
        }
    }
    out
}

fn field_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.field(name).ok().and_then(Value::as_f64).ok_or(format!("missing numeric field {name}"))
}

/// `id_hi` / `id_lo` entries holding the upper and lower u32 halves of
/// `digest`, each exact in an f64.
fn digest_halves(id: &str, digest: u64) -> [(String, f64); 2] {
    [(format!("{id}_hi"), (digest >> 32) as f64), (format!("{id}_lo"), (digest as u32) as f64)]
}

/// Reads a digest written as 16 hex digits.
fn field_hex_digest(v: &Value, name: &str) -> Result<u64, String> {
    v.field(name)
        .ok()
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(format!("missing hex digest field {name}"))
}

/// Extracts the baselined metrics from a `BENCH_monitor.json` text.
pub fn extract_monitor(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("monitor: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("monitor") {
        return Err("monitor: wrong bench envelope".to_string());
    }
    let mut out = Vec::new();
    for f in ["ticks", "divergences", "violations", "issued", "accepted", "shed"] {
        out.push((format!("monitor.{f}"), field_f64(&doc, f)?));
    }
    let alerts = doc
        .field("alerts")
        .ok()
        .and_then(Value::as_array)
        .ok_or("monitor: missing alerts array")?;
    out.push(("monitor.alerts".to_string(), alerts.len() as f64));
    let pages = alerts
        .iter()
        .filter(|a| a.field("severity").ok().and_then(Value::as_str) == Some("page"))
        .count();
    out.push(("monitor.pages".to_string(), pages as f64));
    out.extend(digest_halves("monitor.series_digest", field_hex_digest(&doc, "series_digest")?));
    Ok(out)
}

/// Extracts the baselined metrics from a `BENCH_attrib.json` text.
pub fn extract_attrib(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("attrib: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("attrib") {
        return Err("attrib: wrong bench envelope".to_string());
    }
    let mut out = Vec::new();
    for f in [
        "ticks",
        "divergences",
        "violations",
        "issued",
        "accepted",
        "rejected",
        "receipts",
        "hashes",
        "exhausted_hashes",
    ] {
        out.push((format!("attrib.{f}"), field_f64(&doc, f)?));
    }
    let alerts =
        doc.field("alerts").ok().and_then(Value::as_array).ok_or("attrib: missing alerts array")?;
    out.push(("attrib.alerts".to_string(), alerts.len() as f64));
    let pages = alerts
        .iter()
        .filter(|a| a.field("severity").ok().and_then(Value::as_str) == Some("page"))
        .count();
    out.push(("attrib.pages".to_string(), pages as f64));
    out.extend(digest_halves("attrib.digest", field_hex_digest(&doc, "digest")?));
    Ok(out)
}

/// Extracts the baselined metrics from a `BENCH_adversarial.json` text.
pub fn extract_adversarial(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("adversarial: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("adversarial") {
        return Err("adversarial: wrong bench envelope".to_string());
    }
    let mut out = Vec::new();
    for f in [
        "ticks",
        "divergences",
        "violations",
        "cache_hits",
        "tokens_refused",
        "quarantines",
        "admission_shed",
        "depth_capped",
        "attacker_requests",
        "attacker_hashes",
    ] {
        out.push((format!("adversarial.{f}"), field_f64(&doc, f)?));
    }
    for world in ["baseline", "flood"] {
        let w = doc.field(world).map_err(|_| format!("adversarial: missing {world} ledger"))?;
        for f in ["issued", "accepted", "rejected", "shed"] {
            out.push((
                format!("adversarial.{world}_{f}"),
                field_f64(w, f).map_err(|e| format!("adversarial: {world}: {e}"))?,
            ));
        }
    }
    out.extend(digest_halves("adversarial.digest", field_hex_digest(&doc, "digest")?));
    Ok(out)
}

/// Extracts every row's replay digest from a `BENCH_sim.json` text as
/// `sim.<row>.digest_hi` / `_lo`. The digest is read as a u64, never
/// through an f64, which would round it.
pub fn extract_sim(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("sim: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("sim") {
        return Err("sim: wrong bench envelope".to_string());
    }
    let rows =
        doc.field("results").ok().and_then(Value::as_array).ok_or("sim: missing results array")?;
    let mut out = Vec::new();
    for row in rows {
        let scenario = row
            .field("scenario")
            .ok()
            .and_then(Value::as_str)
            .ok_or("sim: row missing scenario")?;
        let digest = row
            .field("digest")
            .ok()
            .and_then(Value::as_u64)
            .ok_or(format!("sim: row {scenario} missing integer digest"))?;
        out.extend(digest_halves(&format!("sim.{}.digest", ident(scenario)), digest));
    }
    if out.is_empty() {
        return Err("sim: no result rows".to_string());
    }
    Ok(out)
}

/// Extracts per-load p99 latencies from a `BENCH_service.json` text.
pub fn extract_service(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("service: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("service") {
        return Err("service: wrong bench envelope".to_string());
    }
    let rows = doc
        .field("results")
        .ok()
        .and_then(Value::as_array)
        .ok_or("service: missing results array")?;
    let mut out = Vec::new();
    for row in rows {
        let clients = row
            .field("clients")
            .ok()
            .and_then(Value::as_u64)
            .ok_or("service: row missing clients")?;
        out.push((format!("service.c{clients}.p99_ms"), field_f64(row, "p99_ms")?));
    }
    if out.is_empty() {
        return Err("service: no result rows".to_string());
    }
    Ok(out)
}

/// Extracts the active SIMD tier and the dispatcher-selected lane
/// rates from a `BENCH_hash_lanes.json` text.
pub fn extract_hash_lanes(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("hash: not JSON: {e}"))?;
    if doc.field("bench").ok().and_then(Value::as_str) != Some("hash_lanes") {
        return Err("hash: wrong bench envelope".to_string());
    }
    let tier = doc
        .field("cpu")
        .ok()
        .and_then(|c| c.field("active").ok())
        .and_then(Value::as_str)
        .ok_or("hash: missing cpu.active tier")?
        .to_string();
    let rows =
        doc.field("results").ok().and_then(Value::as_array).ok_or("hash: missing results array")?;
    let mut out = Vec::new();
    for row in rows {
        if row.field("selected").ok().and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let hash = row.field("hash").ok().and_then(Value::as_str).unwrap_or("unknown");
        let path = row.field("path").ok().and_then(Value::as_str).unwrap_or("unknown");
        out.push((format!("hash.{}.{}.rate", ident(hash), ident(path)), field_f64(row, "rate")?));
    }
    Ok((tier, out))
}

/// Artifact texts available for a comparison or a baseline build. Any
/// subset may be present; [`compare`] skips absent ones honestly.
#[derive(Clone, Debug, Default)]
pub struct ArtifactSet {
    /// `BENCH_monitor.json` contents.
    pub monitor: Option<String>,
    /// `BENCH_attrib.json` contents.
    pub attrib: Option<String>,
    /// `BENCH_adversarial.json` contents.
    pub adversarial: Option<String>,
    /// `BENCH_sim.json` contents.
    pub sim: Option<String>,
    /// `BENCH_service.json` contents.
    pub service: Option<String>,
    /// `BENCH_hash_lanes.json` contents.
    pub hash_lanes: Option<String>,
}

impl ArtifactSet {
    /// Reads whichever of the artifacts exist in `dir`.
    pub fn read_from(dir: &str) -> Self {
        let read = |name: &str| std::fs::read_to_string(format!("{dir}/{name}")).ok();
        ArtifactSet {
            monitor: read("BENCH_monitor.json"),
            attrib: read("BENCH_attrib.json"),
            adversarial: read("BENCH_adversarial.json"),
            sim: read("BENCH_sim.json"),
            service: read("BENCH_service.json"),
            hash_lanes: read("BENCH_hash_lanes.json"),
        }
    }

    /// True when no artifact is present.
    pub fn is_empty(&self) -> bool {
        self.monitor.is_none()
            && self.attrib.is_none()
            && self.adversarial.is_none()
            && self.sim.is_none()
            && self.service.is_none()
            && self.hash_lanes.is_none()
    }
}

/// Builds a fresh baseline from the artifacts present in `set`.
pub fn build_baseline(set: &ArtifactSet) -> Result<Baseline, String> {
    if set.is_empty() {
        return Err(
            "no artifacts to baseline (run repro monitor / service / hash-lanes first)".to_string()
        );
    }
    let mut entries = Vec::new();
    let mut hash_tier = String::new();
    if let Some(text) = &set.monitor {
        for (id, value) in extract_monitor(text)? {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    if let Some(text) = &set.attrib {
        for (id, value) in extract_attrib(text)? {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    if let Some(text) = &set.adversarial {
        for (id, value) in extract_adversarial(text)? {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    if let Some(text) = &set.sim {
        for (id, value) in extract_sim(text)? {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    if let Some(text) = &set.service {
        for (id, value) in extract_service(text)? {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    if let Some(text) = &set.hash_lanes {
        let (tier, metrics) = extract_hash_lanes(text)?;
        hash_tier = tier;
        for (id, value) in metrics {
            let (tolerance, worse) = policy_for(&id);
            entries.push(BaselineEntry { id, value, tolerance, worse });
        }
    }
    Ok(Baseline { hash_tier, entries })
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

/// Compares the artifacts in `set` against `base`. Baselined metrics
/// whose artifact is absent are skipped; `hash.*` metrics are also
/// skipped when the current active SIMD tier differs from the
/// baseline's. A metric whose artifact is present but which has
/// disappeared from it is a regression.
pub fn compare(base: &Baseline, set: &ArtifactSet) -> Result<RegressReport, String> {
    let monitor = set.monitor.as_deref().map(extract_monitor).transpose()?;
    let attrib = set.attrib.as_deref().map(extract_attrib).transpose()?;
    let adversarial = set.adversarial.as_deref().map(extract_adversarial).transpose()?;
    let sim = set.sim.as_deref().map(extract_sim).transpose()?;
    let service = set.service.as_deref().map(extract_service).transpose()?;
    let hash = set.hash_lanes.as_deref().map(extract_hash_lanes).transpose()?;

    let mut report = RegressReport::default();
    for entry in &base.entries {
        let (source, source_name): (Option<&Vec<(String, f64)>>, &str) =
            if entry.id.starts_with("monitor.") {
                (monitor.as_ref(), "BENCH_monitor.json")
            } else if entry.id.starts_with("attrib.") {
                (attrib.as_ref(), "BENCH_attrib.json")
            } else if entry.id.starts_with("adversarial.") {
                (adversarial.as_ref(), "BENCH_adversarial.json")
            } else if entry.id.starts_with("sim.") {
                (sim.as_ref(), "BENCH_sim.json")
            } else if entry.id.starts_with("service.") {
                (service.as_ref(), "BENCH_service.json")
            } else if entry.id.starts_with("hash.") {
                match &hash {
                    Some((tier, _)) if *tier != base.hash_tier => {
                        report.skipped.push(format!(
                            "{}: SIMD tier mismatch (baseline {}, current {tier})",
                            entry.id, base.hash_tier
                        ));
                        continue;
                    }
                    Some((_, metrics)) => (Some(metrics), "BENCH_hash_lanes.json"),
                    None => (None, "BENCH_hash_lanes.json"),
                }
            } else {
                report.skipped.push(format!("{}: unknown metric family", entry.id));
                continue;
            };
        let Some(metrics) = source else {
            report.skipped.push(format!("{}: {source_name} not present", entry.id));
            continue;
        };
        match metrics.iter().find(|(id, _)| *id == entry.id) {
            None => report
                .regressions
                .push(format!("{}: metric disappeared from {source_name}", entry.id)),
            Some((_, current)) => match entry.check(*current) {
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

    fn monitor_text() -> String {
        r#"{"bench":"monitor","ticks":359,"divergences":0,"violations":0,
            "issued":1500,"accepted":700,"shed":800,"series_digest":"72f1620748cdb521",
            "alerts":[{"severity":"page"},{"severity":"clear"}]}"#
            .to_string()
    }

    fn attrib_text(divergences: u64) -> String {
        format!(
            r#"{{"bench":"attrib","ticks":359,"divergences":{divergences},"violations":0,
            "issued":592,"accepted":354,"rejected":238,"receipts":592,
            "hashes":7851312,"exhausted_hashes":7829486,"digest":"868901abcb6f01c9",
            "alerts":[{{"severity":"page"}},{{"severity":"clear"}}]}}"#
        )
    }

    fn adversarial_text(quarantines: u64) -> String {
        format!(
            r#"{{"bench":"adversarial","ticks":360,"divergences":0,"violations":0,
            "cache_hits":120,"tokens_refused":40,"quarantines":{quarantines},
            "admission_shed":6,"depth_capped":30,
            "attacker_requests":160,"attacker_hashes":400000,"digest":"d193100b68dac7e6",
            "baseline":{{"issued":240,"accepted":240,"rejected":0,"shed":0}},
            "flood":{{"issued":420,"accepted":238,"rejected":150,"shed":32}}}}"#
        )
    }

    fn sim_text(storm_digest: u64) -> String {
        format!(
            r#"{{"bench":"sim","results":[
                {{"scenario":"crash+stall/generous","digest":7437265573964100524}},
                {{"scenario":"deadline-storm/tight","digest":{storm_digest}}}]}}"#
        )
    }

    fn service_text(p99_c8: f64) -> String {
        format!(
            r#"{{"bench":"service","results":[
                {{"clients":2,"p99_ms":0.4}},
                {{"clients":8,"p99_ms":{p99_c8}}}]}}"#
        )
    }

    fn hash_text(tier: &str, rate: f64) -> String {
        format!(
            r#"{{"bench":"hash_lanes","cpu":{{"active":"{tier}"}},"results":[
                {{"hash":"SHA-1","path":"x8","kernel":"avx2","selected":true,"rate":{rate}}},
                {{"hash":"SHA-1","path":"scalar","kernel":"scalar","selected":false,"rate":1.0}}]}}"#
        )
    }

    fn full_set() -> ArtifactSet {
        ArtifactSet {
            monitor: Some(monitor_text()),
            attrib: Some(attrib_text(0)),
            adversarial: Some(adversarial_text(4)),
            sim: Some(sim_text(0xDC4C_DFCD_6383_A2DE)),
            service: Some(service_text(394.0)),
            hash_lanes: Some(hash_text("avx512", 2.4e7)),
        }
    }

    #[test]
    fn baseline_round_trips_and_passes_against_itself() {
        let set = full_set();
        let base = build_baseline(&set).expect("build");
        assert_eq!(base.hash_tier, "avx512");
        let parsed = parse_baseline_json(&render_baseline_json(&base)).expect("round trip");
        assert_eq!(parsed.entries.len(), base.entries.len());
        assert_eq!(parsed.hash_tier, "avx512");

        let report = compare(&parsed, &set).expect("compare");
        assert!(report.ok(), "identical artifacts must pass: {:?}", report.regressions);
        assert!(report.skipped.is_empty());
        // monitor 10 + attrib 13 + adversarial 20 + sim 4 + service 2 +
        // hash 1 selected row
        assert_eq!(report.passed.len(), 50);
    }

    #[test]
    fn doctored_p99_regression_fails_and_improvement_passes() {
        let base = build_baseline(&full_set()).expect("build");

        // 5x the baseline p99 is far beyond the 100% tolerance.
        let mut worse = full_set();
        worse.service = Some(service_text(394.0 * 5.0));
        let report = compare(&base, &worse).expect("compare");
        assert!(!report.ok());
        assert!(
            report.regressions.iter().any(|r| r.contains("service.c8.p99_ms")),
            "{:?}",
            report.regressions
        );

        // A faster p99 is an improvement, never a failure.
        let mut better = full_set();
        better.service = Some(service_text(100.0));
        assert!(compare(&base, &better).expect("compare").ok());
    }

    #[test]
    fn determinism_counters_are_exact() {
        let base = build_baseline(&full_set()).expect("build");
        let mut diverged = full_set();
        diverged.monitor = Some(monitor_text().replace(r#""divergences":0"#, r#""divergences":1"#));
        let report = compare(&base, &diverged).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("monitor.divergences")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn attrib_counters_are_exact() {
        let base = build_baseline(&full_set()).expect("build");
        // A replay divergence fails outright.
        let mut diverged = full_set();
        diverged.attrib = Some(attrib_text(1));
        let report = compare(&base, &diverged).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("attrib.divergences")),
            "{:?}",
            report.regressions
        );
        // So does any drift in a virtual-time cost counter: the hash
        // bill moving means the stack's cost behavior changed.
        let mut drifted = full_set();
        drifted.attrib = Some(attrib_text(0).replace(r#""hashes":7851312"#, r#""hashes":7851313"#));
        let report = compare(&base, &drifted).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("attrib.hashes")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn adversarial_counters_are_exact() {
        let base = build_baseline(&full_set()).expect("build");
        // Losing a quarantine is an enforcement change, not noise.
        let mut drifted = full_set();
        drifted.adversarial = Some(adversarial_text(3));
        let report = compare(&base, &drifted).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("adversarial.quarantines")),
            "{:?}",
            report.regressions
        );
        // So is any move in the flood world's ledger.
        let mut rebooked = full_set();
        rebooked.adversarial =
            Some(adversarial_text(4).replace(r#""rejected":150"#, r#""rejected":151"#));
        let report = compare(&base, &rebooked).expect("compare");
        assert!(
            report.regressions.iter().any(|r| r.contains("adversarial.flood_rejected")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn a_one_bit_digest_change_fails() {
        let base = build_baseline(&full_set()).expect("build");
        for bit in [0, 31, 32, 63] {
            let flipped = 0x72f1_6207_48cd_b521u64 ^ (1 << bit);
            let mut moved = full_set();
            moved.monitor =
                Some(monitor_text().replace("72f1620748cdb521", &format!("{flipped:016x}")));
            let report = compare(&base, &moved).expect("compare");
            let half =
                if bit < 32 { "monitor.series_digest_lo" } else { "monitor.series_digest_hi" };
            assert!(report.regressions.iter().any(|r| r.contains(half)), "bit {bit}: {:?}", report);

            let entry = base.entries.iter().find(|e| e.id == half).expect("digest entry");
            let current = if bit < 32 { flipped as u32 } else { (flipped >> 32) as u32 };
            assert!(entry.check(f64::from(current)).is_err(), "bit {bit} must fail check");
        }

        // Sim digests are read as integers: the low bit of a digest
        // above 2^53 would vanish through an f64, here it fails.
        let storm = 0xDC4C_DFCD_6383_A2DEu64;
        assert_eq!(storm as f64, (storm ^ 1) as f64);
        let mut moved = full_set();
        moved.sim = Some(sim_text(storm ^ 1));
        let report = compare(&base, &moved).expect("compare");
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("sim.deadline_storm_tight.digest_lo"));
    }

    #[test]
    fn hash_entries_skip_on_tier_mismatch_and_fail_on_slowdown() {
        let base = build_baseline(&full_set()).expect("build");

        // Different SIMD tier: honest skip, not a regression.
        let mut other_tier = full_set();
        other_tier.hash_lanes = Some(hash_text("scalar", 2.0e6));
        let report = compare(&base, &other_tier).expect("compare");
        assert!(report.ok(), "{:?}", report.regressions);
        assert!(report.skipped.iter().any(|s| s.contains("tier mismatch")), "{:?}", report.skipped);

        // Same tier, halved-plus rate: regression.
        let mut slower = full_set();
        slower.hash_lanes = Some(hash_text("avx512", 2.4e7 * 0.4));
        let report = compare(&base, &slower).expect("compare");
        assert!(report.regressions.iter().any(|r| r.contains("hash.sha_1.x8.rate")));
    }

    #[test]
    fn absent_artifacts_skip_but_empty_set_errors() {
        let base = build_baseline(&full_set()).expect("build");
        let only_monitor = ArtifactSet { monitor: Some(monitor_text()), ..Default::default() };
        let report = compare(&base, &only_monitor).expect("compare");
        assert!(report.ok(), "{:?}", report.regressions);
        assert!(report.skipped.iter().any(|s| s.contains("BENCH_service.json")));

        assert!(compare(&base, &ArtifactSet::default()).is_err());
        assert!(build_baseline(&ArtifactSet::default()).is_err());
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
