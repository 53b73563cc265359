//! The one schema every `BENCH_*.json` artifact follows.
//!
//! A scenario turns its typed outcome into one [`Artifact`]: the bench
//! name, the SIMD tier where one applies, a flat list of named metrics,
//! and a free-form `detail` holding the human-readable rows, series,
//! alerts and spans. Each [`Metric`] is declared once, with its value,
//! its `--smoke` [`Bound`] and its `BASELINE.json` policy. Everything
//! else works from that list:
//!
//! * [`Artifact::to_json`] writes it;
//! * [`Artifact::parse`] reads any artifact file back, and
//!   [`Artifact::read_back`] checks that a file carries every metric a
//!   declaration names;
//! * [`Artifact::check`] applies the bounds (the `--smoke` gate);
//! * [`crate::baseline`] builds and compares `BASELINE.json` entries
//!   from the metrics that declare a policy.
//!
//! No gate reads `detail`. The file shape is described once, in
//! DESIGN.md §11.

use std::fmt;

use serde_json::Value as Json;

use crate::baseline::Worse;

/// A metric's `--smoke` bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Bound {
    /// Not gated.
    None,
    /// The value must be `>=` the bound.
    AtLeast(f64),
    /// The value must be `<=` the bound.
    AtMost(f64),
    /// The value must equal the bound.
    Exactly(f64),
}

impl Bound {
    fn holds(self, v: f64) -> bool {
        match self {
            Bound::None => true,
            Bound::AtLeast(b) => v >= b,
            Bound::AtMost(b) => v <= b,
            Bound::Exactly(b) => v == b,
        }
    }

    /// The JSON key and value this bound is written as.
    fn entry(self) -> Option<(&'static str, f64)> {
        match self {
            Bound::None => None,
            Bound::AtLeast(b) => Some(("at_least", b)),
            Bound::AtMost(b) => Some(("at_most", b)),
            Bound::Exactly(b) => Some(("exactly", b)),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.entry() {
            None => write!(f, "unbounded"),
            Some((key, b)) => write!(f, "{} {b}", key.replace('_', " ")),
        }
    }
}

/// A metric's value: a real number, or a replay digest kept as an exact
/// `u64` (never through an f64, which would round it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Reading {
    /// A count, rate, ratio or duration.
    Real(f64),
    /// A replay digest.
    Digest(u64),
}

impl Reading {
    fn as_f64(self) -> f64 {
        match self {
            Reading::Real(v) => v,
            Reading::Digest(d) => d as f64,
        }
    }
}

/// Numbers a metric can be declared from.
pub(crate) trait Scalar {
    /// The value as an f64 (`true` is 1).
    fn to_f64(self) -> f64;
}

impl Scalar for f64 {
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for u64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Scalar for usize {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Scalar for bool {
    fn to_f64(self) -> f64 {
        f64::from(u8::from(self))
    }
}

/// One named scalar of an artifact.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Metric {
    /// Dotted id, e.g. `monitor.ticks`; `BASELINE.json` uses the same.
    pub id: String,
    /// The measured value.
    pub value: Reading,
    /// The `--smoke` bound.
    pub bound: Bound,
    /// `Some((tolerance, worse))` when `BASELINE.json` gates the metric.
    pub baseline: Option<(f64, Worse)>,
}

impl Metric {
    /// Gates the metric at `>= b` under `--smoke`.
    pub fn at_least(&mut self, b: f64) -> &mut Self {
        self.bound = Bound::AtLeast(b);
        self
    }

    /// Gates the metric at `<= b` under `--smoke`.
    pub fn at_most(&mut self, b: f64) -> &mut Self {
        self.bound = Bound::AtMost(b);
        self
    }

    /// Gates the metric at `== b` under `--smoke`.
    pub fn exactly(&mut self, b: f64) -> &mut Self {
        self.bound = Bound::Exactly(b);
        self
    }

    /// Records the metric in `BASELINE.json` with a relative
    /// `tolerance` and a direction of worse.
    pub fn baseline(&mut self, tolerance: f64, worse: Worse) -> &mut Self {
        self.baseline = Some((tolerance, worse));
        self
    }

    /// Records the metric in `BASELINE.json` as an exact value.
    pub fn baseline_exact(&mut self) -> &mut Self {
        self.baseline(0.0, Worse::Differ)
    }

    /// The `(id, value)` pairs the metric stands for in `BASELINE.json`:
    /// a digest as its exact u32 `_hi` / `_lo` halves.
    pub(crate) fn entries(&self) -> Vec<(String, f64)> {
        match self.value {
            Reading::Real(v) => vec![(self.id.clone(), v)],
            Reading::Digest(d) => vec![
                (format!("{}_hi", self.id), f64::from((d >> 32) as u32)),
                (format!("{}_lo", self.id), f64::from(d as u32)),
            ],
        }
    }

    /// Why the value breaks the bound, naming the metric, if it does.
    fn violation(&self) -> Option<String> {
        let v = self.value.as_f64();
        (!self.bound.holds(v)).then(|| format!("{} = {v} is not {}", self.id, self.bound))
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("id".to_string(), Json::Str(self.id.clone()))];
        fields.push(match self.value {
            Reading::Real(v) => ("value".to_string(), Json::Float(v)),
            Reading::Digest(d) => ("digest".to_string(), Json::UInt(d)),
        });
        if let Some((key, b)) = self.bound.entry() {
            fields.push((key.to_string(), Json::Float(b)));
        }
        if let Some((tolerance, worse)) = self.baseline {
            fields.push(("tolerance".to_string(), Json::Float(tolerance)));
            fields.push(("worse".to_string(), Json::Str(worse.name().to_string())));
        }
        Json::Object(fields)
    }

    fn parse(m: &Json) -> Result<Metric, String> {
        let num = |key: &str| m.field(key).ok().and_then(Json::as_f64);
        let id = m.field("id").ok().and_then(Json::as_str).ok_or("a metric has no id")?;
        let value = match m.field("digest") {
            Ok(d) => Reading::Digest(d.as_u64().ok_or(format!("{id}: digest is not a u64"))?),
            Err(_) => Reading::Real(num("value").ok_or(format!("{id}: value is not a number"))?),
        };
        let bound = match (num("at_least"), num("at_most"), num("exactly")) {
            (Some(b), _, _) => Bound::AtLeast(b),
            (_, Some(b), _) => Bound::AtMost(b),
            (_, _, Some(b)) => Bound::Exactly(b),
            _ => Bound::None,
        };
        let baseline = match m.field("worse") {
            Err(_) => None,
            Ok(w) => Some((
                num("tolerance").ok_or(format!("{id}: tolerance is not a number"))?,
                w.as_str().and_then(Worse::parse).ok_or(format!("{id}: bad worse direction"))?,
            )),
        };
        Ok(Metric { id: id.to_string(), value, bound, baseline })
    }
}

/// One benchmark artifact: `BENCH_<bench>.json`.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Bench name; the file is `BENCH_<bench>.json`.
    pub(crate) bench: String,
    /// Active SIMD dispatch tier, for artifacts whose numbers depend on
    /// it (`hash_lanes`); `repro regress` compares such an artifact only
    /// against a baseline recorded at the same tier.
    pub(crate) tier: Option<String>,
    /// The named metrics, in declaration order.
    pub(crate) metrics: Vec<Metric>,
    /// Human-readable rows, series, alerts and spans; never gated.
    pub(crate) detail: Json,
}

impl Artifact {
    /// An artifact with no metrics yet.
    pub(crate) fn new(bench: &str, detail: Json) -> Self {
        Artifact { bench: bench.to_string(), tier: None, metrics: Vec::new(), detail }
    }

    /// Declares a metric, unbounded and not baselined; chain its
    /// [`Metric`] builders to gate it.
    pub(crate) fn metric(&mut self, id: impl Into<String>, value: impl Scalar) -> &mut Metric {
        self.push(id.into(), Reading::Real(value.to_f64()))
    }

    /// Declares a replay digest, recorded exactly in `BASELINE.json`.
    pub(crate) fn digest(&mut self, id: impl Into<String>, value: u64) -> &mut Metric {
        self.push(id.into(), Reading::Digest(value)).baseline_exact()
    }

    fn push(&mut self, id: String, value: Reading) -> &mut Metric {
        self.metrics.push(Metric { id, value, bound: Bound::None, baseline: None });
        self.metrics.last_mut().expect("just pushed")
    }

    /// The artifact's file name.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// Renders the file: `{"bench", "tier"?, "metrics": [...], "detail"}`.
    pub fn to_json(&self) -> String {
        let mut doc = vec![("bench".to_string(), Json::Str(self.bench.clone()))];
        if let Some(tier) = &self.tier {
            doc.push(("tier".to_string(), Json::Str(tier.clone())));
        }
        doc.push((
            "metrics".to_string(),
            Json::Array(self.metrics.iter().map(Metric::to_json).collect()),
        ));
        doc.push(("detail".to_string(), self.detail.clone()));
        serde_json::to_string(&Json::Object(doc)).unwrap_or_default()
    }

    /// Writes [`Artifact::to_json`] to [`Artifact::file_name`] in the
    /// working directory.
    pub fn write(&self) -> std::io::Result<()> {
        std::fs::write(self.file_name(), self.to_json())
    }

    /// Parses an artifact file. `detail` is not read back.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let doc: Json = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
        let bench = doc.field("bench").ok().and_then(Json::as_str).ok_or("no bench envelope")?;
        let metrics = doc
            .field("metrics")
            .ok()
            .and_then(Json::as_array)
            .ok_or("no metrics list")?
            .iter()
            .map(Metric::parse)
            .collect::<Result<_, _>>()?;
        Ok(Artifact {
            bench: bench.to_string(),
            tier: doc.field("tier").ok().and_then(Json::as_str).map(str::to_string),
            metrics,
            detail: Json::Null,
        })
    }

    /// Reads back a file written from this declaration: the same bench
    /// and every declared metric present. The result holds the file's
    /// values under this declaration's bounds and policies.
    pub fn read_back(&self, text: &str) -> Result<Artifact, String> {
        let file = Artifact::parse(text)?;
        if file.bench != self.bench {
            return Err(format!("bench envelope is {:?}, expected {:?}", file.bench, self.bench));
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| match file.metrics.iter().find(|f| f.id == m.id) {
                Some(f) => Ok(Metric { value: f.value, ..m.clone() }),
                None => Err(format!("missing declared metric {}", m.id)),
            })
            .collect::<Result<_, String>>()?;
        Ok(Artifact { metrics, ..file })
    }

    /// Applies every metric's bound; the error names each metric that
    /// breaks its bound.
    pub fn check(&self) -> Result<(), String> {
        let failures: Vec<String> = self.metrics.iter().filter_map(Metric::violation).collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// The `--smoke` gate on a file written from this declaration:
    /// [`Artifact::read_back`], then [`Artifact::check`].
    pub fn gate(&self, text: &str) -> Result<(), String> {
        self.read_back(text)?.check()
    }

    /// Number of metrics with a `--smoke` bound.
    pub fn bounded(&self) -> usize {
        self.metrics.iter().filter(|m| m.bound != Bound::None).count()
    }
}

/// Serializes `v` for an artifact's `detail`.
pub(crate) fn detail<T: serde::Serialize + ?Sized>(v: &T) -> Json {
    serde_json::to_value(v).unwrap_or(Json::Null)
}

/// A `detail` object from named parts.
pub(crate) fn object(parts: Vec<(&str, Json)>) -> Json {
    Json::Object(parts.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Lower-case `a_b_c` form of a label, for metric ids: `SHA-1` is
/// `sha_1`, `crash+stall/generous` is `crash_stall_generous`.
pub(crate) fn ident(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new("demo", object(vec![("rows", Json::UInt(3))]));
        a.tier = Some("avx512".to_string());
        a.metric("demo.ticks", 359u64).at_least(300.0).baseline_exact();
        a.metric("demo.ratio", 1.25).at_most(2.0);
        a.metric("demo.frozen", true).exactly(1.0);
        a.metric("demo.rate", 2.4e7).baseline(0.5, Worse::Lower);
        a.digest("demo.digest", 0xDC4C_DFCD_6383_A2DF);
        a
    }

    #[test]
    fn written_artifact_reads_back_with_the_same_ids_and_values() {
        let a = sample();
        let text = a.to_json();
        assert!(text.contains("\"detail\":{\"rows\":3}"), "{text}");
        let read = Artifact::parse(&text).expect("parses");
        assert_eq!(read.bench, "demo");
        assert_eq!(read.tier.as_deref(), Some("avx512"));
        assert_eq!(read.metrics, a.metrics);
        assert_eq!(a.read_back(&text).expect("reads back").metrics, a.metrics);

        // A digest above 2^53 keeps its low bit, which an f64 would drop.
        let digest = 0xDC4C_DFCD_6383_A2DFu64;
        assert_eq!(digest as f64, (digest ^ 1) as f64);
        assert_eq!(read.metrics[4].value, Reading::Digest(digest));
        assert_eq!(
            read.metrics[4].entries(),
            vec![
                ("demo.digest_hi".to_string(), f64::from(0xDC4C_DFCDu32)),
                ("demo.digest_lo".to_string(), f64::from(0x6383_A2DFu32)),
            ]
        );
        assert!(a.check().is_ok());
        assert_eq!(a.bounded(), 3);
    }

    #[test]
    fn reader_rejects_non_json_a_wrong_envelope_and_a_missing_metric() {
        let a = sample();
        let err = a.read_back("not json").expect_err("not JSON");
        assert!(err.contains("not JSON"), "{err}");
        let err = a.read_back(&a.to_json().replace("\"demo\"", "\"other\"")).expect_err("bench");
        assert!(err.contains("bench envelope"), "{err}");
        assert!(Artifact::parse("{\"metrics\":[]}").is_err(), "no bench");
        assert!(Artifact::parse("{\"bench\":\"demo\"}").is_err(), "no metrics");

        let mut short = sample();
        short.metrics.remove(1);
        let err = a.read_back(&short.to_json()).expect_err("missing metric");
        assert!(err.contains("missing declared metric demo.ratio"), "{err}");
        // A value the writer could only render as null is not a number.
        let mut nan = sample();
        nan.metrics[1].value = Reading::Real(f64::NAN);
        let err = a.read_back(&nan.to_json()).expect_err("NaN");
        assert!(err.contains("demo.ratio"), "{err}");
    }

    #[test]
    fn check_names_every_metric_outside_its_bound() {
        let mut a = sample();
        a.metrics[0].value = Reading::Real(299.0);
        a.metrics[1].value = Reading::Real(2.5);
        a.metrics[2].value = Reading::Real(0.0);
        let err = a.check().expect_err("three bounds broken");
        assert!(err.contains("demo.ticks = 299 is not at least 300"), "{err}");
        assert!(err.contains("demo.ratio = 2.5 is not at most 2"), "{err}");
        assert!(err.contains("demo.frozen = 0 is not exactly 1"), "{err}");
        assert!(!err.contains("demo.rate") && !err.contains("demo.digest"), "{err}");
    }

    #[test]
    fn labels_become_metric_ids() {
        assert_eq!(ident("SHA-1"), "sha_1");
        assert_eq!(ident("prefix64 x16"), "prefix64_x16");
        assert_eq!(ident("crash+stall/generous"), "crash_stall_generous");
    }
}
