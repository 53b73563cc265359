//! `compare`: medians and quartiles of two sets of result files, flagged
//! against the bounds in `BENCHMARK.json`.
//!
//! A pair of medians that differs in the worse direction by more than the
//! metric's bound is a regression. A metric whose spread (inter-quartile
//! distance over median) exceeds its bound on either side is unresolved:
//! the runs do not repeat well enough to tell. Results taken at another
//! SIMD tier or core count are refused, not compared.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::stats::{quartiles, spread};

/// One result file, reduced to what `compare` reads.
struct ResultFile {
    workload: String,
    host: (u64, String),
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |name: &str| v.field(name).map_err(|e| format!("{}: {e}", path.display()));
    let metrics = field("metrics")?
        .as_object()
        .ok_or_else(|| format!("{}: metrics is not an object", path.display()))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.field("value").ok()?.as_f64()?)))
        .collect();
    Ok(ResultFile {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        host: (
            field("nproc")?.as_u64().unwrap_or(0),
            field("simd")?.as_str().unwrap_or_default().to_string(),
        ),
        metrics,
    })
}

/// `name → (better, bound)` for every end-to-end metric of the spec;
/// per-layer metrics carry no bound.
fn bounds(spec: &Path) -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let list = v.field("end_to_end").map_err(|e| e.to_string())?;
    Ok(list
        .as_array()
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.field("name").ok()?.as_str()?.to_string();
            let better = m.field("better").ok()?.as_str()?.to_string();
            Some((name, (better, m.field("bound").ok()?.as_f64()?)))
        })
        .collect())
}

const USAGE: &str = "usage: rbc-benchmark compare BASE.json... -- NEW.json...";

pub fn main(args: &[String]) -> ExitCode {
    let spec = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side = &mut base;
    for arg in args {
        match arg.as_str() {
            "--" => side = &mut new,
            path => side.push(PathBuf::from(path)),
        }
    }
    match compare(spec, &base, &new) {
        Ok(regressed) => ExitCode::from(u8::from(regressed)),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; `Ok(true)` when some metric regressed.
fn compare(spec: &Path, base: &[PathBuf], new: &[PathBuf]) -> Result<bool, String> {
    let bounds = bounds(spec)?;
    let load_all = |paths: &[PathBuf]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (base, new) = (load_all(base)?, load_all(new)?);
    let Some(host) = base.first().map(|r| r.host.clone()) else {
        return Err(format!("no base results\n{USAGE}"));
    };
    if let Some(other) = base.iter().chain(&new).find(|r| r.host != host) {
        return Err(format!(
            "refusing to compare results from different hosts: nproc {} simd {} vs nproc {} simd {}",
            host.0, host.1, other.host.0, other.host.1
        ));
    }

    let mut regressed = false;
    println!(
        "{:<15} {:<32} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    let workloads: std::collections::BTreeSet<&str> =
        base.iter().map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        let b: Vec<&ResultFile> = base.iter().filter(|r| r.workload == workload).collect();
        let n: Vec<&ResultFile> = new.iter().filter(|r| r.workload == workload).collect();
        if b.len() < 2 || n.len() < 2 {
            println!(
                "{workload:<15} skipped: needs two results per side, has {} and {}",
                b.len(),
                n.len()
            );
            continue;
        }
        for name in b[0].metrics.keys() {
            let values = |rs: &[&ResultFile]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metrics.get(name).copied()).collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            let (Some(bq), Some(nq)) = (quartiles(&bv), quartiles(&nv)) else { continue };
            let change = if bq[1] != 0.0 { nq[1] / bq[1] - 1.0 } else { 0.0 };
            let verdict = match bounds.get(name) {
                None => "no bound",
                Some((better, bound)) => {
                    let worse = if better == "higher" { -change } else { change };
                    let unsteady = [&bv, &nv].iter().any(|v| spread(v).is_none_or(|s| s > *bound));
                    if unsteady {
                        "unresolved"
                    } else if worse > *bound {
                        regressed = true;
                        "REGRESSED"
                    } else if worse < -*bound {
                        "improved"
                    } else {
                        "within bound"
                    }
                }
            };
            let fmt = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "{workload:<15} {name:<32} {:>30} {:>30} {:>+7.1}%  {verdict}",
                fmt(bq),
                fmt(nq),
                change * 100.0
            );
        }
    }
    Ok(regressed)
}
