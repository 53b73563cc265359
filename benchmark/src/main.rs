//! End-to-end and per-layer benchmark of the RBC-SALTED authentication
//! stack. See `README.md` for the workloads, the metrics and how to read
//! them.
//!
//! ```text
//! rbc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! rbc-benchmark compare BASE.json... -- NEW.json...
//! ```
//!
//! `run` prints every metric with its unit and sample count, writes one
//! result file per workload and mode, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when a
//! verdict was wrong or the service's books disagree with the
//! benchmark's tally.

mod compare;
mod drive;
mod ladder;
mod metrics;
mod spans;
mod stack;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rbc_salted::core::service::ServiceStats;
use rbc_salted::hash::dispatch;
use serde_json::Value;

use drive::{closed_loop, open_loop, warm_up, Answer, Driven, Judgement, Sample};
use metrics::{
    end_to_end, layers, scored_latencies, trace_overhead, unbounded, Metric, Tally, Traced,
};
use spans::{stitch, SpanStore};
use stack::{nproc, Stack, MAX_D};
use stats::{sorted, supported_tail, Tail};
use workload::{Schedule, Workload};

/// Measured seconds per run unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 3.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Generator threads (and connections): at most two, at most `nproc`.
fn workers() -> usize {
    nproc().min(2)
}

const USAGE: &str = "usage:
  rbc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
  rbc-benchmark compare BASE.json... -- NEW.json...
workloads: light_sha3 hard_sha3 flood_sha1 hard_sha1_pool";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut seconds = None;
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    o.trace = v == "1";
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.seconds = seconds.unwrap_or(if o.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    Ok(o)
}

/// The result of one workload in one mode.
struct RunResult {
    workload: Workload,
    traced: bool,
    schedule_digest: u64,
    tally: Tally,
    books: Vec<String>,
    correct: bool,
    /// The bounded metrics (`BENCHMARK.json`), printed in the last line.
    metrics: Vec<Metric>,
    /// Printed and kept in the result file, but not bounded.
    reported: Vec<Metric>,
    /// The highest latency percentile the sample supports.
    tail: Option<Tail>,
    /// Length of the measured window.
    window_s: f64,
    /// Every set-up time the run took, in seconds.
    setups_s: Vec<f64>,
}

fn run(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc {} · simd {} · kernels {}",
        nproc(),
        dispatch::active_level().name(),
        kernel_plan().join(" ")
    );
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let modes: &[bool] = if opts.smoke {
        &[false, true]
    } else if opts.trace {
        &[true]
    } else {
        &[false]
    };
    let mut results = Vec::new();
    for &w in &opts.workloads {
        for &traced in modes {
            let r = if traced { traced_run(w, &opts) } else { untraced_run(w, &opts) };
            report(&r, &opts);
            results.push(r);
        }
    }

    let correct = results.iter().all(|r| r.correct);
    let mut tally = Tally::default();
    results.iter().for_each(|r| tally.add(r.tally));
    let metrics: Vec<Metric> = match results.as_slice() {
        [one] => one.metrics.clone(),
        many => many
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(|m| Metric {
                    name: format!("{}.{}", r.workload.name(), m.name),
                    ..m.clone()
                })
            })
            .collect(),
    };
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(tally.sent)),
        ("failed".into(), Value::UInt(tally.failed + tally.wrong)),
        ("metrics".into(), metrics_json(&metrics, false)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn kernel_plan() -> Vec<String> {
    dispatch::kernel_plan()
        .iter()
        .map(|k| format!("{}x{}/{}", k.algo, k.width, k.kernel.name()))
        .collect()
}

/// Builds the stack `times` times, timing enrollment + construction + one
/// warm-up request per connection, and keeps the last one. Returns it
/// with the set-up times and every warm-up sample; the last stack's are
/// at the end.
fn setup(
    w: Workload,
    seed: u64,
    times: usize,
    traced: bool,
) -> (Stack, Option<Arc<SpanStore>>, Vec<f64>, Vec<Sample>) {
    let (mut secs, mut warm) = (Vec::new(), Vec::new());
    let mut last: Option<(Stack, Option<Arc<SpanStore>>)> = None;
    for _ in 0..times {
        if let Some((old, _)) = last.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let spans = traced.then(|| Arc::new(SpanStore::new(start)));
        let mut stack = Stack::build(w, seed, workers(), start, spans.clone());
        warm.extend(warm_up(&mut stack, seed, w.population()));
        secs.push(start.elapsed().as_secs_f64());
        if let Some(store) = &spans {
            store.take();
        }
        stack.meter.clear();
        last = Some((stack, spans));
    }
    let (stack, spans) = last.expect("at least one set-up");
    (stack, spans, secs, warm)
}

fn drive(
    w: Workload,
    stack: &mut Stack,
    sched: &Schedule,
    seconds: f64,
    spans: Option<&SpanStore>,
) -> Driven {
    match sched {
        Schedule::Open(reqs) => open_loop(stack, reqs, w.lead_in(), spans),
        Schedule::Closed(lanes) => closed_loop(stack, lanes, seconds, spans),
    }
}

/// Checks the service's own ledger against the benchmark's tally of the
/// answers it received from this stack; returns the disagreements.
fn books(stats: &ServiceStats, answers: &[Sample]) -> Vec<String> {
    let mine = |a: Answer| answers.iter().filter(|s| s.answer == a).count() as u64;
    let mut errors = Vec::new();
    let sum = stats.accepted + stats.rejected + stats.timed_out + stats.overloaded + stats.errors;
    if stats.issued != sum {
        errors.push(format!("service issued {} but its outcomes sum to {sum}", stats.issued));
    }
    for (what, theirs, ours) in [
        ("accepted", stats.accepted, mine(Answer::Accepted)),
        ("rejected", stats.rejected, mine(Answer::Rejected)),
        ("timed_out", stats.timed_out, mine(Answer::TimedOut)),
        ("overloaded", stats.overloaded, mine(Answer::Overloaded)),
        ("errors/lost", stats.errors, mine(Answer::Lost)),
    ] {
        if theirs != ours {
            errors.push(format!("service counts {theirs} {what}, benchmark received {ours}"));
        }
    }
    errors
}

/// Runs the measured window on a set-up stack and settles its books.
fn measure(
    w: Workload,
    seed: u64,
    sched: &Schedule,
    seconds: f64,
    setups: usize,
    traced: bool,
) -> Measured {
    let (mut stack, spans, setup_s, warm) = setup(w, seed, setups, traced);
    let before = stack.registry.snapshot();
    let driven = drive(w, &mut stack, sched, seconds, spans.as_deref());
    let counters = stack.registry.snapshot().diff(&before);
    let last_warm = &warm[warm.len() - workers()..];
    let answers: Vec<Sample> = last_warm.iter().chain(&driven.samples).copied().collect();
    let books = books(&stack.service.stats(), &answers);
    let setup_ok = warm.iter().all(|s| s.judgement == Judgement::Correct);
    let mut spans = spans.map(|s| s.take()).unwrap_or_default();
    stitch(&mut spans);
    let (searches, shards) = (stack.meter.searches(), stack.meter.shards());
    let slots = stack.slots;
    stack.shutdown();
    Measured { driven, setup_s, books, setup_ok, counters, spans, searches, shards, slots }
}

struct Measured {
    driven: Driven,
    setup_s: Vec<f64>,
    books: Vec<String>,
    setup_ok: bool,
    /// Registry change over the run.
    counters: rbc_salted::telemetry::Snapshot,
    spans: Vec<spans::Span>,
    searches: Vec<stack::Call>,
    shards: Vec<stack::Call>,
    slots: usize,
}

impl Measured {
    fn correct(&self) -> bool {
        self.setup_ok && self.books.is_empty() && Tally::of(&self.driven.samples).wrong == 0
    }
}

fn untraced_run(w: Workload, o: &Opts) -> RunResult {
    let sched = w.schedule(o.seed, o.seconds, workers());
    let m = measure(w, o.seed, &sched, o.seconds, SETUPS, false);
    RunResult {
        workload: w,
        traced: false,
        schedule_digest: sched.digest(),
        tally: Tally::of(&m.driven.samples),
        correct: m.correct(),
        metrics: end_to_end(&m.driven, &m.setup_s, &m.searches),
        reported: unbounded(&m.driven, &m.counters),
        tail: supported_tail(&sorted(scored_latencies(&m.driven.samples))),
        window_s: m.driven.window.as_secs_f64(),
        setups_s: m.setup_s,
        books: m.books,
    }
}

/// A ladder prelude, then the schedule for half the run twice on fresh
/// stacks: untraced (the reference for `trace.overhead_pct`), then traced.
fn traced_run(w: Workload, o: &Opts) -> RunResult {
    let mut metrics = ladder::ladder(if o.smoke { 2 } else { MAX_D });
    let half = o.seconds / 2.0;
    let sched = w.schedule(o.seed, half, workers());
    let base = measure(w, o.seed, &sched, half, 1, false);
    let m = measure(w, o.seed, &sched, half, 1, true);
    metrics.splice(
        0..0,
        layers(&Traced {
            driven: &m.driven,
            spans: &m.spans,
            searches: &m.searches,
            shards: &m.shards,
            counters: &m.counters,
            slots: m.slots,
        }),
    );
    metrics.push(trace_overhead(&base.driven, &m.driven));
    let path = o.out.join(format!("trace_{}.json", w.name()));
    if let Err(e) =
        std::fs::write(&path, serde_json::to_string(&spans::to_json(&m.spans)).expect("JSON"))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    let mut tally = Tally::of(&base.driven.samples);
    tally.add(Tally::of(&m.driven.samples));
    RunResult {
        workload: w,
        traced: true,
        schedule_digest: sched.digest(),
        tally,
        correct: base.correct() && m.correct(),
        books: base.books.into_iter().chain(m.books).collect(),
        metrics,
        reported: Vec::new(),
        tail: None,
        window_s: m.driven.window.as_secs_f64(),
        setups_s: base.setup_s.into_iter().chain(m.setup_s).collect(),
    }
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                // A failed request makes a percentile infinite; JSON has no
                // infinity, so it reads as the largest finite number.
                let value = if m.value.is_finite() { m.value } else { f64::MAX };
                let mut fields = vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ];
                if let (true, Some(n)) = (with_n, m.n) {
                    fields.push(("n".into(), Value::UInt(n as u64)));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect(),
    )
}

/// Prints one result and writes its result file.
fn report(r: &RunResult, o: &Opts) {
    let mode = if r.traced { "traced" } else { "untraced" };
    println!(
        "== {} · {mode} · seed {} · {} s · schedule {:#018x}",
        r.workload.name(),
        o.seed,
        o.seconds,
        r.schedule_digest
    );
    let t = r.tally;
    println!(
        "   requests: sent {}  succeeded {}  failed {}  wrong {}",
        t.sent, t.correct, t.failed, t.wrong
    );
    for e in &r.books {
        println!("   BOOKS: {e}");
    }
    for (m, note) in
        r.metrics.iter().map(|m| (m, "")).chain(r.reported.iter().map(|m| (m, " unbounded")))
    {
        let n = m.n.map_or(String::new(), |n| format!("(N={n})"));
        println!("   {:<34} {:>14.4} {:<8} {n}{note}", m.name, m.value, m.unit);
    }
    if let Some(t) = r.tail {
        println!(
            "   supported tail: p{} = {:.4} ms (N={}, at least ten samples beyond)",
            t.p, t.value, t.n
        );
    }

    let file = Value::Object(vec![
        ("workload".into(), Value::Str(r.workload.name().into())),
        ("traced".into(), Value::Bool(r.traced)),
        ("seed".into(), Value::UInt(o.seed)),
        ("seconds".into(), Value::Float(o.seconds)),
        ("lead_in_s".into(), Value::Float(r.workload.lead_in().as_secs_f64())),
        ("window_s".into(), Value::Float(r.window_s)),
        ("setups_s".into(), Value::Array(r.setups_s.iter().map(|&s| Value::Float(s)).collect())),
        ("smoke".into(), Value::Bool(o.smoke)),
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("simd".into(), Value::Str(dispatch::active_level().name().into())),
        ("kernel_plan".into(), Value::Array(kernel_plan().into_iter().map(Value::Str).collect())),
        ("schedule_digest".into(), Value::UInt(r.schedule_digest)),
        ("correct".into(), Value::Bool(r.correct)),
        ("sent".into(), Value::UInt(t.sent)),
        ("succeeded".into(), Value::UInt(t.correct)),
        ("failed".into(), Value::UInt(t.failed)),
        ("wrong".into(), Value::UInt(t.wrong)),
        ("books".into(), Value::Array(r.books.iter().cloned().map(Value::Str).collect())),
        ("metrics".into(), metrics_json(&[&r.metrics[..], &r.reported[..]].concat(), true)),
    ]);
    let path = o.out.join(format!("{}-{mode}-seed{}.json", r.workload.name(), o.seed));
    if let Err(e) = std::fs::write(&path, serde_json::to_string(&file).expect("JSON")) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
