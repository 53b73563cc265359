//! Load generation and the verdict oracle.
//!
//! Open loop: generator threads take requests in due order and start each
//! at its due time or, if every thread was busy, as soon as one frees;
//! latency runs from the due time, so a request that waited for a free
//! thread pays that wait. Closed loop: each client sends its next request
//! when the previous verdict arrives; latency runs from the send.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::core::protocol::{ChallengeMsg, Client, DigestMsg, Verdict, VerdictMsg};
use rbc_salted::net::RpcClient;
use rbc_salted::puf::ModelPuf;
use rbc_salted::telemetry::TraceContext;

use crate::spans::{traced, Span, SpanStore};
use crate::stack::{budget, Stack, CELLS};
use crate::workload::{device_seed, Request, Role};

/// How a verdict compares with the planted truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// The one correct answer: `Accepted { distance: k }` for an honest
    /// client; `Rejected` or `Overloaded` for an attacker.
    Correct,
    /// No usable answer: shed, timed out, CA error, lost on the wire, or
    /// later than the budget.
    Failed,
    /// A wrong verdict: an honest client rejected or accepted at the
    /// wrong distance, or an attacker accepted.
    Wrong,
}

/// Judges one answer; `None` means no verdict arrived.
pub fn judge(role: Role, verdict: Option<&Verdict>) -> Judgement {
    use Judgement::*;
    match (role, verdict) {
        (_, None) => Failed,
        (Role::Honest { k }, Some(Verdict::Accepted { distance, .. })) if *distance == k => Correct,
        (Role::Honest { .. }, Some(Verdict::Accepted { .. } | Verdict::Rejected)) => Wrong,
        (Role::Attacker, Some(Verdict::Rejected | Verdict::Overloaded { .. })) => Correct,
        (Role::Attacker, Some(Verdict::Accepted { .. })) => Wrong,
        (_, Some(Verdict::TimedOut | Verdict::Overloaded { .. })) => Failed,
    }
}

/// The verdict class the service's books count an answer under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Accepted,
    Rejected,
    TimedOut,
    Overloaded,
    /// No verdict reached the client.
    Lost,
}

impl Answer {
    fn of(verdict: Option<&Verdict>) -> Answer {
        match verdict {
            Some(Verdict::Accepted { .. }) => Answer::Accepted,
            Some(Verdict::Rejected) => Answer::Rejected,
            Some(Verdict::TimedOut) => Answer::TimedOut,
            Some(Verdict::Overloaded { .. }) => Answer::Overloaded,
            None => Answer::Lost,
        }
    }
}

/// One request's result.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub trace: u64,
    pub role: Role,
    /// Whether the latency enters the distribution (see
    /// [`Request::scored`]).
    pub scored: bool,
    pub answer: Answer,
    pub judgement: Judgement,
    /// Latency in ms; `+∞` unless the judgement is `Correct`.
    pub latency_ms: f64,
    /// When the verdict arrived, from the start of the run.
    pub done: Duration,
}

/// Everything one run of a schedule produced.
pub struct Driven {
    pub samples: Vec<Sample>,
    /// How late a free generator thread started a due request, in µs.
    pub late_us: Vec<f64>,
    /// The measured window: from its start to the last scored verdict.
    pub window: Duration,
    /// From the start of the run (lead-in included) to the last verdict.
    pub elapsed: Duration,
}

fn sample(
    req: &Request,
    trace: u64,
    verdict: Option<Verdict>,
    latency: Duration,
    done: Duration,
) -> Sample {
    let mut judgement = judge(req.role, verdict.as_ref());
    if judgement == Judgement::Correct && latency > budget() {
        judgement = Judgement::Failed;
    }
    let latency_ms =
        if judgement == Judgement::Correct { latency.as_secs_f64() * 1e3 } else { f64::INFINITY };
    let answer = Answer::of(verdict.as_ref());
    Sample { trace, role: req.role, scored: req.scored, answer, judgement, latency_ms, done }
}

/// The client endpoint for `req`, built before its clock starts.
pub fn client_for(req: &Request) -> Client<ModelPuf> {
    let mut client = Client::new(req.client, ModelPuf::noiseless(CELLS, req.device_seed));
    if let Role::Honest { k } = req.role {
        client.extra_noise = k;
    }
    client
}

/// One authentication over `rpc`: hello → challenge → digest → verdict.
/// Spans hang under `root`; `None` means no verdict arrived.
pub fn authenticate(
    rpc: &mut RpcClient,
    client: &Client<ModelPuf>,
    req: &Request,
    trace: u64,
    spans: Option<&SpanStore>,
    root: u64,
) -> Option<Verdict> {
    let mut hello = traced(spans, "client.hello", trace, root, |_| client.hello());
    rpc.set_trace(trace);
    let challenge: ChallengeMsg = traced(spans, "rpc.hello", trace, root, |id| {
        hello.trace = TraceContext { trace_id: trace, parent_span: id };
        rpc.call(&hello)
    })
    .ok()?;
    let mut digest = match req.digest {
        Some(digest) => DigestMsg {
            client_id: req.client,
            session: challenge.session,
            digest,
            trace: challenge.trace,
        },
        None => traced(spans, "client.respond", trace, root, |_| {
            client.respond(&challenge, &mut StdRng::seed_from_u64(req.rng_seed))
        }),
    };
    let verdict: VerdictMsg = traced(spans, "rpc.digest", trace, root, |id| {
        digest.trace.parent_span = id;
        rpc.call(&digest)
    })
    .ok()?;
    Some(verdict.verdict)
}

/// Runs `f` as the root span `request` of `trace`, from `start` (the due
/// time in open loop) to its return.
fn request<R>(
    spans: Option<&SpanStore>,
    trace: u64,
    start: Instant,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(store) = spans else { return f(0) };
    let id = store.new_id();
    let out = f(id);
    let (start_ns, end_ns) = (store.ns(start), store.ns(Instant::now()));
    store.push(Span { name: "request", trace, id, parent: 0, start_ns, end_ns });
    out
}

/// Positions in `reqs` of the honest and of the attackers' requests, each
/// in due order.
fn split(reqs: &[Request]) -> (Vec<usize>, Vec<usize>) {
    (0..reqs.len()).partition(|&i| reqs[i].role != Role::Attacker)
}

/// Open loop over `reqs` (sorted by due time), one generator thread per
/// connection; the measured window opens at `window_start`. Trace ids are
/// schedule positions + 1.
///
/// Every thread takes the next honest request when it is free. The last
/// thread also sends every attacker request, taking whichever of the two
/// is due first. An admitted attack search holds its thread for hundreds
/// of milliseconds; this way it never holds every thread, and honest
/// traffic waits for a thread no more than it would if the attackers had
/// connections of their own, as real ones do.
pub fn open_loop(
    stack: &mut Stack,
    reqs: &[Request],
    window_start: Duration,
    spans: Option<&SpanStore>,
) -> Driven {
    let workers = stack.conns.len();
    let (honest, attack) = split(reqs);
    let next_honest = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread = std::thread::scope(|s| {
        let threads: Vec<_> = (stack.conns.iter_mut().enumerate())
            .map(|(t, rpc)| {
                let own: &[usize] = if t + 1 == workers { &attack } else { &[] };
                let (honest, next_honest) = (&honest, &next_honest);
                s.spawn(move || {
                    let (mut samples, mut late_us) = (Vec::new(), Vec::new());
                    let mut own = own.iter().peekable();
                    loop {
                        let h = next_honest.load(Ordering::Relaxed);
                        let own_first = match (own.peek(), honest.get(h)) {
                            (None, None) => break,
                            (Some(&&a), Some(&s)) => reqs[a].due <= reqs[s].due,
                            (mine, _) => mine.is_some(),
                        };
                        let i = if own_first {
                            *own.next().expect("peeked")
                        } else if next_honest
                            .compare_exchange(h, h + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            honest[h]
                        } else {
                            // Another thread took it first.
                            continue;
                        };
                        let req = &reqs[i];
                        let client = client_for(req);
                        let due = start + req.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                            late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                        }
                        let trace = i as u64 + 1;
                        let verdict = request(spans, trace, due, |root| {
                            authenticate(rpc, &client, req, trace, spans, root)
                        });
                        let done = Instant::now();
                        samples.push(sample(req, trace, verdict, done - due, done - start));
                    }
                    (samples, late_us)
                })
            })
            .collect();
        join_all(threads)
    });
    finish(per_thread, window_start)
}

/// Closed loop: connection `i` runs lane `i` until `seconds` have passed.
/// Trace ids are `(lane << 32) | (position + 1)`.
pub fn closed_loop(
    stack: &mut Stack,
    lanes: &[Vec<Request>],
    seconds: f64,
    spans: Option<&SpanStore>,
) -> Driven {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let per_thread = std::thread::scope(|s| {
        let threads: Vec<_> = (stack.conns.iter_mut().zip(lanes).enumerate())
            .map(|(lane, (rpc, reqs))| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    for (j, req) in reqs.iter().enumerate() {
                        if Instant::now() >= stop {
                            break;
                        }
                        assert!(j + 1 < reqs.len(), "closed-loop lane {lane} ran out of requests");
                        let client = client_for(req);
                        let trace = ((lane as u64) << 32) | (j as u64 + 1);
                        let sent = Instant::now();
                        let verdict = request(spans, trace, sent, |root| {
                            authenticate(rpc, &client, req, trace, spans, root)
                        });
                        let done = Instant::now();
                        samples.push(sample(req, trace, verdict, done - sent, done - start));
                    }
                    (samples, Vec::new())
                })
            })
            .collect();
        join_all(threads)
    });
    finish(per_thread, Duration::ZERO)
}

type ThreadOutput = (Vec<Sample>, Vec<f64>);

fn join_all(threads: Vec<std::thread::ScopedJoinHandle<'_, ThreadOutput>>) -> Vec<ThreadOutput> {
    threads.into_iter().map(|t| t.join().expect("generator thread panicked")).collect()
}

/// Merges the generator threads' samples and lateness readings.
fn finish(per_thread: Vec<ThreadOutput>, window_start: Duration) -> Driven {
    let (mut samples, mut late_us) = (Vec::new(), Vec::new());
    for (s, l) in per_thread {
        samples.extend(s);
        late_us.extend(l);
    }
    samples.sort_by_key(|s| s.trace);
    let last = |scored_only: bool| {
        let done = samples.iter().filter(|s| s.scored || !scored_only).map(|s| s.done);
        done.max().unwrap_or(Duration::ZERO)
    };
    let window = last(true).saturating_sub(window_start);
    Driven { late_us, window, elapsed: last(false), samples }
}

/// One unscored k = 1 request per connection, each on its own client.
pub fn warm_up(stack: &mut Stack, seed: u64, population: u64) -> Vec<Sample> {
    let start = Instant::now();
    let mut out = Vec::new();
    for (i, rpc) in stack.conns.iter_mut().enumerate() {
        let id = i as u64 % population;
        let req = Request {
            due: Duration::ZERO,
            client: id,
            device_seed: device_seed(seed, id),
            role: Role::Honest { k: 1 },
            rng_seed: seed ^ i as u64,
            digest: None,
            scored: false,
        };
        let trace = u64::MAX - i as u64;
        let sent = Instant::now();
        let verdict = authenticate(rpc, &client_for(&req), &req, trace, None, 0);
        out.push(sample(&req, trace, verdict, sent.elapsed(), start.elapsed()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_classifies_every_verdict_for_both_roles() {
        use Judgement::*;
        let honest = Role::Honest { k: 2 };
        let accepted = |distance| Verdict::Accepted { distance, public_key: vec![1] };
        let overloaded = Verdict::Overloaded { retry_after_ms: 250 };
        let cases = [
            (honest, Some(accepted(2)), Correct),
            (honest, Some(accepted(1)), Wrong),
            (honest, Some(Verdict::Rejected), Wrong),
            (honest, Some(Verdict::TimedOut), Failed),
            (honest, Some(overloaded.clone()), Failed),
            (honest, None, Failed),
            (Role::Attacker, Some(accepted(3)), Wrong),
            (Role::Attacker, Some(Verdict::Rejected), Correct),
            (Role::Attacker, Some(overloaded), Correct),
            (Role::Attacker, Some(Verdict::TimedOut), Failed),
            (Role::Attacker, None, Failed),
        ];
        for (role, verdict, want) in cases {
            assert_eq!(judge(role, verdict.as_ref()), want, "{role:?} {verdict:?}");
        }
    }

    #[test]
    fn split_separates_attackers_in_due_order() {
        use crate::workload::{Schedule, Workload};
        let Schedule::Open(flood) = Workload::FloodSha1.schedule(3, 4.0, 2) else {
            panic!("flood is open loop")
        };
        let (honest, attack) = split(&flood);
        assert!(honest.iter().all(|&i| flood[i].role != Role::Attacker));
        assert!(attack.iter().all(|&i| flood[i].role == Role::Attacker));
        assert_eq!(honest.len() + attack.len(), flood.len());
        for list in [&honest, &attack] {
            assert!(list.windows(2).all(|w| flood[w[0]].due <= flood[w[1]].due), "due order");
        }
    }
}
