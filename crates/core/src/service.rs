//! The multi-client authentication service.
//!
//! [`crate::ca::CertificateAuthority`] is a sequential state machine: one
//! `&mut self` call per protocol step. That is faithful to the paper's
//! single-authentication measurements, but the ROADMAP's service question
//! — what happens when many clients authenticate at once against a pool
//! of heterogeneous search hardware — needs the search (seconds) off the
//! CA's critical section (microseconds). [`AuthService`] does exactly
//! that split:
//!
//! 1. lock the CA, validate the digest and build the [`SearchJob`]
//!    ([`CertificateAuthority::prepare`]), unlock;
//! 2. run the job through the [`Dispatcher`] — queueing, routing and
//!    deadline accounting happen there, concurrently across clients;
//! 3. lock the CA again for the verdict bookkeeping
//!    ([`CertificateAuthority::finish`]), or map a shed request to
//!    [`Verdict::Overloaded`].
//!
//! ## Observability
//!
//! The service is the root of the pipeline's span taxonomy. Every
//! authentication emits `hello`, `prepare`, `queue_wait`, `search`,
//! `finish` and `auth_total` spans through a pluggable
//! [`Recorder`] (see [`AuthService::with_recorder`]), each mirrored
//! into an `rbc_service_<phase>_ns` histogram of the registry shared
//! with the dispatcher (`rbc_dispatch_*`) and the CA (`rbc_ca_*`), so
//! one [`Registry`] snapshot gives the full per-phase latency breakdown.
//!
//! Outcomes are counted exhaustively: every call to
//! [`AuthService::complete`] lands in exactly one of
//! accepted / rejected / timed-out / overloaded / error, so
//! [`ServiceStats`] totals always sum to the requests issued — shed and
//! errored requests can never silently vanish from the books.
//!
//! Spans are stitched into one tree per authentication: the client mints
//! a [`rbc_telemetry::TraceContext`] at hello and every protocol message
//! echoes it, so `hello` and `auth_total` are children of the wire
//! context and the inner phases (`prepare`, `queue_wait`, `search`,
//! `finish`) are children of `auth_total`. Anomalies (shed requests,
//! deadline breaches) additionally emit [`rbc_telemetry::EventRecord`]s
//! carrying the same trace id, which is what arms the
//! [`rbc_telemetry::FlightRecorder`]'s freeze.

use std::sync::Arc;

use parking_lot::Mutex;
use rbc_pqc::PqcKeyGen;
use rbc_telemetry::{
    Attribution, CostReceipt, Counter, EventKind, NullRecorder, ReceiptVerdict, Recorder, Registry,
    Tracer,
};

use crate::admission::{AdmissionControl, AdmissionDecision};
use crate::ca::{CaError, CaTelemetry, CertificateAuthority};
use crate::dispatch::{DispatchOutcome, DispatchStats, Dispatcher};
use crate::protocol::{ChallengeMsg, DigestMsg, HelloMsg, Verdict, VerdictMsg};

#[allow(unused_imports)] // doc links
use crate::backend::SearchJob;

/// Verdict counts plus the dispatcher's queue/latency statistics.
///
/// Invariant: `issued == accepted + rejected + timed_out + overloaded +
/// errors` — every request is accounted for exactly once.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Authentication requests issued (calls to
    /// [`AuthService::complete`]).
    pub issued: u64,
    /// Authentications accepted.
    pub accepted: u64,
    /// Authentications rejected (no seed within the bound).
    pub rejected: u64,
    /// Authentications that timed out mid-search.
    pub timed_out: u64,
    /// Requests shed by the dispatcher before completing a search.
    pub overloaded: u64,
    /// Requests that failed CA validation ([`CaError`]: unknown client
    /// or session) before reaching the dispatcher.
    pub errors: u64,
    /// Queue depth, p50/p95/p99 latency and per-backend utilization.
    pub dispatch: DispatchStats,
}

/// The service's `rbc_service_*` outcome counters.
struct ServiceMetrics {
    issued: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    timed_out: Arc<Counter>,
    overloaded: Arc<Counter>,
    errors: Arc<Counter>,
    hello_errors: Arc<Counter>,
}

impl ServiceMetrics {
    fn register(registry: &Registry) -> Self {
        ServiceMetrics {
            issued: registry.counter("rbc_service_requests_total"),
            accepted: registry.counter("rbc_service_accepted_total"),
            rejected: registry.counter("rbc_service_rejected_total"),
            timed_out: registry.counter("rbc_service_timeout_total"),
            overloaded: registry.counter("rbc_service_shed_total"),
            errors: registry.counter("rbc_service_error_total"),
            hello_errors: registry.counter("rbc_service_hello_error_total"),
        }
    }
}

/// A concurrency-safe CA front end multiplexing authentications over a
/// [`Dispatcher`].
pub struct AuthService<P: PqcKeyGen> {
    ca: Mutex<CertificateAuthority<P>>,
    dispatcher: Arc<Dispatcher>,
    metrics: ServiceMetrics,
    tracer: Tracer,
    attribution: Option<Arc<Attribution>>,
    admission: Option<Arc<AdmissionControl>>,
}

impl<P: PqcKeyGen> AuthService<P> {
    /// Wraps a CA (enrollments done) and a dispatcher pool. Spans are
    /// discarded; metrics land in the dispatcher's registry.
    pub fn new(ca: CertificateAuthority<P>, dispatcher: Arc<Dispatcher>) -> Self {
        Self::with_recorder(ca, dispatcher, Arc::new(NullRecorder))
    }

    /// Like [`AuthService::new`], but delivers every pipeline span to
    /// `recorder` as well as the shared histograms.
    ///
    /// The service always instruments into the *dispatcher's* registry
    /// (joining its `rbc_dispatch_*` metrics and wiring the CA's
    /// `rbc_ca_*` keygen timing), so `service.registry()` is the single
    /// snapshot point for the whole auth pipeline.
    pub fn with_recorder(
        mut ca: CertificateAuthority<P>,
        dispatcher: Arc<Dispatcher>,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let registry = dispatcher.registry().clone();
        // One timeline for the whole pipeline: span durations and the
        // CA's keygen timing read the dispatcher's clock, so a
        // virtual-time dispatcher gets virtual-time telemetry.
        let clock = dispatcher.clock().clone();
        ca.set_telemetry(CaTelemetry::register(&registry));
        ca.set_clock(clock.clone());
        let metrics = ServiceMetrics::register(&registry);
        let tracer = Tracer::with_clock(recorder, clock).with_registry(registry, "rbc_service");
        AuthService {
            ca: Mutex::new(ca),
            dispatcher,
            metrics,
            tracer,
            attribution: None,
            admission: None,
        }
    }

    /// Routes a [`CostReceipt`] for every completed authentication into
    /// `attribution` — per-client heavy-hitter sketches, per-`d`
    /// verdict-split histograms and per-backend calibration all feed
    /// from these receipts. Without this, receipts are still minted but
    /// dropped.
    pub fn with_attribution(mut self, attribution: Arc<Attribution>) -> Self {
        self.attribution = Some(attribution);
        self
    }

    /// Puts `admission` in front of every [`AuthService::complete`]:
    /// requests are checked against the negative credential cache, the
    /// per-client token bucket and the brownout level *after* CA
    /// validation but *before* any search is dispatched, and every
    /// verdict settles its [`CostReceipt`] back into the layer. See
    /// [`crate::admission`] for the architecture.
    pub fn with_admission(mut self, admission: Arc<AdmissionControl>) -> Self {
        self.admission = Some(admission);
        self
    }

    /// The admission layer, if one is wired.
    pub fn admission(&self) -> Option<&Arc<AdmissionControl>> {
        self.admission.as_ref()
    }

    /// The registry holding the whole pipeline's metrics
    /// (`rbc_service_*`, `rbc_dispatch_*`, `rbc_ca_*`, and whatever the
    /// backends registered).
    pub fn registry(&self) -> &Arc<Registry> {
        self.dispatcher.registry()
    }

    /// Protocol step 1–2: opens a session, returns the challenge.
    pub fn begin(&self, hello: &HelloMsg) -> Result<ChallengeMsg, CaError> {
        let span = self.tracer.child_span(hello.trace, "hello");
        let result = self.ca.lock().begin(hello);
        span.finish();
        if result.is_err() {
            self.metrics.hello_errors.inc();
        }
        result
    }

    /// Protocol steps 5–9 under load: validates the digest, dispatches
    /// the search, finishes the verdict. Callable from many client
    /// threads concurrently; only the validation and verdict bookkeeping
    /// hold the CA lock.
    pub fn complete(&self, msg: &DigestMsg) -> Result<VerdictMsg, CaError> {
        self.metrics.issued.inc();
        // `auth_total` hangs off the wire context (sibling of `hello`);
        // the inner phases hang off `auth_total`.
        let total = self.tracer.child_span(msg.trace, "auth_total");
        let phase_ctx = total.context();
        let prepare = self.tracer.child_span(phase_ctx, "prepare");
        let mut pending = match self.ca.lock().prepare(msg) {
            Ok(pending) => pending,
            Err(e) => {
                prepare.finish();
                total.finish();
                // CaErrors are an explicit outcome: without this the
                // books would not balance against requests issued.
                self.metrics.errors.inc();
                return Err(e);
            }
        };
        prepare.finish();

        // The admission gate sits between validation and dispatch: the
        // session is already consumed (a refused request cannot be
        // replayed), but no search budget has been spent yet.
        let uncapped_d = pending.job.max_d;
        if let Some(admission) = &self.admission {
            let decision =
                admission.admit(pending.client_id(), &msg.digest, self.dispatcher.queue_depth());
            match decision {
                AdmissionDecision::Admit { max_d } => {
                    // Brownout depth cap: cheapen the search without
                    // refusing it. Rejections below the full ball never
                    // enter the negative cache (see record_outcome).
                    pending.job.max_d = pending.job.max_d.min(max_d);
                }
                AdmissionDecision::RejectCached => {
                    // A known full-depth rejection: same digest, same
                    // image, same bound ⇒ same outcome, no search run.
                    let verdict = VerdictMsg {
                        session: pending.session(),
                        verdict: Verdict::Rejected,
                        trace: pending.trace(),
                    };
                    self.metrics.rejected.inc();
                    let mut bill = self.blank_bill(&pending, msg);
                    bill.verdict = ReceiptVerdict::Rejected;
                    admission.settle(&bill);
                    if let Some(attribution) = &self.attribution {
                        attribution.observe(&bill);
                    }
                    total.finish();
                    return Ok(verdict);
                }
                AdmissionDecision::Refuse { retry_after_ms } => {
                    let verdict = self.ca.lock().shed(&pending, retry_after_ms);
                    self.metrics.overloaded.inc();
                    self.tracer.event(
                        EventKind::Shed,
                        msg.trace.trace_id,
                        "admission refused the request",
                    );
                    // No settle: a refused request was never debited, so
                    // there is nothing to refund (settling the blank bill
                    // would mint tokens for the refused client).
                    let mut bill = self.blank_bill(&pending, msg);
                    bill.verdict = ReceiptVerdict::Overloaded;
                    if let Some(attribution) = &self.attribution {
                        attribution.observe(&bill);
                    }
                    total.finish();
                    return Ok(verdict);
                }
            }
        }

        let mut bill = CostReceipt {
            client_id: pending.client_id(),
            trace_id: msg.trace.trace_id,
            difficulty: pending.job.max_d,
            verdict: ReceiptVerdict::Overloaded,
            hashes: 0,
            batches: 0,
            prefix_hits: 0,
            prefix_false_positives: 0,
            queue_wait_ns: 0,
            busy_ns: 0,
            occupancy_permille: 0,
            backend: None,
            backend_kind: "none",
            kernel: rbc_hash::dispatch::active_level().name(),
        };
        let verdict = match self.dispatcher.submit(&pending.job) {
            DispatchOutcome::Completed {
                backend,
                queue_wait,
                busy,
                occupancy_permille,
                report,
            } => {
                // Queue wait and search were clocked by the dispatcher
                // and the backend; inject them retroactively so the
                // span stream and the phase histograms stay complete
                // without a second measurement. The queue wait ended
                // when the search began, `report.elapsed` ago — without
                // that back-dating its reconstructed start would land
                // *after* the search's whenever the search dominates.
                self.tracer.record_in_ended(phase_ctx, "queue_wait", queue_wait, report.elapsed);
                self.tracer.record_in(phase_ctx, "search", report.elapsed);
                // A search whose every prefix prescreen hit turned out
                // to be a false positive paid full derivations for
                // nothing — worth flagging on the trace.
                let cost = report.cost.unwrap_or_default();
                if cost.prefix_hits > 0 && cost.prefix_hits == cost.prefix_false_positives {
                    self.tracer.event(
                        EventKind::PrefixExhausted,
                        msg.trace.trace_id,
                        "every prefix prescreen hit was a false positive",
                    );
                }
                // The receipt bills what the search actually consumed,
                // pulled from the report before the CA consumes it.
                bill.hashes = report.seeds_derived;
                bill.batches = cost.batches;
                bill.prefix_hits = cost.prefix_hits;
                bill.prefix_false_positives = cost.prefix_false_positives;
                bill.queue_wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
                bill.busy_ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
                bill.occupancy_permille = occupancy_permille;
                bill.backend = Some(backend);
                bill.backend_kind = self.dispatcher.backend_kind(backend);
                let finish = self.tracer.child_span(phase_ctx, "finish");
                let verdict = self.ca.lock().finish(&pending, report);
                finish.finish();
                verdict
            }
            DispatchOutcome::Overloaded { queue_wait } => {
                bill.queue_wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
                self.tracer.record_in(phase_ctx, "queue_wait", queue_wait);
                // A dispatcher shed still carries a backoff hint when an
                // admission layer is wired; 0 keeps the legacy
                // retry-at-will behavior otherwise.
                let hint = self.admission.as_ref().map_or(0, |a| a.config().retry_after_ms);
                self.ca.lock().shed(&pending, hint)
            }
        };
        // Anomaly events fire *before* the auth_total span closes: a
        // freezing recorder pins the trace on the event and still admits
        // this trace's later records, so the dumped chain is complete.
        match verdict.verdict {
            Verdict::Accepted { distance, .. } => {
                // An accepted search stopped at its found distance; bill
                // the difficulty class it actually ran in, not the bound.
                bill.difficulty = distance;
                bill.verdict = ReceiptVerdict::Accepted;
                self.metrics.accepted.inc();
            }
            Verdict::Rejected => {
                bill.verdict = ReceiptVerdict::Rejected;
                self.metrics.rejected.inc();
            }
            Verdict::TimedOut => {
                bill.verdict = ReceiptVerdict::TimedOut;
                self.metrics.timed_out.inc();
                self.tracer.event(
                    EventKind::DeadlineBreach,
                    msg.trace.trace_id,
                    "search exceeded the protocol threshold",
                );
            }
            Verdict::Overloaded { .. } => {
                bill.verdict = ReceiptVerdict::Overloaded;
                self.metrics.overloaded.inc();
                self.tracer.event(
                    EventKind::Shed,
                    msg.trace.trace_id,
                    "dispatcher shed the request",
                );
            }
        }
        if let Some(admission) = &self.admission {
            // Feed the verdict back into the enforcement layer: accepted
            // clients recover their unspent tokens and clear their cache
            // entries; a rejection that swept the *full configured* ball
            // (never a brownout-capped one) becomes a cache entry.
            let accepted = matches!(verdict.verdict, Verdict::Accepted { .. });
            let full_depth_rejection =
                verdict.verdict == Verdict::Rejected && pending.job.max_d == uncapped_d;
            admission.record_outcome(
                pending.client_id(),
                &msg.digest,
                accepted,
                full_depth_rejection,
            );
            admission.settle(&bill);
        }
        if let Some(attribution) = &self.attribution {
            attribution.observe(&bill);
        }
        total.finish();
        Ok(verdict)
    }

    /// A receipt for a request the admission layer answered without
    /// dispatching: zero hashes, zero queue wait, no backend.
    fn blank_bill(&self, pending: &crate::ca::PendingAuth, msg: &DigestMsg) -> CostReceipt {
        CostReceipt {
            client_id: pending.client_id(),
            trace_id: msg.trace.trace_id,
            difficulty: pending.job.max_d,
            verdict: ReceiptVerdict::Overloaded,
            hashes: 0,
            batches: 0,
            prefix_hits: 0,
            prefix_false_positives: 0,
            queue_wait_ns: 0,
            busy_ns: 0,
            occupancy_permille: 0,
            backend: None,
            backend_kind: "none",
            kernel: rbc_hash::dispatch::active_level().name(),
        }
    }

    /// The dispatcher routing this service's searches.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Runs `f` against the CA (enrollment, log inspection) while the
    /// service owns it.
    pub fn with_ca<R>(&self, f: impl FnOnce(&mut CertificateAuthority<P>) -> R) -> R {
        f(&mut self.ca.lock())
    }

    /// Verdict counts + dispatcher statistics since construction.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            issued: self.metrics.issued.get(),
            accepted: self.metrics.accepted.get(),
            rejected: self.metrics.rejected.get(),
            timed_out: self.metrics.timed_out.get(),
            overloaded: self.metrics.overloaded.get(),
            errors: self.metrics.errors.get(),
            dispatch: self.dispatcher.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, SearchBackend};
    use crate::ca::CaConfig;
    use crate::dispatch::DispatcherConfig;
    use crate::engine::EngineConfig;
    use crate::protocol::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbc_pqc::LightSaber;
    use rbc_puf::ModelPuf;
    use rbc_telemetry::CollectingRecorder;
    use std::time::Duration;

    fn service_under_test(
        clients: u64,
        pool: usize,
        cfg: DispatcherConfig,
    ) -> (AuthService<LightSaber>, Vec<Client<ModelPuf>>) {
        let mut rng = StdRng::seed_from_u64(42);
        let ca_cfg = CaConfig {
            max_d: 3,
            engine: EngineConfig { threads: 2, ..Default::default() },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([9u8; 32], LightSaber, ca_cfg);
        let mut devices = Vec::new();
        for id in 0..clients {
            let client = Client::new(id, ModelPuf::sram(4096, 1000 + id));
            ca.enroll_client(id, client.device(), 0, &mut rng).unwrap();
            devices.push(client);
        }
        let backends: Vec<Arc<dyn SearchBackend>> = (0..pool)
            .map(|_| {
                Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))
                    as Arc<dyn SearchBackend>
            })
            .collect();
        let service = AuthService::new(ca, Arc::new(Dispatcher::new(backends, cfg)));
        (service, devices)
    }

    #[test]
    fn serves_concurrent_clients_and_counts_verdicts() {
        let (service, mut clients) = service_under_test(8, 2, DispatcherConfig::default());
        // Client 7 carries noise beyond max_d: its verdict must be a
        // rejection, mixed in with the others' acceptances.
        clients[7].extra_noise = 6;
        std::thread::scope(|s| {
            let service = &service;
            for (i, client) in clients.iter().enumerate() {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(5000 + i as u64);
                    let challenge = service.begin(&client.hello()).unwrap();
                    let digest = client.respond(&challenge, &mut rng);
                    service.complete(&digest).unwrap()
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.issued, 8, "{stats:?}");
        assert_eq!(
            stats.accepted + stats.rejected + stats.timed_out + stats.overloaded + stats.errors,
            8,
            "{stats:?}"
        );
        assert!(stats.rejected >= 1, "the noisy client must be rejected: {stats:?}");
        assert!(stats.accepted >= 5, "clean clients should mostly pass: {stats:?}");
        assert_eq!(stats.dispatch.completed + stats.dispatch.rejected, 8);
        service.with_ca(|ca| assert_eq!(ca.log().len() as u64, stats.dispatch.completed));
    }

    #[test]
    fn every_verdict_carries_a_cost_receipt() {
        let (service, mut clients) = service_under_test(2, 1, DispatcherConfig::default());
        // Client 1 is an attacker: noise beyond max_d forces the full
        // C(256,0..=3) exhaustion before the rejection.
        clients[1].extra_noise = 6;
        let attribution = Arc::new(Attribution::new(service.registry().clone(), 4));
        let service = service.with_attribution(attribution.clone());

        for (i, client) in clients.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(7000 + i as u64);
            let challenge = service.begin(&client.hello()).unwrap();
            let digest = client.respond(&challenge, &mut rng);
            service.complete(&digest).unwrap();
        }

        let snap = service.registry().snapshot();
        assert_eq!(snap.counter(rbc_telemetry::attrib::RECEIPTS_TOTAL), Some(2));
        // The attacker's exhausted search dwarfs the honest accept, so
        // it owns the top of the hashes-consumed ranking and is the
        // only entry in the exhaustion ranking.
        let top = attribution.top_hashes(2);
        assert_eq!(top[0].key, "1", "{top:?}");
        assert!(top[0].count > top[1].count * 100, "{top:?}");
        let exhausted = attribution.top_exhausted(4);
        assert_eq!(exhausted.len(), 1, "{exhausted:?}");
        assert_eq!(exhausted[0].key, "1");
        // Receipts carry enough to calibrate the backend that ran them.
        let cal = attribution.calibration();
        assert_eq!(cal.len(), 1, "{cal:?}");
        assert_eq!(cal[0].kind, "cpu");
        assert!(cal[0].rate() > 0.0, "{cal:?}");
    }

    #[test]
    fn overload_maps_to_the_overloaded_verdict() {
        let cfg = DispatcherConfig {
            queue_limit: 0, // any wait is a shed
            budget: Duration::from_millis(50),
            ..Default::default()
        };
        let (service, clients) = service_under_test(4, 1, cfg);
        let verdicts = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(i, client)| {
                    let service = &service;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(9000 + i as u64);
                        let challenge = service.begin(&client.hello()).unwrap();
                        let digest = client.respond(&challenge, &mut rng);
                        service.complete(&digest).unwrap().verdict
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        let stats = service.stats();
        let shed = verdicts.iter().filter(|v| matches!(v, Verdict::Overloaded { .. })).count();
        assert_eq!(stats.overloaded as usize, shed);
        // With one slot, zero queueing allowed and four simultaneous
        // arrivals, at least one request must have been shed — and at
        // least one must still complete.
        assert!(stats.overloaded >= 1, "{stats:?}");
        assert!(stats.accepted + stats.rejected + stats.timed_out >= 1, "{stats:?}");
        // Shed requests appear in both the service's and the shared
        // registry's ledger.
        let snap = service.registry().snapshot();
        assert_eq!(snap.counter("rbc_service_shed_total"), Some(stats.overloaded));
        assert_eq!(snap.counter("rbc_service_requests_total"), Some(4));
    }

    #[test]
    fn sequential_reuse_keeps_sessions_independent() {
        let (service, clients) = service_under_test(2, 1, DispatcherConfig::default());
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..2 {
            for client in &clients {
                let challenge = service.begin(&client.hello()).unwrap();
                let digest = client.respond(&challenge, &mut rng);
                let verdict = service.complete(&digest).unwrap();
                assert!(
                    matches!(verdict.verdict, Verdict::Accepted { .. } | Verdict::Rejected),
                    "round {round}: {verdict:?}"
                );
            }
        }
        assert_eq!(service.stats().dispatch.completed, 4);
    }

    #[test]
    fn ca_errors_are_counted_not_lost() {
        let (service, clients) = service_under_test(1, 1, DispatcherConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        // A digest for a session that was never opened.
        let challenge = service.begin(&clients[0].hello()).unwrap();
        let mut digest = clients[0].respond(&challenge, &mut rng);
        digest.session += 999;
        assert!(service.complete(&digest).is_err());
        let stats = service.stats();
        assert_eq!(stats.issued, 1, "{stats:?}");
        assert_eq!(stats.errors, 1, "{stats:?}");
        assert_eq!(
            stats.accepted + stats.rejected + stats.timed_out + stats.overloaded + stats.errors,
            stats.issued
        );
        // An unknown client at hello time is counted separately.
        let bogus = HelloMsg { client_id: 404, trace: rbc_telemetry::TraceContext::mint() };
        assert!(service.begin(&bogus).is_err());
        let snap = service.registry().snapshot();
        assert_eq!(snap.counter("rbc_service_hello_error_total"), Some(1));
    }

    #[test]
    fn spans_cover_the_full_auth_flow() {
        let mut rng = StdRng::seed_from_u64(21);
        let ca_cfg = CaConfig {
            max_d: 3,
            engine: EngineConfig { threads: 2, ..Default::default() },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([9u8; 32], LightSaber, ca_cfg);
        // Noiseless device: the verdict is deterministically an
        // acceptance, so the keygen phase is guaranteed to run.
        let client = Client::new(0, ModelPuf::noiseless(4096, 123));
        ca.enroll_client(0, client.device(), 0, &mut rng).unwrap();
        let dispatcher = Arc::new(Dispatcher::new(
            vec![Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))
                as Arc<dyn SearchBackend>],
            DispatcherConfig::default(),
        ));
        let recorder = Arc::new(CollectingRecorder::new());
        let service = AuthService::with_recorder(ca, dispatcher, recorder.clone());

        let hello = client.hello();
        let challenge = service.begin(&hello).unwrap();
        let digest = client.respond(&challenge, &mut rng);
        let verdict = service.complete(&digest).unwrap();
        assert_eq!(verdict.trace, hello.trace, "verdict closes the loop on the minted trace");

        let spans = recorder.take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        for phase in ["hello", "prepare", "queue_wait", "search", "finish", "auth_total"] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        // All spans stitch into one tree rooted at the wire context.
        for s in &spans {
            assert_eq!(s.trace_id, hello.trace.trace_id, "span {} off-trace", s.name);
        }
        let span_id = |name: &str| spans.iter().find(|s| s.name == name).unwrap().span_id;
        let parent = |name: &str| spans.iter().find(|s| s.name == name).unwrap().parent_span;
        assert_eq!(parent("hello"), 0, "hello hangs off the wire root");
        assert_eq!(parent("auth_total"), 0, "auth_total hangs off the wire root");
        for phase in ["prepare", "queue_wait", "search", "finish"] {
            assert_eq!(parent(phase), span_id("auth_total"), "{phase} nests under auth_total");
        }
        // The same phases exist as histograms in the shared registry,
        // and the CA contributed its keygen timing.
        let snap = service.registry().snapshot();
        for metric in
            ["rbc_service_prepare_ns", "rbc_service_search_ns", "rbc_service_auth_total_ns"]
        {
            assert_eq!(snap.histogram(metric).map(|h| h.count), Some(1), "{metric}");
        }
        assert_eq!(snap.counter("rbc_ca_keygen_total"), Some(1));
        assert_eq!(snap.histogram("rbc_ca_keygen_ns").map(|h| h.count), Some(1));
    }
}
