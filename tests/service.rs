//! Umbrella integration tests for the multi-client [`AuthService`]: many
//! simultaneous authentications multiplexed over a heterogeneous
//! [`SearchBackend`] pool, with the dispatcher's deadline budget and load
//! shedding visible to clients as protocol verdicts.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::accel::GpuSimBackend;
use rbc_salted::core::engine::SearchReport;
use rbc_salted::gpu::{GpuHash, GpuKernelConfig};
use rbc_salted::prelude::*;

fn enrolled_service(
    n_clients: u64,
    backends: Vec<Arc<dyn SearchBackend>>,
    cfg: DispatcherConfig,
) -> (AuthService<LightSaber>, Vec<Client<ModelPuf>>) {
    let mut rng = StdRng::seed_from_u64(0x5EC);
    let ca_cfg = CaConfig {
        max_d: 3,
        engine: EngineConfig { threads: 2, ..Default::default() },
        ..Default::default()
    };
    let mut ca = CertificateAuthority::new([3u8; 32], LightSaber, ca_cfg);
    let mut clients = Vec::new();
    for id in 0..n_clients {
        let client = Client::new(id, ModelPuf::sram(4096, 0xD0_0000 + id));
        ca.enroll_client(id, client.device(), 0, &mut rng).unwrap();
        clients.push(client);
    }
    let service = AuthService::new(ca, Arc::new(Dispatcher::new(backends, cfg)));
    (service, clients)
}

/// Runs every client's full hello → challenge → digest → verdict exchange
/// on its own thread and returns the verdicts (in client order).
fn authenticate_all(
    service: &AuthService<LightSaber>,
    clients: &[Client<ModelPuf>],
) -> Vec<Verdict> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
                    let challenge = service.begin(&client.hello()).unwrap();
                    let digest = client.respond(&challenge, &mut rng);
                    service.complete(&digest).unwrap().verdict
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Ten simultaneous clients — two of them noisier than the search bound —
/// against a mixed CPU + GPU-sim pool: every request resolves, verdicts
/// are mixed, the books balance, and no thread deadlocks (the scope would
/// hang forever if one did).
#[test]
fn concurrent_clients_resolve_over_a_heterogeneous_pool() {
    let backends: Vec<Arc<dyn SearchBackend>> = vec![
        Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() })),
        Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() })),
        Arc::new(GpuSimBackend::new(GpuKernelConfig::paper_best(GpuHash::Sha3))),
    ];
    let (service, mut clients) = enrolled_service(10, backends, DispatcherConfig::default());
    clients[4].extra_noise = 6; // beyond max_d = 3 ⇒ rejection
    clients[9].extra_noise = 6;

    let verdicts = authenticate_all(&service, &clients);
    assert_eq!(verdicts.len(), 10);

    let stats = service.stats();
    assert_eq!(stats.accepted + stats.rejected + stats.timed_out + stats.overloaded, 10);
    assert!(stats.rejected >= 2, "both noisy clients must be rejected: {stats:?}");
    assert!(stats.accepted >= 6, "clean clients should mostly pass: {stats:?}");
    assert!(matches!(verdicts[4], Verdict::Rejected), "{:?}", verdicts[4]);
    assert!(matches!(verdicts[9], Verdict::Rejected), "{:?}", verdicts[9]);

    // The dispatcher's ledger agrees with the service's: every completed
    // job landed on some backend, and the CA logged each finished search.
    assert_eq!(stats.dispatch.completed + stats.dispatch.rejected, 10);
    let routed: u64 = stats.dispatch.per_backend.iter().map(|b| b.jobs).sum();
    assert_eq!(routed, stats.dispatch.completed);
    assert_eq!(stats.dispatch.per_backend.len(), 3);
    service.with_ca(|ca| assert_eq!(ca.log().len() as u64, stats.dispatch.completed));
}

/// A deliberately slow backend that honors the dispatcher-assigned
/// deadline the way the real engines do: it reports `TimedOut` whenever
/// its (fixed) search time exceeds what the budget left.
struct SlowBackend {
    delay: Duration,
}

impl SearchBackend for SlowBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor { kind: "cpu", name: "slow".into(), slots: 1 }
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        std::thread::sleep(self.delay);
        let timed_out = job.deadline.is_some_and(|d| self.delay > d);
        SearchReport {
            outcome: if timed_out {
                Outcome::TimedOut { at_distance: 0 }
            } else {
                Outcome::NotFound
            },
            seeds_derived: 0,
            elapsed: self.delay,
            per_distance: Vec::new(),
            algorithm: job.algo.name(),
            threads: 1,
            cost: None,
            extras: Vec::new(),
        }
    }
}

/// Saturation: one slow slot, almost no queue, a 50 ms budget and six
/// simultaneous arrivals. The surplus is shed as [`Verdict::Overloaded`]
/// before searching; whoever does reach the backend blows the deadline
/// and comes back [`Verdict::TimedOut`]. Nobody is accepted, nobody
/// deadlocks, and the counters reconcile.
#[test]
fn saturation_sheds_overloaded_and_deadline_exceeded_times_out() {
    let cfg = DispatcherConfig {
        queue_limit: 1,
        budget: Duration::from_millis(50),
        ..Default::default()
    };
    let backends: Vec<Arc<dyn SearchBackend>> =
        vec![Arc::new(SlowBackend { delay: Duration::from_millis(200) })];
    let (service, clients) = enrolled_service(6, backends, cfg);

    let verdicts = authenticate_all(&service, &clients);
    let stats = service.stats();

    assert_eq!(stats.accepted, 0, "{stats:?}");
    assert!(stats.overloaded >= 1, "surplus arrivals must be shed: {stats:?}");
    assert!(stats.timed_out >= 1, "the dispatched search must time out: {stats:?}");
    assert_eq!(stats.accepted + stats.rejected + stats.timed_out + stats.overloaded, 6);
    assert_eq!(
        verdicts.iter().filter(|v| matches!(v, Verdict::Overloaded { .. })).count() as u64,
        stats.overloaded
    );
    assert_eq!(stats.dispatch.rejected, stats.overloaded);
}

/// Property: the service's books always balance. Whatever mix of clean
/// clients, noisy clients (rejections), corrupted sessions ([`CaError`]s),
/// shed-inducing queue limits and timeout-inducing budgets arrives
/// concurrently, every request issued lands in exactly one outcome
/// counter — and the shared registry's Prometheus ledger agrees with
/// [`ServiceStats`].
mod books_balance {
    use super::*;
    use proptest::prelude::*;

    /// 0 = clean (accept at d = 0), 1 = noisy beyond the bound
    /// (rejected), 2 = corrupted session id (a [`CaError`]).
    ///
    /// With `admission` set, an [`AdmissionControl`] with a one-request
    /// bucket and zero refill fronts the service, and every role-0/1
    /// client authenticates twice: a noisy client's rejection pays the
    /// full exhaustion price, so its second request is refused at
    /// admission — the books must balance with those refusals counted
    /// as sheds.
    fn run_mix(roles: Vec<u8>, queue_limit: usize, tiny_budget: bool, admission: bool) {
        use rbc_salted::core::admission::{AdmissionConfig, AdmissionControl};

        let n = roles.len() as u64;
        let mut rng = StdRng::seed_from_u64(0xB00C);
        let ca_cfg = CaConfig {
            // A small bound keeps rejection searches to 257 candidates.
            max_d: 1,
            engine: EngineConfig { threads: 1, ..Default::default() },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([8u8; 32], LightSaber, ca_cfg);
        let mut clients = Vec::new();
        for (id, role) in roles.iter().enumerate() {
            let mut c = Client::new(id as u64, ModelPuf::noiseless(4096, 0xF1F + id as u64));
            if *role == 1 {
                c.extra_noise = 4; // beyond max_d = 1 ⇒ rejected
            }
            ca.enroll_client(id as u64, c.device(), 0, &mut rng).unwrap();
            clients.push(c);
        }
        let cfg = DispatcherConfig {
            queue_limit,
            budget: if tiny_budget { Duration::from_nanos(1) } else { Duration::from_secs(30) },
            ..Default::default()
        };
        let backends: Vec<Arc<dyn SearchBackend>> =
            vec![Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))];
        let adm_registry = Arc::new(rbc_salted::telemetry::Registry::new());
        let admission_ctl = admission.then(|| {
            Arc::new(AdmissionControl::new(
                AdmissionConfig {
                    burst_requests: 1,
                    refill_requests_per_sec: 0.0,
                    ..AdmissionConfig::for_bound(1)
                },
                &adm_registry,
            ))
        });
        let mut service = AuthService::new(ca, Arc::new(Dispatcher::new(backends, cfg)));
        if let Some(a) = &admission_ctl {
            service = service.with_admission(a.clone());
        }

        std::thread::scope(|s| {
            for (i, client) in clients.iter().enumerate() {
                let service = &service;
                let role = roles[i];
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xAB + i as u64);
                    // Corrupted sessions make one attempt; with the
                    // admission layer up, everyone else makes two (the
                    // second may be refused on an empty bucket).
                    let attempts = if admission && role != 2 { 2 } else { 1 };
                    for _ in 0..attempts {
                        let challenge = service.begin(&client.hello()).unwrap();
                        let mut digest = client.respond(&challenge, &mut rng);
                        if role == 2 {
                            digest.session ^= 0xDEAD_0000; // unknown session ⇒ CaError
                        }
                        let result = service.complete(&digest);
                        assert_eq!(result.is_err(), role == 2, "role {role}: {result:?}");
                    }
                });
            }
        });

        let issued_expected =
            if admission { n + roles.iter().filter(|r| **r != 2).count() as u64 } else { n };
        let stats = service.stats();
        assert_eq!(stats.issued, issued_expected, "{stats:?}");
        assert_eq!(
            stats.accepted + stats.rejected + stats.timed_out + stats.overloaded + stats.errors,
            stats.issued,
            "outcome counters must sum to requests issued: {stats:?}"
        );
        let errors_expected = roles.iter().filter(|r| **r == 2).count() as u64;
        assert_eq!(stats.errors, errors_expected, "{stats:?}");
        // Verdict-bearing outcomes match the dispatcher's completions +
        // sheds, plus whatever the admission layer answered before the
        // dispatcher ever saw it (errored requests never reach either).
        let adm_snap = adm_registry.snapshot();
        let adm = |name: &str| adm_snap.counter(name).unwrap_or(0);
        let admission_answered = adm("rbc_admission_tokens_refused_total")
            + adm("rbc_admission_shed_total")
            + adm("rbc_admission_negative_cache_hits_total");
        assert_eq!(
            stats.accepted + stats.rejected + stats.timed_out + stats.overloaded,
            stats.dispatch.completed + stats.dispatch.rejected + admission_answered,
            "{stats:?}"
        );
        if admission && !tiny_budget && queue_limit >= roles.len() {
            // No dispatcher sheds or timeouts in the way: a noisy
            // client's first attempt is Rejected at the full exhaustion
            // price (non-refundable), so its second attempt must have
            // been refused by the one-request zero-refill bucket.
            let noisy = roles.iter().filter(|r| **r == 1).count() as u64;
            assert!(
                noisy == 0 || adm("rbc_admission_tokens_refused_total") >= noisy,
                "noisy {noisy}: {stats:?}"
            );
        }
        // The shared registry tells the same story.
        let snap = service.registry().snapshot();
        for (name, want) in [
            ("rbc_service_requests_total", stats.issued),
            ("rbc_service_accepted_total", stats.accepted),
            ("rbc_service_rejected_total", stats.rejected),
            ("rbc_service_timeout_total", stats.timed_out),
            ("rbc_service_shed_total", stats.overloaded),
            ("rbc_service_error_total", stats.errors),
        ] {
            assert_eq!(snap.counter(name), Some(want), "{name}: {stats:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn stats_always_sum_to_requests_issued(
            roles in proptest::collection::vec(0u8..3, 1..7),
            queue_limit in 0usize..3,
            tiny_budget in any::<bool>(),
        ) {
            run_mix(roles.clone(), queue_limit, tiny_budget, false);
            // Same mix fronted by the admission layer, generous
            // dispatcher: refusals book as sheds, the sums still hold.
            run_mix(roles, 8, false, true);
        }
    }
}

/// The same client population gets the same verdicts whichever
/// substrate runs its searches — placement changes where a search runs,
/// never its verdict. Serial arrivals find the pool idle, so least-loaded
/// routing puts every search on the backend listed first: the CPU in one
/// run, the GPU simulator in the other.
#[test]
fn placement_never_changes_verdicts() {
    let cpu = || -> Arc<dyn SearchBackend> {
        Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))
    };
    let gpu = || -> Arc<dyn SearchBackend> {
        Arc::new(GpuSimBackend::new(GpuKernelConfig::paper_best(GpuHash::Sha3)))
    };
    let mut all = Vec::new();
    for backends in [vec![cpu(), gpu()], vec![gpu(), cpu()]] {
        let first = backends[0].descriptor().kind;
        let (service, mut clients) = enrolled_service(4, backends, DispatcherConfig::default());
        clients[2].extra_noise = 6;
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let verdicts: Vec<_> = clients
            .iter()
            .map(|client| {
                let challenge = service.begin(&client.hello()).unwrap();
                let digest = client.respond(&challenge, &mut rng);
                service.complete(&digest).unwrap().verdict
            })
            .collect();
        assert!(matches!(verdicts[2], Verdict::Rejected), "{first} first: {verdicts:?}");
        let jobs: Vec<u64> = service.stats().dispatch.per_backend.iter().map(|b| b.jobs).collect();
        assert_eq!(jobs, [4, 0], "every search ran on the {first} backend");
        all.push(verdicts.iter().map(std::mem::discriminant).collect::<Vec<_>>());
    }
    assert_eq!(all[0], all[1], "the two placements disagreed on verdicts");
}
