//! Soundness of the admission layer's negative credential cache: a
//! correct credential is NEVER rejected from the cache, no matter how
//! many wrong credentials the same client submitted (and replayed)
//! first. The cache may only hold full-depth rejections — outcomes
//! deterministic in `(digest, reference image, max_d)` — and every
//! accept clears the client's entries, so a legitimate device can
//! always recover its session even after its identity was used for a
//! flood. A false lockout here would turn the DoS *defense* into a DoS
//! *vector*.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::core::admission::{AdmissionConfig, AdmissionControl};
use rbc_salted::core::protocol::DigestMsg;
use rbc_salted::hash::DynDigest;
use rbc_salted::prelude::*;
use rbc_salted::telemetry::Registry;

const MAX_D: u32 = 1;

fn build(
    noise: u32,
) -> (AuthService<LightSaber>, Client<ModelPuf>, Arc<AdmissionControl>, Arc<Registry>) {
    let mut rng = StdRng::seed_from_u64(0xADC0);
    let ca_cfg = CaConfig {
        // Small bound: a wrong credential exhausts 257 candidates.
        max_d: MAX_D,
        engine: EngineConfig { threads: 1, ..Default::default() },
        ..Default::default()
    };
    let mut ca = CertificateAuthority::new([0xAD; 32], LightSaber, ca_cfg);
    let mut client = Client::new(7, ModelPuf::noiseless(4096, 0xADC0_5EED));
    client.extra_noise = noise;
    ca.enroll_client(7, client.device(), 0, &mut rng).unwrap();
    let backends: Vec<Arc<dyn SearchBackend>> =
        vec![Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))];
    let dispatcher = Arc::new(Dispatcher::new(
        backends,
        DispatcherConfig { queue_limit: 4, budget: Duration::from_secs(30), ..Default::default() },
    ));
    let registry = Arc::new(Registry::new());
    // Deep bucket and no auto-quarantine: this test isolates the
    // negative cache; the bucket and quarantine have their own tests.
    let admission = Arc::new(AdmissionControl::new(
        AdmissionConfig {
            burst_requests: 64,
            refill_requests_per_sec: 0.0,
            quarantine_after_exhaustions: u64::MAX,
            ..AdmissionConfig::for_bound(MAX_D)
        },
        &registry,
    ));
    let service = AuthService::new(ca, dispatcher).with_admission(admission.clone());
    (service, client, admission, registry)
}

/// A wrong credential for `client`: the honest response with a few
/// bytes flipped, so the exhaustive search can never match it.
fn corrupt(digest: &DynDigest, salt: u8) -> DynDigest {
    let mut bytes = digest.as_bytes().to_vec();
    bytes[0] ^= 0xA5 ^ salt;
    bytes[5] ^= 0x3C;
    DynDigest::from_slice(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn negative_cache_never_rejects_a_correct_credential(
        wrong_rounds in 1usize..4,
        replays in 0usize..3,
        noise in 0u32..2,
        seed in any::<u64>(),
    ) {
        let (service, client, admission, registry) = build(noise);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut expected_hits = 0u64;
        for round in 0..wrong_rounds {
            // A fresh wrong credential: full-depth exhaustion, then the
            // rejection is cached.
            let challenge = service.begin(&client.hello()).unwrap();
            let honest = client.respond(&challenge, &mut rng);
            let bad = corrupt(&honest.digest, round as u8);
            let msg = DigestMsg { digest: bad, ..honest };
            let v = service.complete(&msg).unwrap();
            prop_assert_eq!(v.verdict, Verdict::Rejected);
            prop_assert!(admission.negative_cache_len() > 0, "rejection must be cached");

            // Replays of the same wrong credential are answered from
            // the cache — no search, same verdict.
            for _ in 0..replays {
                let challenge = service.begin(&client.hello()).unwrap();
                let replay = DigestMsg {
                    client_id: client.id,
                    session: challenge.session,
                    digest: bad,
                    trace: challenge.trace,
                };
                let v = service.complete(&replay).unwrap();
                prop_assert_eq!(v.verdict, Verdict::Rejected);
                expected_hits += 1;
            }
        }
        let snap = registry.snapshot();
        prop_assert_eq!(
            snap.counter("rbc_admission_negative_cache_hits_total"),
            Some(expected_hits)
        );

        // The property: the correct credential is accepted — the cache
        // holds only genuinely-wrong digests, never this one.
        let challenge = service.begin(&client.hello()).unwrap();
        let honest = client.respond(&challenge, &mut rng);
        let v = service.complete(&honest).unwrap();
        prop_assert!(
            matches!(v.verdict, Verdict::Accepted { .. }),
            "correct credential locked out after {} wrong rounds x {} replays: {:?}",
            wrong_rounds, replays, v.verdict
        );
        // And the accept cleared the client's cached rejections.
        prop_assert_eq!(admission.negative_cache_len(), 0);

        // Still true after another wrong attempt: recovery is repeatable.
        let challenge = service.begin(&client.hello()).unwrap();
        let honest = client.respond(&challenge, &mut rng);
        let msg = DigestMsg { digest: corrupt(&honest.digest, 0xEE), ..honest };
        prop_assert_eq!(service.complete(&msg).unwrap().verdict, Verdict::Rejected);
        let challenge = service.begin(&client.hello()).unwrap();
        let honest = client.respond(&challenge, &mut rng);
        let v = service.complete(&honest).unwrap();
        prop_assert!(matches!(v.verdict, Verdict::Accepted { .. }), "{:?}", v.verdict);
    }
}
