//! Overhead smoke checks: each instrumented path must stay within 2% of
//! the same work without the instrumentation.
//!
//! * **telemetry** — the engine's batched counters on an exhaustive
//!   search (O(seeds/batch) atomics);
//! * **resilience** — a fault-free exhaustive d = 3 sweep (≈2.8 M SHA-3
//!   derivations, single thread) through the [`SupervisedPool`] against
//!   the same job submitted straight to the backend: one detached worker
//!   per distance, a checkpoint every 4096 masks and the breaker's
//!   success accounting;
//! * **flight recorder** — an auth service streaming every span and
//!   event into the black-box ring (allocation-free word copies, ~6
//!   spans per authentication) against one tracing into the void;
//! * **observability** — a hot loop bumping a counter and a latency
//!   histogram while a live [`Scraper`] + [`SloEvaluator`] snapshot the
//!   same registry every 100 ms on another thread (on a single-core host
//!   the scrape time-slices straight out of the loop).
//!
//! Every check runs one [`assert_overhead`]: warm both paths, take the
//! minimum of 7 interleaved trials each (the least scheduler-polluted
//! estimate of the true cost), and require the ratio ≤ 1.02.
//! Timing-sensitive, so ignored by default; run them on a quiet machine
//! with
//!
//! ```text
//! cargo test --release -p rbc-bench --test overhead -- --ignored
//! ```
//!
//! The measured margins are recorded in EXPERIMENTS.md.
//!
//! [`Scraper`]: rbc_telemetry::Scraper
//! [`SloEvaluator`]: rbc_telemetry::SloEvaluator
//! [`SupervisedPool`]: rbc_core::SupervisedPool

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_bits::U256;
use rbc_comb::SeedIterKind;
use rbc_core::backend::{CpuBackend, SearchBackend, SearchJob};
use rbc_core::ca::{CaConfig, CertificateAuthority};
use rbc_core::derive::HashDerive;
use rbc_core::dispatch::{Dispatcher, DispatcherConfig};
use rbc_core::engine::{EngineConfig, EngineTelemetry, Outcome, SearchEngine, SearchMode};
use rbc_core::protocol::Client;
use rbc_core::service::AuthService;
use rbc_core::{SupervisedPool, SupervisedPoolConfig};
use rbc_hash::sha1::sha1_fixed32;
use rbc_hash::{HashAlgo, SeedHash, Sha3Fixed};
use rbc_pqc::LightSaber;
use rbc_puf::ModelPuf;
use rbc_telemetry::{
    wall_clock, FlightRecorder, NullRecorder, Recorder, Registry, ScrapeConfig, Scraper,
    SloEvaluator, SloSpec,
};

/// Warms both paths once, takes the minimum of 7 interleaved trials of
/// each, and asserts `instrumented` costs at most 2% more than `plain`.
fn assert_overhead(
    what: &str,
    mut plain: impl FnMut() -> Duration,
    mut instrumented: impl FnMut() -> Duration,
) {
    plain();
    instrumented();
    let (mut best_plain, mut best_instr) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        best_plain = best_plain.min(plain());
        best_instr = best_instr.min(instrumented());
    }
    let ratio = best_instr.as_secs_f64() / best_plain.as_secs_f64();
    println!(
        "{what} overhead: plain {best_plain:?}, instrumented {best_instr:?} ({:+.2}%)",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio <= 1.02,
        "{what}: instrumented path is {:.2}% slower than plain (budget 2%): \
         {best_instr:?} vs {best_plain:?}",
        (ratio - 1.0) * 100.0
    );
}

#[test]
#[ignore = "timing-sensitive; run explicitly on a quiet machine (see module docs)"]
fn telemetry_overhead_is_under_two_percent() {
    let base = U256::from_limbs([6, 2, 8, 3]);
    // Unfindable target: both variants scan the identical full space.
    let client = base.flip_bit(0).flip_bit(1).flip_bit(2);
    let target = Sha3Fixed.digest_seed(&client);
    let cfg = EngineConfig {
        threads: 1,
        mode: SearchMode::Exhaustive,
        iter: SeedIterKind::Gosper,
        ..Default::default()
    };
    let plain = SearchEngine::new(HashDerive(Sha3Fixed), cfg.clone());
    let instrumented = SearchEngine::new(HashDerive(Sha3Fixed), cfg)
        .with_telemetry(EngineTelemetry::register(&Registry::new()));
    let time = |engine: &SearchEngine<HashDerive<Sha3Fixed>>| {
        let start = Instant::now();
        std::hint::black_box(engine.search(&target, &base, 2));
        start.elapsed()
    };
    assert_overhead("telemetry", || time(&plain), || time(&instrumented));
}

#[test]
#[ignore = "timing-sensitive; run explicitly on a quiet machine (see module docs)"]
fn supervised_pool_fault_free_overhead_is_under_two_percent() {
    let base = U256::from_limbs([0xFEED, 0xBEEF, 0xCAFE, 0xD00D]);
    // A target derived from a far-away seed: unreachable within d = 3,
    // so both paths sweep every seed and agree on `NotFound`.
    let absent = U256::from_limbs([!0, !0, !0, !0]);
    let job = SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(&absent), base, 3)
        .with_mode(SearchMode::Exhaustive);
    let direct = CpuBackend::new(EngineConfig { threads: 1, ..Default::default() });
    let pool = SupervisedPool::new(
        vec![Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
            as Arc<dyn SearchBackend>],
        SupervisedPoolConfig { shards_per_distance: 1, ..Default::default() },
    );
    let timed = |backend: &dyn SearchBackend| {
        let start = Instant::now();
        let report = backend.submit(&job);
        let elapsed = start.elapsed();
        assert!(matches!(report.outcome, Outcome::NotFound), "{:?}", report.outcome);
        elapsed
    };
    assert_overhead("resilience", || timed(&direct), || timed(&pool));
}

#[test]
#[ignore = "timing-sensitive; run explicitly on a quiet machine (see module docs)"]
fn flight_recorder_overhead_is_under_two_percent() {
    const AUTHS: u64 = 8;
    // One timed batch: `AUTHS` accepted authentications (each searching
    // to d = 2) through a fresh service wired to `recorder`.
    // Construction and enrollment stay outside the timed region.
    let batch = |recorder: Arc<dyn Recorder>| {
        let mut rng = StdRng::seed_from_u64(0xF11);
        let ca_cfg = CaConfig {
            max_d: 3,
            engine: EngineConfig { threads: 1, ..Default::default() },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([5u8; 32], LightSaber, ca_cfg);
        let mut clients = Vec::new();
        for id in 0..AUTHS {
            let mut c = Client::new(id, ModelPuf::noiseless(4096, 0xA0 + id));
            c.extra_noise = 2;
            ca.enroll_client(id, c.device(), 0, &mut rng).expect("enroll");
            clients.push(c);
        }
        let backend: Arc<dyn SearchBackend> =
            Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }));
        let dispatcher = Arc::new(Dispatcher::new(vec![backend], DispatcherConfig::default()));
        let svc = AuthService::with_recorder(ca, dispatcher, recorder);

        let start = Instant::now();
        for (i, client) in clients.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xB0 + i as u64);
            let challenge = svc.begin(&client.hello()).expect("enrolled");
            let digest = client.respond(&challenge, &mut rng);
            std::hint::black_box(svc.complete(&digest).expect("session open"));
        }
        start.elapsed()
    };
    assert_overhead(
        "flight-recorder",
        || batch(Arc::new(NullRecorder)),
        || batch(Arc::new(FlightRecorder::new(4096))),
    );
}

const ITEMS: u64 = 1_000_000;

/// The observability hot loop: hash a seed, time it into the
/// histogram, count the request. Returns the elapsed wall time and a
/// digest fold so the work cannot be optimized away.
fn instrumented_sweep(registry: &Registry) -> (Duration, u64) {
    let requests = registry.counter("rbc_service_requests_total");
    let shed = registry.counter("rbc_service_shed_total");
    let latency = registry.histogram("rbc_service_auth_total_ns");
    let start = Instant::now();
    let mut acc = 0u64;
    let mut seed = U256::from_limbs([0xFEED, 0xBEEF, 0xCAFE, 0xD00D]);
    for i in 0..ITEMS {
        let item = Instant::now();
        let digest = sha1_fixed32(&seed);
        let mut limbs = seed.limbs();
        limbs[0] ^= u64::from_le_bytes(digest[..8].try_into().unwrap());
        seed = U256::from_limbs(limbs);
        acc ^= limbs[0].rotate_left((i % 61) as u32);
        latency.record(item.elapsed().as_nanos() as u64);
        requests.inc();
        if i % 1024 == 0 {
            shed.inc();
        }
    }
    (start.elapsed(), acc)
}

/// Runs the sweep with a live scraper + SLO evaluator ticking every
/// 100 ms on another thread against the same registry.
fn scraped_sweep(registry: &Arc<Registry>) -> (Duration, u64) {
    let window = |s: SloSpec| s.windows(Duration::from_millis(100), Duration::from_secs(1));
    let slos = vec![
        window(SloSpec::availability(
            "availability",
            "rbc_service_requests_total",
            vec!["rbc_service_shed_total".to_string()],
            0.99,
        )),
        window(SloSpec::latency(
            "latency",
            "rbc_service_auth_total_ns",
            Duration::from_millis(400),
        )),
    ];
    let stop = Arc::new(AtomicBool::new(false));
    let mut scraper = Scraper::new(
        Arc::clone(registry),
        wall_clock(),
        ScrapeConfig { interval: Duration::from_millis(100), ..Default::default() },
    );
    let mut evaluator = SloEvaluator::new(slos);
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let epoch = Instant::now();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                scraper.tick();
                if let Some(snap) = scraper.latest_snapshot() {
                    evaluator.observe(epoch.elapsed().as_nanos() as u64, snap, None);
                }
            }
            scraper.ticks()
        })
    };
    let out = instrumented_sweep(registry);
    stop.store(true, Ordering::Release);
    let ticks = handle.join().expect("scrape thread");
    assert!(ticks > 0, "the scraper must actually have run during the sweep");
    out
}

#[test]
#[ignore = "timing-sensitive; run explicitly on a quiet machine (see module docs)"]
fn scraper_and_slo_overhead_is_under_two_percent() {
    let plain_registry = Registry::new();
    let scraped_registry = Arc::new(Registry::new());
    let (_, d0) = instrumented_sweep(&plain_registry);
    let (_, d1) = scraped_sweep(&scraped_registry);
    assert_eq!(d0, d1, "both paths must do identical hash work");

    assert_overhead(
        "observability",
        || instrumented_sweep(&plain_registry).0,
        || scraped_sweep(&scraped_registry).0,
    );

    // Sanity: a scrape actually saw the load-bearing series.
    let snap = scraped_registry.snapshot();
    assert!(snap.counter("rbc_service_requests_total").unwrap_or(0) >= ITEMS);
}
