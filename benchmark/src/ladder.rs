//! The layer ladder: one exhaustive search of the ball of radius `d`
//! measured at every rung from the bare batch kernel up to
//! `AuthService::complete`, so each rung's cost over the kernel rung is
//! the cost that layer adds.
//!
//! Rungs are reported in thread-ns per hash (wall × threads ÷ hashes), so
//! a one-thread kernel and an `nproc`-thread engine compare directly.
//! Each rung is the median of [`REPS`] repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_salted::bits::U256;
use rbc_salted::comb::{exhaustive_seeds, ChaseStream, ChaseTable, MaskStream};
use rbc_salted::core::admission::{AdmissionConfig, AdmissionControl};
use rbc_salted::core::backend::{CpuBackend, SearchBackend, SearchJob};
use rbc_salted::core::ca::{CaConfig, CertificateAuthority};
use rbc_salted::core::dispatch::{Dispatcher, DispatcherConfig};
use rbc_salted::core::engine::{EngineConfig, SearchEngine, SearchMode};
use rbc_salted::core::pool::{SupervisedPool, SupervisedPoolConfig};
use rbc_salted::core::protocol::{Client, DigestMsg, Verdict};
use rbc_salted::core::service::AuthService;
use rbc_salted::core::DynHashDerive;
use rbc_salted::hash::{dispatch, DynDigest, HashAlgo};
use rbc_salted::pqc::LightSaber;
use rbc_salted::puf::ModelPuf;

use crate::metrics::Metric;
use crate::stack::{nproc, CELLS};
use crate::stats::median;

const REPS: usize = 3;
/// Searches timed for the fixed per-submit cost.
const FIXED_REPS: usize = 25;

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let secs: Vec<f64> = (0..reps).map(|_| f().as_secs_f64()).collect();
    Duration::from_secs_f64(median(&secs))
}

fn ns_per_hash(wall: Duration, threads: usize, hashes: u64) -> f64 {
    wall.as_secs_f64() * 1e9 * threads as f64 / hashes as f64
}

/// Every ladder metric, with exhaustive searches to distance `d`.
pub fn ladder(d: u32) -> Vec<Metric> {
    let threads = nproc();
    let u = u64::try_from(exhaustive_seeds(d)).expect("u(d) fits u64");
    let mut out = Vec::new();
    for (tag, algo) in [("sha1", HashAlgo::Sha1), ("sha3", HashAlgo::Sha3_256)] {
        let mut rng = StdRng::seed_from_u64(0x001a_dde7);
        let s_init = U256::random(&mut rng);
        // A digest of an unrelated seed: nothing in the ball matches, so
        // every rung sweeps all u(d) candidates.
        let wrong = algo.digest_seed(&U256::random(&mut rng));
        let job = SearchJob::new(algo, wrong, s_init, d).with_mode(SearchMode::Exhaustive);
        let mut rung = |name: &str, value: f64, unit: &'static str| {
            out.push(Metric::new(format!("ladder.{tag}.{name}"), value, unit, None));
        };

        let seeds: Vec<U256> = (0..1024).map(|_| U256::random(&mut rng)).collect();
        let calls = u.div_ceil(seeds.len() as u64);
        let kernel = median_of(REPS, || {
            let mut prefixes = Vec::with_capacity(seeds.len());
            timed(|| {
                for _ in 0..calls {
                    match algo {
                        HashAlgo::Sha1 => dispatch::sha1_prefix64_batch(&seeds, &mut prefixes),
                        _ => dispatch::sha3_256_prefix64_batch(&seeds, &mut prefixes),
                    }
                    black_box(&prefixes);
                }
            })
        });
        rung("kernel_ns_per_hash", ns_per_hash(kernel, 1, calls * seeds.len() as u64), "ns");

        let exhaustive =
            EngineConfig { threads, mode: SearchMode::Exhaustive, ..Default::default() };
        let engine = SearchEngine::new(DynHashDerive(algo), exhaustive);
        engine.prepare(d);
        let mut hashes = u;
        let wall =
            median_of(REPS, || timed(|| hashes = engine.search(&wrong, &s_init, d).seeds_derived));
        rung("engine_ns_per_hash", ns_per_hash(wall, threads, hashes), "ns");

        let backend = CpuBackend::new(EngineConfig { threads, ..Default::default() });
        let wall = median_of(REPS, || timed(|| hashes = backend.submit(&job).seeds_derived));
        rung("backend_ns_per_hash", ns_per_hash(wall, threads, hashes), "ns");

        let pool = SupervisedPool::new(
            (0..threads)
                .map(|_| {
                    Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
                        as Arc<dyn SearchBackend>
                })
                .collect(),
            SupervisedPoolConfig::default(),
        );
        let wall = median_of(REPS, || timed(|| hashes = pool.submit(&job).seeds_derived));
        rung("pool_ns_per_hash", ns_per_hash(wall, threads, hashes), "ns");

        let wall = median_of(REPS, || service_rejection(algo, d, &wrong));
        rung("service_ns_per_hash", ns_per_hash(wall, threads, u), "ns");

        let one = SearchJob::new(algo, wrong, s_init, 1);
        let fixed = median_of(FIXED_REPS, || timed(|| drop(backend.submit(&one))));
        rung("backend_fixed_us", fixed.as_secs_f64() * 1e6, "us");
    }

    let build = median_of(REPS, || timed(|| drop(black_box(ChaseTable::build(d, threads)))));
    out.push(Metric::new("ladder.chase_build_ms", build.as_secs_f64() * 1e3, "ms", None));

    let mut masks = vec![U256::ZERO; 1024];
    let mut swept = 0u64;
    let wall = median_of(REPS, || {
        let mut stream = MaskStream::Chase(ChaseStream::new_full(d));
        swept = 0;
        timed(|| loop {
            let n = stream.next_batch(&mut masks);
            if n == 0 {
                break;
            }
            swept += n as u64;
            black_box(&masks);
        })
    });
    out.push(Metric::new("ladder.mask_ns", ns_per_hash(wall, 1, swept), "ns", None));
    out
}

/// Wall time of `AuthService::complete` for a wrong credential on a
/// fresh one-client service with admission on.
fn service_rejection(algo: HashAlgo, d: u32, wrong: &DynDigest) -> Duration {
    let threads = nproc();
    let cfg = CaConfig {
        max_d: d,
        algo,
        engine: EngineConfig { threads, ..Default::default() },
        ..Default::default()
    };
    let mut ca = CertificateAuthority::new([0x1a; 32], LightSaber, cfg);
    let client = Client::new(1, ModelPuf::noiseless(CELLS, 0x1add));
    ca.enroll_client(1, client.device(), 0, &mut StdRng::seed_from_u64(1)).expect("enrolls");
    let backend = Arc::new(CpuBackend::new(EngineConfig { threads, ..Default::default() }));
    let dispatcher = Arc::new(Dispatcher::new(vec![backend], DispatcherConfig::default()));
    let admission =
        Arc::new(AdmissionControl::new(AdmissionConfig::for_bound(d), dispatcher.registry()));
    let service = AuthService::new(ca, dispatcher).with_admission(admission);
    let challenge = service.begin(&client.hello()).expect("enrolled client");
    let digest = DigestMsg {
        client_id: 1,
        session: challenge.session,
        digest: *wrong,
        trace: challenge.trace,
    };
    let mut verdict = None;
    let wall = timed(|| verdict = service.complete(&digest).ok());
    assert_eq!(verdict.map(|v| v.verdict), Some(Verdict::Rejected), "a wrong credential");
    wall
}
