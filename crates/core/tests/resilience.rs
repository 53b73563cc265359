//! Recovery of the wall-clock supervised pool under deterministic fault
//! plans. One test body drives a fixed batch of planted authentications
//! through a four-backend pool wrapped by a [`FaultPlan`]; each plan is
//! one test:
//!
//! * fault-free — every authentication returns the correct verdict and
//!   nothing is injected;
//! * the default plan — backend 1 crashes mid-sweep at 50% shard
//!   progress and stays down;
//! * crash + stall — the same crash, and backend 2 also freezes 400 ms
//!   on every shard.
//!
//! Under a faulted plan at least 95% of the authentications must still
//! return the correct verdict within the T = 20 s protocol threshold,
//! recovered through checkpointed shard re-dispatch.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbc_bits::U256;
use rbc_core::backend::{CpuBackend, SearchBackend, SearchJob};
use rbc_core::engine::{EngineConfig, Outcome};
use rbc_core::{Fault, FaultPlan, SupervisedPool, SupervisedPoolConfig};
use rbc_hash::HashAlgo;

const AUTHS: u64 = 20;
const BUDGET: Duration = Duration::from_secs(20);

/// What one plan's batch came to, read back from the pool's
/// `rbc_resilience_*` counters.
struct Recovery {
    /// Fraction of authentications that returned the correct verdict.
    rate: f64,
    faults: u64,
    redispatches: u64,
}

fn recovery(plan: &FaultPlan) -> Recovery {
    let raw: Vec<Arc<dyn SearchBackend>> = (0..4)
        .map(|_| {
            Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
                as Arc<dyn SearchBackend>
        })
        .collect();
    let pool = SupervisedPool::new(
        plan.apply(raw, None),
        SupervisedPoolConfig {
            stall_timeout: Duration::from_millis(150),
            // Small enough that the 50%-progress crash trigger fires
            // inside every distance-2 shard (≈8160 masks across 4 shards).
            checkpoint_interval: 512,
            ..Default::default()
        },
    );

    let mut correct = 0u64;
    for i in 0..AUTHS {
        // Deterministic per-auth base/client pair, keyed off the plan's
        // seed so a failure replays bit-for-bit.
        let mut rng = StdRng::seed_from_u64(plan.seed ^ (0xA001 + i));
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let job =
            SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(&client), base, 3)
                .with_deadline(BUDGET);
        let report = pool.submit(&job);
        assert!(report.elapsed <= BUDGET, "auth {i} blew the deadline: {:?}", report.elapsed);
        if let Outcome::Found { seed, .. } = report.outcome {
            if HashAlgo::Sha3_256.digest_seed(&seed) == job.target {
                correct += 1;
            }
        }
    }

    let snap = pool.registry().snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0);
    Recovery {
        rate: correct as f64 / AUTHS as f64,
        faults: counter("rbc_resilience_faults_total"),
        redispatches: counter("rbc_resilience_redispatches_total"),
    }
}

/// A faulted plan must inject, recover through re-dispatch, and keep at
/// least 95% of the verdicts correct.
fn assert_recovers(plan: &FaultPlan) {
    let r = recovery(plan);
    assert!(r.faults > 0, "the plan never injected — the scenario tested nothing");
    assert!(r.redispatches > 0, "faults were injected but no shard was ever re-dispatched");
    assert!(r.rate >= 0.95, "only {:.0}% of auths returned the correct verdict", r.rate * 100.0);
}

#[test]
fn fault_free_plan_recovers_every_auth_with_no_faults() {
    let r = recovery(&FaultPlan::fault_free());
    assert_eq!(r.faults, 0);
    assert_eq!(r.rate, 1.0, "a clean pool must return every verdict correctly");
}

#[test]
fn pool_recovers_95_percent_of_auths_through_the_default_crash_plan() {
    assert_recovers(&FaultPlan::default_single_crash());
}

#[test]
fn pool_recovers_95_percent_of_auths_through_a_crash_and_a_stall() {
    assert_recovers(&FaultPlan {
        seed: 0xD00D,
        faults: vec![(1, Fault::Crash { at_progress: 0.5 }), (2, Fault::Stall { ms: 400 })],
    });
}
