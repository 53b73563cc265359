//! Deterministic chaos injection for the fault-tolerance layer.
//!
//! [`ChaosBackend`] decorates any [`SearchBackend`] and injects one
//! configured [`Fault`] into its *shard* path — the path the
//! [`crate::pool::SupervisedPool`] drives — while leaving the plain
//! `submit` path untouched. Faults are deterministic functions of the
//! sweep itself (progress thresholds, fixed stalls, report rewrites),
//! so a [`FaultPlan`] with a fixed seed reproduces the same failure
//! sequence run after run; the `repro sim` fault sweep and the
//! resilience integration test rely on that to assert recovery rates
//! rather than merely observe them.
//!
//! Each injection increments [`ChaosBackend::injected`] and, when a
//! [`Tracer`] is attached, emits [`EventKind::FaultInjected`] so the
//! flight recorder can freeze on the first fault of an incident.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rbc_hash::HashAlgo;
use rbc_telemetry::{EventKind, Tracer};

use crate::backend::{BackendDescriptor, SearchBackend, SearchJob};
use crate::clock::{wall_clock, ClockHandle};
use crate::engine::SearchReport;
use crate::shard::{
    Checkpoint, CheckpointSink, ShardControl, ShardOutcome, ShardReport, ShardSpec,
};
use crate::sweep::SearchCost;

/// One injectable failure mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The backend dies once a shard attempt passes this fraction of its
    /// spec (granularity: one checkpoint interval). The first crash
    /// latches: every later shard on this backend fails instantly, like
    /// a host that went down mid-sweep.
    Crash {
        /// Progress fraction in `[0, 1]` at which the crash fires.
        at_progress: f64,
    },
    /// The backend freezes for this long before sweeping — checkpoints
    /// stop flowing, which is exactly what the supervisor's stall
    /// detector keys on.
    Stall {
        /// Freeze duration in milliseconds.
        ms: u64,
    },
    /// The backend completes its sweep but reports a seed that does not
    /// derive to the target (a flipped bit on a real find, a fabricated
    /// find on exhaustion). Caught by the pool's found-seed
    /// re-derivation.
    CorruptReport,
    /// The backend reads the deadline through a skewed clock: the
    /// attempt's budget is scaled by `factor`, so `factor < 1` produces
    /// premature `TimedOut` reports while wall budget remains.
    ClockSkew {
        /// Multiplier applied to the attempt deadline.
        factor: f64,
    },
}

/// A reproducible assignment of faults to pool backends.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for whatever randomness the harness layers on top (planted
    /// jobs, lossy links) — fixing it fixes the whole failure sequence.
    pub seed: u64,
    /// `(backend index, fault)` pairs; backends not listed run clean.
    pub faults: Vec<(usize, Fault)>,
}

impl FaultPlan {
    /// No faults at all — the baseline a faulted plan is compared with.
    pub fn fault_free() -> Self {
        FaultPlan { seed: 0x5EED, faults: Vec::new() }
    }

    /// The issue's reference scenario: in a 4-backend pool, backend 1
    /// crashes halfway through its sweep.
    pub fn default_single_crash() -> Self {
        FaultPlan { seed: 0xC0FFEE, faults: vec![(1, Fault::Crash { at_progress: 0.5 })] }
    }

    /// The fault assigned to backend `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<Fault> {
        self.faults.iter().find(|(i, _)| *i == index).map(|&(_, f)| f)
    }

    /// Wraps each backend that the plan targets in a [`ChaosBackend`];
    /// untargeted backends pass through unchanged.
    pub fn apply(
        &self,
        backends: Vec<Arc<dyn SearchBackend>>,
        tracer: Option<Arc<Tracer>>,
    ) -> Vec<Arc<dyn SearchBackend>> {
        self.apply_with_clock(backends, tracer, wall_clock())
    }

    /// [`apply`](Self::apply) with injected stalls slept on `clock`, so
    /// a simulated fault plan freezes virtual time instead of the test
    /// process.
    pub fn apply_with_clock(
        &self,
        backends: Vec<Arc<dyn SearchBackend>>,
        tracer: Option<Arc<Tracer>>,
        clock: ClockHandle,
    ) -> Vec<Arc<dyn SearchBackend>> {
        backends
            .into_iter()
            .enumerate()
            .map(|(i, b)| match self.fault_for(i) {
                Some(fault) => {
                    let mut chaos = ChaosBackend::wrap(b, fault).with_clock(clock.clone());
                    if let Some(t) = &tracer {
                        chaos = chaos.with_tracer(t.clone());
                    }
                    Arc::new(chaos) as Arc<dyn SearchBackend>
                }
                None => b,
            })
            .collect()
    }
}

/// Intercepts checkpoints and aborts the sweep once it crosses the
/// crash threshold, without forwarding the final resume point — a crash
/// loses its most recent progress, exactly like a real one.
struct CrashSink<'a> {
    inner: &'a dyn CheckpointSink,
    threshold: u64,
    crashed: AtomicBool,
}

impl CheckpointSink for CrashSink<'_> {
    fn checkpoint(&self, cp: Checkpoint) -> ShardControl {
        if cp.swept >= self.threshold {
            self.crashed.store(true, Ordering::Relaxed);
            return ShardControl::Stop;
        }
        self.inner.checkpoint(cp)
    }
}

/// A [`SearchBackend`] decorator that injects one [`Fault`] into the
/// shard path. See the [module docs](self).
pub struct ChaosBackend {
    inner: Arc<dyn SearchBackend>,
    fault: Fault,
    dead: AtomicBool,
    injected: AtomicU64,
    tracer: Option<Arc<Tracer>>,
    clock: ClockHandle,
}

impl ChaosBackend {
    /// Wraps `inner`, injecting `fault` into every shard attempt it
    /// receives (a latched [`Fault::Crash`] fails all attempts after
    /// the first).
    pub fn wrap(inner: Arc<dyn SearchBackend>, fault: Fault) -> Self {
        ChaosBackend {
            inner,
            fault,
            dead: AtomicBool::new(false),
            injected: AtomicU64::new(0),
            tracer: None,
            clock: wall_clock(),
        }
    }

    /// Emits [`EventKind::FaultInjected`] through `tracer` on every
    /// injection.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Sleeps injected [`Fault::Stall`]s on `clock` instead of the wall
    /// clock.
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn note_fault(&self, job: &SearchJob, detail: &'static str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.event(EventKind::FaultInjected, job.trace.trace_id, detail);
        }
    }
}

impl SearchBackend for ChaosBackend {
    fn descriptor(&self) -> BackendDescriptor {
        let inner = self.inner.descriptor();
        BackendDescriptor { kind: "chaos", name: format!("chaos({})", inner.name), ..inner }
    }

    fn supports(&self, algo: HashAlgo) -> bool {
        self.inner.supports(algo)
    }

    /// The plain submit path is passed through untouched: chaos targets
    /// the supervised shard path, where recovery is possible.
    fn submit(&self, job: &SearchJob) -> SearchReport {
        self.inner.submit(job)
    }

    fn run_shard(
        &self,
        job: &SearchJob,
        spec: &ShardSpec,
        checkpoint_interval: u64,
        sink: &dyn CheckpointSink,
    ) -> ShardReport {
        if self.dead.load(Ordering::Relaxed) {
            self.note_fault(job, "crashed backend refused shard");
            return ShardReport {
                outcome: ShardOutcome::Faulted { reason: "backend down" },
                swept: 0,
                elapsed: Duration::ZERO,
                cost: SearchCost::default(),
            };
        }
        match self.fault {
            Fault::Crash { at_progress } => {
                let threshold = ((spec.count as f64) * at_progress.clamp(0.0, 1.0)).max(1.0) as u64;
                let crash = CrashSink { inner: sink, threshold, crashed: AtomicBool::new(false) };
                let r = self.inner.run_shard(job, spec, checkpoint_interval, &crash);
                if crash.crashed.load(Ordering::Relaxed)
                    && matches!(r.outcome, ShardOutcome::Cancelled)
                {
                    self.dead.store(true, Ordering::Relaxed);
                    self.note_fault(job, "injected backend crash mid-shard");
                    return ShardReport {
                        outcome: ShardOutcome::Faulted { reason: "injected crash" },
                        swept: r.swept,
                        elapsed: r.elapsed,
                        cost: r.cost,
                    };
                }
                r
            }
            Fault::Stall { ms } => {
                self.note_fault(job, "injected backend stall");
                self.clock.sleep(Duration::from_millis(ms));
                self.inner.run_shard(job, spec, checkpoint_interval, sink)
            }
            Fault::CorruptReport => {
                let r = self.inner.run_shard(job, spec, checkpoint_interval, sink);
                match r.outcome {
                    ShardOutcome::Found { seed } => {
                        self.note_fault(job, "injected corrupted found-report");
                        ShardReport { outcome: ShardOutcome::Found { seed: seed.flip_bit(0) }, ..r }
                    }
                    ShardOutcome::Exhausted => {
                        self.note_fault(job, "injected fabricated found-report");
                        ShardReport {
                            outcome: ShardOutcome::Found { seed: job.s_init.flip_bit(255) },
                            ..r
                        }
                    }
                    // Cancelled / timed-out / faulted attempts report
                    // nothing worth corrupting.
                    _ => r,
                }
            }
            Fault::ClockSkew { factor } => match job.deadline {
                Some(deadline) => {
                    let mut skewed = job.clone();
                    skewed.deadline = Some(deadline.mul_f64(factor.max(0.0)));
                    let r = self.inner.run_shard(&skewed, spec, checkpoint_interval, sink);
                    if matches!(r.outcome, ShardOutcome::TimedOut) {
                        self.note_fault(job, "injected clock-skewed deadline");
                    }
                    r
                }
                None => self.inner.run_shard(job, spec, checkpoint_interval, sink),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use crate::engine::{EngineConfig, Outcome};
    use crate::pool::{SupervisedPool, SupervisedPoolConfig};
    use crate::shard::{NullSink, ShardSpec};
    use rbc_bits::U256;
    use rbc_comb::ChaseTable;

    fn cpu() -> Arc<dyn SearchBackend> {
        Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
    }

    fn job_for(client: &U256, base: &U256, max_d: u32) -> SearchJob {
        SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(client), *base, max_d)
    }

    fn pool_cfg() -> SupervisedPoolConfig {
        SupervisedPoolConfig {
            checkpoint_interval: 512,
            stall_timeout: Duration::from_millis(60),
            hedge_after: None,
            ..Default::default()
        }
    }

    /// A d=2 sweep with no match anywhere in range.
    fn absent_job() -> (SearchJob, ShardSpec) {
        let base = U256::from_u64(0xC1);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let table = ChaseTable::build(2, 1);
        (job_for(&client, &base, 2), ShardSpec::plan(&table, 0).remove(0))
    }

    #[test]
    fn crash_fires_near_the_configured_progress_and_latches() {
        let (job, spec) = absent_job();
        let chaos = ChaosBackend::wrap(cpu(), Fault::Crash { at_progress: 0.5 });
        let r = chaos.run_shard(&job, &spec, 512, &NullSink);
        assert!(matches!(r.outcome, ShardOutcome::Faulted { .. }), "got {:?}", r.outcome);
        let frac = r.swept as f64 / spec.count as f64;
        assert!((0.4..0.7).contains(&frac), "crashed at {frac:.2} of the shard");
        assert_eq!(chaos.injected(), 1);
        // The backend stays down for every later attempt.
        let r2 = chaos.run_shard(&job, &spec, 512, &NullSink);
        assert!(matches!(r2.outcome, ShardOutcome::Faulted { .. }));
        assert_eq!(r2.swept, 0);
        assert_eq!(chaos.injected(), 2);
    }

    #[test]
    fn corrupt_report_claims_a_seed_that_does_not_derive() {
        let (job, spec) = absent_job();
        let chaos = ChaosBackend::wrap(cpu(), Fault::CorruptReport);
        let r = chaos.run_shard(&job, &spec, 512, &NullSink);
        match r.outcome {
            ShardOutcome::Found { seed } => {
                assert_ne!(HashAlgo::Sha3_256.digest_seed(&seed), job.target);
            }
            other => panic!("expected a fabricated find, got {other:?}"),
        }
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn clock_skew_times_out_while_budget_remains() {
        let (mut job, spec) = absent_job();
        job.deadline = Some(Duration::from_secs(20));
        let chaos = ChaosBackend::wrap(cpu(), Fault::ClockSkew { factor: 0.0 });
        let r = chaos.run_shard(&job, &spec, 512, &NullSink);
        assert_eq!(r.outcome, ShardOutcome::TimedOut);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn stall_delays_the_sweep_without_corrupting_it() {
        let (job, spec) = absent_job();
        let chaos = ChaosBackend::wrap(cpu(), Fault::Stall { ms: 30 });
        let start = std::time::Instant::now();
        let r = chaos.run_shard(&job, &spec, 512, &NullSink);
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(r.outcome, ShardOutcome::Exhausted);
        assert_eq!(u128::from(r.swept), spec.count);
    }

    #[test]
    fn plan_wraps_only_the_targeted_backends() {
        let plan = FaultPlan::default_single_crash();
        let wrapped = plan.apply(vec![cpu(), cpu(), cpu(), cpu()], None);
        assert_eq!(wrapped[0].descriptor().kind, "cpu");
        assert_eq!(wrapped[1].descriptor().kind, "chaos");
        assert_eq!(wrapped[2].descriptor().kind, "cpu");
        assert_eq!(wrapped[3].descriptor().kind, "cpu");
    }

    #[test]
    fn pool_recovers_the_seed_through_a_mid_sweep_crash() {
        // The issue's reference scenario, in miniature: one of the
        // pool's backends dies halfway through its shard, and the
        // supervisor re-dispatches the remainder within budget.
        let plan = FaultPlan::default_single_crash();
        let backends = plan.apply(vec![cpu(), cpu(), cpu(), cpu()], None);
        let pool = SupervisedPool::new(backends, pool_cfg());
        let base = U256::from_u64(0xC2);
        // Shards are assigned round-robin, so backend 1 sweeps shard 1
        // of the 4-worker d=2 plan. Plant the seed three quarters into
        // that shard: the crash at 50% is guaranteed to hit first, and
        // only a re-dispatched remainder can recover the find.
        let table = ChaseTable::build(2, 4);
        let spec = ShardSpec::plan(&table, 0).remove(1);
        let mut stream = rbc_comb::ChaseStream::from_snapshot(spec.state, spec.count);
        let mut mask = stream.next_mask().unwrap();
        for _ in 0..(3 * spec.count / 4) {
            mask = stream.next_mask().unwrap();
        }
        let client = base ^ mask;
        let mut job = job_for(&client, &base, 2);
        job.deadline = Some(Duration::from_secs(20));
        let report = pool.submit(&job);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        let snap = pool.registry().snapshot();
        assert!(snap.counter("rbc_resilience_redispatches_total").unwrap() >= 1);
        assert!(snap.counter("rbc_resilience_faults_total").unwrap() >= 1);
    }
}
