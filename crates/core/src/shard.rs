//! Checkpointable search shards: resumable slices of one search's seed
//! space, and the one host sweep that runs them.
//!
//! The paper picks Chase's Algorithm 382 precisely because its saved
//! states let parallel workers resume iteration mid-sequence. This module
//! turns that property into a fault-tolerance primitive: a [`ShardSpec`]
//! is a *resume point* — a [`MaskStream`] positioned at the shard's first
//! mask and bounded by its mask count — and the host shard sweep
//! (`run_shard_clocked`, behind [`SearchBackend::run_shard`]) runs it
//! through the crate's batched search loop ([`crate::sweep`]) while
//! publishing fresh resume points through a [`CheckpointSink`]. When a
//! backend crashes or stalls mid-shard, a supervisor (see [`crate::pool`])
//! re-dispatches only the unswept remainder — the masks from the last
//! checkpoint onward — to a healthy backend, instead of losing the whole
//! authentication.
//!
//! The same sweep is every host search's executor: the engine
//! ([`crate::engine`]) cuts each distance into one shard per worker and
//! stops siblings through a sink, so the engine's workers and the pool's
//! attempts share one stop policy.
//!
//! Coverage correctness rests on the streams being plain values: a
//! checkpoint is a copy of the stream after its last swept batch, so
//! resuming from it yields exactly the masks the interrupted sweep had
//! not produced — no gaps, no duplicates, for every [`SeedIterKind`].

use std::time::{Duration, Instant};

use rbc_bits::U256;
use rbc_comb::{plan_streams, MaskStream, SeedIterKind};

use crate::backend::{CpuBackend, SearchBackend, SearchJob};
use crate::clock::ClockHandle;
use crate::derive::Derive;
use crate::engine::{EngineConfig, SearchEngine, SearchMode};
use crate::sweep::{sweep, SearchCost, SweepPolicy};

/// Masks swept between checkpoints when the caller does not override it.
/// At CPU hash rates (~10⁷ seeds/s/thread) this is a checkpoint every few
/// hundred microseconds — frequent enough that a re-dispatch re-sweeps a
/// negligible tail, rare enough that publishing a checkpoint (a copy of
/// the ~100-byte stream plus the sink call) never shows up in profiles.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

/// One resumable slice of a distance-`d` mask enumeration. XORed into a
/// job's `s_init`, the stream's masks are the shard's candidate seeds.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Stable shard identity across re-dispatches (a re-dispatched
    /// remainder keeps the id of the shard it resumes).
    pub shard_id: u64,
    /// The Hamming distance this shard's masks carry.
    pub d: u32,
    /// The shard's masks: positioned at its first mask, with
    /// [`MaskStream::remaining`] the number it owns.
    pub stream: MaskStream,
}

impl ShardSpec {
    /// One shard per worker slice of the distance-`d` space enumerated by
    /// `iter` ([`plan_streams`]), skipping empty slices (more workers than
    /// masks). Ids are `first_id`, `first_id + 1`, ….
    pub fn plan(iter: SeedIterKind, d: u32, workers: usize, first_id: u64) -> Vec<ShardSpec> {
        plan_streams(iter, d, workers)
            .into_iter()
            .filter(|stream| stream.remaining() > 0)
            .zip(first_id..)
            .map(|(stream, shard_id)| ShardSpec { shard_id, d, stream })
            .collect()
    }

    /// The unswept remainder of this shard from checkpoint `cp`.
    pub fn resume(&self, cp: &Checkpoint) -> ShardSpec {
        ShardSpec { shard_id: self.shard_id, d: self.d, stream: cp.stream.clone() }
    }
}

/// A progress checkpoint published mid-sweep: everything a supervisor
/// needs to re-dispatch the unswept remainder of this shard.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The shard being swept.
    pub shard_id: u64,
    /// The shard's Hamming distance.
    pub d: u32,
    /// Resume point: the stream positioned at the first unswept mask,
    /// with [`MaskStream::remaining`] the masks still unswept.
    pub stream: MaskStream,
    /// Masks swept by *this attempt* so far.
    pub swept: u64,
}

/// What a [`CheckpointSink`] tells the executor to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardControl {
    /// Keep sweeping.
    Continue,
    /// Abandon the sweep (a sibling shard found the seed, or this attempt
    /// was superseded by a re-dispatch).
    Stop,
}

/// Receives periodic [`Checkpoint`]s during a shard sweep and steers the
/// executor. Implementations must be cheap: the sink runs inline on the
/// sweeping thread, once per [checkpoint interval] (the engine's sibling
/// stop asks for every batch), not per candidate.
///
/// [checkpoint interval]: DEFAULT_CHECKPOINT_INTERVAL
pub trait CheckpointSink: Sync {
    /// Called every checkpoint interval with a fresh resume point.
    fn checkpoint(&self, cp: Checkpoint) -> ShardControl;
}

/// Discards checkpoints and never stops the sweep — for unsupervised
/// runs and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl CheckpointSink for NullSink {
    fn checkpoint(&self, _cp: Checkpoint) -> ShardControl {
        ShardControl::Continue
    }
}

/// How one shard attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// A candidate in this shard derived to the target. Under
    /// [`SearchMode::Exhaustive`] the sweep went on past it, and a find
    /// outranks a later deadline or stop.
    Found {
        /// The matching seed (`s_init ^ mask`).
        seed: U256,
    },
    /// Every mask of the shard was swept without a match.
    Exhausted,
    /// The attempt's deadline expired mid-sweep.
    TimedOut,
    /// The sink said [`ShardControl::Stop`] before the sweep finished.
    Cancelled,
    /// The backend failed the attempt (injected or real); the remainder
    /// is re-dispatchable from the last checkpoint.
    Faulted {
        /// Short static description of the fault.
        reason: &'static str,
    },
}

/// The result of one shard attempt.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Terminal outcome of the attempt.
    pub outcome: ShardOutcome,
    /// Masks this attempt derived (≤ the spec's stream length).
    pub swept: u64,
    /// Attempt wall-clock time.
    pub elapsed: Duration,
    /// What the attempt consumed. The pool adds every attempt's cost into
    /// its submit-level report so per-request cost receipts survive the
    /// sharded path.
    pub cost: SearchCost,
}

/// Sweeps one shard with `engine`'s derivation, search mode, batch
/// policy, clock and telemetry — the one host sweep behind the engine's
/// workers and every CPU shard attempt. A hit stops the sweep only under
/// [`SearchMode::EarlyExit`]. Every `checkpoint_interval` masks the
/// current resume point goes to `sink`, which may stop the sweep; the
/// attempt gives up once `engine`'s clock reaches `give_up`. The refill
/// width is the engine's policy resolved on the shard's own span, so a
/// near-exhausted resume point sweeps in one small refill.
pub(crate) fn run_shard_clocked<D: Derive>(
    engine: &SearchEngine<D>,
    target: &D::Out,
    s_init: &U256,
    spec: &ShardSpec,
    give_up: Option<Instant>,
    checkpoint_interval: u64,
    sink: &dyn CheckpointSink,
) -> ShardReport {
    let clock = &engine.clock;
    let start = clock.now();
    let mut stop = ShardStop {
        spec,
        early: engine.cfg.mode == SearchMode::EarlyExit,
        sink,
        clock,
        give_up,
        interval: checkpoint_interval.max(1),
        last_checkpoint: 0,
        found: None,
        stopped: ShardOutcome::Exhausted,
    };
    let mut stream = spec.stream.clone();
    let batch = engine.cfg.batch.resolve_for_span(stream.remaining());
    let telemetry = engine.telemetry.as_ref();
    let (swept, cost) =
        sweep(&engine.derive, target, s_init, &mut stream, batch, telemetry, &mut stop);
    let outcome = stop.found.map_or(stop.stopped, |seed| ShardOutcome::Found { seed });
    ShardReport { outcome, swept, elapsed: clock.now().saturating_duration_since(start), cost }
}

/// The host stop policy: a hit under early exit, the deadline, or the
/// sink saying stop at a checkpoint. Under exhaustive search the first
/// hit is kept and the sweep goes on.
struct ShardStop<'a> {
    spec: &'a ShardSpec,
    early: bool,
    sink: &'a dyn CheckpointSink,
    clock: &'a ClockHandle,
    give_up: Option<Instant>,
    interval: u64,
    /// Masks swept when the last checkpoint was published.
    last_checkpoint: u64,
    /// The first seed that derived to the target.
    found: Option<U256>,
    /// How the sweep ended without a find; one that is never stopped
    /// exhausts.
    stopped: ShardOutcome,
}

impl SweepPolicy for ShardStop<'_> {
    fn hit(&mut self, seed: U256) -> bool {
        self.found.get_or_insert(seed);
        self.early
    }

    fn poll(&mut self, stream: &MaskStream, swept: u64) -> bool {
        if self.give_up.is_some_and(|dl| self.clock.now() >= dl) {
            self.stopped = ShardOutcome::TimedOut;
            return true;
        }
        if swept - self.last_checkpoint >= self.interval {
            self.last_checkpoint = swept;
            let cp = Checkpoint {
                shard_id: self.spec.shard_id,
                d: self.spec.d,
                stream: stream.clone(),
                swept,
            };
            if self.sink.checkpoint(cp) == ShardControl::Stop {
                self.stopped = ShardOutcome::Cancelled;
                return true;
            }
        }
        false
    }
}

/// A [`SearchJob`]'s shard on a default [`CpuBackend`]: the wall clock,
/// the default batch policy and the job's mode — the entry point
/// [`crate::backend::SearchBackend`] implementations get by default.
pub fn execute_job_shard(
    job: &SearchJob,
    spec: &ShardSpec,
    checkpoint_interval: u64,
    sink: &dyn CheckpointSink,
) -> ShardReport {
    CpuBackend::new(EngineConfig::default()).run_shard(job, spec, checkpoint_interval, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::derive::DynHashDerive;
    use parking_lot::Mutex;
    use rbc_hash::HashAlgo;
    use std::collections::HashSet;

    fn sha3_job(client: &U256, base: &U256, max_d: u32) -> SearchJob {
        SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(client), *base, max_d)
    }

    /// Collects every checkpoint; optionally stops after `stop_after`.
    struct CollectSink {
        seen: Mutex<Vec<Checkpoint>>,
        stop_after: Option<usize>,
    }

    impl CollectSink {
        fn new(stop_after: Option<usize>) -> Self {
            CollectSink { seen: Mutex::new(Vec::new()), stop_after }
        }
    }

    impl CheckpointSink for CollectSink {
        fn checkpoint(&self, cp: Checkpoint) -> ShardControl {
            let mut seen = self.seen.lock();
            seen.push(cp);
            match self.stop_after {
                Some(n) if seen.len() >= n => ShardControl::Stop,
                _ => ShardControl::Continue,
            }
        }
    }

    #[test]
    fn plan_covers_the_whole_distance_space() {
        for iter in SeedIterKind::ALL {
            let shards = ShardSpec::plan(iter, 2, 4, 10);
            assert_eq!(shards.len(), 4, "{iter}");
            assert_eq!(shards.iter().map(|s| s.stream.remaining()).sum::<u128>(), 32_640);
            assert_eq!(shards[0].shard_id, 10);
            assert!(shards.iter().all(|s| s.d == 2));
            // Every mask of the distance exactly once across the shards.
            let masks: HashSet<U256> = shards.iter().flat_map(|s| s.stream.clone()).collect();
            assert_eq!(masks.len(), 32_640, "{iter}");
            assert!(masks.iter().all(|m| m.count_ones() == 2));
        }
    }

    #[test]
    fn plan_skips_empty_worker_slices() {
        // d = 1 over 300 workers: only 256 masks, so 44 slices are empty.
        for iter in SeedIterKind::ALL {
            let shards = ShardSpec::plan(iter, 1, 300, 0);
            assert_eq!(shards.len(), 256, "{iter}");
            assert!(shards.iter().all(|s| s.stream.remaining() == 1));
        }
    }

    #[test]
    fn finds_the_planted_seed_and_matches_counts() {
        let base = U256::from_u64(0xABCD);
        let client = base.flip_bit(7).flip_bit(200);
        let job = sha3_job(&client, &base, 2);
        let mut found = None;
        let mut swept_total = 0u64;
        for spec in ShardSpec::plan(SeedIterKind::Chase, 2, 3, 0) {
            let r = execute_job_shard(&job, &spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
            swept_total += r.swept;
            if let ShardOutcome::Found { seed } = r.outcome {
                found = Some(seed);
            }
        }
        assert_eq!(found, Some(client));
        // Shards that exhausted swept everything; the finding shard
        // stopped at its hit, so the total is bounded by the space.
        assert!(swept_total <= 32_640);
    }

    #[test]
    fn exhausted_shard_sweeps_exactly_its_count() {
        let base = U256::from_u64(5);
        // Target is far outside the searched space: every shard exhausts.
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let job = sha3_job(&client, &base, 2);
        for spec in ShardSpec::plan(SeedIterKind::Chase, 2, 2, 0) {
            let r = execute_job_shard(&job, &spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
            assert_eq!(r.outcome, ShardOutcome::Exhausted);
            assert_eq!(u128::from(r.swept), spec.stream.remaining());
        }
    }

    #[test]
    fn checkpoints_resume_without_gaps_or_duplicates() {
        let base = U256::from_u64(77);
        for iter in SeedIterKind::ALL {
            let spec = &ShardSpec::plan(iter, 2, 1, 0)[0];
            let count = spec.stream.remaining();
            // Plant the client at stream position 10 000 — well past the
            // third checkpoint (3 × 1024), so the interrupted sweep cannot
            // have reached it.
            let mask = spec.stream.clone().nth(10_000).unwrap();
            let client = base ^ mask;
            let job = sha3_job(&client, &base, 2);

            // Interrupt the sweep at the third checkpoint …
            let sink = CollectSink::new(Some(3));
            let first = execute_job_shard(&job, spec, 1024, &sink);
            assert_eq!(first.outcome, ShardOutcome::Cancelled, "{iter}");
            let cps = sink.seen.lock();
            let last = cps.last().unwrap();
            assert_eq!(u128::from(last.swept) + last.stream.remaining(), count, "{iter}");
            assert_eq!(last.swept, first.swept, "{iter}: stopped right at the checkpoint");

            // … and resume the remainder: together the two sweeps cover
            // the shard's masks with no gap and no duplicate, and the seed
            // is still found.
            let resumed = spec.resume(last);
            let swept: Vec<U256> = spec.stream.clone().take(first.swept as usize).collect();
            let rest: Vec<U256> = resumed.stream.clone().collect();
            let all: HashSet<U256> = swept.iter().chain(&rest).copied().collect();
            assert_eq!(all.len() as u128, count, "{iter}");
            assert_eq!(swept.len() + rest.len(), all.len(), "{iter}");
            let second = execute_job_shard(&job, &resumed, 1024, &NullSink);
            assert_eq!(second.outcome, ShardOutcome::Found { seed: client }, "{iter}");
        }
    }

    #[test]
    fn deadline_times_the_attempt_out() {
        let base = U256::from_u64(3);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let mut job = sha3_job(&client, &base, 2);
        job.deadline = Some(Duration::ZERO);
        let spec = &ShardSpec::plan(SeedIterKind::Chase, 2, 1, 0)[0];
        let r = execute_job_shard(&job, spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
        assert_eq!(r.outcome, ShardOutcome::TimedOut);
        assert!(u128::from(r.swept) < spec.stream.remaining());
    }

    #[test]
    fn sharded_sweep_agrees_with_the_engine() {
        use crate::backend::{CpuBackend, SearchBackend};
        use crate::engine::{EngineConfig, Outcome, SearchEngine};
        let base = U256::from_u64(0x5151);
        let client = base.flip_bit(100).flip_bit(101);
        let job = sha3_job(&client, &base, 2);

        let engine = SearchEngine::new(DynHashDerive(job.algo), EngineConfig::default());
        let engine_outcome = engine.search(&job.target, &base, 2).outcome;

        let sharded = ShardSpec::plan(SeedIterKind::Chase, 2, 4, 0)
            .iter()
            .find_map(|spec| {
                match execute_job_shard(&job, spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink).outcome
                {
                    ShardOutcome::Found { seed } => Some(seed),
                    _ => None,
                }
            })
            .expect("some shard holds the seed");
        assert_eq!(engine_outcome, Outcome::Found { seed: sharded, distance: 2 });

        // Both callers of the search loop bill identically: at one fixed
        // batch, a one-thread engine and one whole-distance shard per
        // distance cut the same batches and stop at the same mask.
        let cpu = CpuBackend::new(EngineConfig {
            threads: 1,
            batch: BatchPolicy::Fixed(64),
            ..Default::default()
        });
        let report = cpu.submit(&job);
        let mut cost = SearchCost::default();
        for d in 1..=2 {
            let spec = &ShardSpec::plan(SeedIterKind::Chase, d, 1, 0)[0];
            let shard = cpu.run_shard(&job, spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
            assert_eq!(shard.swept, report.per_distance[d as usize].seeds, "d={d}");
            cost += shard.cost;
        }
        assert_eq!(cost.prefix_hits, 1, "only the planted seed passes the prescreen");
        assert_eq!(report.cost, Some(cost));
    }
}
