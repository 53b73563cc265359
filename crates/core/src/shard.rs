//! Checkpointable search shards: resumable slices of one authentication's
//! seed space.
//!
//! The paper picks Chase's Algorithm 382 precisely because its saved
//! states let parallel workers resume iteration mid-sequence. This module
//! turns that property into a fault-tolerance primitive: a [`ShardSpec`]
//! is a *resume point* — a Chase generator state plus a mask count — and
//! [`run_shard`] sweeps it with the same batched prefix64-prescreen hot
//! path as the engine while periodically publishing fresh resume points
//! through a [`CheckpointSink`]. When a backend crashes or stalls
//! mid-shard, a supervisor (see [`crate::pool`]) re-dispatches only the
//! unswept remainder — the masks from the last checkpoint onward — to a
//! healthy backend, instead of losing the whole authentication.
//!
//! Coverage correctness rests on [`rbc_comb::ChaseStream::snapshot`]:
//! resuming from any checkpoint yields exactly the masks the interrupted
//! sweep had not produced (property-tested in `rbc-comb`), so a
//! re-dispatched shard can neither skip nor repeat a candidate.

use std::time::Duration;

use rbc_bits::U256;
use rbc_comb::{ChaseState, ChaseStream, ChaseTable};

use crate::backend::SearchJob;
use crate::batch::BatchPolicy;
use crate::clock::{wall_clock, ClockHandle};
use crate::derive::{Derive, DynHashDerive};

/// Masks swept between checkpoints when the caller does not override it.
/// At CPU hash rates (~10⁷ seeds/s/thread) this is a checkpoint every few
/// hundred microseconds — frequent enough that a re-dispatch re-sweeps a
/// negligible tail, rare enough that publishing a checkpoint (a 72-byte
/// copy of the Chase state plus the sink call) never shows up in profiles.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

/// One resumable slice of a distance-`d` Chase enumeration: sweep `count`
/// masks starting from `state`. XORed into a job's `s_init`, those masks
/// are the shard's candidate seeds.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Stable shard identity across re-dispatches (a re-dispatched
    /// remainder keeps the id of the shard it resumes).
    pub shard_id: u64,
    /// The Hamming distance this shard's masks carry.
    pub d: u32,
    /// The Chase generator state producing the shard's first mask.
    pub state: ChaseState,
    /// Number of masks this shard owns from `state` onward.
    pub count: u128,
}

impl ShardSpec {
    /// Shards for every worker slice of `table`, skipping empty slices
    /// (more workers than masks). Ids are `first_id`, `first_id + 1`, ….
    pub fn plan(table: &ChaseTable, first_id: u64) -> Vec<ShardSpec> {
        (0..table.workers())
            .filter(|&w| table.count(w) > 0)
            .enumerate()
            .map(|(i, w)| {
                let (state, count) = table.stream(w).snapshot();
                ShardSpec { shard_id: first_id + i as u64, d: table.distance(), state, count }
            })
            .collect()
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
    /// Resume point: the generator state of the first unswept mask.
    pub state: ChaseState,
    /// Masks swept by *this attempt* so far.
    pub swept: u64,
    /// Masks still unswept from `state` onward.
    pub remaining: u128,
}

/// What a [`CheckpointSink`] tells the executor to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardControl {
    /// Keep sweeping.
    Continue,
    /// Abandon the sweep (another shard found the seed, or this attempt
    /// was superseded by a re-dispatch).
    Stop,
}

/// Receives periodic [`Checkpoint`]s during a shard sweep and steers the
/// executor. Implementations must be cheap: the sink runs inline on the
/// sweeping thread, once per [checkpoint interval], not per candidate.
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
    /// A candidate in this shard derived to the target.
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
    /// Masks this attempt derived (≤ the spec's `count`).
    pub swept: u64,
    /// Attempt wall-clock time.
    pub elapsed: Duration,
    /// Cost accounting under stable keys (`"batches"`, and for
    /// prefix-capable derivations `"prefix_hits"` /
    /// `"prefix_false_positives"`). The pool folds these into its
    /// submit-level report so per-request cost receipts survive the
    /// sharded path.
    pub extras: Vec<(&'static str, u64)>,
}

/// Sweeps one shard with the engine's batched hot path: refill a mask
/// batch from the Chase stream, XOR into candidate seeds, prescreen on
/// the 64-bit digest prefix, confirm hits with a full derivation —
/// bit-identical accept decisions to the full engine. Every
/// `checkpoint_interval` masks the current resume point goes to `sink`;
/// `deadline` bounds the attempt from its own start.
pub fn run_shard<D: Derive>(
    derive: &D,
    target: &D::Out,
    s_init: &U256,
    spec: &ShardSpec,
    deadline: Option<Duration>,
    checkpoint_interval: u64,
    sink: &dyn CheckpointSink,
) -> ShardReport {
    // Adaptive sizing on the shard's own span: a near-exhausted resume
    // point (or a d=1 shard) sweeps in one small refill instead of
    // allocating max-width buffers, while large shards amortize the
    // deadline checks with full-width batches — same policy as the
    // engine hot loop (see `crate::batch`).
    run_shard_clocked(
        derive,
        target,
        s_init,
        spec,
        deadline,
        checkpoint_interval,
        sink,
        &wall_clock(),
        BatchPolicy::default(),
    )
}

/// [`run_shard`] with the attempt's start, deadline and elapsed read
/// from `clock`, and the refill width resolved from an explicit
/// `policy` — the simulation harness passes a fixed policy so batch
/// boundaries (and therefore checkpoint and deadline-poll positions)
/// do not depend on a wall-clock calibration of the host.
#[allow(clippy::too_many_arguments)]
pub fn run_shard_clocked<D: Derive>(
    derive: &D,
    target: &D::Out,
    s_init: &U256,
    spec: &ShardSpec,
    deadline: Option<Duration>,
    checkpoint_interval: u64,
    sink: &dyn CheckpointSink,
    clock: &ClockHandle,
    policy: BatchPolicy,
) -> ShardReport {
    let batch = policy.resolve_for_span(spec.count);
    let start = clock.now();
    let elapsed = || clock.now().saturating_duration_since(start);
    let give_up = deadline.map(|t| start + t);
    let interval = checkpoint_interval.max(1);
    let target_prefix = derive.prefix64(target);

    let mut stream = ChaseStream::from_snapshot(spec.state, spec.count);
    let mut masks = vec![U256::ZERO; batch];
    let mut seeds: Vec<U256> = Vec::with_capacity(batch);
    let mut outs: Vec<D::Out> = Vec::with_capacity(batch);
    let mut prefixes: Vec<u64> = Vec::with_capacity(batch);
    let mut swept = 0u64;
    let mut since_cp = 0u64;
    let mut batches = 0u64;
    let mut prefix_hits = 0u64;
    let mut prefix_false_pos = 0u64;
    // Cost accounting under the same stable keys the engine reports
    // (see [`crate::engine::SearchReport::extras`]).
    let extras = |batches: u64, hits: u64, fp: u64| {
        if target_prefix.is_some() {
            vec![("batches", batches), ("prefix_hits", hits), ("prefix_false_positives", fp)]
        } else {
            vec![("batches", batches)]
        }
    };

    loop {
        let filled = stream.next_batch(&mut masks);
        if filled == 0 {
            return ShardReport {
                outcome: ShardOutcome::Exhausted,
                swept,
                elapsed: elapsed(),
                extras: extras(batches, prefix_hits, prefix_false_pos),
            };
        }
        seeds.clear();
        seeds.extend(masks[..filled].iter().map(|m| *s_init ^ *m));
        swept += seeds.len() as u64;
        since_cp += seeds.len() as u64;
        batches += 1;

        let hit = if let Some(tp) = target_prefix {
            derive.prefix64_batch(&seeds, &mut prefixes);
            // Same lazy confirmation order as `.find`, with the hit and
            // false-positive tallies the cost receipts bill per client.
            let mut found = None;
            for (i, &p) in prefixes.iter().enumerate() {
                if p != tp {
                    continue;
                }
                prefix_hits += 1;
                if derive.derive(&seeds[i]) == *target {
                    found = Some(seeds[i]);
                    break;
                }
                prefix_false_pos += 1;
            }
            found
        } else {
            derive.derive_batch(&seeds, &mut outs);
            outs.iter().position(|o| *o == *target).map(|i| seeds[i])
        };
        if let Some(seed) = hit {
            return ShardReport {
                outcome: ShardOutcome::Found { seed },
                swept,
                elapsed: elapsed(),
                extras: extras(batches, prefix_hits, prefix_false_pos),
            };
        }

        if let Some(dl) = give_up {
            if clock.now() >= dl {
                return ShardReport {
                    outcome: ShardOutcome::TimedOut,
                    swept,
                    elapsed: elapsed(),
                    extras: extras(batches, prefix_hits, prefix_false_pos),
                };
            }
        }
        if since_cp >= interval {
            since_cp = 0;
            let (state, remaining) = stream.snapshot();
            let control = sink.checkpoint(Checkpoint {
                shard_id: spec.shard_id,
                d: spec.d,
                state,
                swept,
                remaining,
            });
            if control == ShardControl::Stop {
                return ShardReport {
                    outcome: ShardOutcome::Cancelled,
                    swept,
                    elapsed: elapsed(),
                    extras: extras(batches, prefix_hits, prefix_false_pos),
                };
            }
        }
    }
}

/// [`run_shard`] over a [`SearchJob`]'s runtime-dispatched hash
/// derivation — the entry point [`crate::backend::SearchBackend`]
/// implementations get by default.
pub fn execute_job_shard(
    job: &SearchJob,
    spec: &ShardSpec,
    checkpoint_interval: u64,
    sink: &dyn CheckpointSink,
) -> ShardReport {
    let derive = DynHashDerive(job.algo);
    run_shard(&derive, &job.target, &job.s_init, spec, job.deadline, checkpoint_interval, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rbc_hash::HashAlgo;

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
        let table = ChaseTable::build(2, 4);
        let shards = ShardSpec::plan(&table, 10);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.count).sum::<u128>(), 32_640);
        assert_eq!(shards[0].shard_id, 10);
        assert!(shards.iter().all(|s| s.d == 2));
    }

    #[test]
    fn plan_skips_empty_worker_slices() {
        // d = 1 over 300 workers: only 256 masks, so 44 slices are empty.
        let table = ChaseTable::build(1, 300);
        let shards = ShardSpec::plan(&table, 0);
        assert_eq!(shards.len(), 256);
        assert!(shards.iter().all(|s| s.count == 1));
    }

    #[test]
    fn finds_the_planted_seed_and_matches_counts() {
        let base = U256::from_u64(0xABCD);
        let client = base.flip_bit(7).flip_bit(200);
        let job = sha3_job(&client, &base, 2);
        let table = ChaseTable::build(2, 3);
        let mut found = None;
        let mut swept_total = 0u64;
        for spec in ShardSpec::plan(&table, 0) {
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
        let table = ChaseTable::build(2, 2);
        for spec in ShardSpec::plan(&table, 0) {
            let r = execute_job_shard(&job, &spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
            assert_eq!(r.outcome, ShardOutcome::Exhausted);
            assert_eq!(u128::from(r.swept), spec.count);
        }
    }

    #[test]
    fn checkpoints_resume_without_gaps_or_duplicates() {
        let base = U256::from_u64(77);
        let table = ChaseTable::build(2, 1);
        let spec = &ShardSpec::plan(&table, 0)[0];
        // Plant the client at stream position 10 000 — well past the
        // third checkpoint (3 × 1024), so the interrupted sweep cannot
        // have reached it.
        let mut stream = ChaseStream::from_snapshot(spec.state, spec.count);
        let mut mask = stream.next_mask().unwrap();
        for _ in 0..10_000 {
            mask = stream.next_mask().unwrap();
        }
        let client = base ^ mask;
        let job = sha3_job(&client, &base, 2);

        // Interrupt the sweep at the third checkpoint …
        let sink = CollectSink::new(Some(3));
        let first = execute_job_shard(&job, spec, 1024, &sink);
        assert_eq!(first.outcome, ShardOutcome::Cancelled);
        let cps = sink.seen.lock();
        let last = cps.last().unwrap();
        assert_eq!(u128::from(last.swept) + last.remaining, spec.count);

        // … and resume the remainder: the seed is still found, and the
        // combined sweep covers exactly the original count.
        let resumed = ShardSpec {
            shard_id: spec.shard_id,
            d: last.d,
            state: last.state,
            count: last.remaining,
        };
        let second = execute_job_shard(&job, &resumed, 1024, &NullSink);
        assert_eq!(second.outcome, ShardOutcome::Found { seed: client });
        assert!(u128::from(first.swept) + u128::from(second.swept) <= spec.count);
    }

    #[test]
    fn deadline_times_the_attempt_out() {
        let base = U256::from_u64(3);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let mut job = sha3_job(&client, &base, 2);
        job.deadline = Some(Duration::ZERO);
        let table = ChaseTable::build(2, 1);
        let spec = &ShardSpec::plan(&table, 0)[0];
        let r = execute_job_shard(&job, spec, DEFAULT_CHECKPOINT_INTERVAL, &NullSink);
        assert_eq!(r.outcome, ShardOutcome::TimedOut);
        assert!(u128::from(r.swept) < spec.count);
    }

    #[test]
    fn sharded_sweep_agrees_with_the_engine() {
        use crate::engine::{EngineConfig, Outcome, SearchEngine};
        let base = U256::from_u64(0x5151);
        let client = base.flip_bit(100).flip_bit(101);
        let job = sha3_job(&client, &base, 2);

        let engine = SearchEngine::new(DynHashDerive(job.algo), EngineConfig::default());
        let engine_outcome = engine.search(&job.target, &base, 2).outcome;

        let table = ChaseTable::build(2, 4);
        let sharded = ShardSpec::plan(&table, 0)
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
    }
}
