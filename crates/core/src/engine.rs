//! The parallel RBC search engine — Algorithm 1 of the paper, on real CPU
//! threads.
//!
//! One generic engine serves both the salted (hash) and algorithm-aware
//! (cipher / PQC keygen) searches via the [`crate::derive::Derive`]
//! trait. Algorithm 1's distance ladder — the `d = 0` probe, distances in
//! increasing order so the minimal-distance match is found first, the
//! deadline between distances, and the early-exit and exhaustive rules —
//! is one crate-private function that the supervised pool
//! ([`crate::pool`]) climbs too; each caller supplies only how one
//! distance is swept.
//!
//! The engine sweeps a distance as the paper assigns the work: the
//! `C(256, d)` mask space is statically partitioned into `p` near-equal
//! contiguous ranges, one [`ShardSpec`] per thread (`n = C(256, d)/p`
//! seeds each), each run by the host shard sweep ([`crate::shard`]). A
//! distance whose space is smaller than [`INLINE_GRAIN`] (only `d = 1`'s
//! 256 masks), and every distance when `p = 1`, runs as one shard on the
//! calling thread: spawning threads would cost more than the hashing they
//! split.
//!
//! **The hot path is batched**: each shard runs the crate's one search
//! loop ([`crate::sweep`]) in batches sized by [`EngineConfig::batch`] (by
//! default adapted to the shard's span, see [`crate::batch`]);
//! `BatchPolicy::Fixed(1)` recovers the scalar engine.
//!
//! **Early exit** uses the shard sweep's checkpoint contract: every batch
//! each worker asks a sink whether to go on, and the sink answers stop
//! once a sibling has found the seed (a shared [`AtomicBool`] latch,
//! `Release` on the find, `Relaxed` in the hot loop; the seed itself
//! travels back in the finder's [`ShardReport`]). Flag and deadline polls
//! are paid once per batch, not per candidate — the batch size is the
//! §4.4 exit-check interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbc_bits::U256;
use rbc_comb::{binomial, ChaseTable, SeedIterKind};
use rbc_telemetry::{Counter, Registry};

use crate::batch::BatchPolicy;
use crate::clock::{wall_clock, ClockHandle};
use crate::derive::Derive;
use crate::shard::{
    run_shard_clocked, Checkpoint, CheckpointSink, ShardControl, ShardOutcome, ShardReport,
    ShardSpec,
};
use crate::sweep::SearchCost;

/// Search-termination policy, matching the paper's two measured scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Stop every thread as soon as a match is found (average-case rows).
    EarlyExit,
    /// Enumerate the entire space up to `max_d` regardless of matches
    /// (exhaustive / upper-bound rows). A found seed is still reported,
    /// even when the deadline expires after it was found.
    Exhaustive,
}

/// Engine configuration (Table 2's notation: `p` threads).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads `p`; 0 means use all available cores. Distances
    /// with fewer than [`INLINE_GRAIN`] masks (only `d = 1`) run on the
    /// calling thread whatever `p` is.
    pub threads: usize,
    /// Seed-iteration method (§3.2.1).
    pub iter: SeedIterKind,
    /// Termination policy.
    pub mode: SearchMode,
    /// Batch-sizing policy: masks are streamed, derived and prescreened
    /// `batch` candidates at a time so the SIMD hash kernels stay full
    /// and the stop-flag/deadline polls are paid once per batch (the
    /// batch is the §4.4 exit-check interval). The default
    /// [`BatchPolicy::Adaptive`] scales the size to search difficulty
    /// (each worker's span, about `C(256, d)/p` — see [`crate::batch`]);
    /// [`BatchPolicy::Fixed`] pins it, and `Fixed(1)` reproduces the
    /// pre-batching scalar engine.
    pub batch: BatchPolicy,
    /// Authentication time threshold `T` (the paper uses 20 s). `None`
    /// disables the timeout.
    pub deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            iter: SeedIterKind::Chase,
            mode: SearchMode::EarlyExit,
            batch: BatchPolicy::default(),
            deadline: None,
        }
    }
}

impl EngineConfig {
    /// Resolves `threads == 0` to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// How a search ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The client's seed was found at Hamming distance `distance`.
    Found {
        /// The recovered seed.
        seed: U256,
        /// The distance at which it matched.
        distance: u32,
    },
    /// The space up to `max_d` contains no match.
    NotFound,
    /// The deadline `T` expired mid-search.
    TimedOut {
        /// The distance being searched when time ran out.
        at_distance: u32,
    },
}

impl Outcome {
    /// Whether the client authenticates.
    pub fn is_authenticated(&self) -> bool {
        matches!(self, Outcome::Found { .. })
    }
}

/// Per-distance accounting.
#[derive(Clone, Copy, Debug)]
pub struct DistanceStats {
    /// The Hamming distance.
    pub d: u32,
    /// Seeds actually derived at this distance (≤ `C(256, d)` under early
    /// exit).
    pub seeds: u64,
    /// Wall-clock time spent at this distance.
    pub elapsed: Duration,
}

/// The full result of one search.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Total seeds derived across all distances.
    pub seeds_derived: u64,
    /// Total search wall-clock time ("search-only time" in the tables).
    pub elapsed: Duration,
    /// Breakdown by distance, from the `d = 0` probe to the last distance
    /// the search reached; its seeds sum to `seeds_derived`. Empty from
    /// substrates that keep no such breakdown (the device simulators and
    /// the cluster).
    pub per_distance: Vec<DistanceStats>,
    /// Derivation algorithm name.
    pub algorithm: &'static str,
    /// Threads used.
    pub threads: usize,
    /// What the batched search loop consumed; `None` from substrates
    /// that bill no such cost (the device simulators and the cluster,
    /// whose counters travel in `extras`).
    pub cost: Option<SearchCost>,
    /// Device-specific counters (kernel launches, hash waves, PE counts,
    /// cluster messages, the supervised pool's resilience counters);
    /// empty for the CPU engine. Keys are stable per backend — see
    /// [`crate::backend`].
    pub extras: Vec<(&'static str, u64)>,
}

impl SearchReport {
    /// Looks up a device-specific counter by key.
    pub fn extra(&self, key: &str) -> Option<u64> {
        self.extras.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Shared search-progress counters, paid once per *batch* in the hot
/// loop (never per candidate), so instrumented and uninstrumented
/// searches run within measurement noise of each other.
///
/// Attach to an engine with [`SearchEngine::with_telemetry`] (or
/// [`crate::backend::CpuBackend::with_telemetry`]); every engine sharing
/// one `EngineTelemetry` accumulates into the same counters, which is
/// what a backend serving many authentications wants. Counter names
/// follow the `rbc_engine_*` convention listed per field.
#[derive(Clone, Debug)]
pub struct EngineTelemetry {
    /// Searches started (`rbc_engine_searches_total`).
    pub searches: Arc<Counter>,
    /// Candidate seeds derived, including each search's distance-0 probe
    /// (`rbc_engine_seeds_scanned_total`).
    pub seeds_scanned: Arc<Counter>,
    /// Batch refills executed (`rbc_engine_batches_total`).
    pub batches: Arc<Counter>,
    /// Sum of batch fills in seeds (`rbc_engine_batch_fill_seeds_total`);
    /// divided by `batches` this is the mean fill, below the resolved
    /// [`EngineConfig::batch`] size only on each stream's final refill.
    pub batch_fill: Arc<Counter>,
    /// Candidates whose 64-bit digest prefix matched the target and so
    /// paid for a full derivation (`rbc_engine_prefix_hits_total`).
    pub prefix_hits: Arc<Counter>,
    /// Prefix hits whose full derivation then mismatched — the prescreen's
    /// false positives, expected ≈ `seeds · 2⁻⁶⁴`
    /// (`rbc_engine_prefix_false_positives_total`).
    pub prefix_false_positives: Arc<Counter>,
    /// Early-exit stop-flag/deadline polls taken at batch boundaries
    /// (`rbc_engine_early_exit_polls_total`).
    pub early_exit_polls: Arc<Counter>,
}

impl EngineTelemetry {
    /// Registers (or rejoins) the `rbc_engine_*` counters in `registry`.
    pub fn register(registry: &Registry) -> Self {
        EngineTelemetry {
            searches: registry.counter("rbc_engine_searches_total"),
            seeds_scanned: registry.counter("rbc_engine_seeds_scanned_total"),
            batches: registry.counter("rbc_engine_batches_total"),
            batch_fill: registry.counter("rbc_engine_batch_fill_seeds_total"),
            prefix_hits: registry.counter("rbc_engine_prefix_hits_total"),
            prefix_false_positives: registry.counter("rbc_engine_prefix_false_positives_total"),
            early_exit_polls: registry.counter("rbc_engine_early_exit_polls_total"),
        }
    }
}

/// Smallest mask space worth splitting across threads (a work-splitting
/// grain size). `C(256, 1) = 256` masks hash in ~20 µs of SHA-3 on one
/// core, well under a thread spawn per worker; `C(256, 2) = 32,640` take
/// milliseconds and split.
pub const INLINE_GRAIN: u128 = 10_000;

/// Shards distance `d` is split into when the engine runs `threads`
/// workers: one (the calling thread) below [`INLINE_GRAIN`].
fn workers_at(d: u32, threads: usize) -> usize {
    if binomial(256, d) < INLINE_GRAIN {
        1
    } else {
        threads
    }
}

/// The reusable search engine. Construction is cheap; Chase snapshot
/// tables come from the process-wide cache ([`ChaseTable::shared`]),
/// built lazily on first use per `(d, threads)` (the paper's "loaded into
/// GPU memory once and used to authenticate all clients").
pub struct SearchEngine<D: Derive> {
    pub(crate) derive: D,
    pub(crate) cfg: EngineConfig,
    pub(crate) telemetry: Option<EngineTelemetry>,
    pub(crate) clock: ClockHandle,
}

impl<D: Derive> SearchEngine<D> {
    /// Creates an engine with the given derivation and configuration.
    pub fn new(derive: D, cfg: EngineConfig) -> Self {
        SearchEngine { derive, cfg, telemetry: None, clock: wall_clock() }
    }

    /// Attaches shared search-progress counters; see [`EngineTelemetry`].
    pub fn with_telemetry(mut self, telemetry: EngineTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Reads search start, deadline polls and per-distance timings from
    /// `clock` instead of the wall clock.
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's derivation (e.g. for computing the client-side digest
    /// with the same algorithm in tests and harnesses).
    pub fn derivation(&self) -> &D {
        &self.derive
    }

    /// Pre-builds Chase snapshot tables for all distances up to `max_d`,
    /// so the one-time cost is excluded from search timings — exactly the
    /// paper's measurement protocol. No-op for other iterators.
    pub fn prepare(&self, max_d: u32) {
        if self.cfg.iter != SeedIterKind::Chase {
            return;
        }
        let threads = self.cfg.effective_threads();
        for d in 0..=max_d {
            ChaseTable::shared(d, workers_at(d, threads));
        }
    }

    /// Runs the search: does any seed within Hamming distance `max_d` of
    /// `s_init` derive to `target`?
    ///
    /// Distances are searched in increasing order. Under
    /// [`SearchMode::EarlyExit`] all threads stop at the first match;
    /// under [`SearchMode::Exhaustive`] the whole space is enumerated.
    pub fn search(&self, target: &D::Out, s_init: &U256, max_d: u32) -> SearchReport {
        let threads = self.cfg.effective_threads();
        let early = self.cfg.mode == SearchMode::EarlyExit;
        if let Some(t) = &self.telemetry {
            t.searches.inc();
            t.seeds_scanned.inc(); // the ladder's distance-0 probe
        }
        let ladder = Ladder {
            derive: &self.derive,
            target,
            s_init,
            max_d,
            mode: self.cfg.mode,
            deadline: self.cfg.deadline,
            clock: &self.clock,
            threads,
        };
        let mut report = ladder.climb(|d, give_up| {
            let specs = ShardSpec::plan(self.cfg.iter, d, workers_at(d, threads), 0);
            let sibling_found = AtomicBool::new(false);
            let sink = SiblingStop { found: &sibling_found, telemetry: self.telemetry.as_ref() };
            let run = |spec: &ShardSpec| {
                let report = run_shard_clocked(self, target, s_init, spec, give_up, 1, &sink);
                if early && matches!(report.outcome, ShardOutcome::Found { .. }) {
                    sibling_found.store(true, Ordering::Release);
                }
                report
            };
            let mut sweep = DistanceSweep::default();
            if let [spec] = specs.as_slice() {
                sweep.add(run(spec));
            } else {
                let run = &run;
                std::thread::scope(|scope| {
                    let workers: Vec<_> =
                        specs.iter().map(|spec| scope.spawn(move || run(spec))).collect();
                    for worker in workers {
                        sweep.add(worker.join().expect("search worker panicked"));
                    }
                });
            }
            sweep
        });
        report.cost.get_or_insert_default();
        report
    }
}

/// The engine's cross-worker early exit on the shard sweep's checkpoint
/// contract: asked every batch, it stops the sweep once a sibling worker
/// has found the seed, and counts the poll.
struct SiblingStop<'a> {
    found: &'a AtomicBool,
    telemetry: Option<&'a EngineTelemetry>,
}

impl CheckpointSink for SiblingStop<'_> {
    fn checkpoint(&self, _cp: Checkpoint) -> ShardControl {
        if let Some(t) = self.telemetry {
            t.early_exit_polls.inc();
        }
        if self.found.load(Ordering::Relaxed) {
            ShardControl::Stop
        } else {
            ShardControl::Continue
        }
    }
}

/// What sweeping one distance gave the [`Ladder`].
#[derive(Default)]
pub(crate) struct DistanceSweep {
    /// Seeds derived at this distance.
    pub seeds: u64,
    /// What the sweep consumed; `None` when nothing billed a cost.
    pub cost: Option<SearchCost>,
    /// A verified seed found at this distance.
    pub found: Option<U256>,
    /// The distance could not be swept to its end: the deadline expired,
    /// or (in the pool) a shard could not be recovered.
    pub cut: bool,
}

impl DistanceSweep {
    /// Folds one shard attempt's report in.
    fn add(&mut self, report: ShardReport) {
        self.seeds += report.swept;
        *self.cost.get_or_insert_default() += report.cost;
        match report.outcome {
            ShardOutcome::Found { seed } => {
                self.found.get_or_insert(seed);
            }
            ShardOutcome::TimedOut => self.cut = true,
            _ => {}
        }
    }
}

/// Algorithm 1's distance ladder, climbed by [`SearchEngine::search`] and
/// the supervised pool alike.
///
/// [`Ladder::climb`] probes `s_init` itself (`d = 0`), then sweeps each
/// distance `1..=max_d` in increasing order through the caller's step,
/// checking the deadline before each one. Its rules:
///
/// * under [`SearchMode::EarlyExit`] the climb stops at the distance of
///   the first find; under [`SearchMode::Exhaustive`] it goes on;
/// * a distance that is cut (or reached after the deadline, as a row of
///   zero seeds) ends the climb, and reports
///   [`Outcome::TimedOut`] at that distance — unless a seed was found,
///   which wins over any later timeout;
/// * `per_distance` always starts with the `d = 0` row, and its seeds
///   sum to `seeds_derived`.
pub(crate) struct Ladder<'a, D: Derive> {
    pub derive: &'a D,
    pub target: &'a D::Out,
    pub s_init: &'a U256,
    pub max_d: u32,
    pub mode: SearchMode,
    /// The threshold `T`, from the climb's start.
    pub deadline: Option<Duration>,
    pub clock: &'a ClockHandle,
    /// Reported as [`SearchReport::threads`].
    pub threads: usize,
}

impl<D: Derive> Ladder<'_, D> {
    /// Runs the search. `sweep_distance(d, give_up)` sweeps distance `d`,
    /// giving up at the search's deadline instant. The report's `extras`
    /// are left empty for the caller.
    pub fn climb(
        self,
        mut sweep_distance: impl FnMut(u32, Option<Instant>) -> DistanceSweep,
    ) -> SearchReport {
        let clock = self.clock;
        let start = clock.now();
        let give_up = self.deadline.map(|t| start + t);
        let mut found =
            (self.derive.derive(self.s_init) == *self.target).then_some((*self.s_init, 0));
        let mut per_distance = vec![DistanceStats {
            d: 0,
            seeds: 1,
            elapsed: clock.now().saturating_duration_since(start),
        }];
        let (mut seeds_derived, mut cost, mut cut_at) = (1u64, None, None);
        for d in 1..=self.max_d {
            if found.is_some() && self.mode == SearchMode::EarlyExit {
                break;
            }
            let d_start = clock.now();
            let sweep = if give_up.is_some_and(|dl| d_start >= dl) {
                DistanceSweep { cut: true, ..DistanceSweep::default() }
            } else {
                sweep_distance(d, give_up)
            };
            seeds_derived += sweep.seeds;
            if let Some(c) = sweep.cost {
                *cost.get_or_insert_default() += c;
            }
            per_distance.push(DistanceStats {
                d,
                seeds: sweep.seeds,
                elapsed: clock.now().saturating_duration_since(d_start),
            });
            if found.is_none() {
                found = sweep.found.map(|seed| (seed, d));
            }
            if sweep.cut {
                cut_at = Some(d);
                break;
            }
        }
        let outcome = match (found, cut_at) {
            (Some((seed, distance)), _) => Outcome::Found { seed, distance },
            (None, Some(at_distance)) => Outcome::TimedOut { at_distance },
            (None, None) => Outcome::NotFound,
        };
        SearchReport {
            outcome,
            seeds_derived,
            elapsed: clock.now().saturating_duration_since(start),
            per_distance,
            algorithm: self.derive.name(),
            threads: self.threads,
            cost,
            extras: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::HashDerive;
    use parking_lot::Mutex;
    use rbc_hash::{SeedHash, Sha1Fixed, Sha3Fixed};

    fn engine(mode: SearchMode, iter: SeedIterKind) -> SearchEngine<HashDerive<Sha3Fixed>> {
        SearchEngine::new(
            HashDerive(Sha3Fixed),
            EngineConfig { threads: 4, iter, mode, ..Default::default() },
        )
    }

    fn seed_at(base: &U256, bits: &[usize]) -> U256 {
        let mut s = *base;
        for &b in bits {
            s.flip_bit_in_place(b);
        }
        s
    }

    #[test]
    fn finds_seed_at_distance_zero() {
        let base = U256::from_u64(0xDEAD);
        let target = Sha3Fixed.digest_seed(&base);
        let report = engine(SearchMode::EarlyExit, SeedIterKind::Chase).search(&target, &base, 3);
        assert_eq!(report.outcome, Outcome::Found { seed: base, distance: 0 });
        assert_eq!(report.seeds_derived, 1);
    }

    #[test]
    fn finds_seed_at_each_distance_and_iterator() {
        let base = U256::from_limbs([1, 2, 3, 4]);
        for iter in SeedIterKind::ALL {
            for (d, bits) in [(1u32, vec![7usize]), (2, vec![0, 255]), (3, vec![5, 64, 200])] {
                let client = seed_at(&base, &bits);
                let target = Sha3Fixed.digest_seed(&client);
                let report = engine(SearchMode::EarlyExit, iter).search(&target, &base, 3);
                assert_eq!(
                    report.outcome,
                    Outcome::Found { seed: client, distance: d },
                    "{iter} d={d}"
                );
            }
        }
    }

    #[test]
    fn reports_not_found_beyond_max_d() {
        let base = U256::from_u64(77);
        let client = seed_at(&base, &[1, 2, 3]); // distance 3
        let target = Sha3Fixed.digest_seed(&client);
        let report = engine(SearchMode::EarlyExit, SeedIterKind::Chase).search(&target, &base, 2);
        assert_eq!(report.outcome, Outcome::NotFound);
        // All of d ∈ {0,1,2} enumerated: 1 + 256 + 32640.
        assert_eq!(report.seeds_derived, 1 + 256 + 32_640);
    }

    #[test]
    fn exhaustive_mode_enumerates_everything_but_still_finds() {
        let base = U256::from_u64(3);
        let client = seed_at(&base, &[100]);
        let target = Sha3Fixed.digest_seed(&client);
        let report = engine(SearchMode::Exhaustive, SeedIterKind::Gosper).search(&target, &base, 2);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 1 });
        assert_eq!(report.seeds_derived, 1 + 256 + 32_640, "no early exit");
    }

    #[test]
    fn early_exit_derives_fewer_seeds_than_exhaustive() {
        let base = U256::from_u64(9);
        let client = seed_at(&base, &[50, 150]);
        let target = Sha3Fixed.digest_seed(&client);
        let early = engine(SearchMode::EarlyExit, SeedIterKind::Chase).search(&target, &base, 2);
        let full = engine(SearchMode::Exhaustive, SeedIterKind::Chase).search(&target, &base, 2);
        assert!(early.seeds_derived < full.seeds_derived);
        assert_eq!(full.seeds_derived, 1 + 256 + 32_640);
    }

    #[test]
    fn per_distance_stats_are_consistent() {
        let base = U256::from_u64(4);
        let client = seed_at(&base, &[9, 99]);
        let target = Sha3Fixed.digest_seed(&client);
        let report = engine(SearchMode::Exhaustive, SeedIterKind::Alg515).search(&target, &base, 2);
        let sum: u64 = report.per_distance.iter().map(|s| s.seeds).sum();
        assert_eq!(sum, report.seeds_derived);
        assert_eq!(report.per_distance.len(), 3);
        assert_eq!(report.per_distance[1].seeds, 256);
        assert_eq!(report.per_distance[2].seeds, 32_640);
    }

    /// A derivation slow enough (200 µs a seed) that a deadline of tens
    /// of milliseconds expires mid-search; its output is [`mix`].
    #[derive(Clone)]
    struct Slow;

    impl Derive for Slow {
        type Out = u64;
        fn name(&self) -> &'static str {
            "slow"
        }
        fn derive(&self, seed: &U256) -> u64 {
            std::thread::sleep(Duration::from_micros(200));
            mix(seed)
        }
    }

    /// A 64-bit mix of all four limbs, so seeds that differ in any bit
    /// derive to different outputs.
    fn mix(seed: &U256) -> u64 {
        seed.limbs()
            .iter()
            .fold(0, |h, &l| (h ^ l).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29))
    }

    fn slow_engine(threads: usize, mode: SearchMode, deadline_ms: u64) -> SearchEngine<Slow> {
        SearchEngine::new(
            Slow,
            EngineConfig {
                threads,
                mode,
                deadline: Some(Duration::from_millis(deadline_ms)),
                ..Default::default()
            },
        )
    }

    #[test]
    fn deadline_expires_on_slow_derive() {
        for threads in [1, 2] {
            let report =
                slow_engine(threads, SearchMode::EarlyExit, 30).search(&u64::MAX, &U256::ZERO, 4);
            let Outcome::TimedOut { at_distance } = report.outcome else {
                panic!("p = {threads}: {:?}", report.outcome);
            };
            assert!(report.seeds_derived < 1 + 256 + 32_640, "stopped early");
            let last = report.per_distance.last().unwrap();
            assert_eq!(at_distance, last.d, "p = {threads}: names the distance being swept");
        }
    }

    #[test]
    fn exhaustive_find_survives_a_later_timeout() {
        // Chase's first d = 1 mask is bit 255, so the seed is found in the
        // first batch; the 60 ms deadline then expires during d = 1 or 2.
        let base = U256::from_u64(5);
        let client = base.flip_bit(255);
        for threads in [1, 2] {
            let report =
                slow_engine(threads, SearchMode::Exhaustive, 60).search(&mix(&client), &base, 3);
            assert!(report.per_distance.len() < 4, "p = {threads}: the deadline expired");
            assert_eq!(
                report.outcome,
                Outcome::Found { seed: client, distance: 1 },
                "p = {threads}"
            );
        }
    }

    #[test]
    fn sha1_engine_works_too() {
        let base = U256::from_u64(21);
        let client = seed_at(&base, &[128]);
        let target = Sha1Fixed.digest_seed(&client);
        let eng = SearchEngine::new(
            HashDerive(Sha1Fixed),
            EngineConfig { threads: 3, ..Default::default() },
        );
        let report = eng.search(&target, &base, 1);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 1 });
        assert_eq!(report.algorithm, "SHA-1");
    }

    #[test]
    fn single_thread_matches_multi_thread_outcome() {
        let base = U256::from_limbs([5, 6, 7, 8]);
        let client = seed_at(&base, &[33, 203]);
        let target = Sha3Fixed.digest_seed(&client);
        for threads in [1usize, 2, 8, 32] {
            let eng = SearchEngine::new(
                HashDerive(Sha3Fixed),
                EngineConfig { threads, ..Default::default() },
            );
            let report = eng.search(&target, &base, 2);
            assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 }, "p={threads}");
            assert_eq!(report.threads, threads);
        }
    }

    #[test]
    fn batch_sizes_agree_with_scalar_engine() {
        // batch = 1 is the pre-batching scalar engine; every batch size
        // must produce the same outcome, and in exhaustive mode the same
        // per-distance counts.
        let base = U256::from_limbs([21, 22, 23, 24]);
        let client = seed_at(&base, &[3, 177]);
        let target = Sha3Fixed.digest_seed(&client);
        for mode in [SearchMode::EarlyExit, SearchMode::Exhaustive] {
            for batch in [1usize, 7, 64, 1024] {
                let eng = SearchEngine::new(
                    HashDerive(Sha3Fixed),
                    EngineConfig {
                        threads: 4,
                        batch: BatchPolicy::Fixed(batch),
                        mode,
                        ..Default::default()
                    },
                );
                let report = eng.search(&target, &base, 2);
                assert_eq!(
                    report.outcome,
                    Outcome::Found { seed: client, distance: 2 },
                    "mode {mode:?}, batch {batch}"
                );
                if mode == SearchMode::Exhaustive {
                    assert_eq!(report.seeds_derived, 1 + 256 + 32_640, "batch {batch}");
                }
            }
        }
    }

    #[test]
    fn adaptive_policy_agrees_with_fixed_policies() {
        // The adaptive default must change only *when* polls happen,
        // never what is found: same outcome as every fixed size, and in
        // exhaustive mode the same exact seed counts.
        let base = U256::from_limbs([31, 32, 33, 34]);
        let client = seed_at(&base, &[19, 240]);
        let target = Sha3Fixed.digest_seed(&client);
        for mode in [SearchMode::EarlyExit, SearchMode::Exhaustive] {
            let adaptive = SearchEngine::new(
                HashDerive(Sha3Fixed),
                EngineConfig {
                    threads: 4,
                    batch: BatchPolicy::adaptive(),
                    mode,
                    ..Default::default()
                },
            )
            .search(&target, &base, 2);
            let fixed = SearchEngine::new(
                HashDerive(Sha3Fixed),
                EngineConfig {
                    threads: 4,
                    batch: BatchPolicy::Fixed(64),
                    mode,
                    ..Default::default()
                },
            )
            .search(&target, &base, 2);
            assert_eq!(adaptive.outcome, fixed.outcome, "{mode:?}");
            assert_eq!(adaptive.outcome, Outcome::Found { seed: client, distance: 2 });
            if mode == SearchMode::Exhaustive {
                assert_eq!(adaptive.seeds_derived, 1 + 256 + 32_640);
            }
        }
    }

    #[test]
    fn full_compare_path_without_prefix_support() {
        // CipherDerive has no prefix64 path: the engine must take the
        // derive_batch full-compare branch and still find the seed.
        use crate::derive::CipherDerive;
        use rbc_ciphers::{AesResponse, SeedCipher};
        let base = U256::from_u64(31);
        let client = seed_at(&base, &[40]);
        let target = SeedCipher::derive(&AesResponse, &client);
        let eng = SearchEngine::new(
            CipherDerive(AesResponse),
            EngineConfig { threads: 2, batch: BatchPolicy::Fixed(16), ..Default::default() },
        );
        let report = eng.search(&target, &base, 1);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 1 });
    }

    #[test]
    fn prepare_caches_chase_tables() {
        let eng = engine(SearchMode::EarlyExit, SeedIterKind::Chase);
        eng.prepare(2);
        assert!(ChaseTable::cached(2, 4).is_some());
        // Search still works from the cache.
        let base = U256::from_u64(2);
        let target = Sha3Fixed.digest_seed(&base);
        let report = eng.search(&target, &base, 2);
        assert!(report.outcome.is_authenticated());
    }

    #[test]
    fn telemetry_counts_seeds_batches_and_prefix_hits() {
        let registry = Registry::new();
        let telemetry = EngineTelemetry::register(&registry);
        let base = U256::from_u64(55);
        let client = seed_at(&base, &[12, 120]);
        let target = Sha3Fixed.digest_seed(&client);
        let eng = SearchEngine::new(
            HashDerive(Sha3Fixed),
            EngineConfig { threads: 4, mode: SearchMode::Exhaustive, ..Default::default() },
        )
        .with_telemetry(telemetry.clone());
        let report = eng.search(&target, &base, 2);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });

        let total = 1 + 256 + 32_640;
        assert_eq!(telemetry.searches.get(), 1);
        assert_eq!(telemetry.seeds_scanned.get(), total);
        assert_eq!(telemetry.batch_fill.get(), total - 1, "d0 probe is not batched");
        assert!(telemetry.batches.get() > 0);
        assert!(telemetry.batches.get() <= telemetry.early_exit_polls.get() + 8);
        // Exactly one candidate hashes to the target; false positives
        // (prefix collisions) are ~2⁻⁶⁴ per candidate, i.e. none here.
        assert_eq!(telemetry.prefix_hits.get(), 1);
        assert_eq!(telemetry.prefix_false_positives.get(), 0);
        // The same counters are visible through the registry snapshot.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rbc_engine_seeds_scanned_total"), Some(total));
    }

    #[test]
    fn telemetry_attachment_does_not_change_outcomes() {
        let base = U256::from_u64(66);
        let client = seed_at(&base, &[8, 88]);
        let target = Sha3Fixed.digest_seed(&client);
        let plain = engine(SearchMode::EarlyExit, SeedIterKind::Chase).search(&target, &base, 2);
        let instrumented = engine(SearchMode::EarlyExit, SeedIterKind::Chase)
            .with_telemetry(EngineTelemetry::register(&Registry::new()))
            .search(&target, &base, 2);
        assert_eq!(plain.outcome, instrumented.outcome);
    }

    #[test]
    fn small_distances_derive_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::thread::ThreadId;

        /// Records the thread of every derivation; never matches.
        #[derive(Clone, Default)]
        struct Threads(Arc<Mutex<HashSet<ThreadId>>>);
        impl Derive for Threads {
            type Out = u64;
            fn name(&self) -> &'static str {
                "threads"
            }
            fn derive(&self, _seed: &U256) -> u64 {
                self.0.lock().insert(std::thread::current().id());
                u64::MAX
            }
        }
        let caller = std::thread::current().id();
        for (max_d, threads) in [(1, 2), (2, 1)] {
            let seen = Threads::default();
            let eng = SearchEngine::new(
                seen.clone(),
                EngineConfig { threads, mode: SearchMode::Exhaustive, ..Default::default() },
            );
            let report = eng.search(&0, &U256::from_u64(5), max_d);
            assert_eq!(report.outcome, Outcome::NotFound);
            assert_eq!(*seen.0.lock(), HashSet::from([caller]), "d ≤ {max_d}, p = {threads}");
        }
        // d = 2 on two threads splits across spawned workers.
        let seen = Threads::default();
        SearchEngine::new(seen.clone(), EngineConfig { threads: 2, ..Default::default() }).search(
            &0,
            &U256::from_u64(5),
            2,
        );
        let seen = seen.0.lock();
        assert_eq!(seen.len(), 3, "the caller plus two workers");
        assert!(seen.contains(&caller));
    }

    #[test]
    fn thread_counts_agree_for_every_iterator() {
        let base = U256::from_limbs([41, 42, 43, 44]);
        for iter in SeedIterKind::ALL {
            for bits in [vec![77usize], vec![6, 250]] {
                let client = seed_at(&base, &bits);
                let target = Sha3Fixed.digest_seed(&client);
                let distance = bits.len() as u32;
                for threads in [1usize, 2, 4] {
                    let run = |mode| {
                        SearchEngine::new(
                            HashDerive(Sha3Fixed),
                            EngineConfig { threads, iter, mode, ..Default::default() },
                        )
                        .search(&target, &base, 2)
                    };
                    let early = run(SearchMode::EarlyExit);
                    assert_eq!(
                        early.outcome,
                        Outcome::Found { seed: client, distance },
                        "{iter} p={threads}"
                    );
                    let full = run(SearchMode::Exhaustive);
                    let seeds: Vec<u64> = full.per_distance.iter().map(|s| s.seeds).collect();
                    assert_eq!(seeds, [1, 256, 32_640], "{iter} p={threads}");
                    assert_eq!(full.outcome, early.outcome, "{iter} p={threads}");
                }
            }
        }
    }

    #[test]
    fn found_seed_always_rederives_to_target() {
        // No false positives: whatever the engine returns must re-derive.
        let base = U256::from_limbs([9, 9, 9, 9]);
        let client = seed_at(&base, &[17, 71]);
        let target = Sha3Fixed.digest_seed(&client);
        let report = engine(SearchMode::EarlyExit, SeedIterKind::Gosper).search(&target, &base, 2);
        if let Outcome::Found { seed, .. } = report.outcome {
            assert_eq!(Sha3Fixed.digest_seed(&seed), target);
        } else {
            panic!("expected found");
        }
    }
}
