//! The parallel RBC search engine — Algorithm 1 of the paper, on real CPU
//! threads.
//!
//! One generic engine serves both the salted (hash) and algorithm-aware
//! (cipher / PQC keygen) searches via the [`crate::derive::Derive`]
//! trait. The work assignment is the paper's: the `C(256, d)` mask space at
//! each Hamming distance is statically partitioned into `p` near-equal
//! contiguous ranges, one per thread (`n = C(256, d)/p` seeds each), and
//! distances are searched in increasing order so the minimal-distance match
//! is found first.
//!
//! **The hot path is batched**: each worker runs the crate's one search
//! loop ([`crate::sweep`]) over its mask stream, in batches sized by
//! [`EngineConfig::batch`] (by default adapted to search difficulty per
//! distance, see [`crate::batch`]); `BatchPolicy::Fixed(1)` recovers the
//! scalar engine.
//!
//! **Early exit** uses a shared [`AtomicU8`] flag: `Relaxed` loads in the
//! hot loop (the flag is a monotonic latch, no data is published through
//! it), a `Release` store when a thread finds the seed, and an `Acquire`
//! re-check by the coordinator. The found seed itself travels through a
//! mutex, not the flag. Flag and deadline polls are paid once per batch,
//! not per candidate — the batch size is the §4.4 exit-check interval.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rbc_bits::U256;
use rbc_comb::{plan_streams, ChaseTable, SeedIterKind};
use rbc_telemetry::{Counter, Registry};

use crate::batch::BatchPolicy;
use crate::clock::{wall_clock, ClockHandle};
use crate::derive::Derive;
use crate::sweep::{sweep, SearchCost, SweepPolicy};

/// Search-termination policy, matching the paper's two measured scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Stop every thread as soon as a match is found (average-case rows).
    EarlyExit,
    /// Enumerate the entire space up to `max_d` regardless of matches
    /// (exhaustive / upper-bound rows). A found seed is still reported.
    Exhaustive,
}

/// Engine configuration (Table 2's notation: `p` threads).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads `p`; 0 means use all available cores.
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
    /// (the per-thread `C(256, d)/p` span — see [`crate::batch`]);
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
    /// Breakdown by distance.
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

// Stop-flag states.
const RUNNING: u8 = 0;
const FOUND: u8 = 1;
const EXPIRED: u8 = 2;

/// The reusable search engine. Construction is cheap; Chase snapshot
/// tables come from the process-wide cache ([`ChaseTable::shared`]),
/// built lazily on first use per `(d, threads)` (the paper's "loaded into
/// GPU memory once and used to authenticate all clients").
pub struct SearchEngine<D: Derive> {
    derive: D,
    cfg: EngineConfig,
    telemetry: Option<EngineTelemetry>,
    clock: ClockHandle,
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
            ChaseTable::shared(d, threads);
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
        let clock = &self.clock;
        let start = clock.now();
        let deadline = self.cfg.deadline.map(|t| start + t);
        let early = self.cfg.mode == SearchMode::EarlyExit;
        let telemetry = self.telemetry.as_ref();
        if let Some(t) = telemetry {
            t.searches.inc();
            t.seeds_scanned.inc(); // the distance-0 probe below
        }

        let flag = AtomicU8::new(RUNNING);
        let found: Mutex<Option<(U256, u32)>> = Mutex::new(None);
        let mut total_seeds = 0u64;
        // Per-search cost, reported on the search's own report so a
        // single request (not just the cumulative telemetry) shows how
        // selective the prefix filter was for it.
        let mut cost = SearchCost::default();
        let mut per_distance = Vec::with_capacity(max_d as usize + 1);

        // Distance 0: thread r = 0 checks S_init itself (Algorithm 1,
        // lines 4–8).
        let d0_start = clock.now();
        let m0 = self.derive.derive(s_init);
        total_seeds += 1;
        per_distance.push(DistanceStats {
            d: 0,
            seeds: 1,
            elapsed: clock.now().saturating_duration_since(d0_start),
        });
        if m0 == *target {
            flag.store(FOUND, Ordering::Release);
            *found.lock() = Some((*s_init, 0));
        }

        let mut d = 1u32;
        while d <= max_d {
            let stop_now = match flag.load(Ordering::Acquire) {
                FOUND => early,
                EXPIRED => true,
                _ => false,
            };
            if stop_now {
                break;
            }
            if let Some(dl) = deadline {
                if clock.now() >= dl {
                    flag.store(EXPIRED, Ordering::Release);
                    break;
                }
            }

            let d_start = clock.now();
            let streams = plan_streams(self.cfg.iter, d, threads);
            // One policy resolution per distance: the batch size every
            // worker at this distance uses.
            let batch = self.cfg.batch.resolve(d, threads);
            let stop =
                EngineStop { d, early, flag: &flag, found: &found, deadline, clock, telemetry };
            let derive = &self.derive;
            let mut d_seeds = 0u64;
            std::thread::scope(|scope| {
                let workers: Vec<_> = streams
                    .into_iter()
                    .map(|mut masks| {
                        let mut stop = stop;
                        scope.spawn(move || {
                            sweep(derive, target, s_init, &mut masks, batch, telemetry, &mut stop)
                        })
                    })
                    .collect();
                for worker in workers {
                    let (swept, worker_cost) = worker.join().expect("search worker panicked");
                    d_seeds += swept;
                    cost += worker_cost;
                }
            });
            total_seeds += d_seeds;
            per_distance.push(DistanceStats {
                d,
                seeds: d_seeds,
                elapsed: clock.now().saturating_duration_since(d_start),
            });
            d += 1;
        }

        let outcome = match flag.load(Ordering::Acquire) {
            FOUND => {
                let (seed, distance) = found.lock().expect("found flag implies slot");
                Outcome::Found { seed, distance }
            }
            EXPIRED => Outcome::TimedOut { at_distance: d.min(max_d) },
            _ => resolve_running_outcome(&found),
        };

        SearchReport {
            outcome,
            seeds_derived: total_seeds,
            elapsed: clock.now().saturating_duration_since(start),
            per_distance,
            algorithm: self.derive.name(),
            threads,
            cost: Some(cost),
            extras: Vec::new(),
        }
    }
}

/// One engine worker's stop policy at distance `d`.
#[derive(Clone, Copy)]
struct EngineStop<'a> {
    d: u32,
    early: bool,
    flag: &'a AtomicU8,
    found: &'a Mutex<Option<(U256, u32)>>,
    deadline: Option<Instant>,
    clock: &'a ClockHandle,
    telemetry: Option<&'a EngineTelemetry>,
}

impl<S> SweepPolicy<S> for EngineStop<'_> {
    /// Records a hit; within a thread the first match in stream order
    /// wins, across threads the first writer wins (later distances never
    /// get here before earlier ones finish). Under exhaustive mode the
    /// sweep goes on.
    fn hit(&mut self, seed: U256) -> bool {
        let mut slot = self.found.lock();
        if slot.is_none() {
            *slot = Some((seed, self.d));
        }
        drop(slot);
        self.flag.store(FOUND, Ordering::Release);
        self.early
    }

    fn poll(&mut self, _stream: &S, _swept: u64) -> bool {
        if let Some(t) = self.telemetry {
            t.early_exit_polls.inc();
        }
        let f = self.flag.load(Ordering::Relaxed);
        if (f == FOUND && self.early) || f == EXPIRED {
            return true;
        }
        if let Some(dl) = self.deadline {
            if self.clock.now() >= dl {
                self.flag.store(EXPIRED, Ordering::Release);
                return true;
            }
        }
        false
    }
}

/// Resolves the RUNNING end state: under exhaustive mode a match may have
/// been recorded without latching early termination semantics.
fn resolve_running_outcome(found: &Mutex<Option<(U256, u32)>>) -> Outcome {
    match *found.lock() {
        Some((seed, distance)) => Outcome::Found { seed, distance },
        None => Outcome::NotFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::HashDerive;
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

    #[test]
    fn deadline_expires_on_slow_derive() {
        /// A derivation slow enough that the 2-distance search cannot
        /// finish within the deadline.
        #[derive(Clone)]
        struct Slow;
        impl Derive for Slow {
            type Out = u64;
            fn name(&self) -> &'static str {
                "slow"
            }
            fn derive(&self, _seed: &U256) -> u64 {
                std::thread::sleep(Duration::from_micros(200));
                0xFFFF_FFFF_FFFF_FFFF // never matches
            }
        }
        let eng = SearchEngine::new(
            Slow,
            EngineConfig {
                threads: 2,
                deadline: Some(Duration::from_millis(30)),
                ..Default::default()
            },
        );
        let report = eng.search(&0, &U256::ZERO, 2);
        assert!(matches!(report.outcome, Outcome::TimedOut { .. }), "{:?}", report.outcome);
        assert!(report.seeds_derived < 1 + 256 + 32_640, "stopped early");
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
