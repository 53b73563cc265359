//! The supervised backend pool: fault-tolerant search orchestration over
//! checkpointable shards.
//!
//! [`SupervisedPool`] puts a fleet of [`SearchBackend`]s behind one
//! backend interface and runs every job as a set of [`ShardSpec`]s, one
//! attempt per shard, supervised from the submitting thread:
//!
//! * **Circuit breakers** — each backend carries a Closed / Open /
//!   HalfOpen breaker driven by its error rate and shard-latency p99,
//!   both read from the pool's [`Registry`]. Open backends are skipped
//!   when shards are (re-)assigned; after a cooldown the breaker admits
//!   one probe (HalfOpen) and closes again on success.
//! * **Checkpoint recovery** — attempts publish resume points through
//!   the [`CheckpointSink`] protocol; when an attempt crashes, faults,
//!   or stalls, only the unswept remainder from its freshest checkpoint
//!   is re-dispatched to a healthy backend, within whatever remains of
//!   the job's deadline budget.
//! * **Hedged re-dispatch** — a straggler shard past `hedge_after` gets
//!   a duplicate attempt on a second backend, racing from the last
//!   checkpoint; whichever attempt finishes first wins and the loser is
//!   cancelled at its next checkpoint.
//! * **Report verification** — a `Found` seed is re-derived before it
//!   is accepted, so a corrupted report reads as a fault (and a
//!   re-dispatch), never as a wrong verdict.
//!
//! Everything the supervisor observes is exported as
//! `rbc_resilience_*` metrics, and re-dispatches emit
//! [`EventKind::ShardResumed`] through an attached [`Tracer`] so the
//! flight recorder can capture recovery timelines.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rbc_bits::U256;
use rbc_comb::SeedIterKind;
use rbc_hash::HashAlgo;
use rbc_telemetry::{Counter, EventKind, Histogram, Registry, Tracer};

use crate::backend::{BackendDescriptor, SearchBackend, SearchJob};
use crate::clock::{wall_clock, ClockHandle, SIM_POLL_TICK};
use crate::derive::{Derive, DynHashDerive};
use crate::engine::{DistanceSweep, Ladder, SearchMode, SearchReport};
use crate::shard::{Checkpoint, CheckpointSink, ShardControl, ShardOutcome, ShardSpec};

/// A backend reporting `TimedOut` while more than this much wall budget
/// remains is treated as clock-skewed (a fault), not as a genuine
/// deadline expiry.
const SKEW_MARGIN: Duration = Duration::from_millis(5);

/// Circuit-breaker thresholds, per backend.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Cumulative error rate (failures / attempts) that trips the
    /// breaker once `min_samples` attempts have been observed.
    pub error_rate_threshold: f64,
    /// Attempts required before the error-rate and p99 rules apply.
    pub min_samples: u64,
    /// Trip when the backend's shard-latency p99 (from the registry
    /// histogram) exceeds this; `None` disables the latency rule.
    pub p99_limit: Option<Duration>,
    /// How long an open breaker blocks the backend before admitting a
    /// HalfOpen probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            error_rate_threshold: 0.5,
            min_samples: 8,
            p99_limit: None,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Where a backend's breaker currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: attempts flow normally.
    Closed,
    /// Tripped: the backend is skipped until the cooldown elapses.
    Open,
    /// Probing: one attempt is admitted; success closes the breaker,
    /// failure re-opens it.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    consecutive: u32,
    opened_at: Option<Instant>,
}

/// One backend's breaker plus its health metrics.
struct Breaker {
    cfg: BreakerConfig,
    clock: ClockHandle,
    inner: Mutex<BreakerInner>,
    successes: Arc<Counter>,
    failures: Arc<Counter>,
    latency_ns: Arc<Histogram>,
    trips: Arc<Counter>,
}

impl Breaker {
    fn new(
        cfg: BreakerConfig,
        clock: ClockHandle,
        registry: &Registry,
        index: usize,
        trips: Arc<Counter>,
    ) -> Self {
        Breaker {
            cfg,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive: 0,
                opened_at: None,
            }),
            successes: registry.counter(&format!("rbc_resilience_backend_{index}_successes_total")),
            failures: registry.counter(&format!("rbc_resilience_backend_{index}_failures_total")),
            latency_ns: registry.histogram(&format!("rbc_resilience_backend_{index}_shard_ns")),
            trips,
        }
    }

    /// Applies the lazy Open → HalfOpen cooldown transition and reports
    /// the current state.
    fn poll_state(&self) -> BreakerState {
        let mut g = self.inner.lock();
        if g.state == BreakerState::Open
            && g.opened_at
                .is_none_or(|t| self.clock.now().saturating_duration_since(t) >= self.cfg.cooldown)
        {
            g.state = BreakerState::HalfOpen;
        }
        g.state
    }

    /// Whether the backend may take an attempt right now.
    fn allow(&self) -> bool {
        self.poll_state() != BreakerState::Open
    }

    fn trip(&self, g: &mut BreakerInner) {
        if g.state != BreakerState::Open {
            g.state = BreakerState::Open;
            self.trips.inc();
        }
        g.opened_at = Some(self.clock.now());
    }

    fn p99_exceeded(&self) -> bool {
        self.cfg.p99_limit.is_some_and(|limit| {
            let snap = self.latency_ns.snapshot();
            snap.count >= self.cfg.min_samples && snap.percentile_duration(99.0) > limit
        })
    }

    fn record_success(&self, elapsed: Duration) {
        self.successes.inc();
        self.latency_ns.record_duration(elapsed);
        let mut g = self.inner.lock();
        g.consecutive = 0;
        if g.state == BreakerState::HalfOpen {
            g.state = BreakerState::Closed;
            g.opened_at = None;
        }
        // A healthy verdict can still trip the breaker when the backend
        // has degraded into a straggler: the p99 rule reads the shared
        // latency histogram, so chronic slowness opens the circuit even
        // without a single hard failure.
        if g.state == BreakerState::Closed && self.p99_exceeded() {
            self.trip(&mut g);
        }
    }

    fn record_failure(&self) {
        self.failures.inc();
        let mut g = self.inner.lock();
        g.consecutive += 1;
        let failures = self.failures.get();
        let total = failures + self.successes.get();
        let rate = failures as f64 / total.max(1) as f64;
        if g.state == BreakerState::HalfOpen
            || g.consecutive >= self.cfg.failure_threshold
            || (total >= self.cfg.min_samples && rate >= self.cfg.error_rate_threshold)
        {
            self.trip(&mut g);
        }
    }
}

/// Supervision policy for a [`SupervisedPool`].
#[derive(Clone, Debug)]
pub struct SupervisedPoolConfig {
    /// Per-backend circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// An attempt with no checkpoint (or launch) activity for this long
    /// is declared stalled, superseded, and re-dispatched.
    pub stall_timeout: Duration,
    /// Launch a duplicate racing attempt for a shard still running after
    /// this long; `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Masks between checkpoints (see
    /// [`crate::shard::DEFAULT_CHECKPOINT_INTERVAL`]).
    pub checkpoint_interval: u64,
    /// Re-dispatches allowed per shard before it is declared failed.
    pub max_redispatch: u32,
}

impl Default for SupervisedPoolConfig {
    fn default() -> Self {
        SupervisedPoolConfig {
            breaker: BreakerConfig::default(),
            stall_timeout: Duration::from_millis(150),
            hedge_after: Some(Duration::from_secs(2)),
            checkpoint_interval: crate::shard::DEFAULT_CHECKPOINT_INTERVAL,
            max_redispatch: 3,
        }
    }
}

/// The pool-wide `rbc_resilience_*` counters.
struct PoolMetrics {
    shards: Arc<Counter>,
    checkpoints: Arc<Counter>,
    redispatches: Arc<Counter>,
    hedges: Arc<Counter>,
    faults: Arc<Counter>,
    stalls: Arc<Counter>,
    wasted_seeds: Arc<Counter>,
    verify_failures: Arc<Counter>,
}

impl PoolMetrics {
    fn new(registry: &Registry) -> Self {
        PoolMetrics {
            shards: registry.counter("rbc_resilience_shards_total"),
            checkpoints: registry.counter("rbc_resilience_checkpoints_total"),
            redispatches: registry.counter("rbc_resilience_redispatches_total"),
            hedges: registry.counter("rbc_resilience_hedges_total"),
            faults: registry.counter("rbc_resilience_faults_total"),
            stalls: registry.counter("rbc_resilience_stalls_total"),
            wasted_seeds: registry.counter("rbc_resilience_wasted_seeds_total"),
            verify_failures: registry.counter("rbc_resilience_verify_failures_total"),
        }
    }
}

/// What a worker thread reports back to the supervisor.
enum Event {
    /// The attempt ran to a terminal [`ShardOutcome`].
    Done { shard: usize, attempt: u64, backend: usize, report: crate::shard::ShardReport },
    /// The attempt's thread unwound without reporting — the backend
    /// panicked mid-shard.
    Crashed { shard: usize, attempt: u64, backend: usize },
}

/// Sends [`Event::Crashed`] if the worker unwinds before disarming.
struct Sentinel {
    tx: mpsc::Sender<Event>,
    shard: usize,
    attempt: u64,
    backend: usize,
    armed: bool,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(Event::Crashed {
                shard: self.shard,
                attempt: self.attempt,
                backend: self.backend,
            });
        }
    }
}

type Slot = Arc<Mutex<Option<(Checkpoint, Instant)>>>;

/// The sink a worker publishes through: records the freshest resume
/// point and stops the sweep once the attempt is cancelled or
/// superseded.
struct AttemptSink {
    attempt: u64,
    active: Arc<Mutex<HashSet<u64>>>,
    cancel: Arc<AtomicBool>,
    slot: Slot,
    checkpoints: Arc<Counter>,
    clock: ClockHandle,
}

impl CheckpointSink for AttemptSink {
    fn checkpoint(&self, cp: Checkpoint) -> ShardControl {
        if self.cancel.load(Ordering::Relaxed) || !self.active.lock().contains(&self.attempt) {
            return ShardControl::Stop;
        }
        self.checkpoints.inc();
        *self.slot.lock() = Some((cp, self.clock.now()));
        ShardControl::Continue
    }
}

/// One live attempt of a shard.
struct AttemptInfo {
    backend: usize,
    launched: Instant,
    slot: Slot,
}

/// Supervisor-side state of one shard.
struct ShardRun {
    /// The shard's original full spec (resume fallback when no
    /// checkpoint was ever published).
    spec: ShardSpec,
    attempts: HashMap<u64, AttemptInfo>,
    /// Freshest resume point across all attempts (minimum remaining).
    best: Option<Checkpoint>,
    redispatches: u32,
    hedged: bool,
    done: bool,
    failed: bool,
}

impl ShardRun {
    /// What a new attempt sweeps: the remainder from the freshest
    /// checkpoint, or the whole shard when none was published.
    fn resume_spec(&self) -> ShardSpec {
        self.best.as_ref().map_or_else(|| self.spec.clone(), |cp| self.spec.resume(cp))
    }
}

/// Mutable state of one distance sweep.
struct SweepState {
    runs: Vec<ShardRun>,
    pending: usize,
    /// Seeds, cost and find reported so far, handed to the ladder.
    sweep: DistanceSweep,
    /// Useful-work credit for superseded attempts: masks up to the
    /// checkpoint their remainder was resumed from. Anything a stale
    /// attempt sweeps beyond its credit is wasted (duplicated) work.
    credit: HashMap<u64, u64>,
    totals: Totals,
    /// Virtual-timeline attempts launched since the supervisor last
    /// parked, not yet running (see [`SupervisedPool::start_deferred`]).
    deferred: Vec<Box<dyn FnOnce() + Send>>,
}

/// Per-submit resilience totals, reported in the job's `extras`.
#[derive(Default)]
struct Totals {
    redispatches: u64,
    hedges: u64,
    faults: u64,
    stalls: u64,
    wasted: u64,
}

/// Immutable context shared by one distance sweep.
struct SweepCtx {
    tx: mpsc::Sender<Event>,
    active: Arc<Mutex<HashSet<u64>>>,
    cancel: Arc<AtomicBool>,
    deadline_at: Option<Instant>,
}

/// A fleet of backends behind one [`SearchBackend`] interface, with
/// per-backend circuit breakers and checkpoint-based shard recovery.
/// See the [module docs](self) for the supervision model.
pub struct SupervisedPool {
    backends: Vec<Arc<dyn SearchBackend>>,
    cfg: SupervisedPoolConfig,
    breakers: Vec<Breaker>,
    registry: Arc<Registry>,
    metrics: PoolMetrics,
    tracer: Option<Arc<Tracer>>,
    clock: ClockHandle,
    rr: AtomicUsize,
    next_shard: AtomicU64,
    next_attempt: AtomicU64,
}

impl SupervisedPool {
    /// A pool over `backends` with a private metrics registry.
    pub fn new(backends: Vec<Arc<dyn SearchBackend>>, cfg: SupervisedPoolConfig) -> Self {
        Self::with_registry(backends, cfg, Arc::new(Registry::new()))
    }

    /// A pool registering its `rbc_resilience_*` metrics in `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn with_registry(
        backends: Vec<Arc<dyn SearchBackend>>,
        cfg: SupervisedPoolConfig,
        registry: Arc<Registry>,
    ) -> Self {
        Self::with_clock(backends, cfg, registry, wall_clock())
    }

    /// [`with_registry`](Self::with_registry) reading stall scans,
    /// breaker cooldowns, hedging delays and deadline budgets from
    /// `clock` — pass a [`SimClock`](crate::clock::SimClock) handle to
    /// supervise on a virtual timeline.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn with_clock(
        backends: Vec<Arc<dyn SearchBackend>>,
        cfg: SupervisedPoolConfig,
        registry: Arc<Registry>,
        clock: ClockHandle,
    ) -> Self {
        assert!(!backends.is_empty(), "supervised pool needs at least one backend");
        let metrics = PoolMetrics::new(&registry);
        let trips = registry.counter("rbc_resilience_breaker_trips_total");
        let breakers = (0..backends.len())
            .map(|i| Breaker::new(cfg.breaker.clone(), clock.clone(), &registry, i, trips.clone()))
            .collect();
        SupervisedPool {
            backends,
            cfg,
            breakers,
            registry,
            metrics,
            tracer: None,
            clock,
            rr: AtomicUsize::new(0),
            next_shard: AtomicU64::new(0),
            next_attempt: AtomicU64::new(0),
        }
    }

    /// Emits [`EventKind::ShardResumed`] recovery events through
    /// `tracer` (pair it with a freeze-on-anomaly flight recorder to
    /// capture recovery timelines).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The registry holding the pool's `rbc_resilience_*` metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Current breaker state of backend `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        self.breakers[i].poll_state()
    }

    /// The clock the pool's supervision timers read.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Round-robin backend choice. Pass 1 wants a breaker-healthy
    /// backend outside `avoid`; pass 2 drops the avoid list; pass 3
    /// (skipped when `strict`) falls back to any supporting backend so
    /// a fully tripped pool still makes progress.
    fn pick_backend(&self, algo: HashAlgo, avoid: &[usize], strict: bool) -> Option<usize> {
        let n = self.backends.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let ring = (0..n).map(|k| (start + k) % n);
        for i in ring.clone() {
            if !avoid.contains(&i) && self.backends[i].supports(algo) && self.breakers[i].allow() {
                return Some(i);
            }
        }
        if strict {
            return None;
        }
        for i in ring.clone() {
            if self.backends[i].supports(algo) && self.breakers[i].allow() {
                return Some(i);
            }
        }
        ring.into_iter().find(|&i| self.backends[i].supports(algo))
    }

    /// Starts one attempt of `spec` on `backend_idx`, bounded by the
    /// remaining wall budget, reporting back through the sweep channel.
    fn launch_attempt(
        &self,
        ctx: &SweepCtx,
        st: &mut SweepState,
        shard: usize,
        backend_idx: usize,
        job: &SearchJob,
        spec: ShardSpec,
    ) {
        let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
        let slot: Slot = Arc::new(Mutex::new(None));
        ctx.active.lock().insert(attempt);
        st.runs[shard].attempts.insert(
            attempt,
            AttemptInfo { backend: backend_idx, launched: self.clock.now(), slot: slot.clone() },
        );
        let mut job_attempt = job.clone();
        job_attempt.deadline = ctx
            .deadline_at
            .map(|dl| dl.saturating_duration_since(self.clock.now()))
            .or(job.deadline);
        let backend = self.backends[backend_idx].clone();
        let sink = AttemptSink {
            attempt,
            active: ctx.active.clone(),
            cancel: ctx.cancel.clone(),
            slot,
            checkpoints: self.metrics.checkpoints.clone(),
            clock: self.clock.clone(),
        };
        let tx = ctx.tx.clone();
        let interval = self.cfg.checkpoint_interval;
        let work = move || {
            let mut sentinel =
                Sentinel { tx: tx.clone(), shard, attempt, backend: backend_idx, armed: true };
            let report = backend.run_shard(&job_attempt, &spec, interval, &sink);
            sentinel.armed = false;
            let _ = tx.send(Event::Done { shard, attempt, backend: backend_idx, report });
        };
        if self.clock.is_virtual() {
            st.deferred.push(Box::new(work));
        } else {
            self.spawn_worker(work);
        }
    }

    fn spawn_worker(&self, work: impl FnOnce() + Send + 'static) {
        // Register the worker with the clock *before* spawning: on a
        // virtual timeline the guard keeps time from galloping past the
        // attempt in the window before the OS schedules the new thread.
        let actor = self.clock.enter();
        std::thread::spawn(move || {
            let _actor = actor;
            work();
        });
    }

    /// Starts every deferred virtual-timeline attempt. The supervisor
    /// calls this only right before it parks or leaves the sweep, so a
    /// worker never computes while the supervisor is still applying
    /// events: each attempt's first checkpoint sees the cancel flag and
    /// active set the whole batch left behind, not whatever the
    /// supervisor had reached when the host scheduler ran the worker.
    fn start_deferred(&self, st: &mut SweepState) {
        for work in st.deferred.drain(..) {
            self.spawn_worker(work);
        }
    }

    /// Re-dispatches the unswept remainder of `shard` after its last
    /// active attempt failed on `failed_backend`. Marks the shard failed
    /// when the re-dispatch budget, wall budget, or backend pool is
    /// exhausted.
    fn redispatch(
        &self,
        ctx: &SweepCtx,
        st: &mut SweepState,
        shard: usize,
        failed_backend: usize,
        job: &SearchJob,
    ) {
        let run = &mut st.runs[shard];
        let budget_left = ctx.deadline_at.is_none_or(|dl| self.clock.now() < dl);
        if run.redispatches >= self.cfg.max_redispatch || !budget_left {
            run.done = true;
            run.failed = true;
            st.pending -= 1;
            return;
        }
        run.redispatches += 1;
        let spec = run.resume_spec();
        match self.pick_backend(job.algo, &[failed_backend], false) {
            Some(b) => {
                self.metrics.redispatches.inc();
                st.totals.redispatches += 1;
                if let Some(t) = &self.tracer {
                    t.event(
                        EventKind::ShardResumed,
                        job.trace.trace_id,
                        "shard re-dispatched from last checkpoint",
                    );
                }
                self.launch_attempt(ctx, st, shard, b, job, spec);
            }
            None => {
                let run = &mut st.runs[shard];
                run.done = true;
                run.failed = true;
                st.pending -= 1;
            }
        }
    }
}

/// Folds `cp` into the shard's best (minimum-remaining) resume point.
fn merge_best(run: &mut ShardRun, cp: Checkpoint) {
    if run.best.as_ref().is_none_or(|b| cp.stream.remaining() < b.stream.remaining()) {
        run.best = Some(cp);
    }
}

/// Takes an attempt out of the active set, folding its last checkpoint
/// into the shard's resume point and recording its useful-work credit.
fn supersede(
    run: &mut ShardRun,
    active: &Mutex<HashSet<u64>>,
    credit: &mut HashMap<u64, u64>,
    attempt: u64,
    useful_from_cp: bool,
) {
    active.lock().remove(&attempt);
    if let Some(info) = run.attempts.remove(&attempt) {
        let cp = info.slot.lock().clone();
        match cp {
            Some((cp, _)) if useful_from_cp => {
                credit.insert(attempt, cp.swept);
                merge_best(run, cp);
            }
            Some((cp, _)) => {
                credit.insert(attempt, 0);
                merge_best(run, cp);
            }
            None => {
                credit.insert(attempt, 0);
            }
        }
    }
}

impl SupervisedPool {
    /// Runs one distance sweep: plans shards, launches attempts, and
    /// supervises them to completion, recovery, or deadline — the pool's
    /// step of the distance ladder. Every attempt's seeds and cost count,
    /// superseded ones too: their work was consumed even if it was later
    /// voided, and the per-request cost receipt bills consumption. The
    /// sweep is cut when the deadline expires or a shard cannot be proven
    /// clear (its re-dispatch budget ran out or no backend could take
    /// it). Resilience totals fold into `acc` for the report's extras.
    fn sweep_distance(
        &self,
        job: &SearchJob,
        d: u32,
        deadline_at: Option<Instant>,
        acc: &mut Totals,
    ) -> DistanceSweep {
        let workers = self.backends.len();
        let derive = DynHashDerive(job.algo);
        let early = job.mode == SearchMode::EarlyExit;
        let first = self.next_shard.fetch_add(workers as u64, Ordering::Relaxed);
        let specs = ShardSpec::plan(SeedIterKind::Chase, d, workers, first);
        if specs.is_empty() {
            return DistanceSweep::default();
        }
        self.metrics.shards.add(specs.len() as u64);

        let (tx, rx) = mpsc::channel();
        let ctx = SweepCtx {
            tx,
            active: Arc::new(Mutex::new(HashSet::new())),
            cancel: Arc::new(AtomicBool::new(false)),
            deadline_at,
        };
        let mut st = SweepState {
            pending: specs.len(),
            runs: specs
                .into_iter()
                .map(|spec| ShardRun {
                    spec,
                    attempts: HashMap::new(),
                    best: None,
                    redispatches: 0,
                    hedged: false,
                    done: false,
                    failed: false,
                })
                .collect(),
            sweep: DistanceSweep::default(),
            credit: HashMap::new(),
            totals: Totals::default(),
            deferred: Vec::new(),
        };

        for shard in 0..st.runs.len() {
            match self.pick_backend(job.algo, &[], false) {
                Some(b) => {
                    let spec = st.runs[shard].spec.clone();
                    self.launch_attempt(&ctx, &mut st, shard, b, job, spec);
                }
                None => {
                    st.runs[shard].done = true;
                    st.runs[shard].failed = true;
                    st.pending -= 1;
                }
            }
        }

        let tick =
            (self.cfg.stall_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(20));
        let mut buffered: std::collections::VecDeque<Event> = std::collections::VecDeque::new();
        while st.pending > 0 {
            // On the virtual timeline a `recv_timeout` would block on the
            // *wall* clock while no actor advances virtual time, so the
            // sim path instead parks one tick (letting workers run) and
            // drains whatever arrived; the wall path keeps the
            // channel-timeout wait unchanged.
            //
            // Two rules keep the virtual path deterministic:
            //
            // * The park comes *before* the drain: right after an
            //   attempt launches, its worker is still computing on a
            //   real thread, and a `try_recv` in that window would race
            //   the worker's completion. Waking from a virtual sleep
            //   means every other actor is parked or exited, so the
            //   drain observes a channel state fully determined by the
            //   virtual schedule.
            // * The drained batch is processed in *attempt* order, not
            //   arrival order: workers that exited during the same tick
            //   pushed their events in whatever order the host scheduler
            //   ran them, and an early-exit sweep stops at the first
            //   `Found` it processes — so arrival order would decide how
            //   many other completions get tallied first.
            // * Attempts launched while applying events start only when
            //   the supervisor parks or leaves the sweep
            //   ([`Self::start_deferred`]).
            let event = if self.clock.is_virtual() {
                if buffered.is_empty() {
                    self.start_deferred(&mut st);
                    self.clock.sleep(SIM_POLL_TICK);
                    let mut batch: Vec<Event> = Vec::new();
                    let mut disconnected = false;
                    loop {
                        match rx.try_recv() {
                            Ok(e) => batch.push(e),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                disconnected = true;
                                break;
                            }
                        }
                    }
                    if batch.is_empty() && disconnected {
                        break;
                    }
                    batch.sort_by_key(|e| match e {
                        Event::Done { attempt, .. } => (*attempt, 0u8),
                        Event::Crashed { attempt, .. } => (*attempt, 1u8),
                    });
                    buffered.extend(batch);
                }
                buffered.pop_front()
            } else {
                match rx.recv_timeout(tick) {
                    Ok(e) => Some(e),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            };
            if let Some(event) = event {
                if let Some(seed) = self.handle_event(&ctx, &mut st, job, &derive, event) {
                    st.sweep.found.get_or_insert(seed);
                    if early {
                        ctx.cancel.store(true, Ordering::Relaxed);
                        return self.leave(st, acc);
                    }
                }
            }
            if deadline_at.is_some_and(|dl| self.clock.now() >= dl) {
                ctx.cancel.store(true, Ordering::Relaxed);
                st.sweep.cut = true;
                return self.leave(st, acc);
            }
            self.scan_stalls_and_hedges(&ctx, &mut st, job);
        }

        st.sweep.cut |= st.runs.iter().any(|r| r.failed);
        self.leave(st, acc)
    }

    /// Ends a distance sweep: starts the deferred attempts (which see any
    /// cancel at their first checkpoint) and folds the sweep's resilience
    /// totals into `acc`.
    fn leave(&self, mut st: SweepState, acc: &mut Totals) -> DistanceSweep {
        self.start_deferred(&mut st);
        self.metrics.wasted_seeds.add(st.totals.wasted);
        acc.redispatches += st.totals.redispatches;
        acc.hedges += st.totals.hedges;
        acc.faults += st.totals.faults;
        acc.stalls += st.totals.stalls;
        acc.wasted += st.totals.wasted;
        st.sweep
    }

    /// Applies one worker event to the sweep state. Returns a verified
    /// seed when the event completes the search.
    fn handle_event(
        &self,
        ctx: &SweepCtx,
        st: &mut SweepState,
        job: &SearchJob,
        derive: &DynHashDerive,
        event: Event,
    ) -> Option<U256> {
        match event {
            Event::Crashed { shard, attempt, backend } => {
                let was_active = ctx.active.lock().remove(&attempt);
                let run = &mut st.runs[shard];
                if let Some(info) = run.attempts.remove(&attempt) {
                    if let Some((cp, _)) = info.slot.lock().clone() {
                        merge_best(run, cp);
                    }
                }
                self.metrics.faults.inc();
                st.totals.faults += 1;
                self.breakers[backend].record_failure();
                if was_active && !run.done && run.attempts.is_empty() {
                    self.redispatch(ctx, st, shard, backend, job);
                }
                None
            }
            Event::Done { shard, attempt, backend, report } => {
                st.sweep.seeds += report.swept;
                *st.sweep.cost.get_or_insert_default() += report.cost;
                let was_active = ctx.active.lock().remove(&attempt);
                let run = &mut st.runs[shard];
                if let Some(info) = run.attempts.remove(&attempt) {
                    if let Some((cp, _)) = info.slot.lock().clone() {
                        merge_best(run, cp);
                    }
                }
                if !was_active {
                    // A superseded attempt finally reported: everything it
                    // swept beyond the checkpoint its remainder resumed
                    // from is duplicated work.
                    let useful = st.credit.remove(&attempt).unwrap_or(0);
                    let wasted = report.swept.saturating_sub(useful);
                    st.totals.wasted += wasted;
                    // A verified find from a stale attempt is still a
                    // correct seed — accept it.
                    if let ShardOutcome::Found { seed } = report.outcome {
                        if derive.derive(&seed) == job.target {
                            return Some(seed);
                        }
                    }
                    if let ShardOutcome::Faulted { .. } = report.outcome {
                        self.breakers[backend].record_failure();
                    }
                    return None;
                }
                match report.outcome {
                    ShardOutcome::Found { seed } => {
                        if derive.derive(&seed) == job.target {
                            self.breakers[backend].record_success(report.elapsed);
                            if !st.runs[shard].done {
                                self.complete_shard(ctx, st, shard);
                            }
                            Some(seed)
                        } else {
                            // Corrupted report: the backend claimed a seed
                            // that does not derive to the target.
                            self.metrics.verify_failures.inc();
                            self.metrics.faults.inc();
                            st.totals.faults += 1;
                            self.breakers[backend].record_failure();
                            self.recover_if_last(ctx, st, shard, backend, job);
                            None
                        }
                    }
                    ShardOutcome::Exhausted => {
                        self.breakers[backend].record_success(report.elapsed);
                        if !st.runs[shard].done {
                            self.complete_shard(ctx, st, shard);
                        }
                        None
                    }
                    ShardOutcome::Cancelled => {
                        // Only the global cancel path stops an active
                        // attempt; the shard will not finish this sweep.
                        if !st.runs[shard].done {
                            st.runs[shard].done = true;
                            st.pending -= 1;
                        }
                        None
                    }
                    ShardOutcome::TimedOut => {
                        let genuine =
                            ctx.deadline_at.is_some_and(|dl| self.clock.now() + SKEW_MARGIN >= dl);
                        if genuine {
                            if !st.runs[shard].done {
                                st.runs[shard].done = true;
                                st.runs[shard].failed = true;
                                st.pending -= 1;
                            }
                        } else {
                            // The backend gave up while wall budget
                            // remained: a clock-skewed deadline read.
                            self.metrics.faults.inc();
                            st.totals.faults += 1;
                            self.breakers[backend].record_failure();
                            self.recover_if_last(ctx, st, shard, backend, job);
                        }
                        None
                    }
                    ShardOutcome::Faulted { .. } => {
                        self.metrics.faults.inc();
                        st.totals.faults += 1;
                        self.breakers[backend].record_failure();
                        self.recover_if_last(ctx, st, shard, backend, job);
                        None
                    }
                }
            }
        }
    }

    /// Marks `shard` complete and cancels its other racing attempts.
    fn complete_shard(&self, ctx: &SweepCtx, st: &mut SweepState, shard: usize) {
        let run = &mut st.runs[shard];
        run.done = true;
        st.pending -= 1;
        let others: Vec<u64> = run.attempts.keys().copied().collect();
        for id in others {
            supersede(run, &ctx.active, &mut st.credit, id, false);
        }
    }

    /// Re-dispatches `shard` unless a sibling attempt is still covering
    /// it (hedged shards survive a single attempt failure for free).
    fn recover_if_last(
        &self,
        ctx: &SweepCtx,
        st: &mut SweepState,
        shard: usize,
        failed_backend: usize,
        job: &SearchJob,
    ) {
        if !st.runs[shard].done && st.runs[shard].attempts.is_empty() {
            self.redispatch(ctx, st, shard, failed_backend, job);
        }
    }

    /// Tick bookkeeping: supersedes stalled attempts and hedges
    /// stragglers.
    fn scan_stalls_and_hedges(&self, ctx: &SweepCtx, st: &mut SweepState, job: &SearchJob) {
        let now = self.clock.now();
        for shard in 0..st.runs.len() {
            if st.runs[shard].done {
                continue;
            }
            let stalled: Vec<(u64, usize)> = st.runs[shard]
                .attempts
                .iter()
                .filter(|(_, info)| {
                    let last = info.slot.lock().as_ref().map_or(info.launched, |&(_, t)| t);
                    now.duration_since(last) > self.cfg.stall_timeout
                })
                .map(|(&id, info)| (id, info.backend))
                .collect();
            for (id, backend) in stalled {
                supersede(&mut st.runs[shard], &ctx.active, &mut st.credit, id, true);
                self.metrics.stalls.inc();
                st.totals.stalls += 1;
                self.breakers[backend].record_failure();
                self.recover_if_last(ctx, st, shard, backend, job);
            }

            let Some(hedge_after) = self.cfg.hedge_after else { continue };
            let run = &st.runs[shard];
            if run.done || run.hedged || run.attempts.len() != 1 {
                continue;
            }
            let (_, info) = run.attempts.iter().next().unwrap();
            if now.duration_since(info.launched) <= hedge_after {
                continue;
            }
            let primary_backend = info.backend;
            let primary_cp = info.slot.lock().clone();
            if let Some((cp, _)) = primary_cp {
                merge_best(&mut st.runs[shard], cp);
            }
            if let Some(b) = self.pick_backend(job.algo, &[primary_backend], true) {
                let run = &mut st.runs[shard];
                run.hedged = true;
                let spec = run.resume_spec();
                self.metrics.hedges.inc();
                st.totals.hedges += 1;
                self.launch_attempt(ctx, st, shard, b, job, spec);
            }
        }
    }
}

impl SearchBackend for SupervisedPool {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: "supervised",
            name: format!("supervised(n={})", self.backends.len()),
            slots: self.backends.iter().map(|b| b.descriptor().slots).sum(),
        }
    }

    fn supports(&self, algo: HashAlgo) -> bool {
        self.backends.iter().any(|b| b.supports(algo))
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        let mut totals = Totals::default();
        let ladder = Ladder {
            derive: &DynHashDerive(job.algo),
            target: &job.target,
            s_init: &job.s_init,
            max_d: job.max_d,
            mode: job.mode,
            deadline: job.deadline,
            clock: &self.clock,
            threads: self.backends.len(),
        };
        let mut report =
            ladder.climb(|d, give_up| self.sweep_distance(job, d, give_up, &mut totals));
        report.extras = vec![
            ("redispatches", totals.redispatches),
            ("hedges", totals.hedges),
            ("faults", totals.faults),
            ("stalls", totals.stalls),
            ("wasted_seeds", totals.wasted),
        ];
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use crate::clock::SimClock;
    use crate::engine::{EngineConfig, Outcome};
    use crate::shard::ShardReport;
    use crate::sweep::SearchCost;
    use rbc_hash::HashAlgo;

    fn cpu() -> Arc<dyn SearchBackend> {
        Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
    }

    fn job_for(client: &U256, base: &U256, max_d: u32) -> SearchJob {
        SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(client), *base, max_d)
    }

    fn fast_cfg() -> SupervisedPoolConfig {
        SupervisedPoolConfig {
            checkpoint_interval: 512,
            stall_timeout: Duration::from_millis(500),
            hedge_after: None,
            ..Default::default()
        }
    }

    /// Every shard attempt fails instantly.
    struct FailingBackend;

    impl SearchBackend for FailingBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "failing".into(), slots: 1 }
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            _job: &SearchJob,
            _spec: &ShardSpec,
            _interval: u64,
            _sink: &dyn CheckpointSink,
        ) -> ShardReport {
            ShardReport {
                outcome: ShardOutcome::Faulted { reason: "test fault" },
                swept: 0,
                elapsed: Duration::ZERO,
                cost: SearchCost::default(),
            }
        }
    }

    /// Fails the first `n` shard attempts, then behaves.
    struct FlakyBackend {
        remaining: AtomicU64,
    }

    impl SearchBackend for FlakyBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "flaky".into(), slots: 1 }
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            job: &SearchJob,
            spec: &ShardSpec,
            interval: u64,
            sink: &dyn CheckpointSink,
        ) -> ShardReport {
            if self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return ShardReport {
                    outcome: ShardOutcome::Faulted { reason: "flaky" },
                    swept: 0,
                    elapsed: Duration::ZERO,
                    cost: SearchCost::default(),
                };
            }
            crate::shard::execute_job_shard(job, spec, interval, sink)
        }
    }

    /// Claims a find that does not derive to the target.
    struct LyingBackend;

    impl SearchBackend for LyingBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "lying".into(), slots: 1 }
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            job: &SearchJob,
            _spec: &ShardSpec,
            _interval: u64,
            _sink: &dyn CheckpointSink,
        ) -> ShardReport {
            ShardReport {
                outcome: ShardOutcome::Found { seed: job.s_init.flip_bit(255) },
                swept: 1,
                elapsed: Duration::ZERO,
                cost: SearchCost::default(),
            }
        }
    }

    /// Sleeps (on its clock) without checkpointing, then sweeps
    /// honestly — stall/hedge scenarios run on a virtual timeline.
    struct SleepyBackend {
        sleep: Duration,
        clock: ClockHandle,
    }

    impl SearchBackend for SleepyBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "sleepy".into(), slots: 1 }
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            job: &SearchJob,
            spec: &ShardSpec,
            interval: u64,
            sink: &dyn CheckpointSink,
        ) -> ShardReport {
            self.clock.sleep(self.sleep);
            crate::shard::execute_job_shard(job, spec, interval, sink)
        }
    }

    /// Reports `TimedOut` instantly, with or without a deadline.
    struct SkewedBackend;

    impl SearchBackend for SkewedBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "skewed".into(), slots: 1 }
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            _job: &SearchJob,
            _spec: &ShardSpec,
            _interval: u64,
            _sink: &dyn CheckpointSink,
        ) -> ShardReport {
            ShardReport {
                outcome: ShardOutcome::TimedOut,
                swept: 0,
                elapsed: Duration::ZERO,
                cost: SearchCost::default(),
            }
        }
    }

    #[test]
    fn finds_the_planted_seed_across_the_pool() {
        let base = U256::from_u64(0x11);
        let client = base.flip_bit(3).flip_bit(77);
        let pool = SupervisedPool::new(vec![cpu(), cpu()], fast_cfg());
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        assert_eq!(report.extra("redispatches"), Some(0));
    }

    fn sha1_job(client: &U256, base: &U256, mode: SearchMode) -> SearchJob {
        SearchJob::new(HashAlgo::Sha1, HashAlgo::Sha1.digest_seed(client), *base, 2).with_mode(mode)
    }

    #[test]
    fn exhaustive_searches_bill_the_whole_space_like_the_engine() {
        let base = U256::from_u64(0x1234);
        let client = base.flip_bit(17).flip_bit(171);
        let job = sha1_job(&client, &base, SearchMode::Exhaustive);
        let pool = SupervisedPool::new(vec![cpu(), cpu()], fast_cfg()).submit(&job);
        let engine =
            CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }).submit(&job);
        for report in [&pool, &engine] {
            assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
            let seeds: Vec<u64> = report.per_distance.iter().map(|s| s.seeds).collect();
            assert_eq!(seeds, [1, 256, 32_640], "threads {}", report.threads);
        }
    }

    #[test]
    fn per_distance_seeds_sum_to_seeds_derived() {
        let base = U256::from_u64(0x4321);
        let client = base.flip_bit(9).flip_bit(99);
        for mode in [SearchMode::EarlyExit, SearchMode::Exhaustive] {
            let job = sha1_job(&client, &base, mode);
            let pool = SupervisedPool::new(vec![cpu(), cpu()], fast_cfg()).submit(&job);
            let engine =
                CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }).submit(&job);
            for (name, report) in [("pool", pool), ("engine", engine)] {
                let sum: u64 = report.per_distance.iter().map(|s| s.seeds).sum();
                assert_eq!(sum, report.seeds_derived, "{name} {mode:?}");
                assert_eq!(report.per_distance[0].d, 0, "{name} {mode:?}: the d = 0 row");
            }
        }
    }

    #[test]
    fn exhausts_cleanly_when_the_seed_is_absent() {
        let base = U256::from_u64(0x22);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let pool = SupervisedPool::new(vec![cpu(), cpu()], fast_cfg());
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::NotFound);
        // d0 probe + full d1 + full d2.
        assert_eq!(report.seeds_derived, 1 + 256 + 32_640);
        assert_eq!(report.extra("wasted_seeds"), Some(0));
    }

    #[test]
    fn faulted_shards_are_redispatched_to_a_healthy_backend() {
        let base = U256::from_u64(0x33);
        let client = base.flip_bit(10).flip_bit(200);
        let pool = SupervisedPool::new(vec![Arc::new(FailingBackend), cpu()], fast_cfg());
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        assert!(report.extra("redispatches").unwrap() >= 1);
        assert!(report.extra("faults").unwrap() >= 1);
    }

    #[test]
    fn breaker_opens_on_consecutive_failures_then_recovers() {
        let clock = SimClock::new().handle();
        let mut cfg = fast_cfg();
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.cooldown = Duration::from_millis(200);
        let flaky = Arc::new(FlakyBackend { remaining: AtomicU64::new(3) });
        let pool = SupervisedPool::with_clock(
            vec![flaky, cpu()],
            cfg,
            Arc::new(Registry::new()),
            clock.clone(),
        );
        // The caller thread sleeps and sweeps on the virtual timeline.
        let _actor = clock.enter();
        let base = U256::from_u64(0x44);
        let client = base.flip_bit(5).flip_bit(150);
        let job = job_for(&client, &base, 2);
        // Three faults trip backend 0 open.
        while pool.registry().snapshot().counter("rbc_resilience_backend_0_failures_total")
            != Some(3)
        {
            assert_eq!(pool.submit(&job).outcome, Outcome::Found { seed: client, distance: 2 });
        }
        assert_eq!(pool.breaker_state(0), BreakerState::Open);
        // After the cooldown the breaker admits a probe, and the now
        // healthy backend closes it again. The 220 ms cost no real time.
        clock.sleep(Duration::from_millis(220));
        assert_eq!(pool.breaker_state(0), BreakerState::HalfOpen);
        for _ in 0..4 {
            assert_eq!(pool.submit(&job).outcome, Outcome::Found { seed: client, distance: 2 });
            if pool.breaker_state(0) == BreakerState::Closed {
                break;
            }
            clock.sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.breaker_state(0), BreakerState::Closed);
        let snap = pool.registry().snapshot();
        assert!(snap.counter("rbc_resilience_breaker_trips_total").unwrap() >= 1);
        assert!(snap.counter("rbc_resilience_backend_0_successes_total").unwrap() >= 1);
    }

    #[test]
    fn corrupted_found_reports_are_rejected_and_recovered() {
        let base = U256::from_u64(0x55);
        let client = base.flip_bit(8).flip_bit(9);
        let pool = SupervisedPool::new(vec![Arc::new(LyingBackend), cpu()], fast_cfg());
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        let snap = pool.registry().snapshot();
        assert!(snap.counter("rbc_resilience_verify_failures_total").unwrap() >= 1);
    }

    #[test]
    fn stalled_attempts_are_superseded() {
        let clock = SimClock::new().handle();
        let mut cfg = fast_cfg();
        cfg.stall_timeout = Duration::from_millis(40);
        let sleepy =
            Arc::new(SleepyBackend { sleep: Duration::from_millis(200), clock: clock.clone() });
        let pool = SupervisedPool::with_clock(
            vec![sleepy, cpu()],
            cfg,
            Arc::new(Registry::new()),
            clock.clone(),
        );
        let _actor = clock.enter();
        let base = U256::from_u64(0x66);
        let client = base.flip_bit(30).flip_bit(222);
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        assert!(report.extra("stalls").unwrap() >= 1);
    }

    #[test]
    fn premature_timeout_reports_are_treated_as_clock_skew() {
        let base = U256::from_u64(0x77);
        let client = base.flip_bit(40).flip_bit(41);
        let pool = SupervisedPool::new(vec![Arc::new(SkewedBackend), cpu()], fast_cfg());
        let mut job = job_for(&client, &base, 2);
        job.deadline = Some(Duration::from_secs(20));
        let report = pool.submit(&job);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        assert!(report.extra("faults").unwrap() >= 1);
    }

    #[test]
    fn straggler_shards_are_hedged_onto_a_second_backend() {
        let clock = SimClock::new().handle();
        let mut cfg = fast_cfg();
        cfg.stall_timeout = Duration::from_secs(10);
        cfg.hedge_after = Some(Duration::from_millis(20));
        let sleepy =
            Arc::new(SleepyBackend { sleep: Duration::from_millis(250), clock: clock.clone() });
        let pool = SupervisedPool::with_clock(
            vec![sleepy, cpu()],
            cfg,
            Arc::new(Registry::new()),
            clock.clone(),
        );
        let _actor = clock.enter();
        let base = U256::from_u64(0x88);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::NotFound);
        assert!(report.extra("hedges").unwrap() >= 1);
    }

    /// Faults the first attempt of every distance-1 shard, then sweeps
    /// honestly. `supports` holds the supervisor for a few real
    /// milliseconds with `busy` raised; a worker that runs while the
    /// supervisor is still applying events sees it.
    struct SlowPickBackend {
        faulted: Mutex<HashSet<u64>>,
        busy: AtomicBool,
        saw_busy: AtomicBool,
    }

    impl SearchBackend for SlowPickBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "test", name: "slow-pick".into(), slots: 1 }
        }
        fn supports(&self, _algo: HashAlgo) -> bool {
            self.busy.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(10));
            self.busy.store(false, Ordering::SeqCst);
            true
        }
        fn submit(&self, _job: &SearchJob) -> SearchReport {
            unreachable!("pool tests drive the shard path only")
        }
        fn run_shard(
            &self,
            job: &SearchJob,
            spec: &ShardSpec,
            interval: u64,
            sink: &dyn CheckpointSink,
        ) -> ShardReport {
            if self.busy.load(Ordering::SeqCst) {
                self.saw_busy.store(true, Ordering::SeqCst);
            }
            if spec.d == 1 && self.faulted.lock().insert(spec.shard_id) {
                return ShardReport {
                    outcome: ShardOutcome::Faulted { reason: "first attempt" },
                    swept: 0,
                    elapsed: Duration::ZERO,
                    cost: SearchCost::default(),
                };
            }
            crate::shard::execute_job_shard(job, spec, interval, sink)
        }
    }

    #[test]
    fn virtual_attempts_start_only_once_the_supervisor_parks() {
        // Both distance-1 shards fault in the same tick, so the
        // supervisor re-dispatches the first and then picks a backend
        // for the second. The first re-dispatch must not be running
        // during that pick, nor any launch during the picks that follow.
        let sim = SimClock::new();
        let clock = sim.handle();
        let backend = Arc::new(SlowPickBackend {
            faulted: Mutex::new(HashSet::new()),
            busy: AtomicBool::new(false),
            saw_busy: AtomicBool::new(false),
        });
        let pool = SupervisedPool::with_clock(
            vec![backend.clone(), backend.clone()],
            fast_cfg(),
            Arc::new(Registry::new()),
            clock.clone(),
        );
        let _actor = clock.enter();
        let base = U256::from_u64(0x77);
        let client = base.flip_bit(8).flip_bit(200);
        let report = pool.submit(&job_for(&client, &base, 2));
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
        assert_eq!(report.extra("redispatches"), Some(2));
        assert!(!backend.saw_busy.load(Ordering::SeqCst), "a worker ran mid-batch");
    }

    #[test]
    fn deadline_budget_bounds_the_whole_recovery_dance() {
        // Every backend always faults: the pool burns its re-dispatch
        // budget and must report a timeout, never a false NotFound.
        let pool = SupervisedPool::new(
            vec![Arc::new(FailingBackend), Arc::new(FailingBackend)],
            fast_cfg(),
        );
        let base = U256::from_u64(0x99);
        let client = base.flip_bit(6).flip_bit(7);
        let mut job = job_for(&client, &base, 2);
        job.deadline = Some(Duration::from_millis(200));
        let report = pool.submit(&job);
        assert!(matches!(report.outcome, Outcome::TimedOut { .. }), "got {:?}", report.outcome);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The recovery dance's deadline arithmetic saturates on both
            /// clocks: whatever the threshold (including zero and values
            /// smaller than a single redispatch), an always-faulting pool
            /// reports `TimedOut` — never a panic from an underflowed
            /// budget, and never a false `NotFound`.
            #[test]
            fn exhausted_budgets_time_out_under_both_clocks(
                deadline_ms in 0u64..=100,
                hedge_ms in 0u64..=50,
                use_sim in any::<bool>(),
            ) {
                let clock: ClockHandle =
                    if use_sim { SimClock::new().handle() } else { wall_clock() };
                let _actor = clock.enter();
                let mut cfg = fast_cfg();
                // 0 = hedging off; otherwise an aggressive hedge timer
                // stresses the stall/hedge delay arithmetic.
                cfg.hedge_after = (hedge_ms > 0).then(|| Duration::from_millis(hedge_ms));
                let pool = SupervisedPool::with_clock(
                    vec![Arc::new(FailingBackend), Arc::new(FailingBackend)],
                    cfg,
                    Arc::new(Registry::new()),
                    clock.clone(),
                );
                let base = U256::from_u64(0x99);
                let client = base.flip_bit(6).flip_bit(7);
                let mut job = job_for(&client, &base, 2);
                job.deadline = Some(Duration::from_millis(deadline_ms));
                let report = pool.submit(&job);
                prop_assert!(
                    matches!(report.outcome, Outcome::TimedOut { .. }),
                    "faulting pool must time out, got {:?}",
                    report.outcome
                );
            }
        }
    }

    #[test]
    fn p99_latency_can_trip_the_breaker() {
        let mut cfg = fast_cfg();
        cfg.breaker.p99_limit = Some(Duration::from_nanos(1));
        cfg.breaker.min_samples = 1;
        let pool = SupervisedPool::new(vec![cpu(), cpu()], cfg);
        let base = U256::from_u64(0xAA);
        let client = base.flip_bit(1).flip_bit(2).flip_bit(3).flip_bit(4);
        let _ = pool.submit(&job_for(&client, &base, 2));
        assert!(
            pool.breaker_state(0) != BreakerState::Closed
                || pool.breaker_state(1) != BreakerState::Closed
        );
    }
}
