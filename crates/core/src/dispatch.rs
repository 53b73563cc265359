//! The dispatcher: a bounded-queue scheduler over a pool of
//! [`SearchBackend`]s.
//!
//! The ROADMAP's north star is a CA serving many concurrent
//! authentications across heterogeneous hardware. The protocol gives each
//! authentication a hard response threshold `T` (20 s in the paper), and
//! that budget covers *everything* the server does — including time the
//! request spends queued behind other clients. The dispatcher therefore:
//!
//! * admits at most [`DispatcherConfig::queue_limit`] waiting requests,
//!   shedding the excess immediately (an overload signal the service maps
//!   to `Verdict::Overloaded` so clients retry instead of silently timing
//!   out);
//! * hands each admitted job to the least-loaded compatible backend
//!   (in-flight over slots, lowest pool index on a tie) the moment one
//!   has a free slot;
//! * derives the job's search deadline as `T` minus the time it waited in
//!   the queue, so a slow queue never silently extends the protocol
//!   threshold — a request that waits too long is rejected, not stretched;
//! * aggregates per-request latencies, queue waits, rejects and
//!   per-backend busy time into `rbc_dispatch_*` metrics of an
//!   [`rbc_telemetry::Registry`], from which [`DispatchStats`] reads the
//!   service layer's p50/p95/p99 reporting. The registry can be shared
//!   with the other pipeline layers (see
//!   [`crate::service::AuthService::with_recorder`]) so one snapshot
//!   covers the whole auth flow; percentiles come from the shared
//!   log-linear [`rbc_telemetry::Histogram`] — the dispatcher no longer
//!   keeps per-request latency `Vec`s or its own percentile code.
//!
//! Synchronization is a `Mutex` + `Condvar` pair: submitting threads
//! block (bounded by their remaining budget) until a compatible backend
//! frees a slot. Completion notifies all waiters; each re-checks its own
//! deadline, so no request can deadlock past its budget.
//!
//! The dispatcher lock guards only scheduling bookkeeping (in-flight
//! counts, waiter count) — every invariant holds
//! between lock acquisitions, so a panic on one submitting thread must
//! not cascade into every later authentication failing on a poisoned
//! mutex. Lock acquisitions recover the guard with
//! [`std::sync::PoisonError::into_inner`] and count the recovery in
//! `rbc_dispatch_lock_poisoned_total` instead of panicking.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rbc_telemetry::{sanitize, Counter, Gauge, Histogram, Registry};

use crate::backend::{BackendDescriptor, SearchBackend, SearchJob};
use crate::clock::{wall_clock, ClockHandle, SIM_POLL_TICK};
use crate::engine::SearchReport;

/// How the dispatcher picks among backends with free slots. One policy
/// remains; the enum and [`DispatcherConfig::policy`] stay only until
/// the benchmark package, which names them, next changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Pick the backend with the lowest in-flight/slots load; on a tie,
    /// the lowest pool index.
    LeastLoaded,
}

/// Dispatcher policy knobs.
#[derive(Clone, Debug)]
pub struct DispatcherConfig {
    /// Maximum requests allowed to wait for a backend; arrivals beyond
    /// this are shed immediately.
    pub queue_limit: usize,
    /// Per-request budget `T` covering queue wait + search (the paper's
    /// 20 s threshold).
    pub budget: Duration,
    /// Routing policy (only [`RoutePolicy::LeastLoaded`] exists).
    pub policy: RoutePolicy,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            queue_limit: 64,
            budget: Duration::from_secs(20),
            policy: RoutePolicy::LeastLoaded,
        }
    }
}

/// How one submission ended.
#[derive(Debug)]
pub enum DispatchOutcome {
    /// The job ran on `backend` (index into the pool) after waiting
    /// `queue_wait` for a slot.
    Completed {
        /// Pool index of the backend that ran the job.
        backend: usize,
        /// Time spent waiting for a free slot.
        queue_wait: Duration,
        /// On-device time for this job (submit-to-report, excluding
        /// queueing) — the denominator a cost receipt's hashes/sec
        /// calibration divides by.
        busy: Duration,
        /// The chosen backend's cumulative utilization at completion,
        /// fixed-point ×1000 (1000 = fully busy since construction).
        occupancy_permille: u32,
        /// The backend's report.
        report: SearchReport,
    },
    /// The job was shed: the queue was full on arrival, the budget
    /// expired before a slot freed up, or no backend supports the job's
    /// algorithm.
    Overloaded {
        /// Time spent waiting before the rejection.
        queue_wait: Duration,
    },
}

/// Per-backend aggregate accounting.
#[derive(Clone, Debug)]
pub struct BackendUtilization {
    /// The backend's descriptor.
    pub descriptor: BackendDescriptor,
    /// Jobs completed on this backend.
    pub jobs: u64,
    /// Total busy (searching) time.
    pub busy: Duration,
    /// Busy time as a fraction of the dispatcher's lifetime.
    pub utilization: f64,
}

/// Snapshot of the dispatcher's aggregate accounting.
#[derive(Clone, Debug)]
pub struct DispatchStats {
    /// Requests completed on some backend.
    pub completed: u64,
    /// Requests shed (queue full, budget exhausted, or unsupported).
    pub rejected: u64,
    /// Requests currently waiting for a slot.
    pub queue_depth: usize,
    /// Highest number of simultaneous waiters observed.
    pub peak_queue_depth: usize,
    /// Median end-to-end latency (queue wait + search) of completed
    /// requests. Percentiles are read from the shared log-linear
    /// histogram and are upper bounds accurate to
    /// [`Histogram::RELATIVE_ERROR`] (~3 %).
    pub p50_latency: Duration,
    /// 95th-percentile latency.
    pub p95_latency: Duration,
    /// 99th-percentile latency.
    pub p99_latency: Duration,
    /// Mean queue wait of completed requests (exact: the histogram's
    /// sum/count accumulators carry no bucketing error).
    pub mean_queue_wait: Duration,
    /// Per-backend jobs, busy time and utilization.
    pub per_backend: Vec<BackendUtilization>,
}

/// Scheduling state under the dispatcher lock. Aggregate accounting
/// lives in [`Metrics`], off the lock entirely.
struct Shared {
    in_flight: Vec<usize>,
    waiting: usize,
}

/// The dispatcher's `rbc_dispatch_*` metrics: handles into the (possibly
/// shared) registry, resolved once at construction.
struct Metrics {
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    lock_poisoned: Arc<Counter>,
    latency_ns: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    peak_queue_depth: Arc<Gauge>,
    backend_jobs: Vec<Arc<Counter>>,
    backend_busy_ns: Vec<Arc<Counter>>,
    backend_in_flight: Vec<Arc<Gauge>>,
    backend_utilization: Vec<Arc<Gauge>>,
}

impl Metrics {
    fn register(registry: &Registry, descriptors: &[BackendDescriptor]) -> Self {
        let per_backend = |suffix: &str| {
            descriptors
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    registry
                        .counter(&format!("rbc_dispatch_backend_{i}_{}_{suffix}", sanitize(d.kind)))
                })
                .collect()
        };
        let per_backend_gauge = |family: &str, suffix: &str| {
            descriptors
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    registry.gauge(&format!("{family}_{i}_{}_{suffix}", sanitize(d.kind)))
                })
                .collect()
        };
        Metrics {
            completed: registry.counter("rbc_dispatch_completed_total"),
            rejected: registry.counter("rbc_dispatch_shed_total"),
            lock_poisoned: registry.counter("rbc_dispatch_lock_poisoned_total"),
            latency_ns: registry.histogram("rbc_dispatch_latency_ns"),
            queue_wait_ns: registry.histogram("rbc_dispatch_queue_wait_ns"),
            queue_depth: registry.gauge("rbc_dispatch_queue_depth"),
            peak_queue_depth: registry.gauge("rbc_dispatch_peak_queue_depth"),
            backend_jobs: per_backend("jobs_total"),
            backend_busy_ns: per_backend("busy_ns_total"),
            // Live per-backend occupancy and utilization, so a monitor
            // can watch one substrate pin while the others idle — the
            // whole-run averages in `stats()` hide that as it develops.
            backend_in_flight: per_backend_gauge("rbc_dispatch_backend", "queue_depth"),
            backend_utilization: per_backend_gauge("rbc_backend", "utilization_ratio"),
        }
    }
}

/// A pool of search backends behind a bounded work queue.
pub struct Dispatcher {
    backends: Vec<Arc<dyn SearchBackend>>,
    descriptors: Vec<BackendDescriptor>,
    cfg: DispatcherConfig,
    shared: Mutex<Shared>,
    slot_freed: Condvar,
    clock: ClockHandle,
    started: Instant,
    registry: Arc<Registry>,
    metrics: Metrics,
}

impl Dispatcher {
    /// Builds a dispatcher over a non-empty pool, with its own private
    /// metrics registry.
    pub fn new(backends: Vec<Arc<dyn SearchBackend>>, cfg: DispatcherConfig) -> Self {
        Self::with_registry(backends, cfg, Arc::new(Registry::new()))
    }

    /// Builds a dispatcher that registers its `rbc_dispatch_*` metrics in
    /// `registry` — share one registry across the dispatcher, the
    /// service and the backends to get a single whole-pipeline snapshot.
    pub fn with_registry(
        backends: Vec<Arc<dyn SearchBackend>>,
        cfg: DispatcherConfig,
        registry: Arc<Registry>,
    ) -> Self {
        Self::with_clock(backends, cfg, registry, wall_clock())
    }

    /// [`with_registry`](Self::with_registry) reading all budgets, queue
    /// waits and busy times from `clock` — pass a
    /// [`SimClock`](crate::clock::SimClock) handle to run the scheduler
    /// on a virtual timeline.
    pub fn with_clock(
        backends: Vec<Arc<dyn SearchBackend>>,
        cfg: DispatcherConfig,
        registry: Arc<Registry>,
        clock: ClockHandle,
    ) -> Self {
        assert!(!backends.is_empty(), "dispatcher needs at least one backend");
        let n = backends.len();
        let descriptors: Vec<BackendDescriptor> = backends.iter().map(|b| b.descriptor()).collect();
        let metrics = Metrics::register(&registry, &descriptors);
        let started = clock.now();
        Dispatcher {
            backends,
            descriptors,
            cfg,
            shared: Mutex::new(Shared { in_flight: vec![0; n], waiting: 0 }),
            slot_freed: Condvar::new(),
            clock,
            started,
            registry,
            metrics,
        }
    }

    /// The registry holding this dispatcher's metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The clock every budget and latency in this dispatcher reads.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The pool's descriptors, in pool order.
    pub fn descriptors(&self) -> &[BackendDescriptor] {
        &self.descriptors
    }

    /// The dispatcher's configuration.
    pub fn config(&self) -> &DispatcherConfig {
        &self.cfg
    }

    /// Instantaneous number of requests waiting for a backend slot — a
    /// cheap pressure signal (one lock, no percentile math) for
    /// admission layers that must sample queue depth on every request.
    pub fn queue_depth(&self) -> usize {
        self.lock_shared().waiting
    }

    /// Locks the scheduling state, recovering from poisoning: the state
    /// is consistent between acquisitions (a panicking submitter either
    /// hadn't incremented its counters yet or is unwinding past a
    /// completed update), so a cascade of
    /// "PoisonError" panics across unrelated requests would turn one
    /// crashed thread into a full outage. Recoveries are counted in
    /// `rbc_dispatch_lock_poisoned_total`.
    fn lock_shared(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| {
            self.metrics.lock_poisoned.inc();
            e.into_inner()
        })
    }

    /// Runs `job` on the pool, blocking until a backend finishes it or
    /// the request is shed.
    ///
    /// The effective search deadline is the minimum of the job's own
    /// deadline and the budget remaining after queue wait, so the
    /// protocol threshold `T` bounds queue wait *plus* search.
    pub fn submit(&self, job: &SearchJob) -> DispatchOutcome {
        let arrived = self.clock.now();
        let give_up = arrived + self.cfg.budget;
        let mut g = self.lock_shared();

        if !self.backends.iter().any(|b| b.supports(job.algo)) {
            self.metrics.rejected.inc();
            return DispatchOutcome::Overloaded { queue_wait: Duration::ZERO };
        }
        // A zero budget is spent on arrival; shed rather than burn a
        // slot on a zero-deadline search.
        if self.clock.now() >= give_up {
            self.metrics.rejected.inc();
            return DispatchOutcome::Overloaded {
                queue_wait: self.clock.now().saturating_duration_since(arrived),
            };
        }
        let chosen = match self.pick(&g, job) {
            // A free slot on arrival: dispatch without queueing, no
            // admission check — the queue limit bounds *waiters* only.
            Some(i) => i,
            None => {
                // Admission control: a full queue already implies the
                // budget will blow for this arrival — shed now so the
                // client can retry.
                if g.waiting >= self.cfg.queue_limit {
                    self.metrics.rejected.inc();
                    return DispatchOutcome::Overloaded { queue_wait: Duration::ZERO };
                }
                g.waiting += 1;
                self.metrics.queue_depth.set(g.waiting as i64);
                self.metrics.peak_queue_depth.max(g.waiting as i64);
                loop {
                    if let Some(i) = self.pick(&g, job) {
                        g.waiting -= 1;
                        self.metrics.queue_depth.set(g.waiting as i64);
                        break i;
                    }
                    let now = self.clock.now();
                    if now >= give_up {
                        g.waiting -= 1;
                        self.metrics.queue_depth.set(g.waiting as i64);
                        self.metrics.rejected.inc();
                        return DispatchOutcome::Overloaded {
                            queue_wait: now.saturating_duration_since(arrived),
                        };
                    }
                    if self.clock.is_virtual() {
                        // On the virtual timeline the condvar can't be
                        // woken by virtual time advancing, so poll at
                        // tick granularity: release the scheduler lock
                        // (completers need it to free slots), park one
                        // tick, re-acquire and re-check. `waiting` stays
                        // incremented across the sleep, so admission
                        // control sees this request exactly as the wall
                        // path would.
                        drop(g);
                        self.clock.sleep(SIM_POLL_TICK.min(give_up - now));
                        g = self.lock_shared();
                    } else {
                        g = self
                            .slot_freed
                            .wait_timeout(g, give_up - now)
                            .unwrap_or_else(|e| {
                                self.metrics.lock_poisoned.inc();
                                e.into_inner()
                            })
                            .0;
                    }
                }
            }
        };
        g.in_flight[chosen] += 1;
        self.metrics.backend_in_flight[chosen].set(g.in_flight[chosen] as i64);
        drop(g);

        let queue_wait = self.clock.now().saturating_duration_since(arrived);
        let remaining = self.cfg.budget.saturating_sub(queue_wait);
        let mut routed = job.clone();
        routed.deadline = Some(match job.deadline {
            Some(d) => d.min(remaining),
            None => remaining,
        });

        let run_start = self.clock.now();
        let report = self.backends[chosen].submit(&routed);
        let busy = self.clock.now().saturating_duration_since(run_start);

        let mut g = self.lock_shared();
        g.in_flight[chosen] -= 1;
        self.metrics.backend_in_flight[chosen].set(g.in_flight[chosen] as i64);
        drop(g);
        // Aggregate accounting is lock-free: relaxed atomics in the
        // shared registry, off the scheduler's critical section.
        self.metrics.backend_jobs[chosen].inc();
        self.metrics.backend_busy_ns[chosen]
            .add(u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX));
        // Utilization since construction, fixed-point x1000 (a gauge
        // holds integers; 1000 = fully busy).
        let wall_ns =
            u64::try_from(self.clock.now().saturating_duration_since(self.started).as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
        let busy_total = self.metrics.backend_busy_ns[chosen].get();
        let occupancy_permille = ((busy_total as u128 * 1000) / wall_ns as u128).min(1000) as u32;
        self.metrics.backend_utilization[chosen].set(occupancy_permille as i64);
        self.metrics.completed.inc();
        self.metrics.latency_ns.record_duration_traced(
            self.clock.now().saturating_duration_since(arrived),
            job.trace.trace_id,
        );
        self.metrics.queue_wait_ns.record_duration_traced(queue_wait, job.trace.trace_id);
        // Wake every waiter: each re-checks its own budget, so a stale
        // wake-up costs one loop iteration, never a lost slot.
        self.slot_freed.notify_all();

        DispatchOutcome::Completed { backend: chosen, queue_wait, busy, occupancy_permille, report }
    }

    /// The descriptor `kind` of backend `i` (`"cpu"`, `"cluster"`,
    /// `"gpu-sim"`, ...), or `"unknown"` for an out-of-range index —
    /// lets a caller label per-request accounting without holding its
    /// own copy of the pool layout.
    pub fn backend_kind(&self, i: usize) -> &'static str {
        self.descriptors.get(i).map(|d| d.kind).unwrap_or("unknown")
    }

    /// Picks the least-loaded compatible backend with a free slot (the
    /// lowest pool index on a tie), or `None` if all are saturated.
    fn pick(&self, g: &Shared, job: &SearchJob) -> Option<usize> {
        (0..self.backends.len())
            .filter(|&i| {
                g.in_flight[i] < self.descriptors[i].slots.max(1)
                    && self.backends[i].supports(job.algo)
            })
            .min_by(|&a, &b| self.load(g, a).total_cmp(&self.load(g, b)))
    }

    fn load(&self, g: &Shared, i: usize) -> f64 {
        g.in_flight[i] as f64 / self.descriptors[i].slots.max(1) as f64
    }

    /// Snapshot of aggregate accounting since construction.
    pub fn stats(&self) -> DispatchStats {
        let queue_depth = self.lock_shared().waiting;
        let wall =
            self.clock.now().saturating_duration_since(self.started).max(Duration::from_nanos(1));
        let latency = self.metrics.latency_ns.snapshot();
        let queue_wait = self.metrics.queue_wait_ns.snapshot();
        DispatchStats {
            completed: self.metrics.completed.get(),
            rejected: self.metrics.rejected.get(),
            queue_depth,
            peak_queue_depth: self.metrics.peak_queue_depth.get().max(0) as usize,
            p50_latency: latency.percentile_duration(50.0),
            p95_latency: latency.percentile_duration(95.0),
            p99_latency: latency.percentile_duration(99.0),
            mean_queue_wait: queue_wait.mean_duration(),
            per_backend: (0..self.backends.len())
                .map(|i| {
                    let busy = Duration::from_nanos(self.metrics.backend_busy_ns[i].get());
                    BackendUtilization {
                        descriptor: self.descriptors[i].clone(),
                        jobs: self.metrics.backend_jobs[i].get(),
                        busy,
                        utilization: busy.as_secs_f64() / wall.as_secs_f64(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use crate::clock::SimClock;
    use crate::engine::{EngineConfig, Outcome, SearchMode};
    use rbc_bits::U256;
    use rbc_hash::HashAlgo;

    /// A backend that sleeps instead of searching — load-control tests
    /// need controllable service times, not real searches. Sleeps on its
    /// clock, so timing scenarios run on a [`SimClock`] timeline.
    struct SleepBackend {
        delay: Duration,
        slots: usize,
        clock: ClockHandle,
    }

    impl SearchBackend for SleepBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor {
                kind: "cpu",
                name: format!("sleep({:?})", self.delay),
                slots: self.slots,
            }
        }

        fn submit(&self, job: &SearchJob) -> SearchReport {
            self.clock.sleep(self.delay);
            SearchReport {
                outcome: Outcome::NotFound,
                seeds_derived: 0,
                elapsed: self.delay,
                per_distance: Vec::new(),
                algorithm: job.algo.name(),
                threads: 1,
                cost: None,
                extras: Vec::new(),
            }
        }
    }

    /// Records the deadline the dispatcher routed to it, then returns
    /// instantly — the probe for budget-arithmetic properties.
    #[derive(Default)]
    struct CaptureBackend {
        seen: Mutex<Option<Option<Duration>>>,
    }

    impl SearchBackend for CaptureBackend {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { kind: "cpu", name: "capture".into(), slots: 1 }
        }

        fn submit(&self, job: &SearchJob) -> SearchReport {
            *self.seen.lock().unwrap_or_else(|e| e.into_inner()) = Some(job.deadline);
            SearchReport {
                outcome: Outcome::NotFound,
                seeds_derived: 0,
                elapsed: Duration::ZERO,
                per_distance: Vec::new(),
                algorithm: job.algo.name(),
                threads: 1,
                cost: None,
                extras: Vec::new(),
            }
        }
    }

    fn trivial_job() -> SearchJob {
        let base = U256::from_u64(1);
        SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(&base), base, 0)
    }

    fn searching_job(d: u32, max_d: u32) -> SearchJob {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7 + d as u64);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(d, &mut rng);
        SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(&client), base, max_d)
    }

    fn cpu_pool(n: usize) -> Vec<Arc<dyn SearchBackend>> {
        (0..n)
            .map(|_| {
                Arc::new(CpuBackend::new(EngineConfig { threads: 2, ..Default::default() }))
                    as Arc<dyn SearchBackend>
            })
            .collect()
    }

    #[test]
    fn dispatches_and_reports_the_search() {
        let d = Dispatcher::new(cpu_pool(2), DispatcherConfig::default());
        let job = searching_job(2, 3);
        match d.submit(&job) {
            DispatchOutcome::Completed { report, .. } => {
                assert!(matches!(report.outcome, Outcome::Found { distance: 2, .. }));
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let s = d.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.per_backend.iter().map(|b| b.jobs).sum::<u64>(), 1);
    }

    #[test]
    fn least_loaded_breaks_ties_on_the_lowest_index() {
        // Serial arrivals find every backend idle, so each lands on
        // backend 0 — the property `repro triage` relies on to route its
        // first request to the degraded backend listed first.
        let d = Dispatcher::new(cpu_pool(3), DispatcherConfig::default());
        for _ in 0..4 {
            assert!(matches!(d.submit(&trivial_job()), DispatchOutcome::Completed { .. }));
        }
        let jobs: Vec<u64> = d.stats().per_backend.iter().map(|b| b.jobs).collect();
        assert_eq!(jobs, vec![4, 0, 0]);
    }

    #[test]
    fn overload_sheds_beyond_queue_limit() {
        // One slot busy for 200 ms, one waiter allowed, tiny budget: the
        // third concurrent arrival must be shed at admission and the
        // waiter must be shed when its budget expires. Runs on a virtual
        // timeline, so the 200 ms of service cost no real time.
        let clock = SimClock::new().handle();
        let pool: Vec<Arc<dyn SearchBackend>> = vec![Arc::new(SleepBackend {
            delay: Duration::from_millis(200),
            slots: 1,
            clock: clock.clone(),
        })];
        let d = Dispatcher::with_clock(
            pool,
            DispatcherConfig {
                queue_limit: 1,
                budget: Duration::from_millis(60),
                ..Default::default()
            },
            Arc::new(Registry::new()),
            clock.clone(),
        );
        std::thread::scope(|s| {
            let main_guard = clock.enter();
            let g1 = clock.enter();
            let h1 = s.spawn({
                let d = &d;
                move || {
                    let _g = g1;
                    d.submit(&trivial_job())
                }
            });
            clock.sleep(Duration::from_millis(20));
            let g2 = clock.enter();
            let h2 = s.spawn({
                let d = &d;
                move || {
                    let _g = g2;
                    d.submit(&trivial_job())
                }
            });
            clock.sleep(Duration::from_millis(20));
            let g3 = clock.enter();
            let h3 = s.spawn({
                let d = &d;
                move || {
                    let _g = g3;
                    d.submit(&trivial_job())
                }
            });
            // Joining is a real block the clock cannot see: de-register
            // before waiting, or the timeline freezes with us "runnable".
            drop(main_guard);
            let r1 = h1.join().expect("no panic");
            let r2 = h2.join().expect("no panic");
            let r3 = h3.join().expect("no panic");
            assert!(matches!(r1, DispatchOutcome::Completed { .. }), "{r1:?}");
            assert!(matches!(r2, DispatchOutcome::Overloaded { .. }), "budget expires: {r2:?}");
            assert!(matches!(r3, DispatchOutcome::Overloaded { .. }), "queue full: {r3:?}");
        });
        let s = d.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.queue_depth, 0, "no stuck waiters");
    }

    #[test]
    fn queue_wait_shrinks_the_search_deadline() {
        // Budget 80 ms; the first job occupies the only slot for 50 ms,
        // so the second's effective search deadline is ≲ 30 ms and its
        // (slow) search must report a timeout rather than run to
        // completion.
        let clock = SimClock::new().handle();
        let sleeper = Arc::new(SleepBackend {
            delay: Duration::from_millis(50),
            slots: 1,
            clock: clock.clone(),
        }) as Arc<dyn SearchBackend>;
        let cpu = Arc::new(CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }))
            as Arc<dyn SearchBackend>;
        // Two dispatchers share nothing; run the timing check on one pool
        // where both jobs land on the sleeper first, then the real search.
        let d = Dispatcher::with_clock(
            vec![sleeper],
            DispatcherConfig {
                queue_limit: 4,
                budget: Duration::from_millis(80),
                ..Default::default()
            },
            Arc::new(Registry::new()),
            clock.clone(),
        );
        std::thread::scope(|s| {
            let main_guard = clock.enter();
            let g1 = clock.enter();
            let h1 = s.spawn({
                let d = &d;
                move || {
                    let _g = g1;
                    d.submit(&trivial_job())
                }
            });
            clock.sleep(Duration::from_millis(10));
            // Second arrival waits ~40 ms, leaving ~40 ms of budget: it
            // must be admitted (not shed) and carry a reduced deadline.
            let g2 = clock.enter();
            let h2 = s.spawn({
                let d = &d;
                move || {
                    let _g = g2;
                    d.submit(&trivial_job())
                }
            });
            drop(main_guard);
            assert!(matches!(h1.join().expect("ok"), DispatchOutcome::Completed { .. }));
            match h2.join().expect("ok") {
                DispatchOutcome::Completed { queue_wait, .. } => {
                    // On the virtual timeline the wait is exact up to one
                    // poll tick: slot frees at 50 ms, arrival was 10 ms.
                    assert!(queue_wait >= Duration::from_millis(40), "{queue_wait:?}");
                    assert!(queue_wait <= Duration::from_millis(42), "{queue_wait:?}");
                }
                other => panic!("expected completion, got {other:?}"),
            }
        });
        // The deadline derivation itself: a real CPU search submitted
        // with no job deadline inherits the dispatcher budget.
        let d2 = Dispatcher::new(
            vec![cpu],
            DispatcherConfig {
                queue_limit: 4,
                budget: Duration::from_nanos(1),
                ..Default::default()
            },
        );
        match d2.submit(&searching_job(3, 3)) {
            DispatchOutcome::Completed { report, .. } => {
                assert!(
                    matches!(report.outcome, Outcome::TimedOut { .. }),
                    "zero budget must time the search out: {:?}",
                    report.outcome
                );
            }
            DispatchOutcome::Overloaded { .. } => {} // also acceptable: shed pre-search
        }
    }

    #[test]
    fn unsupported_algorithm_is_shed_not_deadlocked() {
        struct Sha1Only;
        impl SearchBackend for Sha1Only {
            fn descriptor(&self) -> BackendDescriptor {
                BackendDescriptor { kind: "cpu", name: "sha1-only".into(), slots: 1 }
            }
            fn supports(&self, algo: HashAlgo) -> bool {
                algo == HashAlgo::Sha1
            }
            fn submit(&self, _job: &SearchJob) -> SearchReport {
                unreachable!("dispatcher must not route unsupported jobs here")
            }
        }
        let d = Dispatcher::new(
            vec![Arc::new(Sha1Only) as Arc<dyn SearchBackend>],
            DispatcherConfig::default(),
        );
        let out = d.submit(&trivial_job()); // SHA3 job
        assert!(matches!(out, DispatchOutcome::Overloaded { .. }));
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    fn concurrent_submissions_complete_without_deadlock() {
        let d = Dispatcher::new(
            cpu_pool(3),
            DispatcherConfig { queue_limit: 32, ..Default::default() },
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    let d = &d;
                    s.spawn(move || d.submit(&searching_job(i % 3, 2)))
                })
                .collect();
            for h in handles {
                assert!(matches!(h.join().expect("no panic"), DispatchOutcome::Completed { .. }));
            }
        });
        let s = d.stats();
        assert_eq!(s.completed, 12);
        assert_eq!(s.queue_depth, 0);
        assert!(s.p50_latency <= s.p95_latency && s.p95_latency <= s.p99_latency);
    }

    #[test]
    fn mode_and_exhaustive_counts_survive_dispatch() {
        let d = Dispatcher::new(cpu_pool(1), DispatcherConfig::default());
        let job = searching_job(1, 2).with_mode(SearchMode::Exhaustive);
        match d.submit(&job) {
            DispatchOutcome::Completed { report, .. } => {
                assert_eq!(report.seeds_derived, 1 + 256 + 32_640);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn histogram_percentiles_match_the_retired_sorted_vec_implementation() {
        // The dispatcher used to keep every latency in a Vec and compute
        // nearest-rank percentiles by sorting it. That implementation is
        // retired in favour of the shared log-linear histogram; this
        // regression test keeps the old computation inline as the oracle
        // and pins the migrated p50/p95/p99 to it within the histogram's
        // documented relative-error bound.
        fn nearest_rank(sorted: &[Duration], p: f64) -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank.min(sorted.len() - 1)]
        }

        // A fixed latency sample with a heavy tail (LCG-scrambled,
        // 50 µs – ~500 ms), the shape real dispatch latencies have.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let sample: Vec<Duration> = (0..1000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let micros = 50 + (x >> 33) % 500_000;
                Duration::from_micros(micros)
            })
            .collect();

        let hist = Histogram::new();
        for &d in &sample {
            hist.record_duration(d);
        }
        let snap = hist.snapshot();
        let mut sorted = sample.clone();
        sorted.sort_unstable();

        for p in [50.0f64, 95.0, 99.0] {
            let old = nearest_rank(&sorted, p);
            let new = snap.percentile_duration(p);
            assert!(new >= old, "p{p}: histogram {new:?} below oracle {old:?}");
            let err = (new - old).as_secs_f64() / old.as_secs_f64();
            assert!(
                err <= Histogram::RELATIVE_ERROR,
                "p{p}: histogram {new:?} vs oracle {old:?}, err {err}"
            );
        }
        // Both agree exactly on the empty case.
        assert_eq!(nearest_rank(&[], 50.0), Duration::ZERO);
        assert_eq!(Histogram::new().snapshot().percentile_duration(50.0), Duration::ZERO);
    }

    #[test]
    fn poisoned_lock_recovers_and_is_counted() {
        // Poison the dispatcher's mutex by panicking while holding it,
        // then verify later submissions still complete and the recovery
        // counter ticks — one crashed thread must not take down the CA.
        let registry = Arc::new(Registry::new());
        let d = Arc::new(Dispatcher::with_registry(
            cpu_pool(1),
            DispatcherConfig::default(),
            registry.clone(),
        ));
        let d2 = d.clone();
        let _ = std::thread::spawn(move || {
            let _g = d2.shared.lock().unwrap();
            panic!("poison the dispatcher lock");
        })
        .join();
        assert!(d.shared.is_poisoned(), "the panic above must have poisoned the lock");

        let out = d.submit(&trivial_job());
        assert!(matches!(out, DispatchOutcome::Completed { .. }), "{out:?}");
        let s = d.stats();
        assert_eq!(s.completed, 1);
        assert!(
            registry.snapshot().counter("rbc_dispatch_lock_poisoned_total").unwrap() >= 1,
            "recoveries are observable"
        );
    }

    #[test]
    fn dispatcher_metrics_land_in_a_shared_registry() {
        let registry = Arc::new(Registry::new());
        let d =
            Dispatcher::with_registry(cpu_pool(2), DispatcherConfig::default(), registry.clone());
        for _ in 0..3 {
            assert!(matches!(d.submit(&trivial_job()), DispatchOutcome::Completed { .. }));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rbc_dispatch_completed_total"), Some(3));
        assert_eq!(snap.counter("rbc_dispatch_shed_total"), Some(0));
        assert_eq!(snap.histogram("rbc_dispatch_latency_ns").unwrap().count, 3);
        let jobs0 = snap.counter("rbc_dispatch_backend_0_cpu_jobs_total").unwrap();
        let jobs1 = snap.counter("rbc_dispatch_backend_1_cpu_jobs_total").unwrap();
        assert_eq!(jobs0 + jobs1, 3, "per-backend job counters cover every completion");
        // DispatchStats reads from the same metrics.
        let s = d.stats();
        assert_eq!(s.completed, 3);
        assert_eq!(s.per_backend.iter().map(|b| b.jobs).sum::<u64>(), 3);
    }

    #[test]
    fn per_backend_gauges_track_occupancy_and_utilization() {
        let clock = SimClock::new().handle();
        let _guard = clock.enter();
        let registry = Arc::new(Registry::new());
        let sleeper = Arc::new(SleepBackend {
            delay: Duration::from_millis(40),
            slots: 1,
            clock: clock.clone(),
        });
        let d = Dispatcher::with_clock(
            vec![sleeper],
            DispatcherConfig::default(),
            registry.clone(),
            clock.clone(),
        );
        // Idle for 40 ms first so the busy fraction is a clean 50%.
        clock.sleep(Duration::from_millis(40));
        assert!(matches!(d.submit(&trivial_job()), DispatchOutcome::Completed { .. }));

        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge("rbc_dispatch_backend_0_cpu_queue_depth"),
            Some(0),
            "occupancy gauge returns to zero after completion"
        );
        // 40 ms busy over 80 ms wall on the virtual timeline: exactly
        // half, fixed-point x1000.
        assert_eq!(snap.gauge("rbc_backend_0_cpu_utilization_ratio"), Some(500));
    }

    #[test]
    fn poisoning_under_concurrent_load_is_counted_and_survived() {
        // Several threads panic while holding the scheduler lock, racing
        // a batch of real submissions: every submission must still
        // complete, the recovery counter must tick, and the dispatcher
        // must keep serving afterwards.
        let registry = Arc::new(Registry::new());
        let d = Arc::new(Dispatcher::with_registry(
            cpu_pool(2),
            DispatcherConfig { queue_limit: 64, ..Default::default() },
            registry.clone(),
        ));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let _ = std::thread::spawn(move || {
                        let _g = d.shared.lock().unwrap();
                        panic!("inject lock poison");
                    })
                    .join();
                });
            }
            for i in 0..8 {
                let d = d.clone();
                s.spawn(move || {
                    let out = d.submit(&searching_job(i % 2, 2));
                    assert!(matches!(out, DispatchOutcome::Completed { .. }), "{out:?}");
                });
            }
        });
        assert_eq!(d.stats().completed, 8);
        // All poisoners have run by now; the next submission provably
        // crosses a poisoned lock and must both recover and be counted.
        assert!(d.shared.is_poisoned());
        assert!(matches!(d.submit(&trivial_job()), DispatchOutcome::Completed { .. }));
        assert_eq!(d.stats().completed, 9);
        assert!(
            registry.snapshot().counter("rbc_dispatch_lock_poisoned_total").unwrap() >= 1,
            "concurrent poison recoveries are observable"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// A fresh arrival's routed deadline is the smaller of the
            /// budget and the job's own deadline, on both clocks; a zero
            /// budget is shed (never a zero-deadline search smuggled to
            /// a backend).
            #[test]
            fn routed_deadline_is_capped_by_budget_and_job_under_both_clocks(
                budget_ms in 0u64..=200,
                deadline_ms in 0u64..=200,
                use_sim in any::<bool>(),
            ) {
                let clock: ClockHandle =
                    if use_sim { SimClock::new().handle() } else { wall_clock() };
                let _actor = clock.enter();
                let capture = Arc::new(CaptureBackend::default());
                let d = Dispatcher::with_clock(
                    vec![capture.clone()],
                    DispatcherConfig {
                        budget: Duration::from_millis(budget_ms),
                        ..Default::default()
                    },
                    Arc::new(Registry::new()),
                    clock.clone(),
                );
                let mut job = trivial_job();
                job.deadline = Some(Duration::from_millis(deadline_ms));
                match d.submit(&job) {
                    DispatchOutcome::Completed { queue_wait, .. } => {
                        let seen = capture
                            .seen
                            .lock()
                            .unwrap()
                            .take()
                            .expect("backend ran")
                            .expect("dispatcher always sets a deadline");
                        let cap = Duration::from_millis(deadline_ms.min(budget_ms));
                        prop_assert!(seen <= cap, "routed {seen:?} beyond cap {cap:?}");
                        if use_sim {
                            // Frozen virtual time makes the arithmetic
                            // exact: no wait, the deadline is the cap.
                            prop_assert_eq!(queue_wait, Duration::ZERO);
                            prop_assert_eq!(seen, cap);
                        }
                    }
                    DispatchOutcome::Overloaded { .. } => {
                        // Shedding an idle pool's arrival is only legal
                        // once the budget is spent (one real-clock tick
                        // of slack on the wall path).
                        prop_assert!(
                            budget_ms <= u64::from(!use_sim),
                            "shed a live request with budget {budget_ms}"
                        );
                    }
                }
            }
        }
    }
}
