//! Uniform access to every search substrate: the [`SearchBackend`] trait.
//!
//! The paper's central claim is that RBC-SALTED makes the server's search
//! *algorithm-agnostic* — any device that can hash candidate seeds can
//! authenticate any client. This module makes the repro *device-agnostic*
//! to match: a [`SearchJob`] describes one authentication search
//! independently of hardware, and every substrate (the CPU
//! [`SearchEngine`], the message-passing cluster engine, and — in
//! `rbc-accel` — the GPU and APU functional simulators) implements
//! [`SearchBackend`] to execute it. The CA, the dispatcher, the repro
//! harness and the examples all call `submit` instead of four bespoke
//! entry points.
//!
//! Functional equivalence is the contract: for the same job, every
//! backend must return the same [`Outcome`] (same found seed, same
//! distance) — enforced by the cross-backend integration tests. Host
//! searches bill their batched-loop cost in [`SearchReport::cost`];
//! device specifics (kernel launches, hash waves, PE counts, cluster
//! messages) travel in [`SearchReport::extras`] so harnesses keep their
//! per-substrate reporting through the uniform interface.

use std::sync::Arc;
use std::time::Duration;

use rbc_bits::U256;
use rbc_hash::{DynDigest, HashAlgo};
use rbc_telemetry::{sanitize, Counter, Histogram, Registry, TraceContext};

use crate::clock::{wall_clock, ClockHandle};
use crate::cluster::{cluster_search, ClusterConfig};
use crate::derive::DynHashDerive;
use crate::engine::{
    EngineConfig, EngineTelemetry, Outcome, SearchEngine, SearchMode, SearchReport,
};
use crate::shard::{CheckpointSink, ShardReport, ShardSpec};

/// One RBC-SALTED search, described independently of the device that will
/// run it: "is any seed within Hamming distance `max_d` of `s_init`
/// hashing to `target` under `algo`?"
#[derive(Clone, Debug)]
pub struct SearchJob {
    /// Hash algorithm of the client's digest.
    pub algo: HashAlgo,
    /// The digest `M₁` to match.
    pub target: DynDigest,
    /// The enrolled reference image the search is centred on.
    pub s_init: U256,
    /// Maximum Hamming distance searched.
    pub max_d: u32,
    /// Termination policy.
    pub mode: SearchMode,
    /// Per-job deadline (the threshold `T`, possibly reduced by queue
    /// wait). `None` disables the timeout.
    pub deadline: Option<Duration>,
    /// Trace identity of the authentication this search serves;
    /// [`TraceContext::NONE`] for jobs run outside a traced request.
    pub trace: TraceContext,
}

impl SearchJob {
    /// An early-exit job with no deadline — the common case.
    pub fn new(algo: HashAlgo, target: DynDigest, s_init: U256, max_d: u32) -> Self {
        SearchJob {
            algo,
            target,
            s_init,
            max_d,
            mode: SearchMode::EarlyExit,
            deadline: None,
            trace: TraceContext::NONE,
        }
    }

    /// Sets the termination policy.
    pub fn with_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches the trace identity of the request this search serves.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }
}

/// What a backend is — for routing decisions, reports and service stats.
#[derive(Clone, Debug)]
pub struct BackendDescriptor {
    /// Substrate kind: `"cpu"`, `"cluster"`, `"gpu-sim"`, `"apu-sim"`.
    pub kind: &'static str,
    /// Human-readable instance label (includes the shape, e.g. thread or
    /// node count).
    pub name: String,
    /// Jobs this backend can run concurrently before it saturates; the
    /// dispatcher keeps at most this many in flight.
    pub slots: usize,
}

/// A search substrate: anything that can run a [`SearchJob`] to a
/// [`SearchReport`].
///
/// Implementations must be functionally equivalent — identical outcomes
/// for identical jobs — and are free to differ in everything the report's
/// accounting fields, [`SearchReport::cost`] and [`SearchReport::extras`]
/// describe.
pub trait SearchBackend: Send + Sync {
    /// Describes this backend for routing and reporting.
    fn descriptor(&self) -> BackendDescriptor;

    /// Concurrent jobs this backend absorbs before saturating
    /// (shorthand for `descriptor().slots`).
    fn capacity(&self) -> usize {
        self.descriptor().slots
    }

    /// Whether this backend can search digests of `algo`. Routing layers
    /// must check this before [`SearchBackend::submit`]; submitting an
    /// unsupported algorithm panics.
    fn supports(&self, algo: HashAlgo) -> bool {
        let _ = algo;
        true
    }

    /// Runs the search to completion (or to the job's deadline) and
    /// reports it.
    fn submit(&self, job: &SearchJob) -> SearchReport;

    /// Sweeps one checkpointable shard of `job`'s seed space, publishing
    /// resume points to `sink` every `checkpoint_interval` masks — the
    /// entry point the supervised pool ([`crate::pool`]) schedules and
    /// re-dispatches.
    ///
    /// The default runs the host-CPU batched prescreen sweep
    /// ([`crate::shard::execute_job_shard`]), so every backend is
    /// shard-capable out of the box; device backends may override with a
    /// native sweep, and fault-injection decorators override to fail it.
    fn run_shard(
        &self,
        job: &SearchJob,
        spec: &ShardSpec,
        checkpoint_interval: u64,
        sink: &dyn CheckpointSink,
    ) -> ShardReport {
        crate::shard::execute_job_shard(job, spec, checkpoint_interval, sink)
    }
}

/// The host CPU engine behind the trait: each submission runs a fresh
/// [`SearchEngine`] over the runtime-dispatched hash derivation — batched
/// lane kernels, prefix prescreen — resuming from the process-wide Chase
/// tables ([`rbc_comb::ChaseTable::shared`]), so no submission rebuilds one.
#[derive(Clone, Debug)]
pub struct CpuBackend {
    cfg: EngineConfig,
    telemetry: Option<EngineTelemetry>,
    clock: ClockHandle,
}

impl CpuBackend {
    /// A CPU backend running searches under `cfg`. The job's mode and
    /// deadline override the config's per submission.
    pub fn new(cfg: EngineConfig) -> Self {
        CpuBackend { cfg, telemetry: None, clock: wall_clock() }
    }

    /// Reads every search and shard timing from `clock` instead of the
    /// wall clock. Batch boundaries, and so checkpoint positions, do not
    /// depend on the clock: both paths size batches from the backend's
    /// [`EngineConfig::batch`].
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches shared search-progress counters: every engine this
    /// backend spins up per submission feeds the same
    /// [`EngineTelemetry`], so `rbc_engine_*` totals aggregate across
    /// all jobs the backend has run.
    pub fn with_telemetry(mut self, telemetry: EngineTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The engine configuration jobs run under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}

impl SearchBackend for CpuBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: "cpu",
            name: format!("cpu(p={})", self.cfg.effective_threads()),
            slots: 1,
        }
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        let cfg = EngineConfig {
            mode: job.mode,
            deadline: job.deadline.or(self.cfg.deadline),
            ..self.cfg.clone()
        };
        let mut engine =
            SearchEngine::new(DynHashDerive(job.algo), cfg).with_clock(self.clock.clone());
        if let Some(t) = &self.telemetry {
            engine = engine.with_telemetry(t.clone());
        }
        engine.search(&job.target, &job.s_init, job.max_d)
    }

    fn run_shard(
        &self,
        job: &SearchJob,
        spec: &ShardSpec,
        checkpoint_interval: u64,
        sink: &dyn CheckpointSink,
    ) -> ShardReport {
        let derive = DynHashDerive(job.algo);
        crate::shard::run_shard_clocked(
            &derive,
            &job.target,
            &job.s_init,
            spec,
            job.deadline,
            checkpoint_interval,
            sink,
            &self.clock,
            self.cfg.batch,
        )
    }
}

/// A [`SearchBackend`] decorator that profiles every submission into a
/// shared [`Registry`].
///
/// ## Metric-name mapping
///
/// Every metric is named `rbc_backend_{i}_{kind}_*` where `{i}` is the
/// wrapper's fleet index (its position in the dispatcher's backend
/// list) and `{kind}` is the [`sanitize`]d descriptor kind — indexing
/// keeps two backends of the same kind (e.g. two `cpu` substrates)
/// from aliasing into one counter:
///
/// - `rbc_backend_{i}_{kind}_search_ns` — histogram of on-device search
///   time ([`SearchReport::elapsed`], excluding queueing);
/// - `rbc_backend_{i}_{kind}_submits_total` / `..._seeds_total` — jobs
///   run and seeds derived;
/// - `rbc_backend_{i}_{kind}_batches_total`, `..._prefix_hits_total` and
///   `..._prefix_false_positives_total` — the fields of
///   [`SearchReport::cost`], for backends that report one (the CPU
///   engine and the supervised pool);
/// - one `rbc_backend_{i}_{kind}_{key}_total` counter per
///   [`SearchReport::extras`] entry, with `{key}` sanitized too. The
///   per-substrate extras vocabulary (see `rbc-accel`): the cluster
///   reports `nodes`, `messages`; gpu-sim `kernels`, `threads_total`,
///   `flag_polls`; apu-sim `waves`, `pes`, `cycles`, `flag_checks`; the
///   supervised pool `redispatches`, `hedges`, `faults`, `stalls`,
///   `wasted_seeds`.
///
/// Wrapping is transparent to routing: descriptor, capacity and
/// algorithm support all delegate to the inner backend, and the report
/// passes through unmodified — equivalence tests hold through the
/// wrapper.
pub struct ProfiledBackend {
    inner: Arc<dyn SearchBackend>,
    registry: Arc<Registry>,
    prefix: String,
    search_ns: Arc<Histogram>,
    submits: Arc<Counter>,
    seeds: Arc<Counter>,
}

impl ProfiledBackend {
    /// Wraps `inner`, registering its metrics in `registry` under the
    /// documented `rbc_backend_{index}_{kind}_*` names.
    pub fn new(inner: Arc<dyn SearchBackend>, registry: Arc<Registry>, index: usize) -> Self {
        let prefix = format!("rbc_backend_{}_{}", index, sanitize(inner.descriptor().kind));
        let search_ns = registry.histogram(&format!("{prefix}_search_ns"));
        let submits = registry.counter(&format!("{prefix}_submits_total"));
        let seeds = registry.counter(&format!("{prefix}_seeds_total"));
        ProfiledBackend { inner, registry, prefix, search_ns, submits, seeds }
    }

    /// The registry this wrapper records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl SearchBackend for ProfiledBackend {
    fn descriptor(&self) -> BackendDescriptor {
        self.inner.descriptor()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn supports(&self, algo: HashAlgo) -> bool {
        self.inner.supports(algo)
    }

    fn run_shard(
        &self,
        job: &SearchJob,
        spec: &ShardSpec,
        checkpoint_interval: u64,
        sink: &dyn CheckpointSink,
    ) -> ShardReport {
        self.inner.run_shard(job, spec, checkpoint_interval, sink)
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        self.submits.inc();
        let report = self.inner.submit(job);
        self.search_ns.record_duration_traced(report.elapsed, job.trace.trace_id);
        self.seeds.add(report.seeds_derived);
        // Cost fields and extras keys are a small per-substrate
        // vocabulary; the get-or-create lock here is noise next to a
        // search.
        let cost = report.cost.map(|c| {
            [
                ("batches", c.batches),
                ("prefix_hits", c.prefix_hits),
                ("prefix_false_positives", c.prefix_false_positives),
            ]
        });
        for (key, value) in report.extras.iter().chain(cost.iter().flatten()) {
            let name = format!("{}_{}_total", self.prefix, sanitize(key));
            self.registry.counter(&name).add(*value);
        }
        report
    }
}

/// The distributed-memory cluster engine behind the trait.
///
/// The cluster protocol is always early-exit (its production
/// configuration) and has no mid-search preemption, so the job's deadline
/// is checked *post hoc*: a search that finishes past it reports
/// [`Outcome::TimedOut`], mirroring what the client would observe.
/// Per-distance stats are not available from the message-passing
/// coordinator; `extras` carries `"nodes"` and `"messages"`.
#[derive(Clone, Debug)]
pub struct ClusterBackend {
    cfg: ClusterConfig,
}

impl ClusterBackend {
    /// A cluster backend with `cfg.nodes` worker nodes.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterBackend { cfg }
    }
}

impl SearchBackend for ClusterBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: "cluster",
            name: format!("cluster(nodes={})", self.cfg.nodes),
            slots: 1,
        }
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        let derive = DynHashDerive(job.algo);
        let r = cluster_search(&derive, &job.target, &job.s_init, job.max_d, &self.cfg);
        let timed_out = job.deadline.is_some_and(|t| r.elapsed > t);
        let outcome = if timed_out {
            Outcome::TimedOut { at_distance: job.max_d }
        } else {
            match r.found {
                Some((seed, distance)) => Outcome::Found { seed, distance },
                None => Outcome::NotFound,
            }
        };
        SearchReport {
            outcome,
            seeds_derived: r.seeds,
            elapsed: r.elapsed,
            per_distance: Vec::new(),
            algorithm: job.algo.name(),
            threads: self.cfg.nodes,
            cost: None,
            extras: vec![("nodes", self.cfg.nodes as u64), ("messages", r.messages)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job_for(algo: HashAlgo, client: &U256, base: &U256, max_d: u32) -> SearchJob {
        SearchJob::new(algo, algo.digest_seed(client), *base, max_d)
    }

    #[test]
    fn cpu_submits_share_one_cached_chase_table() {
        let mut rng = StdRng::seed_from_u64(91);
        let base = U256::random(&mut rng);
        let backend = CpuBackend::new(EngineConfig { threads: 3, ..Default::default() });
        let mut tables = Vec::new();
        for _ in 0..2 {
            // A client at distance 2: the search has to sweep d = 2.
            let client = base.random_at_distance(2, &mut rng);
            let report = backend.submit(&job_for(HashAlgo::Sha3_256, &client, &base, 2));
            assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 2 });
            tables.push(rbc_comb::ChaseTable::cached(2, 3).expect("submit caches the d=2 table"));
        }
        assert!(Arc::ptr_eq(&tables[0], &tables[1]), "the second submit reused the table");
    }

    #[test]
    fn cpu_backend_matches_direct_engine_use() {
        let mut rng = StdRng::seed_from_u64(90);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let job = job_for(HashAlgo::Sha3_256, &client, &base, 3);

        let backend = CpuBackend::new(EngineConfig { threads: 3, ..Default::default() });
        let via_trait = backend.submit(&job);

        let engine = SearchEngine::new(
            DynHashDerive(HashAlgo::Sha3_256),
            EngineConfig { threads: 3, ..Default::default() },
        );
        let direct = engine.search(&job.target, &base, 3);

        assert_eq!(via_trait.outcome, direct.outcome);
        assert_eq!(via_trait.outcome, Outcome::Found { seed: client, distance: 2 });
        // The hash path reports its prescreen accounting per search.
        let cost = via_trait.cost.expect("the engine bills its cost");
        assert!(cost.prefix_hits >= 1, "the match itself is a prefix hit");
        assert_eq!(cost.prefix_false_positives, 0);
    }

    #[test]
    fn cluster_backend_agrees_with_cpu_and_reports_extras() {
        let mut rng = StdRng::seed_from_u64(91);
        let base = U256::random(&mut rng);
        for (d, max_d) in [(0u32, 2u32), (2, 2), (3, 2)] {
            let client = base.random_at_distance(d, &mut rng);
            let job = job_for(HashAlgo::Sha3_256, &client, &base, max_d);
            let cpu = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() });
            let cluster = ClusterBackend::new(ClusterConfig { nodes: 3, ..Default::default() });
            let a = cpu.submit(&job);
            let b = cluster.submit(&job);
            assert_eq!(a.outcome, b.outcome, "d={d} max_d={max_d}");
            assert_eq!(b.extra("nodes"), Some(3));
            assert!(b.extra("messages").is_some());
        }
    }

    #[test]
    fn job_deadline_overrides_backend_config() {
        // A pathological deadline must trip regardless of the backend's
        // own (absent) deadline.
        let mut rng = StdRng::seed_from_u64(92);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(3, &mut rng);
        let job =
            job_for(HashAlgo::Sha3_256, &client, &base, 3).with_deadline(Duration::from_nanos(1));
        let backend = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() });
        let report = backend.submit(&job);
        assert!(matches!(report.outcome, Outcome::TimedOut { .. }), "{:?}", report.outcome);
    }

    #[test]
    fn cluster_post_hoc_deadline_maps_to_timed_out() {
        let mut rng = StdRng::seed_from_u64(93);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let job =
            job_for(HashAlgo::Sha3_256, &client, &base, 2).with_deadline(Duration::from_nanos(1));
        let cluster = ClusterBackend::new(ClusterConfig { nodes: 2, ..Default::default() });
        let report = cluster.submit(&job);
        assert!(matches!(report.outcome, Outcome::TimedOut { .. }), "{:?}", report.outcome);
    }

    #[test]
    fn descriptors_identify_the_substrate() {
        let cpu = CpuBackend::new(EngineConfig { threads: 4, ..Default::default() });
        let d = cpu.descriptor();
        assert_eq!(d.kind, "cpu");
        assert_eq!(d.slots, cpu.capacity());
        assert!(d.name.contains("p=4"));
        assert!(cpu.supports(HashAlgo::Sha256));

        let cl = ClusterBackend::new(ClusterConfig { nodes: 5, ..Default::default() });
        assert_eq!(cl.descriptor().kind, "cluster");
        assert!(cl.descriptor().name.contains("nodes=5"));
    }

    #[test]
    fn profiled_backend_is_transparent_and_lifts_extras() {
        let mut rng = StdRng::seed_from_u64(94);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let job = job_for(HashAlgo::Sha3_256, &client, &base, 2);

        let registry = Arc::new(Registry::new());
        let inner = Arc::new(ClusterBackend::new(ClusterConfig { nodes: 3, ..Default::default() }))
            as Arc<dyn SearchBackend>;
        let profiled = ProfiledBackend::new(inner.clone(), registry.clone(), 7);

        // Transparent to routing and to the report itself.
        assert_eq!(profiled.descriptor().kind, inner.descriptor().kind);
        assert_eq!(profiled.capacity(), inner.capacity());
        let report = profiled.submit(&job);
        assert_eq!(report.outcome, inner.submit(&job).outcome);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("rbc_backend_7_cluster_submits_total"), Some(1));
        assert_eq!(snap.counter("rbc_backend_7_cluster_seeds_total"), Some(report.seeds_derived));
        assert_eq!(snap.histogram("rbc_backend_7_cluster_search_ns").map(|h| h.count), Some(1));
        // Device extras became sanitized, index-scoped counters.
        assert_eq!(snap.counter("rbc_backend_7_cluster_nodes_total"), Some(3));
        assert_eq!(
            snap.counter("rbc_backend_7_cluster_messages_total"),
            report.extra("messages"),
            "extras lifted through the documented mapping"
        );
        // The full name set this wrapper minted, pinned: nothing leaks
        // outside the documented `rbc_backend_{i}_{kind}_*` scheme.
        let mut minted: Vec<&str> = snap
            .entries
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|n| n.starts_with("rbc_backend_"))
            .collect();
        minted.sort_unstable();
        assert_eq!(
            minted,
            vec![
                "rbc_backend_7_cluster_messages_total",
                "rbc_backend_7_cluster_nodes_total",
                "rbc_backend_7_cluster_search_ns",
                "rbc_backend_7_cluster_seeds_total",
                "rbc_backend_7_cluster_submits_total",
            ]
        );
    }

    #[test]
    fn cpu_backend_telemetry_reaches_the_per_submit_engines() {
        use rbc_telemetry::Registry;

        let registry = Registry::new();
        let telemetry = EngineTelemetry::register(&registry);
        let backend = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() })
            .with_telemetry(telemetry.clone());

        let base = U256::from_u64(99);
        let client = base.flip_bit(3);
        backend.submit(&job_for(HashAlgo::Sha1, &client, &base, 1));
        backend.submit(&job_for(HashAlgo::Sha1, &client, &base, 1));

        // Both per-submit engines accumulated into the one telemetry.
        assert_eq!(telemetry.searches.get(), 2);
        assert!(telemetry.seeds_scanned.get() >= 2);
        assert_eq!(registry.snapshot().counter("rbc_engine_searches_total"), Some(2));
    }

    #[test]
    fn exhaustive_mode_flows_through_the_job() {
        let base = U256::from_u64(17);
        let client = base.flip_bit(9);
        let job = job_for(HashAlgo::Sha1, &client, &base, 2).with_mode(SearchMode::Exhaustive);
        let backend = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() });
        let report = backend.submit(&job);
        assert_eq!(report.outcome, Outcome::Found { seed: client, distance: 1 });
        assert_eq!(report.seeds_derived, 1 + 256 + 32_640, "no early exit");
    }
}
