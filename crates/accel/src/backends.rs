//! The accelerator simulators behind [`SearchBackend`].
//!
//! `rbc-core` defines the trait and the CPU/cluster implementations; this
//! module adds the two device simulators — SALTED-GPU and SALTED-APU — so
//! a dispatcher pool can mix all four substrates. Functional equivalence
//! (same outcome for the same job) is the trait contract; each simulator's
//! device counters travel in [`SearchReport::extras`] under stable keys:
//!
//! | backend   | keys |
//! |-----------|------|
//! | `gpu-sim` | `"kernels"`, `"threads_total"`, `"flag_polls"` |
//! | `apu-sim` | `"waves"`, `"pes"`, `"cycles"`, `"flag_checks"` |
//!
//! Wrapping a simulator in [`rbc_core::ProfiledBackend`] lifts every key
//! into a cumulative `rbc_backend_{i}_{kind}_{key}_total` counter, where
//! `{i}` is the wrapper's fleet index and both `{kind}` and `{key}` are
//! sanitized onto the metric charset (`gpu-sim` → `gpu_sim`).
//!
//! Neither simulator preempts a search mid-flight (the real devices poll
//! an early-exit flag, not a clock), so job deadlines are checked *post
//! hoc* exactly as the cluster backend does: a search finishing past its
//! deadline reports [`Outcome::TimedOut`].

use rbc_core::backend::{BackendDescriptor, SearchBackend, SearchJob};
use rbc_core::clock::{wall_clock, ClockHandle};
use rbc_core::engine::{Outcome, SearchMode, SearchReport};
use rbc_hash::{HashAlgo, Sha1Fixed, Sha256Fixed, Sha3Fixed};

use rbc_apu_sim::{apu_salted_search, ApuHash, ApuSearchConfig, ApuSearchResult};
use rbc_gpu_sim::{gpu_salted_search, GpuKernelConfig, GpuSearchResult};

/// The functional SALTED-GPU simulator as a search backend.
///
/// Supports every [`HashAlgo`] — the kernel emulation is generic over the
/// hash; `cfg.hash` only prices the timing model. One job occupies the
/// whole simulated device, so `slots` is 1.
#[derive(Clone, Debug)]
pub struct GpuSimBackend {
    cfg: GpuKernelConfig,
    clock: ClockHandle,
}

impl GpuSimBackend {
    /// A GPU-sim backend launching kernels shaped by `cfg`.
    pub fn new(cfg: GpuKernelConfig) -> Self {
        GpuSimBackend { cfg, clock: wall_clock() }
    }

    /// Times jobs on `clock` instead of the wall — post-hoc deadline
    /// verdicts then follow a virtual timeline under simulation.
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// The kernel configuration jobs run under.
    pub fn config(&self) -> &GpuKernelConfig {
        &self.cfg
    }
}

impl SearchBackend for GpuSimBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: "gpu-sim",
            name: format!("gpu-sim(n={})", self.cfg.params.seeds_per_thread),
            slots: 1,
        }
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        let early_exit = job.mode == SearchMode::EarlyExit;
        let start = self.clock.now();
        let r: GpuSearchResult = match job.algo {
            HashAlgo::Sha1 => {
                let mut t = [0u8; 20];
                t.copy_from_slice(job.target.as_bytes());
                gpu_salted_search(&Sha1Fixed, &self.cfg, &t, &job.s_init, job.max_d, early_exit)
            }
            HashAlgo::Sha3_256 => {
                let mut t = [0u8; 32];
                t.copy_from_slice(job.target.as_bytes());
                gpu_salted_search(&Sha3Fixed, &self.cfg, &t, &job.s_init, job.max_d, early_exit)
            }
            HashAlgo::Sha256 => {
                let mut t = [0u8; 32];
                t.copy_from_slice(job.target.as_bytes());
                gpu_salted_search(&Sha256Fixed, &self.cfg, &t, &job.s_init, job.max_d, early_exit)
            }
        };
        let elapsed = self.clock.now().saturating_duration_since(start);
        let timed_out = job.deadline.is_some_and(|t| elapsed > t);
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
            seeds_derived: r.hashes,
            elapsed,
            per_distance: Vec::new(),
            algorithm: job.algo.name(),
            threads: r.threads_total as usize,
            cost: None,
            extras: vec![
                ("kernels", r.kernels as u64),
                ("threads_total", r.threads_total),
                ("flag_polls", r.flag_polls),
            ],
        }
    }
}

/// The functional SALTED-APU simulator as a search backend.
///
/// The associative device is microcoded per hash: only SHA-1 and SHA3-256
/// gangs exist ([`ApuHash`]), and the configured gang must match the
/// job's algorithm — [`SearchBackend::supports`] encodes both limits, and
/// routing layers must honour it (`submit` on an unsupported algorithm
/// panics on the digest-length assert).
#[derive(Clone, Debug)]
pub struct ApuSimBackend {
    cfg: ApuSearchConfig,
    clock: ClockHandle,
}

impl ApuSimBackend {
    /// An APU-sim backend over a configured device.
    pub fn new(cfg: ApuSearchConfig) -> Self {
        ApuSimBackend { cfg, clock: wall_clock() }
    }

    /// Times jobs on `clock` instead of the wall — post-hoc deadline
    /// verdicts then follow a virtual timeline under simulation.
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// The device configuration jobs run under.
    pub fn config(&self) -> &ApuSearchConfig {
        &self.cfg
    }

    /// The [`HashAlgo`] this device's gang is microcoded for.
    pub fn algo(&self) -> HashAlgo {
        match self.cfg.hash {
            ApuHash::Sha1 => HashAlgo::Sha1,
            ApuHash::Sha3 => HashAlgo::Sha3_256,
        }
    }
}

impl SearchBackend for ApuSimBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: "apu-sim",
            name: format!("apu-sim(pes={})", self.cfg.device.pe_count()),
            slots: 1,
        }
    }

    fn supports(&self, algo: HashAlgo) -> bool {
        algo == self.algo()
    }

    fn submit(&self, job: &SearchJob) -> SearchReport {
        assert!(
            self.supports(job.algo),
            "APU gang is microcoded for {}, job wants {}",
            self.algo().name(),
            job.algo.name()
        );
        let early_exit = job.mode == SearchMode::EarlyExit;
        let start = self.clock.now();
        let r: ApuSearchResult =
            apu_salted_search(&self.cfg, job.target.as_bytes(), &job.s_init, job.max_d, early_exit);
        let elapsed = self.clock.now().saturating_duration_since(start);
        let timed_out = job.deadline.is_some_and(|t| elapsed > t);
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
            seeds_derived: r.hashes,
            elapsed,
            per_distance: Vec::new(),
            algorithm: job.algo.name(),
            threads: r.pes,
            cost: None,
            extras: vec![
                ("waves", r.waves),
                ("pes", r.pes as u64),
                ("cycles", r.cycles),
                ("flag_checks", r.flag_checks),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbc_apu_sim::ApuConfig;
    use rbc_bits::U256;
    use rbc_core::backend::CpuBackend;
    use rbc_core::engine::EngineConfig;
    use rbc_gpu_sim::GpuHash;
    use std::time::Duration;

    fn gpu() -> GpuSimBackend {
        GpuSimBackend::new(GpuKernelConfig::paper_best(GpuHash::Sha3))
    }

    fn apu(hash: ApuHash) -> ApuSimBackend {
        ApuSimBackend::new(ApuSearchConfig { device: ApuConfig::tiny(64), hash, batch: 32 })
    }

    fn job_for(algo: HashAlgo, client: &U256, base: &U256, max_d: u32) -> SearchJob {
        SearchJob::new(algo, algo.digest_seed(client), *base, max_d)
    }

    #[test]
    fn gpu_backend_agrees_with_cpu_for_all_algorithms() {
        let mut rng = StdRng::seed_from_u64(200);
        let base = U256::random(&mut rng);
        let cpu = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() });
        for algo in HashAlgo::ALL {
            for d in [0u32, 2, 3] {
                let client = base.random_at_distance(d, &mut rng);
                let job = job_for(algo, &client, &base, 2);
                let a = cpu.submit(&job);
                let b = gpu().submit(&job);
                assert_eq!(a.outcome, b.outcome, "{algo:?} d={d}");
            }
        }
    }

    #[test]
    fn gpu_backend_reports_kernel_extras() {
        let mut rng = StdRng::seed_from_u64(201);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let report = gpu().submit(&job_for(HashAlgo::Sha3_256, &client, &base, 2));
        assert_eq!(report.extra("kernels"), Some(2));
        assert!(report.extra("threads_total").is_some());
        assert_eq!(report.threads as u64, report.extra("threads_total").unwrap());
        assert!(report.extra("flag_polls").unwrap() >= 1, "early-exit search polls the flag");
    }

    #[test]
    fn apu_backend_agrees_with_cpu_on_its_gang() {
        let mut rng = StdRng::seed_from_u64(202);
        let base = U256::random(&mut rng);
        let cpu = CpuBackend::new(EngineConfig { threads: 2, ..Default::default() });
        for (hash, algo) in [(ApuHash::Sha1, HashAlgo::Sha1), (ApuHash::Sha3, HashAlgo::Sha3_256)] {
            for d in [0u32, 1, 3] {
                let client = base.random_at_distance(d, &mut rng);
                let job = job_for(algo, &client, &base, 2);
                let a = cpu.submit(&job);
                let b = apu(hash).submit(&job);
                assert_eq!(a.outcome, b.outcome, "{hash:?} d={d}");
                assert!(b.extra("waves").is_some());
                assert_eq!(b.extra("pes"), Some(64));
                assert!(b.extra("flag_checks").unwrap() >= 1, "d0 probe always checks");
            }
        }
    }

    #[test]
    fn apu_backend_declares_its_algorithm_limits() {
        let sha1 = apu(ApuHash::Sha1);
        assert!(sha1.supports(HashAlgo::Sha1));
        assert!(!sha1.supports(HashAlgo::Sha3_256));
        assert!(!sha1.supports(HashAlgo::Sha256));
        let sha3 = apu(ApuHash::Sha3);
        assert!(sha3.supports(HashAlgo::Sha3_256));
        assert!(!sha3.supports(HashAlgo::Sha256));
        assert!(gpu().supports(HashAlgo::Sha256), "GPU emulation is hash-generic");
    }

    #[test]
    fn exhaustive_mode_counts_the_whole_space_on_both_sims() {
        let base = U256::from_u64(0x5EED);
        let client = base.flip_bit(3);
        let job = job_for(HashAlgo::Sha1, &client, &base, 2).with_mode(SearchMode::Exhaustive);
        let g = gpu().submit(&job);
        let a = apu(ApuHash::Sha1).submit(&job);
        assert_eq!(g.seeds_derived, 1 + 256 + 32_640);
        assert_eq!(a.seeds_derived, 1 + 256 + 32_640);
        assert_eq!(g.outcome, a.outcome);
    }

    #[test]
    fn post_hoc_deadline_reports_timeout() {
        let mut rng = StdRng::seed_from_u64(203);
        let base = U256::random(&mut rng);
        let client = base.random_at_distance(2, &mut rng);
        let job =
            job_for(HashAlgo::Sha3_256, &client, &base, 2).with_deadline(Duration::from_nanos(1));
        for report in [gpu().submit(&job), apu(ApuHash::Sha3).submit(&job)] {
            assert!(matches!(report.outcome, Outcome::TimedOut { .. }), "{:?}", report.outcome);
        }
    }

    #[test]
    fn descriptors_identify_the_simulators() {
        let g = gpu().descriptor();
        assert_eq!(g.kind, "gpu-sim");
        assert_eq!(g.slots, 1);
        let a = apu(ApuHash::Sha1).descriptor();
        assert_eq!(a.kind, "apu-sim");
        assert!(a.name.contains("pes=64"));
    }

    /// Pins the full profiled metric-name set for both simulators: the
    /// device extras (poll counters included) reach the registry only
    /// through the documented, sanitized `rbc_backend_{i}_{kind}_*`
    /// mapping — never verbatim.
    #[test]
    fn profiled_simulators_mint_exactly_the_documented_name_set() {
        use rbc_core::ProfiledBackend;
        use rbc_telemetry::Registry;
        use std::sync::Arc;

        let base = U256::from_u64(0xACCE1);
        let client = base.flip_bit(11);
        let job = job_for(HashAlgo::Sha1, &client, &base, 1);

        let cases: [(Arc<dyn SearchBackend>, usize, Vec<&str>); 2] = [
            (
                Arc::new(gpu()),
                0,
                vec![
                    "rbc_backend_0_gpu_sim_flag_polls_total",
                    "rbc_backend_0_gpu_sim_kernels_total",
                    "rbc_backend_0_gpu_sim_search_ns",
                    "rbc_backend_0_gpu_sim_seeds_total",
                    "rbc_backend_0_gpu_sim_submits_total",
                    "rbc_backend_0_gpu_sim_threads_total_total",
                ],
            ),
            (
                Arc::new(apu(ApuHash::Sha1)),
                3,
                vec![
                    "rbc_backend_3_apu_sim_cycles_total",
                    "rbc_backend_3_apu_sim_flag_checks_total",
                    "rbc_backend_3_apu_sim_pes_total",
                    "rbc_backend_3_apu_sim_search_ns",
                    "rbc_backend_3_apu_sim_seeds_total",
                    "rbc_backend_3_apu_sim_submits_total",
                    "rbc_backend_3_apu_sim_waves_total",
                ],
            ),
        ];
        for (inner, index, expected) in cases {
            let registry = Arc::new(Registry::new());
            let profiled = ProfiledBackend::new(inner, registry.clone(), index);
            profiled.submit(&job);
            let snap = registry.snapshot();
            let mut minted: Vec<&str> =
                snap.entries.iter().map(|(name, _)| name.as_str()).collect();
            minted.sort_unstable();
            assert_eq!(minted, expected);
        }
    }
}
