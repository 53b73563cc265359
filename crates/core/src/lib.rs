//! # rbc-core
//!
//! The RBC-SALTED protocol (Lee et al., ICPP-W 2023): client, certificate
//! authority, registration authority, and the parallel seed-search engine
//! that makes PUF-based one-time keys practical.
//!
//! ## Map of the crate
//!
//! * [`mod@derive`] — the per-candidate derivation trait unifying the salted
//!   (hash) search with the algorithm-aware (cipher / PQC keygen)
//!   baselines of prior work.
//! * [`engine`] — Algorithm 1: the statically partitioned, early-exiting
//!   parallel search over Hamming-distance neighbourhoods.
//! * [`salt`] — step 7's shared-salt decoupling of digest and key.
//! * [`protocol`] — message types and the client endpoint.
//! * [`ca`] — the CA/RA server side, including the sealed image store.
//! * [`backend`] — the [`backend::SearchBackend`] trait putting the CPU
//!   engine, the cluster engine and (in `rbc-accel`) the GPU/APU
//!   simulators behind one substrate-agnostic submit interface.
//! * [`dispatch`] — the bounded-queue scheduler routing jobs across a
//!   backend pool under the protocol's response threshold.
//! * [`shard`] — checkpointable search shards: resumable Chase-state
//!   slices of one job's seed space, swept with periodic progress
//!   checkpoints so a failed slice can be resumed elsewhere.
//! * [`pool`] — the supervised backend pool: per-backend circuit
//!   breakers, stall detection, hedged re-dispatch, and remainder
//!   recovery over the shard layer.
//! * [`chaos`] — the deterministic fault-injection harness
//!   ([`chaos::FaultPlan`]) used to measure recovery behaviour.
//! * [`service`] — the multi-client authentication service: many
//!   concurrent `prepare → dispatch → finish` pipelines over one CA.
//! * [`trials`] — the paper's 1200-trial average-case measurement driver.
//!
//! ## Quick start
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rbc_core::ca::{CaConfig, CertificateAuthority};
//! use rbc_core::engine::EngineConfig;
//! use rbc_core::protocol::{Client, Verdict};
//! use rbc_pqc::LightSaber;
//! use rbc_puf::ModelPuf;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let client = Client::new(1, ModelPuf::sram(4096, 42));
//! let mut ca = CertificateAuthority::new(
//!     [0u8; 32],
//!     LightSaber,
//!     CaConfig { max_d: 3, engine: EngineConfig { threads: 4, ..Default::default() }, ..Default::default() },
//! );
//! ca.enroll_client(1, client.device(), 0, &mut rng).unwrap();
//!
//! let challenge = ca.begin(&client.hello()).unwrap();
//! let digest = client.respond(&challenge, &mut rng);
//! let verdict = ca.complete(&digest).unwrap();
//! assert!(matches!(verdict.verdict, Verdict::Accepted { .. } | Verdict::Rejected));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod attack;
pub mod backend;
pub mod batch;
pub mod ca;
pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod derive;
pub mod dispatch;
pub mod engine;
pub mod pool;
pub mod protocol;
pub mod salt;
pub mod service;
pub mod shard;
pub mod store;
pub mod sweep;
pub mod trials;
pub mod weighted;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionDecision, BrownoutLevel};
pub use backend::{
    BackendDescriptor, ClusterBackend, CpuBackend, ProfiledBackend, SearchBackend, SearchJob,
};
pub use batch::{AdaptiveBatch, BatchPolicy};
pub use ca::{CaConfig, CaTelemetry, CertificateAuthority, PendingAuth, RegistrationAuthority};
pub use chaos::{ChaosBackend, Fault, FaultPlan};
pub use clock::{wall_clock, Clock, ClockHandle, SimClock, WallClock};
pub use cluster::{cluster_search, ClusterConfig, ClusterReport};
pub use derive::{CipherDerive, Derive, DynHashDerive, HashDerive, PqcDerive};
pub use dispatch::{DispatchOutcome, DispatchStats, Dispatcher, DispatcherConfig};
pub use engine::{
    DistanceStats, EngineConfig, EngineTelemetry, Outcome, SearchEngine, SearchMode, SearchReport,
};
pub use pool::{BreakerConfig, BreakerState, SupervisedPool, SupervisedPoolConfig};
pub use protocol::{Client, ClientId, Verdict};
pub use salt::Salt;
pub use service::{AuthService, ServiceStats};
pub use shard::{
    Checkpoint, CheckpointSink, NullSink, ShardControl, ShardOutcome, ShardReport, ShardSpec,
};
pub use sweep::SearchCost;
pub use trials::{run_average_case_trials, TrialSummary};
pub use weighted::{weighted_search, ReliabilityOrder, WeightedOutcome};
