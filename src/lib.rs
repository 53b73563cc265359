//! # rbc-salted
//!
//! A full Rust implementation of **RBC-SALTED** — the optimized
//! Response-Based Cryptography protocol of *"Evaluating Accelerators for
//! a High-Throughput Hash-Based Security Protocol"* (Lee, Donnelly, Sery,
//! Ilan, Cambou, Gowanlock; ICPP-W 2023) — together with every substrate
//! the paper depends on and the harness that regenerates its evaluation.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`bits`] | `rbc-bits` | 256-bit seeds, Hamming arithmetic |
//! | [`hash`] | `rbc-hash` | SHA-1/2/3, SHAKE, fixed-input fast paths |
//! | [`comb`] | `rbc-comb` | Gosper / Algorithm 515 / Chase iterators |
//! | [`puf`] | `rbc-puf` | PUF models, enrollment, TAPKI masking |
//! | [`ciphers`] | `rbc-ciphers` | AES-128, ChaCha20, SPECK baselines |
//! | [`pqc`] | `rbc-pqc` | Dilithium3 / LightSaber keygen |
//! | [`core`] | `rbc-core` | the protocol: engine, client, CA, RA |
//! | [`gpu`] | `rbc-gpu-sim` | SALTED-GPU functional + timing model |
//! | [`apu`] | `rbc-apu-sim` | SALTED-APU functional simulator |
//! | [`accel`] | `rbc-accel` | platforms, calibration, energy |
//! | [`net`] | `rbc-net` | transports, communication-latency model |
//!
//! ## Quickstart
//!
//! ```
//! use rbc_salted::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // A client device with an SRAM PUF, enrolled at a CA.
//! let client = Client::new(1, ModelPuf::sram(4096, 1234));
//! let mut ca = CertificateAuthority::new(
//!     [0u8; 32],
//!     LightSaber,
//!     CaConfig { max_d: 3, engine: EngineConfig { threads: 4, ..Default::default() }, ..Default::default() },
//! );
//! ca.enroll_client(1, client.device(), 0, &mut rng).unwrap();
//!
//! // Authenticate: hello → challenge → digest → RBC search → verdict.
//! let challenge = ca.begin(&client.hello()).unwrap();
//! let digest = client.respond(&challenge, &mut rng);
//! let verdict = ca.complete(&digest).unwrap();
//! println!("{:?}", verdict.verdict);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rbc_accel as accel;
pub use rbc_apu_sim as apu;
pub use rbc_bits as bits;
pub use rbc_ciphers as ciphers;
pub use rbc_comb as comb;
pub use rbc_core as core;
pub use rbc_gpu_sim as gpu;
pub use rbc_hash as hash;
pub use rbc_net as net;
pub use rbc_pqc as pqc;
pub use rbc_puf as puf;
pub use rbc_telemetry as telemetry;

/// The working set most applications need.
pub mod prelude {
    pub use rbc_bits::{Seed, U256};
    pub use rbc_comb::SeedIterKind;
    pub use rbc_core::{
        admission::{AdmissionConfig, AdmissionControl, BrownoutLevel},
        backend::{BackendDescriptor, CpuBackend, SearchBackend, SearchJob},
        batch::{AdaptiveBatch, BatchPolicy},
        ca::{CaConfig, CertificateAuthority},
        dispatch::{DispatchOutcome, Dispatcher, DispatcherConfig},
        engine::{EngineConfig, Outcome, SearchEngine, SearchMode},
        protocol::{Client, Verdict},
        service::{AuthService, ServiceStats},
        CipherDerive, Derive, DynHashDerive, HashDerive, PqcDerive, Salt,
    };
    pub use rbc_hash::{HashAlgo, SeedHash, Sha1Fixed, Sha3Fixed};
    pub use rbc_pqc::{Dilithium3, LightSaber, PqcKeyGen};
    pub use rbc_puf::{ModelPuf, PufDevice};
}
