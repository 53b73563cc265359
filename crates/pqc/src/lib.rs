//! # rbc-pqc
//!
//! Post-quantum key generation for the RBC system, serving two roles:
//!
//! 1. **Baseline cost** — the algorithm-aware RBC engines of prior work
//!    (Table 7) generate a PQC public key *per candidate seed*. The
//!    [`PqcKeyGen`] implementations here reproduce that per-candidate
//!    cost with structurally faithful Dilithium3 and LightSaber keygen.
//! 2. **Post-search keygen** — RBC-SALTED generates the client's public
//!    key exactly once, from the *salted* found seed (step 8 of the
//!    protocol). Any [`PqcKeyGen`] can fill that slot, which is the
//!    paper's algorithm-agnosticism claim made concrete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dilithium;
pub mod poly;
pub mod saber;

use rbc_bits::U256;
use rbc_hash::sha3::Sha3_256;

/// A public-key generation algorithm usable both as an RBC-SALTED
/// post-search keygen and as an algorithm-aware per-candidate derivation.
pub trait PqcKeyGen: Clone + Send + Sync + 'static {
    /// Algorithm name as printed in Table 7.
    const NAME: &'static str;

    /// Generates the public key for `seed` and returns its canonical byte
    /// encoding.
    fn public_key(&self, seed: &U256) -> Vec<u8>;

    /// A fixed-size fingerprint of the public key (SHA3-256 of the
    /// encoding) — the comparable "response" the algorithm-aware search
    /// matches on.
    fn response(&self, seed: &U256) -> [u8; 32] {
        Sha3_256::digest(&self.public_key(seed))
    }
}

/// Dilithium3 keygen (see [`dilithium`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dilithium3;

impl PqcKeyGen for Dilithium3 {
    const NAME: &'static str = "Dilithium3";

    fn public_key(&self, seed: &U256) -> Vec<u8> {
        let (pk, _) = dilithium::keygen(&seed.to_le_bytes());
        pk.to_bytes()
    }
}

/// LightSaber keygen (see [`saber`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LightSaber;

impl PqcKeyGen for LightSaber {
    const NAME: &'static str = "LightSABER";

    fn public_key(&self, seed: &U256) -> Vec<u8> {
        let (pk, _) = saber::keygen(&seed.to_le_bytes());
        pk.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_deterministic_and_sensitive() {
        let a = U256::from_u64(10);
        let b = U256::from_u64(11);
        assert_eq!(Dilithium3.response(&a), Dilithium3.response(&a));
        assert_ne!(Dilithium3.response(&a), Dilithium3.response(&b));
        assert_eq!(LightSaber.response(&a), LightSaber.response(&a));
        assert_ne!(LightSaber.response(&a), LightSaber.response(&b));
    }

    #[test]
    fn schemes_disagree() {
        let s = U256::from_u64(99);
        assert_ne!(Dilithium3.response(&s), LightSaber.response(&s));
    }

    #[test]
    fn names_match_table7() {
        assert_eq!(Dilithium3::NAME, "Dilithium3");
        assert_eq!(LightSaber::NAME, "LightSABER");
    }

    #[test]
    fn public_key_sizes_are_plausible() {
        let s = U256::from_u64(1);
        // Dilithium3: 32-byte rho + 6·256 packed coefficients.
        assert_eq!(Dilithium3.public_key(&s).len(), 32 + 6 * 256 * 2);
        // LightSaber: 32-byte seed_A + 2·256 packed coefficients.
        assert_eq!(LightSaber.public_key(&s).len(), 32 + 2 * 256 * 2);
    }
}
