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

    /// SHA3-256 of `LightSaber.public_key` for three fixed seeds, recorded
    /// from the `i64` schoolbook multiply: a faster ring multiply must
    /// leave every key byte unchanged.
    #[test]
    fn light_saber_public_keys_are_pinned() {
        let pinned = [
            (0u64, "6edfcbd719f9b759e962759903d072f9d2235bb107690afa6f89abafa0ff0ffa"),
            (1, "a6f69d9e0520479bba0c12b8c74c8cae5cedc52d9724b65a3b5661e48a151991"),
            (
                0xdead_beef_cafe_f00d,
                "c9d97a9f802388b08203358db764839ce0e598573db34931d99491639f62ca6d",
            ),
        ];
        for (seed, want) in pinned {
            let pk = LightSaber.public_key(&U256::from_u64(seed));
            assert_eq!(pk.len(), 32 + saber::L * saber::N * 2);
            let got: String = Sha3_256::digest(&pk).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }

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
