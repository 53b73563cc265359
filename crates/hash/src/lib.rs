//! # rbc-hash
//!
//! From-scratch implementations of the hash functions used by RBC-SALTED:
//! SHA-1, SHA-256, the SHA-3 family and the SHAKE XOFs, all validated
//! against NIST test vectors.
//!
//! Two paths are provided for each benchmarked hash, mirroring the paper:
//!
//! * a **generic** streaming implementation for arbitrary-length messages,
//!   and
//! * a **fixed-input** specialization for the constant 32-byte RBC seed
//!   (§3.2.2 of the paper): padding is folded into compile-time constants,
//!   removing the absorb-loop conditionals. The paper measures ~3% GPU
//!   speedup from this; `benches/hashing.rs` reproduces the CPU analogue.
//!
//! The canonical byte serialization of a seed for hashing is
//! [`rbc_bits::U256::to_le_bytes`]; every fixed-input path is tested to
//! agree with its generic path under this convention.
//!
//! The [`SeedHash`] trait is the sole interface the search engines see —
//! this is what makes RBC-SALTED *algorithm-agnostic*: swapping SHA-1 for
//! SHA-3 (or a future hash) never touches the search logic.
//!
//! Batched hashing is **runtime-dispatched** over explicit SIMD kernels
//! (see [`dispatch`]): AVX-512 (16-wide SHA-1 / 8-wide Keccak) and AVX2
//! (8-wide / 4-wide) where the host supports them, with the scalar
//! fixed-input paths as the fallback everywhere else. No `-C target-cpu`
//! build flags are required; results are bit-identical across every
//! tier.
//!
//! `unsafe` is denied crate-wide and allowed only inside the two
//! `std::arch` kernel modules ([`lanes_avx2`], [`lanes_avx512`]), whose
//! entry points re-check CPU support before executing vector code.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod hex;
pub mod hmac;
pub mod keccak;
pub mod lanes;
#[cfg(target_arch = "x86_64")]
pub mod lanes_avx2;
#[cfg(target_arch = "x86_64")]
pub mod lanes_avx512;
pub mod sha1;
pub mod sha2;
pub mod sha3;
pub mod shake;

use core::fmt;
use rbc_bits::{MaskRun, U256};

/// A hash function over 256-bit seeds, usable from data-parallel search
/// engines (hence `Send + Sync`; implementations are stateless unit
/// structs, so `Clone` is free).
pub trait SeedHash: Clone + Send + Sync + 'static {
    /// The digest type — a fixed-size byte array.
    type Digest: Copy + Eq + Send + Sync + fmt::Debug;

    /// Human-readable algorithm name, used in reports and benches.
    const NAME: &'static str;

    /// Digest length in bytes.
    const DIGEST_LEN: usize;

    /// Hashes a 256-bit seed (canonically serialized little-endian).
    fn digest_seed(&self, seed: &U256) -> Self::Digest;

    /// The 64-bit prefix of a digest: its first 8 bytes read little-endian.
    ///
    /// Search engines compare candidate prefixes against the target's
    /// prefix before paying for a full-digest compare; two digests are
    /// equal only if their prefixes are (the converse fails with
    /// probability 2⁻⁶⁴ per candidate and is resolved by the full compare).
    fn prefix64_of(d: &Self::Digest) -> u64;

    /// 64-bit digest prefix of one seed.
    ///
    /// Default hashes fully and truncates; implementations with a
    /// truncated finalization (no digest-byte materialization) override.
    #[inline]
    fn digest_prefix64(&self, seed: &U256) -> u64 {
        Self::prefix64_of(&self.digest_seed(seed))
    }

    /// Hashes a batch of seeds, clearing and refilling `out` so
    /// `out[i] == digest_seed(&seeds[i])`.
    ///
    /// Default loops the scalar path; multi-lane implementations override
    /// with interleaved kernels (see [`dispatch`]).
    fn digest_batch(&self, seeds: &[U256], out: &mut Vec<Self::Digest>) {
        out.clear();
        out.extend(seeds.iter().map(|s| self.digest_seed(s)));
    }

    /// The search loop's prescreen: clears `hits`, then pushes, in
    /// ascending order, every index `i` of the batch `runs` lists (its
    /// masks counted across runs) whose candidate seed `s_init ^ mask_i`
    /// has digest prefix `target_prefix`.
    ///
    /// Default hashes each candidate with [`SeedHash::digest_prefix64`];
    /// the fixed-input hashers override with the fused kernels of
    /// [`dispatch`], which never materialize the masks or candidates.
    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        hits.clear();
        for (i, mask) in runs.iter().flat_map(MaskRun::masks).enumerate() {
            if self.digest_prefix64(&(*s_init ^ mask)) == target_prefix {
                hits.push(i);
            }
        }
    }
}

/// First 8 bytes of a digest slice as a little-endian `u64` — the shared
/// [`SeedHash::prefix64_of`] implementation for byte-array digests.
#[inline]
fn prefix64_of_bytes(d: &[u8]) -> u64 {
    let mut first = [0u8; 8];
    first.copy_from_slice(&d[..8]);
    u64::from_le_bytes(first)
}

/// SHA-1 with the fixed-32-byte-input fast path. This is the `SHA-1`
/// configuration benchmarked in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sha1Fixed;

impl SeedHash for Sha1Fixed {
    type Digest = sha1::Sha1Digest;
    const NAME: &'static str = "SHA-1";
    const DIGEST_LEN: usize = sha1::DIGEST_LEN;

    #[inline]
    fn digest_seed(&self, seed: &U256) -> Self::Digest {
        sha1::sha1_fixed32(seed)
    }

    #[inline]
    fn prefix64_of(d: &Self::Digest) -> u64 {
        prefix64_of_bytes(d)
    }

    #[inline]
    fn digest_prefix64(&self, seed: &U256) -> u64 {
        lanes::sha1_fixed32_prefix64(seed)
    }

    fn digest_batch(&self, seeds: &[U256], out: &mut Vec<Self::Digest>) {
        dispatch::sha1_digest_batch(seeds, out);
    }

    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        dispatch::sha1_prefix_hits(s_init, runs, target_prefix, hits);
    }
}

/// SHA-1 through the generic streaming path — the unoptimized baseline for
/// the §3.2.2 ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sha1Generic;

impl SeedHash for Sha1Generic {
    type Digest = sha1::Sha1Digest;
    const NAME: &'static str = "SHA-1 (generic)";
    const DIGEST_LEN: usize = sha1::DIGEST_LEN;

    #[inline]
    fn digest_seed(&self, seed: &U256) -> Self::Digest {
        sha1::Sha1::digest(&seed.to_le_bytes())
    }

    #[inline]
    fn prefix64_of(d: &Self::Digest) -> u64 {
        prefix64_of_bytes(d)
    }
}

/// SHA3-256 with the fixed-32-byte-input fast path. This is the `SHA-3`
/// configuration benchmarked in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sha3Fixed;

impl SeedHash for Sha3Fixed {
    type Digest = sha3::Sha3_256Digest;
    const NAME: &'static str = "SHA-3";
    const DIGEST_LEN: usize = 32;

    #[inline]
    fn digest_seed(&self, seed: &U256) -> Self::Digest {
        sha3::sha3_256_fixed32(seed)
    }

    #[inline]
    fn prefix64_of(d: &Self::Digest) -> u64 {
        prefix64_of_bytes(d)
    }

    #[inline]
    fn digest_prefix64(&self, seed: &U256) -> u64 {
        lanes::sha3_256_fixed32_prefix64(seed)
    }

    fn digest_batch(&self, seeds: &[U256], out: &mut Vec<Self::Digest>) {
        dispatch::sha3_256_digest_batch(seeds, out);
    }

    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        dispatch::sha3_256_prefix_hits(s_init, runs, target_prefix, hits);
    }
}

/// SHA3-256 through the generic sponge — the unoptimized baseline for the
/// §3.2.2 ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sha3Generic;

impl SeedHash for Sha3Generic {
    type Digest = sha3::Sha3_256Digest;
    const NAME: &'static str = "SHA-3 (generic)";
    const DIGEST_LEN: usize = 32;

    #[inline]
    fn digest_seed(&self, seed: &U256) -> Self::Digest {
        sha3::Sha3_256::digest(&seed.to_le_bytes())
    }

    #[inline]
    fn prefix64_of(d: &Self::Digest) -> u64 {
        prefix64_of_bytes(d)
    }
}

/// SHA-256 with the fixed-input fast path (used by the salting/KDF step;
/// not one of the paper's benchmarked search hashes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sha256Fixed;

impl SeedHash for Sha256Fixed {
    type Digest = sha2::Sha256Digest;
    const NAME: &'static str = "SHA-256";
    const DIGEST_LEN: usize = sha2::DIGEST_LEN;

    #[inline]
    fn digest_seed(&self, seed: &U256) -> Self::Digest {
        sha2::sha256_fixed32(seed)
    }

    #[inline]
    fn prefix64_of(d: &Self::Digest) -> u64 {
        prefix64_of_bytes(d)
    }
}

/// Runtime-selectable hash algorithm, for protocol messages and report
/// generation where static dispatch is not needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum HashAlgo {
    /// SHA-1 (20-byte digest). Insecure; benchmarking only.
    Sha1,
    /// SHA3-256 (32-byte digest).
    Sha3_256,
    /// SHA-256 (32-byte digest).
    Sha256,
}

impl HashAlgo {
    /// All supported algorithms, in the paper's presentation order.
    pub const ALL: [HashAlgo; 3] = [HashAlgo::Sha1, HashAlgo::Sha3_256, HashAlgo::Sha256];

    /// Digest length in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlgo::Sha1 => 20,
            HashAlgo::Sha3_256 | HashAlgo::Sha256 => 32,
        }
    }

    /// Algorithm name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            HashAlgo::Sha1 => "SHA-1",
            HashAlgo::Sha3_256 => "SHA-3",
            HashAlgo::Sha256 => "SHA-256",
        }
    }

    /// Hashes a seed, returning a dynamically sized digest.
    pub fn digest_seed(self, seed: &U256) -> DynDigest {
        match self {
            HashAlgo::Sha1 => DynDigest::from_slice(&sha1::sha1_fixed32(seed)),
            HashAlgo::Sha3_256 => DynDigest::from_slice(&sha3::sha3_256_fixed32(seed)),
            HashAlgo::Sha256 => DynDigest::from_slice(&sha2::sha256_fixed32(seed)),
        }
    }

    /// Hashes an arbitrary byte string through the generic path.
    pub fn digest_bytes(self, data: &[u8]) -> DynDigest {
        match self {
            HashAlgo::Sha1 => DynDigest::from_slice(&sha1::Sha1::digest(data)),
            HashAlgo::Sha3_256 => DynDigest::from_slice(&sha3::Sha3_256::digest(data)),
            HashAlgo::Sha256 => DynDigest::from_slice(&sha2::Sha256::digest(data)),
        }
    }

    /// Hashes a batch of seeds, clearing and refilling `out` so
    /// `out[i] == digest_seed(&seeds[i])`.
    ///
    /// SHA-1 and SHA3-256 route through the interleaved multi-lane
    /// kernels of their fixed-input hashers ([`Sha1Fixed::digest_batch`],
    /// [`Sha3Fixed::digest_batch`]); SHA-256 has no lane kernel and loops
    /// the scalar fixed-input path.
    pub fn digest_seed_batch(self, seeds: &[U256], out: &mut Vec<DynDigest>) {
        fn via<H: SeedHash>(hasher: H, seeds: &[U256], out: &mut Vec<DynDigest>)
        where
            H::Digest: AsRef<[u8]>,
        {
            let mut typed: Vec<H::Digest> = Vec::with_capacity(seeds.len());
            hasher.digest_batch(seeds, &mut typed);
            out.clear();
            out.extend(typed.iter().map(|d| DynDigest::from_slice(d.as_ref())));
        }
        match self {
            HashAlgo::Sha1 => via(Sha1Fixed, seeds, out),
            HashAlgo::Sha3_256 => via(Sha3Fixed, seeds, out),
            HashAlgo::Sha256 => via(Sha256Fixed, seeds, out),
        }
    }

    /// [`SeedHash::prefix_hits`] for this algorithm: clears `hits`, then
    /// pushes, ascending, every index `i` of the batch `runs` lists with
    /// `digest_seed(&(s_init ^ mask_i)).prefix64() == target_prefix`.
    ///
    /// This is the runtime-dispatched entry to the fused prescreen
    /// kernels the batched search loop drives, one dynamic dispatch per
    /// batch rather than per candidate.
    pub fn prefix_hits(
        self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        match self {
            HashAlgo::Sha1 => Sha1Fixed.prefix_hits(s_init, runs, target_prefix, hits),
            HashAlgo::Sha3_256 => Sha3Fixed.prefix_hits(s_init, runs, target_prefix, hits),
            HashAlgo::Sha256 => Sha256Fixed.prefix_hits(s_init, runs, target_prefix, hits),
        }
    }
}

impl fmt::Display for HashAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A digest of runtime-determined length (at most 64 bytes), stored inline
/// so protocol messages stay allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynDigest {
    bytes: [u8; 64],
    len: u8,
}

impl DynDigest {
    /// Wraps a digest slice (panics if longer than 64 bytes).
    pub fn from_slice(d: &[u8]) -> Self {
        assert!(d.len() <= 64, "digest too long");
        let mut bytes = [0u8; 64];
        bytes[..d.len()].copy_from_slice(d);
        DynDigest { bytes, len: d.len() as u8 }
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// The 64-bit prescreen key: the first 8 bytes read little-endian —
    /// the same convention as [`SeedHash::prefix64_of`], so runtime- and
    /// static-dispatch engines agree on prescreen decisions.
    ///
    /// Panics if the digest is shorter than 8 bytes (every supported
    /// [`HashAlgo`] digest is at least 20).
    pub fn prefix64(&self) -> u64 {
        prefix64_of_bytes(self.as_bytes())
    }

    /// Digest length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the digest is empty (never true for real digests).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        hex::encode(self.as_bytes())
    }
}

impl fmt::Debug for DynDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DynDigest({})", self.to_hex())
    }
}

impl AsRef<[u8]> for DynDigest {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl serde::Serialize for DynDigest {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        hex::serialize(self.as_bytes(), serializer)
    }
}

impl<'de> serde::Deserialize<'de> for DynDigest {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let bytes = hex::deserialize(deserializer)?;
        if bytes.len() > 64 {
            return Err(D::Error::custom("digest longer than 64 bytes"));
        }
        Ok(DynDigest::from_slice(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_paths_match_generic_paths() {
        let seed = U256::from_limbs([0xAAAA, 0xBBBB, 0xCCCC, 0xDDDD]);
        assert_eq!(Sha1Fixed.digest_seed(&seed), Sha1Generic.digest_seed(&seed));
        assert_eq!(Sha3Fixed.digest_seed(&seed), Sha3Generic.digest_seed(&seed));
    }

    /// Exercises every batch length that hits a different mix of wide
    /// lane groups, narrow lane groups and scalar tail.
    #[test]
    fn batch_paths_match_scalar_at_every_size() {
        let seeds: Vec<U256> = (0..21u64)
            .map(|i| U256::from_limbs([i.wrapping_mul(0x9E3779B97F4A7C15), !i, i << 7, i ^ 0xFF]))
            .collect();
        let mut digests1 = Vec::new();
        let mut digests3 = Vec::new();
        let mut prefixes1 = Vec::new();
        let mut prefixes3 = Vec::new();
        for n in 0..=seeds.len() {
            let s = &seeds[..n];
            Sha1Fixed.digest_batch(s, &mut digests1);
            let want1: Vec<_> = s.iter().map(|x| Sha1Fixed.digest_seed(x)).collect();
            assert_eq!(digests1, want1, "sha1 digests, n={n}");
            Sha3Fixed.digest_batch(s, &mut digests3);
            let want3: Vec<_> = s.iter().map(|x| Sha3Fixed.digest_seed(x)).collect();
            assert_eq!(digests3, want3, "sha3 digests, n={n}");
            dispatch::sha1_prefix64_batch(s, &mut prefixes1);
            let wantp1: Vec<_> = s.iter().map(|x| Sha1Fixed.digest_prefix64(x)).collect();
            assert_eq!(prefixes1, wantp1, "sha1 prefixes, n={n}");
            dispatch::sha3_256_prefix64_batch(s, &mut prefixes3);
            let wantp3: Vec<_> = s.iter().map(|x| Sha3Fixed.digest_prefix64(x)).collect();
            assert_eq!(prefixes3, wantp3, "sha3 prefixes, n={n}");
        }
    }

    #[test]
    fn prefix64_is_digest_head_for_every_hasher() {
        fn check<H: SeedHash>(h: H, seed: &U256)
        where
            H::Digest: AsRef<[u8]>,
        {
            let d = h.digest_seed(seed);
            let mut first = [0u8; 8];
            first.copy_from_slice(&d.as_ref()[..8]);
            assert_eq!(H::prefix64_of(&d), u64::from_le_bytes(first), "{}", H::NAME);
            assert_eq!(h.digest_prefix64(seed), H::prefix64_of(&d), "{}", H::NAME);
        }
        let seed = U256::from_limbs([0x1234, 0x5678, 0x9ABC, 0xDEF0]);
        check(Sha1Fixed, &seed);
        check(Sha1Generic, &seed);
        check(Sha3Fixed, &seed);
        check(Sha3Generic, &seed);
        check(Sha256Fixed, &seed);
    }

    #[test]
    fn dyn_digest_agrees_with_static() {
        let seed = U256::from_u64(42);
        assert_eq!(HashAlgo::Sha1.digest_seed(&seed).as_bytes(), &Sha1Fixed.digest_seed(&seed)[..]);
        assert_eq!(
            HashAlgo::Sha3_256.digest_seed(&seed).as_bytes(),
            &Sha3Fixed.digest_seed(&seed)[..]
        );
        assert_eq!(
            HashAlgo::Sha256.digest_seed(&seed).as_bytes(),
            &Sha256Fixed.digest_seed(&seed)[..]
        );
    }

    #[test]
    fn dyn_digest_lengths() {
        let seed = U256::ZERO;
        assert_eq!(HashAlgo::Sha1.digest_seed(&seed).len(), 20);
        assert_eq!(HashAlgo::Sha3_256.digest_seed(&seed).len(), 32);
        assert_eq!(HashAlgo::Sha1.digest_len(), 20);
        assert!(!HashAlgo::Sha1.digest_seed(&seed).is_empty());
    }

    #[test]
    fn hash_algo_batch_paths_match_scalar() {
        let seeds: Vec<U256> = (0..23u64).map(|i| U256::from_u64(i * 1_000_003 + 7)).collect();
        for algo in HashAlgo::ALL {
            // Every batch length exercises the wide/narrow/scalar drains.
            for n in [0usize, 1, 2, 5, 8, 23] {
                let mut digests = Vec::new();
                algo.digest_seed_batch(&seeds[..n], &mut digests);
                let want: Vec<DynDigest> = seeds[..n].iter().map(|s| algo.digest_seed(s)).collect();
                assert_eq!(digests, want, "{algo} digests, n={n}");

                // Target the last candidate's prefix: exactly its index hits.
                let s_init = seeds[0];
                let masks = &seeds[1..n.max(1)];
                let Some(last) = masks.last() else { continue };
                let tp = algo.digest_seed(&(s_init ^ *last)).prefix64();
                let runs: Vec<MaskRun> = masks.iter().copied().map(MaskRun::single).collect();
                let mut hits = vec![usize::MAX];
                algo.prefix_hits(&s_init, &runs, tp, &mut hits);
                assert_eq!(hits, vec![masks.len() - 1], "{algo} prefix hits, n={n}");
            }
        }
    }

    #[test]
    fn dyn_digest_prefix64_is_first_eight_bytes_le() {
        let seed = U256::from_u64(99);
        for algo in HashAlgo::ALL {
            let d = algo.digest_seed(&seed);
            let mut first = [0u8; 8];
            first.copy_from_slice(&d.as_bytes()[..8]);
            assert_eq!(d.prefix64(), u64::from_le_bytes(first), "{algo}");
        }
    }

    #[test]
    fn digest_bytes_matches_digest_seed_on_le_serialization() {
        let seed = U256::from_limbs([7, 8, 9, 10]);
        for algo in HashAlgo::ALL {
            assert_eq!(algo.digest_seed(&seed), algo.digest_bytes(&seed.to_le_bytes()), "{algo}");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(HashAlgo::Sha1.name(), "SHA-1");
        assert_eq!(HashAlgo::Sha3_256.name(), "SHA-3");
        assert_eq!(format!("{}", HashAlgo::Sha3_256), "SHA-3");
    }

    #[test]
    fn dyn_digest_hex() {
        let d = DynDigest::from_slice(&[0xab, 0x01]);
        assert_eq!(d.to_hex(), "ab01");
        assert_eq!(d.as_ref(), &[0xab, 0x01]);
        assert!(format!("{d:?}").contains("ab01"));
    }

    #[test]
    #[should_panic(expected = "digest too long")]
    fn dyn_digest_overflow_panics() {
        DynDigest::from_slice(&[0u8; 65]);
    }
}
