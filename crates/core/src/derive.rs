//! The per-candidate derivation abstraction.
//!
//! The paper's framing: original RBC is *algorithm-aware* — each candidate
//! seed is pushed through the client's cryptographic algorithm's key
//! generation; RBC-SALTED is *algorithm-agnostic* — each candidate is
//! hashed. Both are "derive something comparable from a seed", so one
//! search engine serves both once that derivation is a trait. This is the
//! concrete form of the paper's claim that "optimization efforts can be
//! focused on a single search method".

use core::fmt;
use rbc_bits::{MaskRun, U256};
use rbc_ciphers::SeedCipher;
use rbc_hash::{DynDigest, HashAlgo, SeedHash};
use rbc_pqc::PqcKeyGen;

/// Derives a fixed, comparable response from a candidate seed.
pub trait Derive: Clone + Send + Sync + 'static {
    /// The comparable response type.
    type Out: Copy + Eq + Send + Sync + fmt::Debug;

    /// Name used in reports and tables.
    fn name(&self) -> &'static str;

    /// Derives the response for one candidate seed — the hot operation of
    /// the whole system.
    fn derive(&self, seed: &U256) -> Self::Out;

    /// Derives a batch of candidates, clearing and refilling `out` so
    /// `out[i] == derive(&seeds[i])`.
    ///
    /// The default loops [`Derive::derive`], so algorithm-aware engines
    /// (cipher / PQC keygen) work unchanged; hash derivations override with
    /// interleaved multi-lane kernels.
    fn derive_batch(&self, seeds: &[U256], out: &mut Vec<Self::Out>) {
        out.clear();
        out.extend(seeds.iter().map(|s| self.derive(s)));
    }

    /// 64-bit prescreen key of a response (its first 8 bytes, read
    /// little-endian), or `None` when this derivation has no cheap
    /// truncated path.
    ///
    /// When `Some`, the search loop asks [`Derive::prefix_hits`] which
    /// candidates' keys equal the target's key and pays for a full
    /// derivation + compare only on those. A prefix collision without
    /// digest equality occurs with probability 2⁻⁶⁴ per candidate and is
    /// resolved by that full compare, so results are identical to the
    /// full-compare path.
    #[inline]
    fn prefix64(&self, _out: &Self::Out) -> Option<u64> {
        None
    }

    /// The prescreen of one batch: clears `hits`, then pushes, in
    /// ascending order, every index `i` of the batch `runs` lists (its
    /// masks counted across runs) whose candidate `s_init ^ mask_i` has
    /// prescreen key `target_prefix`. Only called when
    /// [`Derive::prefix64`] returned `Some` for the target; the default
    /// derives each candidate fully and truncates. Hash derivations
    /// override with fused kernels that build, hash and compare the
    /// candidates without materializing masks or seeds.
    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        hits.clear();
        for (i, mask) in runs.iter().flat_map(MaskRun::masks).enumerate() {
            let key = self
                .prefix64(&self.derive(&(*s_init ^ mask)))
                .expect("prefix_hits called on a derivation without prefix support");
            if key == target_prefix {
                hits.push(i);
            }
        }
    }
}

/// RBC-SALTED derivation: hash the seed. Wraps any [`SeedHash`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashDerive<H: SeedHash>(pub H);

impl<H: SeedHash> Derive for HashDerive<H> {
    type Out = H::Digest;

    fn name(&self) -> &'static str {
        H::NAME
    }

    #[inline]
    fn derive(&self, seed: &U256) -> H::Digest {
        self.0.digest_seed(seed)
    }

    fn derive_batch(&self, seeds: &[U256], out: &mut Vec<H::Digest>) {
        self.0.digest_batch(seeds, out);
    }

    #[inline]
    fn prefix64(&self, out: &H::Digest) -> Option<u64> {
        Some(H::prefix64_of(out))
    }

    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        self.0.prefix_hits(s_init, runs, target_prefix, hits);
    }
}

/// Runtime-dispatched hash derivation, so one server can serve clients on
/// different SHA variants. Static-dispatch engines (used by the benches)
/// avoid the indirection; here the cost is one dynamic dispatch per
/// *batch*, not per candidate — the batch and prescreen entry points
/// forward to the same dispatched kernels ([`rbc_hash::dispatch`]) the
/// static [`HashDerive`] engines run, so CA-driven searches take the same
/// hot path as the benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynHashDerive(pub HashAlgo);

impl Derive for DynHashDerive {
    type Out = DynDigest;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    #[inline]
    fn derive(&self, seed: &U256) -> DynDigest {
        self.0.digest_seed(seed)
    }

    fn derive_batch(&self, seeds: &[U256], out: &mut Vec<DynDigest>) {
        self.0.digest_seed_batch(seeds, out);
    }

    #[inline]
    fn prefix64(&self, out: &DynDigest) -> Option<u64> {
        Some(out.prefix64())
    }

    fn prefix_hits(
        &self,
        s_init: &U256,
        runs: &[MaskRun],
        target_prefix: u64,
        hits: &mut Vec<usize>,
    ) {
        self.0.prefix_hits(s_init, runs, target_prefix, hits);
    }
}

/// Algorithm-aware derivation via a symmetric cipher (prior-work AES /
/// ChaCha20 / SPECK engines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CipherDerive<C: SeedCipher>(pub C);

impl<C: SeedCipher> Derive for CipherDerive<C> {
    type Out = C::Response;

    fn name(&self) -> &'static str {
        C::NAME
    }

    #[inline]
    fn derive(&self, seed: &U256) -> C::Response {
        self.0.derive(seed)
    }
}

/// Algorithm-aware derivation via PQC key generation (prior-work SABER /
/// Dilithium engines). The response is the public-key fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PqcDerive<P: PqcKeyGen>(pub P);

impl<P: PqcKeyGen> Derive for PqcDerive<P> {
    type Out = [u8; 32];

    fn name(&self) -> &'static str {
        P::NAME
    }

    #[inline]
    fn derive(&self, seed: &U256) -> [u8; 32] {
        self.0.response(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_ciphers::AesResponse;
    use rbc_hash::{Sha1Fixed, Sha3Fixed};
    use rbc_pqc::LightSaber;

    #[test]
    fn hash_derive_matches_hasher() {
        let seed = U256::from_u64(5);
        assert_eq!(HashDerive(Sha3Fixed).derive(&seed), Sha3Fixed.digest_seed(&seed));
        assert_eq!(HashDerive(Sha1Fixed).name(), "SHA-1");
    }

    #[test]
    fn cipher_derive_matches_cipher() {
        let seed = U256::from_u64(6);
        assert_eq!(
            CipherDerive(AesResponse).derive(&seed),
            rbc_ciphers::SeedCipher::derive(&AesResponse, &seed)
        );
        assert_eq!(CipherDerive(AesResponse).name(), "AES-128");
    }

    #[test]
    fn pqc_derive_matches_keygen() {
        let seed = U256::from_u64(7);
        assert_eq!(PqcDerive(LightSaber).derive(&seed), LightSaber.response(&seed));
        assert_eq!(PqcDerive(LightSaber).name(), "LightSABER");
    }

    #[test]
    fn derive_batch_matches_scalar_for_all_derivations() {
        let seeds: Vec<U256> = (0..13u64).map(|i| U256::from_u64(i * 97 + 1)).collect();
        fn check<D: Derive>(d: D, seeds: &[U256]) {
            let mut out = Vec::new();
            d.derive_batch(seeds, &mut out);
            let want: Vec<_> = seeds.iter().map(|s| d.derive(s)).collect();
            assert_eq!(out, want, "{}", d.name());
        }
        check(HashDerive(Sha1Fixed), &seeds);
        check(HashDerive(Sha3Fixed), &seeds);
        check(CipherDerive(AesResponse), &seeds);
        check(PqcDerive(LightSaber), &seeds);
        for algo in HashAlgo::ALL {
            check(DynHashDerive(algo), &seeds);
        }
    }

    /// A hash derivation without the fused prescreen, so `prefix_hits`
    /// takes the trait's default: derive fully, truncate, compare.
    #[derive(Clone)]
    struct Unfused<D>(D);

    impl<D: Derive> Derive for Unfused<D> {
        type Out = D::Out;

        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn derive(&self, seed: &U256) -> D::Out {
            self.0.derive(seed)
        }

        fn prefix64(&self, out: &D::Out) -> Option<u64> {
            self.0.prefix64(out)
        }
    }

    #[test]
    fn fused_prescreens_match_the_default_for_every_hash() {
        // The CA's runtime-dispatched derivation and the static engines'
        // must pick exactly the candidates the unfused default picks —
        // same prescreen decisions on the same hot path.
        // 53 masks: a run of 40 crossing bit 64, then 13 one-mask runs.
        let s_init = U256::from_limbs([3, 1, 4, 1]);
        let mut runs = vec![MaskRun::new(U256::from_set_bits([90, 200]), 40..80)];
        runs.extend((0..13u64).map(|i| MaskRun::single(U256::from_u64(i * 31 + 5))));
        fn check<D: Derive>(d: D, s_init: &U256, runs: &[MaskRun]) {
            let (mut got, mut want) = (vec![usize::MAX], Vec::new());
            for pick in [0, 17, 39, 40, 52] {
                let mask = MaskRun::nth(runs, pick).unwrap();
                let tp = d.prefix64(&d.derive(&(*s_init ^ mask))).unwrap();
                d.prefix_hits(s_init, runs, tp, &mut got);
                Unfused(d.clone()).prefix_hits(s_init, runs, tp, &mut want);
                assert_eq!(got, want, "{} pick {pick}", d.name());
                assert_eq!(got, vec![pick], "{}", d.name());
            }
        }
        check(HashDerive(Sha1Fixed), &s_init, &runs);
        check(HashDerive(Sha3Fixed), &s_init, &runs);
        for algo in HashAlgo::ALL {
            check(DynHashDerive(algo), &s_init, &runs);
        }
    }

    #[test]
    fn hash_prefix64_is_digest_head_and_ciphers_opt_out() {
        let seed = U256::from_u64(11);
        let h = HashDerive(Sha3Fixed);
        let digest = h.derive(&seed);
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        assert_eq!(h.prefix64(&digest), Some(u64::from_le_bytes(first)));

        let mut hits = Vec::new();
        let runs = [MaskRun::single(U256::ZERO), MaskRun::single(U256::ONE)];
        h.prefix_hits(&seed, &runs, u64::from_le_bytes(first), &mut hits);
        assert_eq!(hits, vec![0]);

        let c = CipherDerive(AesResponse);
        assert_eq!(c.prefix64(&c.derive(&seed)), None);
    }
}
