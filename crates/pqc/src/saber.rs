//! LightSaber key generation — the Module-LWR baseline of Lee et al.'s
//! SABER-GPU RBC engine (Table 7's "LightSABER" row).
//!
//! Parameters (LightSaber): ring `Z_q[x]/(x^256+1)` with `q = 2^13`,
//! rounding modulus `p = 2^10`, module rank `ℓ = 2`, centered binomial
//! noise with `μ = 10`. Keygen: expand `A ∈ R_q^{ℓ×ℓ}` from `seed_A` via
//! SHAKE-128, sample the short secret `s` from SHAKE-128 of `seed_s`,
//! compute `b = ((Aᵀ·s + h) mod q) >> (ε_q − ε_p)`.
//!
//! SABER has no NTT-friendly modulus (q is a power of two); real
//! implementations use Toom–Cook/Karatsuba and GPU ones use schoolbook in
//! registers. We use negacyclic schoolbook — the same asymptotic work the
//! prior-work GPU kernel performs. Because q = 2^13 divides 2^16, the
//! products accumulate in wrapping `u16` and one final 13-bit mask gives
//! exactly the integer result mod q, with no widening and no sign
//! fix-up. The `x^256 = −1` wrap is a slice offset into the doubled
//! operand `[−b, b]`, so each of the 256 rows is one branch-free
//! 256-term loop that the compiler vectorises.
//!
//! **Fidelity note:** as with Dilithium (see module docs there), the byte
//! packing is not KAT-interoperable; dimensions, sampling and arithmetic
//! structure are faithful, so the per-candidate cost is representative.

use rbc_hash::shake::Shake128;

/// Ring degree.
pub const N: usize = 256;
/// Module rank for LightSaber.
pub const L: usize = 2;
/// log2(q).
pub const EPS_Q: u32 = 13;
/// log2(p).
pub const EPS_P: u32 = 10;
/// Centered-binomial parameter (sum of μ/2 = 5 bit pairs).
pub const MU: usize = 10;

const Q_MASK: u16 = (1 << EPS_Q) - 1;
/// Rounding constant h: q/2p added before the shift.
const H: u16 = 1 << (EPS_Q - EPS_P - 1);

/// A polynomial with coefficients mod `q = 2^13`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolyQ {
    /// Coefficients, each in `[0, 2^13)`.
    pub c: [u16; N],
}

impl Default for PolyQ {
    fn default() -> Self {
        PolyQ { c: [0; N] }
    }
}

impl PolyQ {
    /// Negacyclic schoolbook product mod `x^256 + 1`, coefficients mod q.
    ///
    /// Accumulates in wrapping `u16`: q = 2^13 divides 2^16, so every
    /// coefficient mod 2^16, masked to 13 bits, is the exact integer sum
    /// mod q. The wrap `x^256 = −1` is folded into a doubled operand
    /// `[−b, b]`: row `i` adds `a_i · ext[N − i .. 2N − i]`, whose first
    /// `i` entries are the negated terms past the wrap point and the
    /// rest the direct ones. Every row is one full-length, branch-free
    /// loop, which the compiler vectorises.
    pub fn mul(&self, other: &PolyQ) -> PolyQ {
        let mut ext = [0u16; 2 * N];
        for (j, &b) in other.c.iter().enumerate() {
            ext[j] = b.wrapping_neg();
            ext[N + j] = b;
        }
        let mut acc = [0u16; N];
        for (i, &a) in self.c.iter().enumerate() {
            for (o, &b) in acc.iter_mut().zip(&ext[N - i..2 * N - i]) {
                *o = o.wrapping_add(a.wrapping_mul(b));
            }
        }
        let mut out = PolyQ::default();
        for (o, &v) in out.c.iter_mut().zip(acc.iter()) {
            *o = v & Q_MASK;
        }
        out
    }

    /// Coefficient-wise addition mod q.
    pub fn add(&self, other: &PolyQ) -> PolyQ {
        let mut out = PolyQ::default();
        for i in 0..N {
            out.c[i] = (self.c[i] + other.c[i]) & Q_MASK;
        }
        out
    }
}

/// A LightSaber public key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SaberPublicKey {
    /// Matrix seed.
    pub seed_a: [u8; 32],
    /// Rounded vector `b`, coefficients mod `p = 2^10`.
    pub b: [[u16; N]; L],
}

impl SaberPublicKey {
    /// Canonical byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + L * N * 2);
        out.extend_from_slice(&self.seed_a);
        for row in &self.b {
            for &c in row.iter() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

/// A LightSaber secret key.
#[derive(Clone, Debug)]
pub struct SaberSecretKey {
    /// The short secret vector, coefficients centered in `[-μ/2, μ/2]`.
    pub s: [[i16; N]; L],
}

/// Expands one uniform mod-q polynomial from the XOF stream.
fn squeeze_poly_q(xof: &mut Shake128) -> PolyQ {
    // 13 bits per coefficient: read 13 bytes → 8 coefficients.
    let mut p = PolyQ::default();
    let mut buf = [0u8; 13];
    let mut filled = 0usize;
    while filled < N {
        xof.squeeze(&mut buf);
        let mut bits = 0u32;
        let mut acc = 0u32;
        for &byte in buf.iter() {
            acc |= (byte as u32) << bits;
            bits += 8;
            while bits >= 13 && filled < N {
                p.c[filled] = (acc & Q_MASK as u32) as u16;
                acc >>= 13;
                bits -= 13;
                filled += 1;
            }
        }
    }
    p
}

/// Samples a centered-binomial polynomial (μ = 10: HW of 5 bits minus HW
/// of 5 bits per coefficient).
fn sample_cbd(xof: &mut Shake128) -> [i16; N] {
    let mut out = [0i16; N];
    // 10 bits per coefficient → 2560 bits = 320 bytes.
    let mut buf = [0u8; 320];
    xof.squeeze(&mut buf);
    let mut bitpos = 0usize;
    for o in out.iter_mut() {
        let mut x = 0u32;
        for k in 0..MU {
            let bit = (buf[(bitpos + k) / 8] >> ((bitpos + k) % 8)) & 1;
            x |= (bit as u32) << k;
        }
        bitpos += MU;
        let a = (x & 0x1f).count_ones() as i16;
        let b = ((x >> 5) & 0x1f).count_ones() as i16;
        *o = a - b;
    }
    out
}

/// Generates a LightSaber key pair from a 32-byte seed.
pub fn keygen(seed: &[u8; 32]) -> (SaberPublicKey, SaberSecretKey) {
    // Split the seed stream into seed_A and seed_s.
    let expanded = Shake128::xof(seed, 64);
    let seed_a: [u8; 32] = expanded[..32].try_into().expect("seed_A");
    let seed_s: [u8; 32] = expanded[32..].try_into().expect("seed_s");

    // A ∈ R_q^{ℓ×ℓ}, row-major from one continuous XOF stream.
    let mut xof_a = Shake128::new();
    xof_a.update(&seed_a);
    let mut a = [[PolyQ::default(); L]; L];
    for row in a.iter_mut() {
        for cell in row.iter_mut() {
            *cell = squeeze_poly_q(&mut xof_a);
        }
    }

    // Secret s.
    let mut xof_s = Shake128::new();
    xof_s.update(&seed_s);
    let mut s = [[0i16; N]; L];
    for row in s.iter_mut() {
        *row = sample_cbd(&mut xof_s);
    }

    // b = ((Aᵀ s + h) mod q) >> (ε_q − ε_p).
    let s_q: Vec<PolyQ> = s
        .iter()
        .map(|row| {
            let mut p = PolyQ::default();
            for (o, &v) in p.c.iter_mut().zip(row.iter()) {
                *o = (v as i32).rem_euclid(1 << EPS_Q) as u16;
            }
            p
        })
        .collect();
    let mut b = [[0u16; N]; L];
    for j in 0..L {
        let mut acc = PolyQ::default();
        for i in 0..L {
            // Aᵀ: element (j, i) of Aᵀ is A[i][j].
            acc = acc.add(&a[i][j].mul(&s_q[i]));
        }
        for (o, &v) in b[j].iter_mut().zip(acc.c.iter()) {
            *o = ((v + H) & Q_MASK) >> (EPS_Q - EPS_P);
        }
    }

    (SaberPublicKey { seed_a, b }, SaberSecretKey { s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook product: exact `i64` sums, one branch per term and a
    /// `rem_euclid` per coefficient — what [`PolyQ::mul`] must equal.
    fn reference_mul(x: &PolyQ, y: &PolyQ) -> PolyQ {
        let mut acc = [0i64; N];
        for i in 0..N {
            for j in 0..N {
                let prod = x.c[i] as i64 * y.c[j] as i64;
                if i + j < N {
                    acc[i + j] += prod;
                } else {
                    acc[i + j - N] -= prod;
                }
            }
        }
        let mut out = PolyQ::default();
        for (o, &v) in out.c.iter_mut().zip(acc.iter()) {
            *o = v.rem_euclid(1 << EPS_Q) as u16;
        }
        out
    }

    fn poly(coeffs: &[u16]) -> PolyQ {
        let mut p = PolyQ::default();
        p.c.copy_from_slice(coeffs);
        p
    }

    #[test]
    fn mul_matches_reference_on_edge_cases() {
        let top = PolyQ { c: [Q_MASK; N] };
        let zero = PolyQ::default();
        let mut x255 = PolyQ::default();
        x255.c[N - 1] = 1;
        let mut x = PolyQ::default();
        x.c[1] = 1;
        let mut one = PolyQ::default();
        one.c[0] = 1;
        let cases = [(top, top), (top, zero), (zero, top), (x255, x), (x, x255), (top, one)];
        for (a, b) in cases {
            assert_eq!(a.mul(&b), reference_mul(&a, &b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mul_matches_reference(
            a in proptest::collection::vec(0u16..1 << EPS_Q, N..N + 1),
            b in proptest::collection::vec(0u16..1 << EPS_Q, N..N + 1),
        ) {
            let (a, b) = (poly(&a), poly(&b));
            prop_assert_eq!(a.mul(&b), reference_mul(&a, &b));
        }
    }

    #[test]
    fn keygen_is_deterministic() {
        let (pk1, _) = keygen(&[4u8; 32]);
        let (pk2, _) = keygen(&[4u8; 32]);
        assert_eq!(pk1, pk2);
    }

    #[test]
    fn keygen_is_seed_sensitive() {
        let (pk1, _) = keygen(&[0u8; 32]);
        let mut seed = [0u8; 32];
        seed[0] = 1;
        let (pk2, _) = keygen(&seed);
        assert_ne!(pk1, pk2);
    }

    #[test]
    fn b_coefficients_are_mod_p() {
        let (pk, _) = keygen(&[8u8; 32]);
        for row in &pk.b {
            assert!(row.iter().all(|&c| c < (1 << EPS_P)));
        }
    }

    #[test]
    fn secret_is_centered_binomial() {
        let (_, sk) = keygen(&[12u8; 32]);
        let mut counts = std::collections::HashMap::new();
        for row in &sk.s {
            for &c in row.iter() {
                assert!((-5..=5).contains(&c), "coefficient {c} outside ±μ/2");
                *counts.entry(c).or_insert(0usize) += 1;
            }
        }
        // CBD(5) concentrates near zero.
        let zeroish = counts.get(&0).copied().unwrap_or(0)
            + counts.get(&1).copied().unwrap_or(0)
            + counts.get(&-1).copied().unwrap_or(0);
        assert!(zeroish * 2 > N * L, "distribution not centered: {counts:?}");
    }

    #[test]
    fn poly_mul_negacyclic_wraparound() {
        let mut a = PolyQ::default();
        a.c[N - 1] = 3;
        let mut x = PolyQ::default();
        x.c[1] = 1;
        let r = a.mul(&x);
        assert_eq!(r.c[0], ((1 << EPS_Q) - 3) as u16, "3·x^255·x = −3");
    }

    #[test]
    fn poly_identity() {
        let mut one = PolyQ::default();
        one.c[0] = 1;
        let (pk, _) = keygen(&[1u8; 32]);
        let mut p = PolyQ::default();
        for (o, &v) in p.c.iter_mut().zip(pk.b[0].iter()) {
            *o = v;
        }
        assert_eq!(p.mul(&one), p);
    }

    #[test]
    fn uniform_poly_covers_q_range() {
        let mut xof = Shake128::new();
        xof.update(b"range test");
        let p = squeeze_poly_q(&mut xof);
        assert!(p.c.iter().all(|&c| c < (1 << EPS_Q)));
        let max = p.c.iter().max().unwrap();
        assert!(*max > 3 << (EPS_Q - 2), "top quarter reached: max={max}");
    }

    #[test]
    fn to_bytes_roundtrip_identity_fields() {
        let (pk, _) = keygen(&[2u8; 32]);
        let bytes = pk.to_bytes();
        assert_eq!(&bytes[..32], &pk.seed_a);
        assert_eq!(bytes.len(), 32 + L * N * 2);
    }
}
