//! The [`U256`] four-limb integer.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, BitXor, Not, Shl, Shr, Sub};

use serde::{Deserialize, Serialize};

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
///
/// All arithmetic is **wrapping** (mod 2^256), which is what the seed
/// iterators require: Gosper's hack relies on two's-complement identities
/// such as `x & x.wrapping_neg()`.
///
/// The layout is exactly the limb array (one field, no padding: checked
/// at compile time below), so a slice of seeds is contiguous
/// little-endian limbs; the SIMD hash kernels gather seed words straight
/// from it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct U256 {
    limbs: [u64; 4],
}

// A single field filling the whole struct sits at offset 0.
const _: () = assert!(
    core::mem::size_of::<U256>() == core::mem::size_of::<[u64; 4]>()
        && core::mem::align_of::<U256>() == core::mem::align_of::<[u64; 4]>()
);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };

    /// The value `1`.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };

    /// The maximum value, `2^256 - 1`.
    pub const MAX: U256 = U256 { limbs: [u64::MAX; 4] };

    /// Constructs a value from little-endian limbs (`limbs[0]` = bits 0..64).
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs a value from a `u64` (upper 192 bits zero).
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256 { limbs: [v, 0, 0, 0] }
    }

    /// Constructs a value from a `u128` (upper 128 bits zero).
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256 { limbs: [v as u64, (v >> 64) as u64, 0, 0] }
    }

    /// Truncates to the low 64 bits.
    #[inline]
    pub const fn as_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Truncates to the low 128 bits.
    #[inline]
    pub const fn as_u128(&self) -> u128 {
        (self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64)
    }

    /// Reads a value from 32 little-endian bytes.
    #[inline]
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Writes the value as 32 little-endian bytes.
    #[inline]
    pub fn to_le_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Reads a value from 32 big-endian bytes.
    #[inline]
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut rev = *bytes;
        rev.reverse();
        Self::from_le_bytes(&rev)
    }

    /// Writes the value as 32 big-endian bytes.
    #[inline]
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = self.to_le_bytes();
        out.reverse();
        out
    }

    /// Parses a hexadecimal string (with or without `0x` prefix, big-endian
    /// digit order, up to 64 digits).
    pub fn from_hex(s: &str) -> Result<Self, ParseU256Error> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return Err(ParseU256Error::Length(s.len()));
        }
        let mut v = U256::ZERO;
        for c in s.chars() {
            let digit = c.to_digit(16).ok_or(ParseU256Error::Digit(c))? as u64;
            v = (v << 4) | U256::from_u64(digit);
        }
        Ok(v)
    }

    /// Formats the value as a 64-digit zero-padded lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for limb in self.limbs.iter().rev() {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Returns the number of set bits (the Hamming weight).
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    /// Returns the number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> u32 {
        256 - self.count_ones()
    }

    /// Returns the Hamming distance to `other` — the quantity `d` that
    /// bounds the RBC search.
    #[inline]
    pub fn hamming_distance(&self, other: &U256) -> u32 {
        (*self ^ *other).count_ones()
    }

    /// Returns the number of trailing (low-order) zero bits, 256 if zero.
    #[inline]
    pub fn trailing_zeros(&self) -> u32 {
        for (i, limb) in self.limbs.iter().enumerate() {
            if *limb != 0 {
                return i as u32 * 64 + limb.trailing_zeros();
            }
        }
        256
    }

    /// Returns the number of leading (high-order) zero bits, 256 if zero.
    #[inline]
    pub fn leading_zeros(&self) -> u32 {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return (3 - i as u32) * 64 + limb.leading_zeros();
            }
        }
        256
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Tests bit `i` (`i < 256`).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns a copy with bit `i` set.
    #[inline]
    #[must_use]
    pub fn set_bit(&self, i: usize) -> Self {
        debug_assert!(i < 256);
        let mut v = *self;
        v.limbs[i / 64] |= 1u64 << (i % 64);
        v
    }

    /// Returns a copy with bit `i` cleared.
    #[inline]
    #[must_use]
    pub fn clear_bit(&self, i: usize) -> Self {
        debug_assert!(i < 256);
        let mut v = *self;
        v.limbs[i / 64] &= !(1u64 << (i % 64));
        v
    }

    /// Returns a copy with bit `i` flipped. Flipping `d` distinct bits of a
    /// seed produces a candidate at Hamming distance `d`.
    #[inline]
    #[must_use]
    pub fn flip_bit(&self, i: usize) -> Self {
        debug_assert!(i < 256);
        let mut v = *self;
        v.limbs[i / 64] ^= 1u64 << (i % 64);
        v
    }

    /// Flips bit `i` in place.
    #[inline]
    pub fn flip_bit_in_place(&mut self, i: usize) {
        debug_assert!(i < 256);
        self.limbs[i / 64] ^= 1u64 << (i % 64);
    }

    /// Returns a value with exactly bits `positions` set.
    pub fn from_set_bits<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        let mut v = U256::ZERO;
        for p in positions {
            v = v.set_bit(p);
        }
        v
    }

    /// Iterates over the indices of set bits, lowest first.
    #[inline]
    pub fn set_bits(&self) -> SetBits {
        SetBits { limbs: self.limbs, limb_idx: 0 }
    }

    /// Wrapping addition (mod 2^256).
    #[inline]
    #[must_use]
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 | c2;
        }
        U256 { limbs: out }
    }

    /// Wrapping subtraction (mod 2^256).
    #[inline]
    #[must_use]
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (s2, b2) = s1.overflowing_sub(borrow as u64);
            *o = s2;
            borrow = b1 | b2;
        }
        U256 { limbs: out }
    }

    /// Two's-complement negation (mod 2^256); `x & x.wrapping_neg()`
    /// isolates the lowest set bit, the core step of Gosper's hack.
    #[inline]
    #[must_use]
    pub fn wrapping_neg(&self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Checked addition; `None` on overflow past 2^256.
    #[must_use]
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        let sum = self.wrapping_add(rhs);
        if sum < *self {
            None
        } else {
            Some(sum)
        }
    }

    /// Logical left shift by `n` bits; shifts of 256 or more yield zero.
    #[inline]
    #[must_use]
    pub fn shl(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let src = i - limb_shift;
            out[i] = self.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                out[i] |= self.limbs[src - 1] >> (64 - bit_shift);
            }
        }
        U256 { limbs: out }
    }

    /// Logical right shift by `n` bits; shifts of 256 or more yield zero.
    #[inline]
    #[must_use]
    pub fn shr(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for (i, o) in out.iter_mut().enumerate().take(4 - limb_shift) {
            let src = i + limb_shift;
            *o = self.limbs[src] >> bit_shift;
            if bit_shift > 0 && src < 3 {
                *o |= self.limbs[src + 1] << (64 - bit_shift);
            }
        }
        U256 { limbs: out }
    }

    /// Rotates left by `n` bits (used by the salting step, which derives
    /// `S'` from the found seed `S` by a keyed rotation).
    #[inline]
    #[must_use]
    pub fn rotate_left(&self, n: u32) -> U256 {
        let n = n % 256;
        if n == 0 {
            return *self;
        }
        self.shl(n) | self.shr(256 - n)
    }

    /// Rotates right by `n` bits.
    #[inline]
    #[must_use]
    pub fn rotate_right(&self, n: u32) -> U256 {
        let n = n % 256;
        if n == 0 {
            return *self;
        }
        self.shr(n) | self.shl(256 - n)
    }

    /// Division by a power of two expressed as the divisor value itself.
    ///
    /// Gosper's hack divides by the isolated lowest set bit; since that
    /// divisor is always a power of two this is a shift. Panics in debug
    /// builds if `divisor` is not a power of two.
    #[inline]
    #[must_use]
    pub fn div_pow2(&self, divisor: &U256) -> U256 {
        debug_assert_eq!(divisor.count_ones(), 1, "divisor must be a power of two");
        self.shr(divisor.trailing_zeros())
    }

    /// Samples a uniformly random value using `rng`.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        U256 { limbs: [rng.gen(), rng.gen(), rng.gen(), rng.gen()] }
    }

    /// Samples a random value at exactly Hamming distance `d` from `self`.
    ///
    /// Models a PUF readout whose noise flipped exactly `d` cells; used by
    /// the average-case trial driver and by the paper's noise-injection
    /// procedure (§4.1).
    pub fn random_at_distance<R: rand::Rng + ?Sized>(&self, d: u32, rng: &mut R) -> Self {
        assert!(d <= 256, "distance must be at most 256");
        let mut v = *self;
        let mut flipped = 0u32;
        while flipped < d {
            let i = rng.gen_range(0..256usize);
            if v.bit(i) == self.bit(i) {
                v.flip_bit_in_place(i);
                flipped += 1;
            }
        }
        v
    }
}

/// Error parsing a [`U256`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseU256Error {
    /// The string was empty or longer than 64 hex digits.
    Length(usize),
    /// A character was not a hex digit.
    Digit(char),
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseU256Error::Length(n) => write!(f, "invalid hex length {n} (want 1..=64)"),
            ParseU256Error::Digit(c) => write!(f, "invalid hex digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseU256Error {}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl PartialOrd for U256 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for U256 {
            type Output = U256;
            #[inline]
            fn $method(self, rhs: U256) -> U256 {
                U256 {
                    limbs: [
                        self.limbs[0] $op rhs.limbs[0],
                        self.limbs[1] $op rhs.limbs[1],
                        self.limbs[2] $op rhs.limbs[2],
                        self.limbs[3] $op rhs.limbs[3],
                    ],
                }
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl Not for U256 {
    type Output = U256;
    #[inline]
    fn not(self) -> U256 {
        U256 { limbs: [!self.limbs[0], !self.limbs[1], !self.limbs[2], !self.limbs[3]] }
    }
}

impl Add for U256 {
    type Output = U256;
    #[inline]
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(&rhs)
    }
}

impl Sub for U256 {
    type Output = U256;
    #[inline]
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(&rhs)
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    #[inline]
    fn shl(self, n: u32) -> U256 {
        U256::shl(&self, n)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    #[inline]
    fn shr(self, n: u32) -> U256 {
        U256::shr(&self, n)
    }
}

impl From<u64> for U256 {
    #[inline]
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    #[inline]
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

/// Iterator over set-bit indices of a [`U256`], lowest index first.
#[derive(Clone, Debug)]
pub struct SetBits {
    limbs: [u64; 4],
    limb_idx: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.limb_idx < 4 {
            let limb = &mut self.limbs[self.limb_idx];
            if *limb != 0 {
                let tz = limb.trailing_zeros();
                *limb &= *limb - 1;
                return Some(self.limb_idx * 64 + tz as usize);
            }
            self.limb_idx += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.limbs[self.limb_idx..].iter().map(|l| l.count_ones() as usize).sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetBits {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zero_one_max_basics() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ZERO.count_ones(), 0);
        assert_eq!(U256::MAX.count_ones(), 256);
        assert_eq!(U256::ONE.count_ones(), 1);
        assert_eq!(U256::MAX.count_zeros(), 0);
    }

    #[test]
    fn roundtrip_le_bytes() {
        let v = U256::from_limbs([1, 2, 3, 4]);
        assert_eq!(U256::from_le_bytes(&v.to_le_bytes()), v);
    }

    #[test]
    fn roundtrip_be_bytes() {
        let v = U256::from_limbs([0xdead_beef, 2, 3, 0x0102_0304]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        // BE byte 0 holds the most-significant byte.
        let one = U256::ONE.to_be_bytes();
        assert_eq!(one[31], 1);
        assert_eq!(one[0], 0);
    }

    #[test]
    fn hex_roundtrip_and_prefix() {
        let v = U256::from_limbs([0x1234, 0, 0xffff_0000_0000_0001, 0]);
        let h = v.to_hex();
        assert_eq!(h.len(), 64);
        assert_eq!(U256::from_hex(&h).unwrap(), v);
        assert_eq!(U256::from_hex("0xff").unwrap(), U256::from_u64(255));
        assert_eq!(U256::from_hex("ff").unwrap(), U256::from_u64(255));
    }

    #[test]
    fn hex_errors() {
        assert!(matches!(U256::from_hex(""), Err(ParseU256Error::Length(0))));
        assert!(matches!(U256::from_hex(&"a".repeat(65)), Err(ParseU256Error::Length(65))));
        assert!(matches!(U256::from_hex("zz"), Err(ParseU256Error::Digit('z'))));
    }

    #[test]
    fn bit_addressing_across_limbs() {
        for i in [0usize, 1, 63, 64, 127, 128, 191, 192, 255] {
            let v = U256::ZERO.set_bit(i);
            assert!(v.bit(i), "bit {i} should be set");
            assert_eq!(v.count_ones(), 1);
            assert_eq!(v.trailing_zeros(), i as u32);
            assert_eq!(v.leading_zeros(), 255 - i as u32);
            assert!(v.clear_bit(i).is_zero());
            assert!(v.flip_bit(i).is_zero());
        }
    }

    #[test]
    fn trailing_leading_zeros_of_zero() {
        assert_eq!(U256::ZERO.trailing_zeros(), 256);
        assert_eq!(U256::ZERO.leading_zeros(), 256);
    }

    #[test]
    fn add_carry_propagates_across_limbs() {
        let v = U256::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let s = v.wrapping_add(&U256::ONE);
        assert_eq!(s, U256::from_limbs([0, 0, 1, 0]));
    }

    #[test]
    fn sub_borrow_propagates_across_limbs() {
        let v = U256::from_limbs([0, 0, 1, 0]);
        let s = v.wrapping_sub(&U256::ONE);
        assert_eq!(s, U256::from_limbs([u64::MAX, u64::MAX, 0, 0]));
    }

    #[test]
    fn wrapping_at_boundary() {
        assert_eq!(U256::MAX.wrapping_add(&U256::ONE), U256::ZERO);
        assert_eq!(U256::ZERO.wrapping_sub(&U256::ONE), U256::MAX);
        assert_eq!(U256::ONE.wrapping_neg(), U256::MAX);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
        assert_eq!(U256::from_u64(1).checked_add(&U256::from_u64(2)), Some(U256::from_u64(3)));
    }

    #[test]
    fn shifts_cross_limb_boundaries() {
        let v = U256::from_u64(1);
        assert_eq!(v.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(v.shl(70), U256::from_limbs([0, 64, 0, 0]));
        assert_eq!(v.shl(255).shr(255), v);
        assert_eq!(v.shl(256), U256::ZERO);
        assert_eq!(U256::MAX.shr(256), U256::ZERO);
        assert_eq!(U256::MAX.shr(255), U256::ONE);
    }

    #[test]
    fn shift_zero_is_identity() {
        let v = U256::from_limbs([5, 6, 7, 8]);
        assert_eq!(v.shl(0), v);
        assert_eq!(v.shr(0), v);
    }

    #[test]
    fn rotate_roundtrip() {
        let v = U256::from_limbs([0x0123_4567, 0x89ab_cdef, 0xdead_beef, 0xcafe_f00d]);
        for n in [0u32, 1, 63, 64, 100, 255, 256, 300] {
            assert_eq!(v.rotate_left(n).rotate_right(n), v, "rotate by {n}");
        }
        assert_eq!(v.rotate_left(256), v);
    }

    #[test]
    fn rotate_preserves_weight() {
        let v = U256::from_limbs([0xff, 0, 0xf0f0, 1]);
        assert_eq!(v.rotate_left(77).count_ones(), v.count_ones());
    }

    #[test]
    fn div_pow2_matches_shift() {
        let v = U256::from_limbs([0, 0, 0x1000, 0]);
        let divisor = U256::ZERO.set_bit(12);
        assert_eq!(v.div_pow2(&divisor), v.shr(12));
    }

    #[test]
    fn ordering_is_big_endian_semantics() {
        let small = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        let big = U256::from_limbs([0, 0, 0, 1]);
        assert!(small < big);
        assert!(U256::ZERO < U256::ONE);
        assert_eq!(big.cmp(&big), Ordering::Equal);
    }

    #[test]
    fn hamming_distance_symmetric() {
        let a = U256::from_limbs([0b1010, 0, 0, 0]);
        let b = U256::from_limbs([0b0101, 0, 0, 1]);
        assert_eq!(a.hamming_distance(&b), 5);
        assert_eq!(b.hamming_distance(&a), 5);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn set_bits_iterator_yields_sorted_indices() {
        let v = U256::from_set_bits([0usize, 63, 64, 200, 255]);
        let got: Vec<usize> = v.set_bits().collect();
        assert_eq!(got, vec![0, 63, 64, 200, 255]);
        assert_eq!(v.set_bits().len(), 5);
    }

    #[test]
    fn set_bits_of_zero_is_empty() {
        assert_eq!(U256::ZERO.set_bits().count(), 0);
    }

    #[test]
    fn random_at_distance_is_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = U256::random(&mut rng);
        for d in [0u32, 1, 5, 32, 256] {
            let v = base.random_at_distance(d, &mut rng);
            assert_eq!(base.hamming_distance(&v), d);
        }
    }

    #[test]
    fn serde_json_roundtrip() {
        let v = U256::from_limbs([1, 2, 3, 4]);
        let s = serde_json::to_string(&v).unwrap();
        let back: U256 = serde_json::from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn display_and_debug() {
        let v = U256::from_u64(0xab);
        assert!(format!("{v}").ends_with("ab"));
        assert!(format!("{v:?}").starts_with("U256(0x"));
    }

    #[test]
    fn from_u128_splits_limbs() {
        let v = U256::from_u128((7u128 << 64) | 9);
        assert_eq!(v.limbs(), [9, 7, 0, 0]);
        assert_eq!(v.as_u128(), (7u128 << 64) | 9);
    }
}
