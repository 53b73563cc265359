//! AVX-512 lane kernels: SHA-1 over one or two interleaved 16-lane
//! blocks and 8-wide Keccak-f\[1600\].
//!
//! Same structure as [`crate::lanes_avx2`], doubled in width and leaning
//! on AVX-512F-only instructions that matter enormously for hash rounds:
//!
//! * `vprold` / `vprolvq` — native rotates, collapsing the AVX2
//!   shift-shift-or triple to one µop per rotate (SHA-1 has 2 rotates per
//!   round, Keccak 29 per permutation round),
//! * `vpternlogd` / `vpternlogq` — arbitrary three-input boolean
//!   functions, collapsing SHA-1's ch/maj (3–4 logic ops) and Keccak's
//!   θ-xor and χ (xor + andnot + xor) to single instructions, and
//! * `vpgatherdd` / `vpgatherqq` — seeds load straight from the caller's
//!   slice into lane-major vectors, with no scalar transpose; SHA-1's
//!   big-endian words then take a rotate-based byte swap.
//!
//! Each algorithm has one round core. The digest and prefix64 entry
//! points run it on seeds; the fused prescreens
//! ([`sha1_prefix_hits`], [`sha3_256_prefix_hits`]) run it on
//! `s_init ^ mask` XORed in registers and compare the target prefix with
//! `vpcmpeq`, so the search loop never materializes candidates or
//! prefixes. SHA-1 message words 8..16 (padding and length) are
//! compile-time constants, and its rounds are written out so the schedule
//! window stays in registers; two interleaved blocks hide the round
//! chain's latency.
//!
//! Vectors never cross into code compiled without AVX-512: every kernel
//! step, the prescreens' compare included, runs inside one
//! `#[target_feature]` function that hands back plain arrays or hit bits.
//! Returning the 25-vector Keccak state to the plain wrapper and calling
//! the compare intrinsic from there measured ~20% slower per hash in the
//! engine and slowed the requests around the searches too (the
//! benchmark's `light_sha3` p50 rose ~25%).
//!
//! Everything here requires only the AVX-512 *F*oundation subset, present
//! on every AVX-512 CPU. Entry points are safe wrappers that assert
//! support at runtime; [`crate::dispatch`] is the intended caller.

#![allow(unsafe_code)]

use crate::keccak::{RC, RHO};
use crate::lanes::SHA1_H0;
use crate::sha1::{Sha1Digest, DIGEST_LEN as SHA1_DIGEST_LEN};
use crate::sha3::Sha3_256Digest;
use core::arch::x86_64::*;
use rbc_bits::U256;

/// Whether this module's kernels may run on the current host (cached CPUID
/// probe for AVX-512F).
#[inline]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[inline]
fn to_u32x16(v: __m512i) -> [u32; 16] {
    // SAFETY: __m512i and [u32; 16] are both 64 plain bytes; every bit
    // pattern is valid for both.
    unsafe { core::mem::transmute(v) }
}

#[inline]
fn to_u64x8(v: __m512i) -> [u64; 8] {
    // SAFETY: __m512i and [u64; 8] are both 64 plain bytes; every bit
    // pattern is valid for both.
    unsafe { core::mem::transmute(v) }
}

// vpternlogd truth-table immediates: output bit = imm[a<<2 | b<<1 | c].
/// `ch(a,b,c) = (a & b) | (!a & c)` — SHA-1 rounds 0..20.
const TL_CH: i32 = 0xCA;
/// `a ^ b ^ c` — SHA-1 parity rounds and Keccak θ column xors.
const TL_XOR3: i32 = 0x96;
/// `maj(a,b,c) = (a & b) | (a & c) | (b & c)` — SHA-1 rounds 40..60.
const TL_MAJ: i32 = 0xE8;
/// `a ^ (!b & c)` — Keccak χ.
const TL_CHI: i32 = 0xD2;

// ---------------------------------------------------------------------------
// SHA-1, 16 lanes per block, one or two blocks interleaved
// ---------------------------------------------------------------------------

/// Message words 8..16 of every fixed 32-byte input: the pad bit, six
/// zero words and the 256-bit length. Folded into the schedule and the
/// round adds at compile time.
const SHA1_PAD: [u32; 8] = [0x8000_0000, 0, 0, 0, 0, 0, 0, 256];

/// Byte-swaps every 32-bit lane with two rotates and one bit select:
/// `rol 8` puts bytes 3 and 1 in place, `rol 24` bytes 2 and 0 (AVX-512F
/// has no 512-bit byte shuffle; that needs AVX-512BW).
#[inline]
#[target_feature(enable = "avx512f")]
fn bswap32(x: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<TL_CH>(
        _mm512_set1_epi32(0x00FF_00FF),
        _mm512_rol_epi32::<8>(x),
        _mm512_rol_epi32::<24>(x),
    )
}

/// SHA-1 message words 0..8 of the 16 seeds `s_init ^ seeds[l]` starting
/// at `seeds`: one `vpgatherdd` per word (lane `l` reads seed `l`), then
/// the XOR and the byte swap to big-endian words.
///
/// # Safety
///
/// AVX-512F must be present and `seeds` must point at 16 readable seeds.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sha1_load_x16(seeds: *const U256, s_init: &U256) -> [__m512i; 8] {
    // Lane l's word i is u32 number 8·l + i from `seeds` (U256 is laid
    // out as its four little-endian limbs, and x86-64 is little-endian).
    let idx = _mm512_setr_epi32(0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120);
    let init = s_init.limbs();
    let mut w = [_mm512_setzero_si512(); 8];
    for (i, slot) in w.iter_mut().enumerate() {
        // SAFETY: word i of all 16 seeds lies inside the 512 bytes the
        // caller guarantees readable.
        let words = unsafe { _mm512_i32gather_epi32::<4>(idx, seeds.cast::<u32>().add(i).cast()) };
        let init_word = (init[i / 2] >> (32 * (i % 2))) as u32;
        *slot = bswap32(_mm512_xor_si512(words, _mm512_set1_epi32(init_word as i32)));
    }
    w
}

/// The SHA-1 compression rounds for fixed 32-byte inputs over `B`
/// interleaved 16-lane blocks, given each block's message words 0..8.
/// Returns each block's working variables `[a, b, c, d, e]` after round
/// 79, *before* the feed-forward of the initial hash value: callers add
/// [`SHA1_H0`] for digests, or compare against a target minus it.
///
/// Every round is written out (no loop counter, no indexed schedule
/// memory): the 16-word schedule window lives in registers, and words
/// 8..16 are compile-time constants.
#[inline]
#[target_feature(enable = "avx512f")]
fn sha1_rounds<const B: usize>(head: &[[__m512i; 8]; B]) -> [[__m512i; 5]; B] {
    let mut w = [[_mm512_setzero_si512(); 16]; B];
    let mut s = [[_mm512_setzero_si512(); 5]; B];
    for blk in 0..B {
        w[blk][..8].copy_from_slice(&head[blk]);
        for (i, pad) in SHA1_PAD.iter().enumerate() {
            w[blk][8 + i] = _mm512_set1_epi32(*pad as i32);
        }
        for (i, h) in SHA1_H0.iter().enumerate() {
            s[blk][i] = _mm512_set1_epi32(*h as i32);
        }
    }

    macro_rules! rounds {
        ($tl:ident, $k:literal; $($t:literal)+) => {
            let k = _mm512_set1_epi32($k as u32 as i32);
            $(
                for blk in 0..B {
                    let w = &mut w[blk];
                    if $t >= 16 {
                        // Plain XORs, so the constant pad words fold away;
                        // codegen fuses the rest into vpternlogd.
                        let x = _mm512_xor_si512(
                            _mm512_xor_si512(w[($t - 3) & 15], w[($t - 8) & 15]),
                            _mm512_xor_si512(w[($t - 14) & 15], w[$t & 15]),
                        );
                        w[$t & 15] = _mm512_rol_epi32::<1>(x);
                    }
                    let [a, b, c, d, e] = s[blk];
                    let f = _mm512_ternarylogic_epi32::<$tl>(b, c, d);
                    let tmp = _mm512_add_epi32(
                        _mm512_add_epi32(_mm512_rol_epi32::<5>(a), f),
                        _mm512_add_epi32(e, _mm512_add_epi32(k, w[$t & 15])),
                    );
                    s[blk] = [tmp, a, _mm512_rol_epi32::<30>(b), c, d];
                }
            )+
        };
    }

    rounds!(TL_CH, 0x5A82_7999; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
    rounds!(TL_XOR3, 0x6ED9_EBA1; 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
    rounds!(TL_MAJ, 0x8F1B_BCDC; 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
    rounds!(TL_XOR3, 0xCA62_C1D6; 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
    s
}

/// Output words `h0..h4` of 16 seeds, one array per word.
#[target_feature(enable = "avx512f")]
fn sha1_words_x16(seeds: &[U256; 16]) -> [[u32; 16]; 5] {
    // SAFETY: `seeds` is 16 readable seeds.
    let head = unsafe { sha1_load_x16(seeds.as_ptr(), &U256::ZERO) };
    let [s] = sha1_rounds::<1>(&[head]);
    let mut h = [[0u32; 16]; 5];
    for ((word, v), init) in h.iter_mut().zip(s).zip(SHA1_H0) {
        *word = to_u32x16(_mm512_add_epi32(v, _mm512_set1_epi32(init as i32)));
    }
    h
}

/// Hashes 16 seeds with the SHA-1 fixed-input path on AVX-512 vectors.
/// Bit-identical to [`crate::sha1::sha1_fixed32`] per lane.
///
/// Panics if the host lacks AVX-512F.
pub fn sha1_fixed32_x16(seeds: &[U256; 16]) -> [Sha1Digest; 16] {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    let words = unsafe { sha1_words_x16(seeds) };
    let mut out = [[0u8; SHA1_DIGEST_LEN]; 16];
    for lane in 0..16 {
        for i in 0..5 {
            out[lane][i * 4..(i + 1) * 4].copy_from_slice(&words[i][lane].to_be_bytes());
        }
    }
    out
}

/// 64-bit digest prefixes of 16 seeds under SHA-1, on AVX-512 vectors.
///
/// Panics if the host lacks AVX-512F.
pub fn sha1_fixed32_prefix64_x16(seeds: &[U256; 16]) -> [u64; 16] {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    let [h0, h1, ..] = unsafe { sha1_words_x16(seeds) };
    let mut out = [0u64; 16];
    for lane in 0..16 {
        out[lane] = crate::lanes::sha1_prefix64_from_words(h0[lane], h1[lane]);
    }
    out
}

/// The fused search step over `16·B` masks at `masks`: gathers and XORs
/// the seeds in registers, runs the rounds, and compares `a`, `b` against
/// the target's first two words minus `H0`. Returns one hit bit per lane,
/// block-major (bit `l` of word `blk` is mask `16·blk + l`).
///
/// # Safety
///
/// AVX-512F must be present and `masks` must point at `16·B` readable
/// masks.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sha1_hit_bits<const B: usize>(
    s_init: &U256,
    masks: *const U256,
    target_prefix: u64,
) -> [u16; B] {
    let mut head = [[_mm512_setzero_si512(); 8]; B];
    for (blk, h) in head.iter_mut().enumerate() {
        // SAFETY: block `blk` reads masks 16·blk .. 16·blk + 16.
        *h = unsafe { sha1_load_x16(masks.add(16 * blk), s_init) };
    }
    let s = sha1_rounds::<B>(&head);
    // prefix64 = bswap(h0) | bswap(h1) << 32, so h0 and h1 are the byte
    // swaps of the prefix's halves; a and b must equal them minus H0.
    let ta = (target_prefix as u32).swap_bytes().wrapping_sub(SHA1_H0[0]);
    let tb = ((target_prefix >> 32) as u32).swap_bytes().wrapping_sub(SHA1_H0[1]);
    let (ta, tb) = (_mm512_set1_epi32(ta as i32), _mm512_set1_epi32(tb as i32));
    let mut bits = [0u16; B];
    for (blk, hit) in bits.iter_mut().enumerate() {
        *hit = _mm512_cmpeq_epi32_mask(s[blk][0], ta) & _mm512_cmpeq_epi32_mask(s[blk][1], tb);
    }
    bits
}

/// Prefix hits over the front of `masks` in whole 32-mask groups, then
/// one 16-mask group: pushes, in ascending order, every index `i` whose
/// seed `s_init ^ masks[i]` has SHA-1 prefix `target_prefix`, and
/// returns how many masks it consumed (a multiple of 16; the caller
/// drains the rest with narrower kernels).
///
/// Panics if the host lacks AVX-512F.
pub fn sha1_prefix_hits(
    s_init: &U256,
    masks: &[U256],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) -> usize {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    let mut push = |base: usize, mut bits: u16| {
        while bits != 0 {
            hits.push(base + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    };
    let mut done = 0;
    while masks.len() - done >= 32 {
        // SAFETY: AVX-512F was asserted; masks[done..done + 32] exist.
        let bits = unsafe { sha1_hit_bits::<2>(s_init, masks[done..].as_ptr(), target_prefix) };
        push(done, bits[0]);
        push(done + 16, bits[1]);
        done += 32;
    }
    if masks.len() - done >= 16 {
        // SAFETY: AVX-512F was asserted; masks[done..done + 16] exist.
        let [bits] = unsafe { sha1_hit_bits::<1>(s_init, masks[done..].as_ptr(), target_prefix) };
        push(done, bits);
        done += 16;
    }
    done
}

// ---------------------------------------------------------------------------
// SHA3-256, 8-wide
// ---------------------------------------------------------------------------

/// Keccak-f[1600] over 8 interleaved states, one `__m512i` per lane
/// position. Mirrors [`crate::keccak::round`] step for step, with native
/// rotates (`vprolvq`) and fused χ (`vpternlogq`).
#[target_feature(enable = "avx512f")]
unsafe fn keccak_f1600_x8(a: &mut [__m512i; 25]) {
    for rc in RC {
        // θ.
        let mut c = [_mm512_setzero_si512(); 5];
        for x in 0..5 {
            c[x] = _mm512_ternarylogic_epi64::<TL_XOR3>(
                _mm512_ternarylogic_epi64::<TL_XOR3>(a[x], a[x + 5], a[x + 10]),
                a[x + 15],
                a[x + 20],
            );
        }
        let mut d = [_mm512_setzero_si512(); 5];
        for x in 0..5 {
            d[x] = _mm512_xor_si512(c[(x + 4) % 5], _mm512_rol_epi64::<1>(c[(x + 1) % 5]));
        }
        for x in 0..5 {
            for y in 0..5 {
                a[x + 5 * y] = _mm512_xor_si512(a[x + 5 * y], d[x]);
            }
        }

        // ρ and π combined: b[y, 2x+3y] = rot(a[x, y]).
        let mut b = [_mm512_setzero_si512(); 25];
        for x in 0..5 {
            for y in 0..5 {
                let src = x + 5 * y;
                let dst = y + 5 * ((2 * x + 3 * y) % 5);
                b[dst] = _mm512_rolv_epi64(a[src], _mm512_set1_epi64(RHO[src] as i64));
            }
        }

        // χ, one vpternlogq per position.
        for x in 0..5 {
            for y in 0..5 {
                a[x + 5 * y] = _mm512_ternarylogic_epi64::<TL_CHI>(
                    b[x + 5 * y],
                    b[(x + 1) % 5 + 5 * y],
                    b[(x + 2) % 5 + 5 * y],
                );
            }
        }

        // ι.
        a[0] = _mm512_xor_si512(a[0], _mm512_set1_epi64(rc as i64));
    }
}

/// Runs the SHA3-256 fixed-32-byte sponge on the 8 seeds
/// `s_init ^ seeds[l]` starting at `seeds`, gathered straight into the
/// state (one `vpgatherqq` per seed limb), and returns the permuted state.
///
/// # Safety
///
/// AVX-512F must be present and `seeds` must point at 8 readable seeds.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sha3_256_state_x8(seeds: *const U256, s_init: &U256) -> [__m512i; 25] {
    // Lane l's limb i is u64 number 4·l + i from `seeds` (U256 is laid
    // out as its limbs).
    let idx = _mm512_setr_epi64(0, 4, 8, 12, 16, 20, 24, 28);
    let mut state = [_mm512_setzero_si512(); 25];
    for (i, (slot, init)) in state.iter_mut().zip(s_init.limbs()).enumerate() {
        // SAFETY: limb i of all 8 seeds lies inside the 256 bytes the
        // caller guarantees readable.
        let limbs = unsafe { _mm512_i64gather_epi64::<8>(idx, seeds.cast::<u64>().add(i).cast()) };
        *slot = _mm512_xor_si512(limbs, _mm512_set1_epi64(init as i64));
    }
    state[4] = _mm512_set1_epi64(0x06); // domain separation + pad start at byte 32
    state[16] = _mm512_set1_epi64(0x8000_0000_0000_0000_u64 as i64); // pad end at byte 135
    keccak_f1600_x8(&mut state);
    state
}

/// The digest words (the permuted state's first four lanes) of 8 seeds,
/// one array per word.
#[target_feature(enable = "avx512f")]
fn sha3_256_words_x8(seeds: &[U256; 8]) -> [[u64; 8]; 4] {
    // SAFETY: `seeds` is 8 readable seeds.
    let state = unsafe { sha3_256_state_x8(seeds.as_ptr(), &U256::ZERO) };
    [to_u64x8(state[0]), to_u64x8(state[1]), to_u64x8(state[2]), to_u64x8(state[3])]
}

/// Hashes 8 seeds with the SHA3-256 fixed-input path on AVX-512 vectors.
/// Bit-identical to [`crate::sha3::sha3_256_fixed32`] per lane.
///
/// Panics if the host lacks AVX-512F.
pub fn sha3_256_fixed32_x8(seeds: &[U256; 8]) -> [Sha3_256Digest; 8] {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    let words = unsafe { sha3_256_words_x8(seeds) };
    let mut out = [[0u8; 32]; 8];
    for lane in 0..8 {
        for i in 0..4 {
            out[lane][i * 8..(i + 1) * 8].copy_from_slice(&words[i][lane].to_le_bytes());
        }
    }
    out
}

/// 64-bit digest prefixes of 8 seeds under SHA3-256, on AVX-512 vectors.
///
/// Panics if the host lacks AVX-512F.
pub fn sha3_256_fixed32_prefix64_x8(seeds: &[U256; 8]) -> [u64; 8] {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    let [prefixes, ..] = unsafe { sha3_256_words_x8(seeds) };
    prefixes
}

/// The fused search step over 8 masks at `masks`: gathers and XORs the
/// seeds into the state, permutes, and compares the first lane with
/// `target_prefix`. Returns one hit bit per lane.
///
/// # Safety
///
/// AVX-512F must be present and `masks` must point at 8 readable masks.
#[target_feature(enable = "avx512f")]
unsafe fn sha3_256_hit_bits(s_init: &U256, masks: *const U256, target_prefix: u64) -> u8 {
    // SAFETY: the caller guarantees 8 readable masks.
    let state = unsafe { sha3_256_state_x8(masks, s_init) };
    _mm512_cmpeq_epi64_mask(state[0], _mm512_set1_epi64(target_prefix as i64))
}

/// Prefix hits over the front of `masks` in whole 8-mask groups: pushes,
/// in ascending order, every index `i` whose seed `s_init ^ masks[i]`
/// has SHA3-256 prefix `target_prefix` (the state's first lane, compared
/// in registers), and returns how many masks it consumed (a multiple of
/// 8; the caller drains the rest with narrower kernels).
///
/// Panics if the host lacks AVX-512F.
pub fn sha3_256_prefix_hits(
    s_init: &U256,
    masks: &[U256],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) -> usize {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    let groups = masks.chunks_exact(8);
    let consumed = masks.len() - groups.remainder().len();
    for (g, group) in groups.enumerate() {
        // SAFETY: AVX-512F was asserted; `group` is 8 masks.
        let mut bits = unsafe { sha3_256_hit_bits(s_init, group.as_ptr(), target_prefix) };
        while bits != 0 {
            hits.push(8 * g + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1_fixed32;
    use crate::sha3::sha3_256_fixed32;

    fn seeds<const N: usize>() -> [U256; N] {
        let mut x = 0xFEDC_BA98_7654_3210u64;
        let mut next = move || {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xB5);
            x
        };
        core::array::from_fn(|_| U256::from_limbs([next(), next(), next(), next()]))
    }

    #[test]
    fn sha1_x16_matches_scalar() {
        if !available() {
            return;
        }
        let s = seeds::<16>();
        let got = sha1_fixed32_x16(&s);
        let prefixes = sha1_fixed32_prefix64_x16(&s);
        for (i, seed) in s.iter().enumerate() {
            let want = sha1_fixed32(seed);
            assert_eq!(got[i], want, "lane {i}");
            assert_eq!(prefixes[i], crate::lanes::sha1_prefix64_of(&want), "prefix lane {i}");
        }
    }

    #[test]
    fn sha3_x8_matches_scalar() {
        if !available() {
            return;
        }
        let s = seeds::<8>();
        let got = sha3_256_fixed32_x8(&s);
        let prefixes = sha3_256_fixed32_prefix64_x8(&s);
        for (i, seed) in s.iter().enumerate() {
            let want = sha3_256_fixed32(seed);
            assert_eq!(got[i], want, "lane {i}");
            assert_eq!(prefixes[i], crate::lanes::sha3_256_prefix64_of(&want), "prefix lane {i}");
        }
    }
}
