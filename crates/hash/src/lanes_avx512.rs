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
//! * opmask registers — per-lane writes, compares and live-lane masks, so
//!   the search prescreens pack lanes across mask runs and cover a
//!   batch's ragged tail without a narrower kernel.
//!
//! Each algorithm has one round core. The digest and prefix64 entry
//! points run it on seed arrays, loaded with `vpgatherdd` / `vpgatherqq`
//! (one gather per message word, no scalar transpose). The fused
//! prescreens ([`sha1_prefix_hits`], [`sha3_256_prefix_hits`]) run it on
//! candidates built in registers from the search's [`MaskRun`]s: lanes
//! are packed across run boundaries; each run segment masked-broadcasts
//! the words of `s_init ^ base` into its lanes, and one compare-mask and
//! one variable shift per word set the moving bit `1 << q` (for SHA-1's
//! big-endian words the byte swap folds into the shift,
//! `1 << (q ^ 24)`). The target prefix is compared with `vpcmpeq` under
//! a live-lane mask, so a batch of any length runs through the widest
//! kernel and the search loop never materializes masks, candidates or
//! prefixes. SHA-1 message words 8..16 (padding and length) are
//! compile-time constants, and its rounds are written out so the schedule
//! window stays in registers; two interleaved blocks hide the round
//! chain's latency. The SHA-3 prescreen needs only the state's first lane,
//! so its last round computes that lane alone.
//!
//! Vectors never cross into code compiled without AVX-512: every kernel
//! step, the prescreens' packing and compare included, runs inside one
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
use rbc_bits::{MaskRun, U256};

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

/// SHA-1 message words 0..8 of the 16 seeds at `seeds`: one
/// `vpgatherdd` per word (lane `l` reads seed `l`), then the byte swap to
/// big-endian words.
///
/// # Safety
///
/// AVX-512F must be present and `seeds` must point at 16 readable seeds.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sha1_load_x16(seeds: *const U256) -> [__m512i; 8] {
    // Lane l's word i is u32 number 8·l + i from `seeds` (U256 is laid
    // out as its four little-endian limbs, and x86-64 is little-endian).
    let idx = _mm512_setr_epi32(0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120);
    let mut w = [_mm512_setzero_si512(); 8];
    for (i, slot) in w.iter_mut().enumerate() {
        // SAFETY: word i of all 16 seeds lies inside the 512 bytes the
        // caller guarantees readable.
        let words = unsafe { _mm512_i32gather_epi32::<4>(idx, seeds.cast::<u32>().add(i).cast()) };
        *slot = bswap32(words);
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
    let head = unsafe { sha1_load_x16(seeds.as_ptr()) };
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

/// A batch's [`MaskRun`]s walked lane by lane: the prescreens take
/// segments from it — the masks of one run that fit the lanes a vector
/// has left — until a vector is full or the batch is done.
struct Lanes<'a> {
    runs: &'a [MaskRun],
    /// Masks of `runs[0]` already handed out.
    off: u32,
}

impl<'a> Lanes<'a> {
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The next at most `room` masks of the current run, as its base, the
    /// first mask's moving-bit position and the count.
    #[inline(always)]
    fn segment(&mut self, room: u32) -> Option<(&'a U256, u32, u32)> {
        let run = self.runs.first()?;
        let span = run.span();
        let q = span.start + self.off;
        let take = (span.end - q).min(room);
        self.off += take;
        if q + take == span.end {
            self.runs = &self.runs[1..];
            self.off = 0;
        }
        Some((run.base(), q, take))
    }
}

/// Pushes `base + l` for every set bit `l` of `bits`, ascending.
#[inline(always)]
fn push_hits(hits: &mut Vec<usize>, base: usize, mut bits: u32) {
    while bits != 0 {
        hits.push(base + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// The lane mask of lanes `from..from + n`.
#[inline(always)]
fn lane_span(from: u32, n: u32) -> u32 {
    (((1u64 << n) - 1) as u32) << from
}

/// SHA-1 message words 0..8 of the candidates `s_init ^ mask` for the
/// next up to 16 masks of `lanes`, built in registers, and the mask of
/// the lanes filled.
#[inline]
#[target_feature(enable = "avx512f")]
fn sha1_pack_x16(lanes: &mut Lanes<'_>, s_init: &U256) -> ([__m512i; 8], u16) {
    let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut w = [_mm512_setzero_si512(); 8];
    // Each lane's moving-bit position q.
    let mut q = _mm512_setzero_si512();
    let mut filled = 0;
    while filled < 16 {
        let Some((base, q0, take)) = lanes.segment(16 - filled) else { break };
        let k = lane_span(filled, take) as u16;
        let words = (*s_init ^ *base).limbs();
        for (i, v) in w.iter_mut().enumerate() {
            let word = (words[i / 2] >> (32 * (i % 2))) as u32;
            *v = _mm512_mask_set1_epi32(*v, k, word.swap_bytes() as i32);
        }
        q = _mm512_mask_add_epi32(q, k, iota, _mm512_set1_epi32(q0 as i32 - filled as i32));
        filled += take;
    }
    // Bit q is bit q % 32 of little-endian word q / 32 (none for
    // q = 256), which the byte swap moves to bit (q % 32) ^ 24.
    let word_of = _mm512_srli_epi32::<5>(q);
    let shift = _mm512_xor_si512(_mm512_and_si512(q, _mm512_set1_epi32(31)), _mm512_set1_epi32(24));
    let bit = _mm512_sllv_epi32(_mm512_set1_epi32(1), shift);
    for (i, v) in w.iter_mut().enumerate() {
        let k = _mm512_cmpeq_epi32_mask(word_of, _mm512_set1_epi32(i as i32));
        *v = _mm512_mask_xor_epi32(*v, k, *v, bit);
    }
    (w, lane_span(0, filled) as u16)
}

/// The whole SHA-1 prescreen of `runs`: two 16-lane blocks per round
/// call, one for a last block on its own.
#[target_feature(enable = "avx512f")]
fn sha1_run_hits(s_init: &U256, runs: &[MaskRun], target_prefix: u64, hits: &mut Vec<usize>) {
    // prefix64 = bswap(h0) | bswap(h1) << 32, so h0 and h1 are the byte
    // swaps of the prefix's halves; a and b must equal them minus H0.
    let ta = (target_prefix as u32).swap_bytes().wrapping_sub(SHA1_H0[0]);
    let tb = ((target_prefix >> 32) as u32).swap_bytes().wrapping_sub(SHA1_H0[1]);
    let (ta, tb) = (_mm512_set1_epi32(ta as i32), _mm512_set1_epi32(tb as i32));
    let mut lanes = Lanes { runs, off: 0 };
    let mut done = 0;
    while !lanes.is_empty() {
        let (head0, live0) = sha1_pack_x16(&mut lanes, s_init);
        if lanes.is_empty() {
            let [s] = sha1_rounds::<1>(&[head0]);
            let bits =
                _mm512_mask_cmpeq_epi32_mask(live0, s[0], ta) & _mm512_cmpeq_epi32_mask(s[1], tb);
            push_hits(hits, done, bits.into());
            break;
        }
        let (head1, live1) = sha1_pack_x16(&mut lanes, s_init);
        let s = sha1_rounds::<2>(&[head0, head1]);
        for (blk, live) in [live0, live1].into_iter().enumerate() {
            let bits = _mm512_mask_cmpeq_epi32_mask(live, s[blk][0], ta)
                & _mm512_cmpeq_epi32_mask(s[blk][1], tb);
            push_hits(hits, done + 16 * blk, bits.into());
        }
        done += 32;
    }
}

/// The SHA-1 prescreen at this tier: pushes, in ascending batch order,
/// every index `i` of the batch `runs` lists whose candidate
/// `s_init ^ mask_i` has SHA-1 prefix `target_prefix`. Candidates are
/// built, hashed and compared in registers, 32 lanes per round call
/// (then 16), and the live-lane mask covers the tail, so every mask of
/// the batch runs here.
///
/// Panics if the host lacks AVX-512F.
pub fn sha1_prefix_hits(
    s_init: &U256,
    runs: &[MaskRun],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    unsafe { sha1_run_hits(s_init, runs, target_prefix, hits) }
}

// ---------------------------------------------------------------------------
// SHA3-256, 8-wide
// ---------------------------------------------------------------------------

/// The first `ROUNDS` rounds of Keccak-f[1600] over 8 interleaved
/// states, one `__m512i` per lane position (all 24 make the
/// permutation). Mirrors [`crate::keccak::round`] step for step, with
/// native rotates (`vprolvq`) and fused χ (`vpternlogq`).
#[target_feature(enable = "avx512f")]
fn keccak_x8<const ROUNDS: usize>(a: &mut [__m512i; 25]) {
    for &rc in &RC[..ROUNDS] {
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

/// Lane 0 of the state after one more Keccak round, without ι's
/// constant: only θ's five column parities, `D[0..3]`, the three ρπ
/// outputs `B[0..3]` that row 0's first lane reads, and one χ.
#[inline]
#[target_feature(enable = "avx512f")]
fn keccak_lane0_round_x8(a: &[__m512i; 25]) -> __m512i {
    let c: [__m512i; 5] = core::array::from_fn(|x| {
        _mm512_ternarylogic_epi64::<TL_XOR3>(
            _mm512_ternarylogic_epi64::<TL_XOR3>(a[x], a[x + 5], a[x + 10]),
            a[x + 15],
            a[x + 20],
        )
    });
    let d = |x: usize| _mm512_xor_si512(c[(x + 4) % 5], _mm512_rol_epi64::<1>(c[(x + 1) % 5]));
    // ρπ sends lanes (0,0), (1,1), (2,2) to B[0], B[1], B[2] of row 0.
    let b0 = _mm512_xor_si512(a[0], d(0));
    let b1 = _mm512_rolv_epi64(_mm512_xor_si512(a[6], d(1)), _mm512_set1_epi64(RHO[6] as i64));
    let b2 = _mm512_rolv_epi64(_mm512_xor_si512(a[12], d(2)), _mm512_set1_epi64(RHO[12] as i64));
    _mm512_ternarylogic_epi64::<TL_CHI>(b0, b1, b2)
}

/// The SHA3-256 fixed-32-byte sponge's state before the permutation:
/// the 8 seeds at `seeds` gathered straight into lanes 0..4 (one
/// `vpgatherqq` per seed limb), then the padding.
///
/// # Safety
///
/// AVX-512F must be present and `seeds` must point at 8 readable seeds.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sha3_256_load_x8(seeds: *const U256) -> [__m512i; 25] {
    // Lane l's limb i is u64 number 4·l + i from `seeds` (U256 is laid
    // out as its limbs).
    let idx = _mm512_setr_epi64(0, 4, 8, 12, 16, 20, 24, 28);
    let mut state = [_mm512_setzero_si512(); 25];
    for (i, slot) in state[..4].iter_mut().enumerate() {
        // SAFETY: limb i of all 8 seeds lies inside the 256 bytes the
        // caller guarantees readable.
        *slot = unsafe { _mm512_i64gather_epi64::<8>(idx, seeds.cast::<u64>().add(i).cast()) };
    }
    sha3_256_pad(&mut state);
    state
}

/// Writes the fixed-input padding lanes: domain separation and the pad
/// start at byte 32, the pad end at byte 135.
#[inline]
#[target_feature(enable = "avx512f")]
fn sha3_256_pad(state: &mut [__m512i; 25]) {
    state[4] = _mm512_set1_epi64(0x06);
    state[16] = _mm512_set1_epi64(0x8000_0000_0000_0000_u64 as i64);
}

/// The digest words (the permuted state's first four lanes) of 8 seeds,
/// one array per word.
#[target_feature(enable = "avx512f")]
fn sha3_256_words_x8(seeds: &[U256; 8]) -> [[u64; 8]; 4] {
    // SAFETY: `seeds` is 8 readable seeds.
    let mut state = unsafe { sha3_256_load_x8(seeds.as_ptr()) };
    keccak_x8::<24>(&mut state);
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

/// The sponge state of the candidates `s_init ^ mask` for the next up to
/// 8 masks of `lanes`, built in registers, and the mask of the lanes
/// filled.
#[inline]
#[target_feature(enable = "avx512f")]
fn sha3_256_pack_x8(lanes: &mut Lanes<'_>, s_init: &U256) -> ([__m512i; 25], u8) {
    let iota = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    let mut state = [_mm512_setzero_si512(); 25];
    // Each lane's moving-bit position q.
    let mut q = _mm512_setzero_si512();
    let mut filled = 0;
    while filled < 8 {
        let Some((base, q0, take)) = lanes.segment(8 - filled) else { break };
        let k = lane_span(filled, take) as u8;
        for (slot, limb) in state.iter_mut().zip((*s_init ^ *base).limbs()) {
            *slot = _mm512_mask_set1_epi64(*slot, k, limb as i64);
        }
        q = _mm512_mask_add_epi64(q, k, iota, _mm512_set1_epi64(q0 as i64 - filled as i64));
        filled += take;
    }
    // Bit q is bit q % 64 of limb q / 64 (none for q = 256).
    let limb_of = _mm512_srli_epi64::<6>(q);
    let bit = _mm512_sllv_epi64(_mm512_set1_epi64(1), _mm512_and_si512(q, _mm512_set1_epi64(63)));
    for (i, slot) in state[..4].iter_mut().enumerate() {
        let k = _mm512_cmpeq_epi64_mask(limb_of, _mm512_set1_epi64(i as i64));
        *slot = _mm512_mask_xor_epi64(*slot, k, *slot, bit);
    }
    sha3_256_pad(&mut state);
    (state, lane_span(0, filled) as u8)
}

/// The whole SHA3-256 prescreen of `runs`, 8 lanes per Keccak call.
#[target_feature(enable = "avx512f")]
fn sha3_256_run_hits(s_init: &U256, runs: &[MaskRun], target_prefix: u64, hits: &mut Vec<usize>) {
    // The digest prefix is lane 0; compare it before the last ι.
    let target = _mm512_set1_epi64((target_prefix ^ RC[23]) as i64);
    let mut lanes = Lanes { runs, off: 0 };
    let mut done = 0;
    while !lanes.is_empty() {
        let (mut state, live) = sha3_256_pack_x8(&mut lanes, s_init);
        keccak_x8::<23>(&mut state);
        let bits = _mm512_mask_cmpeq_epi64_mask(live, keccak_lane0_round_x8(&state), target);
        push_hits(hits, done, bits.into());
        done += 8;
    }
}

/// The SHA3-256 prescreen at this tier: [`sha1_prefix_hits`] under
/// SHA3-256, 8 lanes per Keccak call. The first 23 rounds run in full;
/// the last computes only lane 0, the digest prefix.
///
/// Panics if the host lacks AVX-512F.
pub fn sha3_256_prefix_hits(
    s_init: &U256,
    runs: &[MaskRun],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) {
    assert!(available(), "AVX-512 kernel invoked on a host without AVX-512F");
    // SAFETY: AVX-512F support was just asserted.
    unsafe { sha3_256_run_hits(s_init, runs, target_prefix, hits) }
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
