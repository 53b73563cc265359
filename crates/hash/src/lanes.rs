//! 64-bit digest prefixes for the search engine's prescreen, and the
//! fixed-input cores the scalar prefix paths share.
//!
//! The prescreen compares only the first 8 digest bytes as a `u64`
//! (little-endian over those bytes): the prefix of a digest `d` is
//! exactly `u64::from_le_bytes(d[0..8])` — see [`sha1_prefix64_of`] /
//! [`sha3_256_prefix64_of`]. [`sha1_fixed32_prefix64`] and
//! [`sha3_256_fixed32_prefix64`] compute it for one seed without
//! materializing the digest; they drain the tails of every
//! [`crate::dispatch`] batch, and are the whole batch on the portable
//! tier. The interleaved widths are the explicit `std::arch` kernels
//! ([`crate::lanes_avx2`], [`crate::lanes_avx512`]).
//!
//! The word/state cores keep a lane dimension `N` (every state word an
//! `[uXX; N]` array, every round operation an inner loop over lanes);
//! the prefix paths run them at `N = 1`.

// The lane cores index several same-shaped lane arrays with one loop
// variable; iterator rewrites would split the borrows and obscure the
// round structure.
#![allow(clippy::needless_range_loop)]

use crate::keccak::{RC, RHO};
use crate::sha1::Sha1Digest;
use crate::sha3::Sha3_256Digest;
use rbc_bits::U256;

/// SHA-1 initialization vector (FIPS 180-4 §5.3.1); duplicated from the
/// scalar module, which keeps it private. Shared with the explicit SIMD
/// kernels ([`crate::lanes_avx2`], [`crate::lanes_avx512`]).
pub(crate) const SHA1_H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

/// Runs the SHA-1 fixed-32-byte compression on `N` seeds in lockstep,
/// returning the five output words (`h0..h4`) per lane.
#[inline]
fn sha1_fixed32_words<const N: usize>(seeds: &[U256; N]) -> [[u32; 5]; N] {
    // Message schedule, lane-last so the per-round inner loops touch
    // contiguous memory: w[i][lane].
    let mut w = [[0u32; N]; 80];
    for (lane, seed) in seeds.iter().enumerate() {
        let limbs = seed.limbs();
        for i in 0..8 {
            w[i][lane] = ((limbs[i / 2] >> (32 * (i % 2))) as u32).swap_bytes();
        }
        w[8][lane] = 0x8000_0000;
        // w[9..14] stay zero; message length is 256 bits.
        w[15][lane] = 256;
    }
    for i in 16..80 {
        for lane in 0..N {
            w[i][lane] = (w[i - 3][lane] ^ w[i - 8][lane] ^ w[i - 14][lane] ^ w[i - 16][lane])
                .rotate_left(1);
        }
    }

    let mut a = [SHA1_H0[0]; N];
    let mut b = [SHA1_H0[1]; N];
    let mut c = [SHA1_H0[2]; N];
    let mut d = [SHA1_H0[3]; N];
    let mut e = [SHA1_H0[4]; N];

    macro_rules! quarter {
        ($range:expr, $f:expr, $k:expr) => {
            for i in $range {
                for lane in 0..N {
                    let f: u32 = $f(b[lane], c[lane], d[lane]);
                    let tmp = a[lane]
                        .rotate_left(5)
                        .wrapping_add(f)
                        .wrapping_add(e[lane])
                        .wrapping_add($k)
                        .wrapping_add(w[i][lane]);
                    e[lane] = d[lane];
                    d[lane] = c[lane];
                    c[lane] = b[lane].rotate_left(30);
                    b[lane] = a[lane];
                    a[lane] = tmp;
                }
            }
        };
    }

    quarter!(0..20, |b: u32, c: u32, d: u32| (b & c) | (!b & d), 0x5A827999);
    quarter!(20..40, |b: u32, c: u32, d: u32| b ^ c ^ d, 0x6ED9EBA1);
    quarter!(40..60, |b: u32, c: u32, d: u32| (b & c) | (b & d) | (c & d), 0x8F1BBCDC);
    quarter!(60..80, |b: u32, c: u32, d: u32| b ^ c ^ d, 0xCA62C1D6);

    let mut out = [[0u32; 5]; N];
    for lane in 0..N {
        out[lane] = [
            SHA1_H0[0].wrapping_add(a[lane]),
            SHA1_H0[1].wrapping_add(b[lane]),
            SHA1_H0[2].wrapping_add(c[lane]),
            SHA1_H0[3].wrapping_add(d[lane]),
            SHA1_H0[4].wrapping_add(e[lane]),
        ];
    }
    out
}

/// The 64-bit prefix of a SHA-1 digest: `u64::from_le_bytes(d[0..8])`.
#[inline]
pub fn sha1_prefix64_of(d: &Sha1Digest) -> u64 {
    let mut first = [0u8; 8];
    first.copy_from_slice(&d[..8]);
    u64::from_le_bytes(first)
}

/// Converts SHA-1 output words `h0`, `h1` to the digest's 64-bit prefix
/// without materializing digest bytes. Digest bytes 0..4 are `h0`
/// big-endian and 4..8 are `h1` big-endian, so the little-endian `u64`
/// over them is `bswap(h0) | bswap(h1) << 32`. Shared with the explicit
/// SIMD kernels.
#[inline]
pub(crate) fn sha1_prefix64_from_words(h0: u32, h1: u32) -> u64 {
    (h0.swap_bytes() as u64) | ((h1.swap_bytes() as u64) << 32)
}

/// 64-bit digest prefix of one seed under SHA-1 fixed-input hashing.
/// Equals [`sha1_prefix64_of`] applied to [`crate::sha1::sha1_fixed32`].
#[inline]
pub fn sha1_fixed32_prefix64(seed: &U256) -> u64 {
    let words = sha1_fixed32_words(&[*seed]);
    sha1_prefix64_from_words(words[0][0], words[0][1])
}

// ---------------------------------------------------------------------------
// SHA3-256
// ---------------------------------------------------------------------------

/// One Keccak-f[1600] round on `N` interleaved states (layout
/// `a[position][lane]`). Mirrors [`crate::keccak::round`] exactly, with an
/// inner lane loop on every step.
#[inline]
fn keccak_round_lanes<const N: usize>(a: &mut [[u64; N]; 25], rc: u64) {
    // θ: column parities.
    let mut c = [[0u64; N]; 5];
    for x in 0..5 {
        for lane in 0..N {
            c[x][lane] =
                a[x][lane] ^ a[x + 5][lane] ^ a[x + 10][lane] ^ a[x + 15][lane] ^ a[x + 20][lane];
        }
    }
    let mut d = [[0u64; N]; 5];
    for x in 0..5 {
        for lane in 0..N {
            d[x][lane] = c[(x + 4) % 5][lane] ^ c[(x + 1) % 5][lane].rotate_left(1);
        }
    }
    for x in 0..5 {
        for y in 0..5 {
            for lane in 0..N {
                a[x + 5 * y][lane] ^= d[x][lane];
            }
        }
    }

    // ρ and π combined: b[y, 2x+3y] = rot(a[x, y]).
    let mut b = [[0u64; N]; 25];
    for x in 0..5 {
        for y in 0..5 {
            let src = x + 5 * y;
            let dst = y + 5 * ((2 * x + 3 * y) % 5);
            let rot = RHO[src];
            for lane in 0..N {
                b[dst][lane] = a[src][lane].rotate_left(rot);
            }
        }
    }

    // χ: nonlinear step.
    for x in 0..5 {
        for y in 0..5 {
            for lane in 0..N {
                a[x + 5 * y][lane] = b[x + 5 * y][lane]
                    ^ (!b[(x + 1) % 5 + 5 * y][lane] & b[(x + 2) % 5 + 5 * y][lane]);
            }
        }
    }

    // ι: round constant.
    for lane in 0..N {
        a[0][lane] ^= rc;
    }
}

/// Runs the SHA3-256 fixed-32-byte sponge (a single permutation, padding
/// folded into constants) on `N` seeds in lockstep, returning the first
/// four state lanes — the digest — per message lane.
#[inline]
fn sha3_256_fixed32_state<const N: usize>(seeds: &[U256; N]) -> [[u64; 4]; N] {
    let mut state = [[0u64; N]; 25];
    for (lane, seed) in seeds.iter().enumerate() {
        let limbs = seed.limbs();
        for i in 0..4 {
            state[i][lane] = limbs[i];
        }
        state[4][lane] = 0x06; // domain separation + pad start at byte 32
        state[16][lane] = 0x8000_0000_0000_0000; // pad end at byte 135
    }
    for rc in RC {
        keccak_round_lanes(&mut state, rc);
    }
    let mut out = [[0u64; 4]; N];
    for lane in 0..N {
        for i in 0..4 {
            out[lane][i] = state[i][lane];
        }
    }
    out
}

/// The 64-bit prefix of a SHA3-256 digest: `u64::from_le_bytes(d[0..8])`,
/// which is exactly the sponge's first output lane.
#[inline]
pub fn sha3_256_prefix64_of(d: &Sha3_256Digest) -> u64 {
    let mut first = [0u8; 8];
    first.copy_from_slice(&d[..8]);
    u64::from_le_bytes(first)
}

/// 64-bit digest prefix of one seed under SHA3-256 fixed-input hashing.
/// Equals [`sha3_256_prefix64_of`] applied to
/// [`crate::sha3::sha3_256_fixed32`].
#[inline]
pub fn sha3_256_fixed32_prefix64(seed: &U256) -> u64 {
    sha3_256_fixed32_state(&[*seed])[0][0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1_fixed32;
    use crate::sha3::sha3_256_fixed32;

    fn seeds(n: usize) -> Vec<U256> {
        // Deterministic but structure-free inputs: splitmix-style mixing.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n).map(|_| U256::from_limbs([next(), next(), next(), next()])).collect()
    }

    #[test]
    fn sha1_prefix64_matches_digest_head() {
        for seed in seeds(16) {
            let d = sha1_fixed32(&seed);
            assert_eq!(sha1_fixed32_prefix64(&seed), sha1_prefix64_of(&d));
            let mut first = [0u8; 8];
            first.copy_from_slice(&d[..8]);
            assert_eq!(sha1_prefix64_of(&d), u64::from_le_bytes(first));
        }
    }

    #[test]
    fn sha3_prefix64_matches_digest_head() {
        for seed in seeds(16) {
            let d = sha3_256_fixed32(&seed);
            assert_eq!(sha3_256_fixed32_prefix64(&seed), sha3_256_prefix64_of(&d));
            let mut first = [0u8; 8];
            first.copy_from_slice(&d[..8]);
            assert_eq!(sha3_256_prefix64_of(&d), u64::from_le_bytes(first));
        }
    }
}
