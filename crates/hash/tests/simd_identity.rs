//! Property tests for the SIMD kernel family: every explicit kernel and
//! every dispatch tier must be bit-identical to the scalar fixed-input
//! reference — full digests and prefix64 variants, at every batch length,
//! and the run prescreens over every batch shape —
//! plus a forced-fallback test proving the portable path still runs
//! (and still agrees) on AVX-capable hosts.

use proptest::prelude::*;
use rbc_bits::{MaskRun, U256};
use rbc_hash::dispatch::{self, SimdLevel};
use rbc_hash::sha1::sha1_fixed32;
use rbc_hash::sha3::sha3_256_fixed32;
use rbc_hash::{lanes, SeedHash, Sha1Fixed, Sha3Fixed};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-wide [`dispatch::force_level`]
/// override, so parallel test threads can't observe each other's caps.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Expands one 64-bit value into `n` structure-free seeds (splitmix64).
fn expand_seeds(entropy: u64, n: usize) -> Vec<U256> {
    let mut x = entropy;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n).map(|_| U256::from_limbs([next(), next(), next(), next()])).collect()
}

/// Up to `count` runs from one 64-bit value. A third are one mask long.
/// Most start just below bit 32, 64 or 128, so their moving bit crosses
/// into the next 32- or 64-bit word, or end at bit 255; the rest start
/// anywhere. Each base holds random bits above its run's last position,
/// and about one run in sixteen is the empty mask.
fn runs_from(entropy: u64, count: usize) -> Vec<MaskRun> {
    let words = expand_seeds(entropy, count);
    words
        .iter()
        .map(|w| {
            let [r, b0, b1, b2] = w.limbs();
            if r % 16 == 0 {
                return MaskRun::single(U256::ZERO);
            }
            let len = if r % 3 == 0 { 1 } else { 1 + (r >> 8) as u32 % 48 };
            let lo = match (r >> 16) % 5 {
                4 => 256 - len,
                k @ 0..=2 => {
                    let boundary = [32, 64, 128][k as usize];
                    boundary - 1 - (r >> 24) as u32 % len.min(boundary)
                }
                _ => (r >> 24) as u32 % (257 - len),
            };
            let above = U256::MAX.shl(lo + len);
            MaskRun::new(U256::from_limbs([b0, b1, b2, r]) & above, lo..lo + len)
        })
        .collect()
}

/// Inserts the one-mask run of `mask` so that it becomes mask `at` of the
/// batch `runs` lists, splitting the run it lands in.
fn insert_single(runs: &mut Vec<MaskRun>, mut at: usize, mask: U256) {
    for r in 0..runs.len() {
        let (base, span) = (*runs[r].base(), runs[r].span());
        if at < span.len() {
            let mid = span.start + at as u32;
            if mid == span.start {
                runs.insert(r, MaskRun::single(mask));
            } else {
                let halves =
                    [MaskRun::new(base, span.start..mid), MaskRun::new(base, mid..span.end)];
                runs.splice(r..=r, [halves[0], MaskRun::single(mask), halves[1]]);
            }
            return;
        }
        at -= span.len();
    }
    runs.push(MaskRun::single(mask));
}

/// Scalar digests and prefix64s for both algorithms, in input order.
type ScalarReference = (Vec<[u8; 20]>, Vec<[u8; 32]>, Vec<u64>, Vec<u64>);

fn scalar_reference(seeds: &[U256]) -> ScalarReference {
    let d1: Vec<_> = seeds.iter().map(sha1_fixed32).collect();
    let d3: Vec<_> = seeds.iter().map(sha3_256_fixed32).collect();
    let p1: Vec<_> = d1.iter().map(lanes::sha1_prefix64_of).collect();
    let p3: Vec<_> = d3.iter().map(lanes::sha3_256_prefix64_of).collect();
    (d1, d3, p1, p3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dispatch at every hardware-reachable tier reproduces the scalar
    /// reference bit for bit, at arbitrary batch lengths (covering full
    /// wide groups, narrow groups and scalar tails in every mix).
    #[test]
    fn dispatch_matches_scalar_at_every_tier(
        entropy in 0u64..=u64::MAX,
        n in 0usize..=61,
        tier in 0usize..=2,
    ) {
        let _guard = force_lock();
        let seeds = expand_seeds(entropy, n);
        let (d1, d3, p1, p3) = scalar_reference(&seeds);
        let level = SimdLevel::ALL[tier];
        dispatch::force_level(Some(level));
        let (mut g1, mut g3) = (Vec::new(), Vec::new());
        let (mut gp1, mut gp3) = (Vec::new(), Vec::new());
        dispatch::sha1_digest_batch(&seeds, &mut g1);
        dispatch::sha3_256_digest_batch(&seeds, &mut g3);
        dispatch::sha1_prefix64_batch(&seeds, &mut gp1);
        dispatch::sha3_256_prefix64_batch(&seeds, &mut gp3);
        dispatch::force_level(None);
        prop_assert_eq!(g1, d1);
        prop_assert_eq!(g3, d3);
        prop_assert_eq!(gp1, p1);
        prop_assert_eq!(gp3, p3);
    }

    /// The run prescreens at every hardware-reachable tier pick exactly
    /// the masks the scalar filter `prefix64(s_init ^ m) == tp` picks,
    /// over batches of up to 12 runs ([`runs_from`]: runs crossing bits
    /// 31/32, 63/64 and 127/128 or ending at bit 255, one-mask runs, the
    /// empty mask, totals of any residue mod 8, 16 and 32). One
    /// candidate's mask is inserted a second time, right after it (two
    /// hits in one vector) or anywhere, the last mask included (a hit in
    /// the last partial vector); its prefix hits both copies, and a random
    /// target hits none.
    #[test]
    fn prefix_hits_match_the_scalar_filter_at_every_tier(
        entropy in 0u64..=u64::MAX,
        count in 0usize..=12,
        tier in 0usize..=2,
        pick in 0usize..10_000,
        pick_last in any::<bool>(),
        adjacent in any::<bool>(),
        at in 0usize..10_000,
        random_target in 0u64..=u64::MAX,
    ) {
        let _guard = force_lock();
        let s_init = expand_seeds(!entropy, 1)[0];
        let mut runs = runs_from(entropy, count);
        let total: usize = runs.iter().map(|r| r.span().len()).sum();
        let (mut targets1, mut targets3) = (vec![random_target], vec![random_target]);
        let mut planted = None;
        if total > 0 {
            let pick = if pick_last { total - 1 } else { pick % total };
            let at = if adjacent { pick + 1 } else { at % (total + 1) };
            let mask = MaskRun::nth(&runs, pick).unwrap();
            insert_single(&mut runs, at, mask);
            planted = Some((mask, [if at <= pick { pick + 1 } else { pick }, at]));
            targets1.push(lanes::sha1_fixed32_prefix64(&(s_init ^ mask)));
            targets3.push(lanes::sha3_256_fixed32_prefix64(&(s_init ^ mask)));
        }
        let masks: Vec<U256> = runs.iter().flat_map(MaskRun::masks).collect();
        let filter = |prefix: fn(&U256) -> u64, tp: u64| -> Vec<usize> {
            (0..masks.len()).filter(|&i| prefix(&(s_init ^ masks[i])) == tp).collect()
        };
        dispatch::force_level(Some(SimdLevel::ALL[tier]));
        let mut got = vec![usize::MAX];
        let mut results = Vec::new();
        for tp in &targets1 {
            dispatch::sha1_prefix_hits(&s_init, &runs, *tp, &mut got);
            results.push((got.clone(), filter(lanes::sha1_fixed32_prefix64, *tp)));
        }
        for tp in &targets3 {
            dispatch::sha3_256_prefix_hits(&s_init, &runs, *tp, &mut got);
            results.push((got.clone(), filter(lanes::sha3_256_fixed32_prefix64, *tp)));
        }
        dispatch::force_level(None);
        for (got, want) in &results {
            prop_assert_eq!(got, want);
        }
        prop_assert!(results[0].0.is_empty() && results[targets1.len()].0.is_empty());
        if let Some((mask, at)) = planted {
            // Both copies hit, and so does any mask the batch repeats.
            let copies: Vec<usize> = (0..masks.len()).filter(|&i| masks[i] == mask).collect();
            prop_assert!(at.iter().all(|i| copies.contains(i)), "{:?} in {:?}", at, copies);
            prop_assert_eq!(&results[1].0, &copies);
            prop_assert_eq!(&results[3].0, &copies);
        }
    }

    /// The one-seed prefix paths the dispatch tails drain through agree
    /// with the head of the scalar digests.
    #[test]
    fn scalar_prefix_matches_digest_head(entropy in 0u64..=u64::MAX) {
        let seeds = expand_seeds(entropy, 8);
        let (_, _, p1, p3) = scalar_reference(&seeds);
        for (i, s) in seeds.iter().enumerate() {
            prop_assert_eq!(lanes::sha1_fixed32_prefix64(s), p1[i]);
            prop_assert_eq!(lanes::sha3_256_fixed32_prefix64(s), p3[i]);
        }
    }

    /// The explicit AVX2 kernels agree with scalar at their exact widths
    /// (skipped on hosts without AVX2).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar(entropy in 0u64..=u64::MAX) {
        use rbc_hash::lanes_avx2;
        if lanes_avx2::available() {
            let seeds = expand_seeds(entropy, 8);
            let (d1, d3, p1, p3) = scalar_reference(&seeds);
            let g8: [U256; 8] = seeds.clone().try_into().unwrap();
            let g4: [U256; 4] = seeds[..4].try_into().unwrap();
            prop_assert_eq!(lanes_avx2::sha1_fixed32_x8(&g8).to_vec(), d1);
            prop_assert_eq!(lanes_avx2::sha1_fixed32_prefix64_x8(&g8).to_vec(), p1);
            prop_assert_eq!(lanes_avx2::sha3_256_fixed32_x4(&g4).to_vec(), d3[..4].to_vec());
            prop_assert_eq!(lanes_avx2::sha3_256_fixed32_prefix64_x4(&g4).to_vec(), p3[..4].to_vec());
        }
    }

    /// The explicit AVX-512 kernels agree with scalar at their exact
    /// widths (skipped on hosts without AVX-512F).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernels_match_scalar(entropy in 0u64..=u64::MAX) {
        use rbc_hash::lanes_avx512;
        if lanes_avx512::available() {
            let seeds = expand_seeds(entropy, 16);
            let (d1, d3, p1, p3) = scalar_reference(&seeds);
            let g16: [U256; 16] = seeds.clone().try_into().unwrap();
            let g8: [U256; 8] = seeds[..8].try_into().unwrap();
            prop_assert_eq!(lanes_avx512::sha1_fixed32_x16(&g16).to_vec(), d1);
            prop_assert_eq!(lanes_avx512::sha1_fixed32_prefix64_x16(&g16).to_vec(), p1);
            prop_assert_eq!(lanes_avx512::sha3_256_fixed32_x8(&g8).to_vec(), d3[..8].to_vec());
            prop_assert_eq!(lanes_avx512::sha3_256_fixed32_prefix64_x8(&g8).to_vec(), p3[..8].to_vec());
        }
    }
}

/// Forcing the portable tier on a SIMD host must actually take effect
/// (the `SeedHash` batch entry points drain through the scalar tail) and
/// still produce scalar-identical results — the in-process equivalent of
/// the CI `RBC_SIMD=portable` leg.
#[test]
fn forced_fallback_exercises_portable_path_on_simd_hosts() {
    let _guard = force_lock();
    let seeds = expand_seeds(0xDEAD_BEEF_0BAD_F00D, 23);
    let (d1, d3, p1, p3) = scalar_reference(&seeds);

    dispatch::force_level(Some(SimdLevel::Portable));
    assert_eq!(
        dispatch::active_level(),
        SimdLevel::Portable,
        "forcing portable must cap the active tier on any host"
    );
    assert!(
        dispatch::kernel_plan().is_empty(),
        "the portable tier is scalar-only; nothing may be selected under forced fallback"
    );
    let (mut g1, mut g3) = (Vec::new(), Vec::new());
    let (mut gp1, mut gp3) = (Vec::new(), Vec::new());
    Sha1Fixed.digest_batch(&seeds, &mut g1);
    Sha3Fixed.digest_batch(&seeds, &mut g3);
    dispatch::sha1_prefix64_batch(&seeds, &mut gp1);
    dispatch::sha3_256_prefix64_batch(&seeds, &mut gp3);
    dispatch::force_level(None);

    assert_eq!(g1, d1);
    assert_eq!(g3, d3);
    assert_eq!(gp1, p1);
    assert_eq!(gp3, p3);
    assert_eq!(dispatch::active_level(), dispatch::detected_level());
}
