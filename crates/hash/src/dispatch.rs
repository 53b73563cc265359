//! Runtime SIMD feature detection and batch-kernel dispatch.
//!
//! The batched entry points of [`crate::Sha1Fixed`] / [`crate::Sha3Fixed`]
//! (and through them every search engine) route here. On first use the
//! dispatcher probes the host once (`is_x86_feature_detected!`) and picks
//! the widest instruction-set tier the CPU executes:
//!
//! | tier       | SHA-1 kernel                         | SHA3-256 kernel  |
//! |------------|--------------------------------------|------------------|
//! | `avx512`   | 32-wide (2 × `__m512i`), 16-wide     | 8-wide `__m512i` |
//! | `avx2`     | 8-wide `__m256i`                     | 4-wide `__m256i` |
//! | `portable` | scalar                               | scalar           |
//!
//! Within a digest or prefix64 batch the dispatcher drains the widest
//! selected kernel first, then the next, and finishes the tail scalar —
//! so every batch length is bit-identical to the scalar path regardless
//! of tier.
//!
//! The search loop's prescreen is one call per batch:
//! [`sha1_prefix_hits`] / [`sha3_256_prefix_hits`] take the worker's
//! `s_init`, the batch as [`MaskRun`]s (runs of Chase's dominant step,
//! masks `base | 1 << q` for consecutive `q`) and the target prefix, and
//! return the indices whose candidate matches. At the AVX-512 tier the
//! kernels build each candidate `s_init ^ mask` in registers from its
//! run, hash it and compare, packing lanes across run boundaries — SHA-1
//! over two interleaved 16-lane blocks (the 32-wide row), then one block
//! — and a live-lane mask covers the batch's tail, so the prescreen has
//! no narrower drain and no mask is ever written out. Digest and
//! prefix64 batches start at 16 lanes and drain down; one round core
//! serves all three. Below AVX-512 the prescreens expand the runs into
//! seeds on the stack, a kernel's width at a time, and compare the
//! narrower kernels' prefixes, with no heap allocation.
//!
//! The portable tier selects no interleaved kernel at all: the whole
//! batch drains through the scalar tail ([`crate::lanes`]'s one-seed
//! prefix paths and the scalar digests). Portable autovectorized
//! interleaves measured *below* scalar on stock-baseline codegen, and
//! the explicit kernels rely on no build flags, so the workspace builds
//! without `.cargo/config.toml`.
//!
//! # Overrides
//!
//! * `RBC_SIMD=portable|avx2|avx512` (env, read once) caps the detected
//!   tier — the CI fallback leg sets `RBC_SIMD=portable` to prove the
//!   scalar drain stays bit-identical. Unknown values are ignored.
//! * [`force_level`] caps the tier at runtime for tests and per-ISA
//!   benchmarks. Both overrides only ever *lower* the tier; a request for
//!   hardware the host lacks clamps to what it has, so no path can reach
//!   an illegal instruction.

use crate::lanes;
use crate::sha1::{self, Sha1Digest};
use crate::sha3::{self, Sha3_256Digest};
use rbc_bits::{MaskRun, U256};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use crate::{lanes_avx2, lanes_avx512};

/// Instruction-set tier the dispatcher can select. Ordered: a later tier
/// strictly implies the hardware of the earlier ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Interleaved scalar Rust ([`crate::lanes`]); runs on any target.
    Portable,
    /// Explicit `__m256i` kernels ([`crate::lanes_avx2`]).
    Avx2,
    /// Explicit `__m512i` kernels ([`crate::lanes_avx512`]); requires only
    /// the AVX-512F foundation subset.
    Avx512,
}

impl SimdLevel {
    /// All tiers, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Lowercase tier name as printed in benches and `RBC_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "portable" | "scalar" | "off" => Some(SimdLevel::Portable),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Widest tier the host CPU executes (uncached probe; the detection macro
/// itself caches per feature).
fn hardware_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Portable
}

/// The tier selected at first use: hardware capability capped by the
/// `RBC_SIMD` environment variable (if set to a recognized tier name).
pub fn detected_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let hw = hardware_level();
        match std::env::var("RBC_SIMD").ok().as_deref().and_then(SimdLevel::parse) {
            Some(cap) => cap.min(hw),
            None => hw,
        }
    })
}

/// Runtime tier override: 0 = none, otherwise tier index + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Caps the dispatch tier process-wide until reset with `None` — for
/// forced-fallback tests and per-ISA benchmarks. The cap never raises the
/// tier above what the hardware executes, so it cannot introduce illegal
/// instructions. Affects all threads; callers that force a tier should
/// restore `None` afterwards.
pub fn force_level(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(l) => 1 + SimdLevel::ALL.iter().position(|x| *x == l).expect("tier in ALL") as u8,
    };
    FORCED.store(v, Ordering::SeqCst);
}

/// The tier batch dispatch uses right now: [`detected_level`] unless
/// capped lower by [`force_level`].
pub fn active_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        0 => detected_level(),
        v => SimdLevel::ALL[(v - 1) as usize].min(detected_level()),
    }
}

/// One row of the dispatcher's kernel-selection table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelSelection {
    /// Algorithm name as printed in the paper's tables.
    pub algo: &'static str,
    /// Seeds hashed per kernel call.
    pub width: usize,
    /// Tier providing the kernel at this width.
    pub kernel: SimdLevel,
}

/// The (algo, width, kernel) table the dispatcher drains batches through
/// at the current [`active_level`], widest first per algorithm. Scalar
/// tails (width 1) are implied and not listed. The SHA-1 width-32 row is
/// the fused prescreen's ([`sha1_prefix_hits`]), which at AVX-512 runs
/// every mask through the 32- and 16-lane rows; the digest and prefix64
/// entry points start at width 16 and drain through the rest.
pub fn kernel_plan() -> Vec<KernelSelection> {
    let row = |algo, width, kernel| KernelSelection { algo, width, kernel };
    match active_level() {
        SimdLevel::Avx512 => vec![
            row("SHA-1", 32, SimdLevel::Avx512),
            row("SHA-1", 16, SimdLevel::Avx512),
            row("SHA-1", 8, SimdLevel::Avx2),
            row("SHA-3", 8, SimdLevel::Avx512),
            row("SHA-3", 4, SimdLevel::Avx2),
        ],
        SimdLevel::Avx2 => {
            vec![row("SHA-1", 8, SimdLevel::Avx2), row("SHA-3", 4, SimdLevel::Avx2)]
        }
        // No portable interleave beats scalar on stock-baseline codegen,
        // so the portable tier selects nothing and drains scalar.
        SimdLevel::Portable => Vec::new(),
    }
}

/// Runtime-present CPU features relevant to kernel selection, for bench
/// artifacts and `repro hash-lanes` output. Empty on non-x86-64 targets.
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut present: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($name:tt),+ $(,)?) => {
                $(if std::arch::is_x86_feature_detected!($name) { present.push($name); })+
            };
        }
        probe!("sse2", "ssse3", "sse4.1", "avx", "avx2", "avx512f", "avx512bw", "avx512vl");
    }
    present
}

/// Drains `rest` through a fixed-width kernel while enough seeds remain.
macro_rules! drain {
    ($rest:ident, $out:ident, $w:literal, $f:path) => {
        while $rest.len() >= $w {
            let (group, tail) = $rest.split_at($w);
            $out.extend($f(group.try_into().expect("split_at yields the kernel width")));
            $rest = tail;
        }
    };
}

/// Hashes a batch of seeds with SHA-1 fixed-input kernels at the active
/// tier; `out[i] == sha1_fixed32(&seeds[i])` for every tier and length.
pub fn sha1_digest_batch(seeds: &[U256], out: &mut Vec<Sha1Digest>) {
    out.clear();
    out.reserve(seeds.len());
    let mut rest: &[U256] = seeds;
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            drain!(rest, out, 16, lanes_avx512::sha1_fixed32_x16);
            drain!(rest, out, 8, lanes_avx2::sha1_fixed32_x8);
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            drain!(rest, out, 8, lanes_avx2::sha1_fixed32_x8);
        }
        _ => {}
    }
    out.extend(rest.iter().map(sha1::sha1_fixed32));
}

/// 64-bit SHA-1 digest prefixes of a batch at the active tier.
pub fn sha1_prefix64_batch(seeds: &[U256], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(seeds.len());
    let mut rest: &[U256] = seeds;
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            drain!(rest, out, 16, lanes_avx512::sha1_fixed32_prefix64_x16);
            drain!(rest, out, 8, lanes_avx2::sha1_fixed32_prefix64_x8);
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            drain!(rest, out, 8, lanes_avx2::sha1_fixed32_prefix64_x8);
        }
        _ => {}
    }
    out.extend(rest.iter().map(lanes::sha1_fixed32_prefix64));
}

/// Hashes a batch of seeds with SHA3-256 fixed-input kernels at the
/// active tier; `out[i] == sha3_256_fixed32(&seeds[i])` for every tier
/// and length. The tail below the narrowest lane width drains scalar —
/// see the module docs for why no two-lane kernel exists.
pub fn sha3_256_digest_batch(seeds: &[U256], out: &mut Vec<Sha3_256Digest>) {
    out.clear();
    out.reserve(seeds.len());
    let mut rest: &[U256] = seeds;
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            drain!(rest, out, 8, lanes_avx512::sha3_256_fixed32_x8);
            drain!(rest, out, 4, lanes_avx2::sha3_256_fixed32_x4);
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            drain!(rest, out, 4, lanes_avx2::sha3_256_fixed32_x4);
        }
        _ => {}
    }
    out.extend(rest.iter().map(sha3::sha3_256_fixed32));
}

/// 64-bit SHA3-256 digest prefixes of a batch at the active tier.
pub fn sha3_256_prefix64_batch(seeds: &[U256], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(seeds.len());
    let mut rest: &[U256] = seeds;
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            drain!(rest, out, 8, lanes_avx512::sha3_256_fixed32_prefix64_x8);
            drain!(rest, out, 4, lanes_avx2::sha3_256_fixed32_prefix64_x4);
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            drain!(rest, out, 4, lanes_avx2::sha3_256_fixed32_prefix64_x4);
        }
        _ => {}
    }
    out.extend(rest.iter().map(lanes::sha3_256_fixed32_prefix64));
}

/// The prescreen below AVX-512: pushes the index of every mask of the
/// batch `runs` lists whose candidate `s_init ^ mask` has prefix
/// `target_prefix`, expanding the runs into `W` seeds at a time on the
/// stack for `kernel` and the last fewer than `W` for `tail`.
fn expanded_hits<const W: usize>(
    s_init: &U256,
    runs: &[MaskRun],
    target_prefix: u64,
    hits: &mut Vec<usize>,
    kernel: fn(&[U256; W]) -> [u64; W],
    tail: fn(&U256) -> u64,
) {
    let mut seeds = [U256::ZERO; W];
    let (mut filled, mut done) = (0, 0);
    for mask in runs.iter().flat_map(MaskRun::masks) {
        seeds[filled] = *s_init ^ mask;
        filled += 1;
        if filled == W {
            for (lane, prefix) in kernel(&seeds).into_iter().enumerate() {
                if prefix == target_prefix {
                    hits.push(done + lane);
                }
            }
            (filled, done) = (0, done + W);
        }
    }
    for (lane, seed) in seeds[..filled].iter().enumerate() {
        if tail(seed) == target_prefix {
            hits.push(done + lane);
        }
    }
}

/// The search loop's prescreen under SHA-1: clears `hits`, then pushes,
/// in ascending order, every index `i` of the batch `runs` lists (its
/// masks counted across runs) whose candidate seed `s_init ^ mask_i` has
/// 64-bit digest prefix `target_prefix`, at the active tier. The same
/// indices as filtering `sha1_fixed32_prefix64(s_init ^ m) == target_prefix`
/// over the expanded masks, for every tier and batch.
///
/// At the AVX-512 tier the candidates are built from the runs, hashed
/// and compared in registers, 32 lanes per call, with no narrower drain;
/// the AVX2 tier expands 8 seeds at a time on the stack for its x8
/// kernel and the portable tier hashes each seed scalar. No tier
/// allocates beyond `hits`.
pub fn sha1_prefix_hits(
    s_init: &U256,
    runs: &[MaskRun],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) {
    let (tp, scalar) = (target_prefix, lanes::sha1_fixed32_prefix64);
    hits.clear();
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => lanes_avx512::sha1_prefix_hits(s_init, runs, tp, hits),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            expanded_hits(s_init, runs, tp, hits, lanes_avx2::sha1_fixed32_prefix64_x8, scalar);
        }
        _ => {
            let x1 = |s: &[U256; 1]| [lanes::sha1_fixed32_prefix64(&s[0])];
            expanded_hits(s_init, runs, tp, hits, x1, scalar);
        }
    }
}

/// [`sha1_prefix_hits`] under SHA3-256: the AVX-512 tier builds,
/// permutes and compares 8 candidates per Keccak call in registers, with
/// the last round cut to the digest prefix's lane; the AVX2 tier expands
/// 4 seeds at a time for its x4 kernel.
pub fn sha3_256_prefix_hits(
    s_init: &U256,
    runs: &[MaskRun],
    target_prefix: u64,
    hits: &mut Vec<usize>,
) {
    let (tp, scalar) = (target_prefix, lanes::sha3_256_fixed32_prefix64);
    hits.clear();
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => lanes_avx512::sha3_256_prefix_hits(s_init, runs, tp, hits),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let x4 = lanes_avx2::sha3_256_fixed32_prefix64_x4;
            expanded_hits(s_init, runs, tp, hits, x4, scalar);
        }
        _ => {
            let x1 = |s: &[U256; 1]| [lanes::sha3_256_fixed32_prefix64(&s[0])];
            expanded_hits(s_init, runs, tp, hits, x1, scalar);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that set the process-wide [`force_level`] cap.
    fn force_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(SimdLevel::Portable < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(format!("{l}"), l.name());
        }
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Portable));
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("sse9"), None);
    }

    #[test]
    fn force_level_caps_but_never_raises() {
        let _guard = force_lock();
        let detected = detected_level();
        force_level(Some(SimdLevel::Portable));
        assert_eq!(active_level(), SimdLevel::Portable);
        force_level(Some(SimdLevel::Avx512));
        assert!(active_level() <= detected, "forcing must not exceed detection");
        force_level(None);
        assert_eq!(active_level(), detected);
    }

    #[test]
    fn kernel_plan_matches_active_level() {
        let _guard = force_lock();
        let plan = kernel_plan();
        let level = active_level();
        // The portable tier is scalar-only (empty plan); every SIMD tier
        // must select at least one kernel.
        assert_eq!(plan.is_empty(), level == SimdLevel::Portable, "{plan:?} @ {level}");
        for row in &plan {
            assert!(row.kernel <= level, "{row:?} exceeds active level {level}");
            assert!(row.width >= 2);
        }
        // Widest-first per algorithm, so batch draining is well-ordered.
        for algo in ["SHA-1", "SHA-3"] {
            let widths: Vec<usize> =
                plan.iter().filter(|r| r.algo == algo).map(|r| r.width).collect();
            assert!(widths.windows(2).all(|w| w[0] > w[1]), "{algo}: {widths:?}");
        }
    }

    #[test]
    fn no_selectable_sha3_width_below_four() {
        // The two-lane SHA-3 interleave measured slower than scalar
        // (register spill; see module docs). It must never be selected.
        let _guard = force_lock();
        for row in kernel_plan() {
            if row.algo == "SHA-3" {
                assert!(row.width >= 4, "{row:?}");
            }
        }
    }

    #[test]
    fn batches_identical_across_available_levels() {
        let _guard = force_lock();
        let seeds: Vec<U256> = (0..37u64)
            .map(|i| U256::from_limbs([i.wrapping_mul(0x9E37_79B9), !i, i << 9, i ^ 0xA5]))
            .collect();
        // 70 one-mask runs: two full x32 vectors, then a partial one at
        // AVX-512; x8 vectors and a scalar tail at AVX2.
        let s_init = seeds[5];
        let masks: Vec<U256> = (0..70).map(|i| seeds[i % seeds.len()]).collect();
        let runs: Vec<MaskRun> = masks.iter().copied().map(MaskRun::single).collect();
        let tp1 = lanes::sha1_fixed32_prefix64(&(s_init ^ masks[40]));
        let tp3 = lanes::sha3_256_fixed32_prefix64(&(s_init ^ masks[40]));
        let detected = detected_level();
        let mut want1: Vec<Sha1Digest> = Vec::new();
        let mut want3: Vec<Sha3_256Digest> = Vec::new();
        let mut wantp1: Vec<u64> = Vec::new();
        let mut wantp3: Vec<u64> = Vec::new();
        for level in SimdLevel::ALL {
            if level > detected {
                continue;
            }
            force_level(Some(level));
            let (mut d1, mut d3, mut p1, mut p3) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let (mut h1, mut h3) = (Vec::new(), Vec::new());
            sha1_digest_batch(&seeds, &mut d1);
            sha3_256_digest_batch(&seeds, &mut d3);
            sha1_prefix64_batch(&seeds, &mut p1);
            sha3_256_prefix64_batch(&seeds, &mut p3);
            sha1_prefix_hits(&s_init, &runs, tp1, &mut h1);
            sha3_256_prefix_hits(&s_init, &runs, tp3, &mut h3);
            // masks[40] repeats masks[3] (the seeds cycle every 37): both hit.
            assert_eq!(h1, vec![3, 40], "sha1 prefix hits @ {level}");
            assert_eq!(h3, vec![3, 40], "sha3 prefix hits @ {level}");
            if level == SimdLevel::Portable {
                (want1, want3, wantp1, wantp3) = (d1, d3, p1, p3);
            } else {
                assert_eq!(d1, want1, "sha1 digests @ {level}");
                assert_eq!(d3, want3, "sha3 digests @ {level}");
                assert_eq!(p1, wantp1, "sha1 prefixes @ {level}");
                assert_eq!(p3, wantp3, "sha3 prefixes @ {level}");
            }
        }
        force_level(None);
    }
}
