//! # rbc-bench
//!
//! Shared machinery for the evaluation harness: table formatting,
//! local microbenchmark probes (single-thread derivation rates, iterator
//! rates) and the measured→platform extrapolation used when this machine
//! is not the paper's.
//!
//! The `repro` binary regenerates every table and figure; see
//! `EXPERIMENTS.md` at the repository root for the recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
mod artifact;
pub mod attrib;
pub mod baseline;
pub mod monitor;
pub mod sim;
mod world;

pub use artifact::Artifact;
pub use world::{FloodSchedule, Replay};

use std::time::Instant;

use rbc_bits::{MaskRun, U256};
use rbc_comb::{Alg515Stream, ChaseStream, GosperStream, MaskStream, SeedIterKind};
use rbc_core::derive::Derive;
use serde_json::Value as Json;

use artifact::{detail, ident, object};
use baseline::Worse;
use rbc_hash::{sha1::sha1_fixed32, sha3::sha3_256_fixed32};

/// A plain-text table with aligned columns, in the style of the paper's.
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience for string-literal rows.
    pub fn row_str(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a rate in human units.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2} GH/s", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2} MH/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2} kH/s", r / 1e3)
    } else {
        format!("{r:.1} H/s")
    }
}

/// Formats a big count like the paper's Table 1 (scientific above 10^4).
pub fn fmt_count(c: u128) -> String {
    if c < 10_000 {
        format!("{c}")
    } else {
        let exp = (c as f64).log10().floor() as i32;
        let mant = c as f64 / 10f64.powi(exp);
        format!("{mant:.1}e{exp}")
    }
}

/// Measures a single-thread derivation rate in seeds/second by walking
/// `count` weight-3 masks of a fixed base seed — the exact inner loop of
/// the salted search.
pub fn measure_derive_rate<D: Derive>(derive: &D, count: u64) -> f64 {
    let base = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0xdef0]);
    let mut stream = GosperStream::new(3);
    let start = Instant::now();
    let mut done = 0u64;
    while done < count {
        let mask = match stream.next_mask() {
            Some(m) => m,
            None => {
                stream = GosperStream::new(3);
                continue;
            }
        };
        let seed = base ^ mask;
        std::hint::black_box(derive.derive(std::hint::black_box(&seed)));
        done += 1;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// Measures the single-thread **batched** derivation rate in seeds/second:
/// the inner loop of the deployed search — refill a batch of Chase mask
/// runs (the engine's iterator, [`MaskStream::next_runs`]) and push it
/// through the derivation's prescreen ([`Derive::prefix_hits`], which
/// builds, hashes and compares the candidates in one fused call for hash
/// derivations) or, when the derivation has no truncated path, expand it
/// into candidate seeds for `derive_batch`.
///
/// This is the rate the deployed engine actually sustains per thread, and
/// what the Table 5 / §4.3 CPU extrapolations calibrate against.
pub fn measure_derive_rate_batched<D: Derive>(derive: &D, count: u64, batch: usize) -> f64 {
    let base = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0xdef0]);
    let batch = batch.max(1);
    let fresh = || MaskStream::Chase(ChaseStream::new_full(3));
    let mut stream = fresh();
    let mut runs: Vec<MaskRun> = Vec::new();
    let mut seeds: Vec<U256> = Vec::with_capacity(batch);
    let mut hits: Vec<usize> = Vec::new();
    let mut outs: Vec<D::Out> = Vec::with_capacity(batch);
    // `base` itself is outside the distance-3 ball, so its prefix is a
    // target no candidate hits and every batch is pure prescreen.
    let target_prefix = derive.prefix64(&derive.derive(&base));
    let start = Instant::now();
    let mut done = 0u64;
    while done < count {
        let n = stream.next_runs(&mut runs, batch);
        if n == 0 {
            stream = fresh();
            continue;
        }
        if let Some(tp) = target_prefix {
            derive.prefix_hits(&base, &runs, tp, &mut hits);
            std::hint::black_box(&hits);
        } else {
            seeds.clear();
            seeds.extend(runs.iter().flat_map(MaskRun::masks).map(|m| base ^ m));
            derive.derive_batch(&seeds, &mut outs);
            std::hint::black_box(&outs);
        }
        done += n as u64;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// One row of the per-ISA scalar-vs-SIMD-lanes hash comparison.
#[derive(Clone, Debug, serde::Serialize)]
pub struct LaneMeasurement {
    /// Hash name ("SHA-1" / "SHA-3").
    pub hash: String,
    /// Code path ("scalar", "x8", "prefix64 x16", "dispatch", ...).
    pub path: String,
    /// Kernel tier providing the path: "scalar", "avx2", "avx512", or
    /// the active tier's name for "dispatch" rows.
    pub kernel: String,
    /// Seeds hashed per kernel call (1 for scalar; for dispatch rows,
    /// the widest kernel that entry point drains through).
    pub width: usize,
    /// Whether the runtime dispatcher actually drains batches through
    /// this (algo, width, kernel) at the current active tier.
    pub selected: bool,
    /// Throughput in hashes/second (single thread).
    pub rate: f64,
    /// Speedup over the same hash's scalar fixed-input path.
    pub speedup: f64,
}

/// Timing windows per measurement: every lane rate and adaptive time is
/// the median of this many windows, and each window times every row once
/// in turn, so a host stall spoils one window of one row rather than
/// that row's result.
const WINDOWS: usize = 7;

/// Median of an odd-sized, non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over windows of `a[w] / b[w]`: a ratio of two rows timed side
/// by side in each window.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    median(a.iter().zip(b).map(|(x, y)| x / y).collect())
}

/// One hashing path to time; `run` hashes the whole seed set once.
struct LanePath<'a> {
    hash: &'static str,
    path: &'static str,
    kernel: &'static str,
    width: usize,
    selected: bool,
    run: Box<dyn FnMut() + 'a>,
}

/// Times every path in [`WINDOWS`] interleaved windows of `calls` calls
/// (the window's first path rotates), after one untimed window each.
/// Returns each path's per-window rates, hashing `per_call` seeds a call.
fn interleaved_rates(paths: &mut [LanePath<'_>], calls: u64, per_call: u64) -> Vec<Vec<f64>> {
    for p in paths.iter_mut() {
        for _ in 0..calls {
            (p.run)();
        }
    }
    let mut rates = vec![Vec::with_capacity(WINDOWS); paths.len()];
    for w in 0..WINDOWS {
        for k in 0..paths.len() {
            let i = (k + w) % paths.len();
            let start = Instant::now();
            for _ in 0..calls {
                (paths[i].run)();
            }
            rates[i].push((calls * per_call) as f64 / start.elapsed().as_secs_f64());
        }
    }
    rates
}

/// Measures single-thread scalar vs SIMD fixed-32-byte hashing rates per
/// ISA tier — the `BENCH_hash_lanes.json` payload and the
/// `benches/batch_lanes.rs` / `repro hash-lanes` table. `count` is the
/// approximate number of hashes per row, split over seven
/// interleaved windows; a row's rate is its median window and its
/// speedup the median of its per-window ratios to the same hash's scalar
/// row.
///
/// Rows cover the scalar baseline, the AVX2 / AVX-512 `std::arch`
/// kernels when the CPU has them, and the runtime dispatcher's own batch
/// entry points.
pub fn measure_hash_lane_rates(count: u64) -> Vec<LaneMeasurement> {
    use rbc_hash::dispatch::{self, SimdLevel};

    // Structure-free distinct inputs, reused by every path.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let seeds: Vec<U256> =
        (0..4096).map(|_| U256::from_limbs([next(), next(), next(), next()])).collect();
    let n = seeds.len() as u64;
    let seeds = &seeds;
    // The prescreen rows' input: the runs of the first Chase d = 3
    // batches, 1,024 masks each, as many masks as the other rows hash.
    let mut chase = MaskStream::Chase(ChaseStream::new_full(3));
    let batches: Vec<Vec<MaskRun>> = (0..n / 1024)
        .map(|_| {
            let mut runs = Vec::new();
            chase.next_runs(&mut runs, 1024);
            runs
        })
        .collect();
    let batches = &batches;

    let plan = dispatch::kernel_plan();
    let selected = |hash: &str, width: usize, kernel: SimdLevel| -> bool {
        plan.iter().any(|s| s.algo == hash && s.width == width && s.kernel == kernel)
    };
    let widest = |hash: &str| plan.iter().filter(|s| s.algo == hash).map(|s| s.width).max();

    let mut paths: Vec<LanePath<'_>> = Vec::new();
    macro_rules! push {
        ($hash:expr, $path:expr, $kernel:expr, $w:expr, $sel:expr, $run:expr) => {
            paths.push(LanePath {
                hash: $hash,
                path: $path,
                kernel: $kernel,
                width: $w,
                selected: $sel,
                run: Box::new($run),
            })
        };
    }
    macro_rules! chunked {
        ($w:literal, $f:path) => {
            move || {
                for c in seeds.chunks_exact($w) {
                    std::hint::black_box($f(c.try_into().expect("exact chunk")));
                }
            }
        };
    }

    // Scalar baselines, then every explicit SIMD tier the host can run.
    push!("SHA-1", "scalar", "scalar", 1, false, move || {
        for s in seeds {
            std::hint::black_box(sha1_fixed32(std::hint::black_box(s)));
        }
    });
    push!("SHA-3", "scalar", "scalar", 1, false, move || {
        for s in seeds {
            std::hint::black_box(sha3_256_fixed32(std::hint::black_box(s)));
        }
    });

    #[cfg(target_arch = "x86_64")]
    {
        use rbc_hash::{lanes_avx2, lanes_avx512};
        if lanes_avx2::available() {
            let l = SimdLevel::Avx2;
            let (sel1, sel3) = (selected("SHA-1", 8, l), selected("SHA-3", 4, l));
            push!("SHA-1", "x8", "avx2", 8, sel1, chunked!(8, lanes_avx2::sha1_fixed32_x8));
            push!(
                "SHA-1",
                "prefix64 x8",
                "avx2",
                8,
                sel1,
                chunked!(8, lanes_avx2::sha1_fixed32_prefix64_x8)
            );
            push!("SHA-3", "x4", "avx2", 4, sel3, chunked!(4, lanes_avx2::sha3_256_fixed32_x4));
            push!(
                "SHA-3",
                "prefix64 x4",
                "avx2",
                4,
                sel3,
                chunked!(4, lanes_avx2::sha3_256_fixed32_prefix64_x4)
            );
        }
        if lanes_avx512::available() {
            let l = SimdLevel::Avx512;
            let (sel1, sel3) = (selected("SHA-1", 16, l), selected("SHA-3", 8, l));
            push!("SHA-1", "x16", "avx512", 16, sel1, chunked!(16, lanes_avx512::sha1_fixed32_x16));
            push!(
                "SHA-1",
                "prefix64 x16",
                "avx512",
                16,
                sel1,
                chunked!(16, lanes_avx512::sha1_fixed32_prefix64_x16)
            );
            push!("SHA-3", "x8", "avx512", 8, sel3, chunked!(8, lanes_avx512::sha3_256_fixed32_x8));
            push!(
                "SHA-3",
                "prefix64 x8",
                "avx512",
                8,
                sel3,
                chunked!(8, lanes_avx512::sha3_256_fixed32_prefix64_x8)
            );
        }
    }

    // The dispatcher's own batch entry points. Digest and prefix64
    // batches drain from x16 down; only the fused prescreen, which the
    // search loop calls, runs the plan's x32 SHA-1 row.
    let active = dispatch::active_level().name();
    let sha1_batch_width = plan
        .iter()
        .filter(|s| s.algo == "SHA-1" && s.width <= 16)
        .map(|s| s.width)
        .max()
        .unwrap_or(1);
    let (sha1_widest, sha3_widest) = (widest("SHA-1").unwrap_or(1), widest("SHA-3").unwrap_or(1));
    let mut digests1 = Vec::with_capacity(seeds.len());
    push!("SHA-1", "dispatch", active, sha1_batch_width, true, move || {
        digests1.clear();
        dispatch::sha1_digest_batch(seeds, &mut digests1);
        std::hint::black_box(&digests1);
    });
    let mut prefixes1 = Vec::with_capacity(seeds.len());
    push!("SHA-1", "dispatch prefix64", active, sha1_batch_width, true, move || {
        prefixes1.clear();
        dispatch::sha1_prefix64_batch(seeds, &mut prefixes1);
        std::hint::black_box(&prefixes1);
    });
    // The prescreen as the search loop calls it, on Chase batches; the
    // target matches none.
    let s_init = seeds[0];
    let mut hits1 = Vec::new();
    push!("SHA-1", "dispatch prefix_hits", active, sha1_widest, true, move || {
        for runs in batches {
            dispatch::sha1_prefix_hits(&s_init, runs, 0, &mut hits1);
            std::hint::black_box(&hits1);
        }
    });
    let mut digests3 = Vec::with_capacity(seeds.len());
    push!("SHA-3", "dispatch", active, sha3_widest, true, move || {
        digests3.clear();
        dispatch::sha3_256_digest_batch(seeds, &mut digests3);
        std::hint::black_box(&digests3);
    });
    let mut prefixes3 = Vec::with_capacity(seeds.len());
    push!("SHA-3", "dispatch prefix64", active, sha3_widest, true, move || {
        prefixes3.clear();
        dispatch::sha3_256_prefix64_batch(seeds, &mut prefixes3);
        std::hint::black_box(&prefixes3);
    });
    let mut hits3 = Vec::new();
    push!("SHA-3", "dispatch prefix_hits", active, sha3_widest, true, move || {
        for runs in batches {
            dispatch::sha3_256_prefix_hits(&s_init, runs, 0, &mut hits3);
            std::hint::black_box(&hits3);
        }
    });

    let calls = (count / (WINDOWS as u64 * n)).max(1);
    let rates = interleaved_rates(&mut paths, calls, n);
    let scalar = |hash: &str| {
        let i = paths.iter().position(|p| p.hash == hash && p.path == "scalar");
        &rates[i.expect("every hash has a scalar row")]
    };
    paths
        .iter()
        .zip(&rates)
        .map(|(p, r)| LaneMeasurement {
            hash: p.hash.into(),
            path: p.path.into(),
            kernel: p.kernel.into(),
            width: p.width,
            selected: p.selected,
            rate: median(r.clone()),
            speedup: median_ratio(r, scalar(p.hash)),
        })
        .collect()
}

/// One row of the adaptive-vs-fixed batch policy comparison: early-exit
/// searches with a seed planted at distance `d`, single thread, the
/// default adaptive policy against a fixed maximum-size batch.
#[derive(Clone, Debug, serde::Serialize)]
pub struct AdaptiveMeasurement {
    /// Planted distance.
    pub d: u32,
    /// Searches run per policy.
    pub trials: u64,
    /// The fixed policy's batch size.
    pub fixed_batch: usize,
    /// Mean seeds derived per search under the fixed policy.
    pub fixed_seeds: f64,
    /// Mean seeds derived per search under the adaptive policy.
    pub adaptive_seeds: f64,
    /// Mean wall time per search under the fixed policy, milliseconds
    /// (median window).
    pub fixed_ms: f64,
    /// Mean wall time per search under the adaptive policy, milliseconds
    /// (median window).
    pub adaptive_ms: f64,
    /// `fixed_seeds / adaptive_seeds` — work saved by right-sizing.
    pub seed_gain: f64,
    /// `fixed_ms / adaptive_ms`, the median of the per-window ratios —
    /// end-to-end speedup (>1 is a win).
    pub time_gain: f64,
}

/// Measures the end-to-end effect of [`BatchPolicy::Adaptive`] against a
/// fixed maximum-size batch on early-exit searches at low planted
/// distances — where a one-refill-per-ring batch overshoots the hit.
/// SHA-3, single thread, `trials` planted searches per (d, policy), run
/// in seven windows that alternate which policy goes first.
///
/// [`BatchPolicy::Adaptive`]: rbc_core::batch::BatchPolicy
pub fn measure_adaptive_batching(trials: u64) -> Vec<AdaptiveMeasurement> {
    use rbc_core::batch::BatchPolicy;
    use rbc_core::derive::HashDerive;
    use rbc_core::engine::{EngineConfig, SearchEngine, SearchMode};
    use rbc_hash::{SeedHash, Sha3Fixed};

    let fixed_batch = BatchPolicy::default().max_batch();
    let engine = |policy: BatchPolicy| {
        SearchEngine::new(
            HashDerive(Sha3Fixed),
            EngineConfig {
                threads: 1,
                mode: SearchMode::EarlyExit,
                batch: policy,
                ..Default::default()
            },
        )
    };
    let fixed = engine(BatchPolicy::Fixed(fixed_batch));
    let adaptive = engine(BatchPolicy::default());

    // Deterministic planted instances, shared by both policies.
    let mut x = 0x0DDC_0FFE_E0DD_F00Du64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut rows = Vec::new();
    for d in [1u32, 2] {
        let instances: Vec<(U256, [u8; 32])> = (0..trials)
            .map(|_| {
                let base = U256::from_limbs([next(), next(), next(), next()]);
                let mut client = base;
                let mut flipped = 0;
                while flipped < d {
                    let bit = (next() % 256) as usize;
                    if client.bit(bit) == base.bit(bit) {
                        client = client.flip_bit(bit);
                        flipped += 1;
                    }
                }
                (base, Sha3Fixed.digest_seed(&client))
            })
            .collect();

        let run = |eng: &SearchEngine<HashDerive<Sha3Fixed>>| {
            let mut seeds_total = 0u64;
            let start = Instant::now();
            for (base, target) in &instances {
                let report = eng.search(target, base, d);
                seeds_total += report.seeds_derived;
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / trials as f64;
            (seeds_total as f64 / trials as f64, ms)
        };
        // Warmup both engines (Chase tables).
        let (fixed_seeds, _) = run(&fixed);
        let (adaptive_seeds, _) = run(&adaptive);
        // Seed counts are deterministic; only the times need windows.
        let (mut fixed_ms, mut adaptive_ms) = (Vec::new(), Vec::new());
        for w in 0..WINDOWS {
            if w % 2 == 0 {
                fixed_ms.push(run(&fixed).1);
                adaptive_ms.push(run(&adaptive).1);
            } else {
                adaptive_ms.push(run(&adaptive).1);
                fixed_ms.push(run(&fixed).1);
            }
        }
        let adaptive_floor: Vec<f64> = adaptive_ms.iter().map(|&ms| ms.max(1e-9)).collect();
        rows.push(AdaptiveMeasurement {
            d,
            trials,
            fixed_batch,
            fixed_seeds,
            adaptive_seeds,
            time_gain: median_ratio(&fixed_ms, &adaptive_floor),
            fixed_ms: median(fixed_ms),
            adaptive_ms: median(adaptive_ms),
            seed_gain: fixed_seeds / adaptive_seeds.max(1.0),
        });
    }
    rows
}

/// Renders lane measurements as a [`TextTable`].
pub fn lane_table(rows: &[LaneMeasurement]) -> TextTable {
    let mut t = TextTable::new(
        "SIMD lanes: fixed-32-byte hashing, single thread, per ISA tier",
        &["Hash", "Path", "Kernel", "Sel", "rate", "vs scalar"],
    );
    for r in rows {
        t.row(&[
            r.hash.clone(),
            r.path.clone(),
            r.kernel.clone(),
            if r.selected { "*".into() } else { "".into() },
            fmt_rate(r.rate),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t
}

/// Renders the adaptive-batching comparison as a [`TextTable`].
pub fn adaptive_table(rows: &[AdaptiveMeasurement]) -> TextTable {
    let mut t = TextTable::new(
        "Adaptive batching: early-exit search, planted seed, 1 thread",
        &[
            "d",
            "trials",
            "fixed seeds",
            "adaptive seeds",
            "fixed",
            "adaptive",
            "seed gain",
            "time gain",
        ],
    );
    for r in rows {
        t.row(&[
            r.d.to_string(),
            r.trials.to_string(),
            format!("{:.0}", r.fixed_seeds),
            format!("{:.0}", r.adaptive_seeds),
            fmt_secs(r.fixed_ms / 1e3),
            fmt_secs(r.adaptive_ms / 1e3),
            format!("{:.2}x", r.seed_gain),
            format!("{:.2}x", r.time_gain),
        ]);
    }
    t
}

/// The `BENCH_hash_lanes.json` artifact, at the active SIMD tier.
/// Metrics: for each dispatcher-selected row, `hash.<hash>.<path>.speedup`
/// over scalar (at least 1, or 0.9 for width-1 rows: dispatch overhead
/// on the same scalar kernel; baselined with 50% tolerance); then `hash.selected_rows` ≥ 1, the best selected
/// SHA-1 speedup against the tier's bar (6x AVX-512, 4x AVX2, 1x
/// otherwise), `hash.adaptive.low_d_seed_gain` ≥ 1.05, and per adaptive
/// row a flag that it lost over 20% wall time with no seed saving (wall
/// time at low d is µs-scale noise; the seed count is deterministic).
/// `detail` holds the CPU features, kernel plan and every row.
pub fn hash_lanes_artifact(rows: &[LaneMeasurement], adaptive: &[AdaptiveMeasurement]) -> Artifact {
    use rbc_hash::dispatch;
    #[derive(serde::Serialize)]
    struct Plan {
        algo: &'static str,
        width: usize,
        kernel: &'static str,
    }
    let active = dispatch::active_level().name();
    let plan: Vec<Plan> = dispatch::kernel_plan()
        .iter()
        .map(|s| Plan { algo: s.algo, width: s.width, kernel: s.kernel.name() })
        .collect();
    let cpu = object(vec![
        ("features", detail(&dispatch::cpu_features())),
        ("detected", Json::Str(dispatch::detected_level().name().to_string())),
        ("kernel_plan", detail(&plan)),
    ]);
    let mut a = Artifact::new(
        "hash_lanes",
        object(vec![
            ("unit", Json::Str("hashes/sec".to_string())),
            ("cpu", cpu),
            ("results", detail(rows)),
            ("adaptive", detail(adaptive)),
        ]),
    );
    a.tier = Some(active.to_string());
    let selected: Vec<&LaneMeasurement> = rows.iter().filter(|r| r.selected).collect();
    // The baseline gates each selected row's speedup over scalar, a
    // ratio measured within one run: an absolute rate follows whatever
    // else the host is running and crossed its 50% floor with no code
    // change.
    for r in &selected {
        let id = format!("hash.{}.{}", ident(&r.hash), ident(&r.path));
        a.metric(format!("{id}.speedup"), r.speedup)
            .at_least(if r.width <= 1 { 0.9 } else { 1.0 })
            .baseline(0.5, Worse::Lower);
    }
    a.metric("hash.selected_rows", selected.len()).at_least(1.0);
    let best_sha1 =
        selected.iter().filter(|r| r.hash == "SHA-1").map(|r| r.speedup).fold(0.0, f64::max);
    let sha1_bar = match active {
        "avx512" => 6.0,
        "avx2" => 4.0,
        _ => 1.0,
    };
    a.metric("hash.sha_1.best_selected_speedup", best_sha1).at_least(sha1_bar);
    let low_d_gain = adaptive.iter().filter(|r| r.d <= 1).map(|r| r.seed_gain).fold(0.0, f64::max);
    a.metric("hash.adaptive.low_d_seed_gain", low_d_gain).at_least(1.05);
    for r in adaptive {
        a.metric(
            format!("hash.adaptive.d{}.slower_without_seed_saving", r.d),
            r.time_gain < 0.80 && r.seed_gain < 1.05,
        )
        .exactly(0.0);
    }
    a
}

/// One row of the `repro telemetry` per-phase latency breakdown: a
/// substrate's mean time in each pipeline phase, read back from the
/// shared metrics registry after a batch of authentications.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TelemetryRow {
    /// Substrate label (the backend descriptor's `kind`).
    pub substrate: String,
    /// Authentications driven through the pipeline.
    pub auths: u64,
    /// Mean time to answer a hello (session open + record unseal),
    /// milliseconds (`rbc_service_hello_ns`).
    pub hello_ms: f64,
    /// Mean digest validation + search-job build under the CA lock,
    /// milliseconds (`rbc_service_prepare_ns`).
    pub prepare_ms: f64,
    /// Mean dispatcher queue wait, milliseconds
    /// (`rbc_service_queue_wait_ns`).
    pub queue_wait_ms: f64,
    /// Mean on-device search time, milliseconds
    /// (`rbc_service_search_ns`).
    pub search_ms: f64,
    /// Mean salt + PQC keygen + RA update time, milliseconds
    /// (`rbc_ca_keygen_ns`).
    pub keygen_ms: f64,
    /// Mean end-to-end authentication time, milliseconds
    /// (`rbc_service_auth_total_ns`).
    pub total_ms: f64,
    /// 95th-percentile end-to-end time, milliseconds.
    pub p95_total_ms: f64,
}

impl TelemetryRow {
    /// The registry histogram each phase column is read from.
    pub const PHASES: [(&'static str, &'static str); 6] = [
        ("hello_ms", "rbc_service_hello_ns"),
        ("prepare_ms", "rbc_service_prepare_ns"),
        ("queue_wait_ms", "rbc_service_queue_wait_ns"),
        ("search_ms", "rbc_service_search_ns"),
        ("keygen_ms", "rbc_ca_keygen_ns"),
        ("total_ms", "rbc_service_auth_total_ns"),
    ];

    /// Reads the per-phase breakdown out of a whole-pipeline registry
    /// snapshot. Phases with no samples (e.g. keygen when nothing was
    /// accepted) report 0 ms.
    pub fn from_snapshot(substrate: &str, snap: &rbc_telemetry::Snapshot) -> Self {
        let mean_ms = |name: &str| {
            snap.histogram(name).map_or(0.0, |h| h.mean_duration().as_secs_f64() * 1e3)
        };
        let total = snap.histogram("rbc_service_auth_total_ns");
        TelemetryRow {
            substrate: substrate.to_string(),
            auths: total.map_or(0, |h| h.count),
            hello_ms: mean_ms("rbc_service_hello_ns"),
            prepare_ms: mean_ms("rbc_service_prepare_ns"),
            queue_wait_ms: mean_ms("rbc_service_queue_wait_ns"),
            search_ms: mean_ms("rbc_service_search_ns"),
            keygen_ms: mean_ms("rbc_ca_keygen_ns"),
            total_ms: mean_ms("rbc_service_auth_total_ns"),
            p95_total_ms: total.map_or(0.0, |h| h.percentile_duration(95.0).as_secs_f64() * 1e3),
        }
    }
}

/// Renders the per-phase breakdown as a [`TextTable`].
pub fn telemetry_table(rows: &[TelemetryRow]) -> TextTable {
    let mut t = TextTable::new(
        "Telemetry: per-phase mean latency by substrate (shared registry histograms)",
        &[
            "substrate",
            "auths",
            "hello",
            "prepare",
            "queue wait",
            "search",
            "keygen",
            "total",
            "p95 total",
        ],
    );
    for r in rows {
        t.row(&[
            r.substrate.clone(),
            r.auths.to_string(),
            fmt_secs(r.hello_ms / 1e3),
            fmt_secs(r.prepare_ms / 1e3),
            fmt_secs(r.queue_wait_ms / 1e3),
            fmt_secs(r.search_ms / 1e3),
            fmt_secs(r.keygen_ms / 1e3),
            fmt_secs(r.total_ms / 1e3),
            fmt_secs(r.p95_total_ms / 1e3),
        ]);
    }
    t
}

/// The `BENCH_telemetry.json` artifact. Per substrate `<s>`:
/// `telemetry.<s>.auths` ≥ 1 and every phase column (`hello_ms`, ...,
/// from [`TelemetryRow::PHASES`]) ≥ 0; `telemetry.substrates` ≥ 2; and on
/// the `cpu` row the CA's fixed per-request cost over the keygen it
/// guards, `(hello_ms + prepare_ms) / keygen_ms`, at most 1. Both sides
/// come from the same run, so host speed cancels out of the ratio.
pub fn telemetry_artifact(rows: &[TelemetryRow]) -> Artifact {
    let mut a = Artifact::new(
        "telemetry",
        object(vec![("unit", Json::Str("ms".to_string())), ("results", detail(rows))]),
    );
    let mut substrates: Vec<&str> = Vec::new();
    for r in rows {
        let id = format!("telemetry.{}", ident(&r.substrate));
        a.metric(format!("{id}.auths"), r.auths).at_least(1.0);
        let phases =
            [r.hello_ms, r.prepare_ms, r.queue_wait_ms, r.search_ms, r.keygen_ms, r.total_ms];
        for ((field, _), ms) in TelemetryRow::PHASES.into_iter().zip(phases) {
            a.metric(format!("{id}.{field}"), ms).at_least(0.0);
        }
        if r.substrate == "cpu" {
            a.metric(
                format!("{id}.ca_fixed_over_keygen"),
                (r.hello_ms + r.prepare_ms) / r.keygen_ms,
            )
            .at_most(1.0);
        }
        if !substrates.contains(&r.substrate.as_str()) {
            substrates.push(&r.substrate);
        }
    }
    a.metric("telemetry.substrates", substrates.len()).at_least(2.0);
    a
}

/// One span of a [`TriageRow`]: a flattened
/// [`rbc_telemetry::SpanRecord`], ids kept as numbers so the validator
/// can re-stitch the tree.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TriageSpan {
    /// Phase name (`hello`, `prepare`, `queue_wait`, `search`, `finish`,
    /// `auth_total`).
    pub name: String,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 = root of the trace.
    pub parent_span: u64,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub duration_ns: u64,
}

/// One slowest-K row of `repro triage`: a single authentication's
/// stitched span tree plus its per-phase breakdown.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TriageRow {
    /// Trace id in `0x…` form.
    pub trace: String,
    /// Verdict name (`accepted`, `rejected`, `timed_out`, `overloaded`).
    pub verdict: String,
    /// End-to-end `auth_total` span, milliseconds.
    pub total_ms: f64,
    /// `queue_wait` phase, milliseconds.
    pub queue_wait_ms: f64,
    /// `search` phase, milliseconds (0 when the request was shed).
    pub search_ms: f64,
    /// Every recorded span of the trace, ordered by start time.
    pub spans: Vec<TriageSpan>,
}

impl TriageRow {
    /// Pipeline order the validator enforces on span *start* times:
    /// each phase that is present must not start before the one listed
    /// ahead of it (`queue_wait`/`search` are recorded retroactively
    /// with back-dated starts, which preserves this order).
    pub const PHASE_ORDER: [&'static str; 6] =
        ["hello", "auth_total", "prepare", "queue_wait", "search", "finish"];

    /// Builds a row from the recorded spans of one trace.
    pub fn from_spans(trace_id: u64, verdict: &str, spans: &[rbc_telemetry::SpanRecord]) -> Self {
        let mut own: Vec<&rbc_telemetry::SpanRecord> =
            spans.iter().filter(|s| s.trace_id == trace_id).collect();
        own.sort_by_key(|s| s.start_ns);
        let phase_ms = |name: &str| {
            own.iter().find(|s| s.name == name).map_or(0.0, |s| s.duration.as_secs_f64() * 1e3)
        };
        TriageRow {
            trace: format!("{trace_id:#x}"),
            verdict: verdict.to_string(),
            total_ms: phase_ms("auth_total"),
            queue_wait_ms: phase_ms("queue_wait"),
            search_ms: phase_ms("search"),
            spans: own
                .iter()
                .map(|s| TriageSpan {
                    name: s.name.to_string(),
                    span_id: s.span_id,
                    parent_span: s.parent_span,
                    start_ns: s.start_ns,
                    duration_ns: u64::try_from(s.duration.as_nanos()).unwrap_or(u64::MAX),
                })
                .collect(),
        }
    }
}

/// Renders the slowest-K triage rows as a [`TextTable`].
pub fn triage_table(rows: &[TriageRow]) -> TextTable {
    let mut t = TextTable::new(
        "Triage: slowest authentications (stitched traces, per-phase breakdown)",
        &["trace", "verdict", "total", "queue wait", "search", "spans"],
    );
    for r in rows {
        t.row(&[
            r.trace.clone(),
            r.verdict.clone(),
            fmt_secs(r.total_ms / 1e3),
            fmt_secs(r.queue_wait_ms / 1e3),
            fmt_secs(r.search_ms / 1e3),
            r.spans.len().to_string(),
        ]);
    }
    t
}

/// The `BENCH_triage.json` artifact. Every row must *stitch*:
/// `triage.rows` ≥ 1, and exactly 0 rows with an anonymous (zero) trace
/// id, rows missing their `hello` or `auth_total` span, spans whose
/// nonzero parent is not in the row's tree, and rows whose present
/// phases start out of [`TriageRow::PHASE_ORDER`]. The run must also
/// have induced a deadline breach (`triage.timed_out_rows` ≥ 1) that
/// froze the flight recorder (`triage.flight_frozen`) with a dump
/// holding the pinned trace's `hello` and `auth_total` spans
/// (`triage.frozen_dump_complete`). `detail` holds the rows and the
/// frozen trace id (`0x…`, or `null`).
pub fn triage_artifact(
    rows: &[TriageRow],
    frozen_trace: Option<u64>,
    frozen_dump: Option<&str>,
) -> Artifact {
    let frozen = frozen_trace.map_or(Json::Null, |t| Json::Str(format!("{t:#x}")));
    let mut a = Artifact::new(
        "triage",
        object(vec![
            ("unit", Json::Str("ms".to_string())),
            ("frozen_trace", frozen),
            ("results", detail(rows)),
        ]),
    );
    let count = |f: &dyn Fn(&TriageRow) -> bool| rows.iter().filter(|r| f(r)).count();
    let has = |r: &TriageRow, name: &str| r.spans.iter().any(|s| s.name == name);
    let orphans: usize = rows
        .iter()
        .map(|r| {
            let known = |id: u64| r.spans.iter().any(|s| s.span_id == id);
            r.spans.iter().filter(|s| s.parent_span != 0 && !known(s.parent_span)).count()
        })
        .sum();
    let monotone = |r: &TriageRow| {
        let starts = TriageRow::PHASE_ORDER
            .iter()
            .filter_map(|p| r.spans.iter().find(|s| s.name == *p).map(|s| s.start_ns));
        starts.clone().zip(starts.skip(1)).all(|(a, b)| a <= b)
    };
    a.metric("triage.rows", rows.len()).at_least(1.0);
    a.metric("triage.anonymous_traces", count(&|r| r.trace == "0x0")).exactly(0.0);
    a.metric("triage.rows_missing_hello", count(&|r| !has(r, "hello"))).exactly(0.0);
    a.metric("triage.rows_missing_auth_total", count(&|r| !has(r, "auth_total"))).exactly(0.0);
    a.metric("triage.orphan_spans", orphans).exactly(0.0);
    a.metric("triage.non_monotone_rows", count(&|r| !monotone(r))).exactly(0.0);
    a.metric("triage.timed_out_rows", count(&|r| r.verdict == "timed_out")).at_least(1.0);
    a.metric("triage.flight_frozen", frozen_trace.is_some()).exactly(1.0);
    let complete =
        frozen_dump.is_some_and(|d| d.contains("\"hello\"") && d.contains("\"auth_total\""));
    a.metric("triage.frozen_dump_complete", complete).exactly(1.0);
    a
}

/// Measures mask-generation-only rate (masks/second, single thread) for a
/// seed iterator at distance `d` over `count` masks — the Table 4 raw
/// ingredient. Masks are written out in 1024-mask refills through
/// [`MaskStream::next_batch`]; the search loop takes the same masks as
/// runs ([`MaskStream::next_runs`]) and never writes them out.
pub fn measure_iter_rate(kind: SeedIterKind, d: u32, count: u64) -> f64 {
    let fresh = || match kind {
        SeedIterKind::Gosper => MaskStream::Gosper(GosperStream::new(d)),
        SeedIterKind::Alg515 => MaskStream::Alg515(Alg515Stream::new(d)),
        SeedIterKind::Chase => MaskStream::Chase(ChaseStream::new_full(d)),
    };
    let mut stream = fresh();
    let mut buf = vec![U256::ZERO; 1024];
    let start = Instant::now();
    let mut done = 0u64;
    while done < count {
        let want = (count - done).min(buf.len() as u64) as usize;
        let n = stream.next_batch(&mut buf[..want]);
        if n == 0 {
            stream = fresh();
            continue;
        }
        std::hint::black_box(&buf[..n]);
        done += n as u64;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_core::derive::HashDerive;
    use rbc_hash::Sha3Fixed;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["a", "bbbb"]);
        t.row_str(&["1", "2"]);
        let r = t.render();
        assert!(r.contains("Demo"));
        assert!(r.contains("bbbb"));
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new("x", &["a"]);
        t.row_str(&["1", "2"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert!(fmt_secs(0.0005).contains("µs"));
        assert!(fmt_secs(0.05).contains("ms"));
        assert!(fmt_rate(2.0e9).contains("GH/s"));
        assert!(fmt_rate(5.0e6).contains("MH/s"));
        assert_eq!(fmt_count(256), "256");
        assert_eq!(fmt_count(32_897), "3.3e4");
        assert_eq!(fmt_count(8_987_138_113), "9.0e9");
    }

    #[test]
    fn telemetry_row_reads_registry_phases() {
        use std::time::Duration;
        let registry = rbc_telemetry::Registry::new();
        for (_, metric) in TelemetryRow::PHASES {
            registry.histogram(metric).record_duration(Duration::from_millis(10));
        }
        let row = TelemetryRow::from_snapshot("cpu", &registry.snapshot());
        assert_eq!(row.auths, 1);
        assert!(row.total_ms >= 10.0, "{row:?}");
        assert!(row.keygen_ms >= 10.0, "{row:?}");
    }

    /// The smoke gate's failure on `a`'s own file, which must name `id`.
    fn gate_fails_on(a: &Artifact, id: &str) {
        let err = a.gate(&a.to_json()).expect_err(id);
        assert!(err.contains(id), "{err}");
    }

    #[test]
    fn telemetry_artifact_gates_substrates_and_ca_fixed_cost() {
        let row = |s: &str| TelemetryRow {
            substrate: s.into(),
            auths: 4,
            hello_ms: 0.02,
            prepare_ms: 0.01,
            queue_wait_ms: 0.1,
            search_ms: 5.0,
            keygen_ms: 1.0,
            total_ms: 6.5,
            p95_total_ms: 9.0,
        };
        let a = telemetry_artifact(&[row("cpu"), row("gpu-sim")]);
        a.gate(&a.to_json()).expect("round trip passes");
        assert!(a.to_json().contains("\"p95_total_ms\":9"), "rows kept in detail");

        gate_fails_on(&telemetry_artifact(&[row("cpu")]), "telemetry.substrates");
        let idle = TelemetryRow { auths: 0, ..row("gpu-sim") };
        gate_fails_on(&telemetry_artifact(&[row("cpu"), idle]), "telemetry.gpu_sim.auths");
        // The CA's fixed cost must stay below keygen on the cpu row.
        let slow = TelemetryRow { hello_ms: 0.9, prepare_ms: 0.9, ..row("cpu") };
        gate_fails_on(
            &telemetry_artifact(&[slow, row("gpu-sim")]),
            "telemetry.cpu.ca_fixed_over_keygen",
        );
    }

    #[test]
    fn triage_rows_stitch_and_gate() {
        use std::time::Duration;
        let span = |name: &'static str, span_id, parent, start_ns, ms| rbc_telemetry::SpanRecord {
            name,
            start_ns,
            duration: Duration::from_millis(ms),
            trace_id: 0x7f3a,
            span_id,
            parent_span: parent,
        };
        let spans = vec![
            span("hello", 2, 0, 100, 1),
            span("auth_total", 3, 0, 200, 40),
            span("prepare", 4, 3, 210, 2),
            span("queue_wait", 5, 3, 300, 5),
            span("search", 6, 3, 320, 30),
            span("finish", 7, 3, 900, 1),
            // A second trace's span must not leak into the row.
            rbc_telemetry::SpanRecord {
                name: "search",
                start_ns: 50,
                duration: Duration::from_millis(9),
                trace_id: 0xbeef,
                span_id: 8,
                parent_span: 0,
            },
        ];
        let row = TriageRow::from_spans(0x7f3a, "timed_out", &spans);
        assert_eq!(row.trace, "0x7f3a");
        assert_eq!(row.spans.len(), 6);
        assert!(row.total_ms >= 40.0 && row.search_ms >= 30.0, "{row:?}");

        let dump = Some(r#"{"name":"hello"} {"name":"auth_total"}"#);
        let a = triage_artifact(std::slice::from_ref(&row), Some(0x7f3a), dump);
        let text = a.to_json();
        assert!(text.contains("\"frozen_trace\":\"0x7f3a\""), "{text}");
        a.gate(&text).expect("round trip passes");

        // An orphan parent pointer fails the stitch check.
        let mut orphan = row.clone();
        orphan.spans[3].parent_span = 0xdead;
        gate_fails_on(&triage_artifact(&[orphan], Some(0x7f3a), dump), "triage.orphan_spans");
        // Out-of-order phase starts fail the monotonicity check.
        let mut shuffled = row.clone();
        let (a3, b4) = (shuffled.spans[3].start_ns, shuffled.spans[4].start_ns);
        shuffled.spans[3].start_ns = b4;
        shuffled.spans[4].start_ns = a3;
        gate_fails_on(
            &triage_artifact(&[shuffled], Some(0x7f3a), dump),
            "triage.non_monotone_rows",
        );
        // A trace with no hello never stitched across the wire.
        let headless = TriageRow::from_spans(0x7f3a, "timed_out", &spans[1..]);
        gate_fails_on(
            &triage_artifact(&[headless], Some(0x7f3a), dump),
            "triage.rows_missing_hello",
        );
        // No breach induced, or a post-mortem without the span chain.
        let served = TriageRow { verdict: "accepted".into(), ..row.clone() };
        gate_fails_on(&triage_artifact(&[served], Some(0x7f3a), dump), "triage.timed_out_rows");
        gate_fails_on(
            &triage_artifact(std::slice::from_ref(&row), None, None),
            "triage.flight_frozen",
        );
        let partial = Some(r#"{"name":"hello"}"#);
        gate_fails_on(
            &triage_artifact(&[row], Some(0x7f3a), partial),
            "triage.frozen_dump_complete",
        );
    }

    #[test]
    fn hash_lanes_artifact_gates_selected_kernels_and_adaptive_batching() {
        let lane = |hash: &str, path: &str, kernel: &str, w: usize, sel: bool, speedup: f64| {
            LaneMeasurement {
                hash: hash.into(),
                path: path.into(),
                kernel: kernel.into(),
                width: w,
                selected: sel,
                rate: speedup * 1.0e7,
                speedup,
            }
        };
        let adaptive = |d: u32, seed_gain: f64, time_gain: f64| AdaptiveMeasurement {
            d,
            trials: 100,
            fixed_batch: 1024,
            fixed_seeds: 257.0,
            adaptive_seeds: 257.0 / seed_gain,
            fixed_ms: 1.0,
            adaptive_ms: 1.0 / time_gain,
            seed_gain,
            time_gain,
        };
        let rows = vec![
            lane("SHA-1", "scalar", "scalar", 1, false, 1.0),
            lane("SHA-1", "x16", "avx512", 16, true, 8.0),
            lane("SHA-3", "scalar", "scalar", 1, false, 1.0),
            lane("SHA-3", "x8", "avx512", 8, true, 3.5),
        ];
        let ad = vec![adaptive(1, 1.4, 1.1), adaptive(2, 1.0, 1.0)];
        let a = hash_lanes_artifact(&rows, &ad);
        let text = a.to_json();
        // The artifact always records the real host's dispatch metadata.
        assert!(text.contains("\"kernel_plan\""), "{text}");
        assert!(text.contains("\"detected\""), "{text}");
        assert_eq!(a.tier.as_deref(), Some(rbc_hash::dispatch::active_level().name()));
        // The SHA-1 bar hinges on this host's active tier; the 8.0x
        // selected row clears every tier's bar.
        a.gate(&text).expect("round trip passes");
        let gated: Vec<&str> =
            a.metrics.iter().filter(|m| m.baseline.is_some()).map(|m| m.id.as_str()).collect();
        assert_eq!(gated, ["hash.sha_1.x16.speedup", "hash.sha_3.x8.speedup"]);

        // A dispatcher-selected width slower than scalar fails the gate.
        let mut slow = rows.clone();
        slow[3].speedup = 0.9;
        gate_fails_on(&hash_lanes_artifact(&slow, &ad), "hash.sha_3.x8.speedup");
        // Nothing selected, or a SHA-1 kernel under the tier's bar.
        let none: Vec<_> =
            rows.iter().map(|r| LaneMeasurement { selected: false, ..r.clone() }).collect();
        gate_fails_on(&hash_lanes_artifact(&none, &ad), "hash.selected_rows");
        let mut weak = rows.clone();
        weak[1].speedup = 0.95;
        gate_fails_on(&hash_lanes_artifact(&weak, &ad), "hash.sha_1.best_selected_speedup");
        // No adaptive win at low d fails the gate.
        gate_fails_on(
            &hash_lanes_artifact(&rows, &[adaptive(1, 1.0, 1.0)]),
            "hash.adaptive.low_d_seed_gain",
        );
        // Adaptive losing wall time with no seed savings fails the gate;
        // a noisy wall number alongside a real (deterministic) seed win
        // does not.
        let slowed = [adaptive(1, 1.4, 1.1), adaptive(2, 1.0, 0.5)];
        gate_fails_on(
            &hash_lanes_artifact(&rows, &slowed),
            "hash.adaptive.d2.slower_without_seed_saving",
        );
        let noisy = hash_lanes_artifact(&rows, &[adaptive(1, 1.4, 0.7), adaptive(2, 1.0, 0.9)]);
        noisy.gate(&noisy.to_json()).expect("noisy-but-winning row passes");
    }

    #[test]
    fn adaptive_batching_saves_seeds_at_low_distance() {
        let rows = measure_adaptive_batching(40);
        assert_eq!(rows.len(), 2);
        let d1 = &rows[0];
        assert_eq!(d1.d, 1);
        // Fixed 1024-batch always sweeps the whole 256-seed d=1 ring in
        // one refill; the adaptive policy polls more often and exits
        // early, so it must derive strictly fewer seeds on average.
        assert!(
            d1.adaptive_seeds < d1.fixed_seeds,
            "adaptive {} vs fixed {}",
            d1.adaptive_seeds,
            d1.fixed_seeds
        );
        assert!(d1.seed_gain > 1.05, "{d1:?}");
    }

    #[test]
    fn derive_rate_is_positive_and_plausible() {
        let r = measure_derive_rate(&HashDerive(Sha3Fixed), 20_000);
        assert!(r > 10_000.0, "SHA-3 rate {r} too slow to be believable");
    }

    #[test]
    fn iterator_rates_rank_chase_fastest() {
        // Table 4's core claim at the per-mask level, measured for real:
        // Chase's successor beats per-index unranking.
        let chase = measure_iter_rate(SeedIterKind::Chase, 3, 200_000);
        let alg515 = measure_iter_rate(SeedIterKind::Alg515, 3, 200_000);
        assert!(chase > alg515, "chase {chase} should outpace alg515 {alg515}");
    }
}
