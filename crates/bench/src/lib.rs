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
pub mod attrib;
pub mod baseline;
pub mod monitor;
pub mod sim;
mod world;

pub use world::FloodSchedule;

use std::time::Instant;

use rbc_bits::U256;
use rbc_comb::{Alg515Stream, ChaseStream, GosperStream, MaskStream, SeedIterKind};
use rbc_core::derive::Derive;
use rbc_hash::{lanes, sha1::sha1_fixed32, sha3::sha3_256_fixed32};

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
/// the inner loop of the deployed search — refill a batch of Chase masks
/// (the engine's iterator) and push it through the derivation's
/// prescreen ([`Derive::prefix_hits`], which XORs, hashes and compares
/// in one fused call for hash derivations) or, when the derivation has no
/// truncated path, XOR it into candidate seeds for `derive_batch`.
///
/// This is the rate the deployed engine actually sustains per thread, and
/// what the Table 5 / §4.3 CPU extrapolations calibrate against.
pub fn measure_derive_rate_batched<D: Derive>(derive: &D, count: u64, batch: usize) -> f64 {
    let base = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0xdef0]);
    let batch = batch.max(1);
    let mut stream = ChaseStream::new_full(3);
    let mut masks = vec![U256::ZERO; batch];
    let mut seeds: Vec<U256> = Vec::with_capacity(batch);
    let mut hits: Vec<usize> = Vec::new();
    let mut outs: Vec<D::Out> = Vec::with_capacity(batch);
    // `base` itself is outside the distance-3 ball, so its prefix is a
    // target no candidate hits and every batch is pure prescreen.
    let target_prefix = derive.prefix64(&derive.derive(&base));
    let start = Instant::now();
    let mut done = 0u64;
    while done < count {
        let n = stream.next_batch(&mut masks);
        if n == 0 {
            stream = ChaseStream::new_full(3);
            continue;
        }
        if let Some(tp) = target_prefix {
            derive.prefix_hits(&base, &masks[..n], tp, &mut hits);
            std::hint::black_box(&hits);
        } else {
            seeds.clear();
            seeds.extend(masks[..n].iter().map(|m| base ^ *m));
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
    /// Kernel tier providing the path: "scalar", "portable", "avx2",
    /// "avx512", or the active tier's name for "dispatch" rows.
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

/// Times `calls` invocations of `f`, each hashing `per_call` seeds.
fn lane_rate(count: u64, per_call: u64, mut f: impl FnMut()) -> f64 {
    let calls = (count / per_call.max(1)).max(1);
    // Brief warmup so the first timed call doesn't pay cold caches.
    for _ in 0..calls.div_ceil(10).min(50) {
        f();
    }
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    (calls * per_call) as f64 / start.elapsed().as_secs_f64()
}

/// Measures single-thread scalar vs SIMD fixed-32-byte hashing rates per
/// ISA tier — the `BENCH_hash_lanes.json` payload and the
/// `benches/batch_lanes.rs` / `repro hash-lanes` table. `count` is the
/// approximate number of hashes per measurement.
///
/// Rows cover the scalar baseline, every portable interleaved kernel
/// (including the SHA-3 x2 counterexample that dispatch excludes), the
/// AVX2 / AVX-512 `std::arch` kernels when the CPU has them, and the
/// runtime dispatcher's own batch entry points.
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

    let plan = dispatch::kernel_plan();
    let selected = |hash: &str, width: usize, kernel: SimdLevel| -> bool {
        plan.iter().any(|s| s.algo == hash && s.width == width && s.kernel == kernel)
    };
    let widest = |hash: &str| plan.iter().filter(|s| s.algo == hash).map(|s| s.width).max();

    let mut rows: Vec<LaneMeasurement> = Vec::new();
    macro_rules! chunk_rate {
        ($w:literal, $f:path) => {
            lane_rate(count, n, || {
                for c in seeds.chunks_exact($w) {
                    std::hint::black_box($f(c.try_into().expect("exact chunk")));
                }
            })
        };
    }
    macro_rules! push {
        ($hash:expr, $path:expr, $kernel:expr, $w:expr, $sel:expr, $rate:expr, $scalar:expr) => {
            rows.push(LaneMeasurement {
                hash: $hash.into(),
                path: $path.into(),
                kernel: $kernel.into(),
                width: $w,
                selected: $sel,
                rate: $rate,
                speedup: $rate / $scalar,
            })
        };
    }

    // SHA-1: scalar baseline, then every tier the host can run.
    let s1 = lane_rate(count, n, || {
        for s in &seeds {
            std::hint::black_box(sha1_fixed32(std::hint::black_box(s)));
        }
    });
    push!("SHA-1", "scalar", "scalar", 1, false, s1, s1);
    let port = SimdLevel::Portable;
    let r = chunk_rate!(4, lanes::sha1_fixed32_x4);
    push!("SHA-1", "x4", "portable", 4, selected("SHA-1", 4, port), r, s1);
    let r = chunk_rate!(8, lanes::sha1_fixed32_x8);
    push!("SHA-1", "x8", "portable", 8, selected("SHA-1", 8, port), r, s1);
    let r = chunk_rate!(8, lanes::sha1_fixed32_prefix64_x8);
    push!("SHA-1", "prefix64 x8", "portable", 8, selected("SHA-1", 8, port), r, s1);

    // SHA-3: scalar, then the portable lanes including the x2 pair that
    // measured *slower* than scalar and is excluded from every plan.
    let s3 = lane_rate(count, n, || {
        for s in &seeds {
            std::hint::black_box(sha3_256_fixed32(std::hint::black_box(s)));
        }
    });
    push!("SHA-3", "scalar", "scalar", 1, false, s3, s3);
    let r = chunk_rate!(2, lanes::sha3_256_fixed32_x2);
    push!("SHA-3", "x2", "portable", 2, false, r, s3);
    let r = chunk_rate!(4, lanes::sha3_256_fixed32_x4);
    push!("SHA-3", "x4", "portable", 4, selected("SHA-3", 4, port), r, s3);
    let r = chunk_rate!(4, lanes::sha3_256_fixed32_prefix64_x4);
    push!("SHA-3", "prefix64 x4", "portable", 4, selected("SHA-3", 4, port), r, s3);

    #[cfg(target_arch = "x86_64")]
    {
        use rbc_hash::{lanes_avx2, lanes_avx512};
        if lanes_avx2::available() {
            let l = SimdLevel::Avx2;
            let r = chunk_rate!(8, lanes_avx2::sha1_fixed32_x8);
            push!("SHA-1", "x8", "avx2", 8, selected("SHA-1", 8, l), r, s1);
            let r = chunk_rate!(8, lanes_avx2::sha1_fixed32_prefix64_x8);
            push!("SHA-1", "prefix64 x8", "avx2", 8, selected("SHA-1", 8, l), r, s1);
            let r = chunk_rate!(4, lanes_avx2::sha3_256_fixed32_x4);
            push!("SHA-3", "x4", "avx2", 4, selected("SHA-3", 4, l), r, s3);
            let r = chunk_rate!(4, lanes_avx2::sha3_256_fixed32_prefix64_x4);
            push!("SHA-3", "prefix64 x4", "avx2", 4, selected("SHA-3", 4, l), r, s3);
        }
        if lanes_avx512::available() {
            let l = SimdLevel::Avx512;
            let r = chunk_rate!(16, lanes_avx512::sha1_fixed32_x16);
            push!("SHA-1", "x16", "avx512", 16, selected("SHA-1", 16, l), r, s1);
            let r = chunk_rate!(16, lanes_avx512::sha1_fixed32_prefix64_x16);
            push!("SHA-1", "prefix64 x16", "avx512", 16, selected("SHA-1", 16, l), r, s1);
            let r = chunk_rate!(8, lanes_avx512::sha3_256_fixed32_x8);
            push!("SHA-3", "x8", "avx512", 8, selected("SHA-3", 8, l), r, s3);
            let r = chunk_rate!(8, lanes_avx512::sha3_256_fixed32_prefix64_x8);
            push!("SHA-3", "prefix64 x8", "avx512", 8, selected("SHA-3", 8, l), r, s3);
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
    let mut digests1 = Vec::with_capacity(seeds.len());
    let r = lane_rate(count, n, || {
        digests1.clear();
        dispatch::sha1_digest_batch(&seeds, &mut digests1);
        std::hint::black_box(&digests1);
    });
    push!("SHA-1", "dispatch", active, sha1_batch_width, true, r, s1);
    let mut prefixes = Vec::with_capacity(seeds.len());
    let r = lane_rate(count, n, || {
        prefixes.clear();
        dispatch::sha1_prefix64_batch(&seeds, &mut prefixes);
        std::hint::black_box(&prefixes);
    });
    push!("SHA-1", "dispatch prefix64", active, sha1_batch_width, true, r, s1);
    // The prescreen over the seeds as masks; the target matches none.
    let s_init = seeds[0];
    let mut hits = Vec::new();
    let r = lane_rate(count, n, || {
        dispatch::sha1_prefix_hits(&s_init, &seeds, 0, &mut hits);
        std::hint::black_box(&hits);
    });
    push!("SHA-1", "dispatch prefix_hits", active, widest("SHA-1").unwrap_or(1), true, r, s1);
    let mut digests3 = Vec::with_capacity(seeds.len());
    let r = lane_rate(count, n, || {
        digests3.clear();
        dispatch::sha3_256_digest_batch(&seeds, &mut digests3);
        std::hint::black_box(&digests3);
    });
    push!("SHA-3", "dispatch", active, widest("SHA-3").unwrap_or(1), true, r, s3);
    let r = lane_rate(count, n, || {
        prefixes.clear();
        dispatch::sha3_256_prefix64_batch(&seeds, &mut prefixes);
        std::hint::black_box(&prefixes);
    });
    push!("SHA-3", "dispatch prefix64", active, widest("SHA-3").unwrap_or(1), true, r, s3);
    let r = lane_rate(count, n, || {
        dispatch::sha3_256_prefix_hits(&s_init, &seeds, 0, &mut hits);
        std::hint::black_box(&hits);
    });
    push!("SHA-3", "dispatch prefix_hits", active, widest("SHA-3").unwrap_or(1), true, r, s3);

    rows
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
    /// Mean wall time per search under the fixed policy, milliseconds.
    pub fixed_ms: f64,
    /// Mean wall time per search under the adaptive policy, milliseconds.
    pub adaptive_ms: f64,
    /// `fixed_seeds / adaptive_seeds` — work saved by right-sizing.
    pub seed_gain: f64,
    /// `fixed_ms / adaptive_ms` — end-to-end speedup (>1 is a win).
    pub time_gain: f64,
}

/// Measures the end-to-end effect of [`BatchPolicy::Adaptive`] against a
/// fixed maximum-size batch on early-exit searches at low planted
/// distances — where a one-refill-per-ring batch overshoots the hit.
/// SHA-3, single thread, `trials` planted searches per (d, policy).
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
        run(&fixed);
        run(&adaptive);
        let (fixed_seeds, fixed_ms) = run(&fixed);
        let (adaptive_seeds, adaptive_ms) = run(&adaptive);
        rows.push(AdaptiveMeasurement {
            d,
            trials,
            fixed_batch,
            fixed_seeds,
            adaptive_seeds,
            fixed_ms,
            adaptive_ms,
            seed_gain: fixed_seeds / adaptive_seeds.max(1.0),
            time_gain: fixed_ms / adaptive_ms.max(1e-9),
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

/// Writes lane + adaptive measurements to `path` as the
/// `BENCH_hash_lanes.json` artifact:
/// `{"bench": "hash_lanes", "unit": "hashes/sec", "cpu": {features,
/// detected, active, kernel_plan}, "results": [...], "adaptive": [...]}`.
pub fn write_hash_lane_json(
    path: &str,
    rows: &[LaneMeasurement],
    adaptive: &[AdaptiveMeasurement],
) -> std::io::Result<()> {
    use rbc_hash::dispatch;
    let err = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let results = serde_json::to_value(&rows.to_vec()).map_err(|e| err(e.to_string()))?;
    let adaptive = serde_json::to_value(&adaptive.to_vec()).map_err(|e| err(e.to_string()))?;
    let strs = |v: Vec<&str>| {
        serde_json::Value::Array(v.into_iter().map(|s| serde_json::Value::Str(s.into())).collect())
    };
    let plan = serde_json::Value::Array(
        dispatch::kernel_plan()
            .iter()
            .map(|s| {
                serde_json::Value::Object(vec![
                    ("algo".to_string(), serde_json::Value::Str(s.algo.to_string())),
                    ("width".to_string(), serde_json::Value::UInt(s.width as u64)),
                    ("kernel".to_string(), serde_json::Value::Str(s.kernel.name().to_string())),
                ])
            })
            .collect(),
    );
    let cpu = serde_json::Value::Object(vec![
        ("features".to_string(), strs(dispatch::cpu_features())),
        ("detected".to_string(), serde_json::Value::Str(dispatch::detected_level().name().into())),
        ("active".to_string(), serde_json::Value::Str(dispatch::active_level().name().into())),
        ("kernel_plan".to_string(), plan),
    ]);
    let doc = serde_json::Value::Object(vec![
        ("bench".to_string(), serde_json::Value::Str("hash_lanes".to_string())),
        ("unit".to_string(), serde_json::Value::Str("hashes/sec".to_string())),
        ("cpu".to_string(), cpu),
        ("results".to_string(), results),
        ("adaptive".to_string(), adaptive),
    ]);
    let text = serde_json::to_string(&doc).map_err(|e| err(e.to_string()))?;
    std::fs::write(path, text)
}

/// Validates a `BENCH_hash_lanes.json` document — the
/// `repro hash-lanes --smoke` CI gate. Requires the envelope and CPU
/// metadata; every dispatcher-selected row at least as fast as scalar;
/// when a SIMD tier is active, the best selected SHA-1 width clearing the
/// issue's headline bar (≥6x scalar on AVX-512, ≥4x on AVX2); and the
/// adaptive policy beating the fixed batch on derived seeds at the lowest
/// planted distance without losing wall time anywhere.
pub fn validate_hash_lanes_json(text: &str) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let bench = doc.field("bench").ok().and_then(serde_json::Value::as_str);
    if bench != Some("hash_lanes") {
        return Err(format!("bench field is {bench:?}, expected \"hash_lanes\""));
    }
    let cpu = doc.field("cpu").map_err(|_| "missing cpu metadata".to_string())?;
    let active = cpu
        .field("active")
        .ok()
        .and_then(serde_json::Value::as_str)
        .ok_or("cpu.active missing")?
        .to_string();
    cpu.field("kernel_plan")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("cpu.kernel_plan missing")?;
    let results = doc
        .field("results")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing results array")?;
    let mut best_sha1 = 0.0f64;
    let mut saw_selected = false;
    for (i, row) in results.iter().enumerate() {
        let get_str = |f: &str| {
            row.field(f)
                .ok()
                .and_then(serde_json::Value::as_str)
                .ok_or(format!("row {i}: missing field {f}"))
                .map(str::to_string)
        };
        let hash = get_str("hash")?;
        let path = get_str("path")?;
        let speedup = row
            .field("speedup")
            .ok()
            .and_then(serde_json::Value::as_f64)
            .ok_or(format!("row {i} ({hash} {path}): missing speedup"))?;
        let selected = row
            .field("selected")
            .ok()
            .and_then(serde_json::Value::as_bool)
            .ok_or(format!("row {i} ({hash} {path}): missing selected"))?;
        let width = row
            .field("width")
            .ok()
            .and_then(serde_json::Value::as_u64)
            .ok_or(format!("row {i} ({hash} {path}): missing width"))?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!("row {i} ({hash} {path}): speedup {speedup} not positive"));
        }
        if selected {
            saw_selected = true;
            // Width-1 "selected" rows are the dispatch entry points on the
            // scalar-only portable tier: dispatch overhead on top of the
            // same scalar kernel, so tolerate measurement noise around 1.0.
            let floor = if width <= 1 { 0.9 } else { 1.0 };
            if speedup < floor {
                return Err(format!(
                    "row {i} ({hash} {path}): dispatcher-selected but {speedup:.2}x < scalar"
                ));
            }
            if hash == "SHA-1" {
                best_sha1 = best_sha1.max(speedup);
            }
        }
    }
    if !saw_selected {
        return Err("no dispatcher-selected rows".to_string());
    }
    let sha1_bar = match active.as_str() {
        "avx512" => 6.0,
        "avx2" => 4.0,
        _ => 1.0,
    };
    if best_sha1 < sha1_bar {
        return Err(format!(
            "best selected SHA-1 speedup {best_sha1:.2}x under the {sha1_bar:.1}x bar for {active}"
        ));
    }
    let adaptive = doc
        .field("adaptive")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing adaptive array")?;
    if adaptive.is_empty() {
        return Err("no adaptive rows".to_string());
    }
    let mut low_d_gain = 0.0f64;
    for (i, row) in adaptive.iter().enumerate() {
        let get = |f: &str| {
            row.field(f)
                .ok()
                .and_then(serde_json::Value::as_f64)
                .ok_or(format!("adaptive row {i}: missing field {f}"))
        };
        let d = get("d")?;
        let seed_gain = get("seed_gain")?;
        let time_gain = get("time_gain")?;
        // Wall time at low d is µs-scale and noisy on a loaded host; the
        // derived-seed count is deterministic. A row only fails if it is
        // both well under the wall-time floor and shows no seed savings.
        if time_gain < 0.80 && seed_gain < 1.05 {
            return Err(format!(
                "adaptive row {i} (d={d}): {:.0}% slower than fixed batch with no seed savings",
                (1.0 / time_gain - 1.0) * 100.0
            ));
        }
        if d <= 1.5 {
            low_d_gain = low_d_gain.max(seed_gain);
        }
    }
    if low_d_gain < 1.05 {
        return Err(format!(
            "adaptive policy saves only {low_d_gain:.2}x seeds at low d (need ≥1.05x)"
        ));
    }
    Ok(())
}

/// One row of the `repro service` offered-load sweep: the multi-client
/// AuthService driven at a fixed number of simultaneous clients.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServiceRow {
    /// Simultaneous clients offered.
    pub clients: u64,
    /// Accepted authentications.
    pub accepted: u64,
    /// Rejected (no seed within the bound).
    pub rejected: u64,
    /// Timed out mid-search.
    pub timed_out: u64,
    /// Shed by the dispatcher ([`Verdict::Overloaded`]).
    ///
    /// [`Verdict::Overloaded`]: rbc_core::protocol::Verdict::Overloaded
    pub overloaded: u64,
    /// Fraction of offered requests shed.
    pub reject_rate: f64,
    /// Median end-to-end latency (queue + search), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean queue wait, milliseconds.
    pub mean_queue_ms: f64,
    /// Highest simultaneous queue depth observed.
    pub peak_queue: u64,
    /// Per-backend utilization summary, `name=busy%` comma-joined.
    pub utilization: String,
}

impl ServiceRow {
    /// Builds a row from a load level and the service's statistics.
    pub fn from_stats(clients: u64, stats: &rbc_core::service::ServiceStats) -> Self {
        let d = &stats.dispatch;
        let offered = (d.completed + d.rejected).max(1);
        ServiceRow {
            clients,
            accepted: stats.accepted,
            rejected: stats.rejected,
            timed_out: stats.timed_out,
            overloaded: stats.overloaded,
            reject_rate: d.rejected as f64 / offered as f64,
            p50_ms: d.p50_latency.as_secs_f64() * 1e3,
            p95_ms: d.p95_latency.as_secs_f64() * 1e3,
            p99_ms: d.p99_latency.as_secs_f64() * 1e3,
            mean_queue_ms: d.mean_queue_wait.as_secs_f64() * 1e3,
            peak_queue: d.peak_queue_depth as u64,
            utilization: d
                .per_backend
                .iter()
                .map(|b| format!("{}={:.0}%", b.descriptor.name, b.utilization * 100.0))
                .collect::<Vec<_>>()
                .join(", "),
        }
    }
}

/// Renders the service sweep as a [`TextTable`].
pub fn service_table(rows: &[ServiceRow]) -> TextTable {
    let mut t = TextTable::new(
        "Service: multi-client AuthService under offered load (dispatcher pool, this host)",
        &[
            "clients",
            "ok",
            "rej",
            "t/o",
            "shed",
            "shed rate",
            "p50",
            "p95",
            "p99",
            "queue",
            "backend util",
        ],
    );
    for r in rows {
        t.row(&[
            r.clients.to_string(),
            r.accepted.to_string(),
            r.rejected.to_string(),
            r.timed_out.to_string(),
            r.overloaded.to_string(),
            format!("{:.0}%", r.reject_rate * 100.0),
            fmt_secs(r.p50_ms / 1e3),
            fmt_secs(r.p95_ms / 1e3),
            fmt_secs(r.p99_ms / 1e3),
            fmt_secs(r.mean_queue_ms / 1e3),
            r.utilization.clone(),
        ]);
    }
    t
}

/// Writes the service sweep to `path` as the `BENCH_service.json`
/// artifact: `{"bench": "service", "unit": "ms", "results": [...]}`.
pub fn write_service_json(path: &str, rows: &[ServiceRow]) -> std::io::Result<()> {
    let results = serde_json::to_value(&rows.to_vec())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let doc = serde_json::Value::Object(vec![
        ("bench".to_string(), serde_json::Value::Str("service".to_string())),
        ("unit".to_string(), serde_json::Value::Str("ms".to_string())),
        ("results".to_string(), results),
    ]);
    let text = serde_json::to_string(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
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

/// Writes the per-phase breakdown to `path` as the `BENCH_telemetry.json`
/// artifact: `{"bench": "telemetry", "unit": "ms", "results": [...]}`.
pub fn write_telemetry_json(path: &str, rows: &[TelemetryRow]) -> std::io::Result<()> {
    let results = serde_json::to_value(&rows.to_vec())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let doc = serde_json::Value::Object(vec![
        ("bench".to_string(), serde_json::Value::Str("telemetry".to_string())),
        ("unit".to_string(), serde_json::Value::Str("ms".to_string())),
        ("results".to_string(), results),
    ]);
    let text = serde_json::to_string(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

/// Validates a `BENCH_telemetry.json` document: parses, checks the
/// envelope, and requires every phase column on at least two distinct
/// substrates — the `repro telemetry --smoke` CI gate. On the `cpu` row
/// the CA's fixed per-request cost must stay below the keygen it guards:
/// `hello_ms + prepare_ms < keygen_ms`. Both sides come from the same
/// run, so host speed cancels out of the ratio.
pub fn validate_telemetry_json(text: &str) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let bench = doc.field("bench").ok().and_then(serde_json::Value::as_str);
    if bench != Some("telemetry") {
        return Err(format!("bench field is {bench:?}, expected \"telemetry\""));
    }
    let results = doc
        .field("results")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing results array")?;
    let mut substrates = Vec::new();
    for (i, row) in results.iter().enumerate() {
        let substrate = row
            .field("substrate")
            .ok()
            .and_then(serde_json::Value::as_str)
            .ok_or(format!("row {i}: missing substrate"))?;
        let auths = row
            .field("auths")
            .ok()
            .and_then(serde_json::Value::as_u64)
            .ok_or(format!("row {i}: missing auths"))?;
        if auths == 0 {
            return Err(format!("row {i} ({substrate}): zero authentications recorded"));
        }
        let mut phase_ms = [0.0; TelemetryRow::PHASES.len()];
        for ((field, metric), slot) in TelemetryRow::PHASES.into_iter().zip(&mut phase_ms) {
            let v = row.field(field).ok().and_then(serde_json::Value::as_f64);
            match v {
                Some(ms) if ms.is_finite() && ms >= 0.0 => *slot = ms,
                other => {
                    return Err(format!(
                        "row {i} ({substrate}): phase {field} (from {metric}) is {other:?}"
                    ))
                }
            }
        }
        // In `PHASES` order.
        let [hello, prepare, _, _, keygen, _] = phase_ms;
        if substrate == "cpu" && hello + prepare >= keygen {
            return Err(format!(
                "row {i} ({substrate}): hello_ms + prepare_ms = {:.3} ms is not below \
                 keygen_ms = {keygen:.3} ms",
                hello + prepare
            ));
        }
        if !substrates.contains(&substrate.to_string()) {
            substrates.push(substrate.to_string());
        }
    }
    if substrates.len() < 2 {
        return Err(format!("need at least 2 substrates, found {substrates:?}"));
    }
    Ok(())
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

/// Writes the triage report to `path` as the `BENCH_triage.json`
/// artifact: `{"bench": "triage", "unit": "ms", "frozen_trace": …,
/// "results": [...]}`. `frozen_trace` is the flight recorder's pinned
/// trace id (`0x…`), or `null` when no anomaly froze it.
pub fn write_triage_json(
    path: &str,
    rows: &[TriageRow],
    frozen_trace: Option<u64>,
) -> std::io::Result<()> {
    let results = serde_json::to_value(&rows.to_vec())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let frozen = match frozen_trace {
        Some(t) => serde_json::Value::Str(format!("{t:#x}")),
        None => serde_json::Value::Null,
    };
    let doc = serde_json::Value::Object(vec![
        ("bench".to_string(), serde_json::Value::Str("triage".to_string())),
        ("unit".to_string(), serde_json::Value::Str("ms".to_string())),
        ("frozen_trace".to_string(), frozen),
        ("results".to_string(), results),
    ]);
    let text = serde_json::to_string(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

/// Validates a `BENCH_triage.json` document — the `repro triage --smoke`
/// CI gate. Every row must *stitch*: a nonzero trace id, `hello` and
/// `auth_total` spans present, every nonzero parent pointer naming a
/// span of the same trace (no orphans), and the present phases' start
/// timestamps monotone in [`TriageRow::PHASE_ORDER`].
pub fn validate_triage_json(text: &str) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let bench = doc.field("bench").ok().and_then(serde_json::Value::as_str);
    if bench != Some("triage") {
        return Err(format!("bench field is {bench:?}, expected \"triage\""));
    }
    let results = doc
        .field("results")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing results array")?;
    if results.is_empty() {
        return Err("no triage rows".to_string());
    }
    for (i, row) in results.iter().enumerate() {
        let trace = row
            .field("trace")
            .ok()
            .and_then(serde_json::Value::as_str)
            .ok_or(format!("row {i}: missing trace"))?;
        let trace_id = trace
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(format!("row {i}: trace {trace:?} is not a 0x… id"))?;
        if trace_id == 0 {
            return Err(format!("row {i}: anonymous (zero) trace id"));
        }
        let spans = row
            .field("spans")
            .ok()
            .and_then(serde_json::Value::as_array)
            .ok_or(format!("row {i} ({trace}): missing spans"))?;
        let mut parsed = Vec::new();
        for (j, s) in spans.iter().enumerate() {
            let get = |f: &str| {
                s.field(f)
                    .ok()
                    .and_then(serde_json::Value::as_u64)
                    .ok_or(format!("row {i} ({trace}) span {j}: missing field {f}"))
            };
            let name = s
                .field("name")
                .ok()
                .and_then(serde_json::Value::as_str)
                .ok_or(format!("row {i} ({trace}) span {j}: missing name"))?
                .to_string();
            parsed.push((name, get("span_id")?, get("parent_span")?, get("start_ns")?));
        }
        for required in ["hello", "auth_total"] {
            if !parsed.iter().any(|(n, ..)| n == required) {
                return Err(format!(
                    "row {i} ({trace}): span {required} missing — trace does not stitch"
                ));
            }
        }
        for (name, _, parent, _) in &parsed {
            if *parent != 0 && !parsed.iter().any(|(_, id, ..)| id == parent) {
                return Err(format!(
                    "row {i} ({trace}): span {name} is an orphan (parent {parent:#x} not in tree)"
                ));
            }
        }
        let mut last = ("", 0u64);
        for phase in TriageRow::PHASE_ORDER {
            if let Some((_, _, _, start)) = parsed.iter().find(|(n, ..)| n == phase) {
                if *start < last.1 {
                    return Err(format!(
                        "row {i} ({trace}): phase {phase} starts at {start} ns, before {} at {} ns",
                        last.0, last.1
                    ));
                }
                last = (phase, *start);
            }
        }
    }
    Ok(())
}

/// One scenario row of the `repro chaos` resilience report: a batch of
/// authentications driven through a [`SupervisedPool`] under a
/// deterministic [`FaultPlan`], with the recovery bookkeeping read back
/// from the pool's `rbc_resilience_*` metrics.
///
/// [`SupervisedPool`]: rbc_core::pool::SupervisedPool
/// [`FaultPlan`]: rbc_core::chaos::FaultPlan
#[derive(Clone, Debug, serde::Serialize)]
pub struct ChaosRow {
    /// Scenario label (`fault-free`, `single-crash`, ...).
    pub scenario: String,
    /// Authentications attempted.
    pub auths: u64,
    /// Authentications that returned the correct verdict within budget.
    pub correct: u64,
    /// `correct / auths`.
    pub recovery_rate: f64,
    /// Shards re-dispatched after a crash, stall, or rejected report.
    pub redispatches: u64,
    /// Faults the chaos harness injected.
    pub faults: u64,
    /// Seeds swept by attempts that were later superseded.
    pub wasted_seeds: u64,
    /// Circuit-breaker trips observed.
    pub breaker_opens: u64,
    /// Mean end-to-end search latency, milliseconds.
    pub mean_ms: f64,
    /// 95th-percentile search latency, milliseconds.
    pub p95_ms: f64,
    /// Mean latency added over the fault-free baseline, milliseconds
    /// (0 for the baseline row itself).
    pub added_latency_ms: f64,
}

/// Renders the chaos scenarios as a [`TextTable`].
pub fn chaos_table(rows: &[ChaosRow]) -> TextTable {
    let mut t = TextTable::new(
        "Chaos: recovery under injected faults (supervised pool, this host)",
        &[
            "scenario", "auths", "correct", "recovery", "redisp", "faults", "wasted", "trips",
            "mean", "p95", "added",
        ],
    );
    for r in rows {
        t.row(&[
            r.scenario.clone(),
            r.auths.to_string(),
            r.correct.to_string(),
            format!("{:.1}%", r.recovery_rate * 100.0),
            r.redispatches.to_string(),
            r.faults.to_string(),
            r.wasted_seeds.to_string(),
            r.breaker_opens.to_string(),
            fmt_secs(r.mean_ms / 1e3),
            fmt_secs(r.p95_ms / 1e3),
            fmt_secs(r.added_latency_ms / 1e3),
        ]);
    }
    t
}

/// Writes the chaos scenarios to `path` as the `BENCH_chaos.json`
/// artifact: `{"bench": "chaos", "unit": "ms", "results": [...]}`.
pub fn write_chaos_json(path: &str, rows: &[ChaosRow]) -> std::io::Result<()> {
    let results = serde_json::to_value(&rows.to_vec())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let doc = serde_json::Value::Object(vec![
        ("bench".to_string(), serde_json::Value::Str("chaos".to_string())),
        ("unit".to_string(), serde_json::Value::Str("ms".to_string())),
        ("results".to_string(), results),
    ]);
    let text = serde_json::to_string(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

/// Validates a `BENCH_chaos.json` document — the `repro chaos --smoke`
/// CI gate. Requires the `chaos` envelope, at least two scenarios, a
/// fault-free baseline (zero injected faults, 100% recovery), and every
/// faulted scenario recovering at least 95% of its authentications —
/// the issue's headline acceptance bar.
pub fn validate_chaos_json(text: &str) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let bench = doc.field("bench").ok().and_then(serde_json::Value::as_str);
    if bench != Some("chaos") {
        return Err(format!("bench field is {bench:?}, expected \"chaos\""));
    }
    let results = doc
        .field("results")
        .ok()
        .and_then(serde_json::Value::as_array)
        .ok_or("missing results array")?;
    if results.len() < 2 {
        return Err(format!(
            "need a baseline and at least one fault scenario, got {} rows",
            results.len()
        ));
    }
    let mut saw_baseline = false;
    let mut saw_faulted = false;
    for (i, row) in results.iter().enumerate() {
        let scenario = row
            .field("scenario")
            .ok()
            .and_then(serde_json::Value::as_str)
            .ok_or(format!("row {i}: missing scenario"))?;
        let get_u64 = |f: &str| {
            row.field(f)
                .ok()
                .and_then(serde_json::Value::as_u64)
                .ok_or(format!("row {i} ({scenario}): missing field {f}"))
        };
        let auths = get_u64("auths")?;
        let correct = get_u64("correct")?;
        let faults = get_u64("faults")?;
        let rate = row
            .field("recovery_rate")
            .ok()
            .and_then(serde_json::Value::as_f64)
            .ok_or(format!("row {i} ({scenario}): missing recovery_rate"))?;
        if auths == 0 {
            return Err(format!("row {i} ({scenario}): zero authentications"));
        }
        if correct > auths || !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "row {i} ({scenario}): inconsistent tally ({correct}/{auths}, rate {rate})"
            ));
        }
        if faults == 0 {
            saw_baseline = true;
            if correct != auths {
                return Err(format!(
                    "row {i} ({scenario}): fault-free baseline lost {} auths",
                    auths - correct
                ));
            }
        } else {
            saw_faulted = true;
            if rate < 0.95 {
                return Err(format!(
                    "row {i} ({scenario}): recovery rate {:.1}% below the 95% bar",
                    rate * 100.0
                ));
            }
        }
    }
    if !saw_baseline {
        return Err("no fault-free baseline scenario".to_string());
    }
    if !saw_faulted {
        return Err("no faulted scenario".to_string());
    }
    Ok(())
}

/// Measures mask-generation-only rate (masks/second, single thread) for a
/// seed iterator at distance `d` over `count` masks — the Table 4 raw
/// ingredient. Masks come out in 1024-mask refills through
/// [`MaskStream::next_batch`], the way the search loop consumes them.
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

    #[test]
    fn telemetry_json_round_trips_and_validates() {
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
        let rows = vec![row("cpu"), row("gpu-sim")];
        let path = std::env::temp_dir().join("rbc_bench_telemetry_test.json");
        let path = path.to_str().expect("utf8 temp path");
        write_telemetry_json(path, &rows).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        validate_telemetry_json(&text).expect("round-trip validates");

        // Degenerate documents are rejected with a reason.
        assert!(validate_telemetry_json("not json").is_err());
        assert!(validate_telemetry_json("{\"bench\":\"other\"}").is_err());
        let one = serde_json::to_string(&serde_json::Value::Object(vec![
            ("bench".into(), serde_json::Value::Str("telemetry".into())),
            ("unit".into(), serde_json::Value::Str("ms".into())),
            ("results".into(), serde_json::to_value(&vec![row("cpu")]).expect("value")),
        ]))
        .expect("string");
        let err = validate_telemetry_json(&one).expect_err("one substrate is not enough");
        assert!(err.contains("2 substrates"), "{err}");

        // The CA's fixed cost must stay below keygen on the cpu row.
        let slow = TelemetryRow { hello_ms: 0.9, prepare_ms: 0.9, ..row("cpu") };
        let doc = serde_json::to_string(&serde_json::Value::Object(vec![
            ("bench".into(), serde_json::Value::Str("telemetry".into())),
            ("unit".into(), serde_json::Value::Str("ms".into())),
            ("results".into(), serde_json::to_value(&vec![slow, row("gpu-sim")]).expect("value")),
        ]))
        .expect("string");
        let err = validate_telemetry_json(&doc).expect_err("fixed cost above keygen");
        assert!(err.contains("keygen_ms"), "{err}");
    }

    #[test]
    fn triage_rows_stitch_write_and_validate() {
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

        let path = std::env::temp_dir().join("rbc_bench_triage_test.json");
        let path = path.to_str().expect("utf8 temp path");
        write_triage_json(path, std::slice::from_ref(&row), Some(0x7f3a)).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        assert!(text.contains("\"frozen_trace\":\"0x7f3a\""), "{text}");
        validate_triage_json(&text).expect("round-trip validates");

        // An orphan parent pointer fails the stitch check.
        let mut orphan = row.clone();
        orphan.spans[3].parent_span = 0xdead;
        let path2 = std::env::temp_dir().join("rbc_bench_triage_orphan.json");
        let path2 = path2.to_str().expect("utf8 temp path");
        write_triage_json(path2, &[orphan], None).expect("write");
        let text = std::fs::read_to_string(path2).expect("read back");
        std::fs::remove_file(path2).ok();
        let err = validate_triage_json(&text).expect_err("orphans must fail");
        assert!(err.contains("orphan"), "{err}");

        // Out-of-order phase starts fail the monotonicity check.
        let mut shuffled = row.clone();
        let (a, b) = (shuffled.spans[3].start_ns, shuffled.spans[4].start_ns);
        shuffled.spans[3].start_ns = b;
        shuffled.spans[4].start_ns = a;
        write_triage_json(path2, &[shuffled], None).expect("write");
        let text = std::fs::read_to_string(path2).expect("read back");
        std::fs::remove_file(path2).ok();
        let err = validate_triage_json(&text).expect_err("non-monotone starts must fail");
        assert!(err.contains("before"), "{err}");

        // A trace with no hello never stitched across the wire.
        let headless = TriageRow::from_spans(0x7f3a, "timed_out", &spans[1..]);
        write_triage_json(path2, &[headless], None).expect("write");
        let text = std::fs::read_to_string(path2).expect("read back");
        std::fs::remove_file(path2).ok();
        assert!(validate_triage_json(&text).is_err());
    }

    #[test]
    fn chaos_json_round_trips_and_validates() {
        let row = |scenario: &str, correct: u64, faults: u64| ChaosRow {
            scenario: scenario.into(),
            auths: 20,
            correct,
            recovery_rate: correct as f64 / 20.0,
            redispatches: u64::from(faults > 0),
            faults,
            wasted_seeds: faults * 100,
            breaker_opens: 0,
            mean_ms: 3.0,
            p95_ms: 6.0,
            added_latency_ms: if faults > 0 { 0.5 } else { 0.0 },
        };
        let rows = vec![row("fault-free", 20, 0), row("single-crash", 20, 1)];
        let path = std::env::temp_dir().join("rbc_bench_chaos_test.json");
        let path = path.to_str().expect("utf8 temp path");
        write_chaos_json(path, &rows).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        validate_chaos_json(&text).expect("round-trip validates");

        // Degenerate documents are rejected with a reason.
        assert!(validate_chaos_json("not json").is_err());
        assert!(validate_chaos_json("{\"bench\":\"other\"}").is_err());

        let wrap = |rows: &[ChaosRow]| {
            serde_json::to_string(&serde_json::Value::Object(vec![
                ("bench".into(), serde_json::Value::Str("chaos".into())),
                ("unit".into(), serde_json::Value::Str("ms".into())),
                ("results".into(), serde_json::to_value(&rows.to_vec()).expect("value")),
            ]))
            .expect("string")
        };
        // A lossy fault scenario under the 95% bar must fail the gate.
        let weak = wrap(&[row("fault-free", 20, 0), row("single-crash", 18, 1)]);
        let err = validate_chaos_json(&weak).expect_err("90% recovery is under the bar");
        assert!(err.contains("95%"), "{err}");
        // A lossy "baseline" is not a baseline.
        let bad_base = wrap(&[row("fault-free", 19, 0), row("single-crash", 20, 1)]);
        assert!(validate_chaos_json(&bad_base).is_err());
        // Missing either side of the comparison fails.
        let no_fault = wrap(&[row("a", 20, 0), row("b", 20, 0)]);
        assert!(validate_chaos_json(&no_fault).is_err());
        let no_base = wrap(&[row("a", 20, 1), row("b", 20, 1)]);
        assert!(validate_chaos_json(&no_base).is_err());
    }

    #[test]
    fn hash_lanes_json_round_trips_and_validates() {
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
            lane("SHA-3", "x2", "portable", 2, false, 0.45),
            lane("SHA-3", "x8", "avx512", 8, true, 3.5),
        ];
        let ad = vec![adaptive(1, 1.4, 1.1), adaptive(2, 1.0, 1.0)];
        let path = std::env::temp_dir().join("rbc_bench_hash_lanes_test.json");
        let path = path.to_str().expect("utf8 temp path");
        write_hash_lane_json(path, &rows, &ad).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        // The artifact always records the real host's dispatch metadata.
        assert!(text.contains("\"kernel_plan\""), "{text}");
        assert!(text.contains("\"detected\""), "{text}");
        // Validation may hinge on this host's active tier for the SHA-1
        // bar; the 8.0x selected row clears every tier's bar.
        validate_hash_lanes_json(&text).expect("round-trip validates");

        // Degenerate documents are rejected with a reason.
        assert!(validate_hash_lanes_json("not json").is_err());
        assert!(validate_hash_lanes_json("{\"bench\":\"other\"}").is_err());

        // A dispatcher-selected width slower than scalar fails the gate.
        let mut slow = rows.clone();
        slow[4].speedup = 0.9;
        write_hash_lane_json(path, &slow, &ad).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        let err = validate_hash_lanes_json(&text).expect_err("selected < scalar must fail");
        assert!(err.contains("scalar"), "{err}");

        // No adaptive win at low d fails the gate.
        let flat = vec![adaptive(1, 1.0, 1.0)];
        write_hash_lane_json(path, &rows, &flat).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        let err = validate_hash_lanes_json(&text).expect_err("no low-d gain must fail");
        assert!(err.contains("low d"), "{err}");

        // Adaptive losing wall time with no seed savings fails the gate;
        // a noisy wall number alongside a real (deterministic) seed win
        // does not.
        let slowed = vec![adaptive(1, 1.4, 1.1), adaptive(2, 1.0, 0.5)];
        write_hash_lane_json(path, &rows, &slowed).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        let err = validate_hash_lanes_json(&text).expect_err("slower adaptive must fail");
        assert!(err.contains("slower"), "{err}");
        let noisy = vec![adaptive(1, 1.4, 0.7), adaptive(2, 1.0, 0.9)];
        write_hash_lane_json(path, &rows, &noisy).expect("write");
        let text = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).ok();
        validate_hash_lanes_json(&text).expect("noisy-but-winning row passes");
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
