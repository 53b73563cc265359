//! SIMD-lane hashing vs the scalar fixed-32-byte paths (§3.2.2
//! extension): explicit `std::arch` kernels (AVX2 / AVX-512), grouped
//! per ISA tier, plus the runtime dispatcher's own batch entry points.
//! Prints per-path criterion timings, a scalar-vs-lanes throughput
//! table, and writes `BENCH_hash_lanes.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rbc_bench::{
    adaptive_table, hash_lanes_artifact, lane_table, measure_adaptive_batching,
    measure_hash_lane_rates,
};
use rbc_bits::U256;
use rbc_hash::{dispatch, sha1::sha1_fixed32, sha3::sha3_256_fixed32};

fn seeds(n: usize) -> Vec<U256> {
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n).map(|_| U256::from_limbs([next(), next(), next(), next()])).collect()
}

fn bench_sha1_lanes(c: &mut Criterion) {
    let s = seeds(1024);
    let mut g = c.benchmark_group("sha1_fixed32_lanes");
    g.throughput(Throughput::Elements(s.len() as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| {
            for seed in &s {
                black_box(sha1_fixed32(black_box(seed)));
            }
        })
    });
    #[cfg(target_arch = "x86_64")]
    {
        use rbc_hash::{lanes_avx2, lanes_avx512};
        if lanes_avx2::available() {
            g.bench_function("avx2_x8", |b| {
                b.iter(|| {
                    for c in s.chunks_exact(8) {
                        black_box(lanes_avx2::sha1_fixed32_x8(c.try_into().expect("chunk of 8")));
                    }
                })
            });
        }
        if lanes_avx512::available() {
            g.bench_function("avx512_x16", |b| {
                b.iter(|| {
                    for c in s.chunks_exact(16) {
                        black_box(lanes_avx512::sha1_fixed32_x16(
                            c.try_into().expect("chunk of 16"),
                        ));
                    }
                })
            });
        }
    }
    g.bench_function("dispatch_prefix64", |b| {
        let mut out = Vec::with_capacity(s.len());
        b.iter(|| {
            out.clear();
            dispatch::sha1_prefix64_batch(&s, &mut out);
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_sha3_lanes(c: &mut Criterion) {
    let s = seeds(1024);
    let mut g = c.benchmark_group("sha3_256_fixed32_lanes");
    g.throughput(Throughput::Elements(s.len() as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| {
            for seed in &s {
                black_box(sha3_256_fixed32(black_box(seed)));
            }
        })
    });
    #[cfg(target_arch = "x86_64")]
    {
        use rbc_hash::{lanes_avx2, lanes_avx512};
        if lanes_avx2::available() {
            g.bench_function("avx2_x4", |b| {
                b.iter(|| {
                    for c in s.chunks_exact(4) {
                        black_box(lanes_avx2::sha3_256_fixed32_x4(
                            c.try_into().expect("chunk of 4"),
                        ));
                    }
                })
            });
        }
        if lanes_avx512::available() {
            g.bench_function("avx512_x8", |b| {
                b.iter(|| {
                    for c in s.chunks_exact(8) {
                        black_box(lanes_avx512::sha3_256_fixed32_x8(
                            c.try_into().expect("chunk of 8"),
                        ));
                    }
                })
            });
        }
    }
    g.bench_function("dispatch_prefix64", |b| {
        let mut out = Vec::with_capacity(s.len());
        b.iter(|| {
            out.clear();
            dispatch::sha3_256_prefix64_batch(&s, &mut out);
            black_box(&out);
        })
    });
    g.finish();
}

/// After the criterion groups, take one consolidated measurement and emit
/// the machine-readable artifact the CI job archives.
fn emit_lane_report(_c: &mut Criterion) {
    println!();
    println!("cpu features: {}", dispatch::cpu_features().join(" "));
    println!(
        "simd dispatch: detected={} active={}",
        dispatch::detected_level().name(),
        dispatch::active_level().name()
    );
    let rows = measure_hash_lane_rates(2_000_000);
    lane_table(&rows).print();
    let adaptive = measure_adaptive_batching(400);
    adaptive_table(&adaptive).print();
    match hash_lanes_artifact(&rows, &adaptive).write() {
        Ok(()) => println!("wrote BENCH_hash_lanes.json"),
        Err(e) => eprintln!("could not write BENCH_hash_lanes.json: {e}"),
    }
}

criterion_group!(benches, bench_sha1_lanes, bench_sha3_lanes, emit_lane_report);
criterion_main!(benches);
