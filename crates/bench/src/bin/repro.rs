//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|fig3|table4|table5|table6|fig4|table7|ablations|hash-lanes|cpu-scaling|
//!        future|security|extensions|telemetry|triage|sim|monitor|attrib|adversarial|regress|
//!        verify]
//!       [--quick] [--trials N] [--full-cpu] [--smoke] [--update]
//! ```
//!
//! `hash-lanes`, `telemetry`, `triage`, `sim`, `monitor`, `attrib` and
//! `adversarial` each write one `BENCH_<name>.json` artifact: a list of
//! named metrics with their `--smoke` bounds and baseline policies
//! (DESIGN.md §11). With `--smoke` the command reads the file back,
//! checks every bound and exits nonzero on a failure, naming the
//! metric — the CI gates. `regress` compares the artifacts
//! present against the committed `BASELINE.json` with per-metric noise
//! tolerances and exits nonzero on a regression (`--update` rewrites
//! the baseline). `verify` checks cross-backend agreement end to end.
//!
//! Numbers labelled **paper** are the published values; **model** are our
//! calibrated device models (the GPU/APU never existed on this machine);
//! **measured** are real runs on this host. EXPERIMENTS.md archives a full
//! run.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbc_accel::{
    platform_a, platform_b, ApuHash, ApuSimBackend, ApuTimingModel, CpuHash, CpuModel,
    GpuDeviceModel, GpuHash, GpuKernelConfig, GpuSimBackend, MeasuredRate, PowerModel,
};
use rbc_bench::{
    adaptive_table, fmt_count, fmt_rate, fmt_secs, hash_lanes_artifact, lane_table,
    measure_adaptive_batching, measure_derive_rate, measure_derive_rate_batched,
    measure_hash_lane_rates, measure_iter_rate, Artifact, Replay, TextTable,
};
use rbc_bits::U256;
use rbc_comb::{average_seeds, exhaustive_seeds, seeds_at_distance, SeedIterKind};
use rbc_core::backend::{ClusterBackend, CpuBackend, SearchBackend, SearchJob};
use rbc_core::batch::BatchPolicy;
use rbc_core::ca::{CaConfig, CertificateAuthority};
use rbc_core::derive::{CipherDerive, HashDerive, PqcDerive};
use rbc_core::dispatch::{Dispatcher, DispatcherConfig};
use rbc_core::engine::{EngineConfig, Outcome, SearchEngine, SearchMode};
use rbc_core::protocol::{ChallengeMsg, Client, DigestMsg, HelloMsg, Verdict, VerdictMsg};
use rbc_core::service::AuthService;
use rbc_core::trials::run_average_case_trials;
use rbc_core::ClusterConfig;
use rbc_gpu_sim::Heatmap;
use rbc_hash::{HashAlgo, SeedHash, Sha1Fixed, Sha1Generic, Sha3Fixed, Sha3Generic};
use rbc_net::{lossy_duplex, LatencyModel, NetTelemetry, RpcClient, RpcServer};
use rbc_pqc::LightSaber;
use rbc_puf::ModelPuf;

struct Opts {
    quick: bool,
    trials: usize,
    full_cpu: bool,
    smoke: bool,
    update: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmds: Vec<String> = Vec::new();
    let mut opts = Opts { quick: false, trials: 50, full_cpu: false, smoke: false, update: false };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                opts.quick = true;
                opts.trials = 10;
            }
            "--full-cpu" => opts.full_cpu = true,
            "--smoke" => opts.smoke = true,
            "--update" => opts.update = true,
            "--trials" => {
                opts.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--trials needs a number"));
            }
            c => cmds.push(c.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }

    for cmd in &cmds {
        match cmd.as_str() {
            "all" => {
                table1();
                fig3();
                table4(&opts);
                table5(&opts);
                table6();
                fig4();
                table7(&opts);
                ablations(&opts);
                hash_lanes(&opts);
                cpu_scaling();
                future();
                security();
                extensions(&opts);
                telemetry(&opts);
                triage(&opts);
                sim(&opts);
                monitor(&opts);
                attrib(&opts);
                adversarial(&opts);
                verify(&opts);
                regress(&opts);
            }
            "table1" => table1(),
            "fig3" => fig3(),
            "table4" => table4(&opts),
            "table5" => table5(&opts),
            "table6" => table6(),
            "fig4" => fig4(),
            "table7" => table7(&opts),
            "ablations" => ablations(&opts),
            "hash-lanes" => hash_lanes(&opts),
            "cpu-scaling" => cpu_scaling(),
            "future" => future(),
            "security" => security(),
            "extensions" => extensions(&opts),
            "telemetry" => telemetry(&opts),
            "triage" => triage(&opts),
            "sim" => sim(&opts),
            "monitor" => monitor(&opts),
            "attrib" => attrib(&opts),
            "adversarial" => adversarial(&opts),
            "regress" => regress(&opts),
            "verify" => verify(&opts),
            other => usage(&format!("unknown command {other:?}")),
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro [all|table1|fig3|table4|table5|table6|fig4|table7|ablations|hash-lanes|\
         cpu-scaling|future|security|extensions|telemetry|triage|sim|monitor|attrib|adversarial|\
         regress|verify] [--quick] [--trials N] [--full-cpu] [--smoke] [--update]"
    );
    std::process::exit(2)
}

/// Table 1: seeds searched per Hamming distance (Equations 1 and 3).
fn table1() {
    let mut t = TextTable::new(
        "Table 1: seeds searched up to Hamming distance d (exact; paper rounds)",
        &["d", "Exhaustive u(d)", "Average a(d)", "paper u(d)", "paper a(d)"],
    );
    let paper_u = ["256", "3.3e4", "2.8e6", "1.8e8", "9.0e9"];
    let paper_a = ["129", "1.7e4", "1.4e6", "9.0e7", "4.6e9"];
    for d in 1..=5u32 {
        t.row(&[
            d.to_string(),
            fmt_count(exhaustive_seeds(d)),
            fmt_count(average_seeds(d)),
            paper_u[d as usize - 1].to_string(),
            paper_a[d as usize - 1].to_string(),
        ]);
    }
    t.print();
}

/// Figure 3: the (n, b) heatmap on the GPU model, SHA-3 exhaustive d = 5.
fn fig3() {
    let dev = GpuDeviceModel::a100();
    let (ns, bs) = Heatmap::paper_axes();
    let h = Heatmap::sweep(&dev, &GpuKernelConfig::paper_best(GpuHash::Sha3), 5, &ns, &bs);

    let mut headers: Vec<String> = vec!["n \\ b".into()];
    headers.extend(bs.iter().map(|b| b.to_string()));
    headers.push("threads@d5".into());
    let mut t = TextTable::new(
        "Figure 3: modelled search-only time (s), SHA-3 exhaustive d=5 (paper min: n=100, b=128 at 4.67 s)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for &n in &ns {
        let mut row = vec![n.to_string()];
        for &b in &bs {
            row.push(format!("{:.2}", h.at(n, b).expect("cell").seconds));
        }
        row.push(fmt_count(h.at(n, bs[0]).expect("cell").threads));
        t.row(&row);
    }
    t.print();
    let best = h.best();
    println!("model minimum: n={}, b={} at {:.2} s", best.n, best.b, best.seconds);
}

/// Table 4: seed-iterator comparison.
fn table4(opts: &Opts) {
    let dev = GpuDeviceModel::a100();
    let profile: Vec<u128> = (0..=5).map(seeds_at_distance).collect();
    let paper = [("Alg. 382 (Chase)", 4.67), ("Alg. 515", 7.53), ("Gosper (prior work)", 6.04)];

    let mask_count = if opts.quick { 100_000 } else { 1_000_000 };
    let mut t = TextTable::new(
        "Table 4: seed iterators, SHA-3 exhaustive d=5 on one A100 (model) + measured mask rates (this host, 1 thread)",
        &["Iterator", "paper (s)", "model (s)", "measured masks/s"],
    );
    for (kind, (name, paper_s)) in
        [SeedIterKind::Chase, SeedIterKind::Alg515, SeedIterKind::Gosper].iter().zip(paper.iter())
    {
        let cfg = GpuKernelConfig { iter: *kind, ..GpuKernelConfig::paper_best(GpuHash::Sha3) };
        let model_s = dev.search_time(&cfg, &profile);
        let rate = measure_iter_rate(*kind, 3, mask_count);
        t.row(&[
            name.to_string(),
            format!("{paper_s:.2}"),
            format!("{model_s:.2}"),
            fmt_rate(rate),
        ]);
    }
    t.print();
}

/// Table 5: end-to-end response times across GPU / APU / CPU.
fn table5(opts: &Opts) {
    let comm = LatencyModel::paper_wan().standard_auth_comm().total().as_secs_f64();
    let gpu = GpuDeviceModel::a100();
    let apu = ApuTimingModel::gemini();
    let cpu = CpuModel::platform_a();

    let ex: Vec<u128> = (0..=5).map(seeds_at_distance).collect();
    let avg = {
        let mut p = ex.clone();
        *p.last_mut().expect("d5") /= 2;
        p
    };
    let sum = |p: &[u128]| p.iter().sum::<u128>();

    let paper = [
        // (algo, search, gpu, apu, cpu)
        ("SHA-1", "Exhaustive", 1.56, 1.62, 12.09),
        ("SHA-1", "Average", 0.85, 0.83, 6.04),
        ("SHA-3", "Exhaustive", 4.67, 13.95, 60.68),
        ("SHA-3", "Average", 2.42, 7.05, 30.52),
    ];

    let mut t = TextTable::new(
        &format!(
            "Table 5: end-to-end response time (s), d=5, comm={comm:.2}s (GPU/APU/CPU models calibrated to PlatformA/B)"
        ),
        &["Algorithm", "Search", "Comm", "Search(model)", "Total(model)", "paper total"],
    );
    for (algo, search, p_gpu, p_apu, p_cpu) in paper {
        let profile = if search == "Exhaustive" { &ex } else { &avg };
        let (g, a, c) = match algo {
            "SHA-1" => (
                gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha1), profile),
                apu.search_seconds(ApuHash::Sha1, profile),
                cpu.search_seconds(CpuHash::Sha1, sum(profile)),
            ),
            _ => (
                gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha3), profile),
                apu.search_seconds(ApuHash::Sha3, profile),
                cpu.search_seconds(CpuHash::Sha3, sum(profile)),
            ),
        };
        for (dev_name, model_s, paper_s) in
            [("GPU", g, p_gpu), ("APU", a, p_apu), ("CPU", c, p_cpu)]
        {
            t.row(&[
                format!("{algo} {dev_name}"),
                search.to_string(),
                format!("{comm:.2}"),
                format!("{model_s:.2}"),
                format!("{:.2}", comm + model_s),
                format!("{:.2}", 0.90 + paper_s),
            ]);
        }
    }
    t.print();

    // Local ground truth: measured single-thread rates on this host,
    // extrapolated to PlatformA's 64 cores with §4.3's efficiency curve.
    // The batched rate — Chase refill + fused prefix prescreen, the
    // engine's deployed hot loop — drives the extrapolation; the scalar rate is
    // shown for the lane-speedup context.
    let n = if opts.quick { 50_000 } else { 400_000 };
    let sha1 = MeasuredRate {
        scalar: measure_derive_rate(&HashDerive(Sha1Fixed), n),
        batched: measure_derive_rate_batched(&HashDerive(Sha1Fixed), n, 64),
    };
    let sha3 = MeasuredRate {
        scalar: measure_derive_rate(&HashDerive(Sha3Fixed), n),
        batched: measure_derive_rate_batched(&HashDerive(Sha3Fixed), n, 64),
    };
    let local = CpuModel::from_measured("this host → 64 cores", 64, sha1, sha3);
    println!("(batched rates measured under the `{}` SIMD dispatch tier)", local.kernel);
    let mut t2 = TextTable::new(
        "Table 5 appendix: CPU search times from THIS host's measured batched rates (1 thread, extrapolated to 64 cores)",
        &["Hash", "scalar 1T", "batched 1T", "lanes", "extrap. 64T exhaustive (s)", "PlatformA paper (s)"],
    );
    t2.row(&[
        "SHA-1".into(),
        fmt_rate(sha1.scalar),
        fmt_rate(sha1.batched),
        format!("{:.2}x", sha1.lane_speedup()),
        format!("{:.2}", local.search_seconds(CpuHash::Sha1, exhaustive_seeds(5))),
        "12.09".into(),
    ]);
    t2.row(&[
        "SHA-3".into(),
        fmt_rate(sha3.scalar),
        fmt_rate(sha3.batched),
        format!("{:.2}x", sha3.lane_speedup()),
        format!("{:.2}", local.search_seconds(CpuHash::Sha3, exhaustive_seeds(5))),
        "60.68".into(),
    ]);
    t2.print();

    if opts.full_cpu {
        full_cpu_run();
    }
}

/// Optional genuine full-scale CPU search (hours on small machines).
fn full_cpu_run() {
    println!("\n== full CPU run: genuine exhaustive d=4 search with SHA-3 ==");
    let base = U256::from_limbs([11, 22, 33, 44]);
    let mut rng = StdRng::seed_from_u64(99);
    let client = base.random_at_distance(4, &mut rng);
    let backend =
        CpuBackend::new(EngineConfig { iter: SeedIterKind::Gosper, ..Default::default() });
    let job = SearchJob::new(HashAlgo::Sha3_256, HashAlgo::Sha3_256.digest_seed(&client), base, 4)
        .with_mode(SearchMode::Exhaustive);
    let report = backend.submit(&job);
    println!(
        "outcome {:?}; {} seeds in {}; throughput {}",
        report.outcome,
        report.seeds_derived,
        fmt_secs(report.elapsed.as_secs_f64()),
        fmt_rate(report.seeds_derived as f64 / report.elapsed.as_secs_f64()),
    );
}

/// Table 6: energy footprints.
fn table6() {
    let gpu = GpuDeviceModel::a100();
    let apu = ApuTimingModel::gemini();
    let profile: Vec<u128> = (0..=5).map(seeds_at_distance).collect();

    let rows = [
        (
            "Salted-GPU",
            "1",
            PowerModel::a100_sha1(),
            gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha1), &profile),
            317.20,
        ),
        (
            "Salted-APU",
            "1",
            PowerModel::apu_sha1(),
            apu.search_seconds(ApuHash::Sha1, &profile),
            124.43,
        ),
        (
            "Salted-GPU",
            "3",
            PowerModel::a100_sha3(),
            gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha3), &profile),
            946.55,
        ),
        (
            "Salted-APU",
            "3",
            PowerModel::apu_sha3(),
            apu.search_seconds(ApuHash::Sha3, &profile),
            974.06,
        ),
    ];
    let mut t = TextTable::new(
        "Table 6: search-only energy, exhaustive d=5",
        &["Algorithm", "SHA", "Joules(model)", "paper J", "Max W", "Idle W"],
    );
    for (name, sha, power, secs, paper_j) in rows {
        t.row(&[
            name.to_string(),
            sha.to_string(),
            format!("{:.2}", power.energy_joules(secs)),
            format!("{paper_j:.2}"),
            format!("{:.2}", power.max_w),
            format!("{:.2}", power.idle_w),
        ]);
    }
    t.print();
}

/// Figure 4: multi-GPU scalability.
fn fig4() {
    let dev = GpuDeviceModel::a100();
    let mut t = TextTable::new(
        "Figure 4: multi-GPU speedup on up to 3xA100 (model; paper: SHA-3 exh. 2.87x, early-exit 2.66x at G=3)",
        &["Series", "G=1", "G=2", "G=3"],
    );
    for (name, hash, seeds, early) in [
        ("SHA-1 exhaustive", GpuHash::Sha1, exhaustive_seeds(5), false),
        ("SHA-1 early exit", GpuHash::Sha1, average_seeds(5), true),
        ("SHA-3 exhaustive", GpuHash::Sha3, exhaustive_seeds(5), false),
        ("SHA-3 early exit", GpuHash::Sha3, average_seeds(5), true),
    ] {
        let cfg = GpuKernelConfig::paper_best(hash);
        let t1 = dev.multi_gpu_time(&cfg, seeds, 1, early);
        let row: Vec<String> = std::iter::once(name.to_string())
            .chain(
                (1..=3u32)
                    .map(|g| format!("{:.2}x", t1 / dev.multi_gpu_time(&cfg, seeds, g, early))),
            )
            .collect();
        t.row(&row);
    }
    t.print();
}

/// Table 7: comparison with the algorithm-aware state of the art.
fn table7(opts: &Opts) {
    // Measured per-candidate derivation rates on this host (1 thread).
    let n_fast = if opts.quick { 50_000 } else { 300_000 };
    let n_slow = if opts.quick { 60 } else { 400 };
    let r_sha3 = measure_derive_rate(&HashDerive(Sha3Fixed), n_fast);
    let r_aes = measure_derive_rate(&CipherDerive(rbc_ciphers::AesResponse), n_fast / 4);
    let r_saber = measure_derive_rate(&PqcDerive(rbc_pqc::LightSaber), n_slow);
    let r_dilithium = measure_derive_rate(&PqcDerive(rbc_pqc::Dilithium3), n_slow);

    // Scale the calibrated platform SHA-3 rates by the measured cost
    // ratios to price the algorithm-aware searches on PlatformA.
    let cpu = CpuModel::platform_a();
    let gpu = GpuDeviceModel::a100();
    let profile5: Vec<u128> = (0..=5).map(seeds_at_distance).collect();
    let gpu_sha3 = gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha3), &profile5);
    let apu_sha3 = ApuTimingModel::gemini().search_seconds(ApuHash::Sha3, &profile5);

    let project = |ratio: f64, d: u32, base_d5: f64| -> f64 {
        base_d5 * (exhaustive_seeds(d) as f64 / exhaustive_seeds(5) as f64) * ratio
    };

    let mut t = TextTable::new(
        "Table 7: RBC engines compared (execution time, s). Ours = platform SHA-3 model x measured cost ratio",
        &["Ref", "Algorithm", "d", "CPU paper", "CPU ours", "GPU paper", "GPU ours", "APU ours"],
    );
    let cpu_sha3 = cpu.search_seconds(CpuHash::Sha3, exhaustive_seeds(5));
    let rows = [
        ("[39]", "AES-128", 5u32, 44.7, 2.56, r_sha3 / r_aes),
        ("[29]", "LightSABER", 4, 44.58, 14.03, r_sha3 / r_saber),
        ("[40]", "Dilithium3", 4, 204.92, 27.91, r_sha3 / r_dilithium),
    ];
    for (r, name, d, cpu_paper, gpu_paper, ratio) in rows {
        t.row(&[
            r.into(),
            name.into(),
            d.to_string(),
            format!("{cpu_paper:.2}"),
            format!("{:.2}", project(ratio, d, cpu_sha3)),
            format!("{gpu_paper:.2}"),
            format!("{:.2}", project(ratio, d, gpu_sha3)),
            "-".into(),
        ]);
    }
    t.row(&[
        "This".into(),
        "SHA-3".into(),
        "5".into(),
        "60.68".into(),
        format!("{cpu_sha3:.2}"),
        "4.67".into(),
        format!("{gpu_sha3:.2}"),
        format!("{apu_sha3:.2}"),
    ]);
    t.print();
    println!(
        "measured 1-thread rates: SHA-3 {}, AES {}, LightSABER {}, Dilithium3 {}",
        fmt_rate(r_sha3),
        fmt_rate(r_aes),
        fmt_rate(r_saber),
        fmt_rate(r_dilithium)
    );
    println!(
        "note: the paper's AES/PQC engines were hand-optimized CUDA; our cost ratios come from this host's\n\
         from-scratch software (no AES-NI, schoolbook/NTT PQC), so 'ours' can miss the paper's PQC times\n\
         either way, but agrees on the direction: keygen-per-candidate is 1-4 orders slower than a hash."
    );
}

/// §3.2.2, §3.2.3, §4.4 ablations.
fn ablations(opts: &Opts) {
    let n = if opts.quick { 50_000 } else { 400_000 };

    // §3.2.2: fixed padding vs generic hashing (measured on this host).
    let f1 = measure_derive_rate(&HashDerive(Sha1Fixed), n);
    let g1 = measure_derive_rate(&HashDerive(Sha1Generic), n);
    let f3 = measure_derive_rate(&HashDerive(Sha3Fixed), n);
    let g3 = measure_derive_rate(&HashDerive(Sha3Generic), n);
    let mut t = TextTable::new(
        "Ablation §3.2.2: fixed-input padding (paper: ~3% GPU gain; measured on this host, 1 thread)",
        &["Hash", "fixed rate", "generic rate", "speedup"],
    );
    t.row(&["SHA-1".into(), fmt_rate(f1), fmt_rate(g1), format!("{:.2}x", f1 / g1)]);
    t.row(&["SHA-3".into(), fmt_rate(f3), fmt_rate(g3), format!("{:.2}x", f3 / g3)]);
    t.print();

    // §3.2.3: Chase state in shared vs global memory (GPU model).
    let dev = GpuDeviceModel::a100();
    let profile: Vec<u128> = (0..=5).map(seeds_at_distance).collect();
    let mut t2 = TextTable::new(
        "Ablation §3.2.3: Chase state memory space (GPU model; paper speedups 1.20x SHA-1, 1.01x SHA-3)",
        &["Hash", "shared (s)", "global (s)", "speedup"],
    );
    for (name, hash) in [("SHA-1", GpuHash::Sha1), ("SHA-3", GpuHash::Sha3)] {
        let shared = dev.search_time(&GpuKernelConfig::paper_best(hash), &profile);
        let global = dev.search_time(
            &GpuKernelConfig {
                mem: rbc_gpu_sim::MemSpace::Global,
                ..GpuKernelConfig::paper_best(hash)
            },
            &profile,
        );
        t2.row(&[
            name.into(),
            format!("{shared:.2}"),
            format!("{global:.2}"),
            format!("{:.2}x", global / shared),
        ]);
    }
    t2.print();

    // §4.4: flag-check interval sweep (measured, real searches at d=2).
    let base = U256::from_limbs([5, 4, 3, 2]);
    let mut rng = StdRng::seed_from_u64(31);
    let client = base.random_at_distance(2, &mut rng);
    let target = Sha3Fixed.digest_seed(&client);
    let mut t3 = TextTable::new(
        "Ablation §4.4: early-exit poll granularity (measured, SHA-3 d=2 average-case search on this host)",
        &["batch", "search time", "seeds"],
    );
    for batch in [1usize, 16, 64, 256] {
        let engine = SearchEngine::new(
            HashDerive(Sha3Fixed),
            EngineConfig { batch: BatchPolicy::Fixed(batch), ..Default::default() },
        );
        let report = engine.search(&target, &base, 2);
        assert!(matches!(report.outcome, Outcome::Found { .. }));
        t3.row(&[
            batch.to_string(),
            fmt_secs(report.elapsed.as_secs_f64()),
            report.seeds_derived.to_string(),
        ]);
    }
    t3.print();
    println!(
        "(paper finding: poll granularity 1..64 has no measurable effect — flag loads are cached)"
    );
}

/// §3.2.2 extension: explicit SIMD hashing per ISA tier and the batched
/// engine hot path — scalar vs portable/AVX2/AVX-512 kernels, the
/// runtime dispatcher's own entry points, and the adaptive batch policy
/// against a fixed maximum batch. Writes `BENCH_hash_lanes.json`; with
/// `--smoke`, validates it (every dispatcher-selected width at least as
/// fast as scalar, the headline SHA-1 speedup bar, adaptive not slower).
fn hash_lanes(opts: &Opts) {
    use rbc_hash::dispatch;

    // Satellite: say exactly what the host has and what the dispatcher
    // chose, so a recorded artifact is interpretable later.
    println!("cpu features: {}", dispatch::cpu_features().join(" "));
    println!(
        "simd dispatch: detected={} active={}",
        dispatch::detected_level().name(),
        dispatch::active_level().name()
    );
    for sel in dispatch::kernel_plan() {
        println!("  {:>5} x{:<2} <- {}", sel.algo, sel.width, sel.kernel.name());
    }

    let n = if opts.quick || opts.smoke { 300_000 } else { 2_000_000 };
    let rows = measure_hash_lane_rates(n);
    lane_table(&rows).print();
    println!("(* = kernel the runtime dispatcher drains batches through)");

    let trials = if opts.quick || opts.smoke { 120 } else { 400 };
    let adaptive = measure_adaptive_batching(trials);
    adaptive_table(&adaptive).print();

    write_and_gate(opts, &hash_lanes_artifact(&rows, &adaptive));
    if opts.smoke {
        return;
    }

    // End-to-end batched derivation (Chase mask refill + fused prescreen)
    // vs the scalar per-candidate loop — what the engine workers run.
    let m = if opts.quick { 50_000 } else { 400_000 };
    let mut t = TextTable::new(
        "Batched engine hot path: seeds/s, 1 thread (Chase mask refill + fused prescreen)",
        &["Hash", "scalar derive", "batched (batch=64)", "speedup"],
    );
    for (name, scalar, batched) in [
        (
            "SHA-1",
            measure_derive_rate(&HashDerive(Sha1Fixed), m),
            measure_derive_rate_batched(&HashDerive(Sha1Fixed), m, 64),
        ),
        (
            "SHA-3",
            measure_derive_rate(&HashDerive(Sha3Fixed), m),
            measure_derive_rate_batched(&HashDerive(Sha3Fixed), m, 64),
        ),
    ] {
        t.row(&[
            name.into(),
            fmt_rate(scalar),
            fmt_rate(batched),
            format!("{:.2}x", batched / scalar),
        ]);
    }
    t.print();
}

/// §4.3: CPU parallel-efficiency curve.
fn cpu_scaling() {
    let cpu = CpuModel::platform_a();
    let mut t = TextTable::new(
        "§4.3: CPU speedup model (paper: 59x SHA-1, 63x SHA-3 on 64 cores)",
        &["threads", "SHA-1 speedup", "SHA-3 speedup"],
    );
    for p in [1u32, 2, 4, 8, 16, 32, 64] {
        t.row(&[
            p.to_string(),
            format!("{:.1}x", cpu.speedup(CpuHash::Sha1, p)),
            format!("{:.1}x", cpu.speedup(CpuHash::Sha3, p)),
        ]);
    }
    t.print();
    println!(
        "platforms: A = {:?} cores CPU + {}x {}, B = {} + {}",
        platform_a().cpu.cores,
        platform_a().accelerator.count,
        platform_a().accelerator.model,
        platform_b().cpu.model,
        platform_b().accelerator.model,
    );
}

/// §5 future-work projections: multi-APU in one node, multi-node CPU
/// cluster, and the inject-noise-for-security trade.
fn future() {
    let apu = ApuTimingModel::gemini();
    let profile: Vec<u128> = (0..=5).map(seeds_at_distance).collect();

    // Multi-APU scaling (projection: "8xAPU within the 2U form factor").
    let mut t = TextTable::new(
        "Future work §5: multi-APU single-node scaling (PROJECTION, not measured by the paper)",
        &["Series", "G=1", "G=2", "G=4", "G=8"],
    );
    for (name, hash, early, prof) in [
        ("SHA-1 exhaustive", ApuHash::Sha1, false, profile.clone()),
        ("SHA-3 exhaustive", ApuHash::Sha3, false, profile.clone()),
        ("SHA-3 early exit", ApuHash::Sha3, true, ApuTimingModel::average_profile(5)),
    ] {
        let t1 = apu.multi_apu_seconds(hash, &prof, 1, early);
        let row: Vec<String> = std::iter::once(name.to_string())
            .chain(
                [1u32, 2, 4, 8]
                    .iter()
                    .map(|&g| format!("{:.2}x", t1 / apu.multi_apu_seconds(hash, &prof, g, early))),
            )
            .collect();
        t.row(&row);
    }
    t.print();

    // Multi-node CPU cluster (Philabaum et al.'s 404x on 512 cores).
    let cluster = rbc_accel::ClusterModel::philabaum();
    let cpu = CpuModel::platform_a();
    let single_core_sha3 =
        cpu.search_seconds(CpuHash::Sha3, exhaustive_seeds(5)) * cpu.speedup(CpuHash::Sha3, 64);
    let mut t2 = TextTable::new(
        "Future work §5: multi-node CPU cluster (calibrated to Philabaum et al.'s 404x @ 512 cores)",
        &["cores", "speedup", "SHA-3 d=5 exhaustive (s)", "within T=20s"],
    );
    for cores in [64u32, 128, 256, 512, 1024] {
        let secs = cluster.search_seconds(single_core_sha3, cores, 5);
        t2.row(&[
            cores.to_string(),
            format!("{:.0}x", cluster.speedup(cores)),
            format!("{secs:.2}"),
            (if secs <= 20.0 { "yes" } else { "no" }).into(),
        ]);
    }
    t2.print();

    // Injected noise as a security knob (§5's closing idea): the GPU's
    // slack under T = 20 s buys extra Hamming distance.
    let gpu = GpuDeviceModel::a100();
    let mut t3 = TextTable::new(
        "Future work §5: spending the GPU's headroom on injected noise (SHA-3 exhaustive)",
        &["max d", "search (s)", "within T=20s", "opponent asymmetry (bits)"],
    );
    for d in 5..=7u32 {
        let prof: Vec<u128> = (0..=d).map(seeds_at_distance).collect();
        let secs = gpu.search_time(&GpuKernelConfig::paper_best(GpuHash::Sha3), &prof);
        t3.row(&[
            d.to_string(),
            format!("{secs:.2}"),
            (if secs <= 20.0 { "yes" } else { "no" }).into(),
            format!("{:.0}", rbc_core::attack::asymmetry_bits(d)),
        ]);
    }
    t3.print();
}

/// Security demonstrations: Equation 2's intractability, executable.
fn security() {
    println!("\n== security: the server/opponent asymmetry (Eq. 1 vs Eq. 2) ==");
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let secret = U256::random(&mut rng);
    let digest = Sha3Fixed.digest_seed(&secret);

    let outcome =
        rbc_core::attack::brute_force_attack(&HashDerive(Sha3Fixed), &digest, 200_000, &mut rng);
    println!("blind opponent, 200k-hash budget: {outcome:?}");

    let leak = secret.random_at_distance(2, &mut rng);
    let informed = rbc_core::attack::informed_attack(&HashDerive(Sha3Fixed), &digest, &leak, 2);
    println!("opponent with a distance-2 image leak: {informed:?} (why the CA must stay secure)");

    for d in [1u32, 3, 5] {
        println!(
            "d={d}: server searches {} seeds; opponent still faces 2^256 (asymmetry {:.0} bits)",
            fmt_count(exhaustive_seeds(d)),
            rbc_core::attack::asymmetry_bits(d)
        );
    }
    println!(
        "opponent time at the A100's modelled SHA-1 rate: 10^{:.0} years",
        rbc_core::attack::opponent_log10_years(5.76e9)
    );

    // Cluster engine demo: message-passing search across 4 nodes.
    let client = secret.random_at_distance(2, &mut rng);
    let digest2 = Sha3Fixed.digest_seed(&client);
    let report = rbc_core::cluster_search(
        &HashDerive(Sha3Fixed),
        &digest2,
        &secret,
        2,
        &rbc_core::ClusterConfig { nodes: 4, ..Default::default() },
    );
    println!(
        "distributed engine (4 nodes): found={}, {} seeds, {} messages, {:?}",
        report.found.is_some(),
        report.seeds,
        report.messages,
        report.elapsed
    );
}

/// Extensions beyond the paper: reliability-weighted search ordering.
fn extensions(opts: &Opts) {
    use rbc_core::weighted::{weighted_search, ReliabilityOrder, WeightedOutcome};
    use rbc_puf::{client_readout, enroll, EnrollmentConfig, ModelPuf};

    println!("\n== extension: reliability-weighted (maximum-likelihood) search ordering ==");
    let mut rng = StdRng::seed_from_u64(0x0DDB175);
    let device = ModelPuf::reram(4096, 77);
    let image = enroll(&device, 0, &EnrollmentConfig::default(), &mut rng).expect("enroll");
    let order = ReliabilityOrder::from_image(&image);

    let engine =
        SearchEngine::new(HashDerive(Sha3Fixed), EngineConfig { threads: 1, ..Default::default() });
    let trials = opts.trials.min(25);
    let (mut w_sum, mut u_sum, mut n) = (0u64, 0u64, 0u32);
    for _ in 0..trials {
        let readout = client_readout(&device, &image, &mut rng);
        if image.reference.hamming_distance(&readout) > 3 {
            continue;
        }
        let target = Sha3Fixed.digest_seed(&readout);
        if let WeightedOutcome::Found { candidates, .. } =
            weighted_search(&HashDerive(Sha3Fixed), &target, &image.reference, &order, 3, 5_000_000)
        {
            w_sum += candidates;
            u_sum += engine.search(&target, &image.reference, 3).seeds_derived;
            n += 1;
        }
    }
    if n > 0 {
        println!(
            "real enrolled ReRAM device, {n} authentications: uniform order {} candidates mean, \
             likelihood order {} mean ({:.2}x)",
            u_sum / n as u64,
            w_sum / n as u64,
            u_sum as f64 / w_sum as f64
        );
    }

    // Mechanism in its strong regime: a strongly bimodal cell population
    // with flips planted where the statistics say they happen.
    let mut rates = vec![0.001f64; 256];
    let hot: Vec<usize> = (0..256).step_by(32).collect();
    for &h in &hot {
        rates[h] = 0.15;
    }
    let order = ReliabilityOrder::from_error_rates(&rates);
    let base = U256::from_limbs([2, 4, 6, 8]);
    let (mut w_sum, mut u_sum) = (0u64, 0u64);
    let mut rng2 = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        // Two flips on randomly chosen distinct hot cells.
        let client = loop {
            let a = hot[rng2.gen_range(0..hot.len())];
            let b = hot[rng2.gen_range(0..hot.len())];
            if a != b {
                break base.flip_bit(a).flip_bit(b);
            }
        };
        let target = Sha3Fixed.digest_seed(&client);
        if let WeightedOutcome::Found { candidates, .. } =
            weighted_search(&HashDerive(Sha3Fixed), &target, &base, &order, 2, 1_000_000)
        {
            w_sum += candidates;
            u_sum += engine.search(&target, &base, 2).seeds_derived;
        }
    }
    println!(
        "strongly bimodal population (8 hot cells at 15% BER, flips on hot cells): uniform {} \
         mean, likelihood {} mean ({:.0}x)",
        u_sum / 10,
        w_sum / 10,
        u_sum as f64 / w_sum as f64
    );
    println!(
        "(the win scales with how bimodal the *masked* population really is; TAPKI deliberately\n \
         flattens it, so the realistic gain is modest — an honest trade the paper doesn't explore)"
    );
}

/// Per-phase latency breakdown of the instrumented auth pipeline, one
/// single-substrate service per backend kind: every authentication flows
/// hello → prepare → dispatch queue → search → keygen → verdict with the
/// phases landing in one shared registry ([`rbc_telemetry::Registry`])
/// per substrate. Writes `BENCH_telemetry.json`; with `--smoke`, runs at
/// reduced scale and validates the artifact (the CI gate).
fn telemetry(opts: &Opts) {
    use rbc_bench::{telemetry_artifact, telemetry_table, TelemetryRow};
    use rbc_core::engine::EngineTelemetry;
    use rbc_core::ProfiledBackend;
    use rbc_telemetry::Registry;

    let auths: u64 = if opts.quick || opts.smoke { 4 } else { 10 };
    let budget = LatencyModel::paper_wan().search_budget(Duration::from_secs(20));

    let mut rows = Vec::new();
    for kind in ["cpu", "gpu-sim"] {
        let registry = Arc::new(Registry::new());
        // The CPU backend additionally feeds the rbc_engine_*
        // search-progress counters into the same registry.
        let backend: Arc<dyn SearchBackend> = match kind {
            "cpu" => Arc::new(
                CpuBackend::new(EngineConfig { threads: 2, ..Default::default() })
                    .with_telemetry(EngineTelemetry::register(&registry)),
            ),
            _ => Arc::new(GpuSimBackend::new(GpuKernelConfig::paper_best(GpuHash::Sha3))),
        };
        let profiled: Arc<dyn SearchBackend> =
            Arc::new(ProfiledBackend::new(backend, registry.clone(), 0));
        let dispatcher = Arc::new(Dispatcher::with_registry(
            vec![profiled],
            DispatcherConfig { queue_limit: 8, budget, ..Default::default() },
            registry.clone(),
        ));

        let mut rng = StdRng::seed_from_u64(0x7E1E + auths);
        let ca_cfg = CaConfig {
            max_d: 3,
            engine: EngineConfig { threads: 2, ..Default::default() },
            ..Default::default()
        };
        let mut ca = CertificateAuthority::new([3u8; 32], LightSaber, ca_cfg);
        let mut clients = Vec::new();
        for id in 0..auths {
            // Noiseless devices with exactly 2 injected bit flips: the
            // search always runs to distance 2 (a real batched search, not
            // just the d = 0 probe) and every authentication is accepted,
            // so the keygen phase has a sample for every request.
            let mut c = Client::new(id, ModelPuf::noiseless(4096, 0x7EE + id));
            c.extra_noise = 2;
            ca.enroll_client(id, c.device(), 0, &mut rng).expect("enroll");
            clients.push(c);
        }
        let svc = AuthService::new(ca, dispatcher);
        for (i, client) in clients.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xF00 + i as u64);
            let challenge = svc.begin(&client.hello()).expect("enrolled");
            let digest = client.respond(&challenge, &mut rng);
            svc.complete(&digest).expect("session open");
        }

        let snap = svc.registry().snapshot();
        rows.push(TelemetryRow::from_snapshot(kind, &snap));
        if kind == "cpu" {
            println!(
                "cpu engine counters: {} seeds scanned in {} batches, {} prefix hits \
                 ({} false positives), {} early-exit polls",
                snap.counter("rbc_engine_seeds_scanned_total").unwrap_or(0),
                snap.counter("rbc_engine_batches_total").unwrap_or(0),
                snap.counter("rbc_engine_prefix_hits_total").unwrap_or(0),
                snap.counter("rbc_engine_prefix_false_positives_total").unwrap_or(0),
                snap.counter("rbc_engine_early_exit_polls_total").unwrap_or(0),
            );
        }
    }
    telemetry_table(&rows).print();
    write_and_gate(opts, &telemetry_artifact(&rows));
}

/// `repro triage`: tail-latency post-mortems from a live service. A
/// batch of clients authenticates concurrently over lossy RPC links
/// against a pool hiding one degraded backend (round-robin keeps
/// feeding it), so some requests breach the deadline. The slowest-K
/// requests are then printed as stitched span trees with per-phase
/// breakdowns, the flight recorder's frozen post-mortem of the first
/// deadline breach is dumped, and the `rbc_service_auth_total_ns`
/// exemplar names the trace behind the worst sample. Writes
/// `BENCH_triage.json`; with `--smoke`, validates it (the CI gate:
/// every trace stitches hello → auth_total with monotone phases).
fn triage(opts: &Opts) {
    use rbc_bench::{triage_artifact, triage_table, TriageRow};
    use rbc_core::backend::BackendDescriptor;
    use rbc_core::engine::{EngineTelemetry, SearchReport};
    use rbc_core::ProfiledBackend;
    use rbc_telemetry::{
        CollectingRecorder, EventRecord, FlightRecorder, Recorder, Registry, SpanRecord,
    };

    /// Fans spans/events out to both the collector (triage rows need
    /// every trace) and the flight recorder (which freezes on the first
    /// deadline breach and then admits only the pinned trace).
    struct Tee(Arc<CollectingRecorder>, Arc<FlightRecorder>);
    impl Recorder for Tee {
        fn record(&self, span: &SpanRecord) {
            self.0.record(span);
            self.1.record(span);
        }
        fn event(&self, event: &EventRecord) {
            self.0.event(event);
            self.1.event(event);
        }
    }

    /// A healthy CPU backend wearing concrete boots: every submission
    /// pays `delay` before searching, and one that exceeds its deadline
    /// reports `TimedOut` exactly like a genuinely slow device would.
    struct InducedSlow {
        inner: CpuBackend,
        delay: Duration,
    }
    impl SearchBackend for InducedSlow {
        fn descriptor(&self) -> BackendDescriptor {
            BackendDescriptor { name: "cpu-degraded".into(), ..self.inner.descriptor() }
        }
        fn supports(&self, algo: HashAlgo) -> bool {
            self.inner.supports(algo)
        }
        fn submit(&self, job: &SearchJob) -> SearchReport {
            let start = std::time::Instant::now();
            std::thread::sleep(self.delay);
            let mut report = self.inner.submit(job);
            report.elapsed = start.elapsed();
            if job.deadline.is_some_and(|t| report.elapsed > t) {
                report.outcome = Outcome::TimedOut { at_distance: job.max_d };
            }
            report
        }
    }

    fn verdict_name(v: &Verdict) -> &'static str {
        match v {
            Verdict::Accepted { .. } => "accepted",
            Verdict::Rejected => "rejected",
            Verdict::TimedOut => "timed_out",
            Verdict::Overloaded { .. } => "overloaded",
        }
    }

    println!("\n== triage: slowest-K stitched traces under an induced slow backend ==");
    let auths: u64 = if opts.quick || opts.smoke { 6 } else { 12 };
    let k = 5usize;
    let budget = Duration::from_millis(500);
    let delay = Duration::from_millis(900);

    let registry = Arc::new(Registry::new());
    let collect = Arc::new(CollectingRecorder::new());
    let flight = Arc::new(FlightRecorder::new(4096));
    // The collector keeps every trace for the triage rows; the flight
    // recorder freezes on the first deadline breach and then admits
    // only the pinned trace.
    let tee: Arc<dyn Recorder> = Arc::new(Tee(collect.clone(), flight.clone()));

    let fast: Arc<dyn SearchBackend> = Arc::new(
        CpuBackend::new(EngineConfig { threads: 2, ..Default::default() })
            .with_telemetry(EngineTelemetry::register(&registry)),
    );
    let slow: Arc<dyn SearchBackend> = Arc::new(InducedSlow {
        inner: CpuBackend::new(EngineConfig { threads: 1, ..Default::default() }),
        delay,
    });
    // The degraded backend is listed first: with both idle, least-loaded
    // routing breaks the tie on the lowest index, so the first request
    // always lands on it and breaches its deadline — the fat tail triage
    // exists to explain.
    let pool: Vec<Arc<dyn SearchBackend>> = vec![
        Arc::new(ProfiledBackend::new(slow, registry.clone(), 0)),
        Arc::new(ProfiledBackend::new(fast, registry.clone(), 1)),
    ];
    let dispatcher = Arc::new(Dispatcher::with_registry(
        pool,
        DispatcherConfig { queue_limit: 16, budget, ..Default::default() },
        registry.clone(),
    ));

    let mut rng = StdRng::seed_from_u64(0x7121 + auths);
    let ca_cfg = CaConfig {
        max_d: 3,
        engine: EngineConfig { threads: 2, ..Default::default() },
        ..Default::default()
    };
    let mut ca = CertificateAuthority::new([9u8; 32], LightSaber, ca_cfg);
    let mut clients = Vec::new();
    for id in 0..auths {
        // One injected bit flip: the search runs to d = 1 and succeeds
        // in milliseconds on the healthy backend, so every slow verdict
        // below is the degraded backend's doing, not the search's.
        let mut c = Client::new(id, ModelPuf::noiseless(4096, 0x7A0 + id));
        c.extra_noise = 1;
        ca.enroll_client(id, c.device(), 0, &mut rng).expect("enroll");
        clients.push(c);
    }
    let service = Arc::new(AuthService::with_recorder(ca, dispatcher, tee.clone()));
    let net = NetTelemetry::register(service.registry()).with_recorder(tee);

    // One lossy duplex link per client; every request flows
    // hello/challenge/digest/verdict through the RPC transport, so the
    // traces triaged below stitched across a real (lossy) wire.
    let mut servers = Vec::new();
    let mut drivers = Vec::new();
    for (i, client) in clients.into_iter().enumerate() {
        let (mut client_link, mut server_link) =
            lossy_duplex(Duration::ZERO, 0.10, 0x51AB + i as u64);
        client_link.attach_telemetry(net.clone());
        server_link.attach_telemetry(net.clone());

        let svc = service.clone();
        servers.push(std::thread::spawn(move || {
            let mut rpc = RpcServer::new(server_link);
            // Decoding to Value keeps the duplicate-replay cache
            // effective across heterogeneous message types.
            while let Ok((seq, req)) = rpc.recv_request::<serde_json::Value>(RECV_TIMEOUT) {
                let sent = if req.field("digest").is_ok() {
                    let digest: DigestMsg =
                        serde_json::from_value(req).expect("digest message shape");
                    let verdict = svc.complete(&digest).expect("complete");
                    rpc.respond(seq, &verdict)
                } else {
                    let hello: HelloMsg = serde_json::from_value(req).expect("hello message shape");
                    let challenge = svc.begin(&hello).expect("begin");
                    rpc.respond(seq, &challenge)
                };
                if sent.is_err() {
                    break;
                }
            }
        }));

        drivers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC11E + i as u64);
            let mut rpc = RpcClient::new(client_link);
            rpc.rto = Duration::from_millis(10);
            // The degraded backend holds verdicts for ~`delay` while the
            // client retransmits into the void; the retry budget must
            // comfortably outlive it.
            rpc.max_attempts = 10_000;
            let hello = client.hello();
            rpc.set_trace(hello.trace.trace_id);
            let challenge: ChallengeMsg = rpc.call(&hello).expect("challenge over rpc");
            let digest = client.respond(&challenge, &mut rng);
            let verdict: VerdictMsg = rpc.call(&digest).expect("verdict over rpc");
            (hello.trace.trace_id, verdict.verdict)
        }));
    }
    const RECV_TIMEOUT: Duration = Duration::from_secs(30);

    let mut outcomes = Vec::new();
    for d in drivers {
        outcomes.push(d.join().expect("client thread"));
    }
    for s in servers {
        s.join().expect("server thread");
    }

    let spans = collect.take();
    let mut rows: Vec<TriageRow> = outcomes
        .iter()
        .map(|(trace, verdict)| TriageRow::from_spans(*trace, verdict_name(verdict), &spans))
        .collect();
    rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
    rows.truncate(k);
    triage_table(&rows).print();

    let snap = service.registry().snapshot();
    if let Some(h) = snap.histogram("rbc_service_auth_total_ns") {
        if let Some(ex) = &h.exemplar {
            println!(
                "auth_total p99 = {} · worst sample {} ← trace {:#x}",
                fmt_secs(h.percentile_duration(99.0).as_secs_f64()),
                fmt_secs(Duration::from_nanos(ex.value).as_secs_f64()),
                ex.trace_id,
            );
        }
    }
    println!(
        "link telemetry: {} frames sent, {} dropped, {} retransmits",
        net.frames_sent.get(),
        net.frames_dropped.get(),
        net.retransmits.get(),
    );
    let dump = flight.dump_frozen();
    match &dump {
        Some(dump) => {
            println!(
                "flight recorder froze on trace {:#x} (deadline breach); post-mortem:\n{dump}",
                flight.frozen_trace().unwrap_or(0),
            );
        }
        None => println!("flight recorder never froze (no deadline breach induced)"),
    }
    write_and_gate(opts, &triage_artifact(&rows, flight.frozen_trace(), dump.as_deref()));
}

/// Deterministic simulation sweep: seeded fault × load × timing
/// interleavings of the full auth stack on a virtual clock. See
/// `rbc_bench::sim` for the scenario derivation and invariants.
fn sim(opts: &Opts) {
    use rbc_bench::sim::{run_sweep, sim_table, SweepConfig};

    println!("\n== sim: seeded fault × load × timing interleavings (virtual time) ==");
    let scenarios: u64 = if opts.quick { 100 } else { 1000 };
    let cfg = SweepConfig { base_seed: 0x51B_0007, scenarios, replay_every: 10, workers: 0 };
    let started = std::time::Instant::now();
    let sweep = run_sweep(&cfg);
    let wall_secs = started.elapsed().as_secs_f64();

    sim_table(&sweep.rows).print();
    println!(
        "(scenarios: {} seeded interleavings, {} replayed for determinism, {} divergences, \
         {} invariant violations, min span {:.0} sim-s, {:.1} s wall)",
        sweep.scenarios,
        sweep.replayed,
        sweep.divergences,
        sweep.violations,
        sweep.min_sim_secs,
        wall_secs
    );
    for v in &sweep.violation_samples {
        eprintln!("violation: {v}");
    }
    write_and_gate(opts, &sweep.artifact(wall_secs));
}

/// Continuous observability: seeded multi-client load against the real
/// `AuthService` → `Dispatcher` → `SupervisedPool` stack on a virtual
/// clock, scraped into ring-buffer time series with multi-window SLO
/// burn-rate alerts. Stages a calm → storm → recovery incident, renders
/// the terminal dashboard, replays the whole run for bit-identical
/// digests, and writes `BENCH_monitor.json` (`--smoke` validates the
/// artifact and exits nonzero — the CI gate).
fn monitor(opts: &Opts) {
    use rbc_bench::monitor::{render_dashboard, run_monitor, MonitorConfig};
    use std::io::IsTerminal;

    println!("\n== monitor: continuous observability under staged overload (virtual time) ==");
    let cfg = MonitorConfig::standard(0x0B5E_0007);
    let started = std::time::Instant::now();
    let outcome = run_monitor(&cfg);
    let replay = run_monitor(&cfg);
    let wall_secs = started.elapsed().as_secs_f64();
    let divergences = u64::from(outcome.digest != replay.digest)
        + u64::from(outcome.alerts.len() != replay.alerts.len());

    let color = std::io::stdout().is_terminal() && !opts.smoke;
    print!("{}", render_dashboard(&outcome, color));
    println!(
        "(replayed once: {divergences} divergences; {} invariant violations, {wall_secs:.1} s wall)",
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("violation: {v}");
    }
    write_and_gate(opts, &outcome.artifact(Replay { replayed: 1, divergences, wall_secs }));
}

/// Workload attribution: seeded honest mix plus a staged
/// wrong-credential flood on a virtual clock, every verdict billed
/// through a `CostReceipt` into per-client heavy-hitter sketches,
/// per-`d` histograms and per-backend calibration. Proves the top-K
/// isolates the flood, the exhaustion-share SLO pages and clears, and
/// the flight recorder freezes on an attacker trace; replays the run
/// for bit-identical digests and writes `BENCH_attrib.json` (`--smoke`
/// validates the artifact and exits nonzero — the CI gate).
fn attrib(opts: &Opts) {
    use rbc_bench::attrib::{render_attrib, run_attrib, AttribConfig};
    use std::io::IsTerminal;

    println!("\n== attrib: per-request cost accounting under a staged flood (virtual time) ==");
    let cfg = AttribConfig::standard(0xA77B_0007);
    let started = std::time::Instant::now();
    let outcome = run_attrib(&cfg);
    let replay = run_attrib(&cfg);
    let wall_secs = started.elapsed().as_secs_f64();
    let divergences = u64::from(outcome.digest != replay.digest)
        + u64::from(outcome.alerts.len() != replay.alerts.len());

    let color = std::io::stdout().is_terminal() && !opts.smoke;
    print!("{}", render_attrib(&outcome, color));
    println!(
        "(replayed once: {divergences} divergences; {} invariant violations, {wall_secs:.1} s wall)",
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("violation: {v}");
    }
    write_and_gate(opts, &outcome.artifact(Replay { replayed: 1, divergences, wall_secs }));
}

/// Adversarial admission control: the honest population from `attrib`
/// is driven twice on fresh virtual timelines — alone, then against a
/// wrong-credential flood — with the admission layer enforcing
/// hash-priced token buckets, a negative credential cache, quarantine
/// and brownout shedding. Proves honest p99 stays within 2× of the
/// no-flood baseline at ≥ 99 % acceptance while most of the flood's
/// search work is refused; replays both worlds for bit-identical
/// digests and writes `BENCH_adversarial.json` (`--smoke` validates
/// the artifact and exits nonzero — the CI gate).
fn adversarial(opts: &Opts) {
    use rbc_bench::adversarial::{render_adversarial, run_adversarial, AdversarialConfig};
    use std::io::IsTerminal;

    println!("\n== adversarial: admission control under an exhaustion flood (virtual time) ==");
    let cfg = AdversarialConfig::standard(0xADA7_0007);
    let started = std::time::Instant::now();
    let outcome = run_adversarial(&cfg);
    let replay = run_adversarial(&cfg);
    let wall_secs = started.elapsed().as_secs_f64();
    let divergences = u64::from(outcome.digest != replay.digest)
        + u64::from(outcome.flood.issued != replay.flood.issued);

    let color = std::io::stdout().is_terminal() && !opts.smoke;
    print!("{}", render_adversarial(&outcome, color));
    println!(
        "(replayed once: {divergences} divergences; {} invariant violations, {wall_secs:.1} s wall)",
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("violation: {v}");
    }
    write_and_gate(opts, &outcome.artifact(Replay { replayed: 1, divergences, wall_secs }));
}

/// Writes `artifact` to its `BENCH_<bench>.json`; under `--smoke`, reads
/// the file back and checks every metric's bound, exiting nonzero on any
/// failure.
fn write_and_gate(opts: &Opts, artifact: &Artifact) {
    let path = artifact.file_name();
    match artifact.write() {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            if opts.smoke {
                std::process::exit(1);
            }
        }
    }
    if !opts.smoke {
        return;
    }
    let gated = std::fs::read_to_string(&path)
        .map_err(|e| format!("could not read back {path}: {e}"))
        .and_then(|text| artifact.gate(&text).map_err(|e| format!("{path} invalid: {e}")));
    match gated {
        Ok(()) => println!("smoke: {path} validates ({} bounded metrics hold)", artifact.bounded()),
        Err(e) => {
            eprintln!("smoke: {e}");
            std::process::exit(1);
        }
    }
}

/// Performance-regression gate: compares the BENCH artifacts present in
/// the working directory against the committed `BASELINE.json`, with
/// per-metric noise tolerances and direction-of-worse semantics
/// (`hash.*` rates only when the active SIMD tier matches the
/// baseline's). Exits nonzero on any regression. `--update` rebuilds
/// `BASELINE.json` from the current artifacts instead of comparing.
fn regress(opts: &Opts) {
    use rbc_bench::baseline::{
        build_baseline, compare, parse_baseline_json, read_artifacts, render_baseline_json,
    };

    println!("\n== regress: BENCH artifacts vs committed BASELINE.json ==");
    let artifacts = match read_artifacts(".") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(1);
        }
    };
    if opts.update {
        let base = match build_baseline(&artifacts) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("regress: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write("BASELINE.json", render_baseline_json(&base) + "\n") {
            eprintln!("regress: could not write BASELINE.json: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote BASELINE.json ({} entries, hash tier {:?})",
            base.entries.len(),
            base.hash_tier
        );
        return;
    }
    let text = match std::fs::read_to_string("BASELINE.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("regress: could not read BASELINE.json: {e} (run repro regress --update)");
            std::process::exit(1);
        }
    };
    let base = match parse_baseline_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(1);
        }
    };
    let report = match compare(&base, &artifacts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(1);
        }
    };
    for line in &report.passed {
        println!("  ok    {line}");
    }
    for line in &report.skipped {
        println!("  skip  {line}");
    }
    for line in &report.regressions {
        eprintln!("  FAIL  {line}");
    }
    println!(
        "({} compared, {} skipped, {} regressions)",
        report.passed.len(),
        report.skipped.len(),
        report.regressions.len()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}

/// Cross-engine functional verification at reduced scale: every
/// [`SearchBackend`] — CPU, cluster, GPU functional simulator, APU
/// functional simulator — must agree on every outcome for the same
/// [`SearchJob`], and average-case seed counts must track Eq. 3.
fn verify(opts: &Opts) {
    println!("\n== verify: cross-backend agreement (real reduced-scale runs) ==");
    let backends: Vec<Box<dyn SearchBackend>> = vec![
        Box::new(CpuBackend::new(EngineConfig::default())),
        Box::new(ClusterBackend::new(ClusterConfig { nodes: 3, ..Default::default() })),
        Box::new(GpuSimBackend::new(GpuKernelConfig::paper_best(GpuHash::Sha3))),
        Box::new(ApuSimBackend::new(rbc_apu_sim::ApuSearchConfig {
            device: rbc_apu_sim::ApuConfig::tiny(64),
            hash: rbc_apu_sim::ApuHash::Sha3,
            batch: 32,
        })),
    ];
    let mut rng = StdRng::seed_from_u64(2023);
    let trials = opts.trials.min(40);
    let mut agree = 0usize;
    for i in 0..trials {
        let base = U256::random(&mut rng);
        let d_plant = (i % 4) as u32; // 0..=3
        let client = base.random_at_distance(d_plant, &mut rng);
        let max_d = 3u32.min(2 + d_plant); // plant ≤ 3, bound 2..3
        let job = SearchJob::new(
            HashAlgo::Sha3_256,
            HashAlgo::Sha3_256.digest_seed(&client),
            base,
            max_d,
        );

        let outs: Vec<Option<(U256, u32)>> = backends
            .iter()
            .map(|b| match b.submit(&job).outcome {
                Outcome::Found { seed, distance } => Some((seed, distance)),
                _ => None,
            })
            .collect();

        if outs.windows(2).all(|w| w[0] == w[1]) {
            agree += 1;
        } else {
            let names: Vec<String> = backends.iter().map(|b| b.descriptor().name).collect();
            println!("DISAGREEMENT trial {i}: {names:?} → {outs:?}");
        }
    }
    println!("{agree}/{trials} trials: all {} backends agree", backends.len());

    // Average-case statistics against Equation 3 (d = 2).
    let mut rng = StdRng::seed_from_u64(7);
    let summary = run_average_case_trials(
        HashDerive(Sha3Fixed),
        EngineConfig::default(),
        2,
        opts.trials,
        &mut rng,
    );
    println!(
        "average-case d=2: mean seeds {:.0} (Eq.3 predicts {}), found {}/{}, mean time {}",
        summary.mean_seeds,
        summary.expected_seeds,
        summary.found,
        summary.trials,
        fmt_secs(summary.mean_elapsed.as_secs_f64()),
    );

    // Engine comm + search composition sanity against Table 5 structure.
    let comm = LatencyModel::paper_wan().standard_auth_comm();
    println!(
        "comm model: network {} + puf {} + framing {} = {}",
        fmt_secs(comm.network.as_secs_f64()),
        fmt_secs(comm.puf_read.as_secs_f64()),
        fmt_secs(comm.framing.as_secs_f64()),
        fmt_secs(comm.total().as_secs_f64()),
    );
    let _ = Duration::from_secs(0);
}
