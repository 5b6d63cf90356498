//! The canonical perf-trajectory suite behind `BENCH_perf_suite.json`.
//!
//! Runs a fixed-seed, fixed-scale measurement set — deliberately
//! independent of `TACO_SCALE`, so every commit measures the same
//! work:
//!
//! - blocked matmul / matmul_tn GFLOP/s on a single worker, read back
//!   from the `kernel.*` trace deltas (the numbers CI charts are the
//!   same numbers the tracing subsystem reports);
//! - FedAvg and TACO round wall-time (median of `TACO_PERF_REPEATS`
//!   timed runs, default 5, after one warm-up) and deterministic
//!   bytes/round on the adult workload;
//! - TACO aggregation wall-times on a 4-worker pool: a server-side
//!   microbenchmark of the one aggregation path at parameter-server
//!   scale (see `taco_core::aggregate_planned`) and a full TACO round
//!   trajectory;
//! - peak resident-set size;
//! - a per-span quantile report for every `sim.*` phase span
//!   (see `taco_sim::phase` for the name contract).
//!
//! The report lands at `BENCH_perf_suite.json` in the working
//! directory (`TACO_BENCH_OUT` overrides) and is diffed against the
//! committed trajectory by the `bench_compare` binary / the
//! `perf-trajectory` CI job.

use taco_bench::perf::{HostInfo, PerfMetric, PerfReport, SCHEMA_VERSION};
use taco_bench::{algorithm_by_name, banner, build_info, workload, Scale};
use taco_core::taco::TacoConfig;
use taco_core::{ClientUpdate, FederatedAlgorithm, HyperParams, ShardFold, Taco};
use taco_sim::History;
use taco_tensor::pool::{self, Pool};
use taco_tensor::{linalg, Prng, Tensor};
use taco_trace as trace;
use taco_trace::Value;

/// The suite's fixed scale: small enough for CI, large enough that
/// the kernel and round timings sit well above timer resolution.
const SUITE_SCALE: Scale = Scale {
    rounds: 10,
    local_steps: 10,
    train_n: 1200,
    test_n: 300,
    batch_size: 16,
};
const SUITE_CLIENTS: usize = 8;
const SUITE_SEED: u64 = 42;

/// Salt folded into [`SUITE_SEED`] for the flat-vector kernel inputs,
/// so the perf-suite measurement stream stays independent of the
/// shape-sweep and workload streams derived from the same seed.
const FLAT_OPS_SALT: u64 = 0x5A4D;

fn repeats() -> usize {
    trace::env::perf_repeats().unwrap_or(5)
}

fn hist_sum(snap: &trace::Snapshot, name: &str) -> f64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.sum)
}

fn counter_val(snap: &trace::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, c)| *c)
}

/// GFLOP/s of one kernel, computed from the kernel's own trace deltas
/// (seconds histogram + elems counter) so the gate measures exactly
/// what the telemetry reports. Each of `windows` measurement windows
/// runs `iters` square multiplies — sized to tens of milliseconds so
/// timer and scheduler noise cannot dominate — and the best window
/// wins (the standard throughput estimator: slowdowns are noise,
/// speed-ups are not).
fn kernel_gflops(kernel: &str, n: usize, iters: usize, windows: usize) -> f64 {
    let mut rng = Prng::seed_from_u64(SUITE_SEED ^ n as u64);
    let a = Tensor::randn([n, n], 1.0, &mut rng);
    let b = Tensor::randn([n, n], 1.0, &mut rng);
    let single = Pool::new(1);
    let run = || match kernel {
        "matmul" => linalg::matmul(&a, &b),
        "matmul_tn" => linalg::matmul_tn(&a, &b),
        other => panic!("unknown kernel {other}"),
    };
    let secs_name = format!("kernel.{kernel}.seconds");
    let elems_name = format!("kernel.{kernel}.elems");
    pool::with_pool(&single, || {
        std::hint::black_box(run()); // warm-up
        let mut best = 0.0f64;
        for _ in 0..windows.max(1) {
            let before = trace::snapshot();
            for _ in 0..iters {
                std::hint::black_box(run());
            }
            let after = trace::snapshot();
            let secs = hist_sum(&after, &secs_name) - hist_sum(&before, &secs_name);
            let elems = counter_val(&after, &elems_name) - counter_val(&before, &elems_name);
            // One multiply-add per recorded element = 2 FLOPs.
            if secs > 0.0 {
                best = best.max(2.0 * elems as f64 / secs / 1e9);
            }
        }
        best
    })
}

/// Median wall-seconds of one full federated run plus the (bit-exact)
/// bytes uploaded per round.
fn round_costs(algorithm: &str, reps: usize) -> (f64, f64) {
    let w = workload("adult", SUITE_CLIENTS, SUITE_SEED, SUITE_SCALE, None);
    let mut last: Option<History> = None;
    let secs = trace::perf::time_median(reps, || {
        let alg = algorithm_by_name(
            algorithm,
            SUITE_CLIENTS,
            SUITE_SCALE.rounds,
            SUITE_SCALE.local_steps,
        );
        last = Some(taco_bench::run(&w, alg, w.config(SUITE_SEED).sequential()));
    });
    let history = last.expect("time_median ran the body at least once");
    let bytes_per_round = history.total_upload_bytes() as f64 / SUITE_SCALE.rounds as f64;
    (secs, bytes_per_round)
}

/// Median wall-ms of TACO server-side aggregation alone at
/// parameter-server scale (32 uploads × 256 Ki dims, 6 rounds) on a
/// 4-worker pool: statistics, plan, shard fold and commit through
/// `taco_core::aggregate_planned`, with the shard count the server
/// would pick. Client compute is excluded, so the metric is the
/// aggregation itself rather than a sliver of a training-dominated
/// round; six rounds reuse one fold table, as a run does.
fn aggregate_ms(reps: usize) -> f64 {
    const DIM: usize = 262_144;
    const CLIENTS: usize = 32;
    const ROUNDS: usize = 6;
    let mut rng = Prng::seed_from_u64(SUITE_SEED ^ FLAT_OPS_SALT);
    let per_round: Vec<Vec<ClientUpdate>> = (0..ROUNDS)
        .map(|_| {
            (0..CLIENTS)
                .map(|client| ClientUpdate {
                    client,
                    delta: (0..DIM).map(|_| rng.normal_f32() * 0.01).collect(),
                    num_samples: 1,
                    final_v: None,
                    mean_loss: 0.0,
                    grad_evals: 0,
                    steps: 1,
                    compute_seconds: 0.0,
                })
                .collect()
        })
        .collect();
    let hyper = HyperParams::new(CLIENTS, 4, 0.05, 16);
    let pool = Pool::new(4);
    pool::with_pool(&pool, || {
        trace::perf::time_median(reps, || {
            let mut algorithm = Taco::new(CLIENTS, TacoConfig::paper_default(ROUNDS, 4));
            let mut fold = ShardFold::default();
            let shards = taco_core::fold_shards(DIM);
            let mut global = vec![0.1f32; DIM];
            for (round, updates) in per_round.iter().enumerate() {
                algorithm.begin_round(round, &global);
                global = taco_core::aggregate_planned(
                    &mut algorithm,
                    &global,
                    updates,
                    &hyper,
                    &mut fold,
                    shards,
                )
                .expect("TACO plans every round");
            }
            std::hint::black_box(&global);
        })
    }) * 1e3
}

/// Median wall-ms of a full TACO run (6 rounds) on the adult workload
/// with parallel clients on a 4-worker pool. The configuration is
/// server-heavy relative to the main round metric (32 clients, 2 local
/// steps) so aggregation is a visible slice of the round loop.
fn round_t4_ms(reps: usize) -> f64 {
    const T4_SCALE: Scale = Scale {
        rounds: 6,
        local_steps: 2,
        train_n: 1600,
        test_n: 200,
        batch_size: 16,
    };
    const T4_CLIENTS: usize = 32;
    let w = workload("adult", T4_CLIENTS, SUITE_SEED, T4_SCALE, None);
    let pool = Pool::new(4);
    pool::with_pool(&pool, || {
        trace::perf::time_median(reps, || {
            let alg = algorithm_by_name("TACO", T4_CLIENTS, T4_SCALE.rounds, T4_SCALE.local_steps);
            std::hint::black_box(taco_bench::run(&w, alg, w.config(SUITE_SEED)));
        })
    }) * 1e3
}

/// Codec throughput + aggregation metrics for the Q8 wire format:
/// encode bandwidth over a 1 Mi-dim delta (input GB/s), the median
/// wall-ms of the 8-shard [`ShardFold`] over 32 decoded Q8 uploads ×
/// 256 Ki dims on a 4-worker pool (the dense fold the server runs),
/// and the deterministic wire size of one such payload
/// (machine-independent, gated everywhere).
fn codec_metrics(reps: usize) -> Vec<PerfMetric> {
    use taco_core::compress::{codec_stream, Compressor, Uniform8Bit};

    const ENC_DIM: usize = 1 << 20;
    let mut rng = Prng::seed_from_u64(SUITE_SEED ^ FLAT_OPS_SALT);
    let big: Vec<f32> = (0..ENC_DIM).map(|_| rng.normal_f32() * 0.01).collect();
    let enc_secs = trace::perf::time_median(reps, || {
        std::hint::black_box(Uniform8Bit.encode(&big, &mut codec_stream(SUITE_SEED, 0, 0)));
    });
    let encode_gbps = ENC_DIM as f64 * 4.0 / enc_secs / 1e9;
    println!("codec.q8.encode    {encode_gbps:>9.3} GB/s (median of {reps})");

    const AGG_DIM: usize = 262_144;
    const AGG_CLIENTS: usize = 32;
    let mut wire_bytes = 0.0;
    let uploads: Vec<ClientUpdate> = (0..AGG_CLIENTS)
        .map(|client| {
            let delta: Vec<f32> = (0..AGG_DIM).map(|_| rng.normal_f32() * 0.01).collect();
            let enc = Uniform8Bit.encode(&delta, &mut codec_stream(SUITE_SEED, 0, client));
            if client == 0 {
                wire_bytes = enc.wire_bytes() as f64;
            }
            ClientUpdate {
                client,
                delta: enc.decode(),
                num_samples: 1,
                final_v: None,
                mean_loss: 0.0,
                grad_evals: 0,
                steps: 1,
                compute_seconds: 0.0,
            }
        })
        .collect();
    let ones = vec![1.0f32; AGG_CLIENTS];
    let pool = Pool::new(4);
    let agg_ms = pool::with_pool(&pool, || {
        let mut fold = ShardFold::default();
        trace::perf::time_median(reps, || {
            std::hint::black_box(fold.weighted_mean(&uploads, &ones, 8));
        })
    }) * 1e3;
    println!("codec.q8.aggregate {agg_ms:>9.2} ms (median of {reps}, t4, decoded)");

    vec![
        metric("codec.q8.encode_gbps", encode_gbps, "GB/s", true, true, 0.5),
        metric("codec.q8.aggregate_ms", agg_ms, "ms", false, true, 5.0),
        metric(
            "codec.q8.wire_bytes",
            wire_bytes,
            "bytes",
            false,
            false,
            0.0,
        ),
    ]
}

fn metric(
    name: &str,
    value: f64,
    unit: &str,
    higher_is_better: bool,
    machine_dependent: bool,
    noise_floor: f64,
) -> PerfMetric {
    PerfMetric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        higher_is_better,
        machine_dependent,
        noise_floor,
    }
}

fn main() {
    let _manifest = banner(
        "perf_suite",
        "Perf-trajectory suite",
        "simulation throughput rests on the blocked kernels and the round loop; \
         this fixed-seed suite pins both so the trajectory is visible per commit",
    );
    let reps = repeats();

    // Iteration counts put each measurement window in the tens of
    // milliseconds at the ~40 GFLOP/s this substrate reaches.
    let mut metrics = Vec::new();
    for &(kernel, n, iters) in &[
        ("matmul", 64usize, 4000usize),
        ("matmul", 128, 500),
        ("matmul", 256, 64),
        ("matmul_tn", 256, 64),
    ] {
        let gflops = kernel_gflops(kernel, n, iters, reps);
        println!("kernel.{kernel:<10} n={n:<4} {gflops:>7.3} gflop/s");
        metrics.push(metric(
            &format!("kernel.{kernel}.gflops.n{n}"),
            gflops,
            "gflop/s",
            true,
            true,
            2.0,
        ));
    }

    for algorithm in ["FedAvg", "TACO"] {
        let (secs, bytes_per_round) = round_costs(algorithm, reps);
        let wall_ms = secs * 1e3;
        println!(
            "round.{algorithm:<7} wall {wall_ms:>9.2} ms (median of {reps})   \
             {bytes_per_round:>12.0} bytes/round"
        );
        metrics.push(metric(
            &format!("round.{algorithm}.wall_ms"),
            wall_ms,
            "ms",
            false,
            true,
            5.0,
        ));
        metrics.push(metric(
            &format!("bytes_per_round.{algorithm}"),
            bytes_per_round,
            "bytes",
            false,
            false,
            0.0,
        ));
    }

    let agg_ms = aggregate_ms(reps);
    println!("aggregate.TACO    {agg_ms:>9.2} ms (median of {reps}, t4)");
    metrics.push(metric(
        "aggregate.TACO.wall_ms",
        agg_ms,
        "ms",
        false,
        true,
        5.0,
    ));
    let run_ms = round_t4_ms(reps);
    println!("round.TACO.t4     {run_ms:>9.2} ms (median of {reps})");
    metrics.push(metric(
        "round.TACO.t4.wall_ms",
        run_ms,
        "ms",
        false,
        true,
        25.0,
    ));

    metrics.extend(codec_metrics(reps));

    if let Some(rss) = trace::peak_rss_bytes() {
        let mib = rss as f64 / (1 << 20) as f64;
        println!("peak_rss          {mib:>9.1} MiB");
        metrics.push(metric("peak_rss_mib", mib, "MiB", false, true, 16.0));
    }

    let snap = trace::snapshot();
    let spans = Value::Object(
        trace::span_stats(&snap)
            .iter()
            .map(|s| (s.name.clone(), s.to_value()))
            .collect(),
    );

    let report = PerfReport {
        schema_version: SCHEMA_VERSION,
        suite: "perf_suite".to_string(),
        unix_ms: trace::event::unix_ms_now(),
        build: build_info(),
        host: HostInfo::current(),
        repeats: reps as u64,
        metrics,
        spans,
    };
    let out = trace::env::bench_out()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_perf_suite.json"));
    match report.write(&out) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out.display());
            std::process::exit(2);
        }
    }
}
