//! `fedbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! fedbench --workload <cnn_local|wide_server|q8_faulted> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation repeats full federated TACO runs of one workload
//! (`Simulation::new(..).run()`) for about `--seconds` seconds, cycling
//! through the workload's run seeds, derived from `--seed`. The first run
//! is a warm-up and is not timed. Every run's `History` must match the
//! first run of its seed, digest for digest, or the invocation fails.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` each repetition runs the seed twice, plain and
//! through the timing decorators of [`decor`], and reports per-layer
//! metrics of the decorated run. Both lines are one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it
//! start with `#` and carry the pool size, the per-seed digests and the
//! sample counts. See `fedbench/README.md` for the metric definitions.

mod decor;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;

use taco_core::compress::Compressor;
use taco_core::FederatedAlgorithm;
use taco_nn::Model;
use taco_sim::{History, Simulation};
use taco_tensor::pool::{self, Pool};
use taco_tensor::Prng;

use decor::{Clock, Probe, Tallies, TimedAlgorithm, TimedCompressor, TimedModel};
use workload::{Setup, Workload, ROUNDS};

/// Pool size cap: the workloads were sized on a two-core host.
const MAX_THREADS: usize = 2;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_TIMED: usize = 3;
/// Set-up blocks timed per untraced invocation, after one warm-up block.
const SETUP_BLOCKS: usize = 5;
/// Kernels whose `kernel.<name>.seconds` histograms feed `tensor.*`.
const KERNELS: [&str; 6] = [
    "matmul",
    "matmul_tn",
    "matmul_nt",
    "im2col",
    "col2im",
    "maxpool2d",
];
const MIB: f64 = 1024.0 * 1024.0;

const USAGE: &str =
    "usage: fedbench --workload <cnn_local|wide_server|q8_faulted> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The first `TACO_*` variable of the workspace registry that is set.
/// Every registered variable changes what the program does or writes,
/// so the benchmark runs only in an environment where none is set.
fn registry_variable_set() -> Option<&'static str> {
    taco_trace::env::REGISTRY
        .iter()
        .map(|v| v.name)
        .find(|name| std::env::var_os(name).is_some())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = registry_variable_set() {
        eprintln!("fedbench: refusing to run while {name} is set; unset every TACO_* variable");
        return ExitCode::from(2);
    }
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = hardware.min(MAX_THREADS);
    println!(
        "# fedbench workload={} seed={} trace={} pool_threads={threads} available_parallelism={hardware}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
    );
    let pool = Pool::new(threads);
    let report = pool::with_pool(&pool, || {
        if args.trace {
            traced(&args, threads)
        } else {
            untraced(&args)
        }
    });
    drop(pool);
    report.print()
}

/// The run seeds one invocation cycles through.
fn subseeds(w: Workload, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..w.run_seeds()).map(|_| rng.next_u64()).collect()
}

/// Whether the repetition loop may stop after `reps` repetitions: at
/// least `min_reps` ran and time is up.
fn done(reps: usize, min_reps: usize, clock: &Clock, seconds: f64) -> bool {
    reps >= min_reps && clock.secs() >= seconds
}

/// One federated run from `Simulation::new` to `run()` returning, with
/// its wall time. With a probe, the model, the algorithm and the codec
/// are decorated.
fn run_once(w: Workload, setup: &Setup, seed: u64, probe: Option<&Arc<Probe>>) -> (History, f64) {
    let fed = setup.fed.clone();
    let mut model = setup.model.clone_model();
    let mut algorithm = w.algorithm();
    let mut codec = w.codec();
    if let Some(p) = probe {
        model = Box::new(TimedModel::new(model, Arc::clone(p))) as Box<dyn Model>;
        algorithm =
            Box::new(TimedAlgorithm::new(algorithm, Arc::clone(p))) as Box<dyn FederatedAlgorithm>;
        codec =
            codec.map(|c| Arc::new(TimedCompressor::new(c, Arc::clone(p))) as Arc<dyn Compressor>);
    }
    let config = w.config(setup.hyper, seed, codec);
    let clock = Clock::start();
    let history = Simulation::new(fed, model, algorithm, config).run();
    (history, clock.secs())
}

/// FNV-1a digest of everything deterministic in a `History`. The
/// wall-clock fields `max_client_seconds` and `total_client_seconds`
/// are left out: they differ between any two runs.
fn digest(h: &History) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let ids = |eat: &mut dyn FnMut(u64), v: &[usize]| {
        eat(v.len() as u64);
        v.iter().for_each(|&x| eat(x as u64));
    };
    h.algorithm.bytes().for_each(|b| eat(u64::from(b)));
    ids(&mut eat, &h.expelled_clients);
    for r in &h.rounds {
        eat(r.round as u64);
        eat(r.test_accuracy.to_bits());
        eat(r.test_loss.to_bits());
        eat(r.train_loss.to_bits());
        eat(u64::from(r.train_loss_carried));
        match &r.alphas {
            Some(a) => a.iter().for_each(|x| eat(u64::from(x.to_bits()))),
            None => eat(u64::MAX),
        }
        eat(r.expelled as u64);
        eat(r.upload_bytes as u64);
        eat(r.faults_injected as u64);
        eat(r.updates_rejected as u64);
        ids(&mut eat, &r.participants);
        ids(&mut eat, &r.suspected);
        eat(r.attacks_applied as u64);
        let t = r.fault_totals;
        for x in [
            t.dropouts,
            t.stragglers,
            t.corruptions,
            t.deadline_cuts,
            t.quarantined,
        ] {
            eat(x as u64);
        }
        eat(r.tracked_states as u64);
    }
    hash
}

/// What a correct run of `w` must satisfy beyond reproducing its digest.
fn sanity(w: Workload, h: &History) -> Result<(), String> {
    if h.rounds.len() != ROUNDS {
        return Err(format!(
            "{} rounds recorded, {ROUNDS} configured",
            h.rounds.len()
        ));
    }
    for r in &h.rounds {
        if !(0.0..=1.0).contains(&r.test_accuracy) || !r.test_loss.is_finite() {
            return Err(format!(
                "round {}: accuracy {} loss {}",
                r.round, r.test_accuracy, r.test_loss
            ));
        }
        if r.updates_rejected != r.fault_totals.rejected()
            || r.faults_injected != r.fault_totals.injected()
        {
            return Err(format!("round {}: fault tallies disagree", r.round));
        }
        if r.upload_bytes == 0 {
            return Err(format!("round {}: nothing uploaded", r.round));
        }
    }
    let faulted = w == Workload::Q8Faulted;
    if !faulted && (h.total_faults_injected() > 0 || h.total_updates_rejected() > 0) {
        return Err("faults or rejections in a fault-free workload".into());
    }
    if faulted && h.total_updates_rejected() == 0 {
        return Err("the fault plan rejected no upload".into());
    }
    if h.best_accuracy() < w.chance() + 0.1 {
        return Err(format!(
            "did not learn: best accuracy {}",
            h.best_accuracy()
        ));
    }
    Ok(())
}

/// Digest bookkeeping across an invocation's runs.
struct Check {
    workload: Workload,
    /// First history (and its digest) of each run seed.
    first: Vec<Option<(u64, History)>>,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn new(workload: Workload) -> Check {
        Check {
            workload,
            first: vec![None; workload.run_seeds()],
            attempted: 0,
            failed: 0,
        }
    }

    fn observe(&mut self, sub: usize, h: History) {
        self.attempted += 1;
        let d = digest(&h);
        let verdict = sanity(self.workload, &h).and_then(|()| match &self.first[sub] {
            Some((want, _)) if *want != d => {
                Err(format!("digest {d:016x} != first run's {want:016x}"))
            }
            _ => Ok(()),
        });
        if let Err(e) = verdict {
            eprintln!("fedbench: run seed {sub}: {e}");
            self.failed += 1;
        }
        if self.first[sub].is_none() {
            self.first[sub] = Some((d, h));
        }
    }

    fn histories(&self) -> impl Iterator<Item = &History> {
        self.first.iter().flatten().map(|(_, h)| h)
    }

    fn print_digests(&self, seeds: &[u64]) {
        for (i, entry) in self.first.iter().enumerate() {
            if let Some((d, h)) = entry {
                let accuracy: Vec<String> = h
                    .accuracy_series()
                    .iter()
                    .map(|a| format!("{a:.3}"))
                    .collect();
                println!(
                    "# digest run_seed={} history={d:016x} accuracy=[{}]",
                    seeds[i],
                    accuracy.join(",")
                );
            }
        }
    }
}

/// Median of a sample; 0 for an empty one.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn print_samples(name: &str, xs: &[f64]) {
    let text: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    println!(
        "# {name} samples={} median={} values=[{}]",
        xs.len(),
        median(xs),
        text.join(",")
    );
}

/// Rounds until test accuracy first reaches `target`, 1-based and
/// interpolated linearly between the last round below the target and
/// the first at or above it; `T + 1` when the run never reaches it.
/// The fraction keeps the mean over a few run seeds from moving in
/// whole-round steps.
fn rounds_to(h: &History, target: f64) -> f64 {
    let acc = h.accuracy_series();
    match acc.iter().position(|&a| a >= target) {
        None => acc.len() as f64 + 1.0,
        Some(0) => 1.0,
        Some(i) => i as f64 + (target - acc[i - 1]) / (acc[i] - acc[i - 1]),
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(self) -> ExitCode {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite value is a
                // bug in the benchmark and fails the invocation.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && finite && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Mean seconds per set-up, one sample per timed block. A block builds
/// every run seed once: set-up time depends on the run seed, so each
/// sample is the same work, and one build takes only tens of
/// milliseconds, so a single reading would be at the mercy of one
/// context switch. The first block is a warm-up and is not kept.
fn setup_samples(w: Workload, seeds: &[u64]) -> Vec<f64> {
    (0..=SETUP_BLOCKS)
        .map(|_| seeds.iter().map(|&s| w.setup(s).setup_s).sum::<f64>() / seeds.len() as f64)
        .skip(1)
        .collect()
}

/// `--trace 0`: end-to-end metrics of plain runs.
fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let seeds = subseeds(w, args.seed);
    let setup_s = setup_samples(w, &seeds);
    let clock = Clock::start();
    let mut check = Check::new(w);
    let mut run_s = Vec::new();
    // Every run seed must run: the deterministic metrics average them.
    let min_reps = seeds.len().max(MIN_TIMED + 1);
    let mut reps = 0;
    while !done(reps, min_reps, &clock, args.seconds) {
        let sub = reps % seeds.len();
        let setup = w.setup(seeds[sub]);
        let (history, secs) = run_once(w, &setup, seeds[sub], None);
        check.observe(sub, history);
        if reps > 0 {
            run_s.push(secs);
        }
        reps += 1;
    }
    check.print_digests(&seeds);
    print_samples("run_s", &run_s);
    print_samples("setup_s", &setup_s);

    let final_accuracy = mean(check.histories().map(History::final_accuracy));
    let rounds_to_target = mean(check.histories().map(|h| rounds_to(h, w.target())));
    let upload_mib = mean(
        check
            .histories()
            .map(|h| h.total_upload_bytes() as f64 / ROUNDS as f64 / MIB),
    );
    let (mut sent, mut rejected) = (0usize, 0usize);
    for h in check.histories() {
        for r in &h.rounds {
            sent += r.participants.len() - r.fault_totals.dropouts;
            rejected += r.updates_rejected;
        }
    }
    let accept_ratio = (sent - rejected) as f64 / sent.max(1) as f64;
    let peak_rss = taco_trace::perf::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / MIB);
    Report {
        attempted: check.attempted,
        failed: check.failed,
        metrics: vec![
            metric("run_s", median(&run_s), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
            metric("final_accuracy", final_accuracy, "fraction"),
            metric("rounds_to_target", rounds_to_target, "rounds"),
            metric("upload_mib_per_round", upload_mib, "MiB"),
            metric("upload_accept_ratio", accept_ratio, "fraction"),
        ],
    }
}

/// Sum of a kernel histogram and its work counter, read before and after
/// a traced run.
fn kernel_totals() -> Vec<(f64, u64)> {
    KERNELS
        .iter()
        .map(|k| {
            (
                taco_trace::histogram(&format!("kernel.{k}.seconds"))
                    .snapshot()
                    .sum,
                taco_trace::counter(&format!("kernel.{k}.elems")).get(),
            )
        })
        .collect()
}

/// Per-layer numbers of one decorated run.
fn layers(
    t: &Tallies,
    kernels: &[(f64, u64)],
    h: &History,
    run_s: f64,
    threads: usize,
    generate_s: f64,
) -> Vec<Metric> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (matmul_s, matmul_madds) = kernels[0];
    let compute_s: f64 = h.rounds.iter().map(|r| r.total_client_seconds).sum();
    let busy_names = [
        "tensor.matmul.busy_s",
        "tensor.matmul_tn.busy_s",
        "tensor.matmul_nt.busy_s",
        "tensor.im2col.busy_s",
        "tensor.col2im.busy_s",
        "tensor.maxpool2d.busy_s",
    ];
    let mut m: Vec<Metric> = busy_names
        .iter()
        .zip(kernels)
        .map(|(name, &(secs, _))| metric(name, secs, "s"))
        .collect();
    m.extend([
        metric(
            "tensor.matmul.gflops",
            ratio(2.0 * matmul_madds as f64, matmul_s) / 1e9,
            "GFLOP/s",
        ),
        metric("nn.grad.calls", t.grad.calls() as f64, "count"),
        metric("nn.grad.busy_s", t.grad.busy_s, "s"),
        metric("nn.grad.p50_us", t.grad.p50() * 1e6, "us"),
        metric("nn.eval.calls", t.eval.calls() as f64, "count"),
        metric("nn.eval.busy_s", t.eval.busy_s, "s"),
        metric("nn.copy.calls", t.copy.calls() as f64, "count"),
        metric("nn.copy.busy_s", t.copy.busy_s, "s"),
        metric("core.local_rule.busy_s", t.local_rule.busy_s, "s"),
        metric("core.aggregate.calls", t.aggregate.calls() as f64, "count"),
        metric("core.aggregate.busy_s", t.aggregate.busy_s, "s"),
        metric("core.aggregate.p50_ms", t.aggregate.p50() * 1e3, "ms"),
        metric("core.plan.busy_s", t.plan.busy_s, "s"),
        metric("codec.encode.calls", t.encode.calls() as f64, "count"),
        metric("codec.encode.busy_s", t.encode.busy_s, "s"),
        metric(
            "codec.encode.gbps",
            ratio(t.encode_in_bytes as f64, t.encode.busy_s) / 1e9,
            "GB/s",
        ),
        metric("client.compute_s", compute_s, "s"),
        metric("client.overhead_s", compute_s - t.grad.busy_s, "s"),
        metric("sim.run_s", run_s, "s"),
        metric("sim.local_window_s", t.window_s, "s"),
        metric(
            "sim.parallel_eff",
            ratio(compute_s, t.window_s * threads as f64),
            "ratio",
        ),
        metric("sim.residual_s", run_s - t.window_s - t.outside_s, "s"),
        metric(
            "sim.reject.calls",
            h.total_updates_rejected() as f64,
            "count",
        ),
        metric("data.generate_s", generate_s, "s"),
    ]);
    m
}

/// `--trace 1`: per-layer metrics of decorated runs, each paired with a
/// plain run of the same seed that it must reproduce.
fn traced(args: &Args, threads: usize) -> Report {
    let w = args.workload;
    let seeds = subseeds(w, args.seed);
    let clock = Clock::start();
    let mut check = Check::new(w);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    // No deterministic metric here, so not every run seed has to run.
    let mut reps = 0;
    while !done(reps, MIN_TIMED + 1, &clock, args.seconds) {
        let sub = reps % seeds.len();
        let setup = w.setup(seeds[sub]);
        let probe = Probe::new();
        let traced_run = || {
            let before = kernel_totals();
            let (h, secs) = run_once(w, &setup, seeds[sub], Some(&probe));
            let after = kernel_totals();
            let delta: Vec<(f64, u64)> = before
                .iter()
                .zip(&after)
                .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
                .collect();
            (h, secs, delta)
        };
        // Alternate which run goes first so neither always runs warm.
        let (plain, (h, secs, delta)) = if reps % 2 == 0 {
            let p = run_once(w, &setup, seeds[sub], None);
            (p, traced_run())
        } else {
            let t = traced_run();
            (run_once(w, &setup, seeds[sub], None), t)
        };
        if reps > 0 {
            plain_s.push(plain.1);
            traced_s.push(secs);
            samples.push(layers(
                &probe.tallies(),
                &delta,
                &h,
                secs,
                threads,
                setup.generate_s,
            ));
        }
        check.observe(sub, plain.0);
        check.observe(sub, h);
        reps += 1;
    }
    check.print_digests(&seeds);
    println!("# traced pairs={}", samples.len());
    let mut metrics: Vec<Metric> = (0..samples.first().map_or(0, Vec::len))
        .map(|i| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            metric(samples[0][i].name, median(&values), samples[0][i].unit)
        })
        .collect();
    metrics.push(metric(
        "trace.overhead_ratio",
        median(&traced_s) / median(&plain_s),
        "ratio",
    ));
    let run_s = median(&traced_s);
    let share = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| 100.0 * m.value / run_s)
    };
    println!(
        "# shares of sim.run_s: local_window={:.1}% aggregate={:.1}% encode={:.1}% eval={:.1}% residual={:.1}%",
        share("sim.local_window_s"),
        share("core.aggregate.busy_s"),
        share("codec.encode.busy_s"),
        share("nn.eval.busy_s"),
        share("sim.residual_s"),
    );
    Report {
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}
