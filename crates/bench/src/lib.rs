//! Shared plumbing for the experiment harness.
//!
//! Every table and figure in the paper has a binary in `src/bin/`
//! (`table1`, `fig2`, ..., `fig7`) built from the pieces here: a
//! workload registry mirroring Table IV, an algorithm registry
//! mirroring the paper's baselines, and table/CSV reporting helpers.
//!
//! Scale: the paper trains full datasets for 50–200 rounds on a GPU;
//! the harness defaults to a laptop-scale configuration that preserves
//! the comparisons' *shape* (see EXPERIMENTS.md). Set `TACO_SCALE=paper`
//! to run closer to the paper's round/step counts.

#![deny(missing_docs)]

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use taco_core::taco::TacoConfig;
use taco_core::{
    AggWeighting, FedAcg, FedAvg, FedProx, FederatedAlgorithm, FoolsGold, HyperParams, Scaffold,
    Stem, Taco, TailoredProx, TailoredScaffold,
};
use taco_data::{partition, tabular, text, vision, FederatedDataset};
use taco_nn::{CharLstm, Mlp, Model, PaperCnn, TinyResNet};
use taco_sim::{History, SimConfig, Simulation};
use taco_tensor::Prng;
use taco_trace::{Sink, Value};

/// Salt folded into the run seed for workload data generation, so the
/// dataset-synthesis stream never aliases model init or the simulation
/// streams derived from the same seed.
const WORKLOAD_DATA_SALT: u64 = 0xDA7A;

/// Salt folded into the run seed for model-parameter initialisation,
/// kept distinct from [`WORKLOAD_DATA_SALT`] so data and weights draw
/// from independent streams.
const MODEL_INIT_SALT: u64 = 0x0DE1;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Local steps per round `K`.
    pub local_steps: usize,
    /// Training samples in the synthetic dataset.
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Mini-batch size `s`.
    pub batch_size: usize,
}

impl Scale {
    /// The default laptop-scale configuration.
    pub fn quick() -> Self {
        Scale {
            rounds: 15,
            local_steps: 12,
            train_n: 1200,
            test_n: 300,
            batch_size: 16,
        }
    }

    /// A configuration closer to the paper's (still reduced — the
    /// paper uses up to 200 rounds × 1000 steps on a GPU).
    pub fn paper() -> Self {
        Scale {
            rounds: 40,
            local_steps: 40,
            train_n: 4000,
            test_n: 800,
            batch_size: 64,
        }
    }

    /// Reads the scale from the `TACO_SCALE` environment variable
    /// (`quick` default, `paper` for the larger runs).
    pub fn from_env() -> Self {
        match taco_trace::env::scale_name().as_deref() {
            Some("paper") => Scale::paper(),
            _ => Scale::quick(),
        }
    }
}

/// How a workload's training data is split across clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionKind {
    /// The paper's synthetic Group A/B/C label-diversity split.
    SyntheticGroups,
    /// `Dir(φ)` label skew.
    Dirichlet(f64),
}

/// One dataset+model workload from Table IV, scaled for the harness.
pub struct Workload {
    /// Dataset name as reported in the paper's tables.
    pub name: String,
    /// The partitioned federation.
    pub fed: FederatedDataset,
    /// The model prototype (initial parameters shared by all runs).
    pub model: Box<dyn Model>,
    /// Shared FL hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds `T`.
    pub rounds: usize,
    /// Chance-level accuracy (1/classes).
    pub chance: f64,
    /// The target accuracy used for round/time-to-accuracy columns
    /// (the scaled analogue of the paper's per-dataset targets).
    pub target: f64,
    /// Group assignment when the partition is
    /// [`PartitionKind::SyntheticGroups`].
    pub groups: Option<Vec<partition::DiversityGroup>>,
}

/// Builds one of the eight Table IV workloads.
///
/// `name` ∈ {`mnist`, `fmnist`, `femnist`, `svhn`, `cifar10`,
/// `cifar100`, `adult`, `shakespeare`}. The default partition follows
/// Table IV (synthetic groups for MNIST/FMNIST/SVHN/CIFAR-10,
/// `Dir(0.2)` for FEMNIST, `Dir(0.5)` for CIFAR-100 and adult, native
/// per-client styles for Shakespeare); pass `partition_override` to
/// deviate (Table VI's sweeps).
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn workload(
    name: &str,
    clients: usize,
    seed: u64,
    scale: Scale,
    partition_override: Option<PartitionKind>,
) -> Workload {
    let mut rng = Prng::seed_from_u64(seed ^ WORKLOAD_DATA_SALT);
    let mut model_rng = Prng::seed_from_u64(seed ^ MODEL_INIT_SALT);
    let (fed, model, default_target, groups): (
        FederatedDataset,
        Box<dyn Model>,
        f64,
        Option<Vec<partition::DiversityGroup>>,
    ) = match name {
        "shakespeare" => {
            let spec = text::TextSpec::shakespeare_like(clients)
                .with_sizes(scale.train_n / clients, scale.test_n);
            let fed = text::generate(&spec, &mut rng);
            let model = CharLstm::new(28, 12, 32, &mut model_rng);
            (fed, Box::new(model), 0.30, None)
        }
        "adult" => {
            let spec = tabular::TabularSpec::adult_like().with_sizes(scale.train_n, scale.test_n);
            let data = tabular::generate(&spec, &mut rng);
            let part = partition_override.unwrap_or(PartitionKind::Dirichlet(0.5));
            let (shards, groups) = make_partition(data.train.labels(), clients, part, &mut rng);
            let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
            let model = Mlp::paper_adult(14, 2, &mut model_rng);
            (fed, Box::new(model), 0.78, groups)
        }
        _ => {
            let spec = match name {
                "mnist" => vision::VisionSpec::mnist_like(),
                "fmnist" => vision::VisionSpec::fmnist_like(),
                "femnist" => vision::VisionSpec::femnist_like(),
                "svhn" => vision::VisionSpec::svhn_like(),
                "cifar10" => vision::VisionSpec::cifar10_like(),
                "cifar100" => vision::VisionSpec::cifar100_like(),
                other => panic!("unknown workload {other}"),
            }
            .with_sizes(scale.train_n, scale.test_n);
            let default_part = match name {
                "femnist" => PartitionKind::Dirichlet(0.2),
                "cifar100" => PartitionKind::Dirichlet(0.5),
                _ => PartitionKind::SyntheticGroups,
            };
            let part = partition_override.unwrap_or(default_part);
            let data = vision::generate(&spec, &mut rng);
            let (shards, groups) = make_partition(data.train.labels(), clients, part, &mut rng);
            let classes = data.train.classes();
            let channels = data.train.sample_dims()[0];
            let side = data.train.sample_dims()[1];
            let fed = FederatedDataset::from_partition(data.train, data.test, &shards);
            let model: Box<dyn Model> = if name == "cifar100" {
                Box::new(TinyResNet::for_image(
                    channels,
                    side,
                    classes,
                    &mut model_rng,
                ))
            } else {
                Box::new(PaperCnn::for_image(channels, side, classes, &mut model_rng))
            };
            let target = match name {
                "mnist" => 0.85,
                "fmnist" => 0.70,
                "femnist" => 0.50,
                "svhn" => 0.60,
                "cifar10" => 0.55,
                "cifar100" => 0.25,
                _ => 0.5,
            };
            (fed, model, target, groups)
        }
    };
    let chance = 1.0 / fed.test().classes() as f64;
    // η_l is scaled per workload: the paper's 0.01 pairs with K in the
    // hundreds; at harness scale (K ≈ 10) the product K·η_l is kept in
    // the same regime. Shakespeare follows the paper in using a much
    // larger LSTM learning rate.
    let eta_l = match name {
        "shakespeare" => 0.3,
        "adult" => 0.05,
        _ => 0.03,
    };
    let hyper = HyperParams::new(clients, scale.local_steps, eta_l, scale.batch_size);
    Workload {
        name: name.to_string(),
        fed,
        model,
        hyper,
        rounds: scale.rounds,
        chance,
        target: default_target,
        groups,
    }
}

impl Workload {
    /// The workload's default simulation config for `seed`: its hyper-
    /// parameters and round count, parallel clients, all honest.
    pub fn config(&self, seed: u64) -> SimConfig {
        SimConfig::new(self.hyper, self.rounds, seed)
    }
}

fn make_partition(
    labels: &[usize],
    clients: usize,
    kind: PartitionKind,
    rng: &mut Prng,
) -> (Vec<Vec<usize>>, Option<Vec<partition::DiversityGroup>>) {
    match kind {
        PartitionKind::SyntheticGroups => {
            let (shards, groups) = partition::synthetic_groups(labels, clients, rng);
            (shards, Some(groups))
        }
        PartitionKind::Dirichlet(phi) => (partition::dirichlet(labels, clients, phi, rng), None),
    }
}

/// The paper's seven algorithms, in the order its tables list them.
pub const PAPER_ALGORITHMS: [&str; 7] = [
    "FedAvg",
    "FedProx",
    "FoolsGold",
    "Scaffold",
    "STEM",
    "FedACG",
    "TACO",
];

/// The paper's seven algorithms ([`PAPER_ALGORITHMS`]) with their
/// default hyper-parameters, each built by [`algorithm_by_name`].
pub fn all_algorithms(
    clients: usize,
    rounds: usize,
    local_steps: usize,
) -> Vec<Box<dyn FederatedAlgorithm>> {
    PAPER_ALGORITHMS
        .iter()
        .map(|name| algorithm_by_name(name, clients, rounds, local_steps))
        .collect()
}

/// Builds one algorithm by its paper name, with the paper's default
/// hyper-parameters (Section V-A): `ζ = 0.1`, SCAFFOLD `α = 1`, STEM
/// `α_t = 0.2`, FedACG `β = 0.001`, TACO `γ = 1/K`, `κ = 0.6`,
/// `λ = T/5`.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn algorithm_by_name(
    name: &str,
    clients: usize,
    rounds: usize,
    local_steps: usize,
) -> Box<dyn FederatedAlgorithm> {
    match name {
        "FedAvg" => Box::new(FedAvg::new(AggWeighting::Uniform)),
        "FedProx" => Box::new(FedProx::new(0.1)),
        "FoolsGold" => Box::new(FoolsGold::new()),
        "Scaffold" => Box::new(Scaffold::new(clients, 1.0)),
        // The paper's α_t = 0.2 pairs with K in the hundreds and
        // η_l = 0.01; at harness scale the per-step movement is larger
        // and the variance-reduction recursion with small α diverges,
        // so STEM's coefficient is re-tuned to 0.5 (kept constant) —
        // the same re-scaling applied to η_l and γ·K.
        "STEM" => Box::new(Stem::new(0.5).without_decay()),
        "FedACG" => Box::new(FedAcg::new(0.001)),
        "TACO" => Box::new(Taco::new(
            clients,
            TacoConfig::paper_default(rounds, local_steps),
        )),
        "FedProx+TACO" => Box::new(TailoredProx::new(clients, 0.1)),
        "Scaffold+TACO" => Box::new(TailoredScaffold::new(clients)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// Runs one algorithm on a workload under `config` (start from
/// [`Workload::config`]).
///
/// Every call is recorded into the experiment's run manifest (written
/// by [`report`] / [`report_csv_only`] next to the CSV artifact), and
/// its trace events go to the `TACO_TRACE` sink [`banner`] opened.
#[expect(
    clippy::disallowed_methods,
    reason = "the manifest reports each run's wall time; it never reaches the simulation"
)]
pub fn run(w: &Workload, algorithm: Box<dyn FederatedAlgorithm>, config: SimConfig) -> History {
    let algorithm_name = algorithm.name();
    let (seed, sequential) = (config.seed, !config.parallel);
    let sink = manifest_lock().as_ref().and_then(|m| m.sink.clone());
    let started = Instant::now();
    let mut sim = Simulation::new(w.fed.clone(), w.model.clone_model(), algorithm, config);
    if let Some(sink) = sink {
        sim = sim.with_sink(sink);
    }
    let history = sim.run();
    let wall_secs = started.elapsed().as_secs_f64();
    record_run(w, algorithm_name, seed, sequential, wall_secs, &history);
    history
}

// --- Run manifests -------------------------------------------------

struct ManifestState {
    slug: String,
    title: String,
    claim: String,
    started: Instant,
    runs: Vec<Value>,
    /// The experiment's `TACO_TRACE` sink, handed to every run.
    sink: Option<Arc<dyn Sink>>,
}

static MANIFEST: Mutex<Option<ManifestState>> = Mutex::new(None);

fn manifest_lock() -> std::sync::MutexGuard<'static, Option<ManifestState>> {
    MANIFEST
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn record_run(
    w: &Workload,
    algorithm: &str,
    seed: u64,
    sequential: bool,
    wall_secs: f64,
    history: &History,
) {
    let mut guard = manifest_lock();
    let Some(state) = guard.as_mut() else { return };
    let entry = Value::object(vec![
        ("workload".to_string(), Value::from(w.name.as_str())),
        ("algorithm".to_string(), Value::from(algorithm)),
        ("seed".to_string(), Value::from(seed)),
        ("clients".to_string(), Value::from(w.hyper.num_clients)),
        ("sequential".to_string(), Value::from(sequential)),
        ("rounds_run".to_string(), Value::from(history.rounds.len())),
        (
            "final_accuracy".to_string(),
            Value::from(history.final_accuracy()),
        ),
        (
            "best_accuracy".to_string(),
            Value::from(history.best_accuracy()),
        ),
        (
            "upload_bytes".to_string(),
            Value::from(history.total_upload_bytes()),
        ),
        (
            "expelled".to_string(),
            Value::from(history.expelled_clients.len()),
        ),
        (
            "faults_injected".to_string(),
            Value::from(history.total_faults_injected()),
        ),
        (
            "updates_rejected".to_string(),
            Value::from(history.total_updates_rejected()),
        ),
        ("fault_totals".to_string(), {
            let t = history.fault_totals();
            Value::object(vec![
                ("dropouts".to_string(), Value::from(t.dropouts)),
                ("stragglers".to_string(), Value::from(t.stragglers)),
                ("corruptions".to_string(), Value::from(t.corruptions)),
                ("deadline_cuts".to_string(), Value::from(t.deadline_cuts)),
                ("quarantined".to_string(), Value::from(t.quarantined)),
            ])
        }),
        ("wall_secs".to_string(), Value::from(wall_secs)),
    ]);
    state.runs.push(entry);
}

/// Build metadata (crate version, debug/release profile, OS, arch)
/// stamped into every run manifest.
fn build_info() -> Value {
    Value::object(vec![
        (
            "version".to_string(),
            Value::from(env!("CARGO_PKG_VERSION")),
        ),
        (
            "profile".to_string(),
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os".to_string(), Value::from(std::env::consts::OS)),
        ("arch".to_string(), Value::from(std::env::consts::ARCH)),
    ])
}

fn scale_info() -> Value {
    let scale = Scale::from_env();
    let name = match taco_trace::env::scale_name().as_deref() {
        Some("paper") => "paper",
        _ => "quick",
    };
    Value::object(vec![
        ("name".to_string(), Value::from(name)),
        ("rounds".to_string(), Value::from(scale.rounds)),
        ("local_steps".to_string(), Value::from(scale.local_steps)),
        ("train_n".to_string(), Value::from(scale.train_n)),
        ("test_n".to_string(), Value::from(scale.test_n)),
        ("batch_size".to_string(), Value::from(scale.batch_size)),
    ])
}

/// Writes (or rewrites) `results/<slug>_manifest.json` from the runs
/// recorded so far. Called by [`report`] / [`report_csv_only`] after
/// each CSV artifact so the manifest is complete by the time the
/// binary exits, however many tables it prints.
fn write_manifest() {
    let guard = manifest_lock();
    let Some(state) = guard.as_ref() else { return };
    let manifest = Value::object(vec![
        ("experiment".to_string(), Value::from(state.slug.as_str())),
        ("title".to_string(), Value::from(state.title.as_str())),
        ("paper_claim".to_string(), Value::from(state.claim.as_str())),
        (
            "unix_ms".to_string(),
            Value::from(taco_trace::event::unix_ms_now()),
        ),
        ("build".to_string(), build_info()),
        ("scale".to_string(), scale_info()),
        (
            "total_wall_secs".to_string(),
            Value::from(state.started.elapsed().as_secs_f64()),
        ),
        ("runs".to_string(), Value::Array(state.runs.clone())),
        ("trace".to_string(), taco_trace::snapshot().to_value()),
    ]);
    let dir = results_dir();
    let path = dir.join(format!("{}_manifest.json", state.slug));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", manifest.to_json())
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Formats `rounds_to_accuracy`-style results the way the paper's
/// Table V does: a number, `T+` when unreached but still climbing, or
/// `×` on divergence.
pub fn format_rounds(history: &History, target: f64, total_rounds: usize, chance: f64) -> String {
    match history.rounds_to_accuracy(target) {
        Some(r) => r.to_string(),
        None if history.diverged(chance) => "x".to_string(),
        None => format!("{total_rounds}+"),
    }
}

/// Prints an aligned text table and writes it as CSV to
/// `results/<name>.csv`.
pub fn report(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    // Column widths.
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", line(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row));
    }
    // CSV artifact.
    if let Err(e) = write_csv(name, headers, rows) {
        eprintln!("warning: could not write results/{name}.csv: {e}");
    }
    write_manifest();
}

/// Writes rows to `results/<name>.csv` without printing a table (used
/// for the long per-round series backing the paper's figures).
pub fn report_csv_only(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Err(e) = write_csv(name, headers, rows) {
        eprintln!("warning: could not write results/{name}.csv: {e}");
    }
    write_manifest();
}

/// The artifact directory: `results/` unless overridden by the
/// `TACO_RESULTS_DIR` environment variable (tests point it at a
/// scratch directory).
pub fn results_dir() -> std::path::PathBuf {
    taco_trace::env::results_dir().unwrap_or_else(|| std::path::PathBuf::from("results"))
}

fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        writeln!(f, "{}", escaped.join(","))?;
    }
    Ok(())
}

/// Flushes the run manifest when dropped — including during the
/// unwind of a panicking scenario, so a crashed experiment still
/// leaves `results/<slug>_manifest.json` describing every run that
/// completed before the crash.
///
/// Returned by [`banner`]; hold it (`let _manifest = banner(...)`)
/// for the duration of the experiment.
#[must_use = "hold the guard for the whole run: dropping it flushes the run manifest"]
pub struct ManifestGuard {
    _priv: (),
}

impl Drop for ManifestGuard {
    fn drop(&mut self) {
        write_manifest();
    }
}

/// Paper-vs-measured banner printed at the top of every experiment
/// binary.
///
/// `slug` names the experiment's artifacts (`results/<slug>.csv`,
/// `results/<slug>_manifest.json`); `title` and `paper_claim` are the
/// human-readable header. Also opens the JSONL trace sink the
/// `TACO_TRACE` environment variable names, which [`run`] hands to
/// every simulation, and starts the run manifest.
/// The returned [`ManifestGuard`] re-flushes the manifest on drop so
/// it survives a mid-run panic; [`report`] / [`report_csv_only`]
/// still flush eagerly after every artifact.
#[expect(
    clippy::disallowed_methods,
    reason = "the manifest reports the experiment's wall time"
)]
pub fn banner(slug: &str, title: &str, paper_claim: &str) -> ManifestGuard {
    *manifest_lock() = Some(ManifestState {
        slug: slug.to_string(),
        title: title.to_string(),
        claim: paper_claim.to_string(),
        started: Instant::now(),
        runs: Vec::new(),
        sink: taco_trace::sink_from_env(),
    });
    println!("== {title} ==");
    println!("paper: {paper_claim}");
    println!();
    ManifestGuard { _priv: () }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_registry_covers_table_iv() {
        let scale = Scale {
            rounds: 2,
            local_steps: 2,
            train_n: 60,
            test_n: 30,
            batch_size: 8,
        };
        for name in [
            "mnist",
            "fmnist",
            "femnist",
            "svhn",
            "cifar10",
            "adult",
            "shakespeare",
        ] {
            let w = workload(name, 3, 1, scale, None);
            assert_eq!(w.fed.num_clients(), 3, "{name}");
            assert!(w.chance > 0.0 && w.chance <= 0.5, "{name}");
        }
    }

    #[test]
    fn all_algorithms_have_unique_names() {
        let algs = all_algorithms(4, 10, 5);
        let names: Vec<&str> = algs.iter().map(|a| a.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn algorithm_by_name_round_trips() {
        for n in [
            "FedAvg",
            "FedProx",
            "FoolsGold",
            "Scaffold",
            "STEM",
            "FedACG",
            "TACO",
            "FedProx+TACO",
            "Scaffold+TACO",
        ] {
            assert_eq!(algorithm_by_name(n, 2, 10, 5).name(), n);
        }
    }

    #[test]
    fn manifest_is_flushed_even_when_a_scenario_panics() {
        let dir = std::env::temp_dir().join(format!("taco_bench_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TACO_RESULTS_DIR", &dir);
        let result = std::panic::catch_unwind(|| {
            let _manifest = banner("panicky", "panic drill", "n/a");
            panic!("scenario blew up mid-run");
        });
        std::env::remove_var("TACO_RESULTS_DIR");
        assert!(result.is_err(), "the drill is supposed to panic");
        let text = std::fs::read_to_string(dir.join("panicky_manifest.json"))
            .expect("manifest must exist after the panic unwound the guard");
        assert!(text.contains("panicky"), "{text}");
        assert!(text.contains("runs"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_rounds_variants() {
        use taco_sim::RoundRecord;
        let mk = |accs: &[f64]| History {
            algorithm: "t".into(),
            rounds: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| RoundRecord {
                    round: i,
                    test_accuracy: a,
                    ..RoundRecord::default()
                })
                .collect(),
            expelled_clients: vec![],
        };
        assert_eq!(format_rounds(&mk(&[0.2, 0.6]), 0.5, 2, 0.1), "2");
        assert_eq!(format_rounds(&mk(&[0.2, 0.3]), 0.5, 2, 0.1), "2+");
        assert_eq!(format_rounds(&mk(&[0.2, 0.6, 0.05]), 0.9, 3, 0.1), "x");
    }
}
