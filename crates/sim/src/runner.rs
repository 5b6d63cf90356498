//! The parameter-server round loop.
//!
//! [`Simulation::run`] reads as the paper's Algorithm 1: each round is
//! planned (`plan::plan_round`: expulsion filtering, participation and
//! fault draws), executed (local steps and freeloader echoes), uploaded
//! (`server::process_uploads`), aggregated (the algorithm's
//! `aggregate`) and recorded as one [`RoundRecord`], from which the
//! JSONL `round` event is derived.

use crate::client::{self, ClientJob};
use crate::fault::{FaultKind, FaultPlan};
use crate::freeloader::ClientBehavior;
use crate::metrics::{FaultTotals, History, RoundRecord};
use crate::plan::{plan_round, RoundPlan};
use crate::server::{self, UploadOutcome};
use std::sync::Arc;
use taco_core::compress::Compressor;
use taco_core::{ClientUpdate, FederatedAlgorithm, HyperParams};
use taco_data::FederatedDataset;
use taco_nn::{Batch, Model};
use taco_tensor::ops;
use taco_trace::{self as trace, Sink};

/// Batch size of the global model's test-set evaluation, which runs
/// after every round.
const EVAL_BATCH: usize = 64;

/// Which clients take part in each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Participation {
    /// Every client participates every round (the paper's setting).
    Full,
    /// A uniformly random subset of `⌈fraction·N⌉` clients per round
    /// (classic partial participation; deterministic given the run
    /// seed).
    Sample {
        /// Fraction of clients sampled per round, in `(0, 1]`.
        fraction: f64,
    },
}

/// Configuration of a simulation run.
///
/// The fields are public; [`Simulation::new`] checks them with the
/// same rules the builders apply, so a field set directly cannot reach
/// the round loop malformed.
#[derive(Clone)]
pub struct SimConfig {
    /// Shared FL hyper-parameters.
    pub hyper: HyperParams,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Base seed; every stochastic component derives from it.
    pub seed: u64,
    /// Per-client behaviours; defaults to all-honest.
    pub behaviors: Vec<ClientBehavior>,
    /// Run client jobs as parallel tasks on the shared worker pool
    /// ([`taco_tensor::pool`], sized by `TACO_THREADS`). Kernels inside
    /// a pooled client run inline, so total concurrency never exceeds
    /// the pool size; when the pool has one thread this flag is a
    /// no-op. It governs the client jobs only: the server's upload
    /// stage and its kernels use the pool either way. Timing
    /// experiments (Table I, Fig. 5) should disable it so per-client
    /// wall-clock measurements don't contend for cores. Histories are
    /// bit-identical whatever this flag or the thread count — see the
    /// pool module docs.
    pub parallel: bool,
    /// Client participation scheme.
    pub participation: Participation,
    /// Per-client local step counts `τ_i` (system heterogeneity; used
    /// by FedNova-style normalized aggregation). `None` means every
    /// client runs `hyper.local_steps`.
    pub local_steps_per_client: Option<Vec<usize>>,
    /// Lossy codec applied to every honest upload `Δ_i` before it
    /// reaches the server, with its wire size recorded per round.
    pub upload_compressor: Option<Arc<dyn Compressor>>,
    /// Deterministic fault injection (dropouts, stragglers, wire
    /// corruption) plus server-side deadline and update validation.
    /// `None` disables the subsystem entirely — trajectories are
    /// bit-identical to a plan-free run.
    pub fault_plan: Option<FaultPlan>,
}

impl SimConfig {
    /// Creates a config with the defaults used throughout the
    /// experiment harness: parallel clients, full participation, all
    /// clients honest.
    pub fn new(hyper: HyperParams, rounds: usize, seed: u64) -> Self {
        SimConfig {
            hyper,
            rounds,
            seed,
            behaviors: vec![ClientBehavior::Honest; hyper.num_clients],
            parallel: true,
            participation: Participation::Full,
            local_steps_per_client: None,
            upload_compressor: None,
            fault_plan: None,
        }
    }

    /// Panics, naming the field, when a public field breaks a rule the
    /// round loop relies on. The builders and [`Simulation::new`] both
    /// call it.
    fn check(&self) {
        let n = self.hyper.num_clients;
        assert_eq!(
            self.behaviors.len(),
            n,
            "behaviors has {} entries but hyper says {n} clients",
            self.behaviors.len()
        );
        if let Some(steps) = &self.local_steps_per_client {
            assert_eq!(
                steps.len(),
                n,
                "local_steps_per_client has {} entries but hyper says {n} clients",
                steps.len()
            );
            assert!(
                steps.iter().all(|&s| s > 0),
                "local_steps_per_client entries must be positive"
            );
        }
        if let Participation::Sample { fraction } = self.participation {
            assert!(
                fraction > 0.0 && fraction <= 1.0,
                "participation fraction must be in (0, 1], got {fraction}"
            );
        }
    }

    /// Builder-style upload-compression override.
    pub fn with_compressor(mut self, compressor: Arc<dyn Compressor>) -> Self {
        self.upload_compressor = Some(compressor);
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style partial-participation override.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn with_participation(mut self, fraction: f64) -> Self {
        self.participation = Participation::Sample { fraction };
        self.check();
        self
    }

    /// Builder-style heterogeneous local-step override.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the client count or any step
    /// count is zero.
    pub fn with_local_steps(mut self, steps: Vec<usize>) -> Self {
        self.local_steps_per_client = Some(steps);
        self.check();
        self
    }

    /// Builder-style behaviour override.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the client count.
    pub fn with_behaviors(mut self, behaviors: Vec<ClientBehavior>) -> Self {
        self.behaviors = behaviors;
        self.check();
        self
    }

    /// Builder-style override that runs client jobs sequentially (for
    /// timing runs).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}
impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("hyper", &self.hyper)
            .field("rounds", &self.rounds)
            .field("seed", &self.seed)
            .field("behaviors", &self.behaviors)
            .field("parallel", &self.parallel)
            .field("participation", &self.participation)
            .field("local_steps_per_client", &self.local_steps_per_client)
            .field(
                "upload_compressor",
                &self.upload_compressor.as_ref().map(|c| c.name()),
            )
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

/// A federated-learning simulation: one algorithm, one federation, one
/// model architecture, and optionally the sink its trace events go to
/// ([`Simulation::with_sink`]).
pub struct Simulation {
    fed: FederatedDataset,
    prototype: Box<dyn Model>,
    algorithm: Box<dyn FederatedAlgorithm>,
    config: SimConfig,
    eval_batches: Vec<Batch>,
    sink: Option<Arc<dyn Sink>>,
}

/// Seconds spent in each phase of one round (see [`crate::phase`]).
#[derive(Default)]
struct PhaseSecs {
    round: f64,
    participation: f64,
    local: f64,
    compress: f64,
    aggregate: f64,
    eval: f64,
}

/// Counts one occurrence on `counter` and, only when the run has a
/// sink, records a `kind` event for `round` carrying the fields
/// `fields` adds.
pub(crate) fn note(
    sink: Option<&dyn Sink>,
    counter: &str,
    kind: &str,
    round: usize,
    fields: impl FnOnce(trace::Event) -> trace::Event,
) {
    trace::counter(counter).incr();
    if let Some(sink) = sink {
        sink.record(&fields(trace::Event::new(kind).with("round", round)));
    }
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the federation's client count differs from
    /// `config.hyper.num_clients`, or if a config field breaks the
    /// rules its builder enforces.
    pub fn new(
        fed: FederatedDataset,
        prototype: Box<dyn Model>,
        algorithm: Box<dyn FederatedAlgorithm>,
        config: SimConfig,
    ) -> Self {
        assert_eq!(
            fed.num_clients(),
            config.hyper.num_clients,
            "federation has {} clients but hyper says {}",
            fed.num_clients(),
            config.hyper.num_clients
        );
        config.check();
        let eval_batches = fed.test().eval_batches(EVAL_BATCH);
        Simulation {
            fed,
            prototype,
            algorithm,
            config,
            eval_batches,
            sink: None,
        }
    }

    /// Sends this run's trace events to `sink`: a `span` event per
    /// client job, the `fault` events and one `round` event per round,
    /// recorded on the round thread in a fixed order, and a flush when
    /// the run ends. Without a sink the run builds no events.
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the full training loop and returns the trajectory.
    pub fn run(mut self) -> History {
        let sink = self.sink.clone();
        let sink = sink.as_deref();
        let mut global = self.prototype.params();
        let mut prev_global = global.clone();
        let mut history = History {
            algorithm: self.algorithm.name().to_string(),
            rounds: Vec::with_capacity(self.config.rounds),
            expelled_clients: Vec::new(),
        };
        let hyper = self.config.hyper;
        for round in 0..self.config.rounds {
            // Phase spans use the stable names in [`crate::phase`]:
            // their `.seconds` histograms feed the run manifests, and
            // the round event carries their readings as `*_secs`.
            let round_span = trace::Span::quiet(crate::phase::ROUND);
            let draw_span = trace::Span::quiet(crate::phase::PARTICIPATION);
            self.algorithm.begin_round(round, &global);
            let plan = plan_round(&self.config, round, &self.algorithm.expelled());
            // Only a fully-expelled federation freezes training; every
            // other degenerate round (nothing sampled, everyone dropped
            // or quarantined) is recorded as empty and the run
            // continues.
            if plan.eligible.is_empty() {
                break;
            }
            let faults = note_faults(sink, &plan);
            let (jobs, mut echoes) = self.build_jobs(&plan, &global, &prev_global);
            trace::counter("sim.clients_skipped")
                .add((hyper.num_clients - plan.participants.len()) as u64);
            let mut secs = PhaseSecs {
                participation: draw_span.finish(),
                ..PhaseSecs::default()
            };
            let local_span = trace::Span::quiet(crate::phase::LOCAL);
            let mut updates = client::execute_jobs(
                &mut *self.prototype,
                &self.fed,
                &global,
                jobs,
                round,
                &self.config,
            );
            if let Some(sink) = sink {
                note_client_steps(sink, round, &updates);
            }
            updates.append(&mut echoes);
            updates.sort_by_key(|u| u.client);
            secs.local = local_span.finish();
            let outcome = server::process_uploads(
                sink,
                &self.config,
                &plan.faults,
                round,
                updates,
                self.algorithm.as_mut(),
            );
            secs.compress = outcome.compress_secs;
            // A round with no surviving updates holds the global model
            // and is still recorded, so the trajectory keeps its round
            // indexing.
            let aggregate_span = trace::Span::quiet(crate::phase::AGGREGATE);
            let next = if outcome.accepted.is_empty() {
                global.clone()
            } else {
                self.algorithm.aggregate(&global, &outcome.accepted, &hyper)
            };
            secs.aggregate = aggregate_span.finish();
            prev_global = std::mem::replace(&mut global, next);
            let eval_span = trace::Span::quiet(crate::phase::EVAL);
            let test = evaluate(
                &mut *self.prototype,
                &*self.algorithm,
                &self.eval_batches,
                &global,
            );
            secs.eval = eval_span.finish();
            let last = history.rounds.last();
            let record = self.record(plan, faults, &outcome, test, last);
            trace::counter("sim.rounds").incr();
            secs.round = round_span.finish();
            if let Some(sink) = sink {
                sink.record(&self.round_event(&record, &secs));
            }
            history.rounds.push(record);
        }
        if let Some(sink) = sink {
            sink.flush();
        }
        history.expelled_clients = self.algorithm.expelled();
        history
    }

    /// This round's work: a local-training job for every honest
    /// participant and the echoed upload of every freeloader. Dropped
    /// clients get neither: their update never arrives, so honest
    /// dropouts also skip the wasted computation.
    fn build_jobs(
        &self,
        plan: &RoundPlan,
        global: &[f32],
        prev_global: &[f32],
    ) -> (Vec<ClientJob>, Vec<ClientUpdate>) {
        let mut jobs = Vec::new();
        let mut echoes = Vec::new();
        for &client in &plan.participants {
            if plan.faults[client] == Some(FaultKind::Dropout) {
                continue;
            }
            let num_samples = self.fed.client(client).len();
            if !self.config.behaviors[client].is_freeloader() {
                jobs.push(ClientJob {
                    client,
                    rule: self.algorithm.local_rule(client, global),
                    num_samples,
                    steps: self
                        .config
                        .local_steps_per_client
                        .as_ref()
                        .map_or(self.config.hyper.local_steps, |s| s[client]),
                });
                continue;
            }
            // A freeloader uploads the previous global update verbatim
            // (Section IV-A): Δ_i = w_{t−1} − w_t, the parameter-space
            // image of the last Δ_t.
            let delta = ops::sub(prev_global, global);
            let dim = delta.len();
            echoes.push(ClientUpdate {
                client,
                delta,
                num_samples,
                final_v: self.algorithm.uploads_momentum().then(|| vec![0.0; dim]),
                mean_loss: 0.0,
                grad_evals: 0,
                steps: 0,
                compute_seconds: 0.0,
            });
        }
        (jobs, echoes)
    }

    /// The round's record. A round without an honest upload carries the
    /// previous train loss forward (a 0.0 would plot as a perfect loss)
    /// and marks it carried.
    fn record(
        &self,
        plan: RoundPlan,
        faults: FaultTotals,
        outcome: &UploadOutcome,
        (test_loss, test_accuracy): (f64, f64),
        last: Option<&RoundRecord>,
    ) -> RoundRecord {
        let accepted = &outcome.accepted;
        let honest: Vec<f64> = accepted
            .iter()
            .filter(|u| self.config.behaviors[u.client] == ClientBehavior::Honest)
            .map(|u| u.mean_loss as f64)
            .collect();
        let train_loss_carried = honest.is_empty();
        let train_loss = if train_loss_carried {
            last.map_or(0.0, |r| r.train_loss)
        } else {
            honest.iter().sum::<f64>() / honest.len() as f64
        };
        let mut suspected = self.algorithm.suspected();
        suspected.sort_unstable();
        suspected.dedup();
        RoundRecord {
            round: plan.round,
            test_accuracy,
            test_loss,
            train_loss,
            train_loss_carried,
            max_client_seconds: accepted
                .iter()
                .map(|u| u.compute_seconds)
                .fold(0.0, f64::max),
            total_client_seconds: accepted.iter().map(|u| u.compute_seconds).sum(),
            alphas: self.algorithm.alphas().map(<[f32]>::to_vec),
            expelled: self.algorithm.expelled().len(),
            upload_bytes: outcome.upload_bytes,
            faults_injected: faults.injected(),
            updates_rejected: outcome.updates_rejected(),
            participants: plan.participants,
            suspected,
            attacks_applied: 0,
            fault_totals: FaultTotals {
                deadline_cuts: outcome.deadline_cuts,
                quarantined: outcome.quarantined,
                ..faults
            },
            tracked_states: self.algorithm.tracked_client_states(),
        }
    }

    /// The JSONL `round` event: the record's fields plus the round's
    /// phase timings.
    fn round_event(&self, r: &RoundRecord, secs: &PhaseSecs) -> trace::Event {
        let participants = r.participants.len();
        let event = trace::Event::new("round")
            .with("round", r.round)
            .with("algorithm", self.algorithm.name())
            .with(
                "clients_active",
                participants - r.fault_totals.dropouts - r.updates_rejected,
            )
            .with(
                "clients_skipped",
                self.config.hyper.num_clients - participants,
            )
            .with("expelled", r.expelled)
            .with("faults_injected", r.faults_injected)
            .with("updates_rejected", r.updates_rejected)
            .with("suspected", r.suspected.len())
            .with("tracked_states", r.tracked_states)
            .with("upload_bytes", r.upload_bytes)
            .with("train_loss", r.train_loss)
            .with("train_loss_carried", r.train_loss_carried)
            .with("test_accuracy", r.test_accuracy)
            .with("test_loss", r.test_loss)
            .with("secs", secs.round)
            .with("participation_secs", secs.participation)
            .with("local_secs", secs.local)
            .with("compress_secs", secs.compress)
            .with("aggregate_secs", secs.aggregate)
            .with("eval_secs", secs.eval)
            .with("max_client_secs", r.max_client_seconds)
            .with("total_client_secs", r.total_client_seconds);
        let Some(a) = &r.alphas else { return event };
        let mean = a.iter().map(|&x| x as f64).sum::<f64>() / a.len().max(1) as f64;
        let min = a.iter().copied().fold(f32::INFINITY, f32::min);
        let max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        event
            .with("alpha_mean", mean)
            .with("alpha_min", min)
            .with("alpha_max", max)
    }
}

/// Test loss and accuracy of the algorithm's reported parameters,
/// loaded into `model` first.
fn evaluate(
    model: &mut dyn Model,
    algorithm: &dyn FederatedAlgorithm,
    batches: &[Batch],
    global: &[f32],
) -> (f64, f64) {
    model.set_params(&algorithm.output_params(global));
    let (loss, accuracy) = taco_nn::evaluate(model, batches);
    (loss as f64, accuracy as f64)
}

/// Records one `span` event per finished client job, in the jobs'
/// (client) order: the job's measured compute seconds, its client and
/// its local step count.
fn note_client_steps(sink: &dyn Sink, round: usize, updates: &[ClientUpdate]) {
    for u in updates {
        sink.record(
            &trace::Event::new("span")
                .with("name", crate::phase::CLIENT_STEP)
                .with("secs", u.compute_seconds)
                .with("round", round)
                .with("client", u.client)
                .with("steps", u.steps),
        );
    }
}

/// Tallies the plan's fault draws, reporting each one.
fn note_faults(sink: Option<&dyn Sink>, plan: &RoundPlan) -> FaultTotals {
    let mut totals = FaultTotals::default();
    for (client, kind) in plan.faults.iter().enumerate() {
        let Some(kind) = kind else { continue };
        let (count, counter) = match kind {
            FaultKind::Dropout => (&mut totals.dropouts, "sim.faults.dropout"),
            FaultKind::Straggler { .. } => (&mut totals.stragglers, "sim.faults.straggler"),
            FaultKind::Corrupt(_) => (&mut totals.corruptions, "sim.faults.corrupt"),
        };
        *count += 1;
        note(sink, counter, "fault", plan.round, |e| {
            e.with("client", client).with("fault", kind.label())
        });
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use taco_core::{AggWeighting, FedAvg, LocalRule, Taco};
    use taco_data::{partition, tabular};
    use taco_nn::Mlp;
    use taco_tensor::Prng;

    fn small_fed(clients: usize, seed: u64) -> FederatedDataset {
        let mut rng = Prng::seed_from_u64(seed);
        let spec = tabular::TabularSpec::adult_like().with_sizes(240, 80);
        let data = tabular::generate(&spec, &mut rng);
        let shards = partition::dirichlet(data.train.labels(), clients, 0.5, &mut rng);
        FederatedDataset::from_partition(data.train, data.test, &shards)
    }

    fn mlp(seed: u64) -> Box<dyn Model> {
        let mut rng = Prng::seed_from_u64(seed);
        Box::new(Mlp::new(14, &[16, 8], 2, &mut rng))
    }

    #[test]
    fn fedavg_learns_the_tabular_task() {
        let fed = small_fed(4, 1);
        let hyper = HyperParams::new(4, 10, 0.05, 16);
        let config = SimConfig::new(hyper, 10, 42);
        let history = Simulation::new(fed, mlp(1), Box::new(FedAvg::default()), config).run();
        assert_eq!(history.rounds.len(), 10);
        assert!(
            history.final_accuracy() > 0.6,
            "accuracy only {}",
            history.final_accuracy()
        );
    }

    /// Zeroes the measured wall-clock fields so two runs can be
    /// compared for bit-identical *learning* trajectories.
    fn zero_timing(mut h: History) -> History {
        for r in &mut h.rounds {
            r.max_client_seconds = 0.0;
            r.total_client_seconds = 0.0;
        }
        h
    }

    #[test]
    fn same_seed_same_history_parallel_or_not() {
        let hyper = HyperParams::new(4, 5, 0.05, 16);
        let run = |sequential: bool| {
            let config = SimConfig::new(hyper, 4, 7);
            let config = if sequential {
                config.sequential()
            } else {
                config
            };
            Simulation::new(small_fed(4, 2), mlp(2), Box::new(FedAvg::default()), config).run()
        };
        let parallel_a = zero_timing(run(false));
        let parallel_b = zero_timing(run(false));
        let sequential = zero_timing(run(true));
        // Bit-identical modulo measured timing: every accuracy, loss,
        // alpha, byte count, and expulsion matches field-for-field.
        assert_eq!(parallel_a, parallel_b);
        assert_eq!(parallel_a, sequential);
    }

    #[test]
    fn different_seeds_differ() {
        let hyper = HyperParams::new(4, 5, 0.05, 16);
        let h1 = Simulation::new(
            small_fed(4, 3),
            mlp(3),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 3, 1),
        )
        .run();
        let h2 = Simulation::new(
            small_fed(4, 3),
            mlp(3),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 3, 2),
        )
        .run();
        assert_ne!(h1.accuracy_series(), h2.accuracy_series());
    }

    #[test]
    fn taco_runs_with_freeloaders_and_records_alphas() {
        let fed = small_fed(5, 4);
        let hyper = HyperParams::new(5, 5, 0.05, 16);
        let taco = Taco::new(5, taco_core::taco::TacoConfig::paper_default(8, 5));
        let behaviors = crate::freeloader::with_freeloaders(5, 2);
        let config = SimConfig::new(hyper, 8, 11).with_behaviors(behaviors);
        let history = Simulation::new(fed, mlp(4), Box::new(taco), config).run();
        assert_eq!(history.rounds.len(), 8);
        let alphas = history.rounds.last().unwrap().alphas.as_ref().unwrap();
        assert_eq!(alphas.len(), 5);
        let _ = AggWeighting::Uniform; // silence unused import in cfg(test)
    }

    #[test]
    fn partial_participation_runs_and_learns() {
        let fed = small_fed(6, 7);
        let hyper = HyperParams::new(6, 8, 0.05, 16);
        let config = SimConfig::new(hyper, 10, 3).with_participation(0.5);
        let history = Simulation::new(fed, mlp(7), Box::new(FedAvg::default()), config).run();
        assert_eq!(history.rounds.len(), 10);
        assert!(
            history.best_accuracy() > 0.6,
            "partial participation stuck at {}",
            history.best_accuracy()
        );
    }

    #[test]
    fn partial_participation_is_deterministic() {
        let hyper = HyperParams::new(6, 4, 0.05, 8);
        let run = || {
            Simulation::new(
                small_fed(6, 8),
                mlp(8),
                Box::new(FedAvg::default()),
                SimConfig::new(hyper, 5, 99).with_participation(0.34),
            )
            .run()
        };
        assert_eq!(run().accuracy_series(), run().accuracy_series());
    }

    #[test]
    fn heterogeneous_steps_feed_fednova() {
        let fed = small_fed(4, 9);
        let hyper = HyperParams::new(4, 8, 0.05, 16);
        let config = SimConfig::new(hyper, 8, 5).with_local_steps(vec![2, 4, 8, 16]);
        let history =
            Simulation::new(fed, mlp(9), Box::new(taco_core::FedNova::default()), config).run();
        assert!(
            history.best_accuracy() > 0.6,
            "FedNova under system heterogeneity stuck at {}",
            history.best_accuracy()
        );
    }

    #[test]
    fn compressed_uploads_still_learn_and_count_bytes() {
        let fed = small_fed(4, 12);
        let hyper = HyperParams::new(4, 8, 0.05, 16);
        let plain = SimConfig::new(hyper, 8, 6);
        let compressed = SimConfig::new(hyper, 8, 6)
            .with_compressor(Arc::new(taco_core::compress::TopK::new(0.1)));
        let h_plain = Simulation::new(
            small_fed(4, 12),
            mlp(12),
            Box::new(FedAvg::default()),
            plain,
        )
        .run();
        let h_comp = Simulation::new(fed, mlp(12), Box::new(FedAvg::default()), compressed).run();
        assert!(
            h_comp.total_upload_bytes() < h_plain.total_upload_bytes() / 2,
            "compression did not shrink uploads: {} vs {}",
            h_comp.total_upload_bytes(),
            h_plain.total_upload_bytes()
        );
        assert!(
            h_comp.best_accuracy() > 0.6,
            "compressed run stuck at {}",
            h_comp.best_accuracy()
        );
    }

    /// FedAvg with a fixed pre-expelled set, for exercising the
    /// runner's eligible-set handling without real detection.
    struct ForcedExpulsion {
        inner: FedAvg,
        expelled: Vec<usize>,
    }

    impl FederatedAlgorithm for ForcedExpulsion {
        fn name(&self) -> &'static str {
            "forced-expulsion"
        }
        fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
            self.inner.local_rule(client, global)
        }
        fn aggregate(
            &mut self,
            global: &[f32],
            updates: &[ClientUpdate],
            hyper: &HyperParams,
        ) -> Vec<f32> {
            self.inner.aggregate(global, updates, hyper)
        }
        fn expelled(&self) -> Vec<usize> {
            self.expelled.clone()
        }
    }

    /// TACO behind a decorator that forwards `aggregate` and the plan
    /// methods, counting the server's `aggregate` calls.
    struct CountingAggregate {
        inner: Taco,
        calls: Arc<AtomicUsize>,
    }

    impl FederatedAlgorithm for CountingAggregate {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn begin_round(&mut self, round: usize, global: &[f32]) {
            self.inner.begin_round(round, global);
        }
        fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
            self.inner.local_rule(client, global)
        }
        fn aggregate(
            &mut self,
            global: &[f32],
            updates: &[ClientUpdate],
            hyper: &HyperParams,
        ) -> Vec<f32> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.aggregate(global, updates, hyper)
        }
        fn wants_upload_stats(&self) -> bool {
            self.inner.wants_upload_stats()
        }
        fn plan_aggregation(
            &mut self,
            global: &[f32],
            updates: &[ClientUpdate],
            stats: Option<&taco_core::UploadStats>,
            hyper: &HyperParams,
        ) -> Option<taco_core::WeightedCombine> {
            self.inner.plan_aggregation(global, updates, stats, hyper)
        }
        fn commit_aggregation(&mut self, global: &[f32], combined: &[f32]) {
            self.inner.commit_aggregation(global, combined);
        }
    }

    /// The server's one aggregation entry point is the algorithm's
    /// `aggregate`: a decorator that forwards it sees exactly one call
    /// per round with surviving uploads and none for an empty round.
    #[test]
    fn the_server_calls_aggregate_once_per_non_empty_round() {
        let hyper = HyperParams::new(3, 4, 0.05, 8);
        let calls = Arc::new(AtomicUsize::new(0));
        let taco = taco_core::taco::TacoConfig {
            detect_freeloaders: false,
            ..taco_core::taco::TacoConfig::paper_default(6, 4)
        };
        let algorithm = CountingAggregate {
            inner: Taco::new(3, taco),
            calls: Arc::clone(&calls),
        };
        // Every upload drops from round 3 on, so rounds 3–5 are empty.
        let plan = FaultPlan::new().with_dropouts(1.0).starting_at(3);
        let config = SimConfig::new(hyper, 6, 5).with_fault_plan(plan);
        let history = Simulation::new(small_fed(3, 5), mlp(5), Box::new(algorithm), config).run();
        let non_empty = history
            .rounds
            .iter()
            .filter(|r| r.participants.len() > r.fault_totals.dropouts + r.updates_rejected)
            .count();
        assert_eq!((history.rounds.len(), non_empty), (6, 3));
        assert_eq!(calls.load(Ordering::Relaxed), non_empty);
    }

    /// Regression for the early-exit bug: a partially-expelled
    /// federation under partial participation must keep training for
    /// all configured rounds, drawing `⌈fraction·|eligible|⌉` from the
    /// eligible set only (6 clients, 2 expelled, fraction 0.34 → 2 of
    /// the 4 survivors per round). The old code sampled from all N and
    /// filtered afterwards, shrinking effective participation — and a
    /// round whose draw happened to land entirely on expelled clients
    /// silently ended the run.
    #[test]
    fn expelled_minority_does_not_end_training_early() {
        let hyper = HyperParams::new(6, 4, 0.05, 8);
        let algorithm = ForcedExpulsion {
            inner: FedAvg::default(),
            expelled: vec![0, 1],
        };
        let config = SimConfig::new(hyper, 6, 21).with_participation(0.34);
        let history = Simulation::new(small_fed(6, 21), mlp(21), Box::new(algorithm), config).run();
        assert_eq!(history.rounds.len(), 6, "training ended early");
        for r in &history.rounds {
            assert_eq!(r.expelled, 2);
            // ⌈0.34 · 4⌉ = 2 eligible clients participate every round,
            // and with no faults both uploads arrive (the round event's
            // `clients_active`).
            assert_eq!(r.participants.len(), 2, "round {}", r.round);
            assert!(r.participants.iter().all(|&c| c >= 2), "round {}", r.round);
            let active = r.participants.len() - r.fault_totals.dropouts - r.updates_rejected;
            assert_eq!(active, 2, "round {}", r.round);
        }
    }

    #[test]
    fn fully_expelled_federation_freezes_training() {
        let hyper = HyperParams::new(3, 2, 0.05, 8);
        let algorithm = ForcedExpulsion {
            inner: FedAvg::default(),
            expelled: vec![0, 1, 2],
        };
        let history = Simulation::new(
            small_fed(3, 22),
            mlp(22),
            Box::new(algorithm),
            SimConfig::new(hyper, 5, 1),
        )
        .run();
        assert!(history.rounds.is_empty(), "frozen run still has rounds");
        assert_eq!(history.expelled_clients, vec![0, 1, 2]);
    }

    /// Regression for the train-loss hole: rounds with no honest
    /// participant used to record `train_loss = 0.0`, which plots as a
    /// perfect loss. Dropping the sole honest client via a targeted
    /// fault makes every later round freeloader-only; the measured
    /// round-0 value must be carried forward and marked.
    #[test]
    fn honest_free_rounds_carry_train_loss_forward() {
        let hyper = HyperParams::new(2, 4, 0.05, 8);
        let plan = FaultPlan::new()
            .with_dropouts(1.0)
            .targeting(vec![0])
            .starting_at(1);
        let config = SimConfig::new(hyper, 4, 9)
            .with_behaviors(vec![ClientBehavior::Honest, ClientBehavior::Freeloader])
            .with_fault_plan(plan);
        let history = Simulation::new(
            small_fed(2, 23),
            mlp(23),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 4);
        let first = &history.rounds[0];
        assert!(!first.train_loss_carried);
        assert!(first.train_loss > 0.0, "round 0 measured no loss");
        for r in &history.rounds[1..] {
            assert!(r.train_loss_carried, "round {} not marked carried", r.round);
            assert_eq!(r.train_loss, first.train_loss);
            assert_eq!(r.faults_injected, 1);
        }
    }

    #[test]
    fn faulted_histories_are_bit_identical_parallel_or_not() {
        let hyper = HyperParams::new(5, 5, 0.05, 16);
        let plan = FaultPlan::new()
            .with_dropouts(0.25)
            .with_stragglers(0.25, 3.0)
            .with_corruption(0.2, 1e9);
        let run = |sequential: bool| {
            let config = SimConfig::new(hyper, 6, 77).with_fault_plan(plan.clone());
            let config = if sequential {
                config.sequential()
            } else {
                config
            };
            Simulation::new(
                small_fed(5, 24),
                mlp(24),
                Box::new(FedAvg::default()),
                config,
            )
            .run()
        };
        let parallel_a = zero_timing(run(false));
        let parallel_b = zero_timing(run(false));
        let sequential = zero_timing(run(true));
        assert!(
            parallel_a.total_faults_injected() > 0,
            "plan never fired; the determinism check is vacuous"
        );
        assert_eq!(parallel_a, parallel_b);
        assert_eq!(parallel_a, sequential);
    }

    #[test]
    fn inert_plan_matches_plan_free_run() {
        let hyper = HyperParams::new(4, 5, 0.05, 16);
        let with_plan = SimConfig::new(hyper, 4, 13).with_fault_plan(FaultPlan::new());
        let without = SimConfig::new(hyper, 4, 13);
        let h_plan = zero_timing(
            Simulation::new(
                small_fed(4, 25),
                mlp(25),
                Box::new(FedAvg::default()),
                with_plan,
            )
            .run(),
        );
        let h_none = zero_timing(
            Simulation::new(
                small_fed(4, 25),
                mlp(25),
                Box::new(FedAvg::default()),
                without,
            )
            .run(),
        );
        assert_eq!(h_plan, h_none);
        assert_eq!(h_plan.total_faults_injected(), 0);
        assert_eq!(h_plan.total_updates_rejected(), 0);
    }

    #[test]
    fn total_dropout_holds_the_global_model_but_keeps_round_indexing() {
        let hyper = HyperParams::new(3, 3, 0.05, 8);
        let plan = FaultPlan::new().with_dropouts(1.0);
        let config = SimConfig::new(hyper, 4, 31).with_fault_plan(plan);
        let history = Simulation::new(
            small_fed(3, 26),
            mlp(26),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 4, "empty rounds must still count");
        assert_eq!(history.total_faults_injected(), 3 * 4);
        let acc0 = history.rounds[0].test_accuracy;
        for r in &history.rounds {
            assert_eq!(r.test_accuracy, acc0, "global moved in an empty round");
            assert!(r.train_loss_carried);
            assert_eq!(r.upload_bytes, 0);
        }
    }

    #[test]
    fn quarantine_evidence_expels_the_corrupt_client() {
        // Client 0 corrupts every upload into a norm explosion the
        // validator rejects; each quarantine is reported to TACO's
        // detection as a strike, so with λ = 1 it is expelled after
        // round 1 and the survivors finish the run.
        let hyper = HyperParams::new(4, 4, 0.05, 16);
        let taco = Taco::new(
            4,
            taco_core::taco::TacoConfig::paper_default(10, 4).with_detection(0.6, 1),
        );
        let plan = FaultPlan::new()
            .with_corruption(1.0, 1e12)
            .targeting(vec![0])
            .with_max_delta_norm(1e4);
        let config = SimConfig::new(hyper, 10, 17).with_fault_plan(plan);
        let history = Simulation::new(small_fed(4, 27), mlp(27), Box::new(taco), config).run();
        assert_eq!(history.rounds.len(), 10);
        assert_eq!(history.expelled_clients, vec![0]);
        // After expulsion the client stops participating, so rejections
        // stop accruing: exactly λ + 1 = 2 strikes were ever recorded.
        assert_eq!(history.total_updates_rejected(), 2);
        assert!(
            history.rounds.last().map_or(0, |r| r.updates_rejected) == 0,
            "expelled client still uploading"
        );
    }

    /// The recorded fault and rejection counts are exactly what
    /// replaying the plan's pure `fault_for` predicts for the
    /// participating clients (here all of them).
    #[test]
    fn recorded_faults_match_a_plan_replay() {
        let n = 5;
        let seed = 41;
        let rounds = 5;
        let hyper = HyperParams::new(n, 4, 0.05, 16);
        let plan = FaultPlan::new()
            .with_dropouts(0.3)
            .with_corruption(0.3, 1e12)
            .with_max_delta_norm(1e4);
        let config = SimConfig::new(hyper, rounds, seed).with_fault_plan(plan.clone());
        let history = Simulation::new(
            small_fed(n, 28),
            mlp(28),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), rounds);
        for (round, r) in history.rounds.iter().enumerate() {
            assert_eq!(r.participants, (0..n).collect::<Vec<_>>());
            let faults: Vec<FaultKind> = (0..n)
                .filter_map(|c| plan.fault_for(seed, round, c))
                .collect();
            let corrupted = faults
                .iter()
                .filter(|k| matches!(k, FaultKind::Corrupt(_)))
                .count();
            assert_eq!(
                r.faults_injected,
                faults.len(),
                "round {round} fault count diverges from the plan"
            );
            // Every corruption is a norm explosion far past the cap,
            // so the quarantine count equals the corruption count.
            assert_eq!(
                r.updates_rejected, corrupted,
                "round {round} rejection count diverges from the plan"
            );
            assert_eq!(r.fault_totals.quarantined, corrupted);
        }
        assert!(
            history.total_faults_injected() > 0,
            "plan never fired; replay check is vacuous"
        );
    }

    /// SCAFFOLD under system heterogeneity: the control-variate update
    /// now normalizes each client's Δ_i by its own `τ_i·η_l`, so wildly
    /// different local step counts no longer corrupt the variates.
    #[test]
    fn scaffold_learns_under_heterogeneous_local_steps() {
        let fed = small_fed(4, 29);
        let hyper = HyperParams::new(4, 8, 0.05, 16);
        let config = SimConfig::new(hyper, 10, 19).with_local_steps(vec![2, 4, 8, 16]);
        let history = Simulation::new(
            fed,
            mlp(29),
            Box::new(taco_core::Scaffold::new(4, 1.0)),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 10);
        assert!(
            history.best_accuracy() > 0.6,
            "SCAFFOLD under heterogeneous τ stuck at {}",
            history.best_accuracy()
        );
        assert!(!history.diverged(0.5));
    }

    #[test]
    fn deadline_cuts_stragglers_deterministically() {
        let hyper = HyperParams::new(4, 4, 0.05, 16);
        // Every fault is a 10× straggler; the deadline allows 2× the
        // nominal 4-step round, so every straggler misses it.
        let plan = FaultPlan::new()
            .with_stragglers(1.0, 10.0)
            .targeting(vec![1, 3])
            .with_deadline(8.0, 1.0);
        let config = SimConfig::new(hyper, 5, 53).with_fault_plan(plan);
        let dim = mlp(30).params().len();
        let history = Simulation::new(
            small_fed(4, 30),
            mlp(30),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 5);
        for r in &history.rounds {
            assert_eq!(r.faults_injected, 2, "round {}", r.round);
            assert_eq!(r.updates_rejected, 2, "round {}", r.round);
            // Cut uploads never arrive, so only the two survivors'
            // raw f32 payloads are counted.
            assert_eq!(r.upload_bytes, 2 * dim * 4, "round {}", r.round);
        }
        let h2 = {
            let plan = FaultPlan::new()
                .with_stragglers(1.0, 10.0)
                .targeting(vec![1, 3])
                .with_deadline(8.0, 1.0);
            let config = SimConfig::new(hyper, 5, 53)
                .with_fault_plan(plan)
                .sequential();
            Simulation::new(
                small_fed(4, 30),
                mlp(30),
                Box::new(FedAvg::default()),
                config,
            )
            .run()
        };
        assert_eq!(zero_timing(history), zero_timing(h2));
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn zero_participation_panics() {
        let hyper = HyperParams::new(2, 1, 0.1, 1);
        let _ = SimConfig::new(hyper, 1, 1).with_participation(0.0);
    }

    #[test]
    #[should_panic(expected = "federation has")]
    fn client_count_mismatch_panics() {
        let fed = small_fed(3, 6);
        let hyper = HyperParams::new(4, 3, 0.05, 8);
        let _ = Simulation::new(
            fed,
            mlp(6),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 1, 1),
        );
    }

    /// A config whose fields were set directly, bypassing the builders.
    fn direct_config(set: impl FnOnce(&mut SimConfig)) -> SimConfig {
        let mut config = SimConfig::new(HyperParams::new(3, 2, 0.05, 8), 2, 1);
        set(&mut config);
        config
    }

    fn simulate(config: SimConfig) -> History {
        Simulation::new(small_fed(3, 6), mlp(6), Box::new(FedAvg::default()), config).run()
    }

    #[test]
    #[should_panic(expected = "behaviors has 2 entries but hyper says 3 clients")]
    fn direct_short_behaviors_panics_in_new() {
        simulate(direct_config(|c| c.behaviors.truncate(2)));
    }

    #[test]
    #[should_panic(expected = "local_steps_per_client has 2 entries but hyper says 3 clients")]
    fn direct_short_local_steps_panics_in_new() {
        simulate(direct_config(|c| {
            c.local_steps_per_client = Some(vec![2, 2])
        }));
    }

    #[test]
    #[should_panic(expected = "participation fraction must be in (0, 1]")]
    fn direct_zero_participation_panics_in_new() {
        simulate(direct_config(|c| {
            c.participation = Participation::Sample { fraction: 0.0 }
        }));
    }
}
