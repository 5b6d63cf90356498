//! The parameter-server round loop.

use crate::adversary::{self, AdversaryPlan};
use crate::churn::ChurnTrace;
use crate::client::{self, ClientJob};
use crate::fault::{FaultKind, FaultPlan};
use crate::freeloader::ClientBehavior;
use crate::metrics::{FaultTotals, History, RoundRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use taco_core::compress::Compressor;
use taco_core::{ClientUpdate, FederatedAlgorithm, HyperParams};
use taco_data::partition::{self, DriftSchedule};
use taco_data::{Dataset, FederatedDataset};
use taco_nn::{Batch, Model};
use taco_tensor::ops;
use taco_trace as trace;

/// Salt folded into the run seed for drift re-partitioning draws, so
/// the drift stream never aliases the training, participation, fault,
/// or coalition streams.
const DRIFT_SALT: u64 = 0xD81F;

/// Salt folded into the run seed for the per-round participation
/// sampling draw, keeping the subset-selection stream independent of
/// client training and every other salted stream in the workspace.
const PARTICIPATION_SALT: u64 = 0x9A97;

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
    /// Run clients as parallel tasks on the shared worker pool
    /// ([`taco_tensor::pool`], sized by `TACO_THREADS`). Kernels inside
    /// a pooled client run inline, so total concurrency never exceeds
    /// the pool size; when the pool has one thread this flag is a
    /// no-op. Timing experiments (Table I, Fig. 5) should disable it so
    /// per-client wall-clock measurements don't contend for cores.
    /// Histories are bit-identical whatever this flag or the thread
    /// count — see the pool module docs.
    pub parallel: bool,
    /// Evaluate the global model every `eval_every` rounds (always
    /// including the last).
    pub eval_every: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
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
    /// Parameters of the model-update attacks mounted by non-honest
    /// behaviours. The plan is inert while every behaviour is honest
    /// or freeloading; which clients attack is `behaviors`' job.
    pub adversary: AdversaryPlan,
    /// Deterministic client join/leave schedule. `None` (and an
    /// event-free trace) leaves every round's eligible set — and the
    /// whole trajectory — bit-identical to a churn-free run.
    pub churn: Option<ChurnTrace>,
    /// Time-varying non-IID drift: re-partitions the pooled training
    /// data at a fixed cadence with an interpolated Dirichlet `φ`.
    /// `None` (and an inert schedule) changes nothing.
    pub drift: Option<DriftSchedule>,
}

impl SimConfig {
    /// Creates a config with the defaults used throughout the
    /// experiment harness: parallel clients, evaluation every round,
    /// evaluation batch 64, all clients honest.
    pub fn new(hyper: HyperParams, rounds: usize, seed: u64) -> Self {
        SimConfig {
            hyper,
            rounds,
            seed,
            behaviors: vec![ClientBehavior::Honest; hyper.num_clients],
            parallel: true,
            eval_every: 1,
            eval_batch: 64,
            participation: Participation::Full,
            local_steps_per_client: None,
            upload_compressor: None,
            fault_plan: None,
            adversary: AdversaryPlan::default(),
            churn: None,
            drift: None,
        }
    }

    /// Builder-style adversary-plan override (attack knobs only; which
    /// clients attack is set via [`SimConfig::with_behaviors`]).
    pub fn with_adversary(mut self, plan: AdversaryPlan) -> Self {
        self.adversary = plan;
        self
    }

    /// Builder-style churn-trace override.
    ///
    /// # Panics
    ///
    /// Panics if the trace's client count differs from the config's.
    pub fn with_churn(mut self, trace: ChurnTrace) -> Self {
        assert_eq!(
            trace.num_clients(),
            self.hyper.num_clients,
            "churn trace covers {} clients but hyper says {}",
            trace.num_clients(),
            self.hyper.num_clients
        );
        self.churn = Some(trace);
        self
    }

    /// Builder-style drift-schedule override.
    pub fn with_drift(mut self, schedule: DriftSchedule) -> Self {
        self.drift = Some(schedule);
        self
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
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "participation fraction must be in (0, 1], got {fraction}"
        );
        self.participation = Participation::Sample { fraction };
        self
    }

    /// Builder-style heterogeneous local-step override.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the client count or any step
    /// count is zero.
    pub fn with_local_steps(mut self, steps: Vec<usize>) -> Self {
        assert_eq!(
            steps.len(),
            self.hyper.num_clients,
            "step count must match client count"
        );
        assert!(steps.iter().all(|&s| s > 0), "step counts must be positive");
        self.local_steps_per_client = Some(steps);
        self
    }

    /// Builder-style behaviour override.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the client count.
    pub fn with_behaviors(mut self, behaviors: Vec<ClientBehavior>) -> Self {
        assert_eq!(
            behaviors.len(),
            self.hyper.num_clients,
            "behaviour count must match client count"
        );
        self.behaviors = behaviors;
        self
    }

    /// Builder-style sequential-execution override (for timing runs).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Builder-style evaluation cadence override.
    ///
    /// # Panics
    ///
    /// Panics if `eval_every` is zero.
    pub fn with_eval_every(mut self, eval_every: usize) -> Self {
        assert!(eval_every > 0, "eval_every must be positive");
        self.eval_every = eval_every;
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
            .field("eval_every", &self.eval_every)
            .field("eval_batch", &self.eval_batch)
            .field("participation", &self.participation)
            .field("local_steps_per_client", &self.local_steps_per_client)
            .field(
                "upload_compressor",
                &self.upload_compressor.as_ref().map(|c| c.name()),
            )
            .field("fault_plan", &self.fault_plan)
            .field("adversary", &self.adversary)
            .field("churn", &self.churn)
            .field("drift", &self.drift)
            .finish()
    }
}

/// A federated-learning simulation: one algorithm, one federation, one
/// model architecture.
pub struct Simulation {
    fed: FederatedDataset,
    prototype: Box<dyn Model>,
    algorithm: Box<dyn FederatedAlgorithm>,
    config: SimConfig,
    eval_batches: Vec<Batch>,
    /// The pooled training data, rebuilt from the initial shards, used
    /// as the re-partitioning source when a drift schedule is active.
    drift_pool: Option<Dataset>,
    /// Coalition attack directions, derived lazily per coalition id.
    coalition_dirs: BTreeMap<u16, Vec<f32>>,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the federation's client count differs from
    /// `config.hyper.num_clients`.
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
        if let Some(trace) = &config.churn {
            assert_eq!(
                trace.num_clients(),
                fed.num_clients(),
                "churn trace covers {} clients but the federation has {}",
                trace.num_clients(),
                fed.num_clients()
            );
        }
        let eval_batches = fed.test().eval_batches(config.eval_batch);
        // Re-pool the shards up front (in client order, so the pool is
        // a pure function of the initial partition) only when drift
        // can actually fire; an inert schedule costs nothing.
        let drift_pool = match &config.drift {
            Some(schedule) if !schedule.is_inert() => {
                let parts: Vec<&Dataset> = fed.clients().iter().collect();
                Some(Dataset::concat(&parts))
            }
            _ => None,
        };
        Simulation {
            fed,
            prototype,
            algorithm,
            config,
            eval_batches,
            drift_pool,
            coalition_dirs: BTreeMap::new(),
        }
    }

    /// Runs the full training loop and returns the trajectory.
    pub fn run(mut self) -> History {
        let mut prototype = self.prototype.clone_model();
        let mut global = prototype.params();
        let mut prev_global = global.clone();
        let mut history = History {
            algorithm: self.algorithm.name().to_string(),
            rounds: Vec::with_capacity(self.config.rounds),
            expelled_clients: Vec::new(),
        };
        let hyper = self.config.hyper;
        let needs_momentum_upload = self.algorithm.uploads_momentum();
        let n = self.fed.num_clients();
        // Presence state across rounds, for join/depart edge detection.
        // Starting all-present means a round-0 absence is announced as
        // a departure, so lazily-held per-client state is retired even
        // for late arrivals.
        let mut prev_present = vec![true; n];
        for round in 0..self.config.rounds {
            // Phase spans use the stable names in [`crate::phase`]:
            // their `.seconds` histograms are a reported contract
            // consumed by the perf-trajectory suite.
            let round_span = trace::Span::quiet(crate::phase::ROUND);
            // Data drift fires before anything reads the shards: the
            // whole round (local training, sample counts, losses) sees
            // the re-partitioned federation.
            if let (Some(schedule), Some(pool)) = (&self.config.drift, &self.drift_pool) {
                if let Some(phi) = schedule.repartition_at(round) {
                    let mut rng =
                        client::client_rng(self.config.seed ^ DRIFT_SALT, round, usize::MAX);
                    let shards = partition::dirichlet(pool.labels(), n, phi, &mut rng);
                    let skew = partition::skew_statistic(pool.labels(), &shards);
                    trace::counter("sim.drift.repartitions").incr();
                    if trace::active() {
                        trace::emit(
                            &trace::Event::new("drift")
                                .with("round", round)
                                .with("phi", phi)
                                .with("skew", skew),
                        );
                    }
                    self.fed = FederatedDataset::from_partition(
                        pool.clone(),
                        self.fed.test().clone(),
                        &shards,
                    );
                }
            }
            let draw_span = trace::Span::quiet(crate::phase::PARTICIPATION);
            self.algorithm.begin_round(round, &global);
            let expelled: Vec<usize> = self.algorithm.expelled();
            let mut expelled_mask = vec![false; n];
            for &c in &expelled {
                if c < n {
                    expelled_mask[c] = true;
                }
            }
            // Churn edges. Joins of expelled clients are never
            // announced — expulsion outlives any departure/rejoin
            // cycle — but presence still updates so the client isn't
            // re-announced later.
            let present: Vec<bool> = match &self.config.churn {
                Some(trace) => trace.present_mask(round),
                None => vec![true; n],
            };
            for c in 0..n {
                if present[c] == prev_present[c] {
                    continue;
                }
                if present[c] {
                    if !expelled_mask[c] {
                        self.algorithm.client_joined(c);
                        trace::counter("sim.churn.joins").incr();
                        if trace::active() {
                            trace::emit(
                                &trace::Event::new("churn")
                                    .with("round", round)
                                    .with("client", c)
                                    .with("event", "join"),
                            );
                        }
                    }
                } else {
                    self.algorithm.client_departed(c);
                    trace::counter("sim.churn.departures").incr();
                    if trace::active() {
                        trace::emit(
                            &trace::Event::new("churn")
                                .with("round", round)
                                .with("client", c)
                                .with("event", "depart"),
                        );
                    }
                }
            }
            prev_present = present.clone();
            // Only a fully-expelled federation freezes training; every
            // other degenerate round (nothing sampled, nobody present,
            // everyone dropped or quarantined) is recorded as empty
            // and the run continues.
            if expelled_mask.iter().all(|&e| e) {
                break;
            }
            let eligible: Vec<usize> = (0..n)
                .filter(|&c| !expelled_mask[c] && present[c])
                .collect();
            // Participation draw (deterministic per round). The subset
            // is drawn from the *eligible* clients — sampling all N
            // and filtering expelled ones afterwards would silently
            // shrink effective participation as freeloaders are
            // expelled. Without expulsions or churn `eligible` is the
            // identity map, so the historical stream is reproduced bit
            // for bit; the per-round draw consumes a fresh generator,
            // so an all-absent round doesn't shift later draws.
            let participating: Vec<bool> = match self.config.participation {
                Participation::Full => {
                    let mut v = vec![false; n];
                    for &c in &eligible {
                        v[c] = true;
                    }
                    v
                }
                Participation::Sample { .. } if eligible.is_empty() => vec![false; n],
                Participation::Sample { fraction } => {
                    let m = ((eligible.len() as f64 * fraction).ceil() as usize)
                        .clamp(1, eligible.len());
                    let mut prng = client::client_rng(
                        self.config.seed ^ PARTICIPATION_SALT,
                        round,
                        usize::MAX,
                    );
                    let chosen = prng.sample_indices(eligible.len(), m);
                    let mut v = vec![false; n];
                    for c in chosen {
                        v[eligible[c]] = true;
                    }
                    v
                }
            };
            // Fault draws: a pure per-(round, client) function of the
            // seed and plan, so they are identical whatever the thread
            // count or execution order.
            let fault_of: Vec<Option<FaultKind>> = (0..n)
                .map(|c| {
                    if expelled_mask[c] || !participating[c] {
                        return None;
                    }
                    self.config
                        .fault_plan
                        .as_ref()
                        .and_then(|p| p.fault_for(self.config.seed, round, c))
                })
                .collect();
            let mut fault_totals = FaultTotals::default();
            for (client, fault) in fault_of.iter().enumerate() {
                let Some(kind) = fault else { continue };
                trace::counter(match kind {
                    FaultKind::Dropout => {
                        fault_totals.dropouts += 1;
                        "sim.faults.dropout"
                    }
                    FaultKind::Straggler { .. } => {
                        fault_totals.stragglers += 1;
                        "sim.faults.straggler"
                    }
                    FaultKind::Corrupt(_) => {
                        fault_totals.corruptions += 1;
                        "sim.faults.corrupt"
                    }
                })
                .incr();
                if trace::active() {
                    trace::emit(
                        &trace::Event::new("fault")
                            .with("round", round)
                            .with("client", client)
                            .with("fault", kind.label()),
                    );
                }
            }
            let faults_injected = fault_totals.injected();
            // Build this round's jobs. Attackers run the honest local
            // computation (their transform comes later); freeloaders
            // skip it and echo the previous global update.
            let mut jobs = Vec::new();
            let mut freeloader_updates = Vec::new();
            let mut skipped = 0u64;
            for client in 0..n {
                if expelled_mask[client] || !participating[client] {
                    skipped += 1;
                    continue;
                }
                if fault_of[client] == Some(FaultKind::Dropout) {
                    // The update never arrives; honest dropouts also
                    // skip the (wasted) local computation.
                    continue;
                }
                match self.config.behaviors[client] {
                    ClientBehavior::Honest
                    | ClientBehavior::SignFlip
                    | ClientBehavior::Boost
                    | ClientBehavior::Colluder { .. } => jobs.push(ClientJob {
                        client,
                        rule: self.algorithm.local_rule(client, &global),
                        num_samples: self.fed.client(client).len(),
                        steps: self
                            .config
                            .local_steps_per_client
                            .as_ref()
                            .map_or(hyper.local_steps, |s| s[client]),
                    }),
                    ClientBehavior::Freeloader => {
                        // Upload the previous global update verbatim
                        // (Section IV-A): Δ_i = w_{t−1} − w_t, the
                        // parameter-space image of the last Δ_t.
                        let delta = ops::sub(&prev_global, &global);
                        let dim = delta.len();
                        freeloader_updates.push(ClientUpdate {
                            client,
                            delta,
                            num_samples: self.fed.client(client).len(),
                            final_v: needs_momentum_upload.then(|| vec![0.0; dim]),
                            mean_loss: 0.0,
                            grad_evals: 0,
                            steps: 0,
                            compute_seconds: 0.0,
                            encoded: None,
                        });
                    }
                }
            }
            trace::counter("sim.clients_skipped").add(skipped);
            let participation_secs = draw_span.finish();
            let local_span = trace::Span::quiet(crate::phase::LOCAL);
            let mut updates = client::execute_jobs(
                &*self.prototype,
                &self.fed,
                &global,
                jobs,
                round,
                &hyper,
                self.config.seed,
                self.config.parallel,
            );
            updates.append(&mut freeloader_updates);
            updates.sort_by_key(|u| u.client);
            let local_secs = local_span.finish();
            // Model-update attacks: applied in client order on the
            // device side of the wire, upstream of compression,
            // corruption, and validation. A pure per-update transform,
            // so attacked runs stay bit-identical across thread and shard
            // counts.
            let mut attacks_applied = 0usize;
            for u in &mut updates {
                let label = adversary::apply(
                    &self.config.adversary,
                    self.config.behaviors[u.client],
                    self.config.seed,
                    round,
                    &mut u.delta,
                    &mut self.coalition_dirs,
                );
                let Some(label) = label else { continue };
                attacks_applied += 1;
                trace::counter(match label {
                    "sign_flip" => "sim.attacks.sign_flip",
                    "boost" => "sim.attacks.boost",
                    _ => "sim.attacks.collude",
                })
                .incr();
                if trace::active() {
                    trace::emit(
                        &trace::Event::new("attack")
                            .with("round", round)
                            .with("client", u.client)
                            .with("attack", label),
                    );
                }
            }
            // The server pipeline (stragglers, deadline, compression,
            // corruption, validation) returns the survivors in client
            // order; see [`crate::server`].
            let outcome = crate::server::process_uploads(
                &self.config,
                &fault_of,
                round,
                updates,
                self.algorithm.as_mut(),
            );
            let upload_bytes = outcome.upload_bytes;
            fault_totals.deadline_cuts = outcome.deadline_cuts;
            fault_totals.quarantined = outcome.quarantined;
            let updates_rejected = outcome.updates_rejected();
            let compress_secs = outcome.compress_secs;
            // Aggregate and advance. A round with no surviving
            // updates (all sampled clients dropped, cut, or
            // quarantined) holds the global model and is still
            // recorded, so the trajectory keeps its round indexing.
            let aggregate_span = trace::Span::quiet(crate::phase::AGGREGATE);
            let updates = outcome.accepted;
            let next = crate::server::aggregate(self.algorithm.as_mut(), &global, &updates, &hyper)
                .unwrap_or_else(|| global.clone());
            let aggregate_secs = aggregate_span.finish();
            prev_global = global;
            global = next;
            // Metrics. Rounds without an honest participant carry the
            // previous train loss forward (a 0.0 would plot as a
            // perfect loss) and are marked as carried.
            let honest: Vec<&ClientUpdate> = updates
                .iter()
                .filter(|u| self.config.behaviors[u.client] == ClientBehavior::Honest)
                .collect();
            let (train_loss, train_loss_carried) = if honest.is_empty() {
                (history.rounds.last().map_or(0.0, |r| r.train_loss), true)
            } else {
                (
                    honest.iter().map(|u| u.mean_loss as f64).sum::<f64>() / honest.len() as f64,
                    false,
                )
            };
            let max_secs = updates
                .iter()
                .map(|u| u.compute_seconds)
                .fold(0.0, f64::max);
            let total_secs: f64 = updates.iter().map(|u| u.compute_seconds).sum();
            let evaluate_now =
                round % self.config.eval_every == 0 || round + 1 == self.config.rounds;
            let eval_span = trace::Span::quiet(crate::phase::EVAL);
            let (test_loss, test_acc) = if evaluate_now {
                let out = self.algorithm.output_params(&global);
                prototype.set_params(&out);
                let (l, a) = taco_nn::evaluate(&mut *prototype, &self.eval_batches);
                (l as f64, a as f64)
            } else {
                history
                    .rounds
                    .last()
                    .map(|r| (r.test_loss, r.test_accuracy))
                    .unwrap_or((0.0, 0.0))
            };
            let eval_secs = eval_span.finish();
            let alphas = self.algorithm.alphas().map(<[f32]>::to_vec);
            let expelled_now = self.algorithm.expelled().len();
            let mut suspected = self.algorithm.suspected();
            suspected.sort_unstable();
            suspected.dedup();
            let tracked_states = self.algorithm.tracked_client_states();
            let participants: Vec<usize> = (0..n).filter(|&c| participating[c]).collect();
            trace::counter("sim.rounds").incr();
            let round_secs = round_span.finish();
            if trace::active() {
                let mut event = trace::Event::new("round")
                    .with("round", round)
                    .with("algorithm", history.algorithm.as_str())
                    .with("clients_active", updates.len())
                    .with("clients_skipped", skipped)
                    .with("expelled", expelled_now)
                    .with("faults_injected", faults_injected)
                    .with("updates_rejected", updates_rejected)
                    .with("attacks_applied", attacks_applied)
                    .with("suspected", suspected.len())
                    .with("tracked_states", tracked_states)
                    .with("upload_bytes", upload_bytes)
                    .with("train_loss", train_loss)
                    .with("train_loss_carried", train_loss_carried)
                    .with("evaluated", evaluate_now)
                    .with("test_accuracy", test_acc)
                    .with("test_loss", test_loss)
                    .with("secs", round_secs)
                    .with("participation_secs", participation_secs)
                    .with("local_secs", local_secs)
                    .with("compress_secs", compress_secs)
                    .with("aggregate_secs", aggregate_secs)
                    .with("eval_secs", eval_secs)
                    .with("max_client_secs", max_secs)
                    .with("total_client_secs", total_secs);
                if let Some(a) = &alphas {
                    let mean = a.iter().map(|&x| x as f64).sum::<f64>() / a.len().max(1) as f64;
                    let min = a.iter().copied().fold(f32::INFINITY, f32::min);
                    let max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    event = event
                        .with("alpha_mean", mean)
                        .with("alpha_min", min)
                        .with("alpha_max", max);
                }
                trace::emit(&event);
            }
            history.rounds.push(RoundRecord {
                round,
                test_accuracy: test_acc,
                test_loss,
                train_loss,
                train_loss_carried,
                max_client_seconds: max_secs,
                total_client_seconds: total_secs,
                alphas,
                expelled: expelled_now,
                upload_bytes,
                faults_injected,
                updates_rejected,
                participants,
                suspected,
                attacks_applied,
                fault_totals,
                tracked_states,
            });
        }
        trace::flush();
        history.expelled_clients = self.algorithm.expelled();
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn round_events_reach_the_sink_with_phase_breakdown() {
        let _guard = trace::test_guard();
        let sink = Arc::new(trace::MemorySink::new());
        let prev = trace::set_sink(sink.clone());
        let hyper = HyperParams::new(3, 2, 0.05, 8);
        let history = Simulation::new(
            small_fed(3, 14),
            mlp(14),
            Box::new(FedAvg::default()),
            SimConfig::new(hyper, 3, 5),
        )
        .run();
        trace::set_sink(prev);
        trace::clear_sink();
        let rounds = sink.events_of_kind("round");
        assert_eq!(rounds.len(), history.rounds.len());
        for (i, e) in rounds.iter().enumerate() {
            assert_eq!(
                e.field("round").and_then(trace::Value::as_f64),
                Some(i as f64)
            );
            for key in [
                "participation_secs",
                "local_secs",
                "compress_secs",
                "aggregate_secs",
                "eval_secs",
                "secs",
                "upload_bytes",
                "clients_active",
            ] {
                assert!(e.field(key).is_some(), "round event missing {key}");
            }
        }
        // Per-client spans rode along too: 3 clients × 3 rounds.
        let steps = sink.events_of_kind("span");
        assert_eq!(steps.len(), 9);
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
    fn eval_every_carries_last_value_forward() {
        let fed = small_fed(3, 5);
        let hyper = HyperParams::new(3, 3, 0.05, 8);
        let config = SimConfig::new(hyper, 5, 1).with_eval_every(2);
        let history = Simulation::new(fed, mlp(5), Box::new(FedAvg::default()), config).run();
        // Rounds 1 and 3 (0-based) are carried forward.
        assert_eq!(
            history.rounds[1].test_accuracy,
            history.rounds[0].test_accuracy
        );
        assert_eq!(history.rounds.len(), 5);
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
        let _guard = trace::test_guard();
        let sink = Arc::new(trace::MemorySink::new());
        let prev = trace::set_sink(sink.clone());
        let hyper = HyperParams::new(6, 4, 0.05, 8);
        let algorithm = ForcedExpulsion {
            inner: FedAvg::default(),
            expelled: vec![0, 1],
        };
        let config = SimConfig::new(hyper, 6, 21).with_participation(0.34);
        let history = Simulation::new(small_fed(6, 21), mlp(21), Box::new(algorithm), config).run();
        trace::set_sink(prev);
        trace::clear_sink();
        assert_eq!(history.rounds.len(), 6, "training ended early");
        assert!(history.rounds.iter().all(|r| r.expelled == 2));
        for e in sink.events_of_kind("round") {
            // ⌈0.34 · 4⌉ = 2 eligible clients participate every round.
            assert_eq!(
                e.field("clients_active").and_then(trace::Value::as_f64),
                Some(2.0)
            );
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

    /// Acceptance check: the per-round trace events report exactly the
    /// fault and rejection counts that replaying the plan's pure
    /// `fault_for` predicts for the participating clients.
    #[test]
    fn round_events_match_a_plan_replay() {
        let _guard = trace::test_guard();
        let sink = Arc::new(trace::MemorySink::new());
        let prev = trace::set_sink(sink.clone());
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
        trace::set_sink(prev);
        trace::clear_sink();
        let events = sink.events_of_kind("round");
        assert_eq!(events.len(), rounds);
        for (round, e) in events.iter().enumerate() {
            let faults: Vec<FaultKind> = (0..n)
                .filter_map(|c| plan.fault_for(seed, round, c))
                .collect();
            let rejected = faults
                .iter()
                .filter(|k| matches!(k, FaultKind::Corrupt(_)))
                .count();
            assert_eq!(
                e.field("faults_injected").and_then(trace::Value::as_f64),
                Some(faults.len() as f64),
                "round {round} fault count diverges from the plan"
            );
            // Every corruption is a norm explosion far past the cap,
            // so the quarantine count equals the corruption count.
            assert_eq!(
                e.field("updates_rejected").and_then(trace::Value::as_f64),
                Some(rejected as f64),
                "round {round} rejection count diverges from the plan"
            );
            assert_eq!(
                history.rounds[round].faults_injected,
                faults.len(),
                "history and trace disagree"
            );
        }
        assert!(
            history.total_faults_injected() > 0,
            "plan never fired; replay check is vacuous"
        );
        // Individual fault events arrive under the event kind "fault"
        // with the category in a "fault" field ("kind" is a reserved
        // Event key): one per injection plus one per quarantine.
        let fault_events = sink.events_of_kind("fault");
        assert_eq!(
            fault_events.len(),
            history.total_faults_injected() + history.total_updates_rejected()
        );
        for e in &fault_events {
            let label = e.field("fault").and_then(trace::Value::as_str);
            assert!(
                matches!(
                    label,
                    Some(
                        "dropout"
                            | "straggler"
                            | "corrupt_nan"
                            | "corrupt_inf"
                            | "corrupt_scale"
                            | "deadline_cut"
                            | "quarantine"
                    )
                ),
                "unexpected fault label {label:?}"
            );
        }
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
    fn inert_adversary_churn_and_drift_match_a_plain_run() {
        let hyper = HyperParams::new(4, 5, 0.05, 16);
        let plain = SimConfig::new(hyper, 4, 13);
        let decorated = SimConfig::new(hyper, 4, 13)
            .with_adversary(AdversaryPlan::new())
            .with_churn(ChurnTrace::new(4))
            .with_drift(DriftSchedule::inert());
        let h_plain = zero_timing(
            Simulation::new(
                small_fed(4, 33),
                mlp(33),
                Box::new(FedAvg::default()),
                plain,
            )
            .run(),
        );
        let h_deco = zero_timing(
            Simulation::new(
                small_fed(4, 33),
                mlp(33),
                Box::new(FedAvg::default()),
                decorated,
            )
            .run(),
        );
        assert_eq!(h_plain, h_deco);
        assert_eq!(h_deco.total_attacks_applied(), 0);
    }

    #[test]
    fn attacked_histories_are_bit_identical_parallel_or_not() {
        let hyper = HyperParams::new(5, 4, 0.05, 16);
        let behaviors = vec![
            ClientBehavior::SignFlip,
            ClientBehavior::Colluder { coalition: 0 },
            ClientBehavior::Colluder { coalition: 0 },
            ClientBehavior::Honest,
            ClientBehavior::Honest,
        ];
        let run = |sequential: bool| {
            let config = SimConfig::new(hyper, 5, 61).with_behaviors(behaviors.clone());
            let config = if sequential {
                config.sequential()
            } else {
                config
            };
            Simulation::new(
                small_fed(5, 34),
                mlp(34),
                Box::new(FedAvg::default()),
                config,
            )
            .run()
        };
        let parallel_a = zero_timing(run(false));
        let parallel_b = zero_timing(run(false));
        let sequential = zero_timing(run(true));
        assert_eq!(
            parallel_a.total_attacks_applied(),
            3 * 5,
            "every attacker attacks every round"
        );
        assert_eq!(parallel_a, parallel_b);
        assert_eq!(parallel_a, sequential);
    }

    #[test]
    fn sleeper_attacks_start_on_schedule() {
        let hyper = HyperParams::new(3, 3, 0.05, 8);
        let config = SimConfig::new(hyper, 4, 15)
            .with_behaviors(vec![
                ClientBehavior::Boost,
                ClientBehavior::Honest,
                ClientBehavior::Honest,
            ])
            .with_adversary(AdversaryPlan::new().starting_at(2));
        let history = Simulation::new(
            small_fed(3, 35),
            mlp(35),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds[0].attacks_applied, 0);
        assert_eq!(history.rounds[1].attacks_applied, 0);
        assert_eq!(history.rounds[2].attacks_applied, 1);
        assert_eq!(history.rounds[3].attacks_applied, 1);
    }

    #[test]
    fn churn_drives_the_lifecycle_hooks_and_state_probe() {
        // SCAFFOLD materializes a client's variate on first
        // aggregation and drops it on departure, which the
        // tracked-states probe observes round by round.
        let hyper = HyperParams::new(3, 3, 0.05, 8);
        let trace = ChurnTrace::new(3).departs(2, 2).joins(2, 4);
        let config = SimConfig::new(hyper, 6, 23).with_churn(trace);
        let history = Simulation::new(
            small_fed(3, 36),
            mlp(36),
            Box::new(taco_core::Scaffold::new(3, 1.0)),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 6);
        // Rounds 0-1: all three trained, three variates held.
        assert_eq!(history.rounds[1].tracked_states, 3);
        // Rounds 2-3: client 2 departed, its variate dropped.
        assert_eq!(history.rounds[2].tracked_states, 2);
        assert_eq!(history.rounds[3].tracked_states, 2);
        // Round 4: rejoined and re-materialized from scratch.
        assert_eq!(history.rounds[4].tracked_states, 3);
        assert_eq!(history.rounds[2].participants, vec![0, 1]);
        assert_eq!(history.rounds[4].participants, vec![0, 1, 2]);
    }

    #[test]
    fn all_absent_round_holds_the_model_and_training_continues() {
        let hyper = HyperParams::new(2, 3, 0.05, 8);
        let trace = ChurnTrace::new(2)
            .departs(0, 1)
            .departs(1, 1)
            .joins(0, 2)
            .joins(1, 2);
        let config = SimConfig::new(hyper, 4, 27).with_churn(trace);
        let history = Simulation::new(
            small_fed(2, 37),
            mlp(37),
            Box::new(FedAvg::default()),
            config,
        )
        .run();
        assert_eq!(history.rounds.len(), 4, "absent round ended the run");
        assert!(history.rounds[1].participants.is_empty());
        assert_eq!(
            history.rounds[1].test_accuracy,
            history.rounds[0].test_accuracy
        );
        assert!(history.rounds[1].train_loss_carried);
        assert_eq!(history.rounds[2].participants, vec![0, 1]);
    }

    #[test]
    fn drift_repartitions_on_cadence_and_stays_deterministic() {
        let _guard = trace::test_guard();
        let sink = Arc::new(trace::MemorySink::new());
        let prev = trace::set_sink(sink.clone());
        let hyper = HyperParams::new(4, 4, 0.05, 16);
        let schedule = DriftSchedule::new(0.5, 0.1, 2, 8);
        let run = || {
            Simulation::new(
                small_fed(4, 38),
                mlp(38),
                Box::new(FedAvg::default()),
                SimConfig::new(hyper, 8, 29).with_drift(schedule),
            )
            .run()
        };
        let h1 = zero_timing(run());
        let h2 = zero_timing(run());
        trace::set_sink(prev);
        trace::clear_sink();
        assert_eq!(h1, h2);
        assert_eq!(h1.rounds.len(), 8);
        // Rounds 2, 4, 6 re-partition (round 0 keeps the initial
        // partition); two identical runs double the event count.
        let drifts = sink.events_of_kind("drift");
        assert_eq!(drifts.len(), 2 * 3);
        for e in &drifts {
            let phi = e.field("phi").and_then(trace::Value::as_f64);
            assert!(phi.is_some_and(|p| p > 0.0 && p <= 0.5), "phi {phi:?}");
        }
    }

    #[test]
    #[should_panic(expected = "churn trace covers")]
    fn churn_client_count_mismatch_panics() {
        let hyper = HyperParams::new(3, 1, 0.1, 1);
        let _ = SimConfig::new(hyper, 1, 1).with_churn(ChurnTrace::new(2));
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
}
