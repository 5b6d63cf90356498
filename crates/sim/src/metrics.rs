//! Per-round records and the paper's efficiency metrics.

/// Per-kind fault and rejection tallies for one round (or, summed,
/// for a run): the attribution detail behind the aggregate
/// `faults_injected`/`updates_rejected` counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTotals {
    /// Dropout faults injected.
    pub dropouts: usize,
    /// Straggler faults injected.
    pub stragglers: usize,
    /// Wire-corruption faults injected.
    pub corruptions: usize,
    /// Uploads cut by the server's synchronous deadline.
    pub deadline_cuts: usize,
    /// Uploads quarantined by validation.
    pub quarantined: usize,
}

impl FaultTotals {
    /// Faults injected (matches `faults_injected`).
    pub fn injected(&self) -> usize {
        self.dropouts + self.stragglers + self.corruptions
    }

    /// Uploads rejected by the server (matches `updates_rejected`).
    pub fn rejected(&self) -> usize {
        self.deadline_cuts + self.quarantined
    }

    /// Adds another tally into this one (summing rounds into a run).
    pub fn accumulate(&mut self, other: &FaultTotals) {
        self.dropouts += other.dropouts;
        self.stragglers += other.stragglers;
        self.corruptions += other.corruptions;
        self.deadline_cuts += other.deadline_cuts;
        self.quarantined += other.quarantined;
    }
}

/// Everything recorded about one communication round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundRecord {
    /// Round index `t` (0-based).
    pub round: usize,
    /// Global-model test accuracy after the round (on the algorithm's
    /// reported output parameters).
    pub test_accuracy: f64,
    /// Global-model test loss after the round.
    pub test_loss: f64,
    /// Mean local training loss across honest clients. When a round
    /// has no honest participants (freeloader-only draw, or every
    /// update dropped/rejected), the previous round's value is carried
    /// forward and [`RoundRecord::train_loss_carried`] is set.
    pub train_loss: f64,
    /// `true` when `train_loss` was carried forward from the previous
    /// round instead of being measured this round.
    pub train_loss_carried: bool,
    /// The slowest client's local compute time this round, in seconds —
    /// the paper's Fig. 5 quantity (synchronous FL waits for the
    /// straggler).
    pub max_client_seconds: f64,
    /// Sum of all clients' local compute time this round.
    pub total_client_seconds: f64,
    /// The algorithm's per-client `α_i^t` after the round, if it
    /// computes them.
    pub alphas: Option<Vec<f32>>,
    /// Number of clients expelled so far.
    pub expelled: usize,
    /// Total bytes uploaded by clients this round (after compression,
    /// when an upload compressor is configured).
    pub upload_bytes: usize,
    /// Faults injected this round by the configured
    /// [`crate::fault::FaultPlan`] (dropouts + corruptions +
    /// stragglers); `0` when no plan is set.
    pub faults_injected: usize,
    /// Uploads cut from aggregation by the server this round: deadline
    /// misses plus validation quarantines.
    pub updates_rejected: usize,
    /// Clients drawn to participate this round (sorted ids). The
    /// denominator of the detection scoreboard: a client that never
    /// appears here was never observable by the server.
    pub participants: Vec<usize>,
    /// Clients the algorithm suspects after this round
    /// ([`taco_core::FederatedAlgorithm::suspected`], sorted ids).
    /// Suspicion is diagnostic — it never feeds back into aggregation.
    pub suspected: Vec<usize>,
    /// Always 0: the simulator mounts no model-update attacks. Kept
    /// only because fedbench's digest reads it; delete it in the next
    /// change to the benchmark.
    pub attacks_applied: usize,
    /// Per-kind breakdown of `faults_injected`/`updates_rejected`.
    pub fault_totals: FaultTotals,
    /// Per-client state slots the algorithm holds after this round
    /// ([`taco_core::FederatedAlgorithm::tracked_client_states`]).
    pub tracked_states: usize,
}

/// The full trajectory of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Algorithm display name.
    pub algorithm: String,
    /// One record per round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Clients expelled by the algorithm over the whole run.
    pub expelled_clients: Vec<usize>,
}

impl History {
    /// Test accuracy after the final round; `0` for an empty run.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.test_accuracy)
    }

    /// Best test accuracy over the run.
    pub fn best_accuracy(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// The paper's **round-to-accuracy**: the 1-based round count at
    /// which `target` test accuracy is first reached, or `None` if the
    /// run never reaches it (the paper's `×` / `200+` entries).
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.rounds
            .iter()
            .position(|r| r.test_accuracy >= target)
            .map(|p| p + 1)
    }

    /// The paper's **time-to-accuracy**: cumulative slowest-client
    /// compute seconds until `target` accuracy is first reached
    /// (Fig. 4), or `None` if never reached.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        let mut acc_time = 0.0;
        for r in &self.rounds {
            acc_time += r.max_client_seconds;
            if r.test_accuracy >= target {
                return Some(acc_time);
            }
        }
        None
    }

    /// Total slowest-client compute time across the run.
    pub fn total_time(&self) -> f64 {
        self.rounds.iter().map(|r| r.max_client_seconds).sum()
    }

    /// Total bytes uploaded across the run.
    pub fn total_upload_bytes(&self) -> usize {
        self.rounds.iter().map(|r| r.upload_bytes).sum()
    }

    /// Total faults injected across the run.
    pub fn total_faults_injected(&self) -> usize {
        self.rounds.iter().map(|r| r.faults_injected).sum()
    }

    /// Total uploads rejected by the server across the run (deadline
    /// misses + validation quarantines).
    pub fn total_updates_rejected(&self) -> usize {
        self.rounds.iter().map(|r| r.updates_rejected).sum()
    }

    /// Per-kind fault/rejection totals summed across the run.
    pub fn fault_totals(&self) -> FaultTotals {
        let mut t = FaultTotals::default();
        for r in &self.rounds {
            t.accumulate(&r.fault_totals);
        }
        t
    }

    /// Which of `n_clients` ever participated in any round — the
    /// participation gate for [`crate::detection::score`].
    pub fn participation_mask(&self, n_clients: usize) -> Vec<bool> {
        let mut mask = vec![false; n_clients];
        for r in &self.rounds {
            for &c in &r.participants {
                if c < n_clients {
                    mask[c] = true;
                }
            }
        }
        mask
    }

    /// The per-round slowest-client compute times (Fig. 5's series).
    pub fn per_round_seconds(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.max_client_seconds).collect()
    }

    /// The accuracy series indexed by round (Figs. 2a/2b).
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.test_accuracy).collect()
    }

    /// The accuracy series indexed by cumulative compute time
    /// (Figs. 2c/2d): `(seconds, accuracy)` pairs.
    pub fn accuracy_vs_time(&self) -> Vec<(f64, f64)> {
        let mut t = 0.0;
        self.rounds
            .iter()
            .map(|r| {
                t += r.max_client_seconds;
                (t, r.test_accuracy)
            })
            .collect()
    }

    /// Accuracy instability: the standard deviation of round-to-round
    /// accuracy changes over the last half of training. The paper's
    /// Fig. 2 discussion calls out exactly this kind of oscillation for
    /// over-corrected algorithms.
    pub fn instability(&self) -> f64 {
        let accs = self.accuracy_series();
        if accs.len() < 4 {
            return 0.0;
        }
        let tail = &accs[accs.len() / 2..];
        let diffs: Vec<f64> = tail.windows(2).map(|w| w[1] - w[0]).collect();
        taco_tensor::stats::std_dev(&diffs)
    }

    /// `true` if training diverged (non-finite or chance-level-collapse
    /// accuracy at the end after having been above it). Mirrors the
    /// paper's `×` convergence-failure markers.
    pub fn diverged(&self, chance_level: f64) -> bool {
        let last = self.final_accuracy();
        !last.is_finite() || (self.best_accuracy() > 1.5 * chance_level && last < chance_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: usize, acc: f64, secs: f64) -> RoundRecord {
        RoundRecord {
            round,
            test_accuracy: acc,
            max_client_seconds: secs,
            total_client_seconds: secs * 2.0,
            ..RoundRecord::default()
        }
    }

    fn history(accs: &[f64]) -> History {
        History {
            algorithm: "test".into(),
            rounds: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| rec(i, a, 1.0))
                .collect(),
            expelled_clients: Vec::new(),
        }
    }

    #[test]
    fn round_to_accuracy_is_one_based() {
        let h = history(&[0.1, 0.5, 0.7]);
        assert_eq!(h.rounds_to_accuracy(0.5), Some(2));
        assert_eq!(h.rounds_to_accuracy(0.9), None);
        assert_eq!(h.rounds_to_accuracy(0.05), Some(1));
    }

    #[test]
    fn time_to_accuracy_accumulates() {
        let h = history(&[0.1, 0.5, 0.7]);
        assert_eq!(h.time_to_accuracy(0.7), Some(3.0));
        assert_eq!(h.time_to_accuracy(0.99), None);
        assert_eq!(h.total_time(), 3.0);
    }

    #[test]
    fn accuracy_vs_time_pairs() {
        let h = history(&[0.2, 0.4]);
        assert_eq!(h.accuracy_vs_time(), vec![(1.0, 0.2), (2.0, 0.4)]);
    }

    #[test]
    fn final_and_best() {
        let h = history(&[0.3, 0.8, 0.6]);
        assert_eq!(h.final_accuracy(), 0.6);
        assert_eq!(h.best_accuracy(), 0.8);
    }

    #[test]
    fn stable_run_has_low_instability() {
        let smooth = history(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        let rocky = history(&[0.1, 0.2, 0.3, 0.4, 0.7, 0.2, 0.8, 0.1]);
        assert!(smooth.instability() < rocky.instability());
    }

    #[test]
    fn divergence_detection() {
        let ok = history(&[0.1, 0.5, 0.7]);
        assert!(!ok.diverged(0.1));
        let collapsed = history(&[0.1, 0.6, 0.05]);
        assert!(collapsed.diverged(0.1));
        let never_learned = history(&[0.1, 0.1, 0.1]);
        assert!(!never_learned.diverged(0.1));
    }

    #[test]
    fn fault_totals_sum_over_rounds() {
        let mut h = history(&[0.1, 0.2, 0.3]);
        h.rounds[0].faults_injected = 2;
        h.rounds[2].faults_injected = 1;
        h.rounds[1].updates_rejected = 3;
        assert_eq!(h.total_faults_injected(), 3);
        assert_eq!(h.total_updates_rejected(), 3);
    }

    #[test]
    fn per_kind_totals_accumulate_and_cross_check() {
        let mut h = history(&[0.1, 0.2]);
        h.rounds[0].fault_totals = FaultTotals {
            dropouts: 1,
            stragglers: 2,
            corruptions: 0,
            deadline_cuts: 1,
            quarantined: 0,
        };
        h.rounds[1].fault_totals = FaultTotals {
            dropouts: 0,
            stragglers: 1,
            corruptions: 3,
            deadline_cuts: 0,
            quarantined: 2,
        };
        let t = h.fault_totals();
        assert_eq!(t.dropouts, 1);
        assert_eq!(t.stragglers, 3);
        assert_eq!(t.corruptions, 3);
        assert_eq!(t.injected(), 7);
        assert_eq!(t.rejected(), 3);
    }

    #[test]
    fn participation_mask_unions_rounds() {
        let mut h = history(&[0.1, 0.2]);
        h.rounds[0].participants = vec![0, 2];
        h.rounds[1].participants = vec![2, 3];
        assert_eq!(
            h.participation_mask(5),
            vec![true, false, true, true, false]
        );
        // Out-of-range ids are ignored, not a panic.
        assert_eq!(h.participation_mask(1), vec![true]);
    }

    #[test]
    fn empty_history_is_safe() {
        let h = History::default();
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.rounds_to_accuracy(0.5), None);
        assert_eq!(h.instability(), 0.0);
        assert_eq!(h.time_to_accuracy(0.5), None);
        assert_eq!(h.total_time(), 0.0);
        assert_eq!(h.total_upload_bytes(), 0);
        assert_eq!(h.total_faults_injected(), 0);
        assert_eq!(h.total_updates_rejected(), 0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert!(h.accuracy_vs_time().is_empty());
    }

    #[test]
    fn target_reached_in_round_zero() {
        let h = history(&[0.9, 0.95, 0.99]);
        assert_eq!(h.rounds_to_accuracy(0.5), Some(1));
        // Fig. 4 charges the first round's straggler time even for an
        // immediate hit.
        assert_eq!(h.time_to_accuracy(0.5), Some(1.0));
    }

    #[test]
    fn target_never_reached() {
        let h = history(&[0.1, 0.2, 0.3]);
        assert_eq!(h.rounds_to_accuracy(0.31), None);
        assert_eq!(h.time_to_accuracy(0.31), None);
        // Boundary: >= means an exact hit counts.
        assert_eq!(h.rounds_to_accuracy(0.3), Some(3));
        assert_eq!(h.time_to_accuracy(0.3), Some(3.0));
    }

    #[test]
    fn non_monotone_curve_uses_first_crossing() {
        // Accuracy crosses the target, dips back under it, and crosses
        // again — both metrics must report the *first* crossing.
        let h = history(&[0.1, 0.6, 0.4, 0.7]);
        assert_eq!(h.rounds_to_accuracy(0.5), Some(2));
        assert_eq!(h.time_to_accuracy(0.5), Some(2.0));
        assert_eq!(h.best_accuracy(), 0.7);
        assert_eq!(h.final_accuracy(), 0.7);
    }
}
