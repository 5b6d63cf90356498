//! Round planning: who takes part in a round and what happens to
//! them, decided before any model is touched.

use crate::client;
use crate::fault::FaultKind;
use crate::runner::{Participation, SimConfig};

/// Salt folded into the run seed for the per-round participation
/// sampling draw, keeping the subset-selection stream independent of
/// client training and every other salted stream in the workspace.
const PARTICIPATION_SALT: u64 = 0x9A97;

/// A change in one client's presence since the previous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Churn {
    /// The client (re)joined; announced through `client_joined`.
    Join(usize),
    /// The client left; announced through `client_departed`.
    Depart(usize),
}

/// Everything decided about one round before local training starts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoundPlan {
    /// The round index.
    pub(crate) round: usize,
    /// `φ` of the drift re-partition that fires this round, if any.
    pub(crate) drift_phi: Option<f64>,
    /// Who is present after this round's churn (the next round's
    /// previous presence mask).
    pub(crate) present: Vec<bool>,
    /// Presence changes to announce, in client order.
    pub(crate) churn: Vec<Churn>,
    /// Every client is expelled, so training freezes.
    pub(crate) frozen: bool,
    /// Present, non-expelled clients, in id order.
    pub(crate) eligible: Vec<usize>,
    /// Clients drawn from `eligible` to take part, in id order.
    pub(crate) participants: Vec<usize>,
    /// Each client's fault draw; `None` for every non-participant.
    pub(crate) faults: Vec<Option<FaultKind>>,
}

/// Plans round `round`: a pure function of the config (and its seed),
/// the round, the expelled set and the previous round's presence mask.
/// It reads no model and changes no algorithm state.
pub(crate) fn plan_round(
    config: &SimConfig,
    round: usize,
    expelled: &[usize],
    prev_present: &[bool],
) -> RoundPlan {
    let n = config.hyper.num_clients;
    let mut expelled_mask = vec![false; n];
    for &c in expelled {
        if c < n {
            expelled_mask[c] = true;
        }
    }
    let present = match &config.churn {
        Some(trace) => trace.present_mask(round),
        None => vec![true; n],
    };
    // Joins of expelled clients are never announced — expulsion
    // outlives any departure/rejoin cycle — but presence still
    // updates so the client isn't re-announced later.
    let churn = (0..n)
        .filter(|&c| present[c] != prev_present[c])
        .filter_map(|c| match (present[c], expelled_mask[c]) {
            (true, true) => None,
            (true, false) => Some(Churn::Join(c)),
            (false, _) => Some(Churn::Depart(c)),
        })
        .collect();
    let eligible: Vec<usize> = (0..n)
        .filter(|&c| !expelled_mask[c] && present[c])
        .collect();
    // The subset is drawn from the *eligible* clients — sampling all N
    // and filtering expelled ones afterwards would silently shrink
    // effective participation as freeloaders are expelled. Without
    // expulsions or churn `eligible` is the identity map, so the
    // historical stream is reproduced bit for bit; the per-round draw
    // consumes a fresh generator, so an all-absent round doesn't shift
    // later draws.
    let participants = match config.participation {
        Participation::Full => eligible.clone(),
        Participation::Sample { .. } if eligible.is_empty() => Vec::new(),
        Participation::Sample { fraction } => {
            let m = ((eligible.len() as f64 * fraction).ceil() as usize).clamp(1, eligible.len());
            let mut prng = client::client_rng(config.seed ^ PARTICIPATION_SALT, round, usize::MAX);
            let mut chosen: Vec<usize> = prng
                .sample_indices(eligible.len(), m)
                .into_iter()
                .map(|i| eligible[i])
                .collect();
            chosen.sort_unstable();
            chosen
        }
    };
    // Fault draws are a pure per-(round, client) function of the seed
    // and plan, so they are identical whatever the thread count.
    let mut faults = vec![None; n];
    if let Some(plan) = &config.fault_plan {
        for &c in &participants {
            faults[c] = plan.fault_for(config.seed, round, c);
        }
    }
    RoundPlan {
        round,
        drift_phi: config.drift.and_then(|s| s.repartition_at(round)),
        present,
        churn,
        frozen: expelled_mask.iter().all(|&e| e),
        eligible,
        participants,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::ChurnTrace;
    use taco_core::HyperParams;
    use taco_data::partition::DriftSchedule;

    fn base(n: usize, seed: u64) -> SimConfig {
        SimConfig::new(HyperParams::new(n, 4, 0.05, 16), 10, seed)
    }

    /// Plans `rounds` consecutive rounds, threading the presence mask
    /// through as the runner does.
    fn plans(config: &SimConfig, expelled: &[usize], rounds: usize) -> Vec<RoundPlan> {
        let mut present = vec![true; config.hyper.num_clients];
        (0..rounds)
            .map(|round| {
                let plan = plan_round(config, round, expelled, &present);
                present.clone_from(&plan.present);
                plan
            })
            .collect()
    }

    #[test]
    fn participants_come_from_the_eligible_set_only() {
        // 6 clients, 2 expelled, fraction 0.34 → ⌈0.34 · 4⌉ = 2 of the
        // 4 survivors every round.
        let config = base(6, 21).with_participation(0.34);
        for plan in plans(&config, &[0, 1], 10) {
            assert_eq!(plan.eligible, vec![2, 3, 4, 5]);
            assert_eq!(plan.participants.len(), 2, "round {}", plan.round);
            assert!(plan.participants.iter().all(|c| plan.eligible.contains(c)));
            assert!(!plan.frozen);
        }
        let full = plans(&base(6, 21), &[0, 1], 1);
        assert_eq!(full[0].participants, full[0].eligible);
        assert!(plans(&base(3, 1), &[0, 1, 2], 1)[0].frozen);
    }

    #[test]
    fn an_expelled_client_that_rejoins_is_never_announced() {
        let trace = ChurnTrace::new(3)
            .departs(0, 1)
            .joins(0, 3)
            .departs(1, 1)
            .joins(1, 3);
        let config = base(3, 5).with_churn(trace);
        let plans = plans(&config, &[0], 5);
        assert_eq!(
            plans[1].churn,
            vec![Churn::Depart(0), Churn::Depart(1)],
            "departures are announced, expelled or not"
        );
        assert_eq!(plans[3].churn, vec![Churn::Join(1)]);
        assert!(plans[3].present[0], "presence still tracks the rejoin");
        assert!(plans[4].churn.is_empty(), "no late re-announcement");
        assert_eq!(plans[3].participants, vec![1, 2]);
    }

    #[test]
    fn fault_draws_match_the_plan_for_exactly_the_participants() {
        let n = 6;
        let seed = 41;
        let faults = FaultPlan::new()
            .with_dropouts(0.3)
            .with_corruption(0.3, 1e12)
            .with_stragglers(0.2, 3.0);
        let config = base(n, seed)
            .with_participation(0.5)
            .with_fault_plan(faults.clone());
        let mut fired = 0;
        for plan in plans(&config, &[3], 10) {
            for c in 0..n {
                let expected = if plan.participants.contains(&c) {
                    faults.fault_for(seed, plan.round, c)
                } else {
                    None
                };
                assert_eq!(plan.faults[c], expected, "round {} client {c}", plan.round);
                fired += usize::from(expected.is_some());
            }
        }
        assert!(fired > 0, "plan never fired; the check is vacuous");
    }

    #[test]
    fn drift_fires_on_its_cadence() {
        let config = base(4, 29).with_drift(DriftSchedule::new(0.5, 0.1, 2, 8));
        let fired: Vec<usize> = plans(&config, &[], 8)
            .iter()
            .filter_map(|p| p.drift_phi.map(|phi| (p.round, phi)))
            .map(|(round, phi)| {
                assert!(phi > 0.0 && phi <= 0.5, "round {round} phi {phi}");
                round
            })
            .collect();
        assert_eq!(fired, vec![2, 4, 6]);
    }

    #[test]
    fn the_plan_is_the_same_at_any_thread_count() {
        let config = base(8, 13)
            .with_participation(0.4)
            .with_fault_plan(FaultPlan::new().with_dropouts(0.3))
            .with_churn(ChurnTrace::new(8).departs(2, 1).joins(2, 4))
            .with_drift(DriftSchedule::new(0.5, 0.1, 3, 10));
        let reference = plans(&config, &[5], 10);
        for threads in [1, 2, 4] {
            let pool = taco_tensor::pool::Pool::new(threads);
            let got = taco_tensor::pool::with_pool(&pool, || plans(&config, &[5], 10));
            assert_eq!(got, reference, "{threads} threads");
        }
    }
}
