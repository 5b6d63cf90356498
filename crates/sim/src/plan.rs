//! Round planning: who takes part in a round and what happens to
//! them, decided before any model is touched.

use crate::fault::FaultKind;
use crate::runner::SimConfig;
use taco_tensor::Prng;

/// Salt folded into the run seed for the per-round participation
/// sampling draw, keeping the subset-selection stream independent of
/// client training and every other salted stream in the workspace.
const PARTICIPATION_SALT: u64 = 0x9A97;

/// Everything decided about one round before local training starts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoundPlan {
    /// The round index.
    pub(crate) round: usize,
    /// Non-expelled clients, in id order; empty once every client is
    /// expelled, which freezes training.
    pub(crate) eligible: Vec<usize>,
    /// Clients drawn from `eligible` to take part, in id order.
    pub(crate) participants: Vec<usize>,
    /// Each client's fault draw; `None` for every non-participant.
    pub(crate) faults: Vec<Option<FaultKind>>,
}

/// Plans round `round`: a pure function of the config (and its seed),
/// the round and the expelled set. It reads no model and changes no
/// algorithm state.
pub(crate) fn plan_round(config: &SimConfig, round: usize, expelled: &[usize]) -> RoundPlan {
    let n = config.hyper.num_clients;
    let eligible: Vec<usize> = (0..n).filter(|c| !expelled.contains(c)).collect();
    // The subset is drawn from the *eligible* clients — sampling all N
    // and filtering expelled ones afterwards would silently shrink
    // effective participation as freeloaders are expelled. Without
    // expulsions `eligible` is the identity map, so the historical
    // stream is reproduced bit for bit; the per-round draw consumes a
    // fresh generator, so no round shifts later rounds' draws.
    // At fraction 1.0 the draw keeps every eligible client, sorted.
    let participants = if eligible.is_empty() {
        Vec::new()
    } else {
        let m = ((eligible.len() as f64 * config.participation).ceil() as usize)
            .clamp(1, eligible.len());
        let mut prng = Prng::for_cell(config.seed ^ PARTICIPATION_SALT, round, usize::MAX);
        let mut chosen: Vec<usize> = prng
            .sample_indices(eligible.len(), m)
            .into_iter()
            .map(|i| eligible[i])
            .collect();
        chosen.sort_unstable();
        chosen
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
        eligible,
        participants,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use taco_core::HyperParams;

    fn base(n: usize, seed: u64) -> SimConfig {
        SimConfig::new(HyperParams::new(n, 4, 0.05, 16), 10, seed)
    }

    /// Plans `rounds` consecutive rounds against a fixed expelled set.
    fn plans(config: &SimConfig, expelled: &[usize], rounds: usize) -> Vec<RoundPlan> {
        (0..rounds)
            .map(|round| plan_round(config, round, expelled))
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
        }
        let full = plans(&base(6, 21), &[0, 1], 1);
        assert_eq!(full[0].participants, full[0].eligible);
        assert!(plans(&base(3, 1), &[0, 1, 2], 1)[0].eligible.is_empty());
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
    fn the_plan_is_the_same_at_any_thread_count() {
        let config = base(8, 13)
            .with_participation(0.4)
            .with_fault_plan(FaultPlan::new().with_dropouts(0.3));
        let reference = plans(&config, &[5], 10);
        for threads in [1, 2, 4] {
            let pool = taco_tensor::pool::Pool::new(threads);
            let got = taco_tensor::pool::with_pool(&pool, || plans(&config, &[5], 10));
            assert_eq!(got, reference, "{threads} threads");
        }
    }
}
