//! The detection scoreboard: participation-aware TPR/FPR scoring
//! (Table VIII) and per-round detection curves.
//!
//! Scores are computed against the ground-truth behaviour vector the
//! run was configured with ([`crate::runner::SimConfig::with_behaviors`]).
//! Scoring is **participation-aware**: a labelled freeloader the server
//! never sampled was never observable, so it belongs in neither the
//! TPR denominator (not a missed detection) nor the FPR denominator.
//! [`score`] takes the ever-participated mask for exactly this reason;
//! pass `None` only when every client is known to have participated.

use crate::freeloader::ClientBehavior;
use crate::metrics::History;

/// True-positive and false-positive rates of a detection run, with
/// the raw counts they were computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// `true_positives / malicious_total`; `1.0` when no malicious
    /// client was observable (nothing to miss).
    pub tpr: f64,
    /// `false_positives / benign_total`; `0.0` when no benign client
    /// was observable.
    pub fpr: f64,
    /// Flagged clients that really are malicious (and participated).
    pub true_positives: usize,
    /// Flagged clients that are benign (and participated).
    pub false_positives: usize,
    /// Ground-truth malicious clients that ever participated — the
    /// TPR denominator.
    pub malicious_total: usize,
    /// Ground-truth benign clients that ever participated — the FPR
    /// denominator.
    pub benign_total: usize,
}

/// One round's entry in a detection curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDetection {
    /// Round index `t` (0-based), matching the history's records.
    pub round: usize,
    /// The scoreboard after this round, gated on participation so far.
    pub score: DetectionScore,
}

/// Per-round detection curves over a full run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionCurves {
    /// One entry per recorded round, in order.
    pub per_round: Vec<RoundDetection>,
    /// The paper-style **time-to-detection**: the first 1-based round
    /// after which *every* malicious client that had participated so
    /// far is flagged (and at least one had participated). `None` if
    /// detection never completes.
    pub time_to_detection: Option<usize>,
    /// Per client: the first 1-based round it was flagged, `None` if
    /// never.
    pub first_flagged: Vec<Option<usize>>,
}

/// Scores flagged clients against ground-truth behaviours.
///
/// `flagged` is whatever the algorithm reports — expelled clients for
/// the expulsion scoreboard, [`taco_core::FederatedAlgorithm::suspected`]
/// for soft suspicion. `participated` gates both denominators and the
/// flag counts: clients the server never drew are invisible to any
/// detector and are excluded entirely. `None` treats every client as
/// having participated (the historical behaviour).
///
/// # Panics
///
/// Panics if any flagged index is out of range, or if `participated`
/// is provided with a length different from `behaviors`.
pub fn score(
    flagged: &[usize],
    behaviors: &[ClientBehavior],
    participated: Option<&[bool]>,
) -> DetectionScore {
    for &e in flagged {
        assert!(e < behaviors.len(), "flagged client {e} out of range");
    }
    if let Some(p) = participated {
        assert_eq!(
            p.len(),
            behaviors.len(),
            "participation mask covers {} clients but behaviours cover {}",
            p.len(),
            behaviors.len()
        );
    }
    let observed = |c: usize| participated.is_none_or(|p| p[c]);
    let malicious_total = behaviors
        .iter()
        .enumerate()
        .filter(|&(c, b)| b.is_freeloader() && observed(c))
        .count();
    let benign_total = behaviors
        .iter()
        .enumerate()
        .filter(|&(c, b)| !b.is_freeloader() && observed(c))
        .count();
    let true_positives = flagged
        .iter()
        .filter(|&&c| behaviors[c].is_freeloader() && observed(c))
        .count();
    let false_positives = flagged
        .iter()
        .filter(|&&c| !behaviors[c].is_freeloader() && observed(c))
        .count();
    DetectionScore {
        tpr: if malicious_total == 0 {
            1.0
        } else {
            true_positives as f64 / malicious_total as f64
        },
        fpr: if benign_total == 0 {
            0.0
        } else {
            false_positives as f64 / benign_total as f64
        },
        true_positives,
        false_positives,
        malicious_total,
        benign_total,
    }
}

/// Builds the per-round detection curves for a run: each round is
/// scored on the algorithm's recorded suspicion set
/// ([`crate::metrics::RoundRecord::suspected`]), gated on the clients
/// that have participated up to and including that round.
///
/// # Panics
///
/// Panics if any recorded suspect is out of range for `behaviors`.
pub fn curves(history: &History, behaviors: &[ClientBehavior]) -> DetectionCurves {
    let n = behaviors.len();
    let mut participated = vec![false; n];
    let mut first_flagged = vec![None; n];
    let mut per_round = Vec::with_capacity(history.rounds.len());
    let mut time_to_detection = None;
    for rec in &history.rounds {
        for &c in &rec.participants {
            if c < n {
                participated[c] = true;
            }
        }
        for &c in &rec.suspected {
            assert!(c < n, "suspected client {c} out of range");
            if first_flagged[c].is_none() {
                first_flagged[c] = Some(rec.round + 1);
            }
        }
        let s = score(&rec.suspected, behaviors, Some(&participated));
        if time_to_detection.is_none()
            && s.malicious_total > 0
            && s.true_positives == s.malicious_total
        {
            time_to_detection = Some(rec.round + 1);
        }
        per_round.push(RoundDetection {
            round: rec.round,
            score: s,
        });
    }
    DetectionCurves {
        per_round,
        time_to_detection,
        first_flagged,
    }
}

impl DetectionCurves {
    /// The scoreboard after the final recorded round.
    pub fn final_score(&self) -> Option<DetectionScore> {
        self.per_round.last().map(|r| r.score)
    }
}

impl std::fmt::Display for DetectionScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TPR {:.1}% / FPR {:.2}%",
            self.tpr * 100.0,
            self.fpr * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freeloader::with_freeloaders;
    use crate::metrics::RoundRecord;

    #[test]
    fn perfect_detection() {
        let b = with_freeloaders(20, 8);
        let flagged: Vec<usize> = (0..8).collect();
        let s = score(&flagged, &b, None);
        assert_eq!(s.tpr, 1.0);
        assert_eq!(s.fpr, 0.0);
        assert_eq!(s.true_positives, 8);
        assert_eq!(s.malicious_total, 8);
        assert_eq!(s.benign_total, 12);
    }

    #[test]
    fn missed_and_misjudged() {
        let b = with_freeloaders(10, 4);
        // Caught 2 of 4 freeloaders, misjudged 3 of 6 benign.
        let flagged = vec![0, 1, 5, 6, 7];
        let s = score(&flagged, &b, None);
        assert!((s.tpr - 0.5).abs() < 1e-12);
        assert!((s.fpr - 0.5).abs() < 1e-12);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.false_positives, 3);
    }

    #[test]
    fn never_sampled_attacker_is_not_a_false_negative() {
        // 4 clients, clients 0-1 malicious; client 1 never participated.
        let b = with_freeloaders(4, 2);
        let participated = vec![true, false, true, true];
        let s = score(&[0], &b, Some(&participated));
        assert_eq!(s.malicious_total, 1, "unsampled attacker in denominator");
        assert_eq!(s.tpr, 1.0);
        assert_eq!(s.fpr, 0.0);
        // Without the gate the same run reads as a 50% miss.
        assert_eq!(score(&[0], &b, None).tpr, 0.5);
    }

    #[test]
    fn never_sampled_benign_is_excluded_from_fpr() {
        let b = with_freeloaders(4, 1);
        // Benign client 3 never participated; flagging benign client 1
        // is 1 false positive out of 2 observable benign clients.
        let participated = vec![true, true, true, false];
        let s = score(&[0, 1], &b, Some(&participated));
        assert_eq!(s.benign_total, 2);
        assert!((s.fpr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_freeloaders_edge_case() {
        let b = with_freeloaders(5, 0);
        let s = score(&[], &b, None);
        assert_eq!(s.tpr, 1.0);
        assert_eq!(s.fpr, 0.0);
        assert_eq!(s.malicious_total, 0);
    }

    #[test]
    fn display_is_readable() {
        let b = with_freeloaders(4, 2);
        let s = score(&[0, 1], &b, None);
        assert_eq!(format!("{s}"), "TPR 100.0% / FPR 0.00%");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = with_freeloaders(2, 1);
        let _ = score(&[5], &b, None);
    }

    #[test]
    #[should_panic(expected = "participation mask covers")]
    fn mask_length_mismatch_panics() {
        let b = with_freeloaders(3, 1);
        let _ = score(&[], &b, Some(&[true, true]));
    }

    fn round(round: usize, participants: Vec<usize>, suspected: Vec<usize>) -> RoundRecord {
        RoundRecord {
            round,
            participants,
            suspected,
            ..RoundRecord::default()
        }
    }

    #[test]
    fn curves_track_time_to_detection() {
        let b = with_freeloaders(4, 2);
        let h = History {
            algorithm: "test".into(),
            rounds: vec![
                // Round 0: only attacker 0 seen, nothing flagged yet.
                round(0, vec![0, 2], vec![]),
                // Round 1: attacker 0 flagged — all *observed*
                // attackers caught, so detection completes here.
                round(1, vec![0, 3], vec![0]),
                // Round 2: attacker 1 appears, briefly unflagged.
                round(2, vec![1, 2], vec![0]),
                // Round 3: both flagged again.
                round(3, vec![0, 1], vec![0, 1]),
            ],
            expelled_clients: vec![],
        };
        let c = curves(&h, &b);
        assert_eq!(c.per_round.len(), 4);
        assert_eq!(c.per_round[0].score.malicious_total, 1);
        assert_eq!(c.per_round[0].score.true_positives, 0);
        assert_eq!(c.time_to_detection, Some(2));
        assert_eq!(c.first_flagged, vec![Some(2), Some(4), None, None]);
        let last = c.final_score().expect("non-empty curves");
        assert_eq!(last.tpr, 1.0);
        assert_eq!(last.fpr, 0.0);
    }

    #[test]
    fn curves_never_complete_when_an_observed_attacker_escapes() {
        let b = with_freeloaders(3, 1);
        let h = History {
            algorithm: "test".into(),
            rounds: vec![
                round(0, vec![0, 1, 2], vec![]),
                round(1, vec![0, 1], vec![]),
            ],
            expelled_clients: vec![],
        };
        let c = curves(&h, &b);
        assert_eq!(c.time_to_detection, None);
        assert_eq!(c.first_flagged, vec![None, None, None]);
        assert_eq!(c.per_round[1].score.tpr, 0.0);
    }

    #[test]
    fn empty_history_yields_empty_curves() {
        let b = with_freeloaders(2, 1);
        let c = curves(&History::default(), &b);
        assert!(c.per_round.is_empty());
        assert_eq!(c.time_to_detection, None);
        assert_eq!(c.first_flagged, vec![None, None]);
        assert_eq!(c.final_score(), None);
    }
}
