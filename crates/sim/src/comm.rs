//! Communication-time model.
//!
//! The paper's time-to-accuracy evaluation deliberately excludes
//! network time ("we assume all FL algorithms are implemented in
//! identical network conditions") and notes that when transmission
//! dominates, round-to-accuracy is the right lens. This model closes
//! the loop: given link parameters it converts per-round payloads into
//! seconds, so total time = compute + communication can be studied on
//! the spectrum between the paper's two extremes.

/// Link parameters for one client↔server connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Client→server bandwidth in bytes per second.
    pub uplink_bytes_per_sec: f64,
    /// Server→client bandwidth in bytes per second.
    pub downlink_bytes_per_sec: f64,
    /// Per-message latency in seconds (applied once per direction per
    /// round).
    pub latency_seconds: f64,
}

impl CommModel {
    /// A broadband-ish edge link: 10 Mbit/s up, 50 Mbit/s down, 30 ms
    /// latency.
    pub fn edge_broadband() -> Self {
        CommModel {
            uplink_bytes_per_sec: 10.0e6 / 8.0,
            downlink_bytes_per_sec: 50.0e6 / 8.0,
            latency_seconds: 0.03,
        }
    }

    /// A constrained cellular link: 1 Mbit/s up, 5 Mbit/s down, 80 ms
    /// latency — the regime where the paper says round count dominates.
    pub fn cellular() -> Self {
        CommModel {
            uplink_bytes_per_sec: 1.0e6 / 8.0,
            downlink_bytes_per_sec: 5.0e6 / 8.0,
            latency_seconds: 0.08,
        }
    }

    /// Seconds to complete one round's communication for a payload of
    /// `upload_bytes` up and `download_bytes` down (synchronous FL:
    /// both directions complete before the round ends).
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not positive.
    pub fn round_seconds(&self, upload_bytes: usize, download_bytes: usize) -> f64 {
        assert!(
            self.uplink_bytes_per_sec > 0.0 && self.downlink_bytes_per_sec > 0.0,
            "bandwidths must be positive"
        );
        upload_bytes as f64 / self.uplink_bytes_per_sec
            + download_bytes as f64 / self.downlink_bytes_per_sec
            + 2.0 * self.latency_seconds
    }
}

/// Combines a compute-time series with a per-round communication cost
/// into total-time-to-accuracy, returning `(total_seconds, reached)`
/// where `reached` is `false` if the accuracy series never attains
/// `target`.
pub fn time_to_accuracy_with_comm(
    accuracy: &[f64],
    compute_seconds: &[f64],
    comm_seconds_per_round: f64,
    target: f64,
) -> (f64, bool) {
    let mut total = 0.0;
    for (acc, secs) in accuracy.iter().zip(compute_seconds) {
        total += secs + comm_seconds_per_round;
        if *acc >= target {
            return (total, true);
        }
    }
    (total, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seconds_adds_both_directions_and_latency() {
        let m = CommModel {
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 200.0,
            latency_seconds: 0.5,
        };
        // 100 B up (1 s) + 200 B down (1 s) + 2×0.5 s latency = 3 s.
        assert!((m.round_seconds(100, 200) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cellular_is_slower_than_broadband() {
        let bytes = 400_000;
        assert!(
            CommModel::cellular().round_seconds(bytes, bytes)
                > CommModel::edge_broadband().round_seconds(bytes, bytes)
        );
    }

    #[test]
    fn comm_time_shifts_the_winner() {
        // Algorithm A: fast compute, many rounds. Algorithm B: slow
        // compute, few rounds. Under cheap comm A wins; under expensive
        // comm B wins — the paper's Section V-A discussion.
        let acc_a = [0.2, 0.4, 0.6, 0.8];
        let secs_a = [1.0, 1.0, 1.0, 1.0];
        let acc_b = [0.5, 0.8];
        let secs_b = [3.0, 3.0];
        let cheap = 0.1;
        let (ta, ra) = time_to_accuracy_with_comm(&acc_a, &secs_a, cheap, 0.8);
        let (tb, rb) = time_to_accuracy_with_comm(&acc_b, &secs_b, cheap, 0.8);
        assert!(ra && rb);
        assert!(ta < tb, "cheap comm: {ta} vs {tb}");
        let expensive = 10.0;
        let (ta, _) = time_to_accuracy_with_comm(&acc_a, &secs_a, expensive, 0.8);
        let (tb, _) = time_to_accuracy_with_comm(&acc_b, &secs_b, expensive, 0.8);
        assert!(tb < ta, "expensive comm: {tb} vs {ta}");
    }

    #[test]
    fn unreachable_target_reports_false() {
        let (_, reached) = time_to_accuracy_with_comm(&[0.1, 0.2], &[1.0, 1.0], 0.0, 0.9);
        assert!(!reached);
    }
}
