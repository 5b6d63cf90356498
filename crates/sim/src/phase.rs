//! Stable names of the round-loop phases — a **reported contract**.
//!
//! Each phase of [`crate::Simulation::run`] is timed by a quiet span
//! feeding the `<name>.seconds` histogram (exact count, sum, min and
//! max; see `taco_trace::metrics`). Run manifests report those
//! histograms under these names verbatim, and each round trace event
//! carries the same span readings as its own `*_secs` fields, so
//! renaming a phase is a telemetry schema change.

/// The whole communication round.
pub const ROUND: &str = "sim.round";
/// Round planning (expulsion filtering, participation and fault
/// draws) + building the clients' jobs.
pub const PARTICIPATION: &str = "sim.phase.participation";
/// Local client training (all clients of the round).
pub const LOCAL: &str = "sim.phase.local";
/// The server's per-upload stage, on the worker pool: lossy
/// compression, wire corruption, byte accounting, the structure check,
/// decode and validation (`server::receive`), plus the byte sum.
pub const COMPRESS: &str = "sim.phase.compress";
/// Server-side aggregation: the one `FederatedAlgorithm::aggregate`
/// call of a round with accepted uploads (for a planning algorithm:
/// upload statistics, the plan, the tiled fold and the commit).
pub const AGGREGATE: &str = "sim.phase.aggregate";
/// Global-model evaluation.
pub const EVAL: &str = "sim.phase.eval";
/// One client's local computation (per-client, inside [`LOCAL`]).
pub const CLIENT_COMPUTE: &str = "client_compute";

/// Every phase name, outermost first.
pub const ALL: [&str; 7] = [
    ROUND,
    PARTICIPATION,
    LOCAL,
    COMPRESS,
    AGGREGATE,
    EVAL,
    CLIENT_COMPUTE,
];

/// The `name` of the `span` trace event the round thread records for
/// each finished client job; its `secs` is the job's
/// [`CLIENT_COMPUTE`] reading.
pub const CLIENT_STEP: &str = "client_step";

/// Span-event names outside the round-loop phase set: still contract —
/// renaming one changes the trace schema — but no quiet span and no
/// `<name>.seconds` histogram stands behind them.
pub const AUX: [&str; 1] = [CLIENT_STEP];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_namespaced() {
        let mut names = ALL.to_vec();
        names.extend(AUX);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len() + AUX.len());
        for name in ALL.iter().chain(AUX.iter()) {
            assert!(!name.ends_with(".seconds"), "{name} already suffixed");
        }
    }
}
