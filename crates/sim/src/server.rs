//! The server side of a round: the upload pipeline — straggler
//! slowdown, the synchronous deadline, lossy compression with byte
//! accounting, wire corruption, the structure check and decode, and
//! validation/quarantine. The uploads that survive it go to the
//! algorithm's `aggregate`.

use crate::fault::{self, FaultKind};
use crate::runner::{note, SimConfig};
use taco_core::{ClientUpdate, FederatedAlgorithm};
use taco_trace as trace;

/// What the pipeline did to a round's uploads.
pub(crate) struct UploadOutcome {
    /// The uploads that reached aggregation, in client order.
    pub(crate) accepted: Vec<ClientUpdate>,
    /// Accounted wire bytes for the uploads that arrived.
    pub(crate) upload_bytes: usize,
    /// Uploads cut by the synchronous deadline.
    pub(crate) deadline_cuts: usize,
    /// Uploads quarantined by validation.
    pub(crate) quarantined: usize,
    /// Seconds spent in the compression phase span.
    pub(crate) compress_secs: f64,
}

impl UploadOutcome {
    /// Deadline cuts + quarantined uploads.
    pub(crate) fn updates_rejected(&self) -> usize {
        self.deadline_cuts + self.quarantined
    }
}

/// Runs the pipeline over this round's raw uploads (already sorted in
/// client order) and returns the survivors; quarantined uploads are
/// reported to the algorithm.
pub(crate) fn process_uploads(
    config: &SimConfig,
    fault_of: &[Option<FaultKind>],
    round: usize,
    mut updates: Vec<ClientUpdate>,
    algorithm: &mut dyn FederatedAlgorithm,
) -> UploadOutcome {
    // Straggler slowdown + the server's synchronous deadline. The
    // deadline compares *simulated* time (steps × seconds_per_step ×
    // slowdown) so that cuts are deterministic; the measured wall
    // clock is only inflated for the timing metrics. Late uploads
    // never arrive, so they cost no accounted bytes.
    let mut deadline_cuts = 0usize;
    let mut quarantined = 0usize;
    if let Some(plan) = &config.fault_plan {
        for u in &mut updates {
            if let Some(FaultKind::Straggler { factor }) = fault_of[u.client] {
                u.compute_seconds *= factor;
            }
        }
        if let Some(deadline) = plan.deadline {
            updates.retain(|u| {
                let slowdown = match fault_of[u.client] {
                    Some(FaultKind::Straggler { factor }) => factor,
                    _ => 1.0,
                };
                if deadline.misses(u.steps, slowdown) {
                    deadline_cuts += 1;
                    note("sim.faults.deadline_cut", "fault", round, |e| {
                        e.with("client", u.client).with("fault", "deadline_cut")
                    });
                    false
                } else {
                    true
                }
            });
        }
    }
    // Lossy upload compression + byte accounting. Each client encodes
    // with a salted per-(round, client) rounding stream, wire bytes
    // are measured from the actual encoding, and — when a fault plan
    // is active — wire corruption is applied to the *encoded* payload
    // (an index, a value slot, or the scale header), since that is
    // what travels. The server then checks the encoding's structure:
    // a well-formed one is decoded once into the delta and dropped; a
    // malformed one is never decoded and is quarantined below.
    let compress_span = trace::Span::quiet(crate::phase::COMPRESS);
    let mut structure = vec![Ok(()); updates.len()];
    let upload_bytes: usize = match &config.upload_compressor {
        Some(c) => {
            let mut bytes = 0;
            for (u, verdict) in updates.iter_mut().zip(&mut structure) {
                let mut stream = taco_core::compress::codec_stream(config.seed, round, u.client);
                let mut enc = c.encode(&u.delta, &mut stream);
                if config.fault_plan.is_some() {
                    if let Some(FaultKind::Corrupt(corruption)) = fault_of[u.client] {
                        fault::apply_corruption_encoded(&mut enc, corruption);
                    }
                }
                bytes += enc.wire_bytes();
                *verdict = fault::check_encoding(&enc, u.delta.len());
                if verdict.is_ok() {
                    u.delta = enc.decode();
                }
            }
            bytes
        }
        None => updates.iter().map(|u| u.delta.len() * 4).sum(),
    };
    let compress_secs = compress_span.finish();
    trace::counter("sim.upload_bytes").add(upload_bytes as u64);
    // Uncompressed runs corrupt the dense floats directly (there is no
    // other wire representation to damage).
    if config.fault_plan.is_some() && config.upload_compressor.is_none() {
        for u in &mut updates {
            if let Some(FaultKind::Corrupt(corruption)) = fault_of[u.client] {
                fault::apply_corruption(&mut u.delta, corruption);
            }
        }
    }
    // The server quarantines anything malformed or non-finite — and,
    // under a fault plan, anything norm-exploded — before it reaches
    // aggregation, and reports the offender to the algorithm's
    // freeloader-detection machinery. Quarantined uploads did arrive,
    // so their bytes stay counted.
    let mut accepted = Vec::with_capacity(updates.len());
    for (u, structure) in updates.into_iter().zip(structure) {
        let verdict = structure.and_then(|()| match &config.fault_plan {
            Some(plan) => plan.validation.validate(&u),
            None => fault::check_finite(&u),
        });
        match verdict {
            Ok(()) => accepted.push(u),
            Err(reason) => {
                quarantined += 1;
                note("sim.faults.rejected", "fault", round, |e| {
                    e.with("client", u.client)
                        .with("fault", "quarantine")
                        .with("reason", reason.label())
                });
                algorithm.report_invalid_update(u.client);
            }
        }
    }
    UploadOutcome {
        accepted,
        upload_bytes,
        deadline_cuts,
        quarantined,
        compress_secs,
    }
}
