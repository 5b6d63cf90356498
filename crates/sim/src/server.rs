//! The server side of a round: the upload pipeline — straggler
//! slowdown, the synchronous deadline, lossy compression with byte
//! accounting, wire corruption, the structure check and decode, and
//! validation/quarantine. The uploads that survive it go to the
//! algorithm's `aggregate`.
//!
//! Where each step runs:
//!
//! - On the round thread, in client order, before the stage: the
//!   straggler inflation and the deadline cut (with their events).
//! - On the shared worker pool ([`taco_tensor::pool`]), one task per
//!   upload: [`receive`] — encode, wire corruption, wire bytes, the
//!   structure check, decode and validation. Each step is a pure
//!   function of the upload, its fault and its codec stream
//!   `Prng::for_cell(seed ^ CODEC_SALT, round, client)`, so the result
//!   is the same whichever thread runs it. On a one-thread pool the
//!   stage runs inline on the round thread.
//! - On the round thread, in client order, after the stage: the byte
//!   sum, the quarantine events and the algorithm's
//!   `report_invalid_update` strikes.

use crate::fault::{self, Corruption, FaultKind, RejectReason};
use crate::runner::{note, SimConfig};
use taco_core::compress::CODEC_SALT;
use taco_core::{ClientUpdate, FederatedAlgorithm};
use taco_tensor::Prng;
use taco_trace::{self as trace, Sink};

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
    /// Seconds spent in the upload stage's span
    /// ([`crate::phase::COMPRESS`]).
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
/// reported to the algorithm, and every cut and quarantine is noted
/// in the run's `sink`, if it has one.
pub(crate) fn process_uploads(
    sink: Option<&dyn Sink>,
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
                    note(sink, "sim.faults.deadline_cut", "fault", round, |e| {
                        e.with("client", u.client).with("fault", "deadline_cut")
                    });
                    false
                } else {
                    true
                }
            });
        }
    }
    // The per-upload stage, on the pool: see [`receive`]. Each slot
    // carries one upload in and its verdict and wire bytes out.
    let compress_span = trace::Span::quiet(crate::phase::COMPRESS);
    let mut received: Vec<Received> = updates
        .into_iter()
        .map(|update| Received {
            update,
            verdict: Ok(()),
            bytes: 0,
        })
        .collect();
    taco_tensor::pool::for_each_chunk(&mut received, 1, |_, r| {
        let r = &mut r[0];
        // `plan_round` draws faults only under a fault plan, so without
        // one `fault_of` is all `None`.
        let corruption = match fault_of[r.update.client] {
            Some(FaultKind::Corrupt(c)) => Some(c),
            _ => None,
        };
        (r.verdict, r.bytes) = receive(config, round, corruption, &mut r.update);
    });
    let compress_secs = compress_span.finish();
    let upload_bytes: usize = received.iter().map(|r| r.bytes).sum();
    trace::counter("sim.upload_bytes").add(upload_bytes as u64);
    // Quarantined uploads are reported to the algorithm's
    // freeloader-detection machinery, in client order. They did
    // arrive, so their bytes stay counted.
    let mut accepted = Vec::with_capacity(received.len());
    let mut quarantined = 0usize;
    for Received {
        update: u, verdict, ..
    } in received
    {
        match verdict {
            Ok(()) => accepted.push(u),
            Err(reason) => {
                quarantined += 1;
                note(sink, "sim.faults.rejected", "fault", round, |e| {
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

/// One upload in the pooled stage: the update, replaced in place by
/// what the server decoded, its verdict and its accounted wire bytes.
struct Received {
    update: ClientUpdate,
    verdict: Result<(), RejectReason>,
    bytes: usize,
}

/// What the server makes of one arrived upload; pure in its arguments.
///
/// With a codec, the client encodes with its salted per-`(round,
/// client)` rounding stream, and a wire `corruption` lands on the
/// *encoded* payload (an index, a value slot, or the scale header),
/// since that is what travels. Wire bytes are measured from that
/// encoding. The server then checks its structure: a well-formed one
/// is decoded once, in place, into `update.delta`'s own buffer, a
/// malformed one is never decoded. Without a codec, the corruption
/// hits the dense floats (no other wire representation exists to
/// damage).
///
/// The decoded upload is then validated: anything malformed or
/// non-finite — and, under a fault plan, anything norm-exploded — gets
/// an `Err` and is quarantined before it reaches aggregation.
fn receive(
    config: &SimConfig,
    round: usize,
    corruption: Option<Corruption>,
    update: &mut ClientUpdate,
) -> (Result<(), RejectReason>, usize) {
    let (structure, bytes) = match &config.upload_compressor {
        Some(c) => {
            let mut stream = Prng::for_cell(config.seed ^ CODEC_SALT, round, update.client);
            let mut enc = c.encode(&update.delta, &mut stream);
            if let Some(corruption) = corruption {
                fault::apply_corruption_encoded(&mut enc, corruption);
            }
            let structure = fault::check_encoding(&enc, update.delta.len());
            if structure.is_ok() {
                enc.decode_into(&mut update.delta);
            }
            (structure, enc.wire_bytes())
        }
        None => {
            if let Some(corruption) = corruption {
                fault::apply_corruption(&mut update.delta, corruption);
            }
            (Ok(()), update.delta.len() * 4)
        }
    };
    let verdict = structure.and_then(|()| match &config.fault_plan {
        Some(plan) => plan.validation.validate(update),
        None => fault::check_finite(update),
    });
    (verdict, bytes)
}
