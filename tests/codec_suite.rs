//! Codec differential suite (see `taco_core::compress`).
//!
//! The server checks each encoded upload's structure, decodes it once
//! and folds only dense deltas. This suite checks that pipeline five
//! ways:
//!
//! - end-to-end simulations per codec over threads {1, 4}, with
//!   histories bit-identical to the threads = 1 sequential run;
//! - faulted runs per codec (dropouts, corruption, stragglers and a
//!   deadline) at pool threads {1, 4} against the inline stage of a
//!   one-thread sequential run, with identical histories, wire bytes
//!   and fault tallies — the pooled upload stage is thread-invariant;
//! - fault-pipeline runs proving corrupted *encodings* (a poisoned
//!   value, a broken index, a damaged scale header) are quarantined
//!   and counted in `updates_rejected`;
//! - runs without a fault plan proving malformed, wrong-length and
//!   non-finite uploads — including a seeded mutation of every
//!   encoding variant — are quarantined and counted, never folded and
//!   never a panic;
//! - a `NoCompression` run proving the codec plumbing is inert — its
//!   history is bit-identical to a codec-free run, so the committed
//!   goldens stay valid.
//!
//! Every codec runs in each test.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use common::{assert_values_eq, golden_run, golden_run_configured, history_value};
use taco::core::compress::{
    Compressor, EncodedDelta, NoCompression, Stochastic4Bit, TopK, Uniform8Bit,
};
use taco::core::taco::TacoConfig;
use taco::core::{AggWeighting, FedAvg, FederatedAlgorithm, Taco};
use taco::sim::fault::check_encoding;
use taco::sim::{FaultPlan, History, RejectReason};
use taco::tensor::pool::{self, Pool};
use taco::tensor::Prng;

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The four wire formats: dense, sparse, 8-bit and 4-bit.
fn codecs_under_test() -> [Arc<dyn Compressor>; 4] {
    [
        Arc::new(NoCompression),
        Arc::new(TopK::new(0.1)),
        Arc::new(Uniform8Bit),
        Arc::new(Stochastic4Bit),
    ]
}

#[test]
fn codec_histories_agree_across_thread_counts() {
    type Maker = fn() -> Box<dyn FederatedAlgorithm>;
    let algorithms: [Maker; 2] = [
        || Box::new(FedAvg::new(AggWeighting::Uniform)),
        || Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
    ];
    for codec in codecs_under_test() {
        for alg in algorithms {
            let run = |parallel: bool| {
                golden_run_configured(alg(), parallel, |c| c.with_compressor(codec.clone()))
            };
            let reference = pool::with_pool(&Pool::new(1), || run(false));
            let reference_value = history_value(&reference);
            for threads in THREAD_COUNTS {
                let got = pool::with_pool(&Pool::new(threads), || run(true));
                assert_values_eq(
                    &reference_value,
                    &history_value(&got),
                    &format!("{}.{}.t{threads}", codec.name(), reference.algorithm),
                );
            }
        }
    }
}

#[test]
fn faulted_upload_stage_is_thread_invariant() {
    // The server's per-upload stage (encode, wire corruption, byte
    // accounting, structure check, decode, validation) runs on the
    // pool. Under a plan with every fault kind, its outcome — the
    // trajectory, each round's wire bytes and the fault tallies —
    // must not depend on the pool width, nor differ from the inline
    // stage of a one-thread sequential run.
    let plan = FaultPlan::new()
        .with_dropouts(0.15)
        .with_corruption(0.25, 1e6)
        .with_stragglers(0.3, 3.0)
        .with_deadline(10.0, 1.0)
        .with_max_delta_norm(50.0);
    for codec in codecs_under_test() {
        let run = |threads: usize, parallel: bool| {
            let history = pool::with_pool(&Pool::new(threads), || {
                golden_run_configured(
                    Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
                    parallel,
                    |c| {
                        c.with_compressor(codec.clone())
                            .with_fault_plan(plan.clone())
                    },
                )
            });
            let tallies: Vec<_> = history
                .rounds
                .iter()
                .map(|r| {
                    (
                        r.upload_bytes,
                        r.faults_injected,
                        r.updates_rejected,
                        r.fault_totals,
                        r.participants.clone(),
                    )
                })
                .collect();
            (history_value(&history), tallies, history.fault_totals())
        };
        let (reference, reference_tallies, kinds) = run(1, false);
        let name = codec.name();
        assert!(
            kinds.dropouts > 0 && kinds.corruptions > 0 && kinds.deadline_cuts > 0,
            "{name}: the plan must exercise every fault kind: {kinds:?}"
        );
        assert!(kinds.quarantined > 0, "{name}: nothing quarantined");
        for threads in THREAD_COUNTS {
            let (got, got_tallies, _) = run(threads, true);
            assert_values_eq(&reference, &got, &format!("{name}.faulted.t{threads}"));
            assert_eq!(reference_tallies, got_tallies, "{name}.faulted.t{threads}");
        }
    }
}

#[test]
fn no_compression_codec_is_inert_against_the_codec_free_run() {
    // `NoCompression` threads a Dense encoding through the whole
    // pipeline; its trajectory (accuracies, losses, *and* the byte
    // accounting) must be bit-identical to a run with no codec at all
    // — which is what keeps the committed golden fixtures valid.
    let plain = golden_run(Box::new(FedAvg::new(AggWeighting::Uniform)), false);
    let with_codec =
        golden_run_configured(Box::new(FedAvg::new(AggWeighting::Uniform)), false, |c| {
            c.with_compressor(Arc::new(NoCompression))
        });
    assert_values_eq(
        &history_value(&plain),
        &history_value(&with_codec),
        "no_compression_inert",
    );
}

#[test]
fn corrupted_encodings_are_quarantined_and_counted() {
    for codec in codecs_under_test() {
        // Corrupt every upload: the damage lands on the encoded
        // payload (value slot, index, or scale header), and validation
        // must quarantine all of it — poisoned values/headers as
        // non-finite, broken indices as malformed encodings, scaled
        // payloads as norm explosions (the 1e-4 bound is far below any
        // honest delta scaled by 1e6).
        let history =
            golden_run_configured(Box::new(FedAvg::new(AggWeighting::Uniform)), false, |c| {
                c.with_compressor(codec.clone()).with_fault_plan(
                    FaultPlan::new()
                        .with_corruption(1.0, 1e6)
                        .with_max_delta_norm(1e-4),
                )
            });
        let rejected = history.total_updates_rejected();
        let injected = history.total_faults_injected();
        assert!(injected > 0, "{}: no corruption injected", codec.name());
        assert_eq!(
            rejected,
            injected,
            "{}: every corrupted encoding must be quarantined",
            codec.name()
        );
        for r in &history.rounds {
            assert_eq!(
                r.updates_rejected,
                r.faults_injected,
                "{} round {}: rejects must be counted per round",
                codec.name(),
                r.round
            );
        }
    }
}

#[test]
fn broken_index_is_rejected_as_malformed_before_the_floats_are_trusted() {
    // The defensive decode of this message is perfectly finite and
    // small — only the structural check can catch the out-of-range
    // index.
    let broken = EncodedDelta::Sparse {
        dim: 4,
        indices: vec![u32::MAX],
        values: vec![0.5],
    };
    assert!(broken.decode().iter().all(|v| v.is_finite()));
    assert_eq!(
        check_encoding(&broken, 4),
        Err(RejectReason::MalformedEncoding)
    );
    let sound = EncodedDelta::Sparse {
        dim: 4,
        indices: vec![1],
        values: vec![0.5],
    };
    assert_eq!(check_encoding(&sound, 4), Ok(()));
    assert_eq!(
        check_encoding(&sound, 5),
        Err(RejectReason::MalformedEncoding),
        "a payload for another model size is malformed"
    );
    assert_eq!(
        RejectReason::MalformedEncoding.label(),
        "malformed_encoding"
    );
}

/// A FedAvg run of the golden federation (4 clients, 8 rounds, every
/// client in every round) with `codec` on the uploads and no fault
/// plan.
fn fedavg_with_codec(codec: Arc<dyn Compressor>) -> History {
    golden_run_configured(Box::new(FedAvg::new(AggWeighting::Uniform)), false, |c| {
        c.with_compressor(codec)
    })
}

/// Every round trained on, and evaluated, a finite model.
fn assert_model_finite(history: &History, what: &str) {
    for r in &history.rounds {
        assert!(
            r.test_loss.is_finite() && r.train_loss.is_finite(),
            "{what} round {}: non-finite loss",
            r.round
        );
    }
}

/// A Q8 codec that passes the encodings of the calls `hit` selects
/// through `damage`. Uploads are encoded in client order, so with the
/// golden federation's four always-present clients call `c` is client
/// `c % 4`.
struct DamagingCodec {
    calls: AtomicUsize,
    hit: fn(usize) -> bool,
    damage: fn(EncodedDelta) -> EncodedDelta,
}

impl Compressor for DamagingCodec {
    fn name(&self) -> &'static str {
        "damaging"
    }

    fn encode(&self, input: &[f32], stream: &mut Prng) -> EncodedDelta {
        let enc = Uniform8Bit.encode(input, stream);
        if (self.hit)(self.calls.fetch_add(1, Ordering::Relaxed)) {
            (self.damage)(enc)
        } else {
            enc
        }
    }
}

fn damaging(
    hit: fn(usize) -> bool,
    damage: fn(EncodedDelta) -> EncodedDelta,
) -> Arc<dyn Compressor> {
    Arc::new(DamagingCodec {
        calls: AtomicUsize::new(0),
        hit,
        damage,
    })
}

/// Replaces an encoding with a sparse one whose only index is out of
/// range.
fn broken_index(enc: EncodedDelta) -> EncodedDelta {
    let dim = enc.dim();
    EncodedDelta::Sparse {
        dim,
        indices: vec![dim as u32],
        values: vec![1.0],
    }
}

#[test]
fn malformed_encodings_are_quarantined_without_a_fault_plan() {
    // No fault plan: the fold must still never see an encoding
    // that failed `check_integrity()`. Clients 1 and 3 send one every
    // round.
    let history = fedavg_with_codec(damaging(|c| c % 2 == 1, broken_index));
    assert_eq!(history.rounds.len(), 8);
    for r in &history.rounds {
        assert_eq!(r.faults_injected, 0, "round {}", r.round);
        assert_eq!(
            r.updates_rejected, 2,
            "round {}: two malformed uploads",
            r.round
        );
    }
    assert!(
        history.final_accuracy() > 0.0,
        "the well-formed half still trains"
    );
    // Every quarantine is reported to the algorithm: with λ = 0 one
    // strike expels, so round 0 expels the whole federation.
    let detecting = Taco::new(4, TacoConfig::paper_default(8, 6).with_detection(0.6, 0));
    let history = golden_run_configured(Box::new(detecting), false, |c| {
        c.with_compressor(damaging(|_| true, broken_index))
    });
    assert_eq!(
        history.rounds.len(),
        1,
        "training stops once all are expelled"
    );
    assert_eq!(history.rounds[0].updates_rejected, 4);
    assert_eq!(history.expelled_clients, vec![0, 1, 2, 3]);
}

#[test]
fn wrong_length_encodings_are_quarantined_without_a_fault_plan() {
    // A Q8 message one level short is structurally sound on its own —
    // only the comparison with the model's dimension catches it.
    let short = |mut enc: EncodedDelta| {
        if let EncodedDelta::Q8 { levels, .. } = &mut enc {
            levels.pop();
        }
        enc
    };
    let history = fedavg_with_codec(damaging(|c| c % 4 == 1, short));
    assert_eq!(history.rounds.len(), 8);
    for r in &history.rounds {
        assert_eq!(r.updates_rejected, 1, "round {}", r.round);
    }
    assert_model_finite(&history, "short_q8");
    assert!(history.final_accuracy() > 0.0);
}

#[test]
fn non_finite_uploads_are_quarantined_without_a_fault_plan() {
    // A well-formed dense payload carrying a NaN: no structural check
    // can catch it, so the finiteness check must run on every upload.
    let nan = |enc: EncodedDelta| {
        let mut v = enc.decode();
        v[0] = f32::NAN;
        EncodedDelta::Dense(v)
    };
    let poisoned = nan(EncodedDelta::Dense(vec![0.5; 3]));
    assert_eq!(check_encoding(&poisoned, 3), Ok(()), "structurally sound");
    assert!(!poisoned.decode().iter().all(|v| v.is_finite()));
    let history = fedavg_with_codec(damaging(|c| c % 4 == 1, nan));
    assert_eq!(history.rounds.len(), 8);
    for r in &history.rounds {
        assert_eq!(
            r.updates_rejected, 1,
            "round {}: the NaN upload is counted as non_finite",
            r.round
        );
    }
    assert_model_finite(&history, "nan_dense");
    assert!(history.final_accuracy() > 0.0);
}

/// Wraps a codec and, from a fixed seed, damages about three in four
/// of its encodings in one field each. The damage kind cycles through
/// every kind the variant has, so a run covers them all; which slot,
/// how far, and NaN vs ∞ are drawn at random. `log` records, per
/// encode call in order, the damage label or `None` for an honest
/// upload.
struct MutatingCodec {
    inner: Arc<dyn Compressor>,
    rng: Mutex<Prng>,
    log: Mutex<Vec<Option<&'static str>>>,
}

impl Compressor for MutatingCodec {
    fn name(&self) -> &'static str {
        "mutating"
    }

    fn encode(&self, input: &[f32], stream: &mut Prng) -> EncodedDelta {
        let mut enc = self.inner.encode(input, stream);
        let mut rng = self.rng.lock().unwrap();
        let mut log = self.log.lock().unwrap();
        let label = (rng.below(4) != 0).then(|| {
            let kind = log.iter().flatten().count();
            mutate(&mut enc, input.len(), kind, &mut rng)
        });
        log.push(label);
        enc
    }
}

/// How many damage kinds [`mutate`] has for `enc`'s variant.
fn damage_kinds(enc: &EncodedDelta) -> usize {
    match enc {
        EncodedDelta::Dense(_) => 3,
        EncodedDelta::Q8 { .. } => 5,
        EncodedDelta::Sparse { .. } | EncodedDelta::Q4 { .. } => 6,
    }
}

/// Damages one field of `enc`, an encoding of a `dim`-dimensional
/// delta, with damage kind `kind` modulo [`damage_kinds`].
/// Every kind either breaks the structure or the dimension, or writes
/// NaN/∞ where every decoded coordinate (or one value) reads it.
fn mutate(enc: &mut EncodedDelta, dim: usize, kind: usize, rng: &mut Prng) -> &'static str {
    let poison = if rng.below(2) == 0 {
        f32::NAN
    } else {
        f32::INFINITY
    };
    let out_of_range = (dim + rng.below(1000)) as u32;
    let resized = dim + 1 + rng.below(10);
    let kind = kind % damage_kinds(enc);
    match enc {
        EncodedDelta::Dense(v) => match kind {
            0 => {
                v.truncate(rng.below(dim));
                "dense.truncate"
            }
            1 => {
                v.resize(resized, 0.0);
                "dense.extend"
            }
            _ => {
                v[rng.below(dim)] = poison;
                "dense.poison_value"
            }
        },
        EncodedDelta::Sparse {
            dim: d,
            indices,
            values,
        } => {
            assert!(!indices.is_empty(), "top-k keeps at least one coordinate");
            match kind {
                0 => {
                    indices.pop();
                    "sparse.truncate_indices"
                }
                1 => {
                    values.push(1.0);
                    "sparse.extend_values"
                }
                2 => {
                    *d = resized;
                    "sparse.set_dim"
                }
                3 => {
                    let i = rng.below(indices.len());
                    indices.insert(i, indices[i]);
                    values.insert(i, 1.0);
                    "sparse.unsorted"
                }
                4 => {
                    let i = rng.below(indices.len());
                    indices[i] = out_of_range;
                    "sparse.out_of_range"
                }
                _ => {
                    values[rng.below(indices.len())] = poison;
                    "sparse.poison_value"
                }
            }
        }
        EncodedDelta::Q8 {
            min,
            scale,
            levels,
            exceptions,
        } => match kind {
            0 => {
                levels.truncate(rng.below(dim));
                "q8.truncate_levels"
            }
            1 => {
                levels.resize(resized, 0);
                "q8.extend_levels"
            }
            2 => {
                exceptions.push((out_of_range, 0.0));
                "q8.out_of_range"
            }
            3 => {
                exceptions.extend([(1, 0.0), (0, 0.0)]);
                "q8.unsorted"
            }
            _ => {
                *(if rng.below(2) == 0 { min } else { scale }) = poison;
                "q8.poison_header"
            }
        },
        EncodedDelta::Q4 {
            dim: d,
            min,
            scale,
            packed,
            exceptions,
        } => match kind {
            0 => {
                packed.truncate(rng.below(packed.len()));
                "q4.truncate_packed"
            }
            1 => {
                packed.push(0);
                "q4.extend_packed"
            }
            2 => {
                *d = resized;
                "q4.set_dim"
            }
            3 => {
                exceptions.push((out_of_range, 0.0));
                "q4.out_of_range"
            }
            4 => {
                exceptions.extend([(1, 0.0), (0, 0.0)]);
                "q4.unsorted"
            }
            _ => {
                *(if rng.below(2) == 0 { min } else { scale }) = poison;
                "q4.poison_header"
            }
        },
    }
}

#[test]
fn seeded_mutations_of_every_encoding_are_rejected_without_a_panic() {
    for codec in codecs_under_test() {
        let mutating = Arc::new(MutatingCodec {
            inner: codec.clone(),
            rng: Mutex::new(Prng::seed_from_u64(0x5EED)),
            log: Mutex::new(Vec::new()),
        });
        let history = fedavg_with_codec(mutating.clone());
        let log = mutating.log.lock().unwrap();
        let name = codec.name();
        // Every client uploads in every round, encoded in client order.
        let mut calls = log.iter();
        for r in &history.rounds {
            let mutated = calls
                .by_ref()
                .take(r.participants.len())
                .filter(|l| l.is_some())
                .count();
            assert_eq!(
                r.updates_rejected, mutated,
                "{name} round {}: every mutated upload is rejected, every honest one kept",
                r.round
            );
        }
        assert!(calls.next().is_none(), "{name}: every encode is accounted");
        let labels: std::collections::BTreeSet<_> = log.iter().flatten().collect();
        let kinds = damage_kinds(&codec.encode(&[1.0, 2.0], &mut Prng::seed_from_u64(0)));
        assert_eq!(
            labels.len(),
            kinds,
            "{name}: every damage kind ran: {labels:?}"
        );
        assert_model_finite(&history, name);
    }
}
