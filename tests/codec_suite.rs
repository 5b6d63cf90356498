//! Codec differential suite (see `taco_core::compress`).
//!
//! The upload codecs carry the same hard contract as the aggregation
//! path: the server's [`ShardFold`] folds an encoded payload
//! **decode-free**, and that must be bit-identical to decoding it and
//! running the dense weighted mean, at any shard count and any
//! `TACO_THREADS`. This suite enforces the contract four ways:
//!
//! - a fold differential over shards {1, 3, 8} × threads {1, 4},
//!   comparing the folded mean bit-for-bit against
//!   `ops::weighted_mean` over the decoded payloads;
//! - end-to-end simulations per codec over the same shard × thread
//!   matrix, with bit-identical histories;
//! - fault-pipeline runs proving corrupted *encodings* (a poisoned
//!   value, a broken index, a damaged scale header) are quarantined
//!   and counted in `updates_rejected` — and that malformed encodings
//!   are quarantined even without a fault plan;
//! - a `NoCompression` run proving the codec plumbing is inert — its
//!   history is bit-identical to a codec-free run, so the committed
//!   goldens stay valid.
//!
//! CI runs this suite once per codec with `TACO_CODEC` pinned;
//! locally, with the variable unset, every codec is exercised in one
//! pass.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{assert_values_close, fixed_shards, golden_run, golden_run_configured, history_value};
use taco::core::compress::{
    codec_by_name, codec_from_env, codec_stream, Compressor, EncodedDelta, NoCompression,
};
use taco::core::taco::TacoConfig;
use taco::core::{AggWeighting, ClientUpdate, FedAvg, FederatedAlgorithm, ShardFold, Taco};
use taco::sim::{FaultPlan, RejectReason, ValidationPolicy};
use taco::tensor::pool::{self, Pool};
use taco::tensor::{ops, Prng, Tensor};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The codecs this run exercises: the one pinned by `TACO_CODEC` when
/// CI's codec matrix sets it, otherwise the full registry.
fn codecs_under_test() -> Vec<Arc<dyn Compressor>> {
    match codec_from_env() {
        Some(c) => vec![c],
        None => ["none", "topk", "q8", "q4"]
            .iter()
            .map(|n| codec_by_name(n).expect("registry name"))
            .collect(),
    }
}

/// Encoded uploads for a synthetic cohort: normal deltas of varying
/// magnitude, encoded with the per-(round, client) rounding stream.
/// Each upload carries its encoding and, as on the server, the decoded
/// delta.
fn encoded_cohort(codec: &dyn Compressor, dim: usize, clients: usize) -> Vec<ClientUpdate> {
    let mut rng = Prng::seed_from_u64(17);
    (0..clients)
        .map(|client| {
            let delta = Tensor::randn([dim], 0.5 + client as f32, &mut rng).into_vec();
            let enc = codec.encode(&delta, &mut codec_stream(17, 0, client));
            ClientUpdate {
                client,
                delta: enc.decode(),
                num_samples: 1,
                final_v: None,
                mean_loss: 0.0,
                grad_evals: 1,
                steps: 1,
                compute_seconds: 0.0,
                encoded: Some(enc),
            }
        })
        .collect()
}

#[test]
fn decode_free_folds_are_bit_identical_across_the_shard_thread_matrix() {
    let dim = 2003; // odd: shard boundaries cross Q4 nibble parity
    let clients = 5;
    let weights: [f32; 5] = [1.0, 0.25, 2.0, 0.125, 0.8125];
    for codec in codecs_under_test() {
        let cohort = encoded_cohort(codec.as_ref(), dim, clients);
        // Reference: the sequential weighted mean of the decoded
        // payloads.
        let decoded: Vec<&[f32]> = cohort.iter().map(|u| u.delta.as_slice()).collect();
        let reference = ops::weighted_mean(&decoded, &weights);
        let mut fold = ShardFold::default();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let pool = Pool::new(threads);
                let mean = pool::with_pool(&pool, || fold.weighted_mean(&cohort, &weights, shards));
                assert_eq!(mean.len(), dim);
                for (i, (got, want)) in mean.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} shards={shards} threads={threads} dim {i}: {got} vs {want}",
                        codec.name()
                    );
                }
            }
        }
    }
}

#[test]
fn codec_histories_agree_across_shard_and_thread_counts() {
    type Maker = fn() -> Box<dyn FederatedAlgorithm>;
    let algorithms: [Maker; 2] = [
        || Box::new(FedAvg::new(AggWeighting::Uniform)),
        || Box::new(Taco::new(4, TacoConfig::paper_default(8, 6))),
    ];
    for codec in codecs_under_test() {
        for alg in algorithms {
            let run = |shards: usize, parallel: bool| {
                golden_run_configured(fixed_shards(alg(), shards), parallel, |c| {
                    c.with_compressor(codec.clone())
                })
            };
            let reference = pool::with_pool(&Pool::new(1), || run(1, false));
            let reference_value = history_value(&reference);
            for shards in SHARD_COUNTS {
                for threads in THREAD_COUNTS {
                    let got = pool::with_pool(&Pool::new(threads), || run(shards, true));
                    assert_values_close(
                        &reference_value,
                        &history_value(&got),
                        0.0,
                        &format!(
                            "{}.{}.shards{shards}.t{threads}",
                            codec.name(),
                            reference.algorithm
                        ),
                    );
                }
            }
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
    assert_values_close(
        &history_value(&plain),
        &history_value(&with_codec),
        0.0,
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
    // The decoded delta below is perfectly finite and small — only the
    // structural check can catch the out-of-range index.
    let update = ClientUpdate {
        client: 0,
        delta: vec![0.0, 0.5, 0.0, 0.0],
        num_samples: 1,
        final_v: None,
        mean_loss: 0.0,
        grad_evals: 1,
        steps: 1,
        compute_seconds: 0.0,
        encoded: Some(EncodedDelta::Sparse {
            dim: 4,
            indices: vec![u32::MAX],
            values: vec![0.5],
        }),
    };
    let policy = ValidationPolicy::default();
    assert_eq!(
        policy.validate(&update),
        Err(RejectReason::MalformedEncoding)
    );
    assert_eq!(
        RejectReason::MalformedEncoding.label(),
        "malformed_encoding"
    );
}

/// A codec whose encodings are structurally broken — an out-of-range
/// sparse index — on every upload with an odd call index (`odd_only`),
/// or on every upload. Honest calls ship the dense floats.
struct MalformingCodec {
    calls: AtomicUsize,
    odd_only: bool,
}

impl MalformingCodec {
    fn shared(odd_only: bool) -> Arc<dyn Compressor> {
        Arc::new(MalformingCodec {
            calls: AtomicUsize::new(0),
            odd_only,
        })
    }
}

impl Compressor for MalformingCodec {
    fn name(&self) -> &'static str {
        "malforming"
    }

    fn encode(&self, input: &[f32], _stream: &mut Prng) -> EncodedDelta {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.odd_only && call.is_multiple_of(2) {
            return EncodedDelta::Dense(input.to_vec());
        }
        EncodedDelta::Sparse {
            dim: input.len(),
            indices: vec![input.len() as u32],
            values: vec![1.0],
        }
    }
}

#[test]
fn malformed_encodings_are_quarantined_without_a_fault_plan() {
    // No fault plan: the shard fold must still never see an encoding
    // that failed `check_integrity()`. Uploads are encoded in client
    // order, so with four always-present clients the odd calls are
    // clients 1 and 3 of every round.
    let history = golden_run_configured(Box::new(FedAvg::new(AggWeighting::Uniform)), false, |c| {
        c.with_compressor(MalformingCodec::shared(true))
    });
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
        c.with_compressor(MalformingCodec::shared(false))
    });
    assert_eq!(
        history.rounds.len(),
        1,
        "training stops once all are expelled"
    );
    assert_eq!(history.rounds[0].updates_rejected, 4);
    assert_eq!(history.expelled_clients, vec![0, 1, 2, 3]);
}
