//! The three benchmark workloads, built from the library crates' public
//! API only. See `fedbench/README.md` for why each exists.

use std::sync::Arc;

use taco_core::compress::{Compressor, Uniform8Bit};
use taco_core::taco::TacoConfig;
use taco_core::{FederatedAlgorithm, HyperParams, Taco};
use taco_data::tabular::{self, TabularSpec};
use taco_data::{partition, vision, FederatedDataset, TrainTest};
use taco_nn::{Mlp, Model, PaperCnn};
use taco_sim::{FaultPlan, SimConfig};
use taco_tensor::Prng;

use crate::decor::Clock;

/// Stream tag for a run's data synthesis and partition draws.
const BENCH_DATA_TAG: u64 = 0xFB0D;
/// Stream tag for a run's model initialisation, distinct from
/// [`BENCH_DATA_TAG`].
const BENCH_MODEL_TAG: u64 = 0xFB0E;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper CNN on FMNIST-like images: local training dominates.
    CnnLocal,
    /// 64 light clients on a 395k-parameter MLP: server work dominates.
    WideServer,
    /// `WideServer` with 8-bit uploads under a fault plan.
    Q8Faulted,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
const ALL: [Workload; 3] = [
    Workload::CnnLocal,
    Workload::WideServer,
    Workload::Q8Faulted,
];

/// Communication rounds `T` of one run of any workload.
pub const ROUNDS: usize = 10;

const CNN_CLIENTS: usize = 16;
const CNN_LOCAL_STEPS: usize = 10;
const CNN_BATCH: usize = 8;
const CNN_ETA_L: f32 = 0.05;
const CNN_TRAIN_N: usize = 1200;
const CNN_TEST_N: usize = 200;

const WIDE_CLIENTS: usize = 64;
const WIDE_SAMPLES_PER_CLIENT: usize = 50;
const WIDE_TEST_N: usize = 200;
const WIDE_FEATURES: usize = 128;
const WIDE_INFORMATIVE: usize = 16;
const WIDE_HIDDEN: [usize; 2] = [1024, 256];
const WIDE_LOCAL_STEPS: usize = 1;
const WIDE_BATCH: usize = 4;
const WIDE_ETA_L: f32 = 0.05;
const WIDE_DIRICHLET: f64 = 0.5;

/// The data, model and hyper-parameters of one run.
pub struct Setup {
    pub fed: FederatedDataset,
    pub model: Box<dyn Model>,
    pub hyper: HyperParams,
    /// Seconds spent synthesising and partitioning the data.
    pub generate_s: f64,
    /// Seconds for the whole set-up: data plus model initialisation.
    pub setup_s: f64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnLocal => "cnn_local",
            Workload::WideServer => "wide_server",
            Workload::Q8Faulted => "q8_faulted",
        }
    }

    /// Run seeds one invocation cycles through; the deterministic
    /// metrics average over them. Accuracy varies most from seed to
    /// seed on `cnn_local`, so it averages the most seeds that still
    /// fit about 40 s.
    pub fn run_seeds(self) -> usize {
        match self {
            Workload::CnnLocal => 12,
            Workload::WideServer => 8,
            Workload::Q8Faulted => 6,
        }
    }

    /// Test accuracy `rounds_to_target` counts the rounds to.
    pub fn target(self) -> f64 {
        match self {
            Workload::CnnLocal => 0.7,
            Workload::WideServer | Workload::Q8Faulted => 0.9,
        }
    }

    /// Chance-level test accuracy; a correct run ends above it.
    pub fn chance(self) -> f64 {
        match self {
            Workload::CnnLocal => 0.1,
            Workload::WideServer | Workload::Q8Faulted => 0.5,
        }
    }

    /// Builds the data and the initial model for run seed `seed`.
    pub fn setup(self, seed: u64) -> Setup {
        let clock = Clock::start();
        let mut root = Prng::seed_from_u64(seed);
        let mut data_rng = root.split(BENCH_DATA_TAG);
        let mut model_rng = root.split(BENCH_MODEL_TAG);
        let fed = match self {
            Workload::CnnLocal => {
                let spec = vision::VisionSpec::fmnist_like().with_sizes(CNN_TRAIN_N, CNN_TEST_N);
                let data = vision::generate(&spec, &mut data_rng);
                let (shards, _groups) =
                    partition::synthetic_groups(data.train.labels(), CNN_CLIENTS, &mut data_rng);
                federate(data, &shards)
            }
            Workload::WideServer | Workload::Q8Faulted => {
                let spec = TabularSpec {
                    name: "wide".into(),
                    features: WIDE_FEATURES,
                    informative: WIDE_INFORMATIVE,
                    ..TabularSpec::adult_like()
                }
                .with_sizes(WIDE_CLIENTS * WIDE_SAMPLES_PER_CLIENT, WIDE_TEST_N);
                let data = tabular::generate(&spec, &mut data_rng);
                let shards = partition::dirichlet(
                    data.train.labels(),
                    WIDE_CLIENTS,
                    WIDE_DIRICHLET,
                    &mut data_rng,
                );
                federate(data, &shards)
            }
        };
        let generate_s = clock.secs();
        let (model, hyper): (Box<dyn Model>, HyperParams) = match self {
            Workload::CnnLocal => {
                let dims = fed.test().sample_dims().to_vec();
                let classes = fed.test().classes();
                (
                    Box::new(PaperCnn::for_image(
                        dims[0],
                        dims[1],
                        classes,
                        &mut model_rng,
                    )),
                    HyperParams::new(CNN_CLIENTS, CNN_LOCAL_STEPS, CNN_ETA_L, CNN_BATCH),
                )
            }
            Workload::WideServer | Workload::Q8Faulted => (
                Box::new(Mlp::new(
                    WIDE_FEATURES,
                    &WIDE_HIDDEN,
                    fed.test().classes(),
                    &mut model_rng,
                )),
                HyperParams::new(WIDE_CLIENTS, WIDE_LOCAL_STEPS, WIDE_ETA_L, WIDE_BATCH),
            ),
        };
        Setup {
            fed,
            model,
            hyper,
            generate_s,
            setup_s: clock.secs(),
        }
    }

    /// TACO as the workload runs it.
    pub fn algorithm(self) -> Box<dyn FederatedAlgorithm> {
        let (clients, local_steps) = match self {
            Workload::CnnLocal => (CNN_CLIENTS, CNN_LOCAL_STEPS),
            Workload::WideServer | Workload::Q8Faulted => (WIDE_CLIENTS, WIDE_LOCAL_STEPS),
        };
        // Detection stays off: with λ = T/5 the detector expels honest
        // clients, which shrinks the load mid-run by a seed-dependent
        // amount.
        Box::new(Taco::new(
            clients,
            TacoConfig {
                detect_freeloaders: false,
                ..TacoConfig::paper_default(ROUNDS, local_steps)
            },
        ))
    }

    /// The upload codec, if the workload uses one.
    pub fn codec(self) -> Option<Arc<dyn Compressor>> {
        match self {
            Workload::Q8Faulted => Some(Arc::new(Uniform8Bit)),
            Workload::CnnLocal | Workload::WideServer => None,
        }
    }

    /// The simulation config for run seed `seed`; `codec` replaces the
    /// workload's own codec (the traced run passes a decorated one).
    pub fn config(
        self,
        hyper: HyperParams,
        seed: u64,
        codec: Option<Arc<dyn Compressor>>,
    ) -> SimConfig {
        let mut config = SimConfig::new(hyper, ROUNDS, seed);
        if let Some(codec) = codec {
            config = config.with_compressor(codec);
        }
        if self == Workload::Q8Faulted {
            // 5% dropouts, 5% wire corruption, 10% stragglers at 4x
            // slowdown; one local step takes 1 simulated second and the
            // deadline of 2 cuts every straggler.
            config = config.with_fault_plan(
                FaultPlan::new()
                    .with_dropouts(0.05)
                    .with_corruption(0.05, 1e9)
                    .with_stragglers(0.10, 4.0)
                    .with_deadline(2.0, 1.0),
            );
        }
        config
    }
}

fn federate(data: TrainTest, shards: &[Vec<usize>]) -> FederatedDataset {
    FederatedDataset::from_partition(data.train, data.test, shards)
}
