//! Client-side execution: deterministic per-client RNG derivation and
//! local-step jobs run sequentially or on the shared worker pool.

use crate::runner::SimConfig;
use taco_core::{update, ClientUpdate, LocalRule};
use taco_data::FederatedDataset;
use taco_nn::Model;
use taco_tensor::Prng;
use taco_trace as trace;

/// One honest client's work order for a round.
pub(crate) struct ClientJob {
    pub(crate) client: usize,
    pub(crate) rule: LocalRule,
    pub(crate) num_samples: usize,
    pub(crate) steps: usize,
}

/// Deterministic per-(round, client) RNG derivation: results never
/// depend on thread scheduling.
pub(crate) fn client_rng(seed: u64, round: usize, client: usize) -> Prng {
    let mixed = seed
        ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (client as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
    Prng::seed_from_u64(mixed)
}

/// Executes honest-client jobs, sequentially or on the shared worker
/// pool through [`taco_nn::map_with_models`]: `model` serves one lane
/// and a clone each further pool thread, and every lane claims one
/// job at a time, which keeps the threads busy until the last client
/// finishes. Each client's [`update::run_local_steps`] loads its
/// iterate into the lane's model itself, so the model needs no reset
/// between clients. Tensor kernels invoked inside a pooled job detect
/// they're on a worker thread and run inline, so clients and kernels
/// share the same `TACO_THREADS` budget instead of oversubscribing.
/// With `TACO_THREADS=1` (or [`crate::SimConfig::sequential`])
/// everything runs on the caller. Results come back in job order and
/// are bit-identical whichever lane ran a job: each client re-seeds its
/// RNG from [`client_rng`] and starts from `global`, and a model's
/// parameters fully determine its behaviour ([`Model::set_params`]).
pub(crate) fn execute_jobs(
    model: &mut dyn Model,
    fed: &FederatedDataset,
    global: &[f32],
    jobs: Vec<ClientJob>,
    round: usize,
    config: &SimConfig,
) -> Vec<ClientUpdate> {
    let (hyper, seed) = (&config.hyper, config.seed);
    let run_one = move |model: &mut dyn Model, job: &ClientJob| -> ClientUpdate {
        let span = trace::Span::quiet(crate::phase::CLIENT_STEP);
        let mut rng = client_rng(seed, round, job.client);
        // Wall-clock time is read only through taco-trace spans
        // (D2): the span both feeds the `client_compute.seconds`
        // histogram and hands back the measured duration.
        let compute_span = trace::Span::quiet(crate::phase::CLIENT_COMPUTE);
        let outcome = update::run_local_steps(
            model,
            global,
            fed.client(job.client),
            &job.rule,
            job.steps,
            hyper.eta_l,
            hyper.batch_size,
            &mut rng,
        );
        let elapsed = compute_span.finish();
        let mut u = ClientUpdate::from_outcome(job.client, job.num_samples, outcome);
        u.compute_seconds = elapsed;
        drop(span);
        u
    };
    if config.parallel {
        taco_nn::map_with_models(model, &jobs, run_one)
    } else {
        jobs.iter().map(|job| run_one(&mut *model, job)).collect()
    }
}
