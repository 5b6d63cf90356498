//! Client-side execution: local-step jobs run sequentially or on the
//! shared worker pool, each on its own per-(round, client) RNG.

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
/// RNG from [`Prng::for_cell`] and starts from `global`, and a model's
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
        let mut rng = Prng::for_cell(seed, round, job.client);
        // Wall-clock time is read only through taco-trace spans
        // (`Instant::now` is a disallowed method here): the span both
        // feeds the `client_compute.seconds` histogram and hands back
        // the measured duration.
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
        u
    };
    if config.parallel {
        taco_nn::map_with_models(model, &jobs, run_one)
    } else {
        jobs.iter().map(|job| run_one(&mut *model, job)).collect()
    }
}
