//! Microbenchmarks for the per-algorithm local update step (the kernel
//! behind Table I, Table III and Fig. 5). Std-only harness: each case
//! is warmed up once, then timed over a fixed iteration count and
//! reported as best / mean wall-clock per iteration.

use std::time::Instant;
use taco_core::update::{run_local_steps, LocalRule};
use taco_data::{tabular, vision};
use taco_nn::{Mlp, Model, PaperCnn};
use taco_tensor::Prng;

fn time<F: FnMut()>(label: &str, iters: usize, mut f: F) {
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        total += secs;
    }
    println!(
        "{label:<32} best {:>9.3} ms   mean {:>9.3} ms   ({iters} iters)",
        best * 1e3,
        total * 1e3 / iters as f64
    );
}

fn rules(dim: usize) -> Vec<(&'static str, LocalRule)> {
    vec![
        ("fedavg", LocalRule::PlainSgd),
        (
            "fedprox",
            LocalRule::Prox {
                lambda: 0.1,
                anchor: vec![0.0; dim].into(),
            },
        ),
        (
            "scaffold_taco",
            LocalRule::Correction {
                term: vec![0.01; dim],
            },
        ),
        ("stem", LocalRule::StemMomentum { alpha: 0.2 }),
    ]
}

fn bench_cnn_local_step() {
    let mut rng = Prng::seed_from_u64(1);
    let spec = vision::VisionSpec::fmnist_like().with_sizes(128, 16);
    let data = vision::generate(&spec, &mut rng).train;
    let mut model = PaperCnn::for_image(1, 28, 10, &mut rng);
    let dim = model.param_count();
    println!("== cnn_local_step ==");
    for (name, rule) in rules(dim) {
        time(&format!("cnn_local_step/{name}"), 5, || {
            let mut step_rng = Prng::seed_from_u64(7);
            run_local_steps(&mut model, &data, &rule, 2, 0.01, 16, &mut step_rng);
        });
    }
}

fn bench_mlp_local_step() {
    let mut rng = Prng::seed_from_u64(2);
    let spec = tabular::TabularSpec::adult_like().with_sizes(256, 16);
    let data = tabular::generate(&spec, &mut rng).train;
    let mut model = Mlp::paper_adult(14, 2, &mut rng);
    let dim = model.param_count();
    println!("== mlp_local_step ==");
    for (name, rule) in rules(dim) {
        time(&format!("mlp_local_step/{name}"), 10, || {
            let mut step_rng = Prng::seed_from_u64(7);
            run_local_steps(&mut model, &data, &rule, 5, 0.01, 16, &mut step_rng);
        });
    }
}

fn main() {
    bench_cnn_local_step();
    bench_mlp_local_step();
}
