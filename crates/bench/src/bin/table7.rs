//! Table VII: scalability with 100 clients (adult, FEMNIST,
//! CIFAR-100 equivalents).
//!
//! Paper's claim: TACO keeps its lead at 100 clients on all three
//! datasets, with the largest margin on CIFAR-100.

use taco_bench::{all_algorithms, banner, report, run, workload, Scale};

fn main() {
    let _manifest = banner(
        "table7",
        "Table VII: scalability (100-client federation)",
        "TACO best on adult/FEMNIST/CIFAR-100 at 100 clients",
    );
    let mut scale = Scale::from_env();
    // 100 clients need enough total data for everyone to hold a shard.
    scale.train_n = scale.train_n.max(1500);
    let clients: usize = taco_trace::env::clients().unwrap_or(100);
    let mut rows = Vec::new();
    for ds in ["adult", "femnist", "cifar100"] {
        let w = workload(ds, clients, 71, scale, None);
        for alg in all_algorithms(clients, w.rounds, w.hyper.local_steps) {
            let name = alg.name();
            let history = run(&w, alg, w.config(71));
            rows.push(vec![
                ds.to_string(),
                name.to_string(),
                format!("{:.2}%", history.final_accuracy() * 100.0),
            ]);
        }
        println!("[table7] finished {ds}");
    }
    report("table7", &["dataset", "algorithm", "final acc"], &rows);
}
