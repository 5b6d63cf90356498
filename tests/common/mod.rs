//! Shared harness for the integration suites: fixed-seed federated
//! workloads, deterministic history serialization, and the golden
//! fixture comparison used by `end_to_end.rs` (trajectory regression)
//! and `backend_diff.rs` (thread equivalence of the aggregation
//! path).
#![allow(dead_code)] // each test binary uses a subset

use taco::core::{FederatedAlgorithm, HyperParams};
use taco::data::{partition, tabular, FederatedDataset};
use taco::nn::{Mlp, Model};
use taco::sim::{History, SimConfig, Simulation};
use taco::tensor::Prng;
use taco::trace::{json, Value};

/// Fixed-seed adult-like tabular federation with a Dirichlet(phi)
/// label split.
pub fn tabular_fed(clients: usize, seed: u64, phi: f64) -> FederatedDataset {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = tabular::TabularSpec::adult_like().with_sizes(400, 120);
    let data = tabular::generate(&spec, &mut rng);
    let shards = partition::dirichlet(data.train.labels(), clients, phi, &mut rng);
    FederatedDataset::from_partition(data.train, data.test, &shards)
}

/// The suites' small tabular MLP, seeded deterministically.
pub fn mlp(seed: u64) -> Box<dyn Model> {
    let mut rng = Prng::seed_from_u64(seed);
    Box::new(Mlp::new(14, &[16, 8], 2, &mut rng))
}

/// The canonical golden-fixture run: 4 clients, 8 rounds, seed 11.
pub fn golden_run(alg: Box<dyn FederatedAlgorithm>, parallel: bool) -> History {
    golden_run_configured(alg, parallel, |c| c)
}

/// [`golden_run`] with a config decorator, for suites that run the
/// golden workload with a codec, a fault plan or freeloaders.
pub fn golden_run_configured(
    alg: Box<dyn FederatedAlgorithm>,
    parallel: bool,
    decorate: impl FnOnce(SimConfig) -> SimConfig,
) -> History {
    let clients = 4;
    let fed = tabular_fed(clients, 11, 0.3);
    let hyper = HyperParams::new(clients, 6, 0.05, 16);
    let mut config = SimConfig::new(hyper, 8, 11);
    config.parallel = parallel;
    Simulation::new(fed, mlp(11), alg, decorate(config)).run()
}

/// Serializes the deterministic parts of a history. Wall-clock fields
/// (`max_client_seconds`, `total_client_seconds`) are excluded: they
/// vary run to run by construction.
pub fn history_value(h: &History) -> Value {
    let rounds = h
        .rounds
        .iter()
        .map(|r| {
            Value::object(vec![
                ("round".to_string(), Value::from(r.round)),
                ("test_accuracy".to_string(), Value::from(r.test_accuracy)),
                ("test_loss".to_string(), Value::from(r.test_loss)),
                ("train_loss".to_string(), Value::from(r.train_loss)),
                (
                    "alphas".to_string(),
                    r.alphas
                        .as_ref()
                        .map_or(Value::Null, |a| Value::array(a.iter().copied())),
                ),
                ("expelled".to_string(), Value::from(r.expelled)),
                ("upload_bytes".to_string(), Value::from(r.upload_bytes)),
            ])
        })
        .collect();
    Value::object(vec![
        ("algorithm".to_string(), Value::from(h.algorithm.clone())),
        ("rounds".to_string(), Value::Array(rounds)),
        (
            "expelled_clients".to_string(),
            Value::array(h.expelled_clients.iter().copied()),
        ),
    ])
}

/// Structural comparison demanding exact numeric equality (floats
/// round-trip through the JSON fixtures losslessly, so this is a
/// bit-level check).
pub fn assert_values_eq(golden: &Value, got: &Value, path: &str) {
    match (golden, got) {
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(
                a.len(),
                b.len(),
                "{path}: {} vs {} entries",
                a.len(),
                b.len()
            );
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_values_eq(x, y, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(a), Value::Object(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: {} vs {} keys", a.len(), b.len());
            for ((ka, va), (kb, vb)) in a.iter().zip(b) {
                assert_eq!(ka, kb, "{path}: key mismatch");
                assert_values_eq(va, vb, &format!("{path}.{ka}"));
            }
        }
        _ => {
            if let (Some(x), Some(y)) = (golden.as_f64(), got.as_f64()) {
                assert!(x == y, "{path}: golden {x} vs current {y}");
            } else {
                assert_eq!(golden, got, "{path}: mismatch");
            }
        }
    }
}

/// Compares a history exactly against a committed fixture under
/// `tests/fixtures/`. `TACO_REGEN_GOLDEN=1` rewrites the fixture.
pub fn check_against_golden(name: &str, h: &History) {
    let val = history_value(h);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if taco_trace::env::regen_golden() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, val.to_json() + "\n").unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with TACO_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let golden = json::parse(text.trim()).expect("golden fixture is valid JSON");
    assert_values_eq(&golden, &val, name);
}
