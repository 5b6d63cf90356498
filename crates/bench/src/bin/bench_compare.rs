//! Perf-trajectory regression gate.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [--threshold 0.10] [--strict]
//! ```
//!
//! Diffs two `BENCH_*.json` reports (see `taco_bench::perf`) and
//! exits nonzero when any metric regressed past the threshold in its
//! bad direction by more than its noise floor, or when a metric is in
//! only one of the two reports. Machine-dependent metrics only gate
//! between matching host fingerprints unless `--strict`; deterministic
//! metrics (wire bytes) gate everywhere.
//!
//! Exit codes: `0` pass, `1` regression, `2` usage/parse error.

use std::path::PathBuf;

use taco_bench::perf::{compare_files, DEFAULT_THRESHOLD};

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    threshold: f64,
    strict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut strict = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = argv.next().ok_or("--threshold needs a value")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("bad --threshold value `{v}`"))?;
            }
            "--strict" => strict = true,
            "--help" | "-h" => {
                return Err("usage: bench_compare <baseline.json> <current.json> \
                     [--threshold 0.10] [--strict]"
                    .to_string())
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "expected exactly two report paths, got {}",
            paths.len()
        ));
    }
    let current = paths.pop().expect("len checked");
    let baseline = paths.pop().expect("len checked");
    Ok(Args {
        baseline,
        current,
        threshold,
        strict,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        }
    };
    let cmp = match compare_files(&args.baseline, &args.current, args.threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "bench_compare: {} vs {} (threshold {:.0}%{})",
        args.baseline.display(),
        args.current.display(),
        args.threshold * 100.0,
        if args.strict { ", strict" } else { "" }
    );
    print!("{}", cmp.render_text());
    if cmp.failed(args.strict) {
        eprintln!("bench_compare: FAIL — at least one metric regressed past the gate");
        std::process::exit(1);
    }
    println!("bench_compare: pass");
}
