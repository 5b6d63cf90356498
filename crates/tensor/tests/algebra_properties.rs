//! Randomized property tests for the tensor substrate's algebraic
//! identities, driven by seeded [`Prng`] case generators (the offline
//! crate set has no proptest), plus the differential kernel suite:
//! blocked/parallel matmul vs the frozen naive references across
//! ragged shapes, with *exact bit* agreement, and determinism probes
//! showing `TACO_THREADS=1` and `TACO_THREADS=8` produce identical
//! bits (in-process via pool overrides and across real processes via
//! the environment variable).

use taco_tensor::pool::{self, Pool};
use taco_tensor::{conv, linalg, ops, Prng, Tensor};

const CASES: u64 = 48;

fn tensor(rows: usize, cols: usize, rng: &mut Prng) -> Tensor {
    let v: Vec<f32> = (0..rows * cols)
        .map(|_| rng.uniform_f32() * 20.0 - 10.0)
        .collect();
    Tensor::from_vec(v, &[rows, cols][..])
}

fn vector(n: usize, scale: f32, rng: &mut Prng) -> Vec<f32> {
    (0..n)
        .map(|_| rng.uniform_f32() * 2.0 * scale - scale)
        .collect()
}

/// (A·B)·C == A·(B·C) within f32 tolerance.
#[test]
fn matmul_is_associative() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xA550C ^ case);
        let a = tensor(3, 4, &mut rng);
        let b = tensor(4, 2, &mut rng);
        let c = tensor(2, 5, &mut rng);
        let left = linalg::matmul(&linalg::matmul(&a, &b), &c);
        let right = linalg::matmul(&a, &linalg::matmul(&b, &c));
        for (l, r) in left.data().iter().zip(right.data()) {
            assert!(
                (l - r).abs() < 1e-2 * (1.0 + l.abs()),
                "case {case}: {l} vs {r}"
            );
        }
    }
}

/// (A·B)^T == B^T · A^T.
#[test]
fn transpose_reverses_products() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x7085 ^ case);
        let a = tensor(3, 4, &mut rng);
        let b = tensor(4, 2, &mut rng);
        let lhs = linalg::matmul(&a, &b).transpose();
        let rhs = linalg::matmul(&b.transpose(), &a.transpose());
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            assert!((l - r).abs() < 1e-3 * (1.0 + l.abs()), "case {case}");
        }
    }
}

/// matmul distributes over addition.
#[test]
fn matmul_distributes() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xD157 ^ case);
        let a = tensor(2, 3, &mut rng);
        let b = tensor(3, 2, &mut rng);
        let c = tensor(3, 2, &mut rng);
        let lhs = linalg::matmul(&a, &(&b + &c));
        let rhs = &linalg::matmul(&a, &b) + &linalg::matmul(&a, &c);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            assert!((l - r).abs() < 1e-3 * (1.0 + l.abs()), "case {case}");
        }
    }
}

/// Cauchy–Schwarz: |<a, b>| <= |a|·|b|.
#[test]
fn cauchy_schwarz() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xCA0C ^ case);
        let n = 1 + rng.below(15);
        let a = vector(n, 10.0, &mut rng);
        let b = vector(n, 10.0, &mut rng);
        let dot = ops::dot(&a, &b).abs();
        let bound = ops::norm(&a) * ops::norm(&b);
        assert!(
            dot <= bound * (1.0 + 1e-4) + 1e-5,
            "case {case}: {dot} > {bound}"
        );
    }
}

/// Triangle inequality on the flat-vector norm.
#[test]
fn triangle_inequality() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x781A ^ case);
        let n = 1 + rng.below(15);
        let a = vector(n, 10.0, &mut rng);
        let b = vector(n, 10.0, &mut rng);
        let sum = ops::add(&a, &b);
        assert!(
            ops::norm(&sum) <= ops::norm(&a) + ops::norm(&b) + 1e-4,
            "case {case}"
        );
    }
}

/// im2col/col2im adjointness: <im2col(x), y> == <x, col2im(y)>.
#[test]
fn im2col_adjoint() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x12C ^ case);
        let pad = rng.below(2);
        let stride = 1 + rng.below(2);
        let spec = conv::Conv2dSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride,
            padding: pad,
        };
        let (h, w) = (6, 6);
        let x = Tensor::randn(&[2 * h * w][..], 1.0, &mut rng);
        let cols = conv::im2col(x.data(), h, w, &spec);
        let y = Tensor::randn(cols.shape().clone(), 1.0, &mut rng);
        let lhs = ops::dot(cols.data(), y.data());
        let back = conv::col2im(&y, h, w, &spec);
        let rhs = ops::dot(x.data(), &back);
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "case {case}: {lhs} vs {rhs}"
        );
    }
}

/// Dirichlet draws are simplex points for any shape/seed.
#[test]
fn dirichlet_simplex() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xD1E ^ case);
        let alpha = 0.05 + rng.uniform_f64() * 9.95;
        let k = 1 + rng.below(19);
        let p = rng.dirichlet(alpha, k);
        assert_eq!(p.len(), k);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "case {case}: sum {sum}");
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
    }
}

/// `below(n)` is always within range.
#[test]
fn below_in_range() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xB10 ^ case);
        let bound = 1 + rng.below(9_999);
        for _ in 0..50 {
            assert!(rng.below(bound) < bound, "case {case}");
        }
    }
}

// --- Differential kernel tests ------------------------------------

/// Ragged shape generator: 1×1, prime dims, tall/skinny, batch-like
/// (≤64), and pool-engaging sizes (the blocked kernels only dispatch
/// to workers above a work threshold, so some cases must be big).
fn ragged_dims(rng: &mut Prng) -> (usize, usize, usize) {
    const PRIMES: &[usize] = &[
        1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47, 53, 61,
    ];
    let pick = |rng: &mut Prng| PRIMES[rng.below(PRIMES.len())];
    match rng.below(5) {
        0 => (1, 1, 1),
        1 => (pick(rng), pick(rng), pick(rng)),
        // Tall & skinny either way.
        2 => (97 + rng.below(80), 1 + rng.below(6), 1 + rng.below(6)),
        3 => (1 + rng.below(6), 1 + rng.below(6), 97 + rng.below(80)),
        // Batch-like, large enough to cross the parallel threshold.
        _ => (33 + rng.below(32), 83 + rng.below(60), 83 + rng.below(60)),
    }
}

fn ragged(rows: usize, cols: usize, rng: &mut Prng) -> Tensor {
    // Mix magnitudes and exact zeros so the naive kernels' zero-skip
    // path is exercised by the comparison.
    let v: Vec<f32> = (0..rows * cols)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => rng.normal_f32() * 1e4,
            2 => rng.normal_f32() * 1e-4,
            _ => rng.normal_f32(),
        })
        .collect();
    Tensor::from_vec(v, &[rows, cols][..])
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g} vs {w})"
        );
    }
}

/// Blocked kernels vs the frozen naive references, exact to the bit,
/// on 1 and 8 in-process pool threads.
#[test]
fn blocked_kernels_match_naive_bitwise_across_ragged_shapes() {
    let one = Pool::new(1);
    let eight = Pool::new(8);
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xD1FF ^ case);
        let (m, k, n) = ragged_dims(&mut rng);
        let a = ragged(m, k, &mut rng);
        let b = ragged(k, n, &mut rng);
        let at = ragged(k, m, &mut rng);
        let bt = ragged(n, k, &mut rng);
        let want_nn = linalg::matmul_naive(&a, &b);
        let want_tn = linalg::matmul_tn_naive(&at, &b);
        let want_nt = linalg::matmul_nt_naive(&a, &bt);
        for (pool, label) in [(&one, "1t"), (&eight, "8t")] {
            pool::with_pool(pool, || {
                assert_bits(
                    &linalg::matmul(&a, &b),
                    &want_nn,
                    &format!("case {case} matmul {m}x{k}x{n} {label}"),
                );
                assert_bits(
                    &linalg::matmul_tn(&at, &b),
                    &want_tn,
                    &format!("case {case} matmul_tn {m}x{k}x{n} {label}"),
                );
                assert_bits(
                    &linalg::matmul_nt(&a, &bt),
                    &want_nt,
                    &format!("case {case} matmul_nt {m}x{k}x{n} {label}"),
                );
            });
        }
    }
}

/// `matmul_nt` on the workloads' real layer shapes (`m × k × n`): the
/// batch-4 dense forward of the wide MLP and its 200-row evaluation,
/// the CNN's batch-8 dense layers and its im2col convolutions, plus
/// every row count 1–9 against column counts around the 8-wide tile.
/// Exact to the bit against the naive reference on 1 and 8 threads.
#[test]
fn matmul_nt_matches_naive_bitwise_on_layer_shapes() {
    let one = Pool::new(1);
    let eight = Pool::new(8);
    let mut shapes = vec![
        (4, 128, 1024),
        (4, 1024, 256),
        (4, 256, 2),
        (200, 128, 1024),
        (8, 256, 64),
        (8, 32, 10),
        (576, 25, 8),
        (64, 200, 16),
    ];
    for m in 1..=9 {
        for n in [7, 8, 9, 17] {
            shapes.push((m, 131, n));
        }
    }
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = Prng::seed_from_u64(0x1A7E ^ case as u64);
        let a = ragged(m, k, &mut rng);
        let bt = ragged(n, k, &mut rng);
        let want = linalg::matmul_nt_naive(&a, &bt);
        for (pool, label) in [(&one, "1t"), (&eight, "8t")] {
            pool::with_pool(pool, || {
                assert_bits(
                    &linalg::matmul_nt(&a, &bt),
                    &want,
                    &format!("matmul_nt {m}x{k}x{n} {label}"),
                );
            });
        }
    }
}

/// One deliberately pool-heavy shape: many chunks, uneven tail rows.
#[test]
fn parallel_chunking_is_bit_identical_on_uneven_tails() {
    let mut rng = Prng::seed_from_u64(0xBEEF);
    // 131 rows = 4 full MC=32 chunks + a 3-row tail chunk.
    let a = ragged(131, 113, &mut rng);
    let b = ragged(113, 127, &mut rng);
    let want = linalg::matmul_naive(&a, &b);
    for threads in [1, 2, 3, 8] {
        let p = Pool::new(threads);
        pool::with_pool(&p, || {
            assert_bits(
                &linalg::matmul(&a, &b),
                &want,
                &format!("{threads} threads"),
            );
        });
    }
}

/// `im2col` / `col2im` (the fixed-width body for k = 5, the
/// runtime-width loop otherwise) vs the frozen runtime-width loops,
/// exact to the bit on 1 and 4 pool threads. The grid covers every
/// k in 1..=7 × stride 1..=3 × padding 0..=2 on a non-square input
/// with 1–9 channels, plus shapes past `MIN_PAR_ELEMS` (16,384 moved
/// elements), where the pool splits `im2col` into row blocks and
/// `col2im` into channels.
#[test]
fn patch_kernels_match_the_runtime_width_loops_bitwise() {
    let one = Pool::new(1);
    let four = Pool::new(4);
    let mut cases = Vec::new();
    for kernel in 1..=7 {
        for stride in 1..=3 {
            for padding in 0..=2 {
                let mut rng = Prng::seed_from_u64((kernel * 100 + stride * 10 + padding) as u64);
                let channels = 1 + rng.below(9);
                let h = kernel + rng.below(9);
                let w = h + 1 + rng.below(6);
                cases.push((channels, h, w, kernel, stride, padding));
            }
        }
    }
    // Past the parallel threshold: the CNN's 5×5 shapes at a larger
    // side, and the ResNet's 3×3 and 1×1 shapes and a width of 7 on
    // the pooled runtime-width path.
    let big = [
        (3, 30, 26, 5, 1, 2),
        (8, 21, 17, 5, 1, 0),
        (9, 24, 20, 3, 1, 1),
        (8, 33, 29, 3, 2, 1),
        (9, 44, 42, 1, 1, 0),
        (9, 91, 85, 1, 2, 0),
        (2, 25, 31, 7, 1, 0),
    ];
    for &(channels, h, w, kernel, stride, padding) in &big {
        let (oh, ow) = conv::Conv2dSpec {
            in_channels: channels,
            out_channels: 1,
            kernel,
            stride,
            padding,
        }
        .output_hw(h, w);
        assert!(oh * ow * channels * kernel * kernel >= 1 << 14);
    }
    cases.extend(big);
    for (case, &(channels, h, w, kernel, stride, padding)) in cases.iter().enumerate() {
        let spec = conv::Conv2dSpec {
            in_channels: channels,
            out_channels: 1,
            kernel,
            stride,
            padding,
        };
        let mut rng = Prng::seed_from_u64(0xC0_17 ^ case as u64);
        let x = ragged(1, channels * h * w, &mut rng);
        let want_cols = conv::im2col_naive(x.data(), h, w, &spec);
        let y = ragged(want_cols.dims()[0], want_cols.dims()[1], &mut rng);
        let want_img = conv::col2im_naive(&y, h, w, &spec);
        let what = format!("{channels}x{h}x{w} k{kernel} s{stride} p{padding}");
        for (pool, label) in [(&one, "1t"), (&four, "4t")] {
            pool::with_pool(pool, || {
                let cols = conv::im2col(x.data(), h, w, &spec);
                assert_bits(&cols, &want_cols, &format!("im2col {what} {label}"));
                let img = conv::col2im(&y, h, w, &spec);
                assert_eq!(img.len(), want_img.len(), "col2im {what}: length");
                for (i, (g, e)) in img.iter().zip(&want_img).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "col2im {what} {label}: element {i} differs ({g} vs {e})"
                    );
                }
            });
        }
    }
}

// --- TACO_THREADS determinism across processes --------------------

/// Hashes every kernel output (matmul family + conv/pool paths) for a
/// fixed seed into one FNV-1a digest.
fn kernel_digest() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut rng = Prng::seed_from_u64(0x51D);
    let a = ragged(70, 190, &mut rng);
    let b = ragged(190, 60, &mut rng);
    let bt = ragged(60, 190, &mut rng);
    for t in [
        linalg::matmul(&a, &b),
        linalg::matmul_tn(&a.transpose(), &b),
        linalg::matmul_nt(&a, &bt),
    ] {
        for v in t.data() {
            fold(u64::from(v.to_bits()));
        }
    }
    let spec = conv::Conv2dSpec {
        in_channels: 3,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let img = Tensor::randn(&[3 * 24 * 24][..], 1.0, &mut rng);
    let weight = Tensor::randn(&[8, 3 * 9][..], 0.5, &mut rng);
    let (out, cols) = conv::conv2d_forward(img.data(), 24, 24, &weight, &[0.0; 8], &spec);
    let mut gw = Tensor::zeros(&[8, 3 * 9][..]);
    let mut gb = [0.0f32; 8];
    conv::conv2d_weight_grad(&out, 24, 24, &cols, &spec, &mut gw, &mut gb);
    let gin = conv::conv2d_input_grad(&out, 24, 24, &weight, &spec);
    let (pooled, arg) = conv::maxpool2d_forward(&out, 8, 24, 24, 2, 2);
    let gpool = conv::maxpool2d_backward(&pooled, &arg, 8, out.len());
    for series in [&out[..], &gin, gw.data(), &pooled, &gpool] {
        for v in series {
            fold(u64::from(v.to_bits()));
        }
    }
    h
}

/// Prints the digest under the ambient `TACO_THREADS`; harnessed by
/// [`taco_threads_env_is_bit_deterministic`], which runs this test in
/// child processes with different settings. Also asserts in-process
/// that 1-thread and 8-thread pools reproduce the ambient digest.
#[test]
fn kernel_digest_probe() {
    let ambient = kernel_digest();
    println!("KERNEL_DIGEST=0x{ambient:016x}");
    let one = pool::with_pool(&Pool::new(1), kernel_digest);
    let eight = pool::with_pool(&Pool::new(8), kernel_digest);
    assert_eq!(ambient, one, "ambient vs 1-thread digest");
    assert_eq!(one, eight, "1-thread vs 8-thread digest");
}

/// Spawns this test binary twice — `TACO_THREADS=1` and
/// `TACO_THREADS=8` — and asserts both print the same kernel digest:
/// the environment knob itself, not just the in-process override, is
/// bit-deterministic.
#[test]
fn taco_threads_env_is_bit_deterministic() {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_for = |threads: &str| -> String {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "kernel_digest_probe",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("TACO_THREADS", threads)
            .output()
            .expect("spawn kernel_digest_probe child");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "child with TACO_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // `--nocapture` may glue the digest onto libtest's status line,
        // so scan for the marker anywhere rather than at line starts.
        stdout
            .split("KERNEL_DIGEST=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no digest line in child output:\n{stdout}"))
    };
    let d1 = digest_for("1");
    let d8 = digest_for("8");
    assert_eq!(d1, d8, "TACO_THREADS=1 vs TACO_THREADS=8 digests differ");
}
