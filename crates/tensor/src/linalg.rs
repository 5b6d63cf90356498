//! Matrix multiplication kernels: cache-blocked, register-tiled, and
//! pool-parallel.
//!
//! Three variants cover everything a dense/convolutional layer's
//! forward and backward passes need without materializing transposes:
//!
//! - [`matmul`]       — `C = A · B`
//! - [`matmul_tn`]    — `C = Aᵀ · B` (weight gradients), and
//!   [`matmul_tn_acc`], `C += Aᵀ · B` into an existing buffer
//! - [`matmul_nt`]    — `C = A · Bᵀ` (forward passes: `X · Wᵀ`)
//!
//! # Kernel structure
//!
//! `matmul` and `matmul_tn` are GEBP-style blocked kernels: the K
//! dimension is split into `KC`-deep slabs, columns into `NC`-wide
//! blocks whose `NR`-column panels are packed contiguously, and rows
//! into `MR`-row groups packed k-major, so the inner `MR×NR`
//! microkernel streams both packs linearly and keeps the whole
//! accumulator tile in registers. A ragged last panel or row group is
//! zero-padded in its pack and runs the same microkernel on a stack
//! tile, of which only the valid part is copied back. On x86-64 the
//! blocked body is additionally compiled under `target_feature(avx)`
//! and selected at runtime. `matmul_nt` keeps its historical `f64` accumulation
//! (see below) and instead packs each 8 B rows as a transposed `f64`
//! panel, streaming A rows against it in a 4×8 register tile of 8
//! independent `f64` accumulator vectors.
//!
//! Work is split across the worker pool ([`crate::pool`]) along the M
//! dimension in fixed `MC`-row chunks. Chunk boundaries depend only
//! on the output shape — never on the thread count — so results are
//! identical for any `TACO_THREADS` setting.
//!
//! # Bit-exactness contract
//!
//! For every output element, the blocked kernels perform *the same
//! sequence of rounded operations* as the naive references
//! ([`matmul_naive`], [`matmul_tn_naive`], [`matmul_nt_naive`], which
//! preserve the pre-blocking implementations):
//!
//! - `matmul`/`matmul_tn`: an ascending-k fold of
//!   `c = round(c + round(a·b))` in `f32`. K-slabs run in ascending
//!   order and the microkernel loads the current C tile before
//!   accumulating, so slab boundaries don't change the fold. Rust
//!   never contracts `mul + add` into FMA, and per-lane AVX
//!   `vmulps`/`vaddps` round exactly like scalar ops, so SIMD and
//!   scalar paths agree bit-for-bit.
//! - `matmul_nt`: an ascending-k fold in `f64` with one final cast to
//!   `f32`, exactly [`crate::ops::dot`]. The K dimension is therefore
//!   *not* blocked in `matmul_nt` — the `f64` accumulator must span
//!   all of k.
//!
//! On this contract rest the differential tests in
//! `tests/algebra_properties.rs` (exact equality, not tolerance) and
//! the golden-trajectory fixtures in the workspace-level
//! `tests/end_to_end.rs`.
//!
//! ## The old `aik == 0.0` fast path
//!
//! The pre-blocking kernels skipped a whole AXPY row when the A element
//! was zero, which helped sparse-ish gradients (e.g. post-ReLU). The
//! blocked kernels drop that branch. It is bit-neutral for *finite*
//! inputs (`round(c + round(0·b)) == c`, since an accumulator can
//! never be `-0.0` unless every contribution was, in which case both
//! paths agree), so correctness is unaffected; the only observable
//! difference is on non-finite data (`0·∞ = NaN` now propagates
//! instead of being skipped), which no caller feeds the kernels.
//!
//! On a 256³ single-thread sweep the blocked kernel was ~3× faster
//! than the skipping naive kernel on dense inputs, while the skip only
//! pulls ahead once A is more than ~⅔ zeros (at 90% zeros the naive
//! kernel wins ~3×, since it touches a tenth of the work). The workspace's hot matmuls have
//! dense A operands — batches, im2col patch matrices, and upstream
//! gradients that are at ReLU-level (~50%) sparsity at most — which is
//! below the crossover, so the blocked kernel keeps no zero test.

#[cfg(all(target_arch = "x86_64", not(miri)))]
use std::sync::OnceLock;

use crate::ktrace;
use crate::pool;
use crate::Tensor;

/// Microkernel rows: A-pack group height.
const MR: usize = 4;
/// Microkernel columns: one AVX register of `f32` per accumulator row.
const NR: usize = 8;
/// K-slab depth for `matmul`/`matmul_tn` packing.
const KC: usize = 256;
/// Column-block width: the packed B slab is at most `KC · NC` floats.
const NC: usize = 128;
/// Rows per parallel chunk. A multiple of [`MR`] so microkernel group
/// boundaries are the same whether a chunk starts at row 0 or row
/// `i · MC`.
const MC: usize = 32;
/// Below this many multiply-adds a kernel runs inline on the caller —
/// pool dispatch overhead would dominate.
const PAR_MIN_MACS: usize = 1 << 18;
/// `matmul_nt` register tile: A rows per tile.
const NT_ROWS: usize = 4;
/// `matmul_nt` register tile: B rows (output columns) per tile, and
/// the width of a packed B panel.
const NT_COLS: usize = 8;
/// K steps per `f64` widening block of the A rows in a `matmul_nt`
/// tile.
const NT_KB: usize = 128;

static K_MATMUL: ktrace::Kernel = ktrace::Kernel::new("kernel.matmul");
static K_MATMUL_TN: ktrace::Kernel = ktrace::Kernel::new("kernel.matmul_tn");
static K_MATMUL_NT: ktrace::Kernel = ktrace::Kernel::new("kernel.matmul_nt");

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().ndim(), 2, "{what} must be 2-D, got {}", t.shape());
    (t.dims()[0], t.dims()[1])
}

/// Rows per parallel chunk for an `m`-row output with `macs` total
/// multiply-adds: the fixed [`MC`] when the problem is worth
/// dispatching, else all of `m` (one inline chunk).
fn par_chunk_rows(m: usize, macs: usize) -> usize {
    if macs >= PAR_MIN_MACS && pool::threads() > 1 {
        MC
    } else {
        m
    }
}

fn cpu_has_avx() -> bool {
    // Miri interprets portable Rust only: it can run neither the
    // feature-detection intrinsics nor the AVX kernels, so the
    // dispatch reports no AVX and the scalar path (bit-identical by
    // the differential tests) is what gets checked for UB.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| std::is_x86_feature_detected!("avx"))
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        false
    }
}

/// Per-thread packing scratch, reused across kernel calls.
struct Scratch {
    a: Vec<f32>,
    b: Vec<f32>,
    panel: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch { a: Vec::new(), b: Vec::new(), panel: Vec::new() })
    };
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Computes `C = A · B` for 2-D tensors.
///
/// # Panics
///
/// Panics if either operand is not 2-D or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use taco_tensor::{Tensor, linalg::matmul};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "matmul lhs");
    let (kb, n) = dims2(b, "matmul rhs");
    assert_eq!(ka, kb, "matmul inner dimension mismatch: {ka} vs {kb}");
    Tensor::from_vec(matmul_slices(a.data(), b.data(), m, ka, n), &[m, n][..])
}

/// [`matmul`] on row-major slices: `ad` is `m × k`, `bd` is `k × n`.
/// Lets a caller holding a plain buffer (a conv output gradient) skip
/// building a `Tensor` around it.
pub(crate) fn matmul_slices(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(ad.len(), m * k, "matmul lhs length");
    assert_eq!(bd.len(), k * n, "matmul rhs length");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let _t = K_MATMUL.record((m * k * n) as u64);
    let chunk_rows = par_chunk_rows(m, m * k * n);
    pool::for_each_chunk(&mut out, chunk_rows * n, |ci, c_chunk| {
        let r0 = ci * chunk_rows;
        let rows = c_chunk.len() / n;
        // Row group `r` of the pack holds A row `row0 + r`; element t
        // of the slab is A column `kk + t` (contiguous in memory).
        let pack_a = |dst: &mut [f32], row0: usize, mb: usize, kk: usize, kc: usize| {
            for r in 0..mb {
                let arow = &ad[(row0 + r) * k + kk..];
                for t in 0..kc {
                    dst[t * MR + r] = arow[t];
                }
            }
        };
        gebp_dispatch(&pack_a, bd, c_chunk, r0, rows, k, n);
    });
    out
}

/// Computes `C = Aᵀ · B` where `A` is `k × m` and `B` is `k × n`.
///
/// Equivalent to `matmul(&a.transpose(), b)` without allocating the
/// transpose. Used for weight gradients (`∂L/∂W = Xᵀ · ∂L/∂Y`).
///
/// # Panics
///
/// Panics if either operand is not 2-D or the leading dimensions differ.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2(a, "matmul_tn lhs");
    let (kb, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(ka, kb, "matmul_tn leading dimension mismatch: {ka} vs {kb}");
    Tensor::from_vec(matmul_tn_slices(a.data(), b.data(), ka, m, n), &[m, n][..])
}

/// [`matmul_tn`] on row-major slices: `ad` is `k × m`, `bd` is `k × n`.
pub(crate) fn matmul_tn_slices(ad: &[f32], bd: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_tn_acc_slices(ad, bd, k, m, n, &mut out);
    out
}

/// Accumulates `C += Aᵀ · B` into an existing `m × n` tensor, where
/// `A` is `k × m` and `B` is `k × n`.
///
/// Each output continues the ascending-k fold of [`matmul_tn`] from
/// its current value, so a `C` that holds `+0.0` ends with exactly the
/// bits [`matmul_tn`] returns: a fold that starts at `+0.0` never
/// yields `−0.0`, so `0 + Σ` is `Σ`. A layer accumulates its weight
/// gradient this way without a temporary.
///
/// # Panics
///
/// Panics if an operand is not 2-D, the leading dimensions differ or
/// `c` is not `m × n`.
pub fn matmul_tn_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (ka, m) = dims2(a, "matmul_tn lhs");
    let (kb, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(ka, kb, "matmul_tn leading dimension mismatch: {ka} vs {kb}");
    assert_eq!(c.dims(), &[m, n][..], "matmul_tn_acc output shape");
    matmul_tn_acc_slices(a.data(), b.data(), ka, m, n, c.data_mut());
}

/// [`matmul_tn_acc`] on row-major slices: `out` is `m × n`.
fn matmul_tn_acc_slices(ad: &[f32], bd: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(ad.len(), k * m, "matmul_tn lhs length");
    assert_eq!(bd.len(), k * n, "matmul_tn rhs length");
    assert_eq!(out.len(), m * n, "matmul_tn output length");
    if m == 0 || n == 0 {
        return;
    }
    let _t = K_MATMUL_TN.record((m * k * n) as u64);
    let chunk_rows = par_chunk_rows(m, m * k * n);
    pool::for_each_chunk(out, chunk_rows * n, |ci, c_chunk| {
        let r0 = ci * chunk_rows;
        let rows = c_chunk.len() / n;
        // A is stored k-major: output row `row0 + r` reads A column
        // `row0 + r`, i.e. stride-m loads.
        let pack_a = |dst: &mut [f32], row0: usize, mb: usize, kk: usize, kc: usize| {
            for t in 0..kc {
                let arow = &ad[(kk + t) * m + row0..];
                for r in 0..mb {
                    dst[t * MR + r] = arow[r];
                }
            }
        };
        gebp_dispatch(&pack_a, bd, c_chunk, r0, rows, k, n);
    });
}

/// Computes `C = A · Bᵀ` where `A` is `m × k` and `B` is `n × k`.
///
/// Equivalent to `matmul(a, &b.transpose())` without allocating the
/// transpose. Used for forward passes (`Y = X · Wᵀ` with `W` stored
/// `out × in`, and im2col patches against conv filters).
///
/// Accumulates in `f64` per element (like [`crate::ops::dot`], which
/// the pre-blocking kernel delegated to) — see the module docs.
///
/// # Panics
///
/// Panics if either operand is not 2-D or the trailing dimensions differ.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "matmul_nt lhs");
    let (n, kb) = dims2(b, "matmul_nt rhs");
    assert_eq!(
        ka, kb,
        "matmul_nt trailing dimension mismatch: {ka} vs {kb}"
    );
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return Tensor::from_vec(out, &[m, n][..]);
    }
    let _t = K_MATMUL_NT.record((m * ka * n) as u64);
    let (ad, bd) = (a.data(), b.data());
    let chunk_rows = par_chunk_rows(m, m * ka * n);
    pool::for_each_chunk(&mut out, chunk_rows * n, |ci, c_chunk| {
        let r0 = ci * chunk_rows;
        let rows = c_chunk.len() / n;
        nt_dispatch(&ad[r0 * ka..(r0 + rows) * ka], bd, c_chunk, rows, ka, n);
    });
    Tensor::from_vec(out, &[m, n][..])
}

/// Runs the blocked kernel body for one row chunk, selecting the AVX
/// build when the CPU supports it.
fn gebp_dispatch<PA: Fn(&mut [f32], usize, usize, usize, usize)>(
    pack_a: &PA,
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    with_scratch(|s| {
        s.a.resize(MR * KC, 0.0);
        s.b.resize(KC * NC, 0.0);
        #[cfg(target_arch = "x86_64")]
        if cpu_has_avx() {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { gebp_avx(pack_a, b, c, r0, rows, k, n, &mut s.a, &mut s.b) };
            return;
        }
        let _ = cpu_has_avx();
        gebp_body(pack_a, b, c, r0, rows, k, n, &mut s.a, &mut s.b);
    });
}

/// # Safety
///
/// The CPU must support AVX (`target_feature` makes calling this UB
/// otherwise); the dispatch site verifies with `cpu_has_avx` at
/// runtime. The body's own pointer arithmetic is justified inline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(
    clippy::too_many_arguments,
    reason = "the blocked kernel takes its operands, geometry and scratch as plain arguments"
)]
unsafe fn gebp_avx<PA: Fn(&mut [f32], usize, usize, usize, usize)>(
    pack_a: &PA,
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
    ap_buf: &mut [f32],
    bp_buf: &mut [f32],
) {
    gebp_body(pack_a, b, c, r0, rows, k, n, ap_buf, bp_buf);
}

/// One row chunk of the blocked kernel. `c` is the chunk's slice of the
/// output (rows `r0 .. r0 + rows`, full width `n`); `pack_a` writes the
/// k-major `MR`-row pack for a given global row group and K slab.
///
/// A ragged last B panel (fewer than [`NR`] columns) and a ragged last
/// A row group (fewer than [`MR`] rows) are zero-padded in their packs
/// and run through the same [`micro`] on a stack tile; only the valid
/// part of the tile is copied back. Each lane of the tile folds only
/// its own row and column, so the padding never reaches a valid output.
#[allow(
    clippy::too_many_arguments,
    reason = "the blocked kernel takes its operands, geometry and scratch as plain arguments"
)]
#[inline(always)]
fn gebp_body<PA: Fn(&mut [f32], usize, usize, usize, usize)>(
    pack_a: &PA,
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
    ap_buf: &mut [f32],
    bp_buf: &mut [f32],
) {
    let mut kk = 0;
    while kk < k {
        let kc = KC.min(k - kk);
        let mut jj = 0;
        while jj < n {
            let nc = NC.min(n - jj);
            // `NC` is a multiple of `NR`, so even a padded last panel
            // fits the `KC · NC` pack.
            let panels = nc.div_ceil(NR);
            for p in 0..panels {
                let nw = NR.min(nc - p * NR);
                for t in 0..kc {
                    let src = &b[(kk + t) * n + jj + p * NR..];
                    let dst = &mut bp_buf[p * (kc * NR) + t * NR..][..NR];
                    if nw == NR {
                        dst.copy_from_slice(&src[..NR]);
                    } else {
                        for (j, d) in dst.iter_mut().enumerate() {
                            *d = if j < nw { src[j] } else { 0.0 };
                        }
                    }
                }
            }
            let mut ii = 0;
            while ii < rows {
                let mb = MR.min(rows - ii);
                pack_a(ap_buf, r0 + ii, mb, kk, kc);
                if mb < MR {
                    for t in 0..kc {
                        ap_buf[t * MR + mb..(t + 1) * MR].fill(0.0);
                    }
                }
                for p in 0..panels {
                    let j0 = jj + p * NR;
                    let nw = NR.min(nc - p * NR);
                    let bp = bp_buf[p * (kc * NR)..][..kc * NR].as_ptr();
                    if mb == MR && nw == NR {
                        // SAFETY: rows `ii..ii+MR` < rows and columns
                        // `j0 .. j0 + NR` ≤ jj + nc ≤ n are in bounds of
                        // the chunk; the packs hold `kc` slab steps.
                        unsafe {
                            micro(kc, ap_buf.as_ptr(), bp, c.as_mut_ptr().add(ii * n + j0), n)
                        };
                        continue;
                    }
                    let mut tile = [0.0f32; MR * NR];
                    for r in 0..mb {
                        tile[r * NR..][..nw].copy_from_slice(&c[(ii + r) * n + j0..][..nw]);
                    }
                    // SAFETY: `tile` is a whole `MR×NR` tile with row
                    // stride `NR`; the packs hold `kc` slab steps.
                    unsafe { micro(kc, ap_buf.as_ptr(), bp, tile.as_mut_ptr(), NR) };
                    for r in 0..mb {
                        c[(ii + r) * n + j0..][..nw].copy_from_slice(&tile[r * NR..][..nw]);
                    }
                }
                ii += MR;
            }
            jj += nc;
        }
        kk += kc;
    }
}

/// `MR×NR` register-tile update: loads the C tile, accumulates `kc`
/// slab steps from the packs, stores it back. Loading C first keeps the
/// per-element operation sequence identical to the naive ascending-k
/// fold across K slabs.
///
/// # Safety
///
/// `ap` must hold `kc · MR` floats, `bp` `kc · NR` floats, and `c` must
/// point at an `MR×NR` tile with row stride `ldc` inside an allocation
/// this call may write.
#[inline(always)]
unsafe fn micro(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    // SAFETY: every access below stays within the pack/tile bounds the
    // function contract (`# Safety` above) requires of the caller.
    unsafe {
        for (r, row) in acc.iter_mut().enumerate() {
            let crow = c.add(r * ldc);
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = *crow.add(j);
            }
        }
        for t in 0..kc {
            let bt = bp.add(t * NR);
            let mut bv = [0.0f32; NR];
            for (j, slot) in bv.iter_mut().enumerate() {
                *slot = *bt.add(j);
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = *ap.add(t * MR + r);
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot += av * bv[j];
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let crow = c.add(r * ldc);
            for (j, &v) in row.iter().enumerate() {
                *crow.add(j) = v;
            }
        }
    }
}

/// Runs the `A·Bᵀ` kernel body for one row chunk, selecting the AVX
/// build when available.
fn nt_dispatch(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    with_scratch(|s| {
        #[cfg(target_arch = "x86_64")]
        if cpu_has_avx() {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { nt_avx(a, b, c, rows, k, n, &mut s.panel) };
            return;
        }
        nt_body(a, b, c, rows, k, n, &mut s.panel);
    });
}

/// # Safety
///
/// The CPU must support AVX (`target_feature` makes calling this UB
/// otherwise); the dispatch site verifies with `cpu_has_avx` at
/// runtime. The body is the safe `nt_body` compiled with AVX codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn nt_avx(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    panel: &mut Vec<f64>,
) {
    nt_body(a, b, c, rows, k, n, panel);
}

/// One row chunk of `C = A·Bᵀ` with per-element `f64` accumulation:
/// every output is an ascending-k `f64` fold identical to
/// [`crate::ops::dot`]. K is never blocked across tiles: the `f64`
/// accumulator must span all of it.
///
/// Each group of [`NT_COLS`] B rows is packed once as a transposed
/// `[k][8]` `f64` panel, and [`nt_tile`] runs the chunk's A rows
/// against it [`NT_ROWS`] at a time. Tiles past the last row or column
/// re-read the last valid one and discard those outputs, so every tile
/// runs the full-width kernel.
#[inline(always)]
fn nt_body(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    panel: &mut Vec<f64>,
) {
    let a_row = |i: usize| &a[i.min(rows - 1) * k..][..k];
    let b_row = |j: usize| &b[j.min(n - 1) * k..][..k];
    let mut wide = [[0.0f64; NT_KB]; NT_ROWS];
    panel.resize(NT_COLS * k, 0.0);
    for jj in (0..n).step_by(NT_COLS) {
        let lanes: [&[f32]; NT_COLS] = std::array::from_fn(|j| b_row(jj + j));
        for (t, slot) in panel.chunks_exact_mut(NT_COLS).enumerate() {
            for (p, lane) in slot.iter_mut().zip(lanes) {
                *p = f64::from(lane[t]);
            }
        }
        for i in (0..rows).step_by(NT_ROWS) {
            let acc = nt_tile(std::array::from_fn(|r| a_row(i + r)), panel, &mut wide);
            for (r, row) in acc.iter().enumerate().take(rows - i) {
                let out = &mut c[(i + r) * n + jj..][..NT_COLS.min(n - jj)];
                for (o, &v) in out.iter_mut().zip(row) {
                    *o = v as f32;
                }
            }
        }
    }
}

/// The [`NT_ROWS`]`×`[`NT_COLS`] register tile of `matmul_nt`:
/// `acc[r][j] = Σ_t a[r][t] · panel[t][j]`, each an ascending-t `f64`
/// fold — 8 independent accumulator vectors under AVX. The A rows are
/// widened to `f64` in [`NT_KB`]-step blocks through `wide`, so the
/// inner loop broadcasts each A value with a plain load instead of a
/// per-step convert and shuffle.
#[inline(always)]
fn nt_tile(
    a: [&[f32]; NT_ROWS],
    panel: &[f64],
    wide: &mut [[f64; NT_KB]; NT_ROWS],
) -> [[f64; NT_COLS]; NT_ROWS] {
    let mut acc = [[0.0f64; NT_COLS]; NT_ROWS];
    for (kb, block) in panel.chunks(NT_COLS * NT_KB).enumerate() {
        let kc = block.len() / NT_COLS;
        for (w, a) in wide.iter_mut().zip(a) {
            for (d, &s) in w.iter_mut().zip(&a[kb * NT_KB..][..kc]) {
                *d = f64::from(s);
            }
        }
        for (t, bv) in block.chunks_exact(NT_COLS).enumerate() {
            for (row, w) in acc.iter_mut().zip(wide.iter()) {
                let av = w[t];
                for (slot, &bv) in row.iter_mut().zip(bv) {
                    *slot += av * bv;
                }
            }
        }
    }
    acc
}

/// The pre-blocking `C = A · B` kernel (k-outer AXPY with the
/// `aik == 0.0` skip), kept verbatim as the differential-testing
/// reference and for sparse-input benchmarking. Single-threaded.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "matmul lhs");
    let (kb, n) = dims2(b, "matmul rhs");
    assert_eq!(ka, kb, "matmul inner dimension mismatch: {ka} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * ka..(i + 1) * ka];
        let orow = &mut out[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[k * n..(k + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o += aik * bkj;
            }
        }
    }
    Tensor::from_vec(out, &[m, n][..])
}

/// The pre-blocking `C = Aᵀ · B` kernel, kept verbatim as the
/// differential-testing reference. Single-threaded.
pub fn matmul_tn_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2(a, "matmul_tn lhs");
    let (kb, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(ka, kb, "matmul_tn leading dimension mismatch: {ka} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for k in 0..ka {
        let arow = &ad[k * m..(k + 1) * m];
        let brow = &bd[k * n..(k + 1) * n];
        for (i, &aki) in arow.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o += aki * bkj;
            }
        }
    }
    Tensor::from_vec(out, &[m, n][..])
}

/// The pre-blocking `C = A · Bᵀ` kernel (per-element
/// [`crate::ops::dot`]), kept verbatim as the differential-testing
/// reference. Single-threaded.
pub fn matmul_nt_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "matmul_nt lhs");
    let (n, kb) = dims2(b, "matmul_nt rhs");
    assert_eq!(
        ka, kb,
        "matmul_nt trailing dimension mismatch: {ka} vs {kb}"
    );
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * ka..(i + 1) * ka];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = crate::ops::dot(arow, &bd[j * kb..(j + 1) * kb]);
        }
    }
    Tensor::from_vec(out, &[m, n][..])
}

// --- Weighted fold kernel --------------------------------------------------
//
// The server's fold (`taco-core::weighted_mean`) adds the uploads into
// a tile of `f64` accumulators with this kernel, several uploads per
// pass. It is purely elementwise — no cross-lane reduction — so the AVX
// build is bit-identical to the scalar body lane for lane (the
// differential test below pins this), and the widening arithmetic is
// exactly the `acc += weight as f64 * x as f64` of
// [`crate::ops::weighted_mean`]. On a 2-core Xeon host the AVX build
// made the server fold over 64 uploads × 395k dims on two
// threads 4.2–5.0 ms against 5.2–7.1 ms for the SSE2 build (medians of
// 60 folds, three alternating runs each).

/// `acc[j] += w₀·x₀[j]; …; acc[j] += w_{G−1}·x_{G−1}[j]` in that order,
/// each `f32` widened to `f64` before the multiply: `G` uploads' turns
/// of an ascending weighted fold in one pass over `acc`.
///
/// # Panics
///
/// Panics if a slice in `xs` is shorter than `acc`.
pub fn fold_weighted<const G: usize>(acc: &mut [f64], xs: [&[f32]; G], ws: [f64; G]) {
    let xs = xs.map(|x| &x[..acc.len()]);
    #[cfg(target_arch = "x86_64")]
    if cpu_has_avx() {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { fold_weighted_avx(acc, xs, ws) };
        return;
    }
    let _ = cpu_has_avx();
    fold_weighted_body(acc, xs, ws);
}

/// # Safety
///
/// The CPU must support AVX (`target_feature` makes calling this UB
/// otherwise); the dispatch site verifies with `cpu_has_avx` at
/// runtime. The body is the safe `fold_weighted_body` compiled with AVX
/// codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn fold_weighted_avx<const G: usize>(acc: &mut [f64], xs: [&[f32]; G], ws: [f64; G]) {
    fold_weighted_body(acc, xs, ws);
}

#[inline(always)]
fn fold_weighted_body<const G: usize>(acc: &mut [f64], xs: [&[f32]; G], ws: [f64; G]) {
    for (j, a) in acc.iter_mut().enumerate() {
        let mut v = *a;
        for (x, &w) in xs.iter().zip(&ws) {
            v += w * f64::from(x[j]);
        }
        *a = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Prng::seed_from_u64(1);
        let a = Tensor::randn(&[3, 3][..], 1.0, &mut rng);
        assert_close(&matmul(&a, &Tensor::eye(3)), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(3), &a), &a, 1e-6);
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        let mut rng = Prng::seed_from_u64(2);
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3),
            (8, 8, 8),
            (13, 17, 11),
            (40, 9, 33),
        ] {
            let a = Tensor::randn(&[m, k][..], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n][..], 1.0, &mut rng);
            assert_bits_equal(
                &matmul(&a, &b),
                &matmul_naive(&a, &b),
                &format!("matmul {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn matmul_tn_matches_naive_bitwise() {
        let mut rng = Prng::seed_from_u64(3);
        for &(k, m, n) in &[(1, 1, 1), (6, 4, 5), (17, 13, 7), (33, 40, 9)] {
            let a = Tensor::randn(&[k, m][..], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n][..], 1.0, &mut rng);
            assert_bits_equal(
                &matmul_tn(&a, &b),
                &matmul_tn_naive(&a, &b),
                &format!("matmul_tn {k}x{m}x{n}"),
            );
        }
    }

    #[test]
    fn ragged_tiles_match_naive_bitwise() {
        // Every column tail `n mod NR` and row tail `m mod MR` runs the
        // padded stack tile; `k = 576` spans three K slabs, so the tile
        // reloads C between slabs. `NC + 5` puts the ragged panel in a
        // second column block.
        let mut rng = Prng::seed_from_u64(12);
        let mut shapes = Vec::new();
        for m in [MR + 1, MR + 2, MR + 3] {
            for n in NR + 1..2 * NR {
                for k in [5, 576] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([(MR, 576, NR), (MR + 3, 9, NC + 5), (1, 300, 1)]);
        for (m, k, n) in shapes {
            let a = Tensor::randn(&[m, k][..], 1.0, &mut rng);
            let at = Tensor::randn(&[k, m][..], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n][..], 1.0, &mut rng);
            assert_bits_equal(
                &matmul(&a, &b),
                &matmul_naive(&a, &b),
                &format!("matmul {m}x{k}x{n}"),
            );
            assert_bits_equal(
                &matmul_tn(&at, &b),
                &matmul_tn_naive(&at, &b),
                &format!("matmul_tn {k}x{m}x{n}"),
            );
        }
    }

    #[test]
    fn accumulating_matmul_tn_continues_each_fold_from_c() {
        // A non-zero C, and `k` past two K slabs, so the kernel
        // reloads the running C tile between slabs.
        let mut rng = Prng::seed_from_u64(13);
        for &(k, m, n) in &[
            (1, 1, 1),
            (7, MR + 1, NR + 3),
            (2 * KC + 9, 2 * MC + 3, NC + 5),
        ] {
            let a = Tensor::randn(&[k, m][..], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n][..], 1.0, &mut rng);
            let c0 = Tensor::randn(&[m, n][..], 1.0, &mut rng);
            let mut want = c0.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut c = c0.data()[i * n + j];
                    for t in 0..k {
                        c += a.data()[t * m + i] * b.data()[t * n + j];
                    }
                    want.data_mut()[i * n + j] = c;
                }
            }
            let mut got = c0;
            matmul_tn_acc(&a, &b, &mut got);
            assert_bits_equal(&got, &want, &format!("matmul_tn_acc {k}x{m}x{n}"));
            // From +0.0 it is the plain product.
            let mut zero = Tensor::zeros(&[m, n][..]);
            matmul_tn_acc(&a, &b, &mut zero);
            assert_bits_equal(&zero, &matmul_tn(&a, &b), &format!("from zero {k}x{m}x{n}"));
        }
    }

    #[test]
    fn matmul_nt_matches_naive_bitwise() {
        let mut rng = Prng::seed_from_u64(4);
        // Row and column tails of the 4×8 tile, and k past one
        // widening block (`NT_KB`).
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 9, 5),
            (2, 17, 3),
            (9, 16, 7),
            (13, 11, 17),
            (40, 33, 9),
            (5, 9, NT_KB + 3),
        ] {
            let a = Tensor::randn(&[m, k][..], 1.0, &mut rng);
            let b = Tensor::randn(&[n, k][..], 1.0, &mut rng);
            assert_bits_equal(
                &matmul_nt(&a, &b),
                &matmul_nt_naive(&a, &b),
                &format!("matmul_nt {m}x{n}x{k}"),
            );
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Prng::seed_from_u64(3);
        let a = Tensor::randn(&[6, 4][..], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 5][..], 1.0, &mut rng);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Prng::seed_from_u64(4);
        let a = Tensor::randn(&[3, 7][..], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 7][..], 1.0, &mut rng);
        assert_close(&matmul_nt(&a, &b), &matmul(&a, &b.transpose()), 1e-5);
    }

    #[test]
    fn sparse_inputs_match_the_skipping_naive_kernel_bitwise() {
        // The naive kernel takes its `aik == 0.0` fast path here; the
        // blocked kernel has no such branch — results must still agree
        // exactly (module docs, "the old fast path").
        let mut rng = Prng::seed_from_u64(11);
        let mut a = Tensor::randn(&[19, 23][..], 1.0, &mut rng);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&[23, 29][..], 1.0, &mut rng);
        assert_bits_equal(&matmul(&a, &b), &matmul_naive(&a, &b), "sparse matmul");
    }

    #[test]
    fn fold_weighted_matches_the_one_at_a_time_fold_bitwise() {
        let mut rng = Prng::seed_from_u64(11);
        for len in [0usize, 1, 7, 64, 1023] {
            let xs: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..len + 3).map(|_| rng.normal_f32()).collect())
                .collect();
            let ws = [0.37f64, -1.5, 2.25e-3, 7.0];
            let init: Vec<f64> = (0..len).map(|_| rng.normal_f64()).collect();
            let mut want = init.clone();
            for (x, &w) in xs.iter().zip(&ws) {
                for (a, &x) in want.iter_mut().zip(x) {
                    *a += w * f64::from(x);
                }
            }
            let mut four = init.clone();
            fold_weighted(&mut four, std::array::from_fn(|u| xs[u].as_slice()), ws);
            let mut ones = init;
            for (x, &w) in xs.iter().zip(&ws) {
                fold_weighted(&mut ones, [x.as_slice()], [w]);
            }
            for (i, ((p, q), r)) in four.iter().zip(&ones).zip(&want).enumerate() {
                assert_eq!(p.to_bits(), r.to_bits(), "len {len} dim {i}, 4 at a time");
                assert_eq!(q.to_bits(), r.to_bits(), "len {len} dim {i}, one at a time");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3][..]);
        let b = Tensor::zeros(&[4, 2][..]);
        let _ = matmul(&a, &b);
    }
}
