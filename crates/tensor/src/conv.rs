//! 2-D convolution and pooling kernels.
//!
//! Convolution is implemented via `im2col`: the input patches are
//! unrolled into a matrix so that convolution becomes one matrix
//! multiplication (and the backward pass two). This is the classic
//! CPU strategy and keeps all heavy lifting in [`crate::linalg`].
//!
//! Layout conventions: activations are `[batch, channels, height,
//! width]` (NCHW) flattened row-major; kernels are `[out_ch, in_ch,
//! kh, kw]`.
//!
//! `im2col` and `col2im` have one body generic over the kernel width
//! `K`, instantiated for `PaperCnn`'s width 5, the only width whose
//! gain has been measured. A window row that lies wholly inside the
//! input moves `K` contiguous floats at once, a fixed-size copy (or
//! add) with no per-element bounds checks; a border row keeps them.
//! Any other width runs the runtime-width loop, which also stays as
//! the differential-testing reference ([`im2col_naive`],
//! [`col2im_naive`]). Both bodies visit windows in the same order, so
//! `col2im` adds each pixel's contributions in the same ascending
//! `(oy, ox)` order and its f32 sums are unchanged.
//!
//! The backward convolution is split in two: [`conv2d_weight_grad`]
//! (weight and bias gradients) and [`conv2d_input_grad`] (`g · W`,
//! then `col2im`). A first layer runs only the first half, since
//! nothing reads the gradient with respect to the data.
//!
//! The patch-matrix and pooling loops here run on the worker pool
//! ([`crate::pool`]) when the problem is large enough: `im2col` is
//! split over output-row blocks and `col2im` / max-pooling over
//! channels — partitions whose writes are disjoint and whose
//! per-element accumulation order matches the sequential loops, so
//! results are bit-identical at any thread count. The fixed-width
//! bodies keep these partitions. Each kernel reports `kernel.*`
//! time/call/element metrics via `taco-trace`.

use crate::ktrace;
use crate::linalg;
use crate::pool;
use crate::pool::SendPtr;
use crate::Tensor;

static K_IM2COL: ktrace::Kernel = ktrace::Kernel::new("kernel.im2col");
static K_COL2IM: ktrace::Kernel = ktrace::Kernel::new("kernel.col2im");
static K_MAXPOOL: ktrace::Kernel = ktrace::Kernel::new("kernel.maxpool2d");
static K_MAXPOOL_BWD: ktrace::Kernel = ktrace::Kernel::new("kernel.maxpool2d_bwd");

/// Below this many moved elements a conv/pool kernel stays on the
/// caller; these loops are copy-bound, so the dispatch only pays off
/// for reasonably large planes.
const MIN_PAR_ELEMS: usize = 1 << 14;

/// `im2col` output rows (`oy` values) per parallel chunk.
const IM2COL_ROWS_PER_CHUNK: usize = 4;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (ignored by pooling).
    pub out_channels: usize,
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit (output would be empty).
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding)
            .checked_sub(self.kernel)
            .map(|x| x / self.stride + 1);
        let ow = (w + 2 * self.padding)
            .checked_sub(self.kernel)
            .map(|x| x / self.stride + 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => (oh, ow),
            _ => panic!(
                "window {}x{} stride {} pad {} does not fit input {h}x{w}",
                self.kernel, self.kernel, self.stride, self.padding
            ),
        }
    }
}

/// Unrolls input patches into a `[oh*ow, in_ch*k*k]` matrix for one
/// image of shape `[in_ch, h, w]` (flattened).
///
/// Out-of-bounds (padding) positions contribute zeros. Kernel width
/// 5 runs the fixed-width body; any other width runs the
/// runtime-width loop of [`im2col_naive`]. Both are pure copies.
pub fn im2col(input: &[f32], h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let cols = spec.in_channels * k * k;
    let _t = K_IM2COL.record((oh * ow * cols) as u64);
    let mut out = vec![0.0f32; oh * ow * cols];
    if out.is_empty() {
        return Tensor::from_vec(out, &[oh * ow, cols][..]);
    }
    // Each output row `oy` owns a contiguous `ow * cols` slice; chunks
    // are fixed-size row blocks (pure copies — any partition is exact).
    let row_elems = ow * cols;
    let rows_per_chunk = if oh * row_elems < MIN_PAR_ELEMS || pool::threads() <= 1 {
        oh
    } else {
        IM2COL_ROWS_PER_CHUNK
    };
    pool::for_each_chunk(&mut out, rows_per_chunk * row_elems, |ci, chunk| {
        let oy0 = ci * rows_per_chunk;
        match k {
            5 => im2col_rows::<5>(input, h, w, ow, spec, oy0, chunk),
            _ => im2col_rows_any(input, h, w, ow, spec, oy0, chunk),
        }
    });
    Tensor::from_vec(out, &[oh * ow, cols][..])
}

/// The runtime-width `im2col` loop over the whole output, kept as the
/// differential-testing reference for the fixed-width bodies.
/// Single-threaded and untraced.
pub fn im2col_naive(input: &[f32], h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (oh, ow) = spec.output_hw(h, w);
    let cols = spec.in_channels * spec.kernel * spec.kernel;
    let mut out = vec![0.0f32; oh * ow * cols];
    im2col_rows_any(input, h, w, ow, spec, 0, &mut out);
    Tensor::from_vec(out, &[oh * ow, cols][..])
}

/// Fills the patch-matrix rows of output rows `oy0..` held in `chunk`
/// (a whole number of `ow * cols` rows), for any kernel width.
fn im2col_rows_any(
    input: &[f32],
    h: usize,
    w: usize,
    ow: usize,
    spec: &Conv2dSpec,
    oy0: usize,
    chunk: &mut [f32],
) {
    let k = spec.kernel;
    let cols = spec.in_channels * k * k;
    let oys = chunk.len() / (ow * cols);
    for dy in 0..oys {
        let oy = oy0 + dy;
        for ox in 0..ow {
            let base = (dy * ow + ox) * cols;
            for c in 0..spec.in_channels {
                for ky in 0..k {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let src = c * h * w + iy as usize * w + ix as usize;
                        let dst = base + c * k * k + ky * k + kx;
                        chunk[dst] = input[src];
                    }
                }
            }
        }
    }
}

/// [`im2col_rows_any`] for kernel width `K`: a window row that lies
/// wholly inside the input row is one fixed-size `K`-float move; a
/// border row keeps the per-element bounds checks.
fn im2col_rows<const K: usize>(
    input: &[f32],
    h: usize,
    w: usize,
    ow: usize,
    spec: &Conv2dSpec,
    oy0: usize,
    chunk: &mut [f32],
) {
    let cols = spec.in_channels * K * K;
    let pad = spec.padding as isize;
    for (dy, rows) in chunk.chunks_exact_mut(ow * cols).enumerate() {
        let oy = oy0 + dy;
        for (ox, patch) in rows.chunks_exact_mut(cols).enumerate() {
            let ix0 = (ox * spec.stride) as isize - pad;
            let inside = ix0 >= 0 && ix0 as usize + K <= w;
            for (c, pc) in patch.chunks_exact_mut(K * K).enumerate() {
                let plane = &input[c * h * w..(c + 1) * h * w];
                for (ky, dst) in pc.chunks_exact_mut(K).enumerate() {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    if inside {
                        let x0 = ix0 as usize;
                        dst.copy_from_slice(&src[x0..x0 + K]);
                    } else {
                        for (kx, d) in dst.iter_mut().enumerate() {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                *d = src[ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a `[oh*ow, in_ch*k*k]` column matrix back into an image
/// gradient of shape `[in_ch, h, w]` (the adjoint of [`im2col`]).
///
/// Kernel width 5 runs the fixed-width body; any other width
/// runs the runtime-width loop of [`col2im_naive`]. Both add each
/// pixel's contributions in ascending `(oy, ox)` order.
pub fn col2im(cols_t: &Tensor, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let cols = spec.in_channels * k * k;
    assert_eq!(cols_t.dims(), &[oh * ow, cols], "col2im shape mismatch");
    let _t = K_COL2IM.record((oh * ow * cols) as u64);
    let mut out = vec![0.0f32; spec.in_channels * h * w];
    if out.is_empty() {
        return out;
    }
    let data = cols_t.data();
    let chw = h * w;
    // Scatter is parallel over channels: every destination belongs to
    // exactly one channel, and within a channel the (oy, ox, ky, kx)
    // accumulation order is the same as the sequential loop's, so the
    // f32 sums are bit-identical.
    let chunk_len = if oh * ow * cols < MIN_PAR_ELEMS || pool::threads() <= 1 {
        out.len()
    } else {
        chw
    };
    pool::for_each_chunk(&mut out, chunk_len, |ci, chunk| {
        let c0 = ci * chunk_len / chw;
        match k {
            5 => col2im_planes::<5>(data, h, w, oh, ow, spec, c0, chunk),
            _ => col2im_planes_any(data, h, w, oh, ow, spec, c0, chunk),
        }
    });
    out
}

/// The runtime-width `col2im` loop over every channel, kept as the
/// differential-testing reference for the fixed-width bodies.
/// Single-threaded and untraced.
///
/// # Panics
///
/// Panics if `cols_t` is not `[oh*ow, in_ch*k*k]`.
pub fn col2im_naive(cols_t: &Tensor, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let cols = spec.in_channels * spec.kernel * spec.kernel;
    assert_eq!(cols_t.dims(), &[oh * ow, cols], "col2im shape mismatch");
    let mut out = vec![0.0f32; spec.in_channels * h * w];
    col2im_planes_any(cols_t.data(), h, w, oh, ow, spec, 0, &mut out);
    out
}

/// Accumulates the image-gradient planes of channels `c0..` held in
/// `chunk` (a whole number of `h * w` planes), for any kernel width.
#[allow(clippy::too_many_arguments)]
fn col2im_planes_any(
    data: &[f32],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: &Conv2dSpec,
    c0: usize,
    chunk: &mut [f32],
) {
    let k = spec.kernel;
    let cols = spec.in_channels * k * k;
    let chw = h * w;
    let nch = chunk.len() / chw;
    for dc in 0..nch {
        let c = c0 + dc;
        for oy in 0..oh {
            for ox in 0..ow {
                let base = (oy * ow + ox) * cols;
                for ky in 0..k {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let dst = dc * chw + iy as usize * w + ix as usize;
                        let src = base + c * k * k + ky * k + kx;
                        chunk[dst] += data[src];
                    }
                }
            }
        }
    }
}

/// [`col2im_planes_any`] for kernel width `K`: a window row that lies
/// wholly inside the input row adds `K` contiguous floats at once; a
/// border row keeps the per-element bounds checks. The loop order, and
/// so every pixel's `(oy, ox)` accumulation order, is unchanged.
#[allow(clippy::too_many_arguments)]
fn col2im_planes<const K: usize>(
    data: &[f32],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: &Conv2dSpec,
    c0: usize,
    chunk: &mut [f32],
) {
    let kk = K * K;
    let cols = spec.in_channels * kk;
    let pad = spec.padding as isize;
    for (dc, plane) in chunk.chunks_exact_mut(h * w).enumerate() {
        let c = c0 + dc;
        for oy in 0..oh {
            for ox in 0..ow {
                let base = (oy * ow + ox) * cols + c * kk;
                let patch = &data[base..base + kk];
                let ix0 = (ox * spec.stride) as isize - pad;
                let inside = ix0 >= 0 && ix0 as usize + K <= w;
                for (ky, src) in patch.chunks_exact(K).enumerate() {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                    if inside {
                        let x0 = ix0 as usize;
                        for (d, s) in dst[x0..x0 + K].iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (kx, s) in src.iter().enumerate() {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                dst[ix as usize] += s;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution for one image.
///
/// `input` is `[in_ch, h, w]` flattened, `weight` is
/// `[out_ch, in_ch*k*k]`, `bias` has `out_ch` entries. Returns the
/// output `[out_ch, oh, ow]` flattened plus the `im2col` matrix, which
/// the caller keeps for the backward pass.
pub fn conv2d_forward(
    input: &[f32],
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: &[f32],
    spec: &Conv2dSpec,
) -> (Vec<f32>, Tensor) {
    let (oh, ow) = spec.output_hw(h, w);
    let cols = im2col(input, h, w, spec);
    // [oh*ow, in_ch*k*k] x [in_ch*k*k, out_ch] -> [oh*ow, out_ch]
    let prod = linalg::matmul_nt(&cols, weight);
    let mut out = vec![0.0f32; spec.out_channels * oh * ow];
    let pd = prod.data();
    for pos in 0..oh * ow {
        for oc in 0..spec.out_channels {
            out[oc * oh * ow + pos] = pd[pos * spec.out_channels + oc] + bias[oc];
        }
    }
    (out, cols)
}

/// Weight and bias half of the backward convolution: accumulates
/// `dW = gᵀ · cols` into `grad_weight` and the per-channel sums of
/// `grad_out` into `grad_bias`.
///
/// Returns `grad_out` repacked position-major as `[oh*ow, out_ch]`,
/// the form [`conv2d_input_grad`] takes.
pub fn conv2d_weight_grad(
    grad_out: &[f32],
    h: usize,
    w: usize,
    cols: &Tensor,
    spec: &Conv2dSpec,
    grad_weight: &mut Tensor,
    grad_bias: &mut [f32],
) -> Tensor {
    let (oh, ow) = spec.output_hw(h, w);
    // Repack grad_out to [oh*ow, out_ch].
    let mut g = vec![0.0f32; oh * ow * spec.out_channels];
    for oc in 0..spec.out_channels {
        for pos in 0..oh * ow {
            g[pos * spec.out_channels + oc] = grad_out[oc * oh * ow + pos];
        }
    }
    let g = Tensor::from_vec(g, &[oh * ow, spec.out_channels][..]);
    // dW = gᵀ · cols  -> [out_ch, in_ch*k*k]
    let dw = linalg::matmul_tn(&g, cols);
    *grad_weight += &dw;
    for (oc, gb) in grad_bias.iter_mut().enumerate().take(spec.out_channels) {
        let mut s = 0.0;
        for pos in 0..oh * ow {
            s += g.data()[pos * spec.out_channels + oc];
        }
        *gb += s;
    }
    g
}

/// Input half of the backward convolution: `dcols = g · W`, scattered
/// back by [`col2im`] into the input gradient `[in_ch, h, w]`. `g` is
/// the repacked output gradient [`conv2d_weight_grad`] returns.
pub fn conv2d_input_grad(
    g: &Tensor,
    h: usize,
    w: usize,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Vec<f32> {
    // dcols = g · W -> [oh*ow, in_ch*k*k]
    let dcols = linalg::matmul(g, weight);
    col2im(&dcols, h, w, spec)
}

/// Forward 2×2 (or general square) max pooling for one image.
///
/// Returns the pooled output `[ch, oh, ow]` and the flat argmax indices
/// used by [`maxpool2d_backward`].
///
/// # Panics
///
/// Panics if `window` or `stride` is zero, or if the window does not
/// fit the `h × w` input.
pub fn maxpool2d_forward(
    input: &[f32],
    channels: usize,
    h: usize,
    w: usize,
    window: usize,
    stride: usize,
) -> (Vec<f32>, Vec<usize>) {
    assert!(
        window > 0 && stride > 0,
        "pool window/stride must be positive"
    );
    let (oh, ow) = Conv2dSpec {
        in_channels: channels,
        out_channels: channels,
        kernel: window,
        stride,
        padding: 0,
    }
    .output_hw(h, w);
    let plane = oh * ow;
    let mut out = vec![0.0f32; channels * plane];
    let mut arg = vec![0usize; channels * plane];
    let _t = K_MAXPOOL.record((channels * plane * window * window) as u64);
    let per_channel = |c: usize, out_c: &mut [f32], arg_c: &mut [usize]| {
        for oy in 0..oh {
            for ox in 0..ow {
                // Start from the window's own first element, so the
                // argmax stays in this channel's plane even when no
                // element compares greater (an all-NaN or all -inf
                // window); for finite input the pick is unchanged.
                let mut best_idx = c * h * w + oy * stride * w + ox * stride;
                let mut best = input[best_idx];
                for ky in 0..window {
                    for kx in 0..window {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        let idx = c * h * w + iy * w + ix;
                        if input[idx] > best {
                            best = input[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = oy * ow + ox;
                out_c[o] = best;
                arg_c[o] = best_idx;
            }
        }
    };
    if channels * plane * window * window < MIN_PAR_ELEMS || pool::threads() <= 1 {
        for c in 0..channels {
            per_channel(
                c,
                &mut out[c * plane..(c + 1) * plane],
                &mut arg[c * plane..(c + 1) * plane],
            );
        }
    } else {
        let outp = SendPtr(out.as_mut_ptr());
        let argp = SendPtr(arg.as_mut_ptr());
        pool::for_each_index(channels, |c| {
            // SAFETY: each channel index is claimed exactly once and
            // maps to a disjoint `plane`-long region of `out`, which
            // outlives the dispatch.
            let out_c = unsafe { std::slice::from_raw_parts_mut(outp.get().add(c * plane), plane) };
            // SAFETY: same disjointness argument for `arg`.
            let arg_c = unsafe { std::slice::from_raw_parts_mut(argp.get().add(c * plane), plane) };
            per_channel(c, out_c, arg_c);
        });
    }
    (out, arg)
}

/// Backward max pooling: routes each output gradient to the input
/// element that won the forward max. `channels` must match the forward
/// call — the scatter parallelizes per channel (argmax indices from
/// [`maxpool2d_forward`] always stay within their channel's plane).
///
/// # Panics
///
/// Panics if `channels` is zero or doesn't divide both `input_len` and
/// `grad_out.len()`, or if an argmax index falls outside its channel.
pub fn maxpool2d_backward(
    grad_out: &[f32],
    argmax: &[usize],
    channels: usize,
    input_len: usize,
) -> Vec<f32> {
    assert!(
        channels > 0,
        "maxpool2d_backward needs at least one channel"
    );
    assert_eq!(
        input_len % channels,
        0,
        "input_len not divisible by channels"
    );
    assert_eq!(
        grad_out.len() % channels,
        0,
        "grad_out not divisible by channels"
    );
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "grad_out/argmax length mismatch"
    );
    let _t = K_MAXPOOL_BWD.record(grad_out.len() as u64);
    let mut grad_in = vec![0.0f32; input_len];
    if input_len == 0 {
        return grad_in;
    }
    let chw = input_len / channels;
    let plane = grad_out.len() / channels;
    let chunk_len = if grad_out.len() < MIN_PAR_ELEMS || pool::threads() <= 1 {
        input_len
    } else {
        chw
    };
    pool::for_each_chunk(&mut grad_in, chunk_len, |ci, chunk| {
        let c0 = ci * chunk_len / chw;
        let nch = chunk.len() / chw;
        for dc in 0..nch {
            let c = c0 + dc;
            let go = &grad_out[c * plane..(c + 1) * plane];
            let am = &argmax[c * plane..(c + 1) * plane];
            for (g, &idx) in go.iter().zip(am) {
                let local = idx
                    .checked_sub(c * chw)
                    .filter(|&l| l < chw)
                    .expect("argmax index escapes its channel");
                chunk[dc * chw + local] += g;
            }
        }
    });
    grad_in
}

/// Global average pooling: collapses `[ch, h, w]` to `[ch]`.
pub fn global_avg_pool(input: &[f32], channels: usize, hw: usize) -> Vec<f32> {
    (0..channels)
        .map(|c| input[c * hw..(c + 1) * hw].iter().sum::<f32>() / hw as f32)
        .collect()
}

/// Backward of [`global_avg_pool`].
pub fn global_avg_pool_backward(grad_out: &[f32], channels: usize, hw: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; channels * hw];
    for c in 0..channels {
        let g = grad_out[c] / hw as f32;
        for x in &mut out[c * hw..(c + 1) * hw] {
            *x = g;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn spec(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: in_c,
            out_channels: out_c,
            kernel: k,
            stride,
            padding: pad,
        }
    }

    /// Direct (nested-loop) convolution used as the test oracle.
    fn naive_conv(
        input: &[f32],
        h: usize,
        w: usize,
        weight: &Tensor,
        bias: &[f32],
        s: &Conv2dSpec,
    ) -> Vec<f32> {
        let (oh, ow) = s.output_hw(h, w);
        let k = s.kernel;
        let mut out = vec![0.0f32; s.out_channels * oh * ow];
        for oc in 0..s.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for c in 0..s.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * s.stride + ky) as isize - s.padding as isize;
                                let ix = (ox * s.stride + kx) as isize - s.padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let wv = weight.data()
                                    [oc * s.in_channels * k * k + c * k * k + ky * k + kx];
                                acc += wv * input[c * h * w + iy as usize * w + ix as usize];
                            }
                        }
                    }
                    out[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn output_hw_formula() {
        let s = spec(1, 1, 5, 1, 0);
        assert_eq!(s.output_hw(28, 28), (24, 24));
        let s = spec(1, 1, 3, 2, 1);
        assert_eq!(s.output_hw(8, 8), (4, 4));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn output_hw_too_small_panics() {
        let s = spec(1, 1, 5, 1, 0);
        let _ = s.output_hw(3, 3);
    }

    #[test]
    fn conv_forward_matches_naive() {
        let mut rng = Prng::seed_from_u64(10);
        for &(h, w, s) in &[
            (6usize, 6usize, spec(2, 3, 3, 1, 0)),
            (5, 7, spec(1, 2, 3, 2, 1)),
        ] {
            let input = Tensor::randn(&[s.in_channels * h * w][..], 1.0, &mut rng);
            let weight = Tensor::randn(
                &[s.out_channels, s.in_channels * s.kernel * s.kernel][..],
                0.5,
                &mut rng,
            );
            let bias: Vec<f32> = (0..s.out_channels).map(|_| rng.normal_f32()).collect();
            let (got, _) = conv2d_forward(input.data(), h, w, &weight, &bias, &s);
            let want = naive_conv(input.data(), h, w, &weight, &bias, &s);
            for (g, n) in got.iter().zip(&want) {
                assert!((g - n).abs() < 1e-4, "{g} vs {n}");
            }
        }
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let mut rng = Prng::seed_from_u64(20);
        let s = spec(2, 2, 3, 1, 1);
        let (h, w) = (4, 4);
        let input = Tensor::randn(&[s.in_channels * h * w][..], 1.0, &mut rng);
        let weight = Tensor::randn(
            &[s.out_channels, s.in_channels * s.kernel * s.kernel][..],
            0.5,
            &mut rng,
        );
        let bias = vec![0.1f32, -0.2];
        // Loss = sum of outputs; grad_out = ones.
        let loss = |inp: &[f32], wt: &Tensor, b: &[f32]| -> f32 {
            conv2d_forward(inp, h, w, wt, b, &s).0.iter().sum()
        };
        let (out, cols) = conv2d_forward(input.data(), h, w, &weight, &bias, &s);
        let grad_out = vec![1.0f32; out.len()];
        let mut gw = Tensor::zeros(weight.shape().clone());
        let mut gb = vec![0.0f32; 2];
        let g = conv2d_weight_grad(&grad_out, h, w, &cols, &s, &mut gw, &mut gb);
        let gin = conv2d_input_grad(&g, h, w, &weight, &s);

        let eps = 1e-2f32;
        // Check a few input coordinates.
        for &i in &[0usize, 7, 15, 31] {
            let mut p = input.data().to_vec();
            p[i] += eps;
            let mut m = input.data().to_vec();
            m[i] -= eps;
            let fd = (loss(&p, &weight, &bias) - loss(&m, &weight, &bias)) / (2.0 * eps);
            assert!(
                (fd - gin[i]).abs() < 1e-2,
                "input grad {i}: fd {fd} vs {}",
                gin[i]
            );
        }
        // Check a few weight coordinates.
        for &i in &[0usize, 5, 17] {
            let mut p = weight.clone();
            p.data_mut()[i] += eps;
            let mut m = weight.clone();
            m.data_mut()[i] -= eps;
            let fd = (loss(input.data(), &p, &bias) - loss(input.data(), &m, &bias)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[i]).abs() < 1e-1,
                "weight grad {i}: fd {fd} vs {}",
                gw.data()[i]
            );
        }
        // Bias gradient is just the count of output positions.
        let (oh, ow) = s.output_hw(h, w);
        assert!((gb[0] - (oh * ow) as f32).abs() < 1e-3);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = Prng::seed_from_u64(30);
        let s = spec(2, 1, 3, 2, 1);
        let (h, w) = (5, 5);
        let x = Tensor::randn(&[s.in_channels * h * w][..], 1.0, &mut rng);
        let cols = im2col(x.data(), h, w, &s);
        let y = Tensor::randn(cols.shape().clone(), 1.0, &mut rng);
        let lhs = crate::ops::dot(cols.data(), y.data());
        let back = col2im(&y, h, w, &s);
        let rhs = crate::ops::dot(x.data(), &back);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_forward_and_backward() {
        // 1 channel, 4x4 input, 2x2 window stride 2.
        let input: Vec<f32> = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            9.0, 10.0, 13.0, 14.0, //
            11.0, 12.0, 15.0, 16.0,
        ];
        let (out, arg) = maxpool2d_forward(&input, 1, 4, 4, 2, 2);
        assert_eq!(out, vec![4.0, 8.0, 12.0, 16.0]);
        let grad = maxpool2d_backward(&[1.0, 2.0, 3.0, 4.0], &arg, 1, input.len());
        assert_eq!(grad[5], 1.0);
        assert_eq!(grad[7], 2.0);
        assert_eq!(grad[13], 3.0);
        assert_eq!(grad[15], 4.0);
        assert_eq!(grad.iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn maxpool_argmax_stays_in_channel_for_non_finite_windows() {
        // 2 channels of 2x4, 2x2 windows stride 2: channel 0 is finite;
        // channel 1 has an all-NaN window, then an all -inf one.
        let nan = f32::NAN;
        let ninf = f32::NEG_INFINITY;
        let input: Vec<f32> = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            nan, nan, ninf, ninf, //
            nan, nan, ninf, ninf,
        ];
        let (out, arg) = maxpool2d_forward(&input, 2, 2, 4, 2, 2);
        let grad = maxpool2d_backward(&[1.0, 2.0, 3.0, 4.0], &arg, 2, input.len());
        assert_eq!(&out[..2], &[4.0, 8.0]);
        assert!(out[2].is_nan());
        assert_eq!(out[3], ninf);
        // Each argmax is the window's first element, inside channel 1.
        assert_eq!(arg, vec![5, 7, 8, 10]);
        assert_eq!(grad[8], 3.0);
        assert_eq!(grad[10], 4.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn maxpool_window_taller_than_the_input_panics() {
        // A 1x4 input under a 2x2 window, stride 1.
        let _ = maxpool2d_forward(&[1.0; 4], 1, 1, 4, 2, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn maxpool_window_taller_than_the_input_panics_at_stride_two() {
        // A 1x3 input under a 2x2 window, stride 2.
        let _ = maxpool2d_forward(&[1.0; 3], 1, 1, 3, 2, 2);
    }

    #[test]
    fn maxpool_pooled_branch_matches_the_caller_loop() {
        // 2 channels of 20x20 under an 8x8 window, stride 1: a 13x13
        // plane, so channels * plane * window^2 = 21,632 reaches
        // MIN_PAR_ELEMS and a 2-thread pool writes through `SendPtr`.
        let mut rng = Prng::seed_from_u64(40);
        let (channels, side, window) = (2, 20, 8);
        assert!(channels * 13 * 13 * window * window >= MIN_PAR_ELEMS);
        let input = Tensor::randn(&[channels * side * side][..], 1.0, &mut rng);
        let run = |threads| {
            pool::with_pool(&pool::Pool::new(threads), || {
                maxpool2d_forward(input.data(), channels, side, side, window, 1)
            })
        };
        let (out, arg) = run(2);
        assert_eq!(out.len(), channels * 13 * 13);
        assert_eq!((out, arg), run(1));
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let input = vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0];
        let out = global_avg_pool(&input, 2, 4);
        assert_eq!(out, vec![4.0, 2.0]);
        let back = global_avg_pool_backward(&[4.0, 8.0], 2, 4);
        assert_eq!(back, vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
