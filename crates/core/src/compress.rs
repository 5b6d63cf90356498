//! Lossy upload codecs with a real wire format.
//!
//! The paper's related work cites compressed federated learning
//! (Haddadpour et al., cited as reference 42) among the
//! momentum-correction family. Earlier revisions of this module only
//! offered a `roundtrip` API — compress-and-immediately-decompress on
//! the client — so the server never touched an encoded payload and
//! byte accounting was inferred rather than measured. This module now
//! splits the codec into the two halves a deployment actually has:
//!
//! - [`Compressor::encode`] produces an [`EncodedDelta`] — the wire
//!   message. Its [`EncodedDelta::wire_bytes`] is computed from the
//!   actual encoding (headers, indices, levels, non-finite escapes),
//!   not from a formula over the dense length.
//! - The server checks each message's structure
//!   ([`EncodedDelta::check_integrity`] and its dimension), then
//!   [`EncodedDelta::decode`]s it once and aggregates the dense delta.
//!
//! Four codecs ship:
//!
//! - [`NoCompression`] — dense `f32` passthrough (baseline).
//! - [`TopK`] — keep the `k` largest-magnitude coordinates as a sparse
//!   (index, value) message (a *contraction* operator: the error norm
//!   is at most `√(1 − k/d)` of the input norm; property-tested).
//! - [`Uniform8Bit`] — per-tensor affine quantization to 256 levels
//!   with round-to-nearest (at 8 bits the rounding bias is below the
//!   quantization noise floor). Non-finite coordinates are carried as
//!   raw-bit escape entries so validation still sees them.
//! - [`Stochastic4Bit`] — 16-level affine quantization with *seeded
//!   stochastic rounding*: each coordinate rounds up with probability
//!   equal to its fractional level, so the quantizer is unbiased even
//!   at 4 bits. Rounding bits come from a salted per-`(round, client)`
//!   stream (salted with [`CODEC_SALT`]), making encodings bit-reproducible at
//!   any thread count.
//!
//! Wire layouts (documented in DESIGN.md § wire formats):
//!
//! | variant | layout | wire bytes |
//! |---|---|---|
//! | `Dense` | `d × f32` | `4d` |
//! | `Sparse` | `dim: u32, nnz: u32`, then `nnz × (idx: u32, val: f32)` | `8 + 8·nnz` |
//! | `Q8` | `min: f32, scale: f32, n_exc: u32`, `d × u8`, `n_exc × (idx: u32, raw: f32)` | `12 + d + 8·n_exc` |
//! | `Q4` | `min: f32, scale: f32, n_exc: u32, dim: u32`, `⌈d/2⌉ × u8`, `n_exc × (idx: u32, raw: f32)` | `16 + ⌈d/2⌉ + 8·n_exc` |

use taco_tensor::Prng;

/// Salt mixed into the run seed for the stochastic-rounding stream, so
/// quantization draws are independent of the training, participation,
/// fault, and every other salted stream derived from the same
/// `(round, client)` cell (DESIGN.md §7 salt table). A client's stream
/// is `Prng::for_cell(seed ^ CODEC_SALT, round, client)`, pure in its
/// arguments, so parallel and sequential encodes are bit-identical.
pub const CODEC_SALT: u64 = 0xC0DEC;

/// The wire-format payload of one encoded client delta.
///
/// Fields are public: the fault layer damages encodings in place
/// (an index, a level, or the scale header — see
/// `taco_sim::fault::apply_corruption_encoded`) and the validation
/// layer inspects them via [`EncodedDelta::check_integrity`].
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedDelta {
    /// Uncompressed dense `f32` payload.
    Dense(Vec<f32>),
    /// Sparse (index, value) pairs with ascending indices.
    Sparse {
        /// Dense dimensionality the indices address.
        dim: usize,
        /// Kept coordinate indices, strictly ascending.
        indices: Vec<u32>,
        /// Kept coordinate values, parallel to `indices`.
        values: Vec<f32>,
    },
    /// 256-level affine quantization: `x ≈ min + level · scale`.
    Q8 {
        /// Affine offset (the finite minimum of the input).
        min: f32,
        /// Affine step (`(max − min) / 255`; `0` for constant input).
        scale: f32,
        /// One level byte per coordinate (`0` at escape positions).
        levels: Vec<u8>,
        /// Non-finite escapes: `(index, raw f32)` pairs, ascending.
        exceptions: Vec<(u32, f32)>,
    },
    /// 16-level affine quantization, two levels packed per byte (low
    /// nibble = even index).
    Q4 {
        /// Dense dimensionality (needed: `packed` rounds up to bytes).
        dim: usize,
        /// Affine offset (the finite minimum of the input).
        min: f32,
        /// Affine step (`(max − min) / 15`; `0` for constant input).
        scale: f32,
        /// Nibble-packed levels, `⌈dim/2⌉` bytes.
        packed: Vec<u8>,
        /// Non-finite escapes: `(index, raw f32)` pairs, ascending.
        exceptions: Vec<(u32, f32)>,
    },
}

impl EncodedDelta {
    /// Dense dimensionality of the decoded vector.
    pub fn dim(&self) -> usize {
        match self {
            EncodedDelta::Dense(v) => v.len(),
            EncodedDelta::Sparse { dim, .. } => *dim,
            EncodedDelta::Q8 { levels, .. } => levels.len(),
            EncodedDelta::Q4 { dim, .. } => *dim,
        }
    }

    /// Bytes this message occupies on the wire, computed from the
    /// actual encoding (see the module-level layout table). Non-finite
    /// escape entries bill their full `(u32, f32)` cost — the byte
    /// accounting matches what was actually encodable, rather than
    /// pretending a NaN fit in a level byte.
    pub fn wire_bytes(&self) -> usize {
        match self {
            EncodedDelta::Dense(v) => v.len() * 4,
            EncodedDelta::Sparse { indices, .. } => 8 + indices.len() * 8,
            EncodedDelta::Q8 {
                levels, exceptions, ..
            } => 12 + levels.len() + exceptions.len() * 8,
            EncodedDelta::Q4 {
                packed, exceptions, ..
            } => 16 + packed.len() + exceptions.len() * 8,
        }
    }

    /// Structural integrity of the message: parallel array lengths,
    /// strictly ascending in-bounds indices, and a level buffer sized
    /// to the dimension. A corrupted index or a truncated buffer fails
    /// here *before* the decoded floats are ever looked at — the
    /// server quarantines such uploads as malformed.
    pub fn check_integrity(&self) -> bool {
        fn ascending_in_bounds(pairs: &[(u32, f32)], dim: usize) -> bool {
            pairs.windows(2).all(|w| w[0].0 < w[1].0)
                && pairs.iter().all(|&(i, _)| (i as usize) < dim)
        }
        match self {
            EncodedDelta::Dense(_) => true,
            EncodedDelta::Sparse {
                dim,
                indices,
                values,
            } => {
                indices.len() == values.len()
                    && indices.windows(2).all(|w| w[0] < w[1])
                    && indices.iter().all(|&i| (i as usize) < *dim)
            }
            EncodedDelta::Q8 {
                levels, exceptions, ..
            } => ascending_in_bounds(exceptions, levels.len()),
            EncodedDelta::Q4 {
                dim,
                packed,
                exceptions,
                ..
            } => packed.len() == dim.div_ceil(2) && ascending_in_bounds(exceptions, *dim),
        }
    }

    /// Reconstructs the dense lossy vector the receiver decodes.
    /// Defensive on malformed messages (out-of-range indices are
    /// skipped): [`EncodedDelta::check_integrity`] is the rejection
    /// path, decode must not panic on hostile input.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        self.decode_into(&mut out);
        out
    }

    /// [`EncodedDelta::decode`] into a caller's buffer, overwriting
    /// every coordinate: the server decodes an accepted upload into the
    /// buffer its dense delta arrived in.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`EncodedDelta::dim`].
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim(), "decode_into length mismatch");
        let exceptions = match self {
            EncodedDelta::Dense(v) => {
                out.copy_from_slice(v);
                return;
            }
            EncodedDelta::Sparse {
                indices, values, ..
            } => {
                out.fill(0.0);
                for (&i, &v) in indices.iter().zip(values) {
                    if let Some(slot) = out.get_mut(i as usize) {
                        *slot = v;
                    }
                }
                return;
            }
            EncodedDelta::Q8 {
                min,
                scale,
                levels,
                exceptions,
            } => {
                for (slot, &l) in out.iter_mut().zip(levels) {
                    *slot = min + f32::from(l) * scale;
                }
                exceptions
            }
            EncodedDelta::Q4 {
                min,
                scale,
                packed,
                exceptions,
                ..
            } => {
                for (i, slot) in out.iter_mut().enumerate() {
                    let level = (packed.get(i / 2).copied().unwrap_or(0) >> ((i % 2) * 4)) & 0x0F;
                    *slot = min + f32::from(level) * scale;
                }
                exceptions
            }
        };
        for &(i, raw) in exceptions {
            if let Some(slot) = out.get_mut(i as usize) {
                *slot = raw;
            }
        }
    }
}

/// A lossy vector codec producing a real wire message.
pub trait Compressor: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Encodes `input` into its wire format. Stochastic codecs draw
    /// rounding bits from `stream` (derive it with `Prng::for_cell`
    /// and [`CODEC_SALT`] for the per-`(round, client)` determinism
    /// contract);
    /// deterministic codecs ignore it.
    fn encode(&self, input: &[f32], stream: &mut Prng) -> EncodedDelta;

    /// Encode-then-decode convenience: the lossy vector the receiver
    /// reconstructs. Kept for error measurement and tests — the
    /// simulation pipeline carries the [`EncodedDelta`] itself.
    fn roundtrip(&self, input: &[f32], stream: &mut Prng) -> Vec<f32> {
        self.encode(input, stream).decode()
    }
}

/// Finite-only (min, max) of a slice, folded left to right with
/// `f32::min` / `f32::max`; `(∞, −∞)` when no coordinate is finite.
/// Unlike a plain min/max fold, an `∞` input cannot poison the
/// quantization range — non-finite coordinates travel as escape
/// entries instead.
fn finite_min_max(xs: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &x in xs {
        if x.is_finite() {
            min = min.min(x);
            max = max.max(x);
        }
    }
    (min, max)
}

/// Lanes of the fused range scan: wide enough for one AVX register of
/// `f32`, and a plain array the compiler maps onto SSE pairs too.
const LANES: usize = 8;

/// One fused pass over `xs`: the finite (min, max) of
/// [`finite_min_max`] and whether every coordinate is finite.
///
/// The scan keeps [`LANES`] independent strict-compare accumulators,
/// which the compiler vectorises, and combines them at the end. Any
/// two equal finite values have equal bits except `+0` and `−0`, so
/// the lane split can only change the result's sign of zero; when
/// either extreme is zero the range is re-folded by
/// [`finite_min_max`] itself, which keeps the bits identical to the
/// sequential fold on every target.
fn scan_range(xs: &[f32]) -> (f32, f32, bool) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut finite = [true; LANES];
    let mut fold = |l: usize, x: f32| {
        let ok = x.is_finite();
        finite[l] &= ok;
        lo[l] = if ok && x < lo[l] { x } else { lo[l] };
        hi[l] = if ok && x > hi[l] { x } else { hi[l] };
    };
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &x) in chunk.iter().enumerate() {
            fold(l, x);
        }
    }
    for (l, &x) in chunks.remainder().iter().enumerate() {
        fold(l, x);
    }
    let all_finite = finite.iter().all(|&ok| ok);
    let mut min = lo[0];
    let mut max = hi[0];
    for l in 1..LANES {
        min = if lo[l] < min { lo[l] } else { min };
        max = if hi[l] > max { hi[l] } else { max };
    }
    if min == 0.0 || max == 0.0 {
        (min, max) = finite_min_max(xs);
    }
    (min, max, all_finite)
}

/// The affine grid of a quantizer with `steps` steps over a finite range:
/// `(min, scale)`, or `(0, 0)` when `lo > hi` (no finite coordinate,
/// so every entry is an escape). The step is computed in f64: `hi −
/// lo` can overflow f32 for extreme-range inputs (coords near
/// ±2e38), and an infinite scale would decode every level to NaN.
fn affine_grid(lo: f32, hi: f32, steps: f64) -> (f32, f32) {
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, ((f64::from(hi) - f64::from(lo)) / steps) as f32)
    }
}

/// The escapes of a quantized vector, ascending: every non-finite
/// input, and every finite one whose f32 reconstruction
/// `min + level·scale` overflows (`255·scale` can exceed `f32::MAX` on
/// extreme ranges), so the codec never fabricates a non-finite value.
/// `level_of(i)` reads coordinate `i`'s level; the caller zeroes the
/// escaped levels.
fn escapes(input: &[f32], min: f32, scale: f32, level_of: impl Fn(usize) -> u8) -> Vec<(u32, f32)> {
    input
        .iter()
        .enumerate()
        .filter(|&(i, &x)| !x.is_finite() || !(min + f32::from(level_of(i)) * scale).is_finite())
        .map(|(i, &x)| (i as u32, x))
        .collect()
}

/// `2²³`: adding it to an `f32` in `[0, 2²³)` rounds to an integer,
/// held in the low mantissa bits.
const MAGIC: f32 = 8_388_608.0;

/// The Q8 level of the grid coordinate `v = (x − min) / scale`,
/// rounded half away from zero and clamped to `[0, 255]` — exactly
/// `v.round().clamp(0.0, 255.0) as u8` for every `v` in `[−0, +∞]`,
/// without a libm call or a branch, so the quantize loop vectorises:
///
/// 1. `v ← min(v, 256)`; levels above 255 clamp to 255 either way.
/// 2. `r = (v + 2²³) − 2²³` is `v` rounded half to even (`v + 2²³`
///    lands in `[2²³, 2²⁴)`, where the f32 spacing is 1).
/// 3. `f = r − [r > v]` is `⌊v⌋`.
/// 4. `v − f` is the exact fraction: `f` is an integer with
///    `f ≤ v < f + 1`, so the difference is a multiple of `v`'s ulp
///    below 1. Hence `f + [v − f ≥ 0.5]` rounds half away.
/// 5. `min(·, 255)` clamps, and the integer sits in the low mantissa
///    byte of `level + 2²³`.
///
/// Non-finite `x` (so NaN or `−∞` here) yield an arbitrary byte; the
/// escape pass overwrites it.
fn q8_level(v: f32) -> u8 {
    let v = v.min(256.0);
    let r = (v + MAGIC) - MAGIC;
    let f = r - if r > v { 1.0 } else { 0.0 };
    let level = (f + if v - f >= 0.5 { 1.0 } else { 0.0 }).min(255.0);
    (level + MAGIC).to_bits() as u8
}

/// Keeps the `k` largest-magnitude coordinates (ties broken by index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    /// Fraction of coordinates kept, in `(0, 1]`.
    pub keep_fraction: f64,
}

impl TopK {
    /// Creates a top-k compressor keeping `keep_fraction` of the
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `(0, 1]`.
    pub fn new(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep_fraction must be in (0, 1], got {keep_fraction}"
        );
        TopK { keep_fraction }
    }

    fn k_for(&self, dim: usize) -> usize {
        ((dim as f64 * self.keep_fraction).ceil() as usize).clamp(1, dim.max(1))
    }
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        "top-k"
    }

    fn encode(&self, input: &[f32], _stream: &mut Prng) -> EncodedDelta {
        let dim = input.len();
        if dim == 0 {
            return EncodedDelta::Sparse {
                dim,
                indices: Vec::new(),
                values: Vec::new(),
            };
        }
        let k = self.k_for(dim);
        let mut idx: Vec<u32> = (0..dim as u32).collect();
        // Magnitude-descending with ascending-index tie-break — the
        // exact comparator of the original full sort. total_cmp agrees
        // with partial_cmp on finite values and gives NaN a fixed
        // order (|NaN| sorts above +∞, so NaN coordinates are kept and
        // surface to validation) instead of panicking mid-selection.
        let by_magnitude = |&a: &u32, &b: &u32| {
            input[b as usize]
                .abs()
                .total_cmp(&input[a as usize].abs())
                .then(a.cmp(&b))
        };
        if k < dim {
            // O(d) partial selection: the comparator is a strict total
            // order (ties broken by index), so the first k elements
            // are exactly the old sort's first k — only their internal
            // order differs, and the ascending re-sort below fixes the
            // wire order.
            idx.select_nth_unstable_by(k - 1, by_magnitude);
            idx.truncate(k);
        }
        idx.sort_unstable();
        let values = idx.iter().map(|&i| input[i as usize]).collect();
        EncodedDelta::Sparse {
            dim,
            indices: idx,
            values,
        }
    }
}

/// Per-vector affine 8-bit quantization: finite values are mapped to
/// 256 uniform levels between the vector's finite min and max with
/// round-to-nearest; non-finite values — and finite ones whose f32
/// reconstruction would overflow on extreme-range inputs — travel as
/// raw escape entries (and are billed as such) so server-side
/// validation still sees them and the codec never fabricates a
/// non-finite value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Uniform8Bit;

impl Compressor for Uniform8Bit {
    fn name(&self) -> &'static str {
        "uniform-8bit"
    }

    /// One fused range scan (`scan_range`), one branch-free quantize
    /// loop (`q8_level`, vectorised by the compiler), and — only
    /// when some input is non-finite or the top level's
    /// reconstruction `min + 255·scale` overflows — one escape pass.
    /// The reconstruction is monotone in the level, so the top level
    /// decides whether any level can overflow. A zero `scale`
    /// (constant input) leaves every level 0, which decodes to `min`.
    fn encode(&self, input: &[f32], _stream: &mut Prng) -> EncodedDelta {
        let (lo, hi, all_finite) = scan_range(input);
        let (min, scale) = affine_grid(lo, hi, 255.0);
        let mut levels = vec![0u8; input.len()];
        if scale > 0.0 {
            // `x − min` may overflow to +∞ on extreme ranges; the
            // clamp in `q8_level` maps that to the top level.
            for (level, &x) in levels.iter_mut().zip(input) {
                *level = q8_level((x - min) / scale);
            }
        }
        let exceptions = if all_finite && (min + 255.0 * scale).is_finite() {
            Vec::new()
        } else {
            let exceptions = escapes(input, min, scale, |i| levels[i]);
            for &(i, _) in &exceptions {
                levels[i as usize] = 0;
            }
            exceptions
        };
        EncodedDelta::Q8 {
            min,
            scale,
            levels,
            exceptions,
        }
    }
}

/// Per-vector affine 4-bit quantization with seeded *stochastic*
/// rounding: a coordinate at fractional level `t` rounds up with
/// probability `t − ⌊t⌋`, so `E[decode(x)] = x` — unbiased, which
/// matters at 16 levels where nearest-rounding bias would accumulate
/// across rounds. Rounding bits come from the caller's salted
/// per-`(round, client)` stream, so encodings are bit-reproducible at
/// any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stochastic4Bit;

impl Compressor for Stochastic4Bit {
    fn name(&self) -> &'static str {
        "stochastic-4bit"
    }

    /// The fused range scan of [`Uniform8Bit`], then one rounding
    /// loop. `t = (x − min)/scale` is clamped to `[0, 15]`, so a
    /// truncating cast is its floor.
    fn encode(&self, input: &[f32], stream: &mut Prng) -> EncodedDelta {
        let dim = input.len();
        let (lo, hi, all_finite) = scan_range(input);
        let (min, scale) = affine_grid(lo, hi, 15.0);
        let mut packed = vec![0u8; dim.div_ceil(2)];
        if scale > 0.0 {
            for (i, &x) in input.iter().enumerate() {
                if x.is_finite() {
                    let t = ((x - min) / scale).clamp(0.0, 15.0);
                    let floor = t as u8;
                    // One draw per finite coordinate, in index order —
                    // the stream position is a pure function of the
                    // input, so the encoding is deterministic given
                    // (seed, round, client, input).
                    let up = stream.uniform_f32() < t - f32::from(floor);
                    packed[i / 2] |= (floor + u8::from(up)).min(15) << ((i % 2) * 4);
                }
            }
        }
        let exceptions = if all_finite && (min + 15.0 * scale).is_finite() {
            Vec::new()
        } else {
            let exceptions = escapes(input, min, scale, |i| {
                (packed[i / 2] >> ((i % 2) * 4)) & 0x0F
            });
            for &(i, _) in &exceptions {
                let i = i as usize;
                packed[i / 2] &= !(0x0F << ((i % 2) * 4));
            }
            exceptions
        };
        EncodedDelta::Q4 {
            dim,
            min,
            scale,
            packed,
            exceptions,
        }
    }
}

/// An identity codec (baseline for the trade-off sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoCompression;

impl Compressor for NoCompression {
    fn name(&self) -> &'static str {
        "none"
    }

    fn encode(&self, input: &[f32], _stream: &mut Prng) -> EncodedDelta {
        EncodedDelta::Dense(input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::{ops, Prng, Tensor};

    /// Relative compression error `‖x − C(x)‖ / ‖x‖` (0 for a zero
    /// input), measured with a fixed rounding stream.
    fn relative_error(compressor: &dyn Compressor, input: &[f32]) -> f64 {
        let norm = ops::norm(input) as f64;
        if norm < 1e-12 {
            return 0.0;
        }
        let out = compressor.roundtrip(input, &mut Prng::for_cell(CODEC_SALT, 0, 0));
        let err = ops::norm(&ops::sub(input, &out)) as f64;
        err / norm
    }

    fn stream() -> Prng {
        Prng::for_cell(7 ^ CODEC_SALT, 0, 0)
    }

    fn rt(c: &dyn Compressor, input: &[f32]) -> Vec<f32> {
        c.roundtrip(input, &mut stream())
    }

    /// The pre-partial-selection TopK implementation, frozen verbatim
    /// as the differential reference: full `O(d log d)` sort by
    /// magnitude with the ascending-index tie-break.
    fn top_k_sort_reference(input: &[f32], k: usize) -> Vec<f32> {
        let mut idx: Vec<usize> = (0..input.len()).collect();
        idx.sort_by(|&a, &b| input[b].abs().total_cmp(&input[a].abs()).then(a.cmp(&b)));
        let mut out = vec![0.0f32; input.len()];
        for &i in &idx[..k] {
            out[i] = input[i];
        }
        out
    }

    /// The scalar `Uniform8Bit::encode` that preceded the fused scan
    /// and the branch-free rounding, frozen verbatim as the
    /// differential reference.
    fn q8_reference(input: &[f32]) -> EncodedDelta {
        let (lo, hi) = finite_min_max(input);
        let (min, scale) = if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, ((f64::from(hi) - f64::from(lo)) / 255.0) as f32)
        };
        let mut levels = Vec::with_capacity(input.len());
        let mut exceptions = Vec::new();
        for (i, &x) in input.iter().enumerate() {
            let mut level = 0u8;
            if x.is_finite() && scale > 0.0 {
                level = ((x - min) / scale).round().clamp(0.0, 255.0) as u8;
            }
            if !x.is_finite() || !(min + f32::from(level) * scale).is_finite() {
                exceptions.push((i as u32, x));
                level = 0;
            }
            levels.push(level);
        }
        EncodedDelta::Q8 {
            min,
            scale,
            levels,
            exceptions,
        }
    }

    /// The scalar `Stochastic4Bit::encode` that preceded the fused
    /// scan and the truncating floor, frozen verbatim as the
    /// differential reference.
    fn q4_reference(input: &[f32], stream: &mut Prng) -> EncodedDelta {
        let dim = input.len();
        let (lo, hi) = finite_min_max(input);
        let (min, scale) = if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, ((f64::from(hi) - f64::from(lo)) / 15.0) as f32)
        };
        let mut packed = vec![0u8; dim.div_ceil(2)];
        let mut exceptions = Vec::new();
        for (i, &x) in input.iter().enumerate() {
            let mut level = 0u8;
            if x.is_finite() && scale > 0.0 {
                let t = ((x - min) / scale).clamp(0.0, 15.0);
                let floor = t.floor();
                let up = stream.uniform_f32() < t - floor;
                level = (floor as u8 + u8::from(up)).min(15);
            }
            if !x.is_finite() || !(min + f32::from(level) * scale).is_finite() {
                exceptions.push((i as u32, x));
                level = 0;
            }
            packed[i / 2] |= level << ((i % 2) * 4);
        }
        EncodedDelta::Q4 {
            dim,
            min,
            scale,
            packed,
            exceptions,
        }
    }

    /// Bit-level view of a quantized encoding: `min` and `scale` as
    /// bits, the level bytes, and the escapes with raw value bits —
    /// `PartialEq` on the floats would equate `±0` and reject `NaN`.
    fn quantized_bits(enc: &EncodedDelta) -> (usize, u32, u32, Vec<u8>, Vec<(u32, u32)>) {
        let bits = |exceptions: &[(u32, f32)]| {
            exceptions
                .iter()
                .map(|&(i, x)| (i, x.to_bits()))
                .collect::<Vec<_>>()
        };
        match enc {
            EncodedDelta::Q8 {
                min,
                scale,
                levels,
                exceptions,
            } => (
                levels.len(),
                min.to_bits(),
                scale.to_bits(),
                levels.clone(),
                bits(exceptions),
            ),
            EncodedDelta::Q4 {
                dim,
                min,
                scale,
                packed,
                exceptions,
            } => (
                *dim,
                min.to_bits(),
                scale.to_bits(),
                packed.clone(),
                bits(exceptions),
            ),
            other => panic!("not a quantized encoding: {other:?}"),
        }
    }

    /// Inputs where a rounding, range or escape shortcut could part
    /// from the scalar references.
    fn quantizer_edge_cases() -> Vec<Vec<f32>> {
        let mut rng = Prng::seed_from_u64(0x0DD5);
        let mut cases: Vec<Vec<f32>> = Vec::new();
        let mut random_magnitudes = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    // Log-uniform magnitude in [1e-30, 1e30], random sign.
                    let mag = 10f64.powf(rng.uniform_f64() * 60.0 - 30.0) as f32;
                    if rng.below(2) == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect()
        };
        // Lengths off the 8- and 16-wide chunk grid.
        for len in [1, 2, 7, 9, 15, 16, 17, 31, 33, 255, 1003] {
            cases.push(random_magnitudes(len));
        }
        // Exact half levels and the f32 just below each, on a unit grid
        // (min 0, max 255) and on a fractional one (min −1, max 1).
        for (lo, hi) in [(0.0f32, 255.0f32), (-1.0, 1.0)] {
            let step = (hi - lo) / 255.0;
            let mut halves = vec![lo, hi];
            for k in 0..255 {
                let half = lo + (k as f32 + 0.5) * step;
                halves.push(half);
                halves.push(half.next_down());
                halves.push(lo + (k as f32 + 0.499_999_97) * step);
            }
            cases.push(halves);
        }
        // A ±0 minimum (or maximum), with the two zeros in different
        // scan lanes and in both orders.
        for (first, second) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
            let mut pos = vec![3.0f32; 40];
            pos[2] = first;
            pos[9] = second;
            pos[30] = second;
            cases.push(pos.clone());
            cases.push(pos.iter().map(|&x| if x == 0.0 { x } else { -x }).collect());
            let mut zeros = vec![first; 19];
            zeros[11] = second;
            cases.push(zeros);
        }
        // Subnormal and vanishing scales.
        cases.push(vec![
            0.0, 1e-40, 5e-41, 2e-40, 0.0, 1e-40, 3e-41, 7e-41, 1e-45,
        ]);
        cases.push(vec![1e-45, 3e-45, 2e-45, 1e-45, 3e-45]);
        cases.push(vec![-1e-39, 1e-39, 0.5e-39, -0.25e-39, 0.0, 1e-39]);
        cases.push(vec![1.0, f32::from_bits(1.0f32.to_bits() + 1), 1.0]);
        // ±3e38 extremes: `x − min` and the top level overflow f32.
        cases.push(vec![
            3e38, -3e38, 0.0, 1.0, -2.5e38, 2.9e38, 1e38, -1e-3, 7.0,
        ]);
        cases.push(vec![f32::MAX, f32::MIN, 0.0, 1.0e38, -2.0e38]);
        cases.push(vec![f32::MAX, 0.0, 1.0, 3e38]);
        // NaN / ±∞ escapes, alone and among finite values.
        let mut poisoned = random_magnitudes(37);
        poisoned[0] = f32::NAN;
        poisoned[8] = f32::INFINITY;
        poisoned[21] = f32::NEG_INFINITY;
        poisoned[36] = -f32::NAN;
        cases.push(poisoned);
        cases.push(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        cases.push(vec![f32::NEG_INFINITY, 2.0, f32::INFINITY, 2.0, 2.0]);
        // Delta-like Gaussian vectors, the codec's everyday input.
        for std in [1e-3, 1.0] {
            cases.push(Tensor::randn([4099], std, &mut rng).into_vec());
        }
        // Constant and empty vectors.
        cases.push(vec![0.7; 13]);
        cases.push(vec![-0.0; 8]);
        cases.push(Vec::new());
        cases
    }

    #[test]
    fn q8_matches_the_frozen_scalar_encoder_bit_for_bit() {
        for input in quantizer_edge_cases() {
            let got = Uniform8Bit.encode(&input, &mut stream());
            assert_eq!(
                quantized_bits(&got),
                quantized_bits(&q8_reference(&input)),
                "{input:?}"
            );
        }
    }

    #[test]
    fn q4_matches_the_frozen_scalar_encoder_bit_for_bit() {
        for input in quantizer_edge_cases() {
            let (mut got_stream, mut want_stream) = (stream(), stream());
            let got = Stochastic4Bit.encode(&input, &mut got_stream);
            let want = q4_reference(&input, &mut want_stream);
            assert_eq!(quantized_bits(&got), quantized_bits(&want), "{input:?}");
            // Same number of draws: one per finite coordinate.
            assert_eq!(got_stream, want_stream, "{input:?}");
        }
    }

    #[test]
    fn topk_keeps_largest() {
        let c = TopK::new(0.5);
        let out = rt(&c, &[0.1, -5.0, 0.2, 3.0]);
        assert_eq!(out, vec![0.0, -5.0, 0.0, 3.0]);
    }

    #[test]
    fn topk_partial_selection_matches_full_sort_on_adversarial_inputs() {
        // Ties, duplicates, signed duplicates, NaNs, infinities, zeros
        // — every input where a sloppy comparator or an unstable
        // selection could diverge from the frozen sort reference.
        let mut rng = Prng::seed_from_u64(99);
        let mut cases: Vec<Vec<f32>> = vec![
            vec![1.0; 64],
            vec![-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0],
            vec![0.0; 17],
            vec![2.0, -2.0, 2.0, -2.0, 0.5, 0.5, 0.5, 3.0],
            vec![f32::NAN, 1.0, -2.0, f32::NAN, 0.0, 5.0],
            vec![f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0, f32::NAN],
            vec![-0.0, 0.0, 1.0, -1.0],
        ];
        for _ in 0..8 {
            // Random vectors with heavy duplication (quantized draws).
            cases.push(
                (0..129)
                    .map(|_| (rng.below(7) as f32 - 3.0) * 0.5)
                    .collect(),
            );
        }
        for input in &cases {
            for frac in [0.01, 0.25, 0.5, 1.0] {
                let c = TopK::new(frac);
                let got = rt(&c, input);
                let want = top_k_sort_reference(input, c.k_for(input.len()));
                assert_eq!(got.len(), want.len());
                for (i, (p, q)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "frac {frac} dim {i}: {p} vs {q} for {input:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_is_contraction() {
        let mut rng = Prng::seed_from_u64(1);
        let x = Tensor::randn([257], 1.0, &mut rng).into_vec();
        for frac in [0.01, 0.1, 0.5, 1.0] {
            let c = TopK::new(frac);
            let err = relative_error(&c, &x);
            let bound = (1.0 - frac).sqrt() + 0.1;
            assert!(err <= bound, "frac {frac}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn topk_full_fraction_is_identity() {
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(rt(&TopK::new(1.0), &x), x);
        // dim/nnz header + 3 × (idx, value).
        assert_eq!(TopK::new(1.0).encode(&x, &mut stream()).wire_bytes(), 32);
    }

    #[test]
    fn sparse_encode_decode_is_identity_on_kept_coordinates() {
        let mut rng = Prng::seed_from_u64(21);
        let x = Tensor::randn([301], 1.0, &mut rng).into_vec();
        let enc = TopK::new(0.2).encode(&x, &mut stream());
        assert!(enc.check_integrity());
        let EncodedDelta::Sparse {
            dim,
            indices,
            values,
        } = &enc
        else {
            panic!("top-k must encode sparse");
        };
        assert_eq!(*dim, x.len());
        let decoded = enc.decode();
        for (&i, &v) in indices.iter().zip(values) {
            assert_eq!(v.to_bits(), x[i as usize].to_bits(), "kept value altered");
            assert_eq!(decoded[i as usize].to_bits(), v.to_bits());
        }
        let kept: std::collections::BTreeSet<u32> = indices.iter().copied().collect();
        for (i, &d) in decoded.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                assert_eq!(d, 0.0, "dropped coordinate {i} not zero");
            }
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let mut rng = Prng::seed_from_u64(2);
        let x = Tensor::randn([1000], 2.0, &mut rng).into_vec();
        let out = rt(&Uniform8Bit, &x);
        let (min, max) = finite_min_max(&x);
        let half_step = (max - min) / 255.0 / 2.0;
        for (a, b) in x.iter().zip(&out) {
            assert!((a - b).abs() <= half_step * 1.001, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_of_constant_vector_is_exact() {
        let x = vec![0.7; 16];
        assert_eq!(rt(&Uniform8Bit, &x), x);
    }

    /// Regression for the non-finite passthrough bug: the old
    /// `roundtrip` returned the input *verbatim* whenever `max − min`
    /// was non-finite, so an `∞`-carrying delta sailed through the
    /// "256-level" codec losslessly while `payload_bytes` still billed
    /// quantized bytes. Now the finite coordinates must actually be
    /// quantized, the non-finite ones must survive to validation, and
    /// the wire accounting must bill the escapes.
    #[test]
    fn non_finite_coordinates_are_escaped_not_passed_through() {
        let mut x = vec![0.0f32; 64];
        for (i, v) in x.iter_mut().enumerate() {
            *v = (i as f32) * 0.1 - 3.0;
        }
        x[5] = f32::NAN;
        x[41] = f32::INFINITY;
        for codec in [&Uniform8Bit as &dyn Compressor, &Stochastic4Bit] {
            let enc = codec.encode(&x, &mut stream());
            assert!(enc.check_integrity(), "{}", codec.name());
            let out = enc.decode();
            // The non-finite coordinates surface to validation...
            assert!(out[5].is_nan(), "{}: NaN swallowed", codec.name());
            assert_eq!(out[41], f32::INFINITY, "{}: ∞ swallowed", codec.name());
            assert!(!ops::all_finite(&out), "{}", codec.name());
            // ...the finite ones went through the quantizer (verbatim
            // passthrough would reproduce them exactly; with at most
            // 256 levels over this range at least one must move)...
            let moved = x
                .iter()
                .zip(&out)
                .filter(|(a, _)| a.is_finite())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert!(
                moved,
                "{}: finite coords passed through verbatim",
                codec.name()
            );
            // ...and the escapes are billed at 8 bytes each on top of
            // the level bytes.
            let base = match codec.name() {
                "uniform-8bit" => 12 + x.len(),
                _ => 16 + x.len().div_ceil(2),
            };
            assert_eq!(enc.wire_bytes(), base + 2 * 8, "{}", codec.name());
        }
    }

    #[test]
    fn all_non_finite_vector_is_all_escapes() {
        let x = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let enc = Uniform8Bit.encode(&x, &mut stream());
        let out = enc.decode();
        assert!(out[0].is_nan());
        assert_eq!(out[1], f32::INFINITY);
        assert_eq!(out[2], f32::NEG_INFINITY);
        assert_eq!(enc.wire_bytes(), 12 + 3 + 3 * 8);
    }

    #[test]
    fn stochastic_quantization_is_deterministic_per_stream_cell() {
        let mut rng = Prng::seed_from_u64(4);
        let x = Tensor::randn([777], 1.0, &mut rng).into_vec();
        let a = Stochastic4Bit.encode(&x, &mut Prng::for_cell(42 ^ CODEC_SALT, 3, 5));
        let b = Stochastic4Bit.encode(&x, &mut Prng::for_cell(42 ^ CODEC_SALT, 3, 5));
        assert_eq!(
            a, b,
            "same (seed, round, client) must re-encode identically"
        );
        let other = Stochastic4Bit.encode(&x, &mut Prng::for_cell(42 ^ CODEC_SALT, 3, 6));
        assert_ne!(a, other, "different clients must draw different rounding");
    }

    #[test]
    fn stochastic_rounding_is_unbiased_within_a_level_step() {
        // Two fixed endpoints pin the quantization grid to [0, 15.3];
        // the probes sit 30% of the way between levels 4 and 5, so
        // they must round up ~30% of the time, and the error never
        // exceeds one full step. (The endpoints themselves land on
        // exact levels and are excluded from the round-up count.)
        let step = 15.3f32 / 15.0;
        let probe = 4.3f32 * step;
        let mut x = vec![0.0f32, 15.3];
        x.extend(std::iter::repeat_n(probe, 2000));
        let enc = Stochastic4Bit.encode(&x, &mut stream());
        let out = enc.decode();
        let mut ups = 0usize;
        for (i, (a, b)) in x.iter().zip(&out).enumerate() {
            assert!((a - b).abs() <= step * 1.001, "{a} vs {b}");
            if i >= 2 && *b > *a {
                ups += 1;
            }
        }
        let frac = ups as f64 / 2000.0;
        assert!(
            (0.2..0.4).contains(&frac),
            "round-up fraction {frac} far from the 0.3 target"
        );
    }

    #[test]
    fn extreme_range_inputs_never_fabricate_non_finite_values() {
        // `hi - lo` overflows f32 here: the quantization step must be
        // computed in f64 (an infinite scale decodes every level to
        // NaN), and any level whose f32 reconstruction still
        // overflows must ride as an escape.
        let x = vec![f32::MAX, f32::MIN, 0.0, 1.0e38, -2.0e38];
        for c in [&Uniform8Bit as &dyn Compressor, &Stochastic4Bit] {
            let enc = c.encode(&x, &mut stream());
            assert!(enc.check_integrity(), "{}", c.name());
            let out = enc.decode();
            assert!(
                out.iter().all(|v| v.is_finite()),
                "{}: non-finite decode from finite input: {out:?}",
                c.name()
            );
            // The escape fallback reproduces the overflowing
            // endpoint exactly, and billing reflects it.
            assert_eq!(out[0], f32::MAX, "{}", c.name());
            let escapes = match &enc {
                EncodedDelta::Q8 { exceptions, .. } | EncodedDelta::Q4 { exceptions, .. } => {
                    exceptions.len()
                }
                _ => unreachable!(),
            };
            assert!(escapes >= 1, "{}", c.name());
        }
    }

    #[test]
    fn wire_sizes_are_ordered() {
        let mut rng = Prng::seed_from_u64(6);
        let x = Tensor::randn([10_000], 1.0, &mut rng).into_vec();
        let bytes = |c: &dyn Compressor| c.encode(&x, &mut stream()).wire_bytes();
        assert!(bytes(&TopK::new(0.01)) < bytes(&Stochastic4Bit));
        assert!(bytes(&Stochastic4Bit) < bytes(&Uniform8Bit));
        assert!(bytes(&Uniform8Bit) < bytes(&NoCompression));
        assert_eq!(bytes(&NoCompression), 40_000);
    }

    #[test]
    fn no_compression_is_lossless() {
        let mut rng = Prng::seed_from_u64(3);
        let x = Tensor::randn([64], 1.0, &mut rng).into_vec();
        assert_eq!(rt(&NoCompression, &x), x);
        assert_eq!(relative_error(&NoCompression, &x), 0.0);
    }

    #[test]
    fn decode_into_overwrites_a_used_buffer_with_the_decoded_bits() {
        let mut rng = Prng::seed_from_u64(31);
        let mut x = Tensor::randn([301], 1.0, &mut rng).into_vec();
        x[7] = f32::NAN;
        x[200] = f32::NEG_INFINITY;
        for c in [
            &TopK::new(0.1) as &dyn Compressor,
            &Uniform8Bit,
            &Stochastic4Bit,
            &NoCompression,
        ] {
            let enc = c.encode(&x, &mut stream());
            let want: Vec<u32> = enc.decode().iter().map(|v| v.to_bits()).collect();
            let mut out = vec![3.5f32; x.len()];
            enc.decode_into(&mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{}", c.name());
        }
    }

    #[test]
    fn empty_inputs_are_safe() {
        for c in [
            &TopK::new(0.5) as &dyn Compressor,
            &Uniform8Bit,
            &Stochastic4Bit,
            &NoCompression,
        ] {
            let enc = c.encode(&[], &mut stream());
            assert_eq!(enc.dim(), 0, "{}", c.name());
            assert!(enc.decode().is_empty(), "{}", c.name());
            assert!(enc.check_integrity(), "{}", c.name());
        }
    }

    #[test]
    fn topk_preserves_direction() {
        let mut rng = Prng::seed_from_u64(4);
        let x = Tensor::randn([512], 1.0, &mut rng).into_vec();
        let out = rt(&TopK::new(0.2), &x);
        assert!(ops::cosine_similarity(&x, &out) > 0.5);
    }

    #[test]
    fn integrity_check_rejects_malformed_messages() {
        let good = EncodedDelta::Sparse {
            dim: 10,
            indices: vec![1, 4, 7],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!(good.check_integrity());
        let out_of_range = EncodedDelta::Sparse {
            dim: 10,
            indices: vec![1, 4, 10],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!(!out_of_range.check_integrity());
        let unsorted = EncodedDelta::Sparse {
            dim: 10,
            indices: vec![4, 1, 7],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!(!unsorted.check_integrity());
        let ragged = EncodedDelta::Sparse {
            dim: 10,
            indices: vec![1, 4],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!(!ragged.check_integrity());
        let truncated_q4 = EncodedDelta::Q4 {
            dim: 9,
            min: 0.0,
            scale: 1.0,
            packed: vec![0; 4],
            exceptions: Vec::new(),
        };
        assert!(!truncated_q4.check_integrity());
        // Decode stays panic-free on all of them.
        for bad in [&out_of_range, &unsorted, &truncated_q4] {
            let _ = bad.decode();
        }
    }
}
