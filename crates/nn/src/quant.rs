//! Quantization: the offline fixed-point study *and* the deterministic
//! int8 serving datapath.
//!
//! Table VIII assumes the deployed controller stores weights as 16-bit
//! fixed point; the paper leaves "optimization of ReSemble hardware
//! implementation" as future work. The [`QuantSpec`] half of this module
//! provides the tooling for that study: quantize a trained network to
//! n-bit fixed point (symmetric, per-tensor scale) and measure the
//! accuracy the datapath would actually see (`ext_quantization` in the
//! harness runs the end-to-end sweep).
//!
//! The [`QuantizedMlp`] half promotes the same rules to a real int8
//! *inference* datapath for frozen serving models. Every step is fully
//! specified so results are bit-identical across kernel backends and
//! across reruns:
//!
//! - **Per-row symmetric scales.** Each weight row (one output neuron)
//!   and each activation row (one sample) gets `scale = max_abs / 127`
//!   (`1.0` for an all-zero row); values quantize to `[-127, 127]`,
//!   never `-128`, so negation stays in range.
//! - **Round half away from zero, via one reciprocal multiply.** The
//!   serving quantizer computes `inv = 1.0 / scale` once per row and
//!   every element as `clamp(round_half_away(v · inv), -127, 127)` —
//!   one pinned IEEE multiply per element instead of a division, which
//!   is what lets the quantize step vectorize
//!   (`crate::simd::quantize_i8`). If `inv` overflows to infinity (a
//!   subnormal scale), the row falls back to all-zero codes with scale
//!   `1.0` — the same rule an all-zero row gets. [`round_half_away`] —
//!   exactly `f32::round` — stays the single tie-breaking rule, shared
//!   with the offline [`QuantSpec::quantize`] (which keeps its historic
//!   division form; the two paths share the *rounding* rule, not the
//!   scaling expression).
//! - **Exact i32 accumulation.** Both int8 GEMM forms
//!   (`crate::simd::gemm_i8_i32` for deep layers,
//!   `crate::simd::gemm_i8p_lanes` for small-fan-in/wide layers)
//!   accumulate in i32, where every partial sum is exact, so *any*
//!   summation order gives identical bytes — the backends need not
//!   mirror the scalar loop order the way the float kernels must.
//! - **Shared non-dispatched dequant.** [`dequantize_acc`] fixes the
//!   expression order `acc·(sx·sw) + bias`; it and the activation run in
//!   plain scalar Rust regardless of backend.
//! - **Finite inputs.** The elementwise kernels promise cross-backend
//!   byte-identity for finite activations only (scalar saturating casts
//!   and vector `cvttps2dq` disagree on NaN/±inf); frozen serving
//!   models produce finite activations by construction.
//!
//! `crates/nn/tests/int8_sweep.rs` pins the cross-backend byte-equality;
//! DESIGN.md documents the scheme.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::simd;

/// The single rounding rule every quantizer in this module uses:
/// round-to-nearest with ties away from zero — exactly [`f32::round`],
/// wrapped under its numeric name so call sites document the choice and
/// all paths (offline [`QuantSpec`], int8 serving) share one rule.
#[inline]
pub fn round_half_away(v: f32) -> f32 {
    v.round()
}

/// The symmetric int8 range bound: quantized values live in
/// `[-127, 127]` (never `-128`), so `q` and `-q` are both representable
/// and scales divide by exactly 127.
pub const QMAX_I8: f32 = 127.0;

/// Per-row symmetric scale covering `max_abs` with the `[-127, 127]`
/// range; an all-zero row (`max_abs == 0`, including non-finite-free
/// degenerate inputs) gets scale `1.0` so dequantization stays finite.
#[inline]
pub fn fit_scale_i8(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / QMAX_I8
    } else {
        1.0
    }
}

/// Quantize `src` into `dst` with one shared symmetric scale:
/// `q = clamp(round_half_away(v · inv), -127, 127)` with
/// `inv = 1.0 / scale` computed once per row. Returns the scale.
///
/// Every operation is pinned — the single reciprocal, the per-element
/// multiply, the truncate-plus-fraction-compare rounding inside
/// `simd::quantize_i8`, clamp before the cast — so the bytes
/// are identical on every backend and every rerun (for finite inputs;
/// see the module docs). A subnormal scale whose reciprocal overflows
/// yields all-zero codes with scale `1.0`.
pub fn quantize_row_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    quantize_row_i8_be(simd::active(), src, dst)
}

/// [`quantize_row_i8`] with an explicit backend — the form the
/// [`QuantizedMlp`] forward pass uses so one `simd::active()` read per
/// call covers every row.
pub(crate) fn quantize_row_i8_be(be: simd::KernelBackend, src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row_i8: length mismatch");
    let scale = fit_scale_i8(simd::max_abs_f32(be, src));
    let inv = 1.0 / scale;
    if !inv.is_finite() {
        dst.fill(0);
        return 1.0;
    }
    simd::quantize_i8(be, src, dst, inv);
    scale
}

/// Dequantize one int8-GEMM output element with the fixed expression
/// order `acc · (sx · sw) + bias`: the two scales multiply first, then
/// scale the exact i32 accumulator, then the f32 bias adds — three IEEE
/// roundings in a pinned sequence, identical everywhere.
#[inline]
pub fn dequantize_acc(acc: i32, sx: f32, sw: f32, bias: f32) -> f32 {
    acc as f32 * (sx * sw) + bias
}

/// `dst[r][c] = dequantize_acc(acc[r][c], x_scales[r], w_scales[c],
/// bias[c])` over a `batch × fan_out` block — the shared non-dispatched
/// epilogue of every quantized layer. `acc_stride` is the accumulator's
/// row stride: `fan_out` for the dot-form GEMM, the lane-padded width
/// for the pair-interleaved form (padding columns are skipped).
fn dequantize_rows(
    dst: &mut [f32],
    acc: &[i32],
    acc_stride: usize,
    x_scales: &[f32],
    w_scales: &[f32],
    bias: &[f32],
) {
    let fan_out = w_scales.len();
    for ((drow, arow), &sx) in dst
        .chunks_exact_mut(fan_out)
        .zip(acc.chunks_exact(acc_stride))
        .zip(x_scales)
    {
        for ((d, &a), (&sw, &b)) in drow.iter_mut().zip(arow).zip(w_scales.iter().zip(bias)) {
            *d = dequantize_acc(a, sx, sw, b);
        }
    }
}

/// Layers with `fan_in <= LANES_MAX_FAN_IN` and
/// `fan_out >= LANES_MIN_FAN_OUT` get a second, pair-interleaved weight
/// copy for [`simd::gemm_i8p_lanes`]: with a tiny fan-in the dot-product
/// GEMM runs entirely in its scalar tail, while the lanes form
/// vectorizes across the wide fan-out the way the f32 `matvec_lanes`
/// kernel does. Both forms are exact in i32, so which one runs never
/// changes a byte — only how fast it is produced.
const LANES_MAX_FAN_IN: usize = 64;
/// See [`LANES_MAX_FAN_IN`].
const LANES_MIN_FAN_OUT: usize = 16;

/// The widest int8 pair-lanes vector body across backends — AVX-512's
/// 16 outputs per iteration (AVX2: 8). The interleaved layout pads
/// `fan_out` up to a multiple of this with zero weights so
/// *every* tier's vector body covers the whole output row and no
/// backend falls into the scalar lanes tail. Zero weights contribute
/// exact zeros to the i32 accumulator, so the padding never changes a
/// real output byte on any backend; the padded accumulator columns are
/// skipped by the dequantize epilogue.
const LANES_PAD_TO: usize = 16;

/// Batch-tile height for [`QuantizedMlp::forward_into`]: at 32 rows a
/// 1024-wide hidden layer's tile scratch (f32 stage, i32 accumulator,
/// i8 codes) totals ~300 KiB — inside L2 on every x86-64 serving target
/// — where a monolithic pass over a few hundred pooled rows streams
/// multi-megabyte intermediates through last-level cache five times per
/// forward. Purely a blocking factor: rows are independent, so the tile
/// walk is byte-identical to a single pass at any value.
const TILE_ROWS: usize = 32;

/// One dense layer with int8 weights: `fan_out × fan_in` row-major
/// (each row is one output neuron, quantized with its own scale).
/// `wt_lanes` is the optional pair-interleaved copy (layout
/// `wt[(p·lanes_out + r)·2 + {0,1}] = qw[r][2p + {0,1}]`, odd fan-in
/// tail zero-padded) for the small-fan-in fast path; `lanes_out` is
/// `fan_out` rounded up to [`LANES_PAD_TO`] (the interleaved row
/// stride; the padding rows hold zero weights).
#[derive(Debug, Clone)]
struct QuantLayer {
    qw: Vec<i8>,
    wt_lanes: Option<Vec<i16>>,
    lanes_out: usize,
    w_scales: Vec<f32>,
    bias: Vec<f32>,
    act: Activation,
    fan_in: usize,
    fan_out: usize,
}

/// Build the pair-interleaved i16 weight copy from row-major int8
/// weights (see [`QuantLayer::wt_lanes`]); `lanes_out` is the padded
/// output stride, `>= fan_out` (the row count `qw.len() / fan_in`).
fn interleave_weight_pairs(qw: &[i8], fan_in: usize, lanes_out: usize) -> Vec<i16> {
    let pairs = fan_in.div_ceil(2);
    let mut wt = vec![0i16; pairs * lanes_out * 2];
    for (r, row) in qw.chunks_exact(fan_in).enumerate() {
        for p in 0..pairs {
            wt[(p * lanes_out + r) * 2] = i16::from(row[2 * p]);
            if let Some(&w1) = row.get(2 * p + 1) {
                wt[(p * lanes_out + r) * 2 + 1] = i16::from(w1);
            }
        }
    }
    wt
}

/// Forward-only int8 copy of a trained [`Mlp`] for frozen serving:
/// per-row symmetric int8 weights, dynamic per-sample activation
/// quantization, exact i32 GEMM accumulation, f32 bias/activation — see
/// the module docs for the full determinism argument.
///
/// Owns its scratch buffers, so a steady-state `forward_into` allocates
/// nothing; a serve session whose copy forwards a pooled window gets the
/// same no-allocation property the f32 `BatchScratch` path has.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    layers: Vec<QuantLayer>,
    sizes: Vec<usize>,
    qx: Vec<i8>,
    xpairs: Vec<i32>,
    x_scales: Vec<f32>,
    acc: Vec<i32>,
    stage: Vec<f32>,
    stage_out: Vec<f32>,
}

impl QuantizedMlp {
    /// Quantize a trained network's weights (per-row symmetric int8);
    /// biases stay f32. The source network is unchanged.
    pub fn from_mlp(net: &Mlp) -> Self {
        let sizes = net.sizes().to_vec();
        assert!(sizes.len() >= 2, "QuantizedMlp needs at least one layer");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "QuantizedMlp layer sizes must be nonzero"
        );
        let params = net.flat_params();
        let hidden_act = net.hidden_activation();
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut off = 0usize;
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let w = &params[off..off + fan_in * fan_out];
            off += fan_in * fan_out;
            let bias = params[off..off + fan_out].to_vec();
            off += fan_out;
            let mut qw = vec![0i8; fan_in * fan_out];
            let mut w_scales = vec![0.0f32; fan_out];
            for ((qrow, srow), sc) in qw
                .chunks_exact_mut(fan_in)
                .zip(w.chunks_exact(fan_in))
                .zip(w_scales.iter_mut())
            {
                *sc = quantize_row_i8(srow, qrow);
            }
            // Mirror `Mlp::new`: hidden layers share the hidden
            // activation, the output layer is identity.
            let act = if l == sizes.len() - 2 {
                Activation::Identity
            } else {
                hidden_act
            };
            let lanes_out = fan_out.div_ceil(LANES_PAD_TO) * LANES_PAD_TO;
            let wt_lanes = (fan_in <= LANES_MAX_FAN_IN && fan_out >= LANES_MIN_FAN_OUT)
                .then(|| interleave_weight_pairs(&qw, fan_in, lanes_out));
            layers.push(QuantLayer {
                qw,
                wt_lanes,
                lanes_out,
                w_scales,
                bias,
                act,
                fan_in,
                fan_out,
            });
        }
        assert_eq!(off, params.len(), "flat parameter layout mismatch");
        Self {
            layers,
            sizes,
            qx: Vec::new(),
            xpairs: Vec::new(),
            x_scales: Vec::new(),
            acc: Vec::new(),
            stage: Vec::new(),
            stage_out: Vec::new(),
        }
    }

    /// Layer sizes, input to output (same as [`Mlp::sizes`]).
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.sizes[self.sizes.len() - 1]
    }

    /// Batched forward pass: `out` is resized to
    /// `xs.rows() × output_dim` and overwritten. Each layer quantizes its
    /// input rows on the fly (dynamic activation quantization), runs the
    /// dispatched exact-i32 GEMM — the pair-interleaved lanes form when
    /// the layer carries `wt_lanes`, the dot form otherwise; both produce
    /// identical bytes — then dequantizes, adds bias, and applies the
    /// activation in shared scalar code — byte-identical output on every
    /// backend.
    pub fn forward_into(&mut self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols(), self.input_dim(), "forward_into: input dim");
        let batch = xs.rows();
        let (in_dim, out_dim) = (self.input_dim(), self.output_dim());
        out.resize(batch, out_dim);
        if batch == 0 {
            return;
        }
        let be = simd::active();
        // Scratch buffers only ever grow (to the largest layer's needs)
        // and are addressed through per-layer slices below: shrinking
        // between layers would re-zero megabytes per call on wide models.
        // `lanes_out >= fan_out`, so sizing by it also covers the
        // pair-lanes form's padded accumulator rows.
        let max_fan = self.layers.iter().map(|l| l.fan_in.max(l.lanes_out));
        let max_fan = max_fan.max().unwrap_or(0);
        grow(&mut self.qx, TILE_ROWS * max_fan, 0);
        grow(&mut self.acc, TILE_ROWS * max_fan, 0);
        grow(&mut self.stage, TILE_ROWS * max_fan, 0.0);
        grow(&mut self.stage_out, TILE_ROWS * max_fan, 0.0);
        self.x_scales.resize(TILE_ROWS, 0.0);
        // Rows are independent, so walking the batch in cache-sized
        // tiles computes the exact same per-row operation sequence as
        // one monolithic pass — identical bytes, but the intermediate
        // activations of a wide hidden layer stay resident instead of
        // streaming through last-level cache once per stage.
        for (xt, ot) in xs
            .as_slice()
            .chunks(TILE_ROWS * in_dim)
            .zip(out.as_mut_slice().chunks_mut(TILE_ROWS * out_dim))
        {
            self.forward_tile(be, xt.len() / in_dim, xt, ot);
        }
    }

    /// One batch tile of [`Self::forward_into`]: `rows` samples from
    /// `xs_tile` (row-major) through every layer into `out_tile`.
    fn forward_tile(
        &mut self,
        be: simd::KernelBackend,
        rows: usize,
        xs_tile: &[f32],
        out_tile: &mut [f32],
    ) {
        let n_layers = self.layers.len();
        self.stage[..rows * self.sizes[0]].copy_from_slice(xs_tile);
        for (l, layer) in self.layers.iter().enumerate() {
            let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
            let qx = &mut self.qx[..rows * fan_in];
            for ((srow, qrow), sc) in self.stage[..rows * fan_in]
                .chunks_exact(fan_in)
                .zip(qx.chunks_exact_mut(fan_in))
                .zip(self.x_scales.iter_mut())
            {
                *sc = quantize_row_i8_be(be, srow, qrow);
            }
            // The pair-lanes form runs at the padded stride so every
            // backend's vector body covers the whole row (see
            // [`LANES_PAD_TO`]); the dot form is unpadded.
            let acc_stride = if layer.wt_lanes.is_some() {
                layer.lanes_out
            } else {
                fan_out
            };
            let acc = &mut self.acc[..rows * acc_stride];
            if let Some(wt) = layer.wt_lanes.as_deref() {
                for (qrow, arow) in qx
                    .chunks_exact(fan_in)
                    .zip(acc.chunks_exact_mut(layer.lanes_out))
                {
                    simd::pack_i8_pairs(qrow, &mut self.xpairs);
                    simd::gemm_i8p_lanes(be, arow, &self.xpairs, wt, layer.lanes_out);
                }
            } else {
                simd::gemm_i8_i32(be, acc, qx, &layer.qw, fan_in);
            }
            let dst = if l + 1 == n_layers {
                &mut *out_tile
            } else {
                &mut self.stage_out[..rows * fan_out]
            };
            dequantize_rows(
                dst,
                acc,
                acc_stride,
                &self.x_scales,
                &layer.w_scales,
                &layer.bias,
            );
            // ReLU goes through the branchless dispatched kernel — the
            // scalar `apply` loop's data-dependent branch mispredicts on
            // every other element of a random-signed hidden row. The two
            // are bit-identical (the f32 batch-vs-per-sample bitwise test
            // pins that equivalence).
            match layer.act {
                Activation::Relu => simd::relu(be, dst),
                act => act.apply(dst),
            }
            if l + 1 != n_layers {
                std::mem::swap(&mut self.stage, &mut self.stage_out);
            }
        }
    }
}

/// Grow-only `Vec::resize`: never shrinks, so alternating layer shapes
/// cannot force a refill of previously sized capacity on every call.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// Index of the maximum element, ties to the lower index (matching
/// [`Mlp::argmax`]'s `>` comparison).
pub fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Quantization description: symmetric fixed point with `bits` total bits
/// (1 sign bit) and a per-network scale chosen from the parameter range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpec {
    /// Total bits per parameter (including sign). 2..=32.
    pub bits: u32,
    /// Scale: real value = q * scale, q ∈ [-(2^(bits-1)-1), 2^(bits-1)-1].
    pub scale: f32,
}

impl QuantSpec {
    /// Choose the scale that covers `max_abs` with the given bit width.
    pub fn fit(bits: u32, max_abs: f32) -> Self {
        assert!((2..=32).contains(&bits), "bits must be in 2..=32");
        let qmax = ((1u64 << (bits - 1)) - 1) as f32;
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        Self { bits, scale }
    }

    /// Quantize one value: the same symmetric-scale rule the int8 serving
    /// path uses ([`round_half_away`], clamp to the signed range), then
    /// dequantized back to f32.
    #[inline]
    pub fn quantize(&self, v: f32) -> f32 {
        let qmax = ((1u64 << (self.bits - 1)) - 1) as f32;
        let q = round_half_away(v / self.scale).clamp(-qmax, qmax);
        q * self.scale
    }
}

/// Quantize every parameter of `net` to `bits`-bit fixed point in place;
/// returns the spec used and the RMS quantization error.
pub fn quantize_mlp(net: &mut Mlp, bits: u32) -> (QuantSpec, f32) {
    let params = net.flat_params();
    let max_abs = params.iter().fold(0.0f32, |m, p| m.max(p.abs()));
    let spec = QuantSpec::fit(bits, max_abs);
    let mut err_sq = 0.0f64;
    let quantized: Vec<f32> = params
        .iter()
        .map(|&p| {
            let q = spec.quantize(p);
            err_sq += ((q - p) as f64).powi(2);
            q
        })
        .collect();
    net.load_flat(&quantized);
    let rms = (err_sq / params.len().max(1) as f64).sqrt() as f32;
    (spec, rms)
}

/// Fraction of argmax decisions that change between `reference` and
/// `quantized` over the given probe states — the metric that matters for
/// an action-selection network.
pub fn argmax_agreement(reference: &Mlp, quantized: &Mlp, probes: &[Vec<f32>]) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let mut s_ref = reference.make_scratch();
    let mut s_q = quantized.make_scratch();
    let same = probes
        .iter()
        .filter(|x| reference.argmax(x, &mut s_ref) == quantized.argmax(x, &mut s_q))
        .count();
    same as f64 / probes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::{Rng, SeedableRng};

    fn probes(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
            .collect()
    }

    #[test]
    fn spec_fit_covers_range() {
        let s = QuantSpec::fit(8, 2.0);
        assert!((s.quantize(2.0) - 2.0).abs() < s.scale);
        assert!((s.quantize(-2.0) + 2.0).abs() < s.scale);
        // Saturation beyond the range.
        assert!(s.quantize(100.0) <= 2.0 + s.scale);
    }

    #[test]
    fn sixteen_bit_is_nearly_lossless() {
        let mut net = Mlp::new(&[4, 100, 5], Activation::Relu, 1);
        let reference = net.clone();
        let (_, rms) = quantize_mlp(&mut net, 16);
        assert!(rms < 1e-4, "rms={rms}");
        let agree = argmax_agreement(&reference, &net, &probes(500, 4, 2));
        assert!(agree > 0.99, "agreement={agree}");
    }

    #[test]
    fn lower_bits_increase_error_monotonically() {
        let base = Mlp::new(&[4, 100, 5], Activation::Relu, 3);
        let mut last_rms = 0.0;
        for bits in [16u32, 8, 4, 2] {
            let mut net = base.clone();
            let (_, rms) = quantize_mlp(&mut net, bits);
            assert!(
                rms >= last_rms,
                "{bits}-bit rms {rms} < previous {last_rms}"
            );
            last_rms = rms;
        }
    }

    #[test]
    fn lower_bits_disturb_more_decisions() {
        let base = Mlp::new(&[4, 32, 5], Activation::Relu, 4);
        let ps = probes(500, 4, 5);
        let agree_at = |bits: u32| {
            let mut net = base.clone();
            quantize_mlp(&mut net, bits);
            argmax_agreement(&base, &net, &ps)
        };
        let a16 = agree_at(16);
        let a2 = agree_at(2);
        assert!(a16 > 0.99, "16-bit agreement {a16}");
        assert!(
            a2 < a16,
            "2-bit ({a2}) must disagree more than 16-bit ({a16})"
        );
        assert!(a2 < 1.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        let mut net = Mlp::new(&[3, 8, 2], Activation::Relu, 7);
        quantize_mlp(&mut net, 8);
        let once = net.flat_params();
        quantize_mlp(&mut net, 8);
        let twice = net.flat_params();
        for (a, b) in once.iter().zip(&twice) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn round_half_away_ties_away_from_zero() {
        assert_eq!(round_half_away(0.5), 1.0);
        assert_eq!(round_half_away(-0.5), -1.0);
        assert_eq!(round_half_away(1.5), 2.0);
        assert_eq!(round_half_away(-2.5), -3.0);
        assert_eq!(round_half_away(0.49), 0.0);
    }

    #[test]
    fn i8_row_round_trip_within_half_scale() {
        let src: Vec<f32> = (0..97).map(|i| (i as f32 * 0.731).sin() * 3.0).collect();
        let mut q = vec![0i8; src.len()];
        let scale = quantize_row_i8(&src, &mut q);
        assert!(scale > 0.0);
        for (&v, &qi) in src.iter().zip(&q) {
            assert!((-127..=127).contains(&i32::from(qi)));
            let back = f32::from(qi) * scale;
            assert!(
                (v - back).abs() <= scale * 0.5 + 1e-6,
                "v={v} back={back} scale={scale}"
            );
        }
    }

    #[test]
    fn zero_row_gets_unit_scale_and_zero_codes() {
        let src = [0.0f32; 8];
        let mut q = [1i8; 8];
        let scale = quantize_row_i8(&src, &mut q);
        assert_eq!(scale, 1.0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn quantized_forward_tracks_f32_decisions() {
        let net = Mlp::new(&[8, 64, 5], Activation::Relu, 11);
        let mut qnet = QuantizedMlp::from_mlp(&net);
        assert_eq!(qnet.sizes(), net.sizes());
        let ps = probes(400, 8, 12);
        let xs = Matrix::from_fn(ps.len(), 8, |r, c| ps[r][c]);
        let mut out = Matrix::zeros(0, 0);
        qnet.forward_into(&xs, &mut out);
        let q_decisions: Vec<usize> = (0..out.rows()).map(|r| argmax_row(out.row(r))).collect();
        let mut scratch = net.make_scratch();
        let same = ps
            .iter()
            .zip(&q_decisions)
            .filter(|(x, &d)| net.argmax(x, &mut scratch) == d)
            .count();
        let agree = same as f64 / ps.len() as f64;
        assert!(agree > 0.9, "int8 agreement too low: {agree}");
    }

    #[test]
    fn quantized_forward_is_identical_across_backends_and_reruns() {
        let net = Mlp::new(&[6, 48, 33, 4], Activation::Tanh, 21);
        let xs = Matrix::from_fn(19, 6, |r, c| ((r * 6 + c) as f32 * 0.37).cos() * 2.0);
        let reference = {
            let _g = simd::force(simd::KernelBackend::Scalar);
            let mut qnet = QuantizedMlp::from_mlp(&net);
            let mut out = Matrix::zeros(0, 0);
            qnet.forward_into(&xs, &mut out);
            out.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for &be in simd::available() {
            let _g = simd::force(be);
            let mut qnet = QuantizedMlp::from_mlp(&net);
            let mut out = Matrix::zeros(0, 0);
            for rerun in 0..2 {
                qnet.forward_into(&xs, &mut out);
                let got = out
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>();
                assert_eq!(got, reference, "{be} rerun {rerun}");
            }
        }
    }
}
