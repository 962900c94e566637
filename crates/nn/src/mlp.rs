//! Shallow multilayer perceptron with manual backprop.
//!
//! The paper's ensemble controller is a three-layer MLP (input → one hidden
//! ReLU layer of H=100 → linear Q-value output). This module implements a
//! general small MLP with: allocation-free forward via [`Scratch`],
//! gradient accumulation into a [`GradBuffer`] (so a batch is averaged
//! before one SGD step, Eq. 9–11), and flat parameter import/export
//! used by the DQN target-network synchronization.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Largest batch [`Mlp::forward_batch`] runs through the per-sample
/// kernels: below four rows they beat the batched GEMM and its staging
/// (measured on `[4, 100, 5]` and `[4, 1024, 5]`, EXPERIMENTS.md).
const PER_SAMPLE_MAX_ROWS: usize = 3;

/// One fully-connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dense {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
}

impl Dense {
    /// One sample through the layer: `out = act(W x + b)`, the per-sample
    /// kernels [`Mlp::forward`] and small batches run.
    fn forward_row(&self, x: &[f32], out: &mut [f32]) {
        self.w.matvec_into(x, out);
        for (o, bias) in out.iter_mut().zip(&self.b) {
            *o += bias;
        }
        self.act.apply(out);
    }
}

/// A feedforward MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    sizes: Vec<usize>,
}

/// Reusable forward-pass activations: `acts[0]` is the input, `acts[i]` the
/// output of layer `i-1`.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    acts: Vec<Vec<f32>>,
    /// backprop delta buffers, one per layer output
    deltas: Vec<Vec<f32>>,
}

impl Scratch {
    /// `true` when this scratch matches `net`'s layer shapes.
    pub fn matches(&self, net: &Mlp) -> bool {
        self.acts.len() == net.sizes.len()
            && self.acts.iter().zip(&net.sizes).all(|(a, &s)| a.len() == s)
    }

    /// Resize this scratch to `net`'s shapes (no-op when already sized).
    ///
    /// [`Mlp::forward`] deliberately does *not* do this: a shape mismatch
    /// there is a wiring bug (wrong scratch passed for the net), and
    /// silently rebuilding would mask it. Callers that reuse one scratch
    /// across nets of different shapes opt in explicitly here.
    pub fn ensure_shape(&mut self, net: &Mlp) {
        if !self.matches(net) {
            *self = net.make_scratch();
        }
    }
}

/// Reusable minibatch forward/backward buffers: `acts[0]` is the input
/// batch (one row per sample), `acts[i]` the batched output of layer
/// `i-1`; `deltas` mirror `acts[1..]` for backprop.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    acts: Vec<Matrix>,
    deltas: Vec<Matrix>,
    batch: usize,
}

impl BatchScratch {
    /// Resize for `net` at `batch` rows, reusing allocations; steady-state
    /// callers with a fixed batch size pay nothing after the first call.
    pub fn ensure_shape(&mut self, net: &Mlp, batch: usize) {
        let n = net.sizes.len();
        self.acts.resize_with(n, Matrix::default);
        self.deltas.resize_with(n - 1, Matrix::default);
        for (a, &s) in self.acts.iter_mut().zip(&net.sizes) {
            a.resize(batch, s);
        }
        for (d, &s) in self.deltas.iter_mut().zip(&net.sizes[1..]) {
            d.resize(batch, s);
        }
        self.batch = batch;
    }

    /// Batch rows currently allocated.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

/// Accumulated parameter gradients matching an [`Mlp`]'s shape.
#[derive(Debug, Clone)]
pub struct GradBuffer {
    dw: Vec<Matrix>,
    db: Vec<Vec<f32>>,
    /// Number of accumulated samples (for averaging).
    pub samples: usize,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `&[4, 100, 5]`.
    ///
    /// Hidden layers use `hidden_act`; the output layer is linear
    /// (Q-values). Weights use Xavier-uniform init from `seed`.
    pub fn new(sizes: &[usize], hidden_act: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[i], sizes[i + 1]);
            let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
            let w = Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            let act = if i + 2 == sizes.len() {
                Activation::Identity
            } else {
                hidden_act
            };
            layers.push(Dense {
                w,
                b: vec![0.0; fan_out],
                act,
            });
        }
        Self {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// Layer sizes (input, hidden..., output).
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// The hidden-layer activation this network was constructed with (the
    /// output layer is always linear). Networks without a hidden layer
    /// report `Identity`. Checkpoint serialization records this so a load
    /// can rebuild the exact architecture.
    pub fn hidden_activation(&self) -> Activation {
        if self.layers.len() >= 2 {
            self.layers
                .first()
                .map(|l| l.act)
                .unwrap_or(Activation::Identity)
        } else {
            Activation::Identity
        }
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().unwrap()
    }

    /// Total number of parameters (weights + biases), the paper's
    /// `SH + HA + H + A` for a single hidden layer (Table IV).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Prepare (or resize) a scratch buffer for this network.
    pub fn make_scratch(&self) -> Scratch {
        Scratch {
            acts: self.sizes.iter().map(|&s| vec![0.0; s]).collect(),
            deltas: self.sizes[1..].iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Prepare a gradient buffer matching this network.
    pub fn make_grad_buffer(&self) -> GradBuffer {
        GradBuffer {
            dw: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            db: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            samples: 0,
        }
    }

    /// Prepare a minibatch scratch for this network at `batch` rows.
    pub fn make_batch_scratch(&self, batch: usize) -> BatchScratch {
        let mut s = BatchScratch::default();
        s.ensure_shape(self, batch);
        s
    }

    /// Allocation-free forward pass; returns the output activations slice.
    ///
    /// The scratch must already match this network's shapes (build it with
    /// [`Mlp::make_scratch`], or call [`Scratch::ensure_shape`]); a stale
    /// scratch is a wiring bug, reported by `debug_assert` rather than
    /// silently rebuilt.
    pub fn forward<'s>(&self, x: &[f32], scratch: &'s mut Scratch) -> &'s [f32] {
        assert_eq!(x.len(), self.sizes[0], "input dimension mismatch");
        debug_assert!(
            scratch.matches(self),
            "scratch shape does not match the network: call make_scratch/ensure_shape"
        );
        scratch.acts[0].copy_from_slice(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let (inp, out) = {
                let (a, b) = scratch.acts.split_at_mut(i + 1);
                (&a[i], &mut b[0])
            };
            layer.forward_row(inp, out);
        }
        scratch.acts.last().unwrap()
    }

    /// Convenience forward pass allocating only the returned vector.
    ///
    /// Routes through a thread-local scratch (explicitly re-shaped per
    /// call via [`Scratch::ensure_shape`]), so repeated predictions on
    /// same-shaped networks build no intermediate buffers.
    pub fn predict(&self, x: &[f32]) -> Vec<f32> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Scratch> =
                std::cell::RefCell::new(Scratch::default());
        }
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.ensure_shape(self);
            self.forward(x, &mut s).to_vec()
        })
    }

    /// Minibatch forward pass: `xs` holds one input row per sample; the
    /// returned matrix holds one Q-row per sample. One GEMM + one bias
    /// sweep + one activation sweep per layer replaces `B` scalar
    /// forwards, and every element is **bit-identical** to running
    /// [`Mlp::forward`] on the corresponding row (the kernels preserve
    /// per-element accumulation order). Batches of one to three rows run
    /// the per-sample kernels row by row, which are faster there.
    pub fn forward_batch<'s>(&self, xs: &Matrix, scratch: &'s mut BatchScratch) -> &'s Matrix {
        assert_eq!(xs.cols(), self.sizes[0], "input dimension mismatch");
        scratch.ensure_shape(self, xs.rows());
        scratch.acts[0]
            .as_mut_slice()
            .copy_from_slice(xs.as_slice());
        let be = simd::active();
        for (i, layer) in self.layers.iter().enumerate() {
            let (inp, out) = {
                let (a, b) = scratch.acts.split_at_mut(i + 1);
                (&a[i], &mut b[0])
            };
            if xs.rows() <= PER_SAMPLE_MAX_ROWS {
                for r in 0..xs.rows() {
                    layer.forward_row(inp.row(r), out.row_mut(r));
                }
            } else {
                layer.w.matmul_into(inp, out);
                simd::add_bias_rows(be, out.as_mut_slice(), &layer.b);
                layer.act.apply_batch(out);
            }
        }
        scratch.acts.last().expect("network has layers")
    }

    /// Index of the maximum output (argmax action), ties broken low.
    pub fn argmax(&self, x: &[f32], scratch: &mut Scratch) -> usize {
        let out = self.forward(x, scratch);
        let mut best = 0;
        for i in 1..out.len() {
            if out[i] > out[best] {
                best = i;
            }
        }
        best
    }

    /// Backpropagate `out_grad` = dL/d(output) for the forward pass whose
    /// activations are in `scratch`, accumulating parameter gradients.
    pub fn backward(&self, scratch: &mut Scratch, out_grad: &[f32], grads: &mut GradBuffer) {
        assert_eq!(out_grad.len(), self.output_dim());
        let n_layers = self.layers.len();
        // delta for output layer: dL/dy * f'(y)
        {
            let y = &scratch.acts[n_layers];
            let delta = &mut scratch.deltas[n_layers - 1];
            let act = self.layers[n_layers - 1].act;
            for i in 0..delta.len() {
                delta[i] = out_grad[i] * act.derivative_from_output(y[i]);
            }
        }
        for l in (0..n_layers).rev() {
            // Accumulate dW += delta ⊗ input, db += delta.
            let (delta, input) = (&scratch.deltas[l], &scratch.acts[l]);
            grads.dw[l].add_outer(1.0, delta, input);
            for (g, d) in grads.db[l].iter_mut().zip(delta) {
                *g += d;
            }
            if l > 0 {
                // delta_{l-1} = (Wᵀ delta) * f'(act_{l-1})
                let (lower, upper) = scratch.deltas.split_at_mut(l);
                let prev_delta = &mut lower[l - 1];
                self.layers[l]
                    .w
                    .matvec_transpose_into(&upper[0], prev_delta);
                let act = self.layers[l - 1].act;
                let y = &scratch.acts[l];
                debug_assert_eq!(y.len(), scratch.acts[l].len());
                for (d, &yv) in prev_delta.iter_mut().zip(scratch.acts[l].iter()) {
                    *d *= act.derivative_from_output(yv);
                }
            }
        }
        grads.samples += 1;
    }

    /// Minibatch backprop for the forward pass whose activations are in
    /// `scratch`: `out_grads` holds one dL/d(output) row per sample.
    ///
    /// Per layer this takes one `deltaᵀ·acts` GEMM for the weight
    /// gradients, one bias-column sweep, and one transposed GEMM for the
    /// delta propagation — replacing `B` scalar backward passes while
    /// accumulating every gradient element in sample order, so the
    /// resulting [`GradBuffer`] is **bit-identical** to sequential
    /// [`Mlp::backward`] calls over the same rows.
    pub fn backward_batch(
        &self,
        scratch: &mut BatchScratch,
        out_grads: &Matrix,
        grads: &mut GradBuffer,
    ) {
        let batch = scratch.batch;
        assert_eq!(out_grads.rows(), batch, "out_grads batch rows");
        assert_eq!(out_grads.cols(), self.output_dim(), "out_grads width");
        let n_layers = self.layers.len();
        // Output-layer delta: dL/dy * f'(y), elementwise over the batch.
        {
            let y = &scratch.acts[n_layers];
            let delta = &mut scratch.deltas[n_layers - 1];
            let act = self.layers[n_layers - 1].act;
            for (d, (&g, &yv)) in delta
                .as_mut_slice()
                .iter_mut()
                .zip(out_grads.as_slice().iter().zip(y.as_slice()))
            {
                *d = g * act.derivative_from_output(yv);
            }
        }
        let be = simd::active();
        for l in (0..n_layers).rev() {
            // dW += deltaᵀ · acts, db += column sums of delta — both
            // accumulated sample-major like the per-sample path.
            let (delta, input) = (&scratch.deltas[l], &scratch.acts[l]);
            grads.dw[l].add_outer_batch(1.0, delta, input);
            simd::sum_rows(be, &mut grads.db[l], delta.as_slice());
            if l > 0 {
                // delta_{l-1} = (Wᵀ delta) * f'(act_{l-1}), batched.
                let (lower, upper) = scratch.deltas.split_at_mut(l);
                let prev_delta = &mut lower[l - 1];
                self.layers[l]
                    .w
                    .matmul_transposed_into(&upper[0], prev_delta);
                self.layers[l - 1]
                    .act
                    .mul_derivative_batch(prev_delta.as_mut_slice(), scratch.acts[l].as_slice());
            }
        }
        grads.samples += batch;
    }

    /// One plain SGD step (the paper's Eq. 11, the update a hardware
    /// controller would run, with no per-parameter state): every weight
    /// and bias moves by `θ -= lr * (g * scale)`, where `g` is its
    /// accumulated gradient and `scale = 1 / samples` averages the batch.
    /// Then clears the buffer. A no-op when nothing was accumulated.
    pub fn apply_grads(&mut self, grads: &mut GradBuffer, lr: f32) {
        if grads.samples == 0 {
            return;
        }
        let scale = 1.0 / grads.samples as f32;
        for (l, (dw, db)) in self.layers.iter_mut().zip(grads.dw.iter().zip(&grads.db)) {
            for (p, g) in l.w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
                *p -= lr * (g * scale);
            }
            for (p, g) in l.b.iter_mut().zip(db) {
                *p -= lr * (g * scale);
            }
        }
        grads.clear();
    }

    /// Export all parameters as one flat vector (weights then bias, per layer).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Import parameters exported by [`Mlp::flat_params`].
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter count mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            let wlen = l.w.len();
            l.w.as_mut_slice().copy_from_slice(&flat[off..off + wlen]);
            off += wlen;
            let blen = l.b.len();
            l.b.copy_from_slice(&flat[off..off + blen]);
            off += blen;
        }
    }

    /// Copy another network's parameters into this one (target-net sync).
    ///
    /// Copies into the preallocated weight/bias buffers rather than
    /// cloning `other`'s matrices: the DQN target sync runs this every
    /// `target_sync` steps, and per-sync allocation was visible as
    /// allocator noise in the `controller` bench group. Shapes are fixed
    /// at construction, so after the top-level size check the per-layer
    /// shape equalities are `debug_assert`s.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.sizes, other.sizes, "network shapes differ");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            debug_assert_eq!(a.w.rows(), b.w.rows(), "weight rows changed across syncs");
            debug_assert_eq!(a.w.cols(), b.w.cols(), "weight cols changed across syncs");
            debug_assert_eq!(a.b.len(), b.b.len(), "bias length changed across syncs");
            a.w.as_mut_slice().copy_from_slice(b.w.as_slice());
            a.b.copy_from_slice(&b.b);
        }
    }
}

impl GradBuffer {
    /// Zero the accumulated gradients.
    pub fn clear(&mut self) {
        for m in &mut self.dw {
            m.clear();
        }
        for b in &mut self.db {
            b.fill(0.0);
        }
        self.samples = 0;
    }

    /// Flatten the accumulated (unscaled) gradient sums in parameter order
    /// (per layer: weights then bias) — the layout of [`Mlp::flat_params`].
    /// Used by tests comparing batched and per-sample accumulation.
    pub fn flat_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for (dw, db) in self.dw.iter().zip(&self.db) {
            out.extend_from_slice(dw.as_slice());
            out.extend_from_slice(db);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_determinism() {
        let net = Mlp::new(&[4, 10, 5], Activation::Relu, 1);
        assert_eq!(net.param_count(), 4 * 10 + 10 * 5 + 10 + 5);
        let a = net.predict(&[0.1, 0.2, 0.3, 0.4]);
        let b = net.predict(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let net2 = Mlp::new(&[4, 10, 5], Activation::Relu, 1);
        assert_eq!(net.predict(&[1.0; 4]), net2.predict(&[1.0; 4]));
    }

    #[test]
    fn gradient_check_finite_difference() {
        // Loss L = 0.5 * sum((y - t)^2); out_grad = y - t.
        let mut net = Mlp::new(&[3, 6, 2], Activation::Tanh, 7);
        let x = [0.3f32, -0.7, 0.5];
        let t = [0.2f32, -0.1];
        let mut scratch = net.make_scratch();
        let mut grads = net.make_grad_buffer();
        let y = net.forward(&x, &mut scratch).to_vec();
        let out_grad: Vec<f32> = y.iter().zip(&t).map(|(a, b)| a - b).collect();
        net.backward(&mut scratch, &out_grad, &mut grads);
        // Flatten analytic grads in the same order as flat_params.
        let mut analytic = Vec::new();
        for (dw, db) in grads.dw.iter().zip(&grads.db) {
            analytic.extend_from_slice(dw.as_slice());
            analytic.extend_from_slice(db);
        }
        let loss = |net: &Mlp| -> f32 {
            let y = net.predict(&x);
            0.5 * y
                .iter()
                .zip(&t)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        let params = net.flat_params();
        let eps = 1e-3f32;
        for i in (0..params.len()).step_by(7) {
            let mut p = params.clone();
            p[i] += eps;
            net.load_flat(&p);
            let lp = loss(&net);
            p[i] -= 2.0 * eps;
            net.load_flat(&p);
            let lm = loss(&net);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2 * (1.0 + fd.abs()),
                "param {i}: fd={fd} analytic={}",
                analytic[i]
            );
        }
        net.load_flat(&params);
    }

    #[test]
    fn learns_xor() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, 3);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut scratch = net.make_scratch();
        let mut grads = net.make_grad_buffer();
        for _ in 0..2000 {
            for (x, t) in &data {
                let y = net.forward(x, &mut scratch)[0];
                net.backward(&mut scratch, &[y - t], &mut grads);
            }
            net.apply_grads(&mut grads, 0.5);
        }
        for (x, t) in &data {
            let y = net.predict(x)[0];
            assert!((y - t).abs() < 0.2, "xor({x:?}) = {y}, want {t}");
        }
    }

    #[test]
    fn apply_grads_averages_over_batch() {
        // Two identical samples must give the same step as one.
        let net0 = Mlp::new(&[2, 3, 1], Activation::Relu, 5);
        let x = [0.5f32, -0.5];
        let run = |reps: usize| -> Vec<f32> {
            let mut net = net0.clone();
            let mut scratch = net.make_scratch();
            let mut grads = net.make_grad_buffer();
            for _ in 0..reps {
                let y = net.forward(&x, &mut scratch)[0];
                net.backward(&mut scratch, &[y - 1.0], &mut grads);
            }
            net.apply_grads(&mut grads, 0.1);
            net.flat_params()
        };
        let one = run(1);
        let four = run(4);
        for (a, b) in one.iter().zip(&four) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn flat_roundtrip_and_copy() {
        let net = Mlp::new(&[3, 4, 2], Activation::Relu, 9);
        let flat = net.flat_params();
        let mut other = Mlp::new(&[3, 4, 2], Activation::Relu, 10);
        assert_ne!(net.predict(&[1.0; 3]), other.predict(&[1.0; 3]));
        other.load_flat(&flat);
        assert_eq!(net.predict(&[1.0; 3]), other.predict(&[1.0; 3]));
        let mut third = Mlp::new(&[3, 4, 2], Activation::Relu, 11);
        third.copy_params_from(&net);
        assert_eq!(net.predict(&[0.5; 3]), third.predict(&[0.5; 3]));
    }

    #[test]
    fn argmax_selects_best() {
        let net = Mlp::new(&[2, 4, 3], Activation::Relu, 2);
        let mut s = net.make_scratch();
        let x = [0.3, 0.8];
        let out = net.predict(&x);
        let a = net.argmax(&x, &mut s);
        assert!(out.iter().all(|&v| v <= out[a]));
    }

    #[test]
    fn paper_table_iv_param_count() {
        // Table IV: S=4, H=100, A=5 → SH + HA + H + A = 1005 ≈ "1.05K".
        let net = Mlp::new(&[4, 100, 5], Activation::Relu, 0);
        assert_eq!(net.param_count(), 4 * 100 + 100 * 5 + 100 + 5);
        assert_eq!(net.param_count(), 1005);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_checks_input_dim() {
        let net = Mlp::new(&[2, 2], Activation::Relu, 0);
        let mut s = net.make_scratch();
        let _ = net.forward(&[1.0; 3], &mut s);
    }

    #[test]
    fn scratch_ensure_shape_adapts_across_nets() {
        let small = Mlp::new(&[2, 3, 1], Activation::Relu, 0);
        let big = Mlp::new(&[4, 8, 2], Activation::Relu, 0);
        let mut s = Scratch::default();
        assert!(!s.matches(&small));
        s.ensure_shape(&small);
        assert!(s.matches(&small));
        let _ = small.forward(&[0.1, 0.2], &mut s);
        s.ensure_shape(&big);
        assert!(s.matches(&big) && !s.matches(&small));
        let _ = big.forward(&[0.1; 4], &mut s);
    }

    #[test]
    fn forward_batch_matches_per_sample_bitwise() {
        let net = Mlp::new(&[4, 10, 5], Activation::Relu, 11);
        let xs = Matrix::from_fn(9, 4, |r, c| ((r * 4 + c) as f32 * 0.17).sin());
        let mut bs = net.make_batch_scratch(9);
        let out = net.forward_batch(&xs, &mut bs);
        let mut s = net.make_scratch();
        for b in 0..9 {
            let row = net.forward(xs.row(b), &mut s);
            for (a, e) in out.row(b).iter().zip(row) {
                assert_eq!(a.to_bits(), e.to_bits(), "sample {b}");
            }
        }
    }

    #[test]
    fn forward_batch_handles_batch_sizes_zero_and_one() {
        let net = Mlp::new(&[3, 6, 2], Activation::Tanh, 4);
        let mut bs = BatchScratch::default();
        let empty = Matrix::zeros(0, 3);
        let out = net.forward_batch(&empty, &mut bs);
        assert_eq!(out.rows(), 0);
        let one = Matrix::from_rows(1, 3, vec![0.2, -0.4, 0.9]);
        let out = net.forward_batch(&one, &mut bs);
        assert_eq!(out.row(0), net.predict(&[0.2, -0.4, 0.9]).as_slice());
    }

    #[test]
    fn backward_batch_matches_sequential_backward_bitwise() {
        let net = Mlp::new(&[3, 7, 4], Activation::Relu, 8);
        let xs = Matrix::from_fn(6, 3, |r, c| ((r + c) as f32 * 0.31).cos());
        let ts = Matrix::from_fn(6, 4, |r, c| (r as f32 - c as f32) * 0.1);
        // Per-sample reference.
        let mut s = net.make_scratch();
        let mut ref_grads = net.make_grad_buffer();
        for b in 0..6 {
            let y = net.forward(xs.row(b), &mut s).to_vec();
            let og: Vec<f32> = y.iter().zip(ts.row(b)).map(|(a, t)| a - t).collect();
            net.backward(&mut s, &og, &mut ref_grads);
        }
        // Batched.
        let mut bs = net.make_batch_scratch(6);
        let out = net.forward_batch(&xs, &mut bs);
        let mut og = Matrix::zeros(6, 4);
        for b in 0..6 {
            for c in 0..4 {
                *og.get_mut(b, c) = out.get(b, c) - ts.get(b, c);
            }
        }
        let mut batch_grads = net.make_grad_buffer();
        net.backward_batch(&mut bs, &og, &mut batch_grads);
        assert_eq!(batch_grads.samples, ref_grads.samples);
        let bits = |g: &GradBuffer| {
            g.flat_sums()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&batch_grads), bits(&ref_grads));
    }

    #[test]
    fn batched_training_step_equals_per_sample_step() {
        // One SGD step through each datapath must land on identical nets.
        let net0 = Mlp::new(&[2, 5, 3], Activation::Relu, 21);
        let xs = Matrix::from_fn(4, 2, |r, c| (r as f32 + 1.0) * 0.2 - c as f32 * 0.3);
        let step_ref = {
            let mut net = net0.clone();
            let mut s = net.make_scratch();
            let mut g = net.make_grad_buffer();
            for b in 0..4 {
                let y = net.forward(xs.row(b), &mut s)[1];
                net.backward(&mut s, &[0.0, y - 0.5, 0.0], &mut g);
            }
            net.apply_grads(&mut g, 0.1);
            net.flat_params()
        };
        let step_batch = {
            let mut net = net0.clone();
            let mut bs = net.make_batch_scratch(4);
            let mut g = net.make_grad_buffer();
            let mut og = Matrix::zeros(4, 3);
            let out = net.forward_batch(&xs, &mut bs);
            for b in 0..4 {
                *og.get_mut(b, 1) = out.get(b, 1) - 0.5;
            }
            net.backward_batch(&mut bs, &og, &mut g);
            net.apply_grads(&mut g, 0.1);
            net.flat_params()
        };
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&step_batch), bits(&step_ref));
    }
}
