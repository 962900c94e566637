//! Shared-weight session pooling: one inference network serving the
//! decision windows of many sessions in a single batched forward.
//!
//! Sessions built from the same Hello triple `(model, seed, fast)` with a
//! *frozen* agent have bit-identical inference weights — they were
//! constructed from the same seed and never train — so a shard visit can
//! stack their prepared window states into one matrix and take one
//! `Mlp::forward_batch` for all of them. The batch kernels preserve
//! per-element accumulation order (each output row depends only on its
//! input row), so every session's Q rows are bit-identical to a forward
//! through its own network: pooling changes throughput, never decisions.
//!
//! Each event-loop thread owns its own pool (no locks): a tiny LRU of
//! cloned inference networks keyed by [`SessionKey`], plus the reusable
//! batch scratch for each. Per-session learned state never enters the
//! pool — only the frozen weights are shared.
//!
//! This file is on the decision hot path (`panic-in-hot-path` scope): no
//! panics, no literal indexing.

use crate::session::SessionModel;
use resemble_nn::{BatchScratch, Matrix, Mlp, QuantizedMlp};

/// How a session's model was constructed: the Hello triple. Frozen
/// sessions with equal keys have bit-identical, never-changing inference
/// weights, which is what makes cross-session batching exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKey {
    /// Model registry name.
    pub model: String,
    /// Model seed.
    pub seed: u64,
    /// Fast (laptop-scale) configuration flag.
    pub fast: bool,
}

struct PoolEntry {
    key: SessionKey,
    net: Mlp,
    scratch: BatchScratch,
    /// Int8 copy of `net`, built once per entry when the pool runs in
    /// quantized mode (`--quantize-frozen`); `None` in f32 mode.
    qnet: Option<QuantizedMlp>,
    last_used: u64,
}

/// A thread-local cache of frozen inference networks keyed by
/// [`SessionKey`], evicting least-recently-used entries beyond `cap`.
///
/// In quantized mode each entry additionally caches a per-row symmetric
/// int8 copy of the frozen weights ([`QuantizedMlp`]) and pooled windows
/// forward through it — the opt-in `--quantize-frozen` serving datapath.
/// Quantized decisions are deterministic (bit-identical across backends
/// and reruns) but are *not* bit-identical to the f32 path; the measured
/// decision-agreement delta is reported by `serve_bench`.
pub struct WeightPool {
    entries: Vec<PoolEntry>,
    tick: u64,
    cap: usize,
    quantize: bool,
}

impl WeightPool {
    /// An empty pool holding at most `cap` distinct networks.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Vec::new(),
            tick: 0,
            cap: cap.max(1),
            quantize: false,
        }
    }

    /// Switch the pool into (or out of) int8 quantized mode. Existing
    /// entries are dropped so every cached network matches the mode.
    pub fn quantized(mut self, on: bool) -> Self {
        self.quantize = on;
        self.entries.clear();
        self
    }

    /// `true` when pooled forwards run through the int8 datapath.
    pub fn quantize_enabled(&self) -> bool {
        self.quantize
    }

    /// Distinct networks currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no network is pooled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One pooled batched forward: push `states` (stacked prepared window
    /// rows of any number of same-key sessions) through the network cached
    /// for `key`, cloning it from `template`'s frozen inference net on
    /// first use, and copy the Q rows into `q`. Returns `false` — leaving
    /// `q` untouched — when `template` has no poolable network or its
    /// input width does not match `states`; callers then fall back to
    /// per-session forwards.
    pub fn forward_into(
        &mut self,
        key: &SessionKey,
        template: &SessionModel,
        states: &Matrix,
        q: &mut Matrix,
    ) -> bool {
        let at = match self.entries.iter().position(|e| e.key == *key) {
            Some(at) => at,
            None => {
                let Some(net) = template.inference_net() else {
                    return false;
                };
                if self.entries.len() >= self.cap {
                    // Evict the least-recently-used entry.
                    if let Some(lru) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                    {
                        self.entries.swap_remove(lru);
                    }
                }
                self.entries.push(PoolEntry {
                    key: key.clone(),
                    net: net.clone(),
                    scratch: BatchScratch::default(),
                    qnet: self.quantize.then(|| QuantizedMlp::from_mlp(net)),
                    last_used: 0,
                });
                self.entries.len() - 1
            }
        };
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(at) else {
            return false;
        };
        entry.last_used = self.tick;
        // Checked before forwarding: `QuantizedMlp::forward_into` (like
        // `forward_batch`) asserts the input width, and this file's
        // no-panic contract routes mismatches to the per-session
        // fallback instead.
        if entry.net.input_dim() != states.cols() {
            return false;
        }
        if let Some(qnet) = entry.qnet.as_mut() {
            qnet.forward_into(states, q);
            return true;
        }
        let out = entry.net.forward_batch(states, &mut entry.scratch);
        q.resize(out.rows(), out.cols());
        q.as_mut_slice().copy_from_slice(out.as_slice());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: &str, seed: u64) -> SessionKey {
        SessionKey {
            model: model.to_string(),
            seed,
            fast: true,
        }
    }

    fn frozen_session(seed: u64) -> SessionModel {
        SessionModel::build("resemble_frozen", seed, true).expect("builds")
    }

    #[test]
    fn pooled_forward_matches_own_network_bitwise() {
        let template = frozen_session(7);
        let own = template.inference_net().expect("frozen mlp").clone();
        let mut pool = WeightPool::new(4);
        let dim = own.input_dim();
        let states = Matrix::from_fn(9, dim, |r, c| ((r * dim + c) as f32 * 0.37).sin());
        let mut q = Matrix::default();
        assert!(pool.forward_into(&key("resemble_frozen", 7), &template, &states, &mut q));
        let mut scratch = BatchScratch::default();
        let expect = own.forward_batch(&states, &mut scratch);
        assert_eq!(q.rows(), expect.rows());
        let qa: Vec<u32> = q.as_slice().iter().map(|v| v.to_bits()).collect();
        let qb: Vec<u32> = expect.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(qa, qb, "pooled Q rows diverged from own-net forward");
        assert_eq!(pool.len(), 1);
        // Second call reuses the cached entry.
        let mut q2 = Matrix::default();
        assert!(pool.forward_into(&key("resemble_frozen", 7), &template, &states, &mut q2));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_entries_with_lru_eviction() {
        let mut pool = WeightPool::new(2);
        let mut q = Matrix::default();
        for seed in [1u64, 2, 3] {
            let t = frozen_session(seed);
            let dim = t.inference_net().expect("mlp").input_dim();
            let states = Matrix::from_fn(2, dim, |_, c| c as f32 * 0.1);
            assert!(pool.forward_into(&key("resemble_frozen", seed), &t, &states, &mut q));
        }
        assert_eq!(pool.len(), 2, "capacity bound holds");
    }

    #[test]
    fn non_poolable_template_is_rejected() {
        let template = SessionModel::build("bo", 1, true).expect("builds");
        let mut pool = WeightPool::new(2);
        let states = Matrix::from_fn(1, 4, |_, _| 0.0);
        let mut q = Matrix::default();
        assert!(!pool.forward_into(&key("bo", 1), &template, &states, &mut q));
        assert!(pool.is_empty());
    }

    #[test]
    fn quantized_pool_is_deterministic_and_tracks_f32_decisions() {
        let template = frozen_session(11);
        let own = template.inference_net().expect("frozen mlp");
        let dim = own.input_dim();
        let states = Matrix::from_fn(16, dim, |r, c| ((r * dim + c) as f32 * 0.21).cos());
        let k = key("resemble_frozen", 11);

        let mut f32_pool = WeightPool::new(4);
        let mut qf = Matrix::default();
        assert!(f32_pool.forward_into(&k, &template, &states, &mut qf));

        let mut qpool = WeightPool::new(4).quantized(true);
        assert!(qpool.quantize_enabled());
        let mut q1 = Matrix::default();
        assert!(qpool.forward_into(&k, &template, &states, &mut q1));
        assert_eq!(q1.rows(), qf.rows());
        assert_eq!(q1.cols(), qf.cols());

        // Deterministic: a second pooled call reproduces the bytes.
        let mut q2 = Matrix::default();
        assert!(qpool.forward_into(&k, &template, &states, &mut q2));
        let b1: Vec<u32> = q1.as_slice().iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u32> = q2.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b2, "quantized pooled forward is not deterministic");

        // Decisions track the f32 path closely (quantization noise may
        // flip rare near-ties; on these stock weights it should not).
        let argmax = |m: &Matrix, r: usize| {
            let row = m.row(r);
            let mut best = 0;
            for (i, v) in row.iter().enumerate() {
                if *v > row[best] {
                    best = i;
                }
            }
            best
        };
        let agree = (0..qf.rows())
            .filter(|&r| argmax(&qf, r) == argmax(&q1, r))
            .count();
        assert!(
            agree * 10 >= qf.rows() * 9,
            "quantized decisions agree on only {agree}/{} rows",
            qf.rows()
        );
    }

    #[test]
    fn quantized_builder_clears_cached_entries() {
        let template = frozen_session(3);
        let dim = template.inference_net().expect("mlp").input_dim();
        let states = Matrix::from_fn(2, dim, |_, c| c as f32 * 0.05);
        let mut pool = WeightPool::new(4);
        let mut q = Matrix::default();
        assert!(pool.forward_into(&key("resemble_frozen", 3), &template, &states, &mut q));
        assert_eq!(pool.len(), 1);
        let pool = pool.quantized(true);
        assert!(pool.is_empty(), "mode switch must drop stale-mode entries");
    }

    #[test]
    fn mismatched_state_width_is_rejected() {
        let template = frozen_session(5);
        let mut pool = WeightPool::new(2);
        let mut q = Matrix::default();
        let bad_states = Matrix::from_fn(3, 1, |_, _| 0.5);
        assert!(!pool.forward_into(&key("resemble_frozen", 5), &template, &bad_states, &mut q));
    }
}
