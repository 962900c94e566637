//! Voyager-like neural temporal prefetcher (substitute, see DESIGN.md §1).
//!
//! Voyager (Shi et al., ASPLOS 2021) is a hierarchical LSTM that predicts
//! the next access from PC-localized history over a learned candidate
//! space. Training a full LSTM online is neither feasible in hardware nor
//! needed for the role Voyager plays in the paper's §VI-B (a *powerful
//! learned temporal* input to the ensemble). Our substitute keeps the
//! structure that matters: a per-(PC, address) candidate table remembers
//! up to four observed successors (the "vocabulary"), and an online-trained
//! MLP scores the candidates from hashed context features (the "model"),
//! picking the successor to prefetch. It is strong on irregular repetitive
//! traces, weak on streams — exactly Voyager's profile in Fig 12.

use crate::bounded::BoundedMap;
use crate::traits::{PredictionKind, Prefetcher};
use resemble_nn::{Activation, GradBuffer, Mlp, Scratch};
use resemble_trace::record::{block_addr, block_of};
use resemble_trace::MemAccess;

const SLOTS: usize = 4;
/// features: hash(prev block), hash(pc), 4 counts, 4 recencies
const IN_DIM: usize = 2 + 2 * SLOTS;
const HASH_BITS: u32 = 16;

#[derive(Debug, Clone, Copy, Default)]
struct Cand {
    block: u64,
    count: u16,
    last_seen: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct CandSet {
    slots: [Cand; SLOTS],
}

#[derive(Debug, Clone)]
struct Pending {
    input: [f32; IN_DIM],
    blocks: [u64; SLOTS],
}

/// Neural temporal prefetcher (Voyager stand-in).
pub struct NeuralTemporalPrefetcher {
    succ: BoundedMap<CandSet>,
    last_per_pc: BoundedMap<u64>,
    pending: BoundedMap<Pending>,
    net: Mlp,
    scratch: Scratch,
    grads: GradBuffer,
    /// SGD learning rate (positive)
    lr: f32,
    tick: u32,
    train_interval: u32,
    since_train: u32,
    degree: usize,
}

#[inline]
fn fold_hash(x: u64) -> f32 {
    // 16-bit fold of the value, normalized to [0, 1).
    let h = (x ^ (x >> 16) ^ (x >> 32) ^ (x >> 48)) & ((1 << HASH_BITS) - 1);
    h as f32 / (1u64 << HASH_BITS) as f32
}

#[inline]
fn ctx_key(pc: u64, block: u64) -> u64 {
    pc.rotate_left(17) ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl NeuralTemporalPrefetcher {
    /// Default configuration: 256K-entry candidate table (Voyager's
    /// vocabulary is memory-backed and large), 32-unit hidden layer, SGD
    /// lr 0.05, trained every 8 resolved predictions.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, 1 << 18, 32, 0.05, 8, 2)
    }

    /// Parameterized constructor. Panics unless `lr` is positive and
    /// `degree` is at least 1.
    pub fn with_params(
        seed: u64,
        table_entries: usize,
        hidden: usize,
        lr: f32,
        train_interval: u32,
        degree: usize,
    ) -> Self {
        assert!(degree >= 1);
        assert!(lr > 0.0, "learning rate must be positive");
        let net = Mlp::new(&[IN_DIM, hidden, SLOTS], Activation::Relu, seed);
        let scratch = net.make_scratch();
        let grads = net.make_grad_buffer();
        Self {
            succ: BoundedMap::new(table_entries),
            last_per_pc: BoundedMap::new(1024),
            pending: BoundedMap::new(1024),
            net,
            scratch,
            grads,
            lr,
            tick: 0,
            train_interval,
            since_train: 0,
            degree,
        }
    }

    /// Parameter count of the scoring network.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    fn features(&self, pc: u64, block: u64, set: &CandSet, tick: u32) -> [f32; IN_DIM] {
        let mut x = [0.0f32; IN_DIM];
        x[0] = fold_hash(block);
        x[1] = fold_hash(pc);
        let total: f32 = set
            .slots
            .iter()
            .map(|c| c.count as f32)
            .sum::<f32>()
            .max(1.0);
        for (i, c) in set.slots.iter().enumerate() {
            x[2 + i] = c.count as f32 / total;
            let age = tick.saturating_sub(c.last_seen) as f32;
            x[2 + SLOTS + i] = if c.count > 0 {
                1.0 / (1.0 + age / 64.0)
            } else {
                0.0
            };
        }
        x
    }

    /// Record observed successor `next` for context `(pc, prev)`.
    fn learn_successor(&mut self, pc: u64, prev: u64, next: u64) {
        let key = ctx_key(pc, prev);
        let mut set = self.succ.get(key).copied().unwrap_or_default();
        if let Some(c) = set
            .slots
            .iter_mut()
            .find(|c| c.count > 0 && c.block == next)
        {
            c.count = c.count.saturating_add(1);
            c.last_seen = self.tick;
        } else {
            let weakest = set
                .slots
                .iter_mut()
                .min_by_key(|c| c.count)
                .expect("SLOTS > 0");
            *weakest = Cand {
                block: next,
                count: 1,
                last_seen: self.tick,
            };
        }
        self.succ.insert(key, set);
    }

    /// Train the scorer on a resolved prediction context.
    fn train_on(&mut self, pending: &Pending, actual: u64) {
        let y = self.net.forward(&pending.input, &mut self.scratch).to_vec();
        let mut grad = [0.0f32; SLOTS];
        for i in 0..SLOTS {
            let target = if pending.blocks[i] == actual && actual != 0 {
                1.0
            } else {
                0.0
            };
            grad[i] = y[i] - target;
        }
        self.net.backward(&mut self.scratch, &grad, &mut self.grads);
        self.since_train += 1;
        if self.since_train >= self.train_interval {
            self.net.apply_grads(&mut self.grads, self.lr);
            self.since_train = 0;
        }
    }
}

impl Prefetcher for NeuralTemporalPrefetcher {
    fn name(&self) -> &'static str {
        "voyager"
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal
    }

    fn on_access(&mut self, access: &MemAccess, _hit: bool, out: &mut Vec<u64>) {
        let b = block_of(access.addr);
        self.tick += 1;
        // Resolve the previous context for this PC.
        if let Some(&prev) = self.last_per_pc.get(access.pc) {
            if prev != b {
                self.learn_successor(access.pc, prev, b);
                if let Some(p) = self.pending.remove(access.pc) {
                    self.train_on(&p, b);
                }
            }
        }
        self.last_per_pc.insert(access.pc, b);

        // Predict the next block for this PC from the candidate table.
        let key = ctx_key(access.pc, b);
        if let Some(&set) = self.succ.get(key) {
            let input = self.features(access.pc, b, &set, self.tick);
            let scores = self.net.forward(&input, &mut self.scratch);
            // argmax over populated slots
            let mut best: Option<(usize, f32)> = None;
            for (i, c) in set.slots.iter().enumerate() {
                if c.count == 0 {
                    continue;
                }
                if best.map(|(_, s)| scores[i] > s).unwrap_or(true) {
                    best = Some((i, scores[i]));
                }
            }
            let mut blocks = [0u64; SLOTS];
            for (i, c) in set.slots.iter().enumerate() {
                blocks[i] = if c.count > 0 { c.block } else { 0 };
            }
            self.pending.insert(access.pc, Pending { input, blocks });
            if let Some((i, _)) = best {
                out.push(block_addr(set.slots[i].block));
                // Chain further along the most-counted successors.
                let mut cur = set.slots[i].block;
                for _ in 1..self.degree {
                    let k2 = ctx_key(access.pc, cur);
                    let Some(&s2) = self.succ.get(k2) else { break };
                    let Some(c2) = s2
                        .slots
                        .iter()
                        .filter(|c| c.count > 0)
                        .max_by_key(|c| c.count)
                    else {
                        break;
                    };
                    out.push(block_addr(c2.block));
                    cur = c2.block;
                }
            }
        }
    }

    fn budget_bytes(&self) -> usize {
        // Scorer (16-bit fixed point) + candidate table.
        self.net.param_count() * 2 + self.succ.capacity() * (SLOTS * 12 + 8)
    }

    fn max_degree(&self) -> usize {
        self.degree
    }

    fn reset(&mut self) {
        self.succ.clear();
        self.last_per_pc.clear();
        self.pending.clear();
        self.grads.clear();
        self.tick = 0;
        self.since_train = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut NeuralTemporalPrefetcher, seq: &[(u64, u64)]) -> Vec<Vec<u64>> {
        seq.iter()
            .enumerate()
            .map(|(i, &(pc, a))| {
                let mut out = Vec::new();
                p.on_access(&MemAccess::load(i as u64, pc, a), false, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn learns_repeated_irregular_sequence() {
        let ring: Vec<u64> = vec![0x12_3000, 0xff_0140, 0x3a_bc80, 0x90_00c0, 0x55_5540];
        let seq: Vec<(u64, u64)> = (0..200).map(|i| (7u64, ring[i % 5])).collect();
        let mut p = NeuralTemporalPrefetcher::new(1);
        let outs = feed(&mut p, &seq);
        let mut correct = 0;
        for i in 100..199 {
            if outs[i].contains(&block_addr(block_of(seq[i + 1].1))) {
                correct += 1;
            }
        }
        assert!(correct > 80, "correct={correct}/99");
    }

    #[test]
    fn scorer_disambiguates_biased_successors() {
        // Context A is followed by B 80% of the time, C 20%: the counted
        // candidates + scorer should settle on B.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (a, b, c) = (0x10_0000u64, 0x20_0000u64, 0x30_0000u64);
        let mut seq = Vec::new();
        for _ in 0..300 {
            seq.push((1u64, a));
            seq.push((1u64, if rng.gen_bool(0.8) { b } else { c }));
        }
        let mut p = NeuralTemporalPrefetcher::new(2);
        let outs = feed(&mut p, &seq);
        // Count predictions of B vs C following late occurrences of A.
        let (mut pb, mut pc_) = (0, 0);
        for i in (400..seq.len()).filter(|&i| seq[i].1 == a) {
            if outs[i].contains(&block_addr(block_of(b))) {
                pb += 1;
            }
            if outs[i].contains(&block_addr(block_of(c))) {
                pc_ += 1;
            }
        }
        assert!(pb > pc_, "pb={pb} pc={pc_}");
    }

    #[test]
    fn no_prediction_for_cold_context() {
        let mut p = NeuralTemporalPrefetcher::new(3);
        let outs = feed(&mut p, &[(1, 0x1000), (1, 0x2000), (1, 0x4000)]);
        assert!(outs[0].is_empty());
    }

    #[test]
    fn reset_clears_state() {
        let ring: Vec<u64> = vec![0x1000, 0x9000, 0x5000];
        let seq: Vec<(u64, u64)> = (0..60).map(|i| (1u64, ring[i % 3])).collect();
        let mut p = NeuralTemporalPrefetcher::new(4);
        feed(&mut p, &seq);
        p.reset();
        let outs = feed(&mut p, &seq[..3]);
        assert!(outs.iter().all(|o| o.is_empty()));
    }

    #[test]
    fn trained_scorer_matches_pinned_parameter_bits() {
        // Pins the scorer's SGD path (forward, backward, apply_grads) at
        // the bit level: a seeded stream of biased successors over four
        // PCs trains the network, and the FNV-1a digest of every
        // parameter's bits must not move.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let seq: Vec<(u64, u64)> = (0..4000u64)
            .map(|i| {
                let pc = 0x40 + (i % 4);
                let succ = if rng.gen_bool(0.7) {
                    0
                } else {
                    rng.gen_range(1..4)
                };
                (
                    pc,
                    0x10_0000 * (pc & 0xf) + 0x1000 * ((i / 4) % 8) + 0x40 * succ,
                )
            })
            .collect();
        let mut p = NeuralTemporalPrefetcher::new(6);
        let fresh = p.net.flat_params();
        feed(&mut p, &seq);
        let params = p.net.flat_params();
        assert_ne!(
            params, fresh,
            "the scorer never trained; the pin is vacuous"
        );
        let digest = params
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            digest, 0x04ea_8d51_a596_4708,
            "scorer digest {digest:#018x} moved from its pin"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_learning_rate() {
        let _ = NeuralTemporalPrefetcher::with_params(0, 64, 4, 0.0, 8, 1);
    }

    #[test]
    fn budget_is_reported() {
        let p = NeuralTemporalPrefetcher::new(0);
        assert!(p.budget_bytes() > 0);
        assert!(p.param_count() > 0);
    }
}
