//! Combinators that mix several [`TraceSource`]s into one trace.
//!
//! Real applications interleave pattern classes (the paper's motivating
//! observation): `PhasedGen` switches sources in long phases (program
//! phases, as SimPoint would expose), and `ProbMixGen` samples a source per
//! access with fixed probabilities.

use super::TraceSource;
use crate::record::MemAccess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Phase-switching mix: run each source for `phase_len` accesses, cycling.
pub struct PhasedGen {
    sources: Vec<Box<dyn TraceSource + Send>>,
    phase_len: usize,
    cur: usize,
    taken: usize,
    next_id: u64,
    id_gap: u64,
}

impl PhasedGen {
    /// Cycle through `sources`, running each for `phase_len` accesses.
    pub fn new(sources: Vec<Box<dyn TraceSource + Send>>, phase_len: usize, id_gap: u64) -> Self {
        assert!(!sources.is_empty() && phase_len > 0);
        Self {
            sources,
            phase_len,
            cur: 0,
            taken: 0,
            next_id: 0,
            id_gap,
        }
    }
}

impl TraceSource for PhasedGen {
    fn next_access(&mut self) -> Option<MemAccess> {
        let n = self.sources.len();
        for _ in 0..=n {
            if self.taken == self.phase_len {
                self.taken = 0;
                self.cur = (self.cur + 1) % n;
            }
            match self.sources[self.cur].next_access() {
                Some(mut a) => {
                    self.taken += 1;
                    a.instr_id = self.next_id;
                    self.next_id += 1 + self.id_gap;
                    return Some(a);
                }
                None => {
                    self.taken = 0;
                    self.cur = (self.cur + 1) % n;
                }
            }
        }
        None
    }
}

/// Probabilistic mix: each access drawn from source `i` with probability
/// `weights[i] / sum(weights)`.
pub struct ProbMixGen {
    sources: Vec<Box<dyn TraceSource + Send>>,
    cumulative: Vec<f64>,
    rng: StdRng,
    next_id: u64,
    id_gap: u64,
}

impl ProbMixGen {
    /// Mix `sources` with the given positive `weights`.
    pub fn new(
        sources: Vec<Box<dyn TraceSource + Send>>,
        weights: &[f64],
        seed: u64,
        id_gap: u64,
    ) -> Self {
        assert_eq!(sources.len(), weights.len());
        assert!(!sources.is_empty());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            sources,
            cumulative,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            id_gap,
        }
    }
}

impl TraceSource for ProbMixGen {
    fn next_access(&mut self) -> Option<MemAccess> {
        let x: f64 = self.rng.gen();
        let mut idx = self.cumulative.iter().position(|&c| x <= c).unwrap_or(0);
        for _ in 0..self.sources.len() {
            if let Some(mut a) = self.sources[idx].next_access() {
                a.instr_id = self.next_id;
                self.next_id += 1 + self.id_gap;
                return Some(a);
            }
            idx = (idx + 1) % self.sources.len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{StreamGen, VecSource};

    fn fixed(addrs: &[u64]) -> Box<dyn TraceSource + Send> {
        Box::new(VecSource::new(
            addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| MemAccess::load(i as u64, 0x10, a))
                .collect(),
        ))
    }

    #[test]
    fn phased_switches_in_blocks() {
        let mut g = PhasedGen::new(vec![fixed(&[1, 2, 3]), fixed(&[9, 8, 7])], 3, 0);
        let addrs: Vec<u64> = g.collect_n(6).iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![1, 2, 3, 9, 8, 7]);
    }

    #[test]
    fn prob_mix_samples_both_sources() {
        let a: Box<dyn TraceSource + Send> = Box::new(StreamGen::new(1, 1, 1000, 0));
        let b: Box<dyn TraceSource + Send> = Box::new(StreamGen::new(2, 1, 1000, 0));
        let first_a = StreamGen::new(1, 1, 1000, 0).collect_n(1)[0].addr;
        let mut g = ProbMixGen::new(vec![a, b], &[0.5, 0.5], 99, 0);
        let t = g.collect_n(100);
        // Both underlying streams contribute (different base regions).
        let hits_a = t
            .iter()
            .filter(|x| x.addr.abs_diff(first_a) < 1 << 20)
            .count();
        assert!(hits_a > 0 && hits_a < 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn prob_mix_rejects_zero_weight() {
        let _ = ProbMixGen::new(vec![fixed(&[1])], &[0.0], 1, 0);
    }
}
