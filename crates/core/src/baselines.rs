//! Non-RL ensemble baselines, principally SBP(E) — the paper's extended
//! Sandbox Prefetcher (§V-C1).
//!
//! SBP(E) evaluates every input prefetcher in a *sandbox*: each member's
//! suggestions are recorded (not issued) in a 256-entry history buffer
//! (replacing the original SBP's Bloom filter, "which provides more
//! accurate filter matching"), and the member whose recent suggestions
//! best match the subsequent demand stream is selected greedily to issue
//! real prefetches. The averaging over the evaluation buffer is exactly
//! what produces the *response lag* the paper's RL controller avoids.

use resemble_prefetch::{PredictionKind, Prefetcher, PrefetcherBank};
use resemble_trace::record::block_of;
use resemble_trace::util::FxHashMap;
use resemble_trace::MemAccess;
use std::collections::VecDeque;

/// Sliding-window sandbox evaluating one prefetcher's suggestion accuracy.
#[derive(Debug, Default)]
struct Sandbox {
    /// (id, block, hit) of recent suggestions, oldest first
    entries: VecDeque<(u64, u64, bool)>,
    /// block → ids of unhit entries
    by_block: FxHashMap<u64, VecDeque<u64>>,
    next_id: u64,
    hits: u32,
    cap: usize,
}

impl Sandbox {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Default::default()
        }
    }

    /// Record a suggestion.
    fn add(&mut self, block: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push_back((id, block, false));
        self.by_block.entry(block).or_default().push_back(id);
        while self.entries.len() > self.cap {
            let (old_id, old_block, hit) = self.entries.pop_front().expect("non-empty");
            if hit {
                self.hits -= 1;
            } else if let Some(q) = self.by_block.get_mut(&old_block) {
                q.retain(|&x| x != old_id);
                if q.is_empty() {
                    self.by_block.remove(&old_block);
                }
            }
        }
    }

    /// Observe a demand block: marks the oldest matching unhit suggestion
    /// as a sandbox hit.
    fn observe(&mut self, block: u64) {
        let Some(q) = self.by_block.get_mut(&block) else {
            return;
        };
        let Some(id) = q.pop_front() else { return };
        if q.is_empty() {
            self.by_block.remove(&block);
        }
        let front_id = match self.entries.front() {
            Some(&(f, _, _)) => f,
            None => return,
        };
        let idx = (id - front_id) as usize;
        if let Some(e) = self.entries.get_mut(idx) {
            debug_assert_eq!(e.0, id);
            e.2 = true;
            self.hits += 1;
        }
    }

    /// Fraction of recent suggestions that hit.
    fn accuracy(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.hits as f64 / self.entries.len() as f64
        }
    }
}

/// SBP(E): sandbox-evaluated greedy ensemble selection.
pub struct SbpE {
    bank: PrefetcherBank,
    sandboxes: Vec<Sandbox>,
    active: usize,
    buffer_size: usize,
    obs_buf: Vec<Option<u64>>,
    /// per-member selection counts (response-lag analysis)
    pub selections: Vec<u64>,
    /// number of times the active member changed
    pub switches: u64,
}

impl SbpE {
    /// Wrap a bank with a sandbox selector; `buffer_size` is the history
    /// buffer per member (256 in the paper, "the same as a training batch
    /// in the example ReSemble").
    pub fn new(bank: PrefetcherBank, buffer_size: usize) -> Self {
        assert!(buffer_size > 0);
        let n = bank.len();
        Self {
            sandboxes: (0..n).map(|_| Sandbox::new(buffer_size)).collect(),
            active: 0,
            buffer_size,
            obs_buf: Vec::new(),
            selections: vec![0; n],
            switches: 0,
            bank,
        }
    }

    /// The paper's SBP(E): BO + SPP + ISB + Domino, 256-entry buffers.
    pub fn from_paper() -> Self {
        Self::new(resemble_prefetch::paper_bank(), 256)
    }

    /// Currently selected member index.
    pub fn active_member(&self) -> usize {
        self.active
    }

    /// Sandbox accuracy of each member.
    pub fn accuracies(&self) -> Vec<f64> {
        self.sandboxes.iter().map(Sandbox::accuracy).collect()
    }
}

impl Prefetcher for SbpE {
    fn name(&self) -> &'static str {
        "sbp_e"
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        let block = block_of(access.addr);
        // Evaluate: does this demand validate any sandboxed suggestion?
        for s in &mut self.sandboxes {
            s.observe(block);
        }
        // Collect fresh suggestions and sandbox them all.
        self.obs_buf.clear();
        self.obs_buf
            .extend_from_slice(self.bank.observe(access, hit));
        for (s, p) in self.sandboxes.iter_mut().zip(&self.obs_buf) {
            if let Some(p) = p {
                s.add(block_of(*p));
            }
        }
        // Greedy selection by recent accuracy (ties keep the incumbent —
        // this hysteresis is the source of the paper's "response lag").
        let (mut best, mut best_acc) = (self.active, self.sandboxes[self.active].accuracy());
        for (i, s) in self.sandboxes.iter().enumerate() {
            let acc = s.accuracy();
            if acc > best_acc {
                best = i;
                best_acc = acc;
            }
        }
        if best != self.active {
            self.active = best;
            self.switches += 1;
        }
        self.selections[self.active] += 1;
        if self.obs_buf[self.active].is_some() {
            out.extend_from_slice(self.bank.suggestions(self.active));
        }
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        self.bank.on_prefetch_fill(addr);
    }

    fn on_demand_fill(&mut self, addr: u64) {
        self.bank.on_demand_fill(addr);
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        self.bank.on_evict(addr, unused_prefetch);
    }

    fn budget_bytes(&self) -> usize {
        // Bank + per-member history buffers (8 B per entry).
        self.bank.budget_bytes() + self.sandboxes.len() * self.buffer_size * 8
    }

    fn reset(&mut self) {
        self.bank.reset();
        let n = self.sandboxes.len();
        self.sandboxes = (0..n).map(|_| Sandbox::new(self.buffer_size)).collect();
        self.active = 0;
        self.selections = vec![0; n];
        self.switches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resemble_prefetch::NextLine;
    use resemble_trace::gen::{StreamGen, TraceSource};

    struct Junk;
    impl Prefetcher for Junk {
        fn name(&self) -> &'static str {
            "junk"
        }
        fn kind(&self) -> PredictionKind {
            PredictionKind::Temporal
        }
        fn on_access(&mut self, a: &MemAccess, _h: bool, out: &mut Vec<u64>) {
            out.push(a.addr ^ 0x7777_0000_0000);
        }
        fn budget_bytes(&self) -> usize {
            0
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn sandbox_accuracy_tracks_hits() {
        let mut s = Sandbox::new(4);
        s.add(10);
        s.add(20);
        s.observe(10);
        assert_eq!(s.accuracy(), 0.5);
        // Expiry drops both entry and hit.
        for b in [30, 40, 50, 60] {
            s.add(b);
        }
        assert_eq!(s.accuracy(), 0.0);
    }

    #[test]
    fn sandbox_double_observe_counts_once_per_entry() {
        let mut s = Sandbox::new(8);
        s.add(10);
        s.observe(10);
        s.observe(10); // no second unhit entry
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn sbpe_selects_the_accurate_member_on_stream() {
        let bank = PrefetcherBank::new(vec![Box::new(Junk), Box::new(NextLine::new(1))]);
        let mut sbp = SbpE::new(bank, 64);
        let mut src = StreamGen::new(1, 1, 1_000_000, 0).with_write_ratio(0.0);
        let mut out = Vec::new();
        for _ in 0..2000 {
            let a = src.next_access().unwrap();
            out.clear();
            sbp.on_access(&a, false, &mut out);
        }
        assert_eq!(sbp.active_member(), 1, "accuracies={:?}", sbp.accuracies());
        assert!(sbp.selections[1] > sbp.selections[0]);
    }

    #[test]
    fn sbpe_exhibits_response_lag() {
        // Junk-then-perfect phase change: SBP keeps the stale choice for a
        // while because the sandbox average must catch up.
        let bank = PrefetcherBank::new(vec![Box::new(NextLine::new(1)), Box::new(Junk)]);
        let mut sbp = SbpE::new(bank, 128);
        let mut src = StreamGen::new(2, 1, 1_000_000, 0).with_write_ratio(0.0);
        let mut out = Vec::new();
        // Train on the stream: member 0 (next-line) becomes active.
        for _ in 0..1000 {
            let a = src.next_access().unwrap();
            out.clear();
            sbp.on_access(&a, false, &mut out);
        }
        assert_eq!(sbp.active_member(), 0);
        // Phase change to random traffic: next-line goes stale, but the
        // incumbent must persist for some accesses (the lag).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut lag = 0;
        for i in 0..500u64 {
            let a = MemAccess::load(i, 0, rng.gen_range(0x1_0000u64..0x100_0000_0000) & !63);
            out.clear();
            sbp.on_access(&a, false, &mut out);
            if sbp.active_member() == 0 {
                lag += 1;
            }
        }
        assert!(lag > 10, "expected response lag, lag={lag}");
    }
}
