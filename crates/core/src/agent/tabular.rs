//! Tabular Q-learning ensemble agent (paper §IV-F, Fig 5).
//!
//! States are hashed (4- or 8-bit per element, Eq. 12) and *tokenized*:
//! because the hashed state space is sparse, unique state vectors map to
//! dense row indices of the Q-table, compressing `2^{BS}·A` theoretical
//! entries down to `A · #unique-states` (Table IV). The table is one flat
//! `f32` array holding row `token` at `token·A .. (token+1)·A`.
//!
//! Rewards arrive lazily through a pending buffer (no replay memory
//! needed: each transition performs exactly one Q update once its reward
//! and next state are known, Eq. 13). The buffer keeps the same
//! bookkeeping as [`ReplayMemory`](crate::replay::ReplayMemory), so an
//! access costs O(1) amortized rather than a scan of up to 2W entries:
//!
//! - Transitions get monotone ids and are stored in id order, so
//!   transition `id` sits at index `id - base_id`.
//! - An expiry cursor remembers how far the reward horizon (`W` records
//!   back) has swept; an access finalizes only the ids that crossed it
//!   since the previous access.
//! - A transition is queued the moment its reward and next token are both
//!   known, and each call applies only what it queued.
//!
//! Update order is part of the result: Eq. 13 updates that share a Q row
//! do not commute, so the transitions that become ready within one call
//! are applied in ascending id order.

use crate::config::ResembleConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resemble_trace::util::FxHashMap;
use std::collections::VecDeque;

/// A pending transition awaiting reward and/or next state.
#[derive(Debug, Clone)]
struct Pending {
    token: u32,
    action: usize,
    /// Issued prefetch blocks while the reward is open (empty for NP);
    /// returned to the spare pool once it is final.
    blocks: Vec<u64>,
    hits: u32,
    reward: Option<f32>,
    next_token: Option<u32>,
}

/// Tabular Q-learning agent with state tokenization.
pub struct TabularAgent {
    cfg: ResembleConfig,
    /// hash bits per state element (4 or 8 in the paper)
    hash_bits: u32,
    /// state-vector key → token
    tokens: FxHashMap<u64, u32>,
    /// Q-table: `action_dim` values per token, row-major
    q: Vec<f32>,
    /// transitions in id order; `pending[i]` has id `base_id + i`
    pending: VecDeque<Pending>,
    base_id: u64,
    /// lowest id the expiry sweep has not passed yet
    expire_next: u64,
    /// block → ids of open transitions that prefetched it
    by_block: FxHashMap<u64, Vec<u64>>,
    /// cleared vectors reused by `by_block` and `Pending::blocks`
    spare: Vec<Vec<u64>>,
    /// ids that became ready (reward and next token known) this call
    ready: Vec<u64>,
    next_id: u64,
    rng: StdRng,
    step: u64,
    /// Q updates performed
    pub updates: u64,
}

impl TabularAgent {
    /// Build a tabular agent; `hash_bits` is B in Table IV (4 or 8).
    pub fn new(cfg: ResembleConfig, hash_bits: u32, seed: u64) -> Self {
        assert!(hash_bits > 0 && hash_bits <= 16);
        Self {
            cfg,
            hash_bits,
            tokens: FxHashMap::default(),
            q: Vec::new(),
            pending: VecDeque::new(),
            base_id: 0,
            expire_next: 0,
            by_block: FxHashMap::default(),
            spare: Vec::new(),
            ready: Vec::new(),
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            updates: 0,
        }
    }

    /// Hash bits per state element.
    pub fn hash_bits(&self) -> u32 {
        self.hash_bits
    }

    /// Number of unique states tokenized so far (Table IV "token" rows).
    pub fn unique_states(&self) -> usize {
        self.tokens.len()
    }

    /// Q-table entries currently allocated (`A × unique states`).
    pub fn table_entries(&self) -> usize {
        self.q.len()
    }

    /// Current ε.
    pub fn epsilon(&self) -> f64 {
        self.cfg.epsilon(self.step)
    }

    /// Map a hashed state vector to its dense token, allocating on first
    /// sight (the Fig 5 "Mapping" stage).
    pub fn tokenize(&mut self, state: &[u16]) -> u32 {
        let mut key = 0xcbf2_9ce4_8422_2325u64;
        for &e in state {
            key = (key ^ e as u64).wrapping_mul(0x1000_0000_01b3);
        }
        match self.tokens.get(&key) {
            Some(&t) => t,
            None => {
                let t = self.tokens.len() as u32;
                self.tokens.insert(key, t);
                self.q.resize(self.q.len() + self.cfg.action_dim, 0.0);
                t
            }
        }
    }

    /// ε-greedy action for a token; ties (notably the all-zero rows of
    /// freshly tokenized states) are broken uniformly at random.
    pub fn select_action(&mut self, token: u32) -> usize {
        let eps = self.cfg.epsilon(self.step);
        self.step += 1;
        let a = self.cfg.action_dim;
        if self.rng.gen_bool(eps) {
            self.rng.gen_range(0..a)
        } else {
            let row = &self.q[token as usize * a..][..a];
            let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let ties = row.iter().filter(|&&v| v == best).count();
            let mut pick = self.rng.gen_range(0..ties);
            row.iter()
                .position(|&v| {
                    if v == best {
                        if pick == 0 {
                            return true;
                        }
                        pick -= 1;
                    }
                    false
                })
                .expect("at least one maximum")
        }
    }

    /// Greedy action for a token (deterministic, ties to the lowest index).
    pub fn greedy_action(&self, token: u32) -> usize {
        let row = self.q_row(token);
        let mut best = 0;
        for i in 1..row.len() {
            if row[i] > row[best] {
                best = i;
            }
        }
        best
    }

    /// Q-value row for a token (for inspection/tests).
    pub fn q_row(&self, token: u32) -> &[f32] {
        let a = self.cfg.action_dim;
        &self.q[token as usize * a..][..a]
    }

    /// Record a taken transition; empty `prefetch_blocks` = NP (reward 0).
    /// Like the replay memory, the reward is the number of issued blocks
    /// demanded within the window (or −1 when none is).
    pub fn record(&mut self, token: u32, action: usize, prefetch_blocks: &[u64]) {
        let id = self.next_id;
        self.next_id += 1;
        let (reward, blocks) = if prefetch_blocks.is_empty() {
            (Some(0.0), Vec::new())
        } else {
            let mut blocks = self.spare.pop().unwrap_or_default();
            blocks.extend_from_slice(prefetch_blocks);
            (None, blocks)
        };
        self.pending.push_back(Pending {
            token,
            action,
            blocks,
            hits: 0,
            reward,
            next_token: None,
        });
        for &b in prefetch_blocks {
            let spare = &mut self.spare;
            self.by_block
                .entry(b)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(id);
        }
        // Bound the buffer: entries older than the reward window that were
        // already applied can go. A transition is applied by the call that
        // completes its reward and next token, so between calls "applied"
        // is "both known".
        while self.pending.len() > 2 * self.cfg.window
            && self
                .pending
                .front()
                .is_some_and(|p| p.reward.is_some() && p.next_token.is_some())
        {
            self.pending.pop_front();
            self.base_id += 1;
        }
    }

    /// Fill in the next-state token for the most recent transition.
    pub fn set_next_token(&mut self, next_token: u32) {
        // The most recent pending entry without a next token is the one
        // recorded at t-1; in `ResembleTabular`'s call order it is the
        // newest entry, so the search stops at once.
        if let Some((i, p)) = self
            .pending
            .iter_mut()
            .enumerate()
            .rev()
            .find(|(_, p)| p.next_token.is_none())
        {
            p.next_token = Some(next_token);
            if p.reward.is_some() {
                self.ready.push(self.base_id + i as u64);
            }
        }
        self.apply_ready();
    }

    /// Process a demand access: credits hits to pending prefetches of
    /// `block`, finalizes entries older than the window (+hits or −1) —
    /// the lazy-sampling analogue. `assigned` receives the +1 hit credits
    /// in `block`'s list order, then the −1 expiries in id order.
    pub fn on_access(&mut self, block: u64, assigned: &mut Vec<f32>) {
        assigned.clear();
        if let Some(mut ids) = self.by_block.remove(&block) {
            for &id in &ids {
                // Ids below `base_id` have left the buffer.
                let Some(p) = id
                    .checked_sub(self.base_id)
                    .and_then(|i| self.pending.get_mut(i as usize))
                else {
                    continue;
                };
                if p.reward.is_none() {
                    p.hits += 1;
                    assigned.push(1.0);
                    if p.hits as usize >= p.blocks.len() {
                        p.reward = Some(p.hits as f32);
                        recycle(&mut self.spare, std::mem::take(&mut p.blocks));
                        if p.next_token.is_some() {
                            self.ready.push(id);
                        }
                    }
                }
            }
            ids.clear();
            self.spare.push(ids);
        }
        let horizon = self.next_id.saturating_sub(self.cfg.window as u64);
        self.expire_next = self.expire_next.max(self.base_id);
        while self.expire_next < horizon {
            let id = self.expire_next;
            self.expire_next += 1;
            let p = &mut self.pending[(id - self.base_id) as usize];
            if p.reward.is_some() {
                continue;
            }
            p.reward = Some(if p.hits > 0 { p.hits as f32 } else { -1.0 });
            if p.hits == 0 {
                assigned.push(-1.0);
            }
            if p.next_token.is_some() {
                self.ready.push(id);
            }
            // Drop the stale `by_block` references.
            let blocks = std::mem::take(&mut p.blocks);
            for b in &blocks {
                if let Some(ids) = self.by_block.get_mut(b) {
                    ids.retain(|&x| x != id);
                    if ids.is_empty() {
                        let ids = self.by_block.remove(b).expect("key just read");
                        self.spare.push(ids);
                    }
                }
            }
            recycle(&mut self.spare, blocks);
        }
        self.apply_ready();
    }

    /// Apply Eq. 13 to the transitions queued in `ready`, in ascending id
    /// order.
    fn apply_ready(&mut self) {
        self.ready.sort_unstable();
        let a = self.cfg.action_dim;
        let alpha = self.cfg.learning_rate;
        let gamma = self.cfg.gamma;
        for &id in &self.ready {
            let p = &self.pending[(id - self.base_id) as usize];
            let (Some(reward), Some(next_token)) = (p.reward, p.next_token) else {
                unreachable!("queued transition {id} lacks its reward or next token");
            };
            let max_next = self.q[next_token as usize * a..][..a]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let row = &mut self.q[p.token as usize * a..][..a];
            let qsa = row[p.action];
            row[p.action] = qsa + alpha * (reward + gamma * max_next - qsa);
        }
        self.updates += self.ready.len() as u64;
        self.ready.clear();
    }
}

/// Return a vector to the spare pool, emptied.
fn recycle(spare: &mut Vec<Vec<u64>>, mut v: Vec<u64>) {
    v.clear();
    spare.push(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ResembleConfig {
        ResembleConfig {
            state_dim: 2,
            action_dim: 3,
            window: 8,
            eps_start: 0.5,
            eps_end: 0.0,
            eps_decay: 20.0,
            learning_rate: 0.3,
            ..ResembleConfig::default()
        }
    }

    #[test]
    fn tokenization_is_stable_and_dense() {
        let mut a = TabularAgent::new(cfg(), 8, 1);
        let t1 = a.tokenize(&[3, 200]);
        let t2 = a.tokenize(&[5, 7]);
        let t1b = a.tokenize(&[3, 200]);
        assert_eq!(t1, t1b);
        assert_ne!(t1, t2);
        assert_eq!(a.unique_states(), 2);
        assert_eq!(a.table_entries(), 6);
    }

    #[test]
    fn q_update_applies_eq13() {
        let mut a = TabularAgent::new(cfg(), 8, 1);
        let s = a.tokenize(&[1, 1]);
        let s2 = a.tokenize(&[2, 2]);
        a.record(s, 0, &[0x9]);
        a.set_next_token(s2);
        let mut rewards = Vec::new();
        a.on_access(0x9, &mut rewards); // hit: r = +1
        assert_eq!(rewards, vec![1.0]);
        // Q(s,0) = 0 + 0.3 * (1 + 0.9*0 - 0) = 0.3
        assert!((a.q_row(s)[0] - 0.3).abs() < 1e-6);
        assert_eq!(a.updates, 1);
    }

    #[test]
    fn expiry_gives_negative_reward() {
        let mut a = TabularAgent::new(cfg(), 8, 1);
        let s = a.tokenize(&[1, 1]);
        a.record(s, 1, &[0x42]);
        a.set_next_token(s);
        let mut rewards = Vec::new();
        // Push the horizon past the window with NP records.
        for _ in 0..10 {
            a.record(s, 2, &[]);
            a.set_next_token(s);
            a.on_access(0x1, &mut rewards);
        }
        assert!(a.q_row(s)[1] < 0.0, "q={:?}", a.q_row(s));
    }

    #[test]
    fn np_action_rewards_zero() {
        let mut a = TabularAgent::new(cfg(), 8, 1);
        let s = a.tokenize(&[1, 1]);
        a.record(s, 2, &[]);
        a.set_next_token(s);
        // r=0, maxQ(s')=0 → Q stays 0.
        assert_eq!(a.q_row(s)[2], 0.0);
        assert_eq!(a.updates, 1);
    }

    #[test]
    fn learns_dominant_action_greedily() {
        let mut a = TabularAgent::new(cfg(), 8, 3);
        let s = a.tokenize(&[7, 7]);
        let mut rewards = Vec::new();
        for _ in 0..200 {
            let act = a.select_action(s);
            let blocks: &[u64] = match act {
                0 => &[0xA], // will hit
                1 => &[0xB], // will expire
                _ => &[],
            };
            a.record(s, act, blocks);
            a.set_next_token(s);
            a.on_access(0xA, &mut rewards);
        }
        assert_eq!(a.greedy_action(s), 0, "q={:?}", a.q_row(s));
    }

    #[test]
    fn pending_buffer_stays_bounded() {
        let mut a = TabularAgent::new(cfg(), 8, 1);
        let s = a.tokenize(&[1, 2]);
        let mut r = Vec::new();
        for i in 0..1000u64 {
            a.record(s, 0, &[0x1000 + i]);
            a.set_next_token(s);
            a.on_access(0x1, &mut r);
        }
        assert!(
            a.pending.len() <= 2 * cfg().window + 4,
            "len={}",
            a.pending.len()
        );
    }

    /// FNV-1a over the little-endian bytes of one 64-bit word.
    fn fnv_word(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Drive an agent through a seeded sequence of the calls
    /// `ResembleTabular` makes: one demand access and one record per step,
    /// with `on_access` randomly before or after `set_next_token`. Returns
    /// a digest of every observable (actions, `assigned` rewards,
    /// `updates`, `unique_states`, the bits of every Q row) and how often
    /// each edge case came up: records with a duplicate block, multi-block
    /// records, NP records, and accesses to a block whose last prefetching
    /// record is more than 2W records old (every entry that could have
    /// been credited has expired and may have left the buffer).
    fn pinned_run(window: usize, seed: u64, steps: u64) -> (u64, [u32; 4]) {
        let cfg = ResembleConfig {
            state_dim: 2,
            action_dim: 4,
            window,
            eps_start: 1.0,
            eps_end: 0.1,
            eps_decay: 300.0,
            learning_rate: 0.3,
            ..ResembleConfig::default()
        };
        let mut a = TabularAgent::new(cfg, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1_e5ee_d000_0000);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut cases = [0u32; 4];
        let mut last_prefetched: FxHashMap<u64, u64> = FxHashMap::default();
        let mut assigned = Vec::new();
        let mut blocks = Vec::new();
        for step in 0..steps {
            let block = rng.gen_range(0..20u64);
            if let Some(&s) = last_prefetched.get(&block) {
                if step - s > 2 * window as u64 {
                    cases[3] += 1;
                }
            }
            let state = [rng.gen_range(0..5u16), rng.gen_range(0..4u16)];
            let access_first = rng.gen_bool(0.5);
            if access_first {
                a.on_access(block, &mut assigned);
            }
            let token = a.tokenize(&state);
            a.set_next_token(token);
            if !access_first {
                a.on_access(block, &mut assigned);
            }
            fnv_word(&mut h, assigned.len() as u64);
            for r in &assigned {
                fnv_word(&mut h, r.to_bits() as u64);
            }
            let action = a.select_action(token);
            fnv_word(&mut h, action as u64);
            blocks.clear();
            if action == cfg.action_dim - 1 {
                cases[2] += 1;
            } else {
                for _ in 0..rng.gen_range(1..=3usize) {
                    blocks.push(rng.gen_range(0..16u64));
                }
                cases[1] += u32::from(blocks.len() > 1);
                cases[0] += u32::from((1..blocks.len()).any(|i| blocks[..i].contains(&blocks[i])));
                for &b in &blocks {
                    last_prefetched.insert(b, step);
                }
            }
            a.record(token, action, &blocks);
            fnv_word(&mut h, a.updates);
        }
        fnv_word(&mut h, a.unique_states() as u64);
        for t in 0..a.unique_states() as u32 {
            for v in a.q_row(t) {
                fnv_word(&mut h, v.to_bits() as u64);
            }
        }
        (h, cases)
    }

    /// Pins the agent's observable behaviour bit for bit across seeds and
    /// windows: a change to update order, reward crediting, RNG draws or
    /// token numbering moves a digest.
    #[test]
    fn seeded_runs_match_pinned_digests() {
        let pinned: [(usize, u64); 3] = [
            (3, 0xaf81_41e2_f732_fba5),
            (8, 0xa854_36e2_0b34_b5bb),
            (256, 0x5aa6_1f29_42ba_46cc),
        ];
        let mut cases = [0u32; 4];
        for (window, want) in pinned {
            let mut h = 0u64;
            for seed in 1..=3 {
                let (d, c) = pinned_run(window, seed, 2_000);
                fnv_word(&mut h, d);
                for (total, n) in cases.iter_mut().zip(c) {
                    *total += n;
                }
            }
            assert_eq!(h, want, "window {window}: digest {h:#018x}");
        }
        assert!(cases.iter().all(|&n| n > 0), "edge cases {cases:?}");
    }

    #[test]
    fn four_bit_hash_yields_fewer_unique_states() {
        // Same stream of states hashed at 4 vs 8 bits: 4-bit must coarsen.
        use crate::preprocess::fold_hash;
        let mut a4 = TabularAgent::new(cfg(), 4, 1);
        let mut a8 = TabularAgent::new(cfg(), 8, 1);
        for i in 0..500u64 {
            let raw = [i * 77, i * 131 + 5];
            let s4: Vec<u16> = raw.iter().map(|&v| fold_hash(v, 4) as u16).collect();
            let s8: Vec<u16> = raw.iter().map(|&v| fold_hash(v, 8) as u16).collect();
            a4.tokenize(&s4);
            a8.tokenize(&s8);
        }
        assert!(a4.unique_states() < a8.unique_states());
        assert!(a4.unique_states() <= 256); // 2^(4*2)
    }
}
