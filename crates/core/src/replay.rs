//! Replay memory with the paper's *lazy sampling* mechanism (§IV-D).
//!
//! A transition `(s_t, a_t, p_t, r_t, s_{t+1})` is pushed as soon as the
//! action is taken, but its reward arrives asynchronously from cache
//! feedback. The memory's reward ledger (`agent::ledger`, the one the
//! tabular agent uses too) assigns it: +k for k issued blocks demanded
//! within the window `W`, −1 when none is, and 0 at once for "no
//! prefetch".
//!
//! Only transitions whose reward *and* next state are known ("valid") may
//! be sampled for training — invalid transitions stay pended. This is the
//! paper's answer to the lag of cache feedback.
//!
//! **Storage layout.** States and next-states live in two flat `f32` ring
//! arrays (up to `capacity × state_dim`), not per-transition `Vec`s: a
//! push is a `copy_from_slice` into the ring (no allocation per access
//! once the ring is full), and the DQN minibatch gather reads contiguous
//! rows straight out of the arrays. The slot array and both rings grow as
//! the first lap's transitions arrive, so a new memory costs nothing
//! until it is used (a served session is built per Hello). The
//! sampleable set is maintained incrementally (swap-remove indexed by an
//! `FxHashMap`) so drawing a batch is O(batch), not an O(live) prune per
//! training step.

use crate::agent::ledger::{Reward, RewardLedger};
use resemble_nn::AlignedVec;
use resemble_trace::util::FxHashMap;

/// Per-slot transition bookkeeping; the state vectors live in the flat
/// rings owned by [`ReplayMemory`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Monotone id of the occupant; doubles as the access timestamp.
    id: u64,
    /// Action index a_t.
    action: usize,
    /// Reward r_t once finalized.
    reward: Option<f32>,
    /// `true` once s_{t+1} has been written to the next-state ring.
    has_next: bool,
}

/// Borrowed view of one stored transition: state slices point into the
/// replay's flat rings.
#[derive(Debug, Clone, Copy)]
pub struct TransitionView<'a> {
    /// Monotone id; doubles as the access timestamp (one transition per
    /// access).
    pub id: u64,
    /// Preprocessed state vector s_t.
    pub state: &'a [f32],
    /// Action index a_t.
    pub action: usize,
    /// Reward r_t once finalized.
    pub reward: Option<f32>,
    /// Next state s_{t+1} once known.
    pub next_state: Option<&'a [f32]>,
}

impl TransitionView<'_> {
    /// Sampleable: reward finalized and next state filled in.
    pub fn is_valid(&self) -> bool {
        self.reward.is_some() && self.next_state.is_some()
    }
}

/// Ring-buffer replay memory with lazy rewards and flat state storage.
#[derive(Debug)]
pub struct ReplayMemory {
    capacity: usize,
    state_dim: usize,
    /// flat `slots.len() × state_dim` ring of states s_t, 64-byte
    /// aligned for the SIMD minibatch gather
    states: AlignedVec,
    /// flat `slots.len() × state_dim` ring of next states s_{t+1}
    next_states: AlignedVec,
    /// one per slot reached so far (at most `capacity`); every one is
    /// occupied
    slots: Vec<Slot>,
    /// open rewards; numbers the transitions
    ledger: RewardLedger,
    /// currently-valid (sampleable) ids, maintained incrementally
    valid_ids: Vec<u64>,
    /// id → index into `valid_ids`, for O(1) swap-removal
    valid_pos: FxHashMap<u64, usize>,
}

impl ReplayMemory {
    /// Replay of `capacity` transitions of `state_dim`-float states with
    /// reward window `window`.
    pub fn new(capacity: usize, window: usize, state_dim: usize) -> Self {
        assert!(capacity > 0 && window > 0 && state_dim > 0);
        Self {
            capacity,
            state_dim,
            states: AlignedVec::new(),
            next_states: AlignedVec::new(),
            slots: Vec::new(),
            ledger: RewardLedger::new(window),
            valid_ids: Vec::new(),
            valid_pos: FxHashMap::default(),
        }
    }

    /// State vector width every pushed transition must match.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Number of transitions currently stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of currently-valid (sampleable) transitions.
    pub fn valid_len(&self) -> usize {
        self.valid_ids.len()
    }

    #[inline]
    fn slot_of(&self, id: u64) -> usize {
        (id % self.capacity as u64) as usize
    }

    /// Drop `id` from the sampleable set (no-op when absent): O(1)
    /// swap-remove keeping `valid_pos` consistent.
    fn unmark_valid(&mut self, id: u64) {
        if let Some(pos) = self.valid_pos.remove(&id) {
            let last = self.valid_ids.len() - 1;
            self.valid_ids.swap_remove(pos);
            if pos <= last {
                if let Some(&moved) = self.valid_ids.get(pos) {
                    self.valid_pos.insert(moved, pos);
                }
            }
        }
    }

    /// Push a new transition; returns its id. An empty `prefetch_blocks`
    /// means NP (or a padded selection): the reward is 0 immediately.
    pub fn push(&mut self, state: &[f32], action: usize, prefetch_blocks: &[u64]) -> u64 {
        assert_eq!(state.len(), self.state_dim, "state width mismatch");
        let id = self.ledger.open(prefetch_blocks);
        let slot = self.slot_of(id);
        let s = Slot {
            id,
            action,
            reward: prefetch_blocks.is_empty().then_some(0.0),
            has_next: false,
        };
        if slot == self.slots.len() {
            // First lap: grow the slots and both rings by one.
            self.slots.push(s);
            let len = self.slots.len() * self.state_dim;
            self.states.resize(len, 0.0);
            self.next_states.resize(len, 0.0);
        } else {
            // Ring lap: the previous occupant leaves the sampleable set
            // before its storage is reused.
            self.unmark_valid(self.slots[slot].id);
            self.slots[slot] = s;
        }
        self.states[slot * self.state_dim..(slot + 1) * self.state_dim].copy_from_slice(state);
        id
    }

    /// Fill in s_{t+1} for transition `id` (called at t+1 with the fresh
    /// state).
    pub fn set_next_state(&mut self, id: u64, next_state: &[f32]) {
        assert_eq!(next_state.len(), self.state_dim, "state width mismatch");
        let slot = self.slot_of(id);
        if self.slots.get(slot).is_some_and(|s| s.id == id) {
            self.next_states[slot * self.state_dim..(slot + 1) * self.state_dim]
                .copy_from_slice(next_state);
            let s = &mut self.slots[slot];
            let newly_valid = !s.has_next && s.reward.is_some();
            s.has_next = true;
            if newly_valid {
                self.valid_pos.insert(id, self.valid_ids.len());
                self.valid_ids.push(id);
            }
        }
    }

    /// Process a demand access to `block`: `assigned` receives the
    /// `(id, reward)` pairs the access assigns — +1 for each hit credited
    /// to a transition that prefetched `block` (the paper's per-hit
    /// feedback), then −1 for each transition that left the window
    /// without a hit. A transition becomes sampleable once its reward is
    /// final and its next state known. Reports about a transition whose
    /// slot a later push reused are dropped.
    pub fn on_access(&mut self, block: u64, assigned: &mut Vec<(u64, f32)>) {
        assigned.clear();
        let capacity = self.capacity as u64;
        self.ledger.on_access(block, |id, r| {
            let s = &mut self.slots[(id % capacity) as usize];
            if s.id != id {
                return;
            }
            match r {
                Reward::Hit => assigned.push((id, 1.0)),
                Reward::Final(r) => {
                    if r < 0.0 {
                        assigned.push((id, r));
                    }
                    s.reward = Some(r);
                    if s.has_next {
                        self.valid_pos.insert(id, self.valid_ids.len());
                        self.valid_ids.push(id);
                    }
                }
            }
        });
    }

    /// Lazy sampling: draw up to `batch` ids uniformly (with replacement)
    /// from the valid transitions into `out`, reusing its allocation.
    /// Leaves fewer than `batch` when fewer are valid.
    pub fn sample_into(&self, batch: usize, rng: &mut impl rand::Rng, out: &mut Vec<u64>) {
        out.clear();
        let n = self.valid_ids.len();
        if n == 0 {
            return;
        }
        let take = batch.min(n);
        out.extend((0..take).map(|_| self.valid_ids[rng.gen_range(0..n)]));
    }

    /// Fetch a transition view by id (None if overwritten or not yet
    /// pushed).
    pub fn get(&self, id: u64) -> Option<TransitionView<'_>> {
        let slot = self.slot_of(id);
        let s = self.slots.get(slot).filter(|s| s.id == id)?;
        let range = slot * self.state_dim..(slot + 1) * self.state_dim;
        Some(TransitionView {
            id,
            state: &self.states[range.clone()],
            action: s.action,
            reward: s.reward,
            next_state: if s.has_next {
                Some(&self.next_states[range])
            } else {
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn st(v: f32) -> Vec<f32> {
        vec![v; 4]
    }

    #[test]
    fn np_transitions_reward_zero_immediately() {
        let mut m = ReplayMemory::new(16, 4, 4);
        let id = m.push(&st(0.0), 4, &[]);
        assert_eq!(m.get(id).unwrap().reward, Some(0.0));
        assert!(!m.get(id).unwrap().is_valid(), "needs next state too");
        m.set_next_state(id, &st(1.0));
        assert!(m.get(id).unwrap().is_valid());
        assert_eq!(m.valid_len(), 1);
    }

    #[test]
    fn single_block_hit_finalizes_plus_one() {
        let mut m = ReplayMemory::new(16, 4, 4);
        let id = m.push(&st(0.0), 0, &[0x99]);
        m.set_next_state(id, &st(1.0));
        let mut assigned = Vec::new();
        m.push(&st(1.0), 4, &[]); // advance time
        m.on_access(0x99, &mut assigned);
        assert_eq!(assigned, vec![(id, 1.0)]);
        assert_eq!(m.get(id).unwrap().reward, Some(1.0));
    }

    #[test]
    fn multi_block_hits_accumulate() {
        let mut m = ReplayMemory::new(64, 8, 4);
        let id = m.push(&st(0.0), 1, &[0x10, 0x11, 0x12]);
        m.set_next_state(id, &st(0.5));
        let mut a = Vec::new();
        m.on_access(0x10, &mut a);
        assert_eq!(a, vec![(id, 1.0)]);
        assert!(
            m.get(id).unwrap().reward.is_none(),
            "not final until all hit or expiry"
        );
        m.on_access(0x12, &mut a);
        m.on_access(0x11, &mut a);
        assert_eq!(
            m.get(id).unwrap().reward,
            Some(3.0),
            "all blocks hit finalizes at +3"
        );
    }

    #[test]
    fn partial_hits_finalize_at_expiry_with_hit_count() {
        let mut m = ReplayMemory::new(64, 3, 4);
        let id = m.push(&st(0.0), 1, &[0x10, 0x11]);
        m.set_next_state(id, &st(0.5));
        let mut a = Vec::new();
        m.on_access(0x10, &mut a); // one of two hits
        for i in 0..5 {
            m.push(&st(i as f32), 4, &[]);
            m.on_access(0x1000 + i, &mut a);
        }
        assert_eq!(m.get(id).unwrap().reward, Some(1.0));
    }

    #[test]
    fn expiry_without_hits_rewards_minus_one() {
        let mut m = ReplayMemory::new(64, 4, 4);
        let id = m.push(&st(0.0), 0, &[0x99]);
        m.set_next_state(id, &st(1.0));
        let mut assigned = Vec::new();
        for i in 0..5 {
            m.push(&st(i as f32), 4, &[]);
            m.on_access(0x1 + i, &mut assigned);
        }
        assert_eq!(m.get(id).unwrap().reward, Some(-1.0));
    }

    #[test]
    fn hit_after_expiry_does_not_change_reward() {
        let mut m = ReplayMemory::new(64, 2, 4);
        let id = m.push(&st(0.0), 0, &[0x42]);
        let mut a = Vec::new();
        for i in 0..4 {
            m.push(&st(i as f32), 4, &[]);
            m.on_access(0x1000 + i, &mut a);
        }
        assert_eq!(m.get(id).unwrap().reward, Some(-1.0));
        m.on_access(0x42, &mut a);
        assert_eq!(m.get(id).unwrap().reward, Some(-1.0));
    }

    #[test]
    fn only_valid_transitions_sampled() {
        let mut m = ReplayMemory::new(64, 8, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let v = m.push(&st(0.0), 4, &[]);
        m.set_next_state(v, &st(0.5));
        let p = m.push(&st(1.0), 0, &[0x7]);
        m.set_next_state(p, &st(1.5));
        let mut ids = Vec::new();
        m.sample_into(10, &mut rng, &mut ids);
        assert!(!ids.is_empty());
        assert!(
            ids.iter().all(|&i| i == v),
            "pending transition must not be sampled: {ids:?}"
        );
    }

    #[test]
    fn ring_overwrite_invalidates_old_ids() {
        let mut m = ReplayMemory::new(4, 2, 4);
        let first = m.push(&st(0.0), 4, &[]);
        m.set_next_state(first, &st(0.1));
        for i in 0..8 {
            let id = m.push(&st(i as f32), 4, &[]);
            m.set_next_state(id, &st(0.2));
        }
        assert!(m.get(first).is_none(), "overwritten");
        let mut rng = StdRng::seed_from_u64(2);
        let mut ids = Vec::new();
        m.sample_into(16, &mut rng, &mut ids);
        assert!(ids.iter().all(|&i| m.get(i).is_some()));
        assert!(m.valid_len() <= 4);
    }

    #[test]
    fn multiple_pending_same_block_all_credited() {
        let mut m = ReplayMemory::new(32, 8, 4);
        let a = m.push(&st(0.0), 0, &[0x5]);
        let b = m.push(&st(1.0), 1, &[0x5]);
        m.set_next_state(a, &st(0.1));
        m.set_next_state(b, &st(0.2));
        let mut assigned = Vec::new();
        m.on_access(0x5, &mut assigned);
        assert_eq!(assigned.len(), 2);
        assert_eq!(m.get(a).unwrap().reward, Some(1.0));
        assert_eq!(m.get(b).unwrap().reward, Some(1.0));
    }

    #[test]
    fn fresh_memory_has_no_transition_at_unreached_slots() {
        let mut m = ReplayMemory::new(8, 4, 4);
        assert_eq!(m.len(), 0);
        assert!(m.get(0).is_none() && m.get(5).is_none());
        let id = m.push(&st(1.0), 0, &[]);
        assert!(m.get(id).is_some());
        assert!(m.get(3).is_none(), "slot 3 was never reached");
        assert!(
            m.get(id + 8).is_none(),
            "a later lap's id is not stored yet"
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn len_and_is_empty() {
        let mut m = ReplayMemory::new(8, 4, 4);
        assert!(m.is_empty());
        m.push(&st(0.0), 0, &[]);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn flat_ring_state_roundtrip_and_views() {
        let mut m = ReplayMemory::new(8, 4, 3);
        assert_eq!(m.state_dim(), 3);
        let id = m.push(&[0.1, 0.2, 0.3], 2, &[0x9]);
        let t = m.get(id).unwrap();
        assert_eq!(t.state, &[0.1, 0.2, 0.3]);
        assert_eq!(t.action, 2);
        assert!(t.next_state.is_none());
        m.set_next_state(id, &[0.4, 0.5, 0.6]);
        assert_eq!(m.get(id).unwrap().next_state, Some(&[0.4, 0.5, 0.6][..]));
    }

    #[test]
    fn sample_into_reuses_buffer_without_allocation_growth() {
        let mut m = ReplayMemory::new(64, 4, 2);
        for i in 0..32 {
            let id = m.push(&[i as f32, 0.0], 2, &[]);
            m.set_next_state(id, &[0.0, 0.0]);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = Vec::new();
        m.sample_into(16, &mut rng, &mut buf);
        assert_eq!(buf.len(), 16);
        let cap = buf.capacity();
        for _ in 0..100 {
            m.sample_into(16, &mut rng, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "steady-state sampling must not grow");
        assert!(buf.iter().all(|&id| m.get(id).unwrap().is_valid()));
    }

    #[test]
    fn valid_set_stays_consistent_under_ring_churn() {
        let mut m = ReplayMemory::new(8, 3, 2);
        let mut assigned = Vec::new();
        for i in 0..200u64 {
            let blocks = if i % 3 == 0 { vec![i % 16] } else { vec![] };
            let id = m.push(&[i as f32, 1.0], (i % 3) as usize, &blocks);
            m.set_next_state(id, &[0.5, 0.5]);
            m.on_access(i % 16, &mut assigned);
            assert!(m.valid_len() <= 8);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let mut ids = Vec::new();
        m.sample_into(64, &mut rng, &mut ids);
        for id in ids {
            assert!(m.get(id).unwrap().is_valid());
        }
    }

    /// FNV-1a over the little-endian bytes of one 64-bit word.
    fn fnv_word(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Drive a memory of `capacity` slots and reward window `window`
    /// through a seeded stream of `push`, `set_next_state`, `on_access`
    /// and `sample_into` calls. Returns a digest of every observable (the
    /// pushed ids, every `assigned` pair, `valid_len` after each call, the
    /// sampled ids and the reward of each transition still stored at the
    /// end) and how often each edge case came up: pushes with a duplicate
    /// block, multi-block pushes, NP pushes, accesses to a block that an
    /// earlier access consumed (no push listed it since), and pushes that
    /// reuse the slot of a transition whose reward is still open.
    fn pinned_run(window: usize, capacity: usize, seed: u64, steps: u64) -> (u64, [u32; 5]) {
        let mut m = ReplayMemory::new(capacity, window, 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4e91_a7c0_5eed_0000);
        let mut sample_rng = StdRng::seed_from_u64(seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut cases = [0u32; 5];
        let mut consumed = [false; 20];
        let (mut assigned, mut ids, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
        let mut pushed = 0u64;
        for step in 0..steps {
            match rng.gen_range(0..16u32) {
                0..=5 => {
                    let block = rng.gen_range(0..20u64);
                    cases[3] += u32::from(consumed[block as usize]);
                    m.on_access(block, &mut assigned);
                    consumed[block as usize] |= assigned.iter().any(|&(_, r)| r > 0.0);
                    fnv_word(&mut h, assigned.len() as u64);
                    for &(id, r) in &assigned {
                        fnv_word(&mut h, id);
                        fnv_word(&mut h, r.to_bits() as u64);
                    }
                }
                6..=11 => {
                    blocks.clear();
                    if rng.gen_bool(0.25) {
                        cases[2] += 1;
                    } else {
                        for _ in 0..rng.gen_range(1..=3usize) {
                            blocks.push(rng.gen_range(0..16u64));
                        }
                        cases[1] += u32::from(blocks.len() > 1);
                        cases[0] +=
                            u32::from((1..blocks.len()).any(|i| blocks[..i].contains(&blocks[i])));
                        for &b in &blocks {
                            consumed[b as usize] = false;
                        }
                    }
                    let cap = capacity as u64;
                    if pushed >= cap && m.get(pushed - cap).is_some_and(|t| t.reward.is_none()) {
                        cases[4] += 1;
                    }
                    let id = m.push(&[step as f32, 0.5], rng.gen_range(0..5), &blocks);
                    fnv_word(&mut h, id);
                    pushed += 1;
                }
                12..=14 => {
                    // Mostly the newest push; sometimes an older, possibly
                    // overwritten one.
                    if pushed > 0 {
                        let back = if rng.gen_bool(0.75) {
                            1
                        } else {
                            rng.gen_range(1..=pushed.min(2 * capacity as u64))
                        };
                        m.set_next_state(pushed - back, &[step as f32, 1.5]);
                    }
                }
                _ => {
                    m.sample_into(rng.gen_range(1..=8), &mut sample_rng, &mut ids);
                    fnv_word(&mut h, ids.len() as u64);
                    for &id in &ids {
                        fnv_word(&mut h, id);
                    }
                }
            }
            fnv_word(&mut h, m.valid_len() as u64);
        }
        for id in pushed.saturating_sub(capacity as u64)..pushed {
            let t = m.get(id).expect("the last `capacity` pushes are stored");
            fnv_word(&mut h, t.reward.map_or(u64::MAX, |r| r.to_bits() as u64));
        }
        (h, cases)
    }

    /// Pins the memory's observable behaviour bit for bit across seeds,
    /// windows and capacities (above the window and equal to it): a
    /// change to reward crediting, expiry, slot reuse or the order of the
    /// sampleable set moves a digest.
    #[test]
    fn seeded_runs_match_pinned_digests() {
        let pinned: [(usize, usize, u64); 6] = [
            (3, 3, 0xef39_2e2c_ab0f_2e3a),
            (3, 16, 0x9cd8_296d_8b34_3886),
            (8, 8, 0xc08f_d6d6_33d6_58a1),
            (8, 40, 0xf6ea_2b02_c2da_e350),
            (256, 256, 0xc6fa_5fcd_32da_e5a6),
            (256, 400, 0x73ba_e1af_92f4_b343),
        ];
        let mut cases = [0u32; 5];
        for (window, capacity, want) in pinned {
            let mut h = 0u64;
            for seed in 1..=3 {
                let (d, c) = pinned_run(window, capacity, seed, 3_000);
                fnv_word(&mut h, d);
                for (total, n) in cases.iter_mut().zip(c) {
                    *total += n;
                }
            }
            assert_eq!(
                h, want,
                "window {window}, capacity {capacity}: digest {h:#018x}"
            );
        }
        assert!(cases.iter().all(|&n| n > 0), "edge cases {cases:?}");
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn push_checks_state_width() {
        let mut m = ReplayMemory::new(8, 4, 4);
        let _ = m.push(&[0.0; 3], 0, &[]);
    }
}
