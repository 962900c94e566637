//! Lazy reward assignment (§IV-D): the one copy of the rule, shared by
//! [`ReplayMemory`](crate::replay::ReplayMemory) and
//! [`TabularAgent`](super::tabular::TabularAgent).
//!
//! The paper's reward is ±1 on the single issued prefetch. Our ensemble
//! actions issue the selected member's *full* suggestion list (see
//! `PrefetcherBank::suggestions`), so the reward generalizes to the number
//! of issued blocks demanded within the window `W` (+k), or −1 when none
//! is. That is the paper's ±1 when every member suggests a single address,
//! and it aligns the learning signal with the coverage the evaluation
//! reports. A transition stays open until every issued block has been
//! demanded or `W` later transitions have opened; "no prefetch" (NP)
//! issues nothing, so its reward, 0, is known at once. A block listed
//! twice counts twice, and the first demand access to a block consumes
//! every open entry for it.
//!
//! The bookkeeping is O(1) amortized per access: transitions sit in id
//! order at `id − base`, the `W` horizon pops them off the front, and the
//! block index recycles its vectors instead of allocating per access.

use resemble_trace::util::FxHashMap;
use std::collections::VecDeque;

/// What a demand access reports about one open transition.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reward {
    /// One of its issued blocks was demanded: +1.
    Hit,
    /// Its reward is final: +hits, or −1 when it expired without a hit.
    Final(f32),
}

/// The open transitions, their issued blocks and the `W` horizon.
#[derive(Debug)]
pub(crate) struct RewardLedger {
    window: usize,
    /// `(blocks, hits)` of transition `base + i`; `blocks` is emptied once
    /// the reward is final (and is empty from the start for NP)
    open: VecDeque<(Vec<u64>, u32)>,
    base: u64,
    /// block → ids of open transitions that issued it
    by_block: FxHashMap<u64, Vec<u64>>,
    /// cleared vectors reused by `by_block` and `open`
    spare: Vec<Vec<u64>>,
}

impl RewardLedger {
    /// An empty ledger with reward window `window`.
    pub(crate) fn new(window: usize) -> Self {
        Self {
            window,
            open: VecDeque::new(),
            base: 0,
            by_block: FxHashMap::default(),
            spare: Vec::new(),
        }
    }

    /// Start the next transition, which issued `blocks` (empty for NP),
    /// and return its id. Ids count up from 0 and double as timestamps.
    pub(crate) fn open(&mut self, blocks: &[u64]) -> u64 {
        let id = self.base + self.open.len() as u64;
        let mut own = match blocks {
            [] => Vec::new(),
            _ => self.spare.pop().unwrap_or_default(),
        };
        own.extend_from_slice(blocks);
        for &b in blocks {
            let spare = &mut self.spare;
            self.by_block
                .entry(b)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(id);
        }
        self.open.push_back((own, 0));
        id
    }

    /// Process a demand access to `block`, calling `report` in the order
    /// things happen: a [`Reward::Hit`] for each open entry of `block`, in
    /// the order the block's index lists them, with the [`Reward::Final`]
    /// of a transition right after the hit that completes it; then a
    /// [`Reward::Final`] for each transition the `W` horizon passes, in id
    /// order.
    pub(crate) fn on_access(&mut self, block: u64, mut report: impl FnMut(u64, Reward)) {
        if let Some(ids) = self.by_block.remove(&block) {
            for &id in &ids {
                let (blocks, hits) = &mut self.open[(id - self.base) as usize];
                *hits += 1;
                report(id, Reward::Hit);
                if *hits as usize == blocks.len() {
                    report(id, Reward::Final(*hits as f32));
                    recycle(&mut self.spare, std::mem::take(blocks));
                }
            }
            recycle(&mut self.spare, ids);
        }
        // One `pop_front` per expired transition: a `drain` of the usual
        // zero or one entries cost the tabular agent ~5% per access.
        while self.open.len() > self.window {
            let (blocks, hits) = self.open.pop_front().expect("longer than the window");
            let id = self.base;
            self.base += 1;
            if blocks.is_empty() {
                continue;
            }
            report(id, Reward::Final(if hits > 0 { hits as f32 } else { -1.0 }));
            for b in &blocks {
                if let Some(ids) = self.by_block.get_mut(b) {
                    ids.retain(|&x| x != id);
                    if ids.is_empty() {
                        self.spare.extend(self.by_block.remove(b));
                    }
                }
            }
            recycle(&mut self.spare, blocks);
        }
    }
}

/// Return a vector to the spare pool, emptied.
fn recycle(spare: &mut Vec<Vec<u64>>, mut v: Vec<u64>) {
    v.clear();
    spare.push(v);
}
