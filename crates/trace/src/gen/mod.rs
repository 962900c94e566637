//! Synthetic workload generators.
//!
//! The paper evaluates on SPEC CPU 2006/2017 and GAP SimPoint traces, which
//! are not redistributable. Per DESIGN.md §1 we substitute synthetic
//! generators that reproduce the *pattern classes* the paper's §II analysis
//! identifies: streaming/strided spatial patterns, PC-localized temporal
//! patterns (pointer chasing), interleaved and phased mixes, and real graph
//! kernels (BFS / PageRank / CC) executed over synthetic graphs whose data
//! structure traversals produce the addresses.
//!
//! Every generator is deterministic given its seed and implements
//! [`TraceSource`], an infinite (or very long) pull-based access stream.

use crate::record::MemAccess;

pub mod graph;
pub mod interleave;
pub mod pointer_chase;
pub mod spec_like;
pub mod stream;
pub mod stride;
pub mod suite;

pub use graph::{CsrGraph, GraphGen, GraphKernel};
pub use interleave::{PhasedGen, ProbMixGen};
pub use pointer_chase::PointerChaseGen;
pub use spec_like::{app_by_name, AppTrace, APP_NAMES};
pub use stream::StreamGen;
pub use stride::StrideGen;
pub use suite::{suite_by_name, Suite, SUITE_NAMES};

/// A pull-based source of memory accesses.
///
/// Sources are logically infinite: `next_access` may return `None` only for
/// sources wrapping finite recorded traces. Generators hand out
/// monotonically increasing `instr_id`s with gaps standing in for
/// non-memory instructions.
pub trait TraceSource {
    /// Produce the next access, or `None` if the source is exhausted.
    fn next_access(&mut self) -> Option<MemAccess>;

    /// Append up to `n` accesses to `out`, returning how many were
    /// produced. One virtual call covers a whole batch, so hot consumers
    /// (the simulation engines) are not paying dynamic dispatch per
    /// access; replayable sources can override it with a bulk copy.
    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        for i in 0..n {
            match self.next_access() {
                Some(a) => out.push(a),
                None => return i,
            }
        }
        n
    }

    /// Collect up to `n` accesses into a vector.
    fn collect_n(&mut self, n: usize) -> Vec<MemAccess> {
        let mut out = Vec::with_capacity(n);
        self.next_batch(&mut out, n);
        out
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_access(&mut self) -> Option<MemAccess> {
        (**self).next_access()
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        (**self).next_batch(out, n)
    }
}

/// A finite, replayable trace source over an owned access vector.
#[derive(Debug, Clone)]
pub struct VecSource {
    trace: Vec<MemAccess>,
    pos: usize,
}

impl VecSource {
    /// Wrap a recorded trace.
    pub fn new(trace: Vec<MemAccess>) -> Self {
        Self { trace, pos: 0 }
    }

    /// Rewind to the beginning.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// Number of accesses remaining.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl TraceSource for VecSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        let a = self.trace.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        let take = n.min(self.trace.len() - self.pos);
        out.extend_from_slice(&self.trace[self.pos..self.pos + take]);
        self.pos += take;
        take
    }
}

/// Shared instruction-id pacing: each access consumes `1 + gap` instruction
/// slots, modelling non-memory instructions between memory operations.
#[derive(Debug, Clone)]
pub(crate) struct InstrClock {
    next_id: u64,
    gap: u64,
}

impl InstrClock {
    pub(crate) fn new(gap: u64) -> Self {
        Self { next_id: 0, gap }
    }

    /// Id for the next memory instruction; advances the clock.
    pub(crate) fn tick(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = id + 1 + self.gap;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_replays_and_exhausts() {
        let t = vec![MemAccess::load(0, 1, 0x40), MemAccess::load(1, 1, 0x80)];
        let mut s = VecSource::new(t.clone());
        assert_eq!(s.collect_n(10), t);
        assert!(s.next_access().is_none());
        s.rewind();
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_access(), Some(t[0]));
    }

    #[test]
    fn instr_clock_spacing() {
        let mut c = InstrClock::new(3);
        assert_eq!(c.tick(), 0);
        assert_eq!(c.tick(), 4);
        assert_eq!(c.tick(), 8);
    }
}
