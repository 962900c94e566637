//! Trace-driven timing engine: a simplified 4-wide OoO core in front of the
//! L1D/L2/LLC hierarchy and DRAM, with prefetching at the LLC.
//!
//! The core model is the standard analytic OoO approximation used in
//! prefetching studies: instructions fetch at `width` per cycle, a load
//! issues once its ROB slot is available (the instruction `rob_size`
//! earlier has retired) and completes after its memory latency, and
//! retirement is in order at `width` per cycle. Memory-level parallelism
//! emerges naturally — independent misses overlap until the ROB or the LLC
//! MSHRs fill. Prefetches share MSHRs with demands, are dropped when MSHRs
//! are exhausted, and can be delayed by a controller-latency model
//! ([`crate::config::PrefetchTiming`], the Fig 11 study).
//!
//! The state is split in two. A `Core` is what one core owns: L1D/L2, the
//! ROB window and retire frontier, its in-flight prefetches and demand
//! misses with their completion queues, its prefetch controller's busy
//! time, and its statistics. A `Backend` is what cores share: the LLC, its
//! MSHRs, and DRAM. `Core::step` is the whole access path of one core over
//! a back end. [`Engine`] is one core over its own back end, and
//! [`crate::MultiCoreEngine`] steps N cores over one shared back end, so
//! both run this one timing model.
//!
//! This is the optimized hot path: completion events live in flat
//! `TimeQueue`s instead of binary heaps (issue times are monotone, see
//! `queue.rs`), cache probes are flat tag scans (`cache.rs`), fill/evict
//! notifications are delivered to the prefetcher as one batch per drain,
//! and prefetch suggestions are admitted against a single MSHR-expiry
//! pass per access. The seed implementation is preserved verbatim as
//! [`crate::ReferenceEngine`]; the two are property-tested to produce
//! bit-identical [`SimStats`] on arbitrary traces, and the perf gate
//! (`crates/bench/src/bin/perf_gate.rs`) measures this engine's speedup
//! against it.

use crate::cache::{Cache, Lookup};
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::queue::TimeQueue;
use crate::stats::SimStats;
use resemble_prefetch::{CacheEvent, Prefetcher};
use resemble_trace::record::{block_addr, block_of};
use resemble_trace::util::FxHashMap;
use resemble_trace::{MemAccess, TraceSource};
use std::collections::VecDeque;

/// Accesses pulled from the trace source per virtual call in
/// [`Engine::run`].
const RUN_BATCH: usize = 1024;

/// One core's private state.
pub(crate) struct Core {
    l1d: Cache,
    l2: Cache,
    /// retirement time in 1/width-cycle slots
    retire_slots: u64,
    prev_instr: Option<u64>,
    first_instr: Option<u64>,
    rob_window: VecDeque<(u64, u64)>,
    rob_gate: u64,
    inflight_prefetch: FxHashMap<u64, u64>,
    /// in-flight prefetches issued before the measurement boundary: their
    /// fills and uses carry no prefetch attribution. Kept as a map to a
    /// flag (rather than a second set) so the common fully-attributed case
    /// costs nothing extra. Values are unused.
    unattributed_prefetch: FxHashMap<u64, ()>,
    pf_queue: TimeQueue<(u64, u64)>,
    inflight_demand: FxHashMap<u64, u64>,
    demand_queue: TimeQueue<(u64, u64)>,
    controller_busy_until: u64,
    stats: SimStats,
    sugg: Vec<u64>,
}

/// The memory side behind the cores: the LLC, its MSHRs, and DRAM.
pub(crate) struct Backend {
    llc: Cache,
    /// completion cycles of requests occupying LLC MSHRs
    outstanding: TimeQueue<u64>,
    mshrs: usize,
    dram: Dram,
    /// reusable batch buffer for prefetcher fill/evict notifications
    events: Vec<CacheEvent>,
}

impl Backend {
    /// An idle back end with `cfg`'s LLC, MSHR count and DRAM.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            llc: Cache::with_policy("llc", cfg.llc_size, cfg.llc_ways, cfg.llc_replacement),
            outstanding: TimeQueue::with_capacity(128),
            mshrs: cfg.llc_mshrs,
            dram: Dram::new(cfg.dram),
            events: Vec::with_capacity(32),
        }
    }

    /// DRAM row-buffer (hits, misses) since construction.
    pub(crate) fn dram_stats(&self) -> (u64, u64) {
        (self.dram.row_hits, self.dram.row_misses)
    }

    /// The shared half of the measurement boundary: lines already in the
    /// LLC no longer count as prefetched.
    pub(crate) fn begin_measurement(&mut self) {
        self.llc.clear_prefetch_marks();
    }

    /// Free MSHR slots whose requests completed by `now`; returns the
    /// resulting occupancy.
    #[inline]
    fn expire_mshrs(&mut self, now: u64) -> usize {
        while let Some(&c) = self.outstanding.peek() {
            if c <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        self.outstanding.len()
    }
}

impl Core {
    /// An idle core with `cfg`'s private caches.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            l1d: Cache::new("l1d", cfg.l1d_size, cfg.l1d_ways),
            l2: Cache::new("l2", cfg.l2_size, cfg.l2_ways),
            retire_slots: 0,
            prev_instr: None,
            first_instr: None,
            rob_window: VecDeque::with_capacity(512),
            rob_gate: 0,
            inflight_prefetch: FxHashMap::default(),
            unattributed_prefetch: FxHashMap::default(),
            pf_queue: TimeQueue::with_capacity(128),
            inflight_demand: FxHashMap::default(),
            demand_queue: TimeQueue::with_capacity(128),
            controller_busy_until: 0,
            stats: SimStats::default(),
            sugg: Vec::with_capacity(16),
        }
    }

    /// Retirement frontier in 1/width-cycle slots.
    pub(crate) fn retire_slots(&self) -> u64 {
        self.retire_slots
    }

    /// Cumulative statistics of this core. The DRAM row counters belong
    /// to the back end and stay zero here.
    pub(crate) fn raw_stats(&self, cfg: &SimConfig) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.retire_slots / cfg.width;
        s.instructions = match (self.first_instr, self.prev_instr) {
            (Some(f), Some(l)) => l - f + 1,
            _ => 0,
        };
        s
    }

    /// The per-core half of the measurement boundary: prefetches still in
    /// flight no longer count as useful or late when they are used.
    pub(crate) fn begin_measurement(&mut self) {
        self.unattributed_prefetch = self.inflight_prefetch.keys().map(|&b| (b, ())).collect();
    }

    /// Release prefetch fills that have completed by `now`. Cache-state
    /// changes happen eagerly in event order; prefetcher notifications are
    /// batched into `backend.events` and delivered in one call at the end
    /// of the drain (the prefetcher observes the identical sequence — it is
    /// only consulted again after the drain).
    fn drain_prefetch_fills<'a, 'b>(
        &mut self,
        backend: &mut Backend,
        now: u64,
        prefetcher: &mut Option<&'b mut (dyn Prefetcher + 'a)>,
    ) {
        let notify = prefetcher.is_some();
        while let Some(&(ready, block)) = self.pf_queue.peek() {
            if ready > now {
                break;
            }
            self.pf_queue.pop();
            if self.inflight_prefetch.remove(&block).is_none() {
                continue; // consumed by a late demand
            }
            let attributed = self.unattributed_prefetch.remove(&block).is_none();
            let addr = block_addr(block);
            if let Some(ev) = backend.llc.fill(addr, false, attributed) {
                if ev.unused_prefetch {
                    self.stats.prefetches_unused_evicted += 1;
                }
                if notify {
                    backend.events.push(CacheEvent::Evict {
                        addr: block_addr(ev.block),
                        unused_prefetch: ev.unused_prefetch,
                    });
                }
            }
            if notify {
                backend.events.push(CacheEvent::PrefetchFill { addr });
            }
        }
        while let Some(&(ready, block)) = self.demand_queue.peek() {
            if ready > now {
                break;
            }
            self.demand_queue.pop();
            self.inflight_demand.remove(&block);
            if notify {
                backend.events.push(CacheEvent::DemandFill {
                    addr: block_addr(block),
                });
            }
        }
        if !backend.events.is_empty() {
            if let Some(pf) = prefetcher.as_deref_mut() {
                pf.on_cache_events(&backend.events);
            }
            backend.events.clear();
        }
    }

    /// Simulate one demand access; returns its completion cycle.
    fn simulate_access<'a, 'b>(
        &mut self,
        cfg: &SimConfig,
        backend: &mut Backend,
        a: &MemAccess,
        issue: u64,
        prefetcher: &mut Option<&'b mut (dyn Prefetcher + 'a)>,
    ) -> u64 {
        let llc_lat = cfg.llc_latency;
        let mshrs = backend.mshrs;
        self.stats.demand_accesses += 1;
        if matches!(self.l1d.access(a.addr, a.is_write), Lookup::Hit { .. }) {
            return issue + cfg.l1d_latency;
        }
        self.stats.l1d_misses += 1;
        let l2_t = issue + cfg.l1d_latency + cfg.l2_latency;
        if matches!(self.l2.access(a.addr, a.is_write), Lookup::Hit { .. }) {
            self.l1d.fill_known_miss(a.addr, a.is_write, false);
            return l2_t;
        }
        self.stats.l2_misses += 1;

        // --- The access reaches the LLC: this is the stream the paper's
        // prefetchers observe. ---
        let block = block_of(a.addr);
        let llc_t = l2_t + llc_lat;
        let lookup = backend.llc.access(a.addr, a.is_write);
        let llc_hit = matches!(lookup, Lookup::Hit { .. });
        let complete = match lookup {
            Lookup::Hit {
                first_use_of_prefetch,
            } => {
                self.stats.llc_demand_hits += 1;
                if first_use_of_prefetch {
                    self.stats.prefetches_useful += 1;
                }
                self.l2.fill_known_miss(a.addr, a.is_write, false);
                self.l1d.fill_known_miss(a.addr, a.is_write, false);
                llc_t
            }
            Lookup::Miss => {
                // The empty-map guard keeps prefetcher-less runs from
                // hashing into a map that can never contain anything.
                let late_pf = if self.inflight_prefetch.is_empty() {
                    None
                } else {
                    self.inflight_prefetch.remove(&block)
                };
                if let Some(ready) = late_pf {
                    // Late prefetch: the line is on its way; the demand
                    // waits out the residual latency. A useful prefetch by
                    // the paper's definition (referenced before replaced),
                    // and — as in ChampSim — a prefetch *hit*, not a demand
                    // miss, for MPKI purposes.
                    self.stats.llc_demand_hits += 1;
                    if self.unattributed_prefetch.remove(&block).is_none() {
                        self.stats.prefetches_useful += 1;
                        self.stats.prefetches_late += 1;
                    }
                    self.fill_all(&mut backend.llc, a);
                    llc_t.max(ready)
                } else if let Some(&ready) = self.inflight_demand.get(&block) {
                    // MSHR merge with an outstanding demand miss.
                    llc_t.max(ready)
                } else {
                    self.stats.llc_demand_misses += 1;
                    let start = if backend.expire_mshrs(issue) < mshrs {
                        llc_t
                    } else {
                        // MSHRs full: the request has already traversed
                        // L1/L2/LLC (that cost is inside `llc_t`); it only
                        // waits the *residual* time until the earliest
                        // entry frees — and it takes over that freed slot
                        // (pop), so occupancy stays bounded by the MSHR
                        // count and a second stalled demand waits for the
                        // *next* slot. (The seed recharged the full
                        // traversal on top of `free_at` and left the dead
                        // entry in place — see `ReferenceEngine` module
                        // docs.)
                        let free_at = backend.outstanding.pop().unwrap_or(issue);
                        llc_t.max(free_at)
                    };
                    let done = backend.dram.access(block, start);
                    backend.outstanding.push(done);
                    debug_assert!(
                        backend.outstanding.len() <= mshrs,
                        "MSHR occupancy {} exceeds capacity {mshrs} after demand miss",
                        backend.outstanding.len()
                    );
                    self.inflight_demand.insert(block, done);
                    self.demand_queue.push((done, block));
                    self.fill_all(&mut backend.llc, a);
                    done
                }
            }
        };

        // --- Prefetcher hook: suggestions handled as one batch, with a
        // single MSHR-expiry pass for the whole batch (`ready_base` is
        // constant across it). ---
        if let Some(pf) = prefetcher.as_deref_mut() {
            self.sugg.clear();
            pf.on_access(a, llc_hit, &mut self.sugg);
            let timing = cfg.prefetch_timing;
            let mut can_issue = true;
            if !timing.high_throughput && timing.latency > 0 && self.controller_busy_until > issue {
                can_issue = false; // controller still busy with an earlier inference
            }
            if can_issue && !self.sugg.is_empty() {
                if !timing.high_throughput && timing.latency > 0 {
                    self.controller_busy_until = issue + timing.latency;
                }
                let ready_base = issue + timing.latency;
                let mut occupancy = usize::MAX; // expire lazily, once
                for i in 0..self.sugg.len() {
                    let s = self.sugg[i];
                    let sb = block_of(s);
                    if backend.llc.contains(s)
                        || self.inflight_prefetch.contains_key(&sb)
                        || self.inflight_demand.contains_key(&sb)
                    {
                        continue;
                    }
                    if occupancy == usize::MAX {
                        occupancy = backend.expire_mshrs(ready_base);
                    }
                    if occupancy >= mshrs {
                        break; // prefetches are droppable
                    }
                    let done = backend.dram.access(sb, ready_base + llc_lat);
                    backend.outstanding.push(done);
                    occupancy += 1;
                    debug_assert!(
                        backend.outstanding.len() <= mshrs,
                        "MSHR occupancy {} exceeds capacity {mshrs} after prefetch issue",
                        backend.outstanding.len()
                    );
                    self.inflight_prefetch.insert(sb, done);
                    self.pf_queue.push((done, sb));
                    self.stats.prefetches_issued += 1;
                }
            }
        }

        if a.is_write {
            // Stores retire without waiting for the fill (write buffer).
            issue + 1
        } else {
            complete
        }
    }

    /// Fill the whole hierarchy for a demand miss, accounting LLC
    /// prefetch-pollution evictions. Every caller has just observed a miss
    /// in all three levels, so the presence probes are skipped.
    fn fill_all(&mut self, llc: &mut Cache, a: &MemAccess) {
        if let Some(ev) = llc.fill_known_miss(a.addr, a.is_write, false) {
            if ev.unused_prefetch {
                self.stats.prefetches_unused_evicted += 1;
            }
        }
        self.l2.fill_known_miss(a.addr, a.is_write, false);
        self.l1d.fill_known_miss(a.addr, a.is_write, false);
    }

    /// Advance this core over one access through `backend`, returning the
    /// access's retire cycle.
    pub(crate) fn step<'a>(
        &mut self,
        cfg: &SimConfig,
        backend: &mut Backend,
        a: &MemAccess,
        mut prefetcher: Option<&mut (dyn Prefetcher + 'a)>,
    ) -> u64 {
        let width = cfg.width;
        if self.first_instr.is_none() {
            self.first_instr = Some(a.instr_id);
        }
        // Non-memory instructions since the previous access retire at
        // `width` per cycle: one slot each.
        let gap = match self.prev_instr {
            Some(p) => a.instr_id.saturating_sub(p + 1),
            None => 0,
        };
        self.prev_instr = Some(a.instr_id);
        let fetch_cycle = a.instr_id / width;

        // ROB gate: this instruction needs the slot of the instruction
        // rob_size earlier, which must have retired.
        while let Some(&(id, retire)) = self.rob_window.front() {
            if id + cfg.rob_size <= a.instr_id {
                self.rob_gate = self.rob_gate.max(retire);
                self.rob_window.pop_front();
            } else {
                break;
            }
        }
        let issue = fetch_cycle.max(self.rob_gate);

        self.drain_prefetch_fills(backend, issue, &mut prefetcher);
        let complete = self.simulate_access(cfg, backend, a, issue, &mut prefetcher);

        // In-order retirement at `width` per cycle.
        self.retire_slots = (self.retire_slots + gap + 1).max(complete.saturating_mul(width));
        let retire_cycle = self.retire_slots / width;
        self.rob_window.push_back((a.instr_id, retire_cycle));
        retire_cycle
    }
}

/// The simulation engine: one core over its own LLC and DRAM.
pub struct Engine {
    cfg: SimConfig,
    core: Core,
    backend: Backend,
}

impl Engine {
    /// Build an engine from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            core: Core::new(&cfg),
            backend: Backend::new(&cfg),
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle (retirement frontier).
    pub fn cycle(&self) -> u64 {
        self.core.retire_slots / self.cfg.width
    }

    /// Cumulative raw statistics since construction/reset.
    pub fn raw_stats(&self) -> SimStats {
        let (dram_row_hits, dram_row_misses) = self.backend.dram_stats();
        SimStats {
            dram_row_hits,
            dram_row_misses,
            ..self.core.raw_stats(&self.cfg)
        }
    }

    /// Clear all state (caches, timing, statistics).
    pub fn reset(&mut self) {
        *self = Engine::new(self.cfg);
    }

    /// Mark the warmup → measurement boundary: prefetches issued before
    /// this point no longer count as useful/unused, so the measured
    /// accuracy reflects only measured-window prefetches.
    pub fn begin_measurement(&mut self) {
        self.backend.begin_measurement();
        self.core.begin_measurement();
    }

    /// Advance the machine over one access, returning its retire cycle.
    pub fn step<'a>(
        &mut self,
        a: &MemAccess,
        prefetcher: Option<&mut (dyn Prefetcher + 'a)>,
    ) -> u64 {
        self.core.step(&self.cfg, &mut self.backend, a, prefetcher)
    }

    /// Run `warmup` accesses (state training, no statistics), then
    /// `measure` accesses with statistics; returns the measured stats.
    pub fn run<'a>(
        &mut self,
        src: &mut dyn TraceSource,
        mut prefetcher: Option<&mut (dyn Prefetcher + 'a)>,
        warmup: usize,
        measure: usize,
    ) -> SimStats {
        let mut buf = Vec::with_capacity(RUN_BATCH);
        self.run_phase(src, warmup, &mut buf, &mut prefetcher);
        self.begin_measurement();
        let before = self.raw_stats();
        self.run_phase(src, measure, &mut buf, &mut prefetcher);
        let after = self.raw_stats();
        diff_stats(&after, &before)
    }

    /// Step through up to `n` accesses, pulling them in batches: one
    /// virtual `next_batch` call per [`RUN_BATCH`] accesses instead of a
    /// `next_access` call per access.
    fn run_phase<'a>(
        &mut self,
        src: &mut dyn TraceSource,
        n: usize,
        buf: &mut Vec<MemAccess>,
        prefetcher: &mut Option<&mut (dyn Prefetcher + 'a)>,
    ) {
        let mut left = n;
        while left > 0 {
            buf.clear();
            let want = left.min(RUN_BATCH);
            let got = src.next_batch(buf, want);
            for a in buf.iter() {
                self.step(a, prefetcher.as_deref_mut());
            }
            if got < want {
                break; // source exhausted
            }
            left -= got;
        }
    }
}

/// Per-field subtraction of monotone counters (measurement windowing).
pub(crate) fn diff_stats(after: &SimStats, before: &SimStats) -> SimStats {
    SimStats {
        instructions: after.instructions - before.instructions,
        cycles: after.cycles - before.cycles,
        demand_accesses: after.demand_accesses - before.demand_accesses,
        l1d_misses: after.l1d_misses - before.l1d_misses,
        l2_misses: after.l2_misses - before.l2_misses,
        llc_demand_hits: after.llc_demand_hits - before.llc_demand_hits,
        llc_demand_misses: after.llc_demand_misses - before.llc_demand_misses,
        prefetches_issued: after.prefetches_issued - before.prefetches_issued,
        prefetches_useful: after.prefetches_useful - before.prefetches_useful,
        prefetches_late: after.prefetches_late - before.prefetches_late,
        prefetches_unused_evicted: after.prefetches_unused_evicted
            - before.prefetches_unused_evicted,
        dram_row_hits: after.dram_row_hits - before.dram_row_hits,
        dram_row_misses: after.dram_row_misses - before.dram_row_misses,
    }
}

/// Convenience: simulate a trace with and without a prefetcher (identical
/// warmup/measure windows) and return `(baseline, with_prefetcher)`.
///
/// The two runs replay the same accesses: `make_src` is called twice and
/// must return identically seeded sources.
pub fn run_pair(
    cfg: SimConfig,
    mut make_src: impl FnMut() -> Box<dyn TraceSource + Send>,
    prefetcher: &mut dyn Prefetcher,
    warmup: usize,
    measure: usize,
) -> (SimStats, SimStats) {
    let mut base_engine = Engine::new(cfg);
    let mut base_src = make_src();
    let base = base_engine.run(&mut *base_src, None, warmup, measure);
    let mut pf_engine = Engine::new(cfg);
    let mut pf_src = make_src();
    let with_pf = pf_engine.run(&mut *pf_src, Some(prefetcher), warmup, measure);
    (base, with_pf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchTiming;
    use resemble_prefetch::NextLine;
    use resemble_trace::gen::{StreamGen, VecSource};

    fn stream_src(seed: u64) -> Box<dyn TraceSource + Send> {
        Box::new(StreamGen::new(seed, 2, 100_000, 3).with_write_ratio(0.0))
    }

    #[test]
    fn ipc_bounded_by_width_and_positive() {
        let mut e = Engine::new(SimConfig::test_small());
        let mut src = stream_src(1);
        let s = e.run(&mut *src, None, 1000, 10_000);
        assert!(s.instructions > 0 && s.cycles > 0);
        assert!(s.ipc() <= 4.0 + 1e-9, "ipc={}", s.ipc());
        assert!(s.ipc() > 0.05, "ipc={}", s.ipc());
    }

    #[test]
    fn repeated_working_set_hits_cache() {
        // A small ring fits in L1: after warmup, no LLC misses.
        let ring: Vec<MemAccess> = (0..32)
            .cycle()
            .take(5000)
            .enumerate()
            .map(|(i, b)| MemAccess::load(i as u64 * 2, 0x4, 0x10_0000 + b * 64))
            .collect();
        let mut e = Engine::new(SimConfig::test_small());
        let s = e.run(&mut VecSource::new(ring), None, 1000, 4000);
        assert_eq!(s.llc_demand_misses, 0, "{s:?}");
        assert_eq!(s.l1d_misses, 0);
    }

    #[test]
    fn streaming_misses_and_prefetcher_reduces_them() {
        let cfg = SimConfig::test_small();
        let mut nl = NextLine::new(4);
        let (base, pf) = run_pair(cfg, || stream_src(7), &mut nl, 2000, 30_000);
        assert!(
            base.llc_demand_misses > 1000,
            "baseline must miss: {base:?}"
        );
        assert!(
            (pf.llc_demand_misses as f64) < 0.7 * base.llc_demand_misses as f64,
            "prefetcher should cut misses: base={} pf={}",
            base.llc_demand_misses,
            pf.llc_demand_misses
        );
        assert!(
            pf.ipc() > base.ipc(),
            "IPC should improve: {} vs {}",
            pf.ipc(),
            base.ipc()
        );
        assert!(
            pf.accuracy() > 0.5,
            "next-line on a stream is accurate: {}",
            pf.accuracy()
        );
        assert!(pf.coverage() > 0.3, "coverage={}", pf.coverage());
    }

    #[test]
    fn prefetch_latency_degrades_performance() {
        let mut cfg = SimConfig::test_small();
        cfg.prefetch_timing = PrefetchTiming {
            latency: 0,
            high_throughput: true,
        };
        let mut nl0 = NextLine::new(2);
        let (_, fast) = run_pair(cfg, || stream_src(9), &mut nl0, 2000, 30_000);
        cfg.prefetch_timing = PrefetchTiming {
            latency: 200,
            high_throughput: false,
        };
        let mut nl1 = NextLine::new(2);
        let (_, slow) = run_pair(cfg, || stream_src(9), &mut nl1, 2000, 30_000);
        assert!(
            slow.ipc() <= fast.ipc() + 1e-9,
            "high latency low TP must not beat ideal: {} vs {}",
            slow.ipc(),
            fast.ipc()
        );
        assert!(slow.prefetches_issued < fast.prefetches_issued);
    }

    #[test]
    fn useless_prefetches_hurt_accuracy_not_correctness() {
        // Prefetcher that always fetches a far-away, never-used block.
        struct Junk;
        impl Prefetcher for Junk {
            fn name(&self) -> &'static str {
                "junk"
            }
            fn kind(&self) -> resemble_prefetch::PredictionKind {
                resemble_prefetch::PredictionKind::Spatial
            }
            fn on_access(&mut self, a: &MemAccess, _h: bool, out: &mut Vec<u64>) {
                out.push(a.addr.wrapping_add(0x4000_0000));
            }
            fn budget_bytes(&self) -> usize {
                0
            }
            fn reset(&mut self) {}
        }
        let mut junk = Junk;
        let (base, pf) = run_pair(
            SimConfig::test_small(),
            || stream_src(11),
            &mut junk,
            2000,
            20_000,
        );
        assert!(pf.prefetches_issued > 0);
        assert!(pf.accuracy() < 0.05, "junk accuracy={}", pf.accuracy());
        // Misses should not improve (pollution may make them worse).
        assert!(pf.llc_demand_misses as f64 >= 0.9 * base.llc_demand_misses as f64);
    }

    #[test]
    fn warmup_excluded_from_stats() {
        let mut e = Engine::new(SimConfig::test_small());
        let mut src = stream_src(3);
        let s = e.run(&mut *src, None, 5000, 5000);
        let mut e2 = Engine::new(SimConfig::test_small());
        let mut src2 = stream_src(3);
        let s2 = e2.run(&mut *src2, None, 0, 10_000);
        assert!(s.demand_accesses == 5000);
        assert!(s2.demand_accesses == 10_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Engine::new(SimConfig::test_small());
            let mut src = stream_src(42);
            let mut nl = NextLine::new(2);
            e.run(&mut *src, Some(&mut nl), 1000, 10_000)
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn mshr_pressure_limits_overlap() {
        // Random far-apart loads: with 1 MSHR, cycles should be much higher
        // than with 64 (no overlap possible).
        use rand::{Rng, SeedableRng};
        let mk = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let v: Vec<MemAccess> = (0..20_000u64)
                .map(|i| MemAccess::load(i * 2, 0x4, (rng.gen_range(0x1000u64..0x80_0000)) * 4096))
                .collect();
            VecSource::new(v)
        };
        let mut cfg = SimConfig::test_small();
        cfg.llc_mshrs = 64;
        let mut e = Engine::new(cfg);
        let wide = e.run(&mut mk(), None, 0, 20_000);
        cfg.llc_mshrs = 1;
        let mut e = Engine::new(cfg);
        let narrow = e.run(&mut mk(), None, 0, 20_000);
        assert!(
            narrow.cycles > wide.cycles,
            "1 MSHR must be slower: {} vs {}",
            narrow.cycles,
            wide.cycles
        );
    }

    /// Pin the MSHR-full stall accounting: with one MSHR, a second
    /// concurrent miss starts DRAM access exactly when the first request's
    /// MSHR entry frees (residual wait), not `free_at` plus a re-traversal
    /// of the whole hierarchy — the seed's double-charge bug.
    #[test]
    fn mshr_full_timing_charges_residual_wait_only() {
        let mut cfg = SimConfig::test_small();
        cfg.llc_mshrs = 1;
        let hier = cfg.l1d_latency + cfg.l2_latency + cfg.llc_latency;
        let (b1, b2) = (0x10_0000u64, 0x20_0000u64); // distinct blocks/rows

        // Mirror the engine's DRAM against a scratch instance to derive
        // the expected completion times without hardcoding DRAM internals.
        let mut dram = Dram::new(cfg.dram);
        let done1 = dram.access(block_of(b1 * 64), hier); // issue=0 → llc_t = hier
        let done2_fixed = dram.access(block_of(b2 * 64), done1.max(hier));

        let mut e = Engine::new(cfg);
        let a1 = MemAccess::load(0, 0x4, b1 * 64);
        let a2 = MemAccess::load(1, 0x4, b2 * 64);
        let r1 = e.step(&a1, None);
        let r2 = e.step(&a2, None);
        assert_eq!(r1, done1, "first miss completes straight through");
        assert_eq!(
            r2, done2_fixed,
            "second miss must start at max(llc_t, free_at), with no \
             re-traversal of L1/L2/LLC"
        );
        // And the buggy accounting would have been strictly later.
        let mut dram_bug = Dram::new(cfg.dram);
        let d1 = dram_bug.access(block_of(b1 * 64), hier);
        let bug_done2 = dram_bug.access(block_of(b2 * 64), d1 + hier);
        assert!(bug_done2 > done2_fixed);
    }

    /// The engine never holds more than `llc_mshrs` outstanding requests,
    /// demand and prefetch combined.
    #[test]
    fn mshr_occupancy_never_exceeds_limit() {
        use rand::{Rng, SeedableRng};
        let mut cfg = SimConfig::test_small();
        cfg.llc_mshrs = 4;
        let mut e = Engine::new(cfg);
        let mut nl = NextLine::new(8); // aggressive: 8 suggestions per access
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for i in 0..20_000u64 {
            let addr = rng.gen_range(0x1000u64..0x80_0000) * 4096;
            e.step(
                &MemAccess::load(i * 2, 0x4, addr),
                Some(&mut nl as &mut dyn Prefetcher),
            );
            assert!(
                e.backend.outstanding.len() <= cfg.llc_mshrs,
                "step {i}: occupancy {} > {}",
                e.backend.outstanding.len(),
                cfg.llc_mshrs
            );
        }
        assert!(e.raw_stats().prefetches_issued > 0);
    }

    /// A late prefetch (demanded while still in flight) is counted useful
    /// exactly once: at the demand, and never again when its fill event
    /// drains or when the line is re-referenced.
    #[test]
    fn late_prefetch_counted_useful_exactly_once() {
        let cfg = SimConfig::test_small();
        let mut e = Engine::new(cfg);
        let mut nl = NextLine::new(1);
        let base = 0x40_0000u64;
        // Access block A: next-line prefetch of A+1 goes in flight.
        e.step(
            &MemAccess::load(0, 0x4, base),
            Some(&mut nl as &mut dyn Prefetcher),
        );
        // Immediately demand A+1: the prefetch cannot have filled yet
        // (issue is still ~0), so this is the late-prefetch path.
        e.step(
            &MemAccess::load(1, 0x4, base + 64),
            Some(&mut nl as &mut dyn Prefetcher),
        );
        let s = e.raw_stats();
        assert_eq!(s.prefetches_late, 1, "{s:?}");
        assert_eq!(s.prefetches_useful, 1, "{s:?}");
        // Let the stale fill event drain (far-future instruction) and
        // re-reference the line: still exactly one useful prefetch.
        e.step(
            &MemAccess::load(4_000_000, 0x4, base + 64),
            Some(&mut nl as &mut dyn Prefetcher),
        );
        let s = e.raw_stats();
        assert_eq!(s.prefetches_useful, 1, "{s:?}");
        assert_eq!(s.prefetches_late, 1, "{s:?}");
    }

    /// `begin_measurement` strips prefetch attribution: prefetches issued
    /// before the boundary (resident or still in flight) contribute
    /// nothing to measured useful/unused counts.
    #[test]
    fn begin_measurement_zeroes_prefetch_attribution() {
        let cfg = SimConfig::test_small();
        let mut e = Engine::new(cfg);
        let mut nl = NextLine::new(2);
        let base = 0x80_0000u64;
        // Warmup: touch a short stream so prefetches of the next blocks
        // are issued; some fill (resident), later ones stay in flight.
        for i in 0..8u64 {
            e.step(
                &MemAccess::load(i * 1000, 0x4, base + i * 64),
                Some(&mut nl as &mut dyn Prefetcher),
            );
        }
        assert!(e.raw_stats().prefetches_issued > 0);
        e.begin_measurement();
        let before = e.raw_stats();
        // Measured window: demand every block the warmup prefetched.
        for i in 8..16u64 {
            e.step(
                &MemAccess::load(100_000 + i * 1000, 0x4, base + i * 64),
                None,
            );
        }
        let d = diff_stats(&e.raw_stats(), &before);
        assert_eq!(
            d.prefetches_useful, 0,
            "warmup prefetches must not count as useful: {d:?}"
        );
        assert_eq!(d.prefetches_late, 0, "{d:?}");
        assert!(
            d.llc_demand_hits > 0,
            "the lines themselves still serve hits: {d:?}"
        );
    }
}
