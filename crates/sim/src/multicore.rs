//! Multi-core simulation — the paper's §VIII future work ("ensemble
//! prefetching for multi-core architectures").
//!
//! N cores each have a private L1D/L2 and their own timing state (same
//! analytic OoO model as [`crate::engine::Engine`]) and share the LLC, its
//! MSHRs, and DRAM. Cores advance in round-robin access order — an
//! approximation of concurrent execution that preserves what matters for
//! the prefetching question: shared-LLC capacity contention, shared-MSHR
//! pressure, and DRAM bank interference between cores' demand and
//! prefetch streams. Each core may host its own prefetcher/controller
//! (the private-controller organization the paper hints at).

use crate::cache::{Cache, Lookup};
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::queue::TimeQueue;
use crate::stats::SimStats;
use resemble_prefetch::{CacheEvent, Prefetcher};
use resemble_trace::record::{block_addr, block_of};
use resemble_trace::util::{FxHashMap, FxHashSet};
use resemble_trace::{MemAccess, TraceSource};
use std::collections::VecDeque;

/// Per-core private state.
struct Core {
    l1d: Cache,
    l2: Cache,
    retire_slots: u64,
    prev_instr: Option<u64>,
    first_instr: Option<u64>,
    rob_window: VecDeque<(u64, u64)>,
    rob_gate: u64,
    stats: SimStats,
    /// prefetches in flight issued by this core
    inflight_prefetch: FxHashMap<u64, u64>,
    unattributed: FxHashSet<u64>,
    pf_queue: TimeQueue<(u64, u64)>,
    inflight_demand: FxHashMap<u64, u64>,
    demand_queue: TimeQueue<(u64, u64)>,
    sugg: Vec<u64>,
}

impl Core {
    fn new(cfg: &SimConfig) -> Self {
        Self {
            l1d: Cache::new("l1d", cfg.l1d_size, cfg.l1d_ways),
            l2: Cache::new("l2", cfg.l2_size, cfg.l2_ways),
            retire_slots: 0,
            prev_instr: None,
            first_instr: None,
            rob_window: VecDeque::new(),
            rob_gate: 0,
            stats: SimStats::default(),
            inflight_prefetch: FxHashMap::default(),
            unattributed: FxHashSet::default(),
            pf_queue: TimeQueue::with_capacity(64),
            inflight_demand: FxHashMap::default(),
            demand_queue: TimeQueue::with_capacity(64),
            sugg: Vec::new(),
        }
    }

    fn raw_stats(&self, width: u64) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.retire_slots / width;
        s.instructions = match (self.first_instr, self.prev_instr) {
            (Some(f), Some(l)) => l - f + 1,
            _ => 0,
        };
        s
    }
}

/// N cores over a shared LLC and DRAM.
pub struct MultiCoreEngine {
    cfg: SimConfig,
    cores: Vec<Core>,
    llc: Cache,
    dram: Dram,
    /// shared LLC MSHR occupancy (completion cycles)
    outstanding: TimeQueue<u64>,
    /// reusable batch buffer for prefetcher fill/evict notifications
    events: Vec<CacheEvent>,
}

impl MultiCoreEngine {
    /// Build with `n_cores` private L1/L2 pairs over one shared LLC.
    ///
    /// DRAM bank machines (and therefore aggregate bandwidth) scale with
    /// the core count, matching Table V's "8 GB/s bandwidth *per core*";
    /// MSHRs scale likewise.
    pub fn new(cfg: SimConfig, n_cores: usize) -> Self {
        assert!(n_cores >= 1);
        let mut dram_cfg = cfg.dram;
        dram_cfg.banks *= n_cores;
        let mut shared_cfg = cfg;
        shared_cfg.llc_mshrs *= n_cores;
        Self {
            cores: (0..n_cores).map(|_| Core::new(&cfg)).collect(),
            llc: Cache::with_policy("llc", cfg.llc_size, cfg.llc_ways, cfg.llc_replacement),
            dram: Dram::new(dram_cfg),
            outstanding: TimeQueue::with_capacity(128),
            events: Vec::with_capacity(32),
            cfg: shared_cfg,
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Shared-DRAM row-buffer statistics (hits, misses).
    pub fn dram_stats(&self) -> (u64, u64) {
        (self.dram.row_hits, self.dram.row_misses)
    }

    fn mshr_admit(&mut self, now: u64) -> Result<(), u64> {
        while let Some(&c) = self.outstanding.peek() {
            if c <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        if self.outstanding.len() < self.cfg.llc_mshrs {
            Ok(())
        } else {
            Err(self.outstanding.peek().copied().unwrap_or(now))
        }
    }

    fn drain_fills(
        &mut self,
        core_idx: usize,
        now: u64,
        pf: &mut Option<&mut (dyn Prefetcher + '_)>,
    ) {
        let notify = pf.is_some();
        loop {
            let core = &mut self.cores[core_idx];
            let Some(&(ready, block)) = core.pf_queue.peek() else {
                break;
            };
            if ready > now {
                break;
            }
            core.pf_queue.pop();
            if core.inflight_prefetch.remove(&block).is_none() {
                continue;
            }
            let attributed = !core.unattributed.remove(&block);
            if let Some(ev) = self.llc.fill(block_addr(block), false, attributed) {
                if ev.unused_prefetch {
                    self.cores[core_idx].stats.prefetches_unused_evicted += 1;
                }
                if notify {
                    self.events.push(CacheEvent::Evict {
                        addr: block_addr(ev.block),
                        unused_prefetch: ev.unused_prefetch,
                    });
                }
            }
            if notify {
                self.events.push(CacheEvent::PrefetchFill {
                    addr: block_addr(block),
                });
            }
        }
        let core = &mut self.cores[core_idx];
        while let Some(&(ready, block)) = core.demand_queue.peek() {
            if ready > now {
                break;
            }
            core.demand_queue.pop();
            core.inflight_demand.remove(&block);
            if notify {
                self.events.push(CacheEvent::DemandFill {
                    addr: block_addr(block),
                });
            }
        }
        if !self.events.is_empty() {
            if let Some(p) = pf.as_deref_mut() {
                p.on_cache_events(&self.events);
            }
            self.events.clear();
        }
    }

    /// Advance one core by one access (same model as `Engine::step`).
    fn step(&mut self, core_idx: usize, a: &MemAccess, mut pf: Option<&mut (dyn Prefetcher + '_)>) {
        let cfg = self.cfg;
        let gap = {
            let core = &mut self.cores[core_idx];
            if core.first_instr.is_none() {
                core.first_instr = Some(a.instr_id);
            }
            let gap = match core.prev_instr {
                Some(p) => a.instr_id.saturating_sub(p + 1),
                None => 0,
            };
            core.prev_instr = Some(a.instr_id);
            gap
        };
        let fetch_cycle = a.instr_id / cfg.width;
        {
            let core = &mut self.cores[core_idx];
            while let Some(&(id, retire)) = core.rob_window.front() {
                if id + cfg.rob_size <= a.instr_id {
                    core.rob_gate = core.rob_gate.max(retire);
                    core.rob_window.pop_front();
                } else {
                    break;
                }
            }
        }
        let issue = fetch_cycle.max(self.cores[core_idx].rob_gate);
        self.drain_fills(core_idx, issue, &mut pf);

        // --- memory access through private L1/L2 then the shared LLC ---
        let complete = {
            let core = &mut self.cores[core_idx];
            core.stats.demand_accesses += 1;
            if matches!(core.l1d.access(a.addr, a.is_write), Lookup::Hit { .. }) {
                issue + cfg.l1d_latency
            } else {
                core.stats.l1d_misses += 1;
                let l2_t = issue + cfg.l1d_latency + cfg.l2_latency;
                if matches!(core.l2.access(a.addr, a.is_write), Lookup::Hit { .. }) {
                    core.l1d.fill_known_miss(a.addr, a.is_write, false);
                    l2_t
                } else {
                    core.stats.l2_misses += 1;
                    let block = block_of(a.addr);
                    let llc_t = l2_t + cfg.llc_latency;
                    let lookup = self.llc.access(a.addr, a.is_write);
                    let llc_hit = matches!(lookup, Lookup::Hit { .. });
                    let done = match lookup {
                        Lookup::Hit {
                            first_use_of_prefetch,
                        } => {
                            core.stats.llc_demand_hits += 1;
                            if first_use_of_prefetch {
                                core.stats.prefetches_useful += 1;
                            }
                            core.l2.fill_known_miss(a.addr, a.is_write, false);
                            core.l1d.fill_known_miss(a.addr, a.is_write, false);
                            llc_t
                        }
                        Lookup::Miss => {
                            if let Some(ready) = core.inflight_prefetch.remove(&block) {
                                core.stats.llc_demand_hits += 1;
                                if !core.unattributed.remove(&block) {
                                    core.stats.prefetches_useful += 1;
                                    core.stats.prefetches_late += 1;
                                }
                                if let Some(ev) =
                                    self.llc.fill_known_miss(a.addr, a.is_write, false)
                                {
                                    if ev.unused_prefetch {
                                        core.stats.prefetches_unused_evicted += 1;
                                    }
                                }
                                core.l2.fill_known_miss(a.addr, a.is_write, false);
                                core.l1d.fill_known_miss(a.addr, a.is_write, false);
                                llc_t.max(ready)
                            } else if let Some(&ready) = core.inflight_demand.get(&block) {
                                llc_t.max(ready)
                            } else {
                                core.stats.llc_demand_misses += 1;
                                // Shared MSHRs.
                                let start = {
                                    // inline admit over self.outstanding
                                    while let Some(&c) = self.outstanding.peek() {
                                        if c <= issue {
                                            self.outstanding.pop();
                                        } else {
                                            break;
                                        }
                                    }
                                    if self.outstanding.len() < cfg.llc_mshrs {
                                        llc_t
                                    } else {
                                        // MSHRs full: wait only the residual
                                        // time until the earliest entry
                                        // frees (the hierarchy traversal is
                                        // already inside llc_t) and take
                                        // over the freed slot.
                                        let free_at = self.outstanding.pop().unwrap_or(issue);
                                        llc_t.max(free_at)
                                    }
                                };
                                let done = self.dram.access(block, start);
                                self.outstanding.push(done);
                                debug_assert!(
                                    self.outstanding.len() <= cfg.llc_mshrs,
                                    "shared MSHR occupancy {} exceeds capacity {} after demand miss",
                                    self.outstanding.len(),
                                    cfg.llc_mshrs
                                );
                                core.inflight_demand.insert(block, done);
                                core.demand_queue.push((done, block));
                                if let Some(ev) =
                                    self.llc.fill_known_miss(a.addr, a.is_write, false)
                                {
                                    if ev.unused_prefetch {
                                        core.stats.prefetches_unused_evicted += 1;
                                    }
                                }
                                core.l2.fill_known_miss(a.addr, a.is_write, false);
                                core.l1d.fill_known_miss(a.addr, a.is_write, false);
                                done
                            }
                        }
                    };
                    // Prefetcher hook for this core (suggestions copied
                    // out so the core borrow can be released for the
                    // shared-structure operations below).
                    if let Some(p) = pf {
                        core.sugg.clear();
                        p.on_access(a, llc_hit, &mut core.sugg);
                        let sugg = std::mem::take(&mut core.sugg);
                        let timing = cfg.prefetch_timing;
                        let ready_base = issue + timing.latency;
                        for &s in &sugg {
                            let sb = block_of(s);
                            let core = &mut self.cores[core_idx];
                            if self.llc.contains(s)
                                || core.inflight_prefetch.contains_key(&sb)
                                || core.inflight_demand.contains_key(&sb)
                            {
                                continue;
                            }
                            if self.mshr_admit(ready_base).is_err() {
                                break;
                            }
                            let done = self.dram.access(sb, ready_base + cfg.llc_latency);
                            self.outstanding.push(done);
                            debug_assert!(
                                self.outstanding.len() <= cfg.llc_mshrs,
                                "shared MSHR occupancy {} exceeds capacity {} after prefetch issue",
                                self.outstanding.len(),
                                cfg.llc_mshrs
                            );
                            let core = &mut self.cores[core_idx];
                            core.inflight_prefetch.insert(sb, done);
                            core.pf_queue.push((done, sb));
                            core.stats.prefetches_issued += 1;
                        }
                        self.cores[core_idx].sugg = sugg;
                    }
                    if a.is_write {
                        issue + 1
                    } else {
                        done
                    }
                }
            }
        };
        let core = &mut self.cores[core_idx];
        core.retire_slots = (core.retire_slots + gap + 1).max(complete.saturating_mul(cfg.width));
        let retire = core.retire_slots / cfg.width;
        core.rob_window.push_back((a.instr_id, retire));
    }

    /// Step the cores in *time order* — always advance the core whose
    /// retirement frontier is earliest — until each has consumed `quota`
    /// accesses. Time-ordered interleaving keeps shared-resource
    /// interactions (DRAM bank queueing, MSHR occupancy) physically
    /// consistent even when cores run at very different speeds.
    fn run_phase(
        &mut self,
        sources: &mut [Box<dyn TraceSource + Send>],
        prefetchers: &mut [Option<Box<dyn Prefetcher + Send>>],
        quota: usize,
    ) {
        let n = self.cores.len();
        let mut remaining: Vec<usize> = vec![quota; n];
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (c, &rem) in remaining.iter().enumerate() {
                if rem == 0 {
                    continue;
                }
                let t = self.cores[c].retire_slots;
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((c, t));
                }
            }
            let Some((c, _)) = best else { break };
            match sources[c].next_access() {
                Some(a) => {
                    let pf = prefetchers[c]
                        .as_deref_mut()
                        .map(|p| p as &mut (dyn Prefetcher + '_));
                    self.step(c, &a, pf);
                    remaining[c] -= 1;
                }
                None => remaining[c] = 0,
            }
        }
    }

    /// Run all cores: `warmup` + `measure` accesses per core. Returns
    /// per-core measured statistics.
    pub fn run(
        &mut self,
        sources: &mut [Box<dyn TraceSource + Send>],
        prefetchers: &mut [Option<Box<dyn Prefetcher + Send>>],
        warmup: usize,
        measure: usize,
    ) -> Vec<SimStats> {
        assert_eq!(sources.len(), self.cores.len(), "one source per core");
        assert_eq!(
            prefetchers.len(),
            self.cores.len(),
            "one prefetcher slot per core"
        );
        self.run_phase(sources, prefetchers, warmup);
        // Measurement boundary per core + shared LLC.
        self.llc.clear_prefetch_marks();
        for core in &mut self.cores {
            core.unattributed = core.inflight_prefetch.keys().copied().collect();
        }
        let width = self.cfg.width;
        let before: Vec<SimStats> = self.cores.iter().map(|c| c.raw_stats(width)).collect();
        self.run_phase(sources, prefetchers, measure);
        self.cores
            .iter()
            .zip(before)
            .map(|(core, b)| diff(core.raw_stats(width), b))
            .collect()
    }
}

fn diff(a: SimStats, b: SimStats) -> SimStats {
    SimStats {
        instructions: a.instructions - b.instructions,
        cycles: a.cycles - b.cycles,
        demand_accesses: a.demand_accesses - b.demand_accesses,
        l1d_misses: a.l1d_misses - b.l1d_misses,
        l2_misses: a.l2_misses - b.l2_misses,
        llc_demand_hits: a.llc_demand_hits - b.llc_demand_hits,
        llc_demand_misses: a.llc_demand_misses - b.llc_demand_misses,
        prefetches_issued: a.prefetches_issued - b.prefetches_issued,
        prefetches_useful: a.prefetches_useful - b.prefetches_useful,
        prefetches_late: a.prefetches_late - b.prefetches_late,
        prefetches_unused_evicted: a.prefetches_unused_evicted - b.prefetches_unused_evicted,
        dram_row_hits: 0,
        dram_row_misses: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resemble_prefetch::NextLine;
    use resemble_trace::gen::StreamGen;

    fn sources(n: usize, seed: u64) -> Vec<Box<dyn TraceSource + Send>> {
        (0..n)
            .map(|i| {
                Box::new(StreamGen::new(seed + i as u64, 2, 100_000, 6).with_write_ratio(0.0))
                    as Box<dyn TraceSource + Send>
            })
            .collect()
    }

    /// One core with no prefetcher is the single-core `Engine` timing
    /// model: identical stats at every issue width (the multicore window
    /// does not report DRAM row counters, so those are left out).
    #[test]
    fn single_core_matches_engine_at_every_width() {
        for width in [2, 4, 8] {
            let cfg = SimConfig {
                width,
                ..SimConfig::test_small()
            };
            let mut mc = MultiCoreEngine::new(cfg, 1);
            let mut srcs = sources(1, 1);
            let mut pfs: Vec<Option<Box<dyn Prefetcher + Send>>> = vec![None];
            let stats = mc.run(&mut srcs, &mut pfs, 1000, 10_000);
            let mut engine = crate::engine::Engine::new(cfg);
            let mut src = StreamGen::new(1, 2, 100_000, 6).with_write_ratio(0.0);
            let single = SimStats {
                dram_row_hits: 0,
                dram_row_misses: 0,
                ..engine.run(&mut src, None, 1000, 10_000)
            };
            assert_eq!(
                format!("{:?}", stats[0]),
                format!("{single:?}"),
                "width {width}"
            );
        }
    }

    #[test]
    fn shared_llc_contention_slows_cores() {
        let cfg = SimConfig::test_small();
        // Alone.
        let mut mc1 = MultiCoreEngine::new(cfg, 1);
        let mut pf1: Vec<Option<Box<dyn Prefetcher + Send>>> = vec![None];
        let alone = mc1.run(&mut sources(1, 7), &mut pf1, 1000, 10_000)[0];
        // With three cache-hungry neighbors.
        let mut mc4 = MultiCoreEngine::new(cfg, 4);
        let mut pf4: Vec<Option<Box<dyn Prefetcher + Send>>> = (0..4).map(|_| None).collect();
        let together = mc4.run(&mut sources(4, 7), &mut pf4, 1000, 10_000);
        assert!(
            together[0].ipc() <= alone.ipc() * 1.02,
            "shared resources cannot speed a core up: {} vs {}",
            together[0].ipc(),
            alone.ipc()
        );
        // All cores made progress.
        assert!(together.iter().all(|s| s.instructions > 0 && s.ipc() > 0.0));
    }

    #[test]
    fn per_core_prefetchers_help_both_cores() {
        let cfg = SimConfig::test_small();
        let mut mc = MultiCoreEngine::new(cfg, 2);
        let mut none: Vec<Option<Box<dyn Prefetcher + Send>>> = vec![None, None];
        let base = mc.run(&mut sources(2, 3), &mut none, 2000, 20_000);
        let mut mc = MultiCoreEngine::new(cfg, 2);
        let mut pfs: Vec<Option<Box<dyn Prefetcher + Send>>> = vec![
            Some(Box::new(NextLine::new(4))),
            Some(Box::new(NextLine::new(4))),
        ];
        let with = mc.run(&mut sources(2, 3), &mut pfs, 2000, 20_000);
        for c in 0..2 {
            assert!(
                with[c].llc_demand_misses < base[c].llc_demand_misses,
                "core {c}: {} vs {}",
                with[c].llc_demand_misses,
                base[c].llc_demand_misses
            );
        }
    }

    #[test]
    fn deterministic() {
        let cfg = SimConfig::test_small();
        let run = || {
            let mut mc = MultiCoreEngine::new(cfg, 2);
            let mut pfs: Vec<Option<Box<dyn Prefetcher + Send>>> =
                vec![Some(Box::new(NextLine::new(2))), None];
            format!("{:?}", mc.run(&mut sources(2, 9), &mut pfs, 500, 5_000))
        };
        assert_eq!(run(), run());
    }
}
