//! Multi-core simulation — the paper's §VIII future work ("ensemble
//! prefetching for multi-core architectures").
//!
//! N cores share one LLC, its MSHRs, and DRAM. Each core is the same
//! per-core timing model [`crate::engine::Engine`] runs (private L1D/L2,
//! ROB and retire frontier, in-flight requests, prefetch controller
//! timing), stepped over one shared back end instead of a private one.
//! Cores advance in time order — always the core with the earliest retire
//! frontier — an approximation of concurrent execution that preserves what
//! matters for the prefetching question: shared-LLC capacity contention,
//! shared-MSHR pressure, and DRAM bank interference between cores' demand
//! and prefetch streams. Each core may host its own prefetcher/controller
//! (the private-controller organization the paper hints at).

use crate::config::SimConfig;
use crate::engine::{diff_stats, Backend, Core};
use crate::stats::SimStats;
use resemble_prefetch::Prefetcher;
use resemble_trace::TraceSource;

/// N cores over a shared LLC and DRAM.
pub struct MultiCoreEngine {
    cfg: SimConfig,
    cores: Vec<Core>,
    backend: Backend,
}

impl MultiCoreEngine {
    /// Build with `n_cores` private L1/L2 pairs over one shared LLC.
    ///
    /// DRAM bank machines (and therefore aggregate bandwidth) scale with
    /// the core count, matching Table V's "8 GB/s bandwidth *per core*";
    /// MSHRs scale likewise.
    pub fn new(cfg: SimConfig, n_cores: usize) -> Self {
        assert!(n_cores >= 1);
        let mut shared = cfg;
        shared.dram.banks *= n_cores;
        shared.llc_mshrs *= n_cores;
        Self {
            cores: (0..n_cores).map(|_| Core::new(&cfg)).collect(),
            backend: Backend::new(&shared),
            cfg,
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Shared-DRAM row-buffer statistics (hits, misses).
    pub fn dram_stats(&self) -> (u64, u64) {
        self.backend.dram_stats()
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
        let mut remaining = vec![quota; self.cores.len()];
        // `min_by_key` keeps the first of equal frontiers: the lowest core.
        while let Some(c) = (0..self.cores.len())
            .filter(|&c| remaining[c] > 0)
            .min_by_key(|&c| self.cores[c].retire_slots())
        {
            match sources[c].next_access() {
                Some(a) => {
                    let pf = prefetchers[c]
                        .as_deref_mut()
                        .map(|p| p as &mut (dyn Prefetcher + '_));
                    self.cores[c].step(&self.cfg, &mut self.backend, &a, pf);
                    remaining[c] -= 1;
                }
                None => remaining[c] = 0,
            }
        }
    }

    /// Run all cores: `warmup` + `measure` accesses per core. Returns
    /// per-core measured statistics; their DRAM row counters are zero, as
    /// DRAM is shared (see [`Self::dram_stats`]).
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
        self.backend.begin_measurement();
        let mut before = Vec::with_capacity(self.cores.len());
        for core in &mut self.cores {
            core.begin_measurement();
            before.push(core.raw_stats(&self.cfg));
        }
        self.run_phase(sources, prefetchers, measure);
        self.cores
            .iter()
            .zip(before)
            .map(|(core, b)| diff_stats(&core.raw_stats(&self.cfg), &b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchTiming;
    use crate::engine::Engine;
    use resemble_prefetch::NextLine;
    use resemble_trace::gen::{app_by_name, StreamGen};

    fn sources(n: usize, seed: u64) -> Vec<Box<dyn TraceSource + Send>> {
        (0..n)
            .map(|i| {
                Box::new(StreamGen::new(seed + i as u64, 2, 100_000, 6).with_write_ratio(0.0))
                    as Box<dyn TraceSource + Send>
            })
            .collect()
    }

    /// One core is the single-core `Engine` timing model: identical stats
    /// at every issue width, without a prefetcher and with a `NextLine`
    /// one under every kind of controller timing. The multicore window
    /// does not report DRAM row counters, so those are compared over the
    /// whole run instead.
    #[test]
    fn single_core_matches_engine_at_every_width() {
        let timing = |latency, high_throughput| PrefetchTiming {
            latency,
            high_throughput,
        };
        let cases = [
            (false, PrefetchTiming::default()),
            (true, PrefetchTiming::default()),
            (true, timing(50, true)),
            (true, timing(40, false)),
            (true, timing(200, false)),
        ];
        for width in [2, 4, 8] {
            for (with_pf, prefetch_timing) in cases {
                let cfg = SimConfig {
                    width,
                    prefetch_timing,
                    ..SimConfig::test_small()
                };
                let milc = || app_by_name("433.milc", 1).unwrap().source;
                let mut mc = MultiCoreEngine::new(cfg, 1);
                let mut pfs: Vec<Option<Box<dyn Prefetcher + Send>>> =
                    vec![with_pf.then(|| Box::new(NextLine::new(4)) as _)];
                let stats = mc.run(&mut [milc()], &mut pfs, 1000, 10_000);
                let mut engine = Engine::new(cfg);
                let mut nl = NextLine::new(4);
                let pf = with_pf.then_some(&mut nl as &mut dyn Prefetcher);
                let single = engine.run(&mut *milc(), pf, 1000, 10_000);
                let case = format!("width {width}, prefetcher {with_pf}, {prefetch_timing:?}");
                assert_eq!(
                    format!("{:?}", stats[0]),
                    format!(
                        "{:?}",
                        SimStats {
                            dram_row_hits: 0,
                            dram_row_misses: 0,
                            ..single
                        }
                    ),
                    "{case}"
                );
                let all = engine.raw_stats();
                assert_eq!(
                    mc.dram_stats(),
                    (all.dram_row_hits, all.dram_row_misses),
                    "{case}"
                );
                assert_eq!(with_pf, single.prefetches_issued > 0, "{case}");
            }
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
