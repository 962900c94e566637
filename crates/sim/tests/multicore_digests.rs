//! Pins `MultiCoreEngine` bit for bit.
//!
//! Each digest covers every core's measured `SimStats` and the shared
//! DRAM row counters of one run: 2 and 4 cores over harness apps, each
//! core with a `NextLine`, an `Spp` or no prefetcher, at default prefetch
//! timing, with 64 LLC MSHRs per core and with 2. Any change to the
//! per-core timing model, the shared LLC/MSHR/DRAM back end or the
//! time-ordered interleaving of cores moves one of them.

use resemble_prefetch::{NextLine, Prefetcher, Spp};
use resemble_sim::{MultiCoreEngine, SimConfig, SimStats};
use resemble_trace::gen::{app_by_name, TraceSource};

/// FNV-1a over the little-endian bytes of one 64-bit word.
fn fnv_word(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_stats(h: &mut u64, s: &SimStats) {
    for w in [
        s.instructions,
        s.cycles,
        s.demand_accesses,
        s.l1d_misses,
        s.l2_misses,
        s.llc_demand_hits,
        s.llc_demand_misses,
        s.prefetches_issued,
        s.prefetches_useful,
        s.prefetches_late,
        s.prefetches_unused_evicted,
        s.dram_row_hits,
        s.dram_row_misses,
    ] {
        fnv_word(h, w);
    }
}

/// One `(app, prefetcher)` pair per core.
type Mix = [(&'static str, &'static str)];

/// Runs one core per pair of `cores` and digests the result.
fn digest(cores: &Mix, mshrs_per_core: usize) -> u64 {
    let cfg = SimConfig {
        llc_mshrs: mshrs_per_core,
        ..SimConfig::harness()
    };
    let mut sources: Vec<Box<dyn TraceSource + Send>> = cores
        .iter()
        .enumerate()
        .map(|(i, (app, _))| app_by_name(app, 42 + i as u64).unwrap().source)
        .collect();
    let mut prefetchers: Vec<Option<Box<dyn Prefetcher + Send>>> = cores
        .iter()
        .map(|&(_, pf)| match pf {
            "next_line" => Some(Box::new(NextLine::new(4)) as Box<dyn Prefetcher + Send>),
            "spp" => Some(Box::new(Spp::new()) as Box<dyn Prefetcher + Send>),
            _ => None,
        })
        .collect();
    let mut mc = MultiCoreEngine::new(cfg, cores.len());
    let stats = mc.run(&mut sources, &mut prefetchers, 5_000, 20_000);
    let mut h = FNV_OFFSET;
    for s in &stats {
        fnv_stats(&mut h, s);
    }
    let (row_hits, row_misses) = mc.dram_stats();
    fnv_word(&mut h, row_hits);
    fnv_word(&mut h, row_misses);
    h
}

const TWO_CORES: &Mix = &[("433.milc", "next_line"), ("623.xalancbmk", "none")];

const FOUR_CORES: &Mix = &[
    ("433.milc", "spp"),
    ("471.omnetpp", "next_line"),
    ("621.wrf", "none"),
    ("462.libquantum", "spp"),
];

#[test]
fn multicore_runs_match_pinned_digests() {
    let pinned: [(&Mix, usize, u64); 4] = [
        (TWO_CORES, 64, 0x14bf_fb61_98c3_ef72),
        (TWO_CORES, 2, 0x088a_7430_8dc5_db26),
        (FOUR_CORES, 64, 0x5e3c_9352_0e7b_5ffa),
        (FOUR_CORES, 2, 0x3d3c_e303_11ea_57c3),
    ];
    let mut wrong = Vec::new();
    for (cores, mshrs, want) in pinned {
        let got = digest(cores, mshrs);
        if got != want {
            wrong.push(format!("{} cores, {mshrs} MSHRs: {got:#018x}", cores.len()));
        }
    }
    assert!(wrong.is_empty(), "digests moved: {wrong:?}");
}
