//! Integration tests for the §VIII future-work extensions: multi-core,
//! quantization, oracle headroom, and the widened prefetcher zoo.

use resemble::core::{oracle_selection, ResembleConfig, ResembleMlp};
use resemble::prelude::*;

#[test]
fn multicore_heterogeneous_mix_prefers_per_core_ensembles() {
    // Two cores, one spatial app one temporal app: per-core ReSemble must
    // improve both versus no prefetching.
    let mk_srcs = || -> Vec<Box<dyn TraceSource + Send>> {
        vec![
            app_by_name("433.milc", 42).unwrap().source,
            app_by_name("623.xalancbmk", 42).unwrap().source,
        ]
    };
    let mut mc = MultiCoreEngine::new(SimConfig::harness(), 2);
    let mut none: Vec<Option<Box<dyn Prefetcher + Send>>> = vec![None, None];
    let base = mc.run(&mut mk_srcs(), &mut none, 10_000, 30_000);
    let mut mc = MultiCoreEngine::new(SimConfig::harness(), 2);
    let mut pfs: Vec<Option<Box<dyn Prefetcher + Send>>> = (0..2)
        .map(|i| {
            Some(Box::new(ResembleMlp::new(
                paper_bank(),
                ResembleConfig::fast(),
                42 + i,
            )) as Box<dyn Prefetcher + Send>)
        })
        .collect();
    let with = mc.run(&mut mk_srcs(), &mut pfs, 10_000, 30_000);
    for c in 0..2 {
        assert!(
            with[c].ipc() > base[c].ipc(),
            "core {c}: {} vs {}",
            with[c].ipc(),
            base[c].ipc()
        );
    }
}

#[test]
fn quantized_frozen_controller_remains_effective() {
    let mut engine = Engine::new(SimConfig::harness());
    let mut src = app_by_name("433.milc", 42).unwrap().source;
    let base = engine.run(&mut *src, None, 20_000, 20_000);

    let mut ctl = ResembleMlp::new(paper_bank(), ResembleConfig::fast(), 42);
    let mut engine = Engine::new(SimConfig::harness());
    let mut src = app_by_name("433.milc", 42).unwrap().source;
    {
        let pf: &mut dyn Prefetcher = &mut ctl;
        let _ = engine.run(&mut *src, Some(pf), 0, 20_000);
    }
    let rms = ctl.quantize_and_freeze(16);
    assert!(rms < 1e-3, "16-bit quantization error {rms}");
    let s = {
        let pf: &mut dyn Prefetcher = &mut ctl;
        engine.run(&mut *src, Some(pf), 0, 20_000)
    };
    assert!(
        s.ipc_improvement_over(&base) > 10.0,
        "frozen 16-bit controller: {:.1}%",
        s.ipc_improvement_over(&base)
    );
}

#[test]
fn oracle_bounds_hold_on_real_bank() {
    let trace = app_by_name("621.wrf", 42).unwrap().source.collect_n(20_000);
    let mut bank = paper_bank();
    let r = oracle_selection(&trace, &mut bank, 256);
    // Bounds: every member <= oracle <= covered <= accesses.
    for (i, &h) in r.per_member_hits.iter().enumerate() {
        assert!(h <= r.oracle_hits, "member {i}");
    }
    assert!(r.oracle_hits <= r.covered_accesses);
    assert!(r.covered_accesses <= r.accesses);
    // On wrf-like strides the spatial members dominate.
    assert!(
        r.per_member_hits[1] > r.per_member_hits[2],
        "SPP should beat ISB on wrf"
    );
}

#[test]
fn widened_zoo_members_behave_on_their_home_patterns() {
    // STMS on a global repeating sequence; STeMS on region footprints;
    // Markov/GHB on their canonical patterns — end-to-end through the sim.
    let run = |app: &str, pf: &mut dyn Prefetcher| -> SimStats {
        let mut engine = Engine::new(SimConfig::harness());
        let mut src = app_by_name(app, 42).unwrap().source;
        engine.run(&mut *src, Some(pf), 15_000, 30_000)
    };
    let mut stms = Stms::new();
    let s = run("471.omnetpp", &mut stms);
    assert!(
        s.accuracy() > 0.5,
        "STMS on repeating chase: {:.2}",
        s.accuracy()
    );
    let mut markov = Markov::new();
    let s = run("471.omnetpp", &mut markov);
    assert!(
        s.accuracy() > 0.5,
        "Markov on repeating chase: {:.2}",
        s.accuracy()
    );
    let mut ghb = GhbDc::new();
    let s = run("621.wrf", &mut ghb);
    assert!(s.prefetches_issued > 0, "GHB on strides must engage");
}
