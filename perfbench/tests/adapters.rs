//! The timing adapters must not change what they measure: a job run
//! through them gives the same simulated statistics and the same
//! controller statistics as the unwrapped job, and every `Prefetcher`
//! answer passes through unchanged.

use resemble_bench::{run_one, SweepParams};
use resemble_core::{ResembleConfig, ResembleMlp, ResembleTabular};
use resemble_perfbench::layers::{TimedPrefetcher, TimedSource};
use resemble_perfbench::report::{END_TO_END, PER_LAYER};
use resemble_perfbench::sim::{
    digest_lines, drain_sinks, member_sinks, stamped_pass, timed_bank, traced_job, untraced_pass,
    SimWorkload,
};
use resemble_prefetch::{paper_bank, Prefetcher};
use resemble_sim::{Engine, SimConfig, SimStats};
use resemble_trace::gen::app_by_name;

fn small() -> SweepParams {
    SweepParams {
        warmup: 500,
        measure: 3_000,
        seed: 11,
        sim: SimConfig::test_small(),
        jobs: 1,
        ..SweepParams::default()
    }
}

fn run(p: &SweepParams, app: &str, pf: &mut dyn Prefetcher, timed_source: bool) -> SimStats {
    let src = app_by_name(app, p.seed).expect("app").source;
    let mut engine = Engine::new(p.sim);
    if timed_source {
        let mut timed = TimedSource::new(src);
        engine.run(&mut timed, Some(pf), p.warmup, p.measure)
    } else {
        let mut src = src;
        engine.run(&mut *src, Some(pf), p.warmup, p.measure)
    }
}

#[test]
fn wrapped_mlp_job_matches_unwrapped() {
    let p = small();
    let cfg = ResembleConfig::fast();
    let mut plain = ResembleMlp::new(paper_bank(), cfg, p.seed);
    let want = run(&p, "471.omnetpp", &mut plain, false);

    let sinks = member_sinks();
    let mut timed =
        TimedPrefetcher::new(Box::new(ResembleMlp::new(timed_bank(&sinks), cfg, p.seed)));
    let got = run(&p, "471.omnetpp", &mut timed, true);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(
        format!("{:?}", timed.inner().stats),
        format!("{:?}", plain.stats),
        "controller statistics must not move"
    );
    assert_eq!(timed.budget_bytes(), plain.budget_bytes());
    assert_eq!(timed.name(), plain.name());
    assert_eq!(timed.kind(), plain.kind());
    assert_eq!(timed.max_degree(), plain.max_degree());
    assert!(timed.tally().accesses > 0 && timed.tally().events > 0);

    // A reset forwards too: both controllers replay the job identically.
    timed.reset();
    plain.reset();
    let again = run(&p, "471.omnetpp", &mut timed, true);
    assert_eq!(
        format!("{again:?}"),
        format!("{:?}", run(&p, "471.omnetpp", &mut plain, false))
    );

    drop(timed);
    for (name, t) in drain_sinks(&sinks) {
        assert!(
            t.accesses > 0 && t.access_ns > 0,
            "member {name} was not timed"
        );
    }
}

#[test]
fn wrapped_tabular_job_matches_unwrapped() {
    let p = small();
    let cfg = ResembleConfig::fast();
    let mut plain = ResembleTabular::new(paper_bank(), cfg, 8, p.seed);
    let want = run(&p, "gap.pr", &mut plain, false);
    let sinks = member_sinks();
    let mut timed = TimedPrefetcher::new(Box::new(ResembleTabular::new(
        timed_bank(&sinks),
        cfg,
        8,
        p.seed,
    )));
    let got = run(&p, "gap.pr", &mut timed, true);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(
        format!("{:?}", timed.inner().stats),
        format!("{:?}", plain.stats)
    );
    assert_eq!(
        timed.inner().agent().unique_states(),
        plain.agent().unique_states()
    );
}

#[test]
fn traced_jobs_match_the_harness() {
    let p = small();
    for pf in ["resemble", "resemble_t", "bo", "spp", "isb", "domino"] {
        let want = run_one("433.milc", pf, &p);
        let (got, span) = traced_job("433.milc", pf, &p);
        assert_eq!(format!("{got:?}"), format!("{:?}", want.with_pf), "{pf}");
        assert!(span.sim_self_ns() >= 0 && span.core_self_ns() >= 0, "{pf}");
    }
}

#[test]
fn stamped_passes_match_the_harness() {
    let p = small();
    let w = SimWorkload {
        name: "test",
        apps: vec!["433.milc".to_string(), "gap.pr".to_string()],
        pfs: &["bo", "resemble_t"],
        warmup: p.warmup,
        measure: p.measure,
    };
    let want = digest_lines(&untraced_pass(&w, &p).expect("harness pass"));
    let (first, units) = stamped_pass(&w, &p);
    let (second, again) = stamped_pass(&w, &p);
    assert_eq!(digest_lines(&first), want);
    assert_eq!(digest_lines(&second), want);
    // Units line up across passes: one per job's construction, one from
    // the start to the first batch and one per batch.
    let batches = p.warmup.div_ceil(1024) + p.measure.div_ceil(1024);
    assert_eq!(units.len(), 6 * (2 + batches));
    assert_eq!(again.len(), units.len());
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            listed(name, unit),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    let entries = json.matches("{\"name\": ").count();
    let workloads = json.matches("\"why\": ").count();
    assert_eq!(entries - workloads, END_TO_END.len() + PER_LAYER.len());
}
