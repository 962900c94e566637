//! The simulation workloads: the Figs 8–10 harness matrix, run untraced
//! through `runner::run_matrix` and traced through `Engine::run` with
//! timing adapters around the trace source, the controller and every
//! bank member.

use crate::layers::{PfTally, StampedSource, Stopwatch, TallySink, TimedPrefetcher, TimedSource};
use crate::report::{
    assemble, digest, median, peak_rss_mb, pin_to_cpu, Metric, Outcome, END_TO_END, PER_LAYER,
};
use resemble_bench::{factory, run_matrix, RunResult, SweepParams};
use resemble_core::{EnsembleStats, ResembleConfig, ResembleMlp, ResembleTabular};
use resemble_prefetch::{BestOffset, Domino, Isb, Prefetcher, PrefetcherBank, Spp};
use resemble_sim::{Engine, SimConfig, SimStats};
use resemble_trace::gen::{app_by_name, APP_NAMES};
use std::sync::{Arc, Mutex};

/// The members of the paper's bank, in `paper_bank()` order.
pub const MEMBERS: [&str; 4] = ["bo", "spp", "isb", "domino"];

/// One simulation workload: an `apps × pfs` matrix at a fixed scale.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Applications (trace generators).
    pub apps: Vec<String>,
    /// Prefetchers; every app also gets its no-prefetch baseline run.
    pub pfs: &'static [&'static str],
    /// Unmeasured warmup accesses per engine run.
    pub warmup: usize,
    /// Measured accesses per engine run.
    pub measure: usize,
}

/// Warmup and measured accesses per engine run of the paper harness
/// (`fig08_10_main`). Shorter windows change the traffic: the temporal
/// prefetchers barely train within them and issue almost nothing.
const HARNESS_WARMUP: usize = 20_000;
const HARNESS_MEASURE: usize = 80_000;

/// The three apps the controller workloads run: streaming, PC-local
/// temporal, and graph.
const CONTROLLER_APPS: [&str; 3] = ["433.milc", "471.omnetpp", "gap.pr"];

/// Look up a simulation workload by name.
pub fn sim_workload(name: &str) -> Option<SimWorkload> {
    let controller_apps = || CONTROLLER_APPS.iter().map(|s| s.to_string()).collect();
    Some(match name {
        "sim-mlp" => SimWorkload {
            name: "sim-mlp",
            apps: controller_apps(),
            pfs: &["resemble"],
            warmup: HARNESS_WARMUP,
            measure: HARNESS_MEASURE,
        },
        "sim-tabular" => SimWorkload {
            name: "sim-tabular",
            apps: controller_apps(),
            pfs: &["resemble_t"],
            warmup: HARNESS_WARMUP,
            measure: HARNESS_MEASURE,
        },
        "sim-engine" => SimWorkload {
            name: "sim-engine",
            apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
            pfs: &MEMBERS,
            warmup: HARNESS_WARMUP,
            measure: HARNESS_MEASURE,
        },
        _ => return None,
    })
}

impl SimWorkload {
    /// Harness parameters for `seed`: one worker, so the figure is
    /// per-core host throughput rather than scheduling.
    pub fn params(&self, seed: u64) -> SweepParams {
        SweepParams {
            warmup: self.warmup,
            measure: self.measure,
            seed,
            fast: true,
            sim: SimConfig::harness(),
            jobs: 1,
        }
    }

    /// Engine runs in one pass: one baseline per app plus one run per
    /// (app, prefetcher).
    pub fn engine_runs(&self) -> usize {
        self.apps.len() * (1 + self.pfs.len())
    }

    /// Simulated demand accesses in one pass (warmup included: the
    /// simulator steps those too).
    pub fn accesses(&self) -> u64 {
        (self.engine_runs() * (self.warmup + self.measure)) as u64
    }
}

/// The counters of a `SimStats`, in declaration order.
pub fn stats_words(s: &SimStats) -> [u64; 13] {
    [
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
    ]
}

/// One digest line per engine run of a pass: `app pf digest`, with the
/// baseline listed under `none`.
pub fn digest_lines(rs: &[RunResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, r) in rs.iter().enumerate() {
        if i == 0 || rs[i - 1].app != r.app {
            let d = digest(stats_words(&r.baseline));
            out.push(format!("{} none {d:016x}", r.app));
        }
        let d = digest(stats_words(&r.with_pf));
        out.push(format!("{} {} {d:016x}", r.app, r.pf));
    }
    out
}

/// Geo-mean IPC gain over no-prefetch across a pass, in percent (the
/// paper's Fig 8 metric; simulated, not host time).
pub fn ipc_gain_pct(rs: &[RunResult]) -> f64 {
    let logs: f64 = rs
        .iter()
        .map(|r| (r.with_pf.ipc() / r.baseline.ipc()).ln())
        .sum();
    ((logs / rs.len() as f64).exp() - 1.0) * 100.0
}

/// Time the per-job construction a pass performs before it simulates:
/// trace generators, engines and prefetchers.
pub fn setup_secs(w: &SimWorkload, p: &SweepParams) -> f64 {
    let t = Stopwatch::start();
    for app in &w.apps {
        for pf in std::iter::once("none").chain(w.pfs.iter().copied()) {
            let src = app_by_name(app, p.seed).expect("workload apps are valid");
            let engine = Engine::new(p.sim);
            let pref = (pf != "none").then(|| factory::make(pf, p.seed, p.fast));
            std::hint::black_box((src, engine, pref));
        }
    }
    t.secs()
}

/// One untraced pass through the harness entry point. A panicking job
/// fails the whole pass (the matrix returns no partial results).
pub fn untraced_pass(w: &SimWorkload, p: &SweepParams) -> Result<Vec<RunResult>, String> {
    let pfs = w.pfs.to_vec();
    std::panic::catch_unwind(|| run_matrix(&w.apps, &pfs, p)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run_matrix panicked".to_string())
    })
}

/// One job as the harness runs it (`run_baseline` / `run_with_pf`),
/// returning its stats and its host time in units: building the
/// generator, engine and prefetcher, then one unit per engine batch.
fn stamped_job(app: &str, pf: Option<&str>, p: &SweepParams) -> (SimStats, Vec<u64>) {
    let t = Stopwatch::start();
    let gen = app_by_name(app, p.seed).expect("workload apps are valid");
    let mut engine = Engine::new(p.sim);
    let mut pref = pf.map(|pf| factory::make(pf, p.seed, p.fast));
    let build_ns = t.ns();
    let mut src = StampedSource::new(gen.source);
    let pref = pref.as_mut().map(|b| &mut **b as &mut dyn Prefetcher);
    let stats = engine.run(&mut src, pref, p.warmup, p.measure);
    let mut units = vec![build_ns];
    units.extend(src.stamps.units_ns());
    (stats, units)
}

/// One pass of the harness's jobs, in matrix order (per app the
/// baseline, then each prefetcher), with the host time of every unit of
/// work. The units line up across passes of the same seed.
pub fn stamped_pass(w: &SimWorkload, p: &SweepParams) -> (Vec<RunResult>, Vec<u64>) {
    let mut results = Vec::new();
    let mut units = Vec::new();
    for app in &w.apps {
        let (baseline, u) = stamped_job(app, None, p);
        units.extend(u);
        for &pf in w.pfs {
            let (with_pf, u) = stamped_job(app, Some(pf), p);
            units.extend(u);
            results.push(RunResult {
                app: app.clone(),
                pf: pf.to_string(),
                baseline,
                with_pf,
            });
        }
    }
    (results, units)
}

/// What a controller did during a job, read from its public stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounts {
    /// Decisions taken.
    pub actions: u64,
    /// Decisions that chose the no-prefetch action.
    pub np_actions: u64,
    /// Reward collected.
    pub reward: f64,
    /// Tokenized states in the Q-table (tabular controller only).
    pub tabular_states: u64,
}

impl CoreCounts {
    fn from_stats(s: &EnsembleStats, np_action: usize, tabular_states: u64) -> Self {
        CoreCounts {
            actions: s.accesses(),
            np_actions: s.action_counts[np_action],
            reward: s.total_reward,
            tabular_states,
        }
    }
}

/// The timed record of one engine run: the span a traced pass keeps per
/// job and writes out at the end.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// Application.
    pub app: String,
    /// Prefetcher (`none` for the baseline run).
    pub pf: String,
    /// Host nanoseconds building the trace generator plus inside
    /// `Engine::run`.
    pub wall_ns: u64,
    /// Host nanoseconds building and inside the trace source.
    pub trace_ns: u64,
    /// Accesses the source produced.
    pub accesses: u64,
    /// The top-level prefetcher (controller, or a lone prefetcher).
    pub top: Option<PfTally>,
    /// Bank members by name; a lone prefetcher is its own member.
    pub members: Vec<(&'static str, PfTally)>,
    /// Controller behaviour, for the ensemble controllers.
    pub core: Option<CoreCounts>,
}

impl JobSpan {
    /// Engine time outside the source and the prefetcher. Negative means
    /// the attribution is broken.
    pub fn sim_self_ns(&self) -> i128 {
        i128::from(self.wall_ns)
            - i128::from(self.trace_ns)
            - i128::from(self.top.map_or(0, |t| t.total_ns()))
    }

    /// Controller time outside its bank members (0 for a lone
    /// prefetcher, which is its own member).
    pub fn core_self_ns(&self) -> i128 {
        if self.core.is_none() {
            return 0;
        }
        let members: u64 = self.members.iter().map(|(_, t)| t.total_ns()).sum();
        i128::from(self.top.map_or(0, |t| t.total_ns())) - i128::from(members)
    }

    /// The span as one JSON line.
    pub fn json(&self, workload: &str, seed: u64, pass: usize) -> String {
        let tally = |t: &PfTally| {
            format!(
                "{{\"access_ns\": {}, \"accesses\": {}, \"event_ns\": {}, \"events\": {}}}",
                t.access_ns, t.accesses, t.event_ns, t.events
            )
        };
        let members: Vec<String> = self
            .members
            .iter()
            .map(|(n, t)| format!("\"{n}\": {}", tally(t)))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"pass\": {pass}, \"app\": \"{}\", \"pf\": \"{}\", \"wall_ns\": {}, \"trace_ns\": {}, \"accesses\": {}, \"top\": {}, \"members\": {{{}}}}}",
            self.app,
            self.pf,
            self.wall_ns,
            self.trace_ns,
            self.accesses,
            self.top.as_ref().map_or("null".to_string(), tally),
            members.join(", ")
        )
    }
}

/// One empty cell per bank member, in [`MEMBERS`] order.
pub fn member_sinks() -> Vec<(&'static str, TallySink)> {
    MEMBERS
        .iter()
        .map(|&n| (n, Arc::new(Mutex::new(PfTally::default()))))
        .collect()
}

/// The paper bank (`paper_bank()`) with every member behind a timing
/// adapter reporting into `sinks` when the bank is dropped.
pub fn timed_bank(sinks: &[(&'static str, TallySink)]) -> PrefetcherBank {
    let sink = |i: usize| Arc::clone(&sinks[i].1);
    PrefetcherBank::new(vec![
        Box::new(TimedPrefetcher::reporting_to(
            Box::new(BestOffset::new()),
            sink(0),
        )),
        Box::new(TimedPrefetcher::reporting_to(Box::new(Spp::new()), sink(1))),
        Box::new(TimedPrefetcher::reporting_to(Box::new(Isb::new()), sink(2))),
        Box::new(TimedPrefetcher::reporting_to(
            Box::new(Domino::new()),
            sink(3),
        )),
    ])
}

/// Read the member cells after the bank that fed them was dropped.
pub fn drain_sinks(sinks: &[(&'static str, TallySink)]) -> Vec<(&'static str, PfTally)> {
    sinks
        .iter()
        .map(|(n, s)| (*n, *s.lock().unwrap_or_else(|e| e.into_inner())))
        .collect()
}

/// Run one engine job with a timed source, returning its stats and span.
fn timed_run(
    app: &str,
    pf_name: &str,
    p: &SweepParams,
    pref: Option<&mut dyn Prefetcher>,
) -> (SimStats, JobSpan) {
    // Building a generator (a graph app builds its whole graph) is trace
    // work too: time it with the source's own calls.
    let t = Stopwatch::start();
    let gen = app_by_name(app, p.seed).expect("workload apps are valid");
    let build_ns = t.ns();
    let mut src = TimedSource::new(gen.source);
    let mut engine = Engine::new(p.sim);
    let t = Stopwatch::start();
    let stats = engine.run(&mut src, pref, p.warmup, p.measure);
    let wall_ns = build_ns + t.ns();
    let span = JobSpan {
        app: app.to_string(),
        pf: pf_name.to_string(),
        wall_ns,
        trace_ns: build_ns + src.ns,
        accesses: src.accesses,
        top: None,
        members: Vec::new(),
        core: None,
    };
    (stats, span)
}

/// One (app, prefetcher) job with every layer timed. The controllers are
/// rebuilt exactly as `factory::make` builds them, but over a timed bank.
pub fn traced_job(app: &str, pf: &str, p: &SweepParams) -> (SimStats, JobSpan) {
    let cfg = if p.fast {
        ResembleConfig::fast()
    } else {
        ResembleConfig::default()
    };
    match pf {
        "resemble" => {
            let sinks = member_sinks();
            let bank = timed_bank(&sinks);
            let mut ctrl = TimedPrefetcher::new(Box::new(ResembleMlp::new(bank, cfg, p.seed)));
            let (stats, mut span) = timed_run(app, pf, p, Some(&mut ctrl));
            span.top = Some(ctrl.tally());
            let c = ctrl.inner();
            span.core = Some(CoreCounts::from_stats(&c.stats, cfg.np_action(), 0));
            drop(ctrl);
            span.members = drain_sinks(&sinks);
            (stats, span)
        }
        "resemble_t" => {
            let sinks = member_sinks();
            let bank = timed_bank(&sinks);
            let mut ctrl =
                TimedPrefetcher::new(Box::new(ResembleTabular::new(bank, cfg, 8, p.seed)));
            let (stats, mut span) = timed_run(app, pf, p, Some(&mut ctrl));
            span.top = Some(ctrl.tally());
            let c = ctrl.inner();
            let states = c.agent().unique_states() as u64;
            span.core = Some(CoreCounts::from_stats(&c.stats, cfg.np_action(), states));
            drop(ctrl);
            span.members = drain_sinks(&sinks);
            (stats, span)
        }
        other => {
            let mut lone = TimedPrefetcher::new(factory::make(other, p.seed, p.fast));
            let (stats, mut span) = timed_run(app, pf, p, Some(&mut lone));
            let t = lone.tally();
            span.top = Some(t);
            span.members = vec![(lone.name(), t)];
            (stats, span)
        }
    }
}

/// One traced pass over the same jobs, in the same order, as
/// [`untraced_pass`]: per app the baseline, then each prefetcher.
pub fn traced_pass(w: &SimWorkload, p: &SweepParams) -> (Vec<RunResult>, Vec<JobSpan>) {
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for app in &w.apps {
        let (baseline, span) = timed_run(app, "none", p, None);
        spans.push(span);
        for &pf in w.pfs {
            let (with_pf, span) = traced_job(app, pf, p);
            spans.push(span);
            results.push(RunResult {
                app: app.clone(),
                pf: pf.to_string(),
                baseline,
                with_pf,
            });
        }
    }
    (results, spans)
}

/// Seeds whose per-run `SimStats` digests are stored in `digests.txt`:
/// the harness default and one seed held out from tuning.
pub const DIGEST_SEEDS: [u64; 2] = [42, 7];

const STORED_DIGESTS: &str = include_str!("../digests.txt");

/// The stored digest lines of `workload` at `seed`, as `app pf digest`.
pub fn stored_digests(workload: &str, seed: u64) -> Vec<String> {
    let prefix = format!("{workload} {seed} ");
    STORED_DIGESTS
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(str::to_string)
        .collect()
}

/// Count the engine runs whose digests differ between two passes.
pub fn mismatches(got: &[String], want: &[String]) -> u64 {
    let n = got.len().max(want.len());
    (0..n).filter(|&i| got.get(i) != want.get(i)).count() as u64
}

/// Per-layer figures of one traced pass, each over the pass's simulated
/// accesses (baselines and warmup included, as in `accesses_per_s`), so
/// the per-access times add up to the pass's host time per access.
#[derive(Debug, Clone, Default)]
pub struct LayerPass {
    /// Host nanoseconds of the whole pass.
    pub pass_ns: f64,
    /// Simulated accesses.
    pub accesses: f64,
    /// Trace generation.
    pub trace_ns: f64,
    /// Engine residual.
    pub sim_self_ns: f64,
    /// `on_access` time of each member, in [`MEMBERS`] order.
    pub member_ns: [f64; 4],
    /// Fill/evict hook time summed over members.
    pub events_ns: f64,
    /// Fill/evict events delivered to the top-level prefetchers.
    pub events: f64,
    /// Controller time outside its members.
    pub core_self_ns: f64,
    /// Smallest engine residual of any job, to catch broken attribution.
    pub min_sim_self_ns: i128,
    /// Smallest controller residual of any job.
    pub min_core_self_ns: i128,
}

impl LayerPass {
    /// Sum the spans of one traced pass.
    pub fn from_spans(spans: &[JobSpan], pass_ns: f64) -> Self {
        let mut l = LayerPass {
            pass_ns,
            min_sim_self_ns: i128::MAX,
            min_core_self_ns: i128::MAX,
            ..Default::default()
        };
        for s in spans {
            l.accesses += s.accesses as f64;
            l.trace_ns += s.trace_ns as f64;
            l.sim_self_ns += s.sim_self_ns() as f64;
            l.core_self_ns += s.core_self_ns() as f64;
            l.min_sim_self_ns = l.min_sim_self_ns.min(s.sim_self_ns());
            l.min_core_self_ns = l.min_core_self_ns.min(s.core_self_ns());
            l.events += s.top.map_or(0, |t| t.events) as f64;
            for (name, t) in &s.members {
                if let Some(i) = MEMBERS.iter().position(|m| m == name) {
                    l.member_ns[i] += t.access_ns as f64;
                }
                l.events_ns += t.event_ns as f64;
            }
        }
        l
    }

    /// Host time of the pass not inside any engine run (job construction).
    pub fn other_ns(&self) -> f64 {
        self.pass_ns
            - self.trace_ns
            - self.sim_self_ns
            - self.member_ns.iter().sum::<f64>()
            - self.events_ns
            - self.core_self_ns
    }
}

/// Aggregate simulated counts of every with-prefetcher run of a pass.
fn sim_counts(rs: &[RunResult]) -> SimStats {
    let mut t = SimStats::default();
    for r in rs {
        let s = &r.with_pf;
        t.instructions += s.instructions;
        t.llc_demand_misses += s.llc_demand_misses;
        t.prefetches_issued += s.prefetches_issued;
        t.prefetches_useful += s.prefetches_useful;
        t.prefetches_late += s.prefetches_late;
        t.dram_row_hits += s.dram_row_hits;
        t.dram_row_misses += s.dram_row_misses;
    }
    t
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated per-layer counts behind `ipc_gain_pct`.
pub fn sim_count_metrics(rs: &[RunResult]) -> Vec<Metric> {
    let t = sim_counts(rs);
    vec![
        Metric::single("sim.llc_mpki", "miss/kinstr", t.mpki()),
        Metric::single("sim.prefetch_accuracy", "ratio", t.accuracy()),
        Metric::single("sim.prefetch_coverage", "ratio", t.coverage()),
        Metric::single(
            "sim.prefetches_late_frac",
            "ratio",
            ratio(t.prefetches_late, t.prefetches_useful),
        ),
        Metric::single(
            "sim.dram_row_hit_frac",
            "ratio",
            ratio(t.dram_row_hits, t.dram_row_hits + t.dram_row_misses),
        ),
    ]
}

/// Controller behaviour over a traced pass: whether a change altered
/// what the controllers decide, not how fast.
fn core_count_metrics(spans: &[JobSpan]) -> Vec<Metric> {
    let cores: Vec<CoreCounts> = spans.iter().filter_map(|s| s.core).collect();
    if cores.is_empty() {
        return Vec::new();
    }
    let actions: u64 = cores.iter().map(|c| c.actions).sum();
    let np: u64 = cores.iter().map(|c| c.np_actions).sum();
    let reward: f64 = cores.iter().map(|c| c.reward).sum();
    let states: u64 = cores.iter().map(|c| c.tabular_states).sum();
    vec![
        Metric::single("core.np_action_frac", "ratio", ratio(np, actions)),
        Metric::single(
            "core.reward_per_kaccess",
            "1/kaccess",
            reward * 1000.0 / actions.max(1) as f64,
        ),
        Metric::single(
            "core.tabular_states",
            "count",
            states as f64 / cores.len() as f64,
        ),
    ]
}

/// Write the spans of every traced pass as JSON lines.
fn write_spans(w: &SimWorkload, seed: u64, passes: &[Vec<JobSpan>]) -> std::io::Result<String> {
    let path = crate::report::out_path(&format!("spans-{}-seed{seed}.jsonl", w.name))?;
    let mut text = String::new();
    for (i, spans) in passes.iter().enumerate() {
        for s in spans {
            text.push_str(&s.json(w.name, seed, i));
            text.push('\n');
        }
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Check the program's outputs at the stored seeds against the stored
/// digests, counting every engine run checked and every mismatch.
fn verify_digests(w: &SimWorkload, out: &mut Outcome) {
    for seed in DIGEST_SEEDS {
        let want = stored_digests(w.name, seed);
        out.attempted += w.engine_runs() as u64;
        match untraced_pass(w, &w.params(seed)) {
            Ok(rs) => {
                let bad = mismatches(&digest_lines(&rs), &want);
                if bad > 0 {
                    out.failed += bad;
                    out.problem(format!(
                        "{bad} of {} engine runs differ from the stored digests at seed {seed}",
                        want.len()
                    ));
                }
            }
            Err(e) => {
                out.failed += w.engine_runs() as u64;
                out.problem(format!("digest pass at seed {seed} panicked: {e}"));
            }
        }
    }
}

/// Run a simulation workload for about `seconds` and report its metrics:
/// end-to-end ones untraced, or per-layer ones when `trace` is set.
///
/// Successive passes run on each CPU of `cpus` in turn. On a shared host
/// the load other tenants put beside each CPU comes and goes on its own,
/// so turning over the CPUs gives each unit more chances to run unslowed.
pub fn run(w: &SimWorkload, seed: u64, seconds: f64, trace: bool, cpus: &[usize]) -> Outcome {
    let p = w.params(seed);
    let mut out = Outcome::default();
    let runs = w.engine_runs() as u64;
    let accesses = w.accesses() as f64;
    println!(
        "workload {}: {} apps x (none + {}) = {runs} engine runs of {}+{} accesses, seed {seed}",
        w.name,
        w.apps.len(),
        w.pfs.join(","),
        w.warmup,
        w.measure
    );

    let start = Stopwatch::start();
    // The harness entry point gives the reference stats of this seed;
    // every timed and traced pass must reproduce them.
    out.attempted += runs;
    let (results, want) = match untraced_pass(w, &p) {
        Ok(rs) => {
            let lines = digest_lines(&rs);
            (rs, lines)
        }
        Err(e) => {
            out.failed += runs;
            out.problem(format!("untraced pass panicked: {e}"));
            out.metrics = assemble(if trace { PER_LAYER } else { END_TO_END }, Vec::new());
            return out;
        }
    };
    let mut setups = Vec::new();
    // Fastest time of each unit of work over the passes: other load on
    // the host only ever slows a unit, so the sum of the fastest ones is
    // the best estimate of what the code itself costs.
    let mut best: Vec<u64> = Vec::new();
    let mut aps = Vec::new();
    let mut traced_aps = Vec::new();
    let mut layer_passes = Vec::new();
    let mut span_passes = Vec::new();
    let mut traced_results = None;
    loop {
        if let Some(&cpu) = cpus.get(aps.len() % cpus.len().max(1)) {
            if let Err(e) = pin_to_cpu(cpu) {
                out.problem(format!("run invalid: {e}"));
            }
        }
        // Set-up is timed between passes so that its median samples the
        // whole run rather than one moment of it.
        setups.push(setup_secs(w, &p));
        let (rs, units) = stamped_pass(w, &p);
        out.attempted += runs;
        let bad = mismatches(&digest_lines(&rs), &want);
        if bad > 0 {
            out.failed += bad;
            out.problem(format!(
                "{bad} engine runs differ from the harness entry point"
            ));
        }
        if best.is_empty() {
            best = units.clone();
        } else if best.len() == units.len() {
            for (b, u) in best.iter_mut().zip(&units) {
                *b = (*b).min(*u);
            }
        } else {
            out.problem("a pass split into a different number of batches");
        }
        aps.push(accesses / (units.iter().sum::<u64>() as f64 / 1e9));
        if trace {
            let t = Stopwatch::start();
            let (rs, spans) = traced_pass(w, &p);
            let secs = t.secs();
            out.attempted += runs;
            let bad = mismatches(&digest_lines(&rs), &want);
            if bad > 0 {
                out.failed += bad;
                out.problem(format!("{bad} traced engine runs differ from untraced"));
            }
            traced_aps.push(accesses / secs);
            layer_passes.push(LayerPass::from_spans(&spans, secs * 1e9));
            traced_results.get_or_insert(rs);
            span_passes.push(spans);
        }
        if start.secs() >= seconds && aps.len() >= MIN_PASSES {
            break;
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup_secs(w, &p));
    }

    verify_digests(w, &mut out);

    if !trace {
        let best_s = best.iter().sum::<u64>() as f64 / 1e9;
        println!(
            "fastest units sum to {best_s:.3} s a pass ({} units, {} passes)",
            best.len(),
            aps.len()
        );
        let measured = vec![
            Metric::rate_summary(
                "accesses_per_s",
                "1/s",
                accesses / best_s,
                "fastest units",
                aps,
            ),
            Metric::median_of("setup_s", "s", setups, true),
        ];
        out.metrics = assemble(END_TO_END, measured);
        out.extra = vec![
            Metric::single("ipc_gain_pct", "%", ipc_gain_pct(&results)),
            Metric::single("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN)),
        ];
        return out;
    }

    // Traced run: per-layer attribution, medians over traced passes.
    for l in &layer_passes {
        if l.min_sim_self_ns < 0 {
            out.problem(format!(
                "sim.self residual negative ({} ns) in a job",
                l.min_sim_self_ns
            ));
        }
        if l.min_core_self_ns < 0 {
            out.problem(format!(
                "core.self residual negative ({} ns) in a job",
                l.min_core_self_ns
            ));
        }
    }
    let per = |f: &dyn Fn(&LayerPass) -> f64| -> Vec<f64> {
        layer_passes.iter().map(|l| f(l) / l.accesses).collect()
    };
    let mut measured = vec![
        Metric::median_of("trace.ns_per_access", "ns", per(&|l| l.trace_ns), true),
        Metric::median_of(
            "sim.self_ns_per_access",
            "ns",
            per(&|l| l.sim_self_ns),
            true,
        ),
    ];
    for (i, m) in MEMBERS.iter().enumerate() {
        let name = format!("prefetch.{m}.ns_per_access");
        measured.push(Metric::median_of(
            &name,
            "ns",
            per(&|l| l.member_ns[i]),
            true,
        ));
    }
    measured.push(Metric::median_of(
        "prefetch.events_ns_per_access",
        "ns",
        per(&|l| l.events_ns),
        true,
    ));
    measured.push(Metric::single(
        "prefetch.events_per_access",
        "count",
        layer_passes[0].events / layer_passes[0].accesses,
    ));
    measured.push(Metric::median_of(
        "core.self_ns_per_access",
        "ns",
        per(&|l| l.core_self_ns),
        true,
    ));
    let traced = traced_results.expect("a traced pass ran");
    measured.extend(sim_count_metrics(&traced));
    measured.push(Metric::single(
        "sim.ipc_gain_pct",
        "%",
        ipc_gain_pct(&traced),
    ));
    measured.push(Metric::single(
        "mem.peak_rss_mb",
        "MiB",
        peak_rss_mb().unwrap_or(f64::NAN),
    ));
    measured.extend(core_count_metrics(&span_passes[0]));
    let overhead = 1.0 - median(&traced_aps) / median(&aps);
    measured.push(Metric::single("tracing.overhead_frac", "ratio", overhead));

    println!(
        "tracing overhead: traced {:.0} vs untraced {:.0} accesses/s ({:.1}% slower)",
        median(&traced_aps),
        median(&aps),
        overhead * 100.0
    );
    print_shares(&layer_passes);
    match write_spans(w, seed, &span_passes) {
        Ok(path) => println!("spans: {path}"),
        Err(e) => out.problem(format!("could not write spans: {e}")),
    }
    out.metrics = assemble(PER_LAYER, measured);
    out
}

/// Print each layer's share of the traced wall time (medians over passes).
fn print_shares(passes: &[LayerPass]) {
    let share = |f: &dyn Fn(&LayerPass) -> f64| -> f64 {
        median(
            &passes
                .iter()
                .map(|l| f(l) / l.pass_ns * 100.0)
                .collect::<Vec<_>>(),
        )
    };
    println!("layer shares of traced wall time:");
    let mut rows: Vec<(String, f64)> = vec![
        ("trace".into(), share(&|l| l.trace_ns)),
        ("sim.self".into(), share(&|l| l.sim_self_ns)),
    ];
    for (i, m) in MEMBERS.iter().enumerate() {
        rows.push((format!("prefetch.{m}"), share(&|l| l.member_ns[i])));
    }
    rows.push(("prefetch.events".into(), share(&|l| l.events_ns)));
    rows.push(("core.self".into(), share(&|l| l.core_self_ns)));
    rows.push(("other (job construction)".into(), share(&|l| l.other_ns())));
    for (name, pct) in rows {
        println!("  {name:<26} {pct:6.2}%");
    }
}

/// Set-up is timed once per pass and at least this many times per run;
/// the median is reported.
const SETUP_REPS: usize = 5;

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
