//! perf_gate — simulator-throughput regression gate.
//!
//! Runs the Figs 8–10 workload matrix (every app × the main prefetcher
//! lineup, plus a no-prefetcher engine-core job per app) on **both** the
//! optimized [`Engine`] and the seed [`ReferenceEngine`], on identical
//! pre-materialized traces. For every job it records wall time and
//! accesses/sec for each engine, verifies the two produce bit-identical
//! `SimStats`, and writes the whole report to `BENCH_sim.json`.
//!
//! After the matrix, a **controller-throughput** section times the full
//! ReSemble MLP configuration (batch 256, Table III) end-to-end through
//! the optimized engine twice — once per DQN [`Datapath`]: the batched
//! minibatch-GEMM datapath vs the scalar per-sample reference — on a
//! small app subset, verifying the two produce bit-identical `SimStats`
//! (the datapaths are bit-identical by construction, so any divergence is
//! a kernel bug).
//!
//! After the controller section, a **kernel-throughput** section times
//! the raw batched kernel path (forward + backward minibatch on the
//! controller-shaped `[4, 100, 5]` MLP at batch 256) once per SIMD
//! backend available on the host, forced via `resemble_nn::simd::force`.
//! The gated ratio is dispatched-backend steps/s over scalar steps/s —
//! the direct measure of what the runtime-dispatched kernels buy.
//!
//! Modes:
//! * default — measure, print the tables, write `--json` (default
//!   `BENCH_sim.json`).
//! * `--write-baseline` — additionally write the committed baseline file
//!   (`crates/bench/perf_baseline.json`) from this run's speedups.
//! * `--check` — compare against the committed baseline and exit non-zero
//!   if either gated speedup regressed more than 10% below its baseline,
//!   or fell under its minimum (`--min-speedup`, default 1.5, for the
//!   engine core; `--min-controller-speedup`, default 2.0, for the
//!   controller), or any job's stats diverged.
//!
//! The gate compares *speedup over an in-process reference*, not absolute
//! accesses/sec, so the committed baseline is portable across machines:
//! both sides of each ratio see the same hardware and the ratio isolates
//! the code, not the host.
//!
//! After the kernel section, a **parallel-sweep** section times the
//! identical `run_matrix` workload serially (`jobs = 1`) and in parallel
//! (auto worker count) on the `resemble-runtime` executor, and checks the
//! two result sets for byte identity — the DESIGN.md §9 determinism
//! contract, enforced on real simulation jobs at every gate run.
//!
//! The **gated** metrics:
//! * `engine_core_speedup` — geo-mean speedup of the no-prefetcher
//!   ("none") jobs, optimized [`Engine`] vs seed [`ReferenceEngine`]:
//!   single-core accesses/sec of the simulator itself. RL-controller
//!   matrix jobs spend their wall time in prefetcher code byte-identical
//!   in both engines, so they are reported (and stats-checked) but not
//!   gated.
//! * `controller_speedup` — geo-mean accesses/sec ratio of the batched
//!   DQN datapath over the per-sample reference datapath on the
//!   controller jobs: the RL-controller hot path itself.
//! * `kernel_speedup` — dispatched-backend over scalar-backend steps/s
//!   on the raw batched kernel path (`--min-kernel-speedup`, default
//!   1.3). Gated only when the dispatched backend is not already
//!   scalar (so the gate stays green on hosts without AVX2 and
//!   under `RESEMBLE_SIMD=scalar`) and the host has at least 2 cores
//!   (below that, background load lands entirely on the measured core
//!   and the ratio wobbles across the floor; `--write-baseline`
//!   preserves the committed value there).
//! * `kernel_avx512_speedup` — Avx512-tier over scalar steps/s
//!   (`--min-avx512-speedup`, default 1.1). The tier runs the same
//!   compiled AVX2 f32 kernels as the `Avx2` tier, so on AVX-512 hosts
//!   this reads like `kernel_speedup`. Auto-skipped with a named warning
//!   on hosts without avx2+avx512f+avx512bw, and below 2 cores like the
//!   kernel metric; measured independently of the dispatched backend so
//!   a `RESEMBLE_SIMD` override cannot hide a regression of the tier on
//!   a capable host.
//! * `matrix_speedup` — parallel over serial `run_matrix` wall-clock
//!   (`--min-matrix-speedup`, default 2.0). Gated only on hosts with at
//!   least 4 cores (auto-skipped below: the ratio would measure
//!   scheduling overhead, not parallelism); the serial/parallel
//!   byte-identity check runs at any core count.
//!
//! Usage: `cargo run --release -p resemble-bench --bin perf_gate --
//! [--check] [--write-baseline] [--accesses N] [--warmup N] [--reps N]
//! [--apps a,b] [--json PATH] [--baseline PATH] [--min-speedup X]
//! [--controller-apps a,b] [--controller-warmup N]
//! [--controller-accesses N] [--min-controller-speedup X]
//! [--no-controller] [--kernel-steps N] [--min-kernel-speedup X]
//! [--min-avx512-speedup X]
//! [--no-matrix] [--matrix-accesses N] [--matrix-warmup N]
//! [--min-matrix-speedup X]`

use resemble_bench::{factory, report, runner, Options};
use resemble_nn::simd;
use resemble_nn::{Activation, Matrix, Mlp};
use resemble_runtime::{host_parallelism, resolve_jobs};
use resemble_sim::{Engine, ReferenceEngine, SimConfig, SimStats};
use resemble_stats::{geo_mean, Table};
use resemble_trace::gen::spec_like::APP_NAMES;
use resemble_trace::gen::VecSource;
use resemble_trace::{MemAccess, TraceSource};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Timing of one (app, prefetcher) job on both engines.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JobReport {
    app: String,
    pf: String,
    accesses: usize,
    engine_secs: f64,
    reference_secs: f64,
    engine_aps: f64,
    reference_aps: f64,
    speedup: f64,
    stats_match: bool,
}

/// Timing of one controller job: the batched DQN datapath vs the scalar
/// per-sample reference, both through the optimized engine on the full
/// ReSemble MLP configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ControllerJobReport {
    app: String,
    accesses: usize,
    batched_secs: f64,
    per_sample_secs: f64,
    batched_aps: f64,
    per_sample_aps: f64,
    speedup: f64,
    stats_match: bool,
}

/// Throughput of the raw batched kernel path under one forced backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelBackendReport {
    backend: String,
    steps_per_sec: f64,
}

/// The kernel-throughput section: every backend available on this host,
/// measured on the same controller-shaped minibatch workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelReport {
    /// Backend runtime dispatch selected (after `RESEMBLE_SIMD`).
    dispatched: String,
    sizes: Vec<usize>,
    batch: usize,
    steps: usize,
    backends: Vec<KernelBackendReport>,
    /// Dispatched-backend steps/s over scalar steps/s; 1.0 by definition
    /// when scalar *is* the dispatched backend.
    speedup: f64,
    /// Avx512-tier steps/s over scalar steps/s; 0.0 when the host lacks
    /// the tier (avx2+avx512f+avx512bw). Gated independently of
    /// `speedup` so a host whose dispatch was overridden still measures
    /// the tier.
    avx512_speedup: f64,
}

/// The parallel-sweep section: the identical `run_matrix` workload timed
/// serially (`jobs = 1`) and in parallel (`jobs = 0`, auto worker count)
/// on the `resemble-runtime` executor, with the two result sets checked
/// for byte identity (DESIGN.md §9).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MatrixReport {
    apps: usize,
    pfs: usize,
    /// Host logical cores (`available_parallelism`).
    host_cores: usize,
    /// Worker count the parallel leg resolved to.
    workers: usize,
    /// Per-job trace length (warmup + measure).
    accesses: usize,
    serial_secs: f64,
    parallel_secs: f64,
    /// Serial wall-clock over parallel wall-clock: the fourth gated
    /// metric, on hosts with >= 4 cores (auto-skipped below).
    speedup: f64,
    /// Serialized results byte-identical between the two legs.
    results_match: bool,
}

/// The full machine-readable report (`BENCH_sim.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GateReport {
    warmup: usize,
    measure: usize,
    seed: u64,
    reps: usize,
    jobs: Vec<JobReport>,
    total_accesses: usize,
    engine_secs: f64,
    reference_secs: f64,
    /// total work / total time, both engines, whole matrix.
    aggregate_speedup: f64,
    geo_mean_speedup: f64,
    /// Geo-mean speedup of the no-prefetcher jobs: the first gated metric
    /// ("single-core accesses/sec of the simulator vs the seed engine").
    engine_core_speedup: f64,
    /// Controller-path jobs (full ReSemble MLP config, batched vs
    /// per-sample DQN datapath). Empty under `--no-controller`.
    controller_jobs: Vec<ControllerJobReport>,
    /// Geo-mean controller-path speedup: the second gated metric
    /// ("RL-controller accesses/sec, batched GEMM datapath vs the scalar
    /// per-sample reference"). 0.0 under `--no-controller`.
    controller_speedup: f64,
    /// Geo-mean controller-path accesses/sec on the batched datapath.
    controller_aps: f64,
    /// Per-backend kernel throughput; `kernel.speedup` is the third
    /// gated metric ("dispatched SIMD backend vs scalar on the raw
    /// batched kernel path").
    kernel: KernelReport,
    /// Parallel-sweep timing; `matrix.speedup` is the fourth gated
    /// metric. `None` under `--no-matrix`.
    matrix: Option<MatrixReport>,
}

/// The committed regression baseline (speedups only: machine-portable).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Baseline {
    engine_core_speedup: f64,
    controller_speedup: f64,
    kernel_speedup: f64,
    kernel_avx512_speedup: f64,
    matrix_speedup: f64,
    aggregate_speedup: f64,
    geo_mean_speedup: f64,
}

fn materialize(app: &str, seed: u64, n: usize) -> Vec<MemAccess> {
    let mut src = resemble_trace::gen::app_by_name(app, seed)
        .expect("valid app name")
        .source;
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let Some(a) = src.next_access() else { break };
        v.push(a);
    }
    v
}

/// One timed run of `trace` through a fresh engine (source built before
/// the timer); returns (wall seconds, measured stats).
fn time_run<E, R>(trace: &[MemAccess], mut run: R) -> (f64, SimStats)
where
    R: FnMut(VecSource) -> (E, SimStats),
{
    let src = VecSource::new(trace.to_vec());
    let t0 = Instant::now();
    let (_engine, s) = run(src);
    (t0.elapsed().as_secs_f64(), s)
}

/// Time the raw batched kernel path once per available SIMD backend:
/// one step = `forward_batch` + `backward_batch` on the
/// controller-shaped `[4, 100, 5]` MLP at batch 256. Each backend is
/// forced via [`simd::force`] on the same warm host, so the
/// dispatched/scalar ratio isolates the kernel code generation —
/// the outputs are bit-identical across backends by construction
/// (enforced by the nn crate's backend-sweep tests, not re-checked
/// here).
fn measure_kernels(reps: usize, steps: usize) -> KernelReport {
    let sizes = vec![4usize, 100, 5];
    let batch = 256usize;
    let net = Mlp::new(&sizes, Activation::Relu, 42);
    let xs = Matrix::from_fn(batch, sizes[0], |r, c| {
        ((r * 7 + c * 13) % 31) as f32 / 8.0 - 1.9
    });
    let out_grads = Matrix::from_fn(batch, sizes[2], |r, c| {
        ((r * 5 + c * 3) % 17) as f32 / 8.0 - 1.0
    });
    // Interleave backends within each rep (rather than timing all reps of
    // one backend back-to-back): a slow phase on a shared host then hits
    // every backend, and best-of over reps keeps the *ratios* stable even
    // when the absolute rates wobble.
    let avail = simd::available();
    let mut best = vec![f64::INFINITY; avail.len()];
    let mut states: Vec<_> = avail
        .iter()
        .map(|_| (net.make_batch_scratch(batch), net.make_grad_buffer()))
        .collect();
    // Rep 0 is an untimed warm-up (allocation, frequency ramp).
    for rep in 0..=reps.max(5) {
        for (i, &be) in avail.iter().enumerate() {
            let _guard = simd::force(be);
            let (scratch, grads) = &mut states[i];
            let t0 = Instant::now();
            for _ in 0..steps {
                let _ = net.forward_batch(&xs, scratch);
                net.backward_batch(scratch, &out_grads, grads);
                grads.clear();
            }
            let dt = t0.elapsed().as_secs_f64();
            if rep > 0 {
                best[i] = best[i].min(dt);
            }
        }
    }
    let backends: Vec<KernelBackendReport> = avail
        .iter()
        .zip(&best)
        .map(|(be, dt)| KernelBackendReport {
            backend: be.name().to_string(),
            steps_per_sec: steps as f64 / dt,
        })
        .collect();
    let rate = |name: &str| {
        backends
            .iter()
            .find(|b| b.backend == name)
            .map(|b| b.steps_per_sec)
            .unwrap_or(0.0)
    };
    let dispatched = simd::dispatched().name().to_string();
    let scalar_rate = rate("scalar");
    let speedup = if scalar_rate > 0.0 {
        rate(&dispatched) / scalar_rate
    } else {
        0.0
    };
    let avx512_speedup = if scalar_rate > 0.0 {
        rate("avx512") / scalar_rate
    } else {
        0.0
    };
    KernelReport {
        dispatched,
        sizes,
        batch,
        steps,
        backends,
        speedup,
        avx512_speedup,
    }
}

/// Time the identical `run_matrix` workload serially and in parallel.
/// Legs alternate within each rep so host-speed drift hits both alike
/// and cancels out of the best-of ratio, and the serialized results are
/// compared for byte identity — the executor's determinism contract,
/// checked on real simulation jobs every gate run.
fn measure_matrix(reps: usize, warmup: usize, measure: usize, seed: u64) -> MatrixReport {
    let apps: Vec<String> = APP_NAMES.iter().map(|s| s.to_string()).collect();
    let pfs = ["bo"];
    let params = |jobs: usize| runner::SweepParams {
        warmup,
        measure,
        seed,
        jobs,
        ..Default::default()
    };
    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut serial_out = String::new();
    let mut parallel_out = String::new();
    for _ in 0..reps.max(2) {
        let t0 = Instant::now();
        let rs = runner::run_matrix(&apps, &pfs, &params(1));
        serial_secs = serial_secs.min(t0.elapsed().as_secs_f64());
        serial_out = serde_json::to_string(&rs).expect("results serialize");
        let t0 = Instant::now();
        let rp = runner::run_matrix(&apps, &pfs, &params(0));
        parallel_secs = parallel_secs.min(t0.elapsed().as_secs_f64());
        parallel_out = serde_json::to_string(&rp).expect("results serialize");
    }
    MatrixReport {
        apps: apps.len(),
        pfs: pfs.len(),
        host_cores: host_parallelism(),
        workers: resolve_jobs(0),
        accesses: warmup + measure,
        serial_secs,
        parallel_secs,
        speedup: serial_secs / parallel_secs,
        results_match: serial_out == parallel_out,
    }
}

fn main() {
    let opts = Options::from_env_checked(&[
        "check",
        "no-controller",
        "write-baseline",
        "controller-apps",
        "pfs",
        "baseline",
        "min-controller-speedup",
        "min-speedup",
        "controller-accesses",
        "controller-warmup",
        "reps",
        "kernel-steps",
        "min-kernel-speedup",
        "min-avx512-speedup",
        "no-matrix",
        "matrix-accesses",
        "matrix-warmup",
        "min-matrix-speedup",
    ]);
    let warmup = opts.usize("warmup", 10_000);
    let measure = opts.usize("accesses", 40_000);
    let seed = opts.u64("seed", 42);
    let reps = opts.usize("reps", 3).max(1);
    let min_speedup = opts
        .str("min-speedup")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);
    let min_controller_speedup = opts
        .str("min-controller-speedup")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0);
    let min_kernel_speedup = opts
        .str("min-kernel-speedup")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.3);
    let min_avx512_speedup = opts
        .str("min-avx512-speedup")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.1);
    let kernel_steps = opts.usize("kernel-steps", 200).max(1);
    let min_matrix_speedup = opts
        .str("min-matrix-speedup")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0);
    let matrix_warmup = opts.usize("matrix-warmup", 2_000);
    let matrix_measure = opts.usize("matrix-accesses", 10_000);
    let no_matrix = opts.flag("no-matrix");
    let controller_warmup = opts.usize("controller-warmup", 1_000);
    let controller_measure = opts.usize("controller-accesses", 5_000);
    let no_controller = opts.flag("no-controller");
    let controller_apps: Vec<String> = opts.list("controller-apps").unwrap_or_else(|| {
        ["433.milc", "471.omnetpp", "gap.pr"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    });
    let check = opts.flag("check");
    let write_baseline = opts.flag("write-baseline");
    let json_path = opts.str("json").unwrap_or("BENCH_sim.json").to_string();
    let baseline_path = opts
        .str("baseline")
        .unwrap_or("crates/bench/perf_baseline.json")
        .to_string();
    let apps: Vec<String> = opts
        .list("apps")
        .unwrap_or_else(|| APP_NAMES.iter().map(|s| s.to_string()).collect());
    // "none" isolates the engine core; the rest is the Figs 8–10 lineup.
    let pfs: Vec<String> = opts.list("pfs").unwrap_or_else(|| {
        let mut v = vec!["none".to_string()];
        v.extend(factory::MAIN_LINEUP.iter().map(|s| s.to_string()));
        v
    });

    // Validate names up front: a typo should produce a usage error, not
    // a panic mid-matrix.
    for app in apps.iter().chain(&controller_apps) {
        if !APP_NAMES.contains(&app.as_str()) {
            eprintln!(
                "error: unknown app '{app}' (valid: {})",
                APP_NAMES.join(", ")
            );
            std::process::exit(2);
        }
    }
    for pf in &pfs {
        if pf != "none" && !factory::MAIN_LINEUP.contains(&pf.as_str()) {
            eprintln!(
                "error: unknown prefetcher '{pf}' (valid: none, {})",
                factory::MAIN_LINEUP.join(", ")
            );
            std::process::exit(2);
        }
    }

    report::banner(
        "perf gate",
        "optimized Engine vs seed ReferenceEngine, Figs 8-10 workload matrix",
    );
    println!(
        "apps: {} | pfs: {} | warmup {warmup} + measure {measure} | seed {seed} | best of {reps}\n",
        apps.len(),
        pfs.len()
    );

    let cfg = SimConfig::harness();
    let n = warmup + measure;

    // Untimed warm-up spin: the first measured job otherwise pays the
    // CPU's frequency ramp and cold instruction-cache/page-table costs,
    // which can swing a 5 ms engine-core run by tens of percent.
    if let Some(app0) = apps.first() {
        let trace = materialize(app0, seed, n);
        for _ in 0..2 {
            let _ = time_run(&trace, |mut src| {
                let mut e = Engine::new(cfg);
                let s = e.run(&mut src, None, warmup, measure);
                (e, s)
            });
            let _ = time_run(&trace, |mut src| {
                let mut e = ReferenceEngine::new(cfg);
                let s = e.run(&mut src, None, warmup, measure);
                (e, s)
            });
        }
    }

    let mut jobs = Vec::new();
    for app in &apps {
        let trace = materialize(app, seed, n);
        for pf in pfs.iter().map(|p| p.as_str()) {
            // Reps alternate engine/reference so drift in the host's speed
            // (frequency scaling, noisy neighbours) hits both engines
            // alike and cancels out of the best-of ratio. The gated
            // engine-core jobs finish in milliseconds, so they get a
            // higher rep floor for free; the RL-controller jobs dominate
            // wall time and keep the requested rep count.
            let job_reps = if pf == "none" { reps.max(7) } else { reps };
            let mut engine_secs = f64::INFINITY;
            let mut reference_secs = f64::INFINITY;
            let mut fast_stats = SimStats::default();
            let mut slow_stats = SimStats::default();
            for _ in 0..job_reps {
                let (es, fs) = time_run(&trace, |mut src| {
                    let mut e = Engine::new(cfg);
                    let s = match pf {
                        "none" => e.run(&mut src, None, warmup, measure),
                        _ => {
                            let mut p = factory::make(pf, seed, true);
                            e.run(&mut src, Some(&mut *p), warmup, measure)
                        }
                    };
                    (e, s)
                });
                let (rs, ss) = time_run(&trace, |mut src| {
                    let mut e = ReferenceEngine::new(cfg);
                    let s = match pf {
                        "none" => e.run(&mut src, None, warmup, measure),
                        _ => {
                            let mut p = factory::make(pf, seed, true);
                            e.run(&mut src, Some(&mut *p), warmup, measure)
                        }
                    };
                    (e, s)
                });
                engine_secs = engine_secs.min(es);
                reference_secs = reference_secs.min(rs);
                fast_stats = fs;
                slow_stats = ss;
            }
            let stats_match = format!("{fast_stats:?}") == format!("{slow_stats:?}");
            jobs.push(JobReport {
                app: app.clone(),
                pf: pf.to_string(),
                accesses: n,
                engine_secs,
                reference_secs,
                engine_aps: n as f64 / engine_secs,
                reference_aps: n as f64 / reference_secs,
                speedup: reference_secs / engine_secs,
                stats_match,
            });
        }
    }

    // Controller-throughput section: the full ReSemble MLP configuration
    // (batch 256) through the optimized engine, batched vs per-sample DQN
    // datapath. Reps alternate datapaths so host-speed drift cancels out
    // of the best-of ratio, exactly like the matrix above.
    let mut controller_jobs: Vec<ControllerJobReport> = Vec::new();
    if !no_controller {
        let cn = controller_warmup + controller_measure;
        let controller_reps = reps.max(3);
        for app in &controller_apps {
            let trace = materialize(app, seed, cn);
            let mut batched_secs = f64::INFINITY;
            let mut per_sample_secs = f64::INFINITY;
            let mut batched_stats = SimStats::default();
            let mut per_sample_stats = SimStats::default();
            for _ in 0..controller_reps {
                let (bs, bstats) = time_run(&trace, |mut src| {
                    let mut e = Engine::new(cfg);
                    let mut p = factory::make("resemble", seed, false);
                    let s = e.run(
                        &mut src,
                        Some(&mut *p),
                        controller_warmup,
                        controller_measure,
                    );
                    (e, s)
                });
                let (rs, rstats) = time_run(&trace, |mut src| {
                    let mut e = Engine::new(cfg);
                    let mut p = factory::make("resemble_ref", seed, false);
                    let s = e.run(
                        &mut src,
                        Some(&mut *p),
                        controller_warmup,
                        controller_measure,
                    );
                    (e, s)
                });
                batched_secs = batched_secs.min(bs);
                per_sample_secs = per_sample_secs.min(rs);
                batched_stats = bstats;
                per_sample_stats = rstats;
            }
            let stats_match = format!("{batched_stats:?}") == format!("{per_sample_stats:?}");
            controller_jobs.push(ControllerJobReport {
                app: app.clone(),
                accesses: cn,
                batched_secs,
                per_sample_secs,
                batched_aps: cn as f64 / batched_secs,
                per_sample_aps: cn as f64 / per_sample_secs,
                speedup: per_sample_secs / batched_secs,
                stats_match,
            });
        }
    }

    // Kernel-throughput section: the raw batched kernel path, once per
    // available backend, on the now-warm host.
    let kernel = measure_kernels(reps, kernel_steps);

    // Parallel-sweep section: run_matrix serial vs parallel on the
    // now-warm host, plus the byte-identity check of the two result sets.
    let matrix = if no_matrix {
        None
    } else {
        Some(measure_matrix(reps, matrix_warmup, matrix_measure, seed))
    };

    let total_accesses: usize = jobs.iter().map(|j| j.accesses).sum();
    let engine_secs: f64 = jobs.iter().map(|j| j.engine_secs).sum();
    let reference_secs: f64 = jobs.iter().map(|j| j.reference_secs).sum();
    let speedups: Vec<f64> = jobs.iter().map(|j| j.speedup).collect();
    let mut core_speedups: Vec<f64> = jobs
        .iter()
        .filter(|j| j.pf == "none")
        .map(|j| j.speedup)
        .collect();
    if core_speedups.is_empty() {
        // `--pfs` without "none": gate on whatever was measured.
        core_speedups = speedups.clone();
    }
    let controller_speedups: Vec<f64> = controller_jobs.iter().map(|j| j.speedup).collect();
    let controller_apses: Vec<f64> = controller_jobs.iter().map(|j| j.batched_aps).collect();
    let rep = GateReport {
        warmup,
        measure,
        seed,
        reps,
        total_accesses,
        engine_secs,
        reference_secs,
        aggregate_speedup: reference_secs / engine_secs,
        geo_mean_speedup: geo_mean(&speedups),
        engine_core_speedup: geo_mean(&core_speedups),
        controller_speedup: if controller_speedups.is_empty() {
            0.0
        } else {
            geo_mean(&controller_speedups)
        },
        controller_aps: if controller_apses.is_empty() {
            0.0
        } else {
            geo_mean(&controller_apses)
        },
        controller_jobs,
        jobs,
        kernel,
        matrix,
    };

    // Per-app table: accesses/sec (engine), speedup per prefetcher column.
    let mut header: Vec<String> = vec!["app".into(), "Macc/s".into()];
    header.extend(pfs.iter().map(|p| {
        format!(
            "x {}",
            if p == "none" {
                "engine"
            } else {
                factory::label(p)
            }
        )
    }));
    let mut t = Table::new(header);
    for app in &apps {
        let mut row = vec![app.clone()];
        // Throughput column: the engine-core job if present, else the
        // first job of this app.
        let core = rep
            .jobs
            .iter()
            .find(|j| &j.app == app && j.pf == "none")
            .or_else(|| rep.jobs.iter().find(|j| &j.app == app))
            .expect("matrix complete");
        row.push(format!("{:.2}", core.engine_aps / 1e6));
        for pf in &pfs {
            let j = rep
                .jobs
                .iter()
                .find(|j| &j.app == app && &j.pf == pf)
                .expect("matrix complete");
            row.push(format!(
                "{:.2}{}",
                j.speedup,
                if j.stats_match { "" } else { " !STATS" }
            ));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "aggregate: {:.2} Macc/s engine vs {:.2} Macc/s reference over {} jobs",
        rep.total_accesses as f64 / rep.engine_secs / 1e6,
        rep.total_accesses as f64 / rep.reference_secs / 1e6,
        rep.jobs.len()
    );
    println!(
        "engine-core speedup (gated): {:.2}x geo-mean over {} apps (target >= {min_speedup:.2}x)",
        rep.engine_core_speedup,
        core_speedups.len()
    );
    println!(
        "full matrix: {:.2}x aggregate, {:.2}x geo-mean (reported, not gated)",
        rep.aggregate_speedup, rep.geo_mean_speedup
    );

    if !rep.controller_jobs.is_empty() {
        let mut ct = Table::new(vec![
            "app",
            "kacc/s batched",
            "kacc/s per-sample",
            "speedup",
        ]);
        for j in &rep.controller_jobs {
            ct.row(vec![
                j.app.clone(),
                format!("{:.1}", j.batched_aps / 1e3),
                format!("{:.1}", j.per_sample_aps / 1e3),
                format!(
                    "{:.2}{}",
                    j.speedup,
                    if j.stats_match { "" } else { " !STATS" }
                ),
            ]);
        }
        println!("\ncontroller path (ReSemble MLP, batch 256, batched vs per-sample datapath):");
        println!("{}", ct.render());
        println!(
            "controller speedup (gated): {:.2}x geo-mean over {} apps (target >= {:.2}x), {:.1} kacc/s batched",
            rep.controller_speedup,
            rep.controller_jobs.len(),
            min_controller_speedup,
            rep.controller_aps / 1e3
        );
    }

    {
        let mut kt = Table::new(vec!["backend", "steps/s", "x scalar"]);
        let scalar_rate = rep
            .kernel
            .backends
            .iter()
            .find(|b| b.backend == "scalar")
            .map(|b| b.steps_per_sec)
            .unwrap_or(0.0);
        for b in &rep.kernel.backends {
            kt.row(vec![
                format!(
                    "{}{}",
                    b.backend,
                    if b.backend == rep.kernel.dispatched {
                        " (dispatched)"
                    } else {
                        ""
                    }
                ),
                format!("{:.0}", b.steps_per_sec),
                if scalar_rate > 0.0 {
                    format!("{:.2}", b.steps_per_sec / scalar_rate)
                } else {
                    "-".to_string()
                },
            ]);
        }
        println!(
            "\nkernel path ({:?} MLP, batch {}, forward+backward per step):",
            rep.kernel.sizes, rep.kernel.batch
        );
        println!("{}", kt.render());
        println!(
            "kernel speedup (gated when dispatched != scalar): {:.2}x dispatched ({}) vs scalar (target >= {min_kernel_speedup:.2}x)",
            rep.kernel.speedup, rep.kernel.dispatched
        );
        if rep.kernel.avx512_speedup > 0.0 {
            println!(
                "avx512 kernel speedup (gated on avx512 hosts): {:.2}x vs scalar (target >= {min_avx512_speedup:.2}x)",
                rep.kernel.avx512_speedup
            );
        } else {
            println!(
                "avx512 kernel tier not available on this host (detected features: {})",
                simd::capabilities().summary()
            );
        }
    }

    if let Some(m) = &rep.matrix {
        println!(
            "\nparallel sweep (run_matrix, {} apps x {} pfs, {} accesses/job, {} workers on {} cores):",
            m.apps, m.pfs, m.accesses, m.workers, m.host_cores
        );
        println!(
            "  serial {:.2}s vs parallel {:.2}s -> {:.2}x{}",
            m.serial_secs,
            m.parallel_secs,
            m.speedup,
            if m.results_match { "" } else { " !RESULTS" }
        );
        if m.host_cores >= 4 {
            println!(
                "matrix speedup (gated): {:.2}x parallel vs serial (target >= {min_matrix_speedup:.2}x)",
                m.speedup
            );
        } else {
            println!(
                "matrix speedup: {:.2}x — not gated on a {}-core host (gate needs >= 4 cores)",
                m.speedup, m.host_cores
            );
        }
    }

    if let Err(e) = std::fs::write(
        &json_path,
        serde_json::to_string_pretty(&rep).expect("report serializes"),
    ) {
        eprintln!("warning: could not write {json_path}: {e}");
    } else {
        eprintln!("wrote {json_path}");
    }

    let mut failures = Vec::new();
    let mismatches: Vec<String> = rep
        .jobs
        .iter()
        .filter(|j| !j.stats_match)
        .map(|j| format!("{}/{}", j.app, j.pf))
        .collect();
    if !mismatches.is_empty() {
        failures.push(format!(
            "SimStats diverged from the reference engine on: {}",
            mismatches.join(", ")
        ));
    }
    let dp_mismatches: Vec<String> = rep
        .controller_jobs
        .iter()
        .filter(|j| !j.stats_match)
        .map(|j| j.app.clone())
        .collect();
    if !dp_mismatches.is_empty() {
        failures.push(format!(
            "SimStats diverged between DQN datapaths on: {} (the batch kernels must be bit-identical)",
            dp_mismatches.join(", ")
        ));
    }
    // Byte identity between the serial and parallel sweep is an
    // unconditional invariant (DESIGN.md §9) — checked at any core
    // count, even where the speedup itself is not gated.
    if let Some(m) = &rep.matrix {
        if !m.results_match {
            failures.push(
                "parallel run_matrix results diverged from the serial run \
                 (the executor's ordered merge must make worker count invisible)"
                    .to_string(),
            );
        }
    }

    // A 1-core host cannot hold the kernel ratio steady: every burst of
    // background load lands on the measured core, and the interleaved
    // best-of has been observed wobbling ~1.24-1.33x against a 1.32x
    // baseline. Below 2 cores the kernel metrics are reported but not
    // gated, and --write-baseline preserves the committed values —
    // the same treatment the matrix metric gets below 4 cores.
    let kernel_cores_skip = (host_parallelism() < 2)
        .then(|| format!("host has {} core, gate needs >= 2", host_parallelism()));
    let avx512_skip = if simd::KernelBackend::Avx512.is_available() {
        kernel_cores_skip.clone()
    } else {
        Some(format!(
            "host lacks the avx512 tier (needs avx2+avx512f+avx512bw; detected features: {})",
            simd::capabilities().summary()
        ))
    };

    if write_baseline {
        if rep.controller_jobs.is_empty() {
            eprintln!("error: cannot write a baseline from a --no-controller run");
            std::process::exit(2);
        }
        if rep.kernel.dispatched == "scalar" {
            eprintln!(
                "error: cannot write a baseline from a scalar-dispatched run \
                 (RESEMBLE_SIMD=scalar or a host without AVX2): kernel_speedup \
                 would freeze at 1.0"
            );
            std::process::exit(2);
        }
        // Where a metric is not measurable on this host, keep the
        // committed value (or the absolute floor on a first write)
        // instead of freezing a meaningless number into the baseline.
        let kept_or = |key: &str, fallback: f64| {
            let kept = std::fs::read_to_string(&baseline_path)
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok())
                .and_then(|v: serde_json::Value| v.get(key).and_then(|x| x.as_f64()))
                .unwrap_or(fallback);
            eprintln!(
                "warning: {key} not measurable on this host; keeping {kept:.2}x in the baseline"
            );
            kept
        };
        // Below 4 cores the parallel/serial ratio measures scheduling
        // overhead, not parallelism.
        let matrix_speedup = match &rep.matrix {
            Some(m) if m.host_cores >= 4 => m.speedup,
            _ => kept_or("matrix_speedup", min_matrix_speedup),
        };
        let kernel_speedup = if kernel_cores_skip.is_none() {
            rep.kernel.speedup
        } else {
            kept_or("kernel_speedup", min_kernel_speedup)
        };
        let kernel_avx512_speedup = if avx512_skip.is_none() {
            rep.kernel.avx512_speedup
        } else {
            kept_or("kernel_avx512_speedup", min_avx512_speedup)
        };
        let b = Baseline {
            engine_core_speedup: rep.engine_core_speedup,
            controller_speedup: rep.controller_speedup,
            kernel_speedup,
            kernel_avx512_speedup,
            matrix_speedup,
            aggregate_speedup: rep.aggregate_speedup,
            geo_mean_speedup: rep.geo_mean_speedup,
        };
        std::fs::write(
            &baseline_path,
            serde_json::to_string_pretty(&b).expect("baseline serializes"),
        )
        .expect("baseline written");
        eprintln!("wrote {baseline_path}");
    }

    if check {
        // The vendored serde_json deserializes into a dynamic Value.
        let baseline: Option<serde_json::Value> = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok());
        // (metric label, baseline key, measured value, required minimum,
        //  skip reason) — each gated metric fails independently on either
        // a >10% drop below its committed baseline or its absolute
        // minimum; a `Some` skip reason exempts it on this host.
        let matrix_skip = match &rep.matrix {
            None => Some("--no-matrix".to_string()),
            Some(m) if m.host_cores < 4 => {
                Some(format!("host has {} cores, gate needs >= 4", m.host_cores))
            }
            Some(_) => None,
        };
        let gated = [
            (
                "engine-core",
                "engine_core_speedup",
                rep.engine_core_speedup,
                min_speedup,
                None::<String>,
            ),
            (
                "controller",
                "controller_speedup",
                rep.controller_speedup,
                min_controller_speedup,
                no_controller.then(|| "--no-controller".to_string()),
            ),
            (
                "kernel",
                "kernel_speedup",
                rep.kernel.speedup,
                min_kernel_speedup,
                (rep.kernel.dispatched == "scalar")
                    .then(|| "scalar-dispatched kernels".to_string())
                    .or(kernel_cores_skip),
            ),
            (
                "kernel-avx512",
                "kernel_avx512_speedup",
                rep.kernel.avx512_speedup,
                min_avx512_speedup,
                avx512_skip,
            ),
            (
                "matrix",
                "matrix_speedup",
                rep.matrix.as_ref().map_or(0.0, |m| m.speedup),
                min_matrix_speedup,
                matrix_skip,
            ),
        ];
        for (label, key, measured, min_required, skip) in gated {
            if let Some(reason) = skip {
                eprintln!("warning: {label} speedup not gated ({reason})");
                continue;
            }
            match baseline
                .as_ref()
                .and_then(|v| v.get(key))
                .and_then(|x| x.as_f64())
            {
                Some(baseline_speedup) => {
                    let floor = baseline_speedup * 0.9;
                    println!(
                        "check [{label}]: baseline {baseline_speedup:.2}x, 10% floor {floor:.2}x, measured {measured:.2}x"
                    );
                    if measured < floor {
                        failures.push(format!(
                            "metric `{key}` ({label}) regressed vs baseline: measured \
                             {measured:.2}x < floor {floor:.2}x (baseline {baseline_speedup:.2}x \
                             - 10%), short by {:.2}x ({:.1}%)",
                            floor - measured,
                            (floor - measured) / floor * 100.0
                        ));
                    }
                    if measured < min_required {
                        failures.push(format!(
                            "metric `{key}` ({label}) below its absolute minimum: measured \
                             {measured:.2}x < required {min_required:.2}x, short by {:.2}x ({:.1}%)",
                            min_required - measured,
                            (min_required - measured) / min_required * 100.0
                        ));
                    }
                }
                None => failures.push(format!(
                    "missing '{key}' in baseline {baseline_path} (regenerate with --write-baseline)"
                )),
            }
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("perf gate OK");
}
