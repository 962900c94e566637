//! Serving throughput benchmark: replay synthetic access streams from
//! concurrent loopback clients against an in-process `resemble-serve`
//! instance, once microbatched and once with the batch window forced to 1,
//! and report the decision throughput, latency percentiles, and speedup.
//!
//! ```text
//! serve_bench --sessions 8 --accesses 4000 --model resemble_frozen \
//!             --hisess-sessions 1000 --json BENCH_serve.json
//! ```
//!
//! The default model is `resemble_frozen` (inference-only serving, the
//! deployment configuration): its decision windows are unbounded, so the
//! microbatched phase exercises the full `forward_batch` datapath that the
//! batch-of-1 phase pays per decision. Decisions are bit-identical across
//! the two phases (and to an offline run) — the loopback tests pin that;
//! this binary measures what the batching buys.
//!
//! The high-session scenario (ISSUE 6) then opens ~1k concurrent
//! closed-loop sessions that all Hello with the *same* frozen key and
//! measures cross-session pooled decision windows against per-session
//! batching. With one request in flight per session, per-session batches
//! degenerate to single rows; pooling shares one `forward_batch` across
//! every ready same-key session per shard visit.
//!
//! The int8 scenario (`--int8-rows`/`--int8-iters`) drives the pooled
//! `WeightPool` forward path in-process on `resemble_frozen_wide` states,
//! once in f32 and once through the `--quantize-frozen` int8 datapath,
//! and reports the throughput ratio plus the measured argmax decision
//! agreement between the two.
//!
//! `--check` gates every serving metric with `perf_gate`-style messages:
//! the microbatch speedup (≥1.5x), the pool speedup (≥1.5x), the pooled
//! p99 latency (≤250ms), the int8 pooled-forward speedup (≥1.5x,
//! skipped with a warning when the kernels dispatched scalar — int8 wins
//! come from the vector GEMM, so a scalar host would gate noise), and
//! the int8 wide-tier speedup (Avx512 tier forced vs scalar forced on
//! the same int8 pooled forward, ≥2.0x, skipped with a named warning on
//! hosts without avx2+avx512f+avx512bw).

use resemble_bench::cli::Options;
use resemble_bench::runner::maybe_write_json;
use resemble_serve::{Reply, ServeClient, ServeConfig, Server, SessionModel, TelemetrySnapshot};
use resemble_trace::gen::stream::StreamGen;
use resemble_trace::gen::TraceSource;
use resemble_trace::MemAccess;
use serde::Serialize;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// One measured serving phase.
#[derive(Debug, Serialize)]
struct PhaseReport {
    max_batch: usize,
    elapsed_s: f64,
    decisions_per_s: f64,
    snapshot: TelemetrySnapshot,
}

/// The full benchmark output (`BENCH_serve.json`).
#[derive(Debug, Serialize)]
struct BenchReport {
    /// SIMD kernel backend runtime dispatch selected (also present in
    /// each phase snapshot), so the numbers are attributable to an ISA.
    kernel_backend: String,
    model: String,
    sessions: usize,
    accesses_per_session: usize,
    shards: usize,
    seed: u64,
    microbatched: PhaseReport,
    batch_of_1: PhaseReport,
    /// Microbatched ÷ batch-of-1 decision throughput.
    speedup: f64,
    high_session: HighSessionReport,
    int8: Int8Report,
}

/// The int8 quantized-serving scenario: the pooled `WeightPool` forward
/// path measured in-process (no sockets — this isolates the datapath the
/// `--quantize-frozen` flag swaps) on frozen wide-model states, f32 vs
/// int8, plus the decision-agreement delta between the two.
#[derive(Debug, Serialize)]
struct Int8Report {
    model: String,
    /// Pooled window rows per forward call.
    rows: usize,
    /// Timed forward calls per datapath.
    iters: usize,
    f32_rows_per_s: f64,
    int8_rows_per_s: f64,
    /// int8 ÷ f32 pooled forward throughput.
    int8_speedup: f64,
    /// Fraction of rows whose argmax decision matches between the f32
    /// and int8 forward passes (1.0 = every decision identical).
    decision_agreement: f64,
    /// Whether `--check` gates the speedup: false when the kernels
    /// dispatched scalar, where int8 has no vector GEMM to win with.
    gated: bool,
    /// Int8 pooled forward rows/s with the Avx512 tier forced; 0.0 when
    /// the host lacks the tier (avx2+avx512f+avx512bw).
    avx512_rows_per_s: f64,
    /// Int8 pooled forward rows/s with the scalar backend forced — the
    /// denominator of `avx512_vs_scalar`, measured in the same process.
    scalar_rows_per_s: f64,
    /// Avx512-tier over scalar int8 pooled forward throughput: what the
    /// wide int8 lanes (VNNI where detected) buy the serving hot path.
    /// 0.0 when the tier is unavailable.
    avx512_vs_scalar: f64,
    /// `Some(reason)` when `avx512_vs_scalar` is skipped on this host —
    /// named in the `--check` warning, `perf_gate`-style.
    avx512_skip: Option<String>,
}

/// Run the int8 scenario: one warm `WeightPool` per datapath, `iters`
/// timed pooled forwards over the same `rows`-row state window.
fn run_int8_scenario(model: &str, rows: usize, iters: usize, seed: u64) -> Int8Report {
    use resemble_nn::quant::argmax_row;
    use resemble_nn::Matrix;
    use resemble_serve::pool::{SessionKey, WeightPool};

    let template = SessionModel::build(model, seed, true).expect("int8 scenario model builds");
    let dim = template
        .inference_net()
        .expect("int8 scenario model has an inference net")
        .input_dim();
    let states = Matrix::from_fn(rows, dim, |r, c| {
        ((r * dim + c) as f64 * 0.173).sin() as f32
    });
    let key = SessionKey {
        model: model.to_string(),
        seed,
        fast: true,
    };
    let mut f32_pool = WeightPool::new(4);
    let mut int8_pool = WeightPool::new(4).quantized(true);
    let mut qf = Matrix::default();
    let mut qi = Matrix::default();
    // Warm both entries (weight clone + quantization) outside the timed
    // window, and take the agreement measurement from the warm outputs.
    assert!(f32_pool.forward_into(&key, &template, &states, &mut qf));
    assert!(int8_pool.forward_into(&key, &template, &states, &mut qi));
    let agree = (0..rows)
        .filter(|&r| argmax_row(qf.row(r)) == argmax_row(qi.row(r)))
        .count();
    let t = Instant::now();
    for _ in 0..iters {
        f32_pool.forward_into(&key, &template, &states, &mut qf);
    }
    let f32_s = t.elapsed().as_secs_f64().max(1e-9);
    let t = Instant::now();
    for _ in 0..iters {
        int8_pool.forward_into(&key, &template, &states, &mut qi);
    }
    let int8_s = t.elapsed().as_secs_f64().max(1e-9);
    let total_rows = (rows * iters) as f64;
    // Wide-tier leg: the same int8 pooled forward under the forced
    // Avx512 tier vs forced scalar (outputs are byte-identical across
    // backends, so only the clock differs). Forcing — rather than
    // reading the ambient dispatch — means a `RESEMBLE_SIMD` override
    // cannot hide a wide-lane regression on a capable host.
    use resemble_nn::simd::{self, KernelBackend};
    let (avx512_rows_per_s, scalar_rows_per_s, avx512_vs_scalar, avx512_skip) =
        if KernelBackend::Avx512.is_available() {
            let mut timed = |be: KernelBackend| {
                let _guard = simd::force(be);
                // Warm outside the timed window: the pool re-quantizes on
                // first touch after a backend switch only if evicted; the
                // forward itself is the thing being timed.
                int8_pool.forward_into(&key, &template, &states, &mut qi);
                let t = Instant::now();
                for _ in 0..iters {
                    int8_pool.forward_into(&key, &template, &states, &mut qi);
                }
                total_rows / t.elapsed().as_secs_f64().max(1e-9)
            };
            let scalar_rate = timed(KernelBackend::Scalar);
            let avx512_rate = timed(KernelBackend::Avx512);
            (
                avx512_rate,
                scalar_rate,
                avx512_rate / scalar_rate.max(1e-9),
                None,
            )
        } else {
            (
                0.0,
                0.0,
                0.0,
                Some(format!(
                    "host lacks the avx512 tier (needs avx2+avx512f+avx512bw; detected features: {})",
                    simd::capabilities().summary()
                )),
            )
        };
    Int8Report {
        model: model.to_string(),
        rows,
        iters,
        f32_rows_per_s: total_rows / f32_s,
        int8_rows_per_s: total_rows / int8_s,
        int8_speedup: f32_s / int8_s,
        decision_agreement: agree as f64 / rows.max(1) as f64,
        gated: resemble_nn::simd::dispatched().name() != "scalar",
        avx512_rows_per_s,
        scalar_rows_per_s,
        avx512_vs_scalar,
        avx512_skip,
    }
}

/// One high-session-count phase: many concurrent sessions sharing one
/// frozen Hello key, each trickling a small request window.
#[derive(Debug, Serialize)]
struct HighSessionPhase {
    cross_session: bool,
    elapsed_s: f64,
    decisions_per_s: f64,
    latency_us_p99: u64,
    snapshot: TelemetrySnapshot,
}

/// The high-session scenario (ISSUE 6): ~1k concurrent frozen sessions,
/// measured once with cross-session pooled decision windows and once
/// with per-session batching only. Same clients, same traces — the delta
/// is what sharing one `forward_batch` across sessions buys.
#[derive(Debug, Serialize)]
struct HighSessionReport {
    model: String,
    sessions: usize,
    accesses_per_session: usize,
    /// Requests each session keeps in flight (small on purpose: a big
    /// per-session window would let per-session batching catch up).
    window: usize,
    shards: usize,
    io_threads: usize,
    /// RLIMIT_NOFILE actually in effect (after the best-effort raise).
    nofile_limit: u64,
    pooled: HighSessionPhase,
    per_session: HighSessionPhase,
    /// Pooled ÷ per-session decision throughput.
    pool_speedup: f64,
}

/// Best-effort raise of RLIMIT_NOFILE toward `target` (the scenario
/// needs ~2 fds per session), returning the limit now in effect.
fn raise_nofile_limit(target: u64) -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    // SAFETY: every call takes a pointer to a live, #[repr(C)] `RLimit`
    // local in this block, valid for the duration of the call.
    // lint:allow(unsafe-undocumented): one isolated rlimit adjustment in a bench binary — not worth widening the [[unsafe-allowed]] file set
    unsafe {
        let mut r = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut r) != 0 {
            return 1024;
        }
        if r.cur < target {
            let want = RLimit {
                cur: target.min(r.max),
                max: r.max,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &want);
            if getrlimit(RLIMIT_NOFILE, &mut r) != 0 {
                return 1024;
            }
        }
        r.cur
    }
}

fn session_trace(seed: u64, n: usize) -> Vec<(MemAccess, bool)> {
    let mut gen = StreamGen::new(seed, 4, 1024, 0).with_write_ratio(0.2);
    gen.collect_n(n)
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, i % 3 == 0))
        .collect()
}

/// Drive one client session to completion with `window` requests in
/// flight, returning the number of decisions received.
fn drive_session(
    addr: std::net::SocketAddr,
    model: &str,
    seed: u64,
    trace: &[(MemAccess, bool)],
    window: usize,
) -> u64 {
    let mut client = ServeClient::connect(addr).expect("connect");
    client.hello(model, seed, true).expect("hello accepted");
    let (mut next, mut awaiting, mut decisions) = (0usize, 0usize, 0u64);
    while next < trace.len() || awaiting > 0 {
        while next < trace.len() && awaiting < window {
            let (access, hit) = trace[next];
            client.queue_access(next as u32, 0, access, hit);
            next += 1;
            awaiting += 1;
        }
        client.flush().expect("flush");
        match client.recv().expect("recv").expect("reply before EOF") {
            Reply::Decision { .. } => {
                decisions += 1;
                awaiting -= 1;
            }
            Reply::Busy { .. } => awaiting -= 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    client.queue_bye();
    client.flush().expect("flush bye");
    while let Some(reply) = client.recv().expect("recv goodbye") {
        if matches!(reply, Reply::Goodbye { .. }) {
            break;
        }
    }
    decisions
}

fn run_phase(
    model: &str,
    sessions: usize,
    accesses: usize,
    shards: usize,
    seed: u64,
    max_batch: usize,
) -> PhaseReport {
    let server = Server::start(
        ServeConfig {
            shards,
            max_batch,
            queue_cap: 256,
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let start = Instant::now();
    let served: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                s.spawn(move || {
                    let trace = session_trace(seed + i as u64, accesses);
                    drive_session(addr, model, seed + i as u64, &trace, 64)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.decisions, served,
        "telemetry vs client decision count"
    );
    PhaseReport {
        max_batch,
        elapsed_s: elapsed,
        decisions_per_s: served as f64 / elapsed.max(1e-9),
        snapshot,
    }
}

/// The high-session scenario's shape, shared verbatim by the pooled and
/// per-session runs (which differ only in `cross_session`).
struct HighSessionSetup<'a> {
    model: &'a str,
    sessions: usize,
    accesses: usize,
    window: usize,
    shards: usize,
    io_threads: usize,
    seed: u64,
}

/// Run the high-session scenario once. Every session Hellos with the
/// *same* `(model, seed, fast)` key — the frozen weights are shared — but
/// streams its own trace. Drivers are bulk-synchronous: each owns a block
/// of sessions and per round sends `window` accesses on every one, then
/// collects the replies, so ~`sessions` sessions are concurrently ready
/// at all times.
fn run_high_session_phase(setup: &HighSessionSetup, cross_session: bool) -> HighSessionPhase {
    let &HighSessionSetup {
        model,
        sessions,
        accesses,
        window,
        shards,
        io_threads,
        seed,
    } = setup;
    let server = Server::start(
        ServeConfig {
            shards,
            max_batch: 64,
            queue_cap: 256,
            io_threads,
            cross_session,
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let drivers = 16usize.min(sessions.max(1));
    let barrier = Barrier::new(drivers);
    let t0: OnceLock<Instant> = OnceLock::new();
    let served: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let barrier = &barrier;
                let t0 = &t0;
                s.spawn(move || {
                    let lo = sessions * d / drivers;
                    let hi = sessions * (d + 1) / drivers;
                    let mut clients: Vec<ServeClient> = Vec::with_capacity(hi - lo);
                    let mut traces: Vec<Vec<(MemAccess, bool)>> = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        let mut c = ServeClient::connect(addr).expect("connect");
                        c.hello(model, seed, true).expect("hello accepted");
                        clients.push(c);
                        traces.push(session_trace(seed + 1 + i as u64 * 7919, accesses));
                    }
                    // Setup (connects + per-session model builds) is
                    // excluded from the measured window.
                    barrier.wait();
                    let _ = t0.set(Instant::now());
                    let mut decisions = 0u64;
                    let mut pos = 0usize;
                    while pos < accesses {
                        let take = window.min(accesses - pos);
                        for (c, trace) in clients.iter_mut().zip(traces.iter()) {
                            for k in 0..take {
                                let (access, hit) = trace[pos + k];
                                c.queue_access((pos + k) as u32, 0, access, hit);
                            }
                            c.flush().expect("flush");
                        }
                        for c in clients.iter_mut() {
                            for _ in 0..take {
                                match c.recv().expect("recv").expect("reply before EOF") {
                                    Reply::Decision { .. } => decisions += 1,
                                    Reply::Busy { .. } => {}
                                    other => panic!("unexpected reply {other:?}"),
                                }
                            }
                        }
                        pos += take;
                    }
                    for c in clients.iter_mut() {
                        c.queue_bye();
                        c.flush().expect("flush bye");
                        while let Some(reply) = c.recv().expect("recv goodbye") {
                            if matches!(reply, Reply::Goodbye { .. }) {
                                break;
                            }
                        }
                    }
                    decisions
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver")).sum()
    });
    let elapsed = t0
        .get()
        .map(|t| t.elapsed().as_secs_f64())
        .unwrap_or(f64::MIN_POSITIVE);
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.decisions, served,
        "telemetry vs client decision count"
    );
    HighSessionPhase {
        cross_session,
        elapsed_s: elapsed,
        decisions_per_s: served as f64 / elapsed.max(1e-9),
        latency_us_p99: snapshot.latency_us_p99,
        snapshot,
    }
}

fn main() {
    let opts = Options::from_env_checked(&[
        "sessions",
        "model",
        "shards",
        "check",
        "io-threads",
        "hisess-sessions",
        "hisess-accesses",
        "hisess-window",
        "hisess-model",
        "int8-rows",
        "int8-iters",
    ]);
    let sessions = opts.usize("sessions", 8);
    let accesses = opts.usize("accesses", 4000);
    let shards = opts.usize("shards", 2);
    let seed = opts.u64("seed", 42);
    let model = opts.str("model").unwrap_or("resemble_frozen").to_string();
    let json = opts.str("json").map(str::to_string);

    let kernel_backend = resemble_nn::simd::dispatched().name().to_string();
    eprintln!(
        "serve_bench: model={model} sessions={sessions} accesses={accesses} shards={shards} kernel={kernel_backend}"
    );
    let microbatched = run_phase(&model, sessions, accesses, shards, seed, 64);
    let batch_of_1 = run_phase(&model, sessions, accesses, shards, seed, 1);
    let speedup = microbatched.decisions_per_s / batch_of_1.decisions_per_s.max(1e-9);

    // High-session scenario: ~1k concurrent frozen sessions sharing one
    // Hello key, pooled vs per-session batching.
    let hisess_req = opts.usize("hisess-sessions", 1000);
    let hisess_accesses = opts.usize("hisess-accesses", 32);
    // Closed-loop clients: each session has one request in flight (it
    // sends the next access only after receiving the decision), which is
    // the realistic serving regime at high session counts — per-session
    // batches degenerate to 1 row, cross-session pooling recovers the
    // batched GEMM.
    let hisess_window = opts.usize("hisess-window", 1).max(1);
    let hisess_model = opts
        .str("hisess-model")
        .unwrap_or("resemble_frozen_wide")
        .to_string();
    // One shard and one I/O thread by default: sessions pool per shard,
    // so a single worker gathering every ready session is the cleanest
    // (and least scheduling-sensitive) pooled-vs-per-session comparison.
    let io_threads = opts.usize("io-threads", 1);
    let hisess_shards = 1;
    let nofile_limit = raise_nofile_limit(hisess_req as u64 * 2 + 256);
    let fd_budget = usize::try_from(nofile_limit.saturating_sub(128) / 2).unwrap_or(hisess_req);
    let hisess_sessions = hisess_req.min(fd_budget).max(1);
    if hisess_sessions < hisess_req {
        eprintln!(
            "serve_bench: RLIMIT_NOFILE={nofile_limit} caps the high-session scenario at \
             {hisess_sessions} sessions (requested {hisess_req})"
        );
    }
    eprintln!(
        "serve_bench: high-session scenario: model={hisess_model} sessions={hisess_sessions} \
         accesses={hisess_accesses} window={hisess_window} io_threads={io_threads}"
    );
    let setup = HighSessionSetup {
        model: &hisess_model,
        sessions: hisess_sessions,
        accesses: hisess_accesses,
        window: hisess_window,
        shards: hisess_shards,
        io_threads,
        seed,
    };
    let pooled = run_high_session_phase(&setup, true);
    let per_session = run_high_session_phase(&setup, false);
    let pool_speedup = pooled.decisions_per_s / per_session.decisions_per_s.max(1e-9);

    // Int8 quantized-serving scenario: the pooled forward datapath on the
    // same wide frozen model the high-session scenario serves.
    let int8_rows = opts.usize("int8-rows", 256).max(1);
    let int8_iters = opts.usize("int8-iters", 400).max(1);
    let int8 = run_int8_scenario(&hisess_model, int8_rows, int8_iters, seed);
    let high_session = HighSessionReport {
        model: hisess_model,
        sessions: hisess_sessions,
        accesses_per_session: hisess_accesses,
        window: hisess_window,
        shards: hisess_shards,
        io_threads,
        nofile_limit,
        pooled,
        per_session,
        pool_speedup,
    };

    println!(
        "microbatched : {:>10.0} decisions/s  (mean batch {:.1}, p50/p95/p99 = {}/{}/{} us)",
        microbatched.decisions_per_s,
        microbatched.snapshot.mean_batch,
        microbatched.snapshot.latency_us_p50,
        microbatched.snapshot.latency_us_p95,
        microbatched.snapshot.latency_us_p99,
    );
    println!(
        "batch-of-1   : {:>10.0} decisions/s  (mean batch {:.1}, p50/p95/p99 = {}/{}/{} us)",
        batch_of_1.decisions_per_s,
        batch_of_1.snapshot.mean_batch,
        batch_of_1.snapshot.latency_us_p50,
        batch_of_1.snapshot.latency_us_p95,
        batch_of_1.snapshot.latency_us_p99,
    );
    println!("speedup      : {speedup:.2}x");
    println!(
        "pooled       : {:>10.0} decisions/s  ({} sessions, {} pool batches, mean pooled {:.1}, p99 = {} us)",
        high_session.pooled.decisions_per_s,
        high_session.sessions,
        high_session.pooled.snapshot.pool_batches,
        high_session.pooled.snapshot.pool_sessions as f64
            / (high_session.pooled.snapshot.pool_batches.max(1)) as f64,
        high_session.pooled.latency_us_p99,
    );
    println!(
        "per-session  : {:>10.0} decisions/s  (p99 = {} us)",
        high_session.per_session.decisions_per_s, high_session.per_session.latency_us_p99,
    );
    println!("pool speedup : {pool_speedup:.2}x");
    println!(
        "int8 pooled  : {:>10.0} rows/s vs f32 {:>10.0} rows/s = {:.2}x  (agreement {:.4}, {} rows x {} iters)",
        int8.int8_rows_per_s,
        int8.f32_rows_per_s,
        int8.int8_speedup,
        int8.decision_agreement,
        int8.rows,
        int8.iters,
    );
    match &int8.avx512_skip {
        None => println!(
            "int8 avx512  : {:>10.0} rows/s vs scalar {:>10.0} rows/s = {:.2}x",
            int8.avx512_rows_per_s, int8.scalar_rows_per_s, int8.avx512_vs_scalar,
        ),
        Some(reason) => println!("int8 avx512  : not measured ({reason})"),
    }

    let report = BenchReport {
        kernel_backend,
        model,
        sessions,
        accesses_per_session: accesses,
        shards,
        seed,
        microbatched,
        batch_of_1,
        speedup,
        high_session,
        int8,
    };
    maybe_write_json(json.as_deref(), &report);

    if opts.flag("check") {
        let mut failures: Vec<String> = Vec::new();
        let hs = &report.high_session;
        // (metric label, report key, measured value, required minimum,
        //  skip reason) — the same shape (and failure phrasing) as
        // perf_gate's `--check`, so one grep pattern covers both gates.
        let gated = [
            ("microbatch", "speedup", report.speedup, 1.5, None::<String>),
            (
                "cross-session pool",
                "pool_speedup",
                hs.pool_speedup,
                1.5,
                None,
            ),
            (
                "int8 pooled forward",
                "int8_speedup",
                report.int8.int8_speedup,
                1.5,
                (!report.int8.gated).then(|| "scalar-dispatched kernels".to_string()),
            ),
            (
                "int8 avx512 pooled forward",
                "avx512_vs_scalar",
                report.int8.avx512_vs_scalar,
                2.0,
                report.int8.avx512_skip.clone(),
            ),
        ];
        for (label, key, measured, min_required, skip) in gated {
            if let Some(reason) = skip {
                eprintln!("warning: {label} speedup not measured ({reason}); not gated");
                continue;
            }
            println!("check [{label}]: required {min_required:.2}x, measured {measured:.2}x");
            if measured < min_required {
                failures.push(format!(
                    "metric `{key}` ({label}) below its absolute minimum: measured \
                     {measured:.2}x < required {min_required:.2}x, short by {:.2}x ({:.1}%)",
                    min_required - measured,
                    (min_required - measured) / min_required * 100.0
                ));
            }
        }
        let (p99, p99_max) = (hs.pooled.latency_us_p99, 250_000u64);
        println!("check [pooled p99]: allowed {p99_max} us, measured {p99} us");
        if p99 > p99_max {
            failures.push(format!(
                "metric `pooled.latency_us_p99` (pooled p99) above its absolute maximum: \
                 measured {p99} us > allowed {p99_max} us, over by {} us ({:.1}%)",
                p99 - p99_max,
                (p99 - p99_max) as f64 / p99_max as f64 * 100.0
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("serve gate OK");
    }
}
