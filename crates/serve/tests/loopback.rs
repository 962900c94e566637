//! Loopback integration tests for the serving invariants (ISSUE 4):
//! bit-identity of served decisions vs the offline sequential run (with
//! concurrent interleaved sessions), batched == batch-of-1, backpressure
//! and deadline behaviour, and graceful drain with in-flight requests.

use resemble_serve::{
    offline_decisions, EventKind, Reply, ServeClient, ServeConfig, Server, SessionModel,
};
use resemble_trace::gen::stream::StreamGen;
use resemble_trace::gen::TraceSource;
use resemble_trace::MemAccess;

/// A session's synthetic workload: accesses plus deterministic hit flags.
fn session_trace(seed: u64, n: usize) -> Vec<(MemAccess, bool)> {
    let mut gen = StreamGen::new(seed, 3, 256, 0).with_write_ratio(0.1);
    gen.collect_n(n)
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, i % 3 == 0))
        .collect()
}

/// Stream a whole trace through a client with pipelining (window of
/// `window` in-flight requests), returning the decision per access.
fn serve_trace(
    addr: std::net::SocketAddr,
    model: &str,
    seed: u64,
    trace: &[(MemAccess, bool)],
    window: usize,
) -> Vec<Vec<u64>> {
    serve_with_fills(addr, model, seed, trace, window, false)
}

/// [`serve_trace`], optionally sending a `DemandFill` of the line two
/// blocks back before every other access.
fn serve_with_fills(
    addr: std::net::SocketAddr,
    model: &str,
    seed: u64,
    trace: &[(MemAccess, bool)],
    window: usize,
    fills: bool,
) -> Vec<Vec<u64>> {
    let mut client = ServeClient::connect(addr).expect("connect");
    client.hello(model, seed, true).expect("hello accepted");
    let mut decisions: Vec<Vec<u64>> = vec![Vec::new(); trace.len()];
    let mut next = 0usize;
    let mut awaiting = 0usize;
    while next < trace.len() || awaiting > 0 {
        while next < trace.len() && awaiting < window {
            let (access, hit) = trace[next];
            if fills && next % 2 == 1 {
                let line = (access.addr & !63).saturating_sub(128);
                client.queue_event(EventKind::DemandFill, line);
            }
            client.queue_access(next as u32, 0, access, hit);
            next += 1;
            awaiting += 1;
        }
        client.flush().expect("flush");
        match client.recv().expect("recv").expect("reply before EOF") {
            Reply::Decision { req_id, prefetches } => {
                decisions[req_id as usize] = prefetches;
                awaiting -= 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    client.queue_bye();
    client.flush().expect("flush bye");
    match client.recv().expect("recv goodbye") {
        Some(Reply::Goodbye { decisions: n }) => {
            assert_eq!(n, trace.len() as u64, "goodbye decision count");
        }
        other => panic!("expected Goodbye, got {other:?}"),
    }
    decisions
}

/// The offline reference for [`serve_with_fills`]: the sequential run of
/// `trace`, with each fill applied through `on_event` just before the
/// access it precedes.
fn offline_with_fills(
    model: &str,
    seed: u64,
    trace: &[(MemAccess, bool)],
    fills: bool,
) -> Vec<Vec<u64>> {
    let mut m = SessionModel::build(model, seed, true).expect("model builds");
    let mut decisions = Vec::with_capacity(trace.len());
    for (i, step) in trace.iter().enumerate() {
        if fills && i % 2 == 1 {
            m.on_event(
                EventKind::DemandFill,
                (step.0.addr & !63).saturating_sub(128),
            );
        }
        decisions.extend(offline_decisions(&mut m, std::slice::from_ref(step)));
    }
    decisions
}

#[test]
fn served_decisions_bit_identical_to_offline_across_concurrent_sessions() {
    // Four concurrent sessions (mixed models and seeds) microbatched over
    // each `(io_threads, shards)` arrangement: every session's served
    // decisions must equal the offline sequential run of its own trace,
    // bit for bit. The learning and `bo` sessions send a cache event
    // before every other access, which the offline run applies at the
    // same point. A server runs `min(io_threads, shards)` event loops,
    // each owning its shards: (2, 1) and (3, 2) ask for more loops than
    // shards and run one per shard, and (1, 2) and (2, 3) run a loop that
    // owns two shards.
    let sessions: &[(&str, u64, bool)] = &[
        ("resemble", 101, true),
        ("resemble", 202, true),
        ("resemble_frozen", 303, false),
        ("bo", 404, true),
    ];
    let n = 1500;
    let offline: Vec<Vec<Vec<u64>>> = sessions
        .iter()
        .map(|&(model, seed, fills)| {
            offline_with_fills(model, seed, &session_trace(seed, n), fills)
        })
        .collect();

    for (io_threads, shards) in [(2, 2), (2, 1), (1, 2), (3, 2), (2, 3)] {
        let server = Server::start(
            ServeConfig {
                shards,
                io_threads,
                max_batch: 32,
                ..ServeConfig::default()
            },
            SessionModel::default_builder(),
        )
        .expect("server starts");
        let addr = server.local_addr();

        let served: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter()
                .map(|&(model, seed, fills)| {
                    s.spawn(move || {
                        let trace = session_trace(seed, n);
                        serve_with_fills(addr, model, seed, &trace, 24, fills)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });

        let arrangement = format!("io_threads {io_threads}, shards {shards}");
        for (i, (expect, got)) in offline.iter().zip(served.iter()).enumerate() {
            assert_eq!(
                expect, got,
                "{arrangement}: session {i} decisions diverged from offline"
            );
        }
        let snap = server.shutdown();
        assert_eq!(snap.sessions_opened, sessions.len() as u64, "{arrangement}");
        assert_eq!(snap.sessions_closed, sessions.len() as u64, "{arrangement}");
        assert_eq!(snap.decisions, (sessions.len() * n) as u64, "{arrangement}");
        assert_eq!(snap.events, (3 * n / 2) as u64, "{arrangement}");
        assert!(
            snap.batch_size_hist.iter().any(|&(size, _)| size > 1),
            "{arrangement}: microbatching never formed a batch > 1: {:?}",
            snap.batch_size_hist
        );
    }
}

#[test]
fn forced_batch_of_1_serves_the_same_decisions() {
    let trace = session_trace(77, 800);
    let mut reference = SessionModel::build("resemble", 77, true).expect("model");
    let offline = offline_decisions(&mut reference, &trace);
    for max_batch in [1usize, 64] {
        let server = Server::start(
            ServeConfig {
                max_batch,
                ..ServeConfig::default()
            },
            SessionModel::default_builder(),
        )
        .expect("server starts");
        let got = serve_trace(server.local_addr(), "resemble", 77, &trace, 16);
        assert_eq!(got, offline, "max_batch={max_batch}");
        let snap = server.shutdown();
        if max_batch == 1 {
            assert!(
                snap.batch_size_hist.iter().all(|&(size, _)| size <= 1),
                "forced batch-of-1 formed larger batches: {:?}",
                snap.batch_size_hist
            );
        }
    }
}

#[test]
fn quantize_frozen_decisions_agree_with_f32_pooled_serving() {
    // The int8 quantized datapath is opt-in and not bit-identical to
    // f32, but on the stock frozen models its *decisions* (prefetch
    // address sets) must agree with the f32 pooled path for the vast
    // majority of accesses; any residual disagreement rate is what
    // `serve_bench` reports as the accuracy delta. Here we pin full
    // agreement on this workload — if quantization noise ever flips a
    // near-tie on these seeds, this assertion documents the new rate.
    let n = 1200;
    let seeds = [501u64, 502];
    let mut f32_decisions = Vec::new();
    let mut q_decisions = Vec::new();
    for quantize_frozen in [false, true] {
        let server = Server::start(
            ServeConfig {
                shards: 1,
                max_batch: 32,
                quantize_frozen,
                ..ServeConfig::default()
            },
            SessionModel::default_builder(),
        )
        .expect("server starts");
        let addr = server.local_addr();
        let got: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    s.spawn(move || {
                        let trace = session_trace(seed, n);
                        serve_trace(addr, "resemble_frozen", seed, &trace, 24)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let snap = server.shutdown();
        assert_eq!(snap.decisions, (seeds.len() * n) as u64);
        if quantize_frozen {
            assert!(
                snap.quantized_windows > 0,
                "quantized serving never took the int8 datapath"
            );
            q_decisions = got;
        } else {
            assert_eq!(snap.quantized_windows, 0);
            f32_decisions = got;
        }
    }
    let total: usize = f32_decisions.iter().map(Vec::len).sum();
    let agree: usize = f32_decisions
        .iter()
        .flatten()
        .zip(q_decisions.iter().flatten())
        .filter(|(a, b)| a == b)
        .count();
    assert_eq!(
        agree,
        total,
        "int8 decisions diverged from f32 on {}/{total} accesses; if \
         quantization noise legitimately flipped a near-tie, update this \
         pin and the documented disagreement rate",
        total - agree
    );
}

#[test]
fn quantize_frozen_takes_int8_on_every_window_with_events() {
    // Under `quantize_frozen` every frozen window runs int8, including a
    // session whose plans carry cache events, pooled or alone: each
    // decision window is a quantized window. Its decisions depend only on
    // the stream, not on how the frames were grouped into reads.
    let n = 1200;
    let seed = 503u64;
    let trace = session_trace(seed, n);
    for cross_session in [true, false] {
        let mut by_depth = Vec::new();
        for depth in [1usize, 24] {
            let server = Server::start(
                ServeConfig {
                    shards: 1,
                    max_batch: 32,
                    cross_session,
                    quantize_frozen: true,
                    ..ServeConfig::default()
                },
                SessionModel::default_builder(),
            )
            .expect("server starts");
            let got = serve_with_fills(
                server.local_addr(),
                "resemble_frozen",
                seed,
                &trace,
                depth,
                true,
            );
            let snap = server.shutdown();
            let arrangement = format!("cross_session {cross_session}, depth {depth}");
            assert_eq!(snap.decisions, n as u64, "{arrangement}");
            assert_eq!(snap.events, (n / 2) as u64, "{arrangement}");
            assert!(snap.batches > 0, "{arrangement}");
            assert_eq!(
                snap.quantized_windows, snap.batches,
                "{arrangement}: windows that skipped the int8 datapath"
            );
            by_depth.push(got);
        }
        assert_eq!(
            by_depth[0], by_depth[1],
            "cross_session {cross_session}: int8 decisions depend on pipelining depth"
        );
    }
}

#[test]
fn slow_session_gets_bounded_queue_busy_replies() {
    // A tiny queue and a training-heavy model (full 256-batch config):
    // flooding 600 pipelined requests must bounce some with Busy instead
    // of queueing unboundedly, and every request still gets exactly one
    // reply.
    let server = Server::start(
        ServeConfig {
            shards: 1,
            max_batch: 8,
            queue_cap: 8,
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.hello("resemble", 5, false).expect("hello");
    let trace = session_trace(5, 600);
    for (i, (access, hit)) in trace.iter().enumerate() {
        client.queue_access(i as u32, 0, *access, *hit);
    }
    client.queue_bye();
    client.flush().expect("flood");
    let mut decisions = 0u64;
    let mut busy = 0u64;
    let mut replied = vec![0u32; trace.len()];
    loop {
        match client.recv().expect("recv") {
            Some(Reply::Decision { req_id, .. }) => {
                decisions += 1;
                replied[req_id as usize] += 1;
            }
            Some(Reply::Busy { req_id }) => {
                busy += 1;
                replied[req_id as usize] += 1;
            }
            Some(Reply::Goodbye { .. }) | None => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(
        busy > 0,
        "queue_cap=8 under a 600-request flood never said Busy"
    );
    assert_eq!(decisions + busy, trace.len() as u64);
    assert!(
        replied.iter().all(|&n| n == 1),
        "some request got zero or duplicate replies"
    );
    let snap = server.shutdown();
    assert_eq!(snap.busy_rejections, busy);
    assert_eq!(snap.decisions, decisions);
}

#[test]
fn expired_deadlines_reply_timed_out_without_touching_the_model() {
    // Same flood, but with 1µs deadlines: requests that sit in the queue
    // behind slow training expire and answer TimedOut. The first request
    // has no deadline so the session always serves at least one decision.
    let server = Server::start(
        ServeConfig {
            shards: 1,
            max_batch: 4,
            queue_cap: 512,
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.hello("resemble", 9, false).expect("hello");
    let trace = session_trace(9, 300);
    for (i, (access, hit)) in trace.iter().enumerate() {
        let deadline_us = if i == 0 { 0 } else { 1 };
        client.queue_access(i as u32, deadline_us, *access, *hit);
    }
    client.queue_bye();
    client.flush().expect("flood");
    let (mut decisions, mut timed_out) = (0u64, 0u64);
    let goodbye_count: u64;
    loop {
        match client.recv().expect("recv") {
            Some(Reply::Decision { .. }) => decisions += 1,
            Some(Reply::TimedOut { .. }) => timed_out += 1,
            Some(Reply::Busy { .. }) => panic!("queue_cap=512 should not bounce 300 requests"),
            Some(Reply::Goodbye { decisions: n }) => {
                goodbye_count = n;
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(
        timed_out > 0,
        "1µs deadlines behind slow training never expired"
    );
    assert_eq!(decisions + timed_out, trace.len() as u64);
    // Goodbye's decision count only counts served decisions, proving the
    // expired requests never reached the model.
    assert_eq!(goodbye_count, decisions);
    let snap = server.shutdown();
    assert_eq!(snap.timeouts, timed_out);
}

#[test]
fn graceful_drain_flushes_in_flight_requests_with_final_snapshot() {
    let dir = std::env::temp_dir().join(format!("resemble_drain_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("drain.jsonl");
    let _ = std::fs::remove_file(&path);
    let server = Server::start(
        ServeConfig {
            shards: 1,
            max_batch: 8,
            queue_cap: 1024,
            snapshot_path: Some(path.clone()),
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.hello("resemble", 3, false).expect("hello");
    let trace = session_trace(3, 400);
    for (i, (access, hit)) in trace.iter().enumerate() {
        client.queue_access(i as u32, 0, *access, *hit);
    }
    client.flush().expect("flood");
    // Let the server ingest some of the flood, then shut down with the
    // queue still full of in-flight work.
    while server.telemetry().decisions_total() < 10 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let snap = server.shutdown();

    // Every request the server accepted was answered before exit.
    let (mut decisions, mut saw_goodbye) = (0u64, false);
    loop {
        match client.recv().expect("recv drained replies") {
            Some(Reply::Decision { .. }) => decisions += 1,
            Some(Reply::Goodbye { .. }) => saw_goodbye = true,
            Some(Reply::Busy { .. }) | Some(Reply::TimedOut { .. }) => {}
            Some(other) => panic!("unexpected reply {other:?}"),
            None => break,
        }
    }
    assert!(saw_goodbye, "drain must flush the session and say Goodbye");
    assert_eq!(snap.decisions, decisions, "snapshot vs replies disagree");
    assert!(decisions >= 10, "drain served the already-queued requests");
    assert_eq!(snap.sessions_closed, 1);
    // The final snapshot landed in the JSONL file.
    let text = std::fs::read_to_string(&path).expect("snapshot file");
    let last = text.lines().last().expect("at least the final snapshot");
    let v = serde_json::from_str(last).expect("valid JSON");
    assert_eq!(
        v.get("decisions").and_then(|x| x.as_u64()),
        Some(decisions),
        "final JSONL snapshot decision count"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_model_is_rejected_with_error() {
    let server = Server::start(ServeConfig::default(), SessionModel::default_builder())
        .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let err = client
        .hello("definitely_not_a_model", 1, true)
        .expect_err("rejected");
    assert!(err.to_string().contains("definitely_not_a_model"));
    let snap = server.shutdown();
    assert_eq!(snap.sessions_opened, 0);
    assert_eq!(snap.protocol_errors, 1);
}
