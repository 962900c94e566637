//! The serving workload: an in-process `resemble-serve` server (1 shard,
//! 1 I/O thread, `max_batch` 64, cross-session pooling on) under an
//! open-loop load from two connections that Hello with the same
//! `resemble_frozen` key. Each connection streams the LLC access stream a
//! prefetcher would see for one seeded app; the `events` session also
//! sends the cache fill/evict feedback of that stream as `Event` frames,
//! which split the server's decision windows, while the `plain` session
//! sends accesses only.
//!
//! Requests are sent on a fixed schedule from one generator thread per
//! connection and timed from their scheduled send, so a stall also
//! delays every request due behind it. A fixed-rate phase gives latency;
//! a fixed rate ladder gives the highest rate whose p99 meets
//! [`P99_LIMIT_US`] without a growing backlog.

use crate::layers::{Stopwatch, TallySink};
use crate::report::{
    assemble, digest, median, out_path, peak_rss_mb, quantile, thread_cpu_ns, Metric, Outcome,
    END_TO_END, PER_LAYER,
};
use crate::sim::{drain_sinks, member_sinks, stored_digests, timed_bank, DIGEST_SEEDS, MEMBERS};
use resemble_core::{ResembleConfig, ResembleMlp};
use resemble_prefetch::{CacheEvent, PredictionKind, Prefetcher, PrefetcherBank};
use resemble_runtime::Sweep;
use resemble_serve::protocol::{EventKind, Reply, Request};
use resemble_serve::{ModelBuilder, ServeConfig, Server, SessionModel, TelemetrySnapshot};
use resemble_sim::{Engine, SimConfig};
use resemble_trace::gen::app_by_name;
use resemble_trace::MemAccess;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Workload name.
pub const WORKLOAD: &str = "serve-frozen";

/// The served model: the paper controller, frozen (inference only).
const MODEL: &str = "resemble_frozen";

/// Arrival rate of the fixed-rate phase, decisions/s over both sessions.
pub const FIXED_RATE: f64 = 20_000.0;

/// The rate ladder, decisions/s over both sessions, climbed until a step
/// misses the limit.
pub const LADDER: [f64; 4] = [20_000.0, 40_000.0, 60_000.0, 80_000.0];

/// p99 latency limit, from scheduled send to reply, for a ladder step.
pub const P99_LIMIT_US: f64 = 2_000.0;

/// Generator health bound: a phase whose p99 send lag (actual minus
/// scheduled send) exceeds this is invalid. Normally the lag p99 is about
/// 0.1 ms; a shared host that stops the CPU for a while lifted it to 19 ms
/// in runs that were otherwise sound, so the bound catches a generator
/// that falls behind its schedule, not such stalls.
pub const LAG_BOUND_US: f64 = 50_000.0;

/// Share of `--seconds` spent in the fixed-rate phase; the ladder splits
/// the rest evenly.
const FIXED_SHARE: f64 = 0.7;

/// The two sessions: label, app, and whether cache events are sent.
const SESSIONS: [(&str, &str, bool); 2] = [
    ("plain", "433.milc", false),
    ("events", "471.omnetpp", true),
];

/// Demand accesses simulated before a client stream is recorded, so the
/// client's modelled caches are warm.
const WARMUP: usize = 20_000;

/// Accesses per session checked against the stored decision digests.
const DIGEST_ACCESSES: usize = 20_000;

/// One client's input: the LLC access stream with hit flags, plus the
/// cache events the simulator delivered, each placed before the access
/// it preceded.
pub struct Stream {
    /// Session label.
    pub label: &'static str,
    /// Accesses with their LLC hit flags, in order.
    pub accesses: Vec<(MemAccess, bool)>,
    /// `(index of the access it precedes, kind, addr)`, in order.
    pub events: Vec<(usize, EventKind, u64)>,
}

/// Records what a prefetcher attached to the LLC is shown.
#[derive(Default)]
struct Recorder {
    on: bool,
    accesses: Vec<(MemAccess, bool)>,
    events: Vec<(usize, EventKind, u64)>,
}

impl Prefetcher for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, _out: &mut Vec<u64>) {
        if self.on {
            self.accesses.push((*access, hit));
        }
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        if !self.on {
            return;
        }
        for e in events {
            let (kind, addr) = match *e {
                CacheEvent::PrefetchFill { addr } => (EventKind::PrefetchFill, addr),
                CacheEvent::DemandFill { addr } => (EventKind::DemandFill, addr),
                CacheEvent::Evict {
                    addr,
                    unused_prefetch,
                } => (EventKind::Evict { unused_prefetch }, addr),
            };
            self.events.push((self.accesses.len(), kind, addr));
        }
    }

    fn budget_bytes(&self) -> usize {
        0
    }

    fn reset(&mut self) {}
}

/// Simulate `app` (no prefetching) and record the first `n` LLC accesses
/// after warmup, with the events before each.
pub fn make_stream(label: &'static str, app: &str, seed: u64, n: usize, events: bool) -> Stream {
    let mut src = app_by_name(app, seed)
        .expect("session apps are valid")
        .source;
    let mut engine = Engine::new(SimConfig::harness());
    let mut rec = Recorder::default();
    let mut buf = Vec::with_capacity(1024);
    let mut stepped = 0usize;
    while rec.accesses.len() < n {
        buf.clear();
        if src.next_batch(&mut buf, 1024) == 0 {
            break;
        }
        for a in &buf {
            rec.on = stepped >= WARMUP;
            engine.step(a, Some(&mut rec));
            stepped += 1;
            if rec.accesses.len() >= n {
                break;
            }
        }
    }
    rec.accesses.truncate(n);
    rec.events.retain(|e| events && e.0 < n);
    Stream {
        label,
        accesses: rec.accesses,
        events: rec.events,
    }
}

/// Build the served model for `seed` over the given bank (the default
/// registry builds `resemble_frozen` exactly so over `paper_bank()`).
fn frozen_model(bank: PrefetcherBank, seed: u64) -> SessionModel {
    let mut m = ResembleMlp::new(bank, ResembleConfig::fast(), seed);
    m.agent_mut().frozen = true;
    SessionModel::Mlp(Box::new(m))
}

/// Offline replay of the first `n` accesses of a stream: accesses and
/// events applied in stream order through `SessionModel::on_run` and
/// `on_event`. Returns the decision per access and the host nanoseconds
/// spent in the model.
pub fn offline(model: &mut SessionModel, s: &Stream, n: usize) -> (Vec<Vec<u64>>, u64) {
    let mut out = Vec::with_capacity(n);
    let mut ns = 0u64;
    let (mut start, mut ev) = (0usize, 0usize);
    while start < n {
        while ev < s.events.len() && s.events[ev].0 == start {
            let (_, kind, addr) = s.events[ev];
            let t = Stopwatch::start();
            model.on_event(kind, addr);
            ns += t.ns();
            ev += 1;
        }
        let end = s.events.get(ev).map_or(n, |e| e.0.min(n));
        let t = Stopwatch::start();
        model.on_run(&s.accesses[start..end], |_, issued| {
            out.push(issued.to_vec())
        });
        ns += t.ns();
        start = end;
    }
    (out, ns)
}

/// Digest of a decision sequence.
fn decisions_digest(d: &[Vec<u64>]) -> u64 {
    digest(
        d.iter()
            .flat_map(|v| std::iter::once(v.len() as u64).chain(v.iter().copied())),
    )
}

/// One digest line per session at `seed`: `label digest`.
pub fn digest_lines(seed: u64) -> Vec<String> {
    SESSIONS
        .iter()
        .map(|&(label, app, events)| {
            let s = make_stream(label, app, seed, DIGEST_ACCESSES, events);
            let mut m = SessionModel::build(MODEL, seed, true).expect("registry model");
            let (d, _) = offline(&mut m, &s, DIGEST_ACCESSES);
            format!("{label} {:016x}", decisions_digest(&d))
        })
        .collect()
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Pending,
    Decided,
    Busy,
    TimedOut,
}

/// One session's view of a phase: per-request times in nanoseconds on
/// the phase clock, and what went wrong.
struct SessionRun {
    label: &'static str,
    sch: Schedule,
    sent_ns: Vec<u64>,
    reply_ns: Vec<u64>,
    fate: Vec<Fate>,
    mismatches: u64,
    events_sent: u64,
    /// Requests outstanding right after the last one was sent.
    backlog_at_end: usize,
    errors: Vec<String>,
}

impl SessionRun {
    fn count(&self, f: Fate) -> u64 {
        self.fate.iter().filter(|&&x| x == f).count() as u64
    }

    /// Latency from scheduled send in µs; failed requests read infinite,
    /// since a refused request misses any limit.
    fn latencies_us(&self) -> Vec<f64> {
        (0..self.fate.len())
            .map(|k| match self.fate[k] {
                Fate::Decided => self.reply_ns[k].saturating_sub(self.sch.due_ns(k)) as f64 / 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn lags_us(&self) -> Vec<f64> {
        (0..self.sent_ns.len())
            .map(|k| self.sent_ns[k].saturating_sub(self.sch.due_ns(k)) as f64 / 1e3)
            .collect()
    }
}

fn send_frame(sock: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    let mut buf = Vec::new();
    req.encode_into(&mut buf);
    sock.write_all(&buf)
}

/// Split complete `[len u32][type][payload]` frames off the front of `buf`.
fn take_frames(buf: &mut Vec<u8>, mut on_reply: impl FnMut(std::io::Result<Reply>)) {
    let mut at = 0;
    while buf.len() - at >= 5 {
        let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
        if len == 0 || buf.len() - at - 4 < len {
            break;
        }
        on_reply(Reply::decode(buf[at + 4], &buf[at + 5..at + 4 + len]));
        at += 4 + len;
    }
    buf.drain(..at);
}

/// Connect and open a session with the shared frozen key; returns the
/// socket twice, for the sender and the receiver.
fn connect_hello(addr: SocketAddr, seed: u64) -> Result<(TcpStream, TcpStream), String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let hello = Request::Hello {
        model: MODEL.to_string(),
        seed,
        fast: true,
    };
    send_frame(&mut sock, &hello).map_err(|e| format!("hello: {e}"))?;
    let mut payload = Vec::new();
    match resemble_serve::protocol::read_frame(&mut sock, &mut payload) {
        Ok(Some(ty)) => match Reply::decode(ty, &payload) {
            Ok(Reply::Accepted { .. }) => {
                let reader = sock.try_clone().map_err(|e| format!("clone socket: {e}"))?;
                Ok((sock, reader))
            }
            other => Err(format!("hello refused: {other:?}")),
        },
        other => Err(format!("hello: no reply ({other:?})")),
    }
}

/// The schedule of one phase, on a clock every generator thread shares.
#[derive(Clone, Copy)]
struct Schedule {
    clock: Stopwatch,
    /// Scheduled send of each session's first request.
    lead_ns: u64,
    /// Requests per second per session.
    rate: f64,
    /// Requests per session.
    n: usize,
    /// When a receiver stops waiting for replies.
    give_up_ns: u64,
}

impl Schedule {
    /// When request `k` of a session is due.
    fn due_ns(&self, k: usize) -> u64 {
        self.lead_ns + (k as f64 * 1e9 / self.rate) as u64
    }
}

/// What a session's sender saw.
struct Sent {
    sent_ns: Vec<u64>,
    events_sent: u64,
    backlog_at_end: usize,
    errors: Vec<String>,
}

/// What a session's receiver saw.
struct Received {
    reply_ns: Vec<u64>,
    fate: Vec<Fate>,
    mismatches: u64,
    errors: Vec<String>,
}

/// One generator thread's result.
enum Side {
    Sent(Sent),
    Received(Received),
    Sampled(Vec<f64>),
}

/// CPU nanoseconds the given threads have run so far.
fn cpu_of(tids: &[u64]) -> u64 {
    thread_cpu_ns()
        .iter()
        .filter(|(tid, _)| tids.contains(tid))
        .map(|&(_, ns)| ns)
        .sum()
}

/// Every [`SAMPLE_NS`] until all `total` replies are in, the decisions
/// the server answered per second of its threads' CPU time.
fn sample_side(
    server_tids: &[u64],
    replied: &[AtomicUsize],
    total: usize,
    sch: Schedule,
) -> Vec<f64> {
    let done = || {
        replied
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum::<usize>()
    };
    let mut rates = Vec::new();
    let (mut cpu0, mut done0) = (cpu_of(server_tids), done());
    while done0 < total && sch.clock.ns() < sch.give_up_ns {
        std::thread::sleep(Duration::from_nanos(SAMPLE_NS));
        let (cpu, d) = (cpu_of(server_tids), done());
        if cpu > cpu0 && d > done0 {
            rates.push((d - done0) as f64 / ((cpu - cpu0) as f64 / 1e9));
        }
        (cpu0, done0) = (cpu, d);
    }
    rates
}

/// Interval between server CPU samples.
const SAMPLE_NS: u64 = 100_000_000;

/// The sender of one session: write access `k` (after the events that
/// precede it) at `lead + k / rate`, sleeping until then, and end with
/// `Bye`. Requests that fell due together go out in one write.
fn send_side(mut sock: TcpStream, s: &Stream, sch: Schedule, replied: &AtomicUsize) -> Sent {
    let n = sch.n;
    let mut out = Sent {
        sent_ns: vec![0; n],
        events_sent: 0,
        backlog_at_end: 0,
        errors: Vec::new(),
    };
    let mut wbuf = Vec::new();
    let (mut next, mut ev) = (0usize, 0usize);
    while next < n {
        let now = sch.clock.ns();
        if sch.due_ns(next) > now {
            std::thread::sleep(Duration::from_nanos(sch.due_ns(next) - now));
            continue;
        }
        let first = next;
        while next < n && sch.due_ns(next) <= now {
            while ev < s.events.len() && s.events[ev].0 == next {
                let (_, kind, addr) = s.events[ev];
                Request::Event { kind, addr }.encode_into(&mut wbuf);
                out.events_sent += 1;
                ev += 1;
            }
            let (access, hit) = s.accesses[next];
            let req_id = u32::try_from(next).expect("streams are shorter than 2^32");
            Request::Access {
                req_id,
                deadline_us: 0,
                access,
                hit,
            }
            .encode_into(&mut wbuf);
            next += 1;
        }
        if let Err(e) = sock.write_all(&wbuf) {
            out.errors.push(format!("send: {e}"));
            break;
        }
        wbuf.clear();
        let sent = sch.clock.ns();
        out.sent_ns[first..next].fill(sent);
    }
    out.backlog_at_end = next.saturating_sub(replied.load(Ordering::Relaxed));
    if let Err(e) = send_frame(&mut sock, &Request::Bye) {
        out.errors.push(format!("bye: {e}"));
    }
    out
}

/// The receiver of one session: block on the socket, timestamp each reply
/// as it arrives and check it against `want`, until the `Goodbye`.
fn recv_side(
    mut sock: TcpStream,
    want: &[Vec<u64>],
    sch: Schedule,
    replied: &AtomicUsize,
) -> Received {
    let n = sch.n;
    let mut out = Received {
        reply_ns: vec![0; n],
        fate: vec![Fate::Pending; n],
        mismatches: 0,
        errors: Vec::new(),
    };
    // The timeout only bounds how long a stuck server can hold the run.
    let _ = sock.set_read_timeout(Some(Duration::from_millis(100)));
    let (mut rbuf, mut tmp) = (Vec::new(), vec![0u8; 64 * 1024]);
    let mut goodbye = false;
    while !goodbye {
        if sch.clock.ns() >= sch.give_up_ns {
            out.errors.push("no Goodbye before the deadline".into());
            break;
        }
        let k = match sock.read(&mut tmp) {
            Ok(0) => {
                out.errors.push("server closed the connection".into());
                break;
            }
            Ok(k) => k,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => {
                out.errors.push(format!("recv: {e}"));
                break;
            }
        };
        let t = sch.clock.ns();
        rbuf.extend_from_slice(&tmp[..k]);
        take_frames(&mut rbuf, |r| {
            let (id, fate, prefetches) = match r {
                Ok(Reply::Decision { req_id, prefetches }) => (req_id, Fate::Decided, prefetches),
                Ok(Reply::Busy { req_id }) => (req_id, Fate::Busy, Vec::new()),
                Ok(Reply::TimedOut { req_id }) => (req_id, Fate::TimedOut, Vec::new()),
                Ok(Reply::Goodbye { .. }) => {
                    goodbye = true;
                    return;
                }
                other => {
                    out.errors.push(format!("unexpected reply {other:?}"));
                    return;
                }
            };
            let k = id as usize;
            if k >= n || out.fate[k] != Fate::Pending {
                out.errors
                    .push(format!("reply for unknown or answered request {id}"));
                return;
            }
            out.fate[k] = fate;
            out.reply_ns[k] = t;
            if fate == Fate::Decided && prefetches != want[k] {
                out.mismatches += 1;
            }
            replied.fetch_add(1, Ordering::Relaxed);
        });
    }
    out
}

/// One open-loop phase on a fresh server.
struct Phase {
    rate: f64,
    runs: Vec<SessionRun>,
    /// Decisions per second of server-thread CPU time, per sample interval.
    cpu_rates: Vec<f64>,
    snap: TelemetrySnapshot,
}

impl Phase {
    fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.fate.len() as u64).sum()
    }

    fn decided(&self) -> u64 {
        self.runs.iter().map(|r| r.count(Fate::Decided)).sum()
    }

    fn refused(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.count(Fate::Busy) + r.count(Fate::TimedOut) + r.count(Fate::Pending))
            .sum()
    }

    fn mismatches(&self) -> u64 {
        self.runs.iter().map(|r| r.mismatches).sum()
    }

    fn errors(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|r| r.errors.iter().map(move |e| format!("{}: {e}", r.label)))
            .collect()
    }

    /// Every request decided, no event dropped, no protocol trouble: the
    /// served decisions must then equal the offline replay.
    fn clean(&self) -> bool {
        self.refused() == 0 && self.snap.events_dropped == 0 && self.errors().is_empty()
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.runs.iter().flat_map(|r| r.latencies_us()).collect()
    }

    fn lag_p99_us(&self) -> f64 {
        quantile(
            &self
                .runs
                .iter()
                .flat_map(|r| r.lags_us())
                .collect::<Vec<_>>(),
            0.99,
        )
    }

    /// Decisions per second, from the first scheduled send to the last reply.
    fn achieved_rate(&self) -> f64 {
        self.decided() as f64 / (self.span_ns().max(1) as f64 / 1e9)
    }

    /// Nanoseconds from the first scheduled send to the last reply.
    fn span_ns(&self) -> u64 {
        let last = self
            .runs
            .iter()
            .flat_map(|r| r.reply_ns.iter())
            .max()
            .copied()
            .unwrap_or(0);
        last.saturating_sub(self.runs.first().map_or(0, |r| r.sch.lead_ns))
    }

    /// The backlog at the end of the schedule fits within what the rate
    /// can have in flight under the latency limit (Little's law).
    fn backlog_ok(&self) -> bool {
        let backlog: usize = self.runs.iter().map(|r| r.backlog_at_end).sum();
        backlog as f64 <= (self.rate * P99_LIMIT_US / 1e6).max(1.0)
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        io_threads: 1,
        max_batch: 64,
        // Deep enough that a scheduling hiccup on the shared core does not
        // refuse requests at the fixed rate; sustained overload still does.
        queue_cap: 4096,
        cross_session: true,
        ..ServeConfig::default()
    }
}

/// Run one phase at `rate` decisions/s for `secs` on a fresh server.
fn run_phase(
    streams: &[Stream],
    wants: &[Vec<Vec<u64>>],
    seed: u64,
    rate: f64,
    secs: f64,
    builder: ModelBuilder,
) -> Result<Phase, String> {
    let per_session = rate / streams.len() as f64;
    let n = ((per_session * secs).ceil() as usize).min(streams[0].accesses.len());
    let ours: Vec<u64> = thread_cpu_ns().iter().map(|&(tid, _)| tid).collect();
    let server =
        Server::start(serve_config(), builder).map_err(|e| format!("server start: {e}"))?;
    let server_tids: Vec<u64> = thread_cpu_ns()
        .iter()
        .map(|&(tid, _)| tid)
        .filter(|tid| !ours.contains(tid))
        .collect();
    let addr = server.local_addr();
    let socks: Vec<(TcpStream, TcpStream)> =
        match streams.iter().map(|_| connect_hello(addr, seed)).collect() {
            Ok(s) => s,
            Err(e) => {
                server.shutdown();
                return Err(e);
            }
        };
    let lead_ns = 2_000_000;
    let sch = Schedule {
        clock: Stopwatch::start(),
        lead_ns,
        rate: per_session,
        n,
        give_up_ns: lead_ns + ((secs + 10.0) * 1e9) as u64,
    };
    // Per session a sender thread (the open-loop generator) and a receiver
    // that sleeps in `read` until a reply arrives, so replies are
    // timestamped when they land rather than when the sender next wakes.
    let replied: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut gens = Sweep::quiet("serve-loadgen", 2 * streams.len() + 1);
    for ((((sock, reader), s), want), replied) in
        socks.into_iter().zip(streams).zip(wants).zip(&replied)
    {
        gens.push(format!("{}-send", s.label), move |_| {
            Side::Sent(send_side(sock, s, sch, replied))
        });
        gens.push(format!("{}-recv", s.label), move |_| {
            Side::Received(recv_side(reader, want, sch, replied))
        });
    }
    let (tids, all) = (&server_tids, &replied);
    gens.push("server-cpu", move |_| {
        Side::Sampled(sample_side(tids, all, n * all.len(), sch))
    });
    let mut sides = gens.run().into_iter();
    let mut runs = Vec::new();
    for s in streams {
        let (Some(Side::Sent(sent)), Some(Side::Received(got))) = (sides.next(), sides.next())
        else {
            unreachable!("sweep results come back in push order");
        };
        let mut errors = sent.errors;
        errors.extend(got.errors);
        runs.push(SessionRun {
            label: s.label,
            sch,
            sent_ns: sent.sent_ns,
            reply_ns: got.reply_ns,
            fate: got.fate,
            mismatches: got.mismatches,
            events_sent: sent.events_sent,
            backlog_at_end: sent.backlog_at_end,
            errors,
        });
    }
    let Some(Side::Sampled(cpu_rates)) = sides.next() else {
        unreachable!("the sampler is pushed last");
    };
    let snap = server.shutdown();
    Ok(Phase {
        rate,
        runs,
        cpu_rates,
        snap,
    })
}

/// Time one set-up as a phase makes it, `Server::start` plus a Hello per
/// session, then close the sessions and stop the server.
fn setup_secs(seed: u64) -> Result<f64, String> {
    let t = Stopwatch::start();
    let server = Server::start(serve_config(), SessionModel::default_builder())
        .map_err(|e| format!("server start: {e}"))?;
    let socks: Result<Vec<_>, String> = SESSIONS
        .iter()
        .map(|_| connect_hello(server.local_addr(), seed))
        .collect();
    let secs = t.secs();
    drop(socks);
    server.shutdown();
    Ok(secs)
}

/// Time `reps` set-ups into `setups`.
fn time_setups(seed: u64, reps: usize, setups: &mut Vec<f64>, out: &mut Outcome) {
    for _ in 0..reps {
        match setup_secs(seed) {
            Ok(secs) => setups.push(secs),
            Err(e) => out.problem(format!("set-up: {e}")),
        }
    }
}

/// Set-ups timed per untraced run, at least; the median is reported.
/// They are timed in groups between the phases so that the median
/// samples the whole run rather than one moment of it.
const SETUP_REPS: usize = 30;
const SETUPS_PER_BREAK: usize = 6;

/// Everything a run shares: the client streams and their offline answers.
struct Inputs {
    streams: Vec<Stream>,
    wants: Vec<Vec<Vec<u64>>>,
}

fn make_inputs(seed: u64, n: usize) -> Inputs {
    let streams: Vec<Stream> = SESSIONS
        .iter()
        .map(|&(label, app, events)| make_stream(label, app, seed, n, events))
        .collect();
    let wants = streams
        .iter()
        .map(|s| {
            let mut m = SessionModel::build(MODEL, seed, true).expect("registry model");
            offline(&mut m, s, s.accesses.len()).0
        })
        .collect();
    Inputs { streams, wants }
}

/// Check a phase's replies and telemetry; returns the failed-operation
/// count it adds (refusals and mismatches count only when `strict`).
fn check_phase(ph: &Phase, strict: bool, out: &mut Outcome) -> u64 {
    let mut failed = 0;
    if ph.snap.decisions != ph.decided() {
        out.problem(format!(
            "telemetry counts {} decisions, the clients received {}",
            ph.snap.decisions,
            ph.decided()
        ));
        failed += ph.snap.decisions.abs_diff(ph.decided());
    }
    if ph.clean() && ph.mismatches() > 0 {
        out.problem(format!(
            "{} served decisions differ from the offline replay",
            ph.mismatches()
        ));
        failed += ph.mismatches();
    }
    if strict {
        let bad = ph.refused() + ph.snap.events_dropped + ph.errors().len() as u64;
        if bad > 0 {
            out.problem(format!(
                "fixed-rate phase: {} refused or missing, {} events dropped, errors {:?}",
                ph.refused(),
                ph.snap.events_dropped,
                ph.errors()
            ));
        }
        failed += bad;
    }
    failed
}

fn describe_phase(name: &str, ph: &Phase) -> String {
    let lat = ph.latencies_us();
    format!(
        "{name}: rate {:.0}/s, {} requests, achieved {:.0}/s, p50 {:.1} us, p99 {:.1} us, lag p99 {:.1} us, refused {}, mean batch {:.2}",
        ph.rate,
        ph.requests(),
        ph.achieved_rate(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        ph.lag_p99_us(),
        ph.refused(),
        ph.snap.mean_batch
    )
}

/// Check the model's decisions at the stored seeds.
fn verify_digests(out: &mut Outcome) {
    for seed in DIGEST_SEEDS {
        let want = stored_digests(WORKLOAD, seed);
        let got = digest_lines(seed);
        out.attempted += got.len() as u64;
        let bad = crate::sim::mismatches(&got, &want);
        if bad > 0 {
            out.failed += bad;
            out.problem(format!(
                "{bad} session decision digests differ from the stored ones at seed {seed}"
            ));
        }
    }
}

/// A builder serving the same `resemble_frozen` model over timed members
/// that report into `sinks` when a session retires.
fn timed_builder(sinks: Vec<(&'static str, TallySink)>) -> ModelBuilder {
    std::sync::Arc::new(move |model: &str, seed: u64, fast: bool| {
        if model == MODEL && fast {
            Ok(frozen_model(timed_bank(&sinks), seed))
        } else {
            SessionModel::build(model, seed, fast)
        }
    })
}

fn write_spans(seed: u64, phases: &[(&str, &Phase)]) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let path = out_path(&format!("spans-{WORKLOAD}-seed{seed}.jsonl"))?;
    let mut text = String::new();
    for (name, ph) in phases {
        for r in &ph.runs {
            for k in 0..r.fate.len() {
                let _ = writeln!(
                    text,
                    "{{\"phase\": \"{name}\", \"session\": \"{}\", \"req\": {k}, \"due_ns\": {}, \"sent_ns\": {}, \"reply_ns\": {}, \"fate\": \"{:?}\"}}",
                    r.label,
                    r.sch.due_ns(k),
                    r.sent_ns[k],
                    r.reply_ns[k],
                    r.fate[k]
                );
            }
        }
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Run the serving workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let fixed_secs = seconds * FIXED_SHARE;
    let step_secs = seconds * (1.0 - FIXED_SHARE) / LADDER.len() as f64;
    let top = LADDER.iter().copied().fold(FIXED_RATE, f64::max);
    let n = ((FIXED_RATE * fixed_secs).max(top * step_secs) / 2.0).ceil() as usize + 1;
    println!(
        "workload {WORKLOAD}: 2 sessions ({}) on {MODEL}, seed {seed}; fixed {FIXED_RATE:.0}/s for {fixed_secs:.1} s, ladder {:?}/s at {step_secs:.2} s a step, p99 limit {P99_LIMIT_US} us, lag bound {LAG_BOUND_US} us",
        SESSIONS.map(|s| format!("{} {}", s.0, s.1)).join(", "),
        LADDER
    );
    let inputs = make_inputs(seed, n);
    for s in &inputs.streams {
        println!(
            "  session {}: {} accesses, {} events",
            s.label,
            s.accesses.len(),
            s.events.len()
        );
    }

    let default_builder = SessionModel::default_builder;
    let fixed = match run_phase(
        &inputs.streams,
        &inputs.wants,
        seed,
        FIXED_RATE,
        fixed_secs,
        default_builder(),
    ) {
        Ok(p) => p,
        Err(e) => {
            out.problem(format!("fixed-rate phase: {e}"));
            out.metrics = assemble(if trace { PER_LAYER } else { END_TO_END }, Vec::new());
            return out;
        }
    };
    println!("{}", describe_phase("fixed", &fixed));
    out.attempted += fixed.requests();
    out.failed += check_phase(&fixed, true, &mut out);
    if fixed.lag_p99_us() > LAG_BOUND_US {
        out.problem(format!(
            "run invalid: generator lag p99 {:.0} us exceeds {LAG_BOUND_US} us",
            fixed.lag_p99_us()
        ));
    }
    let lat = fixed.latencies_us();

    if !trace {
        let mut setups = Vec::new();
        time_setups(seed, SETUPS_PER_BREAK, &mut setups, &mut out);
        // Steps run in rising order and stop at the first that misses, so
        // the last step that meets the limit is the highest.
        let mut max_rate = 0.0;
        for &rate in &LADDER {
            let ph = match run_phase(
                &inputs.streams,
                &inputs.wants,
                seed,
                rate,
                step_secs,
                default_builder(),
            ) {
                Ok(ph) => ph,
                Err(e) => {
                    out.problem(format!("ladder step {rate}: {e}"));
                    break;
                }
            };
            out.attempted += ph.requests();
            out.failed += check_phase(&ph, false, &mut out);
            let p99 = quantile(&ph.latencies_us(), 0.99);
            let ok = ph.clean()
                && p99 <= P99_LIMIT_US
                && ph.backlog_ok()
                && ph.lag_p99_us() <= LAG_BOUND_US;
            println!(
                "{} -> {}",
                describe_phase("  ladder", &ph),
                if ok { "meets" } else { "misses" }
            );
            time_setups(seed, SETUPS_PER_BREAK, &mut setups, &mut out);
            if !ok {
                break;
            }
            max_rate = ph.achieved_rate();
        }
        let missing = SETUP_REPS.saturating_sub(setups.len());
        time_setups(seed, missing, &mut setups, &mut out);
        verify_digests(&mut out);
        out.metrics = assemble(
            END_TO_END,
            vec![
                Metric::rate_summary(
                    "accesses_per_s",
                    "1/s",
                    quantile(&fixed.cpu_rates, 1.0),
                    "fastest sample",
                    fixed.cpu_rates.clone(),
                ),
                Metric::median_of("setup_s", "s", setups, true),
            ],
        );
        out.extra = vec![
            Metric::median_of(
                "server_decisions_per_cpu_s",
                "1/s",
                fixed.cpu_rates.clone(),
                false,
            ),
            Metric::median_of("serve_p50_us", "us", lat.clone(), true),
            Metric::single("serve_p99_us", "us", quantile(&lat, 0.99)),
            Metric::single("serve_max_rate_dps", "1/s", max_rate),
            Metric::single("loadgen.lag_us_p99", "us", fixed.lag_p99_us()),
            Metric::single("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN)),
        ];
        return out;
    }

    // Traced run: the same fixed-rate phase over timed bank members, and
    // the offline replay over timed members for the controller's own time.
    let sinks = member_sinks();
    let traced = match run_phase(
        &inputs.streams,
        &inputs.wants,
        seed,
        FIXED_RATE,
        fixed_secs,
        timed_builder(sinks.clone()),
    ) {
        Ok(p) => p,
        Err(e) => {
            out.problem(format!("traced phase: {e}"));
            out.metrics = assemble(PER_LAYER, Vec::new());
            return out;
        }
    };
    println!("{}", describe_phase("traced", &traced));
    out.attempted += traced.requests();
    out.failed += check_phase(&traced, true, &mut out);
    let members = drain_sinks(&sinks);
    let decided = traced.decided().max(1) as f64;

    let replay_sinks = member_sinks();
    let (mut replay_ns, mut replay_accesses, mut actions, mut np, mut reward) =
        (0u64, 0u64, 0u64, 0u64, 0.0);
    let np_action = ResembleConfig::fast().np_action();
    for (s, want) in inputs.streams.iter().zip(&inputs.wants) {
        let mut m = frozen_model(timed_bank(&replay_sinks), seed);
        let (d, ns) = offline(&mut m, s, s.accesses.len());
        if &d != want {
            out.failed += 1;
            out.problem(format!(
                "{}: timed offline replay differs from the untimed one",
                s.label
            ));
        }
        replay_ns += ns;
        replay_accesses += s.accesses.len() as u64;
        if let SessionModel::Mlp(c) = &m {
            actions += c.stats.accesses();
            np += c.stats.action_counts[np_action];
            reward += c.stats.total_reward;
        }
    }
    let replay_members: u64 = drain_sinks(&replay_sinks)
        .iter()
        .map(|(_, t)| t.total_ns())
        .sum();
    let core_self = replay_ns as f64 - replay_members as f64;
    if core_self < 0.0 {
        out.problem("core.self residual negative in the offline replay");
    }

    let traced_lat = traced.latencies_us();
    let overhead = median(&traced_lat) / median(&lat) - 1.0;
    let split = |label: &str| -> f64 {
        let r = fixed
            .runs
            .iter()
            .find(|r| r.label == label)
            .expect("both sessions ran");
        quantile(&r.latencies_us(), 0.99)
    };
    let mut measured = Vec::new();
    for (i, m) in MEMBERS.iter().enumerate() {
        let name = format!("prefetch.{m}.ns_per_access");
        measured.push(Metric::single(
            &name,
            "ns",
            members[i].1.access_ns as f64 / decided,
        ));
    }
    let events_ns: u64 = members.iter().map(|(_, t)| t.event_ns).sum();
    let events_sent: u64 = traced.runs.iter().map(|r| r.events_sent).sum();
    let snap = &fixed.snap;
    measured.extend([
        Metric::single(
            "prefetch.events_ns_per_access",
            "ns",
            events_ns as f64 / decided,
        ),
        Metric::single(
            "prefetch.events_per_access",
            "count",
            events_sent as f64 / decided,
        ),
        Metric::single(
            "core.self_ns_per_access",
            "ns",
            core_self / replay_accesses.max(1) as f64,
        ),
        Metric::single(
            "core.np_action_frac",
            "ratio",
            np as f64 / actions.max(1) as f64,
        ),
        Metric::single(
            "core.reward_per_kaccess",
            "1/kaccess",
            reward * 1000.0 / actions.max(1) as f64,
        ),
        Metric::median_of("serve.client_p50_us", "us", lat.clone(), true),
        Metric::single("serve.client_p99_us", "us", quantile(&lat, 0.99)),
        Metric::single("serve.server_p50_us", "us", snap.latency_us_p50 as f64),
        Metric::single("serve.server_p99_us", "us", snap.latency_us_p99 as f64),
        Metric::single("serve.mean_batch", "count", snap.mean_batch),
        Metric::single(
            "serve.pooled_sessions_per_batch",
            "count",
            snap.pool_sessions as f64 / snap.pool_batches.max(1) as f64,
        ),
        Metric::single("serve.busy", "count", snap.busy_rejections as f64),
        Metric::single("serve.timeouts", "count", snap.timeouts as f64),
        Metric::single("serve.events_dropped", "count", snap.events_dropped as f64),
        Metric::single("loadgen.lag_us_p99", "us", fixed.lag_p99_us()),
        Metric::single("loadgen.p99_us.plain", "us", split("plain")),
        Metric::single("loadgen.p99_us.events", "us", split("events")),
        Metric::single("tracing.overhead_frac", "ratio", overhead),
        Metric::single("mem.peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN)),
    ]);

    let wall_ns = traced.span_ns().max(1) as f64;
    println!(
        "tracing overhead: client p50 {:.1} us traced vs {:.1} us untraced ({:+.1}%)",
        median(&traced_lat),
        median(&lat),
        overhead * 100.0
    );
    println!("layer shares of the traced phase's wall time (server side):");
    for (name, t) in &members {
        println!(
            "  prefetch.{name:<20} {:6.2}%",
            t.access_ns as f64 / wall_ns * 100.0
        );
    }
    println!(
        "  prefetch.events{:<13} {:6.2}%",
        "",
        events_ns as f64 / wall_ns * 100.0
    );
    println!(
        "layer shares of the offline replay ({:.1} ms): members {:.1}%, core.self {:.1}%",
        replay_ns as f64 / 1e6,
        replay_members as f64 / replay_ns.max(1) as f64 * 100.0,
        core_self / replay_ns.max(1) as f64 * 100.0
    );
    match write_spans(seed, &[("fixed", &fixed), ("traced", &traced)]) {
        Ok(path) => println!("spans: {path}"),
        Err(e) => out.problem(format!("could not write spans: {e}")),
    }
    verify_digests(&mut out);
    out.metrics = assemble(PER_LAYER, measured);
    out
}
