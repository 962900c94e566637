//! Sessions, the shards that hold them, cross-session pooled decision
//! windows, and checkpoint-on-retire.
//!
//! Sessions are assigned to a shard by `session_id % n_shards`, and every
//! shard belongs to exactly one event-loop thread. A loop keeps the
//! connections routed to its shards in one slab (`Shards`, a
//! `Vec<Option<Conn>>` plus a free list) addressed by epoll token, and
//! each connection carries its session from Hello on. A shard is a
//! readiness queue of the tokens whose sessions have commands pending, so
//! a visit never scans idle sessions. After each `epoll_wait` batch the
//! loop drives its shards (`Shards::drive`) until every readiness queue is
//! empty, with its own visit buffers and batch scratch (`Driver`). Nothing
//! here is shared with another thread, so nothing is locked: one thread
//! reads a session's frames, queues its commands, runs its model and
//! writes every reply, in stream order, through the connection's only
//! stream.
//!
//! A visit drains one ready session, and — when that session is a frozen
//! MLP and cross-session batching is on — steals every other ready
//! session of its shard with the same `SessionKey` in the same pass. Each
//! frozen session's drained plan is exactly one decision window, its cache
//! events included: phase A (`window_prepare`) applies the events to the
//! session's own bank at their positions and stacks its state rows into
//! one matrix, then **one** batched forward runs over every row through
//! the heading session's inference net (under `quantize_frozen`, through
//! that session's int8 copy, built the first time it heads a window and
//! kept with its session), then phase C (`window_commit`) runs per
//! session. Because frozen same-key sessions have bit-identical
//! never-changing weights and the batch kernels preserve per-row
//! accumulation order, pooled decisions are bit-identical to serving each
//! session alone. A session that is not frozen is visited alone and
//! replays its plan segment by segment, each event applied between the
//! runs it arrived between.
//!
//! On a `Bye` the visit flushes the queue, answers `Goodbye`, optionally
//! checkpoints the model (warm restart for the next same-key Hello), and
//! frees the connection: its slot, its token and its fd. Visits run on
//! the epoll thread, so this file is in the `blocking-in-event-loop`
//! scope: its one blocking call is `send`'s stall on a client that stops
//! reading, bounded (~5 s, then `TimedOut`) but holding the event loop
//! while it lasts. It is also on the decision hot path
//! (`panic-in-hot-path` scope): no panics, no literal indexing.

use crate::batcher::{drain_session, DrainPlan, SessionCmd};
use crate::event_loop::FrameBuf;
use crate::protocol::{encode_decision_into, EventKind, Reply};
use crate::session::{cache_event, save_checkpoint_file, SessionModel};
use crate::telemetry::Telemetry;
use resemble_nn::{BatchScratch, Matrix, QuantizedMlp};
use resemble_prefetch::CacheEvent;
use resemble_trace::MemAccess;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Consecutive `WouldBlock` stalls (at ~200µs each) tolerated on one
/// `send` before the client is declared unresponsive (~5 s).
const MAX_SEND_STALLS: u32 = 25_000;

/// Row cap of one cross-session pooled window (`max_batch` when larger).
const POOL_ROWS: usize = 4096;

/// How a session's model was constructed: the Hello triple. Frozen
/// sessions with equal keys have bit-identical, never-changing inference
/// weights, which is what makes cross-session batching exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKey {
    /// Model registry name.
    pub model: String,
    /// Model seed.
    pub seed: u64,
    /// Fast (laptop-scale) configuration flag.
    pub fast: bool,
}

/// Write a batch of pre-encoded frames to a connection's nonblocking
/// stream: one logical write per reply or per session visit, so reply
/// syscalls amortize across a whole visit. Short writes and `WouldBlock`
/// are retried. Blocks (bounded) on a client that has stopped reading,
/// and with it the calling event loop; a client gone longer than ~5 s of
/// backpressure gets `TimedOut` and its session drains without it.
pub(crate) fn send(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    let mut sent = 0usize;
    let mut stalls = 0u32;
    while sent < bytes.len() {
        match stream.write(bytes.get(sent..).unwrap_or(&[])) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection write returned 0",
                ))
            }
            Ok(n) => {
                sent += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stalls += 1;
                if stalls > MAX_SEND_STALLS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "client not reading replies",
                    ));
                }
                // lint:allow(blocking-in-event-loop): at most MAX_SEND_STALLS sleeps (~5 s), then TimedOut
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Outcome of enqueueing a command onto a session's bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueue {
    /// Queued; the owning event loop drives the shard after its batch.
    Accepted,
    /// Queue full: the request must be answered with `Busy`.
    Busy,
    /// Queue full: the event was dropped (events carry no reply).
    Dropped,
}

/// Visit tuning, shared by every event-loop thread of a server.
#[derive(Debug, Clone)]
pub(crate) struct VisitCfg {
    /// Maximum decision requests drained per session per visit.
    pub max_batch: usize,
    /// Batch decision windows across same-key frozen sessions.
    pub cross_session: bool,
    /// Where MLP sessions checkpoint on retire and warm-start at Hello
    /// (`None` disables both).
    pub checkpoint_dir: Option<PathBuf>,
    /// Run every frozen window through the int8 quantized datapath
    /// (`--quantize-frozen`). Off by default: quantized decisions are
    /// deterministic but not bit-identical to f32.
    pub quantize_frozen: bool,
}

impl Default for VisitCfg {
    fn default() -> Self {
        Self {
            max_batch: 64,
            cross_session: true,
            checkpoint_dir: None,
            quantize_frozen: false,
        }
    }
}

/// A session between visits.
struct Session {
    /// `None` while a visit has the model checked out.
    model: Option<SessionModel>,
    queue: VecDeque<SessionCmd>,
    decisions: u64,
    /// A frozen MLP session (`SessionModel::pool_eligible`).
    frozen: bool,
    /// The int8 copy of a frozen session's inference net under
    /// `quantize_frozen`, built the first time the session heads a window.
    qnet: Option<QuantizedMlp>,
    key: SessionKey,
}

/// A client connection, owned by one event loop from accept until its
/// session retires: the connection's only stream, which the loop reads
/// and every reply is written to, its frame-reassembly buffer, and after
/// Hello its session.
pub(crate) struct Conn {
    /// The connection's socket (nonblocking once registered).
    pub(crate) stream: TcpStream,
    /// Bytes read but not yet parsed into frames.
    pub(crate) fbuf: FrameBuf,
    /// The connection's number, which is its session id.
    pub(crate) id: u64,
    /// Index of its shard among the owning loop's shards.
    shard: usize,
    session: Option<Session>,
    /// Deregistered from epoll (EOF, a read error, `Bye` or the drain),
    /// with its session's final `Bye` queued.
    pub(crate) closed: bool,
}

impl Conn {
    /// A connection numbered `id` on the loop's shard `shard`.
    pub(crate) fn new(stream: TcpStream, id: u64, shard: usize) -> Conn {
        Conn {
            stream,
            fbuf: FrameBuf::new(),
            id,
            shard,
            session: None,
            closed: false,
        }
    }

    /// Bind the session a Hello built.
    pub(crate) fn open_session(&mut self, model: SessionModel, key: SessionKey) {
        self.session = Some(Session {
            frozen: model.pool_eligible(),
            model: Some(model),
            queue: VecDeque::new(),
            decisions: 0,
            qnet: None,
            key,
        });
    }

    /// `true` once a Hello bound a session.
    pub(crate) fn has_session(&self) -> bool {
        self.session.is_some()
    }
}

/// The shards one event loop owns: every connection routed to them, in a
/// slab addressed by epoll token and recycled through a free list (so it
/// stays bounded by peak concurrent connections), and one readiness queue
/// per shard.
pub(crate) struct Shards {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per shard, the tokens with pending commands, in arrival order.
    /// Outside a visit, a token is queued here exactly when its session's
    /// queue is non-empty: only the owning loop enqueues, and never during
    /// a visit.
    ready: Vec<VecDeque<usize>>,
}

/// A session checked out of its connection for one visit.
struct VisitEntry {
    tok: usize,
    id: u64,
    model: SessionModel,
    qnet: Option<QuantizedMlp>,
    prior: u64,
    plan: DrainPlan,
    /// A frozen MLP session: its plan is one decision window through the
    /// visit's shared forward.
    frozen: bool,
    /// First row of this entry's window inside the stacked state matrix.
    row0: usize,
    served: u64,
    /// Set when retiring with checkpoints enabled.
    ckpt_key: Option<SessionKey>,
}

/// Take the session's model on `tok` and drain its queue into a fresh
/// plan, producing the visit entry. `None` if `tok` carries no session.
fn checkout(
    conns: &mut [Option<Conn>],
    tok: usize,
    now: Instant,
    cfg: &VisitCfg,
    spare: &mut Vec<DrainPlan>,
) -> Option<VisitEntry> {
    let conn = conns.get_mut(tok).and_then(Option::as_mut)?;
    let s = conn.session.as_mut()?;
    let model = s.model.take()?;
    let mut plan = spare.pop().unwrap_or_default();
    drain_session(&mut s.queue, cfg.max_batch.max(1), now, &mut plan);
    let ckpt_key = (plan.saw_bye && cfg.checkpoint_dir.is_some()).then(|| s.key.clone());
    Some(VisitEntry {
        tok,
        id: conn.id,
        model,
        qnet: s.qnet.take(),
        prior: s.decisions,
        plan,
        frozen: s.frozen,
        row0: 0,
        served: 0,
        ckpt_key,
    })
}

impl Shards {
    /// `count` empty shards.
    pub(crate) fn new(count: usize) -> Shards {
        Shards {
            conns: Vec::new(),
            free: Vec::new(),
            ready: (0..count.max(1)).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Add a connection, returning its token.
    pub(crate) fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(tok) => {
                if let Some(slot) = self.conns.get_mut(tok) {
                    *slot = Some(conn);
                }
                tok
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    /// Take a connection out, recycling its token; dropping it closes its
    /// fd.
    pub(crate) fn remove(&mut self, tok: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(tok).and_then(Option::take)?;
        self.free.push(tok);
        Some(conn)
    }

    /// The connection on `tok`.
    pub(crate) fn conn(&self, tok: usize) -> Option<&Conn> {
        self.conns.get(tok).and_then(Option::as_ref)
    }

    /// The connection on `tok`, mutably.
    pub(crate) fn conn_mut(&mut self, tok: usize) -> Option<&mut Conn> {
        self.conns.get_mut(tok).and_then(Option::as_mut)
    }

    /// One past the highest token in use.
    pub(crate) fn tokens(&self) -> usize {
        self.conns.len()
    }

    /// Enqueue a command for the session on `tok`, enforcing the bounded
    /// queue: at `cap` queued commands, accesses bounce with
    /// [`Enqueue::Busy`] and events are dropped. `Bye` always lands even
    /// on a full queue — a bounced Bye would leak the connection (and its
    /// model) forever. `None` when `tok` carries no session.
    pub(crate) fn enqueue(&mut self, tok: usize, cmd: SessionCmd, cap: usize) -> Option<Enqueue> {
        let conn = self.conns.get_mut(tok).and_then(Option::as_mut)?;
        let s = conn.session.as_mut()?;
        let full = s.queue.len() >= cap.max(1);
        Some(match cmd {
            SessionCmd::Access(_) if full => Enqueue::Busy,
            SessionCmd::Event { .. } if full => Enqueue::Dropped,
            cmd => {
                if s.queue.is_empty() {
                    if let Some(ready) = self.ready.get_mut(conn.shard) {
                        ready.push_back(tok);
                    }
                }
                s.queue.push_back(cmd);
                Enqueue::Accepted
            }
        })
    }

    /// Steal every other ready frozen session of `shard` with `key` into
    /// the visit (up to [`POOL_ROWS`] pooled rows), preserving the
    /// readiness order of the sessions left behind.
    fn gather_pooled(&mut self, shard: usize, key: &SessionKey, now: Instant, d: &mut Driver) {
        let Shards { conns, ready, .. } = self;
        let Some(ready) = ready.get_mut(shard) else {
            return;
        };
        let cap_rows = POOL_ROWS.max(d.cfg.max_batch.max(1));
        let mut rows: usize = d.entries.iter().map(|e| e.plan.run.len()).sum();
        d.keep.clear();
        while let Some(tok) = ready.pop_front() {
            let steal = rows < cap_rows
                && conns
                    .get(tok)
                    .and_then(Option::as_ref)
                    .and_then(|c| c.session.as_ref())
                    .is_some_and(|s| s.frozen && s.key == *key);
            if !steal {
                d.keep.push_back(tok);
                continue;
            }
            if let Some(e) = checkout(conns, tok, now, &d.cfg, &mut d.spare_plans) {
                rows += e.plan.run.len();
                d.entries.push(e);
            }
        }
        std::mem::swap(ready, &mut d.keep);
    }

    /// Run visits on every shard until each readiness queue is empty.
    pub(crate) fn drive(&mut self, d: &mut Driver, telemetry: &Telemetry) {
        for shard in 0..self.ready.len() {
            loop {
                let now = Instant::now();
                let Some(first) = self.ready.get_mut(shard).and_then(VecDeque::pop_front) else {
                    break;
                };
                let Some(entry) = checkout(&mut self.conns, first, now, &d.cfg, &mut d.spare_plans)
                else {
                    continue;
                };
                d.entries.clear();
                let pool_key = (d.cfg.cross_session && entry.frozen)
                    .then(|| {
                        self.conn(first)
                            .and_then(|c| c.session.as_ref())
                            .map(|s| s.key.clone())
                    })
                    .flatten();
                d.entries.push(entry);
                if let Some(key) = &pool_key {
                    self.gather_pooled(shard, key, now, d);
                }

                d.visit(&self.conns, telemetry);

                // Return models, or retire on Bye, and recycle plans.
                for mut e in d.entries.drain(..) {
                    let plan = std::mem::take(&mut e.plan);
                    if plan.saw_bye {
                        // Goodbye is written: the connection, its token and
                        // its fd go with the session.
                        self.remove(e.tok);
                        telemetry.session_closed();
                        telemetry.conn_closed();
                    } else if let Some(s) = self.conn_mut(e.tok).and_then(|c| c.session.as_mut()) {
                        s.model = Some(e.model);
                        s.qnet = e.qnet;
                        s.decisions = e.prior + e.served;
                        if !s.queue.is_empty() {
                            if let Some(ready) = self.ready.get_mut(shard) {
                                ready.push_back(e.tok);
                            }
                        }
                    }
                    d.spare_plans.push(plan);
                }
            }
        }
    }
}

/// One event-loop thread's visit state: the batch scratch of its shared
/// forwards and the buffers every visit reuses.
pub(crate) struct Driver {
    cfg: VisitCfg,
    entries: Vec<VisitEntry>,
    spare_plans: Vec<DrainPlan>,
    keep: VecDeque<usize>,
    acc_buf: Vec<(MemAccess, bool)>,
    ev_buf: Vec<(usize, CacheEvent)>,
    counts: Vec<usize>,
    out_buf: Vec<u8>,
    states: Matrix,
    scratch: BatchScratch,
    q: Matrix,
}

impl Driver {
    /// Empty buffers for `cfg`.
    pub(crate) fn new(cfg: VisitCfg) -> Driver {
        Driver {
            cfg,
            entries: Vec::new(),
            spare_plans: Vec::new(),
            keep: VecDeque::new(),
            acc_buf: Vec::new(),
            ev_buf: Vec::new(),
            counts: Vec::new(),
            out_buf: Vec::new(),
            states: Matrix::default(),
            scratch: BatchScratch::default(),
            q: Matrix::default(),
        }
    }

    /// Execute the checked-out `entries` — every frozen one (all of them,
    /// or none) as one decision window with a single shared forward, a
    /// lone unfrozen one segment by segment — and write each session's
    /// replies to its connection in one socket write.
    fn visit(&mut self, conns: &[Option<Conn>], telemetry: &Telemetry) {
        let Driver {
            cfg,
            entries,
            acc_buf,
            ev_buf,
            counts,
            out_buf,
            states,
            scratch,
            q,
            ..
        } = self;
        // Phase A: each frozen session prepares its whole plan, events
        // included, into one stacked state matrix.
        let rows: usize = entries
            .iter()
            .filter(|e| e.frozen)
            .map(|e| e.plan.run.len())
            .sum();
        let sessions = entries.iter().filter(|e| e.frozen).count();
        let dim = entries
            .iter()
            .find(|e| e.frozen)
            .and_then(|e| e.model.inference_net())
            .map_or(0, |n| n.input_dim());
        states.resize(rows, dim);
        let mut row = 0usize;
        for e in entries.iter_mut().filter(|e| e.frozen) {
            e.row0 = row;
            acc_buf.clear();
            acc_buf.extend(e.plan.run.iter().map(|r| (r.access, r.hit)));
            ev_buf.clear();
            ev_buf.extend(
                e.plan
                    .events
                    .iter()
                    .map(|&(at, kind, addr)| (at, cache_event(kind, addr))),
            );
            if let Some(st) = e.model.window_prepare(acc_buf, ev_buf) {
                for k in 0..st.rows() {
                    states.row_mut(row + k).copy_from_slice(st.row(k));
                }
            }
            row += e.plan.run.len();
        }
        // Phase B: one forward over every frozen row through the heading
        // session's net, or its int8 copy. Same-key frozen weights are
        // bit-identical, so which session heads cannot change a row.
        let mut q_rows: Option<&Matrix> = None;
        if let Some(head) = entries.first_mut().filter(|e| e.frozen && rows > 0) {
            let VisitEntry { model, qnet, .. } = head;
            if let Some(net) = model.inference_net() {
                telemetry.batch(rows);
                if sessions >= 2 {
                    telemetry.pool_batch(sessions);
                }
                q_rows = Some(if cfg.quantize_frozen {
                    telemetry.quantized_window(sessions);
                    qnet.get_or_insert_with(|| QuantizedMlp::from_mlp(net))
                        .forward_into(states, q);
                    q
                } else {
                    net.forward_batch(states, scratch)
                });
            }
        }

        // Phase C (or the unfrozen replay), replies, and one socket write
        // per session.
        for e in entries.iter_mut() {
            let VisitEntry {
                tok,
                id,
                model,
                plan,
                frozen,
                row0,
                prior,
                served,
                ckpt_key,
                ..
            } = e;
            out_buf.clear();
            counts.clear();
            acc_buf.clear();
            acc_buf.extend(plan.run.iter().map(|r| (r.access, r.hit)));
            let reqs = &plan.run;
            let mut emit = |k: usize, issued: &[u64]| {
                if let Some(r) = reqs.get(k) {
                    encode_decision_into(out_buf, r.req_id, issued);
                }
                counts.push(issued.len());
            };
            if *frozen {
                if let Some(q) = q_rows {
                    model.window_commit(acc_buf, q, *row0, &mut emit);
                }
            } else {
                replay(model, acc_buf, &plan.events, &mut emit, telemetry);
            }
            for _ in &plan.events {
                telemetry.event();
            }
            let done = Instant::now();
            for (r, c) in reqs.iter().zip(counts.iter()) {
                let us = done.saturating_duration_since(r.enqueued).as_micros();
                telemetry.decision(u64::try_from(us).unwrap_or(u64::MAX), *c);
            }
            let n_served = counts.len() as u64;
            for r in &plan.timed_out {
                Reply::TimedOut { req_id: r.req_id }.encode_into(out_buf);
                telemetry.timeout();
            }
            if plan.saw_bye {
                Reply::Goodbye {
                    decisions: *prior + n_served,
                }
                .encode_into(out_buf);
            }
            // Checkpoint a retiring session *before* its Goodbye is
            // visible: a client that reconnects the instant it sees the
            // reply must find the file.
            if let (Some(k), Some(dir)) = (ckpt_key.as_ref(), cfg.checkpoint_dir.as_deref()) {
                if save_checkpoint_file(dir, &k.model, k.seed, k.fast, *id, model) {
                    telemetry.checkpoint_saved();
                }
            }
            // One socket write for the session's whole visit; a vanished
            // client is the client's problem, the session still drains.
            if let Some(conn) = conns.get(*tok).and_then(Option::as_ref) {
                let _ = send(&conn.stream, out_buf);
            }
            *served = n_served;
        }
    }
}

/// Serve an unfrozen session's plan as consecutive windows: each event
/// through `on_event` at its position, each event-free segment of `run`
/// through one `on_run`.
fn replay(
    model: &mut SessionModel,
    run: &[(MemAccess, bool)],
    events: &[(usize, EventKind, u64)],
    emit: &mut impl FnMut(usize, &[u64]),
    telemetry: &Telemetry,
) {
    let mut events = events.iter().peekable();
    let mut start = 0usize;
    loop {
        while let Some(&(_, kind, addr)) = events.next_if(|e| e.0 <= start) {
            model.on_event(kind, addr);
        }
        if start >= run.len() {
            return;
        }
        // Every event left lies past `start`, so the segment is nonempty.
        let end = events.peek().map_or(run.len(), |e| e.0.min(run.len()));
        let segment = run.get(start..end).unwrap_or(&[]);
        model.on_run(segment, |k, issued| emit(start + k, issued));
        telemetry.batch(segment.len());
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::AccessReq;
    use crate::protocol::read_frame;
    use crate::session::offline_decisions;
    use std::net::{TcpListener, TcpStream};

    /// Open a session of `model` on a loopback connection numbered `id`
    /// in shard 0, returning its token and the client's end.
    fn open(shards: &mut Shards, id: u64, model: &str, seed: u64) -> (usize, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = l.accept().expect("accept");
        let mut conn = Conn::new(server_side, id, 0);
        let m = SessionModel::build(model, seed, true).expect("builds");
        conn.open_session(m, key(model, seed));
        (shards.insert(conn), client)
    }

    fn access(id: u32) -> SessionCmd {
        SessionCmd::Access(AccessReq {
            req_id: id,
            access: MemAccess::load(u64::from(id), 0x400, 0x2000 + u64::from(id) * 64),
            hit: false,
            enqueued: Instant::now(),
            deadline: None,
        })
    }

    /// Read a client's replies up to its Goodbye: the decision per
    /// request id, in arrival order.
    fn decisions_until_goodbye(client: &mut TcpStream) -> Vec<(u32, Vec<u64>)> {
        let mut payload = Vec::new();
        let mut got = Vec::new();
        while let Some(ty) = read_frame(client, &mut payload).expect("reply frame") {
            match Reply::decode(ty, &payload).expect("valid reply") {
                Reply::Decision { req_id, prefetches } => got.push((req_id, prefetches)),
                Reply::Goodbye { .. } => break,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        got
    }

    fn key(model: &str, seed: u64) -> SessionKey {
        SessionKey {
            model: model.to_string(),
            seed,
            fast: true,
        }
    }

    #[test]
    fn bounded_queue_bounces_accesses_and_drops_events() {
        let mut shards = Shards::new(1);
        let (tok, _client) = open(&mut shards, 9, "stride", 1);
        for i in 0..4 {
            assert_eq!(shards.enqueue(tok, access(i), 4), Some(Enqueue::Accepted));
        }
        assert_eq!(shards.enqueue(tok, access(99), 4), Some(Enqueue::Busy));
        assert_eq!(
            shards.enqueue(
                tok,
                SessionCmd::Event {
                    kind: crate::protocol::EventKind::DemandFill,
                    addr: 0x40
                },
                4
            ),
            Some(Enqueue::Dropped)
        );
        // Bye is always accepted so the session can terminate.
        assert_eq!(
            shards.enqueue(tok, SessionCmd::Bye, 4),
            Some(Enqueue::Accepted)
        );
        // A connection before its Hello, and an unknown token, carry no
        // session to queue to.
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _pre_hello = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = l.accept().expect("accept");
        let bare = shards.insert(Conn::new(server_side, 10, 0));
        assert_eq!(shards.enqueue(bare, access(0), 4), None);
        assert_eq!(shards.enqueue(bare + 17, access(0), 4), None);
    }

    #[test]
    fn drive_returns_once_the_ready_queue_is_empty() {
        let mut shards = Shards::new(1);
        let (tok, client) = open(&mut shards, 1, "stride", 2);
        for i in 0..10 {
            assert_eq!(shards.enqueue(tok, access(i), 64), Some(Enqueue::Accepted));
        }
        assert_eq!(
            shards.enqueue(tok, SessionCmd::Bye, 64),
            Some(Enqueue::Accepted)
        );
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            max_batch: 4,
            ..VisitCfg::default()
        };
        // Runs on this thread: must terminate once the queue is flushed.
        shards.drive(&mut Driver::new(cfg), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 10);
        assert_eq!(s.sessions_closed, 1);
        assert!(s.batches >= 3, "max_batch=4 over 10 requests");
        drop(client);
    }

    #[test]
    fn bye_bypasses_full_queue_and_the_visit_retires_the_session() {
        // Regression: fill a session's queue to capacity, lose the
        // client, then deliver the final Bye. It must land despite the
        // full queue (a bounced Bye would leak the connection forever), a
        // visit must retire the session and free its connection, and the
        // token must be recycled.
        let mut shards = Shards::new(1);
        let (tok, client) = open(&mut shards, 5, "stride", 3);
        for i in 0..4 {
            assert_eq!(shards.enqueue(tok, access(i), 4), Some(Enqueue::Accepted));
        }
        assert_eq!(shards.enqueue(tok, access(99), 4), Some(Enqueue::Busy));
        drop(client); // replies now fail to send — the session still drains
        assert_eq!(
            shards.enqueue(tok, SessionCmd::Bye, 4),
            Some(Enqueue::Accepted)
        );
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            max_batch: 2,
            ..VisitCfg::default()
        };
        shards.drive(&mut Driver::new(cfg), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.connections_closed, 1);
        assert_eq!(s.decisions, 4);
        assert!(shards.conn(tok).is_none(), "the connection is freed");
        // The freed token is reused by the next connection.
        let (tok2, _client2) = open(&mut shards, 6, "stride", 4);
        assert_eq!(tok2, tok, "retired token is recycled via the free list");
    }

    #[test]
    fn same_key_frozen_sessions_share_pooled_windows() {
        let mut shards = Shards::new(1);
        let (tok_a, client_a) = open(&mut shards, 1, "resemble_frozen", 7);
        let (tok_b, client_b) = open(&mut shards, 2, "resemble_frozen", 7);
        for i in 0..12 {
            assert_eq!(
                shards.enqueue(tok_a, access(i), 64),
                Some(Enqueue::Accepted)
            );
            assert_eq!(
                shards.enqueue(tok_b, access(i + 100), 64),
                Some(Enqueue::Accepted)
            );
        }
        for tok in [tok_a, tok_b] {
            assert_eq!(
                shards.enqueue(tok, SessionCmd::Bye, 64),
                Some(Enqueue::Accepted)
            );
        }
        let telemetry = Telemetry::new();
        shards.drive(&mut Driver::new(VisitCfg::default()), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 24);
        assert_eq!(s.sessions_closed, 2);
        assert!(
            s.pool_batches >= 1,
            "both sessions were ready: at least one cross-session window"
        );
        assert!(s.pool_sessions >= 2);
        drop(client_a);
        drop(client_b);
    }

    #[test]
    fn quantized_frozen_windows_serve_and_count() {
        let mut shards = Shards::new(1);
        let (tok_a, client_a) = open(&mut shards, 1, "resemble_frozen", 13);
        let (tok_b, client_b) = open(&mut shards, 2, "resemble_frozen", 13);
        for i in 0..12 {
            assert_eq!(
                shards.enqueue(tok_a, access(i), 64),
                Some(Enqueue::Accepted)
            );
            assert_eq!(
                shards.enqueue(tok_b, access(i + 100), 64),
                Some(Enqueue::Accepted)
            );
        }
        for tok in [tok_a, tok_b] {
            assert_eq!(
                shards.enqueue(tok, SessionCmd::Bye, 64),
                Some(Enqueue::Accepted)
            );
        }
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            quantize_frozen: true,
            ..VisitCfg::default()
        };
        shards.drive(&mut Driver::new(cfg), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 24, "every request is answered via int8");
        assert_eq!(s.sessions_closed, 2);
        assert!(
            s.quantized_windows >= 1,
            "quantized pooled path must have run"
        );
        assert!(s.quantized_sessions >= 2);
        drop(client_a);
        drop(client_b);
    }

    #[test]
    fn event_bearing_frozen_session_pools_with_a_plain_one() {
        // A frozen session whose plan carries cache events shares one
        // pooled window with a plain same-key session, and both still
        // serve exactly the offline decisions of their own streams.
        let mut shards = Shards::new(1);
        let (tok_a, mut client_a) = open(&mut shards, 1, "resemble_frozen", 17);
        let (tok_b, mut client_b) = open(&mut shards, 2, "resemble_frozen", 17);
        let build = || SessionModel::build("resemble_frozen", 17, true).expect("builds");
        let fill = |i: u32| SessionCmd::Event {
            kind: EventKind::DemandFill,
            addr: 0x2000 + u64::from(i) * 64 - 128,
        };
        for i in 0..12 {
            if i % 2 == 1 {
                assert_eq!(shards.enqueue(tok_a, fill(i), 64), Some(Enqueue::Accepted));
            }
            assert_eq!(
                shards.enqueue(tok_a, access(i), 64),
                Some(Enqueue::Accepted)
            );
            assert_eq!(
                shards.enqueue(tok_b, access(i + 100), 64),
                Some(Enqueue::Accepted)
            );
        }
        for tok in [tok_a, tok_b] {
            assert_eq!(
                shards.enqueue(tok, SessionCmd::Bye, 64),
                Some(Enqueue::Accepted)
            );
        }
        let telemetry = Telemetry::new();
        shards.drive(&mut Driver::new(VisitCfg::default()), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 24);
        assert_eq!(s.events, 6);
        assert!(s.pool_batches >= 1, "the event-bearing session pooled");

        let trace = |base: u32| -> Vec<(MemAccess, bool)> {
            (base..base + 12)
                .filter_map(|i| match access(i) {
                    SessionCmd::Access(r) => Some((r.access, r.hit)),
                    _ => None,
                })
                .collect()
        };
        // Offline: session A's events between the accesses they precede.
        let (ta, tb) = (trace(0), trace(100));
        let mut offline_a = build();
        let mut expect_a = Vec::new();
        for (i, step) in ta.iter().enumerate() {
            if let SessionCmd::Event { kind, addr } = fill(i as u32) {
                if i % 2 == 1 {
                    offline_a.on_event(kind, addr);
                }
            }
            expect_a.extend(offline_decisions(
                &mut offline_a,
                std::slice::from_ref(step),
            ));
        }
        let expect_b = offline_decisions(&mut build(), &tb);
        let served = |got: Vec<(u32, Vec<u64>)>, base: u32| -> Vec<Vec<u64>> {
            got.into_iter()
                .enumerate()
                .map(|(k, (id, d))| {
                    assert_eq!(id, base + k as u32, "replies in stream order");
                    d
                })
                .collect()
        };
        assert_eq!(served(decisions_until_goodbye(&mut client_a), 0), expect_a);
        assert_eq!(
            served(decisions_until_goodbye(&mut client_b), 100),
            expect_b
        );
    }
}
