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
//! A visit is the list of tokens it serves, and it works on each session
//! where it lives, in its connection's slot: it drains the session's
//! queue into the session's own plan, runs the plan, and writes the
//! replies through that connection's stream. It starts from one ready
//! session and — when that session is a frozen MLP and cross-session
//! batching is on — drains every other ready session of its shard with
//! the same `SessionKey` in the same pass. Each frozen session's drained
//! plan is exactly one decision window, its cache events included: phase
//! A (`window_prepare`) applies the events to the session's own bank at
//! their positions and stacks its state rows into one matrix, then
//! **one** batched forward runs over every row through the heading
//! session's inference net (under `quantize_frozen`, through that
//! session's int8 copy, built the first time it heads a window and kept
//! with its session), then phase C (`window_commit`) runs per session.
//! Because frozen same-key sessions have bit-identical never-changing
//! weights and the batch kernels preserve per-row accumulation order,
//! pooled decisions are bit-identical to serving each session alone. A
//! session that is not frozen is visited alone and serves its plan in one
//! call, each event applied just before the access it precedes.
//!
//! On a `Bye` the visit flushes the queue, optionally checkpoints the
//! model (warm restart for the next same-key Hello), answers `Goodbye`,
//! and frees the connection: its slot, its token and its fd. Visits run on
//! the epoll thread, so this file is in the `blocking-in-event-loop`
//! scope: its one blocking call is `send`'s stall on a client that stops
//! reading, bounded (~5 s, then `TimedOut`) but holding the event loop
//! while it lasts. It is also on the decision hot path
//! (`panic-in-hot-path` scope): no panics, no literal indexing.

use crate::batcher::{drain_session, DrainPlan, SessionCmd};
use crate::event_loop::FrameBuf;
use crate::protocol::{encode_decision_into, Reply};
use crate::session::{save_checkpoint_file, SessionModel};
use crate::telemetry::Telemetry;
use resemble_nn::{BatchScratch, Matrix, QuantizedMlp};
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

/// A session, in its connection's slab slot from Hello until it retires.
struct Session {
    model: SessionModel,
    queue: VecDeque<SessionCmd>,
    /// What the last visit drained, reused by every visit of the session.
    plan: DrainPlan,
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
            model,
            queue: VecDeque::new(),
            plan: DrainPlan::default(),
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

/// The session on `tok`, if any.
fn session(conns: &[Option<Conn>], tok: usize) -> Option<&Session> {
    conns.get(tok)?.as_ref()?.session.as_ref()
}

/// The session on `tok`, mutably.
fn session_mut(conns: &mut [Option<Conn>], tok: usize) -> Option<&mut Session> {
    conns.get_mut(tok)?.as_mut()?.session.as_mut()
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
            SessionCmd::Event(_) if full => Enqueue::Dropped,
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

    /// Drain every other ready frozen session of `shard` with the same key
    /// as `head`'s into the visit, while the visit holds fewer than
    /// [`POOL_ROWS`] rows (`max_batch` when larger), preserving the
    /// readiness order of the sessions left behind.
    fn gather_pooled(&mut self, shard: usize, head: usize, now: Instant, d: &mut Driver) {
        let Shards { conns, ready, .. } = self;
        let Some(ready) = ready.get_mut(shard) else {
            return;
        };
        let max_batch = d.cfg.max_batch.max(1);
        let cap_rows = POOL_ROWS.max(max_batch);
        let mut rows = session(conns, head).map_or(0, |s| s.plan.run.len());
        d.keep.clear();
        while let Some(tok) = ready.pop_front() {
            let steal = rows < cap_rows
                && session(conns, tok)
                    .zip(session(conns, head))
                    .is_some_and(|(s, h)| s.frozen && s.key == h.key);
            if !steal {
                d.keep.push_back(tok);
                continue;
            }
            if let Some(s) = session_mut(conns, tok) {
                drain_session(&mut s.queue, max_batch, now, &mut s.plan);
                rows += s.plan.run.len();
                d.toks.push(tok);
            }
        }
        std::mem::swap(ready, &mut d.keep);
    }

    /// Run visits on every shard until each readiness queue is empty.
    pub(crate) fn drive(&mut self, d: &mut Driver, telemetry: &Telemetry) {
        for shard in 0..self.ready.len() {
            while let Some(head) = self.ready.get_mut(shard).and_then(VecDeque::pop_front) {
                let now = Instant::now();
                let Some(s) = session_mut(&mut self.conns, head) else {
                    continue;
                };
                drain_session(&mut s.queue, d.cfg.max_batch.max(1), now, &mut s.plan);
                let pool = d.cfg.cross_session && s.frozen;
                d.toks.clear();
                d.toks.push(head);
                if pool {
                    self.gather_pooled(shard, head, now, d);
                }
                self.visit(shard, d, telemetry);
            }
        }
    }

    /// Serve the drained sessions on `d.toks` where they live — every
    /// frozen one (all of them, or none) as one decision window with a
    /// single shared forward, a lone unfrozen one in one call — and write
    /// each session's replies to its connection in one socket write. A
    /// session that said `Bye` retires here, freeing its connection; one
    /// with commands left goes back on its shard's readiness queue.
    fn visit(&mut self, shard: usize, d: &mut Driver, telemetry: &Telemetry) {
        let Driver {
            cfg,
            toks,
            counts,
            out_buf,
            states,
            scratch,
            q,
            ..
        } = d;
        // Phase A: each frozen session prepares its whole plan, events
        // included, and its state rows stack into one matrix.
        let (mut rows, mut sessions) = (0usize, 0usize);
        for &tok in toks.iter() {
            let Some(Session {
                model: SessionModel::Mlp(m),
                plan,
                frozen: true,
                ..
            }) = session_mut(&mut self.conns, tok)
            else {
                continue;
            };
            let st = m.window_prepare(&plan.run, &plan.events);
            states.resize(rows + st.rows(), st.cols());
            for k in 0..st.rows() {
                states.row_mut(rows + k).copy_from_slice(st.row(k));
            }
            rows += st.rows();
            sessions += 1;
        }
        // Phase B: one forward over every frozen row through the heading
        // session's net, or its int8 copy. Same-key frozen weights are
        // bit-identical, so which session heads cannot change a row.
        let mut q_rows: Option<&Matrix> = None;
        let head = toks
            .first()
            .and_then(|&tok| session_mut(&mut self.conns, tok));
        if let Some(Session {
            model: SessionModel::Mlp(m),
            frozen: true,
            qnet,
            ..
        }) = head.filter(|_| rows > 0)
        {
            let net = m.agent().inference_net();
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

        // Phase C (or the unfrozen plan), replies, and one socket write
        // per session.
        let mut row0 = 0usize;
        for &tok in toks.iter() {
            let Some(Conn {
                stream,
                id,
                session: Some(s),
                ..
            }) = self.conns.get_mut(tok).and_then(Option::as_mut)
            else {
                continue;
            };
            out_buf.clear();
            counts.clear();
            let replies = &s.plan.replies;
            let mut emit = |k: usize, issued: &[u64]| {
                if let Some(&(req_id, _)) = replies.get(k) {
                    encode_decision_into(out_buf, req_id, issued);
                }
                counts.push(issued.len());
            };
            if !s.frozen {
                s.model.on_plan(&s.plan.run, &s.plan.events, &mut emit);
                if !s.plan.run.is_empty() {
                    telemetry.batch(s.plan.run.len());
                }
            } else if let (SessionModel::Mlp(m), Some(q)) = (&mut s.model, q_rows) {
                m.window_commit(&s.plan.run, q, row0, &mut emit);
                row0 += s.plan.run.len();
            }
            for _ in &s.plan.events {
                telemetry.event();
            }
            let done = Instant::now();
            for (&(_, enqueued), c) in s.plan.replies.iter().zip(counts.iter()) {
                let us = done.saturating_duration_since(enqueued).as_micros();
                telemetry.decision(u64::try_from(us).unwrap_or(u64::MAX), *c);
            }
            s.decisions += counts.len() as u64;
            for r in &s.plan.timed_out {
                Reply::TimedOut { req_id: r.req_id }.encode_into(out_buf);
                telemetry.timeout();
            }
            let bye = s.plan.saw_bye;
            if bye {
                Reply::Goodbye {
                    decisions: s.decisions,
                }
                .encode_into(out_buf);
                // Checkpoint a retiring session *before* its Goodbye is
                // visible: a client that reconnects the instant it sees
                // the reply must find the file.
                if let Some(dir) = cfg.checkpoint_dir.as_deref() {
                    let k = &s.key;
                    if save_checkpoint_file(dir, &k.model, k.seed, k.fast, *id, &s.model) {
                        telemetry.checkpoint_saved();
                    }
                }
            }
            let pending = !s.queue.is_empty();
            // One socket write for the session's whole visit; a vanished
            // client is the client's problem, the session still drains.
            let _ = send(stream, out_buf);
            if bye {
                // Goodbye is written: the connection, its token and its fd
                // go with the session.
                self.remove(tok);
                telemetry.session_closed();
                telemetry.conn_closed();
            } else if pending {
                if let Some(ready) = self.ready.get_mut(shard) {
                    ready.push_back(tok);
                }
            }
        }
    }
}

/// One event-loop thread's visit state: the tokens a visit serves, the
/// batch scratch of its shared forwards and the buffers every visit
/// reuses.
pub(crate) struct Driver {
    cfg: VisitCfg,
    toks: Vec<usize>,
    keep: VecDeque<usize>,
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
            toks: Vec::new(),
            keep: VecDeque::new(),
            counts: Vec::new(),
            out_buf: Vec::new(),
            states: Matrix::default(),
            scratch: BatchScratch::default(),
            q: Matrix::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::AccessReq;
    use crate::protocol::{read_frame, EventKind};
    use crate::session::{cache_event, offline_decisions};
    use resemble_trace::MemAccess;
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
                SessionCmd::Event(cache_event(EventKind::DemandFill, 0x40)),
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

    /// A `DemandFill` of the line two blocks behind access `i`.
    fn fill_addr(i: u32) -> u64 {
        0x2000 + u64::from(i) * 64 - 128
    }

    /// Accesses `base..base + n` as the model reads them.
    fn trace(base: u32, n: u32) -> Vec<(MemAccess, bool)> {
        (base..base + n)
            .filter_map(|i| match access(i) {
                SessionCmd::Access(r) => Some((r.access, r.hit)),
                _ => None,
            })
            .collect()
    }

    /// The offline replay of `trace` with a fill before every odd access,
    /// each applied through `on_event` just before the access it precedes.
    fn offline_with_fills(model: &str, seed: u64, trace: &[(MemAccess, bool)]) -> Vec<Vec<u64>> {
        let mut m = SessionModel::build(model, seed, true).expect("builds");
        let mut expect = Vec::new();
        for (i, step) in trace.iter().enumerate() {
            if i % 2 == 1 {
                m.on_event(EventKind::DemandFill, fill_addr(i as u32));
            }
            expect.extend(offline_decisions(&mut m, std::slice::from_ref(step)));
        }
        expect
    }

    /// The decisions a client read, checking they arrived in stream order
    /// from request id `base` on.
    fn served(got: Vec<(u32, Vec<u64>)>, base: u32) -> Vec<Vec<u64>> {
        got.into_iter()
            .enumerate()
            .map(|(k, (id, d))| {
                assert_eq!(id, base + k as u32, "replies in stream order");
                d
            })
            .collect()
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
        let fill = |i: u32| SessionCmd::Event(cache_event(EventKind::DemandFill, fill_addr(i)));
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

        // Offline: session A's events between the accesses they precede.
        let expect_a = offline_with_fills("resemble_frozen", 17, &trace(0, 12));
        let expect_b = offline_decisions(&mut build(), &trace(100, 12));
        assert_eq!(served(decisions_until_goodbye(&mut client_a), 0), expect_a);
        assert_eq!(
            served(decisions_until_goodbye(&mut client_b), 100),
            expect_b
        );
    }

    #[test]
    fn learning_session_serves_its_events_inside_one_window() {
        // A learning session's plan, events included, is one call: with a
        // fill before every other access, the events no longer cut the
        // plan into one- and two-access windows, and the replies are still
        // the offline replay's.
        let mut shards = Shards::new(1);
        let (tok, mut client) = open(&mut shards, 1, "resemble", 19);
        for i in 0..32 {
            if i % 2 == 1 {
                let fill = SessionCmd::Event(cache_event(EventKind::DemandFill, fill_addr(i)));
                assert_eq!(shards.enqueue(tok, fill, 64), Some(Enqueue::Accepted));
            }
            assert_eq!(shards.enqueue(tok, access(i), 64), Some(Enqueue::Accepted));
        }
        assert_eq!(
            shards.enqueue(tok, SessionCmd::Bye, 64),
            Some(Enqueue::Accepted)
        );
        let telemetry = Telemetry::new();
        shards.drive(&mut Driver::new(VisitCfg::default()), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 32);
        assert_eq!(s.events, 16);
        assert!(
            s.batch_size_hist.iter().any(|&(size, _)| size > 2),
            "events split the plan into windows: {:?}",
            s.batch_size_hist
        );
        let expect = offline_with_fills("resemble", 19, &trace(0, 32));
        assert_eq!(served(decisions_until_goodbye(&mut client), 0), expect);
    }
}
