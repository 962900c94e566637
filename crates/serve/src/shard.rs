//! Sharded sessions: slab-allocated sessions, a readiness queue,
//! cross-session pooled decision windows, and checkpoint-on-retire.
//!
//! Sessions are assigned to a shard by `session_id % n_shards`. A shard
//! has no thread of its own: after each `epoll_wait` batch, the
//! event-loop thread that enqueued commands runs visits on the shard
//! (`Shard::drive`) until its readiness queue is empty. A `driving`
//! flag under the shard lock lets one thread drive a shard at a time,
//! which is what serializes all model access for a session (replies go
//! out in stream order, no model locking). A thread that finds the flag
//! set returns at once: the driver re-checks the readiness queue under
//! the lock before it clears the flag, so a command enqueued meanwhile is
//! never stranded. Each event-loop thread brings its own visit buffers
//! and batch scratch (`Driver`). Sessions live in a slab
//! (`Vec<Option<Slot>>` plus a free list) addressed by slot index —
//! enqueues are O(1) instead of a linear id scan, and retired slots are
//! recycled immediately. A session is in the readiness queue exactly when
//! it has commands pending, so a visit never scans idle slots.
//!
//! A visit drains one ready session, and — when that session is a frozen
//! MLP and cross-session batching is on — steals every other ready
//! session with the same [`SessionKey`] in the same pass. Each frozen
//! session's drained plan is exactly one decision window, its cache
//! events included: phase A (`window_prepare`) applies the events to the
//! session's own bank at their positions and stacks its state rows into
//! one matrix, then **one** batched forward runs over every row through
//! the heading session's inference net (under `quantize_frozen`, through
//! that session's int8 copy, built the first time it heads a window and
//! kept in its slot), then phase C (`window_commit`) runs per session.
//! Because frozen same-key sessions have bit-identical never-changing
//! weights and the batch kernels preserve per-row accumulation order,
//! pooled decisions are bit-identical to serving each session alone. A
//! session that is not frozen is visited alone and replays its plan
//! segment by segment, each event applied between the runs it arrived
//! between.
//!
//! On a `Bye` the visit flushes the queue, answers `Goodbye`, optionally
//! checkpoints the model (warm restart for the next same-key Hello), and
//! frees the slot. Visits run on the epoll thread, so this file is in the
//! `blocking-in-event-loop` scope: the shard lock only moves queue
//! entries, and [`Conn::send`]'s stall on a client that stops reading is
//! bounded (~5 s, then `TimedOut`) but holds the event loop while it
//! lasts. It is also on the decision hot path (`panic-in-hot-path`
//! scope): no panics, no literal indexing; poisoned locks are re-entered
//! because a panicked peer thread must not take the server down.

use crate::batcher::{drain_session, DrainPlan, SessionCmd};
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// The write half of a client connection, shared between the event-loop
/// thread that owns the connection (Accepted/Busy/Error replies) and
/// whichever event-loop thread drives its shard (Decision/TimedOut/
/// Goodbye replies). Each `send` is one logical write of a batch of
/// pre-encoded frames, so reply syscalls amortize across a whole visit.
/// The underlying fd is a dup of the event loop's nonblocking socket, so
/// short writes and `WouldBlock` are retried here.
pub struct Conn {
    stream: Mutex<TcpStream>,
}

impl Conn {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> Arc<Conn> {
        Arc::new(Conn {
            stream: Mutex::new(stream),
        })
    }

    /// Write a batch of pre-encoded frames atomically with respect to
    /// other senders on this connection. Blocks (bounded) on a client
    /// that has stopped reading, and with it the calling event loop; a
    /// client gone longer than ~5 s of backpressure gets `TimedOut` and
    /// its session drains without it.
    pub fn send(&self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        // lint:allow(blocking-in-event-loop): held for one send, whose stall is bounded at ~5 s (then TimedOut)
        let mut g = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let mut sent = 0usize;
        let mut stalls = 0u32;
        while sent < bytes.len() {
            match g.write(bytes.get(sent..).unwrap_or(&[])) {
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
}

/// Outcome of enqueueing a command onto a session's bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Queued; the enqueuing thread drives the shard after its batch.
    Accepted,
    /// Queue full: the request must be answered with `Busy`.
    Busy,
    /// Queue full: the event was dropped (events carry no reply).
    Dropped,
    /// No such session (already said goodbye, or the slot was recycled).
    SessionGone,
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

struct Slot {
    id: u64,
    /// `None` while a visit has the model checked out.
    model: Option<SessionModel>,
    queue: VecDeque<SessionCmd>,
    conn: Arc<Conn>,
    decisions: u64,
    /// `true` while this slot index sits in the readiness queue.
    in_ready: bool,
    /// A frozen MLP session (`SessionModel::pool_eligible`).
    frozen: bool,
    /// The int8 copy of a frozen session's inference net under
    /// `quantize_frozen`, built the first time the session heads a window.
    qnet: Option<QuantizedMlp>,
    key: SessionKey,
}

struct Inner {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Slot indices with pending commands, in arrival order. Invariant:
    /// at visit-pick time, every slot with a non-empty queue is here.
    ready: VecDeque<usize>,
    /// `true` while a thread is driving this shard.
    driving: bool,
}

/// One shard: its session slab and the readiness queue.
pub struct Shard {
    inner: Mutex<Inner>,
}

/// A session checked out of its slot for one visit.
struct VisitEntry {
    slot: usize,
    id: u64,
    conn: Arc<Conn>,
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

/// Take a slot's model and drain its queue into a fresh plan, producing
/// the visit entry. `None` if the slot is gone or already checked out.
fn checkout(
    g: &mut Inner,
    idx: usize,
    now: Instant,
    cfg: &VisitCfg,
    spare: &mut Vec<DrainPlan>,
) -> Option<VisitEntry> {
    let slot = g.slots.get_mut(idx).and_then(|s| s.as_mut())?;
    let model = slot.model.take()?;
    let mut plan = spare.pop().unwrap_or_default();
    drain_session(&mut slot.queue, cfg.max_batch.max(1), now, &mut plan);
    let ckpt_key = (plan.saw_bye && cfg.checkpoint_dir.is_some()).then(|| slot.key.clone());
    Some(VisitEntry {
        slot: idx,
        id: slot.id,
        conn: Arc::clone(&slot.conn),
        model,
        qnet: slot.qnet.take(),
        prior: slot.decisions,
        plan,
        frozen: slot.frozen,
        row0: 0,
        served: 0,
        ckpt_key,
    })
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Arc<Shard> {
        Arc::new(Shard {
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                free: Vec::new(),
                ready: VecDeque::new(),
                driving: false,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // lint:allow(blocking-in-event-loop): every critical section only moves queue entries and slots, never models or I/O
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add a session to this shard, returning its slot index — the handle
    /// all subsequent [`Shard::enqueue`] calls use (together with `id`,
    /// which guards against a recycled slot).
    pub fn register(
        &self,
        id: u64,
        model: SessionModel,
        conn: Arc<Conn>,
        key: SessionKey,
    ) -> usize {
        let frozen = model.pool_eligible();
        let slot = Slot {
            id,
            model: Some(model),
            queue: VecDeque::new(),
            conn,
            decisions: 0,
            in_ready: false,
            frozen,
            qnet: None,
            key,
        };
        // lint:allow(blocking-in-event-loop): the shard lock only moves queue entries and slots
        let mut g = self.lock();
        match g.free.pop() {
            Some(i) => {
                if let Some(s) = g.slots.get_mut(i) {
                    *s = Some(slot);
                }
                i
            }
            None => {
                g.slots.push(Some(slot));
                g.slots.len() - 1
            }
        }
    }

    /// Enqueue a command for a session, enforcing the bounded queue: at
    /// `cap` queued commands, accesses bounce with [`Enqueue::Busy`] and
    /// events are dropped. `Bye` always lands even on a full queue — a
    /// bounced Bye would leak the slot (and its model) forever.
    pub fn enqueue(&self, slot: usize, id: u64, cmd: SessionCmd, cap: usize) -> Enqueue {
        // lint:allow(blocking-in-event-loop): the shard lock only moves queue entries and slots
        let mut g = self.lock();
        let Some(s) = g.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return Enqueue::SessionGone;
        };
        if s.id != id {
            return Enqueue::SessionGone;
        }
        let full = s.queue.len() >= cap.max(1);
        let mut mark_ready = false;
        let verdict = match cmd {
            SessionCmd::Access(_) if full => Enqueue::Busy,
            SessionCmd::Event { .. } if full => Enqueue::Dropped,
            cmd => {
                s.queue.push_back(cmd);
                if !s.in_ready {
                    s.in_ready = true;
                    mark_ready = true;
                }
                Enqueue::Accepted
            }
        };
        if mark_ready {
            g.ready.push_back(slot);
        }
        verdict
    }

    /// Pop the next ready slot that still exists and has pending work.
    fn pop_ready(g: &mut Inner) -> Option<usize> {
        loop {
            let i = g.ready.pop_front()?;
            let Some(slot) = g.slots.get_mut(i).and_then(|s| s.as_mut()) else {
                continue; // retired while queued
            };
            slot.in_ready = false;
            if slot.model.is_none() || slot.queue.is_empty() {
                continue;
            }
            return Some(i);
        }
    }

    /// Steal every other ready frozen session with `key` into the visit
    /// (up to [`POOL_ROWS`] pooled rows), preserving the readiness order
    /// of the sessions left behind.
    fn gather_pooled(
        g: &mut Inner,
        key: &SessionKey,
        now: Instant,
        cfg: &VisitCfg,
        spare: &mut Vec<DrainPlan>,
        entries: &mut Vec<VisitEntry>,
        keep: &mut VecDeque<usize>,
    ) {
        let cap_rows = POOL_ROWS.max(cfg.max_batch.max(1));
        let mut rows: usize = entries.iter().map(|e| e.plan.run.len()).sum();
        keep.clear();
        while let Some(i) = g.ready.pop_front() {
            if rows >= cap_rows {
                keep.push_back(i);
                continue;
            }
            let Some(slot) = g.slots.get_mut(i).and_then(|s| s.as_mut()) else {
                continue; // retired: falls out of the readiness queue
            };
            let steal =
                slot.frozen && slot.key == *key && slot.model.is_some() && !slot.queue.is_empty();
            if !steal {
                keep.push_back(i);
                continue;
            }
            slot.in_ready = false;
            if let Some(e) = checkout(g, i, now, cfg, spare) {
                rows += e.plan.run.len();
                entries.push(e);
            }
        }
        std::mem::swap(&mut g.ready, keep);
    }

    /// Run visits until the readiness queue is empty. Returns at once
    /// when another thread is driving this shard: that driver finds the
    /// caller's commands when it re-checks the queue, under the lock,
    /// before it clears the `driving` flag.
    pub(crate) fn drive(&self, d: &mut Driver, telemetry: &Telemetry) {
        // lint:allow(blocking-in-event-loop): the shard lock only moves queue entries and slots
        let mut g = self.lock();
        if g.driving {
            return;
        }
        g.driving = true;
        drop(g);
        loop {
            // Pick and check out this visit's sessions under the lock;
            // all model work and socket I/O happen with it released.
            let now = Instant::now();
            // lint:allow(blocking-in-event-loop): the shard lock only moves queue entries and slots
            let mut g = self.lock();
            let Some(first_idx) = Self::pop_ready(&mut g) else {
                g.driving = false;
                return;
            };
            let Some(first) = checkout(&mut g, first_idx, now, &d.cfg, &mut d.spare_plans) else {
                continue;
            };
            d.entries.clear();
            let pool_key = (d.cfg.cross_session && first.frozen)
                .then(|| {
                    g.slots
                        .get(first_idx)
                        .and_then(|s| s.as_ref())
                        .map(|s| s.key.clone())
                })
                .flatten();
            d.entries.push(first);
            if let Some(key) = &pool_key {
                Self::gather_pooled(
                    &mut g,
                    key,
                    now,
                    &d.cfg,
                    &mut d.spare_plans,
                    &mut d.entries,
                    &mut d.keep,
                );
            }
            drop(g);

            d.visit(telemetry);

            // Return models (or retire on Bye) and recycle plans.
            // lint:allow(blocking-in-event-loop): the shard lock only moves queue entries and slots
            let mut g = self.lock();
            for mut e in d.entries.drain(..) {
                let plan = std::mem::replace(&mut e.plan, DrainPlan::new());
                if let Some(slot_opt) = g.slots.get_mut(e.slot) {
                    if slot_opt.as_ref().is_some_and(|s| s.id == e.id) {
                        if plan.saw_bye {
                            *slot_opt = None;
                            g.free.push(e.slot);
                            telemetry.session_closed();
                        } else if let Some(slot) = slot_opt.as_mut() {
                            slot.model = Some(e.model);
                            slot.qnet = e.qnet;
                            slot.decisions = e.prior + e.served;
                            if !slot.queue.is_empty() && !slot.in_ready {
                                slot.in_ready = true;
                                g.ready.push_back(e.slot);
                            }
                        }
                    }
                }
                d.spare_plans.push(plan);
            }
            drop(g);
        }
    }
}

/// One event-loop thread's visit state: the batch scratch of its shared
/// forwards and the buffers every visit reuses. Never shared between
/// threads.
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
    /// replies in one socket write.
    fn visit(&mut self, telemetry: &Telemetry) {
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
                id,
                conn,
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
            // visible: a client that reconnects the instant it sees
            // the reply must find the file (file I/O stays outside
            // the shard lock).
            if let (Some(k), Some(dir)) = (ckpt_key.as_ref(), cfg.checkpoint_dir.as_deref()) {
                if save_checkpoint_file(dir, &k.model, k.seed, k.fast, *id, model) {
                    telemetry.checkpoint_saved();
                }
            }
            // One socket write for the session's whole visit; a
            // vanished client is the client's problem, the session
            // still drains.
            let _ = conn.send(out_buf);
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

    fn loopback_conn() -> (Arc<Conn>, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = l.accept().expect("accept");
        (Conn::new(server_side), client)
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
        let shard = Shard::new();
        let (conn, _client) = loopback_conn();
        let model = SessionModel::build("stride", 1, true).expect("builds");
        let slot = shard.register(9, model, conn, key("stride", 1));
        for i in 0..4 {
            assert_eq!(shard.enqueue(slot, 9, access(i), 4), Enqueue::Accepted);
        }
        assert_eq!(shard.enqueue(slot, 9, access(99), 4), Enqueue::Busy);
        assert_eq!(
            shard.enqueue(
                slot,
                9,
                SessionCmd::Event {
                    kind: crate::protocol::EventKind::DemandFill,
                    addr: 0x40
                },
                4
            ),
            Enqueue::Dropped
        );
        // Bye is always accepted so the session can terminate.
        assert_eq!(
            shard.enqueue(slot, 9, SessionCmd::Bye, 4),
            Enqueue::Accepted
        );
        // Wrong id (recycled slot) and unknown slot both answer gone.
        assert_eq!(shard.enqueue(slot, 77, access(0), 4), Enqueue::SessionGone);
        assert_eq!(
            shard.enqueue(slot + 17, 9, access(0), 4),
            Enqueue::SessionGone
        );
    }

    #[test]
    fn drive_returns_once_the_ready_queue_is_empty() {
        let shard = Shard::new();
        let (conn, client) = loopback_conn();
        let model = SessionModel::build("stride", 2, true).expect("builds");
        let slot = shard.register(1, model, conn, key("stride", 2));
        for i in 0..10 {
            assert_eq!(shard.enqueue(slot, 1, access(i), 64), Enqueue::Accepted);
        }
        assert_eq!(
            shard.enqueue(slot, 1, SessionCmd::Bye, 64),
            Enqueue::Accepted
        );
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            max_batch: 4,
            ..VisitCfg::default()
        };
        // Runs on this thread: must terminate once the queue is flushed.
        shard.drive(&mut Driver::new(cfg), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.decisions, 10);
        assert_eq!(s.sessions_closed, 1);
        assert!(s.batches >= 3, "max_batch=4 over 10 requests");
        drop(client);
    }

    #[test]
    fn a_shard_has_one_driver_at_a_time() {
        let shard = Shard::new();
        let (conn, client) = loopback_conn();
        let model = SessionModel::build("stride", 2, true).expect("builds");
        let slot = shard.register(1, model, conn, key("stride", 2));
        for i in 0..3 {
            assert_eq!(shard.enqueue(slot, 1, access(i), 64), Enqueue::Accepted);
        }
        let telemetry = Telemetry::new();
        let mut d = Driver::new(VisitCfg::default());
        // Another thread is driving: this call leaves the work to it.
        shard.lock().driving = true;
        shard.drive(&mut d, &telemetry);
        assert_eq!(telemetry.snapshot().decisions, 0);
        assert_eq!(shard.lock().ready.len(), 1, "the command stays queued");
        // With the flag clear, the next drive runs it to empty.
        shard.lock().driving = false;
        shard.drive(&mut d, &telemetry);
        assert_eq!(telemetry.snapshot().decisions, 3);
        let g = shard.lock();
        assert!(g.ready.is_empty() && !g.driving);
        drop(g);
        drop(client);
    }

    #[test]
    fn bye_bypasses_full_queue_and_the_visit_retires_the_session() {
        // Regression: fill a session's queue to capacity, lose the
        // client, then deliver the final Bye. It must land despite the
        // full queue (a bounced Bye would leak the slot forever), a
        // visit must retire the session, and the slot must be recycled.
        let shard = Shard::new();
        let (conn, client) = loopback_conn();
        let model = SessionModel::build("stride", 3, true).expect("builds");
        let slot = shard.register(5, model, conn, key("stride", 3));
        for i in 0..4 {
            assert_eq!(shard.enqueue(slot, 5, access(i), 4), Enqueue::Accepted);
        }
        assert_eq!(shard.enqueue(slot, 5, access(99), 4), Enqueue::Busy);
        drop(client); // replies now fail to send — the session still drains
        assert_eq!(
            shard.enqueue(slot, 5, SessionCmd::Bye, 4),
            Enqueue::Accepted
        );
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            max_batch: 2,
            ..VisitCfg::default()
        };
        shard.drive(&mut Driver::new(cfg), &telemetry);
        let s = telemetry.snapshot();
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.decisions, 4);
        // The freed slot is reused by the next registration.
        let (conn2, _client2) = loopback_conn();
        let model2 = SessionModel::build("stride", 4, true).expect("builds");
        let slot2 = shard.register(6, model2, conn2, key("stride", 4));
        assert_eq!(slot2, slot, "retired slot is recycled via the free list");
    }

    #[test]
    fn same_key_frozen_sessions_share_pooled_windows() {
        let shard = Shard::new();
        let (conn_a, client_a) = loopback_conn();
        let (conn_b, client_b) = loopback_conn();
        let k = key("resemble_frozen", 7);
        let model_a = SessionModel::build("resemble_frozen", 7, true).expect("builds");
        let model_b = SessionModel::build("resemble_frozen", 7, true).expect("builds");
        let slot_a = shard.register(1, model_a, conn_a, k.clone());
        let slot_b = shard.register(2, model_b, conn_b, k);
        for i in 0..12 {
            assert_eq!(shard.enqueue(slot_a, 1, access(i), 64), Enqueue::Accepted);
            assert_eq!(
                shard.enqueue(slot_b, 2, access(i + 100), 64),
                Enqueue::Accepted
            );
        }
        assert_eq!(
            shard.enqueue(slot_a, 1, SessionCmd::Bye, 64),
            Enqueue::Accepted
        );
        assert_eq!(
            shard.enqueue(slot_b, 2, SessionCmd::Bye, 64),
            Enqueue::Accepted
        );
        let telemetry = Telemetry::new();
        shard.drive(&mut Driver::new(VisitCfg::default()), &telemetry);
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
        let shard = Shard::new();
        let (conn_a, client_a) = loopback_conn();
        let (conn_b, client_b) = loopback_conn();
        let k = key("resemble_frozen", 13);
        let model_a = SessionModel::build("resemble_frozen", 13, true).expect("builds");
        let model_b = SessionModel::build("resemble_frozen", 13, true).expect("builds");
        let slot_a = shard.register(1, model_a, conn_a, k.clone());
        let slot_b = shard.register(2, model_b, conn_b, k);
        for i in 0..12 {
            assert_eq!(shard.enqueue(slot_a, 1, access(i), 64), Enqueue::Accepted);
            assert_eq!(
                shard.enqueue(slot_b, 2, access(i + 100), 64),
                Enqueue::Accepted
            );
        }
        assert_eq!(
            shard.enqueue(slot_a, 1, SessionCmd::Bye, 64),
            Enqueue::Accepted
        );
        assert_eq!(
            shard.enqueue(slot_b, 2, SessionCmd::Bye, 64),
            Enqueue::Accepted
        );
        let telemetry = Telemetry::new();
        let cfg = VisitCfg {
            quantize_frozen: true,
            ..VisitCfg::default()
        };
        shard.drive(&mut Driver::new(cfg), &telemetry);
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
        let shard = Shard::new();
        let (conn_a, mut client_a) = loopback_conn();
        let (conn_b, mut client_b) = loopback_conn();
        let k = key("resemble_frozen", 17);
        let build = || SessionModel::build("resemble_frozen", 17, true).expect("builds");
        let slot_a = shard.register(1, build(), conn_a, k.clone());
        let slot_b = shard.register(2, build(), conn_b, k);
        let fill = |i: u32| SessionCmd::Event {
            kind: EventKind::DemandFill,
            addr: 0x2000 + u64::from(i) * 64 - 128,
        };
        for i in 0..12 {
            if i % 2 == 1 {
                assert_eq!(shard.enqueue(slot_a, 1, fill(i), 64), Enqueue::Accepted);
            }
            assert_eq!(shard.enqueue(slot_a, 1, access(i), 64), Enqueue::Accepted);
            assert_eq!(
                shard.enqueue(slot_b, 2, access(i + 100), 64),
                Enqueue::Accepted
            );
        }
        for (slot, id) in [(slot_a, 1), (slot_b, 2)] {
            assert_eq!(
                shard.enqueue(slot, id, SessionCmd::Bye, 64),
                Enqueue::Accepted
            );
        }
        let telemetry = Telemetry::new();
        shard.drive(&mut Driver::new(VisitCfg::default()), &telemetry);
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
