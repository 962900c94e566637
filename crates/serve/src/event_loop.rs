//! Nonblocking epoll I/O event loop: accept, frame reassembly, and
//! connection lifecycle for every client, on a fixed number of threads.
//!
//! The previous design spawned one blocking reader thread per connection
//! and — the actual bug this module replaces — pushed a cloned stream and
//! a `JoinHandle` into grow-only vectors that were pruned only at
//! shutdown, so every connection leaked an fd, a thread, and its stack
//! until the process drained. Here connections live in a slab owned by
//! their event-loop thread: the epoll token *is* the slab index, a
//! retired session frees its connection and recycles the slot
//! immediately, and the thread count is fixed by config rather than by
//! client count. Leak freedom is by construction, and
//! `connections_opened == connections_closed` after drain is asserted by
//! the churn tests.
//!
//! Every shard belongs to one event-loop thread: loop `i` of `loops` owns
//! the shards `s` with `s % loops == i`. Thread 0 owns the nonblocking
//! listener and numbers each connection as it accepts it. The number is
//! the session id and fixes the shard (`id % shards`), and the connection
//! goes to the loop that owns that shard, through the owner's
//! eventfd-woken mailbox when that is not thread 0 itself. Each thread
//! runs level-triggered `epoll_wait` over its own connections: reads are
//! nonblocking with per-connection frame reassembly buffers, a Hello binds
//! a session to its connection, and EOF/error/Bye all funnel through one
//! close path that deregisters the connection and enqueues the session's
//! final `Bye` exactly once.
//!
//! So one thread reads a session's frames, decides them and writes every
//! reply through the connection's only stream. After handling a whole
//! `epoll_wait` batch, a thread drives its shards (`Shards::drive`) with
//! its own visit buffers and batch scratch, so the sessions of one batch
//! share a visit and no request changes threads on its way to the model.
//! The cost is that a visit holds its event loop: model work, and a
//! bounded send stall on a client that stops reading (at most ~5 s, see
//! `shard::send`), delay the next `epoll_wait`.
//!
//! No libc crate exists in the vendored workspace, so the handful of
//! syscalls are declared directly, in the style of
//! [`crate::server::signal`]. This file is on the decision hot path
//! (`panic-in-hot-path` scope): no panics, no literal indexing.

use crate::batcher::{AccessReq, SessionCmd};
use crate::protocol::{Reply, Request, MAX_FRAME};
use crate::session::{cache_event, load_checkpoint_file, ModelBuilder};
use crate::shard::{send, Conn, Driver, Enqueue, SessionKey, Shards, VisitCfg};
use crate::telemetry::Telemetry;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Raw epoll/eventfd bindings. The vendored workspace has no libc crate,
/// so the syscalls are declared directly (same pattern as the `signal`
/// module). Linux-only, like the rest of the serve layer's CI surface.
mod sys {
    use std::io;

    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Peer half-closed its write side.
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Kernel `struct epoll_event`. Packed on x86_64 (only), matching the
    /// kernel ABI; field reads below copy out of the struct, never take
    /// references into it.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        fn new(events: u32, data: u64) -> Self {
            Self { events, data }
        }

        /// The registration token (a copy; safe for the packed layout).
        pub fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An owned epoll instance.
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // (checked below) is the only failure mode.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        pub fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent::new(events, token);
            // SAFETY: `ev` is a live, properly laid-out (#[repr(C,
            // packed)]) EpollEvent for the duration of the call; the
            // kernel copies it before returning.
            let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn del(&self, fd: i32) {
            // A pre-2.6.9 quirk requires a non-null event even for DEL.
            let mut ev = EpollEvent::default();
            // SAFETY: `ev` outlives the call; DEL ignores its contents
            // but the pointer must be valid (the quirk above).
            let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Wait for readiness; EINTR and errors report as an empty wake.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
            let cap = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
            // SAFETY: `events.as_mut_ptr()` points at `events.len()`
            // writable EpollEvent slots and `cap` never exceeds that
            // length, so the kernel writes only into the slice.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms) };
            usize::try_from(n).unwrap_or(0)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is a valid descriptor this struct owns
            // exclusively, closed exactly once (drop runs once).
            unsafe {
                close(self.fd);
            }
        }
    }

    /// A nonblocking eventfd used to wake an event loop from other
    /// threads (new-connection mailbox deliveries, shutdown).
    pub struct EventFd {
        fd: i32,
    }

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers; a negative return
            // (checked below) is the only failure mode.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        pub fn fd(&self) -> i32 {
            self.fd
        }

        /// Make the fd readable (wake the owning epoll loop).
        pub fn signal(&self) {
            let one: u64 = 1;
            let p = std::ptr::addr_of!(one).cast::<u8>();
            // SAFETY: `p` points at the 8 readable bytes of the local
            // `one`, which outlives the call.
            let _ = unsafe { write(self.fd, p, 8) };
        }

        /// Consume pending wakeups so level-triggered epoll quiesces.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: `buf` provides exactly the 8 writable bytes the
            // kernel may fill.
            let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is a valid descriptor this struct owns
            // exclusively, closed exactly once (drop runs once).
            unsafe {
                close(self.fd);
            }
        }
    }
}

/// Epoll token of the listening socket (thread 0 only).
const LISTEN_TOKEN: u64 = u64::MAX;
/// Epoll token of the thread's mailbox eventfd.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Bytes read from one connection per readiness event before yielding to
/// the next (level-triggered epoll re-reports any remainder).
const FAIR_READ_BYTES: usize = 64 * 1024;

/// Shared state every event-loop thread works against.
pub(crate) struct IoCtx {
    /// Shard count: connection `id` belongs to shard `id % n_shards`.
    pub(crate) n_shards: usize,
    pub(crate) visit: VisitCfg,
    pub(crate) builder: ModelBuilder,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) queue_cap: usize,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// An event-loop thread's inbox: accepted connections, with their
/// numbers, parked by the accepting thread, plus the eventfd that wakes
/// the owner to collect them (and to notice shutdown).
pub(crate) struct IoMailbox {
    inbox: Mutex<Vec<(u64, TcpStream)>>,
    wake: sys::EventFd,
}

impl IoMailbox {
    pub(crate) fn new() -> io::Result<IoMailbox> {
        Ok(IoMailbox {
            inbox: Mutex::new(Vec::new()),
            wake: sys::EventFd::new()?,
        })
    }

    /// Park connection `id` for the owning thread and wake it.
    fn deliver(&self, id: u64, stream: TcpStream) {
        // The critical section only pushes onto a Vec; no I/O or model
        // work ever runs under this lock.
        // lint:allow(blocking-in-event-loop): bounded mailbox handoff
        let mut g = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        g.push((id, stream));
        drop(g);
        self.wake.signal();
    }

    /// Wake the owning thread without delivering anything (shutdown).
    pub(crate) fn wake(&self) {
        self.wake.signal();
    }

    fn collect(&self, into: &mut Vec<(u64, TcpStream)>) {
        self.wake.drain();
        // lint:allow(blocking-in-event-loop): bounded mailbox handoff — the critical section only appends one Vec into another
        let mut g = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        into.append(&mut g);
    }
}

/// Incremental frame reassembly over a nonblocking stream: the bytes
/// read but not yet parsed sit in `buf[start..end]`, with complete
/// `[len][type][payload]` frames peeled off the front. Mirrors
/// [`crate::protocol::read_frame`]'s validation exactly. `buf` is zeroed
/// only when it grows, and compaction moves the unparsed bytes to the
/// front, so a read costs no memset.
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Free space offered to each `read(2)`.
    const READ_CHUNK: usize = 16 * 1024;

    pub(crate) fn new() -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// One `read(2)` into the free tail. Returns the bytes read (`0` is
    /// EOF) and whether they filled the space given, so more may be
    /// waiting; `WouldBlock` means the socket is drained for now.
    fn fill_from(&mut self, src: &mut impl Read) -> io::Result<(usize, bool)> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 0 && self.buf.len() - self.end < Self::READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < Self::READ_CHUNK {
            self.buf.resize(self.end + Self::READ_CHUNK, 0);
        }
        let tail = self.buf.get_mut(self.end..).unwrap_or(&mut []);
        let space = tail.len();
        let n = src.read(tail)?;
        self.end += n;
        Ok((n, n == space))
    }

    /// Peel the next complete frame into `payload`, returning its type
    /// byte; `Ok(None)` means more bytes are needed. Length-0 and
    /// oversized frames are protocol errors, exactly as in `read_frame`.
    fn next_frame(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<u8>> {
        let avail = self.buf.get(self.start..self.end).unwrap_or(&[]);
        let Some(hdr) = avail.get(..4) else {
            return Ok(None);
        };
        let mut four = [0u8; 4];
        four.copy_from_slice(hdr);
        let len = u32::from_le_bytes(four) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame length",
            ));
        }
        let total = 4 + len;
        if avail.len() < total {
            return Ok(None);
        }
        let Some(&ty) = avail.get(4) else {
            return Ok(None);
        };
        payload.clear();
        payload.extend_from_slice(avail.get(5..total).unwrap_or(&[]));
        self.start += total;
        Ok(Some(ty))
    }

    /// `true` when no partial frame is pending (clean EOF point).
    fn at_boundary(&self) -> bool {
        self.start == self.end
    }
}

/// One event-loop thread: its epoll set, the shards it owns and their
/// connections. `listener` is `Some` only on thread 0.
pub(crate) struct IoLoop {
    idx: usize,
    ep: sys::Epoll,
    listener: Option<TcpListener>,
    mailboxes: Arc<Vec<IoMailbox>>,
    ctx: Arc<IoCtx>,
    /// This thread's visit buffers and batch scratch.
    driver: Driver,
    shards: Shards,
    payload: Vec<u8>,
    reply_buf: Vec<u8>,
    incoming: Vec<(u64, TcpStream)>,
    /// The number the acceptor (thread 0) gives the next connection.
    next_id: u64,
}

impl IoLoop {
    /// Loop `idx` of `mailboxes.len()`, with its epoll set ready to wait
    /// on its mailbox and, on thread 0, the listener.
    pub(crate) fn new(
        idx: usize,
        listener: Option<TcpListener>,
        mailboxes: Arc<Vec<IoMailbox>>,
        ctx: Arc<IoCtx>,
    ) -> io::Result<IoLoop> {
        let ep = sys::Epoll::new()?;
        if let Some(me) = mailboxes.get(idx) {
            ep.add(me.wake.fd(), WAKE_TOKEN, sys::EPOLLIN)?;
        }
        if let Some(l) = &listener {
            ep.add(l.as_raw_fd(), LISTEN_TOKEN, sys::EPOLLIN)?;
        }
        let loops = mailboxes.len().max(1);
        let owned = ctx.n_shards.saturating_sub(idx).div_ceil(loops);
        Ok(IoLoop {
            idx,
            ep,
            listener,
            mailboxes,
            driver: Driver::new(ctx.visit.clone()),
            shards: Shards::new(owned),
            ctx,
            payload: Vec::new(),
            reply_buf: Vec::new(),
            incoming: Vec::new(),
            next_id: 1,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = vec![sys::EpollEvent::default(); 256];
        while !self.ctx.shutdown.load(Ordering::Acquire) {
            let n = self.ep.wait(&mut events, 100);
            if self.ctx.shutdown.load(Ordering::Acquire) {
                break;
            }
            for k in 0..n {
                let Some(ev) = events.get(k) else {
                    break;
                };
                match ev.token() {
                    LISTEN_TOKEN => self.accept_burst(),
                    WAKE_TOKEN => self.collect_mailbox(),
                    tok => self.service_conn(usize::try_from(tok).unwrap_or(usize::MAX)),
                }
            }
            // After the whole batch, so that sessions read together share
            // a visit.
            self.shards.drive(&mut self.driver, &self.ctx.telemetry);
        }
        self.drain_all();
        self.shards.drive(&mut self.driver, &self.ctx.telemetry);
    }

    /// Shutdown drain: half-close every open connection's read side
    /// (parity with the blocking design, so clients mid-stream see EOF)
    /// and close it, which enqueues each live session's final `Bye`; the
    /// drive that follows answers them and frees every connection.
    fn drain_all(&mut self) {
        // Late mailbox deliveries still own fds; close them too.
        if let Some(me) = self.mailboxes.get(self.idx) {
            me.collect(&mut self.incoming);
        }
        self.incoming.clear();
        for tok in 0..self.shards.tokens() {
            if let Some(conn) = self.shards.conn(tok).filter(|c| !c.closed) {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
            self.close_conn(tok);
        }
    }

    /// The shard connection `id` belongs to.
    fn shard_of(&self, id: u64) -> usize {
        (id % self.ctx.n_shards.max(1) as u64) as usize
    }

    /// Accept until the listener would block, numbering each connection
    /// and handing it to the loop that owns its shard.
    fn accept_burst(&mut self) {
        loop {
            let Some(l) = &self.listener else {
                return;
            };
            match l.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    let owner = self.shard_of(id) % self.mailboxes.len().max(1);
                    if owner == self.idx {
                        self.register_conn(id, stream);
                    } else if let Some(mb) = self.mailboxes.get(owner) {
                        mb.deliver(id, stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock or a transient accept error
            }
        }
    }

    /// Adopt connections the acceptor parked in our mailbox.
    fn collect_mailbox(&mut self) {
        let Some(me) = self.mailboxes.get(self.idx) else {
            return;
        };
        let mut incoming = std::mem::take(&mut self.incoming);
        me.collect(&mut incoming);
        for (id, stream) in incoming.drain(..) {
            self.register_conn(id, stream);
        }
        self.incoming = incoming;
    }

    /// Put connection `id` into the slab and the epoll set. The slab index
    /// is the epoll token.
    fn register_conn(&mut self, id: u64, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let shard = self.shard_of(id) / self.mailboxes.len().max(1);
        let tok = self.shards.insert(Conn::new(stream, id, shard));
        if self
            .ep
            .add(fd, tok as u64, sys::EPOLLIN | sys::EPOLLRDHUP)
            .is_err()
        {
            self.shards.remove(tok);
            return;
        }
        self.ctx.telemetry.conn_opened();
    }

    /// The single close path (EOF, error, `Bye`, drain): deregister the
    /// connection and enqueue its session's final `Bye`, which always
    /// lands, so session retirement is unconditional. The visit that
    /// answers the `Bye` frees the connection; one that closes before
    /// Hello is freed here.
    fn close_conn(&mut self, tok: usize) {
        let Some(conn) = self.shards.conn_mut(tok).filter(|c| !c.closed) else {
            return;
        };
        self.ep.del(conn.stream.as_raw_fd());
        conn.closed = true;
        if self
            .shards
            .enqueue(tok, SessionCmd::Bye, self.ctx.queue_cap)
            .is_none()
        {
            self.shards.remove(tok);
            self.ctx.telemetry.conn_closed();
        }
    }

    /// Readable: pull bytes, peel frames, dispatch. Stops after a read
    /// that left space unfilled (the socket is drained; there is no
    /// trailing `WouldBlock` read) or after `FAIR_READ_BYTES`, for
    /// fairness; level-triggered epoll re-reports anything left or later.
    fn service_conn(&mut self, tok: usize) {
        let mut consumed = 0usize;
        loop {
            let Some(conn) = self.shards.conn_mut(tok).filter(|c| !c.closed) else {
                return;
            };
            match conn.fbuf.fill_from(&mut conn.stream) {
                Ok((0, _)) => {
                    // EOF: honor any already-buffered complete frames,
                    // then flag a truncated trailer and close.
                    if !self.dispatch_frames(tok) {
                        return;
                    }
                    let mid_frame = self.shards.conn(tok).is_some_and(|c| !c.fbuf.at_boundary());
                    if mid_frame {
                        self.ctx.telemetry.protocol_error();
                    }
                    self.close_conn(tok);
                    return;
                }
                Ok((n, filled)) => {
                    if !self.dispatch_frames(tok) {
                        return;
                    }
                    consumed += n;
                    if !filled || consumed >= FAIR_READ_BYTES {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.ctx.telemetry.protocol_error();
                    self.close_conn(tok);
                    return;
                }
            }
        }
    }

    /// Peel and handle every complete frame currently buffered. Returns
    /// `false` once the connection has been closed (stop touching `tok`).
    fn dispatch_frames(&mut self, tok: usize) -> bool {
        loop {
            let frame = {
                let Some(conn) = self.shards.conn_mut(tok).filter(|c| !c.closed) else {
                    return false;
                };
                conn.fbuf.next_frame(&mut self.payload)
            };
            match frame {
                Ok(Some(ty)) => {
                    if !self.handle_frame(tok, ty) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => {
                    self.ctx.telemetry.protocol_error();
                    self.close_conn(tok);
                    return false;
                }
            }
        }
    }

    /// One decoded frame. Returns `false` once the connection was closed.
    fn handle_frame(&mut self, tok: usize, ty: u8) -> bool {
        let req = Request::decode(ty, &self.payload);
        let has_session = self.shards.conn(tok).is_some_and(Conn::has_session);
        let cap = self.ctx.queue_cap;
        match (req, has_session) {
            (Ok(Request::Hello { model, seed, fast }), false) => {
                self.handle_hello(tok, model, seed, fast)
            }
            (
                Ok(Request::Access {
                    req_id,
                    deadline_us,
                    access,
                    hit,
                }),
                true,
            ) => {
                let enqueued = Instant::now();
                let deadline = (deadline_us > 0)
                    .then(|| enqueued + Duration::from_micros(u64::from(deadline_us)));
                let cmd = SessionCmd::Access(AccessReq {
                    req_id,
                    access,
                    hit,
                    enqueued,
                    deadline,
                });
                if self.shards.enqueue(tok, cmd, cap) == Some(Enqueue::Busy) {
                    self.ctx.telemetry.busy();
                    self.send_reply(tok, &Reply::Busy { req_id });
                }
                true
            }
            (Ok(Request::Event { kind, addr }), true) => {
                let cmd = SessionCmd::Event(cache_event(kind, addr));
                if self.shards.enqueue(tok, cmd, cap) == Some(Enqueue::Dropped) {
                    self.ctx.telemetry.event_dropped();
                }
                true
            }
            (Ok(Request::Bye), true) => {
                // Closing queues the Bye; the session's visit flushes the
                // queue and answers Goodbye.
                self.close_conn(tok);
                false
            }
            (Ok(_), _) | (Err(_), _) => {
                // Hello mid-session, pre-Hello traffic, or a malformed
                // payload: answer Error and hang up.
                self.ctx.telemetry.protocol_error();
                let message = if has_session {
                    "unexpected frame".to_string()
                } else {
                    "expected Hello".to_string()
                };
                self.send_reply(tok, &Reply::Error { message });
                self.close_conn(tok);
                false
            }
        }
    }

    /// Hello handshake: build the model (warm-starting from a checkpoint
    /// when one exists), bind the session to the connection, answer
    /// Accepted with the connection's number. A model that fails to build
    /// answers `Error`, never a silent close.
    fn handle_hello(&mut self, tok: usize, model: String, seed: u64, fast: bool) -> bool {
        let built = (self.ctx.builder)(&model, seed, fast);
        let mut m = match built {
            Ok(m) => m,
            Err(message) => {
                self.ctx.telemetry.protocol_error();
                self.send_reply(tok, &Reply::Error { message });
                self.close_conn(tok);
                return false;
            }
        };
        if let Some(dir) = &self.ctx.visit.checkpoint_dir {
            if load_checkpoint_file(dir, &model, seed, fast, &mut m) {
                self.ctx.telemetry.checkpoint_loaded();
            }
        }
        let Some(conn) = self.shards.conn_mut(tok) else {
            return false;
        };
        conn.open_session(m, SessionKey { model, seed, fast });
        let session_id = conn.id;
        self.ctx.telemetry.session_opened();
        self.send_reply(tok, &Reply::Accepted { session_id });
        true
    }

    fn send_reply(&mut self, tok: usize, reply: &Reply) {
        let Some(conn) = self.shards.conn(tok) else {
            return;
        };
        self.reply_buf.clear();
        reply.encode_into(&mut self.reply_buf);
        let _ = send(&conn.stream, &self.reply_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = l.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        (client, server_side)
    }

    fn frame(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let len = u32::try_from(1 + payload.len()).expect("fits");
        out.extend_from_slice(&len.to_le_bytes());
        out.push(ty);
        out.extend_from_slice(payload);
        out
    }

    fn drain_ready(fb: &mut FrameBuf, stream: &mut impl Read) -> Vec<(u8, Vec<u8>)> {
        loop {
            match fb.fill_from(stream) {
                Ok((0, _)) | Ok((_, false)) => break,
                Ok((_, true)) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        peel(fb)
    }

    fn peel(fb: &mut FrameBuf) -> Vec<(u8, Vec<u8>)> {
        let mut got = Vec::new();
        let mut payload = Vec::new();
        while let Some(ty) = fb.next_frame(&mut payload).expect("parse") {
            got.push((ty, payload.clone()));
        }
        got
    }

    /// Feed `bytes` to `fb` as one read.
    fn feed(fb: &mut FrameBuf, bytes: &[u8]) {
        let (n, _) = fb.fill_from(&mut &bytes[..]).expect("read from a slice");
        assert_eq!(n, bytes.len(), "one read takes the whole feed");
    }

    #[test]
    fn frames_reassemble_across_partial_writes() {
        let (mut client, mut server) = loopback_pair();
        let f1 = frame(0x42, b"hello");
        let f2 = frame(0x01, &[7u8; 300]);
        let mut wire = f1.clone();
        wire.extend_from_slice(&f2);
        // Dribble the bytes a few at a time; frames must pop out whole.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            client.write_all(chunk).expect("write");
            client.flush().expect("flush");
            // Give the loopback a moment to land the bytes.
            std::thread::sleep(Duration::from_millis(1));
            got.extend(drain_ready(&mut fb, &mut server));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got.first().map(|(t, p)| (*t, p.len())), Some((0x42, 5)));
        assert_eq!(got.get(1).map(|(t, p)| (*t, p.len())), Some((0x01, 300)));
        assert!(fb.at_boundary());
    }

    #[test]
    fn zero_and_oversized_lengths_are_protocol_errors() {
        let mut fb = FrameBuf::new();
        feed(&mut fb, &0u32.to_le_bytes());
        let mut payload = Vec::new();
        assert!(fb.next_frame(&mut payload).is_err());

        let mut fb = FrameBuf::new();
        feed(
            &mut fb,
            &u32::try_from(MAX_FRAME + 1).expect("fits").to_le_bytes(),
        );
        assert!(fb.next_frame(&mut payload).is_err());
    }

    #[test]
    fn partial_frame_reports_not_at_boundary() {
        let mut fb = FrameBuf::new();
        let full = frame(0x02, b"abcdef");
        feed(&mut fb, full.get(..6).expect("prefix"));
        let mut payload = Vec::new();
        assert_eq!(fb.next_frame(&mut payload).expect("parse"), None);
        assert!(!fb.at_boundary());
        feed(&mut fb, full.get(6..).expect("suffix"));
        assert_eq!(fb.next_frame(&mut payload).expect("parse"), Some(0x02));
        assert_eq!(payload, b"abcdef");
        assert!(fb.at_boundary());
    }

    #[test]
    fn a_frame_straddling_a_compaction_reads_whole() {
        // 157 frames of 105 bytes: the first read fills the whole space
        // it is given and ends 4 bytes into the last frame.
        let frames: Vec<Vec<u8>> = (0..157u8).map(|i| frame(i, &[i; 100])).collect();
        let wire = frames.concat();
        let (head, tail) = wire.split_at(FrameBuf::READ_CHUNK);
        let mut fb = FrameBuf::new();
        assert_eq!(
            fb.fill_from(&mut &head[..]).expect("read"),
            (FrameBuf::READ_CHUNK, true),
            "a read that fills its space says more may be waiting"
        );
        let mut got = peel(&mut fb);
        assert_eq!(got.len(), 156);
        assert!(!fb.at_boundary());
        // The next read first moves the 4 unparsed bytes to the front.
        assert_eq!(fb.fill_from(&mut &tail[..]).expect("read"), (101, false));
        assert_eq!((fb.start, fb.end), (0, 105), "compacted to the front");
        got.extend(peel(&mut fb));
        assert!(fb.at_boundary());
        let want: Vec<(u8, Vec<u8>)> = (0..157u8).map(|i| (i, vec![i; 100])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = sys::Epoll::new().expect("epoll");
        let efd = sys::EventFd::new().expect("eventfd");
        ep.add(efd.fd(), 42, sys::EPOLLIN).expect("add");
        let mut events = vec![sys::EpollEvent::default(); 4];
        // Not signalled: times out empty.
        assert_eq!(ep.wait(&mut events, 0), 0);
        efd.signal();
        let n = ep.wait(&mut events, 1000);
        assert_eq!(n, 1);
        assert_eq!(events.first().map(sys::EpollEvent::token), Some(42));
        // Drained: quiesces again (level-triggered would re-report).
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0), 0);
    }

    #[test]
    fn mailbox_delivery_signals_and_collects() {
        let mb = IoMailbox::new().expect("mailbox");
        let (client, server) = loopback_pair();
        mb.deliver(7, server);
        let ep = sys::Epoll::new().expect("epoll");
        ep.add(mb.wake.fd(), WAKE_TOKEN, sys::EPOLLIN).expect("add");
        let mut events = vec![sys::EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 1000), 1);
        let mut streams = Vec::new();
        mb.collect(&mut streams);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams.first().map(|(id, _)| *id), Some(7));
        drop(client);
    }
}
