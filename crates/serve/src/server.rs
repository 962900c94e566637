//! The server: epoll event-loop threads, periodic telemetry snapshots,
//! and graceful drain.
//!
//! Thread model (DESIGN.md §8): a small fixed pool of event-loop threads,
//! `min(io_threads, shards)` of them, each runs a nonblocking epoll loop
//! (`event_loop.rs`) and owns the shards `s` with `s % loops == i`.
//! Thread 0 owns the listener, numbers each accepted connection (the
//! number is its session id and fixes its shard, `id % shards`) and hands
//! it to the thread that owns that shard through an eventfd-backed
//! mailbox. Connection state (its one stream, frame reassembly buffer and
//! session) lives in the owning thread's slab keyed by the epoll token,
//! and is freed as soon as the session retires — there is no
//! per-connection thread and no grow-only registry to leak. There are no
//! worker threads either: after each `epoll_wait` batch, a loop runs the
//! batched decision windows of its shards, pooling same-key frozen
//! sessions through a single shared forward. The only other thread is the
//! snapshotter, when one is configured.
//!
//! Shutdown is a drain, not an abort: wake every event-loop thread, which
//! stops accepting, half-closes every connection (`shutdown(SHUT_RD)`),
//! enqueues a final `Bye` per session, and drives its shards until their
//! queues are empty — every in-flight request gets a `Decision` or
//! `TimedOut` reply before the process exits with a final snapshot.

use crate::event_loop::{IoCtx, IoLoop, IoMailbox};
use crate::session::ModelBuilder;
use crate::shard::VisitCfg;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (tests/bench).
    pub addr: String,
    /// Shard count: connection `id` (its session id) belongs to shard
    /// `id % shards`, each shard is owned by one event loop, and a pooled
    /// window draws only on one shard's sessions.
    pub shards: usize,
    /// Maximum decision requests drained per session visit — the upper
    /// bound of the microbatch window. 1 forces batch-of-1 serving.
    pub max_batch: usize,
    /// Bounded per-session queue capacity (commands). Accesses beyond it
    /// answer `Busy`; events beyond it are dropped.
    pub queue_cap: usize,
    /// Where periodic JSONL telemetry snapshots go (`None` disables).
    pub snapshot_path: Option<PathBuf>,
    /// Interval between periodic snapshots.
    pub snapshot_every: Duration,
    /// Epoll event-loop thread count, capped at `shards`: loop `i` of
    /// `min(io_threads, shards)` owns the shards `s` with
    /// `s % loops == i`, and a server asked for more loops than shards
    /// runs one per shard. Thread 0 additionally owns the listener; these
    /// threads also run every decision window.
    pub io_threads: usize,
    /// Batch decision windows across same-key frozen sessions into one
    /// shared forward per visit (up to 4096 rows, or `max_batch` when
    /// larger).
    pub cross_session: bool,
    /// Directory for model checkpoints: sessions save on `Bye` and new
    /// same-key sessions warm-start from the latest file (`None`
    /// disables both).
    pub checkpoint_dir: Option<PathBuf>,
    /// Serve every frozen window through the int8 quantized datapath
    /// (`--quantize-frozen`), whether it pools sessions or not and
    /// whatever cache events it carries. Deterministic, but not
    /// bit-identical to the default f32 path; off by default.
    pub quantize_frozen: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            max_batch: 64,
            queue_cap: 256,
            snapshot_path: None,
            snapshot_every: Duration::from_secs(5),
            io_threads: 2,
            cross_session: true,
            checkpoint_dir: None,
            quantize_frozen: false,
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts the threads without a drain; call `shutdown` for the graceful
/// path.
pub struct Server {
    addr: SocketAddr,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
    snap_stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
    mailboxes: Arc<Vec<IoMailbox>>,
    io_threads: Vec<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start all threads. `builder` maps a Hello's model name to
    /// a [`SessionModel`](crate::SessionModel) (see [`SessionModel::default_builder`](crate::SessionModel::default_builder)).
    pub fn start(cfg: ServeConfig, builder: ModelBuilder) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let telemetry = Arc::new(Telemetry::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let snap_stop = Arc::new(AtomicBool::new(false));
        let n_shards = cfg.shards.max(1);
        // A loop that owned no shard would never get a connection.
        let loops = cfg.io_threads.clamp(1, n_shards);
        let mailboxes: Arc<Vec<IoMailbox>> = Arc::new(
            (0..loops)
                .map(|_| IoMailbox::new())
                .collect::<std::io::Result<Vec<_>>>()?,
        );
        let ctx = Arc::new(IoCtx {
            n_shards,
            visit: VisitCfg {
                max_batch: cfg.max_batch.max(1),
                cross_session: cfg.cross_session,
                checkpoint_dir: cfg.checkpoint_dir.clone(),
                quantize_frozen: cfg.quantize_frozen,
            },
            builder,
            telemetry: Arc::clone(&telemetry),
            queue_cap: cfg.queue_cap.max(1),
            shutdown: Arc::clone(&shutdown),
        });
        let mut listener = Some(listener);
        let event_loops = (0..loops)
            .map(|i| {
                let l = if i == 0 { listener.take() } else { None };
                IoLoop::new(i, l, Arc::clone(&mailboxes), Arc::clone(&ctx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let io_threads = event_loops
            .into_iter()
            .map(|lp| std::thread::spawn(move || lp.run()))
            .collect();

        let snapshotter = cfg.snapshot_path.clone().map(|path| {
            let telemetry = Arc::clone(&telemetry);
            let stop = Arc::clone(&snap_stop);
            let every = cfg.snapshot_every;
            std::thread::spawn(move || snapshot_loop(&path, &telemetry, &stop, every))
        });

        Ok(Server {
            addr,
            cfg,
            shutdown,
            snap_stop,
            telemetry,
            mailboxes,
            io_threads,
            snapshotter,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live telemetry.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Request shutdown from another thread (e.g. a signal handler watcher)
    /// without consuming the server. Wakes every I/O thread so the flag is
    /// observed immediately rather than at the next epoll timeout.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for mb in self.mailboxes.iter() {
            mb.wake();
        }
    }

    /// `true` once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Graceful drain: wake and join the event-loop threads (each
    /// half-closes its connections, enqueues a final `Bye` per session,
    /// and drives its shards until their queues are empty), stop the
    /// snapshotter, and return the final telemetry snapshot (also
    /// appended to the JSONL file when one is configured).
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.request_shutdown();
        for h in self.io_threads.drain(..) {
            let _ = h.join();
        }
        self.snap_stop.store(true, Ordering::Release);
        if let Some(h) = self.snapshotter.take() {
            let _ = h.join();
        }
        let snap = self.telemetry.snapshot();
        if let Some(path) = &self.cfg.snapshot_path {
            append_snapshot(path, &snap);
        }
        snap
    }
}

/// Append periodic snapshots to a JSONL file until told to stop.
fn snapshot_loop(path: &PathBuf, telemetry: &Telemetry, stop: &AtomicBool, every: Duration) {
    let mut last = Instant::now();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(25));
        if last.elapsed() >= every {
            append_snapshot(path, &telemetry.snapshot());
            last = Instant::now();
        }
    }
}

fn append_snapshot(path: &PathBuf, snap: &TelemetrySnapshot) {
    let Ok(line) = serde_json::to_string(snap) else {
        return;
    };
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    if let Ok(mut f) = file {
        let _ = writeln!(f, "{line}");
    }
}

/// Process-wide SIGINT/SIGTERM latch for the serve binaries: `install`
/// registers a minimal async-signal-safe handler (one atomic store);
/// `triggered` is polled by the binary's main loop, which then calls
/// [`Server::shutdown`] for the graceful drain. Tests drive `shutdown`
/// directly and never touch this.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Register the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        // No libc crate in the vendored workspace: declare signal(2)
        // directly. The handler only stores an atomic flag, which is
        // async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        // SAFETY: `on_signal` is a valid extern "C" fn for the whole
        // program lifetime and only stores an atomic (async-signal-safe);
        // signal(2) takes no pointers beyond the handler itself.
        // lint:allow(unsafe-undocumented): one isolated signal(2) registration — not worth widening rules::UNSAFE_ALLOWED_FILES
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    /// `true` once a registered signal has fired.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionModel;

    #[test]
    fn server_starts_and_drains_with_no_clients() {
        let server =
            Server::start(ServeConfig::default(), SessionModel::default_builder()).expect("starts");
        assert_ne!(server.local_addr().port(), 0);
        let snap = server.shutdown();
        assert_eq!(snap.sessions_opened, 0);
        assert_eq!(snap.decisions, 0);
    }

    #[test]
    fn final_snapshot_lands_in_jsonl() {
        let dir = std::env::temp_dir().join(format!("resemble_serve_test_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("telemetry.jsonl");
        let _ = std::fs::remove_file(&path);
        let cfg = ServeConfig {
            snapshot_path: Some(path.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, SessionModel::default_builder()).expect("starts");
        let _ = server.shutdown();
        let text = std::fs::read_to_string(&path).expect("snapshot file exists");
        let last = text.lines().last().expect("at least one line");
        let snap = serde_json::from_str(last).expect("valid JSON");
        assert_eq!(snap.get("decisions").and_then(|v| v.as_u64()), Some(0));
        let _ = std::fs::remove_file(&path);
    }
}
