//! # resemble-serve
//!
//! An online, batched prefetch-decision service over the ReSemble
//! ensemble — the serving layer for the ROADMAP's production north star.
//! Clients stream memory accesses over a length-prefixed binary protocol
//! on plain TCP ([`protocol`]); a small pool of epoll event-loop threads
//! parses frames from nonblocking sockets (no thread per connection, and
//! per-connection state is freed as soon as its session retires); each
//! connection is one session with its own ensemble/prefetcher state
//! ([`session`]), partitioned across shards that each belong to one
//! event loop (`shard`). After each `epoll_wait` batch, the thread that
//! owns a shard, and so read its requests, drains whatever a session has
//! queued — up to `max_batch` accesses, with the cache events between
//! them — into one plan (`batcher`), serves the plan where the session
//! lives, and writes the replies itself. A learning session's plan is
//! one `ResembleMlp::on_access_window` call, one `Mlp::forward_batch`
//! per window between role switches; a frozen session's plan is one
//! window, and the frozen same-`(model, seed, fast)` sessions ready on a
//! shard share one forward per visit through the heading session's net
//! (`shard`). That keeps
//! the GEMM kernels on the serving hot path while staying
//! **bit-identical** to an offline sequential run of the same stream, no
//! matter how sessions interleave. Session models can checkpoint to disk
//! on `Bye` and warm-start the next same-key Hello
//! (`ServeConfig::checkpoint_dir`).
//!
//! The production envelope: bounded per-session queues with explicit
//! `Busy` backpressure, per-request deadlines answered with `TimedOut`,
//! graceful drain on shutdown (every queued request gets a reply before
//! exit), and lock-free latency/batch-size telemetry snapshotted as JSONL
//! ([`telemetry`]).
//!
//! ```no_run
//! use resemble_serve::{ServeClient, ServeConfig, Server, SessionModel};
//! use resemble_trace::MemAccess;
//!
//! let server = Server::start(ServeConfig::default(), SessionModel::default_builder())?;
//! let mut client = ServeClient::connect(server.local_addr())?;
//! client.hello("resemble", 42, true)?;
//! let reply = client.request_decision(0, 0, MemAccess::load(0, 0x400, 0x1000), false)?;
//! println!("{reply:?}");
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

mod batcher;
pub mod client;
mod event_loop;
pub mod protocol;
pub mod server;
pub mod session;
mod shard;
pub mod telemetry;

pub use client::ServeClient;
pub use protocol::{EventKind, Reply, Request};
pub use server::{signal, ServeConfig, Server};
pub use session::{offline_decisions, ModelBuilder, SessionModel};
pub use telemetry::{Telemetry, TelemetrySnapshot};
