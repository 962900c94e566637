//! The rule set. Each rule is a pure function from a [`FileCtx`] to
//! diagnostics; suppression (inline `lint:allow` escapes) is applied by
//! the driver in `lib.rs`, so rules stay side-effect free and
//! individually testable on fixture snippets.
//!
//! Every rule's scope is declared here and nowhere else: `lint.toml`
//! pins only the frozen reference engine. The workspace test
//! `scope_tables_name_live_files` checks that every path below exists.

use crate::diag::Diagnostic;
use crate::scanner::FileCtx;

pub mod blocking_event_loop;
pub mod counter_pairing;
pub mod float_eq;
pub mod lock_order;
pub mod lossy_cast;
pub mod nondet_iteration;
pub mod panic_hot_path;
pub mod reference_frozen;
pub mod simd_kernel;
pub mod thread_outside_runtime;
pub mod unsafe_undocumented;
pub mod wall_clock;

/// Crates whose code feeds simulated statistics, action selection, or
/// eviction order: nondeterministic iteration here can silently change
/// paper figures.
pub const DETERMINISM_CRATES: &[&str] = &["sim", "prefetch", "core", "stats"];

/// The simulator hot path: files where a panic aborts a multi-hour run
/// and a lossy cast corrupts an address or cycle count.
pub const HOT_FILES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/multicore.rs",
    "crates/sim/src/dram.rs",
];

/// The batched controller kernels: lossy casts here corrupt matrix
/// indices and batch offsets just as silently as on the simulator hot
/// path, so `lossy-cast` covers them too. Kept separate from
/// [`HOT_FILES`] because `panic-in-hot-path` does *not* apply — shape
/// assertions in the kernels are the contract, not a liability.
pub const NN_KERNEL_FILES: &[&str] = &[
    "crates/nn/src/matrix.rs",
    "crates/nn/src/mlp.rs",
    "crates/nn/src/activation.rs",
    "crates/nn/src/simd.rs",
    "crates/nn/src/quant.rs",
];

/// The one module allowed to contain `std::arch`/`core::arch` intrinsics
/// and `target_feature` dispatch: every vectorized loop lives in
/// `simd.rs`, next to its scalar twin and the bitwise tests, behind the
/// runtime-selected `KernelBackend`. Everything else goes through the
/// safe wrappers (`simd-outside-kernel`).
pub const SIMD_KERNEL_FILES: &[&str] = &["crates/nn/src/simd.rs"];

/// The serving datapath: files every decision request crosses. A panic
/// here takes down the whole server, not just one session, so
/// `panic-in-hot-path` covers them alongside [`HOT_FILES`].
pub const SERVE_HOT_FILES: &[&str] = &[
    "crates/serve/src/shard.rs",
    "crates/serve/src/batcher.rs",
    "crates/serve/src/telemetry.rs",
    "crates/serve/src/event_loop.rs",
];

/// The only files allowed to contain `unsafe` at all, each because its
/// job is unsafe code (`unsafe-undocumented`):
/// - `event_loop.rs`: raw epoll/eventfd/close syscalls through `extern
///   "C"` declarations, because the offline workspace vendors no libc
///   crate;
/// - `simd.rs`: `target_feature` SIMD kernels behind runtime-detected
///   dispatch, the only sanctioned intrinsics module;
/// - `align.rs`: `AlignedVec`'s manual 64-byte-aligned allocation, so
///   matrix rows 16 elements apart start on a cache-line boundary and do
///   not straddle an extra line (the kernels still issue unaligned loads).
///
/// Isolated unsafe outside this set takes an inline
/// `lint:allow(unsafe-undocumented)` escape with a reason instead.
pub const UNSAFE_ALLOWED_FILES: &[&str] = &[
    "crates/serve/src/event_loop.rs",
    "crates/nn/src/simd.rs",
    "crates/nn/src/align.rs",
];

/// Files the epoll thread executes: nothing here may block — no
/// `.lock()`, `thread::sleep`, blocking `recv()`, or unbounded
/// `write_all` (`blocking-in-event-loop`).
/// - `event_loop.rs`: accept, frame reads, and connection lifecycle;
/// - `shard.rs`: the decision visits each event loop runs over its own
///   shards after its `epoll_wait` batch, and `send`'s bounded stall.
pub const EVENT_LOOP_HOT_FILES: &[&str] = &[
    "crates/serve/src/event_loop.rs",
    "crates/serve/src/shard.rs",
];

/// Crates covered by the cross-file concurrency rules (`lock-order`,
/// `counter-pairing`): the serving stack is the only place the workspace
/// takes real locks or counts real resources.
pub const LOCK_ORDER_CRATES: &[&str] = &["serve"];

/// The sanctioned narrowing-conversion boundary: lossy casts are migrated
/// to the checked helpers defined here, so the module itself is exempt.
pub const CONVERT_FILE: &str = "crates/sim/src/convert.rs";

/// The crates allowed to read wall-clock time: `bench` measures the host,
/// `serve` handles real deadlines and latency telemetry for live clients,
/// and `runtime` stamps job durations into the run journal and progress
/// line. None of the three feeds simulated statistics.
pub const WALL_CLOCK_CRATES: &[&str] = &["bench", "serve", "runtime"];

/// The crates whose *job* is thread management — the only places raw
/// `std::thread::{spawn, scope, Builder}` may appear
/// (`thread-outside-runtime`): `runtime` is the deterministic sweep
/// executor (ordered merge, per-key seeds, panic isolation — DESIGN.md
/// §9) and `serve` owns the epoll event-loop threads (§8).
/// Everything else fans work out through `resemble_runtime::Sweep`.
pub const THREAD_ALLOWED_CRATES: &[&str] = &["runtime", "serve"];

/// Individual files outside [`THREAD_ALLOWED_CRATES`] sanctioned to
/// create threads: the serve-stack bench binaries, whose client threads
/// generate real-time traffic and have no determinism contract to
/// protect.
/// - `serve.rs`: the standalone server harness, with a ctrl-c watcher and
///   probe client threads against a live socket;
/// - `serve_bench.rs`: load-driver client threads hammering the server
///   over loopback, measuring wall-clock throughput, not simulated stats.
pub const THREAD_ALLOWED_FILES: &[&str] = &[
    "crates/bench/src/bin/serve.rs",
    "crates/bench/src/bin/serve_bench.rs",
];

/// Paths where `==`/`!=` on floats is flagged (learning math: silent
/// NaN/rounding surprises change Q-values).
pub fn float_eq_in_scope(ctx: &FileCtx) -> bool {
    ctx.crate_name == "nn" || ctx.path.starts_with("crates/core/src/agent/")
}

/// Names and one-line descriptions of every rule, for `--list-rules` and
/// the docs.
pub const RULES: &[(&str, &str)] = &[
    (
        "nondeterministic-iteration",
        "std HashMap/HashSet (randomized hasher) in determinism-critical crates; use FxHashMap/FxHashSet or BTreeMap/BTreeSet",
    ),
    (
        "wall-clock-in-sim",
        "std::time::{Instant, SystemTime} outside crates/bench, crates/serve, and crates/runtime; simulated time must come from the engine",
    ),
    (
        "panic-in-hot-path",
        "unwrap/expect/panic!/unreachable!/literal indexing in the simulator hot path or the serve datapath",
    ),
    (
        "lossy-cast",
        "narrowing `as` casts on the hot path or in the nn batch kernels; use the checked helpers in crates/sim/src/convert.rs",
    ),
    (
        "float-eq",
        "`==`/`!=` on f32/f64 in learning code; compare against an epsilon or restructure",
    ),
    (
        "reference-engine-frozen",
        "SHA-256 of crates/sim/src/reference.rs must match the hash committed in lint.toml",
    ),
    (
        "simd-outside-kernel",
        "std::arch/core::arch intrinsics, target_feature, or is_x86_feature_detected! outside the SIMD kernel module (crates/nn/src/simd.rs); use the resemble_nn::simd wrappers",
    ),
    (
        "unsafe-undocumented",
        "`unsafe` without a `// SAFETY:` comment directly above, or outside the unsafe-allowed files (event loop syscalls, SIMD kernels, AlignedVec)",
    ),
    (
        "lock-order",
        "Mutex/RwLock acquisition cycles or re-acquisition across crates/serve: the inter-lock graph must stay acyclic (potential deadlock)",
    ),
    (
        "blocking-in-event-loop",
        ".lock()/thread::sleep/blocking recv()/write_all in the event-loop hot files; the epoll thread must never block",
    ),
    (
        "counter-pairing",
        "*_opened/*_closed and *_acquired/*_released telemetry counters must both have a live fetch_add site (churn leak invariants)",
    ),
    (
        "thread-outside-runtime",
        "std::thread::{spawn, scope, Builder} outside crates/runtime, crates/serve, and the serve load-driver bench binaries; fan out through resemble_runtime::Sweep",
    ),
];

/// Run every per-file rule over one file.
pub fn check_file(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    nondet_iteration::check(ctx, out);
    wall_clock::check(ctx, out);
    panic_hot_path::check(ctx, out);
    lossy_cast::check(ctx, out);
    float_eq::check(ctx, out);
    simd_kernel::check(ctx, out);
    thread_outside_runtime::check(ctx, out);
    unsafe_undocumented::check(ctx, out);
    blocking_event_loop::check(ctx, out);
}

/// Run the cross-file rules over the whole workspace: build the symbol /
/// occurrence index once, then hand it to each workspace-scoped rule.
pub fn check_workspace(ctxs: &[FileCtx], out: &mut Vec<Diagnostic>) {
    let idx = crate::index::build(ctxs);
    lock_order::check(&idx, out);
    counter_pairing::check(&idx, out);
}
