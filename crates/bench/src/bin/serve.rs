//! `resemble-serve` front-end: a long-running prefetch-decision service
//! over the full bench prefetcher registry.
//!
//! ```text
//! serve --addr 127.0.0.1:7071 --shards 4 --max-batch 64 --queue-cap 256 \
//!       --io-threads 2 --checkpoint-dir ckpts/ \
//!       --snapshot telemetry.jsonl --snapshot-secs 5
//! ```
//!
//! Each of the `--shards` belongs to one of `min(--io-threads, --shards)`
//! event-loop threads, which reads, decides and answers every request of
//! the shard's sessions; more threads than shards would sit idle, so the
//! server starts no more. `--checkpoint-dir` enables warm restarts: every MLP session saves its
//! learned state on Bye, and a later Hello with the same
//! `(model, seed, fast)` resumes from the saved file. Cross-session
//! batching of frozen same-key sessions is on by default; disable with
//! `--no-cross-session`. `--quantize-frozen` opts every frozen window
//! into the int8 quantized datapath: deterministic (bit-identical across
//! backends and reruns) but not bit-identical to f32 decisions.
//!
//! The model names a client's Hello can request are the serve registry
//! ("resemble", "resemble_frozen", ...) plus everything `factory::make`
//! knows (isb, domino, voyager, resemble_t, ...). SIGINT/SIGTERM trigger
//! the graceful drain: stop accepting, flush every session queue (each
//! in-flight request gets a Decision or TimedOut reply), then exit with a
//! final telemetry snapshot on stdout.

use resemble_bench::cli::Options;
use resemble_bench::factory;
use resemble_serve::{signal, ModelBuilder, ServeConfig, Server, SessionModel};
use std::sync::Arc;
use std::time::Duration;

/// A builder over the union of the serve registry (which routes the MLP
/// controller through the batched decision-window path) and the bench
/// factory (everything else, served sequentially).
fn full_builder() -> ModelBuilder {
    Arc::new(|model: &str, seed: u64, fast: bool| {
        SessionModel::build(model, seed, fast).or_else(|err| {
            factory::try_make(model, seed, fast)
                .map(SessionModel::Boxed)
                .ok_or(err)
        })
    })
}

fn main() {
    let opts = Options::from_env_checked(&[
        "addr",
        "shards",
        "max-batch",
        "queue-cap",
        "snapshot",
        "snapshot-secs",
        "io-threads",
        "no-cross-session",
        "checkpoint-dir",
        "quantize-frozen",
    ]);
    let cfg = ServeConfig {
        addr: opts.str("addr").unwrap_or("127.0.0.1:7071").to_string(),
        shards: opts.usize("shards", 2),
        max_batch: opts.usize("max-batch", 64),
        queue_cap: opts.usize("queue-cap", 256),
        snapshot_path: opts.str("snapshot").map(Into::into),
        snapshot_every: Duration::from_secs(opts.u64("snapshot-secs", 5)),
        io_threads: opts.usize("io-threads", 2),
        cross_session: !opts.flag("no-cross-session"),
        checkpoint_dir: opts.str("checkpoint-dir").map(Into::into),
        quantize_frozen: opts.flag("quantize-frozen"),
    };
    signal::install();
    let server = match Server::start(cfg, full_builder()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "resemble-serve listening on {} (kernel backend: {})",
        server.local_addr(),
        resemble_nn::simd::dispatched()
    );
    while !signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("draining...");
    let snap = server.shutdown();
    match serde_json::to_string_pretty(&snap) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("warning: final snapshot serialization failed: {e}"),
    }
}
