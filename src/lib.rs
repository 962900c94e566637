//! # resemble
//!
//! Umbrella crate for the ReSemble reproduction (SC 2022: "ReSemble:
//! Reinforced Ensemble Framework for Data Prefetching"). Re-exports the
//! workspace crates under one roof so examples and downstream users can
//! depend on a single package:
//!
//! * [`trace`] — trace records, synthetic SPEC/GAP-like workload
//!   generators, autocorrelation analysis
//! * [`sim`] — ChampSim-like cache-hierarchy + OoO-core timing simulator
//! * [`nn`] — minimal MLP library (the controller network)
//! * [`prefetch`] — BO, SPP, ISB, Domino, VLDP, stride/stream, and a
//!   Voyager-like neural prefetcher
//! * [`core`] — the ReSemble RL ensemble framework itself (DQN and
//!   tabular controllers, lazy sampling, SBP(E) baseline)
//! * [`stats`] — metrics and reporting helpers
//! * [`serve`] — online prefetch-decision service (length-prefixed TCP
//!   protocol, epoll event loops that each own their shards of sessions
//!   and microbatch them, latency telemetry)
//!
//! ```
//! use resemble::prelude::*;
//!
//! let mut app = app_by_name("433.milc", 42).unwrap();
//! let trace = app.source.collect_n(100);
//! assert_eq!(trace.len(), 100);
//! ```

pub use resemble_core as core;
pub use resemble_nn as nn;
pub use resemble_prefetch as prefetch;
pub use resemble_serve as serve;
pub use resemble_sim as sim;
pub use resemble_stats as stats;
pub use resemble_trace as trace;

/// Common imports for examples and quick experiments.
pub mod prelude {
    pub use resemble_core::*;
    pub use resemble_prefetch::{
        paper_bank, voyager_bank, BestOffset, Domino, GhbDc, Isb, Markov, NeuralTemporalPrefetcher,
        NextLine, PredictionKind, Prefetcher, PrefetcherBank, Spp, Stems, Stms, Streamer,
        StridePrefetcher, Vldp,
    };
    pub use resemble_sim::MultiCoreEngine;
    pub use resemble_sim::{run_pair, Engine, PrefetchTiming, SimConfig, SimStats};
    pub use resemble_stats::{geo_mean, mean, Table};
    pub use resemble_trace::gen::{app_by_name, suite_by_name, TraceSource, SUITE_NAMES};
    pub use resemble_trace::{MemAccess, BLOCK_BITS, PAGE_BITS};
}
