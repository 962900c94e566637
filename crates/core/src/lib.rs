//! # resemble-core
//!
//! The paper's primary contribution: ReSemble, a reinforcement-learning
//! ensemble framework for data prefetching (SC 2022). The framework wraps
//! a bank of input prefetchers (BO, SPP, ISB, Domino by default — Table
//! II), observes their per-access suggestions, and learns online which
//! suggestion to issue:
//!
//! * [`ResembleMlp`] — the DQN controller: hash-and-norm preprocessing
//!   (Eq. 6), a shallow policy/target MLP pair with role switching
//!   (§IV-E), replay memory with *lazy sampling* (§IV-D), decaying
//!   ε-greedy selection (Eq. 8).
//! * [`ResembleTabular`] — the hardware-lean tabular variant (§IV-F):
//!   hashed states (Eq. 12), tokenized Q-table (Fig 5), pending-buffer
//!   lazy rewards (Eq. 13).
//! * [`SbpE`] — the extended Sandbox Prefetcher baseline (§V-C1).
//! * [`overhead`] — the analytic latency/storage models of §VI-A.
//!
//! ```
//! use resemble_core::ResembleMlp;
//! use resemble_prefetch::Prefetcher;
//! use resemble_trace::MemAccess;
//!
//! let mut ensemble = ResembleMlp::from_paper(42);
//! let mut out = Vec::new();
//! ensemble.on_access(&MemAccess::load(0, 0x400, 0x1000), false, &mut out);
//! assert!(out.len() <= 1); // one selected suggestion or none (NP)
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod baselines;
pub mod config;
pub mod ensemble;
pub mod oracle;
pub mod overhead;
pub mod preprocess;
pub mod replay;

pub use agent::{Datapath, DqnAgent, TabularAgent};
pub use baselines::SbpE;
pub use config::ResembleConfig;
pub use ensemble::{EnsembleStats, ResembleMlp, ResembleTabular};
pub use oracle::{oracle_selection, OracleReport};
pub use replay::{ReplayMemory, TransitionView};
