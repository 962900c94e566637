//! End-to-end and per-layer benchmark of the ReSemble reproduction: the
//! Figs 8–10 harness (`runner::run_matrix`) on three simulation workloads
//! and the `resemble-serve` server under an open-loop load. See
//! `README.md` beside this crate for the workloads and metrics.
//!
//! Every layer is timed from outside, through adapters around the public
//! traits and constructors; nothing in the measured program is changed.

pub mod layers;
pub mod report;
pub mod serve;
pub mod sim;
