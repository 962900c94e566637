//! RL agents: the MLP/DQN controller and the tabular Q-learning variant.

pub mod dqn;
pub(crate) mod ledger;
pub mod tabular;

pub use dqn::{Datapath, DqnAgent};
pub use tabular::TabularAgent;
