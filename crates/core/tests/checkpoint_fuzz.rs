//! Fuzzes `DqnAgent::restore_checkpoint` with damaged copies of a valid
//! `save_checkpoint` stream. No case may panic, every truncation must
//! fail, and a failed restore must leave the agent's parameters as they
//! were: the two embedded networks are both read and checked before
//! either is applied.

use proptest::prelude::*;
use resemble_core::{DqnAgent, ResembleConfig};

/// Checkpoint of an agent at `seed`, and a fresh agent at another seed
/// (different parameters) to restore it into. A 2-unit hidden layer keeps
/// the stream at 332 bytes, 40% of them header, so flips often land in a
/// header.
fn setup(seed: u64) -> (Vec<u8>, DqnAgent) {
    let cfg = ResembleConfig {
        hidden_dim: 2,
        ..ResembleConfig::default()
    };
    let mut buf = Vec::new();
    DqnAgent::new(cfg, seed).save_checkpoint(&mut buf).unwrap();
    (buf, DqnAgent::new(cfg, seed ^ 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_checkpoint_fails_without_touching_the_agent(
        seed in 0u64..8,
        cut in any::<usize>(),
    ) {
        let (full, mut agent) = setup(seed);
        let before = agent.param_bits();
        let cut = cut % full.len();
        prop_assert!(
            agent.restore_checkpoint(&mut &full[..cut]).is_err(),
            "cut at {cut} restored"
        );
        prop_assert_eq!(agent.param_bits(), before);
    }

    #[test]
    fn flipped_checkpoint_restores_or_leaves_the_agent_unchanged(
        seed in 0u64..8,
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (mut bytes, mut agent) = setup(seed);
        let before = agent.param_bits();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        if agent.restore_checkpoint(&mut bytes.as_slice()).is_err() {
            prop_assert_eq!(agent.param_bits(), before, "failed restore at {}", at);
        }
    }
}
