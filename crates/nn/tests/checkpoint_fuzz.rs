//! Fuzzes `load_mlp_binary` with damaged copies of valid
//! `save_mlp_binary` output: every truncation must fail with an error,
//! and a single-byte flip must either fail with an error or load the same
//! architecture with at most one parameter changed — never panic.

use proptest::collection::vec;
use proptest::prelude::*;
use resemble_nn::{load_mlp_binary, save_mlp_binary, Activation, Mlp};

const ACTS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];

fn net(sizes: &[usize], act: usize, seed: u64) -> Mlp {
    Mlp::new(sizes, ACTS[act % ACTS.len()], seed)
}

fn encode(net: &Mlp) -> Vec<u8> {
    let mut buf = Vec::new();
    save_mlp_binary(&mut buf, net).unwrap();
    buf
}

fn bits(net: &Mlp) -> Vec<u32> {
    net.flat_params().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_checkpoint_is_an_error(
        sizes in vec(1usize..8, 2..5),
        act in 0usize..4,
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let full = encode(&net(&sizes, act, seed));
        let cut = cut % full.len();
        prop_assert!(load_mlp_binary(&mut &full[..cut]).is_err(), "cut at {cut} loaded");
    }

    #[test]
    fn flipped_checkpoint_fails_or_changes_one_parameter(
        sizes in vec(1usize..8, 2..5),
        act in 0usize..4,
        seed in any::<u64>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let original = net(&sizes, act, seed);
        let mut bytes = encode(&original);
        let at = at % bytes.len();
        bytes[at] ^= mask;
        if let Ok(loaded) = load_mlp_binary(&mut bytes.as_slice()) {
            prop_assert_eq!(loaded.sizes(), original.sizes());
            let changed = bits(&loaded)
                .iter()
                .zip(bits(&original))
                .filter(|&(a, b)| *a != b)
                .count();
            prop_assert!(changed <= 1, "flip at {at} changed {changed} parameters");
        }
    }
}
