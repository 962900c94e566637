//! Determinism regression: the whole pipeline is seeded, so two runs with
//! identical inputs must be *bit-identical* — same simulator statistics
//! and same learned Q-values. This is the executable counterpart of the
//! `nondeterministic-iteration` / `wall-clock-in-sim` lint rules: the lint
//! proves no randomized-hasher iteration or host-time read exists in the
//! critical crates, and this test proves the end-to-end result actually
//! reproduces.

use resemble::prelude::*;

const WARMUP: usize = 10_000;
const MEASURE: usize = 25_000;
const APP: &str = "433.milc";
const SEED: u64 = 7;

/// One fresh MLP-controller run: stats plus a Q-value probe on a fixed
/// post-training state, followed by the bits of every parameter of both
/// networks.
fn run_mlp() -> (SimStats, Vec<u32>) {
    let cfg = ResembleConfig::fast();
    let probe: Vec<f32> = (0..cfg.state_dim)
        .map(|i| 0.125 * (i as f32 + 1.0))
        .collect();
    let mut ctl = ResembleMlp::new(paper_bank(), cfg, SEED);
    let mut engine = Engine::new(SimConfig::harness());
    let mut src = app_by_name(APP, SEED).expect("known app").source;
    let stats = engine.run(&mut *src, Some(&mut ctl), WARMUP, MEASURE);
    // Compare float bits, not values: determinism means bit-identity.
    let mut q: Vec<u32> = ctl
        .agent_mut()
        .q_values(&probe)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    q.extend(ctl.agent().param_bits());
    (stats, q)
}

/// One fresh tabular-controller run with `hash_bits`-bit hashing, with or
/// without the PC feature: stats plus the Q-rows of every state token.
fn run_tabular(hash_bits: u32, with_pc: bool) -> (SimStats, Vec<u32>) {
    let cfg = ResembleConfig {
        with_pc,
        ..ResembleConfig::fast()
    };
    let mut ctl = ResembleTabular::new(paper_bank(), cfg, hash_bits, SEED);
    let mut engine = Engine::new(SimConfig::harness());
    let mut src = app_by_name(APP, SEED).expect("known app").source;
    let stats = engine.run(&mut *src, Some(&mut ctl), WARMUP, MEASURE);
    // Tokens are allocated lazily, in first-seen order; a deterministic
    // run therefore yields the same token count AND the same rows.
    let tokens = ctl.agent().unique_states() as u32;
    let q = (0..tokens)
        .flat_map(|t| {
            ctl.agent()
                .q_row(t)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect();
    (stats, q)
}

/// FNV-1a digest of a run's `SimStats` (its `Debug` form) and Q-row bits.
fn digest(stats: &SimStats, q: &[u32]) -> u64 {
    let bytes = format!("{stats:?}")
        .into_bytes()
        .into_iter()
        .chain(q.iter().flat_map(|w| w.to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn mlp_controller_runs_are_bit_identical() {
    // Two runs of one build must agree, and both must match the pinned
    // digest, so a change to the SGD training path fails here even when
    // it is deterministic.
    let (stats_a, q_a) = run_mlp();
    let (stats_b, q_b) = run_mlp();
    assert_eq!(
        format!("{stats_a:?}"),
        format!("{stats_b:?}"),
        "SimStats diverged between identical ReSemble-MLP runs"
    );
    assert_eq!(q_a, q_b, "Q-values diverged between identical runs");
    // Sanity: the probe actually trained (all-zero Q would vacuously pass).
    assert!(
        q_a.iter().any(|&b| b != 0),
        "probe Q-values are all zero; the determinism check is vacuous"
    );
    let d = digest(&stats_a, &q_a);
    assert_eq!(
        d, 0xac88_6184_f631_2430,
        "ReSemble-MLP digest {d:#018x} moved from its pin"
    );
}

#[test]
fn tabular_controller_runs_are_bit_identical() {
    // Two runs of one build must agree, and both must match the digest
    // pinned for this configuration, so a behaviour change to the tabular
    // agent fails here even when it is deterministic.
    for (hash_bits, with_pc, pinned) in [
        (4, false, 0x3be5_3265_cdcf_9379),
        (8, true, 0x58a8_b7bd_78e5_2143),
    ] {
        let (stats_a, q_a) = run_tabular(hash_bits, with_pc);
        let (stats_b, q_b) = run_tabular(hash_bits, with_pc);
        assert_eq!(
            format!("{stats_a:?}"),
            format!("{stats_b:?}"),
            "SimStats diverged between identical ReSemble-T runs ({hash_bits}-bit, pc={with_pc})"
        );
        assert_eq!(q_a, q_b, "Q-rows diverged between identical runs");
        assert!(
            q_a.iter().any(|&b| b != 0),
            "probe Q-rows are all zero; the determinism check is vacuous"
        );
        let d = digest(&stats_a, &q_a);
        assert_eq!(
            d, pinned,
            "ReSemble-T ({hash_bits}-bit, pc={with_pc}) digest {d:#018x} moved from its pin"
        );
    }
}

#[test]
fn served_session_is_bit_identical_to_offline_run() {
    // Serving the same access stream over the socket — decided in
    // microbatches by the event loop that owns the session's shard — must
    // leave the controller in the same state and issue the same prefetches
    // as the plain sequential run, including the final network parameters
    // bit for bit.
    use resemble::serve::{offline_decisions, ServeClient, ServeConfig, Server, SessionModel};

    let trace: Vec<(MemAccess, bool)> = {
        let mut app = app_by_name(APP, SEED).expect("known app");
        app.source
            .collect_n(2_000)
            .into_iter()
            .enumerate()
            .map(|(i, a)| (a, i % 4 != 0))
            .collect()
    };

    let mut offline_model = SessionModel::build("resemble", SEED, true).expect("model builds");
    let offline = offline_decisions(&mut offline_model, &trace);

    let server = Server::start(ServeConfig::default(), SessionModel::default_builder())
        .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.hello("resemble", SEED, true).expect("hello");
    let mut served: Vec<Vec<u64>> = vec![Vec::new(); trace.len()];
    let mut next_id = 0u32;
    for chunk in trace.chunks(32) {
        for (access, hit) in chunk {
            client.queue_access(next_id, 0, *access, *hit);
            next_id += 1;
        }
        client.flush().expect("flush");
        for _ in 0..chunk.len() {
            match client.recv().expect("recv").expect("reply") {
                resemble::serve::Reply::Decision { req_id, prefetches } => {
                    served[req_id as usize] = prefetches;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    client.queue_bye();
    client.flush().expect("flush bye");
    let _ = client.recv();
    let _ = server.shutdown();

    assert_eq!(
        served, offline,
        "served decisions diverged from offline run"
    );
}

#[test]
fn baseline_engine_runs_are_bit_identical() {
    // No controller in the loop: the engine + generator alone must also
    // reproduce exactly (catches nondeterminism below the ensemble layer).
    let run = || {
        let mut engine = Engine::new(SimConfig::harness());
        let mut src = app_by_name(APP, SEED).expect("known app").source;
        engine.run(&mut *src, None, WARMUP, MEASURE)
    };
    assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
}
