//! Property-based tests of the core data-structure invariants (proptest).

use proptest::collection::vec;
use proptest::prelude::*;
use resemble::core::preprocess::fold_hash;
use resemble::core::ReplayMemory;
use resemble::nn::{Activation, Matrix, Mlp};
use resemble::prefetch::NextLine;
use resemble::prelude::*;
use resemble::sim::{Cache, Lookup, ReferenceEngine};
use resemble::trace::gen::VecSource;
use resemble::trace::io::{read_trace, write_trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fold_hash stays in range and is deterministic for any input.
    #[test]
    fn fold_hash_in_range(v in any::<u64>(), bits in 1u32..=32) {
        let h = fold_hash(v, bits);
        prop_assert!(h < (1u64 << bits));
        prop_assert_eq!(h, fold_hash(v, bits));
    }

    /// A cache never reports more lines than its capacity, and a filled
    /// block is immediately visible until evicted.
    #[test]
    fn cache_capacity_and_visibility(addrs in vec(any::<u64>(), 1..300)) {
        let mut cache = Cache::new("t", 8 * 4 * 64, 4); // 8 sets x 4 ways
        for &a in &addrs {
            cache.fill(a, false, false);
            prop_assert!(cache.contains(a), "just-filled block must be present");
            let hit = matches!(cache.access(a, false), Lookup::Hit { .. });
            prop_assert!(hit, "access to just-filled block must hit");
        }
    }

    /// Replay rewards are always 0 (NP), −1 (expired), or +k with
    /// 1 ≤ k ≤ number of issued blocks; valid transitions always carry a
    /// next state.
    #[test]
    fn replay_reward_invariants(
        ops in vec((any::<u8>(), any::<u8>()), 10..400),
        window in 2usize..32,
    ) {
        let mut m = ReplayMemory::new(64, window, 4);
        let mut assigned = Vec::new();
        let mut prev: Option<u64> = None;
        let mut ids = Vec::new();
        for (sel, blk) in ops {
            let blocks: Vec<u64> = match sel % 4 {
                0 => vec![],
                1 => vec![blk as u64],
                2 => vec![blk as u64, blk as u64 ^ 0x80],
                _ => vec![blk as u64, (blk as u64) + 300, (blk as u64) + 600],
            };
            let id = m.push(&[0.5; 4], (sel % 5) as usize, &blocks);
            if let Some(p) = prev {
                m.set_next_state(p, &[0.1; 4]);
            }
            prev = Some(id);
            ids.push((id, blocks.len()));
            m.on_access(blk as u64, &mut assigned);
        }
        for (id, n_blocks) in ids {
            if let Some(t) = m.get(id) {
                if let Some(r) = t.reward {
                    let ok = r == 0.0 || r == -1.0 || (r >= 1.0 && r <= n_blocks as f32);
                    prop_assert!(ok, "reward {r} for {n_blocks} blocks");
                }
                if t.is_valid() {
                    prop_assert!(t.next_state.is_some());
                }
            }
        }
    }

    /// The engine never panics, retires all instructions, and IPC stays in
    /// (0, width] for arbitrary short traces.
    #[test]
    fn engine_total_and_ipc_bounds(
        raw in vec((any::<u16>(), any::<u32>(), any::<bool>()), 20..200),
    ) {
        let trace: Vec<MemAccess> = raw
            .iter()
            .enumerate()
            .map(|(i, &(pc, addr, w))| MemAccess {
                instr_id: (i as u64) * 3,
                pc: pc as u64,
                addr: (addr as u64) << 6,
                is_write: w,
            })
            .collect();
        let n = trace.len();
        let mut engine = Engine::new(SimConfig::test_small());
        let stats = engine.run(&mut VecSource::new(trace), None, 0, n);
        prop_assert_eq!(stats.demand_accesses, n as u64);
        prop_assert!(stats.ipc() > 0.0);
        prop_assert!(stats.ipc() <= 4.0 + 1e-9);
        prop_assert!(stats.llc_demand_hits + stats.llc_demand_misses <= stats.l2_misses);
    }

    /// The optimized engine (flat event queues, flat cache, batched
    /// prefetcher callbacks) produces bit-identical `SimStats` to the
    /// heap-based seed implementation (`ReferenceEngine`) on arbitrary
    /// short traces — without a prefetcher and with one, and across the
    /// warmup/measurement boundary.
    #[test]
    fn engine_matches_reference_bit_for_bit(
        raw in vec((any::<u16>(), any::<u32>(), any::<bool>()), 20..250),
        gap in 1u64..6,
        warmup_pct in 0u64..60,
        mshrs in 1usize..6,
        with_pf in any::<bool>(),
    ) {
        let trace: Vec<MemAccess> = raw
            .iter()
            .enumerate()
            .map(|(i, &(pc, addr, w))| MemAccess {
                instr_id: (i as u64) * gap,
                pc: pc as u64,
                // Narrow the block range so sets collide and MSHRs fill.
                addr: ((addr as u64) % 0x4000) << 6,
                is_write: w,
            })
            .collect();
        let n = trace.len();
        let warmup = n * warmup_pct as usize / 100;
        let mut cfg = SimConfig::test_small();
        cfg.llc_mshrs = mshrs;
        let mut engine = Engine::new(cfg);
        let mut reference = ReferenceEngine::new(cfg);
        let (fast, slow) = if with_pf {
            let mut pf_a = NextLine::new(3);
            let mut pf_b = NextLine::new(3);
            (
                engine.run(
                    &mut VecSource::new(trace.clone()),
                    Some(&mut pf_a),
                    warmup,
                    n - warmup,
                ),
                reference.run(
                    &mut VecSource::new(trace),
                    Some(&mut pf_b),
                    warmup,
                    n - warmup,
                ),
            )
        } else {
            (
                engine.run(&mut VecSource::new(trace.clone()), None, warmup, n - warmup),
                reference.run(&mut VecSource::new(trace), None, warmup, n - warmup),
            )
        };
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// Trace IO round-trips arbitrary access sequences.
    #[test]
    fn trace_io_roundtrip(raw in vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()), 0..100)) {
        let mut trace: Vec<MemAccess> = raw
            .iter()
            .map(|&(i, pc, addr, w)| MemAccess { instr_id: i, pc, addr, is_write: w })
            .collect();
        trace.sort_by_key(|a| a.instr_id);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// MLP forward never produces NaN for finite inputs in [0, 1].
    #[test]
    fn mlp_forward_finite(xs in vec(0.0f32..1.0, 4), seed in any::<u64>()) {
        let net = Mlp::new(&[4, 16, 5], Activation::Relu, seed);
        let out = net.predict(&xs);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// The minibatch GEMM forward is bit-identical to looping the
    /// per-sample forward over the same rows, across random layer
    /// shapes, batch sizes (including 0 and 1), and activations — the
    /// determinism contract of the batched DQN datapath.
    #[test]
    fn forward_batch_bit_identical_to_per_sample(
        in_dim in 1usize..6,
        hidden in 1usize..40,
        out_dim in 1usize..6,
        batch in 0usize..5,
        act_sel in 0usize..4,
        seed in any::<u64>(),
        xs_raw in vec(-2.0f32..2.0, 5 * 6),
    ) {
        let act = [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity][act_sel];
        let net = Mlp::new(&[in_dim, hidden, out_dim], act, seed);
        let xs = Matrix::from_fn(batch, in_dim, |r, c| xs_raw[r * in_dim + c]);
        let mut bs = net.make_batch_scratch(batch);
        let out = net.forward_batch(&xs, &mut bs);
        prop_assert_eq!(out.rows(), batch);
        let mut scratch = net.make_scratch();
        for r in 0..batch {
            let expect = net.forward(xs.row(r), &mut scratch);
            for (c, (&b, &e)) in out.row(r).iter().zip(expect.iter()).enumerate() {
                prop_assert_eq!(b.to_bits(), e.to_bits(), "row {} col {}", r, c);
            }
        }
    }

    /// The minibatch backward pass accumulates gradient sums bit-identical
    /// to sequential per-sample backward calls over the same rows.
    #[test]
    fn backward_batch_bit_identical_to_per_sample(
        in_dim in 1usize..6,
        hidden in 1usize..40,
        out_dim in 1usize..6,
        batch in 0usize..5,
        act_sel in 0usize..4,
        seed in any::<u64>(),
        xs_raw in vec(-2.0f32..2.0, 5 * 6),
        og_raw in vec(-1.5f32..1.5, 5 * 6),
    ) {
        let act = [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity][act_sel];
        let net = Mlp::new(&[in_dim, hidden, out_dim], act, seed);
        let xs = Matrix::from_fn(batch, in_dim, |r, c| xs_raw[r * in_dim + c]);
        // Sparse TD-style rows (one live action) and dense rows both occur.
        let og = Matrix::from_fn(batch, out_dim, |r, c| {
            if r % 2 == 0 && c != r % out_dim { 0.0 } else { og_raw[r * out_dim + c] }
        });
        let mut bs = net.make_batch_scratch(batch);
        net.forward_batch(&xs, &mut bs);
        let mut batch_grads = net.make_grad_buffer();
        net.backward_batch(&mut bs, &og, &mut batch_grads);
        let mut scratch = net.make_scratch();
        let mut seq_grads = net.make_grad_buffer();
        for r in 0..batch {
            net.forward(xs.row(r), &mut scratch);
            net.backward(&mut scratch, og.row(r), &mut seq_grads);
        }
        let (bsums, ssums) = (batch_grads.flat_sums(), seq_grads.flat_sums());
        prop_assert_eq!(bsums.len(), ssums.len());
        for (i, (b, s)) in bsums.iter().zip(&ssums).enumerate() {
            prop_assert_eq!(b.to_bits(), s.to_bits(), "grad elem {}", i);
        }
    }

    /// The ensemble controller issues at most the selected member's
    /// suggestion list and never panics on random access streams.
    #[test]
    fn controller_never_overissues(raw in vec((any::<u16>(), any::<u32>()), 50..300)) {
        let mut ctl = ResembleMlp::new(
            paper_bank(),
            ResembleConfig { batch_size: 4, ..ResembleConfig::default() },
            1,
        );
        let mut out = Vec::new();
        for (i, &(pc, addr)) in raw.iter().enumerate() {
            out.clear();
            let a = MemAccess::load(i as u64, pc as u64, (addr as u64) << 6);
            ctl.on_access(&a, false, &mut out);
            // Bank max degrees: BO 1, SPP 4, ISB 2, Domino 2.
            prop_assert!(out.len() <= 4, "issued {} suggestions", out.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `engine_matches_reference_bit_for_bit` keeps its few MSHRs full, so
    /// its prefetcher almost never issues. This property drives the
    /// prefetch path itself: sequential runs (a next-line prefetcher's home
    /// pattern) broken by random jumps, instruction gaps up to 400 so that
    /// prefetches land early, late or not at all, 1–64 MSHRs, an LLC of
    /// 1–32 sets so that prefetched lines past a run's end get evicted
    /// unused, and a random controller timing in either throughput mode.
    /// Across the cases, prefetches are issued, used, caught in flight by
    /// a demand and evicted unused.
    #[test]
    fn engine_matches_reference_on_the_prefetch_path(
        steps in vec((0u8..8, 0u64..0x4000, 0u64..400, 0u8..8), 20..250),
        warmup_pct in 0u64..60,
        mshrs in 1usize..=64,
        llc_sets in 1usize..=32,
        latency in 0u64..=300,
        high_throughput in any::<bool>(),
        degree in 1usize..=4,
    ) {
        let mut trace = Vec::with_capacity(steps.len());
        let (mut instr_id, mut block) = (0u64, 0u64);
        for &(jump, target, gap, write) in &steps {
            instr_id += 1 + gap;
            // One step in eight jumps to a random block; the rest continue
            // the run.
            block = if jump == 0 { target } else { block + 1 };
            trace.push(MemAccess {
                instr_id,
                pc: 0x400 + u64::from(jump == 0),
                addr: block << 6,
                is_write: write == 0,
            });
        }
        let n = trace.len();
        let warmup = n * warmup_pct as usize / 100;
        let mut cfg = SimConfig::test_small();
        cfg.llc_mshrs = mshrs;
        cfg.llc_size = llc_sets * cfg.llc_ways * 64;
        cfg.prefetch_timing = PrefetchTiming { latency, high_throughput };
        let mut pf_a = NextLine::new(degree);
        let mut pf_b = NextLine::new(degree);
        let fast = Engine::new(cfg).run(
            &mut VecSource::new(trace.clone()),
            Some(&mut pf_a),
            warmup,
            n - warmup,
        );
        let slow = ReferenceEngine::new(cfg).run(
            &mut VecSource::new(trace),
            Some(&mut pf_b),
            warmup,
            n - warmup,
        );
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }
}
