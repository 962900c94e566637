//! Pins the GAP graph traces bit for bit.
//!
//! The digests below were taken from the eager generator, which built the
//! whole CSR graph up front and buffered each kernel round. Any change to
//! the graph draw, the kernels, the 2^20-access round cap or the order of
//! RNG draws moves one of them.

use resemble_trace::gen::{app_by_name, CsrGraph, GraphGen, GraphKernel, TraceSource};
use resemble_trace::MemAccess;

/// FNV-1a over the little-endian bytes of one 64-bit word.
fn fnv_word(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_access(h: &mut u64, a: &MemAccess) {
    fnv_word(h, a.instr_id);
    fnv_word(h, a.pc);
    fnv_word(h, a.addr);
    fnv_word(h, a.is_write as u64);
}

/// Pulls `n` accesses from `src` through a fixed mix of single accesses
/// and batches of several sizes, so batch boundaries fall everywhere.
fn pull(src: &mut dyn TraceSource, n: usize, mut f: impl FnMut(&MemAccess)) {
    const CHUNKS: [usize; 6] = [1, 1024, 7, 4096, 0, 333];
    let mut buf = Vec::new();
    let mut got = 0;
    for &c in CHUNKS.iter().cycle() {
        if got == n {
            break;
        }
        let c = c.min(n - got);
        if c == 1 {
            let a = src.next_access().expect("graph traces are infinite");
            f(&a);
            got += 1;
            continue;
        }
        buf.clear();
        assert_eq!(src.next_batch(&mut buf, c), c);
        assert_eq!(buf.len(), c);
        buf.iter().for_each(&mut f);
        got += c;
    }
}

fn digest(src: &mut dyn TraceSource, n: usize) -> u64 {
    let mut h = FNV_OFFSET;
    pull(src, n, |a| fnv_access(&mut h, a));
    h
}

/// 2.3M accesses take every kernel past two 2^20-access round caps on
/// the 400K-vertex harness graph.
const PINNED_LEN: usize = 2_300_000;

#[test]
fn gap_app_traces_match_pinned_digests() {
    let pinned: [(&str, u64, u64); 6] = [
        ("gap.bfs", 42, 0x9b9d_2033_097b_5583),
        ("gap.bfs", 7, 0x8ecb_ec2b_750f_1fa3),
        ("gap.pr", 42, 0x5a13_06be_8878_893d),
        ("gap.pr", 7, 0x3ac8_9c17_6d10_37de),
        ("gap.cc", 42, 0x2a66_810a_a495_72bb),
        ("gap.cc", 7, 0x01af_97e3_a8be_6954),
    ];
    let mut wrong = Vec::new();
    for (app, seed, want) in pinned {
        let mut src = app_by_name(app, seed).unwrap().source;
        let got = digest(&mut src, PINNED_LEN);
        if got != want {
            wrong.push(format!("{app} seed {seed}: {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved: {wrong:?}");
}

#[test]
fn synthetic_graph_matches_pinned_digest() {
    let g = CsrGraph::synthetic(5, 10_000, 7);
    let mut h = FNV_OFFSET;
    fnv_word(&mut h, g.offsets.len() as u64);
    g.offsets.iter().for_each(|&o| fnv_word(&mut h, o as u64));
    fnv_word(&mut h, g.edges.len() as u64);
    g.edges.iter().for_each(|&e| fnv_word(&mut h, e as u64));
    assert_eq!(h, 0xc7b7_6bde_6328_13ec, "digest {h:#018x}");
}

const KERNELS: [GraphKernel; 3] = [
    GraphKernel::Bfs,
    GraphKernel::PageRank,
    GraphKernel::ConnectedComponents,
];

/// `GraphGen::new` must give exactly the stream of a generator over the
/// graph `CsrGraph::synthetic` builds from the same seed.
fn assert_new_matches_with_graph(seed: u64, n: usize, deg: usize, len: usize) {
    for kernel in KERNELS {
        let mut a = GraphGen::new(seed, n, deg, kernel, 3);
        let graph = CsrGraph::synthetic(seed, n, deg);
        let mut b = GraphGen::with_graph(graph, kernel, seed ^ 0xDEAD_BEEF, 3);
        let mut from_a = Vec::with_capacity(len);
        pull(&mut a, len, |x| from_a.push(*x));
        let mut i = 0;
        pull(&mut b, len, |x| {
            assert_eq!(from_a[i], *x, "{kernel:?} n={n}: access {i} differs");
            i += 1;
        });
    }
}

#[test]
fn new_matches_with_graph_when_sweeps_end_rounds() {
    assert_new_matches_with_graph(3, 2, 1, 500);
    assert_new_matches_with_graph(9, 200, 4, 40_000);
}

#[test]
fn new_matches_with_graph_when_the_cap_ends_rounds() {
    assert_new_matches_with_graph(11, 400_000, 12, (1 << 20) + 200_000);
}
