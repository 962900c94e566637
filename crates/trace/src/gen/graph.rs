//! GAP-like graph-kernel trace generator.
//!
//! The GAP benchmark suite runs graph kernels (BFS, PageRank, Connected
//! Components, ...) over large graphs. We build a synthetic power-law graph
//! in CSR form, *actually execute* the kernel over it, and record the
//! memory addresses the kernel's array reads/writes would touch: the CSR
//! offsets array, the edge array, and the per-vertex property array each
//! get a base address, and element accesses map to byte addresses. This
//! gives traces with the hallmark GAP structure — semi-sequential edge
//! scans interleaved with data-dependent random vertex-property accesses —
//! without needing the original suite.
//!
//! A generator only does the work its consumer reads. [`GraphGen::new`]
//! draws the graph on demand: vertex `v`'s adjacency is drawn, from the
//! same single RNG stream [`CsrGraph::synthetic`] uses, the first time the
//! kernel visits `v`, so a job that reads the first few thousand vertices
//! never draws the rest. The kernel runs one vertex per step, straight
//! into the caller's batch. Rounds follow fixed rules: a round is the
//! first 2^20 accesses of one full sweep, or the whole sweep if it is
//! shorter, and a vertex cut by that cap loses its tail. PageRank and
//! CC then restart at vertex 0 with fresh labels; BFS draws its next
//! source and forgets what it visited.

use super::{InstrClock, TraceSource};
use crate::record::MemAccess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// Compressed-sparse-row graph.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v] .. offsets[v+1]` indexes `edges` for vertex `v`.
    pub offsets: Vec<u32>,
    /// Flattened adjacency lists.
    pub edges: Vec<u32>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.edges[s..e]
    }

    /// Build a synthetic scale-free-ish graph: each vertex draws `deg`
    /// neighbors where targets are skewed toward low vertex ids
    /// (`id = floor(u^2 * n)` for uniform `u`), approximating the hub
    /// structure of RMAT/Kronecker graphs used by GAP.
    pub fn synthetic(seed: u64, n: usize, avg_degree: usize) -> Self {
        let mut g = LazyGraph::synthetic(seed, n, avg_degree);
        while g.graph.num_vertices() < n {
            g.draw_next();
        }
        g.graph
    }
}

/// A graph whose vertices are drawn the first time they are asked for.
struct LazyGraph {
    /// Vertices `0..graph.num_vertices()`, the ones drawn so far.
    graph: CsrGraph,
    /// Vertex count of the whole graph.
    n: usize,
    /// Draws the remaining vertices; `None` for a graph given whole.
    draw: Option<VertexDraw>,
}

/// The edge draw of [`CsrGraph::synthetic`], one vertex at a time in id
/// order from a single RNG stream, so the first `k` vertices come out the
/// same however many are drawn after them.
struct VertexDraw {
    rng: StdRng,
    avg_degree: usize,
}

impl LazyGraph {
    /// The synthetic graph with no vertex drawn yet.
    fn synthetic(seed: u64, n: usize, avg_degree: usize) -> Self {
        assert!(n >= 2 && avg_degree >= 1);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        Self {
            graph: CsrGraph {
                offsets,
                edges: Vec::with_capacity(n * avg_degree),
            },
            n,
            draw: Some(VertexDraw {
                rng: StdRng::seed_from_u64(seed),
                avg_degree,
            }),
        }
    }

    fn whole(graph: CsrGraph) -> Self {
        let n = graph.num_vertices();
        Self {
            graph,
            n,
            draw: None,
        }
    }

    /// `v`'s slice of the edge array, drawing the vertices up to `v` first.
    #[inline]
    fn edge_range(&mut self, v: u32) -> Range<usize> {
        let v = v as usize;
        while self.graph.num_vertices() <= v {
            self.draw_next();
        }
        self.graph.offsets[v] as usize..self.graph.offsets[v + 1] as usize
    }

    /// Append the adjacency of vertex `graph.num_vertices()`.
    fn draw_next(&mut self) {
        let (v, n) = (self.graph.num_vertices(), self.n);
        let draw = match &mut self.draw {
            Some(draw) if v < n => draw,
            _ => panic!("vertex id beyond the graph"),
        };
        let deg = draw.rng.gen_range(1..=2 * draw.avg_degree);
        for _ in 0..deg {
            let u: f64 = draw.rng.gen();
            let mut t = ((u * u) * n as f64) as usize;
            if t >= n {
                t = n - 1;
            }
            if t == v {
                t = (t + 1) % n;
            }
            self.graph.edges.push(t as u32);
        }
        self.graph.offsets.push(self.graph.edges.len() as u32);
    }
}

/// Which graph kernel to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphKernel {
    /// Breadth-first search from rotating sources.
    Bfs,
    /// Power-iteration PageRank (push-free pull formulation).
    PageRank,
    /// Label-propagation connected components.
    ConnectedComponents,
}

/// Accesses in one kernel round: the first `ROUND_CAP` accesses of a full
/// sweep, or the whole sweep if it is shorter.
const ROUND_CAP: usize = 1 << 20;

/// Byte addresses of the kernel's array elements in the synthetic address
/// space.
mod addr {
    const OFFSETS_BASE: u64 = 0x1_0000_0000;
    const EDGES_BASE: u64 = 0x2_0000_0000;
    const PROP_BASE: u64 = 0x3_0000_0000;
    const PROP2_BASE: u64 = 0x4_0000_0000;
    const U32_SIZE: u64 = 4;
    const F32_SIZE: u64 = 4;

    pub fn offsets(v: u32) -> u64 {
        OFFSETS_BASE + v as u64 * U32_SIZE
    }

    pub fn edges(e: usize) -> u64 {
        EDGES_BASE + e as u64 * U32_SIZE
    }

    pub fn prop(v: u32) -> u64 {
        PROP_BASE + v as u64 * F32_SIZE
    }

    pub fn prop2(v: u32) -> u64 {
        PROP2_BASE + v as u64 * F32_SIZE
    }
}

/// PC values for the kernel's load/store sites; distinct sites let ISB-style
/// PC-localized prefetchers separate the offset scan from property gathers.
mod pcs {
    pub const OFFSETS: u64 = 0x9000;
    pub const EDGES: u64 = 0x9008;
    pub const PROP_READ: u64 = 0x9010;
    pub const PROP_WRITE: u64 = 0x9018;
}

/// Where the kernel is in its current sweep.
enum Sweep {
    /// The BFS frontier and the vertices reached so far.
    Bfs {
        queue: VecDeque<u32>,
        visited: Vec<bool>,
    },
    /// The next vertex to pull ranks into.
    PageRank { next: u32 },
    /// The labels of the vertices swept so far. The next vertex is
    /// `labels.len()`, and every vertex from there on still carries its
    /// own id: a vertex's label only changes on its own step.
    Cc { labels: Vec<u32> },
}

impl Sweep {
    fn is_done(&self, n: usize) -> bool {
        match self {
            Sweep::Bfs { queue, .. } => queue.is_empty(),
            Sweep::PageRank { next } => *next as usize == n,
            Sweep::Cc { labels } => labels.len() == n,
        }
    }
}

/// Trace generator that executes a graph kernel and records its accesses.
pub struct GraphGen {
    graph: LazyGraph,
    sweep: Sweep,
    clock: InstrClock,
    /// Draws the BFS sources.
    rng: StdRng,
    /// Accesses the current round may still emit.
    left: usize,
    /// Accesses of the last vertex that did not fit in the caller's
    /// batch, in reverse: the next one to hand out is last.
    pending: Vec<MemAccess>,
}

/// Appends a vertex's accesses to a batch, numbering them, while the
/// round has budget left; the rest of the vertex is dropped.
struct Sink<'a> {
    out: &'a mut Vec<MemAccess>,
    clock: &'a mut InstrClock,
    left: &'a mut usize,
}

impl Sink<'_> {
    #[inline]
    fn push(&mut self, pc: u64, addr: u64, is_write: bool) {
        if *self.left > 0 {
            *self.left -= 1;
            self.out.push(MemAccess {
                instr_id: self.clock.tick(),
                pc,
                addr,
                is_write,
            });
        }
    }
}

impl GraphGen {
    /// Create a generator over a fresh synthetic graph, drawn on demand.
    pub fn new(
        seed: u64,
        n_vertices: usize,
        avg_degree: usize,
        kernel: GraphKernel,
        instr_gap: u64,
    ) -> Self {
        let graph = LazyGraph::synthetic(seed, n_vertices, avg_degree);
        Self::over(graph, kernel, seed ^ 0xDEAD_BEEF, instr_gap)
    }

    /// Create a generator over an existing graph.
    pub fn with_graph(graph: CsrGraph, kernel: GraphKernel, seed: u64, instr_gap: u64) -> Self {
        Self::over(LazyGraph::whole(graph), kernel, seed, instr_gap)
    }

    fn over(graph: LazyGraph, kernel: GraphKernel, seed: u64, instr_gap: u64) -> Self {
        let sweep = match kernel {
            GraphKernel::Bfs => Sweep::Bfs {
                queue: VecDeque::new(),
                visited: Vec::new(),
            },
            GraphKernel::PageRank => Sweep::PageRank { next: 0 },
            GraphKernel::ConnectedComponents => Sweep::Cc { labels: Vec::new() },
        };
        Self {
            graph,
            sweep,
            clock: InstrClock::new(instr_gap),
            rng: StdRng::seed_from_u64(seed),
            left: 0,
            pending: Vec::new(),
        }
    }

    fn start_round(&mut self) {
        let n = self.graph.n;
        self.left = ROUND_CAP;
        match &mut self.sweep {
            Sweep::Bfs { queue, visited } => {
                let src = self.rng.gen_range(0..n) as u32;
                visited.clear();
                visited.resize(n, false);
                visited[src as usize] = true;
                queue.clear();
                queue.push_back(src);
            }
            Sweep::PageRank { next } => *next = 0,
            Sweep::Cc { labels } => labels.clear(),
        }
    }

    /// Append the kernel's next vertex to `out`, starting a new round first
    /// if the last one ended.
    fn step(&mut self, out: &mut Vec<MemAccess>) {
        if self.left == 0 || self.sweep.is_done(self.graph.n) {
            self.start_round();
        }
        let Self {
            graph,
            sweep,
            clock,
            left,
            ..
        } = self;
        let mut sink = Sink { out, clock, left };
        match sweep {
            Sweep::Bfs { queue, visited } => {
                let v = queue.pop_front().expect("a BFS round has a frontier");
                sink.push(pcs::OFFSETS, addr::offsets(v), false);
                sink.push(pcs::OFFSETS, addr::offsets(v + 1), false);
                for ei in graph.edge_range(v) {
                    sink.push(pcs::EDGES, addr::edges(ei), false);
                    let t = graph.graph.edges[ei];
                    sink.push(pcs::PROP_READ, addr::prop(t), false);
                    if !visited[t as usize] {
                        visited[t as usize] = true;
                        sink.push(pcs::PROP_WRITE, addr::prop(t), true);
                        queue.push_back(t);
                    }
                }
            }
            // One pull iteration: for each v, read offsets, scan edges,
            // gather ranks of neighbors, write new rank.
            Sweep::PageRank { next } => {
                let v = *next;
                *next += 1;
                sink.push(pcs::OFFSETS, addr::offsets(v), false);
                sink.push(pcs::OFFSETS, addr::offsets(v + 1), false);
                for ei in graph.edge_range(v) {
                    sink.push(pcs::EDGES, addr::edges(ei), false);
                    let t = graph.graph.edges[ei];
                    sink.push(pcs::PROP_READ, addr::prop(t), false);
                }
                sink.push(pcs::PROP_WRITE, addr::prop2(v), true);
            }
            // One label-propagation sweep with actual label state so
            // repeated rounds converge (changing access mix over time,
            // like real CC).
            Sweep::Cc { labels } => {
                let v = labels.len() as u32;
                sink.push(pcs::OFFSETS, addr::offsets(v), false);
                sink.push(pcs::OFFSETS, addr::offsets(v + 1), false);
                sink.push(pcs::PROP_READ, addr::prop(v), false);
                let mut best = v;
                for ei in graph.edge_range(v) {
                    sink.push(pcs::EDGES, addr::edges(ei), false);
                    let t = graph.graph.edges[ei];
                    sink.push(pcs::PROP_READ, addr::prop(t), false);
                    best = best.min(labels.get(t as usize).copied().unwrap_or(t));
                }
                if best < v {
                    sink.push(pcs::PROP_WRITE, addr::prop(v), true);
                }
                labels.push(best);
            }
        }
    }
}

impl TraceSource for GraphGen {
    fn next_access(&mut self) -> Option<MemAccess> {
        if self.pending.is_empty() {
            let mut pending = std::mem::take(&mut self.pending);
            self.step(&mut pending);
            pending.reverse();
            self.pending = pending;
        }
        self.pending.pop()
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        let end = out.len() + n;
        let carried = n.min(self.pending.len());
        let from = self.pending.len() - carried;
        out.extend(self.pending.drain(from..).rev());
        while out.len() < end {
            self.step(out);
        }
        self.pending.extend(out.drain(end..).rev());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_well_formed() {
        let g = CsrGraph::synthetic(1, 100, 4);
        assert_eq!(g.offsets.len(), 101);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edges.len());
        assert!(g.edges.iter().all(|&t| (t as usize) < 100));
        // Offsets monotone.
        assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn no_self_loops() {
        let g = CsrGraph::synthetic(2, 50, 3);
        for v in 0..50u32 {
            assert!(g.neighbors(v).iter().all(|&t| t != v));
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Low-id vertices should receive far more in-edges than high-id ones.
        let g = CsrGraph::synthetic(3, 1000, 8);
        let mut indeg = vec![0usize; 1000];
        for &t in &g.edges {
            indeg[t as usize] += 1;
        }
        let low: usize = indeg[..100].iter().sum();
        let high: usize = indeg[900..].iter().sum();
        assert!(low > 3 * high, "low={low} high={high}");
    }

    #[test]
    fn bfs_trace_mixes_sequential_and_random() {
        let mut g = GraphGen::new(7, 500, 8, GraphKernel::Bfs, 2);
        let t = g.collect_n(5000);
        assert_eq!(t.len(), 5000);
        // All four PC sites appear.
        let pcs: std::collections::HashSet<u64> = t.iter().map(|a| a.pc).collect();
        assert!(pcs.len() >= 3, "expected multiple load sites, got {pcs:?}");
        // Writes exist (visited marking).
        assert!(t.iter().any(|a| a.is_write));
        // Ids strictly increasing with gap 2.
        assert!(t.windows(2).all(|w| w[1].instr_id == w[0].instr_id + 3));
    }

    #[test]
    fn pagerank_rounds_replay_similar_sequences() {
        let mut g = GraphGen::new(9, 200, 4, GraphKernel::PageRank, 0);
        // A full round length:
        let round: usize = {
            let gg = CsrGraph::synthetic(9, 200, 4);
            (0..200).map(|v| 3 + 2 * gg.neighbors(v as u32).len()).sum()
        };
        let t = g.collect_n(2 * round);
        let a: Vec<u64> = t[..round].iter().map(|x| x.addr).collect();
        let b: Vec<u64> = t[round..].iter().map(|x| x.addr).collect();
        assert_eq!(a, b, "pagerank iterations touch identical addresses");
    }

    #[test]
    fn cc_converges_to_fewer_writes() {
        let mut g = GraphGen::new(11, 300, 6, GraphKernel::ConnectedComponents, 0);
        let t = g.collect_n(50_000);
        let half = t.len() / 2;
        let w_first = t[..half].iter().filter(|a| a.is_write).count();
        let w_last = t[half..].iter().filter(|a| a.is_write).count();
        // Label propagation converges within a round here (labels reset per
        // round), so writes do not increase over time.
        assert!(w_last <= w_first + half / 10);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = GraphGen::new(5, 100, 4, GraphKernel::Bfs, 1).collect_n(1000);
        let b = GraphGen::new(5, 100, 4, GraphKernel::Bfs, 1).collect_n(1000);
        assert_eq!(a, b);
    }
}
