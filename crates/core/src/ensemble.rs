//! The ReSemble ensemble prefetchers: the MLP/DQN controller
//! ([`ResembleMlp`]) and the tabular variant ([`ResembleTabular`]), each
//! wrapping a [`PrefetcherBank`] and implementing [`Prefetcher`] so the
//! simulator can host them like any hardware prefetcher.
//!
//! Each access executes one iteration of Algorithm 1: deliver lazy rewards
//! from the current address (the replay memory and the tabular agent
//! share one reward ledger), preprocess the bank's observation in place
//! into a state vector, complete the previous transition's next state,
//! select an action ε-greedily, issue the chosen suggestion (or nothing
//! for NP), and run the online-training tick.

use crate::agent::dqn::{Datapath, DqnAgent};
use crate::agent::tabular::TabularAgent;
use crate::config::ResembleConfig;
use crate::preprocess::{mlp_state, tabular_state};
use crate::replay::ReplayMemory;
use resemble_nn::Matrix;
use resemble_prefetch::{CacheEvent, PredictionKind, Prefetcher, PrefetcherBank};
use resemble_trace::record::block_of;
use resemble_trace::MemAccess;

/// Online statistics of an ensemble controller: per-action counts and
/// windowed rewards (the Table VI / Fig 6 / Fig 7 measurements).
#[derive(Debug, Clone)]
pub struct EnsembleStats {
    window: usize,
    accesses: u64,
    /// cumulative action counts
    pub action_counts: Vec<u64>,
    /// action counts of the current (incomplete) window
    cur_actions: Vec<u32>,
    cur_reward: f64,
    n_in_window: usize,
    /// per-window action counts (Fig 7)
    pub window_actions: Vec<Vec<u32>>,
    /// per-window reward sums (Table VI / Fig 6)
    pub window_rewards: Vec<f64>,
    /// total reward collected
    pub total_reward: f64,
}

impl EnsembleStats {
    /// Track windows of `window` accesses over `action_dim` actions.
    pub fn new(action_dim: usize, window: usize) -> Self {
        assert!(window > 0);
        Self {
            window,
            accesses: 0,
            action_counts: vec![0; action_dim],
            cur_actions: vec![0; action_dim],
            cur_reward: 0.0,
            n_in_window: 0,
            window_actions: Vec::new(),
            window_rewards: Vec::new(),
            total_reward: 0.0,
        }
    }

    /// Record one access's action and the rewards assigned during it.
    pub fn record(&mut self, action: usize, reward_sum: f64) {
        self.accesses += 1;
        self.action_counts[action] += 1;
        self.cur_actions[action] += 1;
        self.cur_reward += reward_sum;
        self.total_reward += reward_sum;
        self.n_in_window += 1;
        if self.n_in_window == self.window {
            self.window_actions.push(std::mem::replace(
                &mut self.cur_actions,
                vec![0; self.action_counts.len()],
            ));
            self.window_rewards.push(self.cur_reward);
            self.cur_reward = 0.0;
            self.n_in_window = 0;
        }
    }

    /// Mean of per-window reward sums (the Table VI statistic).
    pub fn mean_window_reward(&self) -> f64 {
        if self.window_rewards.is_empty() {
            0.0
        } else {
            self.window_rewards.iter().sum::<f64>() / self.window_rewards.len() as f64
        }
    }

    /// Accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// The MLP-based ReSemble ensemble controller.
pub struct ResembleMlp {
    bank: PrefetcherBank,
    kinds: Vec<PredictionKind>,
    agent: DqnAgent,
    replay: ReplayMemory,
    cfg: ResembleConfig,
    seed: u64,
    datapath: Datapath,
    prev_id: Option<u64>,
    state_buf: Vec<f32>,
    blocks_buf: Vec<u64>,
    assigned: Vec<(u64, f32)>,
    // --- reusable decision-window buffers (allocation-free steady state) ---
    win_states: Matrix,
    win_q: Matrix,
    win_sugg: Vec<u64>,
    win_spans: Vec<(usize, usize)>,
    /// online learning statistics (Table VI, Figs 6–7)
    pub stats: EnsembleStats,
}

impl ResembleMlp {
    /// Wrap a bank with an MLP controller. `cfg.state_dim` must equal the
    /// bank size.
    pub fn new(bank: PrefetcherBank, cfg: ResembleConfig, seed: u64) -> Self {
        assert_eq!(bank.len(), cfg.state_dim, "bank size must equal state_dim");
        let kinds = bank.kinds();
        Self {
            kinds,
            agent: DqnAgent::new(cfg, seed),
            replay: ReplayMemory::new(cfg.replay_capacity, cfg.window, cfg.input_dim()),
            stats: EnsembleStats::new(cfg.action_dim, 1000),
            cfg,
            seed,
            bank,
            datapath: Datapath::default(),
            prev_id: None,
            state_buf: Vec::new(),
            blocks_buf: Vec::new(),
            assigned: Vec::new(),
            win_states: Matrix::default(),
            win_q: Matrix::default(),
            win_sugg: Vec::new(),
            win_spans: Vec::new(),
        }
    }

    /// The paper's default configuration: BO + SPP + ISB + Domino under an
    /// MLP controller with Table III hyper-parameters.
    pub fn from_paper(seed: u64) -> Self {
        Self::new(
            resemble_prefetch::paper_bank(),
            ResembleConfig::default(),
            seed,
        )
    }

    /// Access the underlying agent (for probes).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Mutable agent access, for probes that run inference (Q-value reads
    /// reuse the forward-pass scratch buffers, hence `&mut`).
    pub fn agent_mut(&mut self) -> &mut DqnAgent {
        &mut self.agent
    }

    /// Quantize the controller networks to `bits`-bit fixed point and
    /// freeze training (the §VIII hardware study); returns the RMS
    /// parameter error.
    pub fn quantize_and_freeze(&mut self, bits: u32) -> f32 {
        self.agent.frozen = true;
        self.agent.quantize(bits)
    }

    /// The configuration in use.
    pub fn config(&self) -> &ResembleConfig {
        &self.cfg
    }

    /// Select the DQN training [`Datapath`] (batched GEMM vs the scalar
    /// reference). Results are bit-identical either way; the setting
    /// survives [`Prefetcher::reset`] so perf comparisons can reset
    /// between reps without losing it.
    pub fn set_datapath(&mut self, dp: Datapath) {
        self.datapath = dp;
        self.agent.set_datapath(dp);
    }

    /// The training datapath in use.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// Process a run of consecutive accesses in batched decision windows,
    /// calling `emit(index, issued_prefetches)` once per access in order.
    /// `events` are cache events tagged as [`ResembleMlp::window_prepare`]
    /// takes them, with the index in `accesses` of the access each
    /// precedes (`accesses.len()` after the last one), in stream order.
    ///
    /// **Bit-identical** to calling [`Prefetcher::on_access`] once per
    /// access, each event applied through its hook just before the access
    /// it precedes: the run is split only at role-switch boundaries (the
    /// inference network is constant in between — training touches only
    /// the policy net), each window applies its events to the bank at
    /// their positions and takes *one* [`resemble_nn::Mlp::forward_batch`]
    /// over all window states, and the per-access bookkeeping (reward
    /// delivery, ε-greedy RNG draws, replay pushes, training ticks) then
    /// replays sequentially in the exact per-access order. This is the
    /// serving hot path of `resemble-serve`, pinned by the
    /// `window_decisions_bit_identical_to_sequential` and
    /// `events_inside_one_window_match_per_segment_windows` tests below.
    pub fn on_access_window(
        &mut self,
        accesses: &[(MemAccess, bool)],
        events: &[(usize, CacheEvent)],
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        let mut start = 0;
        let mut events = events;
        while start < accesses.len() {
            let bound = self.agent.decision_window_bound().max(1);
            let end = start + (accesses.len() - start).min(bound);
            let chunk = &accesses[start..end];
            let (inside, rest) = events.split_at(events.partition_point(|&(at, _)| at < end));
            // Phase A, then phase B through this controller's own
            // inference net, then phase C — the fused single-session path.
            self.prepare(chunk, inside, start);
            let mut q = std::mem::take(&mut self.win_q);
            self.agent.q_batch_into(&self.win_states, &mut q);
            self.window_commit(chunk, &q, 0, |k, issued| emit(start + k, issued));
            self.win_q = q;
            events = rest;
            start = end;
        }
        // Events after the last access reach only the bank, which no
        // committed window reads again.
        for (_, e) in events {
            self.bank.on_cache_events(std::slice::from_ref(e));
        }
    }

    /// Phase A of one decision window: per access, in order, run the bank
    /// observation (members see every access exactly as in the sequential
    /// path), capture each member's full suggestion list (the bank only
    /// retains the latest access's lists), and preprocess the state row.
    /// None of this depends on the actions still to be chosen, and none of
    /// it touches the agent, replay, or RNG. Returns the window's state
    /// matrix, one row per access.
    ///
    /// `events` are cache events tagged with the index in `chunk` of the
    /// access they precede (`chunk.len()` for events after the last
    /// access), in stream order. Each is applied to the bank at its
    /// position, so the members see exactly the sequence that
    /// [`Prefetcher::on_cache_events`] between per-segment windows would
    /// give them. Events touch only the bank, and
    /// [`ResembleMlp::window_commit`] reads only what this phase copied, so
    /// one window may span any number of events.
    ///
    /// This is one half of [`ResembleMlp::on_access_window`], split out so
    /// `resemble-serve` can pool phase B (the batched forward) across
    /// sessions that share frozen inference weights. The contract: the
    /// caller must follow with exactly one [`ResembleMlp::window_commit`]
    /// over the same `chunk`, passing Q rows that are bit-identical to
    /// this controller's inference net forward on the returned states,
    /// before any other call that mutates this controller; `chunk.len()`
    /// must not exceed [`DqnAgent::decision_window_bound`].
    pub fn window_prepare(
        &mut self,
        chunk: &[(MemAccess, bool)],
        events: &[(usize, CacheEvent)],
    ) -> &Matrix {
        self.prepare(chunk, events, 0)
    }

    /// [`ResembleMlp::window_prepare`] of a chunk that starts at index
    /// `base` of the run its `events` are tagged against.
    fn prepare(
        &mut self,
        chunk: &[(MemAccess, bool)],
        events: &[(usize, CacheEvent)],
        base: usize,
    ) -> &Matrix {
        let members = self.bank.len();
        self.win_states.resize(chunk.len(), self.cfg.input_dim());
        self.win_sugg.clear();
        self.win_spans.clear();
        let mut events = events.iter().peekable();
        for (k, (access, hit)) in chunk.iter().enumerate() {
            while let Some((_, e)) = events.next_if(|&&(at, _)| at <= base + k) {
                self.bank.on_cache_events(std::slice::from_ref(e));
            }
            mlp_state(
                self.bank.observe(access, *hit),
                &self.kinds,
                access.addr,
                access.pc,
                &self.cfg,
                &mut self.state_buf,
            );
            self.win_states.row_mut(k).copy_from_slice(&self.state_buf);
            for j in 0..members {
                let sugg = self.bank.suggestions(j);
                let off = self.win_sugg.len();
                self.win_sugg.extend_from_slice(sugg);
                self.win_spans.push((off, sugg.len()));
            }
        }
        for (_, e) in events {
            self.bank.on_cache_events(std::slice::from_ref(e));
        }
        &self.win_states
    }

    /// Phase C of one decision window: sequential per-access bookkeeping
    /// in the exact sequential order — lazy rewards, next-state
    /// completion, ε-greedy selection off the precomputed Q row (same RNG
    /// draw order as the sequential path, since phase A/B draw nothing),
    /// replay push, stats, and training tick. `q.row(row0 + k)` must hold
    /// the inference net's Q-values for access `k` of the
    /// [`ResembleMlp::window_prepare`]d `chunk`; `row0` lets pooled
    /// callers pass a shared Q matrix covering several sessions' windows.
    pub fn window_commit(
        &mut self,
        chunk: &[(MemAccess, bool)],
        q: &Matrix,
        row0: usize,
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        debug_assert!(row0 + chunk.len() <= q.rows(), "Q rows cover the chunk");
        let members = self.bank.len();
        for (k, (access, _)) in chunk.iter().enumerate() {
            let block = block_of(access.addr);
            self.replay.on_access(block, &mut self.assigned);
            let reward_sum: f64 = self.assigned.iter().map(|&(_, r)| r as f64).sum();
            if let Some(pid) = self.prev_id {
                self.replay.set_next_state(pid, self.win_states.row(k));
            }
            let action = self.agent.select_action_from_q(q.row(row0 + k));
            self.blocks_buf.clear();
            let mut issued: &[u64] = &[];
            if action < members {
                let (off, len) = self.win_spans[k * members + action];
                issued = &self.win_sugg[off..off + len];
                self.blocks_buf.extend(issued.iter().map(|&p| block_of(p)));
            }
            self.prev_id = Some(
                self.replay
                    .push(self.win_states.row(k), action, &self.blocks_buf),
            );
            self.stats.record(action, reward_sum);
            self.agent.train_tick(&mut self.replay);
            emit(k, issued);
        }
    }

    /// `true` when the agent is frozen (inference only). Frozen
    /// controllers with equal `(config, seed)` have bit-identical,
    /// never-changing inference weights — the property the serve layer's
    /// cross-session pooled windows rely on.
    pub fn is_frozen(&self) -> bool {
        self.agent.frozen
    }

    /// Serialize the controller's learned state (see
    /// [`DqnAgent::save_checkpoint`]). Bank and replay contents are *not*
    /// included: a warm resume restores the networks and the ε/training
    /// schedule, while prefetcher tables and replay refill online.
    pub fn save_checkpoint<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.agent.save_checkpoint(w)
    }

    /// Restore state written by [`ResembleMlp::save_checkpoint`] (see
    /// [`DqnAgent::restore_checkpoint`] for validation semantics).
    pub fn load_checkpoint<R: std::io::Read>(&mut self, r: &mut R) -> std::io::Result<()> {
        self.agent.restore_checkpoint(r)
    }
}

impl Prefetcher for ResembleMlp {
    fn name(&self) -> &'static str {
        match self.datapath {
            Datapath::Batched => "resemble",
            Datapath::PerSample => "resemble_ref",
        }
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal // outputs range over the full address space
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        let block = block_of(access.addr);
        // Lazy reward delivery from the current address (Alg 1 lines 24–30).
        self.replay.on_access(block, &mut self.assigned);
        let reward_sum: f64 = self.assigned.iter().map(|&(_, r)| r as f64).sum();

        // Observation and state (Eq. 4–6).
        mlp_state(
            self.bank.observe(access, hit),
            &self.kinds,
            access.addr,
            access.pc,
            &self.cfg,
            &mut self.state_buf,
        );

        // Complete the previous transition (Alg 1 line 23).
        if let Some(pid) = self.prev_id {
            self.replay.set_next_state(pid, &self.state_buf);
        }

        // Select and execute the action (Alg 1 lines 10–20). The reward
        // tracks the member's top-1 block; the issued prefetches are the
        // member's full suggestion list.
        let action = self.agent.select_action(&self.state_buf);
        self.blocks_buf.clear();
        if action < self.bank.len() {
            let sugg = self.bank.suggestions(action);
            out.extend_from_slice(sugg);
            self.blocks_buf.extend(sugg.iter().map(|&p| block_of(p)));
        }
        self.prev_id = Some(self.replay.push(&self.state_buf, action, &self.blocks_buf));
        self.stats.record(action, reward_sum);

        // Online training tick (Alg 1 lines 31–39).
        self.agent.train_tick(&mut self.replay);
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        self.bank.on_prefetch_fill(addr);
    }

    fn on_demand_fill(&mut self, addr: u64) {
        self.bank.on_demand_fill(addr);
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        self.bank.on_evict(addr, unused_prefetch);
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        // One virtual dispatch per bank member per drained batch, instead
        // of the default per-event fan-out through the hooks above. Each
        // member still sees the events in occurrence order.
        self.bank.on_cache_events(events);
    }

    fn budget_bytes(&self) -> usize {
        // Controller storage (Table VIII: two 16-bit MLPs on chip) on top
        // of the input prefetchers' own budgets.
        self.bank.budget_bytes() + self.agent.param_count() * 2
    }

    fn reset(&mut self) {
        self.bank.reset();
        self.agent = DqnAgent::new(self.cfg, self.seed);
        self.agent.set_datapath(self.datapath);
        self.replay = ReplayMemory::new(
            self.cfg.replay_capacity,
            self.cfg.window,
            self.cfg.input_dim(),
        );
        self.stats = EnsembleStats::new(self.cfg.action_dim, 1000);
        self.prev_id = None;
    }
}

/// The tabular (Q-table) ReSemble variant, §IV-F.
pub struct ResembleTabular {
    bank: PrefetcherBank,
    kinds: Vec<PredictionKind>,
    agent: TabularAgent,
    cfg: ResembleConfig,
    hash_bits: u32,
    seed: u64,
    state_buf: Vec<u16>,
    blocks_buf: Vec<u64>,
    rewards_buf: Vec<f32>,
    /// online learning statistics (Table VI, Figs 6–7)
    pub stats: EnsembleStats,
}

impl ResembleTabular {
    /// Wrap a bank with a tabular controller using `hash_bits`-bit hashing
    /// (4 or 8 in the paper).
    pub fn new(bank: PrefetcherBank, cfg: ResembleConfig, hash_bits: u32, seed: u64) -> Self {
        assert_eq!(bank.len(), cfg.state_dim, "bank size must equal state_dim");
        let kinds = bank.kinds();
        Self {
            kinds,
            agent: TabularAgent::new(cfg, hash_bits, seed),
            stats: EnsembleStats::new(cfg.action_dim, 1000),
            cfg,
            hash_bits,
            seed,
            bank,
            state_buf: Vec::new(),
            blocks_buf: Vec::new(),
            rewards_buf: Vec::new(),
        }
    }

    /// The paper's ReSemble-T: 8-bit hashing over the Table II bank.
    pub fn from_paper(seed: u64) -> Self {
        Self::new(
            resemble_prefetch::paper_bank(),
            ResembleConfig::default(),
            8,
            seed,
        )
    }

    /// The underlying tabular agent (unique-state counts etc.).
    pub fn agent(&self) -> &TabularAgent {
        &self.agent
    }
}

impl Prefetcher for ResembleTabular {
    fn name(&self) -> &'static str {
        "resemble_t"
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        let block = block_of(access.addr);
        self.agent.on_access(block, &mut self.rewards_buf);
        let reward_sum: f64 = self.rewards_buf.iter().map(|&r| r as f64).sum();

        tabular_state(
            self.bank.observe(access, hit),
            &self.kinds,
            access.addr,
            access.pc,
            self.hash_bits,
            self.cfg.with_pc,
            &mut self.state_buf,
        );
        let token = self.agent.tokenize(&self.state_buf);
        self.agent.set_next_token(token);

        let action = self.agent.select_action(token);
        self.blocks_buf.clear();
        if action < self.bank.len() {
            let sugg = self.bank.suggestions(action);
            out.extend_from_slice(sugg);
            self.blocks_buf.extend(sugg.iter().map(|&p| block_of(p)));
        }
        self.agent.record(token, action, &self.blocks_buf);
        self.stats.record(action, reward_sum);
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        self.bank.on_prefetch_fill(addr);
    }

    fn on_demand_fill(&mut self, addr: u64) {
        self.bank.on_demand_fill(addr);
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        self.bank.on_evict(addr, unused_prefetch);
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        // One virtual dispatch per bank member per drained batch (see
        // `ResembleMlp::on_cache_events`).
        self.bank.on_cache_events(events);
    }

    fn budget_bytes(&self) -> usize {
        // Q-table storage grows with tokenized unique states (Table IV).
        self.bank.budget_bytes() + self.agent.table_entries() * 2
    }

    fn reset(&mut self) {
        self.bank.reset();
        self.agent = TabularAgent::new(self.cfg, self.hash_bits, self.seed);
        self.stats = EnsembleStats::new(self.cfg.action_dim, 1000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resemble_prefetch::{NextLine, PrefetcherBank};
    use resemble_trace::gen::{PointerChaseGen, StreamGen, TraceSource};

    /// A deliberately bad prefetcher: suggests a far-away block that is
    /// never demanded.
    struct Junk;
    impl Prefetcher for Junk {
        fn name(&self) -> &'static str {
            "junk"
        }
        fn kind(&self) -> PredictionKind {
            PredictionKind::Temporal
        }
        fn on_access(&mut self, a: &MemAccess, _h: bool, out: &mut Vec<u64>) {
            out.push(a.addr ^ 0x5555_5400_0000);
        }
        fn budget_bytes(&self) -> usize {
            0
        }
        fn reset(&mut self) {}
    }

    fn two_bank() -> PrefetcherBank {
        PrefetcherBank::new(vec![Box::new(NextLine::new(1)), Box::new(Junk)])
    }

    fn small_cfg() -> ResembleConfig {
        ResembleConfig {
            state_dim: 2,
            action_dim: 3,
            hidden_dim: 16,
            batch_size: 16,
            window: 64,
            eps_decay: 200.0,
            learning_rate: 0.05,
            ..ResembleConfig::default()
        }
    }

    #[test]
    fn mlp_controller_learns_to_avoid_junk_on_stream() {
        let mut ctl = ResembleMlp::new(two_bank(), small_cfg(), 42);
        let mut src = StreamGen::new(1, 1, 1_000_000, 0).with_write_ratio(0.0);
        let mut out = Vec::new();
        for _ in 0..30_000 {
            let a = src.next_access().unwrap();
            out.clear();
            ctl.on_access(&a, false, &mut out);
        }
        // Late windows: next-line (action 0) should dominate junk (action 1).
        let n = ctl.stats.window_actions.len();
        let late = &ctl.stats.window_actions[n - 5..];
        let a0: u32 = late.iter().map(|w| w[0]).sum();
        let a1: u32 = late.iter().map(|w| w[1]).sum();
        assert!(a0 > 3 * a1, "next_line {a0} vs junk {a1}");
        // Rewards trend positive.
        let late_r: f64 = ctl.stats.window_rewards[n - 5..].iter().sum::<f64>() / 5.0;
        assert!(late_r > 0.0, "late mean window reward {late_r}");
    }

    #[test]
    fn tabular_controller_learns_too() {
        let mut ctl = ResembleTabular::new(two_bank(), small_cfg(), 8, 42);
        let mut src = StreamGen::new(1, 1, 1_000_000, 0).with_write_ratio(0.0);
        let mut out = Vec::new();
        for _ in 0..30_000 {
            let a = src.next_access().unwrap();
            out.clear();
            ctl.on_access(&a, false, &mut out);
        }
        let n = ctl.stats.window_actions.len();
        let late = &ctl.stats.window_actions[n - 5..];
        let a0: u32 = late.iter().map(|w| w[0]).sum();
        let a1: u32 = late.iter().map(|w| w[1]).sum();
        assert!(a0 > 2 * a1, "next_line {a0} vs junk {a1}");
        assert!(ctl.agent().unique_states() > 0);
    }

    #[test]
    fn controller_emits_at_most_one_prefetch() {
        let mut ctl = ResembleMlp::new(two_bank(), small_cfg(), 3);
        let mut src = PointerChaseGen::new(2, 2, 50, 1);
        let mut out = Vec::new();
        for _ in 0..2000 {
            let a = src.next_access().unwrap();
            out.clear();
            ctl.on_access(&a, false, &mut out);
            assert!(out.len() <= 1);
        }
        // All three actions exercised under exploration.
        assert!(ctl.stats.action_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn window_decisions_bit_identical_to_sequential() {
        // The serving hot path: chunked on_access_window (batched target
        // forwards) must match per-access on_access exactly — decisions,
        // learned parameters, and stats. Chunk sizes deliberately cross
        // role-switch boundaries (I_t = 20) and include batch-of-1.
        let mut seq = ResembleMlp::new(two_bank(), small_cfg(), 42);
        let mut win = ResembleMlp::new(two_bank(), small_cfg(), 42);
        let mut src = StreamGen::new(3, 2, 4096, 0).with_write_ratio(0.1);
        let accesses: Vec<(MemAccess, bool)> = (0..3000)
            .map(|i| (src.next_access().unwrap(), i % 3 == 0))
            .collect();

        let mut seq_out: Vec<Vec<u64>> = Vec::new();
        let mut buf = Vec::new();
        for (a, hit) in &accesses {
            buf.clear();
            seq.on_access(a, *hit, &mut buf);
            seq_out.push(buf.clone());
        }

        let mut win_out: Vec<Vec<u64>> = vec![Vec::new(); accesses.len()];
        let chunk_sizes = [1usize, 7, 64, 3, 20, 41, 2, 128];
        let mut pos = 0;
        let mut ci = 0;
        while pos < accesses.len() {
            let m = chunk_sizes[ci % chunk_sizes.len()].min(accesses.len() - pos);
            win.on_access_window(&accesses[pos..pos + m], &[], |k, issued| {
                win_out[pos + k] = issued.to_vec();
            });
            pos += m;
            ci += 1;
        }

        assert_eq!(seq_out, win_out, "issued prefetches diverged");
        assert_eq!(
            seq.agent().param_bits(),
            win.agent().param_bits(),
            "trained parameters diverged"
        );
        assert_eq!(seq.stats.accesses(), win.stats.accesses());
        assert_eq!(seq.stats.action_counts, win.stats.action_counts);
        assert_eq!(
            seq.stats
                .window_rewards
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>(),
            win.stats
                .window_rewards
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn split_prepare_commit_through_shared_net_matches_fused_window() {
        // The serve layer's cross-session pooled path: phase B runs
        // through *another* frozen controller's inference net (the
        // session heading the pooled window, same weights), states packed
        // into one matrix at arbitrary row offsets, phases A/C through the
        // session's own controller. Must be bit-identical to the fused
        // on_access_window path.
        let frozen = |seed| {
            let mut m = ResembleMlp::new(two_bank(), small_cfg(), seed);
            m.agent_mut().frozen = true;
            m
        };
        let mut fused = frozen(42);
        let mut split = frozen(42);
        let head = frozen(42);
        let mut scratch = resemble_nn::BatchScratch::default();

        let mut src = StreamGen::new(3, 2, 4096, 0).with_write_ratio(0.1);
        let accesses: Vec<(MemAccess, bool)> = (0..600)
            .map(|i| (src.next_access().unwrap(), i % 4 == 0))
            .collect();

        let mut fused_out: Vec<Vec<u64>> = vec![Vec::new(); accesses.len()];
        let mut split_out: Vec<Vec<u64>> = vec![Vec::new(); accesses.len()];
        let row0 = 3usize; // simulate other sessions' rows packed ahead
        for (c, chunk) in accesses.chunks(37).enumerate() {
            let pos = c * 37;
            fused.on_access_window(chunk, &[], |k, issued| {
                fused_out[pos + k] = issued.to_vec();
            });
            let states = split.window_prepare(chunk, &[]);
            let mut padded = Matrix::zeros(row0 + chunk.len(), states.cols());
            for r in 0..row0 {
                padded.row_mut(r).fill(0.25); // junk rows from "other sessions"
            }
            for r in 0..chunk.len() {
                padded.row_mut(row0 + r).copy_from_slice(states.row(r));
            }
            let q = head
                .agent()
                .inference_net()
                .forward_batch(&padded, &mut scratch);
            split.window_commit(chunk, q, row0, |k, issued| {
                split_out[pos + k] = issued.to_vec();
            });
        }
        assert_eq!(fused_out, split_out, "issued prefetches diverged");
        assert_eq!(fused.agent().param_bits(), split.agent().param_bits());
        assert_eq!(fused.stats.accesses(), split.stats.accesses());
        assert_eq!(fused.stats.action_counts, split.stats.action_counts);
    }

    /// Suggests a line derived from the latest cache event it was told
    /// of, so its suggestion at each access shows exactly which events
    /// preceded that access.
    #[derive(Default)]
    struct LastEvent(Option<u64>);
    impl Prefetcher for LastEvent {
        fn name(&self) -> &'static str {
            "last_event"
        }
        fn kind(&self) -> PredictionKind {
            PredictionKind::Temporal
        }
        fn on_access(&mut self, _a: &MemAccess, _h: bool, out: &mut Vec<u64>) {
            out.extend(self.0);
        }
        fn on_prefetch_fill(&mut self, addr: u64) {
            self.0 = Some(addr);
        }
        fn on_demand_fill(&mut self, addr: u64) {
            self.0 = Some(addr + 64);
        }
        fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
            self.0 = Some(addr + if unused_prefetch { 128 } else { 192 });
        }
        fn budget_bytes(&self) -> usize {
            0
        }
        fn reset(&mut self) {
            self.0 = None;
        }
    }

    /// Apply one cache event through the per-event hooks, as a serve
    /// session's `on_event` does.
    fn hook(ctl: &mut ResembleMlp, e: CacheEvent) {
        match e {
            CacheEvent::PrefetchFill { addr } => ctl.on_prefetch_fill(addr),
            CacheEvent::DemandFill { addr } => ctl.on_demand_fill(addr),
            CacheEvent::Evict {
                addr,
                unused_prefetch,
            } => ctl.on_evict(addr, unused_prefetch),
        }
    }

    #[test]
    fn events_inside_one_window_match_per_segment_windows() {
        // A window whose events ride inside `window_prepare` (applied to
        // the bank at their positions, trailing ones at `chunk.len()`)
        // must equal the per-segment path: the events through the hooks,
        // then `on_access_window` on each event-free segment. So must one
        // `on_access_window` over the whole stream with its events inside.
        // Learning and frozen controllers; the `LastEvent` member makes an
        // event applied one access early or late change a state row.
        let mut src = StreamGen::new(5, 3, 4096, 0).with_write_ratio(0.1);
        let n = 3000usize;
        let accesses: Vec<(MemAccess, bool)> = (0..n)
            .map(|i| (src.next_access().unwrap(), i % 3 == 0))
            .collect();
        // `(index of the access it precedes, event)`, in stream order:
        // none before every third access, two before every seventh, and
        // one after the last access.
        let mut events: Vec<(usize, CacheEvent)> = Vec::new();
        for i in 0..=n {
            let addr = (i as u64 + 1) << 12;
            match i % 3 {
                0 if i < n => {}
                1 => events.push((i, CacheEvent::DemandFill { addr })),
                _ => events.push((
                    i,
                    CacheEvent::Evict {
                        addr,
                        unused_prefetch: i % 2 == 0,
                    },
                )),
            }
            if i % 7 == 0 {
                events.push((i, CacheEvent::PrefetchFill { addr: addr + 4096 }));
            }
        }

        for frozen in [false, true] {
            let build = || {
                let bank = PrefetcherBank::new(vec![
                    Box::new(NextLine::new(1)),
                    Box::new(LastEvent::default()),
                ]);
                let mut m = ResembleMlp::new(bank, small_cfg(), 9);
                m.agent_mut().frozen = frozen;
                m
            };
            let (mut seg, mut win, mut blind, mut one) = (build(), build(), build(), build());

            let mut seg_out: Vec<Vec<u64>> = Vec::new();
            let (mut start, mut ev) = (0usize, 0usize);
            loop {
                while ev < events.len() && events[ev].0 == start {
                    hook(&mut seg, events[ev].1);
                    ev += 1;
                }
                if start == n {
                    break;
                }
                let end = events.get(ev).map_or(n, |e| e.0.min(n));
                seg.on_access_window(&accesses[start..end], &[], |_, issued| {
                    seg_out.push(issued.to_vec())
                });
                start = end;
            }
            assert_eq!(ev, events.len(), "every event applied");

            let mut win_out: Vec<Vec<u64>> = Vec::new();
            let mut scratch = resemble_nn::BatchScratch::default();
            let mut window_events: Vec<(usize, CacheEvent)> = Vec::new();
            let sizes = [1usize, 9, 64, 3, 40, 128];
            let (mut pos, mut ev, mut ci) = (0usize, 0usize, 0usize);
            while pos < n {
                let bound = win.agent().decision_window_bound();
                let m = sizes[ci % sizes.len()].min(bound).min(n - pos);
                ci += 1;
                let chunk = &accesses[pos..pos + m];
                // Events up to and including the next window's first
                // position ride in this window (trailing at `m`).
                window_events.clear();
                while ev < events.len() && events[ev].0 <= pos + m {
                    window_events.push((events[ev].0 - pos, events[ev].1));
                    ev += 1;
                }
                let states = win.window_prepare(chunk, &window_events).clone();
                let q = win
                    .agent()
                    .inference_net()
                    .forward_batch(&states, &mut scratch);
                win.window_commit(chunk, q, 0, |_, issued| win_out.push(issued.to_vec()));
                pos += m;
            }
            assert_eq!(ev, events.len(), "every event applied");

            let mut blind_out: Vec<Vec<u64>> = Vec::new();
            blind.on_access_window(&accesses, &[], |_, issued| blind_out.push(issued.to_vec()));

            // The whole stream in one call, its events inside.
            let mut one_out: Vec<Vec<u64>> = Vec::new();
            one.on_access_window(&accesses, &events, |_, issued| {
                one_out.push(issued.to_vec())
            });

            assert_eq!(
                seg_out, win_out,
                "frozen={frozen}: issued prefetches diverged"
            );
            assert_ne!(seg_out, blind_out, "frozen={frozen}: events never mattered");
            assert_eq!(seg.agent().param_bits(), win.agent().param_bits());
            assert_eq!(seg.stats.accesses(), win.stats.accesses());
            assert_eq!(seg.stats.action_counts, win.stats.action_counts);
            let rewards = |c: &ResembleMlp| {
                c.stats
                    .window_rewards
                    .iter()
                    .map(|r| r.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(rewards(&seg), rewards(&win));

            assert_eq!(
                seg_out, one_out,
                "frozen={frozen}: one call with its events diverged"
            );
            assert_eq!(seg.agent().param_bits(), one.agent().param_bits());
            assert_eq!(seg.stats.action_counts, one.stats.action_counts);
            assert_eq!(rewards(&seg), rewards(&one));
        }
    }

    #[test]
    fn controller_checkpoint_round_trip_is_bit_identical() {
        let mut trained = ResembleMlp::new(two_bank(), small_cfg(), 21);
        let mut src = StreamGen::new(2, 1, 2048, 0);
        let mut out = Vec::new();
        for _ in 0..800 {
            let a = src.next_access().unwrap();
            out.clear();
            trained.on_access(&a, false, &mut out);
        }
        let mut buf = Vec::new();
        trained.save_checkpoint(&mut buf).expect("saves");
        let mut warm = ResembleMlp::new(two_bank(), small_cfg(), 21);
        warm.load_checkpoint(&mut buf.as_slice()).expect("loads");
        assert_eq!(warm.agent().param_bits(), trained.agent().param_bits());
        assert!(!warm.is_frozen());
    }

    #[test]
    fn stats_windows_cover_accesses() {
        let mut ctl = ResembleMlp::new(two_bank(), small_cfg(), 3);
        let mut src = StreamGen::new(5, 2, 512, 1);
        let mut out = Vec::new();
        for _ in 0..3500 {
            let a = src.next_access().unwrap();
            out.clear();
            ctl.on_access(&a, false, &mut out);
        }
        assert_eq!(ctl.stats.accesses(), 3500);
        assert_eq!(ctl.stats.window_rewards.len(), 3); // 1000-access windows
        assert_eq!(ctl.stats.window_actions.len(), 3);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut ctl = ResembleTabular::new(two_bank(), small_cfg(), 8, 1);
        let mut src = StreamGen::new(5, 1, 512, 1);
        let mut out = Vec::new();
        for _ in 0..500 {
            let a = src.next_access().unwrap();
            out.clear();
            ctl.on_access(&a, false, &mut out);
        }
        assert!(ctl.agent().unique_states() > 0);
        ctl.reset();
        assert_eq!(ctl.agent().unique_states(), 0);
        assert_eq!(ctl.stats.accesses(), 0);
    }

    #[test]
    fn paper_constructors_have_paper_dims() {
        let m = ResembleMlp::from_paper(1);
        assert_eq!(m.config().state_dim, 4);
        assert_eq!(m.config().action_dim, 5);
        let t = ResembleTabular::from_paper(1);
        assert_eq!(t.agent().hash_bits(), 8);
    }
}
