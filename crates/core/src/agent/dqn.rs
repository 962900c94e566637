//! MLP-based DQN ensemble agent (paper §IV-C/E, Algorithm 1).
//!
//! Two shallow MLPs approximate the Q-function: the *policy net* trains
//! online every `I_p` steps on lazily-sampled valid transitions; the
//! *target net* serves inference and the bootstrap targets (Eq. 10). Every
//! `I_t` steps the two networks *switch roles* and synchronize — the
//! paper's trick for avoiding weight-copy stalls in hardware.
//!
//! Training runs through one of two [`Datapath`]s: the default **batched**
//! path gathers the sampled minibatch into flat matrices and takes one
//! GEMM forward per network plus one GEMM backward per SGD step, while the
//! **per-sample** reference path loops scalar forward/backward passes like
//! the original implementation. The batch kernels preserve per-element
//! accumulation order, so both datapaths produce bit-identical networks —
//! a property the perf gate checks end-to-end by comparing simulator
//! statistics across datapaths.

use crate::config::ResembleConfig;
use crate::replay::ReplayMemory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resemble_nn::checkpoint::{load_mlp_binary, save_mlp_binary};
use resemble_nn::{Activation, BatchScratch, GradBuffer, Matrix, Mlp, Scratch};
use std::io::{self, Read, Write};

/// Magic bytes opening a DQN agent checkpoint.
pub const DQN_MAGIC: [u8; 8] = *b"RSMBDQN1";

/// Agent checkpoint format version written by [`DqnAgent::save_checkpoint`].
pub const DQN_VERSION: u32 = 1;

/// Which `train_once` implementation the agent runs. Both produce
/// bit-identical networks; `PerSample` exists as the measurement reference
/// for the controller-throughput perf gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Datapath {
    /// Minibatch GEMM datapath: one batched target-forward, one batched
    /// policy-forward, one batched backward per SGD step.
    #[default]
    Batched,
    /// Scalar reference datapath: per-sample forward/backward loops.
    PerSample,
}

/// DQN agent with decaying ε-greedy action selection.
pub struct DqnAgent {
    cfg: ResembleConfig,
    policy: Mlp,
    target: Mlp,
    scratch_p: Scratch,
    scratch_t: Scratch,
    batch_scratch_p: BatchScratch,
    batch_scratch_t: BatchScratch,
    grads: GradBuffer,
    rng: StdRng,
    step: u64,
    datapath: Datapath,
    // --- reusable minibatch gather buffers (allocation-free steady state) ---
    ids_buf: Vec<u64>,
    batch_ids: Vec<u64>,
    actions_buf: Vec<usize>,
    targets_buf: Vec<f32>,
    batch_states: Matrix,
    batch_next: Matrix,
    out_grads: Matrix,
    /// training statistics
    pub train_steps: u64,
    /// role switches performed
    pub role_switches: u64,
    /// when set, `train_tick` is a no-op (frozen inference, used by the
    /// quantization study)
    pub frozen: bool,
}

impl DqnAgent {
    /// Build an agent for the given configuration. Panics unless
    /// `cfg.learning_rate` is positive.
    pub fn new(cfg: ResembleConfig, seed: u64) -> Self {
        assert!(cfg.learning_rate > 0.0, "learning rate must be positive");
        let sizes = [cfg.input_dim(), cfg.hidden_dim, cfg.action_dim];
        let policy = Mlp::new(&sizes, Activation::Relu, seed);
        let target = policy.clone();
        let scratch_p = policy.make_scratch();
        let scratch_t = target.make_scratch();
        let batch_scratch_p = policy.make_batch_scratch(cfg.batch_size);
        let batch_scratch_t = target.make_batch_scratch(cfg.batch_size);
        let grads = policy.make_grad_buffer();
        Self {
            cfg,
            policy,
            target,
            scratch_p,
            scratch_t,
            batch_scratch_p,
            batch_scratch_t,
            grads,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
            step: 0,
            datapath: Datapath::default(),
            ids_buf: Vec::new(),
            batch_ids: Vec::new(),
            actions_buf: Vec::new(),
            targets_buf: Vec::new(),
            batch_states: Matrix::default(),
            batch_next: Matrix::default(),
            out_grads: Matrix::default(),
            train_steps: 0,
            role_switches: 0,
            frozen: false,
        }
    }

    /// The training datapath in use.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// Select the training datapath. Switching never changes results —
    /// both paths are bit-identical — only throughput.
    pub fn set_datapath(&mut self, dp: Datapath) {
        self.datapath = dp;
    }

    /// Quantize both networks to `bits`-bit fixed point (hardware study,
    /// paper §VIII); returns the RMS parameter error of the inference net.
    pub fn quantize(&mut self, bits: u32) -> f32 {
        let (_, rms) = resemble_nn::quantize_mlp(&mut self.target, bits);
        resemble_nn::quantize_mlp(&mut self.policy, bits);
        rms
    }

    /// Current ε under the decay schedule.
    pub fn epsilon(&self) -> f64 {
        self.cfg.epsilon(self.step)
    }

    /// Total parameters across both networks.
    pub fn param_count(&self) -> usize {
        self.policy.param_count() + self.target.param_count()
    }

    /// Bit patterns of every parameter (policy net, then target net) —
    /// the bit-identity probe used by determinism and serving tests.
    pub fn param_bits(&self) -> Vec<u32> {
        self.policy
            .flat_params()
            .iter()
            .chain(self.target.flat_params().iter())
            .map(|v| v.to_bits())
            .collect()
    }

    /// Q-values of the inference (target) network for a state.
    pub fn q_values(&mut self, state: &[f32]) -> &[f32] {
        self.target.forward(state, &mut self.scratch_t)
    }

    /// The network currently serving inference (the target net). Sessions
    /// that share frozen weights are pooled by cloning this network once;
    /// frozen agents never train or role-switch, so the clone stays
    /// bit-identical to the original for the life of the pool entry.
    pub fn inference_net(&self) -> &Mlp {
        &self.target
    }

    /// Serialize the agent's learned state: both networks (policy then
    /// target, in the [`resemble_nn::checkpoint`] binary format) plus the
    /// exploration/training counters, behind a versioned header with the
    /// architecture fingerprint. The byte stream is deterministic — a
    /// function of the parameter bits and counters only.
    ///
    /// The ε-greedy RNG stream is *not* serialized: a restored agent
    /// resumes the ε schedule exactly (from the saved `step`) but draws
    /// fresh exploration randomness from its construction seed. Restores
    /// into a freshly built agent are therefore deterministic given the
    /// same `(seed, checkpoint)` pair, which is what the serve layer's
    /// warm-resume test pins.
    pub fn save_checkpoint<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&DQN_MAGIC)?;
        w.write_all(&DQN_VERSION.to_le_bytes())?;
        for dim in [
            self.cfg.input_dim(),
            self.cfg.hidden_dim,
            self.cfg.action_dim,
        ] {
            let d = u32::try_from(dim)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "dimension overflow"))?;
            w.write_all(&d.to_le_bytes())?;
        }
        w.write_all(&self.step.to_le_bytes())?;
        w.write_all(&self.train_steps.to_le_bytes())?;
        w.write_all(&self.role_switches.to_le_bytes())?;
        w.write_all(&[u8::from(self.frozen), 0, 0, 0])?;
        save_mlp_binary(w, &self.policy)?;
        save_mlp_binary(w, &self.target)
    }

    /// Restore state written by [`DqnAgent::save_checkpoint`] into this
    /// agent. The checkpoint's architecture fingerprint must match this
    /// agent's configuration; parameters are loaded in place so every
    /// scratch buffer stays valid. Returns `InvalidData` on any mismatch
    /// without modifying the agent.
    pub fn restore_checkpoint<R: Read>(&mut self, r: &mut R) -> io::Result<()> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != DQN_MAGIC {
            return Err(bad("not a DQN agent checkpoint (bad magic)"));
        }
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        if u32::from_le_bytes(b4) != DQN_VERSION {
            return Err(bad("unsupported agent checkpoint version"));
        }
        for expect in [
            self.cfg.input_dim(),
            self.cfg.hidden_dim,
            self.cfg.action_dim,
        ] {
            r.read_exact(&mut b4)?;
            if u32::from_le_bytes(b4) as usize != expect {
                return Err(bad("checkpoint architecture does not match this agent"));
            }
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let step = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let train_steps = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let role_switches = u64::from_le_bytes(b8);
        r.read_exact(&mut b4)?;
        let frozen = b4[0] != 0;
        let policy = load_mlp_binary(r)?;
        let target = load_mlp_binary(r)?;
        if policy.sizes() != self.policy.sizes() || target.sizes() != self.target.sizes() {
            return Err(bad("checkpoint network shapes do not match this agent"));
        }
        self.policy.load_flat(&policy.flat_params());
        self.target.load_flat(&target.flat_params());
        self.step = step;
        self.train_steps = train_steps;
        self.role_switches = role_switches;
        self.frozen = frozen;
        self.grads.clear();
        Ok(())
    }

    /// ε-greedy action selection on the inference network (Eq. 8 /
    /// Algorithm 1 lines 10–14). Advances the exploration step counter.
    pub fn select_action(&mut self, state: &[f32]) -> usize {
        let eps = self.cfg.epsilon(self.step);
        self.step += 1;
        if self.rng.gen_bool(eps) {
            self.rng.gen_range(0..self.cfg.action_dim)
        } else {
            self.target.argmax(state, &mut self.scratch_t)
        }
    }

    /// Greedy action (no exploration), for evaluation probes.
    pub fn greedy_action(&mut self, state: &[f32]) -> usize {
        self.target.argmax(state, &mut self.scratch_t)
    }

    /// Upper bound on how many consecutive decisions can be served off a
    /// *constant* inference network: the steps remaining until the next
    /// role switch. Training between switches updates only the policy
    /// net, so up to this many states may be pushed through one
    /// [`Mlp::forward_batch`] call (see [`DqnAgent::q_batch_into`]) and
    /// still match per-step [`DqnAgent::select_action`] bit-for-bit.
    /// Frozen agents never switch, so their bound is unlimited.
    pub fn decision_window_bound(&self) -> usize {
        if self.frozen {
            return usize::MAX;
        }
        let it = self.cfg.target_update_interval.max(1);
        usize::try_from(it - (self.step % it)).unwrap_or(usize::MAX)
    }

    /// Batched Q-values of the inference (target) network, one row per
    /// row of `states`, copied into `out`. Each row is bit-identical to
    /// [`DqnAgent::q_values`] on that state (the batch kernels preserve
    /// per-element accumulation order), so callers may argmax rows in
    /// place of per-state forwards.
    pub fn q_batch_into(&mut self, states: &Matrix, out: &mut Matrix) {
        let q = self.target.forward_batch(states, &mut self.batch_scratch_t);
        out.resize(q.rows(), q.cols());
        out.as_mut_slice().copy_from_slice(q.as_slice());
    }

    /// ε-greedy selection from a precomputed Q row, advancing the
    /// exploration step counter. Bit-identical to
    /// [`DqnAgent::select_action`] whenever `q_row` equals the target
    /// network's forward output for the state: the ε draw, the explore
    /// branch, and the ties-broken-low argmax all match.
    pub fn select_action_from_q(&mut self, q_row: &[f32]) -> usize {
        debug_assert_eq!(q_row.len(), self.cfg.action_dim, "Q row width");
        let eps = self.cfg.epsilon(self.step);
        self.step += 1;
        if self.rng.gen_bool(eps) {
            self.rng.gen_range(0..self.cfg.action_dim)
        } else {
            let mut best = 0;
            for i in 1..q_row.len() {
                if q_row[i] > q_row[best] {
                    best = i;
                }
            }
            best
        }
    }

    /// One online-training tick (Algorithm 1 lines 31–39): every `I_p`
    /// steps sample a batch of valid transitions and take one SGD step on
    /// the policy net; every `I_t` steps switch the networks' roles.
    pub fn train_tick(&mut self, replay: &mut ReplayMemory) {
        if self.frozen {
            return;
        }
        if self.step.is_multiple_of(self.cfg.policy_update_interval) {
            self.train_once(replay);
        }
        if self.step > 0 && self.step.is_multiple_of(self.cfg.target_update_interval) {
            self.role_switch();
        }
    }

    /// Sample and apply one batch update (Eq. 9–11) through the selected
    /// [`Datapath`]. Public so the micro-benchmarks can drive a training
    /// step directly.
    pub fn train_once(&mut self, replay: &ReplayMemory) {
        // Both datapaths draw the same ids from the same RNG stream.
        let (rng, ids) = (&mut self.rng, &mut self.ids_buf);
        replay.sample_into(self.cfg.batch_size, rng, ids);
        if self.ids_buf.is_empty() {
            return;
        }
        match self.datapath {
            Datapath::Batched => self.train_once_batched(replay),
            Datapath::PerSample => self.train_once_per_sample(replay),
        }
    }

    /// Batched datapath: gather the sampled transitions into flat
    /// minibatch matrices, then one target [`Mlp::forward_batch`] for the
    /// bootstrap targets, one policy `forward_batch`, and one
    /// [`Mlp::backward_batch`] accumulate every gradient of the SGD step.
    fn train_once_batched(&mut self, replay: &ReplayMemory) {
        let gamma = self.cfg.gamma;
        let a_dim = self.cfg.action_dim;
        let dim = replay.state_dim();
        // Gather the valid sampled transitions, preserving draw order so
        // gradient accumulation matches the per-sample reference exactly.
        self.batch_ids.clear();
        self.actions_buf.clear();
        self.targets_buf.clear();
        for i in 0..self.ids_buf.len() {
            let id = self.ids_buf[i];
            let Some(t) = replay.get(id) else { continue };
            if let (Some(r), Some(_)) = (t.reward, t.next_state) {
                self.batch_ids.push(id);
                self.actions_buf.push(t.action);
                self.targets_buf.push(r);
            }
        }
        let b = self.batch_ids.len();
        self.batch_states.resize(b, dim);
        self.batch_next.resize(b, dim);
        for (i, &id) in self.batch_ids.iter().enumerate() {
            let t = replay.get(id).expect("gathered id is live");
            self.batch_states.row_mut(i).copy_from_slice(t.state);
            self.batch_next
                .row_mut(i)
                .copy_from_slice(t.next_state.expect("gathered id is valid"));
        }
        // y_j = r_j + γ max_a' MLP_t(s_{j+1}, a'), one batched forward.
        let q_next = self
            .target
            .forward_batch(&self.batch_next, &mut self.batch_scratch_t);
        for (i, y) in self.targets_buf.iter_mut().enumerate() {
            let max_next = q_next
                .row(i)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            *y += gamma * max_next;
        }
        // Gradient of 0.5 (Q(s,a) - y)^2 wrt the selected actions only:
        // one batched policy forward, a sparse out-grad matrix, one
        // batched backward.
        self.out_grads.resize(b, a_dim);
        self.out_grads.clear();
        let q = self
            .policy
            .forward_batch(&self.batch_states, &mut self.batch_scratch_p);
        for i in 0..b {
            let a = self.actions_buf[i];
            *self.out_grads.get_mut(i, a) = q.get(i, a) - self.targets_buf[i];
        }
        self.policy
            .backward_batch(&mut self.batch_scratch_p, &self.out_grads, &mut self.grads);
        self.policy
            .apply_grads(&mut self.grads, self.cfg.learning_rate);
        self.train_steps += 1;
    }

    /// Scalar reference datapath: the original per-sample loop, kept as
    /// the measurement baseline for the controller perf gate.
    fn train_once_per_sample(&mut self, replay: &ReplayMemory) {
        let gamma = self.cfg.gamma;
        let a_dim = self.cfg.action_dim;
        let mut out_grad = vec![0.0f32; a_dim];
        for i in 0..self.ids_buf.len() {
            let id = self.ids_buf[i];
            let Some(t) = replay.get(id) else { continue };
            let (reward, next) = match (t.reward, t.next_state) {
                (Some(r), Some(n)) => (r, n),
                _ => continue,
            };
            // y_j = r_j + γ max_a' MLP_t(s_{j+1}, a')
            let q_next = self.target.forward(next, &mut self.scratch_t);
            let max_next = q_next.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let y = reward + gamma * max_next;
            // Gradient of 0.5 (Q(s,a) - y)^2 wrt the selected action only.
            let q = self.policy.forward(t.state, &mut self.scratch_p);
            out_grad.fill(0.0);
            out_grad[t.action] = q[t.action] - y;
            self.policy
                .backward(&mut self.scratch_p, &out_grad, &mut self.grads);
        }
        self.policy
            .apply_grads(&mut self.grads, self.cfg.learning_rate);
        self.train_steps += 1;
    }

    /// Swap the roles of policy and target net, then synchronize (the
    /// paper's stall-free alternative to copying weights into the
    /// inference net).
    fn role_switch(&mut self) {
        std::mem::swap(&mut self.policy, &mut self.target);
        std::mem::swap(&mut self.scratch_p, &mut self.scratch_t);
        std::mem::swap(&mut self.batch_scratch_p, &mut self.batch_scratch_t);
        // Synchronize: the new policy resumes from the freshly-trained
        // weights now serving inference.
        self.policy.copy_params_from(&self.target);
        self.grads.clear();
        self.role_switches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg2() -> ResembleConfig {
        // 2 prefetchers, 3 actions, tiny nets for fast tests.
        ResembleConfig {
            state_dim: 2,
            action_dim: 3,
            hidden_dim: 16,
            batch_size: 16,
            eps_start: 0.9,
            eps_end: 0.0,
            eps_decay: 30.0,
            learning_rate: 0.05,
            ..ResembleConfig::default()
        }
    }

    /// Synthetic environment: action 0 always pays +1, action 1 always −1,
    /// action 2 (NP) pays 0; state is noise. Drives `steps` iterations of
    /// select/push/train against a replay and returns the agent.
    fn run_synthetic(datapath: Datapath, steps: usize, seed: u64) -> DqnAgent {
        let cfg = cfg2();
        let mut agent = DqnAgent::new(cfg, seed);
        agent.set_datapath(datapath);
        let mut replay = ReplayMemory::new(cfg.replay_capacity, cfg.window, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev: Option<u64> = None;
        let mut assigned = Vec::new();
        for _ in 0..steps {
            let s = [rng.gen::<f32>(), rng.gen::<f32>()];
            if let Some(p) = prev {
                replay.set_next_state(p, &s);
            }
            let a = agent.select_action(&s);
            let r = match a {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            };
            // Deliver the reward synchronously: +1 rewards hit on the next
            // access; −1 rewards expire via the window.
            let id = if r == 0.0 {
                replay.push(&s, a, &[])
            } else {
                let block = if r > 0.0 { 0xAAA } else { 0xBBB };
                replay.push(&s, a, &[block])
            };
            replay.on_access(0xAAA, &mut assigned);
            prev = Some(id);
            agent.train_tick(&mut replay);
        }
        agent
    }

    #[test]
    fn learns_dominant_action() {
        let mut agent = run_synthetic(Datapath::Batched, 1500, 7);
        // Greedy policy should now prefer action 0.
        let mut rng = StdRng::seed_from_u64(77);
        let mut wins = 0;
        for _ in 0..50 {
            let s = [rng.gen::<f32>(), rng.gen::<f32>()];
            if agent.greedy_action(&s) == 0 {
                wins += 1;
            }
        }
        assert!(wins >= 40, "wins={wins}/50");
        assert!(agent.train_steps > 0);
    }

    #[test]
    fn datapaths_produce_bit_identical_networks() {
        // Same seeds, same environment, different datapaths: the batch
        // kernels preserve accumulation order, so the trained parameters
        // must agree to the bit.
        let a = run_synthetic(Datapath::Batched, 600, 11);
        let b = run_synthetic(Datapath::PerSample, 600, 11);
        assert_eq!(a.train_steps, b.train_steps);
        let bits = |m: &Mlp| {
            m.flat_params()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a.policy), bits(&b.policy));
        assert_eq!(bits(&a.target), bits(&b.target));
    }

    #[test]
    fn epsilon_decays_with_steps() {
        let mut agent = DqnAgent::new(cfg2(), 1);
        let e0 = agent.epsilon();
        for _ in 0..200 {
            let _ = agent.select_action(&[0.0, 0.0]);
        }
        assert!(agent.epsilon() < e0 / 2.0);
    }

    #[test]
    fn role_switch_happens_every_it_steps() {
        let cfg = cfg2();
        let mut agent = DqnAgent::new(cfg, 2);
        let mut replay = ReplayMemory::new(64, 8, 2);
        for _ in 0..100 {
            let _ = agent.select_action(&[0.1, 0.2]);
            agent.train_tick(&mut replay);
        }
        assert_eq!(agent.role_switches, 100 / cfg.target_update_interval);
    }

    #[test]
    fn networks_agree_after_switch() {
        let cfg = cfg2();
        let mut agent = DqnAgent::new(cfg, 5);
        agent.role_switch();
        let s = [0.3f32, 0.7];
        let qp = agent.policy.predict(&s);
        let qt = agent.target.predict(&s);
        assert_eq!(qp, qt);
    }

    #[test]
    fn param_count_matches_table_iv_for_paper_dims() {
        let agent = DqnAgent::new(ResembleConfig::default(), 0);
        // Two nets of 1005 parameters each (Table IV / Table VIII).
        assert_eq!(agent.param_count(), 2 * 1005);
    }

    #[test]
    fn frozen_agent_does_not_train() {
        let cfg = cfg2();
        let mut agent = DqnAgent::new(cfg, 3);
        agent.frozen = true;
        let mut replay = ReplayMemory::new(64, 8, 2);
        let id = replay.push(&[0.0, 0.0], 2, &[]);
        replay.set_next_state(id, &[0.1, 0.1]);
        for _ in 0..50 {
            let _ = agent.select_action(&[0.0, 0.0]);
            agent.train_tick(&mut replay);
        }
        assert_eq!(agent.train_steps, 0);
        assert_eq!(agent.role_switches, 0);
    }

    #[test]
    fn quantize_preserves_behaviour_at_16_bits() {
        let mut agent = DqnAgent::new(cfg2(), 5);
        let s = [0.3f32, 0.8];
        let before = agent.greedy_action(&s);
        let rms = agent.quantize(16);
        assert!(rms < 1e-4);
        assert_eq!(agent.greedy_action(&s), before);
    }

    #[test]
    fn select_action_from_q_matches_select_action() {
        // Two agents with identical seeds: one selects from states, the
        // other from precomputed Q rows. Actions and exploration state
        // must stay in lockstep.
        let cfg = cfg2();
        let mut a = DqnAgent::new(cfg, 13);
        let mut b = DqnAgent::new(cfg, 13);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..300 {
            let s = [rng.gen::<f32>(), rng.gen::<f32>()];
            let q: Vec<f32> = b.q_values(&s).to_vec();
            assert_eq!(a.select_action(&s), b.select_action_from_q(&q));
        }
        assert_eq!(a.epsilon(), b.epsilon());
    }

    #[test]
    fn q_batch_rows_match_per_state_q_values() {
        let cfg = cfg2();
        let mut agent = DqnAgent::new(cfg, 21);
        let states = Matrix::from_fn(7, 2, |r, c| ((r * 2 + c) as f32 * 0.23).sin());
        let mut q = Matrix::default();
        agent.q_batch_into(&states, &mut q);
        for r in 0..7 {
            let expect: Vec<u32> = agent
                .q_values(states.row(r))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u32> = q.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "row {r}");
        }
    }

    #[test]
    fn decision_window_bound_tracks_role_switches() {
        let cfg = cfg2();
        let it = cfg.target_update_interval as usize;
        let mut agent = DqnAgent::new(cfg, 2);
        let mut replay = ReplayMemory::new(64, 8, 2);
        assert_eq!(agent.decision_window_bound(), it);
        for k in 0..(2 * it) {
            let _ = agent.select_action(&[0.1, 0.2]);
            agent.train_tick(&mut replay);
            let expect = it - ((k + 1) % it);
            assert_eq!(
                agent.decision_window_bound(),
                expect,
                "after step {}",
                k + 1
            );
        }
        agent.frozen = true;
        assert_eq!(agent.decision_window_bound(), usize::MAX);
    }

    #[test]
    fn checkpoint_round_trip_restores_bit_identical_q_values() {
        let mut trained = run_synthetic(Datapath::Batched, 800, 17);
        let mut buf = Vec::new();
        trained.save_checkpoint(&mut buf).expect("saves");
        let mut fresh = DqnAgent::new(cfg2(), 17);
        assert_ne!(fresh.param_bits(), trained.param_bits());
        fresh
            .restore_checkpoint(&mut buf.as_slice())
            .expect("restores");
        assert_eq!(fresh.param_bits(), trained.param_bits());
        assert_eq!(fresh.train_steps, trained.train_steps);
        assert_eq!(fresh.role_switches, trained.role_switches);
        assert_eq!(fresh.epsilon(), trained.epsilon(), "ε schedule resumes");
        let s = [0.42f32, -0.17];
        let a: Vec<u32> = trained.q_values(&s).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = fresh.q_values(&s).iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "restored Q-values diverged");
    }

    #[test]
    fn checkpoint_serialization_is_deterministic() {
        let agent = run_synthetic(Datapath::Batched, 300, 5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        agent.save_checkpoint(&mut a).expect("saves");
        agent.save_checkpoint(&mut b).expect("saves");
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_rejects_architecture_mismatch_without_modifying() {
        let agent = DqnAgent::new(cfg2(), 1);
        let mut buf = Vec::new();
        agent.save_checkpoint(&mut buf).expect("saves");
        // Paper dims (4-wide state) vs the test's 2-wide state.
        let mut other = DqnAgent::new(ResembleConfig::default(), 9);
        let before = other.param_bits();
        assert!(other.restore_checkpoint(&mut buf.as_slice()).is_err());
        assert_eq!(
            other.param_bits(),
            before,
            "failed restore must not touch nets"
        );

        let mut corrupt = buf.clone();
        corrupt[0] ^= 0xFF;
        let mut same = DqnAgent::new(cfg2(), 1);
        assert!(same.restore_checkpoint(&mut corrupt.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_learning_rate() {
        let cfg = ResembleConfig {
            learning_rate: 0.0,
            ..cfg2()
        };
        let _ = DqnAgent::new(cfg, 1);
    }

    #[test]
    fn train_tick_with_empty_replay_is_safe() {
        for dp in [Datapath::Batched, Datapath::PerSample] {
            let cfg = cfg2();
            let mut agent = DqnAgent::new(cfg, 9);
            agent.set_datapath(dp);
            let mut replay = ReplayMemory::new(16, 4, 2);
            for _ in 0..50 {
                let _ = agent.select_action(&[0.0, 0.0]);
                agent.train_tick(&mut replay);
            }
        }
    }
}
