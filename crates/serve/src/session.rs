//! Per-session model state: what a connected client's access stream is
//! served by, and how a drained plan of requests is applied to it.
//!
//! One connection is one session is one model instance — sessions never
//! share learned state, which is what makes served decisions bit-identical
//! to an offline run of the same stream no matter how the scheduler
//! interleaves sessions. The [`ResembleMlp`] controller gets the batched
//! decision-window path ([`ResembleMlp::on_access_window`], one
//! `forward_batch` per window; a frozen one splits each window around a
//! forward that the shard may share across sessions); every other
//! prefetcher runs its ordinary sequential `on_access` loop.

use crate::protocol::EventKind;
use resemble_core::{ResembleConfig, ResembleMlp};
use resemble_nn::{Matrix, Mlp};
use resemble_prefetch::{
    paper_bank, BestOffset, CacheEvent, Prefetcher, Spp, Streamer, StridePrefetcher,
};
use resemble_trace::MemAccess;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The model a session's requests are applied to.
pub enum SessionModel {
    /// The DQN ensemble controller, served through the batched
    /// decision-window path.
    Mlp(Box<ResembleMlp>),
    /// Any other prefetcher, served sequentially.
    Boxed(Box<dyn Prefetcher + Send>),
}

/// Builds a [`SessionModel`] from a Hello's `(model, seed, fast)` triple.
/// The server takes one of these so binaries can widen the registry (the
/// bench `serve` bin plugs in the full factory) without this crate
/// depending on them.
pub type ModelBuilder = Arc<dyn Fn(&str, u64, bool) -> Result<SessionModel, String> + Send + Sync>;

impl SessionModel {
    /// The built-in registry: the two ReSemble serving configurations plus
    /// a few cheap classical prefetchers for tests and load generation.
    pub fn build(model: &str, seed: u64, fast: bool) -> Result<SessionModel, String> {
        let cfg = if fast {
            ResembleConfig::fast()
        } else {
            ResembleConfig::default()
        };
        Ok(match model {
            "resemble" => SessionModel::Mlp(Box::new(ResembleMlp::new(paper_bank(), cfg, seed))),
            "resemble_frozen" => {
                // Deployment-style serving: inference only, no online
                // training, so decision windows are unbounded.
                let mut m = ResembleMlp::new(paper_bank(), cfg, seed);
                m.agent_mut().frozen = true;
                SessionModel::Mlp(Box::new(m))
            }
            "resemble_frozen_wide" => {
                // Serving stress configuration: the frozen inference path
                // with a Voyager-class 1024-wide hidden layer, so the
                // per-decision cost is dominated by the forward GEMM
                // (what cross-session pooling amortizes) rather than by
                // the paper's hardware-scale 100-wide controller.
                let mut cfg = cfg;
                cfg.hidden_dim = 1024;
                let mut m = ResembleMlp::new(paper_bank(), cfg, seed);
                m.agent_mut().frozen = true;
                SessionModel::Mlp(Box::new(m))
            }
            "bo" => SessionModel::Boxed(Box::new(BestOffset::new())),
            "spp" => SessionModel::Boxed(Box::new(Spp::new())),
            "stride" => SessionModel::Boxed(Box::new(StridePrefetcher::default())),
            "streamer" => SessionModel::Boxed(Box::new(Streamer::default())),
            other => return Err(format!("unknown model '{other}'")),
        })
    }

    /// The default [`ModelBuilder`] wrapping [`SessionModel::build`].
    pub fn default_builder() -> ModelBuilder {
        Arc::new(SessionModel::build)
    }

    fn prefetcher_mut(&mut self) -> &mut (dyn Prefetcher + Send) {
        match self {
            SessionModel::Mlp(m) => &mut **m,
            SessionModel::Boxed(b) => &mut **b,
        }
    }

    /// Apply a run of consecutive accesses, calling
    /// `emit(index_in_run, issued_prefetches)` once per access in order.
    pub fn on_run(&mut self, accesses: &[(MemAccess, bool)], mut emit: impl FnMut(usize, &[u64])) {
        match self {
            SessionModel::Mlp(m) => m.on_access_window(accesses, emit),
            SessionModel::Boxed(b) => {
                let mut out = Vec::new();
                for (k, (access, hit)) in accesses.iter().enumerate() {
                    out.clear();
                    b.on_access(access, *hit, &mut out);
                    emit(k, &out);
                }
            }
        }
    }

    /// Apply one cache-feedback event in stream order.
    pub fn on_event(&mut self, kind: EventKind, addr: u64) {
        let p = self.prefetcher_mut();
        match kind {
            EventKind::PrefetchFill => p.on_prefetch_fill(addr),
            EventKind::DemandFill => p.on_demand_fill(addr),
            EventKind::Evict { unused_prefetch } => p.on_evict(addr, unused_prefetch),
        }
    }

    /// Bit patterns of the controller's network parameters, if this model
    /// has any (the determinism tests compare these across serving paths).
    pub fn param_bits(&self) -> Option<Vec<u32>> {
        match self {
            SessionModel::Mlp(m) => Some(m.agent().param_bits()),
            SessionModel::Boxed(_) => None,
        }
    }

    /// `true` when this session can join a cross-session pooled window:
    /// an MLP controller whose agent is frozen, so its inference weights
    /// are a pure function of the Hello triple and never change.
    pub fn pool_eligible(&self) -> bool {
        matches!(self, SessionModel::Mlp(m) if m.is_frozen())
    }

    /// The controller's inference network: the heading session's copy
    /// forwards a pooled window. `None` for non-MLP sessions.
    pub fn inference_net(&self) -> Option<&Mlp> {
        match self {
            SessionModel::Mlp(m) => Some(m.agent().inference_net()),
            SessionModel::Boxed(_) => None,
        }
    }

    /// Phase A of a pooled decision window: feed the run through the
    /// prefetcher bank, applying each `(index of the access it precedes,
    /// event)` at its position, and capture per-access MLP states. Returns
    /// the state matrix (one row per access), or `None` for non-MLP
    /// sessions. Every `window_prepare` must be followed by exactly one
    /// [`SessionModel::window_commit`] over the same run.
    pub fn window_prepare(
        &mut self,
        accesses: &[(MemAccess, bool)],
        events: &[(usize, CacheEvent)],
    ) -> Option<&Matrix> {
        match self {
            SessionModel::Mlp(m) => Some(m.window_prepare(accesses, events)),
            SessionModel::Boxed(_) => None,
        }
    }

    /// Phase C of a pooled decision window: consume Q rows
    /// `row0..row0 + run.len()` of `q` and commit rewards, action
    /// selection, replay, and emissions exactly as the fused
    /// [`ResembleMlp::on_access_window`] would.
    pub fn window_commit(
        &mut self,
        accesses: &[(MemAccess, bool)],
        q: &Matrix,
        row0: usize,
        emit: impl FnMut(usize, &[u64]),
    ) {
        if let SessionModel::Mlp(m) = self {
            m.window_commit(accesses, q, row0, emit);
        }
    }

    /// Serialize the controller's learned state. Returns `Ok(false)` for
    /// sessions with nothing to checkpoint (non-MLP models).
    pub fn save_checkpoint<W: io::Write>(&self, w: &mut W) -> io::Result<bool> {
        match self {
            SessionModel::Mlp(m) => m.save_checkpoint(w).map(|()| true),
            SessionModel::Boxed(_) => Ok(false),
        }
    }

    /// Restore controller state written by
    /// [`SessionModel::save_checkpoint`]. Returns `Ok(false)` for models
    /// with nothing to restore.
    pub fn load_checkpoint<R: io::Read>(&mut self, r: &mut R) -> io::Result<bool> {
        match self {
            SessionModel::Mlp(m) => m.load_checkpoint(r).map(|()| true),
            SessionModel::Boxed(_) => Ok(false),
        }
    }
}

/// The bank-level form of a wire event, for
/// [`SessionModel::window_prepare`] (a one-to-one map).
pub(crate) fn cache_event(kind: EventKind, addr: u64) -> CacheEvent {
    match kind {
        EventKind::PrefetchFill => CacheEvent::PrefetchFill { addr },
        EventKind::DemandFill => CacheEvent::DemandFill { addr },
        EventKind::Evict { unused_prefetch } => CacheEvent::Evict {
            addr,
            unused_prefetch,
        },
    }
}

/// The checkpoint file a `(model, seed, fast)` session maps to under
/// `dir`. The model name is sanitized to a filename-safe alphabet so an
/// adversarial Hello cannot traverse out of the checkpoint directory.
pub fn checkpoint_path(dir: &Path, model: &str, seed: u64, fast: bool) -> PathBuf {
    let safe: String = model
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}-{seed}-{}.ckpt", u8::from(fast)))
}

/// Best-effort atomic save of a session's controller state under `dir`
/// (temp file + rename, so readers never observe a torn checkpoint).
/// `nonce` disambiguates concurrent writers of the same key — use the
/// session id. Returns `true` only when a checkpoint was durably written.
pub fn save_checkpoint_file(
    dir: &Path,
    model: &str,
    seed: u64,
    fast: bool,
    nonce: u64,
    session: &SessionModel,
) -> bool {
    let mut buf = Vec::new();
    match session.save_checkpoint(&mut buf) {
        Ok(true) => {}
        _ => return false,
    }
    if fs::create_dir_all(dir).is_err() {
        return false;
    }
    let path = checkpoint_path(dir, model, seed, fast);
    let tmp = dir.join(format!(".{nonce}.ckpt.tmp"));
    if fs::write(&tmp, &buf).is_err() {
        let _ = fs::remove_file(&tmp);
        return false;
    }
    if fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Warm-start a freshly built session from its checkpoint file, if one
/// exists and matches the session's architecture. Returns `true` when
/// state was restored; on any error the session is left cold (a fresh
/// build), never half-restored.
pub fn load_checkpoint_file(
    dir: &Path,
    model: &str,
    seed: u64,
    fast: bool,
    session: &mut SessionModel,
) -> bool {
    let path = checkpoint_path(dir, model, seed, fast);
    let Ok(bytes) = fs::read(&path) else {
        return false;
    };
    matches!(session.load_checkpoint(&mut bytes.as_slice()), Ok(true))
}

/// Offline reference run: the plain sequential `Prefetcher::on_access`
/// loop over a trace, returning the issued prefetches per access. This is
/// the ground truth the loopback bit-identity tests compare served
/// decisions against.
pub fn offline_decisions(model: &mut SessionModel, trace: &[(MemAccess, bool)]) -> Vec<Vec<u64>> {
    let p = model.prefetcher_mut();
    let mut out = Vec::new();
    let mut decisions = Vec::with_capacity(trace.len());
    for (access, hit) in trace {
        out.clear();
        p.on_access(access, *hit, &mut out);
        decisions.push(out.clone());
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: u64) -> Vec<(MemAccess, bool)> {
        (0..n)
            .map(|i| {
                (
                    MemAccess::load(i, 0x400 + (i % 7) * 4, 0x10_0000 + i * 64),
                    i % 3 == 0,
                )
            })
            .collect()
    }

    #[test]
    fn registry_builds_known_models_and_rejects_unknown() {
        for name in [
            "resemble",
            "resemble_frozen",
            "bo",
            "spp",
            "stride",
            "streamer",
        ] {
            assert!(SessionModel::build(name, 1, true).is_ok(), "{name}");
        }
        let err = SessionModel::build("nope", 1, true).err().expect("unknown");
        assert!(err.contains("nope"));
    }

    #[test]
    fn run_matches_offline_for_boxed_models() {
        let t = trace(200);
        let mut offline = SessionModel::build("bo", 7, true).expect("builds");
        let expect = offline_decisions(&mut offline, &t);
        let mut served = SessionModel::build("bo", 7, true).expect("builds");
        let mut got: Vec<Vec<u64>> = Vec::new();
        for chunk in t.chunks(13) {
            served.on_run(chunk, |_, issued| got.push(issued.to_vec()));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn run_matches_offline_for_mlp_models() {
        let t = trace(300);
        let mut offline = SessionModel::build("resemble", 11, true).expect("builds");
        let expect = offline_decisions(&mut offline, &t);
        let mut served = SessionModel::build("resemble", 11, true).expect("builds");
        let mut got: Vec<Vec<u64>> = Vec::new();
        for chunk in t.chunks(37) {
            served.on_run(chunk, |_, issued| got.push(issued.to_vec()));
        }
        assert_eq!(got, expect);
        assert_eq!(served.param_bits(), offline.param_bits());
        assert!(served.param_bits().is_some());
    }

    #[test]
    fn events_dispatch_without_error() {
        let mut m = SessionModel::build("resemble", 3, true).expect("builds");
        m.on_event(EventKind::PrefetchFill, 0x1000);
        m.on_event(EventKind::DemandFill, 0x1040);
        m.on_event(
            EventKind::Evict {
                unused_prefetch: true,
            },
            0x1000,
        );
        let mut issued = 0usize;
        m.on_run(&trace(5), |_, p| issued += p.len());
        let _ = issued;
    }

    #[test]
    fn pool_eligibility_is_frozen_mlp_only() {
        assert!(SessionModel::build("resemble_frozen", 1, true)
            .expect("builds")
            .pool_eligible());
        assert!(!SessionModel::build("resemble", 1, true)
            .expect("builds")
            .pool_eligible());
        assert!(!SessionModel::build("bo", 1, true)
            .expect("builds")
            .pool_eligible());
    }

    #[test]
    fn checkpoint_file_round_trip_restores_learned_state() {
        let dir = std::env::temp_dir().join(format!(
            "resemble-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t = trace(400);
        let mut trained = SessionModel::build("resemble", 21, true).expect("builds");
        trained.on_run(&t, |_, _| {});
        assert!(save_checkpoint_file(
            &dir, "resemble", 21, true, 7, &trained
        ));
        let mut warm = SessionModel::build("resemble", 21, true).expect("builds");
        assert!(load_checkpoint_file(&dir, "resemble", 21, true, &mut warm));
        assert_eq!(warm.param_bits(), trained.param_bits());
        // Missing file leaves a fresh session cold.
        let mut cold = SessionModel::build("resemble", 22, true).expect("builds");
        assert!(!load_checkpoint_file(&dir, "resemble", 22, true, &mut cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_path_sanitizes_model_names() {
        let p = checkpoint_path(Path::new("/tmp/x"), "../evil/name", 3, false);
        let name = p.file_name().and_then(|n| n.to_str()).expect("name");
        assert_eq!(name, "___evil_name-3-0.ckpt");
        assert_eq!(p.parent(), Some(Path::new("/tmp/x")));
    }

    #[test]
    fn split_window_phases_match_fused_run() {
        // The shard's frozen-window path: one window per chunk with its
        // events inside `window_prepare`, forwarded through the inference
        // net, must serve what `on_event` + `on_run` per segment serve.
        let t = trace(119); // seven chunks of 17
        let fill = |i: usize| (EventKind::DemandFill, 0x10_0000 + i as u64 * 64 + 192);
        let mut fused = SessionModel::build("resemble_frozen", 9, true).expect("builds");
        let mut expect: Vec<Vec<u64>> = Vec::new();
        for (c, chunk) in t.chunks(17).enumerate() {
            fused.on_run(&chunk[..5], |_, issued| expect.push(issued.to_vec()));
            let (kind, addr) = fill(c);
            fused.on_event(kind, addr);
            fused.on_run(&chunk[5..], |_, issued| expect.push(issued.to_vec()));
        }
        let mut split = SessionModel::build("resemble_frozen", 9, true).expect("builds");
        let mut got: Vec<Vec<u64>> = Vec::new();
        let mut scratch = resemble_nn::BatchScratch::default();
        for (c, chunk) in t.chunks(17).enumerate() {
            let (kind, addr) = fill(c);
            let states = split
                .window_prepare(chunk, &[(5, cache_event(kind, addr))])
                .expect("mlp session")
                .clone();
            let net = split.inference_net().expect("mlp session");
            let q = net.forward_batch(&states, &mut scratch);
            split.window_commit(chunk, q, 0, |_, issued| got.push(issued.to_vec()));
        }
        assert_eq!(got, expect);
        assert_eq!(split.param_bits(), fused.param_bits());
    }
}
