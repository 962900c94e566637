//! Per-session model state: what a connected client's access stream is
//! served by, and how a drained plan of requests is applied to it.
//!
//! One connection is one session is one model instance — sessions never
//! share learned state, which is what makes served decisions bit-identical
//! to an offline run of the same stream no matter how the scheduler
//! interleaves sessions. A learning [`ResembleMlp`] controller serves a
//! plan in one [`ResembleMlp::on_access_window`] call, its cache events
//! inside, with one `forward_batch` per window between role switches (the
//! shard runs a frozen one's window in phases around a forward it may
//! share across sessions); every other prefetcher runs its ordinary
//! sequential `on_access` loop, each event applied just before the access
//! it precedes.

use crate::protocol::EventKind;
use resemble_core::{ResembleConfig, ResembleMlp};
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
    pub fn on_run(&mut self, accesses: &[(MemAccess, bool)], emit: impl FnMut(usize, &[u64])) {
        self.on_plan(accesses, &[], emit);
    }

    /// [`SessionModel::on_run`] with cache events between the accesses,
    /// each tagged with the index of the access it precedes
    /// (`accesses.len()` after the last one) and applied just before it.
    pub(crate) fn on_plan(
        &mut self,
        accesses: &[(MemAccess, bool)],
        events: &[(usize, CacheEvent)],
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        match self {
            SessionModel::Mlp(m) => m.on_access_window(accesses, events, emit),
            SessionModel::Boxed(b) => {
                let mut events = events.iter().peekable();
                let mut out = Vec::new();
                for (k, (access, hit)) in accesses.iter().enumerate() {
                    while let Some((_, e)) = events.next_if(|&&(at, _)| at <= k) {
                        b.on_cache_events(std::slice::from_ref(e));
                    }
                    out.clear();
                    b.on_access(access, *hit, &mut out);
                    emit(k, &out);
                }
                for (_, e) in events {
                    b.on_cache_events(std::slice::from_ref(e));
                }
            }
        }
    }

    /// Apply one cache-feedback event in stream order.
    pub fn on_event(&mut self, kind: EventKind, addr: u64) {
        self.prefetcher_mut()
            .on_cache_events(&[cache_event(kind, addr)]);
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

/// The model-level form of a wire event (a one-to-one map): the only way
/// an [`EventKind`] reaches a model, as the frame is queued or through
/// [`SessionModel::on_event`].
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
}
