//! `reference-engine-frozen`: the bit-identity yardstick must not drift.
//!
//! `crates/sim/src/reference.rs` is the slow, obviously-correct engine
//! that the optimized hot path is proptest-compared against, and the
//! perf-gate baseline was recorded against its behaviour. Any edit to it
//! moves the yardstick itself, so its SHA-256 is committed in `lint.toml`
//! and checked here. Changing the reference engine is allowed only as a
//! deliberate act: update the file *and* the committed hash in the same
//! change, with the justification in the commit message.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::sha256;
use std::path::Path;

/// Rule name.
pub const RULE: &str = "reference-engine-frozen";

/// Check the committed hash against the file on disk.
pub fn check(root: &Path, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if cfg.reference_file.is_empty() {
        // The config parser already reported the missing section.
        return;
    }
    let path = root.join(&cfg.reference_file);
    let data = match std::fs::read(&path) {
        Ok(d) => d,
        Err(e) => {
            out.push(Diagnostic::error(
                RULE,
                &cfg.reference_file,
                0,
                format!("cannot read frozen reference file: {e}"),
            ));
            return;
        }
    };
    let actual = sha256::hex_digest(&data);
    if actual != cfg.reference_sha256 {
        out.push(Diagnostic::error(
            RULE,
            &cfg.reference_file,
            0,
            format!(
                "reference engine has changed: sha256 is {actual} but lint.toml \
                 commits {}. The reference engine is the bit-identity and perf-gate \
                 yardstick; if this edit is deliberate, update the hash in lint.toml \
                 in the same change and justify it in the commit message",
                cfg.reference_sha256
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf()
    }

    fn cfg_with(file: &str, sha: &str) -> LintConfig {
        LintConfig {
            reference_file: file.to_string(),
            reference_sha256: sha.to_string(),
        }
    }

    #[test]
    fn matching_hash_passes() {
        let root = repo_root();
        let data = std::fs::read(root.join("crates/sim/src/reference.rs")).unwrap();
        let cfg = cfg_with("crates/sim/src/reference.rs", &sha256::hex_digest(&data));
        let mut out = Vec::new();
        check(&root, &cfg, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn drifted_hash_fails_with_both_hashes() {
        let root = repo_root();
        let cfg = cfg_with("crates/sim/src/reference.rs", &"0".repeat(64));
        let mut out = Vec::new();
        check(&root, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("has changed"));
        assert!(out[0].message.contains(&"0".repeat(64)));
    }

    #[test]
    fn missing_file_is_loud() {
        let cfg = cfg_with("crates/sim/src/no_such_reference.rs", "abc");
        let mut out = Vec::new();
        check(&repo_root(), &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("cannot read"));
    }
}
