//! `resemble-lint`: a repo-aware static-analysis pass for the ReSemble
//! workspace. No external dependencies — a hand-rolled lexer plus a
//! lightweight item/path scanner are enough fidelity for the rule set,
//! and the tool has to build in the same offline container as the rest
//! of the workspace.
//!
//! Rules (see [`rules::RULES`] and CONTRIBUTING.md):
//! `nondeterministic-iteration`, `wall-clock-in-sim`, `panic-in-hot-path`,
//! `lossy-cast`, `float-eq`, `reference-engine-frozen`,
//! `simd-outside-kernel`, `unsafe-undocumented`, `lock-order`,
//! `blocking-in-event-loop`, `counter-pairing`, `thread-outside-runtime`.
//!
//! Analysis runs in two passes: per-file rules over each [`FileCtx`] in
//! isolation, then the cross-file rules (`lock-order`,
//! `counter-pairing`) over a workspace symbol/occurrence index built
//! from every retained context ([`index`]). Both passes share one
//! suppression path, so an inline escape at a cross-file diagnostic's
//! witness line works exactly like a per-file one.
//!
//! The inline `// lint:allow(rule): reason` escape is the only way to
//! silence a rule: the reason is required, and an escape no diagnostic
//! hits becomes a warning. `lint.toml` pins only the frozen reference
//! engine ([`config`]); each rule's scope is declared in [`rules`].

pub mod config;
pub mod diag;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod scanner;
pub mod sha256;

use config::LintConfig;
use diag::{Diagnostic, Severity};
use scanner::FileCtx;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Result of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Number of error-severity findings (these fail the gate).
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when there are no errors (warnings do not fail the gate).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

/// Collect every `.rs` file under `root`, skipping [`SKIP_DIRS`], in a
/// deterministic (sorted) order.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lint the workspace rooted at `root` (the directory holding
/// `lint.toml`). Reads the config, checks the frozen reference hash, and
/// runs every per-file rule over every non-vendored `.rs` file.
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let config_rel = "lint.toml";
    let cfg = match std::fs::read_to_string(root.join(config_rel)) {
        Ok(text) => match LintConfig::parse(&text, config_rel) {
            Ok(cfg) => cfg,
            Err(errs) => {
                diags.extend(errs);
                LintConfig::default()
            }
        },
        Err(e) => {
            diags.push(Diagnostic::error(
                "lint-config",
                config_rel,
                0,
                format!("cannot read lint.toml at workspace root: {e}"),
            ));
            LintConfig::default()
        }
    };
    rules::reference_frozen::check(root, &cfg, &mut diags);

    // Pass 1: lex and scan every file, run the per-file rules, and keep
    // the contexts alive — the cross-file pass needs all of them at once.
    let files = collect_rs_files(root);
    let files_scanned = files.len();
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    let mut raw: Vec<Diagnostic> = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue; // non-UTF-8 file: nothing for a Rust lexer to do
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileCtx::new(&rel, &src);
        rules::check_file(&ctx, &mut raw);
        ctxs.push(ctx);
    }

    // Pass 2: cross-file rules over the workspace index.
    rules::check_workspace(&ctxs, &mut raw);

    // Suppression, shared by both passes: a diagnostic (wherever it came
    // from) consults the inline escapes of the file it is anchored to.
    let ctx_by_path: std::collections::BTreeMap<&str, &FileCtx> =
        ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    for d in raw {
        if let Some(ctx) = ctx_by_path.get(d.path.as_str()) {
            if ctx.allowed(d.rule, d.line) {
                continue; // inline escape, now marked used
            }
        }
        diags.push(d);
    }
    // Escapes nothing hit are stale: warn so they get cleaned up.
    for ctx in &ctxs {
        for a in &ctx.allows {
            if !*a.used.borrow() {
                diags.push(Diagnostic::warn(
                    "lint-allow",
                    &ctx.path,
                    a.line,
                    format!(
                        "unused lint:allow escape for `{}`: no diagnostic fires here",
                        a.rules.join(", ")
                    ),
                ));
            }
        }
    }

    diags.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
    LintReport {
        diagnostics: diags,
        files_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Build a throwaway mini-workspace under the build's scratch space.
    fn scratch_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("resemble_lint_ws_{tag}"));
        let _ = fs::remove_dir_all(&root);
        for (rel, body) in files {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, body).unwrap();
        }
        root
    }

    fn lint_toml_for(root: &Path, reference_rel: &str) -> String {
        let sha = sha256::hex_digest(&fs::read(root.join(reference_rel)).unwrap());
        format!("[reference-engine-frozen]\nfile = \"{reference_rel}\"\nsha256 = \"{sha}\"\n")
    }

    #[test]
    fn injected_violations_are_reported_with_file_line() {
        let root = scratch_workspace(
            "inject",
            &[
                ("crates/sim/src/reference.rs", "pub fn r() {}\n"),
                (
                    "crates/sim/src/engine.rs",
                    "fn f(v: &[u64]) -> u64 { v.first().unwrap() + v[0] }\n",
                ),
                (
                    "crates/core/src/x.rs",
                    "use std::collections::HashMap;\nfn g(m: &HashMap<u64, u64>) -> usize { m.keys().count() }\n",
                ),
            ],
        );
        fs::write(
            root.join("lint.toml"),
            lint_toml_for(&root, "crates/sim/src/reference.rs"),
        )
        .unwrap();
        let report = lint_workspace(&root);
        assert!(!report.is_clean());
        let msgs: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        assert!(
            msgs.iter().any(
                |m| m.contains("crates/sim/src/engine.rs:1") && m.contains("panic-in-hot-path")
            ),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("crates/core/src/x.rs:1")
                && m.contains("nondeterministic-iteration")),
            "{msgs:?}"
        );
    }

    #[test]
    fn inline_escape_suppresses_and_stale_escape_warns() {
        let root = scratch_workspace(
            "escape",
            &[
                ("crates/sim/src/reference.rs", "pub fn r() {}\n"),
                (
                    "crates/nn/src/matrix.rs",
                    "// lint:allow(float-eq): exact sparsity sentinel\n\
                     fn f(x: f32) -> bool { x == 0.0 }\n\
                     // lint:allow(float-eq): stale escape, nothing below\n\
                     fn g(a: u64, b: u64) -> bool { a == b }\n",
                ),
            ],
        );
        fs::write(
            root.join("lint.toml"),
            lint_toml_for(&root, "crates/sim/src/reference.rs"),
        )
        .unwrap();
        let report = lint_workspace(&root);
        assert_eq!(report.errors(), 0, "{:?}", report.diagnostics);
        // The stale escape on line 3 surfaces as a warning.
        assert_eq!(report.warnings(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 3);
    }

    #[test]
    fn reference_drift_fails() {
        let root = scratch_workspace(
            "config",
            &[("crates/sim/src/reference.rs", "pub fn r() {}\n")],
        );
        fs::write(
            root.join("lint.toml"),
            lint_toml_for(&root, "crates/sim/src/reference.rs"),
        )
        .unwrap();
        assert!(lint_workspace(&root).is_clean());

        // Now drift the reference engine: the frozen-hash rule must fire.
        fs::write(root.join("crates/sim/src/reference.rs"), "pub fn r2() {}\n").unwrap();
        let report = lint_workspace(&root);
        assert_eq!(report.errors(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, "reference-engine-frozen");
    }

    #[test]
    fn missing_config_is_an_error() {
        let root = scratch_workspace("noconfig", &[("src/lib.rs", "pub fn f() {}\n")]);
        let report = lint_workspace(&root);
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "lint-config" && d.message.contains("cannot read lint.toml")));
    }

    #[test]
    fn vendor_and_target_are_skipped() {
        let root = scratch_workspace(
            "skip",
            &[
                ("crates/sim/src/reference.rs", "pub fn r() {}\n"),
                (
                    "vendor/thing/src/lib.rs",
                    "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n",
                ),
                (
                    "target/debug/build/gen.rs",
                    "fn f(v: &[u64]) -> u64 { v[0] }\n",
                ),
            ],
        );
        fs::write(
            root.join("lint.toml"),
            lint_toml_for(&root, "crates/sim/src/reference.rs"),
        )
        .unwrap();
        let report = lint_workspace(&root);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files_scanned, 1);
    }
}
