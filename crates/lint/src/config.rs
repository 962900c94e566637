//! `lint.toml` loading and validation.
//!
//! The config pins one thing: the frozen reference engine's path and
//! SHA-256 (`[reference-engine-frozen]`). Every rule's scope is declared
//! once, in [`crate::rules`], and the inline `// lint:allow(rule): reason`
//! escape is the only way to silence a rule.
//!
//! The parser is a deliberate TOML subset — `[section]` headers,
//! `key = "string"` lines and `#` comments. Any key other than those two,
//! in any section, and any other syntax is a hard error, so a typo (or a
//! leftover `[[allow]]` entry) cannot silently change what the lint
//! checks.

use crate::diag::Diagnostic;

/// Parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct LintConfig {
    /// Path of the frozen reference file.
    pub reference_file: String,
    /// Its committed SHA-256.
    pub reference_sha256: String,
}

/// Strip a trailing `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

/// Parse a `key = "value"` line.
fn parse_kv(line: &str) -> Option<(&str, &str)> {
    let (k, v) = line.split_once('=')?;
    let v = v.trim().strip_prefix('"')?.strip_suffix('"')?;
    Some((k.trim(), v))
}

impl LintConfig {
    /// Parse config text. Returns the config or a list of errors
    /// (attributed to `path` for display): unparseable lines, unknown
    /// keys or sections, and a missing reference file or hash.
    pub fn parse(text: &str, path: &str) -> Result<LintConfig, Vec<Diagnostic>> {
        let mut cfg = LintConfig::default();
        let mut errors = Vec::new();
        let mut section = "";
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                section = line;
                continue;
            }
            let error = match (section, parse_kv(line)) {
                ("[reference-engine-frozen]", Some(("file", v))) => {
                    cfg.reference_file = v.to_string();
                    continue;
                }
                ("[reference-engine-frozen]", Some(("sha256", v))) => {
                    cfg.reference_sha256 = v.to_string();
                    continue;
                }
                (sec, Some((key, _))) => format!("unknown key `{key}` in section `{sec}`"),
                (_, None) => format!("unparseable line: `{}`", raw.trim()),
            };
            errors.push(Diagnostic::error("lint-config", path, line_no, error));
        }
        if cfg.reference_file.is_empty() || cfg.reference_sha256.is_empty() {
            errors.push(Diagnostic::error(
                "lint-config",
                path,
                0,
                "missing [reference-engine-frozen] file/sha256".to_string(),
            ));
        }
        if errors.is_empty() {
            Ok(cfg)
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: &str = "[reference-engine-frozen]\n\
                             file = \"crates/sim/src/reference.rs\"\n\
                             sha256 = \"abc123\" # committed hash\n";

    #[test]
    fn parses_reference() {
        let cfg = LintConfig::parse(REFERENCE, "lint.toml").unwrap();
        assert_eq!(cfg.reference_file, "crates/sim/src/reference.rs");
        assert_eq!(cfg.reference_sha256, "abc123");
    }

    #[test]
    fn missing_reference_is_an_error() {
        let err = LintConfig::parse("# empty\n", "lint.toml").unwrap_err();
        assert!(err[0].message.contains("missing [reference-engine-frozen]"));
    }

    #[test]
    fn unknown_keys_are_errors() {
        let err = LintConfig::parse("[reference-engine-frozen]\nsha512 = \"x\"\n", "lint.toml")
            .unwrap_err();
        assert!(err[0].message.contains("unknown key"));

        // A file-level allowlist or scope-table entry is an unknown key:
        // inline escapes silence rules, and `rules` declares every scope.
        for leftover in [
            "[[allow]]\nrule = \"float-eq\"\npath = \"crates/nn/src/matrix.rs\"\n",
            "[[unsafe-allowed]]\nfile = \"crates/nn/src/align.rs\"\nreason = \"x\"\n",
        ] {
            let err =
                LintConfig::parse(&format!("{REFERENCE}{leftover}"), "lint.toml").unwrap_err();
            assert_eq!(err.len(), 2, "{err:?}");
            assert!(
                err.iter().all(|d| d.message.contains("unknown key")),
                "{err:?}"
            );
        }
    }
}
