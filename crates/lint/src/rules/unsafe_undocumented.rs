//! `unsafe-undocumented`: every `unsafe` block, fn, or impl must be
//! preceded by a `// SAFETY:` comment stating the invariant that makes
//! it sound, and `unsafe` may only appear at all in the allowlisted file
//! set ([`super::UNSAFE_ALLOWED_FILES`], which gives each file's reason).
//!
//! The documentation check accepts the comment on the same line, on the
//! line directly above, or above a contiguous block of comment and/or
//! attribute lines — so `// SAFETY: …` above `#[target_feature(…)]`
//! above `unsafe fn` counts, as does a multi-line SAFETY paragraph.
//! Doc-comment forms (`/// SAFETY:`, `//! SAFETY:`) count too.
//!
//! Keeping the allowlist tiny is the point: raw syscalls live in the
//! event loop, SIMD intrinsics live in the kernel module, manual
//! allocation lives in `AlignedVec` — and nowhere else. A new `unsafe`
//! site outside those files should be a conversation (see
//! CONTRIBUTING.md "Adding an `unsafe` block"), not a habit.

use super::UNSAFE_ALLOWED_FILES;
use crate::diag::Diagnostic;
use crate::scanner::FileCtx;
use std::collections::BTreeSet;

/// Rule name.
pub const RULE: &str = "unsafe-undocumented";

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.test_path {
        return;
    }
    let unsafe_lines: Vec<u32> = ctx
        .tokens
        .iter()
        .filter(|t| t.is_ident("unsafe") && !ctx.in_test(t.line))
        .map(|t| t.line)
        .collect();
    if unsafe_lines.is_empty() {
        return;
    }

    let allowlisted = UNSAFE_ALLOWED_FILES.contains(&ctx.path.as_str());
    let comment_lines: BTreeSet<u32> = ctx.comments.iter().map(|c| c.line).collect();
    let attr_lines = attribute_lines(ctx);
    let safety_lines: BTreeSet<u32> = ctx
        .comments
        .iter()
        .filter(|c| {
            c.text
                .trim_start_matches(['/', '!', '*', ' ', '\t'])
                .starts_with("SAFETY:")
        })
        .map(|c| c.line)
        .collect();

    let mut flagged = BTreeSet::new();
    for line in unsafe_lines {
        if !flagged.insert(line) {
            continue; // one diagnostic per line, e.g. `unsafe { … } unsafe { … }`
        }
        if !allowlisted {
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                line,
                "`unsafe` outside the allowlisted file set: unsafe code is confined to \
                 the files in rules::UNSAFE_ALLOWED_FILES (event loop syscalls, SIMD \
                 kernels, AlignedVec); move the code behind an existing safe wrapper or \
                 make the case for extending the allowlist"
                    .to_string(),
            ));
        }
        if !documented(line, &comment_lines, &attr_lines, &safety_lines) {
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                line,
                "`unsafe` without a `// SAFETY:` comment: state the invariant that makes \
                 this sound (what the caller/kernel guarantees, why the pointers are \
                 valid, …) on the line(s) directly above"
                    .to_string(),
            ));
        }
    }
}

/// Is the `unsafe` at `line` covered by a SAFETY comment — same line,
/// directly above, or above a contiguous run of comment/attribute lines?
fn documented(
    line: u32,
    comment_lines: &BTreeSet<u32>,
    attr_lines: &BTreeSet<u32>,
    safety_lines: &BTreeSet<u32>,
) -> bool {
    if safety_lines.contains(&line) {
        return true; // trailing `// SAFETY: …` on the unsafe line itself
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if safety_lines.contains(&l) {
            return true;
        }
        // Climb through ordinary comments (a SAFETY paragraph's later
        // lines, or an interleaved lint:allow escape) and attributes
        // (`#[target_feature]`, `#[cfg]`) — anything else ends the walk.
        if comment_lines.contains(&l) || attr_lines.contains(&l) {
            continue;
        }
        return false;
    }
    false
}

/// Every line covered by an outer attribute (`#[…]`), including
/// multi-line attributes.
fn attribute_lines(ctx: &FileCtx) -> BTreeSet<u32> {
    let toks = &ctx.tokens;
    let n = toks.len();
    let mut lines = BTreeSet::new();
    let mut i = 0;
    while i < n {
        if !(toks[i].is_punct("#") && i + 1 < n && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let start = toks[i].line;
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut end = start;
        while j < n {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    end = toks[j].line;
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        for l in start..=end {
            lines.insert(l);
        }
        i = j.max(i + 1);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileCtx;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(path, src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn positive_undocumented_in_allowlisted_file() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let d = run("crates/nn/src/align.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn negative_documented_directly_above() {
        let src = "pub fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: caller guarantees p points at a live byte.\n\
                   unsafe { *p }\n\
                   }\n";
        assert!(run("crates/nn/src/align.rs", src).is_empty());
    }

    #[test]
    fn negative_multiline_safety_paragraph_and_doc_comment() {
        let src = "/// SAFETY: the buffer is owned by self and outlives\n\
                   /// every borrow handed out by this function.\n\
                   unsafe fn g() {}\n\
                   // SAFETY: trailing form also counts.\n\
                   pub fn h(p: *const u8) -> u8 { unsafe { *p } } // on same line\n";
        // Rewrite: put the trailing-comment case truly on the unsafe line.
        let src2 = "pub fn h(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: p is live.\n";
        assert!(run("crates/nn/src/simd.rs", src).is_empty(), "walk-up");
        assert!(run("crates/nn/src/simd.rs", src2).is_empty(), "same line");
    }

    #[test]
    fn negative_safety_above_attributes() {
        let src = "// SAFETY: only called on AVX2 hosts (runtime-detected).\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   #[inline]\n\
                   unsafe fn kernel() {}\n";
        assert!(run("crates/nn/src/simd.rs", src).is_empty());
    }

    #[test]
    fn positive_unallowlisted_file_even_when_documented() {
        let src = "// SAFETY: documented but in the wrong file.\n\
                   pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = run("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("allowlisted file set"), "{d:?}");
    }

    #[test]
    fn negative_test_paths_and_test_regions() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(run("crates/serve/tests/x.rs", src).is_empty());
        let src2 = "#[cfg(test)]\n\
                    mod tests {\n\
                        fn f(p: *const u8) -> u8 { unsafe { *p } }\n\
                    }\n";
        assert!(run("crates/core/src/x.rs", src2).is_empty());
    }

    #[test]
    fn positive_undocumented_and_unallowlisted_reports_both() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = run("crates/serve/src/server.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn negative_comment_must_actually_say_safety() {
        let src = "// this dereference is fine, trust me\n\
                   pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = run("crates/nn/src/align.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
    }
}
