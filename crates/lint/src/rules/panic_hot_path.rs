//! `panic-in-hot-path`: `unwrap()` / `expect()` / `panic!` /
//! `unreachable!` / `todo!` / `unimplemented!` / literal indexing in the
//! simulator hot files and the serve datapath files.
//!
//! A panic half-way through a multi-billion-access trace throws away the
//! whole run; a panic in a shard visit or telemetry recorder takes down
//! every session on a live server. Both hot paths must either handle the
//! case or carry a `lint:allow` escape whose reason explains why the
//! invariant is guaranteed (e.g. a `try_into` on a slice whose length the
//! type system cannot see but the surrounding code pins).
//!
//! Test regions (`#[test]` fns, `#[cfg(test)]` modules) are exempt:
//! panicking is how tests fail.

use super::{HOT_FILES, SERVE_HOT_FILES};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::scanner::FileCtx;

/// Rule name.
pub const RULE: &str = "panic-in-hot-path";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let path = ctx.path.as_str();
    if !HOT_FILES.contains(&path) && !SERVE_HOT_FILES.contains(&path) {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        // `.unwrap(` / `.expect(` method calls.
        if i >= 1
            && toks[i - 1].is_punct(".")
            && t.ident().is_some_and(|n| n == "unwrap" || n == "expect")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let name = t.ident().unwrap_or_default();
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                t.line,
                format!(
                    ".{name}() on the hot path aborts the whole simulation on failure; \
                     handle the case or add a lint:allow escape justifying the invariant"
                ),
            ));
        }
        // panic!/unreachable!/todo!/unimplemented! macro invocations.
        if t.ident().is_some_and(|n| PANIC_MACROS.contains(&n))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            let name = t.ident().unwrap_or_default();
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                t.line,
                format!("{name}! on the hot path aborts the whole simulation"),
            ));
        }
        // Literal indexing `expr[0]`: an out-of-range literal index is a
        // guaranteed panic; prefer `.first()`/`.get(n)` or restructure.
        if t.is_punct("[")
            && i >= 1
            && toks.get(i + 2).is_some_and(|n| n.is_punct("]"))
            && matches!(toks.get(i + 1).map(|n| &n.kind), Some(TokKind::Int))
        {
            let prev = &toks[i - 1];
            let is_index_base =
                matches!(prev.kind, TokKind::Ident(_)) || prev.is_punct("]") || prev.is_punct(")");
            // `ident [` after `let`/`for`/`|` is a slice pattern, and
            // `< ident > [`-style positions don't occur; the base test
            // above keeps types like `[u64; 8]` (preceded by `:`/`&`/`;`)
            // out.
            if is_index_base && prev.ident().is_none_or(|n| !is_keyword(n)) {
                out.push(Diagnostic::error(
                    RULE,
                    &ctx.path,
                    t.line,
                    "literal index on the hot path panics when out of range; use \
                     .get(n)/.first() or restructure the access"
                        .to_string(),
                ));
            }
        }
    }
}

fn is_keyword(n: &str) -> bool {
    matches!(
        n,
        "let" | "for" | "in" | "if" | "while" | "match" | "return" | "mut" | "ref" | "else"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileCtx;

    fn run(src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new("crates/sim/src/engine.rs", src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn positive_unwrap_expect_and_macros() {
        let src = "fn f(v: Vec<u64>) -> u64 {\n\
                       let a = v.first().unwrap();\n\
                       let b: u64 = \"7\".parse().expect(\"parses\");\n\
                       if *a > b { panic!(\"boom\") }\n\
                       unreachable!()\n\
                   }\n";
        let d = run(src);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d[0].message.contains(".unwrap()"));
        assert!(d[1].message.contains(".expect()"));
        assert!(d[2].message.contains("panic!"));
        assert!(d[3].message.contains("unreachable!"));
    }

    #[test]
    fn positive_literal_index() {
        let src = "fn f(metas: &[u64]) -> u64 { metas[0] }\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("literal index"));
    }

    #[test]
    fn negative_array_types_and_variable_index() {
        let src = "fn f(xs: &[u64; 8], i: usize) -> u64 { xs[i] }\n\
                   fn g() -> [u64; 4] { [0, 1, 2, 3] }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn negative_unwrap_or_is_fine() {
        let src = "fn f(v: Option<u64>) -> u64 { v.unwrap_or(0).max(v.unwrap_or_default()) }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn negative_test_region_exempt() {
        let src = "fn f() -> u64 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { assert_eq!(super::f(), [1u64][0]); Some(1).unwrap(); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn negative_other_files_out_of_scope() {
        let ctx = FileCtx::new("crates/core/src/replay.rs", "fn f() { panic!(\"x\") }\n");
        let mut out = Vec::new();
        check(&ctx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn positive_serve_datapath_in_scope() {
        // A shard-worker panic takes down every session on the server.
        let ctx = FileCtx::new(
            "crates/serve/src/shard.rs",
            "fn f(v: Option<u64>) -> u64 { v.unwrap() }\n",
        );
        let mut out = Vec::new();
        check(&ctx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains(".unwrap()"));
        // The non-datapath serve files (protocol setup, handshake) stay
        // out of scope: errors there surface as per-connection replies.
        let ctx = FileCtx::new(
            "crates/serve/src/server.rs",
            "fn f(v: Option<u64>) -> u64 { v.unwrap() }\n",
        );
        let mut out = Vec::new();
        check(&ctx, &mut out);
        assert!(out.is_empty());
    }
}
