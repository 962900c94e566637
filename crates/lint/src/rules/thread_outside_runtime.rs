//! `thread-outside-runtime`: raw thread creation — `std::thread::spawn`,
//! `std::thread::scope`, `std::thread::Builder` — is confined to the two
//! crates whose job is concurrency, plus the allowlisted bench binaries.
//!
//! The workspace has exactly two sanctioned thread pools: the
//! deterministic sweep executor in `crates/runtime` (ordered merge,
//! per-key seeds, panic isolation — DESIGN.md §9) and the serving stack
//! in `crates/serve` (the epoll event loops — DESIGN.md §8). A bare
//! `thread::spawn` anywhere else bypasses both: its completion order
//! leaks into output bytes, its panics vanish, and its RNG seeding is
//! whatever the caller improvised. Simulation fan-out goes through
//! `resemble_runtime::Sweep`; serving work goes through the server.
//!
//! `thread::sleep` and `available_parallelism` are not thread creation
//! and are not flagged. Method calls named `spawn` (e.g. `s.spawn(...)`
//! on an already-sanctioned scope handle) are skipped — the rule fires
//! on the `std::thread::scope` that produced the handle instead.

use super::{THREAD_ALLOWED_CRATES, THREAD_ALLOWED_FILES};
use crate::diag::Diagnostic;
use crate::scanner::FileCtx;

/// Rule name.
pub const RULE: &str = "thread-outside-runtime";

const BANNED: &[&str] = &["spawn", "scope", "Builder"];

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if THREAD_ALLOWED_CRATES.contains(&ctx.crate_name.as_str())
        || THREAD_ALLOWED_FILES.contains(&ctx.path.as_str())
    {
        return;
    }
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !BANNED.contains(&name) {
            continue;
        }
        // `handle.spawn(...)` is a method on an existing (already
        // diagnosed) scope, not thread creation by this file.
        if i >= 1 && toks[i - 1].is_punct(".") {
            continue;
        }
        let resolved: Option<String> = if i >= 2 && toks[i - 1].is_punct("::") {
            // Qualified: resolve the path head (`std::thread::spawn`,
            // `thread::scope` under `use std::thread`), then append the
            // remaining segments.
            let mut head = i - 2;
            while head >= 2 && toks[head - 1].is_punct("::") {
                head -= 2;
            }
            toks[head].ident().map(|h| {
                let mut full = ctx.resolve(h).unwrap_or(h).to_string();
                let mut k = head + 2;
                while k < i {
                    if let Some(s) = toks[k].ident() {
                        full.push_str("::");
                        full.push_str(s);
                    }
                    k += 2;
                }
                full.push_str("::");
                full.push_str(name);
                full
            })
        } else {
            // Bare: resolve through `use std::thread::spawn` or a
            // `use std::thread::*` glob.
            ctx.resolve(name).map(str::to_string).or_else(|| {
                ctx.uses
                    .iter()
                    .any(|(k, v)| k.starts_with('*') && v == "std::thread")
                    .then(|| format!("std::thread::{name}"))
            })
        };
        if resolved.as_deref() == Some(format!("std::thread::{name}").as_str()) {
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                t.line,
                format!(
                    "std::thread::{name} outside crates/runtime, crates/serve, and the \
                     allowlisted bench binaries: raw threads bypass the deterministic \
                     executor (ordered merge, per-key seeds, panic isolation); run sweep \
                     jobs through resemble_runtime::Sweep, or serving work through \
                     crates/serve"
                ),
            ));
        }
    }
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
    fn positive_qualified_spawn_and_scope() {
        let src = "fn f() {\n\
                       let h = std::thread::spawn(|| 1);\n\
                       let _ = h.join();\n\
                       std::thread::scope(|s| { s.spawn(|| 2); });\n\
                   }\n";
        let d = run("crates/bench/src/runner.rs", src);
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        // Fires on the spawn and the scope; `s.spawn` is a method call on
        // the (already-diagnosed) scope handle and is skipped.
        assert_eq!(lines, vec![2, 4], "{d:?}");
    }

    #[test]
    fn positive_module_alias_and_builder() {
        let src = "use std::thread;\n\
                   fn f() {\n\
                       let _ = thread::spawn(|| 0);\n\
                       let _ = thread::Builder::new();\n\
                   }\n";
        let d = run("crates/sim/src/x.rs", src);
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![3, 4], "{d:?}");
    }

    #[test]
    fn positive_imported_spawn() {
        let src = "use std::thread::spawn;\nfn f() { let _ = spawn(|| 0); }\n";
        let d = run("crates/core/src/x.rs", src);
        // The import line and the call site both fire.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("resemble_runtime::Sweep"));
    }

    #[test]
    fn negative_runtime_and_serve_are_exempt() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        assert!(run("crates/runtime/src/executor.rs", src).is_empty());
        assert!(run("crates/runtime/tests/executor.rs", src).is_empty());
        assert!(run("crates/serve/src/server.rs", src).is_empty());
        assert!(run("crates/serve/tests/churn.rs", src).is_empty());
    }

    #[test]
    fn negative_allowlisted_bench_bins() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        assert!(run("crates/bench/src/bin/serve_bench.rs", src).is_empty());
        assert!(run("crates/bench/src/bin/serve.rs", src).is_empty());
        // Any other bench file is in scope.
        assert!(!run("crates/bench/src/bin/ablations.rs", src).is_empty());
    }

    #[test]
    fn negative_sleep_parallelism_and_unrelated_names() {
        // Not thread creation: sleep, available_parallelism.
        let src = "fn f() {\n\
                       std::thread::sleep(std::time::Duration::from_millis(1));\n\
                       let _ = std::thread::available_parallelism();\n\
                   }\n";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        // A local fn named spawn, a tokio-style method, a local scope var.
        let src2 = "fn spawn(n: u64) -> u64 { n }\n\
                    fn f(pool: &Pool, scope: u32) -> u64 { pool.spawn(); spawn(scope as u64) }\n";
        assert!(run("crates/sim/src/x.rs", src2).is_empty());
    }
}
