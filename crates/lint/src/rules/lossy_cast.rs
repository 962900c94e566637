//! `lossy-cast`: narrowing `as` casts in the simulator hot files and the
//! batched controller kernels.
//!
//! Addresses and cycle counts live in `u64`. An `as usize` / `as u32`
//! silently truncates on overflow — exactly the class of bug that turns
//! a trace above 4 GiB into quietly wrong set indices. The hot path uses
//! checked helpers in `crates/sim/src/convert.rs` (`to_index`, `to_u32`,
//! `to_line_addr`, `to_cycle`, and the documented-truncation `low32`);
//! that module is the one sanctioned cast boundary and is exempt. The nn
//! batch kernels (`NN_KERNEL_FILES`) compute matrix and batch offsets
//! from the same class of integers, so they are in scope as well.
//!
//! Widening casts (`as u64`, `as u128`, `as f64`) are lossless for the
//! types this codebase uses and are not flagged. Test regions are exempt.

use super::{CONVERT_FILE, HOT_FILES, NN_KERNEL_FILES};
use crate::diag::Diagnostic;
use crate::scanner::FileCtx;

/// Rule name.
pub const RULE: &str = "lossy-cast";

const NARROW: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "i64", "usize", "isize",
];

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let in_scope =
        HOT_FILES.contains(&ctx.path.as_str()) || NN_KERNEL_FILES.contains(&ctx.path.as_str());
    if !in_scope || ctx.path == CONVERT_FILE {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") || ctx.in_test(toks[i].line) {
            continue;
        }
        let Some(target) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if NARROW.contains(&target) {
            out.push(Diagnostic::error(
                RULE,
                &ctx.path,
                toks[i].line,
                format!(
                    "`as {target}` on the hot path truncates silently on overflow; \
                     use the checked helpers in crates/sim/src/convert.rs"
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
    fn positive_narrowing_casts() {
        let src = "fn f(block: u64, mask: u64) -> usize { (block & mask) as usize }\n\
                   fn g(x: u64) -> u32 { x as u32 }\n";
        let d = run("crates/sim/src/cache.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("as usize"));
        assert!(d[1].message.contains("as u32"));
    }

    #[test]
    fn positive_nn_kernel_files_in_scope() {
        let src = "fn f(off: u64) -> usize { off as usize }\n";
        for path in super::NN_KERNEL_FILES {
            let d = run(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
        }
        // Other nn files stay out of scope.
        assert!(run("crates/nn/src/checkpoint.rs", src).is_empty());
    }

    #[test]
    fn negative_widening_casts() {
        let src = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u32) -> f64 { x as f64 }\n";
        assert!(run("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn negative_use_as_rename_not_a_cast() {
        // `use foo as bar` has no type after `as`... it has an ident, but
        // the target is not a primitive, so it must not fire.
        let src = "use std::collections::BTreeMap as Map;\nfn f(m: &Map<u64, u64>) -> usize { m.len() }\n";
        assert!(run("crates/sim/src/queue.rs", src).is_empty());
    }

    #[test]
    fn negative_convert_module_and_tests_exempt() {
        let src = "pub fn to_index(x: u64) -> usize { x as usize }\n";
        assert!(run("crates/sim/src/convert.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = 5u64 as usize; }\n}\n";
        assert!(run("crates/sim/src/multicore.rs", test_src).is_empty());
    }
}
