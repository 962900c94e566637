//! Tier-1 gate: the live workspace must lint clean, and the analyzer
//! must still *detect* violations (guarding against a rule rotting into
//! a no-op while the workspace stays green).

use resemble_lint::{lint_workspace, rules, sha256};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

#[test]
fn live_workspace_is_clean() {
    let report = lint_workspace(&repo_root());
    assert!(
        report.is_clean(),
        "workspace has lint errors:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        report.warnings(),
        0,
        "workspace has lint warnings (stale escapes):\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk really covered the tree (not an empty-root false green).
    // The workspace holds 136 source files as of the concurrency-analysis
    // pass; the floor trails a little so routine deletions don't trip it.
    assert!(
        report.files_scanned > 120,
        "only {} files scanned — workspace walk is broken",
        report.files_scanned
    );
}

#[test]
fn committed_reference_hash_matches_the_file() {
    // Equivalent to the reference-engine-frozen rule passing, but spelled
    // out so a mismatch points straight at the moving part.
    let root = repo_root();
    let toml = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let committed = toml
        .lines()
        .find_map(|l| l.trim().strip_prefix("sha256 = \""))
        .and_then(|r| r.strip_suffix('"'))
        .expect("lint.toml commits a sha256");
    let actual =
        sha256::hex_digest(&std::fs::read(root.join("crates/sim/src/reference.rs")).unwrap());
    assert_eq!(
        committed, actual,
        "crates/sim/src/reference.rs drifted from the hash committed in lint.toml"
    );
}

/// Copy the real workspace's lint-relevant skeleton into a scratch dir,
/// inject a violation, and confirm the analyzer catches it with a
/// `file:line` diagnostic. One injection per rule.
#[test]
fn every_rule_catches_an_injected_violation() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "nondeterministic-iteration",
            "crates/core/src/injected.rs",
            "use std::collections::HashMap;\npub fn f(m: &HashMap<u64, u64>) -> usize { m.values().count() }\n",
        ),
        (
            "wall-clock-in-sim",
            "crates/sim/src/injected.rs",
            "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        ),
        (
            "panic-in-hot-path",
            "crates/sim/src/engine.rs",
            "pub fn f(v: &[u64]) -> u64 { *v.first().unwrap() }\n",
        ),
        (
            "lossy-cast",
            "crates/sim/src/cache.rs",
            "pub fn f(x: u64) -> usize { x as usize }\n",
        ),
        (
            "float-eq",
            "crates/nn/src/injected.rs",
            "pub fn f(x: f32) -> bool { x != 0.5 }\n",
        ),
        (
            "simd-outside-kernel",
            "crates/nn/src/matrix.rs",
            "pub unsafe fn f() -> std::arch::x86_64::__m128 { std::arch::x86_64::_mm_setzero_ps() }\n",
        ),
        (
            "unsafe-undocumented",
            "crates/serve/src/event_loop.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        ),
        (
            "blocking-in-event-loop",
            "crates/serve/src/event_loop.rs",
            "pub fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
        ),
        (
            "lock-order",
            "crates/serve/src/injected.rs",
            "use std::sync::Mutex;\n\
             pub struct A { pub m: Mutex<u32> }\n\
             pub struct B { pub n: Mutex<u32> }\n\
             pub fn ab(a: &A, b: &B) { let g = a.m.lock().unwrap(); let h = b.n.lock().unwrap(); drop(h); drop(g); }\n\
             pub fn ba(a: &A, b: &B) { let h = b.n.lock().unwrap(); let g = a.m.lock().unwrap(); drop(g); drop(h); }\n",
        ),
        (
            "counter-pairing",
            "crates/serve/src/injected.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub struct T { pub conns_opened: AtomicU64, pub conns_closed: AtomicU64 }\n\
             impl T { pub fn open(&self) { self.conns_opened.fetch_add(1, Ordering::Relaxed); } }\n",
        ),
        (
            "thread-outside-runtime",
            "crates/bench/src/runner.rs",
            "pub fn f() { let h = std::thread::spawn(|| 1); let _ = h.join(); }\n",
        ),
    ];
    for (rule, rel, body) in cases {
        let root = scratch_with_reference(rule);
        write_rel(&root, rel, body);
        let report = lint_workspace(&root);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == *rule && d.path == *rel && d.line >= 1),
            "rule `{rule}` missed its injected violation; got: {:?}",
            report.diagnostics
        );
    }
    // reference-engine-frozen: drift the file instead of adding one.
    let root = scratch_with_reference("reference-frozen");
    write_rel(
        &root,
        "crates/sim/src/reference.rs",
        "pub fn drifted() {}\n",
    );
    let report = lint_workspace(&root);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "reference-engine-frozen"),
        "{:?}",
        report.diagnostics
    );
}

/// A scope table that names a renamed or deleted file silently drops it
/// out of its rule, so every path in every table must exist. This is a
/// test rather than a config check because scratch workspaces (like the
/// injection cases above) lint trees that lack these files.
#[test]
fn scope_tables_name_live_files() {
    let root = repo_root();
    let tables: &[(&str, &[&str])] = &[
        ("HOT_FILES", rules::HOT_FILES),
        ("NN_KERNEL_FILES", rules::NN_KERNEL_FILES),
        ("SIMD_KERNEL_FILES", rules::SIMD_KERNEL_FILES),
        ("SERVE_HOT_FILES", rules::SERVE_HOT_FILES),
        ("UNSAFE_ALLOWED_FILES", rules::UNSAFE_ALLOWED_FILES),
        ("EVENT_LOOP_HOT_FILES", rules::EVENT_LOOP_HOT_FILES),
        ("THREAD_ALLOWED_FILES", rules::THREAD_ALLOWED_FILES),
        ("CONVERT_FILE", &[rules::CONVERT_FILE]),
    ];
    let missing: Vec<String> = tables
        .iter()
        .flat_map(|(table, paths)| paths.iter().map(move |p| (table, p)))
        .filter(|(_, p)| !root.join(p).is_file())
        .map(|(table, p)| format!("rules::{table} names `{p}`, which does not exist"))
        .collect();
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn rule_registry_matches_the_rule_modules() {
    let names: Vec<&str> = rules::RULES.iter().map(|(n, _)| *n).collect();
    for expected in [
        rules::nondet_iteration::RULE,
        rules::wall_clock::RULE,
        rules::panic_hot_path::RULE,
        rules::lossy_cast::RULE,
        rules::float_eq::RULE,
        rules::reference_frozen::RULE,
        rules::simd_kernel::RULE,
        rules::unsafe_undocumented::RULE,
        rules::lock_order::RULE,
        rules::blocking_event_loop::RULE,
        rules::counter_pairing::RULE,
        rules::thread_outside_runtime::RULE,
    ] {
        assert!(
            names.contains(&expected),
            "RULES registry misses {expected}"
        );
    }
}

fn write_rel(root: &Path, rel: &str, body: &str) {
    let p = root.join(rel);
    std::fs::create_dir_all(p.parent().unwrap()).unwrap();
    std::fs::write(p, body).unwrap();
}

fn scratch_with_reference(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("inject_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    let reference = "pub fn reference() {}\n";
    write_rel(&root, "crates/sim/src/reference.rs", reference);
    std::fs::write(
        root.join("lint.toml"),
        format!(
            "[reference-engine-frozen]\nfile = \"crates/sim/src/reference.rs\"\nsha256 = \"{}\"\n",
            sha256::hex_digest(reference.as_bytes())
        ),
    )
    .unwrap();
    root
}
