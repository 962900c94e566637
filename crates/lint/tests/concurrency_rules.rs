//! End-to-end fixtures for the concurrency/unsafe rule set introduced by
//! the cross-file analysis pass: each of `unsafe-undocumented`,
//! `blocking-in-event-loop`, `lock-order`, and `counter-pairing` is
//! exercised through the full `lint_workspace` driver — positive
//! finding, negative (clean) variant, and the inline `lint:allow`
//! escape, including escape-used bookkeeping (a consumed escape must not
//! warn as stale).

use resemble_lint::{lint_workspace, sha256, LintReport};
use std::path::{Path, PathBuf};

fn write_rel(root: &Path, rel: &str, body: &str) {
    let p = root.join(rel);
    std::fs::create_dir_all(p.parent().unwrap()).unwrap();
    std::fs::write(p, body).unwrap();
}

fn scratch(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("conc_{tag}"));
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

fn errors_for<'a>(report: &'a LintReport, rule: &str) -> Vec<&'a resemble_lint::diag::Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .collect()
}

fn assert_spotless(report: &LintReport) {
    assert!(
        report.is_clean() && report.warnings() == 0,
        "expected a spotless report, got: {:?}",
        report.diagnostics
    );
}

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_undocumented_end_to_end() {
    // Positive: undocumented unsafe in an allowlisted file.
    let root = scratch("unsafe_pos");
    write_rel(
        &root,
        "crates/nn/src/align.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let report = lint_workspace(&root);
    let hits = errors_for(&report, "unsafe-undocumented");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(hits[0].line, 1);

    // Negative: SAFETY comment directly above.
    let root = scratch("unsafe_neg");
    write_rel(
        &root,
        "crates/nn/src/align.rs",
        "// SAFETY: caller guarantees p points at a live byte.\n\
         pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert_spotless(&lint_workspace(&root));

    // Escape: documented unsafe in a NON-allowlisted file still trips the
    // file-set half of the rule; an inline escape with a reason clears it
    // and is counted as used (no stale-escape warning).
    let root = scratch("unsafe_escape");
    write_rel(
        &root,
        "crates/serve/src/server.rs",
        "// SAFETY: the handler only stores an atomic flag.\n\
         // lint:allow(unsafe-undocumented): single isolated syscall registration\n\
         pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert_spotless(&lint_workspace(&root));
}

// ------------------------------------------------------------- event loop

#[test]
fn blocking_in_event_loop_end_to_end() {
    // Positive: a sleep on the epoll thread.
    let root = scratch("block_pos");
    write_rel(
        &root,
        "crates/serve/src/event_loop.rs",
        "pub fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    );
    let report = lint_workspace(&root);
    let hits = errors_for(&report, "blocking-in-event-loop");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);

    // Negative: non-blocking alternatives pass.
    let root = scratch("block_neg");
    write_rel(
        &root,
        "crates/serve/src/event_loop.rs",
        "pub fn f(m: &std::sync::Mutex<u32>) { if let Ok(_g) = m.try_lock() {} }\n",
    );
    assert_spotless(&lint_workspace(&root));

    // Escape: a justified bounded critical section.
    let root = scratch("block_escape");
    write_rel(
        &root,
        "crates/serve/src/event_loop.rs",
        "pub fn f(m: &std::sync::Mutex<Vec<u32>>) {\n\
             // lint:allow(blocking-in-event-loop): bounded mailbox handoff, push only\n\
             if let Ok(mut g) = m.lock() { g.push(1); }\n\
         }\n",
    );
    assert_spotless(&lint_workspace(&root));
}

// -------------------------------------------------------------- lock-order

const SEEDED_CYCLE: &str = "use std::sync::Mutex;\n\
    pub struct A { pub m: Mutex<u32> }\n\
    pub struct B { pub n: Mutex<u32> }\n\
    pub fn ab(a: &A, b: &B) { let g = a.m.lock().unwrap(); let h = b.n.lock().unwrap(); drop(h); drop(g); }\n\
    pub fn ba(a: &A, b: &B) { let h = b.n.lock().unwrap(); let g = a.m.lock().unwrap(); drop(g); drop(h); }\n";

#[test]
fn lock_order_detects_the_seeded_two_lock_cycle() {
    let root = scratch("lock_pos");
    write_rel(&root, "crates/serve/src/injected.rs", SEEDED_CYCLE);
    let report = lint_workspace(&root);
    let hits = errors_for(&report, "lock-order");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    let msg = &hits[0].message;
    assert!(msg.contains("potential deadlock"), "{msg}");
    // The held-lock chain names both locks and both witness functions.
    assert!(msg.contains("`A::m`") && msg.contains("`B::n`"), "{msg}");
    assert!(msg.contains("`ab`") && msg.contains("`ba`"), "{msg}");
    assert!(msg.contains("while holding"), "{msg}");
    assert_eq!(hits[0].path, "crates/serve/src/injected.rs");
    assert_eq!(hits[0].line, 4, "anchored at the first witness acquisition");
}

#[test]
fn lock_order_consistent_nesting_is_clean() {
    let root = scratch("lock_neg");
    write_rel(
        &root,
        "crates/serve/src/injected.rs",
        "use std::sync::Mutex;\n\
         pub struct A { pub m: Mutex<u32> }\n\
         pub struct B { pub n: Mutex<u32> }\n\
         pub fn ab(a: &A, b: &B) { let g = a.m.lock().unwrap(); let h = b.n.lock().unwrap(); drop(h); drop(g); }\n\
         pub fn ab2(a: &A, b: &B) { let g = a.m.lock().unwrap(); let h = b.n.lock().unwrap(); drop(h); drop(g); }\n",
    );
    assert_spotless(&lint_workspace(&root));
}

#[test]
fn lock_order_escape_at_the_witness_line_suppresses() {
    // Same seeded cycle, with the escape on the line above the witness
    // acquisition (line 4 of SEEDED_CYCLE, the inner lock in `ab`).
    let root = scratch("lock_escape");
    let mut lines: Vec<&str> = SEEDED_CYCLE.lines().collect();
    lines.insert(
        3,
        "// lint:allow(lock-order): ab/ba never run concurrently — ba only executes during single-threaded shutdown",
    );
    let src = lines.join("\n") + "\n";
    write_rel(&root, "crates/serve/src/injected.rs", &src);
    assert_spotless(&lint_workspace(&root));
}

// ---------------------------------------------------------- counter-pairing

#[test]
fn counter_pairing_end_to_end() {
    // Positive: a close counter that nothing increments.
    let root = scratch("pair_pos");
    write_rel(
        &root,
        "crates/serve/src/telemetry.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub struct T { pub conns_opened: AtomicU64, pub conns_closed: AtomicU64 }\n\
         impl T { pub fn open(&self) { self.conns_opened.fetch_add(1, Ordering::Relaxed); } }\n",
    );
    let report = lint_workspace(&root);
    let hits = errors_for(&report, "counter-pairing");
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    assert!(hits[0].message.contains("`conns_closed`"), "{:?}", hits[0]);
    assert_eq!(hits[0].line, 2, "anchored at the unpaired declaration");

    // Negative: both sides incremented, across files.
    let root = scratch("pair_neg");
    write_rel(
        &root,
        "crates/serve/src/telemetry.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub struct T { pub conns_opened: AtomicU64, pub conns_closed: AtomicU64 }\n\
         impl T { pub fn open(&self) { self.conns_opened.fetch_add(1, Ordering::Relaxed); } }\n",
    );
    write_rel(
        &root,
        "crates/serve/src/shard.rs",
        "pub fn close(t: &crate::telemetry::T) { t.conns_closed.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }\n",
    );
    assert_spotless(&lint_workspace(&root));

    // Escape at the declaration line.
    let root = scratch("pair_escape");
    write_rel(
        &root,
        "crates/serve/src/telemetry.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         // lint:allow(counter-pairing): close path lands in the next change; tracked in ROADMAP\n\
         pub struct T { pub conns_opened: AtomicU64, pub conns_closed: AtomicU64 }\n\
         impl T { pub fn open(&self) { self.conns_opened.fetch_add(1, Ordering::Relaxed); } }\n",
    );
    assert_spotless(&lint_workspace(&root));
}
