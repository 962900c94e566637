//! `blocking-in-event-loop`: the epoll thread must never block. Files in
//! [`super::EVENT_LOOP_HOT_FILES`] — the event loop itself and the shard
//! visits it runs after each `epoll_wait` batch — may not call `.lock()`,
//! `thread::sleep`, a blocking channel `.recv()`, or stream `.write_all`
//! — one stalled syscall there head-of-line-blocks every connection on
//! that thread.
//!
//! The rule is deliberately name-based and loud: a `.lock()` on anything
//! in those files is flagged even if the mutex is "only held for a
//! push", because that argument has to be made explicitly — in a
//! `lint:allow(blocking-in-event-loop): <why the critical section is
//! bounded>` escape — rather than silently. `try_lock`, `try_recv`, and
//! bounded `write` are the non-blocking alternatives the rule nudges
//! toward.

use super::EVENT_LOOP_HOT_FILES;
use crate::diag::Diagnostic;
use crate::scanner::FileCtx;

/// Rule name.
pub const RULE: &str = "blocking-in-event-loop";

/// Run the rule over one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !EVENT_LOOP_HOT_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    let toks = &ctx.tokens;
    let n = toks.len();
    for i in 0..n {
        let t = &toks[i];
        let Some(name) = t.ident() else { continue };
        if ctx.in_test(t.line) {
            continue;
        }
        let is_method = i >= 1 && toks[i - 1].is_punct(".");
        let called = toks.get(i + 1).is_some_and(|x| x.is_punct("("));
        let blocking_method = match name {
            "lock" | "recv" | "write_all" => is_method && called,
            _ => false,
        };
        // `thread::sleep(…)` / `sleep(…)` resolved through an import of
        // std::thread::sleep (or std::thread).
        let is_sleep = name == "sleep" && called && {
            let qualified = i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2]
                    .ident()
                    .is_some_and(|h| h == "thread" || ctx.resolve(h) == Some("std::thread"));
            let imported =
                !is_method && !qualified && ctx.resolve("sleep") == Some("std::thread::sleep");
            qualified || imported
        };
        if !(blocking_method || is_sleep) {
            continue;
        }
        let (what, fix) = match name {
            "lock" => (
                "`.lock()` (blocks on contention)",
                "use try_lock with a fallback, or justify the bounded critical \
                 section in a lint:allow escape",
            ),
            "recv" => (
                "blocking channel `.recv()`",
                "use try_recv and fold the check into the epoll wait",
            ),
            "write_all" => (
                "unbounded `.write_all()` (blocks until the peer drains)",
                "use bounded `write` with the connection's backpressure state",
            ),
            _ => (
                "`thread::sleep` (stalls every connection on this thread)",
                "use an epoll timeout or a timerfd",
            ),
        };
        out.push(Diagnostic::error(
            RULE,
            &ctx.path,
            t.line,
            format!("{what} in the event-loop hot file: the epoll thread must never block; {fix}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileCtx;

    const HOT: &str = "crates/serve/src/event_loop.rs";

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(path, src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn positive_lock_recv_write_all_sleep() {
        let src = "use std::thread;\n\
                   fn f(m: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {\n\
                       let _g = m.lock().unwrap();\n\
                       let _v = rx.recv().unwrap();\n\
                       thread::sleep(std::time::Duration::from_millis(1));\n\
                   }\n\
                   fn g(s: &mut std::net::TcpStream, buf: &[u8]) {\n\
                       use std::io::Write;\n\
                       s.write_all(buf).unwrap();\n\
                   }\n";
        let d = run(HOT, src);
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 9], "{d:?}");
    }

    #[test]
    fn shard_visits_are_in_scope() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap(); }\n";
        assert_eq!(run("crates/serve/src/shard.rs", src).len(), 1);
    }

    #[test]
    fn positive_imported_sleep() {
        let src = "use std::thread::sleep;\n\
                   use std::time::Duration;\n\
                   fn f() { sleep(Duration::from_millis(1)); }\n";
        let d = run(HOT, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn negative_nonblocking_alternatives() {
        let src = "fn f(m: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {\n\
                       if let Ok(_g) = m.try_lock() {}\n\
                       let _ = rx.try_recv();\n\
                   }\n\
                   fn g(s: &mut std::net::TcpStream, buf: &[u8]) -> std::io::Result<usize> {\n\
                       use std::io::Write;\n\
                       s.write(buf)\n\
                   }\n";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn negative_other_files_and_test_regions() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap(); }\n";
        assert!(run("crates/serve/src/session.rs", src).is_empty());
        let src2 = "#[cfg(test)]\n\
                    mod tests {\n\
                        fn t() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n\
                    }\n";
        assert!(run(HOT, src2).is_empty());
    }

    #[test]
    fn negative_unrelated_sleep_fn() {
        // A local helper *named* sleep is not std::thread::sleep.
        let src = "fn sleep(n: u64) -> u64 { n }\nfn f() { let _ = sleep(3); }\n";
        assert!(run(HOT, src).is_empty());
    }
}
