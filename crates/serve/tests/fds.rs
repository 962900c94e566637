//! What a server holds, counted from the outside: the process's
//! `/proc/self/fd` and `/proc/self/task` entries around each step of a
//! server's life. A connection holds one server fd, and a server runs one
//! event loop per shard at most. This is its own test binary with a
//! single test, so no other test opens fds or starts threads while it
//! counts.

use resemble_serve::{ServeClient, ServeConfig, Server, SessionModel};
use std::time::{Duration, Instant};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs is mounted").count()
}

fn fds() -> usize {
    entries("/proc/self/fd")
}

fn threads() -> usize {
    entries("/proc/self/task")
}

/// `count()` once it reads `want`, or after 5 s whatever it reads: a
/// joined thread leaves `/proc/self/task` a moment after `join` returns.
fn settled(count: fn() -> usize, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = count();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn start(io_threads: usize, shards: usize) -> Server {
    Server::start(
        ServeConfig {
            io_threads,
            shards,
            ..ServeConfig::default()
        },
        SessionModel::default_builder(),
    )
    .expect("server starts")
}

#[test]
fn a_connection_holds_one_server_fd_and_a_shard_one_loop() {
    const N: usize = 32;
    let (fds_before, threads_before) = (fds(), threads());

    let server = start(2, 2);
    let (fds_started, threads_started) = (fds(), threads());
    assert_eq!(threads_started, threads_before + 2, "(2, 2) runs two loops");
    let clients: Vec<ServeClient> = (0..N)
        .map(|i| {
            let mut c = ServeClient::connect(server.local_addr()).expect("connect");
            c.hello("stride", i as u64, true).expect("hello accepted");
            c
        })
        .collect();
    assert_eq!(
        fds(),
        fds_started + N * 3,
        "each session holds 2 client fds and 1 server fd"
    );
    drop(clients);
    let snap = server.shutdown();
    assert_eq!(snap.sessions_closed, N as u64);
    assert_eq!(snap.connections_closed, N as u64);
    assert_eq!(fds(), fds_before, "the stopped server holds no fd");
    assert_eq!(
        settled(threads, threads_before),
        threads_before,
        "the stopped server runs no thread"
    );

    // Three loops asked for over two shards: one loop per shard.
    let server = start(3, 2);
    assert_eq!(threads(), threads_before + 2, "(3, 2) runs two loops");
    let _ = server.shutdown();
    assert_eq!(fds(), fds_before);
    assert_eq!(settled(threads, threads_before), threads_before);
}
