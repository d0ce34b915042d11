//! A worker holds a connection's socket exactly as long as that
//! connection's handler runs: dial, `Ping` and hang up many times, and
//! the process's descriptor count comes back to where it started.
//!
//! Its own test binary on purpose: it counts `/proc/self/fd`, which
//! every test in one process would share.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sidr_serve::fleet::{Roster, WorkerConn, WorkerRequest, WorkerResponse};
use sidr_serve::frame::Role;
use sidr_serve::Tcp;
use sidr_worker::{Worker, WorkerOptions};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn hung_up_connections_release_their_sockets() {
    let worker = Worker::spawn(Arc::new(Tcp), "127.0.0.1:0", WorkerOptions::default()).unwrap();
    let addr = worker.addr().to_string();
    let ping = WorkerRequest::Ping {
        roster: Roster::default(),
    };
    let before = open_fds();
    // The heartbeat's pattern: one connection per probe, dropped after
    // its `Pong`.
    for round in 0..200 {
        let mut conn = WorkerConn::dial(&Tcp, &addr, Role::Coordinator, None).unwrap();
        let reply = conn.request(&ping).unwrap();
        assert!(
            matches!(reply, (WorkerResponse::Pong(_), None)),
            "round {round}: {reply:?}"
        );
    }
    // Each handler returns once it reads its dialer's close; give the
    // last few that long.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_fds();
        if now <= before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{} descriptors still open 10 s after 200 hung-up connections ({before} before)",
            now - before
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    worker.kill();
}
