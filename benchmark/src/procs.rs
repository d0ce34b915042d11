//! Process hygiene and outside observation: a sandbox that owns one
//! workload run's temp directory and every child process, and the
//! `/proc` readers that measure those children from outside.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::adapter::BoxErr;

/// One child of a sandbox. A daemon's `stdout` stays here after its
/// banner was read, so the daemon never writes into a closed pipe.
struct Proc {
    role: &'static str,
    pid: u32,
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
}

/// The children of one sandbox, shared with the per-job watchdog so it
/// can kill them from another thread — which unblocks a client stuck on
/// a dead job.
#[derive(Clone, Default)]
pub struct Children(Arc<Mutex<Vec<Proc>>>);

impl Children {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Proc>> {
        // Every update leaves the list valid, so a poisoned lock is
        // still safe to use — and `Drop` must get through regardless.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Kills and reaps every child (idempotent).
    pub fn kill_all(&self) {
        let mut procs = self.lock();
        for p in procs.iter_mut() {
            let _ = p.child.kill();
        }
        for mut p in procs.drain(..) {
            let _ = p.child.wait();
        }
    }
}

/// Owns a unique temp directory and the children spawned into it.
/// Dropping it — on return, on `?`, on panic unwind, after the per-job
/// timeout — kills and reaps every child, then removes the directory
/// (datasets, specs, spill dirs).
pub struct Sandbox {
    dir: PathBuf,
    children: Children,
}

static SANDBOX_SEQ: AtomicU64 = AtomicU64::new(0);

impl Sandbox {
    /// Creates `<root>/run-<label>-<pid>-<nanos>-<seq>`: unique per
    /// run even when several runs share a process id over time or one
    /// process opens several sandboxes.
    pub fn create(root: &Path, label: &str) -> Result<Sandbox, BoxErr> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH)?.as_nanos();
        let seq = SANDBOX_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("run-{label}-{}-{nanos}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Sandbox {
            // Absolute, so children resolve it whatever their cwd.
            dir: dir.canonicalize()?,
            children: Children::default(),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn spawn(&self, bin: &Path, args: &[String]) -> Result<Child, BoxErr> {
        Ok(Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?)
    }

    /// Spawns a child the caller talks to over its stdin and stdout.
    pub fn spawn_piped(
        &self,
        role: &'static str,
        bin: &Path,
        args: &[String],
    ) -> Result<(ChildStdin, BufReader<ChildStdout>), BoxErr> {
        let mut child = self.spawn(bin, args)?;
        let stdin = child.stdin.take().ok_or("child has no stdin")?;
        let stdout = child.stdout.take().ok_or("child has no stdout")?;
        self.children.lock().push(Proc {
            role,
            pid: child.id(),
            child,
            stdout: None,
        });
        Ok((stdin, BufReader::new(stdout)))
    }

    /// Spawns a daemon that binds `127.0.0.1:0` and returns the address
    /// its banner says it got (`… listening on ADDR …`).
    pub fn spawn_daemon(
        &self,
        role: &'static str,
        bin: &Path,
        args: &[String],
    ) -> Result<String, BoxErr> {
        let mut child = self.spawn(bin, args)?;
        let stdout = child.stdout.take().map(BufReader::new);
        // Owned by the sandbox before anything can fail, so it is reaped.
        let mut procs = self.children.lock();
        procs.push(Proc {
            role,
            pid: child.id(),
            child,
            stdout,
        });
        let stdout = procs.last_mut().and_then(|p| p.stdout.as_mut());
        let mut banner = String::new();
        stdout
            .ok_or("daemon has no stdout")?
            .read_line(&mut banner)?;
        parse_listen_addr(&banner)
            .ok_or_else(|| format!("no listen address in banner {banner:?}").into())
    }

    /// `(role, pid)` of every live child.
    pub fn pids(&self) -> Vec<(&'static str, u32)> {
        self.children
            .lock()
            .iter()
            .map(|p| (p.role, p.pid))
            .collect()
    }

    pub fn children(&self) -> Children {
        self.children.clone()
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        self.children.kill_all();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn parse_listen_addr(line: &str) -> Option<String> {
    let rest = line.split("listening on ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.parse::<std::net::SocketAddr>().ok()?;
    Some(addr.to_string())
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times: 100 on
/// every Linux this runs on (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds a process (all threads) has used.
pub fn cpu_seconds(pid: u32) -> Result<f64, BoxErr> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| format!("unparsable /proc/{pid}/stat").into())
}

pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Result<f64, BoxErr> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_kb(&status, "VmHWM:")
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status").into())
}

pub fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addr_is_parsed_from_both_daemon_banners() {
        assert_eq!(
            parse_listen_addr("sidr-serve: listening on 127.0.0.1:40123 (2 map + 2 reduce slots, coordinating 2 worker(s))\n"),
            Some("127.0.0.1:40123".into())
        );
        assert_eq!(
            parse_listen_addr(
                "sidr-worker listening on 127.0.0.1:7 (memory budget 16777216 bytes)\n"
            ),
            Some("127.0.0.1:7".into())
        );
        assert_eq!(
            parse_listen_addr("sidr-worker listening on nowhere\n"),
            None
        );
    }

    #[test]
    fn cpu_seconds_skip_a_command_name_with_spaces_and_parens() {
        let stat = "42 (a (b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(2048.0));
    }

    #[test]
    fn sandbox_dirs_are_unique_and_removed_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-sandbox");
        let a = Sandbox::create(&root, "t").unwrap();
        let b = Sandbox::create(&root, "t").unwrap();
        assert_ne!(a.dir(), b.dir());
        let (da, db) = (a.dir().to_path_buf(), b.dir().to_path_buf());
        drop(a);
        assert!(!da.exists() && db.exists());
        drop(b);
        assert!(!db.exists());
        let _ = std::fs::remove_dir_all(root);
    }
}
