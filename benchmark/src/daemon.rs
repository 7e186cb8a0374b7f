//! The system under test: the real `netscatterd` binary as a child process.

use crate::sys;
use netscatter::json::Json;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `--ring-slots` the daemon runs with: the default 0.5 s ring cushion
/// scaled by the ×16 time compression, so the compression alone does not
/// turn a scheduler hiccup into a drop.
pub const RING_SLOTS: usize = 1024;

/// `--workers` the daemon runs with: on two cores `--workers 0` (two
/// decode workers, a detector, a serving thread and the load generator)
/// measures the scheduler.
pub const WORKERS: usize = 1;

/// How long the daemon may take to print its listen line.
const START_DEADLINE: Duration = Duration::from_secs(10);

/// A running `netscatterd`. Dropping it kills the process and waits for
/// it, so no run — failed or not — leaves a daemon behind.
pub struct DaemonChild {
    child: Child,
    /// The bound ingest address.
    pub ingest: SocketAddr,
    log: PathBuf,
}

impl DaemonChild {
    /// Starts `bin`, confined to `cpus`, on an ephemeral loopback port and
    /// waits for its `ingest listening` log line. The daemon's stderr goes
    /// to `log`.
    ///
    /// The log level stays at the daemon's default (`info`): the listen
    /// line is logged there.
    pub fn spawn(bin: &Path, log: &Path, cpus: &[usize]) -> Result<Self, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let cpus = cpus.to_vec();
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0", "--metrics", "off"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--ring-slots", &RING_SLOTS.to_string()])
            .args(["--log-level", "info", "--log-format", "json"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: between `fork` and `exec` the closure makes one system
        // call and touches no lock or allocation.
        unsafe { command.pre_exec(move || sys::confine_to(&cpus)) };
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Self {
            child,
            ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: log.to_path_buf(),
        };
        let deadline = Instant::now() + START_DEADLINE;
        loop {
            if let Some(addr) = listen_addr(&std::fs::read_to_string(log).unwrap_or_default()) {
                daemon.ingest = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("netscatterd exited at start-up: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("netscatterd printed no listen line within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The last lines of the daemon's log, for failure reports.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join("\n")
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in the `ingest listening` record of a JSON log, once a
/// complete such line exists.
fn listen_addr(log: &str) -> Option<SocketAddr> {
    log.lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|doc| doc.get("msg").and_then(Json::as_str) == Some("ingest listening"))
        .and_then(|doc| doc.get("addr")?.as_str()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_address_is_read_from_the_json_log() {
        let log = "{\"ts\":1.5,\"level\":\"info\",\"target\":\"netscatterd\",\
                   \"msg\":\"ingest listening\",\"addr\":\"127.0.0.1:40123\"}\n";
        assert_eq!(listen_addr(log), "127.0.0.1:40123".parse().ok());
        // A line still being written does not parse yet.
        assert_eq!(listen_addr(&log[..log.len() - 12]), None);
        assert_eq!(listen_addr(""), None);
    }
}
