//! Building and running the real `served` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Builds `served` from the checkout's workspace (release profile, as
/// shipped) and returns the path of the executable.
///
/// # Errors
///
/// The build failing, or cargo naming no `served` executable.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "Cargo.toml", "-p", "dna-serve"])
        .args(["--bin", "served", "--message-format=json"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building served: cargo exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter_map(|line| {
            let rest = &line[line.find("\"executable\":\"")? + 14..];
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .find(|exe| exe.file_stem().is_some_and(|s| s == "served"))
        .ok_or_else(|| "cargo built no served executable".to_string())
}

/// A running `served` process. Dropping it kills and reaps the process.
pub struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    /// Boots `exe` on `dir` with its shipped flags: the benchmark passes
    /// only the directory, the address and the archive seed.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a first stdout line that is not the
    /// `LISTENING <addr>` banner.
    pub fn launch(exe: &Path, dir: &Path, seed: u64) -> Result<Served, String> {
        let mut child = Command::new(exe)
            .arg("--dir")
            .arg(dir)
            .args(["--seed", &seed.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning served: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("LISTENING ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Served { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("served did not announce its address: {line:?}"))
            }
        }
    }

    /// The address `served` listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size of the process so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Kills the process with `SIGKILL` (no flush, no shutdown hook) and
    /// waits until it has ended.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
