//! Child processes: release `hermes-serve` / `hermes-coord` launched with an
//! ephemeral port, killed and reaped on drop.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running server or coordinator process.
pub struct Proc {
    child: Option<Child>,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address the process announced.
    pub addr: String,
}

impl Proc {
    /// Spawns `bin` with `args` and waits for its `… listening on <addr>`
    /// line on stdout.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
            })?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).map(|_| {
            line.trim()
                .rsplit_once("listening on ")
                .map(|(_, a)| a.to_string())
        });
        match announced {
            Ok(Some(addr)) => Ok(Proc {
                child: Some(child),
                _stdout: stdout,
                addr,
            }),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} did not announce an address ({other:?}, line {line:?})",
                    bin.display()
                )))
            }
        }
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Peak resident set size (`VmHWM`) in kB, read from `/proc`.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Where the release binaries live.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `hermes-serve`.
    pub serve: PathBuf,
    /// `hermes-coord`.
    pub coord: PathBuf,
}

impl Bins {
    /// The binaries inside `dir` (a cargo `target/release` directory).
    pub fn in_dir(dir: &Path) -> io::Result<Bins> {
        let bins = Bins {
            serve: dir.join("hermes-serve"),
            coord: dir.join("hermes-coord"),
        };
        for b in [&bins.serve, &bins.coord] {
            if !b.is_file() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("missing binary {}", b.display()),
                ));
            }
        }
        Ok(bins)
    }

    /// An in-memory `hermes-serve` on an ephemeral port with `threads`
    /// intra-query compute threads.
    pub fn serve(&self, threads: usize) -> io::Result<Proc> {
        Proc::spawn(
            &self.serve,
            &[
                "--port".into(),
                "0".into(),
                "--threads".into(),
                threads.to_string(),
            ],
        )
    }

    /// A durable `hermes-serve` over `dir`.
    pub fn serve_durable(&self, threads: usize, dir: &Path) -> io::Result<Proc> {
        Proc::spawn(
            &self.serve,
            &[
                "--port".into(),
                "0".into(),
                "--threads".into(),
                threads.to_string(),
                "--data-dir".into(),
                dir.display().to_string(),
            ],
        )
    }

    /// A coordinator over `(name, addr, start_ms, end_ms)` slices.
    pub fn coord(&self, shards: &[(String, String, i64, i64)]) -> io::Result<Proc> {
        let mut args = vec!["--port".to_string(), "0".to_string()];
        for (name, addr, start, end) in shards {
            let bound = |v: i64, open: &str| {
                if v == i64::MIN || v == i64::MAX {
                    open.to_string()
                } else {
                    v.to_string()
                }
            };
            args.push("--shard".into());
            args.push(format!(
                "{name}={addr}@{}..{}",
                bound(*start, "min"),
                bound(*end, "max")
            ));
        }
        Proc::spawn(&self.coord, &args)
    }
}
