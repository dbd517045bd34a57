//! Child processes (`magik serve`, `magik replicate`) and the one-shot
//! protocol requests the benchmark makes beside the load: `metrics`,
//! `epochs`.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running `magik` child. Dropping it kills the process and waits for it.
pub struct Proc {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Starts `magik <args>` and waits until its stdout announces the
    /// address it serves on (`… <banner> <addr> …`). Stderr goes to `log`.
    pub fn spawn(magik: &Path, args: &[String], banner: &str, log: &Path) -> Result<Proc, String> {
        let log_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(magik)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", magik.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if out.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                let err = fs::read_to_string(log).unwrap_or_default();
                return Err(format!("`magik {}` exited before serving: {err}", args.join(" ")));
            }
            if let Some((_, rest)) = line.split_once(banner) {
                let token = rest.split_whitespace().next().unwrap_or("");
                match token.parse() {
                    Ok(a) => break a,
                    Err(_) => return Err(format!("unparsable banner `{}`", line.trim())),
                }
            }
        };
        // Keep draining stdout so the child can never block on it.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut out, &mut io::sink());
        });
        Ok(Proc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Sends one request on a fresh connection and returns the reply line.
pub fn request(addr: SocketAddr, line: &str) -> Result<String, String> {
    let go = || -> io::Result<String> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        s.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply)?;
        Ok(reply.trim_end().to_string())
    };
    go().map_err(|e| format!("`{line}` to {addr}: {e}"))
}

/// The server's `metrics` counters.
pub fn metrics(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let reply = request(addr, "metrics")?;
    Ok(reply
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

/// The `(tcs, data)` epochs a node reports.
pub fn epochs(addr: SocketAddr) -> Result<String, String> {
    request(addr, "epochs")
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
