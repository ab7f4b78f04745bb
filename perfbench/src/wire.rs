//! The server as a child process, and the client side of the line
//! protocol.

use pdsm_sql::{read_response, WireResponse};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to load and bind before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a server may take to checkpoint and exit after `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `pdsm-server`. Dropping it kills the process and waits for
/// it, so no path out of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `bin` with `args` plus a port file, with every inherited
    /// `PDSM_*` variable removed and `env` set, and wait until it listens.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        env: &[(String, String)],
        dir: &Path,
    ) -> io::Result<Server> {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("server.log"))?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("PDSM_") {
                cmd.env_remove(k);
            }
        }
        cmd.envs(env.iter().map(|(k, v)| (k, v)));
        let child = cmd.spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                    server.addr = SocketAddr::from(([127, 0, 0, 1], port));
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited during start-up ({status}); see {}",
                    dir.join("server.log").display()
                )));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("server not ready in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in bytes.
    pub fn peak_rss_bytes(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Send `SHUTDOWN` and wait for the process to exit (a durable server
    /// checkpoints first).
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut c = Conn::connect(self.addr)?;
        match c.request("SHUTDOWN")? {
            WireResponse::Count(0) => {}
            other => return Err(io::Error::other(format!("SHUTDOWN answered {other:?}"))),
        }
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if t0.elapsed() > EXIT_TIMEOUT {
                return Err(io::Error::other("server did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection with `TCP_NODELAY`: each request leaves in a
/// single write, so any Nagle stall measured is the server's.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        io::BufRead::read_line(&mut reader, &mut greeting)?;
        if !greeting.starts_with("HELLO") {
            return Err(io::Error::other(format!(
                "unexpected greeting {greeting:?}"
            )));
        }
        Ok(Conn {
            writer,
            reader,
            buf: Vec::new(),
        })
    }

    /// Send one statement and read its whole response.
    pub fn request(&mut self, sql: &str) -> io::Result<WireResponse> {
        self.buf.clear();
        self.buf.extend_from_slice(sql.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        read_response(&mut self.reader)
    }

    /// `STATS` as `(metric, value)` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, i64)>> {
        match self.request("STATS")? {
            WireResponse::Rows { data, .. } => Ok(data
                .iter()
                .filter_map(|l| {
                    let (k, v) = l.split_once('\t')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect()),
            other => Err(io::Error::other(format!("STATS answered {other:?}"))),
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
