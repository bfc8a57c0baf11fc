//! The socket side: the `ldiv serve` child process, one-shot HTTP/1.1
//! requests over loopback, and the closed-loop load.

use ldiversity::wire::Json;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running `ldiv serve` child. Dropping it kills the process and waits
/// for it to end.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `ldiv serve` on an ephemeral loopback port with the given
    /// extra flags and waits for the banner that names the bound port.
    /// The child inherits the benchmark's environment, from which every
    /// `LDIV_*` variable was removed at start-up.
    pub fn spawn(ldiv: &Path, flags: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(ldiv)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ldiv.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ldiv serve printed no banner (got {banner:?})"))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP request of an operation.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: &'static str,
    pub target: String,
    pub body: Arc<Vec<u8>>,
}

impl Request {
    pub fn post(target: String, body: Arc<Vec<u8>>) -> Request {
        Request {
            method: "POST",
            target,
            body,
        }
    }

    pub fn get(target: &str) -> Request {
        Request {
            method: "GET",
            target: target.to_string(),
            body: Arc::new(Vec::new()),
        }
    }

    /// The request head as sent on the wire.
    pub fn head(&self) -> String {
        format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            self.method,
            self.target,
            self.body.len()
        )
    }

    /// Head and body as one byte string (what the server reads).
    pub fn raw(&self) -> Vec<u8> {
        let mut raw = self.head().into_bytes();
        raw.extend_from_slice(&self.body);
        raw
    }
}

/// A response as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request on a fresh connection and reads the response to EOF
/// (the server always answers `Connection: close`).
pub fn send(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .write_all(req.head().as_bytes())
        .and_then(|()| stream.write_all(&req.body))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 response head")?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let length = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    if length != Some(body.len()) {
        return Err(format!(
            "Content-Length {length:?} but {} body bytes",
            body.len()
        ));
    }
    Ok(Response { status, body })
}

/// Sends a request that must succeed (set-up traffic), returning its body.
pub fn expect_ok(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let resp = send(addr, req)?;
    if !resp.is_success() {
        return Err(format!(
            "{} {} answered {}: {}",
            req.method,
            req.target,
            resp.status,
            resp.text()
        ));
    }
    Ok(resp)
}

/// `GET /stats`, parsed.
pub fn stats(addr: SocketAddr) -> Result<Json, String> {
    let resp = expect_ok(addr, &Request::get("/stats"))?;
    Json::parse(&resp.text()).ok_or_else(|| "GET /stats is not JSON".to_string())
}

/// An integer at a dotted path of a `/stats` document (`cache.hits`).
pub fn stat(stats: &Json, path: &str) -> Result<i64, String> {
    let mut at = stats;
    for key in path.split('.') {
        at = at
            .get(key)
            .ok_or_else(|| format!("/stats has no '{path}'"))?;
    }
    match at {
        Json::Int(v) => Ok(*v),
        _ => Err(format!("/stats '{path}' is not an integer")),
    }
}

/// One timed operation: which client ran it, its place in the client's
/// sequence and in the run, the requests, and what came back.
pub struct OpResult {
    pub client: usize,
    pub seq: usize,
    pub global: usize,
    pub requests: Vec<Request>,
    pub latency_s: f64,
    /// When it completed, in seconds since the window opened.
    pub done_s: f64,
    /// One response per request sent; sending stops at the first failure.
    pub responses: Vec<Response>,
    pub error: Option<String>,
}

/// A closed-loop run: `clients` threads each send their next operation
/// only after the previous one completed, until `seconds` have passed.
pub struct Drive {
    pub ops: Vec<OpResult>,
    pub wall_s: f64,
}

/// Drives the server. `next(client, seq, global)` gives the requests of
/// an operation, or `None` when the inputs are used up.
pub fn drive(
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
    next: &(dyn Fn(usize, usize, usize) -> Option<Vec<Request>> + Sync),
) -> Drive {
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<OpResult>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let counter = &counter;
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut last = Instant::now();
                    for seq in 0.. {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let global = counter.fetch_add(1, Ordering::Relaxed);
                        let Some(requests) = next(client, seq, global) else {
                            break;
                        };
                        let sent = Instant::now();
                        let mut responses = Vec::with_capacity(requests.len());
                        let mut error = None;
                        for req in &requests {
                            match send(addr, req) {
                                Ok(resp) if resp.is_success() => responses.push(resp),
                                Ok(resp) => {
                                    error =
                                        Some(format!("status {}: {}", resp.status, resp.text()));
                                    responses.push(resp);
                                    break;
                                }
                                Err(e) => {
                                    error = Some(e);
                                    break;
                                }
                            }
                        }
                        last = Instant::now();
                        ops.push(OpResult {
                            client,
                            seq,
                            global,
                            requests,
                            latency_s: (last - sent).as_secs_f64(),
                            done_s: (last - start).as_secs_f64(),
                            responses,
                            error,
                        });
                    }
                    (ops, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, last)| *last)
        .max()
        .unwrap_or(start);
    let mut ops: Vec<OpResult> = per_client.into_iter().flat_map(|(ops, _)| ops).collect();
    ops.sort_by_key(|op| op.global);
    Drive {
        ops,
        wall_s: (end - start).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_responses_and_rejects_short_bodies() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let resp = parse_response(ok).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{}");
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}";
        assert!(parse_response(short).is_err());
    }

    #[test]
    fn stat_walks_dotted_paths() {
        let json = Json::parse(r#"{"requests":3,"cache":{"hits":2}}"#).unwrap();
        assert_eq!(stat(&json, "cache.hits"), Ok(2));
        assert!(stat(&json, "cache.misses").is_err());
    }
}
