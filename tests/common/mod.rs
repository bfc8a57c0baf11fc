//! Helpers shared by the integration suites. Each suite compiles its own
//! copy (`mod common;`) and uses a subset of it.

#![allow(dead_code)]

use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::guard::fault::{install, FaultPlan};
use ldiversity::microdata::{write_table_csv, Table};
use ldiversity::server::Request;
use ldiversity::wire::Json;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// The suite lock, for tests that touch process-global state (the fault
/// plan, the tracing switch) or run servers that state reaches. A test
/// that failed while holding it does not poison it for the rest.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms the fault plan `spec` (`LDIV_FAULT` syntax) for the duration of
/// `body`, disarming afterwards even if the body panics. Takes the
/// [`serial`] guard so the plan cannot reach another test's server.
pub fn with_faults<T>(_lock: &MutexGuard<'static, ()>, spec: &str, body: impl FnOnce() -> T) -> T {
    install(Some(FaultPlan::parse(spec).expect(spec)));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    install(None);
    outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// A table as CSV bytes.
pub fn csv_of(table: &Table) -> Vec<u8> {
    let mut csv = Vec::new();
    write_table_csv(&mut csv, table).expect("render CSV");
    csv
}

/// A seeded synthetic SAL table as CSV bytes.
pub fn dataset_csv(rows: usize, seed: u64) -> Vec<u8> {
    csv_of(&sal(&AcsConfig { rows, seed }))
}

/// A header-less request as the router sees it.
pub fn request(method: &str, path: &str, query: &[(&str, &str)], body: &[u8]) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

/// One HTTP exchange over a real socket: the status and the raw body
/// (binary-safe). Panics on any transport failure, so "no dropped
/// connections" is asserted by construction.
pub fn http_bytes(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {response:?}"));
    let head = std::str::from_utf8(&response[..header_end]).unwrap();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, response[header_end + 4..].to_vec())
}

/// [`http_bytes`] with a UTF-8 body (the JSON face).
pub fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let (status, bytes) = http_bytes(addr, method, target, body);
    (status, String::from_utf8(bytes).unwrap())
}

/// Extracts the integer following `"key":` in a rendered JSON document.
pub fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {needle} in {body}"))
        + needle.len();
    body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {needle} in {body}"))
}

/// The dataset fingerprint a `POST /datasets` response body names.
pub fn registered_fingerprint(body: &str) -> String {
    match Json::parse(body).and_then(|json| json.get("dataset").cloned()) {
        Some(Json::Str(fp)) => fp,
        _ => panic!("register returns the fingerprint: {body}"),
    }
}

/// A unique store root under the system temp dir, removed on drop.
pub struct TempRoot(pub PathBuf);

impl TempRoot {
    pub fn new(tag: &str) -> TempRoot {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ldiv-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
