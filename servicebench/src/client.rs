//! A minimal blocking HTTP/1.1 client for the loopback server, plus a
//! parser for the Prometheus text that `GET /metrics` returns.
//!
//! The server answers one request per connection and then closes it, so
//! every call here opens a fresh connection, writes the whole request
//! and reads to end of stream.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as timed out. Longer
/// than the server's own deadline, so a slow estimate surfaces as the
/// server's `503`, not as a client-side cut.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(150);

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Send one request and read the whole reply. `Err` means no HTTP
/// answer arrived (refused, reset or timed out).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: efes\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header/body split"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: reply has no status"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec())
        .map_err(|_| format!("{method} {path}: reply body is not UTF-8"))?;
    Ok(Reply { status, body })
}

/// One `GET /metrics` scrape: every sample keyed by its full series
/// name, labels included (`efes_stage_latency_ms_sum{stage="values"}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        let reply = request(addr, "GET", "/metrics", b"")?;
        if reply.status != 200 {
            return Err(format!("GET /metrics answered {}", reply.status));
        }
        Ok(Scrape::parse(&reply.body))
    }

    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_owned(), value.trim().parse().ok()?))
                })
                .collect(),
        )
    }

    /// The sample's value; an absent series reads as 0.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}
