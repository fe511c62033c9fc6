//! A minimal HTTP/1.1 client for the service workloads, and the traced
//! run's in-process front end that times `handle_request` on each
//! connection it accepts.

use ldiversity::server::http::parse_request;
use ldiversity::server::{handle_request, AppState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub binary: bool,
    pub body: Vec<u8>,
    /// Client-side latency: connect to last byte read, in milliseconds.
    pub ms: f64,
}

impl Reply {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request on a fresh connection (the server answers one
/// request per connection) and reads the whole reply.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    parse_reply(&raw, ms)
}

fn parse_reply(raw: &[u8], ms: f64) -> std::io::Result<Reply> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("reply has no header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("reply head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("reply has no status"))?;
    let mut length = None;
    let mut binary = false;
    for line in lines {
        let (name, value) = line.split_once(':').unwrap_or((line, ""));
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.trim().parse::<usize>().ok(),
            "content-type" => binary = value.trim() == "application/x-ldiv-bin",
            _ => {}
        }
    }
    let body = &raw[split + 4..];
    let length = length.ok_or_else(|| bad("reply has no Content-Length"))?;
    if body.len() != length {
        return Err(bad("reply body length disagrees with Content-Length"));
    }
    Ok(Reply {
        status,
        binary,
        body: body.to_vec(),
        ms,
    })
}

/// The traced run's front end: accepts connections one at a time, parses
/// each request with the server's own parser, and times the server's
/// `handle_request`. Each handle time goes out on the channel.
pub struct TimedFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    handle_ms: mpsc::Receiver<f64>,
}

impl TimedFront {
    pub fn start(state: Arc<AppState>) -> std::io::Result<TimedFront> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, handle_ms) = mpsc::channel();
        let stopping = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                let mut reader = std::io::BufReader::new(read_half);
                let Ok(req) = parse_request(&mut reader) else {
                    continue;
                };
                let start = Instant::now();
                let response = handle_request(&state, &req);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let mut writer = std::io::BufWriter::new(stream);
                let _ = response.write_to(&mut writer);
                drop(writer);
                drop(reader);
                let _ = tx.send(ms);
            }
        });
        Ok(TimedFront {
            addr,
            stop,
            thread: Some(thread),
            handle_ms,
        })
    }

    /// Sends a request and returns the reply with the server's
    /// `handle_request` time for it.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(Reply, f64)> {
        let reply = request(self.addr, method, target, body)?;
        let handle = self
            .handle_ms
            .recv()
            .map_err(|_| std::io::Error::other("front end stopped"))?;
        Ok((reply, handle))
    }
}

impl Drop for TimedFront {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}
