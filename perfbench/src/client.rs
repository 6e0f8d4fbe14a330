//! A lean closed-loop HTTP/1.1 client.
//!
//! Each connection thread sends prepared request bytes, reads one reply,
//! records its latency and copies the status and body into preallocated
//! storage — no formatting, checksums or hashing inside the timed loop.
//! Replies are checked against the oracle after the run.

use crate::stats::nanos;
use crate::traffic::{Expect, Frame, Traffic};
use bagcq_serve::{parse_response, WireResponse};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One reply, as received.
#[derive(Clone, Copy, Debug)]
pub struct Exchange {
    pub frame: u32,
    pub status: u16,
    /// When the request was sent.
    pub sent: Instant,
    pub latency_ns: u64,
    body_start: u32,
    body_len: u32,
}

/// Everything one connection received.
pub struct ConnLog {
    pub exchanges: Vec<Exchange>,
    arena: Vec<u8>,
    pub started: Instant,
    pub finished: Instant,
    /// Transport failure that ended the connection early.
    pub error: Option<String>,
}

impl ConnLog {
    pub fn body(&self, x: &Exchange) -> &[u8] {
        &self.arena[x.body_start as usize..(x.body_start + x.body_len) as usize]
    }
}

/// A keep-alive connection with its own read buffer.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

const READ_TIMEOUT: Duration = Duration::from_secs(30);

impl Connection {
    pub fn open(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Connection { stream, buf: vec![0; 1 << 16], start: 0, end: 0 })
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let len = self.buf.len();
                self.buf.resize(len * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.end += n;
        Ok(())
    }

    /// Sends one request and reads its reply; appends the body to `out`
    /// and returns the status.
    pub fn exchange(&mut self, request: &[u8], out: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(request)?;
        let head_len = loop {
            if let Some(i) = find(&self.buf[self.start..self.end], b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = &self.buf[self.start..self.start + head_len];
        let status = parse_status(head)?;
        let body_len = content_length(head)?;
        self.start += head_len;
        while self.end - self.start < body_len {
            self.fill()?;
        }
        out.extend_from_slice(&self.buf[self.start..self.start + body_len]);
        self.start += body_len;
        Ok(status)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn parse_status(head: &[u8]) -> io::Result<u16> {
    let code = head.get(9..12).ok_or_else(|| bad("short status line"))?;
    std::str::from_utf8(code).ok().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad status"))
}

fn content_length(head: &[u8]) -> io::Result<usize> {
    for line in head.split(|&b| b == b'\n') {
        if line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            let v = std::str::from_utf8(&line[15..]).map_err(|_| bad("bad content-length"))?;
            return v.trim().parse().map_err(|_| bad("bad content-length"));
        }
    }
    Err(bad("reply without content-length"))
}

/// Runs `schedule` over `connections` closed-loop connections:
/// connection `c` sends entries `c, c + connections, …` in order until
/// `window` has passed (or its share of the schedule runs out).
/// `window = None` runs the whole schedule.
pub fn closed_loop(
    addr: &str,
    frames: &[Frame],
    schedule: &[u32],
    connections: usize,
    window: Option<Duration>,
) -> Vec<ConnLog> {
    let barrier = Barrier::new(connections);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mine: Vec<u32> =
                        schedule.iter().skip(c).step_by(connections).copied().collect();
                    run_connection(addr, frames, &mine, barrier, window)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

fn run_connection(
    addr: &str,
    frames: &[Frame],
    mine: &[u32],
    barrier: &Barrier,
    window: Option<Duration>,
) -> ConnLog {
    let mut exchanges = Vec::with_capacity(mine.len());
    let mut arena = Vec::with_capacity(mine.len() * 256);
    let conn = Connection::open(addr);
    barrier.wait();
    let started = Instant::now();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            let finished = Instant::now();
            return ConnLog { exchanges, arena, started, finished, error: Some(e.to_string()) };
        }
    };
    let deadline = window.map(|w| started + w);
    let mut error = None;
    for &frame in mine {
        let t0 = Instant::now();
        if deadline.is_some_and(|d| t0 >= d) {
            break;
        }
        let body_start = arena.len();
        match conn.exchange(&frames[frame as usize].wire, &mut arena) {
            Ok(status) => exchanges.push(Exchange {
                frame,
                status,
                sent: t0,
                latency_ns: nanos(t0.elapsed()),
                body_start: body_start as u32,
                body_len: (arena.len() - body_start) as u32,
            }),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    ConnLog { exchanges, arena, started, finished: Instant::now(), error }
}

/// A plain `GET`/`POST` outside the measured loop (health, metrics,
/// drain): returns `(status, body)`.
pub fn request(addr: &str, method: &str, path: &str, key: &str) -> io::Result<(u16, String)> {
    let mut conn = Connection::open(addr)?;
    let wire = format!("{method} {path} HTTP/1.1\r\nX-Api-Key: {key}\r\nContent-Length: 0\r\n\r\n");
    let mut body = Vec::new();
    let status = conn.exchange(wire.as_bytes(), &mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Why a reply does not match the oracle's `expect`; `None` when it
/// does. A typed 400 on a malformed frame is a match.
pub fn mismatch(expect: &Expect, status: u16, body: &[u8]) -> Option<String> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Some(format!("{status} reply body is not UTF-8")),
    };
    let reply = match parse_response(text) {
        Ok(r) => r,
        Err(e) => return Some(format!("unparsable {status} reply ({e}): {text:?}")),
    };
    match (expect, &reply) {
        (Expect::Count(want), WireResponse::Count { count, .. }) if status == 200 => {
            (want != count).then(|| format!("count {count}, oracle {want}"))
        }
        (
            Expect::Check { choice, verdict },
            WireResponse::Check { containment, verdict: got, .. },
        ) if status == 200 => (choice != containment || verdict != got)
            .then(|| format!("check {containment}/{got}, oracle {choice}/{verdict}")),
        (Expect::Malformed, WireResponse::Error { kind, .. })
            if status == 400 && (kind == "parse" || kind == "frame") =>
        {
            None
        }
        _ => Some(format!("unexpected {status} reply: {}", text.lines().next().unwrap_or(""))),
    }
}

/// Outcome of checking a set of connection logs.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checked {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Checks every reply in `logs` against the oracle; the frames they
/// sent must be solved. A connection that ended on a transport error
/// counts one failed operation. Also returns the send time and latency
/// of every correct reply.
pub fn check(traffic: &Traffic, logs: &[ConnLog]) -> (Checked, Vec<(Instant, u64)>) {
    let mut out = Checked::default();
    let mut correct = Vec::new();
    for log in logs {
        for x in &log.exchanges {
            out.attempted += 1;
            match mismatch(&traffic.answer(x.frame).expect, x.status, log.body(x)) {
                Some(why) => out.fail(why),
                None => correct.push((x.sent, x.latency_ns)),
            }
        }
        if let Some(e) = &log.error {
            out.attempted += 1;
            out.fail(format!("transport error: {e}"));
        }
    }
    (out, correct)
}
