//! The closed-loop load: one thread per connection, each waiting for its
//! replies. `Saturate` keeps between half and all of a fixed pipeline
//! window in flight;
//! `Interactive` sends one request at a time and times each round trip.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::gen::{Req, Stream};
use crate::trace::Span;

/// A reply that takes longer than this counts as a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    broken: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn {
            w,
            r,
            broken: false,
        })
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// One request and what came back: `None` when it timed out or the
/// connection was cut. Times are nanoseconds since the phase's epoch.
pub struct Exchange {
    pub req: Req,
    pub reply: Option<String>,
    pub sent_ns: u64,
    pub rtt_ns: u64,
}

impl Exchange {
    pub fn ok(&self) -> bool {
        self.reply.as_deref().is_some_and(|r| r.starts_with("ok"))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Saturate { window: usize },
    Interactive,
}

/// What one connection did in a phase.
pub struct ConnRun {
    pub exchanges: Vec<Exchange>,
    /// One `tcp.request` span per exchange, when the phase is traced.
    pub spans: Vec<Span>,
}

impl ConnRun {
    fn new(exchanges: Vec<Exchange>, traced: bool) -> ConnRun {
        let spans = if traced {
            exchanges
                .iter()
                .enumerate()
                .map(|(i, e)| Span {
                    name: "tcp.request",
                    req: i as u32,
                    parent: None,
                    start_ns: e.sent_ns,
                    end_ns: e.sent_ns + e.rtt_ns,
                })
                .collect()
        } else {
            Vec::new()
        };
        ConnRun {
            exchanges,
            spans,
        }
    }
}

/// Runs one phase on every connection at once, each drawing from its own
/// stream, for `dur`; requests in flight at the deadline are drained.
/// A traced phase also keeps a span per request.
pub fn run_phase(
    conns: &mut [Conn],
    streams: &mut [Stream<'_>],
    mode: Mode,
    dur: Duration,
    traced: bool,
) -> Vec<ConnRun> {
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let epoch = Instant::now();
                    let deadline = epoch + dur;
                    let exchanges = match mode {
                        Mode::Saturate { window } => {
                            saturate(conn, || Some(stream.next_req()), window, epoch, deadline)
                        }
                        Mode::Interactive => interactive(conn, stream, epoch, deadline),
                    };
                    ConnRun::new(exchanges, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// Pipelines requests from `next` with `window` in flight until `deadline`
/// or until `next` runs dry (the untimed warm-up sends a finite list).
pub fn saturate(
    conn: &mut Conn,
    mut next: impl FnMut() -> Option<Req>,
    window: usize,
    epoch: Instant,
    deadline: Instant,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    let mut inflight: VecDeque<(Req, u64)> = VecDeque::with_capacity(window);
    let mut buf = String::new();
    loop {
        let now = Instant::now();
        // Refill in batches once half the window has drained: one write
        // carries several requests, as a pipelining client would send.
        let refill = inflight.len() <= window / 2;
        while refill && !conn.broken && inflight.len() < window && now < deadline {
            let Some(req) = next() else { break };
            buf.push_str(&req.line);
            buf.push('\n');
            inflight.push_back((req, ns_since(epoch)));
        }
        if !buf.is_empty() {
            conn.broken |= conn.w.write_all(buf.as_bytes()).is_err();
            buf.clear();
        }
        let Some((req, sent_ns)) = inflight.pop_front() else {
            break;
        };
        let reply = if conn.broken { None } else { conn.recv().ok() };
        conn.broken |= reply.is_none();
        out.push(Exchange {
            req,
            reply,
            sent_ns,
            rtt_ns: ns_since(epoch) - sent_ns,
        });
    }
    out
}

fn interactive(
    conn: &mut Conn,
    stream: &mut Stream<'_>,
    epoch: Instant,
    deadline: Instant,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    while Instant::now() < deadline && !conn.broken {
        out.push(one(conn, stream.next_req(), epoch));
    }
    out
}

/// Sends `req` alone and waits for its reply.
pub fn one(conn: &mut Conn, req: Req, epoch: Instant) -> Exchange {
    let sent_ns = ns_since(epoch);
    let reply = if conn.broken {
        None
    } else {
        let line = format!("{}\n", req.line);
        match conn.w.write_all(line.as_bytes()) {
            Ok(()) => conn.recv().ok(),
            Err(_) => None,
        }
    };
    conn.broken |= reply.is_none();
    Exchange {
        req,
        reply,
        sent_ns,
        rtt_ns: ns_since(epoch) - sent_ns,
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}
