//! Regression tests for connection handling on the event-loop front end:
//! a client that never reads its replies must not pin a worker, even
//! when the pool has only one (the accept-loop backoff and poisoned-lock
//! recovery have unit-level regressions next to their code).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use magik_server::{Engine, Server};

/// A client that pipelines large replies and never reads them once
/// pinned its pool worker in `write` forever — with a one-worker pool,
/// a complete denial of service. On the reactor a connection costs
/// buffers, not a worker: the non-reader's replies queue behind its
/// backpressure gates while the single worker keeps serving others.
#[test]
fn one_worker_reactor_serves_others_while_a_client_never_reads() {
    let engine = Arc::new(Engine::new());
    assert!(engine
        .handle("compl school(S, T, D) ; true.")
        .starts_with("ok"));
    for i in 0..2000 {
        assert_eq!(
            engine.handle(&format!("assert school(s{i}, primary, bz).")),
            "ok inserted"
        );
    }

    // One worker: the non-reader and the polite client compete for it.
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();

    // The non-reader: hundreds of evals whose replies total far more
    // than the socket buffers can absorb, and not a single read.
    let glutton = TcpStream::connect(addr).expect("connect glutton");
    let mut flood = String::new();
    for _ in 0..400 {
        flood.push_str("eval q(S) :- school(S, primary, bz).\n");
    }
    (&glutton).write_all(flood.as_bytes()).expect("flood");

    // Give the worker time to start serving the glutton and fill its
    // socket.
    std::thread::sleep(Duration::from_millis(300));

    // The polite client: must be served while the glutton is still
    // connected. A front end that parks the worker in the glutton's
    // `write` never answers, and this read times out.
    let mut polite = TcpStream::connect(addr).expect("connect polite");
    polite
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let started = Instant::now();
    polite.write_all(b"ping\n").expect("ping");
    let mut reader = BufReader::new(polite.try_clone().expect("clone"));
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("polite client starved: the non-reader is still pinning the worker");
    assert_eq!(reply.trim_end(), "ok pong");
    // Prompt: far below the reactor's 30 s write-stall eviction, so the
    // glutton never stood in the way.
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "took {:?}",
        started.elapsed()
    );

    drop(glutton);
    server.stop();
}
