//! Durability integration tests: crash recovery equivalence, clean
//! shutdown, corruption handling, and the `wal.*`/`checkpoint.*` metrics.
//!
//! The property test is the heart: random mutation interleavings run
//! against a durable engine, the engine is dropped *without* a clean
//! shutdown (simulating a crash of a process whose WAL reached the OS),
//! and the state recovered from disk must agree with a fresh in-memory
//! engine fed the same ops — facts, completeness verdicts, and epochs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use magik_server::{DurabilityOptions, Engine, Server};
use magik_storage::FsyncPolicy;

/// A fresh scratch directory per call (process id + counter keyed, so
/// parallel test binaries never collide).
fn data_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "magik-durability-{name}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn opts(fsync: FsyncPolicy, checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        fsync,
        segment_bytes: 1 << 16,
        checkpoint_every,
    }
}

fn open(
    dir: &Path,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
) -> (Engine, magik_server::RecoveryReport) {
    Engine::open_durable(
        dir,
        opts(fsync, checkpoint_every),
        magik_exec::Executor::Sequential,
    )
    .expect("durable open")
}

#[test]
fn durable_engine_recovers_after_unclean_drop() {
    let dir = data_dir("unclean");
    {
        let (engine, report) = open(&dir, FsyncPolicy::Always, 0);
        assert_eq!(report.replayed_ops, 0);
        assert!(!report.from_checkpoint);
        engine.handle("compl school(S, primary, D) ; true.");
        engine.handle("assert school(hofer, primary, merano).");
        engine.handle("assert pupil(anna, c1, hofer).");
        engine.handle("retract pupil(anna, c1, hofer).");
        // No shutdown: the engine just drops, like a killed process.
    }
    let (engine, report) = open(&dir, FsyncPolicy::Always, 0);
    assert_eq!(report.replayed_ops, 4);
    assert_eq!((report.tcs_epoch, report.data_epoch), (1, 3));
    assert_eq!(engine.epochs(), (1, 3));
    assert_eq!(
        engine.handle("eval q(S, T, D) :- school(S, T, D)."),
        "ok 1 (hofer, primary, merano)"
    );
    assert_eq!(engine.handle("eval q(N) :- pupil(N, C, S)."), "ok 0");
    assert_eq!(
        engine.handle("check q(S, D) :- school(S, primary, D)."),
        "ok complete"
    );
}

#[test]
fn explicit_shutdown_then_reopen_replays_nothing() {
    let dir = data_dir("shutdown");
    {
        let (engine, _) = open(&dir, FsyncPolicy::Never, 0);
        engine.handle("assert edge(a, b).");
        engine.handle("assert edge(b, c).");
        engine.shutdown_durability().expect("clean shutdown");
    }
    let (engine, report) = open(&dir, FsyncPolicy::Never, 0);
    assert_eq!(report.replayed_ops, 0, "{report:?}");
    assert!(report.from_checkpoint);
    assert_eq!(engine.epochs(), (0, 2));
    assert_eq!(
        engine.handle("eval q(X, Y) :- edge(X, Y)."),
        "ok 2 (a, b); (b, c)"
    );
}

#[test]
fn server_stop_flushes_durable_state() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let dir = data_dir("server-stop");
    {
        let (engine, _) = open(&dir, FsyncPolicy::Never, 0);
        let server = Server::start(Arc::new(engine), "127.0.0.1:0", 2).expect("server start");
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.write_all(b"compl edge(X, Y) ; true.\nassert edge(a, b).\nepochs\n")
            .expect("send");
        let mut lines = BufReader::new(conn.try_clone().expect("clone")).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "ok epoch=1");
        assert_eq!(lines.next().unwrap().unwrap(), "ok inserted");
        assert_eq!(lines.next().unwrap().unwrap(), "ok tcs=1 data=1");
        server.stop();
    }
    // The clean stop wrote a final checkpoint: nothing left to replay.
    let (engine, report) = open(&dir, FsyncPolicy::Never, 0);
    assert_eq!(report.replayed_ops, 0, "{report:?}");
    assert_eq!(engine.epochs(), (1, 1));
    assert_eq!(engine.handle("check q(X, Y) :- edge(X, Y)."), "ok complete");
    assert_eq!(engine.handle("eval q(X, Y) :- edge(X, Y)."), "ok 1 (a, b)");
}

#[test]
fn torn_wal_tail_is_discarded_on_recovery() {
    let dir = data_dir("torn");
    {
        let (engine, _) = open(&dir, FsyncPolicy::Never, 0);
        engine.handle("assert edge(a, b).");
        engine.handle("assert edge(b, c).");
        engine.shutdown_durability().expect("flush");
    }
    // Remove the shutdown checkpoint so recovery must lean on the WAL,
    // then tear bytes off the end of the newest segment.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "snap") {
            std::fs::remove_file(&path).unwrap();
        }
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    let newest = segments
        .iter()
        .rev()
        .find(|p| std::fs::metadata(p).unwrap().len() > 8)
        .expect("a segment with records");
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() - 2]).unwrap();
    let (engine, report) = open(&dir, FsyncPolicy::Never, 0);
    assert!(report.discarded_bytes > 0, "{report:?}");
    // The torn record is gone; everything before it recovered. (The mark
    // and the second assert shared the tail segment, so exactly the tear
    // is lost.)
    assert_eq!(engine.epochs(), (0, report.data_epoch));
    let reply = engine.handle("eval q(X, Y) :- edge(X, Y).");
    assert!(
        reply == "ok 1 (a, b)" || reply == "ok 2 (a, b); (b, c)",
        "{reply}"
    );
}

#[test]
fn corrupt_sealed_data_is_a_clean_error_not_a_panic() {
    let dir = data_dir("corrupt");
    {
        let (engine, _) = open(&dir, FsyncPolicy::Never, 0);
        engine.handle("assert edge(a, b).");
        engine.shutdown_durability().expect("flush");
    }
    // Garbage over every checkpoint: recovery must refuse (the WAL may
    // have been truncated against those checkpoints), with an error, not
    // a panic and not a silently empty session.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "snap") {
            std::fs::write(&path, b"not a checkpoint at all").unwrap();
        }
    }
    let err = Engine::open_durable(
        &dir,
        opts(FsyncPolicy::Never, 0),
        magik_exec::Executor::Sequential,
    )
    .expect_err("corrupt checkpoints must refuse recovery");
    let msg = err.to_string();
    assert!(msg.contains("corrupt"), "{msg}");
}

#[test]
fn wal_and_checkpoint_metrics_are_reported() {
    let dir = data_dir("metrics");
    {
        // checkpoint_every=2: the third mutation triggers a background
        // checkpoint.
        let (engine, _) = open(&dir, FsyncPolicy::Always, 2);
        engine.handle("assert edge(a, b).");
        engine.handle("assert edge(b, c).");
        engine.handle("assert edge(c, d).");
        let metrics = engine.handle("metrics");
        assert!(metrics.contains("wal.appends=3"), "{metrics}");
        assert!(metrics.contains("wal.fsyncs=3"), "{metrics}");
        assert!(!metrics.contains("wal.bytes=0"), "{metrics}");
        assert!(metrics.contains("recovery.replayed_ops=0"), "{metrics}");
        // No shutdown: drop unclean so the reopen has records to replay.
    }
    let (engine, _) = open(&dir, FsyncPolicy::Always, 2);
    let metrics = engine.handle("metrics");
    let replayed = metrics
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("recovery.replayed_ops="))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("recovery.replayed_ops rendered");
    // A background checkpoint may or may not have completed before the
    // drop; either way checkpoint coverage plus replay reconstructs all
    // three ops.
    assert!(replayed <= 3, "{metrics}");
    assert_eq!(engine.epochs(), (0, 3));
    assert_eq!(
        engine.handle("eval q(X, Y) :- edge(X, Y)."),
        "ok 3 (a, b); (b, c); (c, d)"
    );
}

#[test]
fn failed_append_poisons_storage_but_reads_keep_serving() {
    let dir = data_dir("poison");
    let (engine, _) = Engine::open_durable(
        &dir,
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1,
            checkpoint_every: 0,
        },
        magik_exec::Executor::Sequential,
    )
    .expect("durable open");
    assert_eq!(
        engine.handle("compl pupil(N, C, S) ; school(S, T, merano)."),
        "ok epoch=1"
    );
    assert_eq!(
        engine.handle("assert school(hofer, primary, merano)."),
        "ok inserted"
    );
    // The store raises `segment_bytes` to its 64-byte floor. The live
    // segment is past it, so the next append rotates to a new segment
    // first.
    let live = std::fs::read_dir(&dir)
        .expect("list data dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.starts_with("wal-") && name.ends_with(".log"))
        .max()
        .expect("a live segment");
    assert!(std::fs::metadata(dir.join(&live)).expect("stat").len() >= 64);
    // Rotation creates the next segment with `create_new`; a directory
    // squatting on that path makes it fail.
    let seq: u64 = live["wal-".len()..live.len() - ".log".len()]
        .parse()
        .expect("segment number");
    std::fs::create_dir(dir.join(format!("wal-{:020}.log", seq + 1))).expect("squat");

    let epochs = engine.handle("epochs");
    let eval = engine.handle("eval q(S) :- school(S, T, D).");
    let reply = engine.handle("assert pupil(anna, c1, hofer).");
    assert!(reply.starts_with("err storage "), "{reply}");
    // The failed append left memory untouched...
    assert_eq!(engine.handle("epochs"), epochs);
    assert_eq!(engine.handle("eval q(S) :- school(S, T, D)."), eval);
    // ...and poisoned the layer: later mutations are refused outright.
    let reply = engine.handle("assert pupil(bob, c1, hofer).");
    assert!(
        reply.starts_with("err storage ") && reply.contains("poisoned"),
        "{reply}"
    );
    // Reads keep serving.
    let reply = engine.handle("check q(N) :- pupil(N, C, S), school(S, primary, merano).");
    assert!(reply.starts_with("ok "), "{reply}");
    let reply = engine.handle("eval q(N) :- pupil(N, C, S).");
    assert!(reply.starts_with("ok "), "{reply}");
    // Shutdown refuses to flush state the log no longer reflects.
    assert!(engine.shutdown_durability().is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_asserts_and_absent_retracts_are_not_logged() {
    let dir = data_dir("noop");
    {
        let (engine, _) = open(&dir, FsyncPolicy::Always, 0);
        engine.handle("assert edge(a, b).");
        assert_eq!(engine.handle("assert edge(a, b)."), "ok duplicate");
        assert_eq!(engine.handle("retract edge(z, z)."), "ok absent");
        let metrics = engine.handle("metrics");
        assert!(metrics.contains("wal.appends=1"), "{metrics}");
    }
    let (_, report) = open(&dir, FsyncPolicy::Always, 0);
    assert_eq!(report.replayed_ops, 1);
}

// ---------------------------------------------------------------------
// Property test: recovered-from-disk == fresh-in-memory.

#[derive(Debug, Clone)]
enum DOp {
    Compl(usize, usize),
    Assert(usize, u8, u8),
    Retract(usize, u8, u8),
}

impl DOp {
    /// The protocol request this op issues (identical on both engines).
    fn request(&self) -> String {
        match self {
            // A small TCS pool: `p<i>` complete when `p<j>` rows exist in
            // the ideal DB, plus unconditional variants.
            DOp::Compl(p, c) => match c % 3 {
                0 => format!("compl p{p}(X, Y) ; true."),
                1 => format!("compl p{p}(X, Y) ; p{}(Y, Z).", (p + 1) % 3),
                _ => format!("compl p{p}(X, c1) ; true."),
            },
            DOp::Assert(p, a, b) => format!("assert p{p}(c{a}, c{b})."),
            DOp::Retract(p, a, b) => format!("retract p{p}(c{a}, c{b})."),
        }
    }
}

fn dop() -> impl Strategy<Value = DOp> {
    prop_oneof![
        2 => ((0..3usize), (0..3usize)).prop_map(|(p, c)| DOp::Compl(p, c)),
        4 => ((0..3usize), (1..4u8), (1..4u8)).prop_map(|(p, a, b)| DOp::Assert(p, a, b)),
        2 => ((0..3usize), (1..4u8), (1..4u8)).prop_map(|(p, a, b)| DOp::Retract(p, a, b)),
    ]
}

/// Queries probing both evaluation (facts) and completeness (TCS).
const PROBES: [&str; 4] = [
    "q(X, Y) :- p0(X, Y).",
    "q(X) :- p1(X, Y), p2(Y, Z).",
    "q(X) :- p0(X, c1).",
    "q(X, Z) :- p2(X, Y), p0(Y, Z).",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recovery_agrees_with_in_memory_engine(ops in proptest::collection::vec(dop(), 1..20)) {
        let dir = data_dir("prop");
        let reference = Engine::new();
        {
            // checkpoint_every=5 exercises the background checkpointer
            // mid-sequence; fsync Never is sound here because the process
            // survives (recovery reads what the page cache holds).
            let (durable, _) = open(&dir, FsyncPolicy::Never, 5);
            for op in &ops {
                let req = op.request();
                prop_assert_eq!(durable.handle(&req), reference.handle(&req), "{}", req);
            }
            // Crash: no shutdown, background checkpoints in whatever
            // state they reached.
        }
        let (recovered, _) = open(&dir, FsyncPolicy::Never, 5);
        prop_assert_eq!(recovered.epochs(), reference.epochs());
        for probe in PROBES {
            let ev = format!("eval {probe}");
            prop_assert_eq!(recovered.handle(&ev), reference.handle(&ev), "{}", ev);
            let ck = format!("check {probe}");
            prop_assert_eq!(recovered.handle(&ck), reference.handle(&ck), "{}", ck);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
