//! The repository benchmark: seeded workloads against the release
//! `magik serve` binary, driven over TCP.
//!
//! ```text
//! perfbench --magik PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run starts the server on a generated session document, sends the
//! workload's request streams from two connections in a closed loop (in
//! rounds of a `saturate` phase with a fixed pipeline window and an
//! `interactive` phase of one request at a time), checks every reply
//! against in-process library calls, times fresh replicas catching up a
//! fixed-length log, and prints every metric by name with its unit. The
//! last stdout line is the JSON result. `--trace 1` prints the per-layer
//! metrics instead (see `layers.rs`). `perfbench/run.py` builds both
//! binaries and calls this.

mod client;
mod gen;
mod layers;
mod oracle;
mod server;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{run_phase, Conn, ConnRun, Exchange, Mode};
use gen::{Inputs, Kind, Req, Workload};
use oracle::Tally;
use server::Proc;
use stats::{latency_us, median, ratio};
use trace::Durable;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Replica catch-ups per untraced run, `replica_catchup_s` being their
/// median: at least `REPLICAS`, more while they take under
/// `REPLICA_BUDGET_S` in all, up to `3 * REPLICAS`.
const REPLICAS: usize = 3;
const REPLICA_BUDGET_S: f64 = 3.0;
/// Saturate/interactive rounds per run: interleaving spreads both
/// phases over the whole run, so slow drifts of the machine reach them
/// alike.
const ROUNDS: usize = 8;
/// Share of the run spent saturating.
const SATURATE_SHARE: f64 = 0.4;
/// Seconds per throughput window (shorter phases are one window).
const WINDOW_S: f64 = 0.5;
/// Requests each connection keeps in flight in the saturate phase.
const WINDOW: usize = 16;
/// Assert/retract pairs the read-only workloads send, a slice after each
/// round's reads.
const WRITE_PAIRS: usize = 10000;
/// Writes of connection 0's durable_churn stream in the replicated log.
const REPLICATION_WRITES: usize = 15_000;
/// Reads the replica must answer byte for byte like the primary.
const REPLICA_SAMPLE: usize = 200;
/// Lines of each connection's stream kept in `stream-c*.txt`.
const STREAM_DUMP_LINES: usize = 20_000;
/// Server flags, pinned.
const WORKERS: usize = 2;
const THREADS: usize = 2;
const SEGMENT_BYTES: u64 = 16 << 20;
const CHECKPOINT_EVERY: u64 = 1024;

/// The end-to-end metrics: name, unit, which way is better.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("throughput_rps", "req/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_p90_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("write_p90_us", "us", "lower"),
    ("ok_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("stored_bytes_per_user_byte", "ratio", "lower"),
    ("replica_catchup_s", "s", "lower"),
];

struct Opts {
    magik: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let num = |v: String, flag: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        let seconds = num(get("--seconds")?, "--seconds")?;
        let trace = num(get("--trace")?, "--trace")?;
        Ok(Opts {
            magik: get("--magik")?.into(),
            work: get("--work").unwrap_or_else(|_| ".bench_work".to_string()).into(),
            workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
            seed: num(get("--seed")?, "--seed")?,
            seconds: seconds.max(1) as f64,
            trace: match trace {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".to_string()),
            },
        })
    }
}

/// The pinned server configuration of a workload.
struct Flags {
    durable: Durable,
}

impl Flags {
    fn of(w: Workload) -> Flags {
        Flags {
            durable: Durable {
                // Reads never touch the log; only the churn workload pays
                // for durable writes.
                fsync_always: w == Workload::DurableChurn,
                segment_bytes: SEGMENT_BYTES,
                checkpoint_every: CHECKPOINT_EVERY,
            },
        }
    }

    fn common(&self, data: &Path) -> Vec<String> {
        let fsync = if self.durable.fsync_always { "always" } else { "never" };
        [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
            "--threads",
            &THREADS.to_string(),
            "--fsync",
            fsync,
            "--checkpoint-every",
            &CHECKPOINT_EVERY.to_string(),
            "--segment-bytes",
            &SEGMENT_BYTES.to_string(),
            "--data-dir",
            &data.display().to_string(),
        ]
        .map(String::from)
        .to_vec()
    }

    fn serve(&self, data: &Path, doc: &Path) -> Vec<String> {
        let mut a = vec!["serve".to_string()];
        a.extend(self.common(data));
        a.push(doc.display().to_string());
        a
    }

    fn replicate(&self, from: SocketAddr, data: &Path) -> Vec<String> {
        let mut a = vec!["replicate".to_string(), "--from".to_string(), from.to_string()];
        a.extend(self.common(data));
        a
    }
}

/// One saturate phase and one interactive phase on both connections,
/// then, on the read-only workloads, a slice of its writes.
struct Round {
    traced: bool,
    sat: Vec<ConnRun>,
    inter: Vec<ConnRun>,
    writes: Vec<Exchange>,
}

/// The named metrics of a run, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), if value.is_finite() { value } else { 0.0 }, unit));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --magik PATH --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn fresh_dir(p: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(p);
    fs::create_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Starts the primary on a fresh data directory and sends the warm-up
/// pass; returns the server and the seconds this took.
fn start_primary(
    o: &Opts,
    inputs: &Inputs,
    flags: &Flags,
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Proc, f64), String> {
    let data = dir.join("primary");
    fresh_dir(&data)?;
    let t0 = Instant::now();
    let p = Proc::spawn(
        &o.magik,
        &flags.serve(&data, &dir.join("session.magik")),
        "serving on ",
        &dir.join("serve.log"),
    )?;
    let mut conn = connect(p.addr)?;
    let mut warm = inputs.warmup().into_iter();
    let far = Instant::now() + Duration::from_secs(3600);
    let ex = client::saturate(&mut conn, || warm.next(), WINDOW, t0, far);
    let secs = t0.elapsed().as_secs_f64();
    tally.take(0, &ex);
    Ok((p, secs))
}

fn run(o: &Opts) -> Result<bool, String> {
    let inputs = Inputs::new(o.workload, o.seed);
    let dir = o.work.join(o.workload.name());
    fresh_dir(&dir)?;
    fs::write(dir.join("session.magik"), &inputs.doc).map_err(|e| e.to_string())?;
    let warmup: String = inputs.warmup().iter().map(|r| format!("{}\n", r.line)).collect();
    fs::write(dir.join("warmup.txt"), warmup).map_err(|e| e.to_string())?;
    let flags = Flags::of(o.workload);
    let mut tally = Tally::new(&inputs.doc);
    let read_only = o.workload != Workload::DurableChurn;

    // Set-up: spawn with the generated document, then the warm-up pass.
    let mut setups = Vec::new();
    let mut primary = None;
    for _ in 0..if o.trace { 1 } else { SETUPS } {
        drop(primary.take());
        let (p, secs) = start_primary(o, &inputs, &flags, &dir, &mut tally)?;
        setups.push(secs);
        primary = Some(p);
    }
    let primary = primary.expect("at least one set-up");

    // The load: rounds of saturate then interactive, on two connections.
    let before = server::metrics(primary.addr)?;
    let mut conns = [connect(primary.addr)?, connect(primary.addr)?];
    let mut streams = [inputs.stream(0), inputs.stream(1)];
    let sat_len = Duration::from_secs_f64(o.seconds * SATURATE_SHARE / ROUNDS as f64);
    let inter_len = Duration::from_secs_f64(o.seconds * (1.0 - SATURATE_SHARE) / ROUNDS as f64);
    let writes = if read_only { inputs.write_pairs(WRITE_PAIRS) } else { Vec::new() };
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        // A traced run traces every other saturate phase, so traced and
        // untraced throughput see the same conditions.
        let traced = o.trace && r % 2 == 1;
        let saturate = Mode::Saturate { window: WINDOW };
        let sat = run_phase(&mut conns, &mut streams, saturate, sat_len, traced);
        let inter = run_phase(&mut conns, &mut streams, Mode::Interactive, inter_len, o.trace);
        // The read-only workloads send their writes in slices, one request
        // at a time, after each round's reads.
        let t0 = Instant::now();
        let slice = &writes[r * writes.len() / ROUNDS..(r + 1) * writes.len() / ROUNDS];
        rounds.push(Round {
            traced,
            sat,
            inter,
            writes: slice.iter().map(|q| client::one(&mut conns[0], q.clone(), t0)).collect(),
        });
    }
    drop(conns);
    let mut streams_sent = Vec::new();
    for c in 0..2 {
        let mut sent = String::new();
        let mut n = 0;
        for round in &rounds {
            let own = if c == 0 { &round.writes[..] } else { &[] };
            for part in [&round.sat[c].exchanges[..], &round.inter[c].exchanges, own] {
                tally.take(c, part);
                for e in part {
                    n += 1;
                    if n <= STREAM_DUMP_LINES {
                        sent.push_str(&e.req.line);
                        sent.push('\n');
                    }
                }
            }
        }
        let _ = writeln!(sent, "# {n} requests sent on connection {c}; this file keeps the first {STREAM_DUMP_LINES}");
        streams_sent.push(sent);
    }

    // Durability: settle the checkpointer, then measure the data dir.
    let after = settle_checkpoints(primary.addr)?;
    let stored = server::dir_bytes(&dir.join("primary")) as f64;
    let user_bytes = mutation_text_bytes(&inputs.doc, &rounds);
    let peak_rss_mb = primary.peak_rss_mb();

    drop(primary);
    let repl = replication(o, &inputs, &flags, &dir, &mut tally)?;

    let mut m = Metrics::default();
    let throughput = ok_per_second(rounds.iter().filter(|r| !r.traced).map(|r| &r.sat[..]), sat_len);
    let interactive = || rounds.iter().flat_map(|r| &r.inter).flat_map(|c| &c.exchanges);
    let mut notes = Vec::new();
    if !o.trace {
        // p90 is the bounded tail: on a shared machine, stalls from
        // outside the benchmark reach about 1% of requests in some runs
        // and not in others, so p99 is reported but not bounded.
        let reads = rtts(interactive(), false);
        let writes = rtts(interactive().chain(rounds.iter().flat_map(|r| &r.writes)), true);
        let (read_p50, read_p90, read_tail) = (quantile_us(&reads, 0.5), quantile_us(&reads, 0.9), tail_us(&reads));
        let (write_p50, write_p90, write_tail) = (quantile_us(&writes, 0.5), quantile_us(&writes, 0.9), tail_us(&writes));
        notes.push(format!(
            "read p{:.2} = {:.3} us of {} interactive reads; write p{:.2} = {:.3} us of {} {} writes",
            read_tail.1 * 100.0,
            read_tail.0,
            reads.len(),
            write_tail.1 * 100.0,
            write_tail.0,
            writes.len(),
            if read_only { "one-at-a-time" } else { "interactive" }
        ));
        for kind in Kind::ALL {
            let ns: Vec<u64> = interactive()
                .filter(|e| e.ok() && e.req.kind == kind)
                .map(|e| e.rtt_ns)
                .collect();
            if !ns.is_empty() {
                let n = ns.len();
                let (p50, tail, q) = latency_us(ns);
                notes.push(format!(
                    "interactive {}: {n} requests, p50 {p50:.1} us, p{:.2} {tail:.1} us",
                    kind.name(),
                    q * 100.0
                ));
            }
        }
        notes.push(format!(
            "ok_rate: {} of {} requests failed (err, timeout or cut connection)",
            tally.failed, tally.attempted
        ));
        m.put("throughput_rps", throughput, "req/s");
        m.put("read_p50_us", read_p50, "us");
        m.put("read_p90_us", read_p90, "us");
        m.put("write_p50_us", write_p50, "us");
        m.put("write_p90_us", write_p90, "us");
        m.put("ok_rate", ratio((tally.attempted - tally.failed) as f64, tally.attempted as f64), "ratio");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m.put("stored_bytes_per_user_byte", ratio(stored, user_bytes), "ratio");
        m.put("replica_catchup_s", median(&repl.catchups), "s");
    } else {
        let delta = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let rate = |p: &str| ratio(delta(&format!("{p}.hits")), delta(&format!("{p}.hits")) + delta(&format!("{p}.misses")));
        let traced_rps = ok_per_second(rounds.iter().filter(|r| r.traced).map(|r| &r.sat[..]), sat_len);
        // Round-trip spans, numbered in send order per phase and
        // connection; times are relative to their phase's start.
        let mut tcp = trace::Tracer::new();
        let phases = rounds.iter().flat_map(|r| r.sat.iter().chain(&r.inter));
        for (i, s) in phases.flat_map(|c| &c.spans).enumerate() {
            tcp.spans.push(trace::Span { req: i as u32, ..*s });
        }
        tcp.write(&dir.join("spans-tcp.tsv")).map_err(|e| format!("spans: {e}"))?;
        let mut spans = trace::Tracer::new();
        let start = |t: &mut Tally| start_primary(o, &inputs, &flags, &dir, t).map(|(p, _)| p);
        let lm = layers::measure(&inputs, &dir, flags.durable, THREADS, &start, &mut spans, &mut tally)?;
        m.put("frontend.self_us", lm.rtt_us - lm.handle_us, "us");
        m.put("runtime.tasks", delta("runtime.tasks"), "count");
        m.put("runtime.steals", delta("runtime.steals"), "count");
        for (name, v) in &lm.layer_us {
            m.put(name.clone(), *v, "us");
        }
        m.put("engine.verdict_cache.rate", rate("verdict_cache"), "ratio");
        m.put("engine.answer_cache.rate", rate("answer_cache"), "ratio");
        m.put("engine.plan_cache.rate", rate("plan_cache"), "ratio");
        m.put("engine.cert_cache.rate", rate("cert.cache"), "ratio");
        let c = &lm.counts;
        m.put("completeness.unify_calls", c.unify_calls as f64, "count");
        m.put("completeness.is_complete_calls", c.is_complete_calls as f64, "count");
        m.put("exec.scanned_per_answer", ratio(c.scanned as f64, c.answers as f64), "ratio");
        m.put("exec.batch_rows", c.batch_rows as f64, "count");
        m.put("relalg.vocab_names", c.vocab_names as f64, "count");
        m.put("datalog.materialize_s", lm.materialize_s, "s");
        m.put("datalog.dred_overdeleted_per_retract", ratio(c.overdeleted as f64, c.retracts as f64), "ratio");
        m.put("datalog.dred_rederived_per_retract", ratio(c.rederived as f64, c.retracts as f64), "ratio");
        let appends = delta("wal.appends");
        m.put("storage.wal_bytes_per_write", ratio(delta("wal.bytes"), appends), "B");
        m.put("storage.fsyncs_per_write", ratio(delta("wal.fsyncs"), appends), "ratio");
        m.put("storage.checkpoints", delta("checkpoint.count"), "count");
        m.put("storage.checkpoint_ms", ratio(delta("checkpoint.duration_ms"), delta("checkpoint.count")), "ms");
        m.put("replication.records_applied", repl.applied, "count");
        m.put("replication.snapshots_shipped", repl.snapshots, "count");
        m.put("replication.apply_rps", ratio(repl.applied, median(&repl.catchups)), "1/s");
        m.put("recon.layers_share_of_handle", lm.layers_share_of_handle, "ratio");
        m.put("recon.handle_share_of_rtt", ratio(lm.handle_sum_us, lm.rtt_sum_us), "ratio");
        m.put("recon.layers_share_of_rtt", ratio(lm.layer_sum_us, lm.rtt_sum_us), "ratio");
        m.put("trace.overhead_pct", 100.0 * ratio(throughput - traced_rps, throughput), "%");
        m.put("selfcheck.exact_counters", lm.exact_counters as f64, "count");
        notes.extend(lm.notes);
        spans
            .write(&dir.join("spans.tsv"))
            .map_err(|e| format!("spans: {e}"))?;
    }
    let mut want: Vec<&str> = if o.trace {
        layers::LAYER_METRICS.iter().map(|(n, ..)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, ..)| *n).collect()
    };
    want.sort_unstable();
    let mut printed: Vec<&str> = m.0.iter().map(|(n, ..)| n.as_str()).collect();
    printed.sort_unstable();
    if printed != want {
        return Err(format!("metric set mismatch: printed {printed:?}, declared {want:?}"));
    }
    notes.extend(tally.wrong.iter().take(10).map(|w| format!("WRONG {w}")));
    let correct = tally.wrong.is_empty();
    // The inputs as sent, written after the measurements so that the
    // page-cache write-back cannot disturb them.
    for (c, sent) in streams_sent.iter().enumerate() {
        fs::write(dir.join(format!("stream-c{c}.txt")), sent).map_err(|e| e.to_string())?;
    }
    let stamp = stamp(o, &flags, &dir);
    let result = result_json(correct, &tally, &m);
    fs::write(dir.join("result.json"), format!("{{\"stamp\": {stamp}, \"result\": {result}}}\n"))
        .map_err(|e| e.to_string())?;
    println!("stamp {stamp}");
    for n in &notes {
        println!("note {n}");
    }
    for (name, value, unit) in &m.0 {
        match layers::moves(name) {
            Some(moves) => println!("metric {name} = {value} {unit}  (should move {moves})"),
            None => println!("metric {name} = {value} {unit}"),
        }
    }
    println!("{result}");
    Ok(correct)
}

/// OK replies per second, all connections together: the mean of the
/// middle half of the per-`WINDOW_S` rates of the given saturate phases,
/// so a burst of interference from outside the benchmark moves a window,
/// not the figure.
fn ok_per_second<'a>(phases: impl Iterator<Item = &'a [ConnRun]>, len: Duration) -> f64 {
    let width = WINDOW_S.min(len.as_secs_f64());
    let windows = (len.as_secs_f64() / width).floor().max(1.0) as usize;
    let mut rates = Vec::new();
    for runs in phases {
        let mut counts = vec![0u64; windows];
        for e in runs.iter().flat_map(|r| &r.exchanges).filter(|e| e.ok()) {
            let w = ((e.sent_ns + e.rtt_ns) as f64 / 1e9 / width) as usize;
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
        rates.extend(counts.iter().map(|&c| c as f64 / width));
    }
    rates.sort_by(f64::total_cmp);
    let middle = &rates[rates.len() / 4..rates.len() - rates.len() / 4];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// The `q` quantile of `ns` samples, in microseconds.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    stats::quantile(&v, q) as f64 / 1e3
}

/// The supported tail of `ns` samples (see `stats::tail_q`) in
/// microseconds, and its quantile.
fn tail_us(ns: &[u64]) -> (f64, f64) {
    let q = stats::tail_q(ns.len());
    (quantile_us(ns, q), q)
}

fn rtts<'a>(ex: impl Iterator<Item = &'a Exchange>, writes: bool) -> Vec<u64> {
    ex.filter(|e| e.ok() && e.req.kind.is_write() == writes)
        .map(|e| e.rtt_ns)
        .collect()
}

/// Bytes of mutation text the server acknowledged as applied: the
/// document's statements and facts (preloaded through the logged
/// mutation path) plus every `ok inserted` / `ok retracted` request.
fn mutation_text_bytes(doc: &str, rounds: &[Round]) -> f64 {
    let preload: usize = doc
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| *k == "fact" || *k == "compl")
        .map(|(_, rest)| rest.len())
        .sum();
    let acked: usize = rounds
        .iter()
        .flat_map(|r| r.sat.iter().chain(&r.inter).flat_map(|c| &c.exchanges).chain(&r.writes))
        .filter(|e| matches!(e.reply.as_deref(), Some("ok inserted" | "ok retracted")))
        .map(|e| e.req.line.split_once(' ').map_or(0, |(_, rest)| rest.len()))
        .sum();
    (preload + acked) as f64
}

/// Waits until the background checkpointer has written every checkpoint
/// the logged ops call for, and returns the final counters.
fn settle_checkpoints(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let t0 = Instant::now();
    loop {
        let m = server::metrics(addr)?;
        let due = (m.get("wal.appends").copied().unwrap_or(0.0) / CHECKPOINT_EVERY as f64).floor();
        if m.get("checkpoint.count").copied().unwrap_or(0.0) >= due {
            return Ok(m);
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(format!("checkpointer did not settle: {m:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What the replication run measured.
struct Replication {
    catchups: Vec<f64>,
    applied: f64,
    snapshots: f64,
}

/// Replica catch-up on a log of fixed length, so that its time does not
/// follow the load phases' throughput: a fresh primary takes the write
/// requests of the stream (`REPLICATION_WRITES` of connection 0's on
/// durable_churn, the read-only workloads' write pairs otherwise),
/// pipelined on one connection; then fresh replicas catch up one after
/// another, and the last must answer a sample of the stream's reads byte
/// for byte like the primary.
fn replication(o: &Opts, inputs: &Inputs, flags: &Flags, dir: &Path, tally: &mut Tally) -> Result<Replication, String> {
    let mut t = Tally::new(&inputs.doc);
    let (primary, _) = start_primary(o, inputs, flags, dir, &mut t)?;
    let mut stream = inputs.stream(0);
    let mut reads = Vec::new();
    let churn = o.workload == Workload::DurableChurn;
    let mut log = if churn { Vec::new() } else { inputs.write_pairs(WRITE_PAIRS) };
    let log_len = if churn { REPLICATION_WRITES } else { log.len() };
    while log.len() < log_len || reads.len() < REPLICA_SAMPLE {
        let r = stream.next_req();
        if !r.kind.is_write() {
            if reads.len() < REPLICA_SAMPLE {
                reads.push(r);
            }
        } else if log.len() < log_len {
            log.push(r);
        }
    }
    let mut conn = connect(primary.addr)?;
    let t0 = Instant::now();
    let mut it = log.into_iter();
    let ex = client::saturate(&mut conn, || it.next(), WINDOW, t0, t0 + Duration::from_secs(3600));
    t.take(0, &ex);
    let want = server::epochs(primary.addr)?;
    let before = server::metrics(primary.addr)?;
    let mut catchups = Vec::new();
    let mut replica = None;
    let enough = |c: &[f64]| match c.len() {
        n if o.trace => n >= 1,
        n => n >= 3 * REPLICAS || (n >= REPLICAS && c.iter().sum::<f64>() >= REPLICA_BUDGET_S),
    };
    while !enough(&catchups) {
        drop(replica.take());
        let (r, secs) = catch_up(o, flags, dir, primary.addr, &want)?;
        catchups.push(secs);
        replica = Some(r);
    }
    let replica = replica.expect("at least one replica");
    compare_replica(primary.addr, replica.addr, &reads, &mut t)?;
    let get = |m: &HashMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let applied = get(&server::metrics(replica.addr)?, "repl.applied");
    let snapshots = get(&server::metrics(primary.addr)?, "repl.snapshots") - get(&before, "repl.snapshots");
    tally.absorb(t);
    Ok(Replication {
        catchups,
        applied,
        snapshots,
    })
}

/// Starts a fresh replica and times it until its epochs equal the
/// primary's.
fn catch_up(
    o: &Opts,
    flags: &Flags,
    dir: &Path,
    primary: SocketAddr,
    want: &str,
) -> Result<(Proc, f64), String> {
    let data = dir.join("replica");
    fresh_dir(&data)?;
    let t0 = Instant::now();
    let r = Proc::spawn(
        &o.magik,
        &flags.replicate(primary, &data),
        "serving read-only on ",
        &dir.join("replica.log"),
    )?;
    let mut conn = connect(r.addr)?;
    let probe = Req {
        kind: Kind::Check,
        line: "epochs".to_string(),
        memo: None,
    };
    loop {
        let e = client::one(&mut conn, probe.clone(), t0);
        if e.reply.as_deref() == Some(want) {
            return Ok((r, t0.elapsed().as_secs_f64()));
        }
        if e.reply.is_none() || t0.elapsed() > Duration::from_secs(120) {
            return Err(format!("replica stuck at {:?}, primary at {want}", e.reply));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn compare_replica(
    primary: SocketAddr,
    replica: SocketAddr,
    sample: &[Req],
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut p, mut r) = (connect(primary)?, connect(replica)?);
    let t0 = Instant::now();
    for req in sample {
        let a = client::one(&mut p, req.clone(), t0);
        let b = client::one(&mut r, req.clone(), t0);
        tally.attempted += 2;
        tally.failed += u64::from(!a.ok()) + u64::from(!b.ok());
        if a.ok() && b.ok() && a.reply != b.reply {
            tally.wrong.push(format!(
                "replica differs on `{}`: primary `{}`, replica `{}`",
                req.line,
                a.reply.unwrap_or_default(),
                b.reply.unwrap_or_default()
            ));
        }
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(correct: bool, tally: &Tally, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// Where and how the result was measured.
fn stamp(o: &Opts, flags: &Flags, dir: &Path) -> String {
    let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string()))
        .unwrap_or_default();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("none".to_string(), |out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(o.workload.name())),
        ("seed", o.seed.to_string()),
        ("seconds", o.seconds.to_string()),
        ("trace", o.trace.to_string()),
        ("git_rev", json_str(&git)),
        ("source_digest", json_str(&source_digest())),
        ("nproc", nproc.to_string()),
        ("cpu", json_str(&cpu)),
        ("kernel", json_str(read("/proc/sys/kernel/osrelease").trim())),
        ("data_fs", json_str(&filesystem_of(dir))),
        ("server_flags", json_str(&flags.common(Path::new("DIR")).join(" "))),
        ("client", json_str(&format!("closed loop, 2 connections, saturate window {WINDOW}"))),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// FNV-1a over the program's sources, for checkouts without git.
fn source_digest() -> String {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = fs::read_dir(p) {
            for e in rd.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, out);
                } else {
                    out.push(path);
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for sub in ["crates", "src", "vendor", "Cargo.toml", "Cargo.lock"] {
        let p = root.join(sub);
        if p.is_dir() {
            walk(&p, &mut files);
        } else {
            files.push(p);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, t)| t)
}
