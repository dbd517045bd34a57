//! Per-layer metrics (`--trace 1`): which layer each one measures, the
//! end-to-end metric and workload it should move, and the run that
//! produces the in-process figures.
//!
//! The in-process figures come from one fixed request prefix — the first
//! `PREFIX` lines of connection 0's stream (plus the first write pairs on
//! the read-only workloads) — sent three ways:
//!
//! 1. over TCP, one request at a time on one connection, to two fresh
//!    servers: the round trips, and the self-check that the exact
//!    counters repeat exactly;
//! 2. through `Engine::handle` in process, and
//! 3. through the shadow pipeline of `trace.rs`, one span per layer call,
//!    alternating with 2 line by line so both see the same conditions;
//!    then through the shadow once more, whose counts must repeat.
//!
//! Reconciliation: the shadow's layer spans against `Engine::handle`, and
//! `Engine::handle` against the round trip, line by line.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use crate::client::{self, Conn};
use crate::gen::{Inputs, Kind, Req, Workload};
use crate::oracle::Tally;
use crate::server::{self, Proc};
use crate::stats::median;
use crate::trace::{open_engine, Counts, Durable, Shadow, Tracer};

/// Every per-layer metric: name, unit, which way is better, and the
/// end-to-end metric and workload it should move. `BENCHMARK.json`'s
/// `per_layer` list is this table (a unit test keeps them equal).
pub const LAYER_METRICS: &[(&str, &str, &str, &str)] = &[
    ("frontend.self_us", "us", "lower", "throughput_rps and read_p50_us on hot_reads"),
    ("runtime.tasks", "count", "lower", "throughput_rps on hot_reads"),
    ("runtime.steals", "count", "lower", "throughput_rps on hot_reads"),
    ("engine.handle_us.check", "us", "lower", "throughput_rps on hot_reads"),
    ("engine.handle_us.why", "us", "lower", "throughput_rps on hot_reads"),
    ("engine.handle_us.eval", "us", "lower", "throughput_rps on hot_reads"),
    ("engine.handle_us.generalize", "us", "lower", "throughput_rps on cold_reasoning"),
    ("engine.handle_us.specialize", "us", "lower", "read_p90_us on cold_reasoning"),
    ("engine.handle_us.assert", "us", "lower", "write_p50_us on durable_churn"),
    ("engine.handle_us.retract", "us", "lower", "write_p50_us on durable_churn"),
    ("engine.remainder_us", "us", "lower", "throughput_rps on hot_reads"),
    ("engine.verdict_cache.rate", "ratio", "higher", "throughput_rps on hot_reads (about 1) and cold_reasoning (about 0)"),
    ("engine.answer_cache.rate", "ratio", "higher", "throughput_rps on hot_reads (about 1) and cold_reasoning (about 0)"),
    ("engine.plan_cache.rate", "ratio", "higher", "read_p50_us on durable_churn"),
    ("engine.cert_cache.rate", "ratio", "higher", "throughput_rps on hot_reads (about 1) and cold_reasoning (about 0)"),
    ("parser.parse_us", "us", "lower", "read_p50_us on hot_reads"),
    ("completeness.canonical_us", "us", "lower", "throughput_rps on hot_reads"),
    ("completeness.is_complete_us", "us", "lower", "throughput_rps and read_p90_us on cold_reasoning"),
    ("completeness.is_complete_calls", "count", "lower", "throughput_rps on cold_reasoning (0 on hot_reads)"),
    ("completeness.certify_us", "us", "lower", "throughput_rps and read_p90_us on cold_reasoning"),
    ("completeness.mcg_us", "us", "lower", "throughput_rps and read_p90_us on cold_reasoning"),
    ("completeness.k_mcs_us", "us", "lower", "throughput_rps and read_p90_us on cold_reasoning"),
    ("completeness.unify_calls", "count", "lower", "throughput_rps and read_p90_us on cold_reasoning"),
    ("cert.check_us", "us", "lower", "read_p90_us on cold_reasoning"),
    ("exec.compile_us", "us", "lower", "read_p50_us on cold_reasoning and durable_churn"),
    ("exec.answers_us", "us", "lower", "read_p50_us on cold_reasoning and durable_churn"),
    ("exec.scanned_per_answer", "ratio", "lower", "read_p50_us on cold_reasoning and durable_churn"),
    ("exec.batch_rows", "count", "lower", "read_p50_us on cold_reasoning and durable_churn"),
    ("relalg.vocab_names", "count", "lower", "peak_rss_mb on cold_reasoning"),
    ("datalog.materialize_s", "s", "lower", "setup_s on every workload"),
    ("datalog.insert_us", "us", "lower", "write_p50_us on durable_churn"),
    ("datalog.retract_us", "us", "lower", "write_p50_us on durable_churn"),
    ("datalog.dred_overdeleted_per_retract", "ratio", "lower", "write_p50_us on durable_churn"),
    ("datalog.dred_rederived_per_retract", "ratio", "lower", "write_p50_us on durable_churn"),
    ("storage.append_us", "us", "lower", "write_p50_us and write_p90_us on durable_churn"),
    ("storage.wal_bytes_per_write", "B", "lower", "stored_bytes_per_user_byte on durable_churn"),
    ("storage.fsyncs_per_write", "ratio", "lower", "write_p50_us on durable_churn (1 under fsync always)"),
    ("storage.checkpoints", "count", "lower", "stored_bytes_per_user_byte and read_p90_us on durable_churn"),
    ("storage.checkpoint_ms", "ms", "lower", "read_p90_us and write_p90_us on durable_churn"),
    ("replication.records_applied", "count", "lower", "replica_catchup_s on durable_churn"),
    ("replication.snapshots_shipped", "count", "lower", "replica_catchup_s on durable_churn"),
    ("replication.apply_rps", "1/s", "higher", "replica_catchup_s on durable_churn"),
    ("recon.layers_share_of_handle", "ratio", "higher", "nothing: the share of Engine::handle the layer spans explain"),
    ("recon.handle_share_of_rtt", "ratio", "higher", "nothing: the share of the round trip Engine::handle explains"),
    ("recon.layers_share_of_rtt", "ratio", "higher", "nothing: the share of the round trip the layer spans explain"),
    ("trace.overhead_pct", "%", "lower", "nothing: traced against untraced throughput_rps"),
    ("selfcheck.exact_counters", "count", "higher", "nothing: exact counters that repeated across two same-seed runs"),
];

/// The end-to-end metric a per-layer metric should move, if it is one.
pub fn moves(name: &str) -> Option<&'static str> {
    LAYER_METRICS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|(.., m)| *m)
}

/// Layer spans recorded by the shadow, and the metric each feeds.
const LAYER_SPANS: [(&str, &str); 12] = [
    ("parser.parse", "parser.parse_us"),
    ("completeness.canonical", "completeness.canonical_us"),
    ("completeness.is_complete", "completeness.is_complete_us"),
    ("completeness.certify", "completeness.certify_us"),
    ("completeness.mcg", "completeness.mcg_us"),
    ("completeness.k_mcs", "completeness.k_mcs_us"),
    ("cert.check", "cert.check_us"),
    ("exec.compile", "exec.compile_us"),
    ("exec.answers", "exec.answers_us"),
    ("datalog.insert", "datalog.insert_us"),
    ("datalog.retract", "datalog.retract_us"),
    ("storage.append", "storage.append_us"),
];

/// Requests in the fixed prefix.
const PREFIX: usize = 2000;
/// Assert/retract pairs appended to the prefix on read-only workloads.
const PREFIX_PAIRS: usize = 100;

/// Server counters that depend only on the requests, not on timing, when
/// one connection sends them.
const EXACT: [&str; 12] = [
    "exec.probes",
    "exec.scanned",
    "exec.batch.rows",
    "wal.appends",
    "wal.bytes",
    "wal.fsyncs",
    "dred.overdeleted",
    "dred.rederived",
    "verdict_cache.misses",
    "answer_cache.misses",
    "plan_cache.misses",
    "cert.cache.misses",
];

pub struct LayerRun {
    /// Median self time per layer and per-op `Engine::handle`, in µs.
    pub layer_us: Vec<(String, f64)>,
    pub counts: Counts,
    pub materialize_s: f64,
    /// Medians over the prefix lines, µs.
    pub rtt_us: f64,
    pub handle_us: f64,
    /// Sums over the prefix lines, µs.
    pub rtt_sum_us: f64,
    pub handle_sum_us: f64,
    pub layer_sum_us: f64,
    pub layers_share_of_handle: f64,
    pub exact_counters: usize,
    pub notes: Vec<String>,
}

/// Runs the prefix three ways and derives the per-layer figures. Spans go
/// to `tracer`; wrong replies and counters that fail to repeat go to
/// `tally`.
pub fn measure(
    inputs: &Inputs,
    dir: &Path,
    durable: Durable,
    threads: usize,
    start: &dyn Fn(&mut Tally) -> Result<Proc, String>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<LayerRun, String> {
    let mut stream = inputs.stream(0);
    let mut prefix: Vec<Req> = (0..PREFIX).map(|_| stream.next_req()).collect();
    if inputs.workload != Workload::DurableChurn {
        prefix.extend(inputs.write_pairs(PREFIX_PAIRS));
    }
    let warm = inputs.warmup();

    // 1. Over TCP, twice.
    let mut rtts = Vec::new();
    let mut counters: Vec<Vec<f64>> = Vec::new();
    for _ in 0..2 {
        let mut t = Tally::new(&inputs.doc);
        let p = start(&mut t)?;
        let before = server::metrics(p.addr)?;
        let mut conn = Conn::connect(p.addr).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let ex: Vec<_> = prefix.iter().map(|r| client::one(&mut conn, r.clone(), t0)).collect();
        let after = server::metrics(p.addr)?;
        t.take(0, &ex);
        tally.absorb(t);
        rtts = ex.iter().map(|e| e.rtt_ns as f64 / 1e3).collect();
        let get = |m: &HashMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        counters.push(EXACT.iter().map(|k| get(&after, k) - get(&before, k)).collect());
    }
    for (i, k) in EXACT.iter().enumerate() {
        if counters[0][i] != counters[1][i] {
            tally.wrong.push(format!(
                "exact counter {k} did not repeat: {} then {}",
                counters[0][i], counters[1][i]
            ));
        }
    }

    // 2 and 3. Engine::handle and the shadow, line by line; then the
    // shadow again, untraced, to check that its counts repeat.
    let engine = open_engine(&inputs.doc, &dir.join("inproc-engine"), durable, threads)?;
    let mut runs = Vec::new();
    let mut handle = vec![0.0; prefix.len()];
    let mut first = 0;
    for i in 0..2 {
        let sdir = dir.join(format!("shadow{i}"));
        let _ = std::fs::remove_dir_all(&sdir);
        let mut shadow = Shadow::new(&inputs.doc, &sdir, durable, threads)?;
        let mut scratch = Tracer::new();
        for (j, r) in warm.iter().enumerate() {
            if i == 0 {
                engine.handle(&r.line);
            }
            shadow.run(r, j as u32, &mut scratch)?;
        }
        shadow.counts = Counts::default();
        if i == 0 {
            first = tracer.spans.len();
        }
        for (j, r) in prefix.iter().enumerate() {
            if i == 0 {
                let t = tracer.now();
                std::hint::black_box(engine.handle(&r.line));
                let span = tracer.close("engine.handle", j as u32, None, t);
                handle[j] = tracer.spans[span as usize].us();
                shadow.run(r, j as u32, tracer)?;
            } else {
                shadow.run(r, j as u32, &mut scratch)?;
            }
        }
        shadow.counts.vocab_names = shadow.vocab_names();
        runs.push((shadow.counts.clone(), shadow.materialize_s));
    }
    engine
        .shutdown_durability()
        .map_err(|e| format!("in-process engine shutdown: {e}"))?;
    if runs[0].0 != runs[1].0 {
        tally.wrong.push(format!(
            "shadow counts did not repeat: {:?} then {:?}",
            runs[0].0, runs[1].0
        ));
    }
    let (counts, materialize_s) = runs.swap_remove(0);

    // Self time per layer, and each line's layer total.
    let mut by_layer: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut layer = vec![0.0; prefix.len()];
    for s in &tracer.spans[first..] {
        if s.parent.is_some() {
            by_layer.entry(s.name).or_default().push(s.us());
            layer[s.req as usize] += s.us();
        }
    }
    let mut layer_us: Vec<(String, f64)> = Vec::new();
    for kind in Kind::ALL {
        let of_kind: Vec<f64> = prefix
            .iter()
            .zip(&handle)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, h)| *h)
            .collect();
        layer_us.push((format!("engine.handle_us.{}", kind.name()), median(&of_kind)));
    }
    let remainder: Vec<f64> = handle.iter().zip(&layer).map(|(h, l)| h - l).collect();
    layer_us.push(("engine.remainder_us".to_string(), median(&remainder)));
    for (span, metric) in LAYER_SPANS {
        layer_us.push((metric.to_string(), median(&by_layer.remove(span).unwrap_or_default())));
    }

    let (handle_sum, layer_sum, rtt_sum): (f64, f64, f64) =
        (handle.iter().sum(), layer.iter().sum(), rtts.iter().sum());
    let rtt_us = median(&rtts);
    let handle_us = median(&handle);
    let notes = vec![
        format!(
            "reconcile {}: layer spans cover {:.1}% of Engine::handle over {} lines; the \
             remainder (median {:.2} us a line) is the engine's own work between layer calls: \
             lock acquisitions, cache probes, snapshot publication, reply rendering, metrics",
            inputs.workload.name(),
            100.0 * layer_sum / handle_sum.max(f64::MIN_POSITIVE),
            prefix.len(),
            median(&remainder),
        ),
        format!(
            "reconcile {}: Engine::handle covers {:.1}% and the layer spans {:.1}% of the TCP \
             round trip; the remainder (median {:.2} us a line) is the front end (event loop, \
             worker hand-off, socket reads and writes), loopback TCP and the client",
            inputs.workload.name(),
            100.0 * handle_sum / rtt_sum.max(f64::MIN_POSITIVE),
            100.0 * layer_sum / rtt_sum.max(f64::MIN_POSITIVE),
            rtt_us - handle_us,
        ),
    ];
    Ok(LayerRun {
        layer_us,
        counts,
        materialize_s,
        rtt_us,
        handle_us,
        rtt_sum_us: rtt_sum,
        handle_sum_us: handle_sum,
        layer_sum_us: layer_sum,
        layers_share_of_handle: layer_sum / handle_sum.max(f64::MIN_POSITIVE),
        exact_counters: EXACT.len() + 1,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |key: &str| -> usize {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').expect("list end") + start;
            json[start..end].matches("\"name\"").count()
        };
        assert_eq!(entries("per_layer"), LAYER_METRICS.len());
        for (name, unit, better, _) in LAYER_METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in crate::END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "missing {entry}");
        }
        assert_eq!(entries("end_to_end"), crate::END_TO_END.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }
}
