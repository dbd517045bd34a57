//! The traced run's in-process half: spans recorded from this crate around
//! calls into each layer's public functions.
//!
//! Each request line is replayed twice in process, back to back:
//!
//! * through `Engine::handle` on an engine opened like `magik serve` opens
//!   it, one `engine.handle` span per line;
//! * through a *shadow* pipeline that performs the engine's steps by calling each
//!   layer directly — parse, canonical form, the same cache capacities,
//!   `is_complete`, `certify` + `check_certificate`, `mcg`, `k_mcs_on`,
//!   `CompiledQuery` compile and answers, `Store::append`, `Materialized`
//!   insert and `retract_all` — one span per layer call under a
//!   `shadow.request` root.
//!
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use magik::server::{DurabilityOptions, LruCache};
use magik::storage::OpKind;
use magik::{
    cert_statements, certify, check_certificate, is_complete, k_mcs_on, mcg, parse_atom,
    parse_document, parse_query, tc_encoding, CanonicalQuery, CompiledQuery,
    Engine, ExecStats, Executor, Fact, FsyncPolicy, Instance, KMcsOptions, Materialized, Pred,
    Store, StoreOptions, TcSet, Term, Vocabulary, WalRecord,
};

use crate::gen::{Kind, Req};

/// The engine's cache capacities (`crates/server/src/engine.rs`).
const VERDICT_CAP: usize = 1024;
const ANSWER_CAP: usize = 256;
const WHY_CAP: usize = 256;
const PLAN_CAP: usize = 256;

/// One timed interval. `parent` indexes the span list; spans of one
/// request share `req`.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn close(&mut self, name: &'static str, req: u32, parent: Option<u32>, start_ns: u64) -> u32 {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, req: u32, parent: u32, f: impl FnOnce() -> R) -> R {
        let t = self.now();
        let r = f();
        self.close(name, req, Some(parent), t);
        r
    }

    /// Writes the spans as tab-separated `id name req parent start end`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\treq\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Durability settings shared by the server flags and the in-process
/// engine and shadow.
#[derive(Clone, Copy)]
pub struct Durable {
    pub fsync_always: bool,
    pub segment_bytes: u64,
    pub checkpoint_every: u64,
}

impl Durable {
    fn fsync(self) -> FsyncPolicy {
        if self.fsync_always {
            FsyncPolicy::Always
        } else {
            FsyncPolicy::Never
        }
    }
}

/// Opens an engine the way `magik serve --data-dir` opens one and
/// preloads the document through `Engine::handle`, as `serve` does.
pub fn open_engine(doc: &str, dir: &Path, durable: Durable, threads: usize) -> Result<Engine, String> {
    let (engine, _) = Engine::open_durable(
        dir,
        DurabilityOptions {
            fsync: durable.fsync(),
            segment_bytes: durable.segment_bytes,
            checkpoint_every: durable.checkpoint_every,
        },
        Executor::with_threads(threads),
    )
    .map_err(|e| format!("in-process engine: {e}"))?;
    for line in doc.lines() {
        let line = match line.split_once(' ') {
            Some(("fact", rest)) => format!("assert {rest}"),
            Some(("compl", _)) => line.to_string(),
            _ => continue,
        };
        let reply = engine.handle(&line);
        if !reply.starts_with("ok") {
            return Err(format!("in-process preload `{line}`: {reply}"));
        }
    }
    Ok(engine)
}

/// Exact work counts of a shadow replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub is_complete_calls: u64,
    pub unify_calls: u64,
    pub scanned: u64,
    pub answers: u64,
    pub batch_rows: u64,
    pub inserts: u64,
    pub retracts: u64,
    pub overdeleted: u64,
    pub rederived: u64,
    pub vocab_names: u64,
}

/// The shadow pipeline's state: what the engine keeps, rebuilt from the
/// layers' public types.
pub struct Shadow {
    vocab: Vocabulary,
    tcs: TcSet,
    db: Instance,
    data_epoch: u64,
    verdicts: LruCache<CanonicalQuery, bool>,
    answer_cache: LruCache<(CanonicalQuery, u64), Arc<Vec<magik::relalg::Answer>>>,
    why_cache: LruCache<(CanonicalQuery, u64), bool>,
    plans: LruCache<CanonicalQuery, Arc<CompiledQuery>>,
    tc: Materialized,
    ideal: BTreeMap<Pred, Pred>,
    store: Store,
    exec: Executor,
    pub counts: Counts,
    /// Seconds to build the T_C materialization from the document.
    pub materialize_s: f64,
}

impl Shadow {
    pub fn new(doc: &str, dir: &Path, durable: Durable, threads: usize) -> Result<Shadow, String> {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(doc, &mut vocab).map_err(|e| e.to_string())?;
        let exec = Executor::with_threads(threads);
        let t = Instant::now();
        let (program, ideal, _) = tc_encoding(&doc.tcs, &mut vocab);
        let mut edb = Instance::new();
        for fact in doc.facts.iter_facts() {
            if let Some(&pi) = ideal.get(&fact.pred) {
                edb.insert(Fact::new(pi, fact.args));
            }
        }
        let tc = Materialized::with_executor(program, edb, exec.clone())
            .map_err(|e| format!("{e:?}"))?;
        let materialize_s = t.elapsed().as_secs_f64();
        let (store, _) = Store::open(
            dir,
            StoreOptions {
                fsync: durable.fsync(),
                segment_bytes: durable.segment_bytes,
                checkpoints_kept: 2,
            },
        )
        .map_err(|e| format!("shadow store: {e}"))?;
        Ok(Shadow {
            vocab,
            tcs: doc.tcs,
            db: doc.facts,
            data_epoch: 0,
            verdicts: LruCache::new(VERDICT_CAP),
            answer_cache: LruCache::new(ANSWER_CAP),
            why_cache: LruCache::new(WHY_CAP),
            plans: LruCache::new(PLAN_CAP),
            tc,
            ideal,
            store,
            exec,
            counts: Counts::default(),
            materialize_s,
        })
    }

    /// Replays `req` through the layers, recording spans under a
    /// `shadow.request` root.
    pub fn run(&mut self, req: &Req, id: u32, tr: &mut Tracer) -> Result<(), String> {
        let start = tr.now();
        // The root's index is known before its children close.
        let root = tr.spans.len() as u32;
        tr.spans.push(Span {
            name: "shadow.request",
            req: id,
            parent: None,
            start_ns: start,
            end_ns: start,
        });
        let (_, rest) = req.line.split_once(' ').ok_or("request without argument")?;
        match req.kind {
            Kind::Check | Kind::Why | Kind::Eval | Kind::Generalize => {
                let vocab = &mut self.vocab;
                let q = tr
                    .time("parser.parse", id, root, || parse_query(rest, vocab))
                    .map_err(|e| e.to_string())?;
                if req.kind == Kind::Generalize {
                    let tcs = &self.tcs;
                    std::hint::black_box(tr.time("completeness.mcg", id, root, || mcg(&q, tcs)));
                } else {
                    let canon = tr.time("completeness.canonical", id, root, || CanonicalQuery::of(&q));
                    self.read(req.kind, &q, canon, id, root, tr)?;
                }
            }
            Kind::Specialize => {
                let (k, src) = rest.split_once(' ').ok_or("bad specialize line")?;
                let k: usize = k.parse().map_err(|_| "bad k")?;
                let vocab = &mut self.vocab;
                let q = tr
                    .time("parser.parse", id, root, || parse_query(src, vocab))
                    .map_err(|e| e.to_string())?;
                let mut scratch = self.vocab.clone();
                let (tcs, exec) = (&self.tcs, &self.exec);
                let out = tr.time("completeness.k_mcs", id, root, || {
                    k_mcs_on(&q, tcs, &mut scratch, KMcsOptions::new(k), exec)
                });
                self.counts.unify_calls += out.stats.unify_calls;
            }
            Kind::Assert | Kind::Retract => {
                let vocab = &mut self.vocab;
                let atom = tr
                    .time("parser.parse", id, root, || parse_atom(rest.trim_end_matches('.'), vocab))
                    .map_err(|e| e.to_string())?;
                let args: Vec<_> = atom
                    .args
                    .iter()
                    .filter_map(|t| match t {
                        Term::Cst(c) => Some(*c),
                        Term::Var(_) => None,
                    })
                    .collect();
                let fact = Fact::new(atom.pred, args);
                let insert = req.kind == Kind::Assert;
                if self.db.contains(&fact) != insert {
                    let rec = WalRecord::Op {
                        kind: if insert { OpKind::Assert } else { OpKind::Retract },
                        text: rest.to_string(),
                        tcs_epoch: 0,
                        data_epoch: self.data_epoch + 1,
                    };
                    let store = &mut self.store;
                    tr.time("storage.append", id, root, || store.append(&rec))
                        .map_err(|e| format!("shadow append: {e}"))?;
                    self.data_epoch += 1;
                    let encoded = self.ideal.get(&fact.pred).map(|&pi| Fact::new(pi, fact.args.clone()));
                    let tc = &mut self.tc;
                    if insert {
                        self.db.insert(fact);
                        if let Some(f) = encoded {
                            tr.time("datalog.insert", id, root, || tc.insert(f));
                        }
                        self.counts.inserts += 1;
                    } else {
                        self.db.remove(&fact);
                        if let Some(f) = encoded {
                            let s = tr.time("datalog.retract", id, root, || {
                                tc.retract_all(std::iter::once(f))
                            });
                            self.counts.overdeleted += s.overdeleted as u64;
                            self.counts.rederived += s.rederived as u64;
                        }
                        self.counts.retracts += 1;
                    }
                }
            }
        }
        tr.spans[root as usize].end_ns = tr.now();
        Ok(())
    }

    /// The cached read path of `check`, `why` and `eval`.
    fn read(
        &mut self,
        kind: Kind,
        q: &magik::Query,
        canon: CanonicalQuery,
        id: u32,
        root: u32,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let tcs = &self.tcs;
        match kind {
            Kind::Check => {
                if self.verdicts.get(&canon).is_none() {
                    let v = tr.time("completeness.is_complete", id, root, || is_complete(q, tcs));
                    self.counts.is_complete_calls += 1;
                    self.verdicts.insert(canon, v);
                }
            }
            Kind::Why => {
                let key = (canon, self.data_epoch);
                if self.why_cache.get(&key).is_none() {
                    let cert = tr.time("completeness.certify", id, root, || certify(q, tcs));
                    let valid = tr.time("cert.check", id, root, || {
                        check_certificate(q, &cert_statements(tcs), &cert).is_ok()
                    });
                    if !valid {
                        return Err("shadow certificate did not validate".to_string());
                    }
                    self.why_cache.insert(key, valid);
                }
            }
            _ => {
                let key = (canon.clone(), self.data_epoch);
                if self.answer_cache.get(&key).is_none() {
                    let plan = match self.plans.get(&canon) {
                        Some(p) => p,
                        None => {
                            let db = &self.db;
                            let p = tr
                                .time("exec.compile", id, root, || CompiledQuery::compile(q, Some(db)))
                                .map_err(|e| format!("{e:?}"))?;
                            let p = Arc::new(p);
                            self.plans.insert(canon, Arc::clone(&p));
                            p
                        }
                    };
                    let db = &self.db;
                    let mut stats = ExecStats::default();
                    let set = tr.time("exec.answers", id, root, || plan.answers(db, &mut stats));
                    self.counts.scanned += stats.scanned;
                    self.counts.batch_rows += stats.batch_rows;
                    self.counts.answers += set.len() as u64;
                    self.answer_cache.insert(key, Arc::new(set.into_iter().collect()));
                }
            }
        }
        Ok(())
    }

    /// Names interned so far: interning a new name returns the count.
    pub fn vocab_names(&mut self) -> u64 {
        self.vocab.sym("\u{1}perfbench-probe").index() as u64
    }
}
