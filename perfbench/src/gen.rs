//! Seeded input generators: the session document and the request streams
//! of each workload.
//!
//! Everything here is a pure function of `(workload, seed)`: the server
//! only ever sees text produced here. The random source is a local
//! SplitMix64 so that the inputs do not shift when the repository's own
//! generators change; the paper's statement sets and the synthetic school
//! instance come from `magik::workload` because they *are* the workloads
//! the issue names.

use magik::workload::paper::{self, SchoolWorkload};
use magik::workload::random::{acyclic_tcs, covering_tcs, RandomTcsConfig};
use magik::workload::synth::{school_instance, SchoolDataConfig};
use magik::{print_document, Document, Instance, TcSet, Vocabulary};

/// The three workloads. See `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotReads,
    ColdReasoning,
    DurableChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotReads,
        Workload::ColdReasoning,
        Workload::DurableChurn,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdReasoning => "cold_reasoning",
            Workload::DurableChurn => "durable_churn",
        }
    }
}

/// SplitMix64: tiny, fast, and fixed forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The request kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Check,
    Why,
    Eval,
    Generalize,
    Specialize,
    Assert,
    Retract,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Check,
        Kind::Why,
        Kind::Eval,
        Kind::Generalize,
        Kind::Specialize,
        Kind::Assert,
        Kind::Retract,
    ];

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Assert | Kind::Retract)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Why => "why",
            Kind::Eval => "eval",
            Kind::Generalize => "generalize",
            Kind::Specialize => "specialize",
            Kind::Assert => "assert",
            Kind::Retract => "retract",
        }
    }
}

/// One generated request line. `memo` names the logical query the line is
/// a variant of (same memo, same expected reply), so the oracle can skip
/// recomputing it; `None` means the line must be checked on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub kind: Kind,
    pub line: String,
    pub memo: Option<u32>,
}

/// A query term of a template: an abstract variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
enum T {
    V(u8),
    C(String),
}

/// A conjunctive query up to variable naming and atom order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tpl {
    head: Vec<T>,
    body: Vec<(String, Vec<T>)>,
}

const VAR_LETTERS: &[u8] = b"ABCDEFGHJKMNPRSTUVWXYZ";

impl Tpl {
    /// Renders a fresh alpha-variant: random variable names and a random
    /// atom order, so the server must parse and canonicalize every line.
    fn variant(&self, rng: &mut Rng) -> String {
        let vars = self
            .head
            .iter()
            .chain(self.body.iter().flat_map(|(_, a)| a))
            .filter_map(|t| match t {
                T::V(v) => Some(*v as usize + 1),
                T::C(_) => None,
            })
            .max()
            .unwrap_or(0);
        let mut names: Vec<String> = Vec::with_capacity(vars);
        while names.len() < vars {
            let letter = VAR_LETTERS[rng.below(VAR_LETTERS.len())] as char;
            let name = format!("{letter}{}", rng.below(100));
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let term = |t: &T| match t {
            T::V(v) => names[*v as usize].clone(),
            T::C(c) => c.clone(),
        };
        let mut atoms: Vec<String> = self
            .body
            .iter()
            .map(|(p, args)| {
                let args: Vec<String> = args.iter().map(term).collect();
                format!("{p}({})", args.join(", "))
            })
            .collect();
        rng.shuffle(&mut atoms);
        let head: Vec<String> = self.head.iter().map(term).collect();
        format!("q({}) :- {}.", head.join(", "), atoms.join(", "))
    }
}

fn v(i: u8) -> T {
    T::V(i)
}

fn c(s: &str) -> T {
    T::C(s.to_string())
}

const LANGS: [&str; 4] = ["english", "german", "italian", "ladin"];

/// School queries `pupil ⋈ school [⋈ learns]` with every combination of
/// bound/free school type, district and language, under three heads: 216
/// distinct canonical queries.
fn school_templates() -> Vec<Tpl> {
    let (n, cc, s, t, d, l) = (0, 1, 2, 3, 4, 5);
    let mut out = Vec::new();
    for head in [vec![v(n)], vec![v(n), v(s)], vec![v(s)]] {
        for ty in [v(t), c("primary"), c("middle")] {
            for di in [v(d), c("merano"), c("bolzano"), c("brixen")] {
                let mut learns: Vec<Option<T>> = vec![None, Some(v(l))];
                learns.extend(LANGS.iter().map(|x| Some(c(x))));
                for la in learns {
                    let mut body = vec![
                        ("pupil".to_string(), vec![v(n), v(cc), v(s)]),
                        ("school".to_string(), vec![v(s), ty.clone(), di.clone()]),
                    ];
                    if let Some(la) = la {
                        body.push(("learns".to_string(), vec![v(n), la]));
                    }
                    out.push(Tpl {
                        head: head.clone(),
                        body,
                    });
                }
            }
        }
    }
    out
}

/// Eval queries for the cold workload: per-school pupil lookups (with
/// class code and language bound or free) and school-type/district joins,
/// 1296 distinct canonical queries in all.
fn cold_eval_templates(schools: usize) -> Vec<Tpl> {
    let (n, cc, s, t, d, l) = (0, 1, 2, 3, 4, 5);
    let mut codes = vec![v(cc)];
    codes.extend((0..5).map(|i| c(&format!("c{i}"))));
    let mut learns: Vec<Option<T>> = vec![None, Some(v(l))];
    learns.extend(LANGS.iter().map(|x| Some(c(x))));
    let mut out = Vec::new();
    for code in &codes {
        for la in &learns {
            let with_learns = |mut body: Vec<(String, Vec<T>)>| {
                if let Some(la) = la {
                    body.push(("learns".to_string(), vec![v(n), la.clone()]));
                }
                body
            };
            for si in 0..schools {
                let school = c(&format!("school{si}"));
                out.push(Tpl {
                    head: vec![v(n)],
                    body: with_learns(vec![(
                        "pupil".to_string(),
                        vec![v(n), code.clone(), school],
                    )]),
                });
            }
            for ty in [v(t), c("primary"), c("middle")] {
                for di in [v(d), c("merano"), c("bolzano"), c("brixen")] {
                    out.push(Tpl {
                        head: vec![v(n)],
                        body: with_learns(vec![
                            ("pupil".to_string(), vec![v(n), code.clone(), v(s)]),
                            ("school".to_string(), vec![v(s), ty.clone(), di]),
                        ]),
                    });
                }
            }
        }
    }
    out
}

/// A random chain, star or cycle query over the binary relations
/// `r0 … r{relations-1}`, with one non-head variable replaced by the
/// constant `fresh`.
fn random_query(rng: &mut Rng, relations: usize, fresh: &str) -> Tpl {
    let atoms = 2 + rng.below(3);
    let shape = rng.below(3);
    let nvars = match shape {
        2 => atoms,
        _ => atoms + 1,
    };
    let bound = 1 + rng.below(nvars - 1) as u8;
    let term = |i: usize| {
        if i as u8 == bound {
            c(fresh)
        } else {
            v(i as u8)
        }
    };
    let body = (0..atoms)
        .map(|i| {
            let (a, b) = match shape {
                0 => (i, i + 1),
                1 => (0, i + 1),
                _ => (i, (i + 1) % atoms),
            };
            (format!("r{}", rng.below(relations)), vec![term(a), term(b)])
        })
        .collect();
    Tpl {
        head: vec![v(0)],
        body,
    }
}

/// Sizes of the generated sessions.
const HOT_SCHOOLS: usize = 6;
const HOT_POOL: usize = 192;
const COLD_SCHOOLS: usize = 24;
const COLD_RELATIONS: usize = 6;
const COLD_COVERED: usize = 3;
const COLD_EVAL_POOL: usize = 1024;
const SPECIALIZE_EVERY: u64 = 40;
const COLD_TCS_SEED: u64 = 2013;
const CHURN_CHECK_POOL: usize = 64;
const PUPILS_PER_SCHOOL: usize = 10;

/// The language the read-only workloads' writes assert and retract: absent
/// from the generated data, so every one of those writes is effective.
pub const WRITE_LANG: &str = "latin";

/// Everything a run sends, fixed by `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The session document `magik serve` preloads.
    pub doc: String,
    /// Query pools the streams draw from.
    checks: Vec<Tpl>,
    evals: Vec<Tpl>,
    schools: usize,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let data_seed = rng.next_u64();
        match workload {
            Workload::HotReads | Workload::DurableChurn => {
                let w = paper::school();
                let mut vocab = w.vocab.clone();
                let db = school_data(&w, &mut vocab, HOT_SCHOOLS, data_seed);
                let mut pool = school_templates();
                rng.shuffle(&mut pool);
                let keep = if workload == Workload::HotReads {
                    HOT_POOL
                } else {
                    CHURN_CHECK_POOL
                };
                pool.truncate(keep);
                Inputs {
                    workload,
                    seed,
                    doc: document(w.tcs.clone(), db, &vocab),
                    checks: pool,
                    evals: Vec::new(),
                    schools: HOT_SCHOOLS,
                }
            }
            Workload::ColdReasoning => {
                let t1 = paper::table1_satisfiable();
                let mut vocab = t1.vocab.clone();
                let random = acyclic_tcs(
                    RandomTcsConfig {
                        statements: 8,
                        relations: COLD_RELATIONS,
                        max_condition: 2,
                        // One statement set for every seed: a single
                        // draw would otherwise dominate the spread
                        // between seeds. The streams carry the seed.
                        seed: COLD_TCS_SEED,
                    },
                    &mut vocab,
                );
                // Partial coverage: the first relations are complete
                // outright, the rest only under the random conditions,
                // so both verdicts occur.
                let covered = covering_tcs(COLD_RELATIONS, COLD_COVERED, &mut vocab);
                let tcs: TcSet = t1
                    .tcs
                    .statements()
                    .iter()
                    .chain(covered.statements())
                    .chain(random.statements())
                    .cloned()
                    .collect();
                let w = paper::school();
                let db = school_data(&w, &mut vocab, COLD_SCHOOLS, data_seed);
                let mut evals = cold_eval_templates(COLD_SCHOOLS);
                rng.shuffle(&mut evals);
                evals.truncate(COLD_EVAL_POOL);
                Inputs {
                    workload,
                    seed,
                    doc: document(tcs, db, &vocab),
                    checks: Vec::new(),
                    evals,
                    schools: COLD_SCHOOLS,
                }
            }
        }
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        let mut rng = Rng::new(self.seed);
        for _ in 0..=conn {
            rng = Rng::new(rng.next_u64() ^ 0xC0DE);
        }
        Stream {
            inputs: self,
            conn,
            rng,
            issued: 0,
            asserted: Vec::new(),
        }
    }

    /// The untimed warm-up pass that ends set-up: hot_reads fills every
    /// cache with every pool query, durable_churn fills the verdict cache
    /// with its check pool, and cold_reasoning sends a slice of a stream
    /// of its own.
    pub fn warmup(&self) -> Vec<Req> {
        match self.workload {
            Workload::HotReads => {
                let mut rng = Rng::new(self.seed ^ 0x3A3A);
                let mut out = Vec::new();
                for kind in [Kind::Check, Kind::Eval, Kind::Why] {
                    for (i, t) in self.checks.iter().enumerate() {
                        out.push(Req {
                            kind,
                            line: format!("{} {}", kind.name(), t.variant(&mut rng)),
                            memo: Some(i as u32),
                        });
                    }
                }
                out
            }
            Workload::ColdReasoning => {
                let mut s = self.stream(WARMUP_CONN);
                (0..256).map(|_| s.next_req()).collect()
            }
            Workload::DurableChurn => {
                let mut rng = Rng::new(self.seed ^ 0x3A3A);
                self.checks
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Req {
                        kind: Kind::Check,
                        line: format!("check {}", t.variant(&mut rng)),
                        memo: Some(i as u32),
                    })
                    .collect()
            }
        }
    }

    /// The writes of the read-only workloads: `pairs` assert and retract
    /// pairs of a fact absent from the data, sent one at a time on one
    /// connection, a slice after each round of reads.
    pub fn write_pairs(&self, pairs: usize) -> Vec<Req> {
        let pupils = self.schools * PUPILS_PER_SCHOOL;
        (0..pairs)
            .flat_map(|i| {
                let fact = format!(
                    "learns(pupil{}_{}, {WRITE_LANG}).",
                    (i % pupils) / PUPILS_PER_SCHOOL,
                    i % PUPILS_PER_SCHOOL
                );
                [Kind::Assert, Kind::Retract].map(|kind| Req {
                    kind,
                    line: format!("{} {fact}", kind.name()),
                    memo: None,
                })
            })
            .collect()
    }
}

/// The stream index the cold warm-up draws from, disjoint from the
/// measured connections' streams.
const WARMUP_CONN: usize = 7;

fn school_data(w: &SchoolWorkload, vocab: &mut Vocabulary, schools: usize, seed: u64) -> Instance {
    school_instance(
        w,
        vocab,
        SchoolDataConfig {
            schools,
            pupils_per_school: PUPILS_PER_SCHOOL,
            learn_prob: 0.4,
            seed,
        },
    )
}

fn document(tcs: TcSet, facts: Instance, vocab: &Vocabulary) -> String {
    print_document(
        &Document {
            tcs,
            facts,
            ..Document::default()
        },
        vocab,
    )
}

/// One connection's request stream: an endless deterministic sequence.
/// Only the prefix a run consumes is sent, so the inputs never depend on
/// how fast the server answers.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    conn: usize,
    rng: Rng,
    issued: u64,
    /// durable_churn: facts this connection asserted and has not yet
    /// retracted, as `(school, pupil, language)`.
    asserted: Vec<(usize, usize, usize)>,
}

impl Stream<'_> {
    pub fn next_req(&mut self) -> Req {
        self.issued += 1;
        match self.inputs.workload {
            Workload::HotReads => self.hot(),
            Workload::ColdReasoning => self.cold(),
            Workload::DurableChurn => self.churn(),
        }
    }

    /// 70% check, 20% eval, 10% why over the cached pool.
    fn hot(&mut self) -> Req {
        let r = self.rng.unit();
        let kind = if r < 0.7 {
            Kind::Check
        } else if r < 0.9 {
            Kind::Eval
        } else {
            Kind::Why
        };
        self.pooled(kind, false)
    }

    fn pooled(&mut self, kind: Kind, evals: bool) -> Req {
        let pool = if evals {
            &self.inputs.evals
        } else {
            &self.inputs.checks
        };
        let i = self.rng.below(pool.len());
        Req {
            kind,
            line: format!("{} {}", kind.name(), pool[i].variant(&mut self.rng)),
            memo: Some(i as u32),
        }
    }

    /// Every 40th request is a specialize of the Table 1 query, k cycling
    /// through 1, 2, 3: it costs far more than the rest, so its count per
    /// run is fixed rather than drawn. The others: 52% check and 20% why
    /// on fresh-constant random queries, 20% eval from a pool larger than
    /// the answer and plan caches, 5.5% generalize.
    fn cold(&mut self) -> Req {
        let kind = if self.issued.is_multiple_of(SPECIALIZE_EVERY) {
            Kind::Specialize
        } else {
            let r = self.rng.unit();
            if r < 0.535 {
                Kind::Check
            } else if r < 0.74 {
                Kind::Why
            } else if r < 0.945 {
                Kind::Eval
            } else {
                Kind::Generalize
            }
        };
        match kind {
            Kind::Eval => self.pooled(kind, true),
            Kind::Specialize => {
                let k = 1 + (self.issued / SPECIALIZE_EVERY % 3) as usize;
                let t = Tpl {
                    head: vec![v(0)],
                    body: vec![("learns".to_string(), vec![v(0), v(1)])],
                };
                Req {
                    kind,
                    line: format!("specialize {k} {}", t.variant(&mut self.rng)),
                    memo: Some(k as u32),
                }
            }
            _ => {
                let fresh = format!("k{}x{}", self.conn, self.issued);
                let t = random_query(&mut self.rng, COLD_RELATIONS, &fresh);
                Req {
                    kind,
                    line: format!("{} {}", kind.name(), t.variant(&mut self.rng)),
                    memo: None,
                }
            }
        }
    }

    /// 30% assert and 20% retract of `learns` facts of this connection's
    /// own schools (retracts target earlier asserts), 40% cached check,
    /// 10% eval over this connection's schools. Connections own disjoint
    /// schools, so every reply is fixed by the connection's own order.
    fn churn(&mut self) -> Req {
        let r = self.rng.unit();
        if r < 0.4 {
            return self.pooled(Kind::Check, false);
        }
        let schools: Vec<usize> = (0..self.inputs.schools)
            .filter(|s| s % 2 == self.conn % 2)
            .collect();
        if r < 0.5 {
            let si = schools[self.rng.below(schools.len())];
            let (n, cc, l) = (0, 1, 2);
            let lang = match self.rng.below(3) {
                0 => v(l),
                1 => c("english"),
                _ => c("german"),
            };
            let t = Tpl {
                head: vec![v(n)],
                body: vec![
                    ("pupil".to_string(), vec![v(n), v(cc), c(&format!("school{si}"))]),
                    ("learns".to_string(), vec![v(n), lang]),
                ],
            };
            return Req {
                kind: Kind::Eval,
                line: format!("eval {}", t.variant(&mut self.rng)),
                memo: None,
            };
        }
        let (kind, (si, pi, li)) = if r >= 0.8 && !self.asserted.is_empty() {
            let i = self.rng.below(self.asserted.len());
            (Kind::Retract, self.asserted.swap_remove(i))
        } else {
            let fact = (
                schools[self.rng.below(schools.len())],
                self.rng.below(PUPILS_PER_SCHOOL),
                self.rng.below(LANGS.len()),
            );
            self.asserted.push(fact);
            (Kind::Assert, fact)
        };
        Req {
            kind,
            line: format!("{} learns(pupil{si}_{pi}, {}).", kind.name(), LANGS[li]),
            memo: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(inputs: &Inputs, conn: usize, n: usize) -> Vec<Req> {
        let mut s = inputs.stream(conn);
        (0..n).map(|_| s.next_req()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let (a, b) = (Inputs::new(w, 7), Inputs::new(w, 7));
            assert_eq!(a.doc, b.doc, "{}", w.name());
            assert_eq!(a.warmup(), b.warmup());
            assert_eq!(a.write_pairs(8), b.write_pairs(8));
            for conn in 0..2 {
                assert_eq!(prefix(&a, conn, 3000), prefix(&b, conn, 3000));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            let (a, b) = (Inputs::new(w, 7), Inputs::new(w, 8));
            assert_ne!(a.doc, b.doc, "{}", w.name());
            assert_ne!(prefix(&a, 0, 200), prefix(&b, 0, 200));
            assert_ne!(prefix(&a, 0, 200), prefix(&a, 1, 200));
        }
    }

    #[test]
    fn pools_fit_or_exceed_the_server_caches_as_designed() {
        let hot = Inputs::new(Workload::HotReads, 1);
        // Verdict cache 1024, answer and why caches 256.
        assert!(hot.checks.len() < 256);
        let cold = Inputs::new(Workload::ColdReasoning, 1);
        // Answer and plan caches hold 256.
        assert!(cold.evals.len() >= 4 * 256);
    }

    #[test]
    fn mixes_match_their_design() {
        let count = |w: Workload, kind: Kind| {
            let inputs = Inputs::new(w, 3);
            prefix(&inputs, 0, 10_000)
                .iter()
                .filter(|r| r.kind == kind)
                .count() as f64
                / 10_000.0
        };
        assert!((count(Workload::HotReads, Kind::Check) - 0.7).abs() < 0.03);
        assert!((count(Workload::ColdReasoning, Kind::Specialize) - 0.025).abs() < 0.001);
        assert!((count(Workload::ColdReasoning, Kind::Check) - 0.52).abs() < 0.03);
        assert!((count(Workload::DurableChurn, Kind::Assert) - 0.3).abs() < 0.05);
        assert!((count(Workload::DurableChurn, Kind::Retract) - 0.2).abs() < 0.05);
    }
}
