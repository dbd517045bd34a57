//! The reply oracle: every server reply is checked against in-process
//! library calls on the same generated inputs.
//!
//! * `check` against `is_complete`; `why` must say `cert=valid` and agree
//!   with it;
//! * `generalize` against `mcg`, up to query equivalence;
//! * `specialize` counts against `k_mcs` (which a unit test pins to the
//!   paper's Table 1b);
//! * `eval` against the reference evaluator `answers`, on the connection's
//!   own view of the data: connections mutate disjoint facts, so the data
//!   an `eval` sees is fixed by the order of its own stream;
//! * `assert`/`retract` against membership in that same view.
//!
//! A wrong reply is a failed run, never an "error".

use std::collections::HashMap;

use magik::{
    answers, are_equivalent, is_complete, k_mcs, mcg, parse_atom, parse_document, parse_query,
    DisplayWith, Fact, Instance, KMcsOptions, Query, TcSet, Term, Vocabulary,
};

use crate::client::Exchange;
use crate::gen::{Kind, Req};

/// k-MCS counts of the satisfiable Table 1 workload for k = 0..=3
/// (EXPERIMENTS.md, T1b).
#[cfg(test)]
pub const TABLE1B: [usize; 4] = [0, 0, 0, 2];

pub struct Oracle {
    vocab: Vocabulary,
    tcs: TcSet,
    /// Each connection's view of the data.
    views: Vec<Instance>,
    verdicts: HashMap<u32, bool>,
    answer_sets: HashMap<u32, Vec<String>>,
    specializations: HashMap<u32, usize>,
}

impl Oracle {
    pub fn new(doc: &str, conns: usize) -> Oracle {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(doc, &mut vocab).expect("generated documents parse");
        Oracle {
            vocab,
            tcs: doc.tcs,
            views: vec![doc.facts; conns],
            verdicts: HashMap::new(),
            answer_sets: HashMap::new(),
            specializations: HashMap::new(),
        }
    }

    /// Checks `reply` to `req`, sent on connection `conn`. Read replies
    /// that depend on data are memoized only when the generator marked the
    /// line with a memo key (read-only workloads).
    pub fn check(&mut self, conn: usize, req: &Req, reply: &str) -> Result<(), String> {
        let (_, rest) = req.line.split_once(' ').expect("requests have an argument");
        let expected_ok = match req.kind {
            Kind::Check => {
                let verdict = self.verdict(req.memo, rest)?;
                reply == render_verdict(verdict)
            }
            Kind::Why => {
                let verdict = self.verdict(req.memo, rest)?;
                let prefix = format!("{} cert=valid ", render_verdict(verdict));
                reply.starts_with(&prefix)
            }
            Kind::Generalize => {
                let q = self.query(rest)?;
                match (mcg(&q, &self.tcs), reply.strip_prefix("ok ")) {
                    (None, Some("none")) => true,
                    (Some(g), Some(text)) if text != "none" => {
                        let got = self.query(text)?;
                        are_equivalent(&got, &g)
                    }
                    _ => false,
                }
            }
            Kind::Specialize => {
                let (k, src) = rest.split_once(' ').ok_or("bad specialize line")?;
                let k: usize = k.parse().map_err(|_| "bad k")?;
                let expected = match req.memo.and_then(|m| self.specializations.get(&m)) {
                    Some(&n) => n,
                    None => {
                        let q = self.query(src)?;
                        let n = k_mcs(&q, &self.tcs, &mut self.vocab.clone(), KMcsOptions::new(k))
                            .queries
                            .len();
                        if let Some(m) = req.memo {
                            self.specializations.insert(m, n);
                        }
                        n
                    }
                };
                reply.strip_prefix("ok ").and_then(|r| r.split(' ').next())
                    == Some(expected.to_string().as_str())
            }
            Kind::Eval => {
                let expected = match req.memo.and_then(|m| self.answer_sets.get(&m)) {
                    Some(a) => a.clone(),
                    None => {
                        let q = self.query(rest)?;
                        let a = self.answers(conn, &q)?;
                        if let Some(m) = req.memo {
                            self.answer_sets.insert(m, a.clone());
                        }
                        a
                    }
                };
                parse_answers(reply).as_ref() == Some(&expected)
            }
            Kind::Assert | Kind::Retract => {
                let fact = self.fact(rest)?;
                let view = &mut self.views[conn];
                let present = view.contains(&fact);
                match (req.kind, present) {
                    (Kind::Assert, false) => {
                        view.insert(fact);
                        reply == "ok inserted"
                    }
                    (Kind::Assert, true) => reply == "ok duplicate",
                    (_, true) => {
                        view.remove(&fact);
                        reply == "ok retracted"
                    }
                    (_, false) => reply == "ok absent",
                }
            }
        };
        if expected_ok {
            Ok(())
        } else {
            Err(format!("wrong reply to `{}`: `{reply}`", req.line))
        }
    }

    fn query(&mut self, src: &str) -> Result<Query, String> {
        parse_query(src, &mut self.vocab).map_err(|e| format!("`{src}`: {e}"))
    }

    fn fact(&mut self, src: &str) -> Result<Fact, String> {
        let text = src.trim_end_matches('.');
        let atom = parse_atom(text, &mut self.vocab).map_err(|e| format!("`{src}`: {e}"))?;
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Cst(c) => Ok(*c),
                Term::Var(_) => Err(format!("`{src}` is not ground")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fact::new(atom.pred, args))
    }

    fn verdict(&mut self, memo: Option<u32>, src: &str) -> Result<bool, String> {
        if let Some(v) = memo.and_then(|m| self.verdicts.get(&m)) {
            return Ok(*v);
        }
        let q = self.query(src)?;
        let v = is_complete(&q, &self.tcs);
        if let Some(m) = memo {
            self.verdicts.insert(m, v);
        }
        Ok(v)
    }

    fn answers(&self, conn: usize, q: &Query) -> Result<Vec<String>, String> {
        let set = answers(q, &self.views[conn]).map_err(|e| format!("{e:?}"))?;
        let mut out: Vec<String> = set
            .iter()
            .map(|t| t.display(&self.vocab).to_string())
            .collect();
        out.sort();
        Ok(out)
    }
}

/// Replies checked so far: every reply that is not `ok` is a failure;
/// every `ok` reply goes to the oracle, and a wrong one fails the run.
pub struct Tally {
    oracle: Oracle,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn new(doc: &str) -> Tally {
        Tally {
            oracle: Oracle::new(doc, 2),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        }
    }

    pub fn take(&mut self, view: usize, exchanges: &[Exchange]) {
        for e in exchanges {
            self.attempted += 1;
            match &e.reply {
                Some(r) if r.starts_with("ok") => {
                    if let Err(w) = self.oracle.check(view, &e.req, r) {
                        self.wrong.push(w);
                    }
                }
                _ => self.failed += 1,
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
    }
}

fn render_verdict(complete: bool) -> &'static str {
    if complete {
        "ok complete"
    } else {
        "ok incomplete"
    }
}

/// `ok <n> (a, b); (c, d)` → the sorted tuples, if the count matches.
fn parse_answers(reply: &str) -> Option<Vec<String>> {
    let rest = reply.strip_prefix("ok ")?;
    let (n, tuples) = rest.split_once(' ').unwrap_or((rest, ""));
    let n: usize = n.parse().ok()?;
    let mut out: Vec<String> = if tuples.is_empty() {
        Vec::new()
    } else {
        tuples.split("; ").map(str::to_string).collect()
    };
    out.sort();
    (out.len() == n).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Inputs, Workload};

    #[test]
    fn cold_session_keeps_table1b_counts() {
        let inputs = Inputs::new(Workload::ColdReasoning, 11);
        let mut oracle = Oracle::new(&inputs.doc, 1);
        for (k, &n) in TABLE1B.iter().enumerate() {
            let q = oracle.query("q(N) :- learns(N, L).").unwrap();
            let got = k_mcs(&q, &oracle.tcs, &mut oracle.vocab.clone(), KMcsOptions::new(k));
            assert_eq!(got.queries.len(), n, "k = {k}");
        }
    }

    #[test]
    fn cold_checks_have_both_polarities() {
        let inputs = Inputs::new(Workload::ColdReasoning, 11);
        let mut oracle = Oracle::new(&inputs.doc, 1);
        let mut s = inputs.stream(0);
        let (mut complete, mut total) = (0, 0);
        while total < 400 {
            let r = s.next_req();
            if r.kind == Kind::Check {
                let src = r.line.split_once(' ').unwrap().1;
                complete += oracle.verdict(None, src).unwrap() as usize;
                total += 1;
            }
        }
        assert!((40..=360).contains(&complete), "{complete} of {total} complete");
    }

    #[test]
    fn wrong_replies_are_caught() {
        let inputs = Inputs::new(Workload::HotReads, 2);
        let mut oracle = Oracle::new(&inputs.doc, 1);
        let req = inputs.warmup().into_iter().next().unwrap();
        let src = req.line.split_once(' ').unwrap().1;
        let right = render_verdict(oracle.verdict(None, src).unwrap());
        let wrong = render_verdict(!oracle.verdict(None, src).unwrap());
        assert!(oracle.check(0, &req, right).is_ok());
        assert!(oracle.check(0, &req, wrong).is_err());
        assert_eq!(parse_answers("ok 2 (a); (b)"), Some(vec!["(a)".into(), "(b)".into()]));
        assert_eq!(parse_answers("ok 3 (a); (b)"), None);
        assert_eq!(parse_answers("ok 0"), Some(vec![]));
    }
}
