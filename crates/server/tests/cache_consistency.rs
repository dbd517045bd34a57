//! Property test: the cached, epoch-guarded engine always answers exactly
//! like a fresh single-shot computation.
//!
//! Random sequences interleave TCS additions (bumping the TCS epoch),
//! fact assertions/retractions (bumping the data epoch), completeness
//! checks, and evaluations. After every mutation, every previously issued
//! check and eval is replayed — if an epoch bump failed to invalidate a
//! stale cache entry, the replay would return the old verdict and diverge
//! from the oracle. Every check/eval is also issued twice in a row so the
//! second request exercises the cache-hit path. A fixed-seed companion
//! pins every `guaranteed` reply against `tc_apply` the same way.

use std::collections::BTreeSet;

use proptest::prelude::*;

use magik_completeness::{is_complete, tc_apply, TcSet};
use magik_parser::{parse_atom, parse_query, parse_tcs};
use magik_relalg::{answers, DisplayWith, Instance, Vocabulary};
use magik_server::Engine;

const PRED_ARITY: [usize; 3] = [1, 2, 2];

#[derive(Debug, Clone)]
enum AT {
    V(u8),
    C(u8),
}

fn term_str(t: &AT) -> String {
    match t {
        AT::V(v) => format!("X{v}"),
        AT::C(c) => format!("c{c}"),
    }
}

#[derive(Debug, Clone)]
struct AAtom {
    pred: usize,
    args: Vec<AT>,
}

fn atom_str(a: &AAtom) -> String {
    let args: Vec<String> = a.args.iter().map(term_str).collect();
    format!("p{}({})", a.pred, args.join(", "))
}

/// A safe query string over `body`: the head projects the first body
/// variable (or a constant, for variable-free bodies).
fn query_str(body: &[AAtom]) -> String {
    let head = body
        .iter()
        .flat_map(|a| a.args.iter())
        .find(|t| matches!(t, AT::V(_)))
        .map_or_else(|| "c1".to_string(), term_str);
    let atoms: Vec<String> = body.iter().map(atom_str).collect();
    format!("q({head}) :- {}.", atoms.join(", "))
}

fn cond_str(cond: &[AAtom]) -> String {
    if cond.is_empty() {
        "true".to_string()
    } else {
        let atoms: Vec<String> = cond.iter().map(atom_str).collect();
        atoms.join(", ")
    }
}

fn aatom() -> impl Strategy<Value = AAtom> {
    (0..3usize).prop_flat_map(|pred| {
        proptest::collection::vec(
            prop_oneof![
                3 => (0..4u8).prop_map(AT::V),
                1 => (1..4u8).prop_map(AT::C),
            ],
            PRED_ARITY[pred],
        )
        .prop_map(move |args| AAtom { pred, args })
    })
}

/// A ground atom (a fact).
fn afact() -> impl Strategy<Value = AAtom> {
    (0..3usize).prop_flat_map(|pred| {
        proptest::collection::vec((1..4u8).prop_map(AT::C), PRED_ARITY[pred])
            .prop_map(move |args| AAtom { pred, args })
    })
}

#[derive(Debug, Clone)]
enum AOp {
    AddTcs(AAtom, Vec<AAtom>),
    Assert(AAtom),
    Retract(AAtom),
    Check(Vec<AAtom>),
    Eval(Vec<AAtom>),
}

fn aop() -> impl Strategy<Value = AOp> {
    prop_oneof![
        2 => (aatom(), proptest::collection::vec(aatom(), 0..2))
            .prop_map(|(h, c)| AOp::AddTcs(h, c)),
        3 => afact().prop_map(AOp::Assert),
        2 => afact().prop_map(AOp::Retract),
        4 => proptest::collection::vec(aatom(), 1..3).prop_map(AOp::Check),
        3 => proptest::collection::vec(aatom(), 1..3).prop_map(AOp::Eval),
    ]
}

/// The cache-free single-shot path: parses every request fresh and calls
/// the reasoning library directly.
struct Oracle {
    vocab: Vocabulary,
    tcs: TcSet,
    db: Instance,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            vocab: Vocabulary::new(),
            tcs: TcSet::new(Vec::new()),
            db: Instance::new(),
        }
    }

    fn check(&mut self, qsrc: &str) -> bool {
        let q = parse_query(qsrc, &mut self.vocab).expect("query parses");
        is_complete(&q, &self.tcs)
    }

    fn eval(&mut self, qsrc: &str) -> BTreeSet<String> {
        let q = parse_query(qsrc, &mut self.vocab).expect("query parses");
        answers(&q, &self.db)
            .expect("generated queries are safe")
            .iter()
            .map(|t| t.display(&self.vocab).to_string())
            .collect()
    }
}

fn assert_check(engine: &Engine, oracle: &mut Oracle, body: &[AAtom]) {
    let q = query_str(body);
    let reply = engine.handle(&format!("check {q}"));
    let expected = if oracle.check(&q) {
        "ok complete"
    } else {
        "ok incomplete"
    };
    assert_eq!(reply, expected, "check {q}");
}

fn assert_eval(engine: &Engine, oracle: &mut Oracle, body: &[AAtom]) {
    let q = query_str(body);
    let reply = engine.handle(&format!("eval {q}"));
    let expected = oracle.eval(&q);
    let payload = reply.strip_prefix("ok ").unwrap_or_else(|| {
        panic!("eval {q} failed: {reply}");
    });
    let (n, rest) = payload.split_once(' ').unwrap_or((payload, ""));
    let n: usize = n.parse().expect("answer count");
    let got: BTreeSet<String> = if rest.is_empty() {
        BTreeSet::new()
    } else {
        rest.split("; ").map(str::to_string).collect()
    };
    assert_eq!(n, expected.len(), "eval {q}");
    assert_eq!(got, expected, "eval {q}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_agrees_with_single_shot_path(ops in proptest::collection::vec(aop(), 1..12)) {
        let engine = Engine::new();
        let mut oracle = Oracle::new();
        let mut seen_checks: Vec<Vec<AAtom>> = Vec::new();
        let mut seen_evals: Vec<Vec<AAtom>> = Vec::new();
        for op in &ops {
            match op {
                AOp::AddTcs(head, cond) => {
                    let stmt = format!("{} ; {}.", atom_str(head), cond_str(cond));
                    let reply = engine.handle(&format!("compl {stmt}"));
                    prop_assert!(reply.starts_with("ok epoch="), "compl reply: {}", reply);
                    let parsed = parse_tcs(&stmt, &mut oracle.vocab).expect("tcs parses");
                    oracle.tcs.push(parsed);
                    // The TCS epoch bump must invalidate cached verdicts.
                    for q in &seen_checks {
                        assert_check(&engine, &mut oracle, q);
                    }
                }
                AOp::Assert(f) => {
                    let reply = engine.handle(&format!("assert {}.", atom_str(f)));
                    prop_assert!(reply == "ok inserted" || reply == "ok duplicate");
                    let fact = parse_atom(&atom_str(f), &mut oracle.vocab)
                        .expect("fact parses")
                        .to_fact()
                        .expect("fact is ground");
                    oracle.db.insert(fact);
                    // The data epoch bump must invalidate cached answers;
                    // cached verdicts must *survive* (they do not depend
                    // on facts) and still agree with the oracle.
                    for q in &seen_evals {
                        assert_eval(&engine, &mut oracle, q);
                    }
                    for q in &seen_checks {
                        assert_check(&engine, &mut oracle, q);
                    }
                }
                AOp::Retract(f) => {
                    let reply = engine.handle(&format!("retract {}.", atom_str(f)));
                    prop_assert!(reply == "ok retracted" || reply == "ok absent");
                    let fact = parse_atom(&atom_str(f), &mut oracle.vocab)
                        .expect("fact parses")
                        .to_fact()
                        .expect("fact is ground");
                    oracle.db.remove(&fact);
                    for q in &seen_evals {
                        assert_eval(&engine, &mut oracle, q);
                    }
                    for q in &seen_checks {
                        assert_check(&engine, &mut oracle, q);
                    }
                }
                AOp::Check(body) => {
                    assert_check(&engine, &mut oracle, body);
                    // Again: the second request hits the verdict cache.
                    assert_check(&engine, &mut oracle, body);
                    seen_checks.push(body.clone());
                }
                AOp::Eval(body) => {
                    assert_eval(&engine, &mut oracle, body);
                    assert_eval(&engine, &mut oracle, body);
                    seen_evals.push(body.clone());
                }
            }
        }
    }
}

/// A small deterministic generator (64-bit LCG) so the mutation sequence
/// below is fixed and replayable without a proptest seed file.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn term(&mut self) -> AT {
        if self.below(4) == 0 {
            AT::C(1 + self.below(3) as u8)
        } else {
            AT::V(self.below(3) as u8)
        }
    }

    fn atom(&mut self) -> AAtom {
        let pred = self.below(3);
        let args = (0..PRED_ARITY[pred]).map(|_| self.term()).collect();
        AAtom { pred, args }
    }
}

/// Every ground fact over the test signature and the constants `c1..c3`.
fn fact_universe() -> Vec<String> {
    let cs = ["c1", "c2", "c3"];
    let mut out: Vec<String> = cs.iter().map(|a| format!("p0({a})")).collect();
    for p in 1..3 {
        for a in cs {
            for b in cs {
                out.push(format!("p{p}({a}, {b})"));
            }
        }
    }
    out
}

/// `guaranteed f` answers membership in `T_C(D)` (equation (1)) for the
/// session's current statements and facts, after every mutation of a
/// fixed-seed assert/retract/compl sequence, for every fact of the
/// universe — checked against `tc_apply` on a shadow `TcSet`/`Instance`.
#[test]
fn guaranteed_matches_tc_apply_under_mutations() {
    let engine = Engine::new();
    let mut oracle = Oracle::new();
    let universe = fact_universe();
    let mut rng = Lcg(0x5eed_0015);
    // Stored facts seen guaranteed / not guaranteed.
    let mut stored_outcomes = [0usize; 2];
    for step in 0..120 {
        match rng.below(10) {
            0 | 1 => {
                let head = rng.atom();
                let cond: Vec<AAtom> = (0..rng.below(3)).map(|_| rng.atom()).collect();
                let stmt = format!("{} ; {}.", atom_str(&head), cond_str(&cond));
                let reply = engine.handle(&format!("compl {stmt}"));
                assert!(reply.starts_with("ok epoch="), "compl {stmt}: {reply}");
                let parsed = parse_tcs(&stmt, &mut oracle.vocab).expect("tcs parses");
                oracle.tcs.push(parsed);
            }
            op => {
                let f = &universe[rng.below(universe.len())];
                let fact = parse_atom(f, &mut oracle.vocab)
                    .expect("fact parses")
                    .to_fact()
                    .expect("fact is ground");
                if op < 7 {
                    let reply = engine.handle(&format!("assert {f}."));
                    assert!(reply == "ok inserted" || reply == "ok duplicate", "{reply}");
                    oracle.db.insert(fact);
                } else {
                    let reply = engine.handle(&format!("retract {f}."));
                    assert!(reply == "ok retracted" || reply == "ok absent", "{reply}");
                    oracle.db.remove(&fact);
                }
            }
        }
        let tc = tc_apply(&oracle.tcs, &oracle.db);
        for f in &universe {
            let fact = parse_atom(f, &mut oracle.vocab)
                .expect("fact parses")
                .to_fact()
                .expect("fact is ground");
            let expected = tc.contains(&fact);
            if oracle.db.contains(&fact) {
                stored_outcomes[usize::from(expected)] += 1;
            }
            assert_eq!(
                engine.handle(&format!("guaranteed {f}.")),
                format!("ok {expected}"),
                "step {step}: guaranteed {f}"
            );
        }
    }
    // The sequence must exercise both answers on stored facts, or it
    // pins nothing beyond `T_C(D) ⊆ D`.
    assert!(
        stored_outcomes.iter().all(|&n| n > 0),
        "{stored_outcomes:?}"
    );
}
