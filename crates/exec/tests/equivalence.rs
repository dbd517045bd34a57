//! Equivalence suite: planned execution against the seed evaluator.
//!
//! Random conjunctive queries and ground instances over a small fixed
//! schema; each property asserts that the compiled-plan executor and the
//! preserved dynamic-ordering oracle in [`magik_oracle::seed_eval`] compute
//! exactly the same thing — answer sets, boolean `has_answer` probes,
//! homomorphism sets, and errors for unsafe heads.

use std::collections::BTreeSet;

use proptest::prelude::*;

use magik_exec::{CompiledQuery, ExecStats};
use magik_oracle::seed_eval as reference;
use magik_relalg::batch::{Batch, BatchPlan, JoinStrategy};
use magik_relalg::exec::{Plan, Projection};
use magik_relalg::{
    answers, freeze_atom, has_answer, homomorphisms, AnswerSet, Atom, Cst, Instance, Query,
    Substitution, Term, Vocabulary,
};

/// Abstract term: materialized against a vocabulary later.
#[derive(Debug, Clone, Copy)]
enum ATerm {
    Var(u8),
    Cst(u8),
}

#[derive(Debug, Clone)]
struct AAtom {
    pred: u8,
    args: Vec<ATerm>,
}

#[derive(Debug, Clone)]
struct AQuery {
    head: Vec<ATerm>,
    body: Vec<AAtom>,
}

const NUM_PREDS: u8 = 3;
const NUM_VARS: u8 = 5;
const NUM_CSTS: u8 = 3;

fn pred_arity(p: u8) -> usize {
    [1, 2, 3][p as usize % 3]
}

fn aterm() -> impl Strategy<Value = ATerm> {
    prop_oneof![
        (0..NUM_VARS).prop_map(ATerm::Var),
        (0..NUM_CSTS).prop_map(ATerm::Cst),
    ]
}

fn aatom() -> impl Strategy<Value = AAtom> {
    (0..NUM_PREDS).prop_flat_map(|p| {
        proptest::collection::vec(aterm(), pred_arity(p))
            .prop_map(move |args| AAtom { pred: p, args })
    })
}

fn aquery(max_body: usize) -> impl Strategy<Value = AQuery> {
    (
        proptest::collection::vec(aterm(), 0..3),
        proptest::collection::vec(aatom(), 0..=max_body),
    )
        .prop_map(|(head, body)| AQuery { head, body })
}

struct Ctx {
    vocab: Vocabulary,
}

impl Ctx {
    fn new() -> Self {
        Ctx {
            vocab: Vocabulary::new(),
        }
    }

    fn term(&mut self, t: ATerm) -> Term {
        match t {
            ATerm::Var(i) => Term::Var(self.vocab.var(&format!("X{i}"))),
            ATerm::Cst(i) => Term::Cst(self.vocab.cst(&format!("c{i}"))),
        }
    }

    fn atom(&mut self, a: &AAtom) -> Atom {
        let pred = self.vocab.pred(&format!("p{}", a.pred), pred_arity(a.pred));
        let args = a.args.iter().map(|&t| self.term(t)).collect();
        Atom::new(pred, args)
    }

    fn query(&mut self, q: &AQuery) -> Query {
        let name = self.vocab.sym("q");
        let head = q.head.iter().map(|&t| self.term(t)).collect();
        let body = q.body.iter().map(|a| self.atom(a)).collect();
        Query::new(name, head, body)
    }

    /// Materializes a ground instance by freezing variables into
    /// constants (gives ground, varied instances).
    fn instance(&mut self, atoms: &[AAtom]) -> Instance {
        atoms
            .iter()
            .map(|a| {
                let atom = self.atom(a);
                freeze_atom(&atom)
            })
            .collect()
    }

    /// The constant pool tuples of a given arity: every candidate target
    /// for a `has_answer` probe (plus the frozen constants the instance
    /// materializer introduces are covered by the answer tuples
    /// themselves).
    fn all_tuples(&mut self, arity: usize) -> Vec<Vec<Cst>> {
        let pool: Vec<Cst> = (0..NUM_CSTS)
            .map(|i| self.vocab.cst(&format!("c{i}")))
            .collect();
        let mut out = vec![Vec::new()];
        for _ in 0..arity {
            out = out
                .into_iter()
                .flat_map(|t| {
                    pool.iter().map(move |&c| {
                        let mut t = t.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
        }
        out
    }
}

/// Makes a safe variant of a query: drop head terms whose variable is
/// not in the body.
fn safe_head(q: &Query) -> Query {
    let body_vars = q.body_vars();
    let head = q
        .head
        .iter()
        .copied()
        .filter(|t| t.as_var().is_none_or(|v| body_vars.contains(&v)))
        .collect();
    Query::new(q.name, head, q.body.clone())
}

/// Canonical, order-insensitive rendering of a homomorphism set.
fn hom_set(homs: &[Substitution]) -> BTreeSet<String> {
    homs.iter()
        .map(|s| {
            let mut pairs: Vec<(magik_relalg::Var, Term)> = s.iter().collect();
            pairs.sort_by_key(|&(v, _)| v);
            format!("{pairs:?}")
        })
        .collect()
}

/// All three join operators a batch plan can choose from.
const STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::NestedLoop,
    JoinStrategy::HashJoin,
    JoinStrategy::MergeJoin,
];

/// Evaluates `query` over `db` through a batch plan with every join op
/// forced to `strategy`, projecting rows through the head exactly like
/// `CompiledQuery::answers` — the harness for operator-equivalence
/// properties.
fn forced_answers(query: &Query, db: &Instance, strategy: JoinStrategy) -> AnswerSet {
    let plan = Plan::compile(&query.body, &BTreeSet::new(), Some(db));
    let head = Projection::compile(&query.head, &plan).unwrap();
    let batch = BatchPlan::with_strategy(&plan, strategy);
    let mut stats = ExecStats::default();
    let out = batch.run(db, Batch::from_seeds(&plan, &[Vec::new()]), &mut stats);
    let mut ans = AnswerSet::new();
    for r in 0..out.len() {
        ans.insert(head.emit_with(&mut |s| out.value(s, r)));
    }
    ans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `magik_relalg::answers` (a compiled plan per call) computes the
    /// seed evaluator's answer set — including the error for unsafe
    /// heads.
    #[test]
    fn planned_answers_match_reference(q in aquery(4), d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        let db = ctx.instance(&d);
        match (answers(&query, &db), reference::answers(&query, &db)) {
            (Ok(planned), Ok(oracle)) => prop_assert_eq!(planned, oracle),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (planned, oracle) => prop_assert!(false, "planned {planned:?} vs oracle {oracle:?}"),
        }
    }

    /// A `CompiledQuery` compiled once keeps computing the reference
    /// answer set as the instance it runs over changes (plans fix the
    /// strategy, never the semantics).
    #[test]
    fn compiled_query_matches_reference_across_instances(
        q in aquery(4),
        d1 in proptest::collection::vec(aatom(), 0..6),
        d2 in proptest::collection::vec(aatom(), 0..6),
    ) {
        let mut ctx = Ctx::new();
        let query = safe_head(&ctx.query(&q));
        let small = ctx.instance(&d1);
        let mut big = small.clone();
        big.extend_from(&ctx.instance(&d2));
        // Compile against the small instance's statistics, execute on both.
        let cq = CompiledQuery::compile(&query, Some(&small)).unwrap();
        let mut stats = ExecStats::default();
        prop_assert_eq!(cq.answers(&small, &mut stats), reference::answers(&query, &small).unwrap());
        prop_assert_eq!(cq.answers(&big, &mut stats), reference::answers(&query, &big).unwrap());
        // And a stats-less (shape-heuristic) plan agrees too.
        let blind = CompiledQuery::compile(&query, None).unwrap();
        prop_assert_eq!(blind.answers(&big, &mut stats), reference::answers(&query, &big).unwrap());
    }

    /// `has_answer` (first-match mode over a seeded plan) agrees with the
    /// oracle on *every* candidate tuple over the constant pool, answers
    /// and non-answers alike, plus each actual answer tuple.
    #[test]
    fn has_answer_matches_reference_on_all_candidates(q in aquery(3), d in proptest::collection::vec(aatom(), 0..6)) {
        let mut ctx = Ctx::new();
        let query = safe_head(&ctx.query(&q));
        let db = ctx.instance(&d);
        for tuple in ctx.all_tuples(query.head.len()) {
            prop_assert_eq!(
                has_answer(&query, &db, &tuple),
                reference::has_answer(&query, &db, &tuple),
                "tuple {:?}", tuple
            );
        }
        for tuple in &answers(&query, &db).unwrap() {
            prop_assert!(has_answer(&query, &db, tuple));
        }
    }

    /// The homomorphism enumeration (what containment and the
    /// completeness engine consume) yields the same set of substitutions.
    #[test]
    fn homomorphisms_match_reference(q in aquery(4), d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        let db = ctx.instance(&d);
        let planned = homomorphisms(&query.body, &db);
        let oracle = reference::homomorphisms(&query.body, &db);
        prop_assert_eq!(planned.len(), oracle.len());
        prop_assert_eq!(hom_set(&planned), hom_set(&oracle));
    }

    /// Hash join, merge join, and nested loop — each forced across a
    /// whole plan — all compute the reference answer set, and hence agree
    /// with each other and with the cost-model-chosen plan. The small
    /// constant pool makes duplicate-heavy join columns the common case,
    /// and the generators routinely produce empty relations (atoms over
    /// predicates with no facts) and all-constants atoms.
    #[test]
    fn forced_join_strategies_match_reference(
        q in aquery(4),
        d in proptest::collection::vec(aatom(), 0..8),
    ) {
        let mut ctx = Ctx::new();
        let query = safe_head(&ctx.query(&q));
        let db = ctx.instance(&d);
        let oracle = reference::answers(&query, &db).unwrap();
        for strategy in STRATEGIES {
            prop_assert_eq!(
                forced_answers(&query, &db, strategy),
                oracle.clone(),
                "strategy {:?}",
                strategy
            );
        }
    }
}

/// The shapes most likely to break a join operator, pinned
/// deterministically: a join against an *empty* relation, a join on a
/// *duplicate-heavy* column (every build row shares the key), and an
/// *all-constants* atom (no binds, pure existence filter). All three
/// operators must agree with the oracle on each.
#[test]
fn forced_strategies_cover_edge_shapes() {
    let mut v = Vocabulary::new();
    let e = v.pred("e", 2);
    let none = v.pred("none", 2);
    let (a, b) = (v.cst("a"), v.cst("b"));
    let mut db = Instance::new();
    // Column 0 of `e` holds a single value — maximal duplication.
    db.insert(magik_relalg::Fact::new(e, vec![a, b]));
    for i in 0..12 {
        db.insert(magik_relalg::Fact::new(e, vec![a, v.cst(&format!("t{i}"))]));
    }
    let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
    let queries = [
        // Duplicate-heavy self-join on the constant column.
        Query::new(
            v.sym("dup"),
            vec![Term::Var(y), Term::Var(z)],
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
            ],
        ),
        // Join into a relation with no facts at all: zero answers.
        Query::new(
            v.sym("empty"),
            vec![Term::Var(x)],
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(none, vec![Term::Var(y), Term::Var(z)]),
            ],
        ),
        // All-constants atom alongside a bound join.
        Query::new(
            v.sym("consts"),
            vec![Term::Var(y)],
            vec![
                Atom::new(e, vec![Term::Cst(a), Term::Cst(b)]),
                Atom::new(e, vec![Term::Cst(a), Term::Var(y)]),
            ],
        ),
    ];
    for query in &queries {
        let oracle = reference::answers(query, &db).unwrap();
        for strategy in STRATEGIES {
            assert_eq!(
                forced_answers(query, &db, strategy),
                oracle,
                "query {:?} strategy {strategy:?}",
                query.name
            );
        }
    }
}
