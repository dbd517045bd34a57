//! Cross-validation of the three engines.
//!
//! The paper ran generalization on a Datalog (ASP) engine and
//! specialization on a Prolog engine; this repository implements both
//! substrates plus a direct relational engine. These tests check that all
//! of them compute the same answers on the same problems:
//!
//! * conjunctive-query evaluation: relational engine vs SLD resolution;
//! * the `T_C` operator: direct vs Datalog encoding (on generated data);
//! * Theorem 3 completeness checking: direct vs an encoding run
//!   *backwards* on the Prolog engine (the `Rⁱ`/`Rᵃ` rules queried as
//!   goals).

use magik::workload::paper::school;
use magik::workload::synth::{school_instance, SchoolDataConfig};
use magik::{
    answers, canonical_database, is_complete, parse_query, tc_apply, tc_apply_datalog, Cst,
    DisplayWith, Instance, Query, Term, Vocabulary,
};
use magik_oracle::prolog::{KnowledgeBase, SolverConfig};

/// Renders a constant in Prolog-friendly lowercase form.
fn prolog_cst(c: Cst, vocab: &Vocabulary) -> String {
    match c {
        Cst::Data(sym) => {
            let raw = vocab.name(sym).to_owned();
            format!(
                "c_{}",
                raw.replace(|ch: char| !ch.is_ascii_alphanumeric(), "_")
            )
        }
        Cst::Frozen(v) => format!("f_{}", vocab.var_name(v).to_lowercase()),
    }
}

/// Loads an instance into a Prolog knowledge base as ground facts.
fn load_instance(db: &Instance, vocab: &Vocabulary, suffix: &str, kb_src: &mut String) {
    for fact in db.iter_facts() {
        let args: Vec<String> = fact.args.iter().map(|&c| prolog_cst(c, vocab)).collect();
        kb_src.push_str(&format!(
            "{}{suffix}({}).\n",
            vocab.pred_name(fact.pred),
            args.join(", ")
        ));
    }
}

/// Renders a query body as a Prolog goal list.
fn prolog_goals(q: &Query, vocab: &Vocabulary, suffix: &str) -> String {
    q.body
        .iter()
        .map(|a| {
            let args: Vec<String> = a
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => format!("V{}", v.index()),
                    Term::Cst(c) => prolog_cst(c, vocab),
                })
                .collect();
            format!("{}{suffix}({})", vocab.pred_name(a.pred), args.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn cq_evaluation_agrees_with_sld_resolution() {
    // Evaluate the two running-example queries over synthetic data on both
    // the relational engine and the Prolog engine.
    let w = school();
    let mut vocab = w.vocab.clone();
    let db = school_instance(
        &w,
        &mut vocab,
        SchoolDataConfig {
            schools: 4,
            pupils_per_school: 5,
            learn_prob: 0.5,
            seed: 11,
        },
    );
    let mut kb_src = String::new();
    load_instance(&db, &vocab, "", &mut kb_src);
    let mut kb = KnowledgeBase::new();
    kb.consult(&kb_src).unwrap();

    for q in [&w.q_ppb, &w.q_pbl] {
        let relational = answers(q, &db).unwrap();
        let goals = format!("{}.", prolog_goals(q, &vocab, ""));
        let result = kb.query(&goals).unwrap();
        assert!(result.complete);
        // Distinct head images (SLD enumerates assignments, so dedup).
        let head_var = q.head[0].as_var().unwrap();
        let mut images: Vec<String> = result
            .solutions
            .iter()
            .map(|s| {
                let (_, term) = s
                    .bindings
                    .iter()
                    .find(|(name, _)| name == &format!("V{}", head_var.index()))
                    .expect("head variable bound");
                kb.render(term, &[])
            })
            .collect();
        images.sort();
        images.dedup();
        assert_eq!(
            images.len(),
            relational.len(),
            "engines disagree on {}",
            q.display(&vocab)
        );
    }
}

#[test]
fn tc_operator_agrees_across_engines_on_synthetic_data() {
    let w = school();
    let mut vocab = w.vocab.clone();
    for seed in [1u64, 2, 3] {
        let db = school_instance(
            &w,
            &mut vocab,
            SchoolDataConfig {
                schools: 6,
                pupils_per_school: 8,
                learn_prob: 0.4,
                seed,
            },
        );
        let direct = tc_apply(&w.tcs, &db);
        let datalog = tc_apply_datalog(&w.tcs, &db, &mut vocab);
        assert_eq!(direct, datalog, "seed {seed}");
    }
}

/// Theorem 3 on the Prolog engine: freeze the query, load `Rⁱ` facts,
/// translate each statement into a backward-chainable rule
/// `Rᵃ(s̄) :- Rⁱ(s̄), Gⁱ`, and prove the goal `Bᵃ` (every body atom
/// available). The provability of the frozen body is exactly the
/// completeness condition.
#[test]
fn completeness_check_agrees_with_backward_chaining() {
    let w = school();
    let mut vocab = w.vocab.clone();

    let queries = [
        (w.q_ppb.clone(), true),
        (w.q_pbl.clone(), false),
        (
            parse_query(
                "q3(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, english).",
                &mut vocab,
            )
            .unwrap(),
            true,
        ),
        (
            parse_query("q4(N) :- learns(N, english).", &mut vocab).unwrap(),
            false,
        ),
    ];

    for (q, expected) in queries {
        assert_eq!(is_complete(&q, &w.tcs), expected, "{}", q.display(&vocab));

        // Build the Prolog program: frozen body as R_i facts + TC rules.
        let frozen = canonical_database(&q);
        let mut src = String::new();
        load_instance(&frozen, &vocab, "_i", &mut src);
        for c in w.tcs.statements() {
            let head_args: Vec<String> = c
                .head
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => format!("V{}", v.index()),
                    Term::Cst(cst) => prolog_cst(cst, &vocab),
                })
                .collect();
            let head_name = vocab.pred_name(c.head.pred);
            let mut rule = format!(
                "{head_name}_a({}) :- {head_name}_i({})",
                head_args.join(", "),
                head_args.join(", ")
            );
            for g in &c.condition {
                let args: Vec<String> = g
                    .args
                    .iter()
                    .map(|&t| match t {
                        Term::Var(v) => format!("V{}", v.index()),
                        Term::Cst(cst) => prolog_cst(cst, &vocab),
                    })
                    .collect();
                rule.push_str(&format!(
                    ", {}_i({})",
                    vocab.pred_name(g.pred),
                    args.join(", ")
                ));
            }
            rule.push_str(".\n");
            src.push_str(&rule);
        }
        let mut kb = KnowledgeBase::new();
        kb.consult(&src).unwrap();

        // Goal: the frozen body, over the _a relations.
        let frozen_body = Query::new(
            q.name,
            q.head.clone(),
            q.body
                .iter()
                .map(|a| {
                    magik::Atom::new(
                        a.pred,
                        a.args
                            .iter()
                            .map(|&t| Term::Cst(magik::relalg::freeze_term(t)))
                            .collect(),
                    )
                })
                .collect(),
        );
        let goal = format!("{}.", prolog_goals(&frozen_body, &vocab, "_a"));
        let result = kb
            .query_with(
                &goal,
                SolverConfig {
                    max_solutions: 1,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        let provable = !result.solutions.is_empty();
        assert_eq!(
            provable,
            expected,
            "Prolog backward chaining disagrees on {}",
            q.display(&vocab)
        );
    }
}
