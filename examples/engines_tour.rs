//! A tour of the two inference substrates the paper's implementation
//! delegated to external systems — here implemented from scratch.
//!
//! * **Forward chaining** (the dlv role): the Datalog engine runs the
//!   Section 5 `Rⁱ`/`Rᵃ` encoding of the statements, plus a stratified
//!   negation query computing which parts of the frozen query are *not*
//!   guaranteed.
//! * **Backward chaining** (the SWI-Prolog role): the SLD engine proves
//!   the same completeness goal top-down, and uses negation as failure
//!   to name the missing atoms.
//!
//! Both agree with the relational implementation of Theorem 3.
//!
//! Run with: `cargo run --example engines_tour`

use magik::datalog::{Program, Rule};
use magik::workload::paper::school;
use magik::{
    canonical_database, is_complete, tc_encoding, Atom, DisplayWith, Fact, Instance, Term,
};
use magik_oracle::prolog::KnowledgeBase;

fn main() {
    let w = school();
    let mut vocab = w.vocab.clone();
    let q = w.q_pbl.clone();
    println!("Query: {}", q.display(&vocab));
    println!(
        "Relational Theorem 3 check: {}\n",
        if is_complete(&q, &w.tcs) {
            "COMPLETE"
        } else {
            "INCOMPLETE"
        }
    );

    // ---------- Forward chaining on the Datalog engine ----------
    let frozen = canonical_database(&q);
    let (program, ideal_preds, avail_preds) = tc_encoding(&w.tcs, &mut vocab);
    println!("Section 5 encoding as Datalog rules:");
    for rule in program.rules() {
        println!("  {}", rule.display(&vocab));
    }
    // Load D_Q as R^i facts and add a stratified-negation rule per
    // relation: missing@R(args) :- R^i(args), not R^a(args).
    let mut edb = Instance::new();
    for fact in frozen.iter_facts() {
        edb.insert(Fact::new(ideal_preds[&fact.pred], fact.args));
    }
    let mut rules = program.rules().to_vec();
    let mut missing_preds = Vec::new();
    for (&orig, &pi) in &ideal_preds {
        let pa = avail_preds[&orig];
        let arity = vocab.arity(orig);
        let missing = vocab.pred(&format!("missing@{}", vocab.pred_name(orig)), arity);
        missing_preds.push(missing);
        let args: Vec<Term> = (0..arity)
            .map(|i| Term::Var(vocab.var(&format!("M{i}"))))
            .collect();
        rules.push(Rule::with_negation(
            Atom::new(missing, args.clone()),
            vec![Atom::new(pi, args.clone())],
            vec![Atom::new(pa, args)],
        ));
    }
    let program = Program::new(rules).expect("encoding plus negation is stratified");
    println!(
        "\nStratified program: {} strata, {} rules",
        program.num_strata(),
        program.rules().len()
    );
    let model = program.eval_semi_naive(&edb).model;
    println!("Frozen atoms NOT guaranteed by the statements (forward chaining):");
    for &mp in &missing_preds {
        if let Some(rel) = model.relation(mp) {
            for tuple in rel.iter() {
                println!(
                    "  {}{}",
                    vocab.pred_name(mp),
                    tuple.to_vec().display(&vocab)
                );
            }
        }
    }

    // ---------- Backward chaining on the Prolog engine ----------
    // The same statements as Horn clauses over _i/_a relations; the
    // completeness goal is the frozen body over the _a relations.
    let mut src = String::new();
    for fact in frozen.iter_facts() {
        let args: Vec<String> = fact
            .args
            .iter()
            .map(|c| format!("k_{}", c.display(&vocab).to_string().replace('\'', "f")))
            .collect();
        src.push_str(&format!(
            "{}_i({}).\n",
            vocab.pred_name(fact.pred),
            args.join(", ")
        ));
    }
    for c in w.tcs.statements() {
        let atom_str = |a: &Atom, suffix: &str| {
            let args: Vec<String> = a
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => format!("V{}", v.index()),
                    Term::Cst(cst) => format!("k_{}", cst.display(&vocab)),
                })
                .collect();
            format!("{}{suffix}({})", vocab.pred_name(a.pred), args.join(", "))
        };
        let mut rule = format!("{} :- {}", atom_str(&c.head, "_a"), atom_str(&c.head, "_i"));
        for g in &c.condition {
            rule.push_str(&format!(", {}", atom_str(g, "_i")));
        }
        src.push_str(&rule);
        src.push_str(".\n");
    }
    let mut kb = KnowledgeBase::new();
    kb.consult(&src).expect("generated program parses");
    // Per-atom diagnosis with negation as failure.
    println!("\nBackward chaining diagnosis (negation as failure):");
    for atom in &q.body {
        let frozen_atom: Vec<String> = atom
            .args
            .iter()
            .map(|&t| {
                format!(
                    "k_{}",
                    magik::relalg::freeze_term(t)
                        .display(&vocab)
                        .to_string()
                        .replace('\'', "f")
                )
            })
            .collect();
        let goal = format!(
            "{}_a({}).",
            vocab.pred_name(atom.pred),
            frozen_atom.join(", ")
        );
        let provable = !kb.query(&goal).unwrap().solutions.is_empty();
        println!(
            "  {} {}",
            if provable { "+" } else { "-" },
            atom.display(&vocab)
        );
    }
}
