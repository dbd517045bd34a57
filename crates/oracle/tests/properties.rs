//! Property-based tests for the SLD engine, using executable list theory:
//! the engine itself is the oracle for classical identities of `append`
//! and `reverse` over randomly generated lists.

use proptest::prelude::*;

use magik_oracle::prolog::{KnowledgeBase, SolverConfig, Term};

const LIST_THEORY: &str = "
    append(nil, Y, Y).
    append(cons(H, T), Y, cons(H, Z)) :- append(T, Y, Z).

    reverse(nil, nil).
    reverse(cons(H, T), R) :- reverse(T, RT), append(RT, cons(H, nil), R).

    member(X, cons(X, _)).
    member(X, cons(_, T)) :- member(X, T).

    length(nil, zero).
    length(cons(_, T), s(N)) :- length(T, N).
";

fn kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.consult(LIST_THEORY).unwrap();
    kb
}

/// Renders a `Vec<u8>` as a ground cons-list term.
fn list_term(items: &[u8]) -> String {
    let mut out = "nil".to_owned();
    for &i in items.iter().rev() {
        out = format!("cons(e{i}, {out})");
    }
    out
}

/// The sugared rendering the engine produces for the same list.
fn sugared(items: &[u8]) -> String {
    if items.is_empty() {
        "nil".to_owned()
    } else {
        format!(
            "[{}]",
            items
                .iter()
                .map(|i| format!("e{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

fn solve_one(kb: &mut KnowledgeBase, goal: &str) -> Option<Vec<(String, Term)>> {
    let r = kb
        .query_with(
            goal,
            SolverConfig {
                max_solutions: 1,
                ..SolverConfig::default()
            },
        )
        .unwrap();
    r.solutions.into_iter().next().map(|s| s.bindings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// append is total and deterministic on ground inputs, and the result
    /// concatenates.
    #[test]
    fn append_concatenates(xs in proptest::collection::vec(0..5u8, 0..6), ys in proptest::collection::vec(0..5u8, 0..6)) {
        let mut kb = kb();
        let goal = format!("append({}, {}, Z).", list_term(&xs), list_term(&ys));
        let bindings = solve_one(&mut kb, &goal).expect("append succeeds");
        let z = kb.render(&bindings[0].1, &[]);
        let expected: Vec<u8> = xs.iter().chain(&ys).copied().collect();
        prop_assert_eq!(z, sugared(&expected));
    }

    /// append(X, Y, L) enumerates exactly |L| + 1 splits.
    #[test]
    fn append_enumerates_all_splits(l in proptest::collection::vec(0..5u8, 0..6)) {
        let mut kb = kb();
        let goal = format!("append(X, Y, {}).", list_term(&l));
        let r = kb.query(&goal).unwrap();
        prop_assert!(r.complete);
        prop_assert_eq!(r.solutions.len(), l.len() + 1);
        // Each split re-concatenates to l.
        for s in &r.solutions {
            let x = kb.render(&s.bindings[0].1, &[]);
            let y = kb.render(&s.bindings[1].1, &[]);
            let recheck = format!("append({x}, {y}, {}).", list_term(&l));
            prop_assert!(solve_one(&mut kb, &recheck).is_some());
        }
    }

    /// reverse is an involution.
    #[test]
    fn reverse_is_involutive(xs in proptest::collection::vec(0..5u8, 0..6)) {
        let mut kb = kb();
        let goal = format!("reverse({}, R).", list_term(&xs));
        let bindings = solve_one(&mut kb, &goal).expect("reverse succeeds");
        let reversed_term = kb.render(&bindings[0].1, &[]);
        let mut expected = xs.clone();
        expected.reverse();
        prop_assert_eq!(&reversed_term, &sugared(&expected));
        // The sugared rendering parses back (list syntax round-trip).
        let back = format!("reverse({reversed_term}, R2).");
        let bindings = solve_one(&mut kb, &back).expect("reverse back succeeds");
        prop_assert_eq!(kb.render(&bindings[0].1, &[]), sugared(&xs));
    }

    /// member holds exactly for the elements of the list, and NAF gives
    /// the complement.
    #[test]
    fn member_and_its_negation(xs in proptest::collection::vec(0..5u8, 0..6), probe in 0..5u8) {
        let mut kb = kb();
        let goal = format!("member(e{probe}, {}).", list_term(&xs));
        let holds = solve_one(&mut kb, &goal).is_some();
        prop_assert_eq!(holds, xs.contains(&probe));
        let naf = format!("not(member(e{probe}, {})).", list_term(&xs));
        let negated = solve_one(&mut kb, &naf).is_some();
        prop_assert_eq!(negated, !xs.contains(&probe));
    }

    /// length agrees with the Rust-side length (as Peano numerals).
    #[test]
    fn length_matches(xs in proptest::collection::vec(0..5u8, 0..8)) {
        let mut kb = kb();
        let goal = format!("length({}, N).", list_term(&xs));
        let bindings = solve_one(&mut kb, &goal).expect("length succeeds");
        let mut expected = "zero".to_owned();
        for _ in 0..xs.len() {
            expected = format!("s({expected})");
        }
        prop_assert_eq!(kb.render(&bindings[0].1, &[]), expected);
    }
}
