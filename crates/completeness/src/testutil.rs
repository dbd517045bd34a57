//! Shared fixtures for unit tests: the paper's running example
//! ("schoolBolzano", Example 1) and the Theorem 17 flight example.

use magik_relalg::{Atom, Query, Term, Vocabulary};

use crate::tcs::{TcSet, TcStatement};

/// The school schema and the statements {C_sp, C_pb, C_enp} of Example 1.
pub(crate) fn school_tcs(v: &mut Vocabulary) -> TcSet {
    let pupil = v.pred("pupil", 3);
    let school = v.pred("school", 3);
    let learns = v.pred("learns", 2);
    let (n, c, s, t, d) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"), v.var("D"));
    let (primary, merano, english) = (v.cst("primary"), v.cst("merano"), v.cst("english"));
    TcSet::new(vec![
        // C_sp: Compl(school(S, primary, D); true)
        TcStatement::new(
            Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Var(d)]),
            vec![],
        ),
        // C_pb: Compl(pupil(N, C, S); school(S, T, merano))
        TcStatement::new(
            Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
            vec![Atom::new(
                school,
                vec![Term::Var(s), Term::Var(t), Term::Cst(merano)],
            )],
        ),
        // C_enp: Compl(learns(N, english); pupil(N, C, S), school(S, primary, D))
        TcStatement::new(
            Atom::new(learns, vec![Term::Var(n), Term::Cst(english)]),
            vec![
                Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Var(d)]),
            ],
        ),
    ])
}

/// `Q_ppb(N) ← pupil(N, C, S), school(S, primary, merano)` — complete wrt
/// the school statements.
pub(crate) fn q_ppb(v: &mut Vocabulary) -> Query {
    let pupil = v.pred("pupil", 3);
    let school = v.pred("school", 3);
    let (n, c, s) = (v.var("N"), v.var("C"), v.var("S"));
    let (primary, merano) = (v.cst("primary"), v.cst("merano"));
    Query::new(
        v.sym("q_ppb"),
        vec![Term::Var(n)],
        vec![
            Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
            Atom::new(
                school,
                vec![Term::Var(s), Term::Cst(primary), Term::Cst(merano)],
            ),
        ],
    )
}

/// `Q_pbl(N) ← pupil(N, C, S), school(S, primary, merano), learns(N, L)` —
/// incomplete wrt the school statements.
pub(crate) fn q_pbl(v: &mut Vocabulary) -> Query {
    let learns = v.pred("learns", 2);
    let (n, l) = (v.var("N"), v.var("L"));
    let base = q_ppb(v);
    let mut body = base.body;
    body.push(Atom::new(learns, vec![Term::Var(n), Term::Var(l)]));
    Query::new(v.sym("q_pbl"), vec![Term::Var(n)], body)
}

/// The Theorem 17 flight statement `Compl(conn(X, Y); conn(Y, Z))` and
/// query `Q(X) ← conn(X, Y)`.
pub(crate) fn flight(v: &mut Vocabulary) -> (TcSet, Query) {
    let conn = v.pred("conn", 2);
    let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
    let tcs = TcSet::new(vec![TcStatement::new(
        Atom::new(conn, vec![Term::Var(x), Term::Var(y)]),
        vec![Atom::new(conn, vec![Term::Var(y), Term::Var(z)])],
    )]);
    let q = Query::new(
        v.sym("q"),
        vec![Term::Var(x)],
        vec![Atom::new(conn, vec![Term::Var(x), Term::Var(y)])],
    );
    (tcs, q)
}

/// The Table 1 workload: `Q_l(N) ← learns(N, L)` and the school statements
/// minus `C_pb`, extended with two `class`-conditioned pupil statements
/// (Section 5).
pub(crate) fn table1(v: &mut Vocabulary) -> (TcSet, Query) {
    let school = school_tcs(v);
    let pupil = v.pred("pupil", 3);
    let learns = v.pred("learns", 2);
    let class = v.pred("class", 4);
    let (n, c, s, l) = (v.var("N"), v.var("C"), v.var("S"), v.var("L"));
    let (half, full) = (v.cst("halfDay"), v.cst("fullDay"));
    let mut stmts: Vec<TcStatement> = school
        .statements()
        .iter()
        .filter(|c| c.head.pred != pupil) // drop C_pb
        .cloned()
        .collect();
    stmts.push(TcStatement::new(
        Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
        vec![Atom::new(
            class,
            vec![Term::Var(c), Term::Var(s), Term::Var(l), Term::Cst(half)],
        )],
    ));
    stmts.push(TcStatement::new(
        Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
        vec![Atom::new(
            class,
            vec![Term::Var(c), Term::Var(s), Term::Var(l), Term::Cst(full)],
        )],
    ));
    let q = Query::new(
        v.sym("q_l"),
        vec![Term::Var(n)],
        vec![Atom::new(learns, vec![Term::Var(n), Term::Var(l)])],
    );
    (TcSet::new(stmts), q)
}

/// The satisfiable Table 1 variant ("T1b"): [`table1`] plus the
/// unconditional `Compl(class(C, S, L, T); true)`, so complete
/// specializations of `Q_l` exist.
pub(crate) fn table1_satisfiable(v: &mut Vocabulary) -> (TcSet, Query) {
    let (tcs, q) = table1(v);
    let class = v.pred("class", 4);
    let (c, s, l, t) = (v.var("C"), v.var("S"), v.var("L"), v.var("T"));
    let mut stmts = tcs.statements().to_vec();
    stmts.push(TcStatement::new(
        Atom::new(
            class,
            vec![Term::Var(c), Term::Var(s), Term::Var(l), Term::Var(t)],
        ),
        vec![],
    ));
    (TcSet::new(stmts), q)
}
