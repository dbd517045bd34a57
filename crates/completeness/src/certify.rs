//! Certificate emission: proof-carrying verdicts for Theorem 3.
//!
//! [`certify`] upgrades [`crate::is_complete`]'s boolean into a
//! [`Certificate`] that the independent checker crate (`magik-cert`) can
//! validate by direct definition-checking:
//!
//! * **complete** — the witnessing assignment θ from
//!   [`magik_relalg::has_answer_witness`] over `T_C(D_Q)`, plus one
//!   [`FactDerivation`] per body atom naming the statement and grounding
//!   that guarantee its θ-image;
//! * **incomplete** — the canonical counterexample (available state
//!   `T_C(D_Q)` inside ideal state `D_Q`, lost answer `θū`) and a
//!   **minimal repair**: unconditional statements whose addition flips
//!   the verdict, computed greedy-then-minimize over the canonical
//!   database so that removing any single element flips it back.
//!
//! The emitter lives on the engine side and may use every engine
//! shortcut; soundness is the checker's problem, which is the point of
//! the split.

use magik_cert::{
    Binding, CertStatement, Certificate, CompleteCert, FactDerivation, IncompleteCert, RepairCert,
};
use magik_relalg::{
    canonical_database, freeze_term, has_answer_witness, homomorphisms, Atom, Cst, Instance, Query,
    Substitution, Term, Var,
};

use crate::check::is_complete;
use crate::tc_op::tc_apply;
use crate::tcs::{TcSet, TcStatement};

/// Converts a TCS into the checker's statement representation, preserving
/// order (certificates index into this list).
pub fn cert_statements(tcs: &TcSet) -> Vec<CertStatement> {
    tcs.statements()
        .iter()
        .map(|s| CertStatement {
            head: s.head.clone(),
            condition: s.condition.clone(),
        })
        .collect()
}

fn binding_of(sub: &Substitution) -> Binding {
    sub.iter()
        .filter_map(|(v, t)| match t {
            Term::Cst(c) => Some((v, c)),
            Term::Var(_) => None,
        })
        .collect()
}

fn subst_of(binding: &[(Var, Cst)]) -> Substitution {
    Substitution::from_pairs(binding.iter().map(|&(v, c)| (v, Term::Cst(c))))
}

/// Finds, for one guaranteed fact, a statement and grounding that put it
/// into `T_C(D_Q)` — by re-enumerating each statement's associated-query
/// homomorphisms over the canonical database.
fn derive_fact(fact: &magik_relalg::Fact, tcs: &TcSet, db: &Instance) -> Option<(usize, Binding)> {
    for (si, stmt) in tcs.statements().iter().enumerate() {
        let assoc = stmt.associated_query();
        for hom in homomorphisms(&assoc.body, db) {
            if hom.apply_atom(&stmt.head).to_fact().as_ref() == Some(fact) {
                return Some((si, binding_of(&hom)));
            }
        }
    }
    None
}

/// Emits a completeness witness, or `None` when `C ⊭ Compl(Q)`.
fn complete_cert(q: &Query, tcs: &TcSet) -> Option<CompleteCert> {
    let db = canonical_database(q);
    let guaranteed = tc_apply(tcs, &db);
    let target: Vec<Cst> = q.head.iter().map(|&t| freeze_term(t)).collect();
    let witness = has_answer_witness(q, &guaranteed, &target)?;
    let theta = witness.binding;
    let sub = subst_of(&theta);
    let mut derivations = Vec::with_capacity(q.body.len());
    for atom in &q.body {
        let fact = sub
            .apply_atom(atom)
            .to_fact()
            .expect("θ grounds every body atom");
        let (statement, binding) =
            derive_fact(&fact, tcs, &db).expect("θ-images of body atoms are in T_C(D_Q)");
        derivations.push(FactDerivation {
            fact,
            statement,
            binding,
        });
    }
    Some(CompleteCert { theta, derivations })
}

/// Emits the canonical counterexample for an incomplete verdict: ideal
/// state `D_Q`, available state `T_C(D_Q)`, lost answer `θū`.
fn incomplete_cert(q: &Query, tcs: &TcSet) -> IncompleteCert {
    let db = canonical_database(q);
    let guaranteed = tc_apply(tcs, &db);
    IncompleteCert {
        available: guaranteed.iter_facts().collect(),
        target: q.head.iter().map(|&t| freeze_term(t)).collect(),
    }
}

fn with_statements(tcs: &TcSet, extra: &[Atom]) -> TcSet {
    let mut statements: Vec<TcStatement> = tcs.statements().to_vec();
    statements.extend(
        extra
            .iter()
            .map(|a| TcStatement::new(a.clone(), Vec::new())),
    );
    TcSet::new(statements)
}

/// Computes a 1-minimal repair for an incomplete verdict: a set of
/// unconditional statements (one per uncovered body atom pattern) whose
/// addition makes `Q` complete, minimized greedily so that removing any
/// single element makes it incomplete again.
///
/// Always succeeds for incomplete verdicts: adding `Compl(a; true)` for
/// *every* body atom makes `T_C(D_Q) = D_Q`, under which the identity
/// assignment witnesses completeness.
pub fn repair_suggestions(q: &Query, tcs: &TcSet) -> Vec<TcStatement> {
    let mut candidates: Vec<Atom> = Vec::new();
    for a in &q.body {
        if !candidates.contains(a) {
            candidates.push(a.clone());
        }
    }
    // Greedy minimize: drop every candidate whose removal keeps the
    // repaired set complete. The survivors form a 1-minimal repair.
    let mut kept = candidates.clone();
    let mut i = 0;
    while i < kept.len() {
        let mut reduced = kept.clone();
        reduced.remove(i);
        if is_complete(q, &with_statements(tcs, &reduced)) {
            kept = reduced;
        } else {
            i += 1;
        }
    }
    kept.into_iter()
        .map(|a| TcStatement::new(a, Vec::new()))
        .collect()
}

/// Emits a full repair certificate for an incomplete verdict, or `None`
/// when the verdict is complete (nothing to repair).
fn repair_cert(q: &Query, tcs: &TcSet) -> Option<RepairCert> {
    let additions: Vec<Atom> = repair_suggestions(q, tcs)
        .into_iter()
        .map(|s| s.head)
        .collect();
    if additions.is_empty() {
        return None;
    }
    let complete = complete_cert(q, &with_statements(tcs, &additions))
        .expect("the un-minimized repair set restores completeness");
    let minimality = additions
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut reduced = additions.clone();
            reduced.remove(i);
            incomplete_cert(q, &with_statements(tcs, &reduced))
        })
        .collect();
    Some(RepairCert {
        additions,
        complete,
        minimality,
    })
}

/// Decides `C ⊨ Compl(Q)` and emits a checkable [`Certificate`] for the
/// verdict: a completeness witness, or a counterexample plus a minimal
/// repair.
///
/// The certificate validates against
/// [`magik_cert::check_certificate`]`(q, &cert_statements(tcs), …)`.
pub fn certify(q: &Query, tcs: &TcSet) -> Certificate {
    match complete_cert(q, tcs) {
        Some(c) => Certificate::Complete(c),
        None => Certificate::Incomplete {
            counterexample: incomplete_cert(q, tcs),
            repair: repair_cert(q, tcs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{flight, q_pbl, q_ppb, school_tcs, table1};
    use magik_cert::{check_certificate, check_complete, check_repair, CertError};
    use magik_relalg::Vocabulary;

    fn assert_valid(q: &Query, tcs: &TcSet) -> Certificate {
        let cert = certify(q, tcs);
        assert_eq!(
            check_certificate(q, &cert_statements(tcs), &cert),
            Ok(()),
            "emitted certificate must validate"
        );
        cert
    }

    #[test]
    fn complete_verdicts_carry_valid_witnesses() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let cert = assert_valid(&q, &tcs);
        assert!(matches!(cert, Certificate::Complete(_)));
    }

    #[test]
    fn incomplete_verdicts_carry_counterexample_and_repair() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let cert = assert_valid(&q, &tcs);
        match cert {
            Certificate::Incomplete { repair, .. } => {
                let repair = repair.expect("incomplete verdicts carry a repair");
                // The repair is exactly the uncovered learns-atom.
                assert_eq!(repair.additions.len(), 1);
            }
            Certificate::Complete(_) => panic!("q_pbl is incomplete"),
        }
    }

    #[test]
    fn cyclic_and_table1_fixtures_certify() {
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        assert_valid(&q, &tcs);
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        assert_valid(&q, &tcs);
    }

    #[test]
    fn repair_removal_flips_validation() {
        // Acceptance criterion: the repair set is 1-minimal — removing any
        // element makes the completeness half of the repair fail.
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let Certificate::Incomplete {
            repair: Some(repair),
            ..
        } = certify(&q, &tcs)
        else {
            panic!("q_pbl is incomplete with a repair");
        };
        let stmts = cert_statements(&tcs);
        assert_eq!(check_repair(&q, &stmts, &repair), Ok(()));
        for i in 0..repair.additions.len() {
            let mut broken = repair.clone();
            broken.additions.remove(i);
            broken.minimality.remove(i);
            assert!(
                check_repair(&q, &stmts, &broken).is_err(),
                "removing addition {i} must flip validation"
            );
        }
    }

    #[test]
    fn empty_tcs_repair_covers_every_body_pattern() {
        let mut v = Vocabulary::new();
        let q = q_ppb(&mut v);
        let tcs = TcSet::default();
        let repairs = repair_suggestions(&q, &tcs);
        assert!(!repairs.is_empty());
        assert!(is_complete(
            &q,
            &with_statements(
                &tcs,
                &repairs.iter().map(|s| s.head.clone()).collect::<Vec<_>>()
            )
        ));
        assert!(matches!(
            certify(&q, &tcs),
            Certificate::Incomplete {
                repair: Some(_),
                ..
            }
        ));
        assert_valid(&q, &tcs);
    }

    #[test]
    fn mcg_and_kmcs_pair_with_valid_complete_certs() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let statements = cert_statements(&tcs);
        let g = crate::generalize::mcg(&q, &tcs).expect("q_pbl has an MCG");
        let cert = certify(&g, &tcs);
        assert!(
            matches!(cert, Certificate::Complete(_)),
            "the MCG is complete"
        );
        assert_eq!(check_certificate(&g, &statements, &cert), Ok(()));
        let specs =
            crate::specialize::k_mcs(&q, &tcs, &mut v, crate::specialize::KMcsOptions::new(1));
        for s in &specs.queries {
            let cert = certify(s, &tcs);
            assert!(
                matches!(cert, Certificate::Complete(_)),
                "each k-MCS is complete"
            );
            assert_eq!(check_certificate(s, &statements, &cert), Ok(()));
        }
    }

    #[test]
    fn forged_certificates_are_rejected() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let Certificate::Complete(mut cert) = certify(&q, &tcs) else {
            panic!("q_ppb is complete");
        };
        // Swap the verdict's witness onto a weaker statement set: the
        // checker catches the now-dangling statement indices or unmet
        // conditions.
        let weak = TcSet::new(vec![tcs.statements()[0].clone()]);
        assert!(check_complete(&q, &cert_statements(&weak), &cert).is_err());
        // Forge θ: claim the head maps elsewhere.
        cert.theta.clear();
        assert!(matches!(
            check_complete(&q, &cert_statements(&tcs), &cert),
            Err(CertError::Unbound(_))
        ));
    }
}
