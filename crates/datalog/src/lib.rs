//! A forward-chaining Datalog engine.
//!
//! The paper's Section 5 implements the generalization side of completeness
//! reasoning by *forward rule application* on a Datalog engine (the authors
//! used the ASP solver dlv, but only its positive-Datalog fragment — TC
//! rules are plain Horn rules). This crate is that substrate, built from
//! scratch on top of [`magik_relalg`]:
//!
//! * [`Rule`] and [`Program`] model positive Datalog programs with
//!   range-restriction validation;
//! * [`Program::eval_naive`] computes the least model by naive iteration;
//! * [`Program::eval_semi_naive`] computes the same model with semi-naive
//!   (delta-driven) evaluation, and [`Program::eval_semi_naive_on`] runs
//!   it on a [`magik_exec::Executor`] — the same rounds either way, each
//!   against a frozen snapshot of the model, with the executor deciding
//!   whether a round's units fan out;
//! * [`Materialized`] keeps a least model under insertion (delta rounds)
//!   and retraction (DRed), through those same rounds;
//! * [`Program::dependency_graph`] and [`Program::is_recursive`] expose the
//!   predicate dependency structure.
//!
//! # Example — transitive closure
//!
//! ```
//! use magik_relalg::{Vocabulary, Atom, Fact, Instance, Term};
//! use magik_datalog::{Program, Rule};
//!
//! let mut v = Vocabulary::new();
//! let edge = v.pred("edge", 2);
//! let path = v.pred("path", 2);
//! let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
//!
//! let program = Program::new(vec![
//!     Rule::new(
//!         Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
//!         vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
//!     ),
//!     Rule::new(
//!         Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
//!         vec![
//!             Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
//!             Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
//!         ],
//!     ),
//! ]).unwrap();
//!
//! let mut edb = Instance::new();
//! edb.insert(Fact::new(edge, vec![v.cst("a"), v.cst("b")]));
//! edb.insert(Fact::new(edge, vec![v.cst("b"), v.cst("c")]));
//!
//! let model = program.eval_semi_naive(&edb).model;
//! assert!(model.contains(&Fact::new(path, vec![v.cst("a"), v.cst("c")])));
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod eval;
mod incremental;
mod program;
mod provenance;

pub use eval::FixpointResult;
pub use incremental::{MaterializeError, Materialized, RetractStats};
pub use program::{Program, ProgramError, Rule};
pub use provenance::{DerivationTree, Justification, Provenance};
