//! A mini Prolog: SLD resolution over first-order terms.
//!
//! The paper's Section 5 implements the specialization algorithms by
//! *backward rule application* in SWI-Prolog, because specialization is
//! driven by unification. This module is the from-scratch analogue of that
//! substrate: a small logic-programming engine with
//!
//! * first-order **terms** with compound structure ([`Term`]), parsed from
//!   a conventional syntax (`append(cons(H,T), Y, cons(H,Z))`);
//! * a **knowledge base** of Horn clauses ([`KnowledgeBase`]), indexed by
//!   functor/arity;
//! * **SLD resolution** with trail-based backtracking, optional occurs
//!   check, and step bounds ([`Solver`], [`SolveResult`]).
//!
//! The completeness reasoner itself unifies flat relational atoms and uses
//! `magik-unify` directly; this engine demonstrates (and tests) the same
//! search discipline on general terms, and the umbrella crate's
//! `engine_cross_validation` test checks query evaluation and the
//! completeness check against backward chaining on it.
//!
//! # Example
//!
//! ```
//! use magik_oracle::prolog::KnowledgeBase;
//!
//! let mut kb = KnowledgeBase::new();
//! kb.consult(
//!     "append(nil, Y, Y).
//!      append(cons(H, T), Y, cons(H, Z)) :- append(T, Y, Z).",
//! ).unwrap();
//!
//! let result = kb.query("append(X, Y, cons(a, cons(b, nil))).").unwrap();
//! assert_eq!(result.solutions.len(), 3); // all splits of [a, b]
//! assert!(result.complete);
//! ```
mod kb;
mod parse;
mod solve;
mod term;

pub use kb::{Clause, KnowledgeBase};
pub use parse::ParseError;
pub use solve::{Solution, SolveResult, Solver, SolverConfig};
pub use term::{Sym, Term};
