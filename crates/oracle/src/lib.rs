//! Test-only oracles for MAGIK-rs.
//!
//! Each module here is an independent, deliberately simple implementation
//! that the test suites and benches check the production engines against.
//! Nothing on a serving path may depend on this crate: it is
//! `publish = false`, and `ci/check_hygiene.sh` asserts that only
//! `[dev-dependencies]` sections (and the bench harness) name it.
//!
//! * [`seed_eval`] — the seed backtracking evaluator that `magik-relalg`
//!   shipped with before compiled plans, preserved verbatim as the oracle
//!   for `magik-exec`'s equivalence suite and as the baseline of the
//!   `exec_plans` bench;
//! * [`prolog`] — a mini SLD-resolution engine over compound terms, the
//!   analogue of the paper's SWI-Prolog substrate, used to cross-validate
//!   evaluation and the completeness check by backward chaining.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod prolog;
pub mod seed_eval;
