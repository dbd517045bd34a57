//! SLD resolution with trail-based backtracking.

use super::kb::{Clause, KnowledgeBase};
use super::parse::ParseError;
use super::term::Term;

/// Search bounds and semantics options.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Maximum number of clause-resolution steps before the search is cut
    /// off (guards against non-terminating programs).
    pub max_steps: usize,
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Perform the occurs check during unification. Unlike most Prologs
    /// (which skip it for speed), the default here is `true`: soundness
    /// matters more than raw speed for a reasoning substrate.
    pub occurs_check: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_steps: 1_000_000,
            max_solutions: usize::MAX,
            occurs_check: true,
        }
    }
}

/// One solution: the reified images of the query variables, paired with
/// their names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// `(variable name, bound term)` for every named query variable.
    pub bindings: Vec<(String, Term)>,
}

/// The outcome of a query.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The solutions found, in SLD (depth-first, clause-order) order.
    pub solutions: Vec<Solution>,
    /// `true` iff the whole search tree was explored: no step or solution
    /// bound was hit. If `false`, more solutions may exist.
    pub complete: bool,
    /// Number of resolution steps performed.
    pub steps: usize,
}

/// The built-in predicates of the engine. User clauses for these
/// functor/arity pairs are never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    /// `true/0` — always succeeds.
    True,
    /// `fail/0` — always fails.
    Fail,
    /// `eq(A, B)` — unifies its arguments.
    Eq,
    /// `neq(A, B)` — succeeds iff the arguments are not unifiable.
    Neq,
    /// `not(G)` — negation as failure: succeeds iff `G` has no proof
    /// under the current bindings. As in standard Prolog, only sound when
    /// `G` is ground at call time.
    Not,
}

/// An SLD resolution engine over a [`KnowledgeBase`].
#[derive(Debug)]
pub struct Solver<'a> {
    kb: &'a KnowledgeBase,
    config: SolverConfig,
    bindings: Vec<Option<Term>>,
    trail: Vec<usize>,
    steps: usize,
    truncated: bool,
    builtins: Vec<(super::term::Sym, usize, Builtin)>,
}

impl<'a> Solver<'a> {
    /// Creates a solver with the default configuration.
    pub fn new(kb: &'a KnowledgeBase) -> Self {
        Solver::with_config(kb, SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(kb: &'a KnowledgeBase, config: SolverConfig) -> Self {
        let mut builtins = Vec::new();
        for (name, arity, builtin) in [
            ("true", 0, Builtin::True),
            ("fail", 0, Builtin::Fail),
            ("eq", 2, Builtin::Eq),
            ("neq", 2, Builtin::Neq),
            ("not", 1, Builtin::Not),
        ] {
            if let Some(sym) = kb.lookup_sym(name) {
                builtins.push((sym, arity, builtin));
            }
        }
        Solver {
            kb,
            config,
            bindings: Vec::new(),
            trail: Vec::new(),
            steps: 0,
            truncated: false,
            builtins,
        }
    }

    fn builtin_of(&self, functor: super::term::Sym, arity: usize) -> Option<Builtin> {
        self.builtins
            .iter()
            .find(|&&(f, a, _)| f == functor && a == arity)
            .map(|&(_, _, b)| b)
    }

    /// Solves a conjunction of goals. `var_names` names the query
    /// variables (indexes `0..var_names.len()` in the goals), as returned
    /// by [`KnowledgeBase::parse_query`].
    pub fn solve(&mut self, goals: &[Term], var_names: &[String]) -> SolveResult {
        self.steps = 0;
        self.truncated = false;
        self.trail.clear();
        let num_vars = goals
            .iter()
            .filter_map(Term::max_var)
            .max()
            .map_or(var_names.len(), |m| (m + 1).max(var_names.len()));
        self.bindings = vec![None; num_vars];

        // The goal stack holds goals in reverse: the first goal to solve is
        // on top.
        let mut stack: Vec<Term> = goals.iter().rev().cloned().collect();
        let mut solutions = Vec::new();
        let max_solutions = self.config.max_solutions;
        let complete = self.dfs(&mut stack, &mut |solver| {
            solutions.push(Solution {
                bindings: var_names
                    .iter()
                    .enumerate()
                    .map(|(i, name)| (name.clone(), solver.reify(&Term::Var(i))))
                    .collect(),
            });
            solutions.len() < max_solutions
        });
        SolveResult {
            solutions,
            complete: complete && !self.truncated,
            steps: self.steps,
        }
    }

    /// Depth-first SLD search. `on_solution` is called on every proof of
    /// the whole stack and returns `false` to stop the search. Returns
    /// `true` iff the subtree was fully explored. Restores `stack`,
    /// bindings and trail to their entry state before returning.
    fn dfs(&mut self, stack: &mut Vec<Term>, on_solution: &mut dyn FnMut(&Self) -> bool) -> bool {
        let Some(goal) = stack.pop() else {
            return on_solution(self);
        };
        let resolved = self.walk(goal.clone());
        let mut exhaustive = true;
        if let Term::App(functor, args) = &resolved {
            if let Some(builtin) = self.builtin_of(*functor, args.len()) {
                let cont = self.solve_builtin(builtin, args, stack, on_solution);
                stack.push(goal);
                return cont;
            }
            // The clause slice borrows from `self.kb` (lifetime 'a), which
            // is disjoint from the solver's mutable state.
            let clauses: &'a [Clause] = self.kb.clauses_for(*functor, args.len());
            for clause in clauses {
                if self.steps >= self.config.max_steps {
                    self.truncated = true;
                    exhaustive = false;
                    break;
                }
                self.steps += 1;
                let base = self.bindings.len();
                self.bindings.resize(base + clause.num_vars, None);
                let mark = self.trail.len();
                let head = clause.head.shift_vars(base);
                if self.unify(&resolved, &head) {
                    let depth = stack.len();
                    for g in clause.body.iter().rev() {
                        stack.push(g.shift_vars(base));
                    }
                    let cont = self.dfs(stack, on_solution);
                    stack.truncate(depth);
                    if !cont {
                        self.undo(mark);
                        self.bindings.truncate(base);
                        stack.push(goal);
                        return false;
                    }
                }
                self.undo(mark);
                self.bindings.truncate(base);
            }
        }
        // An unbound-variable goal fails silently (no clauses can match);
        // real Prologs raise an instantiation error here.
        stack.push(goal);
        exhaustive
    }

    /// Handles one built-in goal. The goal itself is already popped from
    /// `stack`; the caller restores it.
    fn solve_builtin(
        &mut self,
        builtin: Builtin,
        args: &[Term],
        stack: &mut Vec<Term>,
        on_solution: &mut dyn FnMut(&Self) -> bool,
    ) -> bool {
        self.steps += 1;
        match builtin {
            Builtin::True => self.dfs(stack, on_solution),
            Builtin::Fail => true,
            Builtin::Eq => {
                let mark = self.trail.len();
                let cont = if self.unify(&args[0], &args[1]) {
                    self.dfs(stack, on_solution)
                } else {
                    true
                };
                self.undo(mark);
                cont
            }
            Builtin::Neq => {
                let mark = self.trail.len();
                let unifiable = self.unify(&args[0], &args[1]);
                self.undo(mark);
                if unifiable {
                    true // \= fails: exhausted with no solutions
                } else {
                    self.dfs(stack, on_solution)
                }
            }
            Builtin::Not => {
                let mark = self.trail.len();
                let mut proved = false;
                let mut sub_stack = vec![args[0].clone()];
                let exhaustive = self.dfs(&mut sub_stack, &mut |_| {
                    proved = true;
                    false // stop at the first proof
                });
                self.undo(mark);
                if proved {
                    true // goal provable: not(G) fails, branch exhausted
                } else if !exhaustive {
                    // The sub-proof was cut off by the step budget: the
                    // answer is unreliable, so fail conservatively (the
                    // overall result is already marked truncated).
                    true
                } else {
                    self.dfs(stack, on_solution)
                }
            }
        }
    }

    /// Follows variable bindings at the top level only.
    fn walk(&self, mut t: Term) -> Term {
        while let Term::Var(v) = t {
            match &self.bindings[v] {
                Some(bound) => t = bound.clone(),
                None => break,
            }
        }
        t
    }

    /// Deeply resolves a term.
    fn reify(&self, t: &Term) -> Term {
        match self.walk(t.clone()) {
            Term::Var(v) => Term::Var(v),
            Term::App(f, args) => Term::App(f, args.iter().map(|a| self.reify(a)).collect()),
        }
    }

    fn occurs(&self, v: usize, t: &Term) -> bool {
        match self.walk(t.clone()) {
            Term::Var(u) => u == v,
            Term::App(_, args) => args.iter().any(|a| self.occurs(v, a)),
        }
    }

    fn bind(&mut self, v: usize, t: Term) {
        debug_assert!(self.bindings[v].is_none());
        self.bindings[v] = Some(t);
        self.trail.push(v);
    }

    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail length checked");
            self.bindings[v] = None;
        }
    }

    /// Unifies two terms under the current bindings. Partial bindings made
    /// by a failing unification are the caller's responsibility to undo
    /// (via the trail mark taken before the attempt).
    fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let a = self.walk(a.clone());
        let b = self.walk(b.clone());
        match (a, b) {
            (Term::Var(x), Term::Var(y)) => {
                if x != y {
                    self.bind(x, Term::Var(y));
                }
                true
            }
            (Term::Var(x), t) | (t, Term::Var(x)) => {
                if self.config.occurs_check && self.occurs(x, &t) {
                    return false;
                }
                self.bind(x, t);
                true
            }
            (Term::App(f, fa), Term::App(g, ga)) => {
                f == g && fa.len() == ga.len() && fa.iter().zip(&ga).all(|(x, y)| self.unify(x, y))
            }
        }
    }
}

impl KnowledgeBase {
    /// Parses and solves a query with the default configuration.
    ///
    /// Convenience wrapper around [`KnowledgeBase::parse_query`] and
    /// [`Solver::solve`].
    pub fn query(&mut self, src: &str) -> Result<SolveResult, ParseError> {
        self.query_with(src, SolverConfig::default())
    }

    /// Parses and solves a query with an explicit configuration.
    pub fn query_with(
        &mut self,
        src: &str,
        config: SolverConfig,
    ) -> Result<SolveResult, ParseError> {
        let (goals, var_names) = self.parse_query(src)?;
        Ok(Solver::with_config(self, config).solve(&goals, &var_names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.consult(
            "parent(tom, bob).
             parent(tom, liz).
             parent(bob, ann).
             parent(bob, pat).
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .unwrap();
        kb
    }

    #[test]
    fn facts_are_solvable() {
        let mut kb = family_kb();
        let r = kb.query("parent(tom, bob).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert!(r.complete);
        let r = kb.query("parent(bob, tom).").unwrap();
        assert!(r.solutions.is_empty());
        assert!(r.complete);
    }

    #[test]
    fn variables_enumerate_all_matches() {
        let mut kb = family_kb();
        let r = kb.query("parent(tom, X).").unwrap();
        let values: Vec<String> = r
            .solutions
            .iter()
            .map(|s| kb.render(&s.bindings[0].1, &[]))
            .collect();
        assert_eq!(values, vec!["bob", "liz"]);
    }

    #[test]
    fn conjunction_and_rules() {
        let mut kb = family_kb();
        let r = kb.query("grandparent(tom, W).").unwrap();
        assert_eq!(r.solutions.len(), 2);
        let r = kb.query("ancestor(tom, pat).").unwrap();
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn append_splits() {
        let mut kb = KnowledgeBase::new();
        kb.consult(
            "append(nil, Y, Y).
             append(cons(H, T), Y, cons(H, Z)) :- append(T, Y, Z).",
        )
        .unwrap();
        let r = kb
            .query("append(X, Y, cons(a, cons(b, cons(c, nil)))).")
            .unwrap();
        assert_eq!(r.solutions.len(), 4);
        assert!(r.complete);
        // First solution is X = nil, Y = whole list.
        assert_eq!(kb.render(&r.solutions[0].bindings[0].1, &[]), "nil");
    }

    #[test]
    fn step_limit_cuts_infinite_search() {
        let mut kb = KnowledgeBase::new();
        kb.consult("loop(X) :- loop(X).").unwrap();
        let r = kb
            .query_with(
                "loop(a).",
                SolverConfig {
                    max_steps: 100,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        assert!(r.solutions.is_empty());
        assert!(!r.complete);
        assert!(r.steps >= 100);
    }

    #[test]
    fn max_solutions_stops_early() {
        let mut kb = family_kb();
        let r = kb
            .query_with(
                "parent(X, Y).",
                SolverConfig {
                    max_solutions: 2,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        assert_eq!(r.solutions.len(), 2);
        assert!(!r.complete);
    }

    #[test]
    fn occurs_check_rejects_cyclic_terms() {
        let mut kb = KnowledgeBase::new();
        kb.consult("eq(X, X).").unwrap();
        // X = f(X) must fail under the occurs check (with it disabled the
        // binding would become cyclic and reification would diverge, which
        // is exactly the classical Prolog unsoundness the check prevents).
        let r = kb.query("eq(X, f(X)).").unwrap();
        assert!(r.solutions.is_empty());
        assert!(r.complete);
        // Ground unification is unaffected by the occurs-check setting.
        let r = kb
            .query_with(
                "eq(a, a).",
                SolverConfig {
                    occurs_check: false,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn backtracking_restores_bindings() {
        let mut kb = KnowledgeBase::new();
        kb.consult(
            "p(a). p(b).
             q(b).
             both(X) :- p(X), q(X).",
        )
        .unwrap();
        // p(a) is tried first, q(a) fails, backtracks to p(b).
        let r = kb.query("both(X).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(kb.render(&r.solutions[0].bindings[0].1, &[]), "b");
    }

    #[test]
    fn solutions_respect_clause_order() {
        let mut kb = KnowledgeBase::new();
        kb.consult("n(zero). n(s(X)) :- n(X).").unwrap();
        let r = kb
            .query_with(
                "n(X).",
                SolverConfig {
                    max_solutions: 3,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        let rendered: Vec<String> = r
            .solutions
            .iter()
            .map(|s| kb.render(&s.bindings[0].1, &[]))
            .collect();
        assert_eq!(rendered, vec!["zero", "s(zero)", "s(s(zero))"]);
    }

    #[test]
    fn builtin_true_and_fail() {
        let mut kb = KnowledgeBase::new();
        kb.consult("p(a) :- true. q(a) :- fail.").unwrap();
        assert_eq!(kb.query("p(X).").unwrap().solutions.len(), 1);
        assert_eq!(kb.query("q(X).").unwrap().solutions.len(), 0);
        assert!(kb.query("q(X).").unwrap().complete);
    }

    #[test]
    fn builtin_eq_unifies() {
        let mut kb = KnowledgeBase::new();
        kb.consult("p(b). same(X, Y) :- eq(X, Y).").unwrap();
        let r = kb.query("eq(X, f(a)), eq(X, Y).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(kb.render(&r.solutions[0].bindings[1].1, &[]), "f(a)");
        // eq propagates through user rules too.
        let r = kb.query("same(c, c).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        let r = kb.query("same(c, d).").unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn builtin_neq_rejects_unifiable_terms() {
        let mut kb = KnowledgeBase::new();
        kb.consult("p(a). p(b).").unwrap();
        // Pairs of distinct p-atoms.
        let r = kb.query("p(X), p(Y), neq(X, Y).").unwrap();
        assert_eq!(r.solutions.len(), 2);
        // neq on an unbound variable fails (everything unifies with it).
        let r = kb.query("neq(X, a).").unwrap();
        assert!(r.solutions.is_empty());
        // neq leaves no bindings behind.
        let r = kb.query("neq(f(X), g(X)), p(X).").unwrap();
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn negation_as_failure() {
        let mut kb = KnowledgeBase::new();
        kb.consult(
            "bird(tweety). bird(polly).
             penguin(polly).
             flies(X) :- bird(X), not(penguin(X)).",
        )
        .unwrap();
        let r = kb.query("flies(X).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(kb.render(&r.solutions[0].bindings[0].1, &[]), "tweety");
        assert!(r.complete);
        // Double negation: not(not(bird(tweety))).
        let r = kb.query("not(not(bird(tweety))).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        let r = kb.query("not(bird(tweety)).").unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn naf_leaves_no_bindings() {
        let mut kb = KnowledgeBase::new();
        kb.consult("p(a). q(b).").unwrap();
        // The failed sub-proof of q(X) must not leave X bound.
        let r = kb.query("not(q(a)), p(X).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(kb.render(&r.solutions[0].bindings[0].1, &[]), "a");
    }

    #[test]
    fn truncated_naf_is_conservative() {
        let mut kb = KnowledgeBase::new();
        kb.consult("loop(X) :- loop(X). p(a).").unwrap();
        let r = kb
            .query_with(
                "not(loop(z)), p(X).",
                SolverConfig {
                    max_steps: 50,
                    ..SolverConfig::default()
                },
            )
            .unwrap();
        // The inner proof attempt diverges; the solver must not claim the
        // negation holds, and must flag the search as incomplete.
        assert!(r.solutions.is_empty());
        assert!(!r.complete);
    }

    #[test]
    fn unbound_goal_fails() {
        let mut kb = family_kb();
        // A bare variable goal cannot be resolved.
        let r = kb.query("X.").unwrap();
        assert!(r.solutions.is_empty());
        assert!(r.complete);
    }

    #[test]
    fn shared_variables_across_goals() {
        let mut kb = family_kb();
        let r = kb.query("parent(tom, X), parent(X, ann).").unwrap();
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(kb.render(&r.solutions[0].bindings[0].1, &[]), "bob");
    }
}
