//! First-order terms with compound structure.

/// An interned functor or atom name (see [`super::KnowledgeBase`]).
pub type Sym = u32;

/// A first-order term.
///
/// Constants are applications with zero arguments (`App(sym, [])`), as in
/// most Prolog implementations. Variables are identified by clause-local or
/// machine-global indexes; renaming apart is done by offsetting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A logic variable.
    Var(usize),
    /// A functor application `f(t₁, …, tₙ)`; `n = 0` is an atom.
    App(Sym, Vec<Term>),
}

impl Term {
    /// An atom (zero-argument application).
    pub fn atom(sym: Sym) -> Term {
        Term::App(sym, Vec::new())
    }

    /// `true` iff the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// `true` iff the variable `v` occurs in the term.
    pub fn mentions(&self, v: usize) -> bool {
        match self {
            Term::Var(u) => *u == v,
            Term::App(_, args) => args.iter().any(|t| t.mentions(v)),
        }
    }

    /// The largest variable index occurring in the term, if any.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Term::Var(v) => Some(*v),
            Term::App(_, args) => args.iter().filter_map(Term::max_var).max(),
        }
    }

    /// Shifts every variable index by `offset` (renaming apart).
    pub fn shift_vars(&self, offset: usize) -> Term {
        match self {
            Term::Var(v) => Term::Var(v + offset),
            Term::App(f, args) => {
                Term::App(*f, args.iter().map(|t| t.shift_vars(offset)).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groundness() {
        let f = 0;
        let ground = Term::App(f, vec![Term::atom(1), Term::atom(2)]);
        let open = Term::App(f, vec![Term::Var(0), Term::atom(2)]);
        assert!(ground.is_ground());
        assert!(!open.is_ground());
    }

    #[test]
    fn mentions_searches_deep() {
        let t = Term::App(0, vec![Term::App(1, vec![Term::Var(3)])]);
        assert!(t.mentions(3));
        assert!(!t.mentions(2));
    }

    #[test]
    fn shift_and_max_var() {
        let t = Term::App(0, vec![Term::Var(1), Term::App(1, vec![Term::Var(4)])]);
        assert_eq!(t.max_var(), Some(4));
        let shifted = t.shift_vars(10);
        assert_eq!(shifted.max_var(), Some(14));
        assert_eq!(Term::atom(0).max_var(), None);
    }
}
