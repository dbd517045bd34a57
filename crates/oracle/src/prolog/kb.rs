//! The knowledge base: interned names and indexed Horn clauses.

use std::collections::HashMap;
use std::fmt;

use super::parse::{parse_program, parse_query, ParseError};
use super::term::{Sym, Term};

/// A Horn clause `head :- body`. Facts have an empty body.
///
/// Variables are clause-local indexes `0..num_vars`; the solver renames
/// them apart by shifting when the clause is used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The head term (always an application).
    pub head: Term,
    /// The body goals.
    pub body: Vec<Term>,
    /// Number of distinct variables in the clause.
    pub num_vars: usize,
}

impl Clause {
    /// Creates a clause, computing `num_vars` from the terms.
    pub fn new(head: Term, body: Vec<Term>) -> Self {
        let num_vars = std::iter::once(&head)
            .chain(&body)
            .filter_map(Term::max_var)
            .max()
            .map_or(0, |m| m + 1);
        Clause {
            head,
            body,
            num_vars,
        }
    }
}

/// A Prolog knowledge base: an interner for functor names plus clauses
/// indexed by the functor/arity of their head.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    names: Vec<String>,
    by_name: HashMap<String, Sym>,
    clauses: HashMap<(Sym, usize), Vec<Clause>>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a functor or atom name.
    pub fn sym(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Sym::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// The spelling of an interned name.
    pub fn name(&self, s: Sym) -> &str {
        &self.names[s as usize]
    }

    /// Looks up an interned name without inserting.
    pub fn lookup_sym(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// Adds a clause. Panics if the head is a variable.
    pub fn add_clause(&mut self, clause: Clause) {
        let Term::App(f, args) = &clause.head else {
            panic!("clause head must be an application");
        };
        self.clauses
            .entry((*f, args.len()))
            .or_default()
            .push(clause);
    }

    /// The clauses whose head has the given functor and arity.
    pub fn clauses_for(&self, functor: Sym, arity: usize) -> &[Clause] {
        self.clauses
            .get(&(functor, arity))
            .map_or(&[], Vec::as_slice)
    }

    /// Total number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.values().map(Vec::len).sum()
    }

    /// `true` iff no clause has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parses a program (a sequence of clauses in conventional syntax) and
    /// adds every clause.
    ///
    /// ```
    /// # use magik_oracle::prolog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::new();
    /// kb.consult("parent(tom, bob). grandparent(X, Z) :- parent(X, Y), parent(Y, Z).").unwrap();
    /// assert_eq!(kb.len(), 2);
    /// ```
    pub fn consult(&mut self, src: &str) -> Result<(), ParseError> {
        for clause in parse_program(self, src)? {
            self.add_clause(clause);
        }
        Ok(())
    }

    /// Parses a query: a conjunction of goals terminated by `.`, returning
    /// the goals and the names of the query variables (indexed by variable
    /// id).
    pub fn parse_query(&mut self, src: &str) -> Result<(Vec<Term>, Vec<String>), ParseError> {
        parse_query(self, src)
    }

    /// Renders a term using the knowledge base's interner. Unbound
    /// variables are shown as `_N`; `var_names` supplies nicer names for
    /// low indexes (typically the query variables).
    pub fn render(&self, t: &Term, var_names: &[String]) -> String {
        let mut out = String::new();
        self.render_into(t, var_names, &mut out)
            .expect("writing to String cannot fail");
        out
    }

    fn render_into(&self, t: &Term, var_names: &[String], out: &mut String) -> fmt::Result {
        use fmt::Write;
        // Re-sugar cons/nil chains into list notation.
        if let Some((items, tail)) = self.as_list(t) {
            if !(items.is_empty() && tail.is_some()) {
                write!(out, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    self.render_into(item, var_names, out)?;
                }
                if let Some(tail) = tail {
                    write!(out, " | ")?;
                    self.render_into(tail, var_names, out)?;
                }
                write!(out, "]")?;
                return Ok(());
            }
        }
        match t {
            Term::Var(v) => match var_names.get(*v) {
                Some(name) => write!(out, "{name}"),
                None => write!(out, "_{v}"),
            },
            Term::App(f, args) => {
                write!(out, "{}", self.name(*f))?;
                if !args.is_empty() {
                    write!(out, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(out, ", ")?;
                        }
                        self.render_into(a, var_names, out)?;
                    }
                    write!(out, ")")?;
                }
                Ok(())
            }
        }
    }

    /// If `t` is a `cons`/`nil` chain, returns its item prefix and the
    /// non-`nil` tail (if improper). Returns `None` for non-list terms.
    fn as_list<'t>(&self, t: &'t Term) -> Option<(Vec<&'t Term>, Option<&'t Term>)> {
        let cons = self.by_name.get("cons").copied()?;
        let nil = self.by_name.get("nil").copied();
        let mut items = Vec::new();
        let mut current = t;
        loop {
            match current {
                Term::App(f, args) if *f == cons && args.len() == 2 => {
                    items.push(&args[0]);
                    current = &args[1];
                }
                Term::App(f, args) if Some(*f) == nil && args.is_empty() => {
                    return (!items.is_empty()).then_some((items, None));
                }
                other => {
                    return (!items.is_empty()).then_some((items, Some(other)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_num_vars_is_computed() {
        let c = Clause::new(
            Term::App(0, vec![Term::Var(0), Term::Var(2)]),
            vec![Term::App(1, vec![Term::Var(1)])],
        );
        assert_eq!(c.num_vars, 3);
        let fact = Clause::new(Term::atom(0), vec![]);
        assert_eq!(fact.num_vars, 0);
    }

    #[test]
    fn clauses_are_indexed_by_functor_and_arity() {
        let mut kb = KnowledgeBase::new();
        kb.consult("p(a). p(b). p(a, b). q(c).").unwrap();
        let p = kb.sym("p");
        let q = kb.sym("q");
        assert_eq!(kb.clauses_for(p, 1).len(), 2);
        assert_eq!(kb.clauses_for(p, 2).len(), 1);
        assert_eq!(kb.clauses_for(q, 1).len(), 1);
        assert_eq!(kb.clauses_for(q, 2).len(), 0);
        assert_eq!(kb.len(), 4);
    }

    #[test]
    fn render_shows_vars_and_structure() {
        let mut kb = KnowledgeBase::new();
        let f = kb.sym("f");
        let a = kb.sym("a");
        let t = Term::App(f, vec![Term::Var(0), Term::atom(a), Term::Var(7)]);
        assert_eq!(kb.render(&t, &["X".to_owned()]), "f(X, a, _7)");
    }
}
