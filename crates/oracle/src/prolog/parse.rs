//! A small recursive-descent parser for conventional Prolog syntax.
//!
//! Supported: facts `p(a, b).`, rules `h :- g1, g2.`, atoms and compound
//! terms (lowercase functors), variables (leading uppercase or `_`),
//! list sugar (`[]`, `[a, b]`, `[H | T]` — desugared to `nil`/`cons`),
//! `%`-to-end-of-line comments. Not supported (not needed by the engine):
//! operators, numbers, strings, cut.

use std::collections::HashMap;
use std::fmt;

use super::kb::{Clause, KnowledgeBase};
use super::term::Term;

/// A parse error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    kb: &'a mut KnowledgeBase,
    /// Variable name → index, scoped to one clause or query.
    vars: HashMap<String, usize>,
    var_names: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(kb: &'a mut KnowledgeBase, src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            kb,
            vars: HashMap::new(),
            var_names: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.src.len() && self.src[self.pos] == b'%' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", c as char)))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// `[t1, t2 | Tail]` desugared onto `cons`/`nil`.
    fn list(&mut self) -> Result<Term, ParseError> {
        let nil = self.kb.sym("nil");
        let cons = self.kb.sym("cons");
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Term::atom(nil));
        }
        let mut items = vec![self.term()?];
        loop {
            self.skip_ws();
            if self.eat(b',') {
                items.push(self.term()?);
            } else if self.eat(b'|') {
                let tail = self.term()?;
                self.skip_ws();
                self.expect(b']')?;
                return Ok(items
                    .into_iter()
                    .rev()
                    .fold(tail, |acc, h| Term::App(cons, vec![h, acc])));
            } else {
                self.expect(b']')?;
                return Ok(items
                    .into_iter()
                    .rev()
                    .fold(Term::atom(nil), |acc, h| Term::App(cons, vec![h, acc])));
            }
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        let Some(c) = self.peek() else {
            return Err(self.error("unexpected end of input"));
        };
        if c == b'[' {
            self.pos += 1;
            self.list()
        } else if c.is_ascii_uppercase() || c == b'_' {
            let name = self.ident()?;
            // `_` alone is an anonymous variable: always fresh.
            let idx = if name == "_" {
                let idx = self.var_names.len();
                self.var_names.push(format!("_G{idx}"));
                idx
            } else if let Some(&idx) = self.vars.get(&name) {
                idx
            } else {
                let idx = self.var_names.len();
                self.vars.insert(name.clone(), idx);
                self.var_names.push(name);
                idx
            };
            Ok(Term::Var(idx))
        } else if c.is_ascii_lowercase() {
            let name = self.ident()?;
            let sym = self.kb.sym(&name);
            self.skip_ws();
            if self.eat(b'(') {
                let mut args = Vec::new();
                loop {
                    args.push(self.term()?);
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    self.expect(b')')?;
                    break;
                }
                Ok(Term::App(sym, args))
            } else {
                Ok(Term::atom(sym))
            }
        } else {
            Err(self.error(format!("unexpected character '{}'", c as char)))
        }
    }

    /// `goal (, goal)*`
    fn goals(&mut self) -> Result<Vec<Term>, ParseError> {
        let mut out = vec![self.term()?];
        loop {
            self.skip_ws();
            if self.eat(b',') {
                out.push(self.term()?);
            } else {
                return Ok(out);
            }
        }
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        self.vars.clear();
        self.var_names.clear();
        let head = self.term()?;
        if matches!(head, Term::Var(_)) {
            return Err(self.error("clause head cannot be a variable"));
        }
        self.skip_ws();
        let body = if self.eat(b':') {
            self.expect(b'-')?;
            self.goals()?
        } else {
            Vec::new()
        };
        self.skip_ws();
        self.expect(b'.')?;
        Ok(Clause::new(head, body))
    }
}

/// Parses a whole program: a sequence of clauses.
pub(crate) fn parse_program(kb: &mut KnowledgeBase, src: &str) -> Result<Vec<Clause>, ParseError> {
    let mut p = Parser::new(kb, src);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.peek().is_none() {
            return Ok(out);
        }
        out.push(p.clause()?);
    }
}

/// Parses a query: goals terminated by `.`. Returns the goals and the query
/// variable names (indexed by variable id).
pub(crate) fn parse_query(
    kb: &mut KnowledgeBase,
    src: &str,
) -> Result<(Vec<Term>, Vec<String>), ParseError> {
    let mut p = Parser::new(kb, src);
    let goals = p.goals()?;
    p.skip_ws();
    p.expect(b'.')?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.error("trailing input after query"));
    }
    Ok((goals, p.var_names))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_and_rules() {
        let mut kb = KnowledgeBase::new();
        let clauses = parse_program(&mut kb, "p(a).\n% a comment\nq(X, Y) :- p(X), p(Y).").unwrap();
        assert_eq!(clauses.len(), 2);
        assert!(clauses[0].body.is_empty());
        assert_eq!(clauses[1].body.len(), 2);
        assert_eq!(clauses[1].num_vars, 2);
    }

    #[test]
    fn variables_are_scoped_per_clause() {
        let mut kb = KnowledgeBase::new();
        let clauses = parse_program(&mut kb, "p(X) :- q(X). r(X) :- s(X).").unwrap();
        // Both clauses use variable index 0 independently.
        assert_eq!(clauses[0].num_vars, 1);
        assert_eq!(clauses[1].num_vars, 1);
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let mut kb = KnowledgeBase::new();
        let clauses = parse_program(&mut kb, "p(a) :- q(_, _).").unwrap();
        assert_eq!(clauses[0].num_vars, 2);
    }

    #[test]
    fn nested_compounds() {
        let mut kb = KnowledgeBase::new();
        let (goals, vars) = parse_query(&mut kb, "append(cons(a, nil), Y, Z).").unwrap();
        assert_eq!(goals.len(), 1);
        assert_eq!(vars, vec!["Y".to_owned(), "Z".to_owned()]);
        let Term::App(_, args) = &goals[0] else {
            panic!()
        };
        assert!(matches!(&args[0], Term::App(_, inner) if inner.len() == 2));
    }

    #[test]
    fn list_sugar_desugars_to_cons_nil() {
        let mut kb = KnowledgeBase::new();
        let (goals, _) = parse_query(&mut kb, "p([]).").unwrap();
        let nil = kb.sym("nil");
        let Term::App(_, args) = &goals[0] else {
            panic!()
        };
        assert_eq!(args[0], Term::atom(nil));

        let (goals, _) = parse_query(&mut kb, "p([a, b]).").unwrap();
        let cons = kb.sym("cons");
        let a = kb.sym("a");
        let b = kb.sym("b");
        let Term::App(_, args) = &goals[0] else {
            panic!()
        };
        assert_eq!(
            args[0],
            Term::App(
                cons,
                vec![
                    Term::atom(a),
                    Term::App(cons, vec![Term::atom(b), Term::atom(nil)])
                ]
            )
        );

        // Open tail.
        let (goals, vars) = parse_query(&mut kb, "p([H | T]).").unwrap();
        assert_eq!(vars, vec!["H".to_owned(), "T".to_owned()]);
        let Term::App(_, args) = &goals[0] else {
            panic!()
        };
        assert_eq!(args[0], Term::App(cons, vec![Term::Var(0), Term::Var(1)]));

        // Nested lists.
        let (goals, _) = parse_query(&mut kb, "p([[a], []]).").unwrap();
        assert_eq!(goals.len(), 1);

        // Malformed lists.
        assert!(parse_query(&mut kb, "p([a,).").is_err());
        assert!(parse_query(&mut kb, "p([a | b, c]).").is_err());
    }

    #[test]
    fn rejects_variable_heads_and_garbage() {
        let mut kb = KnowledgeBase::new();
        assert!(parse_program(&mut kb, "X :- p(a).").is_err());
        assert!(parse_program(&mut kb, "p(a)").is_err()); // missing dot
        assert!(parse_query(&mut kb, "p(a). extra").is_err());
        assert!(parse_query(&mut kb, "p(,).").is_err());
    }
}
