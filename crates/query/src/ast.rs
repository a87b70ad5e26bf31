//! The conjunctive-query AST.

use cqa_common::{CqaError, Result};
use cqa_storage::{RelId, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Dense id of a variable within one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A term of an atom: a variable or a constant.
///
/// Constants are stored as schema-level [`Value`]s so a query is
/// independent of any particular database's string dictionary; evaluation
/// resolves them against the target database (a constant whose string the
/// database has never seen simply matches nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

/// An atom `R(t₁, …, tₙ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// Terms, one per column.
    pub terms: Vec<Term>,
}

impl Atom {
    /// The variables occurring in this atom, in position order (with
    /// duplicates for repeated variables).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        })
    }

    /// Number of constant terms.
    pub fn constant_count(&self) -> usize {
        self.terms.iter().filter(|t| matches!(t, Term::Const(_))).count()
    }
}

/// A conjunctive query `Q(x̄) :- R₁(z̄₁), …, Rₙ(z̄ₙ)`.
///
/// Every head variable must occur in some atom (safety); the remaining
/// variables are existentially quantified. The *number of joins* of a CQ —
/// the static parameter tuned by the paper's SQG — is taken as the number
/// of additional atom-incidences of its variables: `Σ_v (occ(v) − 1)` over
/// variables `v` occurring in ≥ 2 distinct atoms, which matches the SQG's
/// construction of one join condition per shared variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Query name (for display).
    pub name: String,
    /// Answer variables `x̄`.
    pub head: Vec<VarId>,
    /// Body atoms.
    pub atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Builds a query, validating safety (head variables occur in the body)
    /// and that variable ids are dense in `0..var_names.len()`.
    pub fn new(
        name: impl Into<String>,
        head: Vec<VarId>,
        atoms: Vec<Atom>,
        var_names: Vec<String>,
    ) -> Result<Self> {
        let n = var_names.len() as u32;
        let mut seen = vec![false; n as usize];
        for atom in &atoms {
            for v in atom.vars() {
                if v.0 >= n {
                    return Err(CqaError::Parse(format!("variable id {} out of range", v.0)));
                }
                seen[v.idx()] = true;
            }
        }
        for &h in &head {
            if h.0 >= n || !seen[h.idx()] {
                return Err(CqaError::Parse(format!(
                    "head variable {} does not occur in the body (unsafe query)",
                    var_names.get(h.idx()).cloned().unwrap_or_else(|| format!("#{}", h.0))
                )));
            }
        }
        if atoms.is_empty() {
            return Err(CqaError::Parse("query must have at least one atom".into()));
        }
        Ok(ConjunctiveQuery { name: name.into(), head, atoms, var_names })
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.idx()]
    }

    /// True when the query is Boolean (no answer variables).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// The number of joins: `Σ_v (occurrences-in-distinct-atoms(v) − 1)`.
    pub fn join_count(&self) -> usize {
        let mut total = 0;
        for v in 0..self.num_vars() as u32 {
            let occ = self.atoms.iter().filter(|a| a.vars().any(|w| w == VarId(v))).count();
            if occ > 1 {
                total += occ - 1;
            }
        }
        total
    }

    /// Total number of constant occurrences in the body (the SQG's `c`).
    pub fn constant_count(&self) -> usize {
        self.atoms.iter().map(Atom::constant_count).sum()
    }

    /// The set of distinct variables occurring in the body.
    pub fn body_vars(&self) -> BTreeSet<VarId> {
        self.atoms.iter().flat_map(|a| a.vars().collect::<Vec<_>>()).collect()
    }

    /// A copy of this query with a different head (projection). Used by the
    /// dynamic query generator, which varies the projected attributes to
    /// tune balance, and to form the Boolean version `Q_p[0]`.
    pub fn with_head(&self, name: impl Into<String>, head: Vec<VarId>) -> Result<Self> {
        Self::new(name, head, self.atoms.clone(), self.var_names.clone())
    }

    /// The Boolean version of this query (all variables quantified).
    #[expect(clippy::expect_used, reason = "dropping the head cannot make a query unsafe")]
    pub fn boolean(&self) -> Self {
        self.with_head(format!("{}_bool", self.name), Vec::new())
            .expect("dropping the head cannot make a query unsafe")
    }

    /// Renders the query in the surface syntax, e.g.
    /// `Q(x) :- employee(x, y, 'HR')`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        QueryDisplay { q: self, schema }
    }
}

struct QueryDisplay<'a> {
    q: &'a ConjunctiveQuery,
    schema: &'a Schema,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.q.name)?;
        for (i, v) in self.q.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.q.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.q.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.relation(atom.rel).name)?;
            for (j, t) in atom.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                match t {
                    Term::Var(v) => write!(f, "{}", self.q.var_name(*v))?,
                    Term::Const(c) => write!(f, "{c}")?,
                }
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_storage::ColumnType::*;

    fn schema() -> Schema {
        Schema::builder()
            .relation("r", &[("a", Int), ("b", Int)], Some(1))
            .relation("s", &[("c", Int), ("d", Int)], Some(1))
            .build()
    }

    fn rid(s: &Schema, name: &str) -> RelId {
        s.rel_id(name).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let s = schema();
        let q = ConjunctiveQuery::new(
            "Q",
            vec![VarId(0)],
            vec![
                Atom { rel: rid(&s, "r"), terms: vec![Term::Var(VarId(0)), Term::Var(VarId(1))] },
                Atom {
                    rel: rid(&s, "s"),
                    terms: vec![Term::Var(VarId(1)), Term::Const(Value::Int(5))],
                },
            ],
            vec!["x".into(), "y".into()],
        )
        .unwrap();
        assert_eq!(q.num_vars(), 2);
        assert!(!q.is_boolean());
        assert_eq!(q.join_count(), 1);
        assert_eq!(q.constant_count(), 1);
        assert_eq!(q.body_vars().len(), 2);
    }

    #[test]
    fn unsafe_head_is_rejected() {
        let s = schema();
        let err = ConjunctiveQuery::new(
            "Q",
            vec![VarId(1)],
            vec![Atom { rel: rid(&s, "r"), terms: vec![Term::Var(VarId(0)), Term::Var(VarId(0))] }],
            vec!["x".into(), "y".into()],
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_body_is_rejected() {
        let err = ConjunctiveQuery::new("Q", vec![], vec![], vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn boolean_projection_drops_head() {
        let s = schema();
        let q = ConjunctiveQuery::new(
            "Q",
            vec![VarId(0)],
            vec![Atom { rel: rid(&s, "r"), terms: vec![Term::Var(VarId(0)), Term::Var(VarId(1))] }],
            vec!["x".into(), "y".into()],
        )
        .unwrap();
        let b = q.boolean();
        assert!(b.is_boolean());
        assert_eq!(b.atoms, q.atoms);
    }

    #[test]
    fn join_count_counts_shared_occurrences() {
        let s = schema();
        // x shared by three atoms: 2 joins; y in one atom: 0 joins.
        let mk_atom = |rel| Atom { rel, terms: vec![Term::Var(VarId(0)), Term::Var(VarId(1))] };
        let q = ConjunctiveQuery::new(
            "Q",
            vec![],
            vec![mk_atom(rid(&s, "r")), mk_atom(rid(&s, "s")), mk_atom(rid(&s, "r"))],
            vec!["x".into(), "y".into()],
        )
        .unwrap();
        assert_eq!(q.join_count(), 2 + 2);
    }

    #[test]
    fn display_renders_surface_syntax() {
        let s = schema();
        let q = ConjunctiveQuery::new(
            "Q",
            vec![VarId(0)],
            vec![Atom {
                rel: rid(&s, "r"),
                terms: vec![Term::Var(VarId(0)), Term::Const(Value::str("hi"))],
            }],
            vec!["x".into()],
        )
        .unwrap();
        assert_eq!(q.display(&s).to_string(), "Q(x) :- r(x, 'hi')");
    }
}
