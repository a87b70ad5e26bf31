//! Schemas: relations with typed columns, primary keys, and foreign keys.
//!
//! Following the paper's w.l.o.g. assumption (§2), every primary key is a
//! *prefix* of the column list: `key(R) = {1, …, m}`. A relation may also
//! have no key at all, in which case each fact is its own block (the
//! `keyΣ(α) = ⟨R, c₁…cₙ⟩` case of the paper). Foreign keys carry no
//! integrity semantics here — they drive the *static query generator*'s
//! notion of joinable attribute pairs (Appendix D).

use cqa_common::{CqaError, Result};
use std::collections::HashMap;
use std::fmt;

/// Dense id of a relation inside a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integers (also dates and money, encoded).
    Int,
    /// Dictionary-encoded strings.
    Str,
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within its relation.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// A foreign key: `columns` of this relation reference `target_columns`
/// of `target`. Used by the query generators to find joinable attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column positions (0-based).
    pub columns: Vec<usize>,
    /// The referenced relation.
    pub target: RelId,
    /// Referenced column positions (0-based), same length as `columns`.
    pub target_columns: Vec<usize>,
}

/// A relation definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDef {
    /// Relation name, unique within the schema.
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<ColumnDef>,
    /// `Some(m)`: the primary key is the first `m` columns (1 ≤ m ≤ arity).
    /// `None`: no key constraint; every fact is its own block.
    pub key_len: Option<usize>,
    /// Foreign keys out of this relation.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelationDef {
    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub fn column_pos(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// True when position `pos` is part of the primary key.
    pub fn is_key_position(&self, pos: usize) -> bool {
        match self.key_len {
            Some(m) => pos < m,
            None => false,
        }
    }
}

/// A relational schema: a set of relation definitions addressable by name.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    relations: Vec<RelationDef>,
    by_name: HashMap<String, RelId>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// All relations in definition order.
    pub fn relations(&self) -> &[RelationDef] {
        &self.relations
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The definition of a relation.
    pub fn relation(&self, rel: RelId) -> &RelationDef {
        &self.relations[rel.idx()]
    }

    /// Looks up a relation by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a relation by name, failing with a descriptive error.
    pub fn require(&self, name: &str) -> Result<RelId> {
        self.rel_id(name).ok_or_else(|| CqaError::UnknownName(name.to_owned()))
    }

    /// Iterates `(RelId, &RelationDef)`.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationDef)> {
        self.relations.iter().enumerate().map(|(i, r)| (RelId(i as u32), r))
    }

    /// All joinable attribute pairs `((R, k), (P, ℓ))` induced by the
    /// foreign keys, in both directions. This is the joinability relation
    /// the static query generator samples from (Appendix D).
    pub fn joinable_pairs(&self) -> Vec<((RelId, usize), (RelId, usize))> {
        let mut out = Vec::new();
        for (rid, rel) in self.iter() {
            for fk in &rel.foreign_keys {
                for (&c, &tc) in fk.columns.iter().zip(&fk.target_columns) {
                    out.push(((rid, c), (fk.target, tc)));
                    out.push(((fk.target, tc), (rid, c)));
                }
            }
        }
        out
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in &self.relations {
            write!(f, "{}(", rel.name)?;
            for (i, c) in rel.columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                let key_mark = if rel.is_key_position(i) { "*" } else { "" };
                let ty = match c.ty {
                    ColumnType::Int => "int",
                    ColumnType::Str => "str",
                };
                write!(f, "{key_mark}{}: {ty}", c.name)?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

/// Incremental [`Schema`] construction with validation.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    relations: Vec<RelationDef>,
    by_name: HashMap<String, RelId>,
    pending_fks: Vec<(usize, Vec<String>, String, Vec<String>)>,
}

impl SchemaBuilder {
    /// Adds a relation. `key_len = Some(m)` declares `key(R) = {1..m}`.
    ///
    /// Columns are `(name, type)` pairs; the key columns must come first,
    /// per the paper's convention.
    pub fn relation(
        mut self,
        name: &str,
        columns: &[(&str, ColumnType)],
        key_len: Option<usize>,
    ) -> Self {
        assert!(!columns.is_empty(), "relation {name} needs at least one column");
        if let Some(m) = key_len {
            assert!(
                m >= 1 && m <= columns.len(),
                "key length {m} invalid for arity {} of {name}",
                columns.len()
            );
        }
        assert!(!self.by_name.contains_key(name), "duplicate relation {name}");
        let id = RelId(self.relations.len() as u32);
        self.by_name.insert(name.to_owned(), id);
        self.relations.push(RelationDef {
            name: name.to_owned(),
            columns: columns
                .iter()
                .map(|(n, t)| ColumnDef { name: (*n).to_owned(), ty: *t })
                .collect(),
            key_len,
            foreign_keys: Vec::new(),
        });
        self
    }

    /// The relation `name` added so far, if any.
    pub(crate) fn declared(&self, name: &str) -> Option<&RelationDef> {
        self.by_name.get(name).and_then(|id| self.relations.get(id.idx()))
    }

    /// Declares a foreign key by column names. Resolved at [`Self::build`].
    pub fn foreign_key(mut self, from: &str, cols: &[&str], to: &str, to_cols: &[&str]) -> Self {
        assert_eq!(cols.len(), to_cols.len(), "FK column count mismatch");
        #[expect(
            clippy::panic,
            reason = "schemas declared in code fail loudly on an undeclared relation; \
                      `ddl::parse_schema` rejects dump DDL that would reach this"
        )]
        let from_idx = self
            .by_name
            .get(from)
            .unwrap_or_else(|| panic!("FK source relation {from} not declared yet"))
            .idx();
        self.pending_fks.push((
            from_idx,
            cols.iter().map(|s| (*s).to_owned()).collect(),
            to.to_owned(),
            to_cols.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Finalizes the schema, resolving foreign keys.
    pub fn build(mut self) -> Schema {
        for (from_idx, cols, to, to_cols) in std::mem::take(&mut self.pending_fks) {
            #[expect(
                clippy::panic,
                reason = "schemas declared in code fail loudly on an undeclared relation; \
                          `ddl::parse_schema` rejects dump DDL that would reach this"
            )]
            let target = *self
                .by_name
                .get(&to)
                .unwrap_or_else(|| panic!("FK target relation {to} not declared"));
            #[expect(
                clippy::panic,
                reason = "schemas declared in code fail loudly on an undeclared column; \
                          `ddl::parse_schema` rejects dump DDL that would reach this"
            )]
            let resolve = |rel: &RelationDef, names: &[String]| -> Vec<usize> {
                names
                    .iter()
                    .map(|n| {
                        rel.column_pos(n)
                            .unwrap_or_else(|| panic!("FK column {n} missing in {}", rel.name))
                    })
                    .collect()
            };
            let columns = resolve(&self.relations[from_idx], &cols);
            let target_columns = resolve(&self.relations[target.idx()], &to_cols);
            for (&c, &tc) in columns.iter().zip(&target_columns) {
                let a = self.relations[from_idx].columns[c].ty;
                let b = self.relations[target.idx()].columns[tc].ty;
                assert_eq!(a, b, "FK column type mismatch");
            }
            self.relations[from_idx].foreign_keys.push(ForeignKey {
                columns,
                target,
                target_columns,
            });
        }
        Schema { relations: self.relations, by_name: self.by_name }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn employee_schema() -> Schema {
        Schema::builder()
            .relation(
                "employee",
                &[("id", ColumnType::Int), ("name", ColumnType::Str), ("dept", ColumnType::Str)],
                Some(1),
            )
            .relation("dept", &[("dname", ColumnType::Str), ("floor", ColumnType::Int)], Some(1))
            .foreign_key("employee", &["dept"], "dept", &["dname"])
            .build()
    }

    #[test]
    fn lookup_by_name() {
        let s = employee_schema();
        let e = s.rel_id("employee").unwrap();
        assert_eq!(s.relation(e).name, "employee");
        assert_eq!(s.relation(e).arity(), 3);
        assert!(s.rel_id("nope").is_none());
        assert!(s.require("nope").is_err());
    }

    #[test]
    fn key_prefix_semantics() {
        let s = employee_schema();
        let e = s.rel_id("employee").unwrap();
        let rel = s.relation(e);
        assert!(rel.is_key_position(0));
        assert!(!rel.is_key_position(1));
        assert!(!rel.is_key_position(2));
    }

    #[test]
    fn keyless_relation_has_no_key_positions() {
        let s = Schema::builder().relation("r", &[("a", ColumnType::Int)], None).build();
        let r = s.rel_id("r").unwrap();
        assert!(!s.relation(r).is_key_position(0));
    }

    #[test]
    fn joinable_pairs_are_symmetric() {
        let s = employee_schema();
        let e = s.rel_id("employee").unwrap();
        let d = s.rel_id("dept").unwrap();
        let pairs = s.joinable_pairs();
        assert!(pairs.contains(&((e, 2), (d, 0))));
        assert!(pairs.contains(&((d, 0), (e, 2))));
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn display_marks_key_columns() {
        let s = employee_schema();
        let text = s.to_string();
        assert!(text.contains("*id"));
        assert!(text.contains("name: str"));
    }

    #[test]
    #[should_panic]
    fn duplicate_relation_panics() {
        let _ = Schema::builder()
            .relation("r", &[("a", ColumnType::Int)], Some(1))
            .relation("r", &[("b", ColumnType::Int)], Some(1))
            .build();
    }

    #[test]
    #[should_panic]
    fn oversized_key_panics() {
        let _ = Schema::builder().relation("r", &[("a", ColumnType::Int)], Some(2)).build();
    }
}
