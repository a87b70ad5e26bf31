//! A tiny textual DDL for schemas.
//!
//! ```text
//! relation employee(id: int, name: str, dept: str) key 1
//! relation dept(dname: str, floor: int) key 1
//! fk employee(dept) -> dept(dname)
//! ```
//!
//! `key m` declares the primary key as the first `m` columns (the paper's
//! `key(R) = {1..m}` convention); omitting it declares no key. Blank lines
//! and `#` comments are ignored. Used by the database dump format and the
//! CLI.

use crate::schema::{ColumnType, Schema, SchemaBuilder};
use cqa_common::{CqaError, Result};

/// The types of columns `names` of relation `rel` as declared so far. A
/// `rel` not declared yet is the parse error `undeclared`, and a column
/// `rel` lacks is a parse error too, both on line `line_no`.
fn column_types(
    builder: &SchemaBuilder,
    rel: &str,
    names: &[String],
    line_no: usize,
    undeclared: &str,
) -> Result<Vec<ColumnType>> {
    let def = builder
        .declared(rel)
        .ok_or_else(|| CqaError::Parse(format!("line {line_no}: {undeclared}")))?;
    names
        .iter()
        .map(|n| {
            let ty = def.columns.iter().find(|c| c.name == *n).map(|c| c.ty);
            ty.ok_or_else(|| {
                CqaError::Parse(format!(
                    "line {line_no}: fk column '{n}' is not a column of '{rel}'"
                ))
            })
        })
        .collect()
}

fn parse_cols(spec: &str, line_no: usize) -> Result<Vec<(String, ColumnType)>> {
    let mut cols = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, ty) = part.split_once(':').ok_or_else(|| {
            CqaError::Parse(format!("line {line_no}: column '{part}' needs 'name: type'"))
        })?;
        let ty = match ty.trim() {
            "int" => ColumnType::Int,
            "str" => ColumnType::Str,
            other => {
                return Err(CqaError::Parse(format!(
                    "line {line_no}: unknown type '{other}' (expected int or str)"
                )))
            }
        };
        cols.push((name.trim().to_owned(), ty));
    }
    if cols.is_empty() {
        return Err(CqaError::Parse(format!("line {line_no}: relation needs columns")));
    }
    Ok(cols)
}

fn split_rel_spec(rest: &str, line_no: usize) -> Result<(String, String, String)> {
    // `name(col-spec) trailer`
    let open = rest.find('(').ok_or_else(|| {
        CqaError::Parse(format!("line {line_no}: expected '(' after relation name"))
    })?;
    let close =
        rest.rfind(')').ok_or_else(|| CqaError::Parse(format!("line {line_no}: missing ')'")))?;
    if close < open {
        return Err(CqaError::Parse(format!("line {line_no}: mismatched parentheses")));
    }
    let name = rest[..open].trim().to_owned();
    let inner = rest[open + 1..close].to_owned();
    let trailer = rest[close + 1..].trim().to_owned();
    if name.is_empty() {
        return Err(CqaError::Parse(format!("line {line_no}: missing relation name")));
    }
    Ok((name, inner, trailer))
}

/// Parses a schema from DDL text. Everything [`SchemaBuilder`] would
/// reject — a duplicate relation, an `fk` before its source relation, an
/// `fk` naming an undeclared relation or column, or columns of different
/// types — is a parse error with its line number.
pub fn parse_schema(text: &str) -> Result<Schema> {
    let mut builder: SchemaBuilder = Schema::builder();
    // Targets may be declared after the `fk`, so they are checked at the
    // end: (line, target, target columns, source column types).
    let mut targets: Vec<(usize, String, Vec<String>, Vec<ColumnType>)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            let (name, inner, trailer) = split_rel_spec(rest, line_no)?;
            let cols = parse_cols(&inner, line_no)?;
            let key_len = if trailer.is_empty() {
                None
            } else if let Some(m) = trailer.strip_prefix("key") {
                let m: usize = m.trim().parse().map_err(|_| {
                    CqaError::Parse(format!("line {line_no}: bad key length '{}'", m.trim()))
                })?;
                if m == 0 || m > cols.len() {
                    return Err(CqaError::Parse(format!(
                        "line {line_no}: key length {m} out of range 1..={}",
                        cols.len()
                    )));
                }
                Some(m)
            } else {
                return Err(CqaError::Parse(format!(
                    "line {line_no}: unexpected trailer '{trailer}'"
                )));
            };
            if builder.declared(&name).is_some() {
                return Err(CqaError::Parse(format!(
                    "line {line_no}: duplicate relation '{name}'"
                )));
            }
            let col_refs: Vec<(&str, ColumnType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            builder = builder.relation(&name, &col_refs, key_len);
        } else if let Some(rest) = line.strip_prefix("fk ") {
            let (from_part, to_part) = rest
                .split_once("->")
                .ok_or_else(|| CqaError::Parse(format!("line {line_no}: fk needs '->'")))?;
            let parse_side = |side: &str| -> Result<(String, Vec<String>)> {
                let (name, inner, trailer) = split_rel_spec(side.trim(), line_no)?;
                if !trailer.is_empty() {
                    return Err(CqaError::Parse(format!(
                        "line {line_no}: unexpected '{trailer}' in fk"
                    )));
                }
                let cols = inner.split(',').map(|c| c.trim().to_owned()).filter(|c| !c.is_empty());
                Ok((name, cols.collect()))
            };
            let (from, from_cols) = parse_side(from_part)?;
            let (to, to_cols) = parse_side(to_part)?;
            if from_cols.len() != to_cols.len() || from_cols.is_empty() {
                return Err(CqaError::Parse(format!(
                    "line {line_no}: fk column lists must be non-empty and equal length"
                )));
            }
            let undeclared = format!("fk source relation '{from}' is not declared before it");
            let from_types = column_types(&builder, &from, &from_cols, line_no, &undeclared)?;
            let from_refs: Vec<&str> = from_cols.iter().map(String::as_str).collect();
            let to_refs: Vec<&str> = to_cols.iter().map(String::as_str).collect();
            builder = builder.foreign_key(&from, &from_refs, &to, &to_refs);
            targets.push((line_no, to, to_cols, from_types));
        } else {
            return Err(CqaError::Parse(format!("line {line_no}: unrecognized '{line}'")));
        }
    }
    for (line_no, to, to_cols, from_types) in targets {
        let undeclared = format!("fk target relation '{to}' is never declared");
        let to_types = column_types(&builder, &to, &to_cols, line_no, &undeclared)?;
        if to_types != from_types {
            return Err(CqaError::Parse(format!(
                "line {line_no}: fk column types differ from those of '{to}'"
            )));
        }
    }
    Ok(builder.build())
}

/// Renders a schema back to DDL text (inverse of [`parse_schema`]).
pub fn schema_to_ddl(schema: &Schema) -> String {
    let mut out = String::new();
    for rel in schema.relations() {
        out.push_str(&format!("relation {}(", rel.name));
        for (i, c) in rel.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let ty = match c.ty {
                ColumnType::Int => "int",
                ColumnType::Str => "str",
            };
            out.push_str(&format!("{}: {ty}", c.name));
        }
        out.push(')');
        if let Some(m) = rel.key_len {
            out.push_str(&format!(" key {m}"));
        }
        out.push('\n');
    }
    for rel in schema.relations() {
        for fk in &rel.foreign_keys {
            let target = schema.relation(fk.target);
            let from_cols: Vec<&str> =
                fk.columns.iter().map(|&c| rel.columns[c].name.as_str()).collect();
            let to_cols: Vec<&str> =
                fk.target_columns.iter().map(|&c| target.columns[c].name.as_str()).collect();
            out.push_str(&format!(
                "fk {}({}) -> {}({})\n",
                rel.name,
                from_cols.join(", "),
                target.name,
                to_cols.join(", ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "\
# HR example
relation employee(id: int, name: str, dept: str) key 1
relation dept(dname: str, floor: int) key 1
relation log(msg: str)

fk employee(dept) -> dept(dname)
";

    #[test]
    fn parses_relations_keys_and_fks() {
        let s = parse_schema(DDL).unwrap();
        assert_eq!(s.len(), 3);
        let e = s.relation(s.rel_id("employee").unwrap());
        assert_eq!(e.arity(), 3);
        assert_eq!(e.key_len, Some(1));
        assert_eq!(e.columns[1].name, "name");
        assert_eq!(e.columns[1].ty, ColumnType::Str);
        let l = s.relation(s.rel_id("log").unwrap());
        assert_eq!(l.key_len, None);
        assert_eq!(e.foreign_keys.len(), 1);
        assert_eq!(e.foreign_keys[0].target, s.rel_id("dept").unwrap());
    }

    #[test]
    fn roundtrips_through_ddl_text() {
        let s = parse_schema(DDL).unwrap();
        let text = schema_to_ddl(&s);
        let s2 = parse_schema(&text).unwrap();
        assert_eq!(s.relations(), s2.relations());
    }

    #[test]
    fn an_fk_may_name_a_target_declared_after_it() {
        let s = parse_schema("relation r(a: int)\nfk r(a) -> s(b)\nrelation s(b: int)").unwrap();
        let r = s.relation(s.rel_id("r").unwrap());
        assert_eq!(r.foreign_keys[0].target, s.rel_id("s").unwrap());
    }

    #[test]
    fn composite_keys_and_fks() {
        let ddl = "\
relation part(pk: int, name: str) key 1
relation sup(sk: int, name: str) key 1
relation ps(pk: int, sk: int, qty: int) key 2
fk ps(pk, sk) -> ps(pk, sk)
";
        let s = parse_schema(ddl).unwrap();
        let ps = s.relation(s.rel_id("ps").unwrap());
        assert_eq!(ps.key_len, Some(2));
        assert_eq!(ps.foreign_keys[0].columns, vec![0, 1]);
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        for (ddl, needle) in [
            ("relation r(a int)", "name: type"),
            ("relation r(a: float)", "unknown type"),
            ("relation r(a: int) key 2", "out of range"),
            ("relation r(a: int) nonsense", "trailer"),
            ("blah", "unrecognized"),
            ("relation r(a: int)\nfk r(a) = r(a)", "->"),
            ("relation r()", "columns"),
            ("relation r(a: int)\nrelation r(b: int)", "line 2: duplicate relation 'r'"),
            ("fk r(a) -> s(b)\nrelation r(a: int)", "line 1: fk source relation 'r'"),
            ("relation r(a: int)\nfk r(b) -> r(a)", "line 2: fk column 'b' is not a column of 'r'"),
            ("relation r(a: int)\nfk r(a) -> s(b)", "line 2: fk target relation 's'"),
            (
                "relation r(a: int)\nfk r(a) -> s(c)\nrelation s(b: int)",
                "line 2: fk column 'c' is not a column of 's'",
            ),
            ("relation r(a: int)\nfk r(a) -> s(b)\nrelation s(b: str)", "line 2: fk column types"),
        ] {
            let err = parse_schema(ddl).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}' for {ddl:?}");
        }
    }
}
