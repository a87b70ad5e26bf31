//! Self-describing textual database dumps.
//!
//! The format embeds the DDL (see [`crate::ddl`]) followed by one
//! tab-separated section per relation, so a dump can be reloaded without
//! any out-of-band schema:
//!
//! ```text
//! #cqa-db v1
//! relation employee(id: int, name: str, dept: str) key 1
//! ---
//! @employee
//! 1\tBob\tHR
//! ```
//!
//! String cells are escaped (`\t`, `\n`, `\\`), and an empty string cell
//! is written as `\e` — otherwise a single-column row holding `""` would
//! serialize to a blank line, which the loader treats as padding.
//! Integer/string typing is recovered from the column types. Used by the
//! CLI to persist generated and noisy databases between commands.

use crate::database::Database;
use crate::ddl::{parse_schema, schema_to_ddl};
use crate::schema::ColumnType;
use crate::value::Value;
use cqa_common::{CqaError, Result};

const HEADER: &str = "#cqa-db v1";

fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_owned();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => {} // the empty-string marker contributes nothing
            other => {
                return Err(CqaError::Parse(format!("bad escape '\\{:?}'", other)));
            }
        }
    }
    Ok(out)
}

/// Serializes a database to the dump format.
pub fn dump_to_string(db: &Database) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&schema_to_ddl(db.schema()));
    out.push_str("---\n");
    for (rel, def) in db.schema().iter() {
        out.push_str(&format!("@{}\n", def.name));
        for (_, row) in db.table(rel).iter() {
            let cells: Vec<String> = row
                .iter()
                .map(|&d| match db.resolve(d) {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => escape(&s),
                })
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
    }
    out
}

/// Parses a dump back into a database.
pub fn load_from_str(text: &str) -> Result<Database> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == HEADER => {}
        other => {
            return Err(CqaError::Parse(format!(
                "not a cqa-db dump (header {other:?}, expected '{HEADER}')"
            )))
        }
    }
    // Split DDL from data at the '---' separator.
    let mut ddl = String::new();
    for line in lines.by_ref() {
        if line.trim() == "---" {
            break;
        }
        ddl.push_str(line);
        ddl.push('\n');
    }
    let schema = parse_schema(&ddl)?;
    let mut db = Database::new(schema);
    let mut current: Option<crate::schema::RelId> = None;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('@') {
            current = Some(db.schema().require(name.trim())?);
            continue;
        }
        let rel = current.ok_or_else(|| {
            CqaError::Parse(format!("data row before any @relation marker (row {})", i + 1))
        })?;
        let def = db.schema().relation(rel);
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != def.arity() {
            return Err(CqaError::ArityMismatch {
                relation: def.name.clone(),
                expected: def.arity(),
                got: cells.len(),
            });
        }
        let types: Vec<ColumnType> = def.columns.iter().map(|c| c.ty).collect();
        let mut values = Vec::with_capacity(cells.len());
        for (cell, ty) in cells.iter().zip(types) {
            let v = match ty {
                ColumnType::Int => Value::Int(
                    cell.parse()
                        .map_err(|_| CqaError::Parse(format!("bad integer cell '{cell}'")))?,
                ),
                ColumnType::Str => Value::Str(unescape(cell)?),
            };
            values.push(v);
        }
        db.insert(rel, &values)?;
    }
    Ok(db)
}

/// Writes a dump to a file.
pub fn dump_to_file(db: &Database, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, dump_to_string(db))
        .map_err(|e| CqaError::Parse(format!("cannot write {}: {e}", path.display())))
}

/// Loads a dump from a file.
pub fn load_from_file(path: &std::path::Path) -> Result<Database> {
    if cqa_chaos::fault_point!(StorageDumpLoad).is_some() {
        return Err(CqaError::Parse(format!(
            "injected fault at storage/dump_load reading {}",
            path.display()
        )));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CqaError::Parse(format!("cannot read {}: {e}", path.display())))?;
    load_from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use ColumnType::*;

    fn sample_db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .relation("dept", &[("dname", Str), ("floor", Int)], Some(1))
            .foreign_key("employee", &["dept"], "dept", &["dname"])
            .build();
        let mut db = Database::new(schema);
        for (id, name, dept) in [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Ann\tTab", "IT")] {
            db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
                .unwrap();
        }
        db.insert_named("dept", &[Value::str("HR"), Value::Int(1)]).unwrap();
        db.insert_named("dept", &[Value::str("IT"), Value::Int(2)]).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let text = dump_to_string(&db);
        let loaded = load_from_str(&text).unwrap();
        assert_eq!(loaded.fact_count(), db.fact_count());
        assert_eq!(loaded.schema().relations(), db.schema().relations());
        // Same facts (compare as value rows).
        for (rel, _) in db.schema().iter() {
            let mut a: Vec<Vec<Value>> = db
                .table(rel)
                .iter()
                .map(|(_, r)| r.iter().map(|&d| db.resolve(d)).collect())
                .collect();
            let mut b: Vec<Vec<Value>> = loaded
                .table(rel)
                .iter()
                .map(|(_, r)| r.iter().map(|&d| loaded.resolve(d)).collect())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn escaping_handles_special_characters() {
        for s in ["tab\there", "newline\nhere", "back\\slash", "plain", ""] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
        assert_eq!(escape(""), "\\e");
    }

    #[test]
    fn empty_string_in_single_column_relation_survives() {
        // Regression: this fact used to dump as a blank line, which the
        // loader skipped as padding.
        let schema = Schema::builder().relation("tag", &[("name", Str)], None).build();
        let mut db = Database::new(schema);
        db.insert_named("tag", &[Value::str("")]).unwrap();
        db.insert_named("tag", &[Value::str("x")]).unwrap();
        let loaded = load_from_str(&dump_to_string(&db)).unwrap();
        assert_eq!(loaded.fact_count(), 2);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(load_from_str("relation r(a: int)\n---\n").is_err());
    }

    #[test]
    fn data_before_marker_is_rejected() {
        let text = format!("{HEADER}\nrelation r(a: int) key 1\n---\n42\n");
        assert!(load_from_str(&text).is_err());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let text = format!("{HEADER}\nrelation r(a: int, b: int) key 1\n---\n@r\n42\n");
        assert!(matches!(load_from_str(&text), Err(CqaError::ArityMismatch { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let db = sample_db();
        let path = std::env::temp_dir().join("cqa_io_test.db");
        dump_to_file(&db, &path).unwrap();
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.fact_count(), db.fact_count());
        std::fs::remove_file(path).ok();
    }
}
