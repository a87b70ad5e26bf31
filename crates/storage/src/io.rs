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
//! String cells are escaped (`\t`, `\n`, `\r`, `\\`), and an empty string cell
//! is written as `\e` — otherwise a single-column row holding `""` would
//! serialize to a blank line, which the loader treats as padding.
//! Integer/string typing is recovered from the column types. Used by the
//! CLI to persist generated and noisy databases between commands.
//!
//! There is one dump writer, `write_dump`, streaming over any
//! `io::Write` with no allocation per cell. [`dump_to_string`] runs it
//! into a `Vec`, [`dump_to_file`] into a `BufWriter` (no `String` in
//! between), and [`dump_fingerprint`] into a streaming FNV-1a hasher, so a
//! database is fingerprinted without its dump ever being materialized.

use crate::database::Database;
use crate::ddl::{parse_schema, schema_to_ddl};
use crate::schema::ColumnType;
use crate::value::{Datum, Value};
use cqa_common::{CqaError, Fnv1a64, Result};
use std::io::{self, Write};

const HEADER: &str = "#cqa-db v1";

/// Writes one string cell, escaped: each run of bytes that needs no escape
/// goes out with one `write_all`.
fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    if s.is_empty() {
        return w.write_all(b"\\e");
    }
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        w.write_all(&bytes[run_start..i])?;
        w.write_all(escape)?;
        run_start = i + 1;
    }
    w.write_all(&bytes[run_start..])
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

/// Streams a database's dump into `w`: the header, the DDL, then each
/// relation's rows. String cells are borrowed from the interner and
/// escaped in runs, so no cell is allocated; hand in a buffered writer
/// when `w` is a file or socket.
fn write_dump<W: Write>(db: &Database, w: &mut W) -> io::Result<()> {
    w.write_all(HEADER.as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(schema_to_ddl(db.schema()).as_bytes())?;
    w.write_all(b"---\n")?;
    for (rel, def) in db.schema().iter() {
        w.write_all(b"@")?;
        w.write_all(def.name.as_bytes())?;
        w.write_all(b"\n")?;
        for (_, row) in db.table(rel).iter() {
            for (i, &d) in row.iter().enumerate() {
                if i > 0 {
                    w.write_all(b"\t")?;
                }
                match d {
                    Datum::Int(n) => write!(w, "{n}")?,
                    Datum::Str(id) => write_escaped(w, db.interner().resolve(id))?,
                }
            }
            w.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Serializes a database to the dump format.
#[expect(
    clippy::expect_used,
    reason = "io::Write into a Vec<u8> is infallible, and a dump is DDL text, digits, \
              separators and whole interned strings, so it is UTF-8"
)]
pub fn dump_to_string(db: &Database) -> String {
    let mut out = Vec::new();
    write_dump(db, &mut out).expect("writing a dump to a Vec cannot fail");
    String::from_utf8(out)
        .expect("a dump is DDL text, digits, separators and whole interned strings")
}

/// FNV-1a 64 of the database's dump, streamed into the hasher without
/// materializing the dump: equal to `fnv1a64(dump_to_string(db).as_bytes())`.
/// Structurally identical databases share it, whatever file they came from.
pub fn dump_fingerprint(db: &Database) -> u64 {
    let mut hasher = Fnv1a64::new();
    // Fnv1a64's io::Write never fails, so there is no error to handle.
    let _ = write_dump(db, &mut hasher);
    hasher.finish()
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
    // Split DDL from data at the '---' separator. The blank first line
    // stands in for the header, so a DDL error's line number is the
    // dump's.
    let mut ddl = String::from("\n");
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

/// Writes a dump to a file, streamed through a buffer.
pub fn dump_to_file(db: &Database, path: &std::path::Path) -> Result<()> {
    std::fs::File::create(path)
        .and_then(|file| {
            let mut w = io::BufWriter::new(file);
            write_dump(db, &mut w)?;
            w.flush()
        })
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

    fn escape(s: &str) -> String {
        let mut out = Vec::new();
        write_escaped(&mut out, s).unwrap();
        String::from_utf8(out).unwrap()
    }

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
    fn streamed_fingerprint_hashes_the_dump_bytes() {
        let schema = Schema::builder().relation("t", &[("id", Int), ("s", Str)], Some(1)).build();
        let mut db = Database::new(schema);
        for (id, s) in
            [(1, ""), (2, "a\tb"), (3, "l1\nl2"), (4, "cr\r"), (5, "back\\slash"), (-6, "é λ 🦀")]
        {
            db.insert_named("t", &[Value::Int(id), Value::str(s)]).unwrap();
        }
        let dump = dump_to_string(&db);
        assert_eq!(
            dump,
            "#cqa-db v1\nrelation t(id: int, s: str) key 1\n---\n@t\n1\t\\e\n2\ta\\tb\n\
             3\tl1\\nl2\n4\tcr\\r\n5\tback\\\\slash\n-6\té λ 🦀\n"
        );
        assert_eq!(dump_fingerprint(&db), cqa_common::fnv1a64(dump.as_bytes()));
        assert_eq!(load_from_str(&dump).unwrap().fact_count(), 6);
    }

    /// A dump whose DDL `SchemaBuilder` would reject loads to a parse
    /// error instead of panicking the loader.
    #[test]
    fn invalid_ddl_in_a_dump_is_a_parse_error() {
        let dump = dump_to_string(&sample_db());
        // The inserted line takes the separator's line number.
        let line = dump.lines().position(|l| l == "---").unwrap() + 1;
        for (inserted, needle) in [
            ("fk nosuch(a) -> dept(dname)", "fk source relation 'nosuch'"),
            ("relation dept(dname: str, floor: int) key 1", "duplicate relation 'dept'"),
            ("fk employee(dept) -> nosuch(a)", "fk target relation 'nosuch'"),
            ("fk employee(dept) -> dept(nosuch)", "fk column 'nosuch'"),
        ] {
            let text = dump.replacen("---\n", &format!("{inserted}\n---\n"), 1);
            let needle = format!("line {line}: {needle}");
            match load_from_str(&text) {
                Err(CqaError::Parse(msg)) => assert!(msg.contains(&needle), "{msg}"),
                other => panic!("{inserted}: expected a parse error, got {other:?}"),
            }
        }
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
