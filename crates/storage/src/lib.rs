#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! The relational substrate of the `cqa` workspace.
//!
//! The paper stores its test databases in PostgreSQL and feeds the
//! approximation schemes through a SQL rewriting (`Q^rew`, Appendix C) that
//! attaches `(rid, bid, tid, kcnt)` metadata to every fact via window
//! functions. This crate is the replacement substrate: a compact in-memory
//! relational engine that provides
//!
//! * dictionary-encoded values ([`value`], [`interner`]),
//! * schemas with primary keys (always a prefix of the columns, matching
//!   the paper's w.l.o.g. assumption `key(R) = {1,…,m}`) and foreign keys
//!   ([`schema`]),
//! * set-semantics fact tables ([`table`]),
//! * the database type with lazily-built hash indices and key-equal
//!   **block** metadata — the exact `bid`/`tid`/`kcnt` triple the paper's
//!   `Q^rew` view computes with `dense_rank`/`row_number`/`count`
//!   ([`database`], [`block`]),
//! * consistency checking w.r.t. the primary keys ([`consistency`]).

pub mod block;
pub mod consistency;
pub mod database;
pub mod ddl;
pub mod interner;
pub mod io;
pub mod schema;
pub mod table;
pub mod value;

pub use block::RelationBlocks;
pub use consistency::{is_consistent, violations, Violation};
pub use database::{Database, FactRef, PosIndex};
pub use ddl::{parse_schema, schema_to_ddl};
pub use interner::Interner;
pub use io::{dump_fingerprint, dump_to_file, dump_to_string, load_from_file, load_from_str};
pub use schema::{ColumnDef, ColumnType, ForeignKey, RelId, RelationDef, Schema, SchemaBuilder};
pub use table::Table;
pub use value::{Datum, StrId, Value};
