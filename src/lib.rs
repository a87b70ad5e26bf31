#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cqa` — approximate consistent query answering under primary keys.
//!
//! A from-scratch Rust reproduction of *Benchmarking Approximate
//! Consistent Query Answering* (Calautti, Console, Pieris — PODS 2021):
//! the four randomized approximation schemes for the **relative
//! frequency** of a query answer over the repairs of an inconsistent
//! database, together with the complete benchmark infrastructure the
//! paper built around them (data generator, query-aware noise generator,
//! static/dynamic query generators, and the scenario families of §6–§7).
//!
//! # Quick start
//!
//! ```
//! use cqa::prelude::*;
//!
//! // The paper's Example 1.1: an Employee relation keyed on id.
//! let schema = Schema::builder()
//!     .relation(
//!         "employee",
//!         &[("id", ColumnType::Int), ("name", ColumnType::Str), ("dept", ColumnType::Str)],
//!         Some(1),
//!     )
//!     .build();
//! let mut db = Database::new(schema);
//! for (id, name, dept) in
//!     [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
//! {
//!     db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
//!         .unwrap();
//! }
//!
//! // "Do employees 1 and 2 work in the same department?"
//! let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
//!
//! // Approximate the relative frequency with ε = 0.1, δ = 0.25.
//! let mut rng = Mt64::new(42);
//! let res = apx_cqa(&db, &q, Scheme::Natural, 0.1, 0.25, &Budget::unbounded(), &mut rng)
//!     .unwrap();
//! let freq = res.answers[0].frequency;
//! assert!((freq - 0.5).abs() < 0.1); // true in 2 of the 4 repairs
//! ```
//!
//! # Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`common`] | `cqa-common` | MT19937-64, alias sampling, log-space numbers |
//! | [`storage`] | `cqa-storage` | schemas, tables, blocks, the database |
//! | [`query`] | `cqa-query` | CQ AST, parser, homomorphism enumeration |
//! | [`repair`] | `cqa-repair` | repair counting/enumeration/sampling, exact CQA |
//! | [`synopsis`] | `cqa-synopsis` | `(Σ,Q)`-synopses, exact `R(H,B)` baselines |
//! | [`core`] | `cqa-core` | the four approximation schemes + `ApxCQA` |
//! | [`tpch`], [`tpcds`] | generators | TPC-H/TPC-DS-like schemas, data, workloads |
//! | [`noise`] | `cqa-noise` | the query-aware noise generator |
//! | [`qgen`] | `cqa-qgen` | static + dynamic query generators |
//! | [`scenarios`] | `cqa-scenarios` | scenario families and figure pipelines |
//! | [`server`] | `cqa-server` | TCP daemon: synopsis cache, admission gate, metrics |
//! | [`obs`] | `cqa-obs` | span tracing, flight recorder, metrics registry |
//! | [`perf`] | `cqa-perf` | continuous benchmarking: suites, `BENCH_<pr>.json`, gates |
//! | [`chaos`] | `cqa-chaos` | deterministic fault injection for the request path |

pub use cqa_chaos as chaos;
pub use cqa_common as common;
pub use cqa_core as core;
pub use cqa_noise as noise;
pub use cqa_obs as obs;
pub use cqa_perf as perf;
pub use cqa_qgen as qgen;
pub use cqa_query as query;
pub use cqa_repair as repair;
pub use cqa_scenarios as scenarios;
pub use cqa_server as server;
pub use cqa_storage as storage;
pub use cqa_synopsis as synopsis;
pub use cqa_tpcds as tpcds;
pub use cqa_tpch as tpch;

/// The names most programs need, in one import.
pub mod prelude {
    pub use cqa_common::{CqaError, LogNum, Mt64, Result};
    pub use cqa_core::{approx_relative_frequency, apx_cqa, Budget, Scheme, ALL_SCHEMES};
    pub use cqa_query::{answers, parse, ConjunctiveQuery};
    pub use cqa_repair::{consistent_answers_exact, relative_frequency_exact};
    pub use cqa_server::{Client, QueryRequest, Server, ServerConfig};
    pub use cqa_storage::{is_consistent, ColumnType, Database, Datum, Schema, Value};
    pub use cqa_synopsis::{build_synopses, BuildOptions, SynopsisStats};
}
