//! An empty stand-in for the [`crossbeam`](https://docs.rs/crossbeam)
//! crate.
//!
//! Nothing in the workspace uses it: ordered parallel work goes through
//! `cqa_common::par_map`, and the server admits queries through its own
//! permit gate. The package stays only because `perfbench/Cargo.lock`, the
//! repository benchmark's lock file, still lists it under `cqa-scenarios`
//! and `cqa-server`; dropping the dependency would rewrite that lock. It
//! goes together with those lock entries.
