//! Command execution.

use crate::args::{Command, USAGE};
use cqa_common::{Mt64, Result};
use cqa_core::{apx_cqa_on_synopses, apx_cqa_parallel, Budget, Scheme};
use cqa_noise::{add_query_aware_noise, NoiseSpec};
use cqa_query::parse;
use cqa_repair::consistent_answers_exact;
use cqa_server::{run_chaos, run_load, ChaosSpec, LoadSpec, Server, ServerConfig};
use cqa_storage::{dump_to_file, is_consistent, load_from_file, schema_to_ddl, Database};
use cqa_synopsis::{build_synopses, BuildOptions, SynopsisStats};
use std::io::Write;

/// Executes one parsed command, writing human-readable output to `out`.
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<()> {
    let w = |out: &mut dyn Write, s: String| {
        out.write_all(s.as_bytes()).expect("write to output");
        out.write_all(b"\n").expect("write to output");
    };
    match cmd {
        Command::Help => w(out, USAGE.to_owned()),
        Command::Generate { bench, scale, seed, out: path } => {
            let db: Database = match bench.as_str() {
                "tpch" => cqa_tpch::generate(cqa_tpch::TpchConfig { scale, seed }),
                _ => cqa_tpcds::generate(cqa_tpcds::TpcdsConfig { scale, seed }),
            };
            dump_to_file(&db, &path)?;
            w(
                out,
                format!(
                    "generated {bench} at scale {scale}: {} facts over {} relations -> {}",
                    db.fact_count(),
                    db.schema().len(),
                    path.display()
                ),
            );
        }
        Command::Noise { db, query, p, lmin, umax, seed, out: path } => {
            let base = load_from_file(&db)?;
            let q = parse(base.schema(), &query)?;
            let mut rng = Mt64::new(seed);
            let (noisy, report) =
                add_query_aware_noise(&base, &q, NoiseSpec { p, lmin, umax }, &mut rng)?;
            dump_to_file(&noisy, &path)?;
            for (name, relevant, selected, added) in &report.per_relation {
                w(
                    out,
                    format!("  {name}: {relevant} relevant, {selected} selected, {added} added"),
                );
            }
            w(
                out,
                format!(
                    "added {} facts; database now has {} facts (consistent: {}) -> {}",
                    report.total_added,
                    noisy.fact_count(),
                    is_consistent(&noisy),
                    path.display()
                ),
            );
        }
        Command::Query {
            db,
            query,
            scheme,
            eps,
            delta,
            timeout,
            seed,
            threads,
            trace,
            profile,
        } => {
            let tracing = trace.is_some() || profile;
            if tracing {
                cqa_obs::trace::clear();
                cqa_obs::set_enabled(true);
            }
            let database = load_from_file(&db)?;
            let q = parse(database.schema(), &query)?;
            let budget = match timeout {
                Some(t) => Budget::with_timeout_secs(t),
                None => Budget::unbounded(),
            };
            let syn = build_synopses(&database, &q, BuildOptions::default())?;
            let stats = SynopsisStats::of(&syn);
            w(
                out,
                format!(
                    "preprocessing: {} answers, {} images, balance {:.2}, {:.3}s",
                    stats.output_size, stats.hom_size, stats.balance, stats.build_secs
                ),
            );
            let res = if threads > 1 {
                apx_cqa_parallel(&syn, scheme, eps, delta, &budget, seed, threads)?
            } else {
                let mut rng = Mt64::new(seed);
                apx_cqa_on_synopses(&syn, scheme, eps, delta, &budget, &mut rng)?
            };
            let mut ranked = res.answers;
            ranked.sort_by(|a, b| {
                b.frequency.partial_cmp(&a.frequency).expect("finite").then(a.tuple.cmp(&b.tuple))
            });
            for te in &ranked {
                w(
                    out,
                    format!(
                        "  {:<40} {:>7.2}%",
                        database.fmt_tuple(&te.tuple),
                        te.frequency * 100.0
                    ),
                );
            }
            w(
                out,
                format!(
                    "{} answers via {} in {:?} ({} samples)",
                    ranked.len(),
                    scheme.name(),
                    res.scheme_time,
                    res.total_samples
                ),
            );
            if tracing {
                cqa_obs::set_enabled(false);
                if let Some(path) = &trace {
                    let n = cqa_obs::write_chrome_trace(path).map_err(|e| {
                        cqa_common::CqaError::InvalidParameter(format!(
                            "--trace {}: {e}",
                            path.display()
                        ))
                    })?;
                    w(out, format!("trace: {n} events -> {}", path.display()));
                }
                if profile {
                    w(out, cqa_obs::flat_profile_string());
                }
            }
        }
        Command::Exact { db, query, limit } => {
            let database = load_from_file(&db)?;
            let q = parse(database.schema(), &query)?;
            let answers = consistent_answers_exact(&database, &q, limit)?;
            for (t, f) in &answers {
                w(out, format!("  {:<40} {:>7.2}%", database.fmt_tuple(t), f * 100.0));
            }
            w(out, format!("{} answers (exact, by repair enumeration)", answers.len()));
        }
        Command::Stats { db, query } => {
            let database = load_from_file(&db)?;
            let q = parse(database.schema(), &query)?;
            let syn = build_synopses(&database, &q, BuildOptions::default())?;
            let stats = SynopsisStats::of(&syn);
            w(out, format!("query:            {}", q.display(database.schema())));
            w(out, format!("joins:            {}", q.join_count()));
            w(out, format!("output size:      {}", stats.output_size));
            w(out, format!("homomorphic size: {}", stats.hom_size));
            w(out, format!("balance:          {:.3}", stats.balance));
            w(out, format!("max |H|:          {}", stats.max_images));
            w(out, format!("max |db(B)|:      10^{:.1}", stats.max_log10_db_b));
            w(out, format!("preprocessing:    {:.3}s", stats.build_secs));
            let pick: Scheme = if stats.balance < 0.05 { Scheme::Natural } else { Scheme::Klm };
            w(
                out,
                format!("recommended scheme (per the paper's §7.2 decision rule): {}", pick.name()),
            );
        }
        Command::Certain { db, query } => {
            let database = load_from_file(&db)?;
            let q = parse(database.schema(), &query)?;
            let certain = cqa_synopsis::certain_answers(&database, &q)?;
            for t in &certain {
                w(out, format!("  {}", database.fmt_tuple(t)));
            }
            w(out, format!("{} certain answers (true in every repair)", certain.len()));
        }
        Command::Schema { db } => {
            let database = load_from_file(&db)?;
            w(out, schema_to_ddl(database.schema()));
            w(
                out,
                format!(
                    "{} facts, consistent: {}, repairs: {}",
                    database.fact_count(),
                    is_consistent(&database),
                    database.repair_count()
                ),
            );
        }
        Command::Serve { db, addr, workers, queue_depth, cache_capacity, timeout_ms, trace } => {
            if trace {
                cqa_obs::set_enabled(true);
            }
            let database = load_from_file(&db)?;
            let server = Server::bind(
                database,
                ServerConfig {
                    addr,
                    workers,
                    queue_depth,
                    cache_capacity,
                    default_timeout_ms: timeout_ms,
                    max_samples: u64::MAX,
                    slow_threshold_ms: ServerConfig::default().slow_threshold_ms,
                },
            )
            .map_err(|e| cqa_common::CqaError::InvalidParameter(format!("bind: {e}")))?;
            let bound = server
                .local_addr()
                .map_err(|e| cqa_common::CqaError::InvalidParameter(format!("bind: {e}")))?;
            let trace_note = if trace { ", tracing on" } else { "" };
            w(out, format!("cqa-server listening on {bound} (protocol v1, NDJSON{trace_note})"));
            server.run();
        }
        Command::BenchServe {
            addr,
            query,
            scheme,
            eps,
            delta,
            clients,
            requests,
            seed,
            timeout_ms,
            permute,
        } => {
            let report = run_load(&LoadSpec {
                addr,
                query,
                scheme,
                eps,
                delta,
                clients,
                requests,
                seed,
                timeout_ms,
                permute,
            })?;
            w(out, report.render());
        }
        Command::Chaos {
            db,
            query,
            scheme,
            eps,
            delta,
            plan,
            seed,
            clients,
            requests,
            workers,
        } => {
            let database = load_from_file(&db)?;
            let fault_plan = cqa_chaos::FaultPlan::preset(&plan, seed).ok_or_else(|| {
                cqa_common::CqaError::InvalidParameter(format!(
                    "unknown fault plan '{plan}' (expected one of: {})",
                    cqa_chaos::PRESETS.join(", ")
                ))
            })?;
            let mut spec = ChaosSpec::new(&query, fault_plan);
            spec.scheme = scheme;
            spec.eps = eps;
            spec.delta = delta;
            spec.seed = seed;
            spec.clients = clients;
            spec.requests = requests;
            spec.workers = workers;
            let report = run_chaos(database, &spec)?;
            w(out, report.render());
            if !report.passed() {
                return Err(cqa_common::CqaError::InvalidParameter(format!(
                    "chaos run violated {} reliability invariant(s)",
                    report.violations.len()
                )));
            }
        }
        Command::Debug { addr, target } => {
            let mut client = cqa_server::Client::connect(&addr)?;
            // Print the response verbatim: one JSON object, pipeable to jq.
            let response = client.roundtrip(&cqa_server::Request::Debug { target })?;
            if let cqa_server::Response::Error { kind, message } = &response {
                return Err(cqa_common::CqaError::InvalidParameter(format!(
                    "debug {} failed: {} ({message})",
                    target.name(),
                    kind.name()
                )));
            }
            w(out, response.to_line());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run(cmd: Command) -> Result<String> {
        let mut buf = Vec::new();
        execute(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cqa_cli_{name}_{}", std::process::id()))
    }

    #[test]
    fn end_to_end_generate_noise_query_exact() {
        let base = tmp("base.db");
        let noisy = tmp("noisy.db");
        // A region-only query keeps the noisy instance's repair count tiny
        // (≤ 2⁵) so the `exact` command stays debug-build fast.
        let query = "Q(rn) :- region(rk, rn)".to_owned();

        let out = run(Command::Generate {
            bench: "tpch".into(),
            scale: 0.0003,
            seed: 5,
            out: base.clone(),
        })
        .unwrap();
        assert!(out.contains("generated tpch"));

        let out = run(Command::Noise {
            db: base.clone(),
            query: query.clone(),
            p: 1.0,
            lmin: 2,
            umax: 2,
            seed: 5,
            out: noisy.clone(),
        })
        .unwrap();
        assert!(out.contains("consistent: false"));

        let out = run(Command::Stats { db: noisy.clone(), query: query.clone() }).unwrap();
        assert!(out.contains("balance"));
        assert!(out.contains("recommended scheme"));

        let approx = run(Command::Query {
            db: noisy.clone(),
            query: query.clone(),
            scheme: Scheme::Klm,
            eps: 0.1,
            delta: 0.25,
            timeout: None,
            seed: 1,
            threads: 2,
            trace: None,
            profile: false,
        })
        .unwrap();
        assert!(approx.contains('%'));

        let exact = run(Command::Exact { db: noisy.clone(), query, limit: 10_000_000 }).unwrap();
        assert!(exact.contains("exact"));

        // The two answer sets agree in size.
        let count = |s: &str| s.lines().filter(|l| l.contains('%')).count();
        assert_eq!(count(&approx), count(&exact));

        std::fs::remove_file(base).ok();
        std::fs::remove_file(noisy).ok();
    }

    #[test]
    fn certain_command_lists_certain_tuples() {
        let base = tmp("certain.db");
        run(Command::Generate { bench: "tpch".into(), scale: 0.0003, seed: 9, out: base.clone() })
            .unwrap();
        // On a consistent database, every answer is certain.
        let out =
            run(Command::Certain { db: base.clone(), query: "Q(rn) :- region(rk, rn)".into() })
                .unwrap();
        assert!(out.contains("5 certain answers"));
        std::fs::remove_file(base).ok();
    }

    #[test]
    fn schema_command_prints_ddl() {
        let base = tmp("schema.db");
        run(Command::Generate { bench: "tpcds".into(), scale: 0.0002, seed: 1, out: base.clone() })
            .unwrap();
        let out = run(Command::Schema { db: base.clone() }).unwrap();
        assert!(out.contains("relation store_sales"));
        assert!(out.contains("key 2"));
        std::fs::remove_file(base).ok();
    }

    #[test]
    fn bench_serve_reports_throughput_and_percentiles() {
        let base = tmp("serve.db");
        run(Command::Generate { bench: "tpch".into(), scale: 0.0003, seed: 3, out: base.clone() })
            .unwrap();
        let database = cqa_storage::load_from_file(&base).unwrap();
        let server = Server::bind(
            database,
            ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() },
        )
        .unwrap();
        let mut handle = server.spawn().unwrap();
        let report = run_load(&LoadSpec {
            addr: handle.addr().to_string(),
            query: "Q(rn) :- region(rk, rn)".into(),
            scheme: Scheme::Klm,
            eps: 0.2,
            delta: 0.25,
            clients: 2,
            requests: 5,
            seed: 11,
            timeout_ms: None,
            permute: false,
        })
        .unwrap()
        .render();
        assert!(report.contains("10 requests over 2 clients"), "{report}");
        assert!(report.contains("ok 10"), "{report}");
        assert!(report.contains("cache hit rate"), "{report}");
        assert!(report.contains("p99"), "{report}");
        handle.shutdown();
        std::fs::remove_file(base).ok();
    }

    #[test]
    fn query_writes_trace_and_prints_profile() {
        let base = tmp("trace.db");
        let trace_path = tmp("trace.json");
        run(Command::Generate { bench: "tpch".into(), scale: 0.0003, seed: 4, out: base.clone() })
            .unwrap();
        let out = run(Command::Query {
            db: base.clone(),
            query: "Q(rn) :- region(rk, rn)".into(),
            scheme: Scheme::Klm,
            eps: 0.2,
            delta: 0.25,
            timeout: None,
            seed: 1,
            threads: 1,
            trace: Some(trace_path.clone()),
            profile: true,
        })
        .unwrap();
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("flat profile"), "{out}");
        assert!(out.contains("scheme/KLM"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        match cqa_common::Json::parse(text.trim()).unwrap() {
            cqa_common::Json::Arr(events) => {
                assert!(!events.is_empty(), "trace file has no events")
            }
            other => panic!("trace file is not a JSON array: {other:?}"),
        }
        std::fs::remove_file(base).ok();
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn help_flows_through() {
        let out = run(parse_args(&[]).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(Command::Schema { db: "/nonexistent/x.db".into() });
        assert!(err.is_err());
    }
}
