//! Command-line argument parsing (hand-rolled, dependency-free).

use cqa_common::{CqaError, Result};
use cqa_core::Scheme;
use cqa_server::DebugTarget;
use std::collections::HashMap;
use std::path::PathBuf;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a benchmark database and dump it.
    Generate {
        /// `tpch` or `tpcds`.
        bench: String,
        /// Scale factor.
        scale: f64,
        /// RNG seed.
        seed: u64,
        /// Output dump path.
        out: PathBuf,
    },
    /// Inject query-aware noise into a dumped database.
    Noise {
        /// Input dump path.
        db: PathBuf,
        /// The target query (datalog syntax).
        query: String,
        /// Noise percentage `p`.
        p: f64,
        /// Minimum block size `ℓ`.
        lmin: u32,
        /// Maximum block size `u`.
        umax: u32,
        /// RNG seed.
        seed: u64,
        /// Output dump path.
        out: PathBuf,
    },
    /// Run approximate CQA.
    Query {
        /// Input dump path.
        db: PathBuf,
        /// The query (datalog syntax).
        query: String,
        /// Which approximation scheme.
        scheme: Scheme,
        /// Relative error ε.
        eps: f64,
        /// Uncertainty δ.
        delta: f64,
        /// Optional wall-clock budget in seconds.
        timeout: Option<f64>,
        /// RNG seed.
        seed: u64,
        /// Worker threads (>1 uses the parallel driver).
        threads: usize,
        /// Write a Chrome `trace_event` JSON file of the run here.
        trace: Option<PathBuf>,
        /// Print a flat per-span profile after the run.
        profile: bool,
    },
    /// Run exact CQA by repair enumeration (small inputs).
    Exact {
        /// Input dump path.
        db: PathBuf,
        /// The query (datalog syntax).
        query: String,
        /// Repair-count cap for the brute force.
        limit: u128,
    },
    /// Print synopsis statistics and a scheme recommendation.
    Stats {
        /// Input dump path.
        db: PathBuf,
        /// The query (datalog syntax).
        query: String,
    },
    /// List the certain answers (true in every repair).
    Certain {
        /// Input dump path.
        db: PathBuf,
        /// The query (datalog syntax).
        query: String,
    },
    /// Print the schema of a dump as DDL.
    Schema {
        /// Input dump path.
        db: PathBuf,
    },
    /// Run the approximate-CQA daemon.
    Serve {
        /// Input dump path.
        db: PathBuf,
        /// Address to bind (port 0 picks a free port).
        addr: String,
        /// Queries that may run at once (0 = one per CPU).
        workers: usize,
        /// Queries that may wait for a `workers` permit before
        /// `overloaded` rejections start.
        queue_depth: usize,
        /// Synopsis-cache capacity (entries).
        cache_capacity: usize,
        /// Default per-request deadline in ms (None = unbounded).
        timeout_ms: Option<u64>,
        /// Enable tracing so the `trace` protocol command returns events.
        trace: bool,
    },
    /// Closed-loop load generator against a running daemon.
    BenchServe {
        /// Server address.
        addr: String,
        /// The query (datalog syntax).
        query: String,
        /// Which approximation scheme.
        scheme: Scheme,
        /// Relative error ε.
        eps: f64,
        /// Uncertainty δ.
        delta: f64,
        /// Concurrent client connections.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Base RNG seed (request i of client c uses a distinct derived
        /// seed).
        seed: u64,
        /// Per-request deadline in ms (None = server default).
        timeout_ms: Option<u64>,
        /// Rewrite each issued query with shuffled atom order and fresh
        /// variable names (α-equivalent, different text).
        permute: bool,
    },
    /// Deterministic fault-injection run against an in-process daemon.
    Chaos {
        /// Input dump path.
        db: PathBuf,
        /// The query (datalog syntax).
        query: String,
        /// Which approximation scheme.
        scheme: Scheme,
        /// Relative error ε.
        eps: f64,
        /// Uncertainty δ.
        delta: f64,
        /// Fault-plan preset name (see `cqa_chaos::PRESETS`).
        plan: String,
        /// Seed for the plan's fire decisions, per-request seeds, and
        /// retry jitter.
        seed: u64,
        /// Concurrent storm clients.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Queries the server may run at once (0 = one per CPU).
        workers: usize,
    },
    /// Dump a running daemon's flight recorder or slow/error log.
    Debug {
        /// Server address.
        addr: String,
        /// Which recorder structure to dump.
        target: DebugTarget,
    },
    /// Continuous benchmarking: delegates to `cqa-perf` (run/diff/export).
    Perf {
        /// Raw arguments, parsed by `cqa_perf::cli::dispatch`.
        args: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// The usage text.
pub const USAGE: &str = "\
cqa-cli — approximate consistent query answering

USAGE:
  cqa-cli generate <tpch|tpcds> [--scale F] [--seed N] --out FILE
  cqa-cli noise  --db FILE --query CQ [--p F] [--lmin N] [--umax N] [--seed N] --out FILE
  cqa-cli query  --db FILE --query CQ [--scheme natural|kl|klm|cover]
                 [--eps F] [--delta F] [--timeout SECS] [--seed N] [--threads N]
                 [--trace FILE] [--profile]
  cqa-cli exact  --db FILE --query CQ [--limit N]
  cqa-cli stats  --db FILE --query CQ
  cqa-cli certain --db FILE --query CQ
  cqa-cli schema --db FILE
  cqa-cli serve  --db FILE [--addr HOST:PORT] [--workers N] [--queue N]
                 [--cache N] [--timeout-ms N] [--trace]   (--workers: queries
                 that may run at once, 0 = one per CPU; --queue: queries that
                 may wait for one before `overloaded`)
  cqa-cli bench-serve --addr HOST:PORT --query CQ [--scheme S] [--eps F]
                 [--delta F] [--clients N] [--requests N] [--seed N]
                 [--timeout-ms N] [--permute-queries]
  cqa-cli chaos  --db FILE --query CQ [--plan NAME] [--seed N] [--scheme S]
                 [--eps F] [--delta F] [--clients N] [--requests N]
                 [--workers N]   (fault-injection run; plans: all-points-delay,
                 all-points-error, short-write, smoke, worker-panic)
  cqa-cli debug  <flight|slowlog> --addr HOST:PORT   (dump the daemon's
                 flight recorder / slow-error log as JSON)
  cqa-cli perf   <run|diff|export|help> [options]   (continuous benchmarking;
                 'cqa-cli perf help' prints the cqa-perf usage)

Queries use the datalog-style syntax, e.g. 'Q(n) :- employee(x, n, d)'.
`serve` speaks line-delimited JSON; see the README's Serving section.
";

struct Flags {
    map: HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags> {
        Flags::parse_with_switches(args, &[])
    }

    /// Parses `--key value` pairs, treating any key in `switch_names` as a
    /// valueless boolean switch.
    fn parse_with_switches(args: &[String], switch_names: &[&str]) -> Result<Flags> {
        let mut map = HashMap::new();
        let mut switches = std::collections::HashSet::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| CqaError::InvalidParameter(format!("unexpected argument '{a}'")))?;
            if switch_names.contains(&key) {
                if !switches.insert(key.to_owned()) {
                    return Err(CqaError::InvalidParameter(format!("--{key} given twice")));
                }
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CqaError::InvalidParameter(format!("--{key} needs a value")))?;
            if map.insert(key.to_owned(), value.clone()).is_some() {
                return Err(CqaError::InvalidParameter(format!("--{key} given twice")));
            }
        }
        Ok(Flags { map, switches })
    }

    fn take<T: std::str::FromStr>(&mut self, key: &str, default: Option<T>) -> Result<T> {
        match self.map.remove(key) {
            Some(v) => v
                .parse()
                .map_err(|_| CqaError::InvalidParameter(format!("--{key}: cannot parse '{v}'"))),
            None => {
                default.ok_or_else(|| CqaError::InvalidParameter(format!("--{key} is required")))
            }
        }
    }

    /// Takes an optional valued flag; absent means `None`.
    fn take_opt<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>> {
        match self.map.remove(key) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CqaError::InvalidParameter(format!("--{key}: cannot parse '{v}'"))),
            None => Ok(None),
        }
    }

    /// Consumes a boolean switch, returning whether it was given.
    fn has(&mut self, key: &str) -> bool {
        self.switches.remove(key)
    }

    fn finish(self) -> Result<()> {
        if let Some(key) = self.map.keys().chain(self.switches.iter()).next() {
            return Err(CqaError::InvalidParameter(format!("unknown flag --{key}")));
        }
        Ok(())
    }
}

fn parse_scheme(name: &str) -> Result<Scheme> {
    // `Scheme` implements `FromStr` (shared with the server protocol).
    name.parse()
}

/// Parses the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Command> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let bench = args
                .get(1)
                .filter(|b| *b == "tpch" || *b == "tpcds")
                .ok_or_else(|| {
                    CqaError::InvalidParameter("generate needs 'tpch' or 'tpcds'".into())
                })?
                .clone();
            let mut f = Flags::parse(&args[2..])?;
            let out = Command::Generate {
                bench,
                scale: f.take("scale", Some(0.001))?,
                seed: f.take("seed", Some(42))?,
                out: f.take::<String>("out", None)?.into(),
            };
            f.finish()?;
            Ok(out)
        }
        "noise" => {
            let mut f = Flags::parse(&args[1..])?;
            let out = Command::Noise {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
                p: f.take("p", Some(0.5))?,
                lmin: f.take("lmin", Some(2))?,
                umax: f.take("umax", Some(5))?,
                seed: f.take("seed", Some(42))?,
                out: f.take::<String>("out", None)?.into(),
            };
            f.finish()?;
            Ok(out)
        }
        "query" => {
            let mut f = Flags::parse_with_switches(&args[1..], &["profile"])?;
            let scheme = parse_scheme(&f.take::<String>("scheme", Some("klm".into()))?)?;
            let out = Command::Query {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
                scheme,
                eps: f.take("eps", Some(0.1))?,
                delta: f.take("delta", Some(0.25))?,
                timeout: f.take("timeout", Some(-1.0)).map(|t: f64| (t > 0.0).then_some(t))?,
                seed: f.take("seed", Some(42))?,
                threads: f.take("threads", Some(1))?,
                trace: f.take_opt::<String>("trace")?.map(PathBuf::from),
                profile: f.has("profile"),
            };
            f.finish()?;
            Ok(out)
        }
        "exact" => {
            let mut f = Flags::parse(&args[1..])?;
            let out = Command::Exact {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
                limit: f.take("limit", Some(1_000_000u128))?,
            };
            f.finish()?;
            Ok(out)
        }
        "stats" => {
            let mut f = Flags::parse(&args[1..])?;
            let out = Command::Stats {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
            };
            f.finish()?;
            Ok(out)
        }
        "certain" => {
            let mut f = Flags::parse(&args[1..])?;
            let out = Command::Certain {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
            };
            f.finish()?;
            Ok(out)
        }
        "schema" => {
            let mut f = Flags::parse(&args[1..])?;
            let out = Command::Schema { db: f.take::<String>("db", None)?.into() };
            f.finish()?;
            Ok(out)
        }
        "serve" => {
            let mut f = Flags::parse_with_switches(&args[1..], &["trace"])?;
            let out = Command::Serve {
                db: f.take::<String>("db", None)?.into(),
                addr: f.take("addr", Some("127.0.0.1:7171".to_owned()))?,
                workers: f.take("workers", Some(0))?,
                queue_depth: f.take("queue", Some(64))?,
                cache_capacity: f.take("cache", Some(128))?,
                timeout_ms: f.take("timeout-ms", Some(30_000u64)).map(|t| (t > 0).then_some(t))?,
                trace: f.has("trace"),
            };
            f.finish()?;
            Ok(out)
        }
        "bench-serve" => {
            let mut f = Flags::parse_with_switches(&args[1..], &["permute-queries"])?;
            let scheme = parse_scheme(&f.take::<String>("scheme", Some("klm".into()))?)?;
            let out = Command::BenchServe {
                addr: f.take("addr", None)?,
                query: f.take("query", None)?,
                scheme,
                eps: f.take("eps", Some(0.1))?,
                delta: f.take("delta", Some(0.25))?,
                clients: f.take("clients", Some(4))?,
                requests: f.take("requests", Some(100))?,
                seed: f.take("seed", Some(42))?,
                timeout_ms: f.take("timeout-ms", Some(0u64)).map(|t| (t > 0).then_some(t))?,
                permute: f.has("permute-queries"),
            };
            f.finish()?;
            Ok(out)
        }
        "chaos" => {
            let mut f = Flags::parse(&args[1..])?;
            let scheme = parse_scheme(&f.take::<String>("scheme", Some("klm".into()))?)?;
            let out = Command::Chaos {
                db: f.take::<String>("db", None)?.into(),
                query: f.take("query", None)?,
                scheme,
                eps: f.take("eps", Some(0.2))?,
                delta: f.take("delta", Some(0.25))?,
                plan: f.take("plan", Some("smoke".to_owned()))?,
                seed: f.take("seed", Some(42))?,
                clients: f.take("clients", Some(2))?,
                requests: f.take("requests", Some(16))?,
                workers: f.take("workers", Some(2))?,
            };
            f.finish()?;
            Ok(out)
        }
        "debug" => {
            let target = args.get(1).and_then(|t| DebugTarget::from_name(t)).ok_or_else(|| {
                CqaError::InvalidParameter("debug needs 'flight' or 'slowlog'".into())
            })?;
            let mut f = Flags::parse(&args[2..])?;
            let out = Command::Debug { addr: f.take("addr", None)?, target };
            f.finish()?;
            Ok(out)
        }
        "perf" => Ok(Command::Perf { args: args[1..].to_vec() }),
        other => Err(CqaError::InvalidParameter(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_generate() {
        let c = parse_args(&argv("generate tpch --scale 0.01 --seed 7 --out wh.db")).unwrap();
        assert_eq!(
            c,
            Command::Generate { bench: "tpch".into(), scale: 0.01, seed: 7, out: "wh.db".into() }
        );
    }

    #[test]
    fn generate_defaults_apply() {
        let c = parse_args(&argv("generate tpcds --out x.db")).unwrap();
        match c {
            Command::Generate { bench, scale, seed, .. } => {
                assert_eq!(bench, "tpcds");
                assert_eq!(scale, 0.001);
                assert_eq!(seed, 42);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_query_with_scheme() {
        let mut a = argv("query --db x.db --scheme natural --eps 0.2");
        a.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        let c = parse_args(&a).unwrap();
        match c {
            Command::Query { scheme, eps, delta, timeout, threads, trace, profile, .. } => {
                assert_eq!(scheme, Scheme::Natural);
                assert_eq!(eps, 0.2);
                assert_eq!(delta, 0.25);
                assert_eq!(timeout, None);
                assert_eq!(threads, 1);
                assert_eq!(trace, None);
                assert!(!profile);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_query_trace_and_profile() {
        let mut a = argv("query --db x.db --trace out.json --profile");
        a.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&a).unwrap() {
            Command::Query { trace, profile, .. } => {
                assert_eq!(trace, Some("out.json".into()));
                assert!(profile);
            }
            _ => panic!("wrong command"),
        }
        // --profile is a switch: it must not swallow the next flag.
        let mut b = argv("query --db x.db --profile --seed 7");
        b.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&b).unwrap() {
            Command::Query { profile, seed, .. } => {
                assert!(profile);
                assert_eq!(seed, 7);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn timeout_flag_is_optional_and_positive() {
        let mut a = argv("query --db x.db --timeout 5");
        a.extend(["--query".to_owned(), "Q() :- r(n)".to_owned()]);
        match parse_args(&a).unwrap() {
            Command::Query { timeout, .. } => assert_eq!(timeout, Some(5.0)),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(parse_args(&argv("noise --db x.db --out y.db")).is_err()); // no --query
        assert!(parse_args(&argv("generate tpch")).is_err()); // no --out
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(parse_args(&argv("schema --db x.db --bogus 1")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("generate oracle --out x.db")).is_err());
        assert!(parse_args(&argv("query --db")).is_err()); // dangling value
    }

    #[test]
    fn duplicate_flag_errors() {
        assert!(parse_args(&argv("schema --db a --db b")).is_err());
    }

    #[test]
    fn empty_args_give_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_serve() {
        let c =
            parse_args(&argv("serve --db x.db --addr 127.0.0.1:0 --workers 2 --queue 8")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                db: "x.db".into(),
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_depth: 8,
                cache_capacity: 128,
                timeout_ms: Some(30_000),
                trace: false,
            }
        );
        // --timeout-ms 0 disables the default deadline.
        match parse_args(&argv("serve --db x.db --timeout-ms 0")).unwrap() {
            Command::Serve { timeout_ms, .. } => assert_eq!(timeout_ms, None),
            _ => panic!("wrong command"),
        }
        // --trace is a valueless switch.
        match parse_args(&argv("serve --db x.db --trace --workers 2")).unwrap() {
            Command::Serve { trace, workers, .. } => {
                assert!(trace);
                assert_eq!(workers, 2);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_bench_serve() {
        let mut a = argv("bench-serve --addr 127.0.0.1:7171 --clients 8 --requests 50");
        a.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&a).unwrap() {
            Command::BenchServe {
                addr, clients, requests, scheme, timeout_ms, permute, ..
            } => {
                assert_eq!(addr, "127.0.0.1:7171");
                assert_eq!(clients, 8);
                assert_eq!(requests, 50);
                assert_eq!(scheme, Scheme::Klm);
                assert_eq!(timeout_ms, None);
                assert!(!permute);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&argv("bench-serve --query Q")).is_err()); // no --addr
                                                                      // --permute-queries is a valueless switch.
        let mut b = argv("bench-serve --addr 127.0.0.1:7171 --permute-queries --seed 9");
        b.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&b).unwrap() {
            Command::BenchServe { permute, seed, .. } => {
                assert!(permute);
                assert_eq!(seed, 9);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_chaos() {
        let mut a = argv("chaos --db x.db --plan all-points-error --seed 7 --clients 3");
        a.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&a).unwrap() {
            Command::Chaos { db, plan, seed, scheme, clients, requests, workers, .. } => {
                assert_eq!(db, PathBuf::from("x.db"));
                assert_eq!(plan, "all-points-error");
                assert_eq!(seed, 7);
                assert_eq!(scheme, Scheme::Klm);
                assert_eq!(clients, 3);
                assert_eq!(requests, 16);
                assert_eq!(workers, 2);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: the smoke plan at seed 42.
        let mut b = argv("chaos --db x.db");
        b.extend(["--query".to_owned(), "Q(n) :- r(n)".to_owned()]);
        match parse_args(&b).unwrap() {
            Command::Chaos { plan, seed, .. } => {
                assert_eq!(plan, "smoke");
                assert_eq!(seed, 42);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&argv("chaos --db x.db")).is_err()); // no --query
    }

    #[test]
    fn parses_debug() {
        for &target in DebugTarget::ALL {
            let line = format!("debug {} --addr 127.0.0.1:7171", target.name());
            let c = parse_args(&argv(&line)).unwrap();
            assert_eq!(c, Command::Debug { addr: "127.0.0.1:7171".into(), target });
        }
        assert!(parse_args(&argv("debug --addr 127.0.0.1:7171")).is_err()); // no target
        assert!(parse_args(&argv("debug heap --addr 127.0.0.1:7171")).is_err());
        assert!(parse_args(&argv("debug flight")).is_err()); // no --addr
    }

    #[test]
    fn parses_perf_passthrough() {
        match parse_args(&argv("perf run --profile ci --pr 6")).unwrap() {
            Command::Perf { args } => {
                assert_eq!(args, vec!["run", "--profile", "ci", "--pr", "6"]);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&argv("perf")).unwrap() {
            Command::Perf { args } => assert!(args.is_empty()),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn scheme_names_are_case_insensitive() {
        for (name, scheme) in [
            ("Natural", Scheme::Natural),
            ("KL", Scheme::Kl),
            ("KLM", Scheme::Klm),
            ("COVER", Scheme::Cover),
        ] {
            assert_eq!(parse_scheme(name).unwrap(), scheme);
        }
        assert!(parse_scheme("montecarlo").is_err());
    }
}
