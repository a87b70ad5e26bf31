//! Cross-crate observability tests: a traced scenario run must export a
//! valid, non-empty Chrome trace covering synopsis builds and every
//! scheme's sampling loop, and the server's `stats` command must render
//! the same metrics, under the same names, as JSON and Prometheus text.

use cqa::common::Json;
use cqa::core::{apx_cqa_on_synopses, TupleEstimate};
use cqa::prelude::*;
use cqa::scenarios::{figures, BenchConfig, Pool};
use cqa::server::Response;
use cqa_noise::{add_query_aware_noise, NoiseSpec};

/// Walks a parsed Chrome trace array and collects the event names.
fn event_names(trace: &Json) -> Vec<String> {
    let Json::Arr(events) = trace else { panic!("chrome trace must be a JSON array") };
    events
        .iter()
        .map(|e| {
            let Json::Obj(fields) = e else { panic!("trace event must be an object") };
            match fields.get("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("trace event needs a string name, got {other:?}"),
            }
        })
        .collect()
}

fn get_num(obj: &Json, key: &str) -> f64 {
    let Json::Obj(fields) = obj else { panic!("expected a JSON object") };
    match fields.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("expected number at {key:?}, got {other:?}"),
    }
}

#[test]
fn traced_scenario_run_exports_a_complete_chrome_trace() {
    cqa::obs::trace::clear();
    cqa::obs::set_enabled(true);
    let pool = Pool::build(BenchConfig::smoke()).unwrap();
    let figs = figures::fig1_noise(&pool, &[(0.0, 1)]);
    cqa::obs::set_enabled(false);
    assert!(!figs.is_empty(), "smoke scenario must produce a figure");

    let text = cqa::obs::chrome_trace_string();
    let trace = Json::parse(&text).expect("exported trace must be valid JSON");
    let names = event_names(&trace);
    assert!(!names.is_empty(), "trace must be non-empty");
    assert!(
        names.iter().any(|n| n == "synopsis/build"),
        "trace must cover synopsis construction; saw {names:?}"
    );
    for scheme in ["Natural", "KL", "KLM", "Cover"] {
        assert!(
            names.iter().any(|n| n == &format!("scheme/{scheme}")),
            "trace must cover the {scheme} sampling loop; saw {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n == "scenario/run_pair"),
        "trace must cover the scenario driver; saw {names:?}"
    );
}

#[test]
fn server_stats_agree_between_json_registry_and_prometheus_text() {
    let base = cqa_tpch::generate(cqa_tpch::TpchConfig { scale: 0.0003, seed: 23 });
    let q = parse(base.schema(), "Q(rn) :- region(rk, rn)").unwrap();
    let mut rng = Mt64::new(23);
    let (db, _) =
        add_query_aware_noise(&base, &q, NoiseSpec { p: 1.0, lmin: 2, umax: 3 }, &mut rng).unwrap();

    let handle = Server::bind(
        db,
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let queries = 3u64;
    for seed in 0..queries {
        let resp = client
            .query(QueryRequest {
                query: "Q(rn) :- region(rk, rn)".into(),
                eps: 0.2,
                delta: 0.25,
                seed,
                ..QueryRequest::default()
            })
            .unwrap();
        assert!(matches!(resp, Response::Answers { .. }), "expected answers, got {resp:?}");
    }

    let stats = client.stats_json().unwrap();
    assert_eq!(get_num(&stats, "server_queries_ok_total") as u64, queries);
    let Json::Obj(fields) = &stats else { panic!("stats must be a JSON object") };
    let latency =
        fields.get("server_query_latency").expect("stats must carry the latency histogram");
    assert_eq!(get_num(latency, "count") as u64, queries);

    let text = client.stats_prometheus().unwrap();
    // One name per metric: the JSON keys are exactly the `# TYPE` names.
    let mut typed: Vec<&str> =
        text.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
    typed.sort_unstable();
    assert_eq!(fields.keys().map(String::as_str).collect::<Vec<_>>(), typed);
    assert!(
        text.contains(&format!("server_queries_ok_total {queries}")),
        "prometheus text must report the query count:\n{text}"
    );
    assert!(text.contains("# TYPE server_query_latency histogram"), "missing histogram:\n{text}");
    assert!(
        text.contains(&format!("server_query_latency_count {queries}")),
        "histogram count must match:\n{text}"
    );
    assert!(text.contains("le=\"+Inf\""), "histogram must close with +Inf:\n{text}");

    // The trace command always answers with a (possibly empty) event array.
    let trace = client.trace().unwrap();
    assert!(matches!(trace, Json::Arr(_)), "trace response must be a JSON array");
}

#[test]
fn flight_recorder_attributes_requests_end_to_end() {
    let base = cqa_tpch::generate(cqa_tpch::TpchConfig { scale: 0.0003, seed: 29 });
    let q = parse(base.schema(), "Q(rn) :- region(rk, rn)").unwrap();
    let mut rng = Mt64::new(29);
    let (db, _) =
        add_query_aware_noise(&base, &q, NoiseSpec { p: 1.0, lmin: 2, umax: 3 }, &mut rng).unwrap();

    // The offline driver with the `it-flight-miss` request's settings: the
    // digest must report its total samples and its worst answer's
    // variance and half-width.
    let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
    let offline =
        apx_cqa_on_synopses(&syn, Scheme::Klm, 0.2, 0.25, &Budget::unbounded(), &mut Mt64::new(1))
            .unwrap();
    let worst =
        |field: fn(&TupleEstimate) -> f64| offline.answers.iter().map(field).fold(0.0, f64::max);

    // Threshold 0: every request overruns it, so each one lands in the
    // slow/error log with its span tree — the "injected slow request"
    // without an actual sleep.
    let handle = Server::bind(
        db,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            slow_threshold_ms: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let run = |client: &mut Client, query: &str, id: &str, seed: u64| {
        client
            .query(QueryRequest {
                query: query.into(),
                eps: 0.2,
                delta: 0.25,
                seed,
                request_id: Some(id.into()),
                ..QueryRequest::default()
            })
            .unwrap()
    };
    let miss_resp = run(&mut client, "Q(rn) :- region(rk, rn)", "it-flight-miss", 1);
    assert!(matches!(miss_resp, Response::Answers { cached: false, .. }), "{miss_resp:?}");
    let hit_resp = run(&mut client, "Q(rn) :- region(rk, rn)", "it-flight-hit", 2);
    assert!(matches!(hit_resp, Response::Answers { cached: true, .. }), "{hit_resp:?}");
    let err_resp = run(&mut client, "Q() :- no_such_relation(x)", "it-flight-err", 3);
    assert!(matches!(err_resp, Response::Error { .. }), "{err_resp:?}");
    // A request without a client id gets a server-generated `srv-…` one.
    let anon = client
        .query(QueryRequest {
            query: "Q(rn) :- region(rk, rn)".into(),
            eps: 0.2,
            delta: 0.25,
            seed: 4,
            ..QueryRequest::default()
        })
        .unwrap();
    assert!(matches!(anon, Response::Answers { .. }), "{anon:?}");
    // One request per scheme, whose digest must count exactly the samples
    // its response reports.
    let per_scheme: Vec<(String, u64)> = ALL_SCHEMES
        .into_iter()
        .map(|scheme| {
            let id = format!("it-flight-samples-{scheme}");
            let resp = client
                .query(QueryRequest {
                    query: "Q(rn) :- region(rk, rn)".into(),
                    scheme,
                    eps: 0.2,
                    delta: 0.25,
                    seed: 5,
                    request_id: Some(id.clone()),
                    ..QueryRequest::default()
                })
                .unwrap();
            let Response::Answers { total_samples, .. } = resp else { panic!("{resp:?}") };
            assert!(total_samples > 0, "{scheme} must sample");
            (id, total_samples)
        })
        .collect();

    // The recorder is process-global (other tests may also have recorded),
    // so look digests up by our unique client-supplied ids.
    let (digests, _dropped) = client.debug_flight().unwrap();
    let find = |id: &str| {
        digests
            .iter()
            .find(|d| d.request_id == id)
            .unwrap_or_else(|| panic!("digest for {id} missing; got {digests:?}"))
    };
    let miss = find("it-flight-miss");
    assert!(!miss.cache_hit);
    assert_eq!(miss.scheme, "KLM");
    assert_eq!(miss.error, None);
    assert!(miss.samples > 0, "estimator telemetry must count samples: {miss:?}");
    assert!(miss.ci_half_width > 0.0, "terminal CI half-width must export: {miss:?}");
    assert!(miss.variance > 0.0, "running variance must export: {miss:?}");
    assert_eq!(miss.samples, offline.total_samples, "digest samples vs offline driver");
    assert_eq!(miss.variance, worst(|a| a.variance), "digest variance vs offline driver");
    assert_eq!(miss.ci_half_width, worst(|a| a.ci_half_width), "digest half-width vs offline");
    assert!(miss.queue_wait_us <= miss.total_us);
    assert!(miss.scheme_us <= miss.total_us);
    assert_ne!(miss.query_fingerprint, 0, "parsed queries carry a fingerprint");
    for (id, total_samples) in &per_scheme {
        assert_eq!(find(id).samples, *total_samples, "{id}: digest samples vs response");
    }
    let hit = find("it-flight-hit");
    assert!(hit.cache_hit);
    assert_eq!(hit.preprocess_us, 0, "cache hits skip preprocessing");
    assert_eq!(
        hit.query_fingerprint, miss.query_fingerprint,
        "same canonical query, same fingerprint"
    );
    let err = find("it-flight-err");
    assert_eq!(err.error.as_deref(), Some("bad_request"));
    assert!(
        digests.iter().any(|d| d.request_id.starts_with("srv-")),
        "id-less requests get server-generated ids; got {digests:?}"
    );

    // Every request overran the zero threshold: the slow/error log carries
    // the full span tree of the slow request and of the failed one.
    let slowlog = client.debug_slowlog().unwrap();
    let slow = slowlog
        .iter()
        .find(|e| e.request_id == "it-flight-miss")
        .unwrap_or_else(|| panic!("slow request missing from slowlog: {slowlog:?}"));
    let Json::Arr(spans) = &slow.spans else { panic!("spans must be a JSON array") };
    assert!(!spans.is_empty(), "slowlog entries must carry the captured span tree");
    let span_names: Vec<String> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    for expected in ["server/request", "server/synopsis_build", "server/sampling"] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "span tree must include {expected}; saw {span_names:?}"
        );
    }
    assert!(slowlog.iter().any(|e| e.request_id == "it-flight-err"), "errors tail-sample too");

    // The stats payload mirrors the per-request gauges.
    let stats = client.stats_json().unwrap();
    assert!(get_num(&stats, "server_slow_requests_total") >= 4.0);
    assert!(get_num(&stats, "server_last_request_samples") > 0.0);
    assert!(get_num(&stats, "server_slowlog_entries") > 0.0);
}
