//! Dashboard export: `dev/bench/data.js` + a static `index.html`.
//!
//! The trajectory is published the same way github-action-benchmark does
//! it — a `data.js` that assigns `window.BENCHMARK_DATA = {…}` with one
//! entry per PR, so the page works from `file://` and GitHub Pages alike
//! and third-party benchmark viewers understand the format. Each export
//! *appends* the new report to the existing file (replacing any previous
//! entry for the same PR, so re-runs update in place).

use crate::schema::BenchReport;
use cqa_common::{CqaError, Json, Result};
use std::path::Path;

/// The entries key: github-action-benchmark groups entries under a tool
/// name; ours is the suite family.
const ENTRIES_KEY: &str = "cqa-perf";

const DATA_PREFIX: &str = "window.BENCHMARK_DATA = ";

/// Converts a report into one dashboard entry.
fn entry_of(report: &BenchReport) -> Json {
    let benches: Vec<Json> = report
        .series
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("value", Json::from(s.value)),
                ("range", Json::from(format!("± {}", s.spread))),
                ("unit", Json::from(s.unit.as_str())),
            ])
        })
        .collect();
    Json::obj([
        (
            "commit",
            Json::obj([
                ("id", Json::from(report.env.commit.as_str())),
                ("message", Json::from(format!("PR {}", report.pr))),
                ("url", Json::from("")),
            ]),
        ),
        ("pr", Json::from(report.pr)),
        ("date", Json::from(report.created_unix.saturating_mul(1000))),
        ("tool", Json::from("cargo")),
        ("benches", Json::from(benches)),
    ])
}

/// Parses an existing `data.js` payload (the JSON after the assignment).
fn parse_data_js(text: &str) -> Result<Json> {
    let payload = text
        .trim_start()
        .strip_prefix(DATA_PREFIX)
        .ok_or_else(|| {
            CqaError::Parse("data.js does not start with the expected assignment".into())
        })?
        .trim_end()
        .trim_end_matches(';');
    Json::parse(payload)
}

/// Appends `report` to the dashboard under `dir`, creating `data.js` and
/// `index.html` as needed. Existing entries for the same PR are replaced;
/// entries are kept sorted by PR so the x-axis is the PR sequence.
pub fn export(dir: &Path, report: &BenchReport) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CqaError::Parse(format!("creating {}: {e}", dir.display())))?;
    let data_path = dir.join("data.js");

    let mut entries: Vec<Json> = match std::fs::read_to_string(&data_path) {
        Ok(text) => parse_data_js(&text)?
            .get("entries")
            .and_then(|e| e.get(ENTRIES_KEY))
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let pr = report.pr;
    entries.retain(|e| e.get("pr").and_then(Json::as_u64) != Some(pr));
    entries.push(entry_of(report));
    entries.sort_by_key(|e| e.get("pr").and_then(Json::as_u64).unwrap_or(0));

    let doc = Json::obj([
        ("lastUpdate", Json::from(report.created_unix.saturating_mul(1000))),
        ("repoUrl", Json::from("")),
        ("entries", Json::obj([(ENTRIES_KEY, Json::from(entries))])),
    ]);
    let text = format!("{DATA_PREFIX}{};\n", doc.to_string_compact());
    std::fs::write(&data_path, text)
        .map_err(|e| CqaError::Parse(format!("cannot write {}: {e}", data_path.display())))?;

    let html_path = dir.join("index.html");
    std::fs::write(&html_path, INDEX_HTML)
        .map_err(|e| CqaError::Parse(format!("cannot write {}: {e}", html_path.display())))?;
    Ok(())
}

/// Reads the PR numbers currently in a dashboard (test + CLI listing aid).
pub fn prs_in(dir: &Path) -> Result<Vec<u64>> {
    let text = std::fs::read_to_string(dir.join("data.js")).map_err(|e| {
        CqaError::Parse(format!("cannot read {}: {e}", dir.join("data.js").display()))
    })?;
    let doc = parse_data_js(&text)?;
    Ok(doc
        .get("entries")
        .and_then(|e| e.get(ENTRIES_KEY))
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(|e| e.get("pr").and_then(Json::as_u64)).collect())
        .unwrap_or_default())
}

/// The static dashboard page: renders one small-multiple line chart per
/// series from `data.js`, grouped by area. Self-contained (no CDN), works
/// from `file://`.
const INDEX_HTML: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cqa-perf trajectory</title>
<style>
  :root { --ink:#1a1a2e; --muted:#667; --grid:#e3e3ec; --line:#2563eb; --dot:#1d4ed8; }
  body { font:14px/1.5 system-ui,sans-serif; color:var(--ink); margin:2rem auto; max-width:1100px; padding:0 1rem; }
  h1 { font-size:1.4rem; } h2 { font-size:1.05rem; margin:1.8rem 0 .4rem; color:var(--muted);
       text-transform:uppercase; letter-spacing:.06em; }
  .meta { color:var(--muted); margin-bottom:1rem; }
  .grid { display:grid; grid-template-columns:repeat(auto-fill,minmax(320px,1fr)); gap:1rem; }
  .card { border:1px solid var(--grid); border-radius:8px; padding:.7rem .9rem .4rem; }
  .card .name { font-weight:600; font-size:.92rem; overflow-wrap:anywhere; }
  .card .last { color:var(--muted); font-size:.85rem; margin-bottom:.2rem; }
  svg { width:100%; height:120px; display:block; }
  .axis { stroke:var(--grid); stroke-width:1; }
  .series-line { fill:none; stroke:var(--line); stroke-width:2; }
  .pt { fill:var(--dot); }
  .tick { fill:var(--muted); font-size:10px; }
</style>
</head>
<body>
<h1>cqa-perf trajectory</h1>
<p class="meta" id="meta">loading data.js…</p>
<div id="charts"></div>
<script src="data.js"></script>
<script>
(function () {
  var data = window.BENCHMARK_DATA;
  var meta = document.getElementById('meta');
  if (!data || !data.entries) { meta.textContent = 'no data.js found next to this page'; return; }
  var entries = (data.entries['cqa-perf'] || []).slice()
    .sort(function (a, b) { return (a.pr || 0) - (b.pr || 0); });
  meta.textContent = entries.length + ' recording(s); last update ' +
    (data.lastUpdate ? new Date(data.lastUpdate).toISOString() : 'unknown');

  // name -> [{pr, value, range, unit}]
  var seriesMap = {};
  entries.forEach(function (e) {
    (e.benches || []).forEach(function (b) {
      (seriesMap[b.name] = seriesMap[b.name] || []).push(
        { pr: e.pr, value: b.value, range: b.range, unit: b.unit, commit: e.commit && e.commit.id });
    });
  });

  function fmt(v) {
    if (v >= 1e9) return (v / 1e9).toFixed(2) + 'G';
    if (v >= 1e6) return (v / 1e6).toFixed(2) + 'M';
    if (v >= 1e3) return (v / 1e3).toFixed(2) + 'k';
    return v >= 100 ? v.toFixed(0) : v.toPrecision(3);
  }

  function chart(name, pts) {
    var W = 320, H = 120, L = 44, R = 8, T = 8, B = 18;
    var values = pts.map(function (p) { return p.value; });
    var lo = Math.min.apply(null, values), hi = Math.max.apply(null, values);
    if (lo === hi) { lo = lo * 0.9; hi = hi * 1.1 || 1; }
    var pad = (hi - lo) * 0.1; lo -= pad; hi += pad; if (lo < 0) lo = 0;
    function x(i) { return pts.length === 1 ? (L + W - R) / 2 : L + (W - L - R) * i / (pts.length - 1); }
    function y(v) { return T + (H - T - B) * (1 - (v - lo) / (hi - lo)); }
    var path = pts.map(function (p, i) { return (i ? 'L' : 'M') + x(i).toFixed(1) + ',' + y(p.value).toFixed(1); }).join(' ');
    var dots = pts.map(function (p, i) {
      return '<circle class="pt" r="3" cx="' + x(i).toFixed(1) + '" cy="' + y(p.value).toFixed(1) +
        '"><title>PR ' + p.pr + (p.commit ? ' (' + p.commit + ')' : '') + ': ' + p.value + ' ' + p.unit +
        (p.range ? ' ' + p.range : '') + '</title></circle>';
    }).join('');
    var ticks = pts.map(function (p, i) {
      return '<text class="tick" text-anchor="middle" x="' + x(i).toFixed(1) + '" y="' + (H - 4) + '">#' + p.pr + '</text>';
    }).join('');
    return '<svg viewBox="0 0 ' + W + ' ' + H + '">' +
      '<line class="axis" x1="' + L + '" y1="' + T + '" x2="' + L + '" y2="' + (H - B) + '"/>' +
      '<line class="axis" x1="' + L + '" y1="' + (H - B) + '" x2="' + (W - R) + '" y2="' + (H - B) + '"/>' +
      '<text class="tick" x="2" y="' + (T + 8) + '">' + fmt(hi) + '</text>' +
      '<text class="tick" x="2" y="' + (H - B) + '">' + fmt(lo) + '</text>' +
      '<path class="series-line" d="' + path + '"/>' + dots + ticks + '</svg>';
  }

  var names = Object.keys(seriesMap).sort();
  var areas = {};
  names.forEach(function (n) {
    var area = n.split('/')[0];
    (areas[area] = areas[area] || []).push(n);
  });
  var root = document.getElementById('charts');
  Object.keys(areas).sort().forEach(function (area) {
    var h = document.createElement('h2'); h.textContent = area; root.appendChild(h);
    var grid = document.createElement('div'); grid.className = 'grid'; root.appendChild(grid);
    areas[area].forEach(function (name) {
      var pts = seriesMap[name];
      var last = pts[pts.length - 1];
      var card = document.createElement('div'); card.className = 'card';
      card.innerHTML = '<div class="name">' + name + '</div>' +
        '<div class="last">latest: ' + fmt(last.value) + ' ' + last.unit + '</div>' + chart(name, pts);
      grid.appendChild(card);
    });
  });
})();
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{bench_series, BenchReport, EnvFingerprint};
    use crate::stats::Summary;

    fn report(pr: u64, value: f64) -> BenchReport {
        let mut r = BenchReport::new(pr, 1_700_000_000, EnvFingerprint::default());
        let s = Summary::from_samples(&[value, value, value]);
        r.push(bench_series(crate::names::SeriesName::SamplerNaturalSampleNs, &s)).unwrap();
        r
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cqa-perf-dash-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn export_appends_and_replaces_per_pr() {
        let dir = temp_dir("append");
        export(&dir, &report(5, 100.0)).unwrap();
        export(&dir, &report(6, 110.0)).unwrap();
        assert_eq!(prs_in(&dir).unwrap(), vec![5, 6]);
        // Re-running PR 6 replaces its entry instead of duplicating it.
        export(&dir, &report(6, 120.0)).unwrap();
        assert_eq!(prs_in(&dir).unwrap(), vec![5, 6]);
        assert!(dir.join("index.html").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_js_is_the_assignment_format() {
        let dir = temp_dir("format");
        export(&dir, &report(6, 100.0)).unwrap();
        let text = std::fs::read_to_string(dir.join("data.js")).unwrap();
        assert!(text.starts_with(DATA_PREFIX));
        let doc = parse_data_js(&text).unwrap();
        let entry = &doc.get("entries").unwrap().get(ENTRIES_KEY).unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("tool").and_then(Json::as_str), Some("cargo"));
        let bench = &entry.get("benches").unwrap().as_arr().unwrap()[0];
        assert_eq!(bench.get("name").and_then(Json::as_str), Some("sampler/natural/sample_ns"));
        assert_eq!(bench.get("unit").and_then(Json::as_str), Some("ns/iter"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
