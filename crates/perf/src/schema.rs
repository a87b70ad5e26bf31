//! The versioned `BENCH_<pr>.json` schema (serde-free, via
//! [`cqa_common::Json`]).
//!
//! One file per PR at the repo root is the perf trajectory: a
//! [`BenchReport`] records the environment fingerprint the numbers were
//! taken under plus one [`Series`] per registered benchmark. The schema
//! carries a `schema` version string so future readers can stay lenient
//! about fields they don't know and strict about the ones they do.

use crate::names::{self, SeriesName};
use crate::stats::Summary;
use cqa_common::{CqaError, Json, Result};
use std::path::Path;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "cqa-perf/1";

/// One recorded benchmark series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (a [`SeriesName`] for series this build records).
    pub name: String,
    /// Unit of `value` (display only; the gate works on ratios).
    pub unit: String,
    /// Recorded value: the *best* observed repeat (min for latency
    /// series, max for throughput), the statistic pyperf and benchstat
    /// report too. Even so it moves by tens of percent between processes,
    /// which is why the gate pairs runs (see [`mod@crate::diff`]).
    pub value: f64,
    /// Robust spread (MAD of the repeats, same unit as `value`).
    pub spread: f64,
    /// Repeats that survived outlier rejection.
    pub repeats: u64,
}

impl Series {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("unit", Json::from(self.unit.as_str())),
            ("value", Json::from(self.value)),
            ("spread", Json::from(self.spread)),
            ("repeats", Json::from(self.repeats)),
        ])
    }

    fn from_json(j: &Json) -> Result<Series> {
        Ok(Series {
            name: j.req_str("name")?.to_owned(),
            unit: j.req_str("unit")?.to_owned(),
            value: j.req_f64("value")?,
            spread: j.req_f64("spread")?,
            repeats: j.req_u64("repeats")?,
        })
    }
}

/// Records a series from a measurement summary, converting seconds-based
/// summaries at the call site.
pub fn bench_series(series: SeriesName, summary: &Summary) -> Series {
    let name = series.name();
    let value = if names::higher_is_better(name) { summary.max } else { summary.min };
    Series {
        name: name.to_owned(),
        unit: names::unit_of(name).to_owned(),
        value,
        spread: summary.mad,
        repeats: summary.count,
    }
}

/// The environment fingerprint a report's numbers were taken under.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvFingerprint {
    /// Git commit hash (or "unknown").
    pub commit: String,
    /// `rustc -V` output (or "unknown").
    pub rustc: String,
    /// CPU model name (or "unknown").
    pub cpu: String,
    /// Logical core count visible to the run.
    pub cores: u64,
    /// Operating system family (`std::env::consts::OS`).
    pub os: String,
    /// TPC-H scale factor the suites ran at.
    pub scale: f64,
    /// Root RNG seed the suites ran with.
    pub seed: u64,
    /// Profile name: "ci", the one run configuration
    /// ([`crate::suites::PROFILE`]).
    pub profile: String,
}

impl EnvFingerprint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("commit", Json::from(self.commit.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("cpu", Json::from(self.cpu.as_str())),
            ("cores", Json::from(self.cores)),
            ("os", Json::from(self.os.as_str())),
            ("scale", Json::from(self.scale)),
            ("seed", Json::from(self.seed)),
            ("profile", Json::from(self.profile.as_str())),
        ])
    }

    fn from_json(j: &Json) -> Result<EnvFingerprint> {
        Ok(EnvFingerprint {
            commit: j.req_str("commit")?.to_owned(),
            rustc: j.req_str("rustc")?.to_owned(),
            cpu: j.req_str("cpu")?.to_owned(),
            cores: j.req_u64("cores")?,
            os: j.req_str("os")?.to_owned(),
            scale: j.req_f64("scale")?,
            seed: j.req_u64("seed")?,
            profile: j.req_str("profile")?.to_owned(),
        })
    }
}

/// One PR's perf recording: fingerprint + series.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// PR number this recording belongs to (names the file `BENCH_<pr>.json`).
    pub pr: u64,
    /// Unix timestamp (seconds) of the run; 0 in deterministic tests.
    pub created_unix: u64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Recorded series, kept sorted by name.
    pub series: Vec<Series>,
}

impl BenchReport {
    /// A new empty report; series are inserted via [`BenchReport::push`].
    pub fn new(pr: u64, created_unix: u64, env: EnvFingerprint) -> BenchReport {
        BenchReport { pr, created_unix, env, series: Vec::new() }
    }

    /// Inserts a series, keeping the list sorted and rejecting duplicates.
    pub fn push(&mut self, s: Series) -> Result<()> {
        match self.series.binary_search_by(|x| x.name.cmp(&s.name)) {
            Ok(_) => {
                Err(CqaError::InvalidParameter(format!("duplicate series {:?} in report", s.name)))
            }
            Err(at) => {
                self.series.insert(at, s);
                Ok(())
            }
        }
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("pr", Json::from(self.pr)),
            ("created_unix", Json::from(self.created_unix)),
            ("env", self.env.to_json()),
            ("series", Json::from(self.series.iter().map(Series::to_json).collect::<Vec<_>>())),
        ])
    }

    /// Parses a report, enforcing the schema version. Every field is
    /// required, and a series name may appear only once.
    pub fn from_json(j: &Json) -> Result<BenchReport> {
        let schema = j.req_str("schema")?;
        if schema != SCHEMA {
            return Err(CqaError::Parse(format!(
                "unsupported bench schema {schema:?} (this build reads {SCHEMA:?})"
            )));
        }
        let env = j.get("env").ok_or_else(|| CqaError::Parse("report missing \"env\"".into()))?;
        let series = j
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| CqaError::Parse("report missing \"series\" array".into()))?;
        let mut report = BenchReport::new(
            j.req_u64("pr")?,
            j.req_u64("created_unix")?,
            EnvFingerprint::from_json(env)?,
        );
        for s in series {
            report.push(Series::from_json(s)?)?;
        }
        Ok(report)
    }

    /// Pretty-prints the document with one series per line — stable diffs
    /// in git, still a single valid JSON value.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let push_field = |out: &mut String, key: &str, val: &Json, trailing: bool| {
            out.push_str(&format!(
                "  \"{key}\": {}{}\n",
                val.to_string_compact(),
                if trailing { "," } else { "" }
            ));
        };
        push_field(&mut out, "schema", &Json::from(SCHEMA), true);
        push_field(&mut out, "pr", &Json::from(self.pr), true);
        push_field(&mut out, "created_unix", &Json::from(self.created_unix), true);
        push_field(&mut out, "env", &self.env.to_json(), true);
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            let comma = if i + 1 < self.series.len() { "," } else { "" };
            out.push_str(&format!("    {}{comma}\n", s.to_json().to_string_compact()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path` (pretty form).
    pub fn write_to(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.render())
            .map_err(|e| CqaError::Parse(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads and parses a report file.
    pub fn read_from(path: &Path) -> Result<BenchReport> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CqaError::Parse(format!("cannot read {}: {e}", path.display())))?;
        let j = Json::parse(&text)
            .map_err(|e| CqaError::Parse(format!("cannot parse {}: {e}", path.display())))?;
        BenchReport::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn sample_report() -> BenchReport {
        let env = EnvFingerprint {
            commit: "abc123".into(),
            rustc: "rustc 1.99.0".into(),
            cpu: "Test CPU".into(),
            cores: 8,
            os: "linux".into(),
            scale: 0.0005,
            seed: 20210620,
            profile: "ci".into(),
        };
        let mut r = BenchReport::new(6, 0, env);
        let s = Summary::from_samples(&[10.0, 11.0, 9.0]);
        r.push(bench_series(SeriesName::SamplerNaturalSampleNs, &s)).unwrap();
        r.push(bench_series(SeriesName::ServerThroughputRps, &s)).unwrap();
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let parsed =
            BenchReport::from_json(&Json::parse(&r.to_json().to_string_compact()).unwrap())
                .unwrap();
        assert_eq!(r, parsed);
        // The pretty form parses to the same report too.
        let pretty = BenchReport::from_json(&Json::parse(&r.render()).unwrap()).unwrap();
        assert_eq!(r, pretty);
    }

    #[test]
    fn duplicate_series_is_rejected_and_order_is_sorted() {
        let mut r = sample_report();
        let s = Summary::from_samples(&[1.0]);
        assert!(r.push(bench_series(SeriesName::SamplerNaturalSampleNs, &s)).is_err());
        let names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    /// Every field is required and a series name appears once: a report
    /// missing one field, or listing one series twice, does not parse.
    #[test]
    fn incomplete_or_duplicated_reports_are_refused() {
        let text = sample_report().render();
        let parse = |text: &str| BenchReport::from_json(&Json::parse(text).unwrap());
        assert!(parse(&text).is_ok());
        let removals = [
            ("repeats", "\"repeats\":3,"),
            ("pr", "\"pr\": 6,"),
            ("created_unix", "\"created_unix\": 0,"),
            ("cores", "\"cores\":8,"),
            ("seed", ",\"seed\":20210620"),
        ];
        for (key, field) in removals {
            assert!(text.contains(field), "{field}");
            let err = parse(&text.replacen(field, "", 1)).unwrap_err();
            assert!(err.to_string().contains(key), "{key}: {err}");
        }
        let series = text.lines().find(|l| l.contains("\"name\":")).unwrap();
        let err = parse(&text.replacen(series, &format!("{series}\n{series}"), 1)).unwrap_err();
        assert!(err.to_string().contains("duplicate series"), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let mut j = sample_report().to_json();
        if let Json::Obj(map) = &mut j {
            map.insert("schema".into(), Json::from("cqa-perf/999"));
        }
        assert!(BenchReport::from_json(&j).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cqa-perf-schema-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let r = sample_report();
        r.write_to(&path).unwrap();
        assert_eq!(BenchReport::read_from(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }
}
