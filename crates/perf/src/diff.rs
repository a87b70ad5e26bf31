//! The regression gate: the merge base's `cqa-perf` and this one run in
//! turn on every suite for [`ROUNDS`] rounds ([`run_rounds`]), and
//! [`judge`] fails a series when its [`ORDER`]-th smallest per-round ratio
//! exceeds [`BOUND`]: a one-sided sign test, with no options.
//!
//! One process's numbers do not repeat. An A/A run on a 2-core host (one
//! binary copied twice, 10 rounds, the copies alternating per suite, 29
//! series) gave per-round ratios with a median log-SD of 0.22, and three
//! series had 10-round *median* ratios of 1.17–1.18; running both copies
//! at once did not narrow the spread. `docs/BENCHMARKING.md` has the data.
//! [`judge`] is arithmetic on recorded rounds, so its tests need no clock.

use crate::names;
use crate::schema::BenchReport;
use crate::suites::SUITES;
use cqa_common::{CqaError, Result, Stopwatch};
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::fmt;
use std::path::Path;
use std::process::{Command, Stdio};

/// Paired rounds per gate run: with 12, the rule below fails an unchanged
/// series with probability at most 13/4096, which resampled A/A ratios put
/// at about 0.1% of runs over all 29 series. One A/A round of both sides
/// took about a minute, so a gate run costs about 13 minutes.
pub const ROUNDS: usize = 12;

/// The verdict reads the 2nd-smallest ratio, so a series fails only when
/// at least 11 of 12 rounds are worse than [`BOUND`]. With no real change
/// a round is that much worse with probability at most 1/2. The A/A run
/// had single rounds at 1.64× and 3.27×, and medians at 1.17–1.18×, so
/// neither one round nor the median can carry the verdict.
pub const ORDER: usize = 2;

/// A series fails when its [`ORDER`]-th smallest ratio exceeds this.
/// Resampled A/A ratios with one series slowed down put the chance of
/// catching the slowdown at about 0.96 at 2×, 0.67 at 1.5× and 0.29 at
/// 1.3×: the gate's measured detection floor.
pub const BOUND: f64 = 1.10;

/// One round's recordings: series name → value, for each side. A side
/// lacks a series when it never recorded it (a suite the base rejected as
/// unknown, or a series one side retired).
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// The merge base's values.
    pub base: BTreeMap<String, f64>,
    /// The candidate's values.
    pub head: BTreeMap<String, f64>,
}

/// Verdict for one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Not consistently beyond the bound (or improved).
    Pass,
    /// Beyond the bound in all but one round.
    Regressed,
    /// Recorded by the head only; not gated.
    New,
    /// Recorded by the base only; not gated.
    Gone,
    /// Not comparable: a value is zero or non-finite, or a round lacks it.
    Incomparable,
}

/// One row of the gate's report.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Series name.
    pub name: String,
    /// Per-round head/base ratios in the *regressing* direction (> 1 is
    /// worse), sorted ascending; empty unless both sides are comparable.
    pub ratios: Vec<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl DiffRow {
    /// The [`ORDER`]-th smallest ratio, which the verdict reads.
    pub fn low(&self) -> Option<f64> {
        self.ratios.get(ORDER - 1).copied()
    }

    /// The [`ORDER`]-th largest ratio.
    pub fn high(&self) -> Option<f64> {
        self.ratios.len().checked_sub(ORDER).map(|i| self.ratios[i])
    }

    /// The median ratio (reported, not gated).
    pub fn median(&self) -> Option<f64> {
        (!self.ratios.is_empty()).then(|| crate::stats::median(&self.ratios))
    }
}

/// The gate's full output.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// One row per series seen on either side, sorted by name.
    pub rows: Vec<DiffRow>,
    /// Rounds the verdicts were drawn from.
    pub rounds: usize,
}

impl DiffReport {
    /// Series that regressed.
    pub fn failures(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regressed).collect()
    }

    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<34} {:>8} {:>8} {:>8}  verdict",
            "series (head/base, >1 is worse)", "median", "2nd-low", "2nd-high"
        )?;
        for r in &self.rows {
            let num = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |x| format!("{x:.3}"));
            let verdict = match r.verdict {
                Verdict::Pass => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::New => "new",
                Verdict::Gone => "gone",
                Verdict::Incomparable => "incomparable",
            };
            writeln!(
                f,
                "{:<34} {:>8} {:>8} {:>8}  {verdict}",
                r.name,
                num(r.median()),
                num(r.low()),
                num(r.high())
            )?;
        }
        let (n, rounds) = (self.rows.len(), self.rounds);
        match self.failures().len() {
            0 => writeln!(f, "gate: PASS ({n} series, {rounds} rounds)"),
            fails => writeln!(
                f,
                "gate: FAIL ({fails} of {n} series had a 2nd-smallest ratio above \
                 {BOUND:.2} over {rounds} rounds)"
            ),
        }
    }
}

/// The ratio in the regressing direction: head/base for latencies,
/// base/head for throughput. `None` unless both values are positive and
/// finite.
fn ratio(name: &str, base: f64, head: f64) -> Option<f64> {
    let ok = |x: f64| x.is_finite() && x > 0.0;
    if !(ok(base) && ok(head)) {
        return None;
    }
    Some(if names::higher_is_better(name) { base / head } else { head / base })
}

/// Judges every series over `rounds`: `Regressed` when its [`ORDER`]-th
/// smallest per-round ratio exceeds [`BOUND`].
pub fn judge(rounds: &[Round]) -> DiffReport {
    let names: BTreeSet<&str> = rounds
        .iter()
        .flat_map(|r| r.base.keys().chain(r.head.keys()))
        .map(String::as_str)
        .collect();
    let rows = names
        .into_iter()
        .map(|name| {
            let in_base = rounds.iter().any(|r| r.base.contains_key(name));
            let in_head = rounds.iter().any(|r| r.head.contains_key(name));
            let paired: Option<Vec<f64>> = rounds
                .iter()
                .map(|r| ratio(name, *r.base.get(name)?, *r.head.get(name)?))
                .collect();
            let (ratios, verdict) = match paired {
                _ if !in_base => (Vec::new(), Verdict::New),
                _ if !in_head => (Vec::new(), Verdict::Gone),
                Some(mut ratios) if ratios.len() >= ORDER => {
                    ratios.sort_by(f64::total_cmp);
                    let regressed = ratios[ORDER - 1] > BOUND;
                    (ratios, if regressed { Verdict::Regressed } else { Verdict::Pass })
                }
                _ => (Vec::new(), Verdict::Incomparable),
            };
            DiffRow { name: name.to_owned(), ratios, verdict }
        })
        .collect();
    DiffReport { rows, rounds: rounds.len() }
}

/// Runs `cmd run --only <suite> --profile ci --out <out>` and returns the
/// recorded values, none when `cmd` rejects `suite` as unknown.
fn run_suite(cmd: &[OsString], suite: &str, out: &Path) -> Result<BTreeMap<String, f64>> {
    let shown = cmd[0].to_string_lossy();
    let output = Command::new(&cmd[0])
        .args(&cmd[1..])
        .args(["run", "--only", suite, "--profile", "ci", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| CqaError::InvalidParameter(format!("cannot run {shown}: {e}")))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        if stderr.contains(&format!("unknown suite '{suite}'")) {
            return Ok(BTreeMap::new());
        }
        return Err(CqaError::InvalidParameter(format!(
            "{shown} run --only {suite} failed ({}): {}",
            output.status,
            stderr.trim()
        )));
    }
    let report = BenchReport::read_from(out)?;
    Ok(report.series.into_iter().map(|s| (s.name, s.value)).collect())
}

/// Runs the paired rounds. In each of [`ROUNDS`] rounds every suite of
/// [`SUITES`] runs once on each side, back to back, with the base first in
/// even rounds and the head first in odd ones. `base` and `head` are
/// command lines that act as `cqa-perf`; each recording passes through
/// `dir/suite.json`. Progress goes to stderr.
pub fn run_rounds(base: &[OsString], head: &[OsString], dir: &Path) -> Result<Vec<Round>> {
    let out = dir.join("suite.json");
    let clock = Stopwatch::start();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let mut round = Round::default();
        for &(suite, _) in &SUITES {
            let mut sides = [(base, &mut round.base), (head, &mut round.head)];
            if i % 2 == 1 {
                sides.reverse();
            }
            for (cmd, values) in sides {
                values.extend(run_suite(cmd, suite, &out)?);
            }
        }
        eprintln!("[cqa-perf] gate round {}/{ROUNDS} done at {:.0} s", i + 1, clock.elapsed_secs());
        rounds.push(round);
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-round ratios shaped like the A/A data: 0.82–1.34, median 1.17.
    const AA: [f64; ROUNDS] =
        [0.82, 0.95, 1.05, 1.12, 1.16, 1.17, 1.17, 1.19, 1.22, 1.25, 1.30, 1.34];

    /// Rounds whose head/base ratio on each `(name, ratios)` series is the
    /// given one (base fixed at 100).
    fn rounds(series: &[(&str, [f64; ROUNDS])]) -> Vec<Round> {
        (0..ROUNDS)
            .map(|i| {
                let mut r = Round::default();
                for (name, ratios) in series {
                    let base = 100.0;
                    let head = if names::higher_is_better(name) {
                        base / ratios[i]
                    } else {
                        base * ratios[i]
                    };
                    r.base.insert((*name).to_owned(), base);
                    r.head.insert((*name).to_owned(), head);
                }
                r
            })
            .collect()
    }

    fn verdict(d: &DiffReport, name: &str) -> Verdict {
        d.rows.iter().find(|r| r.name == name).unwrap().verdict
    }

    #[test]
    fn aa_shaped_rounds_pass_although_their_median_is_above_the_bound() {
        let d = judge(&rounds(&[("sampler/kl/sample_ns", AA), ("scheme/kl/answer_ns", AA)]));
        assert!(d.passed(), "{d}");
        let row = &d.rows[0];
        assert_eq!(row.median(), Some(1.17));
        assert!(row.median().unwrap() > BOUND, "a median rule would fail this A/A run");
        assert_eq!((row.low(), row.high()), (Some(0.95), Some(1.30)));
    }

    #[test]
    fn a_doubled_series_fails_alone() {
        let d = judge(&rounds(&[
            ("sampler/kl/sample_ns", AA.map(|x| x * 2.0)),
            ("sampler/klm/sample_ns", AA),
            ("scheme/kl/answer_ns", AA),
        ]));
        let fails: Vec<&str> = d.failures().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(fails, ["sampler/kl/sample_ns"], "{d}");
        assert!(d.to_string().contains("gate: FAIL (1 of 3"), "{d}");
    }

    #[test]
    fn a_tight_series_fails_at_1_3x() {
        // Like ablation/linear_draw_ns in the A/A run: 0.98–1.13.
        let tight = [0.98, 0.99, 1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.07, 1.09, 1.11, 1.13];
        let name = "ablation/linear_draw_ns";
        assert_eq!(verdict(&judge(&rounds(&[(name, tight)])), name), Verdict::Pass);
        assert_eq!(
            verdict(&judge(&rounds(&[(name, tight.map(|x| x * 1.3))])), name),
            Verdict::Regressed
        );
    }

    #[test]
    fn throughput_is_judged_inverted() {
        let name = "server/throughput_rps";
        // Halved throughput reads base/head = 2 in every round.
        let halved = judge(&rounds(&[(name, [2.0; ROUNDS])]));
        assert_eq!((verdict(&halved, name), halved.rows[0].low()), (Verdict::Regressed, Some(2.0)));
        assert_eq!(halved.rows[0].ratios.len(), ROUNDS);
        // Doubled throughput is an improvement.
        assert_eq!(verdict(&judge(&rounds(&[(name, [0.5; ROUNDS])])), name), Verdict::Pass);
    }

    #[test]
    fn one_sided_series_are_new_or_gone_and_not_gated() {
        let mut rs = rounds(&[("sampler/kl/sample_ns", AA)]);
        for r in &mut rs {
            r.base.insert("sampler/natural/sample_ns".to_owned(), 1.0);
            r.head.insert("lint/check_ms".to_owned(), 1.0e9);
        }
        let d = judge(&rs);
        assert!(d.passed(), "{d}");
        assert_eq!(verdict(&d, "sampler/natural/sample_ns"), Verdict::Gone);
        assert_eq!(verdict(&d, "lint/check_ms"), Verdict::New);
        assert!(d.rows.iter().filter(|r| r.verdict != Verdict::Pass).all(|r| r.ratios.is_empty()));
    }

    #[test]
    fn zero_or_nonfinite_values_are_incomparable_not_fatal() {
        let (zero, inf) = ("figure/fig3_preprocessing_ns", "lint/check_ms");
        let mut rs = rounds(&[(zero, [3.0; ROUNDS]), (inf, [3.0; ROUNDS])]);
        rs[5].base.insert(zero.to_owned(), 0.0);
        rs[7].head.insert(inf.to_owned(), f64::INFINITY);
        let d = judge(&rs);
        assert!(d.passed(), "{d}");
        assert_eq!(verdict(&d, zero), Verdict::Incomparable);
        assert_eq!(verdict(&d, inf), Verdict::Incomparable);
    }
}
