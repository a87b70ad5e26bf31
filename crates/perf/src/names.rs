//! Every benchmark series name, as the [`SeriesName`] enum.
//!
//! [`crate::schema::bench_series`] takes a [`SeriesName`], so a series
//! recorded into a `BENCH_<pr>.json` cannot carry a misspelled name. The
//! trajectory keys on these strings across PRs, so a silent rename would
//! orphan a series' history.
//!
//! Naming scheme: `area/detail_unit`, where the trailing `_unit` segment
//! (`_ns`, `_ms`, `_rps`) both documents the unit and fixes the gate's
//! direction — `_rps` series are higher-is-better, everything else
//! (latencies, error rates) is lower-is-better.
//!
//! ```compile_fail
//! // A misspelled series does not compile.
//! let s = cqa_perf::Summary::from_samples(&[1.0]);
//! let _ = cqa_perf::bench_series(cqa_perf::names::SeriesName::ServerThroughputRsp, &s);
//! ```

cqa_common::name_enum! {
    /// A benchmark series the suites may record, sorted by name.
    pub enum SeriesName {
        AblationAliasDrawNs = "ablation/alias_draw_ns",
        AblationDklrPlanNs = "ablation/dklr_plan_ns",
        AblationHoeffdingPlanNs = "ablation/hoeffding_plan_ns",
        AblationKlmParallel2Ns = "ablation/klm_parallel2_ns",
        AblationKlmSequentialNs = "ablation/klm_sequential_ns",
        AblationLinearDrawNs = "ablation/linear_draw_ns",
        FigureFig3PreprocessingNs = "figure/fig3_preprocessing_ns",
        OptestPlanR1Ns = "optest/plan_r1_ns",
        OptestPlanR2Ns = "optest/plan_r2_ns",
        OptestPlanR3Ns = "optest/plan_r3_ns",
        OptestStoppingRuleR1Ns = "optest/stopping_rule_r1_ns",
        OptestStoppingRuleR2Ns = "optest/stopping_rule_r2_ns",
        OptestStoppingRuleR3Ns = "optest/stopping_rule_r3_ns",
        SamplerKlSampleNs = "sampler/kl/sample_ns",
        SamplerKlmSampleNs = "sampler/klm/sample_ns",
        SamplerNaturalSampleNs = "sampler/natural/sample_ns",
        SchemeCoverAnswerNs = "scheme/cover/answer_ns",
        SchemeKlAnswerNs = "scheme/kl/answer_ns",
        SchemeKlmAnswerNs = "scheme/klm/answer_ns",
        SchemeNaturalAnswerNs = "scheme/natural/answer_ns",
        ServerLatencyP50Ms = "server/latency_p50_ms",
        ServerLatencyP95Ms = "server/latency_p95_ms",
        ServerThroughputRps = "server/throughput_rps",
        SynopsisBuildJ1Ns = "synopsis/build_j1_ns",
        SynopsisBuildJ3Ns = "synopsis/build_j3_ns",
        SynopsisBuildMissNs = "synopsis/build_miss_ns",
    }
}

/// The unit a series name's trailing segment implies.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_rps") {
        "req/s"
    } else if name.ends_with("_ms") {
        "ms"
    } else {
        "ns/iter"
    }
}

/// True when larger values of this series are better (throughput); false
/// for latencies. The regression gate flips its comparison on this.
pub fn higher_is_better(name: &str) -> bool {
    name.ends_with("_rps")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_follow_the_scheme() {
        for w in SeriesName::ALL.windows(2) {
            assert!(w[0].name() < w[1].name(), "{:?} must sort before {:?}", w[0], w[1]);
        }
        for s in SeriesName::ALL {
            let name = s.name();
            assert!(
                name.ends_with("_ns") || name.ends_with("_ms") || name.ends_with("_rps"),
                "series {name:?} must end in a unit segment (_ns, _ms, _rps)"
            );
            assert!(name.contains('/'), "series {name:?} must be namespaced area/detail");
            assert!(
                name.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'_'
                    || b == b'/'),
                "series {name:?} must be lower_snake with / separators"
            );
        }
    }

    #[test]
    fn direction_and_unit_agree_with_suffixes() {
        assert!(higher_is_better("server/throughput_rps"));
        assert!(!higher_is_better("server/latency_p95_ms"));
        assert_eq!(unit_of("sampler/kl/sample_ns"), "ns/iter");
        assert_eq!(unit_of("server/latency_p95_ms"), "ms");
        assert_eq!(unit_of("server/throughput_rps"), "req/s");
        assert!(!higher_is_better("server/chaos_on_error_rate"));
    }

    #[test]
    fn expected_coverage_is_present() {
        // The acceptance bar: scheme sampling latency, synopsis build
        // time, and server throughput/tail latency, ≥ 12 series total.
        let names: Vec<&str> = SeriesName::ALL.iter().map(|s| s.name()).collect();
        assert!(names.len() >= 12);
        for area in ["sampler/", "scheme/", "synopsis/", "server/"] {
            assert!(names.iter().any(|s| s.starts_with(area)), "no {area} series");
        }
    }
}
