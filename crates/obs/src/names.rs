//! Every span name in the workspace, as the [`Span`] enum.
//!
//! Dashboards and trace post-processing key on these literal strings. A
//! span API takes a [`Span`], not a string, so a misspelled name is a
//! compile error at the instrumentation site; adding an instrumentation
//! point means adding its variant here. The variant's discriminant is the
//! id a recorded trace event carries.
//!
//! Naming scheme: spans are `area/operation` (slash-separated, the area
//! matching the crate or subsystem).
//!
//! ```compile_fail
//! // A misspelled span does not compile.
//! let _g = cqa_obs::span(cqa_obs::Span::ServerRequets);
//! ```

cqa_common::name_enum! {
    /// A span or instant-event name, passed to [`crate::span`],
    /// [`crate::span_args`], [`crate::record_span`] or
    /// [`crate::instant_args`].
    pub enum Span {
        // crates/server — request lifecycle
        ServerRequest = "server/request",
        ServerQueueWait = "server/queue_wait",
        ServerCacheLookup = "server/cache_lookup",
        ServerSynopsisBuild = "server/synopsis_build",
        ServerSampling = "server/sampling",
        ServerDebugFlight = "server/debug_flight",
        ServerDebugSlowlog = "server/debug_slowlog",
        // crates/synopsis — preprocessing
        SynopsisBuild = "synopsis/build",
        SynopsisEnumerateHoms = "synopsis/enumerate_homs",
        SynopsisEncodeGroups = "synopsis/encode_groups",
        // crates/scenarios — benchmark harness
        ScenarioCellNoise = "scenario/cell_noise",
        ScenarioCellBalance = "scenario/cell_balance",
        ScenarioRunPair = "scenario/run_pair",
        RunNatural = "run/Natural",
        RunKl = "run/KL",
        RunKlm = "run/KLM",
        RunCover = "run/Cover",
        DriverApxCqa = "driver/apx_cqa",
        // crates/core — sampling schemes and stopping rules
        SchemeNatural = "scheme/Natural",
        SchemeKl = "scheme/KL",
        SchemeKlm = "scheme/KLM",
        SchemeCover = "scheme/Cover",
        DklrStoppingRule = "dklr/stopping_rule",
        DklrVarianceEstimation = "dklr/variance_estimation",
        DklrPlanned = "dklr/planned",
        CoreCoverageLoop = "core/coverage_loop",
        CoreMcFinalLoop = "core/mc_final_loop",
        CoreDeadlineExpired = "core/deadline_expired",
        CoreSampleCapHit = "core/sample_cap_hit",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_distinct_and_follow_the_scheme() {
        let names: BTreeSet<_> = Span::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Span::ALL.len(), "two spans share a name");
        for s in names {
            assert!(s.contains('/') && !s.contains(' '), "span {s:?} must be area/operation");
        }
    }
}
