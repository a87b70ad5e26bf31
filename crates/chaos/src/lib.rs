//! Deterministic fault injection for the request path.
//!
//! Clippy's panic lints, denied in every library crate the server links,
//! keep `unwrap`, `expect` and `panic!` out of the serving tier; this
//! crate checks at run time that the tier degrades instead of aborting
//! when a boundary fails. Every fallible boundary in the request path
//! carries a [`fault_point!`] — a macro that compiles to a single relaxed
//! atomic load when the harness is disarmed (the same
//! zero-cost-when-disabled discipline as `cqa-obs` spans) and, when
//! armed, consults the active [`FaultPlan`] to decide whether to inject a
//! fault at that boundary: a structured error, a delay, a short write, or
//! a worker panic.
//!
//! Decisions are **deterministic and schedule-independent**: each point
//! keeps a hit counter, and whether hit `i` of point `p` fires under plan
//! seed `s` is a pure hash of `(s, p, i)` — no RNG state, no clock. Two
//! runs of the same workload see the same faults at the same hit indices
//! regardless of thread interleaving.
//!
//! The chaos runner (`cqa_server::chaos`, `cqa-cli chaos`) replays
//! bench-serve load under a plan and asserts the reliability invariants;
//! the per-point guarantees are documented in `docs/RELIABILITY.md`.
//!
//! ```
//! use cqa_chaos::{fault_point, FaultPlan};
//!
//! // Disarmed: one atomic load, no fault.
//! assert!(fault_point!(CacheInsert).is_none());
//!
//! // Armed: the seeded plan decides.
//! cqa_chaos::arm(&FaultPlan::preset("all-points-error", 42).unwrap()).unwrap();
//! let fired: u32 = (0..100).map(|_| u32::from(fault_point!(CacheInsert).is_some())).sum();
//! cqa_chaos::disarm();
//! assert!(fired > 0 && fired < 100);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod points;

pub use points::Point;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use cqa_common::fnv1a64_parts;

/// Global arm flag. Reading it is the only cost a [`fault_point!`] pays
/// in normal operation.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether a fault plan is armed. `#[inline(always)]` so the disarmed
/// fast path of [`fault_point!`] is a single relaxed load.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A fault the enclosing boundary must surface itself. [`trigger`]
/// handles delays and worker panics internally; errors and short writes
/// are returned because only the call site knows its error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with the boundary's structured error.
    Error,
    /// Write a truncated payload, then behave as if the peer hung up.
    ShortWrite,
}

/// What to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Surface the boundary's error path ([`Fault::Error`]).
    Error,
    /// Sleep for `ms` milliseconds, then proceed normally.
    Delay {
        /// Injected latency in milliseconds.
        ms: u64,
    },
    /// Truncate the write ([`Fault::ShortWrite`]); only meaningful at
    /// write boundaries, other points treat it as [`FaultKind::Error`].
    ShortWrite,
    /// Panic at the point; the server contains it with `catch_unwind` on
    /// the query's connection thread and the client sees a structured
    /// `internal` error.
    PanicInWorker,
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on each hit independently with this probability, decided by
    /// the pure hash of `(plan seed, point, hit index)`.
    Probability(f64),
    /// Fire on every `n`-th hit of the point (hits 1-based: `n`, `2n`, …).
    NthHit(u64),
}

/// One injection rule: a point (or every point), a fault kind, and a
/// trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The point the rule applies to; `None` applies it to every point.
    pub point: Option<Point>,
    /// What to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: Trigger,
}

/// A seeded, named set of injection rules. Same plan + same workload ⇒
/// same faults, independent of scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-hit decision.
    pub seed: u64,
    /// The rules; the first rule that fires at a point wins.
    pub rules: Vec<FaultRule>,
}

/// The named plan presets accepted by [`FaultPlan::preset`] (and by
/// `cqa-cli chaos --plan`).
pub const PRESETS: &[&str] =
    &["all-points-delay", "all-points-error", "short-write", "smoke", "worker-panic"];

impl FaultPlan {
    /// Build one of the named preset plans, or `None` for an unknown name.
    ///
    /// * `all-points-error` — every point errors with p=0.2.
    /// * `all-points-delay` — every point delays 2 ms with p=0.25.
    /// * `smoke` — error + delay at three points (the CI smoke plan).
    /// * `short-write` — truncated protocol writes with p=0.25.
    /// * `worker-panic` — every 5th `pool/handoff` (a query that holds its
    ///   admission permit, about to run) panics.
    pub fn preset(name: &str, seed: u64) -> Option<FaultPlan> {
        let at = |p, kind, trigger| FaultRule { point: Some(p), kind, trigger };
        let every = |kind, trigger| FaultRule { point: None, kind, trigger };
        let rules = match name {
            "all-points-error" => vec![every(FaultKind::Error, Trigger::Probability(0.2))],
            "all-points-delay" => {
                vec![every(FaultKind::Delay { ms: 2 }, Trigger::Probability(0.25))]
            }
            "smoke" => vec![
                at(Point::PoolSubmit, FaultKind::Error, Trigger::Probability(0.15)),
                at(Point::ProtocolWrite, FaultKind::Error, Trigger::Probability(0.15)),
                at(Point::CacheShardLock, FaultKind::Delay { ms: 2 }, Trigger::Probability(0.25)),
            ],
            "short-write" => {
                vec![at(Point::ProtocolWrite, FaultKind::ShortWrite, Trigger::Probability(0.25))]
            }
            "worker-panic" => {
                vec![at(Point::PoolHandoff, FaultKind::PanicInWorker, Trigger::NthHit(5))]
            }
            _ => return None,
        };
        Some(FaultPlan { seed, rules })
    }
}

/// A compiled plan: rules resolved to points, plus the per-point hit and
/// injection counters, all indexed by the [`Point`] discriminant. Kept
/// after [`disarm`] so reports can read the counters of the run that just
/// finished.
struct Active {
    seed: u64,
    /// `by_point[i]` = the rules that apply to `Point::ALL[i]`, in plan
    /// order (every-point rules expanded), paired with their rule index for
    /// decision mixing.
    by_point: Vec<Vec<(usize, FaultKind, Trigger)>>,
    hits: Vec<AtomicU64>,
    injections: Vec<AtomicU64>,
}

static PLAN: Mutex<Option<Active>> = Mutex::new(None);

/// Hit/injection totals for one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointCounts {
    /// The point's name.
    pub point: &'static str,
    /// How many times the point was reached while armed.
    pub hits: u64,
    /// How many of those hits injected a fault.
    pub injections: u64,
}

/// Compile and arm `plan`. Fails (leaving the harness disarmed) if a
/// probability is outside `[0, 1]` or an nth-hit period is zero.
pub fn arm(plan: &FaultPlan) -> Result<(), String> {
    let n = Point::ALL.len();
    let mut by_point: Vec<Vec<(usize, FaultKind, Trigger)>> = vec![Vec::new(); n];
    for (rule_idx, rule) in plan.rules.iter().enumerate() {
        match rule.trigger {
            Trigger::Probability(p) if !(0.0..=1.0).contains(&p) => {
                return Err(format!("rule {rule_idx}: probability {p} outside [0, 1]"));
            }
            Trigger::NthHit(0) => return Err(format!("rule {rule_idx}: nth-hit period is zero")),
            _ => {}
        }
        let site = (rule_idx, rule.kind, rule.trigger);
        match rule.point {
            None => by_point.iter_mut().for_each(|sites| sites.push(site)),
            Some(p) => by_point[p as usize].push(site),
        }
    }
    let active = Active {
        seed: plan.seed,
        by_point,
        hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
        injections: (0..n).map(|_| AtomicU64::new(0)).collect(),
    };
    *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = Some(active);
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarm the harness. The last plan's counters stay readable via
/// [`counts`] until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Per-point hit/injection totals of the current (or most recently
/// disarmed) plan. Empty if nothing was ever armed.
pub fn counts() -> Vec<PointCounts> {
    let guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(active) = guard.as_ref() else { return Vec::new() };
    Point::ALL
        .iter()
        .enumerate()
        .map(|(i, p)| PointCounts {
            point: p.name(),
            hits: active.hits[i].load(Ordering::Relaxed),
            injections: active.injections[i].load(Ordering::Relaxed),
        })
        .collect()
}

/// Map the decision hash to a uniform draw in `[0, 1)`. Mixing the rule
/// index in keeps stacked rules on one point independent.
fn unit(seed: u64, point: &str, hit: u64, rule_idx: usize) -> f64 {
    let h = fnv1a64_parts([
        seed.to_le_bytes().as_slice(),
        point.as_bytes(),
        hit.to_le_bytes().as_slice(),
        (rule_idx as u64).to_le_bytes().as_slice(),
    ]);
    // Take the top 53 bits so the quotient is exact in an f64.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The slow path of [`fault_point!`]: record the hit, decide per the
/// active plan, and either perform the fault here (delay, panic) or hand
/// it back for the boundary to surface ([`Fault::Error`],
/// [`Fault::ShortWrite`]).
pub fn trigger(point: Point) -> Option<Fault> {
    let name = point.name();
    let fired = {
        let guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
        let active = guard.as_ref()?;
        let idx = point as usize;
        let hit = active.hits[idx].fetch_add(1, Ordering::Relaxed);
        let fired =
            active.by_point[idx].iter().copied().find(|&(rule_idx, _, trigger)| match trigger {
                Trigger::Probability(p) => unit(active.seed, name, hit, rule_idx) < p,
                Trigger::NthHit(n) => (hit + 1) % n == 0,
            });
        if fired.is_some() {
            active.injections[idx].fetch_add(1, Ordering::Relaxed);
        }
        fired
        // Guard drops here: delays and panics must not hold the plan lock.
    };
    match fired?.1 {
        FaultKind::Error => Some(Fault::Error),
        FaultKind::ShortWrite => Some(Fault::ShortWrite),
        FaultKind::Delay { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        #[expect(
            clippy::panic,
            reason = "deliberate fault injection: the server contains it with catch_unwind and \
                      the client sees a structured internal error"
        )]
        FaultKind::PanicInWorker => panic!("injected fault: panic-in-worker at {name}"),
    }
}

/// Consult the chaos harness at a fallible boundary.
///
/// Evaluates to `Option<Fault>`: `None` means proceed normally (the
/// overwhelmingly common case — when disarmed this is one relaxed atomic
/// load), `Some(fault)` means the boundary must surface the injected
/// fault through its own error path. The argument is a [`Point`] variant
/// name, e.g. `fault_point!(CacheLookup)`.
#[macro_export]
macro_rules! fault_point {
    ($point:ident) => {
        if $crate::armed() {
            $crate::trigger($crate::Point::$point)
        } else {
            ::core::option::Option::None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness is process-global; tests that arm it must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = locked();
        disarm();
        for _ in 0..1000 {
            assert_eq!(fault_point!(CacheInsert), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let _g = locked();
        let plan = FaultPlan::preset("all-points-error", 42).unwrap();
        let run = |plan: &FaultPlan| -> Vec<bool> {
            arm(plan).unwrap();
            let pattern = (0..200).map(|_| fault_point!(PoolSubmit).is_some()).collect();
            disarm();
            pattern
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same seed must give the same injection pattern");
        let c = run(&FaultPlan::preset("all-points-error", 43).unwrap());
        assert_ne!(a, c, "a different seed must give a different pattern");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (20..=60).contains(&fired),
            "p=0.2 over 200 hits fired {fired} times, far from expectation"
        );
    }

    #[test]
    fn nth_hit_fires_exactly_on_schedule() {
        let _g = locked();
        let plan = FaultPlan {
            seed: 7,
            rules: vec![FaultRule {
                point: Some(Point::PoolHandoff),
                kind: FaultKind::Error,
                trigger: Trigger::NthHit(3),
            }],
        };
        arm(&plan).unwrap();
        let pattern: Vec<bool> = (0..9).map(|_| fault_point!(PoolHandoff).is_some()).collect();
        disarm();
        assert_eq!(pattern, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn counts_track_hits_and_injections() {
        let _g = locked();
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                point: Some(Point::CacheLookup),
                kind: FaultKind::Error,
                trigger: Trigger::NthHit(2),
            }],
        };
        arm(&plan).unwrap();
        for _ in 0..10 {
            let _ = fault_point!(CacheLookup);
        }
        disarm();
        let c = counts();
        let lookup = c.iter().find(|pc| pc.point == "cache/lookup").unwrap();
        assert_eq!((lookup.hits, lookup.injections), (10, 5));
        let other = c.iter().find(|pc| pc.point == "protocol/read").unwrap();
        assert_eq!((other.hits, other.injections), (0, 0));
        // Counts survive disarm for post-run reports.
        assert!(!armed());
        assert_eq!(counts().iter().map(|pc| pc.hits).sum::<u64>(), 10);
    }

    #[test]
    fn short_write_is_returned_to_the_boundary() {
        let _g = locked();
        let plan = FaultPlan {
            seed: 9,
            rules: vec![FaultRule {
                point: Some(Point::ProtocolWrite),
                kind: FaultKind::ShortWrite,
                trigger: Trigger::NthHit(1),
            }],
        };
        arm(&plan).unwrap();
        let fault = fault_point!(ProtocolWrite);
        disarm();
        assert_eq!(fault, Some(Fault::ShortWrite));
    }

    #[test]
    fn bad_plans_are_rejected() {
        let _g = locked();
        disarm();
        let bad_p = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: None,
                kind: FaultKind::Error,
                trigger: Trigger::Probability(1.5),
            }],
        };
        assert!(arm(&bad_p).is_err());
        assert!(!armed(), "a rejected plan must leave the harness disarmed");
        let bad_n = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: None,
                kind: FaultKind::Error,
                trigger: Trigger::NthHit(0),
            }],
        };
        assert!(arm(&bad_n).is_err());
    }

    #[test]
    fn every_preset_builds_and_arms() {
        let _g = locked();
        for name in PRESETS {
            let plan = FaultPlan::preset(name, 42).unwrap_or_else(|| panic!("preset {name}"));
            arm(&plan).unwrap_or_else(|e| panic!("arming {name}: {e}"));
            disarm();
        }
        assert!(FaultPlan::preset("no-such-plan", 42).is_none());
    }
}
