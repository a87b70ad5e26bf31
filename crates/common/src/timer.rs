//! Wall-clock measurement and soft deadlines.
//!
//! The paper flags an approximation scheme as timed out when it exceeds a
//! budget (1 hour there). Our samplers check a [`Deadline`] periodically so
//! the benchmark harness can enforce the same semantics at our scale.

use std::time::{Duration, Instant};

/// A simple stopwatch for the harness' timing columns.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Elapsed wall time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// A soft deadline; `None` budget means "never expires".
///
/// Checking the system clock on every sample would dominate the samplers'
/// cost, so callers poll [`Deadline::expired`] every few thousand samples.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    limit: Option<Instant>,
}

impl Deadline {
    /// A deadline that never fires.
    pub fn none() -> Self {
        Deadline { limit: None }
    }

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline { limit: Some(Instant::now() + budget) }
    }

    /// A deadline `secs` seconds from now.
    pub fn after_secs(secs: f64) -> Self {
        Self::after(Duration::from_secs_f64(secs))
    }

    /// True once the budget is exhausted.
    #[inline]
    pub fn expired(&self) -> bool {
        match self.limit {
            None => false,
            Some(t) => Instant::now() >= t,
        }
    }

    /// True when this deadline can ever expire.
    pub fn is_finite(&self) -> bool {
        self.limit.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed_secs() >= 0.004);
    }

    #[test]
    fn none_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(!d.is_finite());
    }

    #[test]
    fn deadline_expires_after_budget() {
        let d = Deadline::after(Duration::from_millis(3));
        assert!(d.is_finite());
        std::thread::sleep(Duration::from_millis(6));
        assert!(d.expired());
    }

    #[test]
    fn fresh_deadline_is_not_expired() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
    }
}
