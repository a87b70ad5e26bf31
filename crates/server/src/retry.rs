//! Client-side retries: exponential backoff with jitter under a budget.
//!
//! The chaos harness (`cqa-cli chaos`) injects transient faults — dropped
//! connections, torn writes, `overloaded` rejections — and the contract it
//! enforces is that clients absorb them: every request ends in a correct
//! answer or a documented, *non-retryable* structured error. This module
//! is the absorbing layer. [`RetryingClient`] wraps [`Client`] with:
//!
//! * reconnect-on-transport-error — a hung-up or torn connection is torn
//!   down and redialed on the next attempt;
//! * retry only when the failure is transient — transport errors and
//!   error envelopes whose kind is
//!   [`ErrorKind::retryable`](crate::protocol::ErrorKind::retryable)
//!   (`overloaded`, `internal`); `bad_request` and `deadline_exceeded`
//!   return immediately;
//! * exponential backoff with equal jitter, capped per step and bounded
//!   overall by a wall-clock budget;
//! * an `attempt` stamp on each retry (1, 2, …) so the server's
//!   `server_retried_requests_total` counter sees them.
//!
//! The backoff/decision math lives in [`RetryPolicy`] as pure functions of
//! (attempt, remaining budget, seeded RNG) — no clock, no ambient entropy —
//! so the tests below pin exact behaviour without sleeping.

use crate::client::Client;
use crate::protocol::{QueryRequest, Response};
use cqa_common::{CqaError, Mt64, Result, Stopwatch};
use std::time::Duration;

/// How to retry: attempt ceiling, backoff shape, and total time budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub max_attempts: u32,
    /// Backoff ceiling before the first retry, milliseconds.
    pub base_delay_ms: u64,
    /// Per-step backoff ceiling, milliseconds; doubling stops here.
    pub cap_delay_ms: u64,
    /// Wall-clock budget across all attempts and sleeps, milliseconds.
    pub budget_ms: u64,
}

impl RetryPolicy {
    /// The backoff ceiling before retry number `retries_done + 1`:
    /// `base * 2^retries_done`, capped at [`RetryPolicy::cap_delay_ms`].
    pub fn ceiling_ms(&self, retries_done: u32) -> u64 {
        if retries_done >= 32 {
            self.cap_delay_ms
        } else {
            self.base_delay_ms.saturating_mul(1u64 << retries_done).min(self.cap_delay_ms)
        }
    }

    /// One backoff draw with equal jitter: uniform in
    /// `[ceiling/2, ceiling]`, so consecutive retries never collapse to
    /// zero wait but still decorrelate across clients sharing a plan.
    pub fn backoff_ms(&self, retries_done: u32, rng: &mut Mt64) -> u64 {
        let ceiling = self.ceiling_ms(retries_done);
        let half = ceiling / 2;
        half + rng.below(ceiling - half + 1)
    }

    /// Decides the next retry after `failed_attempts` failures (≥ 1):
    /// `Some(delay)` to sleep and go again, `None` to give up — because
    /// attempts are exhausted or the drawn delay does not fit in
    /// `remaining_budget_ms`. Pure in its arguments: no clock is read, and
    /// the only randomness is the caller's seeded `rng`.
    pub fn next_delay_ms(
        &self,
        failed_attempts: u32,
        remaining_budget_ms: u64,
        rng: &mut Mt64,
    ) -> Option<u64> {
        if failed_attempts >= self.max_attempts.max(1) {
            return None;
        }
        let delay = self.backoff_ms(failed_attempts - 1, rng);
        if delay >= remaining_budget_ms {
            return None;
        }
        Some(delay)
    }
}

/// Whether one query outcome is worth retrying: transport-level errors
/// (connection refused, server hung up, torn response line) always are —
/// the connection will be redialed — and error envelopes are exactly when
/// their kind says so ([`ErrorKind::retryable`]). Answers and non-retryable
/// envelopes are final.
///
/// [`ErrorKind::retryable`]: crate::protocol::ErrorKind::retryable
pub fn outcome_is_retryable(outcome: &Result<Response>) -> bool {
    match outcome {
        Err(_) => true,
        Ok(Response::Error { kind, .. }) => kind.retryable(),
        Ok(_) => false,
    }
}

/// A [`Client`] that redials and retries transient failures by policy.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    rng: Mt64,
    conn: Option<Client>,
    retries: u64,
    reconnects: u64,
}

impl RetryingClient {
    /// Dials the server; the seed drives jitter only, so two clients with
    /// the same seed draw identical backoff sequences.
    pub fn connect(addr: &str, policy: RetryPolicy, seed: u64) -> Result<RetryingClient> {
        let conn = Client::connect(addr)?;
        Ok(RetryingClient {
            addr: addr.to_owned(),
            policy,
            rng: Mt64::new(seed),
            conn: Some(conn),
            retries: 0,
            reconnects: 0,
        })
    }

    /// Retries performed so far (sleeps taken, across all queries).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnects performed so far after transport-level failures.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn conn(&mut self) -> Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.addr.as_str())?);
            self.reconnects += 1;
        }
        // The slot was just filled above; shed with a transport-shaped
        // error rather than panic if that ever stops holding.
        self.conn
            .as_mut()
            .ok_or_else(|| CqaError::Parse("connection slot empty after redial".to_owned()))
    }

    /// Runs one query, absorbing transient failures. Returns the first
    /// final outcome: an answer, a non-retryable error envelope, or — once
    /// attempts or budget run out — the last transient failure as-is.
    pub fn query(&mut self, request: &QueryRequest) -> Result<Response> {
        let wall = Stopwatch::start();
        let mut failed_attempts: u32 = 0;
        loop {
            let outcome = match self.conn() {
                Ok(client) => {
                    let mut attempt_req = request.clone();
                    attempt_req.attempt = u64::from(failed_attempts);
                    client.query(attempt_req)
                }
                Err(e) => Err(e),
            };
            if !outcome_is_retryable(&outcome) {
                return outcome;
            }
            if outcome.is_err() {
                // Transport failure: the connection state is unknown
                // (half-written line, server hung up) — drop it and
                // redial on the next attempt.
                self.conn = None;
            }
            failed_attempts += 1;
            let remaining_ms =
                self.policy.budget_ms.saturating_sub((wall.elapsed_secs() * 1000.0) as u64);
            match self.policy.next_delay_ms(failed_attempts, remaining_ms, &mut self.rng) {
                Some(delay_ms) => {
                    self.retries += 1;
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                None => return outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorKind;
    use cqa_common::CqaError;

    fn policy() -> RetryPolicy {
        RetryPolicy { max_attempts: 5, base_delay_ms: 10, cap_delay_ms: 100, budget_ms: 1_000 }
    }

    #[test]
    fn ceilings_double_then_cap() {
        let p = policy();
        assert_eq!(p.ceiling_ms(0), 10);
        assert_eq!(p.ceiling_ms(1), 20);
        assert_eq!(p.ceiling_ms(2), 40);
        assert_eq!(p.ceiling_ms(3), 80);
        assert_eq!(p.ceiling_ms(4), 100);
        assert_eq!(p.ceiling_ms(63), 100, "huge retry counts must not overflow the shift");
    }

    #[test]
    fn jitter_stays_inside_the_equal_jitter_envelope() {
        let p = policy();
        let mut rng = Mt64::new(7);
        for retries_done in 0..6 {
            let ceiling = p.ceiling_ms(retries_done);
            for _ in 0..200 {
                let d = p.backoff_ms(retries_done, &mut rng);
                assert!(
                    d >= ceiling / 2 && d <= ceiling,
                    "draw {d} outside [{}, {ceiling}] at retry {retries_done}",
                    ceiling / 2
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_in_the_seed() {
        let p = policy();
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = Mt64::new(seed);
            (0..4).map(|r| p.backoff_ms(r, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must replay the same backoff sequence");
        assert_ne!(draw(42), draw(43), "different seeds should decorrelate backoff");
    }

    #[test]
    fn attempts_exhaust() {
        let p = policy();
        let mut rng = Mt64::new(1);
        assert!(p.next_delay_ms(1, u64::MAX, &mut rng).is_some());
        assert!(p.next_delay_ms(4, u64::MAX, &mut rng).is_some());
        assert!(p.next_delay_ms(5, u64::MAX, &mut rng).is_none(), "max_attempts is inclusive");
        assert!(p.next_delay_ms(6, u64::MAX, &mut rng).is_none());
    }

    #[test]
    fn budget_exhaustion_stops_retries() {
        let p = policy();
        let mut rng = Mt64::new(1);
        // The first retry's delay is uniform in [5, 10] ms; a 4 ms budget
        // can never fit it, a generous one always does.
        assert!(p.next_delay_ms(1, 4, &mut rng).is_none());
        assert!(p.next_delay_ms(1, 1_000, &mut rng).is_some());
        assert!(p.next_delay_ms(1, 0, &mut rng).is_none(), "an empty budget never retries");
    }

    #[test]
    fn only_transient_outcomes_are_retryable() {
        let envelope = |kind: ErrorKind| -> Result<Response> {
            Ok(Response::Error { kind, message: "m".to_owned() })
        };
        assert!(outcome_is_retryable(&envelope(ErrorKind::Overloaded)));
        assert!(outcome_is_retryable(&envelope(ErrorKind::Internal)));
        assert!(!outcome_is_retryable(&envelope(ErrorKind::BadRequest)));
        assert!(!outcome_is_retryable(&envelope(ErrorKind::DeadlineExceeded)));
        assert!(outcome_is_retryable(&Err(CqaError::Parse(
            "server closed the connection".to_owned()
        ))));
        assert!(!outcome_is_retryable(&Ok(Response::Pong { version: 1 })));
    }

    #[test]
    fn zero_max_attempts_behaves_like_one() {
        let p = RetryPolicy { max_attempts: 0, ..policy() };
        let mut rng = Mt64::new(1);
        assert!(p.next_delay_ms(1, u64::MAX, &mut rng).is_none());
    }
}
