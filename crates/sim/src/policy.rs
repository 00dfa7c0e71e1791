//! Deterministic retry/backoff and circuit-breaker primitives.
//!
//! Every recovery path in the workspace — relay heartbeat sweeps, chain
//! rebuild, env-call stalls, replica re-admission after faults — shares
//! these two policies instead of hand-rolling its own loop:
//!
//! * [`RetryPolicy`]: exponential backoff with bounded retries and
//!   [`SimRng`]-driven jitter, so retry storms decorrelate without
//!   sacrificing reproducibility (same seed, same delays, byte for byte);
//! * [`CircuitBreaker`]: a per-node closed → open → half-open breaker over
//!   virtual time, so a flapping component is quarantined for a cooldown
//!   and re-admitted through a single probe rather than being retried on
//!   every sweep.
//!
//! The types live here, at the bottom of the crate stack, for the same
//! reason the trace records do: the relay and rollout layers need them
//! without depending on the runtime layer. `laminar_runtime` re-exports
//! them at its root as the unified public surface.

use crate::rng::SimRng;
use crate::time::{Duration, Time};

/// Deterministic exponential backoff with bounded retries.
///
/// Attempt `k` (0-based) waits `base * factor^k`, capped at `max_delay`,
/// then scaled by a uniform jitter in `[1 - jitter, 1 + jitter]` drawn from
/// the caller's [`SimRng`] stream. After `max_retries` delays the policy
/// reports exhaustion (`delay` returns `None`) and the caller must fail the
/// operation instead of waiting again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per attempt (≥ 1 for genuine backoff).
    pub factor: f64,
    /// Per-attempt delay cap.
    pub max_delay: Duration,
    /// Number of retries before the operation is failed.
    pub max_retries: u32,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by
    /// `1 ± jitter · u` with `u` uniform in `[-1, 1)`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The deterministic (pre-jitter) delay for retry `attempt` (0-based),
    /// or `None` once retries are exhausted.
    pub fn raw_delay(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        let exp = self.factor.max(1.0).powi(attempt.min(63) as i32);
        let raw = self.base.as_secs_f64() * exp;
        Some(Duration::from_secs_f64(
            raw.min(self.max_delay.as_secs_f64()),
        ))
    }

    /// The jittered delay for retry `attempt` (0-based), or `None` once
    /// retries are exhausted. Jitter draws exactly one value from `rng`
    /// per returned delay, so callers replaying the same stream observe
    /// the same schedule.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> Option<Duration> {
        let raw = self.raw_delay(attempt)?;
        if self.jitter <= 0.0 {
            return Some(raw);
        }
        let u = 2.0 * rng.f64() - 1.0;
        let scale = (1.0 + self.jitter.min(1.0) * u).max(0.0);
        Some(raw.mul_f64(scale))
    }

    /// Worst-case total wait across every retry (all delays at `+jitter`).
    /// Recovery paths use this as the stall budget an operation may consume
    /// before it is abandoned — e.g. the env-call timeout satellite.
    pub fn total_budget(&self) -> Duration {
        let mut total = 0.0;
        for attempt in 0..self.max_retries {
            if let Some(d) = self.raw_delay(attempt) {
                total += d.as_secs_f64() * (1.0 + self.jitter.min(1.0));
            }
        }
        Duration::from_secs_f64(total)
    }
}

/// Breaker position (resolved against the clock by [`CircuitBreaker::allow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected until the cooldown passes.
    Open,
    /// Cooldown elapsed: exactly one probe is admitted; its outcome
    /// decides between re-closing and re-opening.
    HalfOpen,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (within `window` of each other) that trip the
    /// breaker.
    pub failure_threshold: u32,
    /// A failure further than this from the previous one resets the
    /// consecutive count — isolated blips don't accumulate forever.
    pub window: Duration,
    /// How long a tripped breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

/// A per-node circuit breaker over virtual time.
///
/// Deterministic by construction: transitions depend only on the sequence
/// of `(now, record_*)` calls, never on wall clocks or randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    last_failure: Time,
    open_until: Time,
    probing: bool,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive: 0,
            last_failure: Time::ZERO,
            open_until: Time::ZERO,
            probing: false,
            trips: 0,
        }
    }

    /// Appends the breaker's complete internal state as a fixed-order word
    /// stream — the delta-checkpoint encoding for breaker planes.
    pub fn state_words(&self, out: &mut Vec<u64>) {
        out.push(match self.state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
        out.push(self.consecutive as u64);
        out.push(self.last_failure.as_nanos());
        out.push(self.open_until.as_nanos());
        out.push(self.probing as u64);
        out.push(self.trips);
    }

    /// The breaker's position at `now` (an open breaker past its cooldown
    /// reads as half-open).
    pub fn state(&self, now: Time) -> BreakerState {
        match self.state {
            BreakerState::Open if now >= self.open_until => BreakerState::HalfOpen,
            s => s,
        }
    }

    /// True while requests must be rejected at `now`.
    pub fn is_open(&self, now: Time) -> bool {
        self.state == BreakerState::Open && now < self.open_until
    }

    /// Asks permission to issue a request at `now`. Closed breakers always
    /// grant; open breakers reject until the cooldown passes, then admit
    /// exactly one probe (further requests wait for the probe's outcome).
    pub fn allow(&mut self, now: Time) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now < self.open_until {
                    false
                } else {
                    self.state = BreakerState::HalfOpen;
                    self.probing = true;
                    true
                }
            }
            BreakerState::HalfOpen => {
                if self.probing {
                    false
                } else {
                    self.probing = true;
                    true
                }
            }
        }
    }

    /// Reports a failed request. Trips the breaker on the configured number
    /// of consecutive failures, or immediately when a half-open probe fails.
    pub fn record_failure(&mut self, now: Time) {
        if self.state == BreakerState::HalfOpen {
            self.trip(now);
            return;
        }
        if self.consecutive > 0 && now.since(self.last_failure) > self.cfg.window {
            self.consecutive = 0;
        }
        self.consecutive += 1;
        self.last_failure = now;
        if self.state == BreakerState::Closed && self.consecutive >= self.cfg.failure_threshold {
            self.trip(now);
        }
    }

    /// Reports a successful request: the breaker closes and the failure
    /// streak resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive = 0;
        self.probing = false;
    }

    /// When an open breaker will next admit a probe (`None` while closed).
    pub fn retry_at(&self) -> Option<Time> {
        match self.state {
            BreakerState::Open => Some(self.open_until),
            _ => None,
        }
    }

    /// Times the breaker has tripped over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    fn trip(&mut self, now: Time) {
        self.state = BreakerState::Open;
        self.open_until = now + self.cfg.cooldown;
        self.consecutive = 0;
        self.probing = false;
        self.trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_curve_is_exponential_and_capped() {
        let p = RetryPolicy {
            base: Duration::from_secs(1),
            factor: 2.0,
            max_delay: Duration::from_secs(5),
            max_retries: 4,
            jitter: 0.0,
        };
        let delays: Vec<f64> = (0..4)
            .map(|k| p.raw_delay(k).unwrap().as_secs_f64())
            .collect();
        assert_eq!(delays, vec![1.0, 2.0, 4.0, 5.0]);
        assert_eq!(p.raw_delay(4), None, "retries exhausted");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            base: Duration::from_secs(10),
            factor: 1.0,
            max_delay: Duration::from_secs(10),
            max_retries: 100,
            jitter: 0.25,
        };
        let mut a = SimRng::derive(7, "policy-test", 0);
        let mut b = SimRng::derive(7, "policy-test", 0);
        for k in 0..100 {
            let da = p.delay(k, &mut a).unwrap();
            let db = p.delay(k, &mut b).unwrap();
            assert_eq!(da.as_nanos(), db.as_nanos(), "same stream, same delay");
            let s = da.as_secs_f64();
            assert!((7.5..=12.5).contains(&s), "jitter out of bounds: {s}");
        }
    }

    #[test]
    fn total_budget_bounds_every_schedule() {
        let p = RetryPolicy {
            base: Duration::from_millis(500),
            factor: 2.0,
            max_delay: Duration::from_secs(30),
            max_retries: 5,
            jitter: 0.1,
        };
        let budget = p.total_budget().as_secs_f64();
        for seed in 0..32 {
            let mut rng = SimRng::derive(seed, "budget", 0);
            let total: f64 = (0..p.max_retries)
                .map(|k| p.delay(k, &mut rng).unwrap().as_secs_f64())
                .sum();
            assert!(total <= budget + 1e-9, "schedule {total} > budget {budget}");
        }
    }

    #[test]
    fn breaker_trips_on_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            window: Duration::from_secs(60),
            cooldown: Duration::from_secs(100),
        });
        let t = Time::from_secs(10);
        assert!(b.allow(t));
        b.record_failure(t);
        b.record_failure(t + Duration::from_secs(1));
        assert!(b.allow(t + Duration::from_secs(2)), "two failures: closed");
        b.record_failure(t + Duration::from_secs(2));
        assert!(!b.allow(t + Duration::from_secs(3)), "tripped");
        assert_eq!(b.trips(), 1);
        assert_eq!(b.retry_at(), Some(t + Duration::from_secs(102)));
    }

    #[test]
    fn isolated_failures_outside_window_never_trip() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            window: Duration::from_secs(10),
            cooldown: Duration::from_secs(100),
        });
        for k in 0..20u64 {
            let now = Time::from_secs(100 * k);
            b.record_failure(now);
            assert!(b.allow(now), "spaced blips stay closed");
        }
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn half_open_admits_one_probe_and_its_outcome_decides() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            window: Duration::from_secs(60),
            cooldown: Duration::from_secs(50),
        };
        // Probe succeeds: breaker closes again.
        let mut b = CircuitBreaker::new(cfg);
        b.record_failure(Time::from_secs(0));
        assert!(!b.allow(Time::from_secs(10)));
        assert!(
            b.allow(Time::from_secs(60)),
            "cooldown over: probe admitted"
        );
        assert!(!b.allow(Time::from_secs(61)), "only one probe at a time");
        b.record_success();
        assert!(b.allow(Time::from_secs(62)));
        assert_eq!(b.state(Time::from_secs(62)), BreakerState::Closed);

        // Probe fails: breaker re-opens for a full cooldown.
        let mut b = CircuitBreaker::new(cfg);
        b.record_failure(Time::from_secs(0));
        assert!(b.allow(Time::from_secs(55)));
        b.record_failure(Time::from_secs(55));
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(Time::from_secs(100)), "re-opened");
        assert!(b.allow(Time::from_secs(105)), "second cooldown over");
    }

    #[test]
    fn failed_probe_restarts_cooldown_from_failure_time() {
        // The fresh cooldown must be anchored at the probe's *failure* time,
        // not the original trip or the probe's admission — otherwise a slow
        // probe's failure would grant an immediate (or even retroactive)
        // second probe.
        let cfg = BreakerConfig {
            failure_threshold: 1,
            window: Duration::from_secs(60),
            cooldown: Duration::from_secs(50),
        };
        let mut b = CircuitBreaker::new(cfg);
        b.record_failure(Time::from_secs(0));
        assert_eq!(b.retry_at(), Some(Time::from_secs(50)));
        assert!(b.allow(Time::from_secs(60)), "probe admitted");
        // The probe takes 25s of wall time before it fails.
        let probe_failed = Time::from_secs(85);
        b.record_failure(probe_failed);
        assert_eq!(
            b.retry_at(),
            Some(probe_failed + cfg.cooldown),
            "cooldown restarts at the failure, not the admission"
        );
        assert!(
            !b.allow(probe_failed),
            "no second probe the instant the first fails"
        );
        assert!(
            !b.allow(Time::from_secs(110)),
            "still cooling even past admission + cooldown"
        );
        assert!(b.is_open(Time::from_secs(134)));
        assert!(b.allow(Time::from_secs(135)), "fresh cooldown elapsed");
    }

    #[test]
    fn retries_stop_exactly_at_budget_exhaustion() {
        // Off-by-one guard: a policy with N retries yields exactly N delays
        // — attempt N-1 is the last Some, attempt N is None — and with zero
        // jitter those N delays sum to total_budget() exactly, so a caller
        // pacing against the budget runs out of delays and budget together.
        let p = RetryPolicy {
            base: Duration::from_secs(2),
            factor: 2.0,
            max_delay: Duration::from_secs(20),
            max_retries: 6,
            jitter: 0.0,
        };
        let mut rng = SimRng::derive(3, "budget-edge", 0);
        let mut spent = Duration::ZERO;
        let mut yielded = 0u32;
        while let Some(d) = p.delay(yielded, &mut rng) {
            spent += d;
            yielded += 1;
            assert!(yielded <= p.max_retries, "policy exceeded its retry bound");
        }
        assert_eq!(yielded, p.max_retries, "exactly max_retries delays");
        assert_eq!(
            spent.as_nanos(),
            p.total_budget().as_nanos(),
            "zero-jitter schedule spends the whole budget and no more"
        );
        assert_eq!(p.raw_delay(p.max_retries), None);
        assert_eq!(
            p.raw_delay(p.max_retries - 1),
            Some(Duration::from_secs(20)),
            "last delay is still granted"
        );
        // With jitter, every schedule still fits inside the budget even when
        // every draw lands on the +jitter edge.
        let jittered = RetryPolicy { jitter: 0.3, ..p };
        for seed in 0..16 {
            let mut rng = SimRng::derive(seed, "budget-edge-jitter", 0);
            let total: f64 = (0..jittered.max_retries)
                .map(|k| jittered.delay(k, &mut rng).unwrap().as_secs_f64())
                .sum();
            assert!(
                total <= jittered.total_budget().as_secs_f64() + 1e-9,
                "seed {seed}: schedule {total} overran the budget"
            );
        }
    }
}
