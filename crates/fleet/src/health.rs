//! Per-cell health scoring and the quarantine/denylist state machine.
//!
//! The router never sees a cell's internal state — only two signals:
//! heartbeats (liveness) and per-request completion latency relative to the
//! request's expected service demand (stragglers). Both feed a
//! [`CircuitBreaker`] from the shared policy plane
//! (`laminar_runtime::policy`), so quarantine semantics — trip on
//! consecutive anomalies, cooldown, single-probe re-admission — are exactly
//! the ones every other recovery path in the workspace uses.
//!
//! State machine per cell, as the router believes it:
//!
//! ```text
//!            heartbeats fresh                heartbeats stale
//!   Reachable ────────────────────────────▶ Unreachable (denylist)
//!       ▲   ◀──────────────────────────────      │
//!       │        first fresh heartbeat           │ no admissions; in-flight
//!       │        (breaker reset: restarted       │ work is NOT re-dispatched
//!       │         cell is presumed clean)        ▼ on suspicion alone
//!       │ latency ratio ≥ slow threshold ×N  (ground-truth crash orphans
//!       ▼                                     are re-dispatched by the
//!   Quarantined (breaker open) ──cooldown──▶ half-open: one probe decides
//! ```

use laminar_runtime::policy::{BreakerConfig, BreakerState, CircuitBreaker};
use laminar_sim::{Duration, Time};

/// Router-side health state for one cell.
#[derive(Debug, Clone)]
pub struct CellHealth {
    /// Last heartbeat the router received.
    pub last_heartbeat: Time,
    /// Whether the router currently believes the cell reachable (fresh
    /// heartbeats). Admissions to unreachable cells are invariant
    /// violations.
    pub reachable: bool,
    /// EWMA of observed-over-expected completion latency (1.0 = nominal).
    pub latency_ratio_ewma: f64,
    /// The quarantine breaker: opens after consecutive slow completions,
    /// re-admits through a single probe after the cooldown.
    pub breaker: CircuitBreaker,
    /// Request currently probing this cell, if any.
    pub probe_req: Option<u64>,
}

/// Heartbeat age beyond which a cell is declared unreachable.
const MISS_THRESHOLD: Duration = Duration::from_secs(7);

/// A completion whose observed/expected latency ratio is at or above this
/// counts as a breaker failure.
const SLOW_RATIO: f64 = 1.8;

/// EWMA smoothing factor for the latency ratio (weight of the newest
/// observation).
const EWMA_ALPHA: f64 = 0.25;

/// Quarantine breaker: three consecutive slow completions trip it, and a
/// probe is admitted after a 30 s cooldown.
const CELL_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 3,
    window: Duration::from_secs(60),
    cooldown: Duration::from_secs(30),
};

impl Default for CellHealth {
    /// A fresh, reachable, unquarantined cell view.
    fn default() -> Self {
        CellHealth {
            last_heartbeat: Time::ZERO,
            reachable: true,
            latency_ratio_ewma: 1.0,
            breaker: CircuitBreaker::new(CELL_BREAKER),
            probe_req: None,
        }
    }
}

impl CellHealth {
    /// True while the breaker rejects ordinary admissions at `now`.
    pub fn quarantined(&self, now: Time) -> bool {
        self.breaker.is_open(now)
    }

    /// True when the breaker's cooldown has elapsed and no probe is in
    /// flight — the next request may be diverted here as the probe.
    pub fn wants_probe(&self, now: Time) -> bool {
        self.breaker.state(now) == BreakerState::HalfOpen && self.probe_req.is_none()
    }

    /// Marks `req` as this cell's quarantine probe: takes the breaker's
    /// single half-open admission so a failed probe re-opens with a fresh
    /// cooldown.
    pub fn begin_probe(&mut self, now: Time, req: u64) {
        debug_assert!(self.wants_probe(now));
        self.breaker.allow(now);
        self.probe_req = Some(req);
    }

    /// Records a heartbeat. Returns `true` on an unreachable→reachable
    /// transition (a restarted cell rejoining), in which case the breaker
    /// is reset: the replacement process is presumed clean, and any probe
    /// orphaned by the crash is forgotten.
    pub fn heartbeat(&mut self, now: Time) -> bool {
        self.last_heartbeat = now;
        if self.reachable {
            return false;
        }
        self.reachable = true;
        self.breaker = CircuitBreaker::new(CELL_BREAKER);
        self.probe_req = None;
        self.latency_ratio_ewma = 1.0;
        true
    }

    /// Sweeps heartbeat freshness at `now`. Returns `true` on a
    /// reachable→unreachable transition.
    pub fn sweep(&mut self, now: Time) -> bool {
        if self.reachable && now.since(self.last_heartbeat) > MISS_THRESHOLD {
            self.reachable = false;
            return true;
        }
        false
    }

    /// Scores one completion: updates the latency EWMA and drives the
    /// breaker. `ratio` is observed/expected latency for the completed
    /// request. Returns `true` if this observation tripped the breaker
    /// (quarantine entry).
    pub fn observe_completion(&mut self, now: Time, req: u64, ratio: f64) -> bool {
        self.latency_ratio_ewma = (1.0 - EWMA_ALPHA) * self.latency_ratio_ewma + EWMA_ALPHA * ratio;
        let slow = ratio >= SLOW_RATIO;
        if self.probe_req == Some(req) {
            // The probe's outcome alone decides the half-open breaker.
            self.probe_req = None;
            let trips_before = self.breaker.trips();
            if slow {
                self.breaker.record_failure(now);
            } else {
                self.breaker.record_success();
            }
            return self.breaker.trips() > trips_before;
        }
        if self.breaker.is_open(now) {
            // In-flight work finishing during quarantine must not close the
            // breaker; only the probe may.
            return false;
        }
        let trips_before = self.breaker.trips();
        if slow {
            self.breaker.record_failure(now);
        } else if self.breaker.state(now) == BreakerState::Closed {
            self.breaker.record_success();
        }
        self.breaker.trips() > trips_before
    }

    /// Routing score: lower is better. Combines load (supplied by the
    /// caller) with the latency EWMA so traffic drifts away from slow cells
    /// even before quarantine trips.
    pub fn score(&self, load_frac: f64) -> f64 {
        load_frac + (self.latency_ratio_ewma - 1.0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_heartbeats_denylist_and_fresh_ones_rejoin() {
        let mut h = CellHealth::default();
        h.heartbeat(Time::from_secs(2));
        assert!(!h.sweep(Time::from_secs(4)));
        assert!(h.sweep(Time::from_secs(10)), "7s stale: unreachable");
        assert!(!h.reachable);
        assert!(!h.sweep(Time::from_secs(12)), "no repeat transition");
        assert!(h.heartbeat(Time::from_secs(30)), "rejoins on heartbeat");
        assert!(h.reachable);
    }

    #[test]
    fn consecutive_slow_completions_quarantine_probe_decides() {
        let mut h = CellHealth::default();
        let t = Time::from_secs(10);
        assert!(!h.observe_completion(t, 1, 2.5));
        assert!(!h.observe_completion(t, 2, 2.5));
        assert!(h.observe_completion(t, 3, 2.5), "third slow trips");
        assert!(h.quarantined(t));
        assert!(!h.wants_probe(t), "cooldown not elapsed");
        let after = t + CELL_BREAKER.cooldown;
        assert!(h.wants_probe(after));
        h.begin_probe(after, 99);
        assert!(!h.wants_probe(after), "one probe at a time");
        // Completions of old in-flight work during quarantine are ignored.
        assert!(!h.observe_completion(after, 4, 1.0));
        assert!(h.probe_req.is_some());
        // A fast probe closes the breaker.
        assert!(!h.observe_completion(after, 99, 1.0));
        assert!(!h.quarantined(after + Duration::from_secs(1)));
    }

    #[test]
    fn failed_probe_reopens_and_rejoin_resets_breaker() {
        let mut h = CellHealth::default();
        let t = Time::from_secs(10);
        for req in 0..3 {
            h.observe_completion(t, req, 5.0);
        }
        let probe_at = t + CELL_BREAKER.cooldown;
        h.begin_probe(probe_at, 7);
        assert!(
            h.observe_completion(probe_at, 7, 5.0),
            "slow probe re-trips"
        );
        assert!(h.quarantined(probe_at + Duration::from_secs(1)));
        // A crash + restart clears quarantine through the rejoin path.
        h.reachable = false;
        h.probe_req = Some(8); // orphaned probe
        assert!(h.heartbeat(probe_at + Duration::from_secs(5)));
        assert!(h.probe_req.is_none());
        assert!(!h.quarantined(probe_at + Duration::from_secs(5)));
    }
}
