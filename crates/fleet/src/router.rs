//! The admission router: per-tenant token buckets, weighted-fair backlog
//! drain, and health-based cell selection.
//!
//! Everything here is deterministic: bucket refill is computed from virtual
//! time, routing breaks ties by cell id, and the backlog drain order is a
//! total order over tenants — so a fleet run is a pure function of its
//! seeds and fault schedule.

use crate::health::CellHealth;
use crate::tenant::TenantProfile;
use laminar_sim::Time;
use std::collections::VecDeque;

/// A deterministic token bucket over virtual time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Tokens added per second.
    pub rate: f64,
    /// Token capacity.
    pub burst: f64,
    tokens: f64,
    last_refill: Time,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate: rate.max(0.0),
            burst: burst.max(1.0),
            tokens: burst.max(1.0),
            last_refill: Time::ZERO,
        }
    }

    /// Brings the token count up to date at `now`.
    pub fn refill(&mut self, now: Time) {
        if now > self.last_refill {
            let dt = now.since(self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + self.rate * dt).min(self.burst);
            self.last_refill = now;
        }
    }

    /// Takes one token if available.
    pub fn try_take(&mut self, now: Time) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refill at `now`).
    pub fn available(&mut self, now: Time) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Returns one token (an admission that was paid for but could not be
    /// placed on any cell).
    pub fn refund(&mut self) {
        self.tokens = (self.tokens + 1.0).min(self.burst);
    }
}

/// A cell's load as the router sees it when picking a target.
#[derive(Debug, Clone, Copy)]
pub struct CellLoad {
    /// Requests currently in flight.
    pub in_flight: usize,
    /// Concurrency capacity.
    pub capacity: usize,
}

/// The admission router's state: one bucket and backlog queue per tenant,
/// one health view per cell.
#[derive(Debug, Clone)]
pub struct Router {
    /// Per-tenant token buckets.
    pub buckets: Vec<TokenBucket>,
    /// Per-tenant backlog queues (request ids awaiting admission).
    pub backlog: Vec<VecDeque<u64>>,
    /// Per-cell health views.
    pub health: Vec<CellHealth>,
    /// Cells the router currently cannot reach over the control plane
    /// (partition flags; heartbeats from these are dropped).
    pub partitioned: Vec<bool>,
}

impl Router {
    /// A router for `cells` cells serving the given tenants.
    pub fn new(tenants: &[TenantProfile], cells: usize) -> Self {
        Router {
            buckets: tenants
                .iter()
                .map(|t| TokenBucket::new(t.bucket_rate, t.bucket_burst))
                .collect(),
            backlog: tenants.iter().map(|_| VecDeque::new()).collect(),
            health: (0..cells).map(|_| CellHealth::default()).collect(),
            partitioned: vec![false; cells],
        }
    }

    /// Total requests sitting in the backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.iter().map(|q| q.len()).sum()
    }

    /// Picks a target cell, or `None` when no routable cell has capacity.
    /// Returns `(cell, is_probe)`: a half-open cell past its quarantine
    /// cooldown takes priority as the single probe target; otherwise the
    /// lowest-score reachable, unquarantined cell wins (ties to the lowest
    /// id).
    pub fn pick_cell(&mut self, now: Time, loads: &[CellLoad]) -> Option<(usize, bool)> {
        let routable = |h: &CellHealth, c: usize| {
            h.reachable && !self.partitioned[c] && loads[c].in_flight < loads[c].capacity
        };
        for (c, h) in self.health.iter().enumerate() {
            if routable(h, c) && h.wants_probe(now) {
                return Some((c, true));
            }
        }
        let mut best: Option<(f64, usize)> = None;
        for (c, h) in self.health.iter().enumerate() {
            if !routable(h, c) || h.quarantined(now) || h.probe_req.is_some() {
                continue;
            }
            if h.breaker.state(now) != laminar_runtime::BreakerState::Closed {
                continue;
            }
            let load_frac = loads[c].in_flight as f64 / loads[c].capacity.max(1) as f64;
            let score = h.score(load_frac);
            if best.map(|(s, _)| score < s).unwrap_or(true) {
                best = Some((score, c));
            }
        }
        best.map(|(_, c)| (c, false))
    }

    /// The weighted-fair order in which tenant backlogs are drained: the
    /// most underserved tenant (lowest completions per unit weight) first,
    /// ties to the lowest tenant id.
    pub fn drain_order(&self, completed: &[u64], tenants: &[TenantProfile]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = completed.get(a).copied().unwrap_or(0) as f64 / tenants[a].weight.max(1e-9);
            let kb = completed.get(b).copied().unwrap_or(0) as f64 / tenants[b].weight.max(1e-9);
            ka.partial_cmp(&kb).unwrap().then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Duration;

    #[test]
    fn token_bucket_paces_and_refills_deterministically() {
        let mut b = TokenBucket::new(2.0, 4.0);
        let t0 = Time::from_secs(10);
        for _ in 0..4 {
            assert!(b.try_take(t0), "burst admits 4");
        }
        assert!(!b.try_take(t0), "bucket empty");
        assert!(b.try_take(t0 + Duration::from_millis(500)), "refilled 1");
        assert!(!b.try_take(t0 + Duration::from_millis(500)));
        let mut c = TokenBucket::new(2.0, 4.0);
        c.refill(t0 + Duration::from_secs(100));
        assert_eq!(c.available(t0 + Duration::from_secs(100)), 4.0, "capped");
    }

    #[test]
    fn routing_prefers_least_loaded_and_skips_unreachable() {
        let tenants = TenantProfile::standard_mix(3);
        let mut r = Router::new(&tenants, 3);
        let now = Time::from_secs(5);
        for h in &mut r.health {
            h.heartbeat(now);
        }
        let loads = [
            CellLoad {
                in_flight: 4,
                capacity: 8,
            },
            CellLoad {
                in_flight: 1,
                capacity: 8,
            },
            CellLoad {
                in_flight: 8,
                capacity: 8,
            },
        ];
        assert_eq!(r.pick_cell(now, &loads), Some((1, false)));
        r.health[1].reachable = false;
        assert_eq!(r.pick_cell(now, &loads), Some((0, false)), "cell 2 full");
        r.partitioned[0] = true;
        assert_eq!(r.pick_cell(now, &loads), None);
    }

    #[test]
    fn drain_order_serves_most_underserved_weighted_tenant_first() {
        let tenants = TenantProfile::standard_mix(3); // weights 1, 1, 1.5
        let r = Router::new(&tenants, 2);
        // Tenant 2 has 1.5× weight: 30 completions /1.5 = 20 effective,
        // so it ranks between tenant 1 (10) and tenant 0 (40).
        let order = r.drain_order(&[40, 10, 30], &tenants);
        assert_eq!(order, vec![1, 2, 0]);
    }
}
