//! Chain-based pipelined broadcast model (Appendix D).
//!
//! A master relay sends a message of `M` bytes down a logical chain of
//! `p - 1` relays, split into `k` chunks so hops overlap:
//!
//! ```text
//! T(p, k) = (p + k - 2) · (M/k · T_byte + T_start)
//! ```
//!
//! For large messages and small `T_start`, the optimal-`k` time
//! `T*(p) = M·T_byte + (p-2)·T_start + 2·sqrt((p-2)·M·T_byte·T_start)`
//! is dominated by the bandwidth term and nearly independent of `p` — the
//! property that makes the relay tier scale (Figure 18).

use crate::links::LinkSpec;

/// The pipelined chain broadcast over a given link type.
#[derive(Debug, Clone)]
pub struct ChainBroadcast {
    /// Per-hop link (inter-machine RDMA in the paper).
    pub link: LinkSpec,
}

impl ChainBroadcast {
    /// Creates the model over one hop link type.
    pub fn new(link: LinkSpec) -> Self {
        ChainBroadcast { link }
    }

    /// Exact `T(p, k)` in seconds for `p` total nodes (master + relays),
    /// message of `bytes`, split into `k` chunks. `p < 2` or `k < 1` costs
    /// nothing (nothing to send).
    pub fn broadcast_secs(&self, p: usize, bytes: f64, k: usize) -> f64 {
        if p < 2 || k < 1 || bytes <= 0.0 {
            return 0.0;
        }
        let chunk = bytes / k as f64;
        let t_chunk = chunk * self.link.seconds_per_byte() + self.link.startup;
        (p + k - 2) as f64 * t_chunk
    }

    /// The optimal chunk count `k* = sqrt((p-2)·M·T_byte / T_start)`,
    /// clamped to at least 1. With zero startup latency the optimum is
    /// unbounded; we cap at one chunk per 64 KiB, the practical floor for
    /// RDMA message efficiency.
    pub fn optimal_chunks(&self, p: usize, bytes: f64) -> usize {
        if p < 3 || bytes <= 0.0 {
            return 1;
        }
        let cap = (bytes / 65_536.0).ceil().max(1.0);
        if self.link.startup <= 0.0 {
            return cap as usize;
        }
        let k = ((p - 2) as f64 * bytes * self.link.seconds_per_byte() / self.link.startup).sqrt();
        k.max(1.0).min(cap).round() as usize
    }

    /// `T*(p)`: broadcast time at the optimal chunk count, seconds.
    pub fn optimal_broadcast_secs(&self, p: usize, bytes: f64) -> f64 {
        self.broadcast_secs(p, bytes, self.optimal_chunks(p, bytes))
    }

    /// The three analytic components of `T*(p)`:
    /// `(bandwidth term, latency term, pipeline term)` in seconds.
    pub fn components(&self, p: usize, bytes: f64) -> (f64, f64, f64) {
        if p < 2 || bytes <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let bw = bytes * self.link.seconds_per_byte();
        let hops = p.saturating_sub(2) as f64;
        let lat = hops * self.link.startup;
        let pipe = 2.0 * (hops * bytes * self.link.seconds_per_byte() * self.link.startup).sqrt();
        (bw, lat, pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rdma() -> ChainBroadcast {
        ChainBroadcast::new(LinkSpec::new("rdma", 90e9, 5e-6))
    }

    #[test]
    fn matches_closed_form() {
        let c = rdma();
        let (p, m, k) = (10usize, 1e9, 100usize);
        let expect = (p + k - 2) as f64 * (m / k as f64 / 90e9 + 5e-6);
        assert!((c.broadcast_secs(p, m, k) - expect).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_cost_zero() {
        let c = rdma();
        assert_eq!(c.broadcast_secs(1, 1e9, 10), 0.0);
        assert_eq!(c.broadcast_secs(10, 0.0, 10), 0.0);
        assert_eq!(c.broadcast_secs(10, 1e9, 0), 0.0);
    }

    #[test]
    fn optimal_k_beats_naive_k() {
        let c = rdma();
        let (p, m) = (128usize, 145e9);
        let t_opt = c.optimal_broadcast_secs(p, m);
        assert!(t_opt <= c.broadcast_secs(p, m, 1) + 1e-12);
        assert!(t_opt <= c.broadcast_secs(p, m, 10) + 1e-12);
        assert!(t_opt <= c.broadcast_secs(p, m, 1_000_000) + 1e-12);
    }

    #[test]
    fn broadcast_time_nearly_constant_in_chain_length() {
        // Figure 18 / Appendix D: <1.6s for a 72B model (145 GB) from the
        // master to 127 relays, and nearly flat from 8 to 128 nodes.
        let c = rdma();
        let m = 145e9;
        let t8 = c.optimal_broadcast_secs(8, m);
        let t128 = c.optimal_broadcast_secs(128, m);
        assert!(t128 < 2.0, "72B broadcast to 127 relays took {t128}s");
        assert!(t128 / t8 < 1.15, "chain must be nearly length-insensitive");
    }

    #[test]
    fn components_sum_approximates_optimum() {
        let c = rdma();
        let (p, m) = (64usize, 65e9);
        let (bw, lat, pipe) = c.components(p, m);
        let t = c.optimal_broadcast_secs(p, m);
        let analytic = bw + lat + pipe;
        assert!(
            (t - analytic).abs() / analytic < 0.05,
            "t={t} analytic={analytic}"
        );
        // Bandwidth term dominates for LLM-scale messages.
        assert!(bw > 10.0 * (lat + pipe));
    }
}
