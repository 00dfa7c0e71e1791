//! The uniform run report, staleness accounting, and the `RlSystem` trait.

use crate::config::SystemConfig;
use crate::trace::{NullTrace, TraceSink};
use laminar_rollout::CompletedTraj;
use laminar_sim::TimeSeries;

/// Per-trajectory record of what the trainer consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumedTraj {
    /// Staleness at consumption (actor version − behaviour version).
    pub staleness: u64,
    /// Whether several policy versions generated it.
    pub mixed_version: bool,
}

/// The uniform result format every system produces.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// System name.
    pub system: String,
    /// Per measured iteration: wall-clock duration, seconds.
    pub iteration_secs: Vec<f64>,
    /// Per measured iteration: prompt+response tokens trained on.
    pub iteration_tokens: Vec<f64>,
    /// Throughput over the measured window, tokens/second (the paper's
    /// headline metric).
    pub throughput: f64,
    /// Fraction of iteration time the system was generation-bound.
    pub generation_fraction: f64,
    /// Staleness / version mixing of every consumed trajectory.
    pub consumed: Vec<ConsumedTraj>,
    /// Mean KVCache utilization across replicas.
    pub mean_kv_utilization: f64,
    /// Rollout weight-update waiting times, seconds (Figure 14).
    pub rollout_waits: Vec<f64>,
    /// Per-trajectory generation latencies, seconds.
    pub latencies: Vec<f64>,
    /// Generation throughput timeline (tokens/s per window).
    pub gen_series: TimeSeries,
    /// Training throughput timeline (tokens/s per window).
    pub train_series: TimeSeries,
    /// Repack events executed (Laminar only).
    pub repack_events: u64,
    /// Replicas released by repacks (Laminar only).
    pub repack_released: u64,
    /// Total repack overhead, seconds (Laminar only).
    pub repack_overhead_secs: f64,
    /// Per-trajectory inherent staleness paired with finish offset within
    /// its generation window, for Figure 10.
    pub staleness_by_finish: Vec<(f64, u64)>,
}

impl RunReport {
    /// Computes the throughput metric from the recorded iterations.
    pub fn finalize(&mut self) {
        let time: f64 = self.iteration_secs.iter().sum();
        let tokens: f64 = self.iteration_tokens.iter().sum();
        self.throughput = if time > 0.0 { tokens / time } else { 0.0 };
    }

    /// Maximum observed staleness.
    pub fn max_staleness(&self) -> u64 {
        self.consumed.iter().map(|c| c.staleness).max().unwrap_or(0)
    }

    /// Fraction of consumed trajectories that were mixed-version.
    pub fn mixed_version_fraction(&self) -> f64 {
        if self.consumed.is_empty() {
            return 0.0;
        }
        self.consumed.iter().filter(|c| c.mixed_version).count() as f64 / self.consumed.len() as f64
    }
}

/// A runnable RL post-training system.
pub trait RlSystem {
    /// System name for reports.
    fn name(&self) -> &'static str;

    /// Runs the configuration to completion, emitting phase spans into
    /// `trace`, and reports.
    fn run_traced(&self, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport;

    /// Runs the configuration to completion and reports (no tracing).
    fn run(&self, cfg: &SystemConfig) -> RunReport {
        self.run_traced(cfg, &mut NullTrace)
    }
}

/// Converts a [`CompletedTraj`] into a consumption record at an actor
/// version.
pub fn consumed_at(c: &CompletedTraj, actor_version: u64) -> ConsumedTraj {
    let behavior = c.policy_versions.first();
    ConsumedTraj {
        staleness: actor_version.saturating_sub(behavior),
        mixed_version: c.policy_versions.is_mixed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_finalize_and_staleness() {
        let mut r = RunReport {
            iteration_secs: vec![10.0, 10.0],
            iteration_tokens: vec![1000.0, 3000.0],
            consumed: vec![
                ConsumedTraj {
                    staleness: 0,
                    mixed_version: false,
                },
                ConsumedTraj {
                    staleness: 3,
                    mixed_version: true,
                },
            ],
            ..RunReport::default()
        };
        r.finalize();
        assert_eq!(r.throughput, 200.0);
        assert_eq!(r.max_staleness(), 3);
        assert_eq!(r.mixed_version_fraction(), 0.5);
    }
}
