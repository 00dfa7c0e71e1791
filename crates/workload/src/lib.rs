//! Workload generation for RL post-training experiments.
//!
//! The defining property of modern RL post-training workloads (§2.2) is
//! extreme long-tail skew: the 99th-percentile trajectory length can exceed
//! the median by an order of magnitude, and multi-turn agentic tasks add
//! highly variable environment (code-sandbox) latencies on top. This crate
//! generates synthetic workloads that match those distributional shapes:
//!
//! * [`dist`] — composable heavy-tailed samplers (log-normal, Pareto,
//!   mixtures) with analytic quantiles where available;
//! * [`lengths`] — response-length models calibrated per model checkpoint
//!   (Figure 2 left, Figure 17), including length evolution across training;
//! * [`env`](mod@env) — code-sandbox latency model (Figure 2 right);
//! * [`spec`] — [`spec::TrajectorySpec`]: the system-independent description
//!   of one trajectory (prompt tokens + alternating decode/environment
//!   segments) consumed by every rollout engine, so all systems replay
//!   *identical* workloads;
//! * [`dataset`] — prompt datasets with GRPO group expansion (512 prompts ×
//!   16 responses = the paper's 8192-trajectory global batch).

pub mod dataset;
pub mod dist;
pub mod env;
pub mod lengths;
pub mod spec;

pub use dataset::{Dataset, GroupedBatch};
pub use dist::Dist;
pub use env::SandboxModel;
pub use lengths::{Checkpoint, LengthModel};
pub use spec::{Segment, TrajectorySpec, WorkloadGenerator, WorkloadKind};
