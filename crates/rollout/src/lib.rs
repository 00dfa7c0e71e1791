//! Rollout replicas and the repack mechanism (§5).
//!
//! A *rollout replica* is a TP group of GPUs running continuous-batching
//! auto-regressive generation. [`engine::ReplicaEngine`] simulates one
//! replica in virtual time over the roofline decode model: trajectories are
//! admitted against KVCache reservations, decode in lockstep (every active
//! sequence advances one token per step), detour through environment calls,
//! and complete at their spec-determined lengths. The engine exposes the
//! KVCache-utilization lifecycle of Figure 9, which drives the idleness
//! metric.
//!
//! [`repack`] implements Algorithm 1 (Best-Fit trajectory consolidation),
//! and [`manager`] the rollout manager: per-replica monitoring, weight
//! version grouping, repack triggering, and replica health.

pub mod engine;
pub mod manager;
pub mod repack;
pub mod traj;

pub use engine::reference::NaiveReplicaEngine;
pub use engine::{CompletedTraj, EngineConfig, ReplicaEngine};
pub use manager::{ReplicaHealth, RolloutManager};
pub use repack::{plan_repack, RepackPlan, ReplicaLoad};
pub use traj::{Phase, PolicyVersions, TrajState};
