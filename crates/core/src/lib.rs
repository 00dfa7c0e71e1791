//! Laminar: trajectory-level asynchronous RL post-training (§3–§6).
//!
//! The fully decoupled architecture, wired together from the substrate
//! crates:
//!
//! * rollout replicas ([`laminar_rollout::ReplicaEngine`]) each generate
//!   their own prompt batches and pull weights from their colocated relay
//!   *whenever they finish*, never waiting on one another;
//! * the data module ([`laminar_data`]) decouples production from
//!   consumption: completions land in the experience buffer, in-progress
//!   work is mirrored in the partial response pool for failure recovery;
//! * the relay tier ([`laminar_relay`]) gives the actor a constant-cost
//!   publish path and rollouts an anytime PCIe pull path;
//! * the rollout manager triggers the dynamic repack (Algorithm 1) every 5
//!   simulated seconds and after every weight publication.
//!
//! [`system::LaminarSystem`] implements the same [`RlSystem`] interface as
//! the baselines, so every experiment drives all five systems identically.
//! [`placement`] and [`hyper`] encode Tables 2 and 3; [`convergence`] runs
//! the real GRPO learner under each system's staleness semantics for
//! Figure 13.

pub mod chaos;
pub mod convergence;
pub mod hyper;
pub mod placement;
pub mod system;

pub use chaos::{
    fleet_overlapping_scenario, generate_fleet_schedule, generate_schedule, overlapping_scenario,
    AdmissionLog, ChaosAudit, ChaosConfig, ChaosOutcome, FaultEvent, FaultKind, FleetAudit,
    FleetChaosConfig, FleetFaultEvent, FleetFaultKind, FleetOutcome, GoodputDip,
};
pub use convergence::{convergence_curve, ConvergenceConfig, StalenessRegime};
pub use hyper::{HyperParams, SystemKind};
pub use laminar_runtime::{RlSystem, RunReport, SystemConfig};
pub use placement::{paper_configs, placement_for, Placement};
pub use system::{ChaosRun, ElasticSpec, IdlenessMetric, LaminarSnapshot, LaminarSystem};
