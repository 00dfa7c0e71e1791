//! # Laminar
//!
//! A full-system reproduction of *"Laminar: A Scalable Asynchronous RL
//! Post-Training Framework"* (EuroSys 2026): trajectory-level asynchronous
//! RL post-training with relay-worker weight synchronization and dynamic
//! trajectory repacking, built on a deterministic discrete-event GPU-cluster
//! simulator plus a real multi-threaded relay tier and a from-scratch RL
//! substrate.
//!
//! This facade crate re-exports every subsystem under one namespace:
//!
//! * [`sim`] — deterministic discrete-event engine, virtual time, statistics;
//! * [`cluster`] — H800-class hardware model, roofline decode/training
//!   costs, collective and chain-broadcast models;
//! * [`workload`] — heavy-tailed trajectory/sandbox workload generators;
//! * [`data`] — partial response pool, experience buffer;
//! * [`relay`] — the relay-worker parameter service (analytic model and a
//!   real threaded implementation with fault-tolerant chain broadcast);
//! * [`rollout`] — continuous-batching replica engine, Algorithm 1 repack,
//!   rollout manager;
//! * [`rl`] — tabular softmax policies, GRPO with Clip-Higher and
//!   Decoupled PPO, the ReasonTree environment;
//! * [`runtime`] — the shared system substrate: [`runtime::SystemConfig`],
//!   the [`runtime::RlSystem`] trait, batch generation, and the structured
//!   event-trace layer ([`runtime::TraceSink`]);
//! * [`baselines`] — verl-sync, one-step, stream-generation, and
//!   partial-rollout systems over the shared substrate;
//! * [`core`] — the Laminar system itself, Table 2/3 configurations, and
//!   the convergence harness;
//! * [`fleet`] — the fleet control plane: an admission router over many
//!   Laminar cells with per-tenant rate limiting, health-based routing,
//!   quarantine, and fleet-level chaos invariants.
//!
//! # Quickstart
//!
//! ```
//! use laminar::prelude::*;
//!
//! // A small 4+4 GPU configuration of the 7B math workload.
//! let workload = WorkloadGenerator::single_turn(7, Checkpoint::Math7B);
//! let mut cfg = SystemConfig::small_test(workload);
//! cfg.train_gpus = 4;
//! cfg.rollout_gpus = 4;
//!
//! let report = LaminarSystem::default().run(&cfg);
//! assert!(report.throughput > 0.0);
//! assert!(report.max_staleness() <= 4);
//! ```

pub use laminar_baselines as baselines;
pub use laminar_cluster as cluster;
pub use laminar_core as core;
pub use laminar_data as data;
pub use laminar_fleet as fleet;
pub use laminar_relay as relay;
pub use laminar_rl as rl;
pub use laminar_rollout as rollout;
pub use laminar_runtime as runtime;
pub use laminar_sim as sim;
pub use laminar_workload as workload;

/// The most commonly used types, for `use laminar::prelude::*`.
pub mod prelude {
    pub use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
    pub use laminar_cluster::{DecodeModel, GpuSpec, MachineSpec, ModelSpec};
    pub use laminar_core::{
        convergence_curve, generate_schedule, overlapping_scenario, placement_for, ChaosConfig,
        ChaosRun, ConvergenceConfig, FaultEvent, FaultKind, HyperParams, LaminarSystem,
        StalenessRegime, SystemKind,
    };
    pub use laminar_data::{Experience, ExperienceBuffer, PartialResponsePool};
    pub use laminar_fleet::{
        fleet_overlapping_scenario, generate_fleet_schedule, run_fleet, FleetChaosConfig,
        FleetConfig, FleetFaultEvent, FleetFaultKind, FleetRun, TenantProfile,
    };
    pub use laminar_relay::{
        run_relay_chaos, RelayChaosConfig, RelaySyncModel, RelayTier, RelayTierConfig,
    };
    pub use laminar_rl::{GrpoConfig, GrpoTrainer, ReasonEnv, TabularPolicy};
    pub use laminar_rollout::{plan_repack, ReplicaEngine, RolloutManager};
    pub use laminar_runtime::{
        NullTrace, RecordingTrace, RlSystem, RunReport, SystemConfig, TraceSink,
    };
    pub use laminar_sim::{Duration, SimRng, Simulation, Time};
    pub use laminar_workload::{Checkpoint, Dataset, TrajectorySpec, WorkloadGenerator};
}
