//! Fleet control plane: a deterministic admission router over many Laminar
//! cells.
//!
//! The paper scales *one* asynchronous RL post-training job; serving many
//! concurrent jobs means a **fleet** of independent Laminar instances
//! ("cells") behind a boundary router. This crate builds that router as an
//! ordinary virtual-time simulation on [`laminar_sim`]:
//!
//! * **per-tenant isolation** — every tenant stream passes a deterministic
//!   token bucket, and deferred work drains in weighted-fair order
//!   ([`router`]);
//! * **health-based routing** — cell health is scored purely from
//!   heartbeat freshness and completion-latency signals; a straggling cell
//!   is quarantined through the shared
//!   [`laminar_runtime::policy::CircuitBreaker`] and re-admitted through a
//!   single probe ([`health`]);
//! * **graceful degradation** — a killed cell's orphaned work is
//!   re-dispatched on the shared [`laminar_runtime::policy::RetryPolicy`]
//!   backoff, survivors absorb load strictly within their concurrency
//!   capacity, and the goodput dip plus fleet-MTTR is measured per kill
//!   ([`driver`]);
//! * **fleet chaos invariants** — the run fills in a
//!   [`laminar_core::chaos::FleetAudit`], and
//!   [`laminar_core::chaos::FleetOutcome::violations`] proves exactly-once
//!   completion across re-dispatch, zero admissions to quarantined cells,
//!   the per-tenant starvation floor, and bounded goodput dips.
//!
//! The tenant mix ([`tenant`]) reuses the paper's workload models: math-RL
//! lengths, agentic tool-call latency spikes, and long-context heavy tails
//! come from [`laminar_workload`], so the fleet's traffic is heterogeneous
//! in exactly the way the single-cell simulation is.
//!
//! Everything is a pure function of `(config, seed, fault schedule)`:
//! [`FleetRun::fingerprint`] is byte-identical across repeat runs, worker
//! counts, and machines.

pub mod driver;
pub mod health;
pub mod router;
pub mod tenant;

pub use driver::{run_fleet, FleetConfig, FleetReport, FleetRun};
pub use health::CellHealth;
pub use router::{CellLoad, Router, TokenBucket};
pub use tenant::{TenantClass, TenantProfile};

// Re-export the fleet chaos plane so callers need only this crate.
pub use laminar_core::chaos::{
    fleet_overlapping_scenario, generate_fleet_schedule, FleetAudit, FleetChaosConfig,
    FleetFaultEvent, FleetFaultKind, FleetOutcome, GoodputDip,
};
