//! The shared system substrate every RL post-training system builds on.
//!
//! Historically these types lived in `laminar-baselines`, which forced the
//! flagship `laminar-core` crate to depend on the baseline implementations it
//! is compared against. This crate inverts that: `baselines → runtime ← core`.
//! It holds exactly the pieces every system shares and nothing any one system
//! owns:
//!
//! * [`SystemConfig`] — one experiment configuration (hardware, batch shape,
//!   workload, seeds), and the batch draw every system makes
//!   ([`SystemConfig::next_specs`]);
//! * [`generate_batch`] / [`generate_batch_at`] / [`BatchGenStats`] — the
//!   barrier-synchronized generation stage used by every baseline;
//! * [`RunReport`] / [`ConsumedTraj`] / [`consumed_at`] — the uniform result
//!   format and staleness accounting;
//! * [`Recoverable`] — the trait each of the five systems implements, and
//!   [`RlSystem`], which every `Recoverable` implements through one
//!   blanket impl;
//! * [`trace`] — the [`TraceSink`] event-trace layer: every scheduler emits
//!   phase spans (prefill, decode, weight sync, stalls, …) in virtual time;
//! * [`RetryPolicy`] / [`CircuitBreaker`] — the unified retry/backoff and
//!   circuit-breaker policies every recovery path shares, re-exported from
//!   [`laminar_sim::policy`];
//! * [`recovery`] — deterministic checkpoint/restore: the [`Recoverable`]
//!   trait and its byte-identity checkpoint checker.

pub mod batch;
pub mod config;
pub mod delta;
pub mod recovery;
pub mod report;
pub mod trace;

pub use batch::{generate_batch, generate_batch_at, BatchGenStats};
pub use config::SystemConfig;
pub use delta::{CommitStats, DeltaStore, Manifest, StateImage, StatePlane};
pub use laminar_sim::policy::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use recovery::{
    check_checkpoint_soak, check_resume_equivalence, CheckpointCheck, DeltaCheckpoint, Recoverable,
};
pub use report::{consumed_at, ConsumedTraj, RlSystem, RunReport};
pub use trace::{NullTrace, RecordingTrace, SpanKind, TraceSink, TraceSpan};
