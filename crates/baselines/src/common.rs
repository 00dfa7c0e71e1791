//! Re-exports of the shared substrate from `laminar-runtime`.
//!
//! The configuration, batch-generation helper, report format, and the
//! [`RlSystem`] trait used to live here; they now sit in `laminar-runtime`
//! so `laminar-core` no longer has to depend on the baselines it is
//! compared against. This module keeps the old paths working for the
//! experiment harness and downstream users.

pub use laminar_runtime::{
    consumed_at, generate_batch, generate_batch_at, BatchGenStats, ConsumedTraj, NullTrace,
    RecordingTrace, RlSystem, RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan,
};
