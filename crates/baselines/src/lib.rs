//! Baseline RL post-training systems (§8 "Baselines").
//!
//! Four systems, all executing the *same* deterministic workload over the
//! same hardware substrate, differing only in architecture:
//!
//! * [`verl::VerlSync`] — synchronous colocated verl: all GPUs alternate
//!   between generation and training with a HybridEngine reshard per switch
//!   (Figure 3(a));
//! * [`pipeline::OneStepStaleness`] — disaggregated one-step pipeline:
//!   rollouts generate batch *n+1* under the previous weights while the
//!   trainer consumes batch *n*; a global NCCL sync per iteration
//!   (Figure 3(b));
//! * [`pipeline::StreamGeneration`] — same pipeline, but the trainer starts
//!   on early mini-batches as soon as enough trajectories complete
//!   (Figure 3(c));
//! * [`partial::PartialRollout`] — AReaL-style: continuous generation with
//!   interrupt-all weight updates, paying a KVCache re-prefill for every
//!   in-flight trajectory and producing mixed-version trajectories
//!   (Figure 3(d)).
//!
//! [`common`] holds the shared configuration, report format, and the
//! [`common::RlSystem`] trait that Laminar itself (in `laminar-core`) also
//! implements, so every system is driven identically by the experiments.
//! The three barrier systems share one run core, `barrier`.

mod barrier;
pub mod common;
pub mod partial;
pub mod pipeline;
pub mod verl;

pub use common::{RlSystem, RunReport, SystemConfig};
pub use partial::{PartialRollout, PartialSnapshot};
pub use pipeline::{OneStepStaleness, PipelineRun, StreamGeneration};
pub use verl::{VerlRun, VerlSync};
