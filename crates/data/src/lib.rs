//! The Laminar data module (§3.1).
//!
//! Three storage components manage the trajectory lifecycle, each isolated
//! from GPU-machine failures in the paper by running on CPU machines:
//!
//! * [`PromptPool`] supplies initial states (prompts) for generation and
//!   re-queues work lost to failures;
//! * [`PartialResponsePool`] centrally stores in-progress trajectories so a
//!   rollout-machine failure never loses generation work (§3.3);
//! * [`ExperienceBuffer`] holds completed trajectories, with pluggable
//!   [`Sampler`] strategies for the trainer and [`Eviction`] strategies for
//!   capacity management — the writer/sampler API of §3.1.

pub mod buffer;
pub mod checkpoint;
pub mod experience;
pub mod partial;
pub mod prompt_pool;

pub use buffer::{BufferStats, Eviction, ExperienceBuffer, Sampler};
pub use checkpoint::{Checkpoint, CheckpointStore};
pub use experience::Experience;
pub use partial::{PartialResponse, PartialResponsePool};
pub use prompt_pool::PromptPool;
