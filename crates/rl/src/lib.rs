//! RL algorithm substrate for the convergence experiments (Figure 13).
//!
//! The paper's convergence claims are about *staleness*: trajectories
//! generated by old policy versions, and trajectories mixing several policy
//! versions (partial rollout), slow or destabilize learning. Reproducing
//! that does not require a billion-parameter LLM — it requires a real
//! policy-gradient learner whose data pipeline exhibits exactly those
//! stressors. This crate provides one, built from scratch:
//!
//! * [`nn`] — softmax, Adam, global-norm gradient clipping;
//! * [`env`](mod@env) — `ReasonTree`: a hierarchical reasoning task where
//!   problem difficulty is heavy-tailed, so trajectory lengths are
//!   heterogeneous exactly like the paper's math workloads;
//! * [`policy`] — tabular softmax policies with log-prob gradients;
//! * [`algo`] — GRPO with Clip-Higher (DAPO) and AReaL's Decoupled PPO
//!   objective; [`generate_mixed_episode`] generates one trajectory from
//!   several policy versions (partial rollout).

pub mod algo;
pub mod env;
pub mod nn;
pub mod policy;

pub use algo::{
    evaluate, generate_episode, generate_mixed_episode, grpo_advantages, GrpoConfig, GrpoTrainer,
    RlTrajectory, TrajStep,
};
pub use env::{Problem, ReasonEnv};
pub use nn::{Adam, Params};
pub use policy::TabularPolicy;
