//! Hardware substrate for the Laminar reproduction.
//!
//! The paper's testbed — 128 machines × 8 NVIDIA H800-80GB, 400 GB/s NVLink
//! intra-machine, 8×400 Gbps RDMA inter-machine — is modelled from first
//! principles: peak FLOPs, HBM bandwidth, link bandwidths/latencies, and
//! model architecture parameters (Qwen2.5-like 7B/32B/72B). On top of these
//! sit the performance models every experiment relies on:
//!
//! * [`roofline`] — memory-bound decode step latency (Figure 4), the roofline
//!   batch bound `B` used by the repack algorithm, KVCache capacity, and
//!   compute-bound prefill latency;
//! * [`training`] — actor mini-batch/iteration step time from FLOPs at a
//!   calibrated MFU;
//! * [`collective`] — the NCCL-style global weight synchronization used by
//!   the baselines, and the HybridEngine reshard cost of colocated verl;
//! * [`chain`] — the chain-pipelined relay broadcast model of Appendix D,
//!   including the optimal chunk count `k*`.
//!
//! Absolute latencies are approximations of the paper's hardware; what the
//! experiments depend on is the latency *structure* (what is memory-bound,
//! what scales with batch, what is constant in cluster size), which these
//! models reproduce exactly.

pub mod chain;
pub mod collective;
pub mod gpu;
pub mod links;
pub mod model;
pub mod roofline;
pub mod training;

pub use chain::ChainBroadcast;
pub use collective::{CollectiveModel, ReshardModel};
pub use gpu::{GpuSpec, MachineSpec};
pub use links::LinkSpec;
pub use model::ModelSpec;
pub use roofline::DecodeModel;
pub use training::TrainModel;
