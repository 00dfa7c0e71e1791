//! GRPO with Clip-Higher, plus the Decoupled-PPO objective (§8.2, Table 3).
//!
//! GRPO (the paper's training algorithm) samples a *group* of responses per
//! prompt, scores them with the rule-based verifier, and uses the
//! group-normalized reward as the advantage — no critic. The loss is the
//! PPO clipped surrogate with DAPO's asymmetric clip range
//! (`ε_low = 0.2`, `ε_high = 0.28`). Decoupled PPO (AReaL) separates the
//! *behaviour* policy (which generated the data, possibly mixed-version)
//! from a *proximal* policy (a recent snapshot) and reweights by a truncated
//! behaviour importance ratio — the algorithmic patch partial-rollout
//! systems need.

use crate::env::{Problem, ReasonEnv};
use crate::nn::{clip_grad_norm, Adam};
use crate::policy::TabularPolicy;
use laminar_sim::SimRng;

/// One policy decision inside a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajStep {
    /// State index.
    pub state: usize,
    /// Action taken.
    pub action: usize,
    /// Log-probability under the policy that generated this step.
    pub behavior_logp: f64,
    /// Version of the policy that generated this step.
    pub version: u64,
}

/// A completed RL trajectory with its verifier reward.
#[derive(Debug, Clone, PartialEq)]
pub struct RlTrajectory {
    /// Prompt identity (trajectories of the same prompt form a GRPO group).
    pub prompt_id: u64,
    /// The problem solved.
    pub problem: Problem,
    /// Decisions, in order.
    pub steps: Vec<TrajStep>,
    /// Verifier reward (0/1 for ReasonTree).
    pub reward: f64,
}

impl RlTrajectory {
    /// True when more than one policy version generated this trajectory.
    pub fn is_mixed_version(&self) -> bool {
        self.steps.windows(2).any(|w| w[0].version != w[1].version)
    }

    /// The version that started the trajectory.
    pub fn behavior_version(&self) -> u64 {
        self.steps.first().map(|s| s.version).unwrap_or(0)
    }
}

/// Generates one episode with a single consistent policy version.
pub fn generate_episode(
    env: &ReasonEnv,
    policy: &TabularPolicy,
    version: u64,
    prompt_id: u64,
    problem: Problem,
    rng: &mut SimRng,
) -> RlTrajectory {
    generate_mixed_episode(env, &[(policy, version)], prompt_id, problem, rng)
}

/// Generates one episode whose steps are split (as evenly as possible, in
/// order) across several policy versions — the partial-rollout
/// contamination path (§2.3, Appendix C).
pub fn generate_mixed_episode(
    env: &ReasonEnv,
    segments: &[(&TabularPolicy, u64)],
    prompt_id: u64,
    problem: Problem,
    rng: &mut SimRng,
) -> RlTrajectory {
    assert!(!segments.is_empty(), "need at least one policy");
    let mut steps = Vec::with_capacity(problem.depth);
    let mut actions = Vec::with_capacity(problem.depth);
    for level in 0..problem.depth {
        let seg = level * segments.len() / problem.depth;
        let (policy, version) = segments[seg];
        let state = env.state(problem.ptype, level);
        let action = policy.sample_action(state, rng);
        steps.push(TrajStep {
            state,
            action,
            behavior_logp: policy.log_prob(state, action),
            version,
        });
        actions.push(action);
    }
    let reward = env.reward(problem, &actions);
    RlTrajectory {
        prompt_id,
        problem,
        steps,
        reward,
    }
}

/// GRPO group advantages: `(r − mean) / (std + ε)` within the group.
/// A group with zero reward variance gets all-zero advantages (no signal).
pub fn grpo_advantages(rewards: &[f64]) -> Vec<f64> {
    if rewards.is_empty() {
        return Vec::new();
    }
    let n = rewards.len() as f64;
    let mean = rewards.iter().sum::<f64>() / n;
    let var = rewards.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-9 {
        return vec![0.0; rewards.len()];
    }
    rewards.iter().map(|r| (r - mean) / (std + 1e-6)).collect()
}

/// The gradient coefficient of the clipped surrogate w.r.t. `log π_cur`.
///
/// Surrogate `L = −min(ρ·A, clip(ρ, 1−ε_low, 1+ε_high)·A)` with
/// `ρ = exp(logπ_cur − ref_logp)`; `∂L/∂logπ_cur = −ρ·A` when the unclipped
/// branch is active, else 0.
pub fn surrogate_coeff(ratio: f64, adv: f64, clip_low: f64, clip_high: f64) -> f64 {
    let active = if adv >= 0.0 {
        ratio < 1.0 + clip_high
    } else {
        ratio > 1.0 - clip_low
    };
    if active {
        -ratio * adv
    } else {
        0.0
    }
}

/// Learning rate.
const LR: f64 = 0.02;

/// Lower clip `ε_low`.
const CLIP_LOW: f64 = 0.2;

/// Global gradient-norm cap.
const MAX_GRAD_NORM: f64 = 5.0;

/// Truncation `c` of the behaviour importance weight in decoupled mode.
const IS_TRUNCATION: f64 = 2.0;

/// Trainer configuration (Table 3's Laminar column by default).
#[derive(Debug, Clone)]
pub struct GrpoConfig {
    /// Upper clip `ε_high` (Clip-Higher: 0.28).
    pub clip_high: f64,
    /// Decoupled PPO: reference the proximal policy instead of the
    /// behaviour policy, reweighting by a truncated behaviour ratio.
    pub decoupled: bool,
}

impl Default for GrpoConfig {
    fn default() -> Self {
        GrpoConfig {
            clip_high: 0.28,
            decoupled: false,
        }
    }
}

/// Per-update statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Mean reward across the batch.
    pub mean_reward: f64,
    /// Fraction of steps whose surrogate was clipped to zero gradient.
    pub clip_fraction: f64,
    /// Mean importance ratio across steps.
    pub mean_ratio: f64,
    /// Trajectories in the batch.
    pub trajectories: usize,
}

/// The GRPO trainer owning the current policy.
#[derive(Debug, Clone)]
pub struct GrpoTrainer {
    /// The live policy (version [`Self::version`]).
    pub policy: TabularPolicy,
    cfg: GrpoConfig,
    opt: Adam,
    version: u64,
}

impl GrpoTrainer {
    /// Fresh trainer at version 0.
    pub fn new(env: &ReasonEnv, cfg: GrpoConfig) -> Self {
        let policy = TabularPolicy::new(env.num_states(), env.actions);
        let opt = Adam::new(LR);
        GrpoTrainer {
            policy,
            cfg,
            opt,
            version: 0,
        }
    }

    /// Current policy version (increments per update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies one GRPO update over prompt groups. `proximal` supplies the
    /// reference policy for decoupled mode (ignored otherwise; the
    /// behaviour log-probs stored in the trajectories are used as the
    /// reference in standard mode).
    pub fn update(
        &mut self,
        groups: &[Vec<RlTrajectory>],
        proximal: Option<&TabularPolicy>,
    ) -> UpdateStats {
        let mut stats = UpdateStats::default();
        let mut total_steps = 0usize;
        let mut clipped = 0usize;
        let mut ratio_sum = 0.0;
        self.policy.zero_grad();
        let mut reward_sum = 0.0;
        // First pass: count steps for loss normalization.
        for g in groups {
            for t in g {
                total_steps += t.steps.len();
            }
        }
        if total_steps == 0 {
            return stats;
        }
        let norm = 1.0 / total_steps as f64;
        for group in groups {
            let rewards: Vec<f64> = group.iter().map(|t| t.reward).collect();
            let advs = grpo_advantages(&rewards);
            for (traj, &adv) in group.iter().zip(&advs) {
                reward_sum += traj.reward;
                stats.trajectories += 1;
                for step in &traj.steps {
                    let cur_logp = self.policy.log_prob(step.state, step.action);
                    let (ref_logp, is_weight) = if self.cfg.decoupled {
                        let prox = proximal.expect("decoupled mode needs a proximal policy");
                        let prox_logp = prox.log_prob(step.state, step.action);
                        let w = (prox_logp - step.behavior_logp).exp().min(IS_TRUNCATION);
                        (prox_logp, w)
                    } else {
                        (step.behavior_logp, 1.0)
                    };
                    let ratio = (cur_logp - ref_logp).exp();
                    ratio_sum += ratio;
                    let coeff = surrogate_coeff(ratio, adv, CLIP_LOW, self.cfg.clip_high);
                    if coeff == 0.0 && adv != 0.0 {
                        clipped += 1;
                    }
                    if coeff != 0.0 {
                        self.policy.accumulate_logp_grad(
                            step.state,
                            step.action,
                            coeff * is_weight * norm,
                        );
                    }
                }
            }
        }
        clip_grad_norm(&mut self.policy, MAX_GRAD_NORM);
        self.opt.step(&mut self.policy);
        self.version += 1;
        stats.mean_reward = reward_sum / stats.trajectories.max(1) as f64;
        stats.clip_fraction = clipped as f64 / total_steps as f64;
        stats.mean_ratio = ratio_sum / total_steps as f64;
        stats
    }
}

/// Mean reward of a policy over `n` freshly sampled problems.
pub fn evaluate(env: &ReasonEnv, policy: &TabularPolicy, n: usize, rng: &mut SimRng) -> f64 {
    let mut total = 0.0;
    for i in 0..n {
        let problem = env.sample_problem(rng);
        let traj = generate_episode(env, policy, 0, i as u64, problem, rng);
        total += traj.reward;
    }
    total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advantages_are_group_normalized() {
        let a = grpo_advantages(&[1.0, 0.0, 1.0, 0.0]);
        assert!((a.iter().sum::<f64>()).abs() < 1e-9);
        assert!(a[0] > 0.0 && a[1] < 0.0);
        assert_eq!(grpo_advantages(&[1.0, 1.0, 1.0]), vec![0.0; 3]);
        assert!(grpo_advantages(&[]).is_empty());
    }

    #[test]
    fn surrogate_clips_per_dapo() {
        // Positive advantage: clipped above 1 + 0.28.
        assert_eq!(surrogate_coeff(1.5, 1.0, 0.2, 0.28), 0.0);
        assert!(surrogate_coeff(1.2, 1.0, 0.2, 0.28) < 0.0);
        // Negative advantage: clipped below 1 - 0.2.
        assert_eq!(surrogate_coeff(0.5, -1.0, 0.2, 0.28), 0.0);
        assert!(surrogate_coeff(0.9, -1.0, 0.2, 0.28) > 0.0);
        // Clip-Higher asymmetry: a ratio of 1.25 passes upward but 0.75
        // fails downward.
        assert_ne!(surrogate_coeff(1.25, 1.0, 0.2, 0.28), 0.0);
        assert_eq!(surrogate_coeff(0.75, -1.0, 0.2, 0.28), 0.0);
    }

    fn run_training(
        env: &ReasonEnv,
        iters: usize,
        staleness: u64,
        seed: u64,
    ) -> (GrpoTrainer, f64) {
        // Train with behaviour data generated `staleness` versions behind,
        // via a snapshot ring.
        let cfg = GrpoConfig::default();
        let mut trainer = GrpoTrainer::new(env, cfg);
        let mut snapshots: Vec<TabularPolicy> = vec![trainer.policy.clone()];
        // Versions pruned off the ring's front: snapshot `i` holds policy
        // version `pruned + i`, not `i`, once retention kicks in.
        let mut pruned: u64 = 0;
        let mut rng = SimRng::new(seed);
        let group_size = 8;
        let prompts = 16;
        let mut last_eval = 0.0;
        for it in 0..iters {
            let behind = snapshots.len().saturating_sub(1 + staleness as usize);
            let behavior = snapshots[behind].clone();
            let bver = pruned + behind as u64;
            let mut groups = Vec::with_capacity(prompts);
            for p in 0..prompts {
                let prompt_id = (it * prompts + p) as u64;
                let problem = env.problem_for_prompt(seed, prompt_id);
                let group: Vec<RlTrajectory> = (0..group_size)
                    .map(|_| generate_episode(env, &behavior, bver, prompt_id, problem, &mut rng))
                    .collect();
                groups.push(group);
            }
            trainer.update(&groups, None);
            snapshots.push(trainer.policy.clone());
            if snapshots.len() > 64 {
                snapshots.remove(0);
                pruned += 1;
            }
            if it + 1 == iters {
                last_eval = evaluate(env, &trainer.policy, 600, &mut rng);
            }
        }
        (trainer, last_eval)
    }

    #[test]
    fn on_policy_grpo_learns_reason_tree() {
        let env = ReasonEnv::new(6, 3, 6, 11);
        let (_t, reward) = run_training(&env, 250, 0, 42);
        assert!(reward > 0.6, "on-policy GRPO must learn: reward {reward}");
    }

    #[test]
    fn heavy_staleness_learns_slower_than_on_policy() {
        let env = ReasonEnv::new(6, 3, 6, 11);
        let (_a, fresh) = run_training(&env, 120, 0, 7);
        let (_b, stale) = run_training(&env, 120, 40, 7);
        assert!(
            fresh > stale + 0.05,
            "staleness must slow convergence: fresh={fresh} stale={stale}"
        );
    }

    #[test]
    fn mixed_version_episode_is_detected() {
        let env = ReasonEnv::standard(1);
        let a = TabularPolicy::new(env.num_states(), env.actions);
        let mut b = TabularPolicy::new(env.num_states(), env.actions);
        // Make b distinguishable (not required, but realistic).
        b.accumulate_logp_grad(0, 0, -1.0);
        let mut rng = SimRng::new(2);
        let problem = Problem { ptype: 1, depth: 6 };
        let t = generate_mixed_episode(&env, &[(&a, 3), (&b, 4)], 0, problem, &mut rng);
        assert!(t.is_mixed_version());
        assert_eq!(t.behavior_version(), 3);
        assert_eq!(t.steps.len(), 6);
        // First half version 3, second half version 4.
        assert!(t.steps[..3].iter().all(|s| s.version == 3));
        assert!(t.steps[3..].iter().all(|s| s.version == 4));
    }

    #[test]
    fn decoupled_update_requires_proximal() {
        let env = ReasonEnv::new(4, 3, 4, 3);
        let cfg = GrpoConfig {
            decoupled: true,
            ..GrpoConfig::default()
        };
        let mut trainer = GrpoTrainer::new(&env, cfg);
        let behavior = trainer.policy.clone();
        let proximal = trainer.policy.clone();
        let mut rng = SimRng::new(4);
        let problem = env.problem_for_prompt(3, 0);
        let group: Vec<RlTrajectory> = (0..8)
            .map(|_| generate_episode(&env, &behavior, 0, 0, problem, &mut rng))
            .collect();
        let stats = trainer.update(&[group], Some(&proximal));
        assert_eq!(stats.trajectories, 8);
        assert_eq!(trainer.version(), 1);
    }

    #[test]
    fn empty_update_is_noop() {
        let env = ReasonEnv::new(4, 3, 4, 3);
        let mut trainer = GrpoTrainer::new(&env, GrpoConfig::default());
        let stats = trainer.update(&[], None);
        assert_eq!(stats.trajectories, 0);
        assert_eq!(trainer.version(), 0);
    }
}
