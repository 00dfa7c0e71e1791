//! Tabular softmax policies over discrete states.

use crate::nn::{log_softmax_at, softmax, Params};
use laminar_sim::SimRng;

/// A tabular softmax policy: independent logits per state.
#[derive(Debug, Clone)]
pub struct TabularPolicy {
    actions: usize,
    logits: Vec<f64>,
    grads: Vec<f64>,
}

impl TabularPolicy {
    /// Uniform-initialized policy.
    pub fn new(states: usize, actions: usize) -> Self {
        TabularPolicy {
            actions,
            logits: vec![0.0; states * actions],
            grads: vec![0.0; states * actions],
        }
    }

    /// Action logits at a state.
    fn logits(&self, state: usize) -> Vec<f64> {
        let base = state * self.actions;
        self.logits[base..base + self.actions].to_vec()
    }

    /// Action probabilities at a state.
    pub fn action_probs(&self, state: usize) -> Vec<f64> {
        softmax(&self.logits(state))
    }

    /// Log-probability of an action at a state.
    pub fn log_prob(&self, state: usize, action: usize) -> f64 {
        log_softmax_at(&self.logits(state), action)
    }

    /// Samples an action.
    pub fn sample_action(&self, state: usize, rng: &mut SimRng) -> usize {
        let probs = self.action_probs(state);
        rng.weighted_index(&probs)
            .expect("probabilities sum to one")
    }

    /// Accumulates the policy-gradient contribution
    /// `coeff · ∇ log π(action | state)` into the policy's gradients.
    pub fn accumulate_logp_grad(&mut self, state: usize, action: usize, coeff: f64) {
        // ∇_logits log π(a|s) = onehot(a) − softmax(logits).
        let probs = self.action_probs(state);
        let base = state * self.actions;
        for (i, p) in probs.iter().enumerate() {
            let onehot = if i == action { 1.0 } else { 0.0 };
            // Gradients are of the *loss*, so negate the ascent direction:
            // the caller passes coeff = −advantage-ish weights already
            // shaped for a descent step.
            self.grads[base + i] += coeff * (onehot - p);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }
}

impl Params for TabularPolicy {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.logits, &mut self.grads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Adam;

    #[test]
    fn uniform_init_gives_uniform_probs() {
        let p = TabularPolicy::new(3, 4);
        let probs = p.action_probs(1);
        for pr in probs {
            assert!((pr - 0.25).abs() < 1e-12);
        }
        assert!((p.log_prob(0, 2) - 0.25f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn logp_gradient_ascent_raises_action_probability() {
        let mut p = TabularPolicy::new(2, 3);
        let mut opt = Adam::new(0.1);
        for _ in 0..100 {
            p.zero_grad();
            // Loss gradient = -∇logπ(a=1|s=0): gradient descent raises π.
            p.accumulate_logp_grad(0, 1, -1.0);
            opt.step(&mut p);
        }
        let probs = p.action_probs(0);
        assert!(probs[1] > 0.9, "π(1|0) = {}", probs[1]);
        // Untouched state stays uniform.
        let other = p.action_probs(1);
        assert!((other[0] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_follows_probabilities() {
        let mut p = TabularPolicy::new(1, 2);
        let mut opt = Adam::new(0.2);
        for _ in 0..60 {
            p.zero_grad();
            p.accumulate_logp_grad(0, 0, -1.0);
            opt.step(&mut p);
        }
        let mut rng = SimRng::new(5);
        let zeros = (0..1000)
            .filter(|_| p.sample_action(0, &mut rng) == 0)
            .count();
        assert!(zeros > 900, "zeros={zeros}");
    }
}
