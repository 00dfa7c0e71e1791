//! Optimizer kit for the tabular policies: softmax utilities, the
//! [`Params`] visitor, Adam, and global-norm gradient clipping. No external
//! tensor library — parameters are plain `Vec<f64>`.

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Log-softmax of one index.
pub fn log_softmax_at(logits: &[f64], idx: usize) -> f64 {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let lse: f64 = logits.iter().map(|l| (l - max).exp()).sum::<f64>().ln() + max;
    logits[idx] - lse
}

/// Anything exposing `(parameter, gradient)` slice pairs in a stable order.
pub trait Params {
    /// Visits every `(params, grads)` pair. The traversal order must be
    /// identical on every call for a given model.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));
}

/// Adam's first-moment decay.
const BETA1: f64 = 0.9;

/// Adam's second-moment decay.
const BETA2: f64 = 0.999;

/// Adam's stability epsilon.
const EPS: f64 = 1e-8;

/// The Adam optimizer, with first/second-moment state matching a model's
/// visit order.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    step: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an optimizer.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            step: 0,
            m: vec![],
            v: vec![],
        }
    }

    /// Applies one update to the model. The model's visit order must be
    /// stable across calls.
    pub fn step(&mut self, model: &mut dyn Params) {
        self.step += 1;
        let b1c = 1.0 - BETA1.powi(self.step as i32);
        let b2c = 1.0 - BETA2.powi(self.step as i32);
        let lr = self.lr;
        let m = &mut self.m;
        let v = &mut self.v;
        let mut slot = 0usize;
        model.visit_params(&mut |params: &mut [f64], grads: &mut [f64]| {
            if m.len() <= slot {
                m.push(vec![0.0; params.len()]);
                v.push(vec![0.0; params.len()]);
            }
            let (ms, vs) = (&mut m[slot], &mut v[slot]);
            assert_eq!(ms.len(), params.len(), "visit order changed under Adam");
            for i in 0..params.len() {
                let g = grads[i];
                ms[i] = BETA1 * ms[i] + (1.0 - BETA1) * g;
                vs[i] = BETA2 * vs[i] + (1.0 - BETA2) * g * g;
                let mhat = ms[i] / b1c;
                let vhat = vs[i] / b2c;
                params[i] -= lr * (mhat / (vhat.sqrt() + EPS));
            }
            slot += 1;
        });
    }
}

/// Clips a model's gradients to a global L2 norm (two passes).
pub fn clip_grad_norm(model: &mut dyn Params, max_norm: f64) {
    let mut sq = 0.0f64;
    model.visit_params(&mut |_p, g| {
        sq += g.iter().map(|x| x * x).sum::<f64>();
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |_p, g| {
            for x in g.iter_mut() {
                *x *= scale;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1001.0, 999.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0] && p[0] > p[2]);
        assert!((log_softmax_at(&[0.0, 0.0], 0) - (0.5f64).ln()).abs() < 1e-12);
    }

    struct RawParams {
        p: Vec<f64>,
        g: Vec<f64>,
    }

    impl Params for RawParams {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.p, &mut self.g);
        }
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (x - 3)^2 through the Params interface.
        let mut m = RawParams {
            p: vec![0.0],
            g: vec![0.0],
        };
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            m.g[0] = 2.0 * (m.p[0] - 3.0);
            opt.step(&mut m);
        }
        assert!((m.p[0] - 3.0).abs() < 1e-2, "x={}", m.p[0]);
    }

    #[test]
    fn adam_detects_changed_visit_order() {
        let mut a = RawParams {
            p: vec![0.0; 2],
            g: vec![1.0; 2],
        };
        let mut opt = Adam::new(0.1);
        opt.step(&mut a);
        let mut b = RawParams {
            p: vec![0.0; 3],
            g: vec![1.0; 3],
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            opt.step(&mut b);
        }));
        assert!(result.is_err(), "shape change must be caught");
    }

    #[test]
    fn grad_clip_scales_to_norm() {
        let mut m = RawParams {
            p: vec![0.0; 2],
            g: vec![3.0, 4.0],
        }; // norm 5
        clip_grad_norm(&mut m, 1.0);
        let norm = (m.g[0] * m.g[0] + m.g[1] * m.g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        // Below the cap: untouched.
        let mut m2 = RawParams {
            p: vec![0.0; 2],
            g: vec![0.3, 0.4],
        };
        clip_grad_norm(&mut m2, 1.0);
        assert_eq!(m2.g, vec![0.3, 0.4]);
    }
}
