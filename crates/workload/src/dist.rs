//! Composable probability distributions for workload modelling.

use laminar_sim::SimRng;

/// A sampleable distribution over non-negative reals.
///
/// The variants cover the shapes the paper's workloads exhibit: log-normal
/// bodies with Pareto tails for trajectory lengths, and mixtures for bimodal
/// environment latencies.
#[derive(Debug, Clone)]
pub enum Dist {
    /// Always `value`.
    Constant {
        /// The constant.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Log-normal with the given parameters of the underlying normal.
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X`.
        sigma: f64,
    },
    /// Pareto with minimum `scale` and tail index `shape` (heavier tail for
    /// smaller `shape`).
    Pareto {
        /// Minimum value.
        scale: f64,
        /// Tail index; must be positive.
        shape: f64,
    },
    /// Exponential with the given rate.
    Exponential {
        /// Rate parameter (1/mean).
        rate: f64,
    },
    /// Weighted mixture of components.
    Mixture {
        /// `(weight, component)` pairs; weights need not be normalized.
        components: Vec<(f64, Dist)>,
    },
    /// A distribution clamped into `[lo, hi]`.
    Clamped {
        /// Inner distribution.
        inner: Box<Dist>,
        /// Lower clamp.
        lo: f64,
        /// Upper clamp.
        hi: f64,
    },
    /// A distribution scaled by a constant factor.
    Scaled {
        /// Inner distribution.
        inner: Box<Dist>,
        /// Multiplicative factor.
        factor: f64,
    },
}

impl Dist {
    /// A log-normal parameterized by its median and the ratio `p99/median`
    /// — the natural parameterization for "the 99th percentile is N× the
    /// median" statements in §2.2.
    pub fn lognormal_median_p99(median: f64, p99_over_median: f64) -> Dist {
        assert!(
            median > 0.0 && p99_over_median > 1.0,
            "invalid log-normal shape"
        );
        // For log-normal, p99/median = exp(z99 * sigma) with z99 = 2.3263.
        let sigma = p99_over_median.ln() / 2.326_347_874_040_841;
        Dist::LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Clamps this distribution into `[lo, hi]`.
    pub fn clamped(self, lo: f64, hi: f64) -> Dist {
        Dist::Clamped {
            inner: Box::new(self),
            lo,
            hi,
        }
    }

    /// Scales this distribution by `factor`.
    pub fn scaled(self, factor: f64) -> Dist {
        Dist::Scaled {
            inner: Box::new(self),
            factor,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant { value } => *value,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::LogNormal { mu, sigma } => (mu + sigma * rng.standard_normal()).exp(),
            Dist::Pareto { scale, shape } => {
                let u = 1.0 - rng.f64(); // (0, 1]
                scale / u.powf(1.0 / shape)
            }
            Dist::Exponential { rate } => {
                let u = 1.0 - rng.f64();
                -u.ln() / rate
            }
            Dist::Mixture { components } => {
                match rng.weighted_pick(components.iter().map(|(w, _)| *w)) {
                    Some(i) => components[i].1.sample(rng),
                    None => 0.0,
                }
            }
            Dist::Clamped { inner, lo, hi } => inner.sample(rng).clamp(*lo, *hi),
            Dist::Scaled { inner, factor } => inner.sample(rng) * factor,
        }
    }

    /// Analytic mean where a closed form exists, otherwise `None`.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant { value } => Some(*value),
            Dist::Uniform { lo, hi } => Some(0.5 * (lo + hi)),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Pareto { scale, shape } => {
                if *shape > 1.0 {
                    Some(shape * scale / (shape - 1.0))
                } else {
                    None
                }
            }
            Dist::Exponential { rate } => Some(1.0 / rate),
            Dist::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                if total <= 0.0 {
                    return Some(0.0);
                }
                let mut acc = 0.0;
                for (w, d) in components {
                    acc += w / total * d.mean()?;
                }
                Some(acc)
            }
            Dist::Clamped { .. } => None,
            Dist::Scaled { inner, factor } => inner.mean().map(|m| m * factor),
        }
    }

    /// Analytic quantile where a closed form exists, otherwise `None`.
    /// `q` in `(0, 1)`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            Dist::Constant { value } => Some(*value),
            Dist::Uniform { lo, hi } => Some(lo + q * (hi - lo)),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * normal_quantile(q)).exp()),
            Dist::Pareto { scale, shape } => Some(scale / (1.0 - q).powf(1.0 / shape)),
            Dist::Exponential { rate } => Some(-(1.0 - q).ln() / rate),
            Dist::Mixture { .. } => None,
            Dist::Clamped { inner, lo, hi } => inner.quantile(q).map(|x| x.clamp(*lo, *hi)),
            Dist::Scaled { inner, factor } => inner.quantile(q).map(|x| x * factor),
        }
    }
}

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// (relative error below 1.2e-9 — far tighter than the workload models need).
pub fn normal_quantile(q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "quantile probability must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if q < p_low {
        let u = (-2.0 * q.ln()).sqrt();
        (((((C[0] * u + C[1]) * u + C[2]) * u + C[3]) * u + C[4]) * u + C[5])
            / ((((D[0] * u + D[1]) * u + D[2]) * u + D[3]) * u + 1.0)
    } else if q <= 1.0 - p_low {
        let u = q - 0.5;
        let r = u * u;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * u
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Histogram;

    fn sample_hist(d: &Dist, n: usize, seed: u64) -> Histogram {
        let mut rng = SimRng::new(seed);
        let mut h = Histogram::new();
        for _ in 0..n {
            h.add(d.sample(&mut rng));
        }
        h
    }

    #[test]
    fn normal_quantile_known_points() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.99) - 2.326_348).abs() < 1e-4);
        assert!((normal_quantile(0.01) + 2.326_348).abs() < 1e-4);
    }

    #[test]
    fn lognormal_median_p99_hits_targets() {
        let d = Dist::lognormal_median_p99(3000.0, 10.0);
        assert!((d.quantile(0.5).unwrap() - 3000.0).abs() < 1.0);
        assert!((d.quantile(0.99).unwrap() - 30_000.0).abs() < 50.0);
        // Empirical check.
        let mut h = sample_hist(&d, 40_000, 42);
        let med = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((med - 3000.0).abs() / 3000.0 < 0.05, "median {med}");
        assert!((p99 / med - 10.0).abs() < 1.5, "p99/median {}", p99 / med);
    }

    #[test]
    fn pareto_tail_is_heavy() {
        let d = Dist::Pareto {
            scale: 1.0,
            shape: 1.5,
        };
        let mut h = sample_hist(&d, 50_000, 7);
        assert!(h.min() >= 1.0);
        assert!(h.percentile(99.9) > 50.0);
        assert!((d.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_infinite_mean_is_none() {
        assert!(Dist::Pareto {
            scale: 1.0,
            shape: 0.9
        }
        .mean()
        .is_none());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::Exponential { rate: 0.5 };
        let h = sample_hist(&d, 30_000, 9);
        assert!((h.mean() - 2.0).abs() < 0.1);
        assert_eq!(d.mean(), Some(2.0));
    }

    #[test]
    fn mixture_weights_respected() {
        let d = Dist::Mixture {
            components: vec![
                (3.0, Dist::Constant { value: 1.0 }),
                (1.0, Dist::Constant { value: 5.0 }),
            ],
        };
        let h = sample_hist(&d, 20_000, 3);
        // Mean = 0.75*1 + 0.25*5 = 2.0.
        assert!((h.mean() - 2.0).abs() < 0.1);
        assert_eq!(d.mean(), Some(2.0));
    }

    #[test]
    fn clamp_and_scale() {
        let d = Dist::Constant { value: 100.0 }.clamped(0.0, 10.0);
        let mut rng = SimRng::new(1);
        assert_eq!(d.sample(&mut rng), 10.0);
        let s = Dist::Constant { value: 2.0 }.scaled(3.0);
        assert_eq!(s.sample(&mut rng), 6.0);
        assert_eq!(s.mean(), Some(6.0));
        assert_eq!(s.quantile(0.5), Some(6.0));
    }

    #[test]
    fn uniform_bounds() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let mut rng = SimRng::new(13);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert_eq!(d.quantile(0.5), Some(3.0));
    }
}
