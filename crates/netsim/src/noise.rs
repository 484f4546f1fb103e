//! Delay-measurement noise and non-congestive delay models.
//!
//! The paper measures the delay noise of NIC hardware timestamping in its
//! testbed (Fig 7): an additive, long-tailed distribution with mean
//! ≈ 0.3 µs and less than 0.1 % probability of exceeding 1 µs. All PrioPlus
//! simulations inject this noise into delay samples to increase fidelity; we
//! do the same with a fitted synthetic model.

use simcore::stats::Summary;
use simcore::{SimRng, Time};

/// Additive delay-measurement noise applied to every RTT sample a host takes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseModel {
    /// No noise (idealized hardware timestamps).
    None,
    /// Long-tail noise fitted to the paper's Fig 7 testbed measurement,
    /// multiplied by `scale` (Fig 10d sweeps this scale).
    ///
    /// The fit: with probability 0.999, noise ~ Exp(mean 0.28 µs) truncated
    /// at 1 µs; with probability 0.001, a tail sample uniform in
    /// [1 µs, 3 µs]. This yields mean ≈ 0.3 µs and P(>1 µs) ≈ 0.1 %.
    Fitted {
        /// Multiplier on the fitted distribution (1.0 = testbed).
        scale: f64,
    },
    /// Uniform noise in `[0, range]`; used to model non-congestive delay
    /// variation (Fig 13) when applied in-path.
    Uniform {
        /// Upper bound of the uniform range in picoseconds.
        range_ps: u64,
    },
}

impl NoiseModel {
    /// Fitted testbed noise at scale 1.0.
    pub fn testbed() -> Self {
        NoiseModel::Fitted { scale: 1.0 }
    }

    /// Draw one noise sample. Additive: always ≥ 0 (measured delay is never
    /// below the true network delay, §4.3.2).
    pub fn sample(&self, rng: &mut SimRng) -> Time {
        match *self {
            NoiseModel::None => Time::ZERO,
            NoiseModel::Fitted { scale } => {
                let body_mean_us = 0.28;
                let us = if rng.f64() < 0.999 {
                    // Truncated exponential body.
                    loop {
                        let v = rng.exponential(body_mean_us);
                        if v < 1.0 {
                            break v;
                        }
                    }
                } else {
                    rng.range_f64(1.0, 3.0)
                };
                Time::from_us_f64(us * scale)
            }
            NoiseModel::Uniform { range_ps } => {
                if range_ps == 0 {
                    Time::ZERO
                } else {
                    Time::from_ps(rng.below(range_ps + 1))
                }
            }
        }
    }

    /// The `p`-th percentile of the model (Monte-Carlo; deterministic given
    /// the internal fixed seed), used by operators to pick the channel-width
    /// noise allowance `B` (§4.3.2).
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut rng = SimRng::new(0xF17);
        let mut samples: Summary = (0..100_000)
            .map(|_| self.sample(&mut rng).as_us_f64())
            .collect();
        samples.percentile(p).expect("100k samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(NoiseModel::None.sample(&mut rng), Time::ZERO);
    }

    #[test]
    fn fitted_matches_paper_statistics() {
        let m = NoiseModel::testbed();
        let mut rng = SimRng::new(2);
        let n = 200_000;
        let mut sum = 0.0;
        let mut over_1us = 0usize;
        for _ in 0..n {
            let s = m.sample(&mut rng).as_us_f64();
            assert!(s >= 0.0);
            sum += s;
            if s > 1.0 {
                over_1us += 1;
            }
        }
        let mean = sum / n as f64;
        // Paper: mean ~0.3us, <0.1% above 1us.
        assert!((0.2..0.4).contains(&mean), "mean {mean}");
        let frac = over_1us as f64 / n as f64;
        assert!(frac < 0.002, "tail fraction {frac}");
    }

    #[test]
    fn fitted_scale_scales_mean() {
        let mut rng = SimRng::new(3);
        let m1 = NoiseModel::Fitted { scale: 1.0 };
        let m4 = NoiseModel::Fitted { scale: 4.0 };
        let n = 50_000;
        let mean = |m: &NoiseModel, rng: &mut SimRng| {
            (0..n).map(|_| m.sample(rng).as_us_f64()).sum::<f64>() / n as f64
        };
        let m1v = mean(&m1, &mut rng);
        let m4v = mean(&m4, &mut rng);
        assert!((m4v / m1v - 4.0).abs() < 0.3, "ratio {}", m4v / m1v);
    }

    #[test]
    fn uniform_bounded() {
        let m = NoiseModel::Uniform {
            range_ps: Time::from_us(10).as_ps(),
        };
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            let s = m.sample(&mut rng);
            assert!(s <= Time::from_us(10));
        }
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let m = NoiseModel::testbed();
        let p50 = m.percentile_us(50.0);
        let p9985 = m.percentile_us(99.85);
        assert!(p9985 >= p50);
        // Paper picks 0.8us as the 99.85th percentile of its testbed noise.
        assert!(
            (0.5..1.6).contains(&p9985),
            "p99.85 {p9985} should be near the paper's 0.8us"
        );
    }
}
