//! Link delay models.
//!
//! The paper's evaluation (Sec. 7.1) studies two network regimes with the same average
//! message delay: **synchronous** links delaying every message by 50 ms, and
//! **asynchronous** links delaying every message by 50 ± 50 ms drawn from a normal
//! distribution (which frequently reorders messages in flight).

use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::time::SimTime;

/// Per-message transmission delay model of an authenticated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly the given delay (in microseconds).
    Constant {
        /// Delay in microseconds.
        micros: u64,
    },
    /// Delays are drawn from a normal distribution (in microseconds), truncated below at
    /// `min_micros` so that delays remain positive and causality is preserved.
    Normal {
        /// Mean delay in microseconds.
        mean_micros: u64,
        /// Standard deviation in microseconds.
        std_dev_micros: u64,
        /// Minimum delay in microseconds (truncation point).
        min_micros: u64,
    },
    /// Delays are drawn uniformly from `[min_micros, max_micros]`.
    Uniform {
        /// Minimum delay in microseconds.
        min_micros: u64,
        /// Maximum delay in microseconds.
        max_micros: u64,
    },
}

impl DelayModel {
    /// The paper's synchronous setting: every message is delayed by 50 ms.
    pub fn synchronous() -> Self {
        DelayModel::Constant { micros: 50_000 }
    }

    /// The paper's asynchronous setting: 50 ± 50 ms per message, normally distributed,
    /// truncated at 1 ms.
    pub fn asynchronous() -> Self {
        DelayModel::Normal {
            mean_micros: 50_000,
            std_dev_micros: 50_000,
            min_micros: 1_000,
        }
    }

    /// Samples one message delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            DelayModel::Constant { micros } => SimTime::from_micros(micros),
            DelayModel::Normal {
                mean_micros,
                std_dev_micros,
                min_micros,
            } => {
                let normal = Normal::new(mean_micros as f64, std_dev_micros as f64)
                    .expect("standard deviation is non-negative");
                let sampled = normal.sample(rng).max(min_micros as f64);
                SimTime::from_micros(sampled.round() as u64)
            }
            DelayModel::Uniform {
                min_micros,
                max_micros,
            } => {
                let (lo, hi) = (min_micros.min(max_micros), min_micros.max(max_micros));
                SimTime::from_micros(rng.gen_range(lo..=hi))
            }
        }
    }

    /// Mean delay of the model, in microseconds.
    pub fn mean_micros(&self) -> u64 {
        match *self {
            DelayModel::Constant { micros } => micros,
            DelayModel::Normal { mean_micros, .. } => mean_micros,
            DelayModel::Uniform {
                min_micros,
                max_micros,
            } => (min_micros + max_micros) / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synchronous_delay_is_always_50ms() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DelayModel::synchronous();
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng).as_micros(), 50_000);
        }
        assert_eq!(model.mean_micros(), 50_000);
    }

    #[test]
    fn asynchronous_delays_vary_and_stay_positive() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = DelayModel::asynchronous();
        let samples: Vec<u64> = (0..200)
            .map(|_| model.sample(&mut rng).as_micros())
            .collect();
        assert!(samples.iter().all(|&d| d >= 1_000));
        let distinct: std::collections::BTreeSet<_> = samples.iter().collect();
        assert!(distinct.len() > 50, "normal delays should vary");
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!(
            (mean - 50_000.0).abs() < 20_000.0,
            "mean should be near 50 ms, got {mean}"
        );
    }

    #[test]
    fn uniform_delays_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = DelayModel::Uniform {
            min_micros: 10,
            max_micros: 20,
        };
        for _ in 0..100 {
            let d = model.sample(&mut rng).as_micros();
            assert!((10..=20).contains(&d));
        }
        assert_eq!(model.mean_micros(), 15);
    }

    #[test]
    fn uniform_with_swapped_bounds_does_not_panic() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = DelayModel::Uniform {
            min_micros: 30,
            max_micros: 10,
        };
        let d = model.sample(&mut rng).as_micros();
        assert!((10..=30).contains(&d));
    }
}
