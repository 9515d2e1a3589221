//! Message latency models.
//!
//! The paper abstracts away timing entirely; latencies here exist to give
//! the discrete-event engine a schedule to explore and the benchmarks a
//! time axis. All models are deterministic given their seed.

use crate::net::Time;
use crate::rng::SimRng;

/// How long a message takes from send to delivery.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Time),
    /// Uniformly distributed in `[lo, hi]`, drawn from a seeded RNG.
    /// Boxed: the RNG state dwarfs the `Constant` variant.
    Uniform(Box<UniformLatency>),
}

/// State of the [`LatencyModel::Uniform`] variant.
#[derive(Debug, Clone)]
pub struct UniformLatency {
    /// Inclusive lower bound.
    pub(crate) lo: Time,
    /// Inclusive upper bound.
    pub(crate) hi: Time,
    /// RNG state (seeded at construction).
    rng: SimRng,
}

impl LatencyModel {
    /// A constant-latency model.
    pub fn constant(t: Time) -> Self {
        Self::Constant(t)
    }

    /// A uniform-latency model with its own deterministic RNG.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform(lo: Time, hi: Time, seed: u64) -> Self {
        assert!(lo <= hi, "uniform latency requires lo <= hi");
        Self::Uniform(Box::new(UniformLatency { lo, hi, rng: SimRng::seed_from_u64(seed) }))
    }

    /// Draw the latency for the next message.
    pub(crate) fn sample(&mut self) -> Time {
        match self {
            Self::Constant(t) => *t,
            Self::Uniform(u) => u.rng.gen_range(u.lo..=u.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut m = LatencyModel::constant(7);
        for _ in 0..10 {
            assert_eq!(m.sample(), 7);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut m = LatencyModel::uniform(3, 9, 42);
        for _ in 0..1000 {
            let v = m.sample();
            assert!((3..=9).contains(&v));
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let mut a = LatencyModel::uniform(0, 100, 7);
        let mut b = LatencyModel::uniform(0, 100, 7);
        let va: Vec<_> = (0..50).map(|_| a.sample()).collect();
        let vb: Vec<_> = (0..50).map(|_| b.sample()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LatencyModel::uniform(0, 1000, 1);
        let mut b = LatencyModel::uniform(0, 1000, 2);
        let va: Vec<_> = (0..20).map(|_| a.sample()).collect();
        let vb: Vec<_> = (0..20).map(|_| b.sample()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_rejected() {
        let _ = LatencyModel::uniform(5, 4, 0);
    }

    #[test]
    fn degenerate_uniform_allowed() {
        let mut m = LatencyModel::uniform(4, 4, 0);
        assert_eq!(m.sample(), 4);
    }
}
