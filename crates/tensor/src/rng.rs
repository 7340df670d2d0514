//! Deterministic random number generation for the simulation.
//!
//! Every stochastic component in the workspace (weight initialization,
//! synthetic workload generation, distillation noise) draws from a
//! [`SimRng`] seeded explicitly, so every experiment is reproducible
//! bit-for-bit from its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source.
///
/// # Example
///
/// ```
/// use spec_tensor::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator. Used to give each model layer
    /// or workload document its own stream without correlation.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s: u64 = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Fills a vector with normal samples scaled by `std`.
    pub fn normal_vec(&mut self, len: usize, std: f32) -> Vec<f32> {
        (0..len).map(|_| self.normal() * std).collect()
    }

    /// A random normal matrix with entries `N(0, std^2)`.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> crate::Matrix {
        crate::Matrix::from_vec(rows, cols, self.normal_vec(rows * cols, std))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..10 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_children_are_independent() {
        let mut root = SimRng::seed(5);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.uniform(), c2.uniform());
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SimRng::seed(11);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed(13);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
