//! Walker's alias method for O(1) sampling from a fixed discrete
//! distribution.
//!
//! The symbolic-space samplers (`SampleKL`, `SampleKLM`) must repeatedly
//! draw an image index `i` with probability `|I^i| / |S•|`. The number of
//! draws is the (often large) iteration count computed by the optimal
//! estimator, so per-draw cost matters; the alias method pays O(n) once and
//! O(1) per draw thereafter.

use crate::mt::{Below, Mt64};

/// A preprocessed discrete distribution supporting O(1) weighted sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// `prob[i]` is the probability of keeping column `i` rather than
    /// following its alias.
    prob: Vec<f64>,
    alias: Vec<u32>,
    /// The column count, prepared for the uniform column draw.
    columns: Below,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must be finite, non-negative, and not all zero"
        );
        let n = weights.len();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
                w * n as f64 / total
            })
            .collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Whatever remains is (numerically) exactly 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        AliasTable { prob, alias, columns: Below::new(n as u64) }
    }

    /// Number of categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no categories (never constructible; kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index with its configured probability. Always
    /// inlined: the symbolic samplers call it once per sample.
    #[inline(always)]
    pub fn sample(&self, rng: &mut Mt64) -> usize {
        let i = rng.below_with(&self.columns) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = Mt64::new(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freqs = empirical(&[1.0; 8], 200_000, 1);
        for f in freqs {
            assert!((f - 0.125).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn skewed_weights_match_distribution() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let freqs = empirical(&w, 400_000, 2);
        let total: f64 = w.iter().sum();
        for (f, &wi) in freqs.iter().zip(&w) {
            assert!((f - wi / total).abs() < 0.01, "freq {f} for weight {wi}");
        }
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let freqs = empirical(&[0.0, 1.0, 0.0, 1.0], 50_000, 3);
        assert_eq!(freqs[0], 0.0);
        assert_eq!(freqs[2], 0.0);
    }

    #[test]
    fn single_category_always_sampled() {
        let freqs = empirical(&[42.0], 1000, 4);
        assert_eq!(freqs[0], 1.0);
    }

    #[test]
    fn extreme_weight_ratios_are_handled() {
        // Ratios like 1/|db(B_{H_i})| can span many orders of magnitude.
        let w = [1e-12, 1.0];
        let freqs = empirical(&w, 100_000, 5);
        assert!(freqs[0] < 0.001);
        assert!(freqs[1] > 0.999);
    }

    #[test]
    #[should_panic]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }
}
