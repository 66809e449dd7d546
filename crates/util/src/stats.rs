//! Episode statistics as defined in the paper (§4.1.1).
//!
//! Every table cell in the evaluation is "the average of the F1 scores over
//! all the episodes … mean ± 1.96 × standard deviation / √(sample size)".
//! [`MeanCi`] is exactly that summary; [`OnlineStats`] accumulates it in one
//! pass (Welford's algorithm), and [`ci95`] runs that pass over a slice of
//! per-episode scores in order.

/// Mean with a 95 % normal-approximation confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Sample mean.
    pub mean: f64,
    /// 1.96 · σ / √n (zero when n < 2).
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

impl MeanCi {
    /// Formats the statistic the way the paper prints table cells, in
    /// percentage points: `23.74 ± 0.65%`.
    pub fn as_percent(&self) -> String {
        format!("{:.2} ± {:.2}%", self.mean * 100.0, self.ci95 * 100.0)
    }
}

impl std::fmt::Display for MeanCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4} (n={})", self.mean, self.ci95, self.n)
    }
}

/// Arithmetic mean of a slice; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Computes mean ± 1.96·σ/√n over a slice of per-episode scores.
///
/// Uses the sample (n−1) standard deviation, matching common evaluation
/// scripts for episodic few-shot benchmarks.
pub fn ci95(xs: &[f64]) -> MeanCi {
    let mut acc = OnlineStats::new();
    for &x in xs {
        acc.push(x);
    }
    acc.summary()
}

/// Single-pass mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: usize,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Current sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance with Bessel's correction (0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The paper's summary statistic.
    pub fn summary(&self) -> MeanCi {
        let ci = if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        };
        MeanCi {
            mean: self.mean,
            ci95: ci,
            n: self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ci95(&[]).n, 0);
    }

    #[test]
    fn mean_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ci_matches_hand_computation() {
        // xs = [0.1, 0.2, 0.3]: mean 0.2, sd 0.1, ci = 1.96*0.1/sqrt(3).
        let s = ci95(&[0.1, 0.2, 0.3]);
        assert!((s.mean - 0.2).abs() < 1e-12);
        let expected = 1.96 * 0.1 / 3f64.sqrt();
        assert!((s.ci95 - expected).abs() < 1e-9, "{} vs {expected}", s.ci95);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let s = ci95(&[0.5]);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.mean, 0.5);
    }

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
        let batch = ci95(&xs);
        let mut online = OnlineStats::new();
        xs.iter().for_each(|&x| online.push(x));
        let o = online.summary();
        assert!((batch.mean - o.mean).abs() < 1e-12);
        assert!((batch.ci95 - o.ci95).abs() < 1e-12);
    }

    #[test]
    fn percent_formatting_matches_paper_style() {
        let s = MeanCi {
            mean: 0.2374,
            ci95: 0.0065,
            n: 1000,
        };
        assert_eq!(s.as_percent(), "23.74 ± 0.65%");
    }
}
