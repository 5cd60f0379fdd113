//! Undersampling detection (paper §VI-A: "It should be possible to
//! automatically detect most undersampling by analyzing sample density
//! and forming confidence intervals. One could flag regions with
//! insufficient samples.").
//!
//! For each aggregation unit (function, region, interval) we form the
//! sample mean and a normal-approximation confidence interval of the
//! per-sample footprint; units with too few samples or too wide a
//! relative interval are flagged.

use serde::{Deserialize, Serialize};

/// Confidence assessment of one aggregated estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Confidence {
    /// Number of samples contributing.
    pub samples: u64,
    /// Sample mean of the metric.
    pub mean: f64,
    /// Sample standard deviation.
    std_dev: f64,
    /// Half-width of the 95% confidence interval of the mean.
    ci_half_width: f64,
}

impl Confidence {
    /// Compute from per-sample metric observations.
    pub fn from_observations(values: &[f64]) -> Confidence {
        let n = values.len() as f64;
        if values.is_empty() {
            return Confidence {
                samples: 0,
                mean: 0.0,
                std_dev: 0.0,
                ci_half_width: f64::INFINITY,
            };
        }
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        let std_dev = var.sqrt();
        // z ≈ 1.96 for 95%.
        let ci_half_width = if values.len() < 2 {
            f64::INFINITY
        } else {
            1.96 * std_dev / n.sqrt()
        };
        Confidence {
            samples: values.len() as u64,
            mean,
            std_dev,
            ci_half_width,
        }
    }

    /// Relative CI half-width (∞ when the mean is zero or samples are
    /// insufficient).
    pub(crate) fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.ci_half_width / self.mean.abs()
        }
    }

    /// Flag this unit as undersampled given minimum sample count and
    /// maximum relative CI.
    pub(crate) fn is_undersampled(&self, min_samples: u64, max_relative_ci: f64) -> bool {
        self.samples < min_samples || self.relative_ci() > max_relative_ci
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_metric_is_confident() {
        let values: Vec<f64> = (0..100).map(|i| 100.0 + (i % 3) as f64).collect();
        let c = Confidence::from_observations(&values);
        assert_eq!(c.samples, 100);
        assert!((c.mean - 101.0).abs() < 0.2);
        assert!(c.relative_ci() < 0.01);
        assert!(!c.is_undersampled(10, 0.1));
    }

    #[test]
    fn few_samples_flagged() {
        let c = Confidence::from_observations(&[50.0, 60.0]);
        assert!(c.is_undersampled(10, 0.5));
        let single = Confidence::from_observations(&[50.0]);
        assert!(single.ci_half_width.is_infinite());
        assert!(single.is_undersampled(1, 1.0));
    }

    #[test]
    fn noisy_metric_flagged() {
        let values: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { 1000.0 })
            .collect();
        let c = Confidence::from_observations(&values);
        assert!(c.relative_ci() > 0.2);
        assert!(c.is_undersampled(10, 0.2));
    }

    #[test]
    fn empty_observations() {
        let c = Confidence::from_observations(&[]);
        assert_eq!(c.samples, 0);
        assert!(c.is_undersampled(1, 1.0));
        assert!(c.relative_ci().is_infinite());
    }
}
