//! Samples and sampled traces (paper Fig. 3, §III-C).
//!
//! A sample is a sequence of `w` recorded accesses followed by `z`
//! non-recorded accesses; `(w+z)` is the sampling period in memory loads
//! and `(w+z) ≫ w` (ratios of 10³…10⁵ : 1). The recorded `w` corresponds to
//! the contents of Processor Tracing's fixed-size circular buffer at the
//! sampling trigger.

use crate::access::Access;
use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// Metadata describing how a trace was collected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable workload label, e.g. `"miniVite-O3-v2"`.
    pub workload: String,
    /// Sampling period `w+z` in executed memory loads.
    pub period: u64,
    /// Circular trace-buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Total memory loads executed by the monitored region (the population
    /// the sampling trigger counted over), i.e. `𝒜̂` for the whole run.
    pub total_loads: u64,
    /// Total loads whose address was recorded by instrumentation across the
    /// whole run (before sampling); used for drop accounting.
    pub total_instrumented_loads: u64,
}

impl TraceMeta {
    /// Metadata with the given workload name and collection parameters.
    pub fn new(workload: impl Into<String>, period: u64, buffer_bytes: u64) -> TraceMeta {
        TraceMeta {
            workload: workload.into(),
            period,
            buffer_bytes,
            total_loads: 0,
            total_instrumented_loads: 0,
        }
    }
}

/// One sample: the decoded contents of the trace buffer at a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Recorded accesses, in execution order. Length is the observed window
    /// `w = A(σ)` for this sample.
    pub accesses: Vec<Access>,
    /// Logical time (load counter) at which the sampling trigger fired.
    pub trigger_time: u64,
}

impl Sample {
    /// A sample from time-ordered accesses.
    pub fn new(accesses: Vec<Access>, trigger_time: u64) -> Sample {
        debug_assert!(
            accesses.is_sorted_by_key(|a| a.time),
            "sample accesses must be time-ordered"
        );
        Sample {
            accesses,
            trigger_time,
        }
    }

    /// Logical time of the first recorded access, if any.
    pub fn start_time(&self) -> Option<u64> {
        self.accesses.first().map(|a| a.time)
    }
}

/// A sampled, possibly compressed, memory address trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledTrace {
    /// Collection metadata.
    pub meta: TraceMeta,
    /// Samples in trigger-time order.
    pub samples: Vec<Sample>,
}

impl SampledTrace {
    /// An empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> SampledTrace {
        SampledTrace {
            meta,
            samples: Vec::new(),
        }
    }

    /// Append a sample, enforcing trigger-time order.
    pub fn push_sample(&mut self, sample: Sample) -> Result<(), ModelError> {
        if let Some(last) = self.samples.last() {
            if sample.trigger_time < last.trigger_time {
                return Err(ModelError::UnorderedSamples {
                    index: self.samples.len(),
                });
            }
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Number of samples `|σ|`.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Total observed accesses `A(σ)` across all samples.
    pub fn observed_accesses(&self) -> u64 {
        self.samples.iter().map(|s| s.accesses.len() as u64).sum()
    }

    /// Average recorded window `w` per sample (0 when there are no samples).
    pub fn mean_window(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.observed_accesses() as f64 / self.samples.len() as f64
        }
    }

    /// Iterate over all recorded accesses in time order.
    pub fn accesses(&self) -> impl Iterator<Item = &Access> + '_ {
        self.samples.iter().flat_map(|s| s.accesses.iter())
    }
}

/// A full (unsampled) trace used as a validation baseline (paper §VI-A) and
/// for space accounting (Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullTrace {
    /// Collection metadata (period is irrelevant; kept for symmetry).
    pub meta: TraceMeta,
    /// Every recorded access, in execution order.
    pub accesses: Vec<Access>,
    /// Accesses lost to collector throttling ("DROP" records): the paper's
    /// 'Rec' traces lose an unpredictable 30–50%.
    pub dropped: u64,
}

impl FullTrace {
    /// An empty full trace.
    pub fn new(meta: TraceMeta) -> FullTrace {
        FullTrace {
            meta,
            accesses: Vec::new(),
            dropped: 0,
        }
    }

    /// Fraction of instrumented accesses that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.accesses.len() as u64 + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// View the full trace as one giant sample (useful for running sampled
    /// analyses on full data).
    pub fn as_single_sample_trace(&self) -> SampledTrace {
        let mut meta = self.meta.clone();
        meta.period = self.accesses.len() as u64;
        SampledTrace {
            meta,
            samples: vec![Sample::new(
                self.accesses.clone(),
                self.accesses.last().map_or(0, |a| a.time),
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn acc(t: u64) -> Access {
        Access::new(0x400u64, 0x1000u64 + t * 8, t)
    }

    #[test]
    fn sample_start_time() {
        let s = Sample::new(vec![acc(5), acc(6), acc(7)], 10);
        assert_eq!(s.start_time(), Some(5));
        assert_eq!(Sample::new(vec![], 3).start_time(), None);
    }

    #[test]
    fn trace_push_enforces_order() {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        t.push_sample(Sample::new(vec![acc(1)], 10)).unwrap();
        t.push_sample(Sample::new(vec![acc(20)], 30)).unwrap();
        let err = t.push_sample(Sample::new(vec![acc(2)], 5));
        assert!(matches!(
            err,
            Err(ModelError::UnorderedSamples { index: 2 })
        ));
    }

    #[test]
    fn trace_aggregates() {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        t.push_sample(Sample::new(vec![acc(1), acc(2)], 10))
            .unwrap();
        t.push_sample(Sample::new(vec![acc(20), acc(21), acc(22)], 30))
            .unwrap();
        assert_eq!(t.num_samples(), 2);
        assert_eq!(t.observed_accesses(), 5);
        assert!((t.mean_window() - 2.5).abs() < 1e-12);
        assert_eq!(t.accesses().count(), 5);
    }

    #[test]
    fn empty_trace_statistics() {
        let t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        assert_eq!(t.mean_window(), 0.0);
    }

    #[test]
    fn full_trace_drop_rate() {
        let mut f = FullTrace::new(TraceMeta::new("t", 0, 0));
        assert_eq!(f.drop_rate(), 0.0);
        f.accesses = vec![acc(0), acc(1), acc(2)];
        f.dropped = 1;
        assert!((f.drop_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn full_trace_as_single_sample() {
        let mut f = FullTrace::new(TraceMeta::new("t", 0, 0));
        f.accesses = vec![acc(0), acc(1), acc(2)];
        let st = f.as_single_sample_trace();
        assert_eq!(st.num_samples(), 1);
        assert_eq!(st.observed_accesses(), 3);
        assert_eq!(st.meta.period, 3);
    }
}
