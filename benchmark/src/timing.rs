//! Host-normalised timing: the calibration kernel, the reference speed
//! every reported time is scaled to, and the order statistics.
//!
//! The host is small and shared. Its speed drifts by tens of percent
//! over minutes, which a run's median cannot average away, and it
//! stutters for tens of milliseconds at a time, which it can. A fixed
//! single-threaded kernel runs before and after every round; a round's
//! times are multiplied by `CALIB_REF_S / median(the kernel times
//! nearest the round)`, which turns them into "seconds on a host where
//! the kernel takes `CALIB_REF_S`". The median over the three kernel
//! runs on either side follows the drift and drops the stutters.
//!
//! What drifts is mostly the memory system (neighbours' cache and
//! bandwidth use), and the workloads feel it to different degrees: in
//! the sizing runs `analyze_stream` slowed in step with an 8 MiB
//! random-access kernel (log-log slope 1.0), `analyze_report`,
//! `store_cycle` and `serve_closed` at a third of its pace, and a
//! compute-only kernel barely moved at all. So the kernel is half of
//! each: scaled by it, the run-to-run range of a round's median over
//! seven runs per workload was 7–18%, where raw it was 9–36% and scaled
//! by the memory kernel alone 7–19% with the quartiles wider.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the calibration kernel takes on the reference host (the
/// 2-core builder container at its median speed). Changing it rescales
/// every time metric, so it changes only together with a fresh baseline.
pub const CALIB_REF_S: f64 = 0.032;

/// `host.calib_spread` (IQR ÷ median of a run's kernel times) above
/// which the run is flagged `noisy: true`: beyond it the host moved
/// more between two kernels than the normalisation can follow.
pub const CALIB_SPREAD_LIMIT: f64 = 0.10;

const CALIB_WORDS: usize = 1 << 20; // 8 MiB of u64
const COMPUTE_STEPS: u32 = 6_000_000;
const MEMORY_STEPS: u32 = 3_000_000;

/// The calibration kernel: a register-only xorshift loop, then a
/// xorshift-indexed read-modify-write over 8 MiB, about half the time
/// in each.
pub struct Calibrator {
    buf: Vec<u64>,
    /// Every kernel time of this run, in order.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: (0..CALIB_WORDS as u64).collect(),
            samples: Vec::new(),
        }
    }

    /// Run the kernel once and return its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..COMPUTE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(31).wrapping_add(x);
        }
        black_box(acc);
        for _ in 0..MEMORY_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) & (CALIB_WORDS - 1)];
            *slot = slot.wrapping_mul(31).wrapping_add(x);
        }
        black_box(&self.buf);
        let t = start.elapsed().as_secs_f64();
        self.samples.push(t);
        t
    }
}

/// Kernel runs on either side of a round that set its factor.
const CALIB_WINDOW: usize = 3;

/// Per-round factors that turn raw times into reference-host seconds.
/// Round `i` ran between `calib[i]` and `calib[i + 1]`.
pub fn norm_factors(calib: &[f64]) -> Vec<f64> {
    (0..calib.len().saturating_sub(1))
        .map(|i| {
            let lo = (i + 1).saturating_sub(CALIB_WINDOW);
            let hi = (i + 1 + CALIB_WINDOW).min(calib.len());
            CALIB_REF_S / median(&calib[lo..hi])
        })
        .collect()
}

/// Quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / m
    }
}

/// `median [q1 .. q3] min=.. n=..`, the way every timing is printed.
pub fn describe(values: &[f64]) -> String {
    format!(
        "{:.6} [{:.6} .. {:.6}] min={:.6} n={}",
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75),
        quantile(values, 0.0),
        values.len()
    )
}
