//! Lock-free metric primitives: sharded counters, power-of-2
//! histograms, and maximum gauges.
//!
//! All three are built from plain atomics so hot paths (per-chunk
//! work-queue claims, per-frame decodes) never contend on a lock. When
//! observability is disabled the update methods reduce to one relaxed
//! atomic load and an early return.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter shard count. Power of two; large enough that the default
/// analysis thread pool (≤ 8) rarely collides on a cache line.
const SHARDS: usize = 16;

/// One cache line per shard so concurrent writers don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Thread → shard assignment: a cheap round-robin id handed out on
/// first use per thread.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter with per-thread shards.
pub struct Counter {
    name: &'static str,
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    pub(crate) fn new(name: &'static str) -> Counter {
        Counter {
            name,
            shards: Default::default(),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. A no-op when observability is disabled.
    // `shard_index` is reduced modulo `SHARDS`.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current cumulative value (sum over shards).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Histogram bins: bin 0 counts zeros, bin `k` counts `[2^(k-1), 2^k)`,
/// so 65 bins cover the full `u64` range. The shape matches
/// `memgaze-analysis`'s `Log2Histogram` so renderings line up.
const HIST_BINS: usize = 65;

/// A lock-free power-of-2 histogram of nonnegative values.
pub struct Histogram {
    name: &'static str,
    bins: [AtomicU64; HIST_BINS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            bins: [const { AtomicU64::new(0) }; HIST_BINS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record a value. A no-op when observability is disabled.
    // The bin is at most 64, and there are 65.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let bin = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    /// Snapshot `(count, sum, populated-prefix bins)`.
    pub fn snapshot(&self) -> (u64, u64, Vec<u64>) {
        let mut bins: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        bins.truncate(bins.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1));
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            bins,
        )
    }
}

/// A gauge tracking both the maximum (e.g. peak shard bytes) and the
/// most recent value (e.g. the watch controller's current period).
pub struct Gauge {
    name: &'static str,
    max: AtomicU64,
    last: AtomicU64,
}

impl Gauge {
    pub(crate) fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            max: AtomicU64::new(0),
            last: AtomicU64::new(0),
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Raise the gauge to at least `v`. A no-op when disabled.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the current value, raising the maximum alongside. A
    /// no-op when disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.last.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Largest value observed.
    pub fn value(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Most recently [`set`](Self::set) value (0 if only `set_max` was
    /// ever used).
    pub fn last(&self) -> u64 {
        self.last.load(Ordering::Relaxed)
    }
}

/// A registered counter, cached per call site: the registry lock is
/// taken only on each site's first execution.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::counter($name))
    }};
}

/// A registered histogram, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::histogram($name))
    }};
}

/// A registered gauge, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::gauge($name))
    }};
}
