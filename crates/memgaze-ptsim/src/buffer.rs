//! The fixed-size circular trace buffer.
//!
//! "With Processor Tracing, the sample window `w` corresponds to the
//! contents of a fixed-size circular buffer" (paper §III-C). The paper
//! also notes a kernel artifact: "buffers do not yield the expected
//! addresses (size / 8 bytes) ... because buffer fill and flushes occur
//! asynchronously with the sampling trigger" (§VI) — a 16-KiB buffer
//! yields ≈1150 addresses rather than 2048, an 8-KiB one ≈500 rather than
//! 1024. [`CircBuffer::snapshot`] reproduces that with a configurable
//! yield factor jittered by a small deterministic LCG.

/// Deterministic 64-bit LCG (no `rand` dependency in the hardware model).
#[derive(Debug, Clone)]
pub(crate) struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeded generator.
    pub(crate) fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        // Musl-style LCG constants, xor-folded for better high bits.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = self.state;
        (x >> 33) ^ x
    }

    /// Uniform float in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Default mean yield factor matching the paper's observed ≈ 0.49–0.56
/// addresses per expected buffer slot.
pub(crate) const DEFAULT_YIELD: f64 = 0.55;

/// Slots reserved up front: a buffer of up to this many items (40 KiB of
/// full PTW packets; the presets are 8 and 16 KiB) is allocated once, at
/// its final size. Past that — `memgaze watch --buffer-kb` is unchecked,
/// its controller may grow to 256 KiB — the ring grows as items arrive.
const EAGER_SLOTS: u64 = 4096;

/// The circular trace buffer: a ring of slots, each holding one item and
/// what it cost, in the caller's unit (packets for the stream samplers,
/// bytes where sideband packets share the space).
///
/// Invariant: the contents are the longest suffix of the pushes since
/// the last [`snapshot`](CircBuffer::snapshot) whose costs fit the
/// capacity — except that the newest push always stays, and that
/// lowering the capacity evicts nothing until the next push.
#[derive(Debug, Clone)]
pub struct CircBuffer<T> {
    /// `head..head + len` (wrapping) are live, oldest first.
    slots: Vec<(T, u64)>,
    head: usize,
    len: usize,
    used: u64,
    cap: u64,
    /// Mean fraction of buffer contents the snapshot yields (kernel
    /// async-fill artifact); jittered ±0.1 per snapshot.
    yield_factor: f64,
    rng: Lcg,
}

impl<T: Copy> CircBuffer<T> {
    /// A buffer of capacity `cap ≥ min_cost`, what its cheapest item costs.
    pub(crate) fn new(cap: u64, min_cost: u64, yield_factor: f64, seed: u64) -> CircBuffer<T> {
        assert!(cap >= min_cost, "buffer smaller than one packet");
        assert!(
            (0.0..=1.0).contains(&yield_factor),
            "yield factor out of range"
        );
        CircBuffer {
            slots: Vec::with_capacity((cap / min_cost.max(1)).min(EAGER_SLOTS) as usize),
            head: 0,
            len: 0,
            used: 0,
            cap,
            yield_factor,
            rng: Lcg::new(seed),
        }
    }

    /// Push an item, evicting the oldest contents on wrap (circular
    /// overwrite).
    // The per-load path indexes unchecked: `head` and `tail` are wrapped
    // below `slots.len()`, the eviction loop reads only while `len > 0`
    // (so `slots` is non-empty), and `grow` runs before a full ring is
    // written.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub(crate) fn push(&mut self, item: T, cost: u64) {
        // Locals, so each field is read and written once per push
        // whatever the slot store may alias.
        let (mut head, mut len, mut used) = (self.head, self.len, self.used);
        while used + cost > self.cap && len > 0 {
            used -= self.slots[head].1;
            head += 1;
            if head == self.slots.len() {
                head = 0;
            }
            len -= 1;
        }
        if len == self.slots.len() {
            self.grow(head, (item, cost));
            head = 0;
        }
        let mut tail = head + len;
        if tail >= self.slots.len() {
            tail -= self.slots.len();
        }
        self.slots[tail] = (item, cost);
        self.head = head;
        self.len = len + 1;
        self.used = used + cost;
    }

    /// Every slot is live: straighten the ring (oldest item at `head`)
    /// and add slots, holding `fill` until a push overwrites them.
    #[cold]
    fn grow(&mut self, head: usize, fill: (T, u64)) {
        self.slots.rotate_left(head);
        let n = (self.slots.len() * 2).max(self.slots.capacity()).max(4);
        self.slots.resize(n, fill);
    }

    /// Number of items currently held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no items are held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cost currently held.
    #[inline]
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Change the capacity. Contents stay until the next push evicts
    /// what no longer fits.
    pub(crate) fn set_capacity(&mut self, cap: u64) {
        self.cap = cap;
    }

    /// Read the buffer at a sampling trigger: returns the most recent
    /// items (the async-fill artifact discards the oldest fraction) and
    /// resets the buffer for the next window.
    pub(crate) fn snapshot(&mut self) -> Vec<T> {
        let jitter = self.rng.range_f64(-0.1, 0.1);
        let f = (self.yield_factor + jitter).clamp(0.05, 1.0);
        let keep = ((self.len as f64) * f).round() as usize;
        let skip = self.len - keep.min(self.len);
        self.slots.rotate_left(self.head);
        let live = self.slots.get(skip..self.len).unwrap_or_default();
        let out = live.iter().map(|(item, _)| *item).collect();
        self.head = 0;
        self.len = 0;
        self.used = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PtwPacket;
    use memgaze_model::Ip;

    fn pkt(i: u64) -> PtwPacket {
        PtwPacket {
            ip: Ip(0x400 + i),
            payload: i,
            load_time: i,
        }
    }

    #[test]
    fn wraps_when_full() {
        let mut b = CircBuffer::new(100, 10, 1.0, 1);
        for i in 0..25 {
            b.push(pkt(i), 10);
        }
        // Capacity 10 packets: only the newest survive.
        assert!(b.len() <= 10);
        let snap = b.snapshot();
        assert_eq!(snap.last().unwrap().payload, 24);
        // Oldest retained is recent.
        assert!(snap.first().unwrap().payload >= 15);
        assert!(b.is_empty());
    }

    #[test]
    fn yield_factor_shrinks_snapshots() {
        // Paper: 16-KiB buffer yields ≈1150 addresses, not 2048.
        let mut b = CircBuffer::new(16 << 10, 8, 0.55, 42);
        let mut totals = Vec::new();
        for round in 0..20u64 {
            for i in 0..4096 {
                b.push(pkt(round * 10_000 + i), 8);
            }
            totals.push(b.snapshot().len());
        }
        let mean = totals.iter().sum::<usize>() as f64 / totals.len() as f64;
        assert!(
            (900.0..1400.0).contains(&mean),
            "mean snapshot {mean} outside paper-like range"
        );
    }

    #[test]
    fn snapshot_preserves_order_and_recency() {
        let mut b = CircBuffer::new(1000, 10, 0.5, 7);
        for i in 0..50 {
            b.push(pkt(i), 10);
        }
        let snap = b.snapshot();
        assert!(snap.windows(2).all(|w| w[0].payload < w[1].payload));
        assert_eq!(snap.last().unwrap().payload, 49);
    }

    #[test]
    fn lcg_is_deterministic_and_uniformish() {
        let mut a = Lcg::new(9);
        let mut b = Lcg::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lcg::new(10);
        let mean: f64 = (0..10_000).map(|_| c.next_f64()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "LCG mean {mean}");
    }

    #[test]
    fn grows_past_the_eager_reservation_and_keeps_order() {
        // 2-cost items fill the reserved slots, then 1-cost items need
        // twice as many while the ring is wrapped.
        let mut b = CircBuffer::new(2 * EAGER_SLOTS + 7, 1, 1.0, 3);
        let mut next = 0u64;
        for cost in [2, 1] {
            for _ in 0..3 * EAGER_SLOTS {
                b.push(pkt(next), cost);
                next += 1;
            }
        }
        assert_eq!(b.len() as u64, 2 * EAGER_SLOTS + 7);
        // The jitter may trim the oldest tenth.
        let snap = b.snapshot();
        assert!(snap.len() as u64 > 2 * EAGER_SLOTS * 8 / 10);
        assert_eq!(snap.last().unwrap().payload, next - 1);
        assert!(snap.windows(2).all(|w| w[0].payload + 1 == w[1].payload));
    }

    #[test]
    #[should_panic(expected = "smaller than one packet")]
    fn tiny_buffer_rejected() {
        CircBuffer::<PtwPacket>::new(4, 10, 0.5, 0);
    }
}
