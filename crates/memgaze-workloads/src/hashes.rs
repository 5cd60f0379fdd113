//! Traced hash tables — the miniVite case study's `map` object
//! (paper §VII-A).
//!
//! * [`ChainedMap`] (v1) models C++ `std::unordered_map`: an open hash
//!   table — an array of buckets, each a linked list of nodes — whose
//!   probes are *irregular* (pointer chases).
//! * [`HopscotchMap`] (v2/v3) models TSL hopscotch: a closed table whose
//!   neighborhood probes and scans are *strided*. v2 uses a default table
//!   size and grows by rehashing (extra accesses from resizing copies and
//!   over-allocation searches); v3 is right-sized per instance and never
//!   resizes.

use crate::containers::TVec;
use crate::space::{LoadRecorder, SiteId, TracedSpace};
use memgaze_model::LoadClass;

fn hash64(k: u64) -> u64 {
    // SplitMix64 finalizer: good avalanche, deterministic.
    let mut z = k.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `hash64(key) mod cap`: a mask when `cap` is a power of two (every
/// table the kernels build is), a division otherwise.
#[inline]
fn home_slot(key: u64, cap: usize) -> usize {
    let (h, cap) = (hash64(key), cap as u64);
    (if cap.is_power_of_two() {
        h & (cap - 1)
    } else {
        h % cap
    }) as usize
}

/// The slot after `j` in a window of `cap` slots: `(j + 1) mod cap`
/// for `j < cap`, without the division.
#[inline]
fn next_slot(j: usize, cap: usize) -> usize {
    if j + 1 == cap {
        0
    } else {
        j + 1
    }
}

/// Accumulating map interface shared by both variants: the logical
/// operation of miniVite's `buildMap` is `map[key] += w`.
pub trait AccumMap {
    /// `map[key] += delta`, inserting on first touch.
    fn insert_add<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, key: u64, delta: u64);
    /// The `(key, value)` with the maximum value (miniVite's `getMax`).
    fn get_max<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) -> Option<(u64, u64)>;
    /// Logical entry count.
    fn len(&self) -> usize;
    /// True when no entries exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Remove all entries, keeping capacity.
    fn clear(&mut self);
}

/// Chained (open) hash map: v1.
pub struct ChainedMap {
    /// Bucket heads: node index + 1, 0 = empty.
    buckets: TVec<u32>,
    /// Node storage: `(key, val, next+1)`.
    nodes: TVec<(u64, u64, u32)>,
    live_nodes: usize,
    len: usize,
    sites: ChainedSites,
}

struct ChainedSites {
    bucket_head: SiteId,
    chain_key: SiteId,
    value: SiteId,
    scan_bucket: SiteId,
    scan_node: SiteId,
}

impl ChainedMap {
    /// A chained map with `buckets` buckets and room for `max_nodes`
    /// entries.
    pub fn new<R: LoadRecorder>(
        space: &mut TracedSpace<R>,
        buckets: usize,
        max_nodes: usize,
    ) -> ChainedMap {
        let sites = ChainedSites {
            // The bucket-head lookup is an indexed gather off the hash —
            // irregular, two sources (base + hashed index).
            bucket_head: space.site("map.insert", "bucket-head", LoadClass::Irregular, true, 10),
            chain_key: space.site("map.insert", "chain-key", LoadClass::Irregular, false, 11),
            value: space.site("map.insert", "chain-val", LoadClass::Irregular, false, 12),
            // libstdc++'s unordered_map iterates a global singly linked
            // node list: both the bucket walk and the node walk are
            // pointer chases.
            scan_bucket: space.site("getMax", "scan-bucket", LoadClass::Irregular, true, 20),
            scan_node: space.site("getMax", "scan-node", LoadClass::Irregular, false, 21),
        };
        ChainedMap {
            buckets: TVec::new(space, "map", buckets.max(1), 0),
            nodes: TVec::new(space, "map", max_nodes.max(1), (0, 0, 0)),
            live_nodes: 0,
            len: 0,
            sites,
        }
    }
}

impl AccumMap for ChainedMap {
    fn insert_add<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, key: u64, delta: u64) {
        space.alu(12); // hash computation
        let b = home_slot(key, self.buckets.len());
        let mut cur = *self.buckets.get(space, self.sites.bucket_head, b);
        while cur != 0 {
            space.alu(3); // compare + advance
            let idx = (cur - 1) as usize;
            let (k, _, next) = *self.nodes.get(space, self.sites.chain_key, idx);
            if k == key {
                // Found: load + store the value word.
                space.load(self.sites.value, self.nodes.addr(idx) + 8);
                space.store(self.nodes.addr(idx) + 8);
                self.nodes.raw_mut()[idx].1 += delta;
                return;
            }
            cur = next;
        }
        // Append a fresh node at the chain head.
        assert!(
            self.live_nodes < self.nodes.len(),
            "ChainedMap node pool full"
        );
        let idx = self.live_nodes;
        self.live_nodes += 1;
        let head = self.buckets.raw()[b];
        self.nodes.set(space, idx, (key, delta, head));
        self.buckets.set(space, b, idx as u32 + 1);
        self.len += 1;
    }

    fn get_max<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        for b in 0..self.buckets.len() {
            let mut cur = *self.buckets.get(space, self.sites.scan_bucket, b);
            while cur != 0 {
                space.alu(3);
                let idx = (cur - 1) as usize;
                let (k, v, next) = *self.nodes.get(space, self.sites.scan_node, idx);
                if best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((k, v));
                }
                cur = next;
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for b in self.buckets.raw_mut() {
            *b = 0;
        }
        self.live_nodes = 0;
        self.len = 0;
    }
}

/// Neighborhood size of the hopscotch table.
pub const HOP_RANGE: usize = 32;

/// Hopscotch (closed) hash map: v2 (default-sized, resizable) and v3
/// (right-sized).
///
/// Invariant: no slot at or past `active` is occupied. Probes and
/// inserts stay inside the window; [`set_active_capacity`] is called
/// on an empty map (after [`AccumMap::clear`]); the in-place doubling
/// only widens the window and clears the old prefix itself before
/// reinserting; and `grow` (v2) builds a fresh table whose window is
/// all of it. So [`AccumMap::clear`] resets `slots[..active]` alone:
/// for v3 that is the last vertex's window, not the max-degree arena.
///
/// [`set_active_capacity`]: HopscotchMap::set_active_capacity
pub struct HopscotchMap {
    /// Slots: `(key, val, occupied)`.
    slots: TVec<(u64, u64, bool)>,
    /// Slots in use for the current instance (right-sizing, v3): probes
    /// and scans stay within `active`.
    active: usize,
    len: usize,
    /// Whether resizing is permitted (v2) or a right-sized table is
    /// expected to suffice (v3).
    resizable: bool,
    sites: HopSites,
    /// Slots rehash-copied over the map's lifetime (v2's hidden cost).
    pub resize_copies: u64,
}

struct HopSites {
    probe: SiteId,
    value: SiteId,
    rehash: SiteId,
    scan: SiteId,
}

impl HopscotchMap {
    /// A hopscotch map with `capacity` slots.
    pub fn new<R: LoadRecorder>(
        space: &mut TracedSpace<R>,
        capacity: usize,
        resizable: bool,
    ) -> HopscotchMap {
        let sites = HopSites {
            // Neighborhood probes advance linearly from the home slot.
            probe: space.site("map.insert", "probe", LoadClass::Strided, true, 30),
            value: space.site("map.insert", "slot-val", LoadClass::Strided, false, 31),
            rehash: space.site("map.insert", "rehash-copy", LoadClass::Strided, true, 32),
            scan: space.site("getMax", "slot-scan", LoadClass::Strided, true, 40),
        };
        let slots = TVec::new(space, "map", capacity.max(HOP_RANGE), (0, 0, false));
        HopscotchMap {
            active: slots.len(),
            slots,
            len: 0,
            resizable,
            sites,
            resize_copies: 0,
        }
    }

    /// Right-size this instance (v3): subsequent probes/scans use only
    /// the first `cap` slots (clamped to `[HOP_RANGE, capacity]`). Call
    /// after [`AccumMap::clear`].
    pub fn set_active_capacity(&mut self, cap: usize) {
        debug_assert_eq!(self.len, 0, "set_active_capacity on a non-empty map");
        self.active = cap.clamp(HOP_RANGE, self.slots.len());
    }

    fn grow<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>) {
        let new_cap = self.slots.len() * 2;
        let old: Vec<(u64, u64, bool)> = self.slots.raw().to_vec();
        // Rehash: read every old slot (strided), write the new table.
        let mut new_slots: TVec<(u64, u64, bool)> = TVec::new(space, "map", new_cap, (0, 0, false));
        for (i, &(k, v, occ)) in old.iter().enumerate() {
            space.load(self.sites.rehash, self.slots.addr(i));
            if occ {
                let cap = new_slots.len();
                let mut j = home_slot(k, cap);
                for _ in 0..HOP_RANGE {
                    if !new_slots.raw()[j].2 {
                        new_slots.set(space, j, (k, v, true));
                        self.resize_copies += 1;
                        break;
                    }
                    j = next_slot(j, cap);
                }
            }
        }
        self.slots = new_slots;
        self.active = self.slots.len();
    }
}

impl AccumMap for HopscotchMap {
    fn insert_add<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, key: u64, delta: u64) {
        loop {
            let cap = self.active;
            space.alu(12); // hash computation
            let mut j = home_slot(key, cap);
            for _ in 0..HOP_RANGE {
                space.alu(3); // compare + wrap
                let (k, _, occ) = *self.slots.get(space, self.sites.probe, j);
                if occ && k == key {
                    space.load(self.sites.value, self.slots.addr(j) + 8);
                    space.store(self.slots.addr(j) + 8);
                    self.slots.raw_mut()[j].1 += delta;
                    return;
                }
                if !occ {
                    self.slots.set(space, j, (key, delta, true));
                    self.len += 1;
                    return;
                }
                j = next_slot(j, cap);
            }
            // Neighborhood full.
            if !self.resizable && self.active < self.slots.len() {
                // A right-sized instance that guessed too small doubles
                // its active window (still within the arena, no rehash
                // traffic for entries already placed by this instance's
                // hash-mod-active — we rehash the active prefix).
                let old_active = self.active;
                self.active = (self.active * 2).min(self.slots.len());
                let entries: Vec<(u64, u64)> = self.slots.raw()[..old_active]
                    .iter()
                    .filter(|s| s.2)
                    .map(|s| (s.0, s.1))
                    .collect();
                for i in 0..old_active {
                    self.slots.raw_mut()[i] = (0, 0, false);
                }
                self.len = 0;
                for (k, v) in entries {
                    self.insert_add(space, k, v);
                }
                continue;
            }
            assert!(
                self.resizable,
                "right-sized hopscotch table overflowed its neighborhood"
            );
            self.grow(space);
        }
    }

    fn get_max<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        // Full-table strided scan over the active window, including
        // empty slots (the v2 over-allocation cost).
        for j in 0..self.active {
            space.alu(2);
            let (k, v, occ) = *self.slots.get(space, self.sites.scan, j);
            if occ && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((k, v));
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        // Only the window can hold an entry (see the type's invariant).
        self.slots.raw_mut()[..self.active].fill((0, 0, false));
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FnRecorder, NullRecorder};
    use memgaze_model::Ip;
    use std::collections::HashMap;

    fn oracle_check<M: AccumMap>(space: &mut TracedSpace<NullRecorder>, map: &mut M) {
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        // Mixed inserts and accumulations.
        for i in 0..200u64 {
            let key = i % 50;
            let delta = i + 1;
            map.insert_add(space, key, delta);
            *oracle.entry(key).or_insert(0) += delta;
        }
        assert_eq!(map.len(), 50);
        let (bk, bv) = map.get_max(space).unwrap();
        let (ok, ov) = oracle
            .iter()
            .max_by_key(|(k, v)| (*v, std::cmp::Reverse(*k)))
            .unwrap();
        assert_eq!(bv, *ov, "max value");
        // Keys may tie on value; check the oracle agrees the key attains
        // the max.
        assert_eq!(oracle[&bk], bv, "winning key {bk} vs oracle {ok}");
        map.clear();
        assert!(map.is_empty());
        assert!(map.get_max(space).is_none());
    }

    /// Random clears, window sizes and inserts on a hopscotch map, held
    /// to a `HashMap` after every step: no slot at or past `active` is
    /// occupied, `len` and `get_max` agree, and a clear leaves the
    /// whole arena empty. Returns how often the window doubled in place.
    fn window_oracle_check(
        space: &mut TracedSpace<NullRecorder>,
        map: &mut HopscotchMap,
        seed: u64,
        steps: usize,
    ) -> usize {
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut doublings = 0;
        for step in 0..steps {
            let r = next();
            match r % 64 {
                0..=1 => {
                    map.clear();
                    oracle.clear();
                    assert!(map.is_empty());
                    assert!(
                        map.slots.raw().iter().all(|s| !s.2),
                        "step {step}: clear left an occupied slot"
                    );
                    if !map.resizable {
                        map.set_active_capacity((next() % 160) as usize);
                    }
                }
                2..=4 => {
                    let got = map.get_max(space);
                    let want = oracle.values().max().copied();
                    assert_eq!(got.map(|(_, v)| v), want, "step {step}: max value");
                    if let Some((k, v)) = got {
                        assert_eq!(oracle.get(&k), Some(&v), "step {step}: max key");
                    }
                }
                _ => {
                    let (key, delta) = ((r >> 8) % 120, (r >> 24) % 5);
                    let before = map.active;
                    map.insert_add(space, key, delta);
                    *oracle.entry(key).or_insert(0) += delta;
                    if !map.resizable && map.active > before {
                        doublings += 1;
                    }
                }
            }
            assert_eq!(map.len(), oracle.len(), "step {step}: len");
            assert!(
                map.slots.raw()[map.active..].iter().all(|s| !s.2),
                "step {step}: occupied slot past active {}",
                map.active
            );
        }
        doublings
    }

    #[test]
    fn right_sized_window_holds_every_entry() {
        let mut doublings = 0;
        for seed in 1..=8 {
            let mut space = TracedSpace::new(NullRecorder);
            let mut m = HopscotchMap::new(&mut space, 512, false);
            doublings += window_oracle_check(&mut space, &mut m, seed, 4000);
        }
        assert!(doublings > 0, "the runs must reach the in-place doubling");
    }

    #[test]
    fn resizable_window_is_the_whole_table() {
        for seed in 1..=4 {
            let mut space = TracedSpace::new(NullRecorder);
            let mut m = HopscotchMap::new(&mut space, HOP_RANGE, true);
            window_oracle_check(&mut space, &mut m, seed, 4000);
            assert!(m.resize_copies > 0, "seed {seed}: v2 must grow");
            assert_eq!(m.active, m.slots.len());
        }
    }

    #[test]
    fn chained_map_matches_oracle() {
        let mut space = TracedSpace::new(NullRecorder);
        let mut m = ChainedMap::new(&mut space, 64, 1024);
        oracle_check(&mut space, &mut m);
    }

    #[test]
    fn hopscotch_map_matches_oracle() {
        let mut space = TracedSpace::new(NullRecorder);
        let mut m = HopscotchMap::new(&mut space, 64, true);
        oracle_check(&mut space, &mut m);
    }

    #[test]
    fn resizable_hopscotch_grows_under_pressure() {
        let mut space = TracedSpace::new(NullRecorder);
        // Capacity equals the neighborhood: a 33rd distinct key cannot
        // fit and must trigger a rehash.
        let mut m = HopscotchMap::new(&mut space, HOP_RANGE, true);
        for i in 0..40u64 {
            m.insert_add(&mut space, i, 1);
        }
        assert!(m.resize_copies > 0, "v2 under pressure must rehash");
        assert_eq!(m.len(), 40);
        // Values survive the rehash.
        let mut space2 = space;
        for i in 0..40u64 {
            m.insert_add(&mut space2, i, 1);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.get_max(&mut space2).unwrap().1, 2);
    }

    #[test]
    fn right_sized_hopscotch_never_resizes() {
        let mut space = TracedSpace::new(NullRecorder);
        let mut m = HopscotchMap::new(&mut space, 256, false);
        for i in 0..100u64 {
            m.insert_add(&mut space, i, 1);
        }
        assert_eq!(m.resize_copies, 0);
        assert_eq!(m.len(), 100);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn right_sized_overflow_panics() {
        let mut space = TracedSpace::new(NullRecorder);
        // Capacity equal to the neighborhood: inserting far more keys
        // than slots must overflow.
        let mut m = HopscotchMap::new(&mut space, HOP_RANGE, false);
        for i in 0..10_000u64 {
            m.insert_add(&mut space, i, 1);
        }
    }

    /// v1 produces irregular instrumented loads, v2 strided ones.
    #[test]
    fn access_classes_differ_between_variants() {
        let mut classes: Vec<(Ip, bool)> = Vec::new();
        let annots;
        {
            let rec = FnRecorder(|ip: Ip, _a: u64, inst: bool, _p: u8| classes.push((ip, inst)));
            let mut space = TracedSpace::new(rec);
            let mut v1 = ChainedMap::new(&mut space, 32, 256);
            let mut v2 = HopscotchMap::new(&mut space, 256, true);
            for i in 0..64u64 {
                v1.insert_add(&mut space, i % 16, 1);
                v2.insert_add(&mut space, i % 16, 1);
            }
            annots = space.annotations();
        }
        let irregular = classes
            .iter()
            .filter(|(ip, _)| annots.class_of(*ip) == memgaze_model::LoadClass::Irregular)
            .count();
        let strided = classes
            .iter()
            .filter(|(ip, _)| annots.class_of(*ip) == memgaze_model::LoadClass::Strided)
            .count();
        assert!(irregular > 0, "v1 must contribute irregular loads");
        assert!(strided > 0, "v2 must contribute strided loads");
    }

    #[test]
    fn hopscotch_scan_covers_whole_table() {
        use std::cell::Cell;
        let loads = Cell::new(0usize);
        let rec = FnRecorder(|_: Ip, _: u64, _: bool, _: u8| loads.set(loads.get() + 1));
        let mut space = TracedSpace::new(rec);
        let mut m = HopscotchMap::new(&mut space, 512, false);
        m.insert_add(&mut space, 1, 1);
        let before = loads.get();
        m.get_max(&mut space);
        // Scan touches all 512 slots regardless of occupancy.
        assert_eq!(loads.get() - before, 512);
    }
}
