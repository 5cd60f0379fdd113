//! Traced containers: Rust values with simulated addresses.
//!
//! A [`TVec`] keeps its elements in ordinary Rust memory but owns a range
//! of the simulated address space; element reads go through
//! [`TVec::get`], which emits a load at the element's simulated address
//! via a registered site. Writes are counted as stores (MemGaze is
//! load-level, §III-B: "For load-based analysis we can ignore stores").

use crate::space::{LoadRecorder, SiteId, TracedSpace};

/// A traced, fixed-address vector.
#[derive(Debug, Clone)]
pub struct TVec<T> {
    data: Vec<T>,
    base: u64,
    elem_bytes: u64,
}

impl<T: Clone> TVec<T> {
    /// Allocate a traced vector of `len` copies of `init` under `label`.
    pub fn new<R: LoadRecorder>(
        space: &mut TracedSpace<R>,
        label: &str,
        len: usize,
        init: T,
    ) -> TVec<T> {
        let elem_bytes = std::mem::size_of::<T>().max(1) as u64;
        let base = space.alloc(label, len as u64 * elem_bytes);
        TVec {
            data: vec![init; len],
            base,
            elem_bytes,
        }
    }
}

impl<T> TVec<T> {
    /// Build from existing data.
    pub fn from_vec<R: LoadRecorder>(
        space: &mut TracedSpace<R>,
        label: &str,
        data: Vec<T>,
    ) -> TVec<T> {
        let elem_bytes = std::mem::size_of::<T>().max(1) as u64;
        let base = space.alloc(label, data.len() as u64 * elem_bytes);
        TVec {
            data,
            base,
            elem_bytes,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Simulated address of element `i`.
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> u64 {
        self.base + i as u64 * self.elem_bytes
    }

    /// Traced read of element `i` through `site`.
    #[inline]
    pub fn get<R: LoadRecorder>(&self, space: &mut TracedSpace<R>, site: SiteId, i: usize) -> &T {
        space.load(site, self.addr(i));
        &self.data[i]
    }

    /// Traced write of element `i` (counted as a store).
    #[inline]
    pub fn set<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, i: usize, v: T) {
        space.store(self.addr(i));
        self.data[i] = v;
    }

    /// Untraced view of the underlying data (setup/verification only).
    pub(crate) fn raw(&self) -> &[T] {
        &self.data
    }

    /// Untraced mutable view (setup only).
    pub(crate) fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FnRecorder, NullRecorder};
    use memgaze_model::{Ip, LoadClass};

    #[test]
    fn addresses_are_element_strided() {
        let mut space = TracedSpace::new(NullRecorder);
        let v: TVec<u64> = TVec::new(&mut space, "v", 10, 0);
        assert_eq!(v.addr(3) - v.addr(0), 24);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn get_emits_load_at_element_address() {
        let mut addrs = Vec::new();
        {
            let rec = FnRecorder(|_: Ip, a: u64, _: bool, _: u8| addrs.push(a));
            let mut space = TracedSpace::new(rec);
            let site = space.site("f", "x", LoadClass::Strided, true, 1);
            let v: TVec<u32> = TVec::from_vec(&mut space, "v", (0..8u32).collect());
            let sum: u32 = (0..8).map(|i| *v.get(&mut space, site, i)).sum();
            assert_eq!(sum, 28);
        }
        assert_eq!(addrs.len(), 8);
        assert_eq!(addrs[1] - addrs[0], 4); // u32 stride
    }

    #[test]
    fn set_counts_store_not_load() {
        let mut space = TracedSpace::new(NullRecorder);
        let site = space.site("f", "x", LoadClass::Strided, false, 1);
        let mut v: TVec<u64> = TVec::new(&mut space, "v", 4, 0);
        v.set(&mut space, 0, 42);
        let x = *v.get(&mut space, site, 0);
        v.set(&mut space, 0, x + 1);
        assert_eq!(v.raw()[0], 43);
        let c = space.counters();
        assert_eq!(c.stores, 2);
        assert_eq!(c.loads, 1);
    }
}
