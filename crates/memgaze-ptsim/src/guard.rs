//! Hardware address-range guards.
//!
//! PT's IP filters let "the region of interest change without
//! re-instrumentation" (paper §II): instrumentation stays in the binary,
//! but the hardware only emits packets while execution is inside the
//! configured ranges.

use memgaze_model::{Ip, SymbolTable};
use serde::{Deserialize, Serialize};

/// A set of half-open instruction ranges `[lo, hi)` the hardware traces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IpGuards {
    ranges: Vec<(Ip, Ip)>,
}

impl IpGuards {
    /// Guards that pass everything (no filtering configured).
    pub(crate) fn all() -> IpGuards {
        IpGuards::default()
    }

    /// Guard the given explicit ranges.
    pub fn from_ranges(mut ranges: Vec<(Ip, Ip)>) -> IpGuards {
        ranges.retain(|(lo, hi)| lo < hi);
        ranges.sort();
        IpGuards { ranges }
    }

    /// Guard the ranges of the named functions (the usual hotspot-driven
    /// region of interest).
    pub fn from_functions<'a>(
        symbols: &SymbolTable,
        names: impl IntoIterator<Item = &'a str>,
    ) -> IpGuards {
        let ranges = names
            .into_iter()
            .filter_map(|n| symbols.find_by_name(n))
            .filter_map(|id| symbols.function(id))
            .map(|f| (f.lo, f.hi))
            .collect();
        IpGuards::from_ranges(ranges)
    }

    /// Whether the hardware emits packets at `ip`.
    pub(crate) fn allows(&self, ip: Ip) -> bool {
        if self.ranges.is_empty() {
            return true;
        }
        let pos = self.ranges.partition_point(|(lo, _)| *lo <= ip);
        pos.checked_sub(1)
            .and_then(|last| self.ranges.get(last))
            .is_some_and(|&(_, hi)| ip < hi)
    }

    /// Whether any filter is configured.
    #[inline]
    pub(crate) fn is_filtering(&self) -> bool {
        !self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_allows_everything() {
        let g = IpGuards::all();
        assert!(g.allows(Ip(0)));
        assert!(g.allows(Ip(u64::MAX)));
        assert!(!g.is_filtering());
    }

    #[test]
    fn ranges_filter() {
        let g = IpGuards::from_ranges(vec![(Ip(0x100), Ip(0x200)), (Ip(0x400), Ip(0x500))]);
        assert!(g.is_filtering());
        assert!(g.allows(Ip(0x100)));
        assert!(g.allows(Ip(0x1ff)));
        assert!(!g.allows(Ip(0x200)));
        assert!(!g.allows(Ip(0x300)));
        assert!(g.allows(Ip(0x4ff)));
        assert!(!g.allows(Ip(0x500)));
        assert!(!g.allows(Ip(0x50)));
    }

    #[test]
    fn degenerate_ranges_dropped() {
        let g = IpGuards::from_ranges(vec![(Ip(0x200), Ip(0x100))]);
        assert!(!g.is_filtering());
    }

    #[test]
    fn from_symbol_table() {
        let mut t = SymbolTable::new();
        t.add_function("hot", Ip(0x1000), Ip(0x2000), "a.c");
        t.add_function("cold", Ip(0x2000), Ip(0x3000), "a.c");
        let g = IpGuards::from_functions(&t, ["hot", "missing"]);
        assert!(g.allows(Ip(0x1800)));
        assert!(!g.allows(Ip(0x2800)));
    }
}
