//! Symbol tables and source mapping.
//!
//! Binary instrumentation rewrites the instruction stream, so the new code
//! is no longer aligned with the load module's source-line mapping; the
//! paper extends DynInst with an interface that records the mapping between
//! new object code and source (§III-D). [`SourceMap`] models that recovered
//! mapping; [`SymbolTable`] maps instruction addresses to functions, which
//! the analyses use to form *code windows* (§IV-B) and attribute regions to
//! code (§IV-C2).

use crate::addr::Ip;
use crate::annot::IpTable;
use serde::{Deserialize, Serialize};

/// Dense function identifier, an index into [`SymbolTable::functions`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FunctionId(pub u32);

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A function symbol: name and half-open instruction range `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSym {
    /// Function identifier (its index in the table).
    pub id: FunctionId,
    /// Demangled name.
    pub name: String,
    /// First instruction address.
    pub lo: Ip,
    /// One past the last instruction address.
    pub hi: Ip,
    /// Source file, when known.
    pub src_file: String,
}

/// A symbol table over one (instrumented) load module.
///
/// Function ranges must be non-overlapping; lookup is a binary search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SymbolTable {
    functions: Vec<FunctionSym>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Add a function covering `[lo, hi)`; returns its id.
    ///
    /// # Panics
    /// Panics if the range is empty or overlaps an existing function.
    pub fn add_function(
        &mut self,
        name: impl Into<String>,
        lo: Ip,
        hi: Ip,
        src_file: impl Into<String>,
    ) -> FunctionId {
        assert!(lo < hi, "function range must be non-empty");
        let id = FunctionId(self.functions.len() as u32);
        let sym = FunctionSym {
            id,
            name: name.into(),
            lo,
            hi,
            src_file: src_file.into(),
        };
        // Keep sorted by lo for binary-search lookup.
        let pos = self.functions.partition_point(|f| f.lo < sym.lo);
        if let Some(prev) = pos.checked_sub(1).and_then(|p| self.functions.get(p)) {
            assert!(
                prev.hi <= sym.lo,
                "function {} overlaps {}",
                sym.name,
                prev.name
            );
        }
        if let Some(next) = self.functions.get(pos) {
            assert!(
                sym.hi <= next.lo,
                "function {} overlaps {}",
                sym.name,
                next.name
            );
        }
        self.functions.insert(pos, sym);
        // Re-number ids to be table indices after insertion sort.
        for (i, f) in self.functions.iter_mut().enumerate() {
            f.id = FunctionId(i as u32);
        }
        FunctionId(pos as u32)
    }

    /// The function containing `ip`, if any.
    pub fn lookup(&self, ip: Ip) -> Option<&FunctionSym> {
        let pos = self.functions.partition_point(|f| f.lo <= ip);
        let f = self.functions.get(pos.checked_sub(1)?)?;
        (ip < f.hi).then_some(f)
    }

    /// The function with the given id.
    pub fn function(&self, id: FunctionId) -> Option<&FunctionSym> {
        self.functions.get(id.0 as usize)
    }

    /// Find a function id by exact name.
    pub fn find_by_name(&self, name: &str) -> Option<FunctionId> {
        self.functions.iter().find(|f| f.name == name).map(|f| f.id)
    }

    /// All functions, sorted by start address.
    pub fn functions(&self) -> &[FunctionSym] {
        &self.functions
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if the table has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

/// Mapping from instrumented instruction addresses back to the original
/// addresses and source lines (paper §III-D).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceMap {
    map: IpTable<SourceLoc>,
}

/// One recovered source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceLoc {
    /// Address of the corresponding instruction in the *original* module.
    pub orig_ip: Ip,
    /// Source line number.
    pub line: u32,
}

impl SourceMap {
    /// An empty map.
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Record that instrumented `new_ip` corresponds to `orig_ip` at `line`.
    pub fn record(&mut self, new_ip: Ip, orig_ip: Ip, line: u32) {
        self.map.insert(new_ip, SourceLoc { orig_ip, line });
    }

    /// Recover the original location of an instrumented instruction.
    pub fn resolve(&self, new_ip: Ip) -> Option<SourceLoc> {
        self.map.get(new_ip).copied()
    }

    /// Number of mapped instructions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Iterate over `(instrumented ip, original location)` pairs in
    /// address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ip, &SourceLoc)> + '_ {
        self.map.iter()
    }
}

/// Builds the map in one pass; on equal addresses the last pair wins,
/// as in a map.
impl FromIterator<(Ip, SourceLoc)> for SourceMap {
    fn from_iter<I: IntoIterator<Item = (Ip, SourceLoc)>>(pairs: I) -> SourceMap {
        SourceMap {
            map: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_within_ranges() {
        let mut t = SymbolTable::new();
        let a = t.add_function("alpha", Ip(0x100), Ip(0x200), "a.c");
        let b = t.add_function("beta", Ip(0x200), Ip(0x280), "b.c");
        assert_eq!(t.lookup(Ip(0x100)).unwrap().name, "alpha");
        assert_eq!(t.lookup(Ip(0x1ff)).unwrap().name, "alpha");
        assert_eq!(t.lookup(Ip(0x200)).unwrap().name, "beta");
        assert!(t.lookup(Ip(0x280)).is_none());
        assert!(t.lookup(Ip(0x50)).is_none());
        assert_eq!(t.function(a).unwrap().name, "alpha");
        assert_eq!(t.function(b).unwrap().name, "beta");
    }

    #[test]
    fn out_of_order_insertion_keeps_ids_dense() {
        let mut t = SymbolTable::new();
        t.add_function("hi", Ip(0x900), Ip(0xa00), "x.c");
        t.add_function("lo", Ip(0x100), Ip(0x200), "x.c");
        assert_eq!(t.functions()[0].name, "lo");
        assert_eq!(t.functions()[0].id, FunctionId(0));
        assert_eq!(t.functions()[1].id, FunctionId(1));
        assert_eq!(t.find_by_name("hi"), Some(FunctionId(1)));
        assert_eq!(t.find_by_name("missing"), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_is_rejected() {
        let mut t = SymbolTable::new();
        t.add_function("a", Ip(0x100), Ip(0x200), "x.c");
        t.add_function("b", Ip(0x180), Ip(0x300), "x.c");
    }

    #[test]
    fn source_map_roundtrip() {
        let mut m = SourceMap::new();
        m.record(Ip(0x1004), Ip(0x1000), 42);
        let loc = m.resolve(Ip(0x1004)).unwrap();
        assert_eq!(loc.orig_ip, Ip(0x1000));
        assert_eq!(loc.line, 42);
        assert!(m.resolve(Ip(0x9999)).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn collected_source_map_equals_recorded() {
        let pairs = [
            (0x1008u64, 0x1004u64, 7u32),
            (0x1000, 0x1000, 3),
            (0x1004, 0x1004, 7),
        ];
        let mut recorded = SourceMap::new();
        for (new_ip, orig_ip, line) in pairs {
            recorded.record(Ip(new_ip), Ip(orig_ip), line);
        }
        let collected: SourceMap = pairs
            .iter()
            .map(|&(new_ip, orig_ip, line)| {
                (
                    Ip(new_ip),
                    SourceLoc {
                        orig_ip: Ip(orig_ip),
                        line,
                    },
                )
            })
            .collect();
        assert_eq!(collected, recorded);
        let order: Vec<u64> = collected.iter().map(|(ip, _)| ip.raw()).collect();
        assert_eq!(order, vec![0x1000, 0x1004, 0x1008]);
    }
}
