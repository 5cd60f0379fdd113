//! The auxiliary annotation file emitted by binary instrumentation
//! (paper §III-A, Fig. 2).
//!
//! For every instrumented load the instrumentor records, keyed by
//! instruction address: the load class, the literal scale/offset extracted
//! from the addressing mode, whether the load has two source registers
//! (which doubles its trace-space cost, §VI-C), and — for proxy
//! instructions — the number of *implied* Constant loads in the proxy's
//! basic block. The annotations make the compressed trace non-lossy: the
//! analyses recover `A_const(σ)` (and hence `κ`, Eq. 2) from the trace plus
//! this file.

use crate::access::LoadClass;
use crate::addr::Ip;
use crate::sample::SampledTrace;
use crate::symbols::FunctionId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-instruction annotation record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpAnnot {
    /// Static class of this load.
    pub class: LoadClass,
    /// Number of Constant loads in the same basic block that this
    /// (proxy) instruction stands for. Zero for non-proxy instructions.
    pub implied_const: u32,
    /// Literal scale factor from the addressing mode (`k` in
    /// `[r_s1 + r_s2*k] + o`), 1 when absent.
    pub scale: u8,
    /// Literal displacement from the addressing mode.
    pub offset: i64,
    /// Whether the addressing mode uses two source registers; such loads
    /// cost two `ptwrite`s of trace space.
    pub two_source: bool,
    /// Enclosing function.
    pub func: FunctionId,
    /// Source line recovered through the source-mapping interface (§III-D).
    pub src_line: u32,
}

impl IpAnnot {
    /// A minimal annotation for the given class.
    pub fn of_class(class: LoadClass, func: FunctionId) -> IpAnnot {
        IpAnnot {
            class,
            implied_const: 0,
            scale: 1,
            offset: 0,
            two_source: false,
            func,
            src_line: 0,
        }
    }
}

/// The auxiliary annotation file: instruction address → annotation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuxAnnotations {
    map: BTreeMap<Ip, IpAnnot>,
}

impl AuxAnnotations {
    /// An empty annotation set.
    pub fn new() -> AuxAnnotations {
        AuxAnnotations::default()
    }

    /// Insert (or replace) the annotation for `ip`.
    pub fn insert(&mut self, ip: Ip, annot: IpAnnot) {
        self.map.insert(ip, annot);
    }

    /// Look up the annotation for `ip`.
    pub fn get(&self, ip: Ip) -> Option<&IpAnnot> {
        self.map.get(&ip)
    }

    /// The load class recorded for `ip`, defaulting to Irregular for
    /// unannotated instructions (conservative: irregular loads are never
    /// compressed away, so an unknown ip must be treated as observed data).
    pub fn class_of(&self, ip: Ip) -> LoadClass {
        self.map.get(&ip).map_or(LoadClass::Irregular, |a| a.class)
    }

    /// Number of implied Constant loads carried by `ip` as a proxy.
    pub fn implied_const_of(&self, ip: Ip) -> u64 {
        self.map.get(&ip).map_or(0, |a| a.implied_const as u64)
    }

    /// Number of annotated instructions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no instruction is annotated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over `(ip, annotation)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ip, &IpAnnot)> + '_ {
        self.map.iter()
    }

    /// `A_const(σ)`: total Constant loads implied by the observed accesses
    /// of `trace` (paper Eq. 2 uses this to recover κ). "It is easy to
    /// calculate A_const(σ) from the combination of the trace and auxiliary
    /// annotations."
    pub fn implied_const_accesses(&self, trace: &SampledTrace) -> u64 {
        trace.accesses().map(|a| self.implied_const_of(a.ip)).sum()
    }
}

/// Builds the annotation file in one pass; pairs already in address
/// order (as the instrumentor emits them) cost no per-entry tree descent.
impl FromIterator<(Ip, IpAnnot)> for AuxAnnotations {
    fn from_iter<I: IntoIterator<Item = (Ip, IpAnnot)>>(pairs: I) -> AuxAnnotations {
        AuxAnnotations {
            map: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::sample::{Sample, TraceMeta};

    #[test]
    fn lookup_and_defaults() {
        let mut ax = AuxAnnotations::new();
        let mut a = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        a.implied_const = 3;
        ax.insert(Ip(0x10), a);
        assert_eq!(ax.class_of(Ip(0x10)), LoadClass::Strided);
        assert_eq!(ax.implied_const_of(Ip(0x10)), 3);
        // Unknown ips are conservatively irregular with no implied loads.
        assert_eq!(ax.class_of(Ip(0x99)), LoadClass::Irregular);
        assert_eq!(ax.implied_const_of(Ip(0x99)), 0);
        assert_eq!(ax.len(), 1);
        assert!(!ax.is_empty());
    }

    #[test]
    fn collected_annotations_equal_inserted() {
        let annot = |c| IpAnnot::of_class(c, FunctionId(0));
        let pairs = [
            (Ip(0x30), annot(LoadClass::Constant)),
            (Ip(0x10), annot(LoadClass::Strided)),
            (Ip(0x20), annot(LoadClass::Irregular)),
        ];
        let mut inserted = AuxAnnotations::new();
        for (ip, a) in pairs {
            inserted.insert(ip, a);
        }
        assert_eq!(pairs.into_iter().collect::<AuxAnnotations>(), inserted);
    }

    #[test]
    fn implied_const_accumulates_over_trace() {
        let mut ax = AuxAnnotations::new();
        let mut proxy = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        proxy.implied_const = 2;
        ax.insert(Ip(0x10), proxy);
        ax.insert(
            Ip(0x20),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
        );

        let mut t = SampledTrace::new(TraceMeta::new("t", 100, 8192));
        t.push_sample(Sample::new(
            vec![
                Access::new(Ip(0x10), 0x1000u64, 0),
                Access::new(Ip(0x20), 0x2000u64, 1),
                Access::new(Ip(0x10), 0x1040u64, 2),
            ],
            3,
        ))
        .unwrap();
        // Two proxy hits × 2 implied constants each.
        assert_eq!(ax.implied_const_accesses(&t), 4);
    }
}
