//! Recorded memory accesses and load classes.

use crate::addr::{Addr, Ip};
use serde::{Deserialize, Serialize};

/// Static access-pattern class of a load (paper §III-B).
///
/// Classes are assigned by the instrumentor's data-dependence analysis and
/// drive both trace compression (Constant loads are not instrumented) and
/// the footprint access diagnostics (`F_str`, `F_irr`, `A_const%`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadClass {
    /// Scalar loads of stack-frame or global data: offset-only addressing
    /// relative to a frame pointer or a global section. All constant loads
    /// are viewed as touching one unit of space.
    Constant,
    /// Loads whose address follows a loop induction variable with constant
    /// stride; prefetchable.
    Strided,
    /// Everything else — typically indirect loads through pointers;
    /// non-prefetchable.
    Irregular,
}

impl LoadClass {
    /// Whether the instrumentor records this load's address (paper Fig. 2):
    /// Strided and Irregular loads are always instrumented; Constant loads
    /// are implied by a proxy.
    #[inline]
    pub fn is_instrumented(self) -> bool {
        !matches!(self, LoadClass::Constant)
    }

    /// Short mnemonic used in reports.
    fn mnemonic(self) -> &'static str {
        match self {
            LoadClass::Constant => "const",
            LoadClass::Strided => "str",
            LoadClass::Irregular => "irr",
        }
    }
}

impl std::fmt::Display for LoadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One recorded load: instruction pointer, data address, and timestamp.
///
/// The timestamp is a logical load counter (the sampling trigger counts
/// memory accesses, paper §III-C), not wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Address of the (uninstrumented) load instruction.
    pub ip: Ip,
    /// Data address the load dereferenced.
    pub addr: Addr,
    /// Logical time: index of this load in the executed load stream.
    pub time: u64,
}

impl Access {
    /// Convenience constructor.
    #[inline]
    pub fn new(ip: impl Into<Ip>, addr: impl Into<Addr>, time: u64) -> Access {
        Access {
            ip: ip.into(),
            addr: addr.into(),
            time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_instrumentation_policy() {
        assert!(!LoadClass::Constant.is_instrumented());
        assert!(LoadClass::Strided.is_instrumented());
        assert!(LoadClass::Irregular.is_instrumented());
    }

    #[test]
    fn mnemonics_match_paper_naming() {
        // Paper microbenchmark names use "str" and "irr".
        assert_eq!(LoadClass::Strided.to_string(), "str");
        assert_eq!(LoadClass::Irregular.to_string(), "irr");
        assert_eq!(LoadClass::Constant.to_string(), "const");
    }

    #[test]
    fn access_construction() {
        let a = Access::new(0x400u64, 0x7fff_0000u64, 42);
        assert_eq!(a.ip, Ip(0x400));
        assert_eq!(a.addr, Addr(0x7fff_0000));
        assert_eq!(a.time, 42);
    }
}
