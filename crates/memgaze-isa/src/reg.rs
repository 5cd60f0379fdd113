//! Register file definition.

use serde::{Deserialize, Serialize};

/// Number of architectural registers.
pub(crate) const NUM_REGS: usize = 16;

/// An architectural register.
///
/// `r0..r13` are general purpose; [`Reg::FP`] is the frame pointer and
/// [`Reg::SP`] the stack pointer — the instrumentor's Constant-load rule
/// (paper §III-B) keys off frame-pointer-relative scalar addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

impl Reg {
    /// Frame pointer (x64 `rbp` analogue).
    pub const FP: Reg = Reg(14);
    /// Stack pointer (x64 `rsp` analogue).
    pub(crate) const SP: Reg = Reg(15);

    /// General-purpose register `i` (0..=13).
    ///
    /// # Panics
    /// Panics if `i` names the frame or stack pointer.
    pub fn gp(i: u8) -> Reg {
        assert!(i < 14, "r{i} is not a general-purpose register");
        Reg(i)
    }

    /// Index into a register file array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the frame pointer.
    #[inline]
    pub(crate) fn is_fp(self) -> bool {
        self == Reg::FP
    }

    /// Whether this is the stack pointer.
    #[inline]
    pub(crate) fn is_sp(self) -> bool {
        self == Reg::SP
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Reg::FP => f.write_str("fp"),
            Reg::SP => f.write_str("sp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_registers() {
        assert!(Reg::FP.is_fp());
        assert!(Reg::SP.is_sp());
        assert!(!Reg::gp(0).is_fp());
        assert_eq!(Reg::FP.to_string(), "fp");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::gp(3).to_string(), "r3");
    }

    #[test]
    #[should_panic(expected = "not a general-purpose")]
    fn gp_rejects_fp() {
        Reg::gp(14);
    }
}
