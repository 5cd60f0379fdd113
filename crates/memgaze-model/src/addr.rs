//! Address, instruction-pointer, and block-granularity primitives.
//!
//! MemGaze analyses operate on *spatio-temporal blocks* (paper §IV-C2,
//! §V-B): reuse distance and footprint are computed with respect to a
//! configurable access-block size `b_a` (defaulting to a 64-byte cache
//! line) and a page size `b_p` used by the location zoom.

use serde::{Deserialize, Serialize};

/// A virtual data address, as written by a `ptwrite` payload.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// The raw 64-bit address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The containing block number at the given block size.
    #[inline]
    pub fn block(self, bs: BlockSize) -> u64 {
        self.0 >> bs.log2()
    }

    /// Byte offset within the containing block.
    #[inline]
    pub fn block_offset(self, bs: BlockSize) -> u64 {
        self.0 & (bs.bytes() - 1)
    }

    /// Address advanced by `delta` bytes.
    #[inline]
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// An instruction pointer in a (possibly instrumented) load module.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ip(pub u64);

impl Ip {
    /// The raw instruction address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Ip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ip:0x{:x}", self.0)
    }
}

impl From<u64> for Ip {
    fn from(v: u64) -> Self {
        Ip(v)
    }
}

/// A power-of-two block size used for spatio-temporal analysis.
///
/// Stored as `log2(bytes)` so block arithmetic is a shift. The paper uses a
/// 64-byte cache line for access blocks and an OS page (4 KiB) for
/// working-set analysis (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockSize {
    log2: u8,
}

impl BlockSize {
    /// A 64-byte cache line, the default access block `b_a`.
    pub const CACHE_LINE: BlockSize = BlockSize { log2: 6 };
    /// A 4-KiB OS page, the default working-set block.
    pub const OS_PAGE: BlockSize = BlockSize { log2: 12 };
    /// Byte granularity (block == address).
    pub const BYTE: BlockSize = BlockSize { log2: 0 };
    /// 8-byte word granularity, matching a `ptwrite` payload.
    pub const WORD: BlockSize = BlockSize { log2: 3 };

    /// Construct from a byte count, which must be a power of two.
    pub fn from_bytes(bytes: u64) -> Result<BlockSize, crate::ModelError> {
        if bytes == 0 || !bytes.is_power_of_two() {
            return Err(crate::ModelError::InvalidBlockSize(bytes));
        }
        Ok(BlockSize {
            log2: bytes.trailing_zeros() as u8,
        })
    }

    /// Construct directly from `log2(bytes)`.
    pub fn from_log2(log2: u8) -> BlockSize {
        debug_assert!(log2 < 64);
        BlockSize { log2 }
    }

    /// `log2` of the block size in bytes.
    #[inline]
    pub fn log2(self) -> u8 {
        self.log2
    }

    /// Block size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        1u64 << self.log2
    }

    /// The block range `[lo_block, hi_block)` that covers the byte range
    /// `[lo, hi)`: `hi` rounds up to the next block boundary without
    /// adding to it, so a range that ends at the top of the address
    /// space neither overflows nor wraps to nothing. Empty when
    /// `hi <= lo`.
    #[inline]
    pub fn block_range(self, lo: u64, hi: u64) -> (u64, u64) {
        let lo_block = lo >> self.log2;
        if hi <= lo {
            return (lo_block, lo_block);
        }
        (lo_block, ((hi - 1) >> self.log2) + 1)
    }
}

impl Default for BlockSize {
    fn default() -> Self {
        BlockSize::CACHE_LINE
    }
}

impl std::fmt::Display for BlockSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_from_bytes() {
        assert_eq!(BlockSize::from_bytes(64).unwrap(), BlockSize::CACHE_LINE);
        assert_eq!(BlockSize::from_bytes(4096).unwrap(), BlockSize::OS_PAGE);
        assert_eq!(BlockSize::from_bytes(1).unwrap(), BlockSize::BYTE);
        assert!(BlockSize::from_bytes(0).is_err());
        assert!(BlockSize::from_bytes(48).is_err());
    }

    #[test]
    fn block_number_and_offset() {
        let a = Addr(0x1234);
        let bs = BlockSize::CACHE_LINE;
        assert_eq!(a.block(bs), 0x1234 >> 6);
        assert_eq!(a.block_offset(bs), 0x1234 & 63);
        // Two addresses in the same line share the block number.
        assert_eq!(Addr(0x1000).block(bs), Addr(0x103f).block(bs));
        assert_ne!(Addr(0x1000).block(bs), Addr(0x1040).block(bs));
    }

    #[test]
    fn block_range_rounds_up_without_overflow() {
        let bs = BlockSize::CACHE_LINE;
        // A block-aligned `hi` ends the range at its own block …
        assert_eq!(bs.block_range(0x1000, 0x1040), (0x40, 0x41));
        // … and one byte more takes the next block in.
        assert_eq!(bs.block_range(0x1000, 0x1041), (0x40, 0x42));
        assert_eq!(bs.block_range(0x103f, 0x1040), (0x40, 0x41));
        // Empty and reversed ranges cover no block.
        assert_eq!(bs.block_range(100, 100), (1, 1));
        assert_eq!(bs.block_range(0x2000, 0x1000), (0x80, 0x80));
        assert_eq!(bs.block_range(0, 0), (0, 0));
        // The top of the address space: the last block is inside.
        let last = u64::MAX >> 6;
        assert_eq!(bs.block_range(0, u64::MAX), (0, last + 1));
        assert_eq!(bs.block_range(u64::MAX - 7, u64::MAX), (last, last + 1));
        assert_eq!(
            BlockSize::BYTE.block_range(0, u64::MAX),
            (0, u64::MAX),
            "block == address: [0, MAX) has no room to round"
        );
    }

    #[test]
    fn byte_granularity_is_identity() {
        let a = Addr(0xdead_beef);
        assert_eq!(a.block(BlockSize::BYTE), a.raw());
        assert_eq!(a.block_offset(BlockSize::BYTE), 0);
    }

    #[test]
    fn addr_offset_wraps() {
        assert_eq!(Addr(10).offset(-4), Addr(6));
        assert_eq!(Addr(10).offset(4), Addr(14));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Addr(0xff).to_string(), "0xff");
        assert_eq!(Ip(0x40).to_string(), "ip:0x40");
        assert_eq!(BlockSize::CACHE_LINE.to_string(), "64B");
    }
}
