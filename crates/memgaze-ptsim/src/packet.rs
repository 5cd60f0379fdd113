//! Processor-Tracing packet model.
//!
//! `ptwrite` "can write an arbitrary word data packet, such as an address,
//! to a pinned OS buffer without OS intervention" (paper §I). We model the
//! packets that dominate trace volume: PTW (the payload), periodic TSC
//! timestamps, PSB synchronization boundaries, and perf's DROP records.
//! Byte sizes follow the Intel PT encoding (a full PTW packet is 2
//! header bytes plus 8 payload bytes). The 4-byte "compact payload"
//! variant models the paper's proposed 32-bit-packet overhead reduction
//! (§VI-B1).

use memgaze_model::Ip;
use serde::{Deserialize, Serialize};

/// Bytes of a full 64-bit PTW packet (2-byte opcode + 8-byte payload).
pub const PTW_BYTES: u64 = 10;
/// Bytes of a compact 32-bit PTW packet (2-byte opcode + 4-byte payload).
const PTW_BYTES_COMPACT: u64 = 6;
/// Bytes of a TSC timestamp packet.
pub(crate) const TSC_BYTES: u64 = 8;
/// Bytes of a PSB synchronization packet.
pub(crate) const PSB_BYTES: u64 = 16;
/// A TSC packet is emitted once per this many PTW packets.
pub(crate) const TSC_PERIOD: u64 = 32;
/// A PSB packet is emitted once per this many PTW packets.
pub(crate) const PSB_PERIOD: u64 = 1024;

/// Bytes of TSC/PSB sideband emitted along with the `nth` PTW packet
/// (1-based) — the space those packets take inside the trace buffer.
pub(crate) fn sideband_bytes(nth: u64) -> u64 {
    u64::from(nth.is_multiple_of(TSC_PERIOD)) * TSC_BYTES
        + u64::from(nth.is_multiple_of(PSB_PERIOD)) * PSB_BYTES
}

/// One `ptwrite` payload packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtwPacket {
    /// Address of the `ptwrite` instruction that produced the packet (in
    /// the *instrumented* module).
    pub ip: Ip,
    /// The register payload.
    pub payload: u64,
    /// Load-counter time when the packet was produced (loads executed so
    /// far; the sampling trigger counts loads).
    pub load_time: u64,
}

impl PtwPacket {
    /// Encoded size of this packet.
    pub(crate) fn bytes(compact: bool) -> u64 {
        if compact {
            PTW_BYTES_COMPACT
        } else {
            PTW_BYTES
        }
    }
}

/// Aggregate packet/byte accounting for a collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketStats {
    /// PTW packets generated by the hardware.
    pub ptw_packets: u64,
    /// TSC packets generated.
    tsc_packets: u64,
    /// PSB packets generated.
    psb_packets: u64,
    /// Packets dropped by the collector (PTW only).
    pub(crate) dropped_packets: u64,
    /// DROP bookkeeping records emitted.
    pub(crate) drop_records: u64,
}

impl PacketStats {
    /// Record `n` PTW packets plus their amortized TSC/PSB companions.
    pub(crate) fn add_ptw(&mut self, n: u64) {
        let before = self.ptw_packets;
        self.ptw_packets += n;
        self.tsc_packets += (before + n) / TSC_PERIOD - before / TSC_PERIOD;
        self.psb_packets += (before + n) / PSB_PERIOD - before / PSB_PERIOD;
    }

    /// Total bytes the hardware generated (before drops).
    pub fn generated_bytes(&self, compact: bool) -> u64 {
        self.ptw_packets * PtwPacket::bytes(compact)
            + self.tsc_packets * TSC_BYTES
            + self.psb_packets * PSB_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sizes() {
        assert_eq!(PtwPacket::bytes(false), 10);
        assert_eq!(PtwPacket::bytes(true), 6);
    }

    #[test]
    fn stats_amortize_tsc_psb() {
        let mut s = PacketStats::default();
        s.add_ptw(TSC_PERIOD);
        assert_eq!(s.tsc_packets, 1);
        s.add_ptw(PSB_PERIOD - TSC_PERIOD);
        assert_eq!(s.psb_packets, 1);
        assert_eq!(s.tsc_packets, PSB_PERIOD / TSC_PERIOD);
        // Incremental accumulation matches bulk accumulation.
        let mut t = PacketStats::default();
        for _ in 0..PSB_PERIOD {
            t.add_ptw(1);
        }
        assert_eq!(t.tsc_packets, s.tsc_packets);
        assert_eq!(t.psb_packets, s.psb_packets);
    }

    proptest::proptest! {
        /// TSC/PSB counts telescope: any split of `n` packets into
        /// successive adds equals one `add_ptw(n)`.
        #[test]
        fn add_ptw_over_any_split_equals_one_bulk_add(
            parts in proptest::collection::vec(0u64..3 * PSB_PERIOD, 1..40),
        ) {
            let mut split = PacketStats::default();
            for &n in &parts {
                split.add_ptw(n);
            }
            let mut bulk = PacketStats::default();
            bulk.add_ptw(parts.iter().sum());
            proptest::prop_assert_eq!(split, bulk);
        }
    }

    #[test]
    fn sideband_follows_the_packet_periods() {
        assert_eq!(sideband_bytes(1), 0);
        assert_eq!(sideband_bytes(TSC_PERIOD), TSC_BYTES);
        assert_eq!(sideband_bytes(PSB_PERIOD), TSC_BYTES + PSB_BYTES);
        let total: u64 = (1..=PSB_PERIOD).map(sideband_bytes).sum();
        let mut s = PacketStats::default();
        s.add_ptw(PSB_PERIOD);
        assert_eq!(total, s.tsc_packets * TSC_BYTES + s.psb_packets * PSB_BYTES);
    }

    #[test]
    fn byte_accounting() {
        let mut s = PacketStats::default();
        s.add_ptw(100);
        let gen = s.generated_bytes(false);
        assert_eq!(
            gen,
            100 * 10 + s.tsc_packets * TSC_BYTES + s.psb_packets * PSB_BYTES
        );
        // Compact payloads shrink everything PTW.
        assert!(s.generated_bytes(true) < gen);
    }
}
