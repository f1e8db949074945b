//! CRC-32C (Castagnoli) — the per-packet integrity check of the link layer.
//!
//! BG/Q's network hardware protects every torus packet with link-level CRCs
//! and retransmits on mismatch. Under a fault plan the simulation stamps a
//! CRC-32C over each packet's header fields, metadata, and staged payload
//! bytes; tests re-verify with [`crate::packet::MuPacket::verify_crc`].
//! Corruption *events* are modeled by the fault injector rather than by
//! flipping bits, so the CRC's job here is (a) to make the fault-free cost
//! of integrity checking measurable, and (b) to catch simulation bugs that
//! mangle packets in flight.
//!
//! The arithmetic is [`bgq_hw::crc32c`]: the CPU's CRC-32C instruction
//! where it has one (the nearest a host comes to BG/Q's checksumming
//! network hardware), a slicing-by-8 table walk elsewhere. This module is
//! the seed-and-invert convention around it.

/// Incremental CRC-32C over multiple slices.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Start a fresh checksum.
    #[inline]
    pub fn new() -> Self {
        Crc32c(0xFFFF_FFFF)
    }

    /// Fold `data` into the checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0 = bgq_hw::crc32c::update(self.0, data);
    }

    /// Finish and return the CRC value.
    #[inline]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 7143 appendix: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut inc = Crc32c::new();
        inc.update(&data[..100]);
        inc.update(&data[100..]);
        assert_eq!(inc.finish(), crc32c(&data));
    }

    #[test]
    fn sensitive_to_any_bit() {
        let base = crc32c(b"payload");
        assert_ne!(base, crc32c(b"paqload"));
        assert_ne!(base, crc32c(b"payloae"));
    }
}
