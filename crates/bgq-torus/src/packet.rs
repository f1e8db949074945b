//! The BG/Q torus packet format.
//!
//! "Each packet has a 32 byte header and up to 512 bytes of payload, in 32B
//! increments" (paper section II.B). This module keeps the arithmetic of
//! that format — packets per message and bytes on the wire; the
//! messaging-unit crate carries its own per-packet metadata.

/// Packet header size in bytes.
pub const HEADER_BYTES: usize = 32;

/// Maximum payload bytes per packet.
pub const MAX_PAYLOAD_BYTES: usize = 512;

/// Payload is carried in 32-byte granules.
pub(crate) const PAYLOAD_GRANULE: usize = 32;

/// Payload granule count for `len` bytes.
pub(crate) fn granules(len: usize) -> usize {
    len.div_ceil(PAYLOAD_GRANULE)
}

/// Number of packets needed to move `len` payload bytes (at least one, so a
/// zero-byte message still sends a header-only packet).
#[inline]
pub fn packets_for(len: usize) -> usize {
    len.div_ceil(MAX_PAYLOAD_BYTES).max(1)
}

/// Total wire bytes (headers + granule-rounded payload) for an `len`-byte
/// message — the quantity that divides into raw link bandwidth. The 32/512
/// header-to-payload ratio is what turns 2 GB/s raw into ≈1.8 GB/s payload.
pub fn wire_bytes_for(len: usize) -> usize {
    let full = len / MAX_PAYLOAD_BYTES;
    let tail = len % MAX_PAYLOAD_BYTES;
    let mut total = full * (HEADER_BYTES + MAX_PAYLOAD_BYTES);
    if tail > 0 || full == 0 {
        total += HEADER_BYTES + granules(tail) * PAYLOAD_GRANULE;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_rounding() {
        assert_eq!(granules(0), 0);
        assert_eq!(granules(1), 1);
        assert_eq!(granules(32), 1);
        assert_eq!(granules(33), 2);
        assert_eq!(granules(512), 16);
    }

    #[test]
    fn packets_for_message_sizes() {
        assert_eq!(packets_for(0), 1, "zero-byte message is one packet");
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(512), 1);
        assert_eq!(packets_for(513), 2);
        assert_eq!(packets_for(1024 * 1024), 2048);
    }

    #[test]
    fn wire_bytes_include_headers() {
        // A full packet: 544 bytes for 512 of payload → 512/544 ≈ 0.94
        // efficiency, consistent with 1.8/2.0 GB/s after other protocol
        // overheads.
        assert_eq!(wire_bytes_for(512), 544);
        assert_eq!(wire_bytes_for(0), 32);
        assert_eq!(wire_bytes_for(1), 64);
        assert_eq!(wire_bytes_for(513), 544 + 64);
    }

    #[test]
    fn header_wire_bytes() {
        // A 100-byte packet: its 32-byte header plus four 32-byte granules.
        assert_eq!(wire_bytes_for(100), HEADER_BYTES + 4 * PAYLOAD_GRANULE);
    }

    #[test]
    fn payload_efficiency_close_to_published_ratio() {
        let eff = 512.0 / wire_bytes_for(512) as f64;
        assert!(eff > 0.90 && eff < 0.95, "efficiency {eff}");
    }
}
