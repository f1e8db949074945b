//! The BG/Q torus packet format.
//!
//! "Each packet has a 32 byte header and up to 512 bytes of payload, in 32B
//! increments" (paper section II.B). The header identifies the destination,
//! the routing mode, and — for memory-FIFO packets — which reception FIFO
//! receives the payload. The messaging-unit crate wraps this with its own
//! per-packet metadata; the timing simulator uses only the arithmetic.

use crate::coords::Coords;

/// Packet header size in bytes.
pub const HEADER_BYTES: usize = 32;

/// Maximum payload bytes per packet.
pub const MAX_PAYLOAD_BYTES: usize = 512;

/// Payload is carried in 32-byte granules.
pub const PAYLOAD_GRANULE: usize = 32;

/// Routing mode carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Routing {
    /// Dimension-ordered; delivery order matches injection order for a
    /// (source, destination) pair. Used by eager data and rendezvous
    /// headers to preserve MPI ordering.
    #[default]
    Deterministic,
    /// Any minimal path; higher bandwidth, unordered. Used by rendezvous
    /// payload.
    Dynamic,
}

/// The torus-level packet header (the modeled subset of the 32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Source node index within the partition.
    pub src_node: u32,
    /// Destination node index within the partition.
    pub dst_node: u32,
    /// Routing mode.
    pub routing: Routing,
    /// Destination reception FIFO (memory-FIFO packets) — RDMA packets
    /// bypass reception FIFOs and carry `None`.
    pub reception_fifo: Option<u16>,
    /// Payload bytes carried (≤ [`MAX_PAYLOAD_BYTES`], rounded up to
    /// [`PAYLOAD_GRANULE`] on the wire).
    pub payload_bytes: u16,
}

impl PacketHeader {
    /// Bytes this packet occupies on a link: header plus payload rounded up
    /// to the 32-byte granule.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + granules(self.payload_bytes as usize) * PAYLOAD_GRANULE
    }
}

/// Payload granule count for `len` bytes.
pub fn granules(len: usize) -> usize {
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

/// Helper carried by fabric tests: a destination expressed either as node
/// index or coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// Partition-relative node index.
    Index(u32),
    /// Torus coordinates.
    Coords(Coords),
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
        let h = PacketHeader {
            src_node: 0,
            dst_node: 1,
            routing: Routing::Deterministic,
            reception_fifo: Some(0),
            payload_bytes: 100,
        };
        assert_eq!(h.wire_bytes(), 32 + 4 * 32);
    }

    #[test]
    fn payload_efficiency_close_to_published_ratio() {
        let eff = 512.0 / wire_bytes_for(512) as f64;
        assert!(eff > 0.90 && eff < 0.95, "efficiency {eff}");
    }
}
