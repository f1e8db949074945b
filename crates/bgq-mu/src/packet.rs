//! MU packets as they land in reception FIFOs.

use bgq_hw::MemRegion;
use bytes::Bytes;

/// A packet's payload — either bytes carried in the packet itself or a
/// zero-copy window into the *source* node's registered memory.
///
/// The real MU DMAs payload from source memory onto the wire; the receiving
/// software's single copy is pulling it out of the reception FIFO into the
/// destination buffer. The simulation reproduces that copy count: a
/// [`PacketPayload::Region`] packet carries no staged bytes, only a
/// refcounted window into the source region (standing in for the bytes the
/// hardware would have placed in the FIFO's packet buffer), and
/// [`PacketPayload::deposit`] performs the one region-to-destination copy.
/// Cloning is a refcount bump either way — a message awaiting its acks
/// keeps its payload while each delivered packet carries a window of it.
#[derive(Debug, Clone)]
pub enum PacketPayload {
    /// Bytes staged in the packet (the `PAMI_Send_immediate` copy-through
    /// path). Shared slices of the message payload; cheap refcount clones.
    Inline(Bytes),
    /// Zero-copy window into the source region.
    Region {
        /// Source region (refcounted handle, no bytes copied).
        region: MemRegion,
        /// Window offset within `region`.
        offset: usize,
        /// Window length (≤ 512 inside a packet).
        len: usize,
    },
}

impl PacketPayload {
    /// Logical payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PacketPayload::Inline(b) => b.len(),
            PacketPayload::Region { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload bytes *as visible in the packet buffer*: the staged
    /// bytes for [`PacketPayload::Inline`], empty for
    /// [`PacketPayload::Region`] (the data is still in source memory —
    /// consumers must [`PacketPayload::deposit`] it). Dispatch handlers are
    /// handed this view; a handler that sees fewer bytes than the message
    /// length returns [`Recv::Into`](`crate::packet`) -style deposit
    /// instructions rather than consuming in place.
    #[inline]
    pub fn view(&self) -> &[u8] {
        match self {
            PacketPayload::Inline(b) => b,
            PacketPayload::Region { .. } => &[],
        }
    }

    /// Deposit the payload into `dst` at `dst_offset` — the receive-side
    /// copy (exactly one for either variant).
    pub fn deposit(&self, dst: &MemRegion, dst_offset: usize) {
        match self {
            PacketPayload::Inline(b) => dst.write(dst_offset, b),
            PacketPayload::Region { region, offset, len } => {
                dst.copy_from(dst_offset, region, *offset, *len);
            }
        }
    }
}

impl From<Bytes> for PacketPayload {
    fn from(b: Bytes) -> Self {
        PacketPayload::Inline(b)
    }
}

/// A memory-FIFO packet: the unit software pulls out of a reception FIFO.
///
/// The real packet is a 32-byte header plus ≤512 bytes of payload; the
/// header carries the source (node, context and task), a software dispatch
/// identifier, and enough message bookkeeping for the protocol layer to
/// reassemble multi-packet messages. Dispatch metadata is shared across a
/// message's packets (PAMI sends it in the first packet; the simulation
/// clones the handle — a cheap refcount bump — onto every packet, which
/// avoids modeling out-of-order header arrival while preserving
/// per-packet payload granularity).
///
/// Packets are intentionally not `Clone`: each one owns its payload window.
#[derive(Debug)]
pub struct MuPacket {
    /// Source node index.
    pub src_node: u32,
    /// Source context offset within the source node (lets the destination
    /// side address replies; part of PAMI's endpoint addressing).
    pub src_context: u16,
    /// Originating task: with several processes per node the source node
    /// does not name the sender, so the task rides the header.
    pub src_task: u32,
    /// Software dispatch identifier — selects the active-message handler.
    pub dispatch: u16,
    /// Protocol metadata (matching bits, rendezvous handles, …).
    pub metadata: Bytes,
    /// Message identifier, unique per source node.
    pub msg_id: u64,
    /// Total message payload length in bytes.
    pub msg_len: u32,
    /// Offset of this packet's payload within the message.
    pub offset: u32,
    /// Link-level sequence number, per (source, destination) channel: the
    /// retransmit protocol tracks frames by it. Zero, like the CRC, on a
    /// fabric with no fault plan — nothing numbers a lossless packet.
    pub link_seq: u64,
    /// CRC-32C over the header fields, metadata, and staged payload bytes
    /// (zero on a fabric with no fault plan, whose packets go unstamped).
    /// Nothing on the receive side compares it: see [`crate::crc`].
    pub crc: u32,
    /// This packet's payload (≤ 512 bytes, possibly a zero-copy window).
    pub payload: PacketPayload,
}

/// CRC-32C over a packet's header fields, metadata, and *staged* payload —
/// [`PacketPayload::Region`] windows contribute only through `msg_len` /
/// `offset`, since their bytes never leave source memory in the simulation
/// (real hardware checksums them on the wire; here the in-process copy is
/// the wire). `src_task` is folded in just ahead of the metadata, as four
/// little-endian bytes, so the stamped stream is the one a packet whose
/// metadata began with the source task would give.
#[allow(clippy::too_many_arguments)]
pub(crate) fn packet_crc(
    src_node: u32,
    src_context: u16,
    dispatch: u16,
    msg_id: u64,
    msg_len: u32,
    offset: u32,
    link_seq: u64,
    src_task: u32,
    metadata: &[u8],
    staged_payload: &[u8],
) -> u32 {
    // The seven fixed fields are exactly 32 bytes, little-endian, in wire
    // order: packed once and folded with one kernel call.
    let mut header = [0u8; 32];
    header[0..4].copy_from_slice(&src_node.to_le_bytes());
    header[4..6].copy_from_slice(&src_context.to_le_bytes());
    header[6..8].copy_from_slice(&dispatch.to_le_bytes());
    header[8..16].copy_from_slice(&msg_id.to_le_bytes());
    header[16..20].copy_from_slice(&msg_len.to_le_bytes());
    header[20..24].copy_from_slice(&offset.to_le_bytes());
    header[24..32].copy_from_slice(&link_seq.to_le_bytes());
    let mut c = crate::crc::Crc32c::new();
    c.update(&header);
    c.update(&src_task.to_le_bytes());
    c.update(metadata);
    c.update(staged_payload);
    c.finish()
}

impl MuPacket {
    /// Whether this is the last packet of its message.
    pub fn is_last(&self) -> bool {
        self.offset as usize + self.payload.len() >= self.msg_len as usize
    }

    /// Whether this is the first packet of its message.
    pub fn is_first(&self) -> bool {
        self.offset == 0
    }

    /// Recompute this packet's CRC from its contents.
    pub(crate) fn compute_crc(&self) -> u32 {
        packet_crc(
            self.src_node,
            self.src_context,
            self.dispatch,
            self.msg_id,
            self.msg_len,
            self.offset,
            self.link_seq,
            self.src_task,
            &self.metadata,
            self.payload.view(),
        )
    }

    /// Test-side integrity check: does the carried CRC match the packet
    /// contents? A zero stamp marks an unstamped packet (no fault plan, no
    /// reliable channel) and verifies trivially.
    #[cfg(test)]
    pub(crate) fn verify_crc(&self) -> bool {
        self.crc == 0 || self.crc == self.compute_crc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(offset: u32, len: usize, total: u32) -> MuPacket {
        let payload = Bytes::from(vec![0u8; len]);
        MuPacket {
            src_node: 0,
            src_context: 0,
            src_task: 0,
            dispatch: 0,
            metadata: Bytes::new(),
            msg_id: 1,
            msg_len: total,
            offset,
            link_seq: 9,
            crc: packet_crc(0, 0, 0, 1, total, offset, 9, 0, &[], &payload),
            payload: PacketPayload::Inline(payload),
        }
    }

    #[test]
    fn first_and_last_detection() {
        let p = pkt(0, 512, 1024);
        assert!(p.is_first());
        assert!(!p.is_last());
        let q = pkt(512, 512, 1024);
        assert!(!q.is_first());
        assert!(q.is_last());
    }

    #[test]
    fn zero_byte_message_is_one_packet() {
        let p = pkt(0, 0, 0);
        assert!(p.is_first());
        assert!(p.is_last());
    }

    #[test]
    fn region_payload_reports_logical_len_but_empty_view() {
        let region = MemRegion::from_vec((0..64).collect());
        let p = PacketPayload::Region { region, offset: 8, len: 16 };
        assert_eq!(p.len(), 16);
        assert!(!p.is_empty());
        assert!(p.view().is_empty(), "region bytes live in source memory");
    }

    #[test]
    fn deposit_copies_window() {
        let src = MemRegion::from_vec((0..32).collect());
        let dst = MemRegion::zeroed(32);
        let p = PacketPayload::Region { region: src, offset: 4, len: 8 };
        p.deposit(&dst, 16);
        assert_eq!(&dst.to_vec()[16..24], &(4..12).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn crc_round_trips_and_catches_mutation() {
        let mut p = pkt(0, 64, 64);
        assert!(p.verify_crc());
        p.dispatch = 5;
        assert!(!p.verify_crc(), "header mutation breaks the CRC");
        p.dispatch = 0;
        assert!(p.verify_crc());
        p.crc = 0;
        assert!(p.verify_crc(), "zero stamp means an unstamped packet");
    }

    /// The stamp is a wire format: this constant is what the table-walk,
    /// nine-`update` `packet_crc` of PR 12 computed for the same packet, so
    /// neither the header packing nor the kernel may change the byte
    /// stream or the checksum. That packet's metadata was
    /// `b"pami-golden-metadata"`; its first four bytes now travel as the
    /// header's `src_task`, which the stamp folds in at the same place.
    #[test]
    fn golden_stamp_is_pinned() {
        let payload: Vec<u8> = (0..512u32).map(|i| (i * 7 + 3) as u8).collect();
        let crc = packet_crc(
            0x0102_0304,
            0x0506,
            0x0708,
            0x1112_1314_1516_1718,
            2048,
            512,
            0x2122_2324_2526_2728,
            u32::from_le_bytes(*b"pami"),
            b"-golden-metadata",
            &payload,
        );
        assert_eq!(crc, 0x42EE_BD00);
    }

    /// The stamp of a packet from task `T` with metadata `M` is the stamp
    /// of a packet with no task field and metadata `T.to_le_bytes() ++ M`
    /// — the stream the stamp covered when the task rode in the metadata —
    /// so seeded fault histories and the golden stamp stay where they were.
    #[test]
    fn src_task_stamps_as_a_metadata_prefix() {
        let without_task = |metadata: &[u8], payload: &[u8]| {
            let mut header = Vec::with_capacity(32);
            header.extend_from_slice(&0x0A0B_0C0Du32.to_le_bytes());
            header.extend_from_slice(&7u16.to_le_bytes());
            header.extend_from_slice(&0x0101u16.to_le_bytes());
            header.extend_from_slice(&99u64.to_le_bytes());
            header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            header.extend_from_slice(&5u64.to_le_bytes());
            let mut c = crate::crc::Crc32c::new();
            c.update(&header);
            c.update(metadata);
            c.update(payload);
            c.finish()
        };
        for task in [0, 1, 0xDEAD, u32::MAX] {
            for metadata in [&b""[..], b"m", b"twelve bytes"] {
                let prefixed = [&task.to_le_bytes()[..], metadata].concat();
                let payload = b"payload";
                let len = payload.len() as u32;
                let stamp =
                    packet_crc(0x0A0B_0C0D, 7, 0x0101, 99, len, 0, 5, task, metadata, payload);
                assert_eq!(stamp, without_task(&prefixed, payload), "task {task:#x}, {metadata:?}");
            }
        }
    }

    #[test]
    fn inline_deposit_writes_bytes() {
        let dst = MemRegion::zeroed(8);
        let p = PacketPayload::Inline(Bytes::from_static(b"abcd"));
        assert_eq!(p.view(), b"abcd");
        p.deposit(&dst, 2);
        assert_eq!(&dst.to_vec()[2..6], b"abcd");
    }
}
