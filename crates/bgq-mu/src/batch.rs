//! Multi-message packet-train envelope: the wire format for *aggregated*
//! frames, where one memory-FIFO packet carries many small active messages
//! to the same destination (TRAM-style coalescing — see `pami::aggr`).
//!
//! A batched frame's payload is a sequence of **records**, each a
//! sub-message with its own dispatch id, metadata and payload:
//!
//! ```text
//! unaddressed (endpoint bucket — every record is for the receiving
//! context, so no per-record address travels):
//!   [dispatch u16][meta_len u16][payload_len u16][metadata][payload]
//!
//! addressed (node bucket — the frame lands on a lead context that fans
//! records out to sibling endpoints on the node):
//!   [dst_task u32][dst_context u16][dispatch u16][meta_len u16]
//!   [payload_len u16][metadata][payload]
//! ```
//!
//! All integers little-endian, matching the PAMI envelope. The frame header
//! (record count + addressing mode) rides in the packet's *metadata*
//! envelope, not here — this module only packs and walks the record train.
//! Keeping the codec next to [`crate::packet::MuPacket`] keeps every wire
//! layout the fabric moves in one crate.

use bytes::{BufMut, BytesMut};

/// Fixed header bytes of an unaddressed record.
pub(crate) const RECORD_HDR_BYTES: usize = 6;
/// Fixed header bytes of an addressed record (adds dst task + context).
pub(crate) const RECORD_HDR_BYTES_ADDRESSED: usize = 12;

/// Size one record occupies in a frame.
#[inline]
pub fn record_size(addressed: bool, meta_len: usize, payload_len: usize) -> usize {
    let hdr = if addressed { RECORD_HDR_BYTES_ADDRESSED } else { RECORD_HDR_BYTES };
    hdr + meta_len + payload_len
}

/// Append one record to a frame under construction. `dest` must be `Some`
/// exactly when the frame is addressed (node-bucket mode).
///
/// # Panics
/// If metadata or payload exceed `u16::MAX` bytes — callers gate records on
/// the single-packet frame capacity long before that.
pub fn push_record(
    buf: &mut BytesMut,
    dest: Option<(u32, u16)>,
    dispatch: u16,
    metadata: &[u8],
    payload: &[u8],
) {
    assert!(metadata.len() <= u16::MAX as usize, "batched record metadata too long");
    assert!(payload.len() <= u16::MAX as usize, "batched record payload too long");
    // One header write instead of five puts: each `put_*` re-checks
    // capacity, and the hot (unaddressed, fine-grained) path appends
    // millions of records per second.
    let mut hdr = [0u8; RECORD_HDR_BYTES_ADDRESSED];
    let mut at = 0;
    if let Some((task, context)) = dest {
        hdr[..4].copy_from_slice(&task.to_le_bytes());
        hdr[4..6].copy_from_slice(&context.to_le_bytes());
        at = 6;
    }
    hdr[at..at + 2].copy_from_slice(&dispatch.to_le_bytes());
    hdr[at + 2..at + 4].copy_from_slice(&(metadata.len() as u16).to_le_bytes());
    hdr[at + 4..at + 6].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    buf.put_slice(&hdr[..at + 6]);
    if !metadata.is_empty() {
        buf.put_slice(metadata);
    }
    buf.put_slice(payload);
}

/// Borrowed view of one record in a batched frame: the unbatch path
/// dispatches handlers straight from the frame buffer and only
/// materializes owned bytes for the records it must forward.
#[derive(Debug)]
pub struct RecordView<'a> {
    /// Destination endpoint as (task, context) — `None` on unaddressed
    /// frames (the record is for the receiving context).
    pub dest: Option<(u32, u16)>,
    /// Active-message dispatch id.
    pub dispatch: u16,
    /// Sub-message metadata, borrowed from the frame.
    pub metadata: &'a [u8],
    /// Sub-message payload, borrowed from the frame.
    pub payload: &'a [u8],
    /// Byte offset of `metadata` within the frame (the payload follows it
    /// directly), for a zero-copy `Bytes::slice` when an owned copy is
    /// unavoidable.
    pub meta_at: usize,
}

/// Walk the records of a batched frame without refcount traffic, invoking
/// `f` once per record in frame order.
///
/// # Panics
/// On a malformed frame (truncated record) — batched frames ride
/// CRC-checked reliable channels, so truncation is a logic error, not a
/// wire fault.
pub fn walk_records<'a>(
    data: &'a [u8],
    count: u16,
    addressed: bool,
    mut f: impl FnMut(RecordView<'a>),
) {
    let hdr = if addressed { RECORD_HDR_BYTES_ADDRESSED } else { RECORD_HDR_BYTES };
    let mut at = 0usize;
    for _ in 0..count {
        assert!(data.len() >= at + hdr, "truncated batched frame");
        let dest = addressed.then(|| {
            (
                u32::from_le_bytes(data[at..at + 4].try_into().unwrap()),
                u16::from_le_bytes(data[at + 4..at + 6].try_into().unwrap()),
            )
        });
        if addressed {
            at += 6;
        }
        let dispatch = u16::from_le_bytes(data[at..at + 2].try_into().unwrap());
        let meta_len = u16::from_le_bytes(data[at + 2..at + 4].try_into().unwrap()) as usize;
        let payload_len = u16::from_le_bytes(data[at + 4..at + 6].try_into().unwrap()) as usize;
        at += 6;
        assert!(data.len() >= at + meta_len + payload_len, "truncated batched frame");
        f(RecordView {
            dest,
            dispatch,
            metadata: &data[at..at + meta_len],
            payload: &data[at + meta_len..at + meta_len + payload_len],
            meta_at: at,
        });
        at += meta_len + payload_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record as owned `(dest, dispatch, metadata, payload)`.
    type Owned = (Option<(u32, u16)>, u16, Vec<u8>, Vec<u8>);

    /// Every record of `frame`, decoded by [`walk_records`].
    fn walk(frame: &[u8], count: u16, addressed: bool) -> Vec<Owned> {
        let mut records = Vec::new();
        walk_records(frame, count, addressed, |r| {
            // The offset view must slice back to the same bytes.
            assert_eq!(&frame[r.meta_at..r.meta_at + r.metadata.len()], r.metadata);
            records.push((r.dest, r.dispatch, r.metadata.to_vec(), r.payload.to_vec()));
        });
        records
    }

    #[test]
    fn unaddressed_records_round_trip() {
        let mut buf = BytesMut::new();
        push_record(&mut buf, None, 7, b"m1", b"payload-one");
        push_record(&mut buf, None, 9, b"", b"p2");
        push_record(&mut buf, None, 1, b"meta-three", b"");
        let recs = walk(&buf, 3, false);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], (None, 7, b"m1".to_vec(), b"payload-one".to_vec()));
        assert_eq!(recs[1], (None, 9, Vec::new(), b"p2".to_vec()));
        assert_eq!(recs[2], (None, 1, b"meta-three".to_vec(), Vec::new()));
    }

    #[test]
    fn addressed_records_round_trip() {
        let mut buf = BytesMut::new();
        push_record(&mut buf, Some((42, 3)), 5, b"hdr", b"data");
        push_record(&mut buf, Some((1000, 0)), 6, b"", b"x");
        let recs = walk(&buf, 2, true);
        assert_eq!(recs[0], (Some((42, 3)), 5, b"hdr".to_vec(), b"data".to_vec()));
        assert_eq!(recs[1], (Some((1000, 0)), 6, Vec::new(), b"x".to_vec()));
    }

    #[test]
    fn record_size_accounts_for_headers() {
        let mut buf = BytesMut::new();
        push_record(&mut buf, None, 1, b"ab", b"cdef");
        assert_eq!(buf.len(), record_size(false, 2, 4));
        let mut buf = BytesMut::new();
        push_record(&mut buf, Some((0, 0)), 1, b"ab", b"cdef");
        assert_eq!(buf.len(), record_size(true, 2, 4));
    }

    #[test]
    fn iterator_stops_at_count() {
        let mut buf = BytesMut::new();
        push_record(&mut buf, None, 1, b"", b"a");
        push_record(&mut buf, None, 2, b"", b"b");
        // Count says one record: the second is simply not walked.
        assert_eq!(walk(&buf, 1, false).len(), 1);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_frame_panics() {
        let mut buf = BytesMut::new();
        push_record(&mut buf, None, 1, b"", b"abcdef");
        walk(&buf[..7], 1, false); // cut mid-payload
    }
}
