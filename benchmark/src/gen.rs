//! Seeded input generation: the op stream and every payload byte derive
//! from `--seed`, so the same seed gives the same inputs and the program
//! under test only ever sees generated data.

use bytes::Bytes;

/// xorshift64* — small, fast, and good enough to draw targets and sizes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag (so two uses of
    /// one seed do not walk the same sequence).
    pub fn new(seed: u64, stream: u64) -> Rng {
        // SplitMix64 finaliser: spreads small seeds over the state space
        // and never yields the all-zero state xorshift cannot leave.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..n` (n ≤ 2^32; the modulo bias is below 2^-32).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 32) % n
    }
}

/// Messages in the payload pool. A power of two and a multiple of
/// [`SAMPLE_EVERY`], so the sampled entries are the same on every lap.
pub const POOL_ENTRIES: usize = 512;
/// Bytes per pool entry — the largest small message any workload sends.
pub const ENTRY_BYTES: usize = 64;
/// One message in this many carries a delivery-latency sample.
pub const SAMPLE_EVERY: usize = 64;

/// Pre-built small-message payloads. Entry `j` starts with `j` and `!j`
/// (little-endian u32s) and continues with seeded bytes, so a receiver can
/// tell from the bytes alone which entry it holds and check every byte
/// against the pool — without the sender allocating a payload per message
/// (a send takes an O(1) slice of the pool).
#[derive(Clone)]
pub struct Pool {
    bytes: Bytes,
}

impl Pool {
    pub fn new(seed: u64) -> Pool {
        let mut rng = Rng::new(seed, 0x706F_6F6C);
        let mut buf = vec![0u8; POOL_ENTRIES * ENTRY_BYTES];
        for (j, entry) in buf.chunks_exact_mut(ENTRY_BYTES).enumerate() {
            entry[..4].copy_from_slice(&(j as u32).to_le_bytes());
            entry[4..8].copy_from_slice(&(!(j as u32)).to_le_bytes());
            for word in entry[8..].chunks_exact_mut(8) {
                word.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
        Pool {
            bytes: Bytes::from(buf),
        }
    }

    /// The first `len` bytes of entry `j` as a zero-copy slice.
    #[inline]
    pub fn entry(&self, j: usize, len: usize) -> Bytes {
        debug_assert!(j < POOL_ENTRIES && (8..=ENTRY_BYTES).contains(&len));
        self.bytes.slice(j * ENTRY_BYTES..j * ENTRY_BYTES + len)
    }

    /// Borrowed view of the same bytes (for `send_immediate`).
    #[inline]
    pub fn entry_slice(&self, j: usize, len: usize) -> &[u8] {
        &self.bytes[j * ENTRY_BYTES..j * ENTRY_BYTES + len]
    }

    /// Which entry `payload` is, if every byte of it matches the pool.
    #[inline]
    pub fn identify(&self, payload: &[u8]) -> Option<usize> {
        if payload.len() < 8 || payload.len() > ENTRY_BYTES {
            return None;
        }
        let j = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        (j < POOL_ENTRIES && self.entry_slice(j, payload.len()) == payload).then_some(j)
    }
}

/// Seeded bytes for a large (region-backed) buffer. `tag` separates the
/// buffers of one run (source task, peer, size class); the first
/// [`HEADER_BYTES`] are left zero for the per-step header.
pub fn fill_body(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x626F_6479 ^ (tag << 20));
    let mut buf = vec![0u8; len];
    for word in buf[HEADER_BYTES..].chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        word.copy_from_slice(&v[..word.len()]);
    }
    buf
}

/// Bytes of the per-step header at the front of every large buffer.
pub const HEADER_BYTES: usize = 8;

/// The header a sender stamps on a large buffer before each step: the step
/// number and the source task, so a stale or misdelivered buffer is caught
/// even though the body does not change from step to step.
#[inline]
pub fn header(step: u64, src: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..4].copy_from_slice(&(step as u32).to_le_bytes());
    h[4..].copy_from_slice(&(src ^ 0xA5A5_0000).to_le_bytes());
    h
}

/// One op of a spray stream: a destination among `peers` tasks (1-based:
/// the sender is task 0) and a payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SprayOp {
    pub dest: u32,
    pub len: usize,
}

/// The op stream of `flood_short` / `scatter_aggr` for a seed: uniform
/// destinations, lengths uniform in an inclusive range.
pub struct SprayStream {
    rng: Rng,
    peers: u64,
    min_len: usize,
    len_span: u64,
}

impl SprayStream {
    pub fn new(seed: u64, peers: u32, len: (usize, usize)) -> SprayStream {
        SprayStream {
            rng: Rng::new(seed, 0x7363_6174),
            peers: u64::from(peers),
            min_len: len.0,
            len_span: (len.1 - len.0 + 1) as u64,
        }
    }
}

impl Iterator for SprayStream {
    type Item = SprayOp;

    #[inline]
    fn next(&mut self) -> Option<SprayOp> {
        let r = self.rng.next_u64();
        Some(SprayOp {
            dest: 1 + ((r >> 33) % self.peers) as u32,
            len: self.min_len + ((r >> 8) % self.len_span) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<_> = SprayStream::new(7, 7, (16, 64)).take(1000).collect();
        let b: Vec<_> = SprayStream::new(7, 7, (16, 64)).take(1000).collect();
        let c: Vec<_> = SprayStream::new(8, 7, (16, 64)).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|op| (1..=7).contains(&op.dest) && (16..=64).contains(&op.len)));
        // Every peer and both ends of the size range are actually drawn.
        for d in 1..=7 {
            assert!(a.iter().any(|op| op.dest == d));
        }
        assert!(a.iter().any(|op| op.len == 16) && a.iter().any(|op| op.len == 64));
        // The flood's stream is the degenerate one: one peer, one length.
        assert!(SprayStream::new(7, 1, (8, 8))
            .take(100)
            .all(|op| op == SprayOp { dest: 1, len: 8 }));
    }

    #[test]
    fn pool_identifies_its_own_entries_and_rejects_damage() {
        let pool = Pool::new(3);
        let other = Pool::new(4);
        for (j, len) in [(0usize, 8usize), (63, 32), (POOL_ENTRIES - 1, 64)] {
            let e = pool.entry(j, len);
            assert_eq!(pool.identify(&e), Some(j));
            assert_eq!(&e[..], pool.entry_slice(j, len));
            if len > 8 {
                assert_eq!(other.identify(&e), None, "another seed's pool differs");
                let mut bad = e.to_vec();
                bad[len - 1] ^= 1;
                assert_eq!(pool.identify(&bad), None);
            }
        }
        assert_eq!(pool.identify(&[0u8; 4]), None);
    }

    #[test]
    fn bodies_depend_on_seed_and_tag_and_leave_the_header_clear() {
        let a = fill_body(1, 5, 2048);
        assert_eq!(a, fill_body(1, 5, 2048));
        assert_ne!(a, fill_body(2, 5, 2048));
        assert_ne!(a, fill_body(1, 6, 2048));
        assert_eq!(&a[..HEADER_BYTES], &[0u8; HEADER_BYTES]);
        assert_ne!(header(1, 2), header(2, 2));
        assert_ne!(header(1, 2), header(1, 3));
    }
}
