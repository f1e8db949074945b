//! Registered communication memory.
//!
//! The simulated MU, collective network, and shared-address collectives all
//! read and write application buffers the way RDMA hardware does: given a
//! (region, offset, length) triple, asynchronously with respect to the
//! owning thread. [`MemRegion`] is that registered buffer: clonable (clones
//! share the storage, like multiple mappings of the same physical pages),
//! `Send + Sync`, with bounds-checked byte-level access.
//!
//! # Concurrency contract
//!
//! Accesses go through raw-pointer copies, so *disjoint* concurrent accesses
//! are race-free, exactly as on real hardware. Overlapping concurrent
//! accesses are a program bug on BG/Q (the MU gives no ordering there
//! either); the protocols in this workspace never issue them — every region
//! byte has a single writer between synchronization points (a completion
//! counter update or a wakeup), which is what makes the interior
//! `UnsafeCell` sound in practice.

use std::cell::UnsafeCell;
use std::sync::Arc;

struct RegionStorage {
    buf: UnsafeCell<Box<[u8]>>,
}

// SAFETY: all access is through raw-pointer copies with the documented
// single-writer-per-byte protocol; `&RegionStorage` never materializes a
// shared or mutable reference to the buffer contents.
unsafe impl Send for RegionStorage {}
unsafe impl Sync for RegionStorage {}

/// A registered communication buffer that the simulated hardware can read
/// and write directly ("RDMA").
#[derive(Clone)]
pub struct MemRegion {
    storage: Arc<RegionStorage>,
    len: usize,
}

impl std::fmt::Debug for MemRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemRegion").field("len", &self.len).finish()
    }
}

impl MemRegion {
    /// Allocate a zero-filled region of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::from_vec(vec![0u8; len])
    }

    /// Register a region initialized from `data`.
    pub fn from_vec(data: Vec<u8>) -> Self {
        let len = data.len();
        Self {
            storage: Arc::new(RegionStorage {
                buf: UnsafeCell::new(data.into_boxed_slice()),
            }),
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        // Box<[u8]> pointer is stable for the life of the Arc.
        unsafe { (*self.storage.buf.get()).as_mut_ptr() }
    }

    /// Copy `src` into the region at `offset`.
    ///
    /// # Panics
    /// If `offset + src.len()` exceeds the region length.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            self.contains(offset, src.len()),
            "MemRegion write out of bounds: offset {offset} + len {} > region {}",
            src.len(),
            self.len
        );
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(offset), src.len());
        }
    }

    /// Copy `dst.len()` bytes from the region at `offset` into `dst`.
    ///
    /// # Panics
    /// If `offset + dst.len()` exceeds the region length.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            self.contains(offset, dst.len()),
            "MemRegion read out of bounds: offset {offset} + len {} > region {}",
            dst.len(),
            self.len
        );
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(offset), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Copy `len` bytes from `src` (at `src_offset`) into `self` (at
    /// `dst_offset`) without an intermediate buffer — the zero-copy path the
    /// global virtual address space enables for intra-node transfers, and
    /// the MU's direct-put path between nodes.
    ///
    /// # Panics
    /// On out-of-bounds ranges.
    pub fn copy_from(&self, dst_offset: usize, src: &MemRegion, src_offset: usize, len: usize) {
        assert!(src.contains(src_offset, len), "MemRegion copy_from source out of bounds");
        assert!(self.contains(dst_offset, len), "MemRegion copy_from destination out of bounds");
        unsafe {
            if Arc::ptr_eq(&self.storage, &src.storage) {
                // Same physical pages: tolerate overlap.
                std::ptr::copy(src.base().add(src_offset), self.base().add(dst_offset), len);
            } else {
                std::ptr::copy_nonoverlapping(
                    src.base().add(src_offset),
                    self.base().add(dst_offset),
                    len,
                );
            }
        }
    }

    /// Fill `len` bytes at `offset` with `byte`.
    pub fn fill(&self, offset: usize, len: usize, byte: u8) {
        assert!(self.contains(offset, len), "MemRegion fill out of bounds");
        unsafe { std::ptr::write_bytes(self.base().add(offset), byte, len) }
    }

    /// Snapshot the whole region (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.read(0, &mut out);
        out
    }

    /// Read a little-endian `f64` at `offset` (8-byte granularity payloads
    /// for the collective network's floating-point reductions).
    pub fn read_f64(&self, offset: usize) -> f64 {
        let mut b = [0u8; 8];
        self.read(offset, &mut b);
        f64::from_le_bytes(b)
    }

    /// Write a little-endian `f64` at `offset`.
    pub fn write_f64(&self, offset: usize, value: f64) {
        self.write(offset, &value.to_le_bytes());
    }

    /// Read a little-endian `i64` at `offset`.
    pub fn read_i64(&self, offset: usize) -> i64 {
        let mut b = [0u8; 8];
        self.read(offset, &mut b);
        i64::from_le_bytes(b)
    }

    /// Write a little-endian `i64` at `offset`.
    pub fn write_i64(&self, offset: usize, value: i64) {
        self.write(offset, &value.to_le_bytes());
    }

    /// Whether two handles alias the same storage.
    pub fn same_region(&self, other: &MemRegion) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// The identity [`MemRegion::same_region`] compares, as a number: equal
    /// for two live handles iff they alias the same storage.
    #[inline]
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.storage) as usize
    }

    /// Whether `offset..offset + len` lies inside the region — the bound
    /// [`MemRegion::read`] and [`MemRegion::write`] panic past.
    #[inline]
    pub fn contains(&self, offset: usize, len: usize) -> bool {
        offset.checked_add(len).is_some_and(|end| end <= self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let r = MemRegion::zeroed(64);
        r.write(8, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        r.read(8, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn clones_share_storage() {
        let r = MemRegion::zeroed(16);
        let r2 = r.clone();
        r.write(0, &[42]);
        let mut out = [0u8; 1];
        r2.read(0, &mut out);
        assert_eq!(out[0], 42);
        assert!(r.same_region(&r2));
    }

    #[test]
    fn copy_from_distinct_regions() {
        let src = MemRegion::from_vec((0..32).collect());
        let dst = MemRegion::zeroed(32);
        dst.copy_from(4, &src, 8, 16);
        let v = dst.to_vec();
        assert_eq!(&v[4..20], &(8..24).collect::<Vec<u8>>()[..]);
        assert!(v[..4].iter().all(|&b| b == 0));
        assert!(v[20..].iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_from_same_region_overlapping() {
        let r = MemRegion::from_vec((0..16).collect());
        let alias = r.clone();
        r.copy_from(2, &alias, 0, 8);
        let v = r.to_vec();
        assert_eq!(&v[2..10], &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn f64_and_i64_round_trip() {
        let r = MemRegion::zeroed(16);
        r.write_f64(0, std::f64::consts::PI);
        r.write_i64(8, -12345);
        assert_eq!(r.read_f64(0), std::f64::consts::PI);
        assert_eq!(r.read_i64(8), -12345);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let r = MemRegion::zeroed(4);
        r.write(2, &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let r = MemRegion::zeroed(4);
        let mut buf = [0u8; 8];
        r.read(0, &mut buf);
    }

    #[test]
    fn disjoint_concurrent_writes_are_race_free() {
        let r = MemRegion::zeroed(1024);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let r = r.clone();
                s.spawn(move || {
                    let chunk = vec![t as u8 + 1; 128];
                    r.write(t * 128, &chunk);
                });
            }
        });
        let v = r.to_vec();
        for t in 0..8usize {
            assert!(v[t * 128..(t + 1) * 128].iter().all(|&b| b == t as u8 + 1));
        }
    }
}
