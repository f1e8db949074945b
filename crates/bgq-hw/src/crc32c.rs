//! The CRC-32C (Castagnoli) kernel behind the link layer's packet stamp.
//!
//! On BG/Q the network hardware checksums every torus packet, so link CRC
//! costs the processor nothing. The simulation has to compute it, and the
//! closest a host gets to "the hardware does it" is the CPU's own CRC-32C
//! instruction: [`update`] uses it where the CPU has one (x86-64 with
//! SSE4.2) and falls back to the table-driven [`update_portable`]
//! everywhere else. Which one runs is decided by the CPU, never by a
//! build or run-time setting; both produce the same checksums.
//!
//! The functions work on the raw shift-register state: callers seed it
//! with `!0` and invert the result (see `bgq_mu::crc`), which lets a
//! checksum be folded over several slices.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[j][b]` advances byte `b` through `j` additional zero
/// bytes, letting [`update_portable`] fold eight input bytes per iteration
/// with eight independent loads instead of an eight-deep serial chain.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Fold `data` into the shift-register `state` with whatever the CPU
/// offers: the CRC-32C instruction on x86-64 with SSE4.2 (the feature test
/// is one cached load), [`update_portable`] on every other target.
#[inline]
pub fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42`'s only requirement is that the running
        // CPU implements SSE4.2, which the line above just established.
        return unsafe { update_sse42(state, data) };
    }
    update_portable(state, data)
}

/// The table-driven kernel (slicing-by-8: eight bytes per iteration, one
/// table load each, no intra-iteration dependency chain) — what [`update`]
/// runs on a CPU without a CRC-32C instruction, and the reference the
/// tests hold the instruction kernel to.
pub fn update_portable(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The instruction kernel: eight bytes, then one byte, at a time down a
/// single dependent `crc32` chain. Interleaving three chains wins the
/// isolated bench and lost to this loop on `halo_mixed` (DESIGN.md §17).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    let mut c = state as u64;
    let mut words = data.chunks_exact(8);
    for ch in &mut words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("chunks_exact(8)")));
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finished CRC of `data` under `kernel`.
    fn crc(kernel: fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        !kernel(!0, data)
    }

    /// RFC 3720 §B.4 test vectors, on the dispatched kernel and on the
    /// portable one (the same function on a CPU without the instruction).
    #[test]
    fn rfc3720_vectors_on_both_kernels() {
        let ascending: Vec<u8> = (0..32).collect();
        for kernel in [update as fn(u32, &[u8]) -> u32, update_portable] {
            assert_eq!(crc(kernel, b"123456789"), 0xE306_9283);
            assert_eq!(crc(kernel, &[0x00; 32]), 0x8A91_36AA);
            assert_eq!(crc(kernel, &[0xFF; 32]), 0x62A8_AB43);
            assert_eq!(crc(kernel, &ascending), 0x46DD_794E);
            assert_eq!(crc(kernel, b""), 0);
        }
    }
}
