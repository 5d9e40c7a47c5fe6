//! Byte-addressable sparse memory image.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::op::MemWidth;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A multiplicative hasher for integer keys (Fibonacci hashing).
///
/// The simulator's internal maps key on page numbers and PCs — already
/// well-distributed integers never exposed to untrusted input — so
/// SipHash's DoS resistance buys nothing, and several of these maps sit
/// on the critical path of every simulated load, store, and commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u64 keys, kept total for safety).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

type PageMap = IntMap<u64, Box<[u8; PAGE_SIZE]>>;

/// A sparse, paged, little-endian, byte-addressable memory.
///
/// Unmapped bytes read as zero; writes allocate pages on demand. All
/// accesses are defined for every address (wrong-path execution in the
/// pipeline may compute wild addresses), so no access ever fails.
///
/// # Examples
///
/// ```
/// use vpir_isa::MemImage;
/// let mut mem = MemImage::new();
/// mem.write_u32(0x4000, 0xdead_beef);
/// assert_eq!(mem.read_u32(0x4000), 0xdead_beef);
/// assert_eq!(mem.read_u8(0x4000), 0xef); // little endian
/// assert_eq!(mem.read_u64(0x9999_0000), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: PageMap,
}

impl MemImage {
    /// Creates an empty memory image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = v;
    }

    /// Reads `width` bytes at `addr`, little-endian, zero-extended to 64 bits.
    pub fn read(&self, addr: u64, width: MemWidth) -> u64 {
        let n = width.bytes() as usize;
        let off = (addr & PAGE_MASK) as usize;
        // Fast path: the access stays inside one page — one map probe.
        if off + n <= PAGE_SIZE {
            return match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&p[off..off + n]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            };
        }
        let mut v: u64 = 0;
        for i in 0..n as u64 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `v` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, width: MemWidth, v: u64) {
        let n = width.bytes() as usize;
        let off = (addr & PAGE_MASK) as usize;
        // Fast path: the access stays inside one page — one map probe.
        if off + n <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0; PAGE_SIZE]));
            page[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
            return;
        }
        for i in 0..n as u64 {
            self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    /// Reads a 32-bit value.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read(addr, MemWidth::B4) as u32
    }

    /// Reads a 64-bit value.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, MemWidth::B8)
    }

    /// Writes a 32-bit value.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, MemWidth::B4, v as u64);
    }

    /// Writes a 64-bit value.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, MemWidth::B8, v);
    }

    /// Copies `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }
}

/// A read-only view of memory used by instruction semantics.
///
/// The functional machine implements this directly over [`MemImage`]; the
/// pipeline implements it over `MemImage` + a speculative store log so
/// that execute-at-dispatch sees in-flight stores.
pub trait LoadSource {
    /// Reads `width` bytes at `addr`, little-endian, zero-extended.
    fn load(&self, addr: u64, width: MemWidth) -> u64;
}

impl LoadSource for MemImage {
    fn load(&self, addr: u64, width: MemWidth) -> u64 {
        self.read(addr, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = MemImage::new();
        m.write(0x10, MemWidth::B8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x10, MemWidth::B8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x10, MemWidth::B4), 0x5566_7788);
        assert_eq!(m.read(0x14, MemWidth::B4), 0x1122_3344);
        assert_eq!(m.read(0x10, MemWidth::B1), 0x88);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = 0x1000 - 4; // straddles the first page boundary
        m.write_u64(addr, 0xaabb_ccdd_0011_2233);
        assert_eq!(m.read_u64(addr), 0xaabb_ccdd_0011_2233);
        assert!(m.pages.len() >= 2);
    }

    #[test]
    fn unmapped_reads_are_zero_and_allocate_nothing() {
        let m = MemImage::new();
        assert_eq!(m.read_u64(0xffff_0000), 0);
        assert_eq!(m.pages.len(), 0);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = MemImage::new();
        m.write_bytes(0x200, b"hello");
        assert_eq!(m.read_u8(0x204), b'o');
    }

    #[test]
    fn wrapping_address_is_defined() {
        let mut m = MemImage::new();
        m.write_u64(u64::MAX - 3, 0x0102_0304_0506_0708);
        // Must not panic; bytes wrap around the address space.
        assert_eq!(m.read_u64(u64::MAX - 3), 0x0102_0304_0506_0708);
    }
}
