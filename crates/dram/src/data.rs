//! Functional backing store.
//!
//! The timing model alone would suffice for performance numbers, but JAFAR's
//! correctness story — the output bitset it writes back must equal what a
//! software select would have produced — requires reads to return *real
//! bytes*. `DramData` is a sparse page map over the module's physical address
//! space, so modelling a 2 GB module costs memory only for pages actually
//! touched.

use crate::address::PhysAddr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one Fx-style multiply. Page numbers are
/// simulator-chosen, not attacker-chosen, so SipHash's flooding resistance
/// buys nothing here, and the map is looked up on every 64-byte access.
/// Nothing iterates the map, so its order cannot reach any output.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// Sparse byte-addressable storage. Unwritten bytes read as zero, like
/// zero-initialised DRAM in a fresh simulation.
#[derive(Default)]
pub struct DramData {
    pages: PageMap,
    capacity: u64,
}

impl DramData {
    /// Creates storage covering `capacity` bytes of physical address space.
    pub fn new(capacity: u64) -> Self {
        DramData {
            pages: PageMap::default(),
            capacity,
        }
    }

    /// Addressable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of 4 KiB pages actually materialised.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: PhysAddr, len: usize) {
        assert!(
            addr.0 + len as u64 <= self.capacity,
            "access [{addr}, +{len}) beyond capacity {:#x}",
            self.capacity
        );
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let off = (pos & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = remaining.len().min(PAGE_SIZE - off);
            let (head, tail) = remaining.split_at_mut(chunk);
            match self.pages.get(&page) {
                Some(p) => head.copy_from_slice(&p[off..off + chunk]),
                None => head.fill(0),
            }
            remaining = tail;
            pos += chunk as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        self.check(addr, buf.len());
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let off = (pos & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = remaining.len().min(PAGE_SIZE - off);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[off..off + chunk].copy_from_slice(&remaining[..chunk]);
            remaining = &remaining[chunk..];
            pos += chunk as u64;
        }
    }

    /// Reads one 64-byte burst.
    pub fn read_burst(&self, addr: PhysAddr) -> [u8; 64] {
        let mut buf = [0u8; 64];
        self.read(addr, &mut buf);
        buf
    }

    /// Writes one 64-byte burst.
    pub fn write_burst(&mut self, addr: PhysAddr, burst: &[u8; 64]) {
        self.write(addr, burst);
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `i64` at `addr`.
    pub fn read_i64(&self, addr: PhysAddr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `i64` at `addr`.
    pub fn write_i64(&mut self, addr: PhysAddr, value: i64) {
        self.write_u64(addr, value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let d = DramData::new(1 << 20);
        let mut buf = [0xAAu8; 16];
        d.read(PhysAddr(0x8000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(d.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = DramData::new(1 << 20);
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        d.write(PhysAddr(100), &payload);
        let mut back = vec![0u8; 200];
        d.read(PhysAddr(100), &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn cross_page_access() {
        let mut d = DramData::new(1 << 20);
        let payload = [0x5Au8; 100];
        // Straddles the 4 KiB page boundary at 0x1000.
        d.write(PhysAddr(0x1000 - 50), &payload);
        assert_eq!(d.resident_pages(), 2);
        let mut back = [0u8; 100];
        d.read(PhysAddr(0x1000 - 50), &mut back);
        assert_eq!(back, payload);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        d.read(PhysAddr(0x1000 - 51), &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn burst_helpers() {
        let mut d = DramData::new(1 << 16);
        let mut burst = [0u8; 64];
        for (i, b) in burst.iter_mut().enumerate() {
            *b = i as u8;
        }
        d.write_burst(PhysAddr(64), &burst);
        assert_eq!(d.read_burst(PhysAddr(64)), burst);
    }

    #[test]
    fn word_helpers() {
        let mut d = DramData::new(1 << 16);
        d.write_u64(PhysAddr(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(d.read_u64(PhysAddr(8)), 0xDEAD_BEEF_CAFE_F00D);
        d.write_i64(PhysAddr(16), -42);
        assert_eq!(d.read_i64(PhysAddr(16)), -42);
        // Little-endian layout.
        let mut b = [0u8; 1];
        d.read(PhysAddr(8), &mut b);
        assert_eq!(b[0], 0x0D);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_rejected() {
        let d = DramData::new(128);
        let mut buf = [0u8; 2];
        d.read(PhysAddr(127), &mut buf);
    }

    #[test]
    fn sparse_pages_round_trip_up_to_capacity() {
        use jafar_common::rng::SplitMix64;
        // Scattered pages over a 1 GiB space, the last one ending exactly at
        // capacity: every word reads back what was written last, every
        // unwritten byte reads zero, and only touched pages are resident.
        let capacity = 1u64 << 30;
        let mut d = DramData::new(capacity);
        let mut rng = SplitMix64::new(0xDA7A);
        let last_page = capacity / PAGE_SIZE as u64 - 1;
        let mut pages: Vec<u64> = (0..2000).map(|_| rng.next_below(last_page)).collect();
        pages.push(last_page);
        let mut expect = std::collections::BTreeMap::new();
        for &page in &pages {
            let addr = page * PAGE_SIZE as u64 + 8 * rng.next_below(PAGE_SIZE as u64 / 8);
            let value = rng.next_u64();
            d.write_u64(PhysAddr(addr), value);
            expect.insert(addr, value);
        }
        let top = PhysAddr(capacity - 64);
        d.write_burst(top, &[0xC3; 64]);
        assert_eq!(d.read_burst(top), [0xC3; 64]);
        for (&addr, &value) in &expect {
            if addr < top.0 {
                assert_eq!(d.read_u64(PhysAddr(addr)), value, "word at {addr:#x}");
            }
        }
        let distinct: std::collections::BTreeSet<u64> = pages.iter().copied().collect();
        assert_eq!(d.resident_pages(), distinct.len());
        // A page never written reads as zero.
        let untouched = (0..last_page).find(|p| !distinct.contains(p)).unwrap();
        assert_eq!(
            d.read_burst(PhysAddr(untouched * PAGE_SIZE as u64)),
            [0u8; 64]
        );
    }

    #[test]
    fn sparse_residency() {
        let mut d = DramData::new(1 << 30);
        d.write_u64(PhysAddr(0), 1);
        d.write_u64(PhysAddr(1 << 29), 2);
        assert_eq!(d.resident_pages(), 2);
    }
}
