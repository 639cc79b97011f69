//! Byte-addressed data memory (little endian).

use core::fmt;

/// Error produced by an out-of-range or misaligned access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessError {
    /// Offending address.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u8,
    /// Whether the failure is a misalignment (else: out of range).
    pub misaligned: bool,
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.misaligned {
            write!(
                f,
                "misaligned {}-byte access at address {:#x}",
                self.width, self.addr
            )
        } else {
            write!(
                f,
                "out-of-range {}-byte access at address {:#x}",
                self.width, self.addr
            )
        }
    }
}

impl std::error::Error for AccessError {}

/// Page granularity of [`Memory`] residency.
const PAGE: usize = 4096;

/// FNV-1a prime of [`Memory::digest`].
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Sparse little-endian memory for the simulator.
///
/// Storage is allocated in 4 KiB pages on the first store into a page;
/// a page never written reads as zero. A core's memory is sized for
/// the largest kernel workspace (1 MiB by default) but a kernel call
/// touches a few pages, so residency follows the pages actually
/// written instead of the configured size. Every observable — sizes,
/// errors, loaded values, [`Memory::digest`] — is that of a flat
/// zero-initialised array of `size` bytes.
///
/// # Examples
///
/// ```
/// use xr32::mem::Memory;
///
/// let mut m = Memory::new(1024);
/// m.store_u32(0x10, 0xdeadbeef)?;
/// assert_eq!(m.load_u32(0x10)?, 0xdeadbeef);
/// assert_eq!(m.load_u8(0x10)?, 0xef); // little endian
/// # Ok::<(), xr32::mem::AccessError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    size: usize,
    pages: Vec<Option<Box<[u8; PAGE]>>>,
}

impl Memory {
    /// Creates `size` bytes of zeroed memory (no page is allocated
    /// until it is written).
    pub fn new(size: usize) -> Self {
        Memory {
            size,
            pages: vec![None; size.div_ceil(PAGE)],
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check(&self, addr: u32, width: u8) -> Result<usize, AccessError> {
        let a = addr as usize;
        if !a.is_multiple_of(width as usize) {
            return Err(AccessError {
                addr,
                width,
                misaligned: true,
            });
        }
        self.check_range(addr, width as usize, width)?;
        Ok(a)
    }

    /// Range check of the `len` bytes at `addr`; an error reports
    /// `width` as the access width.
    fn check_range(&self, addr: u32, len: usize, width: u8) -> Result<(), AccessError> {
        if addr as usize + len > self.size {
            return Err(AccessError {
                addr,
                width,
                misaligned: false,
            });
        }
        Ok(())
    }

    /// The `N` bytes at checked, naturally aligned address `a` (an
    /// aligned access never straddles a page).
    fn read<const N: usize>(&self, a: usize) -> [u8; N] {
        match &self.pages[a / PAGE] {
            Some(page) => page[a % PAGE..a % PAGE + N]
                .try_into()
                .expect("width checked"),
            None => [0; N],
        }
    }

    /// Writes `bytes` at `a`, allocating the page on first write; the
    /// span must lie within one page.
    fn write(&mut self, a: usize, bytes: &[u8]) {
        let page = self.pages[a / PAGE].get_or_insert_with(|| Box::new([0; PAGE]));
        page[a % PAGE..a % PAGE + bytes.len()].copy_from_slice(bytes);
    }

    /// Loads a byte.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the address is out of range.
    pub fn load_u8(&self, addr: u32) -> Result<u8, AccessError> {
        let a = self.check(addr, 1)?;
        Ok(self.read::<1>(a)[0])
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] when the address is out of range.
    pub fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), AccessError> {
        let a = self.check(addr, 1)?;
        self.write(a, &[v]);
        Ok(())
    }

    /// Loads a halfword (16-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    pub fn load_u16(&self, addr: u32) -> Result<u16, AccessError> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(self.read(a)))
    }

    /// Stores a halfword (16-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    pub fn store_u16(&mut self, addr: u32, v: u16) -> Result<(), AccessError> {
        let a = self.check(addr, 2)?;
        self.write(a, &v.to_le_bytes());
        Ok(())
    }

    /// Loads a word (32-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    pub fn load_u32(&self, addr: u32) -> Result<u32, AccessError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.read(a)))
    }

    /// Stores a word (32-bit aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or out-of-range.
    pub fn store_u32(&mut self, addr: u32, v: u32) -> Result<(), AccessError> {
        let a = self.check(addr, 4)?;
        self.write(a, &v.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the region exceeds memory.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), AccessError> {
        self.check_range(addr, data.len(), 1)?;
        let (mut a, mut rest) = (addr as usize, data);
        while !rest.is_empty() {
            // Up to the end of `a`'s page.
            let n = rest.len().min(PAGE - a % PAGE);
            self.write(a, &rest[..n]);
            (a, rest) = (a + n, &rest[n..]);
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the region exceeds memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, AccessError> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Fills `out` with the bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the region exceeds memory.
    pub(crate) fn read_into(&self, addr: u32, out: &mut [u8]) -> Result<(), AccessError> {
        self.check_range(addr, out.len(), 1)?;
        let (mut a, mut rest) = (addr as usize, out);
        while !rest.is_empty() {
            // Up to the end of `a`'s page.
            let n = rest.len().min(PAGE - a % PAGE);
            let (head, tail) = rest.split_at_mut(n);
            match &self.pages[a / PAGE] {
                Some(page) => head.copy_from_slice(&page[a % PAGE..a % PAGE + n]),
                None => head.fill(0),
            }
            (a, rest) = (a + n, tail);
        }
        Ok(())
    }

    /// 64-bit FNV-1a-style digest over the full memory contents. Used
    /// by the dual-fidelity co-simulation checks to compare
    /// whole-memory architectural state without copying it out.
    /// Absorbs eight little-endian bytes per round (not the byte-wise
    /// reference FNV) so digesting a megabyte core stays cheap enough
    /// to sample after every sweep. An absent page absorbs only zeros,
    /// which is one multiplication by a power of the prime.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, page) in self.pages.iter().enumerate() {
            let len = (self.size - i * PAGE).min(PAGE);
            let Some(page) = page else {
                // `len / 8` zero words, then `len % 8` zero tail bytes.
                h = h.wrapping_mul(FNV_PRIME.wrapping_pow((len / 8 + len % 8) as u32));
                continue;
            };
            let mut chunks = page[..len].chunks_exact(8);
            for c in &mut chunks {
                h ^= u64::from_le_bytes(c.try_into().expect("width checked"));
                h = h.wrapping_mul(FNV_PRIME);
            }
            for &b in chunks.remainder() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Writes a slice of `u32` words (little-endian) starting at `addr`
    /// (must be 4-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or overflow.
    pub fn write_words(&mut self, addr: u32, words: &[u32]) -> Result<(), AccessError> {
        for (i, &w) in words.iter().enumerate() {
            self.store_u32(addr + 4 * i as u32, w)?;
        }
        Ok(())
    }

    /// Reads `n` `u32` words starting at `addr` (4-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misalignment or overflow.
    pub fn read_words(&self, addr: u32, n: usize) -> Result<Vec<u32>, AccessError> {
        (0..n).map(|i| self.load_u32(addr + 4 * i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(64);
        m.store_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 0x04);
        assert_eq!(m.load_u8(3).unwrap(), 0x01);
        assert_eq!(m.load_u16(0).unwrap(), 0x0304);
        assert_eq!(m.load_u16(2).unwrap(), 0x0102);
    }

    #[test]
    fn misaligned_accesses_rejected() {
        let mut m = Memory::new(64);
        assert!(m.load_u32(2).unwrap_err().misaligned);
        assert!(m.store_u16(1, 0).unwrap_err().misaligned);
        assert!(m.load_u8(1).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new(16);
        assert!(!m.load_u32(16).unwrap_err().misaligned);
        assert!(m.store_u8(15, 1).is_ok());
        assert!(m.store_u8(16, 1).is_err());
        assert!(m.write_bytes(10, &[0; 7]).is_err());
    }

    #[test]
    fn bulk_words_roundtrip() {
        let mut m = Memory::new(256);
        let words = [1u32, 2, 3, 0xffff_ffff];
        m.write_words(0x40, &words).unwrap();
        assert_eq!(m.read_words(0x40, 4).unwrap(), words);
    }

    #[test]
    fn sparse_digest_equals_dense_digest() {
        // The reference: the digest of a flat byte array.
        fn dense(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                h ^= u64::from_le_bytes(c.try_into().unwrap());
                h = h.wrapping_mul(FNV_PRIME);
            }
            for &b in chunks.remainder() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        }
        for size in [0, 5, 4096, 3 * 4096 + 13, 5 * 4096 + 4] {
            let mut m = Memory::new(size);
            let mut flat = vec![0u8; size];
            assert_eq!(m.digest(), dense(&flat), "empty, size {size}");
            // A few bytes on some pages, none on others, including the
            // partial last page and a write straddling a page boundary.
            for (at, data) in [(1usize, &b"ab"[..]), (4094, b"xyz1"), (3 * 4096 + 9, b"q")] {
                if at + data.len() <= size {
                    m.write_bytes(at as u32, data).unwrap();
                    flat[at..at + data.len()].copy_from_slice(data);
                }
            }
            assert_eq!(m.digest(), dense(&flat), "sparse, size {size}");
            assert_eq!(m.read_bytes(0, size).unwrap(), flat);
        }
    }

    #[test]
    fn partial_last_page_keeps_range_errors() {
        let mut m = Memory::new(4096 + 6);
        assert_eq!(m.size(), 4102);
        assert!(m.store_u8(4101, 7).is_ok());
        assert_eq!(m.load_u8(4101).unwrap(), 7);
        assert!(m.store_u16(4100, 1).is_ok());
        let e = m.load_u32(4100).unwrap_err();
        assert_eq!((e.addr, e.width, e.misaligned), (4100, 4, false));
        let e = m.store_u8(4102, 1).unwrap_err();
        assert_eq!((e.width, e.misaligned), (1, false));
        let e = m.write_bytes(4100, &[0; 3]).unwrap_err();
        assert_eq!((e.addr, e.width, e.misaligned), (4100, 1, false));
        assert!(m.read_bytes(4096, 7).is_err());
        assert!(m.load_u32(4098).unwrap_err().misaligned);
    }

    #[test]
    fn unwritten_pages_read_as_zero_and_stay_unallocated() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.load_u32(0x8_0000).unwrap(), 0);
        m.store_u32(0x8_0004, 9).unwrap();
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 1);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Memory::new(64);
        m.write_bytes(5, b"hello").unwrap();
        assert_eq!(m.read_bytes(5, 5).unwrap(), b"hello");
    }
}
