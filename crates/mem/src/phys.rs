//! Flat physical memory with a page bitmap.

use crate::{MemError, PAGE_SHIFT, PAGE_SIZE};
use std::ops::Range;

/// Byte-addressable physical RAM starting at address 0.
///
/// All accesses are bounds-checked; word and half-word accesses must be
/// naturally aligned (the pipeline raises a misaligned-access exception
/// on [`MemError::Misaligned`]).
///
/// Every mutator sets the bit of each [`PAGE_SIZE`] page it writes in a
/// page bitmap, and the bytes are reachable only through the mutators,
/// so an unmarked page is all zero by construction. That makes bus
/// snapshots and restores ([`crate::Bus::snapshot`]) and
/// [`PhysMemory::nonzero_pages`] cost in proportion to the pages a
/// program touched, not to the size of RAM. The last page is shorter
/// than [`PAGE_SIZE`] when the size is not a multiple of it.
pub struct PhysMemory {
    data: Vec<u8>,
    /// One bit per page: set once the page may hold a non-zero byte.
    marked: Vec<u64>,
}

/// A copy of the marked pages of a [`PhysMemory`], taken with
/// [`PhysMemory::snapshot`] and applied with [`PhysMemory::restore`].
#[derive(Clone)]
pub(crate) struct RamImage {
    size: usize,
    marked: Vec<u64>,
    /// The marked pages' bytes, concatenated in address order.
    pages: Vec<u8>,
}

/// Indices of the set bits of a bitmap, in ascending order.
fn set_bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// True if bit `i` of a bitmap is set.
fn is_set(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// The byte range of `page` in a memory of `size` bytes.
fn page_range(page: usize, size: usize) -> Range<usize> {
    let start = page << PAGE_SHIFT;
    start..(start + PAGE_SIZE as usize).min(size)
}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed RAM.
    #[must_use]
    pub fn new(size: usize) -> PhysMemory {
        let pages = size.div_ceil(PAGE_SIZE as usize);
        PhysMemory {
            data: vec![0; size],
            marked: vec![0; pages.div_ceil(64)],
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// True if `addr..addr+len` lies within RAM.
    #[must_use]
    pub fn contains(&self, addr: u32, len: u32) -> bool {
        (addr as u64 + len as u64) <= self.data.len() as u64
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        if !addr.is_multiple_of(len) {
            return Err(MemError::Misaligned { addr });
        }
        Ok(addr as usize)
    }

    /// Marks the page holding byte `i` (an aligned access never spans
    /// two pages).
    #[inline]
    fn mark(&mut self, i: usize) {
        let page = i >> PAGE_SHIFT;
        self.marked[page / 64] |= 1 << (page % 64);
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.data[i])
    }

    /// Reads a little-endian half-word.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.data[i], self.data[i + 1]]))
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        ]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.mark(i);
        self.data[i] = value;
        Ok(())
    }

    /// Writes a little-endian half-word.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.mark(i);
        self.data[i..i + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.mark(i);
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into RAM (program loading).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, bytes.len() as u32) {
            return Err(MemError::OutOfBounds { addr });
        }
        let i = addr as usize;
        for page in (i >> PAGE_SHIFT)..(i + bytes.len()).div_ceil(PAGE_SIZE as usize) {
            self.mark(page << PAGE_SHIFT);
        }
        self.data[i..i + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a byte slice out of RAM.
    pub fn dump(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        Ok(&self.data[addr as usize..(addr + len) as usize])
    }

    /// The pages holding at least one non-zero byte, as `(page index,
    /// bytes)` in address order. Two memories of the same size hold
    /// equal contents exactly when these sequences are equal, however
    /// each reached its contents (a page written back to all zeros is
    /// skipped like a page never written).
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        set_bits(self.marked.iter().copied()).filter_map(|page| {
            let bytes = &self.data[page_range(page, self.data.len())];
            bytes
                .iter()
                .any(|&b| b != 0)
                .then_some((page as u32, bytes))
        })
    }

    /// Copies the marked pages and the page bitmap.
    #[must_use]
    pub(crate) fn snapshot(&self) -> RamImage {
        let size = self.data.len();
        let mut pages = Vec::new();
        for page in set_bits(self.marked.iter().copied()) {
            pages.extend_from_slice(&self.data[page_range(page, size)]);
        }
        RamImage {
            size,
            marked: self.marked.clone(),
            pages,
        }
    }

    /// Rewinds to `image` without reallocating. Only pages marked here
    /// or in the image are rewritten: the image's pages are copied in,
    /// the rest are zero-filled, and the image's bitmap is taken over.
    ///
    /// # Panics
    ///
    /// Panics if the image was taken from a memory of another size.
    pub(crate) fn restore(&mut self, image: &RamImage) {
        let size = self.data.len();
        assert_eq!(size, image.size, "RAM size mismatch on restore");
        let mut saved = image.pages.as_slice();
        let live_or_kept = self.marked.iter().zip(&image.marked).map(|(a, b)| a | b);
        for page in set_bits(live_or_kept) {
            let range = page_range(page, size);
            if is_set(&image.marked, page) {
                let (bytes, rest) = saved.split_at(range.len());
                self.data[range].copy_from_slice(bytes);
                saved = rest;
            } else {
                self.data[range].fill(0);
            }
        }
        self.marked.copy_from_slice(&image.marked);
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysMemory({} bytes)", self.data.len())
    }
}

impl std::fmt::Debug for RamImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RamImage({} of {} bytes in marked pages)",
            self.pages.len(),
            self.size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_util::Rng;

    #[test]
    fn roundtrip_widths() {
        let mut m = PhysMemory::new(64);
        m.write_u32(0, 0x1122_3344).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x1122_3344));
        assert_eq!(m.read_u16(0), Ok(0x3344));
        assert_eq!(m.read_u16(2), Ok(0x1122));
        assert_eq!(m.read_u8(3), Ok(0x11));
        m.write_u8(1, 0xAB).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x1122_AB44));
        m.write_u16(2, 0xCDEF).unwrap();
        assert_eq!(m.read_u32(0), Ok(0xCDEF_AB44));
    }

    #[test]
    fn bounds_checked() {
        let mut m = PhysMemory::new(8);
        assert_eq!(m.read_u32(8), Err(MemError::OutOfBounds { addr: 8 }));
        assert_eq!(m.read_u32(6), Err(MemError::OutOfBounds { addr: 6 }));
        assert_eq!(
            m.write_u32(0xFFFF_FFFC, 0),
            Err(MemError::OutOfBounds { addr: 0xFFFF_FFFC })
        );
        assert!(m.read_u8(7).is_ok());
    }

    #[test]
    fn alignment_checked() {
        let m = PhysMemory::new(16);
        assert_eq!(m.read_u32(2), Err(MemError::Misaligned { addr: 2 }));
        assert_eq!(m.read_u16(1), Err(MemError::Misaligned { addr: 1 }));
        assert!(m.read_u8(1).is_ok());
    }

    #[test]
    fn load_and_dump() {
        let mut m = PhysMemory::new(16);
        m.load(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.dump(4, 4).unwrap(), &[1, 2, 3, 4]);
        assert!(m.load(14, &[0; 4]).is_err());
    }

    #[test]
    fn failed_writes_mark_nothing() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE as usize);
        assert!(m.write_u32(2, 1).is_err());
        assert!(m.load(PAGE_SIZE, &[1; 8192]).is_err());
        assert_eq!(m.snapshot().pages.len(), 0);
        m.load(PAGE_SIZE - 2, &[7; 4]).unwrap();
        assert_eq!(m.snapshot().pages.len(), 2 * PAGE_SIZE as usize);
    }

    #[test]
    fn zeroed_page_digests_like_a_fresh_one() {
        let size = 3 * PAGE_SIZE as usize + 100;
        let fresh = PhysMemory::new(size);
        let mut m = PhysMemory::new(size);
        m.write_u32(PAGE_SIZE + 8, 0xDEAD_BEEF).unwrap();
        assert_ne!(
            m.nonzero_pages().collect::<Vec<_>>(),
            fresh.nonzero_pages().collect::<Vec<_>>()
        );
        m.write_u32(PAGE_SIZE + 8, 0).unwrap();
        assert_eq!(m.nonzero_pages().count(), 0);
        assert!(m.nonzero_pages().eq(fresh.nonzero_pages()));
    }

    /// The page-tracked memory against a dense byte-vector model, over
    /// random writes through every mutator, snapshots and interleaved
    /// restores, on sizes with a ragged last page.
    #[test]
    fn page_tracking_matches_a_dense_model() {
        let page = PAGE_SIZE as usize;
        for seed in 0..40 {
            let mut rng = Rng::new(0x9A6E_0000 + seed);
            let size = match seed % 4 {
                0 => rng.range_usize(1, page),
                1 => rng.range_usize(1, 12) * page,
                _ => rng.range_usize(page + 1, 12 * page),
            };
            let mut mem = PhysMemory::new(size);
            let mut model = vec![0u8; size];
            let mut images: Vec<(RamImage, Vec<u8>)> = Vec::new();
            for _ in 0..200 {
                step(&mut rng, &mut mem, &mut model, &mut images);
                check(&mem, &model);
            }
        }
    }

    /// A value that is zero a third of the time, so pages get written
    /// back to zeros.
    fn value(rng: &mut Rng) -> u32 {
        if rng.below(3) == 0 {
            0
        } else {
            rng.next_u32()
        }
    }

    fn step(
        rng: &mut Rng,
        mem: &mut PhysMemory,
        model: &mut Vec<u8>,
        images: &mut Vec<(RamImage, Vec<u8>)>,
    ) {
        let size = model.len();
        match rng.below(10) {
            0..=5 => {
                let width = *rng.pick(&[1usize, 2, 4]);
                if size < width {
                    return;
                }
                let addr = rng.range_usize(0, size / width) * width;
                let bytes = value(rng).to_le_bytes();
                let a = addr as u32;
                match width {
                    1 => mem.write_u8(a, bytes[0]),
                    2 => mem.write_u16(a, u16::from_le_bytes([bytes[0], bytes[1]])),
                    _ => mem.write_u32(a, u32::from_le_bytes(bytes)),
                }
                .unwrap();
                model[addr..addr + width].copy_from_slice(&bytes[..width]);
            }
            6 => {
                let addr = rng.range_usize(0, size);
                let len = rng.range_usize(0, (size - addr).min(3 * PAGE_SIZE as usize) + 1);
                let fill = value(rng) as u8;
                let bytes: Vec<u8> = (0..len)
                    .map(|_| if fill == 0 { 0 } else { rng.next_u32() as u8 })
                    .collect();
                mem.load(addr as u32, &bytes).unwrap();
                model[addr..addr + len].copy_from_slice(&bytes);
            }
            7 => images.push((mem.snapshot(), model.clone())),
            8 if !images.is_empty() => {
                let (image, contents) = rng.pick(images);
                if rng.below(4) == 0 {
                    // Restore into a memory with nothing marked.
                    *mem = PhysMemory::new(size);
                }
                mem.restore(image);
                model.clone_from(contents);
            }
            _ => {
                // The same contents reached another way: a digest must
                // not depend on the history, only on the bytes.
                let mut other = PhysMemory::new(size);
                for (i, &b) in model.iter().enumerate() {
                    if b != 0 || rng.below(64) == 0 {
                        other.write_u8(i as u32, b).unwrap();
                    }
                }
                assert!(mem.nonzero_pages().eq(other.nonzero_pages()));
                let fresh = PhysMemory::new(size);
                let zero = model.iter().all(|&b| b == 0);
                assert_eq!(mem.nonzero_pages().eq(fresh.nonzero_pages()), zero);
                *mem = other;
            }
        }
    }

    fn check(mem: &PhysMemory, model: &[u8]) {
        let size = model.len();
        assert_eq!(mem.dump(0, size as u32).unwrap(), model);
        for page in 0..size.div_ceil(PAGE_SIZE as usize) {
            if !is_set(&mem.marked, page) {
                let range = page_range(page, size);
                assert!(model[range].iter().all(|&b| b == 0), "page {page}");
            }
        }
        let expected: Vec<(u32, &[u8])> = (0..size.div_ceil(PAGE_SIZE as usize))
            .map(|page| (page as u32, &model[page_range(page, size)]))
            .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
            .collect();
        assert!(mem.nonzero_pages().eq(expected));
    }
}
