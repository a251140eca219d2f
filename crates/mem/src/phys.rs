//! Physical memory whose pages get storage on first write.

use crate::{MemError, PAGE_SHIFT, PAGE_SIZE};
use std::ops::Range;

/// The bytes of one page.
type Page = [u8; PAGE_SIZE as usize];

/// Mask of an address's offset within its page.
const PAGE_MASK: usize = PAGE_SIZE as usize - 1;

/// Byte-addressable physical RAM starting at address 0.
///
/// All accesses are bounds-checked; word and half-word accesses must be
/// naturally aligned (the pipeline raises a misaligned-access exception
/// on [`MemError::Misaligned`]).
///
/// RAM is a table of [`PAGE_SIZE`] pages. A page gets storage when a
/// mutator (`write_u8/u16/u32`, `load`) first writes it, and a page
/// without storage reads as zeros. A bitmap marks the pages that have
/// storage, so bus snapshots and restores ([`crate::Bus::snapshot`]) and
/// [`PhysMemory::nonzero_pages`] cost in proportion to the pages a
/// program touched, and the host memory a machine holds follows what it
/// wrote, not the size of RAM. The last page is shorter than
/// [`PAGE_SIZE`] when the size is not a multiple of it.
pub struct PhysMemory {
    size: usize,
    /// One slot per page: `None` until a mutator first writes the page.
    pages: Vec<Option<Box<Page>>>,
    /// One bit per page: set exactly when the page has storage.
    marked: Vec<u64>,
}

/// A copy of the pages of a [`PhysMemory`] that have storage, taken
/// with [`PhysMemory::snapshot`] and applied with
/// [`PhysMemory::restore`].
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

/// A zero-filled page, allocated without passing through the stack.
fn zeroed_page() -> Box<Page> {
    vec![0; PAGE_SIZE as usize]
        .into_boxed_slice()
        .try_into()
        .expect("a page-sized slice")
}

impl PhysMemory {
    /// Creates `size` bytes of zeroed RAM. No page has storage yet.
    #[must_use]
    pub fn new(size: usize) -> PhysMemory {
        let pages = size.div_ceil(PAGE_SIZE as usize);
        PhysMemory {
            size,
            pages: (0..pages).map(|_| None).collect(),
            marked: vec![0; pages.div_ceil(64)],
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// True if `addr..addr+len` lies within RAM.
    #[must_use]
    pub fn contains(&self, addr: u32, len: u32) -> bool {
        (addr as u64 + len as u64) <= self.size as u64
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

    /// The page holding byte `i`, if it has storage.
    #[inline]
    fn page(&self, i: usize) -> Option<&Page> {
        self.pages[i >> PAGE_SHIFT].as_deref()
    }

    /// The page holding byte `i`, given storage and marked on first use
    /// (an aligned access never spans two pages).
    #[inline]
    fn page_mut(&mut self, i: usize) -> &mut Page {
        let page = i >> PAGE_SHIFT;
        let marked = &mut self.marked;
        self.pages[page].get_or_insert_with(|| {
            marked[page / 64] |= 1 << (page % 64);
            zeroed_page()
        })
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.page(i).map_or(0, |p| p[i & PAGE_MASK]))
    }

    /// Reads a little-endian half-word.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        let o = i & PAGE_MASK;
        Ok(self
            .page(i)
            .map_or(0, |p| u16::from_le_bytes([p[o], p[o + 1]])))
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        let o = i & PAGE_MASK;
        Ok(self.page(i).map_or(0, |p| {
            u32::from_le_bytes([p[o], p[o + 1], p[o + 2], p[o + 3]])
        }))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.page_mut(i)[i & PAGE_MASK] = value;
        Ok(())
    }

    /// Writes a little-endian half-word.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        let o = i & PAGE_MASK;
        self.page_mut(i)[o..o + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        let o = i & PAGE_MASK;
        self.page_mut(i)[o..o + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into RAM (program loading).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, bytes.len() as u32) {
            return Err(MemError::OutOfBounds { addr });
        }
        let mut i = addr as usize;
        let mut rest = bytes;
        while !rest.is_empty() {
            let o = i & PAGE_MASK;
            let (part, tail) = rest.split_at(rest.len().min(PAGE_SIZE as usize - o));
            self.page_mut(i)[o..o + part.len()].copy_from_slice(part);
            i += part.len();
            rest = tail;
        }
        Ok(())
    }

    /// Copies a byte range out of RAM (pages without storage read as
    /// zeros).
    pub fn dump(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut i = addr as usize;
        let end = i + len as usize;
        while i < end {
            let o = i & PAGE_MASK;
            let n = (end - i).min(PAGE_SIZE as usize - o);
            match self.page(i) {
                Some(p) => out.extend_from_slice(&p[o..o + n]),
                None => out.resize(out.len() + n, 0),
            }
            i += n;
        }
        Ok(out)
    }

    /// The bytes of a marked page, cut to the size of RAM.
    fn marked_bytes(&self, page: usize) -> &[u8] {
        let bytes = self.pages[page]
            .as_deref()
            .expect("a marked page has storage");
        &bytes[..page_range(page, self.size).len()]
    }

    /// The pages holding at least one non-zero byte, as `(page index,
    /// bytes)` in address order. Two memories of the same size hold
    /// equal contents exactly when these sequences are equal, however
    /// each reached its contents (a page written back to all zeros is
    /// skipped like a page never written).
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        set_bits(self.marked.iter().copied()).filter_map(|page| {
            let bytes = self.marked_bytes(page);
            bytes
                .iter()
                .any(|&b| b != 0)
                .then_some((page as u32, bytes))
        })
    }

    /// Copies the marked pages and the page bitmap.
    #[must_use]
    pub(crate) fn snapshot(&self) -> RamImage {
        let mut pages = Vec::new();
        for page in set_bits(self.marked.iter().copied()) {
            pages.extend_from_slice(self.marked_bytes(page));
        }
        RamImage {
            size: self.size,
            marked: self.marked.clone(),
            pages,
        }
    }

    /// Rewinds to `image`. Only pages marked here or in the image are
    /// visited: the image's pages are copied in (given storage if they
    /// have none), the others lose their storage, and the image's bitmap
    /// is taken over.
    ///
    /// # Panics
    ///
    /// Panics if the image was taken from a memory of another size.
    pub(crate) fn restore(&mut self, image: &RamImage) {
        assert_eq!(self.size, image.size, "RAM size mismatch on restore");
        let mut saved = image.pages.as_slice();
        let live_or_kept = self.marked.iter().zip(&image.marked).map(|(a, b)| a | b);
        for page in set_bits(live_or_kept) {
            let slot = &mut self.pages[page];
            if is_set(&image.marked, page) {
                let len = page_range(page, self.size).len();
                let (bytes, rest) = saved.split_at(len);
                slot.get_or_insert_with(zeroed_page)[..len].copy_from_slice(bytes);
                saved = rest;
            } else {
                *slot = None;
            }
        }
        self.marked.copy_from_slice(&image.marked);
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysMemory({} bytes)", self.size)
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
    fn pages_get_storage_on_first_write_only() {
        let allocated = |m: &PhysMemory| m.pages.iter().filter(|p| p.is_some()).count();
        let mut m = PhysMemory::new(16 << 20);
        assert_eq!(allocated(&m), 0);
        // Reads of unwritten pages see zeros and allocate nothing.
        assert_eq!(m.read_u32(0x10_0000), Ok(0));
        assert_eq!(m.read_u16(0x20_0002), Ok(0));
        assert_eq!(m.read_u8((16 << 20) - 1), Ok(0));
        assert_eq!(m.dump(0x3F_F000, 0x2000).unwrap(), vec![0; 0x2000]);
        assert_eq!(m.nonzero_pages().count(), 0);
        assert_eq!(allocated(&m), 0);
        // A write gives exactly its page storage.
        m.write_u8(0x10_0003, 9).unwrap();
        assert_eq!(allocated(&m), 1);
        assert_eq!(m.read_u32(0x10_0000), Ok(9 << 24));
        // Restoring an empty image takes the storage away again.
        let empty = PhysMemory::new(16 << 20).snapshot();
        m.restore(&empty);
        assert_eq!(allocated(&m), 0);
        assert_eq!(m.read_u32(0x10_0000), Ok(0));
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
            assert_eq!(is_set(&mem.marked, page), mem.pages[page].is_some());
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
