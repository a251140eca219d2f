//! MRAM: the RAM collocated with the instruction fetch unit.
//!
//! "Critically, Metal stores mroutines in a RAM collocated with the
//! processor's instruction fetch unit to offer microcode level overhead.
//! … The RAM partitions code and data into separate segments, which hold
//! mroutines and mroutine private data. Accesses to the RAM do not alter
//! processor caches." (paper §2)
//!
//! MRAM code occupies the physical-address window starting at
//! [`MRAM_BASE`]; fetches from that window are served by the Metal fetch
//! hook in one cycle and never touch the I-cache. The data segment is a
//! separate little address space reachable only through `mld`/`mst`.

use crate::ecc::{EccCheck, EccMode};
use crate::MetalError;
use metal_isa::metal::MAX_MROUTINES;
use metal_isa::{decode_to, DecodedInsn};

/// Base address of the MRAM code window. mroutine PCs live here.
pub const MRAM_BASE: u32 = 0xFFF0_0000;

/// Geometry of the MRAM.
#[derive(Clone, Copy, Debug)]
pub struct MramConfig {
    /// Code segment size in bytes.
    pub code_bytes: u32,
    /// Data segment size in bytes.
    pub data_bytes: u32,
    /// Fetch latency from MRAM in cycles (1 = collocated, the design
    /// point; larger values ablate the collocation claim).
    pub fetch_latency: u32,
}

impl Default for MramConfig {
    fn default() -> MramConfig {
        MramConfig {
            code_bytes: 16 * 1024,
            data_bytes: 4 * 1024,
            fetch_latency: 1,
        }
    }
}

/// One installed mroutine.
#[derive(Clone, Debug)]
pub struct MroutineInfo {
    /// Entry number (0..64).
    pub entry: u8,
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Byte offset of the first instruction in the code segment.
    pub offset: u32,
    /// Length in bytes.
    pub len: u32,
}

/// The MRAM: code segment, data segment, and the 64-entry table. Code
/// is kept in two parallel forms: the raw words and their pre-decoded
/// [`DecodedInsn`]s, filled at install time — the software analogue of
/// the paper's decode-collocated MRAM, so mroutine fetches never pay a
/// per-cycle decode.
#[derive(Clone, Debug)]
pub struct Mram {
    config: MramConfig,
    code: Vec<u32>,
    decoded: Vec<DecodedInsn>,
    data: Vec<u8>,
    entries: Vec<Option<MroutineInfo>>,
    next_offset: u32,
    /// Check-bit scheme protecting both segments ([`EccMode::None`]
    /// disables verification entirely — the zero-cost default).
    ecc: EccMode,
    /// Per-word check bits for the code / data segments, recomputed on
    /// every legitimate write. Fault injection flips only the primary
    /// arrays, leaving these stale — exactly how a real particle strike
    /// presents to the detection hardware.
    code_check: Vec<u8>,
    data_check: Vec<u8>,
    /// Golden copy of the code segment: the install image. Code is
    /// read-only after install, so this never goes stale and `mscrub`
    /// can repair any corrupted code word from it.
    golden_code: Vec<u32>,
    /// Write-through mirror of the data segment, updated on every
    /// `data_store`: a redundant protected copy that tracks legitimate
    /// updates, so scrubbing a corrupted data word is always correct.
    golden_data: Vec<u8>,
}

impl Mram {
    /// Creates an empty MRAM.
    #[must_use]
    pub fn new(config: MramConfig) -> Mram {
        let words = (config.code_bytes / 4) as usize;
        Mram {
            code: vec![0; words],
            // Word 0 has no legal decoding, so the empty pre-decoded
            // segment is consistent with the empty code segment.
            decoded: vec![DecodedInsn::illegal(0); words],
            data: vec![0; config.data_bytes as usize],
            entries: vec![None; MAX_MROUTINES],
            next_offset: 0,
            config,
            ecc: EccMode::None,
            code_check: vec![0; words],
            data_check: vec![0; (config.data_bytes / 4) as usize],
            golden_code: vec![0; words],
            golden_data: vec![0; config.data_bytes as usize],
        }
    }

    /// The active check-bit scheme.
    #[must_use]
    pub fn ecc(&self) -> EccMode {
        self.ecc
    }

    /// Switches the check-bit scheme and recomputes all check bits and
    /// golden copies from the current (trusted) contents. Host-side
    /// writes through [`Mram::data_mut`] made after this call must be
    /// followed by another `set_ecc` to stay consistent.
    pub fn set_ecc(&mut self, mode: EccMode) {
        self.ecc = mode;
        for (i, &w) in self.code.iter().enumerate() {
            self.code_check[i] = mode.encode(w);
        }
        for i in 0..self.data_check.len() {
            self.data_check[i] = mode.encode(self.data_word_at(i as u32));
        }
        self.golden_code.copy_from_slice(&self.code);
        self.golden_data.copy_from_slice(&self.data);
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> MramConfig {
        self.config
    }

    /// Installs an mroutine's code at the next free offset and binds it
    /// to `entry`. Returns the mroutine's PC.
    pub fn install(&mut self, entry: u8, name: &str, words: &[u32]) -> Result<u32, MetalError> {
        if usize::from(entry) >= MAX_MROUTINES {
            return Err(MetalError::BadEntry { entry });
        }
        if self.entries[usize::from(entry)].is_some() {
            return Err(MetalError::EntryInUse { entry });
        }
        let len = (words.len() * 4) as u32;
        if self.next_offset + len > self.config.code_bytes {
            return Err(MetalError::CodeOverflow {
                needed: self.next_offset + len,
                capacity: self.config.code_bytes,
            });
        }
        let offset = self.next_offset;
        let word_base = (offset / 4) as usize;
        self.code[word_base..word_base + words.len()].copy_from_slice(words);
        self.golden_code[word_base..word_base + words.len()].copy_from_slice(words);
        // Pre-decode at load time.
        for (i, &word) in words.iter().enumerate() {
            self.decoded[word_base + i] = decode_to(word);
            self.code_check[word_base + i] = self.ecc.encode(word);
        }
        self.next_offset += len;
        self.entries[usize::from(entry)] = Some(MroutineInfo {
            entry,
            name: name.to_owned(),
            offset,
            len,
        });
        Ok(MRAM_BASE + offset)
    }

    /// Looks up an entry; `None` if unbound.
    #[must_use]
    pub fn entry(&self, entry: u8) -> Option<&MroutineInfo> {
        self.entries.get(usize::from(entry))?.as_ref()
    }

    /// PC of an entry's first instruction.
    #[must_use]
    pub fn entry_pc(&self, entry: u8) -> Option<u32> {
        self.entry(entry).map(|info| MRAM_BASE + info.offset)
    }

    /// True if `pc` lies inside the MRAM code window.
    #[must_use]
    pub fn contains_pc(&self, pc: u32) -> bool {
        pc >= MRAM_BASE && pc < MRAM_BASE + self.config.code_bytes
    }

    /// Reads the code word at an MRAM PC.
    pub fn code_word(&self, pc: u32) -> Result<u32, MetalError> {
        if !self.contains_pc(pc) || !pc.is_multiple_of(4) {
            return Err(MetalError::CodeFetch { pc });
        }
        Ok(self.code[((pc - MRAM_BASE) / 4) as usize])
    }

    /// Reads the pre-decoded instruction at an MRAM PC. Always agrees
    /// with [`Mram::code_word`]: both views are written together by
    /// `install`.
    pub fn code_decoded(&self, pc: u32) -> Result<DecodedInsn, MetalError> {
        if !self.contains_pc(pc) || !pc.is_multiple_of(4) {
            return Err(MetalError::CodeFetch { pc });
        }
        Ok(self.decoded[((pc - MRAM_BASE) / 4) as usize])
    }

    /// Fetch latency for MRAM code.
    #[must_use]
    pub fn fetch_latency(&self) -> u32 {
        self.config.fetch_latency
    }

    /// Loads a word from the data segment (`mld`).
    pub fn data_load(&self, addr: u32) -> Result<u32, MetalError> {
        if !addr.is_multiple_of(4) || addr + 4 > self.config.data_bytes {
            return Err(MetalError::DataAccess { addr });
        }
        let i = addr as usize;
        Ok(u32::from_le_bytes([
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        ]))
    }

    /// Stores a word to the data segment (`mst`).
    pub fn data_store(&mut self, addr: u32, value: u32) -> Result<(), MetalError> {
        if !addr.is_multiple_of(4) || addr + 4 > self.config.data_bytes {
            return Err(MetalError::DataAccess { addr });
        }
        let i = addr as usize;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.golden_data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.data_check[i / 4] = self.ecc.encode(value);
        Ok(())
    }

    /// Host-side view of the data segment (for tests and loaders that
    /// pre-initialize mroutine private data).
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Host-side mutable view of the data segment.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Number of 32-bit words in the code segment.
    #[must_use]
    pub fn code_words(&self) -> u32 {
        self.config.code_bytes / 4
    }

    /// Number of 32-bit words in the data segment.
    #[must_use]
    pub fn data_words(&self) -> u32 {
        self.config.data_bytes / 4
    }

    /// Raw code word by word index (fault-injection harness).
    #[must_use]
    pub fn code_word_at(&self, index: u32) -> u32 {
        self.code[index as usize]
    }

    /// Raw data word by word index (fault-injection harness).
    #[must_use]
    pub fn data_word_at(&self, index: u32) -> u32 {
        let i = index as usize * 4;
        u32::from_le_bytes([
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        ])
    }

    /// Validates the code word at an MRAM PC against its check bits.
    /// `None` = clean (or ECC off); `Some(syndrome)` = machine check.
    #[must_use]
    pub fn code_verify(&self, pc: u32) -> Option<u8> {
        if self.ecc == EccMode::None || !self.contains_pc(pc) || !pc.is_multiple_of(4) {
            return None;
        }
        let i = ((pc - MRAM_BASE) / 4) as usize;
        match self.ecc.check(self.code[i], self.code_check[i]) {
            EccCheck::Clean => None,
            EccCheck::Error { syndrome, .. } => Some(syndrome),
        }
    }

    /// Validates the data word holding `addr` against its check bits.
    #[must_use]
    pub fn data_verify(&self, addr: u32) -> Option<u8> {
        if self.ecc == EccMode::None || !addr.is_multiple_of(4) || addr + 4 > self.config.data_bytes
        {
            return None;
        }
        let i = addr / 4;
        match self
            .ecc
            .check(self.data_word_at(i), self.data_check[i as usize])
        {
            EccCheck::Clean => None,
            EccCheck::Error { syndrome, .. } => Some(syndrome),
        }
    }

    /// Flips one bit of the code word at `index`, re-decoding the
    /// parallel pre-decoded view so both stay coherent. Check bits and
    /// the golden copy are deliberately left alone — that is what makes
    /// the flip detectable and repairable. Returns `false` out of range.
    pub fn inject_code_bit(&mut self, index: u32, bit: u8) -> bool {
        let Some(word) = self.code.get_mut(index as usize) else {
            return false;
        };
        *word ^= 1 << (bit & 31);
        self.decoded[index as usize] = decode_to(*word);
        true
    }

    /// Flips one bit of the data word at `index` (primary copy only).
    /// Returns `false` out of range.
    pub fn inject_data_bit(&mut self, index: u32, bit: u8) -> bool {
        let i = index as usize * 4;
        if i + 4 > self.data.len() {
            return false;
        }
        let word = self.data_word_at(index) ^ (1 << (bit & 31));
        self.data[i..i + 4].copy_from_slice(&word.to_le_bytes());
        true
    }

    /// Repairs the code word at `index` from the golden install image,
    /// recomputing its check bits and pre-decoded view. Returns `false`
    /// out of range.
    pub fn scrub_code(&mut self, index: u32) -> bool {
        let i = index as usize;
        if i >= self.code.len() {
            return false;
        }
        self.code[i] = self.golden_code[i];
        self.decoded[i] = decode_to(self.code[i]);
        self.code_check[i] = self.ecc.encode(self.code[i]);
        true
    }

    /// Repairs the data word at `index` from the write-through mirror.
    /// Returns `false` out of range.
    pub fn scrub_data(&mut self, index: u32) -> bool {
        let i = index as usize * 4;
        if i + 4 > self.data.len() {
            return false;
        }
        let (dst, src) = (&mut self.data[i..i + 4], &self.golden_data[i..i + 4]);
        dst.copy_from_slice(src);
        self.data_check[index as usize] = self.ecc.encode(self.data_word_at(index));
        true
    }

    /// Bytes of code segment still free.
    #[must_use]
    pub fn code_free(&self) -> u32 {
        self.config.code_bytes - self.next_offset
    }

    /// Iterates over installed mroutines.
    pub fn routines(&self) -> impl Iterator<Item = &MroutineInfo> {
        self.entries.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_fetch() {
        let mut mram = Mram::new(MramConfig::default());
        let pc = mram.install(3, "demo", &[0x11, 0x22, 0x33]).unwrap();
        assert_eq!(pc, MRAM_BASE);
        assert_eq!(mram.entry_pc(3), Some(MRAM_BASE));
        assert_eq!(mram.code_word(pc), Ok(0x11));
        assert_eq!(mram.code_word(pc + 8), Ok(0x33));
        assert!(mram.contains_pc(pc + 8));
        // Second routine goes after the first.
        let pc2 = mram.install(4, "demo2", &[0xAA]).unwrap();
        assert_eq!(pc2, MRAM_BASE + 12);
        assert_eq!(mram.code_word(pc2), Ok(0xAA));
    }

    #[test]
    fn entry_bounds_and_duplicates() {
        let mut mram = Mram::new(MramConfig::default());
        assert!(matches!(
            mram.install(64, "x", &[0]),
            Err(MetalError::BadEntry { entry: 64 })
        ));
        mram.install(5, "a", &[0]).unwrap();
        assert!(matches!(
            mram.install(5, "b", &[0]),
            Err(MetalError::EntryInUse { entry: 5 })
        ));
    }

    #[test]
    fn code_overflow_detected() {
        let mut mram = Mram::new(MramConfig {
            code_bytes: 16,
            data_bytes: 16,
            fetch_latency: 1,
        });
        mram.install(0, "a", &[0; 3]).unwrap();
        assert!(matches!(
            mram.install(1, "b", &[0; 2]),
            Err(MetalError::CodeOverflow { .. })
        ));
        // Exactly filling works.
        mram.install(1, "b", &[0]).unwrap();
        assert_eq!(mram.code_free(), 0);
    }

    #[test]
    fn data_segment_roundtrip() {
        let mut mram = Mram::new(MramConfig::default());
        mram.data_store(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(mram.data_load(8), Ok(0xDEAD_BEEF));
        assert!(mram.data_load(2).is_err(), "misaligned");
        let last = MramConfig::default().data_bytes - 4;
        mram.data_store(last, 1).unwrap();
        assert!(mram.data_store(last + 4, 1).is_err(), "out of bounds");
    }

    #[test]
    fn injected_code_flip_is_detected_and_scrubbed() {
        let mut mram = Mram::new(MramConfig::default());
        let pc = mram.install(0, "r", &[0x0000_0013, 0x0010_0073]).unwrap();
        mram.set_ecc(EccMode::Secded);
        assert_eq!(mram.code_verify(pc), None);
        assert!(mram.inject_code_bit(0, 7));
        // Primary word and decoded view flipped together; check bits
        // stale, so verification reports a locatable syndrome.
        assert_eq!(mram.code_word(pc), Ok(0x0000_0013 ^ 0x80));
        let syndrome = mram.code_verify(pc).expect("flip detected");
        assert_eq!(syndrome & 0x80, 0, "single-bit flip is locatable");
        assert!(mram.scrub_code(0));
        assert_eq!(mram.code_verify(pc), None);
        assert_eq!(mram.code_word(pc), Ok(0x0000_0013));
        assert_eq!(
            mram.code_decoded(pc).unwrap().word,
            0x0000_0013,
            "decoded view repaired too"
        );
    }

    #[test]
    fn data_mirror_tracks_stores_so_scrub_is_fresh() {
        let mut mram = Mram::new(MramConfig::default());
        mram.set_ecc(EccMode::Parity);
        mram.data_store(16, 0xAAAA_0001).unwrap();
        assert!(mram.inject_data_bit(4, 0));
        assert_eq!(mram.data_verify(16), Some(0x80), "parity cannot locate");
        assert!(mram.scrub_data(4));
        assert_eq!(mram.data_verify(16), None);
        assert_eq!(
            mram.data_load(16),
            Ok(0xAAAA_0001),
            "scrub restores the latest legitimate store, not stale install data"
        );
    }

    #[test]
    fn ecc_off_never_verifies() {
        let mut mram = Mram::new(MramConfig::default());
        let pc = mram.install(0, "r", &[0x13]).unwrap();
        assert!(mram.inject_code_bit(0, 3));
        assert_eq!(mram.code_verify(pc), None, "EccMode::None is silent");
    }

    #[test]
    fn code_fetch_bounds() {
        let mram = Mram::new(MramConfig::default());
        assert!(mram.code_word(MRAM_BASE - 4).is_err());
        assert!(mram.code_word(MRAM_BASE + 2).is_err());
        assert!(mram
            .code_word(MRAM_BASE + MramConfig::default().code_bytes)
            .is_err());
    }
}
