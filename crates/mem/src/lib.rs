//! Memory subsystem for the Metal processor simulator.
//!
//! This crate provides everything below the pipeline:
//!
//! * [`phys::PhysMemory`] — flat physical RAM with a bitmap of the pages
//!   written, so snapshots, restores and digests cost what a program
//!   touched.
//! * [`bus::Bus`] — the physical address space: RAM plus memory-mapped
//!   devices (console, timer, packet device).
//! * [`tlb::Tlb`] — a software-managed TLB with address-space IDs and
//!   page keys, the architectural features the paper's prototype exposes
//!   to Metal (§2.3).
//! * [`walker::Walker`] — an x86-style two-level radix page-table walker,
//!   used by the *baseline* core for hardware-managed translation.
//! * [`cache::Cache`] — a timing-only cache model, used to account fetch
//!   and data-access latency (this is what makes the MRAM-vs-main-memory
//!   comparison meaningful).

pub mod bus;
pub mod cache;
pub mod devices;
pub mod phys;
pub mod sync;
pub mod tlb;
pub mod walker;

pub use bus::{Bus, BusSnapshot, Device};
pub use cache::{Cache, CacheConfig};
pub use phys::PhysMemory;
pub use tlb::{AccessKind, Pte, Tlb, TlbConfig, TlbFault};
pub use walker::Walker;

use core::fmt;

/// Errors raised by physical memory and bus accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Address outside RAM and every device window.
    OutOfBounds {
        /// The faulting physical address.
        addr: u32,
    },
    /// Access not aligned to its width.
    Misaligned {
        /// The faulting physical address.
        addr: u32,
    },
    /// Device rejected the access (sub-word MMIO, bad register…).
    Device {
        /// The faulting physical address.
        addr: u32,
    },
}

impl MemError {
    /// The faulting address.
    #[must_use]
    pub fn addr(&self) -> u32 {
        match *self {
            MemError::OutOfBounds { addr }
            | MemError::Misaligned { addr }
            | MemError::Device { addr } => addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr } => write!(f, "physical address {addr:#010x} unmapped"),
            MemError::Misaligned { addr } => write!(f, "misaligned access at {addr:#010x}"),
            MemError::Device { addr } => write!(f, "device rejected access at {addr:#010x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Page size used throughout: 4 KiB.
pub const PAGE_SIZE: u32 = 4096;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;

/// Virtual/physical page number of an address.
#[inline]
#[must_use]
pub fn page_number(addr: u32) -> u32 {
    addr >> PAGE_SHIFT
}

/// Offset within a page.
#[inline]
#[must_use]
pub fn page_offset(addr: u32) -> u32 {
    addr & (PAGE_SIZE - 1)
}
