//! The physical address space: RAM plus memory-mapped devices.

use crate::phys::RamImage;
use crate::{MemError, PhysMemory};
use metal_trace::{EventKind, TraceHandle};

/// Base of the MMIO window. Everything below is RAM-or-fault.
pub const MMIO_BASE: u32 = 0xF000_0000;

/// A memory-mapped device.
///
/// Devices are word-addressed: the bus only forwards naturally aligned
/// 32-bit accesses (sub-word MMIO raises [`MemError::Device`]).
pub trait Device: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
    /// The interrupt line this device drives, if any (0..32).
    fn irq_line(&self) -> Option<u8>;
    /// Reads the word-sized register at byte `offset` from the window base.
    fn read(&mut self, offset: u32) -> Result<u32, MemError>;
    /// Writes the word-sized register at byte `offset`.
    fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError>;
    /// Advances device time to `cycle`.
    ///
    /// One call may advance many cycles: the pipeline does not tick
    /// the bus in cycles where no stage can move. A call must leave the
    /// device exactly as one call per intermediate cycle would have
    /// (registers, [`Device::irq_pending`], anything it reports to the
    /// host). The core samples the interrupt level only at the cycles
    /// it ticks.
    fn tick(&mut self, cycle: u64);
    /// Level-triggered interrupt output.
    fn irq_pending(&self) -> bool;
}

struct Window {
    base: u32,
    len: u32,
    device: Box<dyn Device>,
}

/// The system bus: routes physical addresses to RAM or device windows and
/// aggregates interrupt lines.
pub struct Bus {
    /// System RAM at physical address 0.
    pub ram: PhysMemory,
    windows: Vec<Window>,
    /// Event sink; disabled by default.
    pub trace: TraceHandle,
}

impl Bus {
    /// Creates a bus with `ram_bytes` of RAM and no devices.
    #[must_use]
    pub fn new(ram_bytes: usize) -> Bus {
        Bus {
            ram: PhysMemory::new(ram_bytes),
            windows: Vec::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Captures everything [`Bus::restore`] needs to rewind RAM: the
    /// pages written so far, with the page bitmap of [`PhysMemory`]. Its
    /// cost follows the pages a program touched, not the size of RAM.
    /// Device windows are *not* captured — snapshot/restore serves
    /// device-less differential runs (the fuzzer resets a machine
    /// thousands of times per second); restoring a bus with devices
    /// attached leaves the devices untouched.
    #[must_use]
    pub fn snapshot(&self) -> BusSnapshot {
        BusSnapshot {
            ram: self.ram.snapshot(),
        }
    }

    /// Restores RAM from a snapshot. Only RAM pages written since the
    /// snapshot or held in it are visited: the snapshot's pages are
    /// copied back, the others lose their storage.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a bus with a different RAM
    /// size.
    pub fn restore(&mut self, snap: &BusSnapshot) {
        self.ram.restore(&snap.ram);
    }

    /// Maps `device` at `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the window overlaps RAM or an existing window.
    pub fn attach(&mut self, base: u32, len: u32, device: Box<dyn Device>) {
        assert!(
            base >= MMIO_BASE || (base as u64 >= self.ram.size() as u64),
            "device window overlaps RAM"
        );
        for w in &self.windows {
            let disjoint = base + len <= w.base || w.base + w.len <= base;
            assert!(disjoint, "device window overlaps {}", w.device.name());
        }
        self.windows.push(Window { base, len, device });
    }

    fn window_mut(&mut self, addr: u32) -> Option<(&mut Window, u32)> {
        self.windows
            .iter_mut()
            .find(|w| addr >= w.base && addr < w.base + w.len)
            .map(|w| {
                let off = addr - w.base;
                (w, off)
            })
    }

    /// Reads a word.
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        if self.ram.contains(addr, 4) {
            return self.ram.read_u32(addr);
        }
        match self.window_mut(addr) {
            Some((w, off)) => {
                if !addr.is_multiple_of(4) {
                    return Err(MemError::Misaligned { addr });
                }
                let result = w.device.read(off);
                self.trace
                    .emit(EventKind::MmioAccess { addr, write: false });
                result
            }
            None => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// Writes a word.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if self.ram.contains(addr, 4) {
            return self.ram.write_u32(addr, value);
        }
        match self.window_mut(addr) {
            Some((w, off)) => {
                if !addr.is_multiple_of(4) {
                    return Err(MemError::Misaligned { addr });
                }
                let result = w.device.write(off, value);
                self.trace.emit(EventKind::MmioAccess { addr, write: true });
                result
            }
            None => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// Reads a half-word (RAM only; devices are word-addressed).
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, MemError> {
        if self.ram.contains(addr, 2) {
            return self.ram.read_u16(addr);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Reads a byte (RAM only; devices are word-addressed).
    pub fn read_u8(&mut self, addr: u32) -> Result<u8, MemError> {
        if self.ram.contains(addr, 1) {
            return self.ram.read_u8(addr);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Writes a half-word (RAM only).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        if self.ram.contains(addr, 2) {
            return self.ram.write_u16(addr, value);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Writes a byte (RAM only).
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        if self.ram.contains(addr, 1) {
            return self.ram.write_u8(addr, value);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Advances all devices to `cycle` and returns the level-triggered
    /// interrupt bitmap (bit N set = IRQ line N asserted).
    pub fn tick(&mut self, cycle: u64) -> u32 {
        let mut pending = 0u32;
        for w in &mut self.windows {
            w.device.tick(cycle);
            if w.device.irq_pending() {
                if let Some(line) = w.device.irq_line() {
                    pending |= 1 << line;
                }
            }
        }
        pending
    }

    /// Current interrupt bitmap without advancing time.
    #[must_use]
    pub fn irq_bitmap(&self) -> u32 {
        let mut pending = 0u32;
        for w in &self.windows {
            if w.device.irq_pending() {
                if let Some(line) = w.device.irq_line() {
                    pending |= 1 << line;
                }
            }
        }
        pending
    }

    /// Borrows an attached device by name for host-side inspection.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut (dyn Device + 'static)> {
        self.windows
            .iter_mut()
            .find(|w| w.device.name() == name)
            .map(move |w| &mut *w.device)
    }
}

/// A point-in-time copy of the bus's written RAM pages (see
/// [`Bus::snapshot`]).
#[derive(Clone, Debug)]
pub struct BusSnapshot {
    ram: RamImage,
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bus(ram = {} bytes, devices = [", self.ram.size())?;
        for w in &self.windows {
            write!(f, "{}@{:#x} ", w.device.name(), w.base)?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial one-register device for bus routing tests.
    struct Scratch {
        value: u32,
        irq: bool,
    }

    impl Device for Scratch {
        fn name(&self) -> &'static str {
            "scratch"
        }
        fn irq_line(&self) -> Option<u8> {
            Some(5)
        }
        fn read(&mut self, offset: u32) -> Result<u32, MemError> {
            match offset {
                0 => Ok(self.value),
                _ => Err(MemError::Device { addr: offset }),
            }
        }
        fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
            match offset {
                0 => {
                    self.value = value;
                    self.irq = value == 0xFEED;
                    Ok(())
                }
                _ => Err(MemError::Device { addr: offset }),
            }
        }
        fn tick(&mut self, _cycle: u64) {}
        fn irq_pending(&self) -> bool {
            self.irq
        }
    }

    fn bus() -> Bus {
        let mut b = Bus::new(4096);
        b.attach(
            MMIO_BASE,
            0x100,
            Box::new(Scratch {
                value: 7,
                irq: false,
            }),
        );
        b
    }

    #[test]
    fn ram_routing() {
        let mut b = bus();
        b.write_u32(0x10, 0xABCD).unwrap();
        assert_eq!(b.read_u32(0x10), Ok(0xABCD));
        assert_eq!(b.read_u8(0x10), Ok(0xCD));
    }

    #[test]
    fn device_routing() {
        let mut b = bus();
        assert_eq!(b.read_u32(MMIO_BASE), Ok(7));
        b.write_u32(MMIO_BASE, 42).unwrap();
        assert_eq!(b.read_u32(MMIO_BASE), Ok(42));
        assert_eq!(b.read_u32(MMIO_BASE + 8), Err(MemError::Device { addr: 8 }));
    }

    #[test]
    fn unmapped_hole_faults() {
        let mut b = bus();
        assert_eq!(
            b.read_u32(0x8000),
            Err(MemError::OutOfBounds { addr: 0x8000 })
        );
        assert_eq!(
            b.read_u32(MMIO_BASE + 0x1000),
            Err(MemError::OutOfBounds {
                addr: MMIO_BASE + 0x1000
            })
        );
    }

    #[test]
    fn subword_mmio_rejected() {
        let mut b = bus();
        assert_eq!(
            b.read_u8(MMIO_BASE),
            Err(MemError::Device { addr: MMIO_BASE })
        );
        assert_eq!(
            b.write_u16(MMIO_BASE, 1),
            Err(MemError::Device { addr: MMIO_BASE })
        );
    }

    #[test]
    fn irq_aggregation() {
        let mut b = bus();
        assert_eq!(b.tick(0), 0);
        b.write_u32(MMIO_BASE, 0xFEED).unwrap();
        assert_eq!(b.tick(1), 1 << 5);
        assert_eq!(b.irq_bitmap(), 1 << 5);
    }

    #[test]
    fn snapshot_restore_roundtrips_ram_and_marks() {
        let mut b = Bus::new(3 * 4096);
        b.write_u32(0x10, 0xAAAA).unwrap();
        let snap = b.snapshot();
        // Diverge: overwrite a saved page, write a page the snapshot
        // does not hold.
        b.write_u32(0x10, 0xBBBB).unwrap();
        b.write_u32(0x2080, 2).unwrap();
        b.restore(&snap);
        assert_eq!(b.read_u32(0x10), Ok(0xAAAA));
        assert_eq!(b.read_u32(0x2080), Ok(0));
        // The restored page set is the snapshot's.
        let pages: Vec<u32> = b.ram.nonzero_pages().map(|(page, _)| page).collect();
        assert_eq!(pages, [0]);
    }

    #[test]
    #[should_panic(expected = "RAM size mismatch")]
    fn restore_rejects_mismatched_geometry() {
        let small = Bus::new(2048);
        let mut big = Bus::new(4096);
        big.restore(&small.snapshot());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_windows_rejected() {
        let mut b = bus();
        b.attach(
            MMIO_BASE + 0x80,
            0x100,
            Box::new(Scratch {
                value: 0,
                irq: false,
            }),
        );
    }
}
