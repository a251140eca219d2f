//! A cycle-compare timer with an interrupt line.

use crate::bus::Device;
use crate::devices::map::TIMER_IRQ;
use crate::MemError;

const REG_CYCLE_LO: u32 = 0x0;
const REG_CYCLE_HI: u32 = 0x4;
const REG_CMP_LO: u32 = 0x8;
const REG_CMP_HI: u32 = 0xC;
const REG_CTRL: u32 = 0x10;

/// A timer that raises its IRQ when the cycle counter reaches the compare
/// value (while enabled). Writing either compare register rearms it.
pub struct Timer {
    cycle: u64,
    cmp: u64,
    enabled: bool,
    fired: bool,
}

impl Timer {
    /// Creates a disabled timer.
    #[must_use]
    pub fn new() -> Timer {
        Timer {
            cycle: 0,
            cmp: u64::MAX,
            enabled: false,
            fired: false,
        }
    }
}

impl Default for Timer {
    fn default() -> Timer {
        Timer::new()
    }
}

impl Device for Timer {
    fn name(&self) -> &'static str {
        "timer"
    }

    fn irq_line(&self) -> Option<u8> {
        Some(TIMER_IRQ)
    }

    fn read(&mut self, offset: u32) -> Result<u32, MemError> {
        match offset {
            REG_CYCLE_LO => Ok(self.cycle as u32),
            REG_CYCLE_HI => Ok((self.cycle >> 32) as u32),
            REG_CMP_LO => Ok(self.cmp as u32),
            REG_CMP_HI => Ok((self.cmp >> 32) as u32),
            REG_CTRL => Ok(u32::from(self.enabled)),
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
        match offset {
            // Writing the low word clears the high word, so a 32-bit
            // deadline needs only one store; write HI afterwards for
            // 64-bit deadlines.
            REG_CMP_LO => {
                self.cmp = u64::from(value);
                self.fired = false;
                Ok(())
            }
            REG_CMP_HI => {
                self.cmp = (self.cmp & 0xFFFF_FFFF) | (u64::from(value) << 32);
                self.fired = false;
                Ok(())
            }
            REG_CTRL => {
                self.enabled = value & 1 != 0;
                if !self.enabled {
                    self.fired = false;
                }
                Ok(())
            }
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn tick(&mut self, cycle: u64) {
        self.cycle = cycle;
        if self.enabled && cycle >= self.cmp {
            self.fired = true;
        }
    }

    fn irq_pending(&self) -> bool {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_compare() {
        let mut t = Timer::new();
        t.write(REG_CMP_LO, 100).unwrap();
        t.write(REG_CMP_HI, 0).unwrap();
        t.write(REG_CTRL, 1).unwrap();
        t.tick(99);
        assert!(!t.irq_pending());
        t.tick(100);
        assert!(t.irq_pending());
    }

    #[test]
    fn rearm_clears_irq() {
        let mut t = Timer::new();
        t.write(REG_CMP_LO, 10).unwrap();
        t.write(REG_CTRL, 1).unwrap();
        t.tick(10);
        assert!(t.irq_pending());
        t.write(REG_CMP_LO, 50).unwrap();
        assert!(!t.irq_pending());
        t.tick(49);
        assert!(!t.irq_pending());
        t.tick(50);
        assert!(t.irq_pending());
    }

    #[test]
    fn disabled_never_fires() {
        let mut t = Timer::new();
        t.write(REG_CMP_LO, 0).unwrap();
        t.tick(1000);
        assert!(!t.irq_pending());
    }

    /// The observable state of a timer: every register and the IRQ.
    fn observe(t: &mut Timer) -> (Vec<Result<u32, MemError>>, bool) {
        let regs = [REG_CYCLE_LO, REG_CYCLE_HI, REG_CMP_LO, REG_CMP_HI, REG_CTRL];
        (regs.iter().map(|&r| t.read(r)).collect(), t.irq_pending())
    }

    #[test]
    fn one_jump_equals_a_tick_per_cycle() {
        let armed = || {
            let mut t = Timer::new();
            t.write(REG_CMP_LO, 100).unwrap();
            t.write(REG_CTRL, 1).unwrap();
            t.tick(1);
            t
        };
        // Ends before, at, just after and well past the compare.
        for end in [50, 99, 100, 101, 150] {
            let mut stepped = armed();
            for cycle in 2..=end {
                stepped.tick(cycle);
            }
            let mut jumped = armed();
            jumped.tick(end);
            assert_eq!(observe(&mut stepped), observe(&mut jumped), "end {end}");
            assert_eq!(jumped.irq_pending(), end >= 100);
        }
    }

    #[test]
    fn cycle_readable() {
        let mut t = Timer::new();
        t.tick(0x1_2345_6789);
        assert_eq!(t.read(REG_CYCLE_LO), Ok(0x2345_6789));
        assert_eq!(t.read(REG_CYCLE_HI), Ok(1));
    }
}
