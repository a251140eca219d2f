//! The coverage bitmap: compact feedback derived from trace events.
//!
//! Coverage features are hashed into a fixed bitmap (16 Ki bits, 2 KiB)
//! in the classic coverage-guided style: a case is *interesting* — and
//! enters the corpus — when it sets at least one bit no earlier case of
//! the campaign set. Features come from the `metal-trace` events the
//! instrumented engines already emit, so the fuzzer observes the
//! machine exactly as the observability layer does:
//!
//! * trap causes taken (baseline and delegated, per cause code);
//! * Metal transition points (`menter`/`mexit` per entry and cause) and
//!   *transition edges* (consecutive transition pairs);
//! * stall kinds, interrupt injections, hardware TLB refills;
//! * cache and TLB hit/miss *edges* (previous outcome → current);
//! * MRAM data reads/writes and decode-slot replacements;
//! * dispatch tags retired and the halt shape.

use metal_trace::{Event, EventKind};

/// Number of bits in the map.
const MAP_BITS: usize = 1 << 14;

/// A fixed-size coverage bitmap.
#[derive(Clone, Debug)]
pub struct CoverageMap {
    bits: Vec<u64>,
}

impl Default for CoverageMap {
    fn default() -> CoverageMap {
        CoverageMap::new()
    }
}

/// FNV-1a over a list of words — stable, dependency-free feature hash.
fn hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> CoverageMap {
        CoverageMap {
            bits: vec![0; MAP_BITS / 64],
        }
    }

    /// Sets the bit for a feature; true if it was previously clear.
    pub fn observe(&mut self, feature: u64) -> bool {
        let bit = (feature as usize) & (MAP_BITS - 1);
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let new = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        new
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// ORs another map in; true if any new bit appeared.
    pub fn merge(&mut self, other: &CoverageMap) -> bool {
        let mut new = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            new |= *a | *b != *a;
            *a |= *b;
        }
        new
    }

    /// Feeds one run's trace events (plus the retired-tag bitmask and a
    /// halt discriminant) into the map; true if anything new appeared.
    pub fn observe_run(&mut self, events: &[Event], tags: u32, halt_kind: u32) -> bool {
        let mut new = false;
        // Edge state: previous transition-ish feature, previous cache
        // and TLB outcomes.
        let mut prev_transition: u64 = 0;
        let mut prev_cache: [u64; 2] = [0, 0];
        let mut prev_tlb: u64 = 0;
        for ev in events {
            match ev.kind {
                EventKind::Trap { code, .. } => {
                    let f = hash(&[1, u64::from(code)]);
                    new |= self.observe(f);
                    new |= self.observe(hash(&[100, prev_transition, f]));
                    prev_transition = f;
                }
                EventKind::TrapDelegated { entry, layer, code } => {
                    let f = hash(&[2, u64::from(entry), u64::from(layer), u64::from(code)]);
                    new |= self.observe(f);
                    new |= self.observe(hash(&[100, prev_transition, f]));
                    prev_transition = f;
                }
                EventKind::MEnter { entry, cause, .. } => {
                    let f = hash(&[3, u64::from(entry), cause as u64]);
                    new |= self.observe(f);
                    new |= self.observe(hash(&[100, prev_transition, f]));
                    prev_transition = f;
                }
                EventKind::MExit { entry, .. } => {
                    let f = hash(&[4, u64::from(entry)]);
                    new |= self.observe(f);
                    new |= self.observe(hash(&[100, prev_transition, f]));
                    prev_transition = f;
                }
                EventKind::Stall { kind, .. } => {
                    new |= self.observe(hash(&[5, kind as u64]));
                }
                EventKind::InterruptInjected { line } => {
                    new |= self.observe(hash(&[6, u64::from(line)]));
                }
                EventKind::CacheAccess { which, hit, .. } => {
                    let w = which as usize & 1;
                    let cur = u64::from(hit);
                    new |= self.observe(hash(&[7, w as u64, prev_cache[w], cur]));
                    prev_cache[w] = cur;
                }
                EventKind::TlbLookup { outcome, .. } => {
                    let cur = outcome as u64;
                    new |= self.observe(hash(&[8, prev_tlb, cur]));
                    prev_tlb = cur;
                }
                EventKind::HwRefill { .. } => {
                    new |= self.observe(hash(&[9]));
                }
                EventKind::MramData { write, .. } => {
                    new |= self.observe(hash(&[11, u64::from(write)]));
                }
                EventKind::DecodeReplace { .. } => {
                    new |= self.observe(hash(&[12]));
                }
                _ => {}
            }
        }
        for tag in 0..6u32 {
            if tags & (1 << tag) != 0 {
                new |= self.observe(hash(&[13, u64::from(tag)]));
            }
        }
        new |= self.observe(hash(&[14, u64::from(halt_kind)]));
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_trace::{CacheKind, TransitionCause};

    fn ev(kind: EventKind) -> Event {
        Event { cycle: 0, kind }
    }

    #[test]
    fn observe_sets_and_reports_new() {
        let mut map = CoverageMap::new();
        assert!(map.observe(42));
        assert!(!map.observe(42));
        assert_eq!(map.count(), 1);
        // Aliasing: features reduce mod the map size.
        assert!(!map.observe(42 + MAP_BITS as u64));
    }

    #[test]
    fn merge_reports_novelty() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        a.observe(1);
        b.observe(1);
        assert!(!a.merge(&b), "no new bits");
        b.observe(2);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn runs_with_different_behavior_hit_different_bits() {
        let mut map = CoverageMap::new();
        let quiet = [ev(EventKind::CacheAccess {
            which: CacheKind::ICache,
            addr: 0,
            hit: true,
        })];
        assert!(map.observe_run(&quiet, 0b1, 0));
        assert!(
            !map.observe_run(&quiet, 0b1, 0),
            "identical behavior is not novel"
        );
        let transition = [
            ev(EventKind::MEnter {
                entry: 3,
                cause: TransitionCause::Call,
                pc: 0,
            }),
            ev(EventKind::MExit {
                entry: 3,
                target: 8,
            }),
        ];
        assert!(map.observe_run(&transition, 0b1, 0));
    }

    #[test]
    fn transition_edges_are_order_sensitive() {
        let enter = ev(EventKind::MEnter {
            entry: 0,
            cause: TransitionCause::Call,
            pc: 0,
        });
        let exit = ev(EventKind::MExit {
            entry: 0,
            target: 4,
        });
        let mut ab = CoverageMap::new();
        ab.observe_run(&[enter, exit], 0, 0);
        let mut ba = CoverageMap::new();
        ba.observe_run(&[exit, enter], 0, 0);
        // Same events, different order: the edge features differ, so
        // each map holds bits the other lacks.
        let mut merged = ab.clone();
        assert!(merged.merge(&ba), "reversed order contributed new bits");
    }
}
