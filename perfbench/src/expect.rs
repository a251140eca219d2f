//! Recorded outputs for the default seed.
//!
//! The tables below were produced by `perfbench --record` (which runs
//! every kernel and every fault-campaign configuration once at
//! [`DEFAULT_SEED`] and prints this module's tables) from the code, not
//! from any saved report. With another seed only the seed-independent
//! checks apply: both engines agree, every repeat of an operation
//! reproduces its first run, fuzz campaigns find nothing, and the
//! zero-fault self-audit stays all-masked.
//!
//! A kernel's record is its pipeline result; the interpreter must match
//! it with `cycles` 0.

use crate::guest::RunResult;

/// The seed the tables below were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Class histogram of one fault campaign, in
/// [`crate::campaign::CLASSES`] order.
pub type Histogram = [u64; 7];

/// `guest_plain` kernels at the default seed.
pub const GUEST_PLAIN: &[(&str, RunResult)] = &[
    (
        "alu",
        RunResult {
            exit: 0xa704ada8,
            instret: 220008,
            cycles: 260042,
            regs: 0xcb9a6c1e74deaf52,
        },
    ),
    (
        "stride",
        RunResult {
            exit: 0x652386,
            instret: 204944,
            cycles: 901296,
            regs: 0x53c862a590dab8eb,
        },
    ),
    (
        "resident",
        RunResult {
            exit: 0x74bbc78,
            instret: 205364,
            cycles: 329172,
            regs: 0x04479e6c2fd1393c,
        },
    ),
    (
        "smc",
        RunResult {
            exit: 0xffffa146,
            instret: 4508,
            cycles: 5570,
            regs: 0xfd327ecd59308af6,
        },
    ),
];

/// `guest_metal` kernels at the default seed.
pub const GUEST_METAL: &[(&str, RunResult)] = &[
    (
        "e1_menter",
        RunResult {
            exit: 0x7530,
            instret: 90003,
            cycles: 150020,
            regs: 0xce883fe0f22aa69e,
        },
    ),
    (
        "e3_softtlb",
        RunResult {
            exit: 0x11888,
            instret: 111033,
            cycles: 204078,
            regs: 0x43a0ea4ecabbf589,
        },
    ),
    (
        "e4_stm",
        RunResult {
            exit: 0xc8,
            instret: 146805,
            cycles: 194267,
            regs: 0x6bd5e32ef6d3b942,
        },
    ),
    (
        "e9_shadowstack",
        RunResult {
            exit: 0x179,
            instret: 118864,
            cycles: 131193,
            regs: 0x1cd629ec763c267a,
        },
    ),
    (
        "e5_uintr",
        RunResult {
            exit: 0x190,
            instret: 83216,
            cycles: 133285,
            regs: 0xc29fde3dbf01d719,
        },
    ),
];

/// `campaign_fault` histograms at the default seed, by configuration
/// index.
pub const CAMPAIGN_FAULT: &[Histogram] = &[
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0, 0],
    [4, 0, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [1, 2, 0, 0, 1, 0, 0],
    [3, 0, 0, 0, 1, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [2, 1, 0, 0, 1, 0, 0],
    [2, 2, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 2, 0, 0],
    [4, 0, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [4, 0, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 2, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [3, 0, 0, 0, 1, 0, 0],
    [2, 0, 0, 1, 1, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 3, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 4, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 4, 0, 0],
    [2, 0, 0, 0, 2, 0, 0],
];
