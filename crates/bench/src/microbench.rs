//! A tiny self-contained microbenchmark runner (no external harness).
//!
//! Each bench target is a plain `fn main()` (`harness = false` in the
//! manifest) that calls [`bench_fn`] per case. The runner warms up,
//! doubles the iteration count until a batch runs long enough to
//! measure, then reports the *minimum* nanoseconds per iteration over
//! several batches — the minimum is the estimate least contaminated by
//! scheduler and frequency noise. For A/B comparisons (overhead
//! claims), [`bench_pair`] interleaves the two sides batch-by-batch so
//! slow drift in the host cancels instead of biasing one side.

use std::time::{Duration, Instant};

/// Re-export of the optimizer barrier benches wrap results in.
pub use std::hint::black_box;

/// Minimum wall-clock time a measured batch must take.
const MIN_BATCH: Duration = Duration::from_millis(100);

/// Upper bound on iterations per batch (cheap bodies stop doubling
/// here).
const MAX_ITERS: u64 = 1 << 22;

/// Measured batches per reported number.
const SAMPLES: u32 = 9;

/// True when `METAL_BENCH_FAST` is set (to anything but `0`): bench
/// bodies run exactly once, uncalibrated and untimed. This is the smoke
/// mode `scripts/bench_smoke.sh` uses — it proves every bench still
/// assembles, runs, and halts, without paying measurement time in CI.
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var("METAL_BENCH_FAST").is_ok_and(|v| v != "0")
}

/// Doubles until one batch of `f` takes at least [`MIN_BATCH`];
/// returns the iteration count.
fn calibrate(f: &mut impl FnMut()) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= MIN_BATCH || iters >= MAX_ITERS {
            return iters;
        }
        iters *= 2;
    }
}

/// One timed batch, in nanoseconds per iteration.
fn sample(f: &mut impl FnMut(), iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Times `f`, printing `group/name: <iters> iters, <ns> ns/iter`.
///
/// Returns the minimum measured nanoseconds per iteration so callers
/// can make comparative assertions in the same run.
pub fn bench_fn(group: &str, name: &str, mut f: impl FnMut()) -> f64 {
    if fast_mode() {
        f();
        println!("{group}/{name}: fast mode, 1 iter (unmeasured)");
        return 0.0;
    }
    for _ in 0..3 {
        f(); // warmup
    }
    let iters = calibrate(&mut f);
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        best = best.min(sample(&mut f, iters));
    }
    println!("{group}/{name}: {iters} iters, {best:.1} ns/iter");
    best
}

/// The result of an interleaved A/B comparison.
pub struct Pair {
    /// Minimum ns/iter for the first body.
    pub a: f64,
    /// Minimum ns/iter for the second body.
    pub b: f64,
}

/// Times two bodies with interleaved batches (a, b, a, b, …) at a
/// common iteration count, printing both. Use for A/B comparisons
/// where host drift between two sequential [`bench_fn`] calls would
/// favour one side.
pub fn bench_pair(
    group: &str,
    name_a: &str,
    mut a: impl FnMut(),
    name_b: &str,
    mut b: impl FnMut(),
) -> Pair {
    if fast_mode() {
        a();
        b();
        println!("{group}/{name_a} vs {name_b}: fast mode, 1 iter each (unmeasured)");
        return Pair { a: 0.0, b: 0.0 };
    }
    for _ in 0..3 {
        a();
        b(); // warmup
    }
    let iters = calibrate(&mut a).max(calibrate(&mut b));
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        best_a = best_a.min(sample(&mut a, iters));
        best_b = best_b.min(sample(&mut b, iters));
    }
    println!("{group}/{name_a}: {iters} iters, {best_a:.1} ns/iter");
    println!("{group}/{name_b}: {iters} iters, {best_b:.1} ns/iter");
    Pair {
        a: best_a,
        b: best_b,
    }
}
