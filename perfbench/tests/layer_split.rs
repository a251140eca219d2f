//! The traced run's layer split: Metal dispatch costs more host time
//! per guest instruction than the baseline machine, and a fault case is
//! mostly whole-RAM work. Timing comparisons, so this file is its own
//! test binary and does not share the processor with the other
//! self-tests.

use perfbench::{run, Options, Workload};

/// Traced run pairs compared for the guest workloads.
const PAIRS: usize = 5;

fn layer(workload: Workload, name: &str) -> f64 {
    let out = run(&Options {
        workload,
        seed: perfbench::expect::DEFAULT_SEED,
        seconds: 0.0,
        trace: true,
        max_ops: Some(2),
        wrong_expectation: false,
    })
    .unwrap_or_else(|e| panic!("{} set-up failed: {e}", workload.name()));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn traced_run_reports_the_layer_split() {
    // Metal dispatch costs more host time per guest instruction than
    // the baseline machine, even on the interpreter. A shared host may
    // switch between two speeds about 1.7x apart from one run to the
    // next, more than the gap measured here, so the runs alternate,
    // each `guest_metal` run is compared with the `guest_plain` run
    // just before it, and the median of those ratios must exceed 1.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let plain = layer(Workload::GuestPlain, "interp.ns_per_insn");
            let metal = layer(Workload::GuestMetal, "interp.ns_per_insn");
            assert!(plain > 0.0, "plain {plain} ns");
            metal / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert!(
        ratios[PAIRS / 2] > 1.0,
        "metal/plain ns per insn: {ratios:?}"
    );
    // A fault case is whole-RAM work; the engines' run calls are a
    // minority of it.
    let share = layer(Workload::CampaignFault, "faultsim.engine_share");
    assert!(share > 0.0 && share < 0.5, "engine share {share}");
}
