//! Property-based differential test *with Metal in the loop*: random
//! guest programs that call randomly generated (verified) mroutines
//! must leave the pipelined core and the reference interpreter in
//! identical architectural state. A second generator produces
//! self-modifying programs that patch already-executed code, pinning
//! the decode cache's store-time invalidation on both engines.

mod common;

use common::{boot_metal_engine, both_engines_with, CORE_LIMIT};
use metal_core::{Metal, MetalBuilder};
// The generators live in the shared `metal-fuzz` grammar now; these
// tests pin the grammar's fixed-seed behavior while `mfuzz` explores
// fresh seeds from the same code.
use metal_fuzz::grammar::{rand_guest, rand_routine, smc_guest};
use metal_isa::reg::Reg;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Core, HaltReason};
use metal_util::Rng;

#[test]
fn engines_agree_on_metal_programs() {
    let mut rng = Rng::new(0x3e7a_0001);
    for case in 0..96 {
        let r0 = rand_routine(&mut rng);
        let r1 = rand_routine(&mut rng);
        let guest = rand_guest(&mut rng);
        let builder = MetalBuilder::new()
            .routine(0, "r0", &r0)
            .routine(1, "r1", &r1);
        let label = format!("case {case} (r0:\n{r0}\nr1:\n{r1})");
        let pair = both_engines_with(CoreConfig::default(), builder, &guest, &label);
        assert_eq!(
            pair.core.state.regs.get(Reg::A0),
            pair.interp.state.regs.get(Reg::A0)
        );
        // Metal-side state agrees too: MRAM data and the MReg file.
        assert_eq!(pair.core.hooks.mram.data(), pair.interp.hooks.mram.data());
        for m in 0..8 {
            assert_eq!(pair.core.hooks.mregs.get(m), pair.interp.hooks.mregs.get(m));
        }
        assert_eq!(pair.core.hooks.stats, pair.interp.hooks.stats);
    }
}

#[test]
fn engines_agree_on_self_modifying_code() {
    let mut rng = Rng::new(0x0054_C0DE);
    for case in 0..24 {
        let (guest, expected) = smc_guest(&mut rng);
        let label = format!("smc case {case}");
        let pair = both_engines_with(
            CoreConfig::default(),
            MetalBuilder::new().routine(0, "noop", "mexit"),
            &guest,
            &label,
        );
        assert_eq!(
            pair.core.state.regs.get(Reg::A0),
            expected,
            "{label}: stale decode survived the store\nguest:\n{guest}"
        );
        // The store to the already-decoded word must have dropped its
        // cached decode on both engines: one invalidation from
        // load_segments, at least one from the patch.
        for (name, dc) in [
            ("core", &pair.core.state.decode_cache),
            ("interp", &pair.interp.state.decode_cache),
        ] {
            assert!(
                dc.invalidations() >= 2,
                "{label}: {name} saw {} invalidations, expected >= 2",
                dc.invalidations()
            );
        }
    }
}

#[test]
fn decode_cache_does_not_perturb_timing_under_smc() {
    // Zero-perturbation: the decode cache is a host-side optimization,
    // so switching it off must reproduce identical registers AND
    // identical cycle counts, even under self-modifying code.
    let mut rng = Rng::new(0xD15A_B1ED);
    for case in 0..8 {
        let (guest, expected) = smc_guest(&mut rng);
        let program = common::assemble_flat(&guest);
        let run = |decode_cache: bool| -> Core<Metal> {
            let config = CoreConfig {
                decode_cache,
                ..CoreConfig::default()
            };
            let builder = MetalBuilder::new().routine(0, "noop", "mexit");
            let (core, halt) =
                boot_metal_engine::<Core<Metal>>(builder, config, &program, CORE_LIMIT);
            assert!(
                matches!(halt, Some(HaltReason::Ebreak { .. })),
                "case {case}: halted with {halt:?}"
            );
            core
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.state.regs.get(Reg::A0), expected, "case {case}");
        assert_eq!(
            on.state.regs.snapshot(),
            off.state.regs.snapshot(),
            "case {case}: cache on/off diverged architecturally"
        );
        assert_eq!(
            on.state.perf.cycles, off.state.perf.cycles,
            "case {case}: decode cache perturbed cycle count"
        );
        assert!(on.state.decode_cache.enabled());
        assert!(!off.state.decode_cache.enabled());
        assert_eq!(off.state.decode_cache.hits(), 0);
    }
}
