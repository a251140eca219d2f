//! Skipping frozen cycles is invisible: `Core::run`, `Engine::run_fuel`
//! and `Core::step_insns` must leave the machine exactly where a loop
//! of `Core::tick`, one cycle at a time, leaves it.
//!
//! Each program runs on two identical machines. The subject is driven
//! in seeded random chunks through the skipping entry points; the
//! reference ticks through the same chunks cycle by cycle. At every
//! chunk boundary the two must agree on every performance counter
//! (`mip_snapshot` included), the registers, the CSRs, the halt reason,
//! the cache and TLB counters, the fetch PC, quiescence and the trace
//! events with their cycle stamps.

use metal_core::{Metal, MetalBuilder};
use metal_ext::uintr;
use metal_fuzz::grammar::{rand_guest, rand_routine, smc_guest};
use metal_isa::Insn;
use metal_mem::devices::{map, Nic, NicHandle, Timer};
use metal_pipeline::{
    Core, CoreConfig, CsrFile, CustomExec, Engine, HaltReason, Hooks, MachineState, NoHooks,
    PerfCounters, Trap,
};
use metal_trace::{Event, TraceConfig, TraceHandle};
use metal_util::Rng;

/// The livelock window of `Core::run`, pinned here with its message.
const LIVELOCK_CYCLES: u64 = 100_000;

/// Everything compared at a chunk boundary, trace aside.
#[derive(Debug, PartialEq)]
struct Observed {
    perf: PerfCounters,
    regs: [u32; 32],
    csr: CsrFile,
    halted: Option<HaltReason>,
    /// icache accesses/misses, dcache accesses/misses, TLB lookups/hits.
    caches: [u64; 6],
    fetch_pc: u32,
    quiescent: bool,
}

fn observe<H: Hooks>(core: &Core<H>) -> Observed {
    let s = &core.state;
    Observed {
        perf: s.perf.clone(),
        regs: s.regs.snapshot(),
        csr: s.csr.clone(),
        halted: s.halted.clone(),
        caches: [
            s.icache.accesses,
            s.icache.misses,
            s.dcache.accesses,
            s.dcache.misses,
            s.tlb.lookups,
            s.tlb.hits,
        ],
        fetch_pc: core.fetch_pc(),
        quiescent: core.is_quiescent(),
    }
}

fn events<H: Hooks>(core: &Core<H>) -> Vec<Event> {
    core.state.trace.events()
}

/// `Core::run` one cycle at a time: the loop `run` ran before it
/// learned to skip. None of the programs here executes `wfi`, so the
/// livelock check needs no `wfi` exemption.
fn reference_run<H: Hooks>(core: &mut Core<H>, max_cycles: u64) {
    let start = core.state.perf.cycles;
    let mut last_retire = (core.state.perf.cycles, core.state.perf.instret);
    while core.state.halted.is_none() && core.state.perf.cycles - start < max_cycles {
        core.tick();
        if core.state.perf.instret != last_retire.1 {
            last_retire = (core.state.perf.cycles, core.state.perf.instret);
        } else if core.state.perf.cycles - last_retire.0 > LIVELOCK_CYCLES {
            core.state.halted = Some(HaltReason::Fatal(format!(
                "livelock: no instruction retired for 100000 cycles near pc {:#010x}",
                core.fetch_pc()
            )));
        }
    }
}

/// `Core::step_insns` one cycle at a time.
fn reference_step<H: Hooks>(core: &mut Core<H>, n: u64) {
    let target = core.state.perf.instret + n;
    while core.state.halted.is_none() && core.state.perf.instret < target {
        core.tick();
    }
}

/// Attaches a fresh trace ring, so events can be compared.
fn traced<H: Hooks>(mut core: Core<H>) -> Core<H> {
    core.state
        .set_trace(TraceHandle::enabled(TraceConfig { capacity: 1 << 16 }));
    core
}

fn assert_same<H: Hooks>(subject: &Core<H>, reference: &Core<H>, label: &str) {
    assert_eq!(observe(subject), observe(reference), "{label}");
    assert!(
        events(subject) == events(reference),
        "{label}: trace events differ"
    );
}

/// Drives `subject` through seeded random chunks and `reference` through
/// the same chunks cycle by cycle, comparing at every boundary, until
/// both halt. With `fuel`, a `run_fuel` call at a random chunk ends the
/// run, at the guest's halt or at a timeout.
fn drive<H: Hooks>(
    subject: &mut Core<H>,
    reference: &mut Core<H>,
    seed: u64,
    fuel: bool,
    label: &str,
) {
    let mut rng = Rng::new(seed);
    let fuel_chunk = if fuel { rng.range_u32(1, 100) } else { 0 };
    let mut chunks = 0;
    while subject.state.halted.is_none() {
        chunks += 1;
        assert!(chunks < 100_000, "{label}: no halt");
        let what = if chunks == fuel_chunk {
            let n = u64::from(rng.range_u32(1, 20_000));
            subject.run_fuel(n);
            reference_run(reference, n);
            if reference.state.halted.is_none() {
                reference.state.halted = Some(HaltReason::Timeout);
            }
            format!("run_fuel({n})")
        } else if rng.chance() {
            let n = u64::from(rng.range_u32(1, 300));
            subject.run(n);
            reference_run(reference, n);
            format!("run({n})")
        } else {
            let n = u64::from(rng.range_u32(1, 40));
            subject.step_insns(n);
            reference_step(reference, n);
            format!("step_insns({n})")
        };
        assert_same(
            subject,
            reference,
            &format!("{label}, chunk {chunks} {what}"),
        );
    }
    if !fuel {
        assert!(
            matches!(subject.state.halted, Some(HaltReason::Ebreak { .. })),
            "{label}: halted with {:?}",
            subject.state.halted
        );
    }
}

/// Runs `program` from address 0 on two machines from `make`, under
/// three chunk seeds; the last two end in `run_fuel`.
fn check<H: Hooks>(make: impl Fn() -> Core<H>, program: &[u8], label: &str) {
    for seed in 0..3 {
        let boot = || {
            let mut core = traced(make());
            core.load_segments([(0u32, program)], 0);
            core
        };
        let (mut subject, mut reference) = (boot(), boot());
        drive(
            &mut subject,
            &mut reference,
            0x5717_0000 + seed,
            seed > 0,
            label,
        );
    }
}

fn assemble(src: &str) -> Vec<u8> {
    metal_asm::assemble_at(src, 0)
        .unwrap_or_else(|e| panic!("guest assembles: {e}\n{src}"))
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

fn plain() -> Core<NoHooks> {
    Core::new(CoreConfig::default(), NoHooks)
}

#[test]
fn dcache_missing_stride() {
    // 64-byte stride over 64 KiB: every access misses the 4 KiB dcache.
    let program = assemble(
        r"
        li s1, 0x10000
        li s2, 0
        li s3, 0x10000
        li a0, 0
    loop:
        add t1, s1, s2
        lw t2, 0(t1)
        addi t2, t2, 3
        sw t2, 0(t1)
        add a0, a0, t2
        addi s2, s2, 64
        blt s2, s3, loop
        ebreak
        ",
    );
    check(plain, &program, "stride");
}

#[test]
fn mul_div() {
    let program = assemble(
        r"
        li s1, 200
        li a0, 7
        li a1, 3
    loop:
        mul a0, a0, a1
        div a2, a0, a1
        rem a3, a0, s1
        add a0, a2, a3
        addi a0, a0, 5
        addi s1, s1, -1
        bnez s1, loop
        ebreak
        ",
    );
    check(plain, &program, "muldiv");
}

#[test]
fn icache_misses() {
    // 3000 straight-line instructions (12 KiB, three times the icache),
    // run twice: every line misses on both passes.
    let mut src = String::from("li s1, 2\nli a0, 0\nagain:\n");
    for i in 0..3000 {
        src.push_str(&format!("addi a0, a0, {}\n", i % 7));
    }
    src.push_str("addi s1, s1, -1\nbeqz s1, done\nj again\ndone:\nebreak\n");
    check(plain, &assemble(&src), "icache");
}

#[test]
fn random_metal_guests() {
    let mut rng = Rng::new(0x5717_0001);
    for case in 0..12 {
        let builder = MetalBuilder::new()
            .routine(0, "r0", &rand_routine(&mut rng))
            .routine(1, "r1", &rand_routine(&mut rng));
        let guest = rand_guest(&mut rng);
        let make = || {
            builder
                .clone()
                .build_core(CoreConfig::default())
                .expect("machine builds")
        };
        check(
            make,
            &assemble(&guest),
            &format!("metal case {case}\n{guest}"),
        );
    }
}

#[test]
fn self_modifying_code() {
    let mut rng = Rng::new(0x5717_0002);
    for case in 0..6 {
        let (guest, _) = smc_guest(&mut rng);
        let make = || {
            MetalBuilder::new()
                .routine(0, "noop", "mexit")
                .build_core(CoreConfig::default())
                .expect("machine builds")
        };
        check(make, &assemble(&guest), &format!("smc case {case}"));
    }
}

/// A Metal core with the user-level interrupt kit on `line`.
fn uintr_core(line: u8) -> Core<Metal> {
    uintr::install(MetalBuilder::new(), line)
        .build_core(CoreConfig::default())
        .expect("machine builds")
}

#[test]
fn timer_interrupts() {
    // E5: a periodic timer delivered to a userspace handler, with
    // divides in the work loop so the timer fires inside stalls.
    let program = assemble(&format!(
        r"
        li t0, 1
        csrw mie, t0
        la a0, handler
        menter {register}
        li s1, 0
        li s2, 1000
        li s3, 7
        li s4, {timer}
        lw t0, 0(s4)
        addi t0, t0, 97
        sw t0, 8(s4)
        li t0, 1
        sw t0, 16(s4)
        csrrsi zero, mstatus, 8
    work:
        div s2, s2, s3
        addi s2, s2, 1001
        li t0, 12
        blt s1, t0, work
        sw zero, 16(s4)
        csrrci zero, mstatus, 8
        mv a0, s1
        ebreak
    handler:
        li s5, {timer}
        lw s6, 0(s5)
        addi s6, s6, 97
        sw s6, 8(s5)
        addi s1, s1, 1
        menter {uret}
        ",
        register = uintr::entries::REGISTER,
        uret = uintr::entries::URET,
        timer = map::TIMER_BASE,
    ));
    let make = || {
        let mut core = uintr_core(map::TIMER_IRQ);
        core.state
            .bus
            .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
        core
    };
    check(make, &program, "timer");
}

#[test]
fn nic_arrivals() {
    let program = assemble(&format!(
        r"
        li t0, 2
        csrw mie, t0
        csrrsi zero, mstatus, 8
        la a0, handler
        menter {register}
        li s1, 0
        li s2, 1000
        li s3, 7
    work:
        div s2, s2, s3
        addi s2, s2, 1001
        li t0, 6
        blt s1, t0, work
        mv a0, s1
        ebreak
    handler:
        li s4, {nic}
        lw s6, 8(s4)
        li s5, 1
        sw s5, 12(s4)
        addi s1, s1, 1
        menter {uret}
        ",
        register = uintr::entries::REGISTER,
        uret = uintr::entries::URET,
        nic = map::NIC_BASE,
    ));
    for seed in 0..3 {
        let boot = || -> (Core<Metal>, NicHandle) {
            let mut core = traced(uintr_core(map::NIC_IRQ));
            let (nic, handle) = Nic::new();
            core.state
                .bus
                .attach(map::NIC_BASE, map::WINDOW_LEN, Box::new(nic));
            for i in 0..6u64 {
                handle.schedule(150 + i * 211, vec![i as u8; 4]);
            }
            core.load_segments([(0u32, program.as_slice())], 0);
            (core, handle)
        };
        let (mut subject, subject_nic) = boot();
        let (mut reference, reference_nic) = boot();
        drive(
            &mut subject,
            &mut reference,
            0x5717_0100 + seed,
            false,
            "nic",
        );
        assert_eq!(
            subject.state.halted,
            Some(HaltReason::Ebreak { code: 6 }),
            "all packets handled"
        );
        assert_eq!(
            subject_nic.take_completions(),
            reference_nic.take_completions()
        );
    }
}

/// Hooks that make every custom instruction a 150,000-cycle EX stall.
struct SlowCustom;

impl Hooks for SlowCustom {
    fn exec_custom(
        &mut self,
        _state: &mut MachineState,
        _pc: u32,
        _word: u32,
        _insn: &Insn,
        _rs1: u32,
        _rs2: u32,
    ) -> Result<CustomExec, Trap> {
        Ok(CustomExec {
            writeback: None,
            extra_cycles: 150_000,
        })
    }
}

#[test]
fn livelock_fires_at_the_same_cycle() {
    let program = assemble("li a0, 1\nwmr m0, a0\nebreak\n");
    let boot = || {
        let mut core = traced(Core::new(CoreConfig::default(), SlowCustom));
        core.load_segments([(0u32, program.as_slice())], 0);
        core
    };
    let (mut subject, mut reference) = (boot(), boot());
    subject.run(1_000_000);
    reference_run(&mut reference, 1_000_000);
    assert_same(&subject, &reference, "livelock");
    let Some(HaltReason::Fatal(message)) = &subject.state.halted else {
        panic!("expected a livelock, got {:?}", subject.state.halted);
    };
    assert!(message.starts_with("livelock: no instruction retired for 100000 cycles"));
}
