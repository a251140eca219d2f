//! The guest workloads: long-running seeded kernels run from pristine
//! snapshots on both engines.
//!
//! * `guest_plain` — the baseline machine (`Core<NoHooks>`,
//!   `Interp<NoHooks>`, `std_config`): ALU/branch loop, a load/store
//!   stride over a working set far larger than the 4 KiB dcache, a
//!   dcache-resident working set, and a self-modifying-code loop.
//! * `guest_metal` — the paper's catalog on `Core<Metal>` /
//!   `Interp<Metal>`: E1 no-op `menter` loop, E3 soft-TLB refill, E4
//!   STM transactions, E9 shadow-stack `fib`, and E5 timer user-level
//!   interrupts (pipeline only).
//!
//! One operation runs every kernel of the set once on each engine. The
//! restore to the pristine snapshot happens before the timed region;
//! only `run` is timed.

use crate::expect;
use crate::span::Tracer;
use crate::{Counters, OpResult};
use metal_core::{Metal, MetalBuilder, MetalStats};
use metal_ext::{pagetable, shadowstack, stm, uintr};
use metal_mem::devices::{map, Timer};
use metal_mem::tlb::Pte;
use metal_pipeline::state::{CoreConfig, MachineState, TranslationMode};
use metal_pipeline::{Core, Engine, EngineSnapshot, HaltReason, Hooks, Interp, NoHooks};
use metal_util::Rng;

/// Run limit per kernel (cycles or steps); every kernel halts far
/// sooner.
const RUN_LIMIT: u64 = 200_000_000;

/// Extension hooks the guest workloads run with.
pub trait GuestHooks: Hooks + Clone {
    /// Metal event counters, if the hooks are Metal.
    fn metal_stats(&self) -> Option<MetalStats>;
}

impl GuestHooks for NoHooks {
    fn metal_stats(&self) -> Option<MetalStats> {
        None
    }
}

impl GuestHooks for Metal {
    fn metal_stats(&self) -> Option<MetalStats> {
        Some(self.stats)
    }
}

/// What one engine's run of one kernel produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// `a0` at `ebreak`.
    pub exit: u32,
    /// Retired instructions.
    pub instret: u64,
    /// Simulated cycles (pipeline only; 0 on the interpreter).
    pub cycles: u64,
    /// FNV-1a digest of the 32 integer registers.
    pub regs: u64,
}

/// A kernel ready to run: its pristine snapshots and reference results.
struct Kernel<H: GuestHooks> {
    name: &'static str,
    /// Index of the pipelined core this kernel runs on.
    core: usize,
    core_snap: EngineSnapshot<H>,
    interp_snap: Option<EngineSnapshot<H>>,
    /// Expected pipeline result: the recorded one at the default seed,
    /// else the set-up run's. The interpreter must match it with
    /// `cycles` 0.
    want: RunResult,
}

/// A guest workload after set-up.
pub struct GuestBench<H: GuestHooks> {
    cores: Vec<Core<H>>,
    interp: Interp<H>,
    kernels: Vec<Kernel<H>>,
}

/// Source and machine preparation of one kernel.
struct KernelSpec<H> {
    name: &'static str,
    src: String,
    hooks: H,
    /// Attach a timer device (E5): the kernel gets a core of its own.
    timer: bool,
    /// Interpreter run too (false for E5).
    interp: bool,
    /// Per-engine preparation after construction (page tables, MRAM
    /// data, translation mode).
    prepare: fn(&mut MachineState, &mut H),
}

fn no_prepare<H>(_: &mut MachineState, _: &mut H) {}

/// FNV-1a over the integer registers.
fn regs_digest(regs: &[u32; 32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in regs {
        for b in r.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs `engine` to its halt and summarizes the result.
fn run_engine<E: Engine>(engine: &mut E) -> Result<RunResult, String> {
    match engine.run(RUN_LIMIT) {
        Some(HaltReason::Ebreak { code }) => {
            let state = engine.state();
            Ok(RunResult {
                exit: code,
                instret: state.perf.instret,
                cycles: if E::name() == "pipeline" {
                    state.perf.cycles
                } else {
                    0
                },
                regs: regs_digest(&state.regs.snapshot()),
            })
        }
        other => Err(format!("{} halted with {other:?}", E::name())),
    }
}

fn assemble(tracer: &mut Tracer, src: &str, counters: &mut Counters) -> Vec<u8> {
    let (words, _) = tracer.span("asm.assemble", |_| {
        metal_asm::assemble_at(src, 0).unwrap_or_else(|e| panic!("benchmark kernel: {e}"))
    });
    counters.add("asm.words", words.len() as f64);
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Builds an engine holding a kernel and its pristine snapshot.
fn prepare_engine<E: Engine<Hooks = H>, H: GuestHooks>(
    tracer: &mut Tracer,
    spec: &KernelSpec<H>,
    program: &[u8],
) -> (E, EngineSnapshot<H>) {
    let (mut engine, _) = tracer.span("pipeline.new", |_| E::new(std_config(), spec.hooks.clone()));
    if spec.timer {
        engine
            .state_mut()
            .bus
            .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    }
    tracer.span("pipeline.load", |_| {
        engine.load_segments([(0u32, program)], 0);
    });
    {
        // Split the borrow: state and hooks are disjoint parts of the engine.
        let mut hooks = engine.hooks().clone();
        (spec.prepare)(engine.state_mut(), &mut hooks);
        *engine.hooks_mut() = hooks;
    }
    let (snap, _) = tracer.span("pipeline.snapshot", |_| engine.snapshot());
    (engine, snap)
}

/// The baseline memory configuration the experiments share (4 KiB
/// caches, 15-cycle miss penalty, 16 MiB RAM).
fn std_config() -> CoreConfig {
    metal_bench::harness::std_config()
}

impl<H: GuestHooks> GuestBench<H> {
    fn build(
        tracer: &mut Tracer,
        specs: Vec<KernelSpec<H>>,
        expected: Option<&[(&str, RunResult)]>,
        counters: &mut Counters,
    ) -> Result<GuestBench<H>, String> {
        let mut cores: Vec<Core<H>> = Vec::new();
        let mut interp: Option<Interp<H>> = None;
        let mut kernels = Vec::new();
        for spec in &specs {
            let program = assemble(tracer, &spec.src, counters);
            let (mut core, core_snap) = prepare_engine::<Core<H>, H>(tracer, spec, &program);
            let core_ref = run_engine(&mut core)?;
            let want = match expected {
                None => core_ref,
                Some(table) => table
                    .iter()
                    .find(|(name, _)| *name == spec.name)
                    .map(|(_, r)| *r)
                    .ok_or_else(|| format!("no recorded expectation for kernel {}", spec.name))?,
            };
            let core_index = if spec.timer || cores.is_empty() {
                cores.push(core);
                cores.len() - 1
            } else {
                0
            };
            let interp_snap = if spec.interp {
                let (mut engine, snap) = prepare_engine::<Interp<H>, H>(tracer, spec, &program);
                run_engine(&mut engine)?;
                interp.get_or_insert(engine);
                Some(snap)
            } else {
                None
            };
            kernels.push(Kernel {
                name: spec.name,
                core: core_index,
                core_snap,
                interp_snap,
                want,
            });
        }
        let interp = interp.ok_or("a guest workload needs at least one interpreter kernel")?;
        Ok(GuestBench {
            cores,
            interp,
            kernels,
        })
    }

    /// Expected pipeline result of each kernel.
    pub fn references(&self) -> Vec<(&'static str, RunResult)> {
        self.kernels.iter().map(|k| (k.name, k.want)).collect()
    }

    /// Runs every kernel once on each engine. The interpreter must
    /// agree with the pipeline's expected result on everything but
    /// cycles. `wrong` perturbs the expected pipeline cycle count by one
    /// (self-test of the check).
    pub fn op(&mut self, tracer: &mut Tracer, counters: &mut Counters, wrong: bool) -> OpResult {
        let mut op = OpResult::default();
        for k in &self.kernels {
            let core = &mut self.cores[k.core];
            tracer.span("pipeline.restore", |_| core.restore(&k.core_snap));
            let before = MachineCounts::of(&core.state);
            let (result, dur) = tracer.span("pipeline.run", |_| run_engine(core));
            op.timed += dur;
            counters.add("time.pipeline_s", dur.as_secs_f64());
            let want = RunResult {
                cycles: k.want.cycles + u64::from(wrong),
                ..k.want
            };
            MachineCounts::of(&core.state).add_since(&before, "pipeline", counters);
            if let Some(s) = core.hooks.metal_stats() {
                add_metal_stats(counters, &s);
            }
            op.check(match result {
                Ok(r) if r == want => Ok(()),
                Ok(r) => Err(format!("{} pipeline: got {r:?}, want {want:?}", k.name)),
                Err(e) => Err(format!("{}: {e}", k.name)),
            });
            let Some(snap) = &k.interp_snap else {
                continue;
            };
            let want = RunResult {
                cycles: 0,
                ..k.want
            };
            let interp = &mut self.interp;
            tracer.span("pipeline.restore", |_| interp.restore(snap));
            let before = MachineCounts::of(&interp.state);
            let (result, dur) = tracer.span("interp.run", |_| run_engine(interp));
            op.timed += dur;
            counters.add("time.interp_s", dur.as_secs_f64());
            MachineCounts::of(&interp.state).add_since(&before, "interp", counters);
            op.check(match result {
                Ok(r) if r == want => Ok(()),
                Ok(r) => Err(format!("{} interp: got {r:?}, want {want:?}", k.name)),
                Err(e) => Err(format!("{}: {e}", k.name)),
            });
        }
        op.cases = 1;
        op
    }
}

/// Simulated counters read from a machine, so a run's share is the
/// difference between two readings.
struct MachineCounts([u64; 11]);

impl MachineCounts {
    fn of(state: &MachineState) -> MachineCounts {
        MachineCounts([
            state.perf.instret,
            state.perf.cycles,
            state.icache.accesses,
            state.icache.misses,
            state.dcache.accesses,
            state.dcache.misses,
            state.tlb.lookups,
            state.tlb.hits,
            state.decode_cache.hits(),
            state.decode_cache.misses(),
            state.decode_cache.invalidations(),
        ])
    }

    /// Adds the counts accrued since `before`. The interpreter models
    /// no timing, so only its instruction and decode-cache counts are
    /// kept.
    fn add_since(&self, before: &MachineCounts, engine: &str, counters: &mut Counters) {
        let d: Vec<f64> = self
            .0
            .iter()
            .zip(before.0)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        if engine == "pipeline" {
            counters.add("pipeline.insns", d[0]);
            counters.add("pipeline.cycles", d[1]);
            counters.add("mem.icache.accesses", d[2]);
            counters.add("mem.icache.misses", d[3]);
            counters.add("mem.dcache.accesses", d[4]);
            counters.add("mem.dcache.misses", d[5]);
            counters.add("mem.tlb.lookups", d[6]);
            counters.add("mem.tlb.hits", d[7]);
        } else {
            counters.add("interp.insns", d[0]);
        }
        counters.add("decode_cache.hit", d[8]);
        counters.add("decode_cache.miss", d[9]);
        counters.add("decode_cache.invalidate", d[10]);
    }
}

fn add_metal_stats(counters: &mut Counters, s: &MetalStats) {
    counters.add("core.menters", s.menters as f64);
    counters.add("core.intercepts", s.intercepts as f64);
    counters.add("core.delegated_exceptions", s.delegated_exceptions as f64);
    counters.add("core.delegated_interrupts", s.delegated_interrupts as f64);
    counters.add("core.machine_checks", s.machine_checks as f64);
    counters.add("core.scrubs", s.scrubs as f64);
}

// ---------------------------------------------------------------------
// guest_plain kernels

/// Iterations of the ALU/branch loop (11 instructions each).
const ALU_ITERS: u32 = 20_000;
/// Base of the data working sets.
const DATA_BASE: u32 = 0x10_0000;
/// Streaming working set: 16x the 4 KiB dcache.
const STRIDE_BYTES: u32 = 64 * 1024;
/// Passes over the streaming set (one access per 32-byte line).
const STRIDE_PASSES: u32 = 20;
/// Resident working set: half the dcache.
const RESIDENT_BYTES: u32 = 2 * 1024;
/// Passes over the resident set (one access per word).
const RESIDENT_PASSES: u32 = 80;
/// Self-modifying-code loop iterations (each patches the loop head).
const SMC_ITERS: u32 = 500;

fn alu_kernel(rng: &mut Rng) -> String {
    let (c0, c1, c2) = (rng.next_u32(), rng.next_u32(), rng.next_u32());
    format!(
        r"
        li s1, {ALU_ITERS}
        li a0, {c0}
        li a1, {c1}
        li a2, {c2}
    loop:
        add a0, a0, a1
        xor a1, a1, a2
        slli t0, a0, 3
        srli t1, a1, 5
        sub a2, a2, t0
        or a2, a2, t1
        andi t2, a0, 1
        beqz t2, skip
        addi a1, a1, 7
    skip:
        addi s1, s1, -1
        bnez s1, loop
        xor a0, a0, a2
        ebreak
        "
    )
}

/// One load-add-store per word (or per line) over `bytes`, `passes`
/// times, starting at a seeded page-aligned offset.
fn sweep_kernel(rng: &mut Rng, bytes: u32, step: u32, passes: u32) -> String {
    let base = DATA_BASE + rng.range_u32(0, 16) * 4096;
    let end = base + bytes;
    let k = rng.range_u32(1, 1 << 16);
    format!(
        r"
        li s1, {passes}
        li s4, {k}
        li a0, 0
    outer:
        li s2, {base}
        li s3, {end}
    inner:
        lw t0, 0(s2)
        add t0, t0, s4
        sw t0, 0(s2)
        addi s2, s2, {step}
        bltu s2, s3, inner
        add a0, a0, t0
        addi s1, s1, -1
        bnez s1, outer
        ebreak
        "
    )
}

fn smc_kernel(rng: &mut Rng) -> String {
    let imm1 = rng.range_i32(-100, 100);
    let imm2 = rng.range_i32(-100, 100);
    let word = |imm: i32| {
        metal_asm::assemble_at(&format!("addi a0, a0, {imm}"), 0).expect("patch assembles")[0]
    };
    let (w1, w2) = (word(imm1), word(imm2));
    // Every iteration stores the other encoding over the loop head, a
    // line that was just fetched and decoded.
    format!(
        r"
        li a0, 0
        li s1, {SMC_ITERS}
        la s2, slot
        li t1, {w1}
        li t2, {w2}
    slot:
        addi a0, a0, {imm1}
        sw t2, 0(s2)
        mv t3, t1
        mv t1, t2
        mv t2, t3
        xor t4, a0, t1
        add t5, t4, t2
        addi s1, s1, -1
        bnez s1, slot
        ebreak
        "
    )
}

/// Builds `guest_plain`.
///
/// # Errors
///
/// A kernel does not run to its `ebreak`.
pub fn plain(
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<GuestBench<NoHooks>, String> {
    let expected = (seed == expect::DEFAULT_SEED).then_some(expect::GUEST_PLAIN);
    GuestBench::build(tracer, plain_specs(seed), expected, counters)
}

/// The `guest_plain` kernels' set-up results, unchecked against the
/// record (for `--record`).
///
/// # Panics
///
/// A kernel does not run to its `ebreak`.
#[must_use]
pub fn plain_unchecked(
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<(&'static str, RunResult)> {
    GuestBench::build(tracer, plain_specs(seed), None, counters)
        .expect("guest_plain kernels run")
        .references()
}

fn plain_specs(seed: u64) -> Vec<KernelSpec<NoHooks>> {
    let mut rng = Rng::new(seed ^ 0x504C_4149_4E00_0000);
    let spec = |name, src| KernelSpec {
        name,
        src,
        hooks: NoHooks,
        timer: false,
        interp: true,
        prepare: no_prepare,
    };
    vec![
        spec("alu", alu_kernel(&mut rng)),
        spec(
            "stride",
            sweep_kernel(&mut rng, STRIDE_BYTES, 32, STRIDE_PASSES),
        ),
        spec(
            "resident",
            sweep_kernel(&mut rng, RESIDENT_BYTES, 4, RESIDENT_PASSES),
        ),
        spec("smc", smc_kernel(&mut rng)),
    ]
}

// ---------------------------------------------------------------------
// guest_metal kernels

/// E1 `menter` round trips.
const E1_ITERS: u32 = 30_000;
/// E3: data pages touched cyclically (the TLB holds 32).
const E3_PAGES: u32 = 64;
/// E3: page touches.
const E3_TOUCHES: u32 = 3_000;
/// E3: VA of the data pages.
const E3_DATA_VA: u32 = 0x10_0000;
/// E3: physical frames of the data pages.
const E3_DATA_PA: u32 = 0x20_0000;
/// E3: page-table pool.
const E3_PT_BASE: u32 = 0x40_0000;
/// E4: lock table base (MRAM-data configured).
const E4_LOCKTAB: u32 = 0x30_0000;
/// E4: transactions, each a 4-word read-modify-write.
const E4_TXS: u32 = 200;
/// E9: `fib` argument.
const E9_FIB: u32 = 14;
/// E5: timer interrupts delivered to the user handler.
const E5_IRQS: u32 = 400;
/// E5: cycles between timer interrupts.
const E5_PERIOD: u32 = 300;

fn e1_kernel() -> String {
    format!(
        r"
        li s1, {E1_ITERS}
        li a0, 0
    loop:
        menter 0
        addi a0, a0, 1
        addi s1, s1, -1
        bnez s1, loop
        ebreak
        "
    )
}

fn e3_kernel(rng: &mut Rng) -> String {
    // An odd step visits all 64 pages before repeating.
    let step = rng.range_u32(0, 16) * 2 + 1;
    format!(
        r"
        li s1, {E3_TOUCHES}
        li s2, 0
        li s3, {E3_DATA_VA}
        li a0, 0
    loop:
        slli t1, s2, 12
        add t1, t1, s3
        lw t2, 0(t1)
        addi t2, t2, 1
        sw t2, 0(t1)
        add a0, a0, t2
        addi s2, s2, {step}
        andi s2, s2, {mask}
        addi s1, s1, -1
        bnez s1, loop
        ebreak
        ",
        mask = E3_PAGES - 1,
    )
}

fn e3_prepare(state: &mut MachineState, metal: &mut Metal) {
    let ram = &mut state.bus.ram;
    let mut pt = pagetable::GuestPageTable::new(ram, E3_PT_BASE, E3_PT_BASE + 0x10_0000);
    pt.identity_map(ram, 0, 16, Pte::R | Pte::W | Pte::X);
    for i in 0..E3_PAGES {
        pt.map(
            ram,
            E3_DATA_VA + i * 0x1000,
            E3_DATA_PA + i * 0x1000,
            Pte::R | Pte::W,
        );
    }
    metal.mram.data_mut()[64..68].copy_from_slice(&pt.root.to_le_bytes());
    state.translation = TranslationMode::SoftTlb;
}

fn e4_kernel(rng: &mut Rng) -> String {
    let base = 0x4_0000 + rng.range_u32(0, 64) * 64;
    format!(
        r"
        li s1, {E4_TXS}
        li s2, {base}
        li a0, 0
    txloop:
        li a0, 0
        menter {tstart}
        li s3, 4
        mv s4, s2
    body:
        lw t3, 0(s4)
        addi t3, t3, 1
        sw t3, 0(s4)
        addi s4, s4, 4
        addi s3, s3, -1
        bnez s3, body
        menter {tcommit}
        addi s1, s1, -1
        bnez s1, txloop
        lw a0, 0(s2)
        ebreak
        ",
        tstart = stm::entries::TSTART,
        tcommit = stm::entries::TCOMMIT,
    )
}

fn e4_prepare(_: &mut MachineState, metal: &mut Metal) {
    metal.mram.data_mut()[1028..1032].copy_from_slice(&E4_LOCKTAB.to_le_bytes());
}

fn e9_kernel(rng: &mut Rng) -> String {
    let sp = 0x8000 + rng.range_u32(0, 64) * 0x100;
    format!(
        r"
        li sp, {sp}
        la a0, violation
        menter {enable}
        li a0, {E9_FIB}
        call fib
        ebreak
    fib:
        li t0, 2
        blt a0, t0, base
        addi sp, sp, -12
        sw ra, 0(sp)
        sw a0, 4(sp)
        addi a0, a0, -1
        call fib
        sw a0, 8(sp)
        lw a0, 4(sp)
        addi a0, a0, -2
        call fib
        lw t0, 8(sp)
        add a0, a0, t0
        lw ra, 0(sp)
        addi sp, sp, 12
        ret
    base:
        ret
    violation:
        li a0, 0xBAD
        ebreak
        ",
        enable = shadowstack::entries::ENABLE,
    )
}

fn e5_kernel(rng: &mut Rng) -> String {
    let work = rng.range_u32(1, 8);
    format!(
        r"
        li t0, 1
        csrw mie, t0
        la a0, handler
        menter {register}
        li s1, 0
        li s2, 0
        li s4, {timer}
        lw t0, 0(s4)
        addi t0, t0, {E5_PERIOD}
        sw t0, 8(s4)
        li t0, 1
        sw t0, 16(s4)
        csrrsi zero, mstatus, 8
    work:
        addi s2, s2, {work}
        li t0, {E5_IRQS}
        blt s1, t0, work
        sw zero, 16(s4)
        csrrci zero, mstatus, 8
        mv a0, s1
        ebreak
    handler:
        li s5, {timer}
        lw s6, 0(s5)
        addi s6, s6, {E5_PERIOD}
        sw s6, 8(s5)
        addi s1, s1, 1
        menter {uret}
        ",
        register = uintr::entries::REGISTER,
        uret = uintr::entries::URET,
        timer = map::TIMER_BASE,
    )
}

fn metal_hooks(tracer: &mut Tracer, builder: MetalBuilder) -> Result<Metal, String> {
    let (built, _) = tracer.span("core.build", |_| builder.build());
    built.map(|(metal, _, _)| metal).map_err(|e| e.to_string())
}

/// Builds `guest_metal`.
///
/// # Errors
///
/// As [`plain`], plus Metal build failures.
pub fn metal(
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<GuestBench<Metal>, String> {
    let expected = (seed == expect::DEFAULT_SEED).then_some(expect::GUEST_METAL);
    let specs = metal_specs(seed, tracer)?;
    GuestBench::build(tracer, specs, expected, counters)
}

/// The `guest_metal` kernels' set-up results, unchecked against the
/// record (for `--record`).
///
/// # Panics
///
/// A kernel's mroutines do not build or it does not run to its `ebreak`.
#[must_use]
pub fn metal_unchecked(
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<(&'static str, RunResult)> {
    let specs = metal_specs(seed, tracer).expect("guest_metal mroutines build");
    GuestBench::build(tracer, specs, None, counters)
        .expect("guest_metal kernels run")
        .references()
}

fn metal_specs(seed: u64, tracer: &mut Tracer) -> Result<Vec<KernelSpec<Metal>>, String> {
    let mut rng = Rng::new(seed ^ 0x4D45_5441_4C00_0000);
    let spec = |name, src, hooks, prepare| KernelSpec {
        name,
        src,
        hooks,
        timer: false,
        interp: true,
        prepare,
    };
    let e1 = metal_hooks(tracer, MetalBuilder::new().routine(0, "noop", "mexit"))?;
    let e3 = metal_hooks(tracer, pagetable::install(MetalBuilder::new()))?;
    let e4 = metal_hooks(tracer, stm::install(MetalBuilder::new()))?;
    let e9 = metal_hooks(tracer, shadowstack::install(MetalBuilder::new()))?;
    let e5 = metal_hooks(tracer, uintr::install(MetalBuilder::new(), map::TIMER_IRQ))?;
    Ok(vec![
        spec("e1_menter", e1_kernel(), e1, no_prepare),
        spec("e3_softtlb", e3_kernel(&mut rng), e3, e3_prepare),
        spec("e4_stm", e4_kernel(&mut rng), e4, e4_prepare),
        spec("e9_shadowstack", e9_kernel(&mut rng), e9, no_prepare),
        KernelSpec {
            timer: true,
            interp: false,
            ..spec("e5_uintr", e5_kernel(&mut rng), e5, no_prepare)
        },
    ])
}
