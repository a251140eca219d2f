//! The 5-stage in-order pipeline: IF, ID, EX, MEM, WB.
//!
//! Classic organization, cycle-ticked with explicit inter-stage latches:
//!
//! * **Forwarding**: stages are evaluated oldest-first within a tick, so
//!   the value produced by the instruction one ahead (in MEM this tick)
//!   is forwarded from the MEM/WB latch; older results are already in
//!   the register file. This is timing-equivalent to the textbook
//!   EX/MEM + MEM/WB forwarding network.
//! * **Load-use hazard**: detected in ID against the load executing in
//!   EX; one bubble.
//! * **Control flow**: branches and jumps resolve in EX; taken redirects
//!   flush the two younger slots (2-cycle penalty).
//! * **Variable latency**: I-fetch, data access, and multi-cycle EX
//!   (mul/div) hold their stage and stall upstream stages.
//! * **Extension hooks**: fetch/decode/execute/trap hook calls at the
//!   exact attachment points Metal needs (see [`crate::hooks::Hooks`]).
//!   The `menter`/`mexit` decode-stage replacement (paper §2.2) is the
//!   [`DecodeOutcome::Replace`] path: the decode slot is rewritten in
//!   place and fetch is redirected with *zero* bubbles when the
//!   replacement source is 1-cycle (MRAM).
//! * **Frozen cycles**: [`Core::tick`] advances exactly one cycle.
//!   [`Core::run`] and [`Core::step_insns`] also skip runs of *frozen*
//!   cycles, in which every stage only counts down a stall or waits on
//!   a neighbour: they advance the cycle and stall counters by the whole
//!   run in one step and tick the bus once at its end. Every simulated
//!   count and the trace are what ticking one cycle at a time gives
//!   (`tests/stall_skip.rs` checks this against `tick`).

use crate::hooks::{DecodeOutcome, Hooks, TrapDisposition, TrapEvent};
use crate::state::{CoreConfig, HaltReason, MachineState};
use crate::trap::{Trap, TrapCause};
use metal_isa::insn::{CsrOp, CsrSrc, Insn, MulOp};
use metal_isa::reg::Reg;
use metal_isa::{csr, decode_to, DecodedInsn};
use metal_trace::{EventKind, StallKind};

/// Maximum chained decode-slot replacements in one cycle before the
/// pipeline declares a runaway and faults.
const MAX_REPLACE_CHAIN: usize = 16;

/// Cycles without a retirement after which [`Core::run`] declares a
/// livelock (outside `wfi`).
const LIVELOCK_CYCLES: u64 = 100_000;

/// IF → ID latch. Fetch delivers instructions pre-decoded (the decode
/// cache does the word→[`DecodedInsn`] work at most once per word); ID
/// keeps only the hazard checks and the extension decode hook.
#[derive(Clone, Copy, Debug)]
struct IfId {
    pc: u32,
    decoded: DecodedInsn,
    fault: Option<Trap>,
}

/// ID → EX latch.
#[derive(Clone, Copy, Debug)]
struct IdEx {
    pc: u32,
    decoded: DecodedInsn,
    fault: Option<Trap>,
}

/// EX → MEM latch.
#[derive(Clone, Copy, Debug)]
struct ExMem {
    pc: u32,
    decoded: DecodedInsn,
    /// Memory address for loads/stores; writeback value otherwise.
    alu: u32,
    /// Store data (resolved in EX).
    store_val: u32,
    /// Writeback value if already known in EX.
    wb: Option<u32>,
}

/// MEM → WB latch.
#[derive(Clone, Copy, Debug)]
struct MemWb {
    pc: u32,
    insn: Insn,
    rd: Option<Reg>,
    value: u32,
}

/// The pipelined core, generic over the extension hooks.
pub struct Core<H: Hooks> {
    /// Shared machine state (registers, memory system, CSRs, counters).
    pub state: MachineState,
    /// The ISA extension (Metal, or [`crate::hooks::NoHooks`]).
    pub hooks: H,
    config: CoreConfig,
    pc: u32,
    if_id: Option<IfId>,
    if_pending: Option<IfId>,
    if_busy: u32,
    id_ex: Option<IdEx>,
    id_hold: Option<IdEx>,
    id_stall: u32,
    ex_mem: Option<ExMem>,
    ex_hold: Option<ExMem>,
    ex_busy: u32,
    mem_wb: Option<MemWb>,
    mem_hold: Option<MemWb>,
    mem_busy: u32,
    wfi: bool,
}

impl<H: Hooks> Core<H> {
    /// Builds a core with the given configuration and hooks.
    #[must_use]
    pub fn new(config: CoreConfig, hooks: H) -> Core<H> {
        Core {
            state: MachineState::new(&config),
            hooks,
            pc: config.reset_pc,
            config,
            if_id: None,
            if_pending: None,
            if_busy: 0,
            id_ex: None,
            id_hold: None,
            id_stall: 0,
            ex_mem: None,
            ex_hold: None,
            ex_busy: 0,
            mem_wb: None,
            mem_hold: None,
            mem_busy: 0,
            wfi: false,
        }
    }

    /// The configuration this core was built with.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The next fetch address (useful in tests and after halts).
    #[must_use]
    pub fn fetch_pc(&self) -> u32 {
        self.pc
    }

    /// Redirects fetch (used by loaders and test harnesses). Clears all
    /// in-flight instructions.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
        self.squash_frontend();
        self.id_ex = None;
        self.id_hold = None;
        self.id_stall = 0;
        self.ex_mem = None;
        self.ex_hold = None;
        self.ex_busy = 0;
        self.mem_wb = None;
        self.mem_hold = None;
        self.mem_busy = 0;
        self.wfi = false;
    }

    fn squash_frontend(&mut self) {
        self.if_id = None;
        self.if_pending = None;
        self.if_busy = 0;
    }

    fn flush_for_redirect(&mut self, target: u32) {
        self.pc = target;
        self.squash_frontend();
        self.id_hold = None;
        self.id_stall = 0;
        self.state.perf.flush_cycles += 2;
        self.state.trace.emit(EventKind::Flush { target });
    }

    /// Takes a trap whose faulting/interrupted PC is `pc`.
    fn take_trap(&mut self, cause: TrapCause, tval: u32, pc: u32) {
        if cause.is_interrupt() {
            self.state.perf.interrupts += 1;
        } else {
            self.state.perf.exceptions += 1;
        }
        self.state.trace.emit(EventKind::Trap {
            code: cause.code(),
            tval,
            pc,
        });
        let event = TrapEvent { cause, tval, pc };
        match self.hooks.on_trap(&mut self.state, &event) {
            TrapDisposition::Default => {
                let code = cause.code();
                self.state.csr.mepc = pc;
                self.state.csr.mcause = code;
                self.state.csr.mtval = tval;
                // Stack MIE into MPIE and disable interrupts.
                let mie = self.state.csr.mstatus & csr::MSTATUS_MIE != 0;
                self.state.csr.mstatus &= !(csr::MSTATUS_MIE | csr::MSTATUS_MPIE);
                if mie {
                    self.state.csr.mstatus |= csr::MSTATUS_MPIE;
                }
                let target = self.state.csr.mtvec;
                self.flush_for_redirect(target);
            }
            TrapDisposition::Redirect { target, stall } => {
                self.flush_for_redirect(target);
                self.if_busy = 0;
                self.id_stall = stall;
                if stall > 0 {
                    self.state.trace.emit(EventKind::Stall {
                        kind: StallKind::Decode,
                        cycles: stall,
                    });
                }
                self.state.perf.metal_entries += 1;
            }
            TrapDisposition::Fatal => {
                self.state.halted = Some(HaltReason::Fatal(format!(
                    "unhandled trap {cause} at pc {pc:#010x} (tval {tval:#010x})"
                )));
            }
        }
        // Squash everything younger than the trap point.
        self.id_ex = None;
        self.squash_id_flush_keep_stall();
    }

    fn squash_id_flush_keep_stall(&mut self) {
        self.if_id = None;
        self.if_pending = None;
        self.if_busy = 0;
        self.id_hold = None;
    }

    /// Forwards a register read at EX: the youngest completed value wins
    /// (MEM/WB latch, then the register file).
    fn forward(&self, r: Reg) -> u32 {
        if r == Reg::ZERO {
            return 0;
        }
        if let Some(wb) = &self.mem_wb {
            if wb.rd == Some(r) {
                return wb.value;
            }
        }
        if let Some(hold) = &self.mem_hold {
            if hold.rd == Some(r) {
                return hold.value;
            }
        }
        self.state.regs.get(r)
    }

    /// Lowest pending, enabled interrupt line, if delivery is allowed.
    fn pending_interrupt(&self) -> Option<u8> {
        let pending = self.state.perf.mip_snapshot & self.state.csr.mie;
        if pending == 0 {
            return None;
        }
        if self.state.csr.mstatus & csr::MSTATUS_MIE == 0 {
            return None;
        }
        if !self.hooks.interrupts_allowed(&self.state) {
            return None;
        }
        Some(pending.trailing_zeros() as u8)
    }

    /// Advances the machine one cycle.
    pub fn tick(&mut self) {
        if self.state.halted.is_some() {
            return;
        }
        self.state.perf.cycles += 1;
        let cycle = self.state.perf.cycles;
        self.state.trace.set_now(cycle);
        self.state.perf.mip_snapshot = self.state.bus.tick(cycle);

        // Snapshot for load-use hazard detection: the instruction that
        // executes in EX *this* tick.
        let ex_load_rd = self.id_ex.as_ref().and_then(|d| {
            if d.decoded.tag.is_load() {
                d.decoded.dest
            } else {
                None
            }
        });

        // ---------------- WB ----------------
        if let Some(wb) = self.mem_wb.take() {
            if let Some(rd) = wb.rd {
                self.state.regs.set(rd, wb.value);
            }
            self.state.perf.instret += 1;
            let insn = wb.insn;
            let pc = wb.pc;
            self.state.trace.emit(EventKind::Retire { pc });
            self.hooks.on_retire(&mut self.state, pc, &insn);
        }

        // ---------------- MEM ----------------
        let mut flushed = false;
        if self.mem_busy > 0 {
            self.mem_busy -= 1;
            self.state.perf.mem_stall += 1;
            if self.mem_busy == 0 {
                self.mem_wb = self.mem_hold.take();
            }
        } else if let Some(xm) = self.ex_mem.take() {
            match self.run_mem(&xm) {
                Ok((value, extra)) => {
                    let latch = MemWb {
                        pc: xm.pc,
                        insn: xm.decoded.insn,
                        rd: xm.decoded.dest,
                        value,
                    };
                    if extra == 0 {
                        self.mem_wb = Some(latch);
                    } else {
                        self.mem_hold = Some(latch);
                        self.mem_busy = extra;
                        self.state.trace.emit(EventKind::Stall {
                            kind: StallKind::Mem,
                            cycles: extra,
                        });
                    }
                }
                Err(trap) => {
                    self.take_trap(trap.cause, trap.tval, xm.pc);
                    flushed = true;
                }
            }
        }

        // ---------------- EX ----------------
        if !flushed {
            if self.ex_busy > 0 {
                self.ex_busy -= 1;
                self.state.perf.ex_stall += 1;
                if self.ex_busy == 0 {
                    self.ex_mem = self.ex_hold.take();
                }
            } else if self.mem_busy == 0 && self.ex_mem.is_none() {
                if let Some(d) = self.id_ex.take() {
                    flushed = self.run_ex(d);
                }
            }
        }

        // ---------------- ID ----------------
        if !flushed {
            if self.id_stall > 0 {
                self.id_stall -= 1;
                self.state.perf.fetch_stall += 1;
                if self.id_stall == 0 && self.id_ex.is_none() {
                    self.id_ex = self.id_hold.take();
                }
            } else if self.id_ex.is_none() {
                if let Some(held) = self.id_hold.take() {
                    self.id_ex = Some(held);
                } else if let Some(f) = self.if_id {
                    self.run_id(f, ex_load_rd);
                }
            }
        }

        // ---------------- IF ----------------
        if !flushed {
            self.run_if();
        }
    }

    /// MEM-stage work: data access for loads/stores, pass-through
    /// otherwise. Returns (writeback value, extra hold cycles).
    fn run_mem(&mut self, xm: &ExMem) -> Result<(u32, u32), Trap> {
        match xm.decoded.insn {
            Insn::Load { op, .. } => {
                let (value, lat) = self.state.load(xm.alu, op)?;
                Ok((value, lat.saturating_sub(1)))
            }
            Insn::Store { op, .. } => {
                let lat = self.state.store(xm.alu, op, xm.store_val)?;
                Ok((0, lat.saturating_sub(1)))
            }
            _ => Ok((xm.wb.unwrap_or(0), 0)),
        }
    }

    /// EX-stage work. Returns true if the pipeline was flushed (trap or
    /// redirect).
    #[allow(clippy::too_many_lines)]
    fn run_ex(&mut self, d: IdEx) -> bool {
        if let Some(trap) = d.fault {
            self.take_trap(trap.cause, trap.tval, d.pc);
            return true;
        }
        let push = |core: &mut Core<H>, wb: Option<u32>, alu: u32, store_val: u32, extra: u32| {
            let latch = ExMem {
                pc: d.pc,
                decoded: d.decoded,
                alu,
                store_val,
                wb,
            };
            if extra == 0 {
                core.ex_mem = Some(latch);
            } else {
                core.ex_hold = Some(latch);
                core.ex_busy = extra;
                core.state.trace.emit(EventKind::Stall {
                    kind: StallKind::Ex,
                    cycles: extra,
                });
            }
        };
        match d.decoded.insn {
            Insn::Lui { imm20, .. } => {
                push(self, Some(imm20 << 12), 0, 0, 0);
            }
            Insn::Auipc { imm20, .. } => {
                push(self, Some(d.pc.wrapping_add(imm20 << 12)), 0, 0, 0);
            }
            Insn::AluImm { op, rs1, imm, .. } => {
                let v = op.eval(self.forward(rs1), imm as u32);
                push(self, Some(v), 0, 0, 0);
            }
            Insn::Alu { op, rs1, rs2, .. } => {
                let v = op.eval(self.forward(rs1), self.forward(rs2));
                push(self, Some(v), 0, 0, 0);
            }
            Insn::MulDiv { op, rs1, rs2, .. } => {
                let v = op.eval(self.forward(rs1), self.forward(rs2));
                let extra = match op {
                    MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => {
                        self.config.mul_latency
                    }
                    _ => self.config.div_latency,
                };
                push(self, Some(v), 0, 0, extra);
            }
            Insn::Load { rs1, offset, .. } => {
                let addr = self.forward(rs1).wrapping_add(offset as u32);
                push(self, None, addr, 0, 0);
            }
            Insn::Store {
                rs1, rs2, offset, ..
            } => {
                let addr = self.forward(rs1).wrapping_add(offset as u32);
                let val = self.forward(rs2);
                push(self, None, addr, val, 0);
            }
            Insn::Jal { offset, .. } => {
                let link = d.pc.wrapping_add(4);
                let target = d.pc.wrapping_add(offset as u32);
                push(self, Some(link), 0, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Jalr { rs1, offset, .. } => {
                let link = d.pc.wrapping_add(4);
                let target = self.forward(rs1).wrapping_add(offset as u32) & !1;
                push(self, Some(link), 0, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken = cond.eval(self.forward(rs1), self.forward(rs2));
                push(self, None, 0, 0, 0);
                if taken {
                    let target = d.pc.wrapping_add(offset as u32);
                    self.flush_for_redirect(target);
                    return true;
                }
            }
            Insn::Csr {
                op, csr: addr, src, ..
            } => {
                let Some(old) = self.state.csr.read(addr, &self.state.perf) else {
                    self.take_trap(TrapCause::IllegalInstruction, d.decoded.word, d.pc);
                    return true;
                };
                let operand = match src {
                    CsrSrc::Reg(r) => self.forward(r),
                    CsrSrc::Imm(i) => u32::from(i),
                };
                let new = match op {
                    CsrOp::Rw => Some(operand),
                    CsrOp::Rs => (operand != 0).then_some(old | operand),
                    CsrOp::Rc => (operand != 0).then_some(old & !operand),
                };
                if let Some(new) = new {
                    if !self.state.csr.write(addr, new) {
                        self.take_trap(TrapCause::IllegalInstruction, d.decoded.word, d.pc);
                        return true;
                    }
                }
                push(self, Some(old), 0, 0, 0);
            }
            Insn::Ecall => {
                self.take_trap(TrapCause::Ecall, 0, d.pc);
                return true;
            }
            Insn::Ebreak => {
                // Halt only once every older instruction has written back,
                // so the architectural state (notably `a0`) is final.
                if self.mem_wb.is_some() {
                    self.id_ex = Some(d);
                    return false;
                }
                self.state.halted = Some(HaltReason::Ebreak {
                    code: self.state.regs.get(Reg::A0),
                });
                return true;
            }
            Insn::Mret => {
                // Restore the stacked interrupt enable.
                let mpie = self.state.csr.mstatus & csr::MSTATUS_MPIE != 0;
                self.state.csr.mstatus |= csr::MSTATUS_MPIE;
                self.state.csr.mstatus &= !csr::MSTATUS_MIE;
                if mpie {
                    self.state.csr.mstatus |= csr::MSTATUS_MIE;
                }
                let target = self.state.csr.mepc;
                push(self, None, 0, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Wfi => {
                self.wfi = true;
                push(self, None, 0, 0, 0);
                self.flush_for_redirect(d.pc.wrapping_add(4));
                return true;
            }
            Insn::Fence => {
                push(self, None, 0, 0, 0);
            }
            // Metal instructions reach EX only when the decode hook let
            // them pass (rmr/wmr/mld/mst/march in Metal mode) or under
            // NoHooks (illegal).
            _ => {
                let [s1, s2] = d.decoded.srcs;
                let rs1 = s1.map_or(0, |r| self.forward(r));
                let rs2 = s2.map_or(0, |r| self.forward(r));
                match self.hooks.exec_custom(
                    &mut self.state,
                    d.pc,
                    d.decoded.word,
                    &d.decoded.insn,
                    rs1,
                    rs2,
                ) {
                    Ok(result) => {
                        push(self, result.writeback, 0, 0, result.extra_cycles);
                    }
                    Err(trap) => {
                        self.take_trap(trap.cause, trap.tval, d.pc);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// ID-stage work: hazard checks and the extension decode hook. The
    /// word was already decoded at fetch (via the decode cache), so the
    /// stage re-inspects nothing.
    fn run_id(&mut self, f: IfId, ex_load_rd: Option<Reg>) {
        if let Some(trap) = f.fault {
            self.if_id = None;
            self.id_ex = Some(IdEx {
                pc: f.pc,
                decoded: f.decoded,
                fault: Some(trap),
            });
            return;
        }
        if f.decoded.is_illegal() {
            self.if_id = None;
            self.id_ex = Some(IdEx {
                pc: f.pc,
                decoded: f.decoded,
                fault: Some(Trap::illegal(f.decoded.word)),
            });
            return;
        }
        // Load-use hazard: one bubble.
        if let Some(rd) = ex_load_rd {
            if f.decoded.srcs.iter().flatten().any(|&s| s == rd) {
                self.state.perf.loaduse_stall += 1;
                self.state.trace.emit(EventKind::Stall {
                    kind: StallKind::LoadUse,
                    cycles: 1,
                });
                return; // keep if_id; id_ex stays empty (bubble)
            }
        }
        // Decode-stage side effects (Metal mode transitions, interception)
        // must not commit while an older instruction can still fault, or
        // exceptions would become imprecise. Hold the instruction in ID
        // until the hazard clears.
        if self
            .hooks
            .decode_is_sensitive(&self.state, f.decoded.word, &f.decoded.insn)
        {
            let older_may_fault = self
                .ex_mem
                .as_ref()
                .is_some_and(|x| x.decoded.tag.may_fault());
            let reads_gpr_at_decode = matches!(
                f.decoded.insn,
                Insn::Menter {
                    entry: metal_isa::metal::MENTER_INDIRECT,
                    ..
                }
            );
            let gpr_in_flight = reads_gpr_at_decode && {
                let rs1 = match f.decoded.insn {
                    Insn::Menter { rs1, .. } => rs1,
                    _ => Reg::ZERO,
                };
                let hit = |i: Option<Reg>| i == Some(rs1);
                hit(self.ex_hold.as_ref().and_then(|l| l.decoded.dest))
                    || hit(self.ex_mem.as_ref().and_then(|l| l.decoded.dest))
                    || hit(self.mem_hold.as_ref().and_then(|l| l.rd))
                    || hit(self.mem_wb.as_ref().and_then(|l| l.rd))
            };
            if older_may_fault || gpr_in_flight {
                return; // keep if_id; bubble into EX
            }
        }
        // The decode hook may replace the instruction in the slot
        // (menter/mexit/interception), and the replacement may itself be
        // replaced — e.g. an mexit whose return stream begins with
        // another menter. Chain the hook with a runaway bound.
        let mut cur_pc = f.pc;
        let mut cur = f.decoded;
        let mut total_stall = 0u32;
        for round in 0..MAX_REPLACE_CHAIN {
            match self
                .hooks
                .decode(&mut self.state, cur_pc, cur.word, &cur.insn)
            {
                DecodeOutcome::Pass => {
                    self.if_id = None;
                    let latch = IdEx {
                        pc: cur_pc,
                        decoded: cur,
                        fault: None,
                    };
                    if total_stall == 0 {
                        self.id_ex = Some(latch);
                    } else {
                        self.id_hold = Some(latch);
                        self.id_stall = total_stall;
                        self.state.trace.emit(EventKind::Stall {
                            kind: StallKind::Decode,
                            cycles: total_stall,
                        });
                    }
                    return;
                }
                DecodeOutcome::Replace {
                    word,
                    pc,
                    next_fetch,
                    stall,
                } => {
                    self.if_id = None;
                    self.if_pending = None;
                    self.if_busy = 0;
                    self.pc = next_fetch;
                    self.state.perf.metal_entries += 1;
                    self.state.trace.emit(EventKind::DecodeReplace {
                        pc: cur_pc,
                        target: pc,
                    });
                    total_stall += stall;
                    cur_pc = pc;
                    cur = decode_to(word);
                    if cur.is_illegal() {
                        self.id_ex = Some(IdEx {
                            pc,
                            decoded: cur,
                            fault: Some(Trap::illegal(word)),
                        });
                        return;
                    }
                    let _ = round;
                }
                DecodeOutcome::Fault { trap, pc } => {
                    self.if_id = None;
                    self.id_ex = Some(IdEx {
                        pc: pc.unwrap_or(cur_pc),
                        decoded: cur,
                        fault: Some(trap),
                    });
                    return;
                }
            }
        }
        // Runaway replacement chain: treat as an illegal instruction.
        self.if_id = None;
        self.id_ex = Some(IdEx {
            pc: cur_pc,
            decoded: DecodedInsn::illegal(cur.word),
            fault: Some(Trap::illegal(cur.word)),
        });
    }

    /// IF-stage work: interrupt injection and instruction fetch.
    fn run_if(&mut self) {
        if self.if_busy > 0 {
            self.if_busy -= 1;
            self.state.perf.fetch_stall += 1;
            if self.if_busy == 0 && self.if_id.is_none() {
                self.if_id = self.if_pending.take();
            }
            return;
        }
        if self.if_id.is_some() {
            return;
        }
        if self.wfi {
            // Wake when any enabled interrupt is pending, regardless of
            // the global enable (RISC-V WFI semantics).
            if self.state.perf.mip_snapshot & self.state.csr.mie != 0 {
                self.wfi = false;
            } else {
                return;
            }
        }
        if let Some(line) = self.pending_interrupt() {
            // Inject the interrupt as a faulted fetch slot: it traps when
            // it reaches EX, by which point every older instruction has
            // completed — precise interrupt delivery. (Trapping here at
            // IF would squash older, not-yet-executed instructions
            // sitting in ID/EX.)
            let pc = self.pc;
            self.pc = pc.wrapping_add(4);
            self.state.trace.emit(EventKind::InterruptInjected { line });
            self.if_id = Some(IfId {
                pc,
                decoded: DecodedInsn::illegal(0),
                fault: Some(Trap::new(TrapCause::Interrupt(line), 0)),
            });
            return;
        }
        let pc = self.pc;
        let fetched = match self.hooks.fetch_decoded(&mut self.state, pc) {
            Some(result) => result,
            None => self.state.fetch_decoded(pc),
        };
        match fetched {
            Ok((decoded, latency)) => {
                let latch = IfId {
                    pc,
                    decoded,
                    fault: None,
                };
                self.pc = pc.wrapping_add(4);
                if latency <= 1 {
                    self.if_id = Some(latch);
                } else {
                    self.if_pending = Some(latch);
                    self.if_busy = latency - 1;
                    self.state.trace.emit(EventKind::Stall {
                        kind: StallKind::Fetch,
                        cycles: latency - 1,
                    });
                }
            }
            Err(trap) => {
                self.pc = pc.wrapping_add(4);
                self.if_id = Some(IfId {
                    pc,
                    decoded: DecodedInsn::illegal(0),
                    fault: Some(trap),
                });
            }
        }
    }

    /// Runs until the machine halts or `max_cycles` elapse. Returns the
    /// halt reason if the machine stopped.
    pub fn run(&mut self, max_cycles: u64) -> Option<HaltReason> {
        let start = self.state.perf.cycles;
        let end = start.saturating_add(max_cycles);
        let mut last_retire = (self.state.perf.cycles, self.state.perf.instret);
        while self.state.halted.is_none() && self.state.perf.cycles - start < max_cycles {
            self.tick();
            if self.state.perf.instret != last_retire.1 {
                last_retire = (self.state.perf.cycles, self.state.perf.instret);
            } else if !self.wfi && self.state.perf.cycles - last_retire.0 > LIVELOCK_CYCLES {
                self.state.halted = Some(HaltReason::Fatal(format!(
                    "livelock: no instruction retired for {LIVELOCK_CYCLES} cycles near pc {:#010x}",
                    self.pc
                )));
            }
            if self.some_counter_above_one() {
                self.skip_frozen(end.min(last_retire.0 + LIVELOCK_CYCLES));
            }
        }
        self.state.halted.clone()
    }

    /// Runs until `instret` increases by `n` or the machine halts.
    pub fn step_insns(&mut self, n: u64) {
        let target = self.state.perf.instret + n;
        while self.state.halted.is_none() && self.state.perf.instret < target {
            self.tick();
            if self.state.perf.instret < target && self.some_counter_above_one() {
                self.skip_frozen(u64::MAX);
            }
        }
    }

    /// True when some stage is counting down a multi-cycle stall with
    /// more than one cycle left: the cheap pre-check for
    /// [`Core::skip_frozen`].
    #[inline]
    fn some_counter_above_one(&self) -> bool {
        (self.mem_busy | self.ex_busy | self.id_stall | self.if_busy) > 1
    }

    /// Advances through the frozen ticks ahead, stopping at cycle
    /// `limit` at the latest, exactly as [`Core::tick`] would one cycle
    /// at a time.
    ///
    /// A tick is frozen when it retires nothing (`mem_wb` is empty) and
    /// every stage either counts down a stall with more than one cycle
    /// left or is blocked: such a tick only bumps `cycles`, the counting
    /// stages' counters and their stall counts, and ticks the bus. It
    /// stays frozen until the smallest counter reaches 1, so `k` ticks
    /// collapse into one step. The bus is ticked once, at the last
    /// skipped cycle ([`metal_mem::Device::tick`] may advance many
    /// cycles at once); no stage samples the interrupt level in between.
    fn skip_frozen(&mut self, limit: u64) {
        if self.state.halted.is_some() || self.mem_wb.is_some() {
            return;
        }
        // Frozen ticks left before the first counter reaches 1.
        let mut k = u32::MAX;
        let mut count = |counter: u32| k = k.min(counter - 1);
        // MEM: counting, or idle.
        if self.mem_busy > 1 {
            count(self.mem_busy);
        } else if self.mem_busy == 1 || self.ex_mem.is_some() {
            return;
        }
        // EX: counting, or waiting on MEM or on an empty ID/EX latch.
        if self.ex_busy > 1 {
            count(self.ex_busy);
        } else if self.ex_busy == 1 || self.mem_busy == 0 && self.id_ex.is_some() {
            return;
        }
        // ID: counting, or waiting on a full ID/EX latch or for input.
        if self.id_stall > 1 {
            count(self.id_stall);
        } else if self.id_stall == 1
            || self.id_ex.is_none() && (self.id_hold.is_some() || self.if_id.is_some())
        {
            return;
        }
        // IF: counting, or waiting on a full IF/ID latch.
        if self.if_busy > 1 {
            count(self.if_busy);
        } else if self.if_busy == 1 || self.if_id.is_none() {
            return;
        }
        // The caller saw a counter above one, so some stage counts and
        // `k` is finite.
        let k = u64::from(k).min(limit.saturating_sub(self.state.perf.cycles));
        if k == 0 {
            return;
        }
        let step = k as u32;
        let perf = &mut self.state.perf;
        perf.cycles += k;
        if self.mem_busy > 0 {
            self.mem_busy -= step;
            perf.mem_stall += k;
        }
        if self.ex_busy > 0 {
            self.ex_busy -= step;
            perf.ex_stall += k;
        }
        if self.id_stall > 0 {
            self.id_stall -= step;
            perf.fetch_stall += k;
        }
        if self.if_busy > 0 {
            self.if_busy -= step;
            perf.fetch_stall += k;
        }
        let cycle = perf.cycles;
        self.state.trace.set_now(cycle);
        self.state.perf.mip_snapshot = self.state.bus.tick(cycle);
    }

    /// True when no live instruction is in flight: every inter-stage
    /// latch is empty and no stage is mid-way through a multi-cycle
    /// access. A halted core always qualifies — anything still latched
    /// behind the halting instruction is abandoned, never resumed, and
    /// invisible to a snapshot/restore cycle. Snapshots of the
    /// pipelined core are only faithful at such points (see
    /// [`crate::engine::EngineSnapshot`]).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.state.halted.is_some()
            || self.if_id.is_none()
                && self.if_pending.is_none()
                && self.if_busy == 0
                && self.id_ex.is_none()
                && self.id_hold.is_none()
                && self.id_stall == 0
                && self.ex_mem.is_none()
                && self.ex_hold.is_none()
                && self.ex_busy == 0
                && self.mem_wb.is_none()
                && self.mem_hold.is_none()
                && self.mem_busy == 0
    }

    /// Flips one bit in an occupied inter-stage latch (fault-injection
    /// harness). `stage`: 0 = IF/ID, 1 = ID/EX, 2 = EX/MEM, 3 = MEM/WB.
    /// Bits 0–31 hit the in-flight instruction word (IF/ID, ID/EX, which
    /// re-decode) or the latched data value (EX/MEM `alu`, MEM/WB
    /// `value`); bits 32–63 hit the latched PC. Returns `false` when the
    /// latch is empty — an injection into a bubble is architecturally
    /// masked by construction.
    pub fn inject_latch_bit(&mut self, stage: u8, bit: u8) -> bool {
        let bit = bit & 63;
        let word_bit = 1u32 << (bit & 31);
        match stage & 3 {
            0 => match &mut self.if_id {
                Some(l) => {
                    if bit < 32 {
                        l.decoded = decode_to(l.decoded.word ^ word_bit);
                    } else {
                        l.pc ^= word_bit;
                    }
                    true
                }
                None => false,
            },
            1 => match &mut self.id_ex {
                Some(l) => {
                    if bit < 32 {
                        l.decoded = decode_to(l.decoded.word ^ word_bit);
                    } else {
                        l.pc ^= word_bit;
                    }
                    true
                }
                None => false,
            },
            2 => match &mut self.ex_mem {
                Some(l) => {
                    if bit < 32 {
                        l.alu ^= word_bit;
                    } else {
                        l.pc ^= word_bit;
                    }
                    true
                }
                None => false,
            },
            _ => match &mut self.mem_wb {
                Some(l) => {
                    if bit < 32 {
                        l.value ^= word_bit;
                    } else {
                        l.pc ^= word_bit;
                    }
                    true
                }
                None => false,
            },
        }
    }
}

impl<H: Hooks> Core<H> {
    /// Loads program segments into RAM and points fetch at `entry`.
    ///
    /// All in-flight pipeline state (including a pending WFI) and any
    /// previous halt are cleared: the core is ready to `run` the new
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not fit in RAM (a build-setup error, not
    /// a runtime condition).
    pub fn load_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = (u32, &'a [u8])>,
        entry: u32,
    ) {
        self.state.load_image(segments);
        self.set_pc(entry);
    }
}
