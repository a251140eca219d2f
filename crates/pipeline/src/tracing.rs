//! A tracing decorator over the extension-hook interface.
//!
//! [`TracingHooks`] wraps any [`Hooks`] implementation and emits trace
//! events for the extension activity the pipeline itself cannot see:
//! overridden instruction fetches (MRAM), custom-instruction execution,
//! and trap redirection. Everything else is forwarded verbatim, so
//! wrapping an extension changes observed behaviour and timing not at
//! all — the zero-perturbation property the differential tests assert.
//!
//! Events go to the machine's own [`TraceHandle`]
//! (`state.trace`), so enabling tracing is one
//! [`crate::state::MachineState::set_trace`] call whether or not the
//! decorator is used; the decorator only adds the hook-level events.
//!
//! [`TraceHandle`]: metal_trace::TraceHandle

use crate::hooks::{CustomExec, DecodeOutcome, Hooks, TrapDisposition, TrapEvent};
use crate::state::MachineState;
use crate::trap::Trap;
use metal_isa::{DecodedInsn, Insn};
use metal_trace::EventKind;

/// Wraps `H`, emitting hook-level trace events.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracingHooks<H> {
    /// The wrapped extension.
    pub inner: H,
}

impl<H> TracingHooks<H> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> TracingHooks<H> {
        TracingHooks { inner }
    }

    /// Unwraps back to the inner extension.
    pub fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: Hooks> Hooks for TracingHooks<H> {
    #[inline]
    fn fetch_decoded(
        &mut self,
        state: &mut MachineState,
        pc: u32,
    ) -> Option<Result<(DecodedInsn, u32), Trap>> {
        // Forward to the inner hook's own override (MRAM pre-decode),
        // emitting the event here so it appears exactly once per fetch:
        // an extension-provided fetch is an MRAM fetch under Metal.
        let result = self.inner.fetch_decoded(state, pc);
        if matches!(result, Some(Ok(_))) {
            state.trace.emit(EventKind::MramFetch { pc });
        }
        result
    }

    #[inline]
    fn decode_is_sensitive(&self, state: &MachineState, word: u32, insn: &Insn) -> bool {
        self.inner.decode_is_sensitive(state, word, insn)
    }

    #[inline]
    fn decode(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
    ) -> DecodeOutcome {
        // The pipeline emits DecodeReplace on the Replace path itself, so
        // the decorator only forwards.
        self.inner.decode(state, pc, word, insn)
    }

    fn exec_custom(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        let result = self.inner.exec_custom(state, pc, word, insn, rs1, rs2);
        if result.is_ok() {
            state.trace.emit(EventKind::CustomExec { pc, word });
        }
        result
    }

    fn on_trap(&mut self, state: &mut MachineState, event: &TrapEvent) -> TrapDisposition {
        let disposition = self.inner.on_trap(state, event);
        if let TrapDisposition::Redirect { target, .. } = disposition {
            state.trace.emit(EventKind::Marker {
                name: "trap.redirect",
                value: u64::from(target),
            });
        }
        disposition
    }

    #[inline]
    fn interrupts_allowed(&self, state: &MachineState) -> bool {
        self.inner.interrupts_allowed(state)
    }

    #[inline]
    fn on_retire(&mut self, state: &mut MachineState, pc: u32, insn: &Insn) {
        self.inner.on_retire(state, pc, insn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::state::CoreConfig;
    use metal_trace::{TraceConfig, TraceHandle};

    #[test]
    fn decorator_forwards_defaults() {
        let mut hooks = TracingHooks::new(NoHooks);
        let mut state = MachineState::new(&CoreConfig::default());
        state.set_trace(TraceHandle::enabled(TraceConfig::default()));
        assert!(hooks.fetch_decoded(&mut state, 0).is_none());
        assert!(hooks.interrupts_allowed(&state));
        let insn = Insn::Mexit;
        assert_eq!(hooks.decode(&mut state, 0, 0, &insn), DecodeOutcome::Pass);
        assert!(hooks.exec_custom(&mut state, 0, 0, &insn, 0, 0).is_err());
        // NoHooks never overrides fetch or executes custom ops, so no
        // hook-level events were emitted.
        assert!(state.trace.events().is_empty());
    }

    #[test]
    fn redirect_is_marked() {
        struct Redirecting;
        impl Hooks for Redirecting {
            fn on_trap(&mut self, _: &mut MachineState, _: &TrapEvent) -> TrapDisposition {
                TrapDisposition::Redirect {
                    target: 0xF00,
                    stall: 0,
                }
            }
        }
        let mut hooks = TracingHooks::new(Redirecting);
        let mut state = MachineState::new(&CoreConfig::default());
        state.set_trace(TraceHandle::enabled(TraceConfig::default()));
        let event = TrapEvent {
            cause: crate::trap::TrapCause::Ecall,
            tval: 0,
            pc: 0,
        };
        hooks.on_trap(&mut state, &event);
        let events = state.trace.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::Marker {
                name: "trap.redirect",
                value: 0xF00
            }
        ));
    }
}
