//! The ATUM trace-transparency verifier.
//!
//! A control-store patch is *transparent* when the architectural machine
//! cannot tell it is there: same register file, same condition codes,
//! same memory image (outside the reserved trace region), same faults,
//! and the displaced stock routine still runs. This pass proves that
//! statically for every installed hook:
//!
//! * **hook detection** — every slot pointing into the patch region is
//!   an installed hook ([`detect_hooks`](crate::hook::detect_hooks)),
//!   and the pass walks each hook's closure with the shared
//!   [hook walker](crate::hook);
//! * **write discipline** — every word reachable from a hook writes only
//!   patch scratch (`P0`–`P7`) and `MAR`/`MDR`, never sets architectural
//!   condition codes, never moves the PC or the operand-size latch, and
//!   touches privileged state only through the four `TR*` trace
//!   registers;
//! * **no virtual memory traffic** — a virtual load or store can fault
//!   mid-patch, which would be architecturally visible; patches must use
//!   the physical transfers;
//! * **store bounds** — the walker tracks how each `MAR` value is
//!   derived (`TRPTR`-relative, `TRLIM`-relative, constant, caller-saved,
//!   unknown) and whether a `TRLIM − (TRPTR+k)` borrow check dominates
//!   the store, with no write to `TRPTR` or `TRLIM` since; a physical
//!   store is accepted only inside the checked record window at `TRPTR`
//!   or inside the reserved spill line at `TRLIM`. A `Halt` here is a
//!   pause an undisturbed run resumes from, so proofs survive it (the
//!   atomicity pass treats it as a drain window instead);
//! * **rejoin** — every terminating path leaves the patch through a jump
//!   to the hooked slot's original stock target, and (for the transfer
//!   hooks, which run with a live datapath) with `MAR`/`MDR` provably
//!   restored to the caller's values. Every edge the walker does not
//!   follow — a jump into another routine, a fall off the end, a call
//!   out of the patch region, a return to the micro-caller — is a
//!   finding.
//!
//! What this pass deliberately cannot prove: timing (the ATUM slowdown
//! is a measured quantity), the engine's micro-op semantics themselves,
//! and bounds for address arithmetic shapes the patches do not use (an
//! exotic-but-correct derivation is reported as a finding rather than
//! silently trusted — the verifier is conservative by construction).

use crate::cfg::SymbolMap;
use crate::hook::{self, AbsVal, Client, Edge, Hook, Sink, State, RECORD_BYTES, SPILL_LINE_BYTES};
use crate::{Finding, Pass, Severity};
use atum_arch::PrivReg;
use atum_ucode::{CcEffect, ControlStore, MicroOp, MicroReg};

/// Runs the transparency verifier over every detected hook.
pub fn check(cs: &ControlStore) -> Vec<Finding> {
    let map = SymbolMap::new(cs);
    let mut sink = Sink::new(&map, Pass::Transparency);
    for hook in hook::detect_hooks(cs) {
        let mut v = Verifier {
            sink: &mut sink,
            hook: &hook,
            rejoined: false,
        };
        hook::walk(cs, &map, hook.patch_addr, &mut v);
        if !v.rejoined {
            v.sink.emit(
                hook.patch_addr,
                Severity::Error,
                format!(
                    "{}: no path rejoins the stock flow at the displaced {}",
                    hook.desc, hook.expected_name
                ),
            );
        }
    }
    let mut findings = sink.findings;
    findings.sort_by_key(|f| f.addr);
    findings
}

/// The transparency pass over one hook, as a client of the hook walker.
struct Verifier<'a, 'm> {
    sink: &'a mut Sink<'m>,
    hook: &'a Hook,
    /// Whether some path rejoins the stock flow at the displaced routine.
    rejoined: bool,
}

impl Client for Verifier<'_, '_> {
    const HALT_DRAINS: bool = false;

    /// Per-word legality: destinations, condition codes, privileged
    /// writes, virtual memory traffic, architectural side effects, and
    /// the exits that end or re-dispatch the micro-flow.
    fn word(&mut self, addr: u32, op: MicroOp, _: &State) {
        use Severity::{Error, Warning};
        if let MicroOp::Mov { dst, .. } | MicroOp::Alu { dst, .. } | MicroOp::ReadPr { dst, .. } =
            op
        {
            if hook::slot(dst).is_none() {
                self.sink.emit(
                    addr,
                    Error,
                    format!("patch writes {dst}, which is architecturally visible state"),
                );
            }
        }
        let (severity, message) = match op {
            MicroOp::Alu { cc, .. } if cc != CcEffect::None => (
                Error,
                format!("patch ALU op sets architectural condition codes (cc {cc:?})"),
            ),
            MicroOp::WritePr { num, .. } => {
                let which = match num {
                    MicroReg::Imm(n) => match PrivReg::from_number(n) {
                        Some(PrivReg::Trctl | PrivReg::Trbase | PrivReg::Trptr | PrivReg::Trlim) => {
                            return
                        }
                        Some(p) => p.mnemonic().to_string(),
                        None => format!("pr[{n}]"),
                    },
                    other => format!("a dynamically selected register ({other})"),
                };
                (
                    Error,
                    format!("patch writes privileged register {which}; only the TR* trace registers are invisible to the OS"),
                )
            }
            MicroOp::SetSize(_) | MicroOp::SetSizeDyn(_) => (
                Error,
                "patch alters the operand-size latch the interrupted flow depends on".into(),
            ),
            MicroOp::Read { .. } => (
                Error,
                "virtual load in a patch can fault mid-instruction; use phys.read".into(),
            ),
            MicroOp::Write { .. } => (
                Error,
                "virtual store in a patch can fault and touches paged memory; use phys.write into the reserved region".into(),
            ),
            MicroOp::AdvancePc => (Error, "patch advances the architectural PC".into()),
            MicroOp::TbFlushAll | MicroOp::TbFlushProc => (
                Warning,
                "patch flushes the translation buffer (architecturally invisible but perturbs the machine being traced)".into(),
            ),
            MicroOp::DecodeNext => (
                Error,
                "patch ends the architectural instruction (decode.next) instead of rejoining the stock flow".into(),
            ),
            MicroOp::Fault(k) => (
                Error,
                format!("patch raises a {k:?} fault, which is architecturally visible"),
            ),
            MicroOp::DispatchOpcode | MicroOp::DispatchSpec(_) => {
                (Error, "patch re-dispatches through a patchable table".into())
            }
            _ => return,
        };
        self.sink.emit(addr, severity, message);
    }

    /// A physical store is accepted only inside the checked record
    /// window at `TRPTR` or inside the reserved spill line at `TRLIM`.
    fn store(&mut self, addr: u32, st: &mut State) {
        let message = match st.eval(MicroReg::Mar) {
            AbsVal::Pr { pr, off } if pr == PrivReg::Trptr.number() => {
                if st.checked >= RECORD_BYTES && (0..=st.checked - 4).contains(&off) {
                    return;
                }
                format!(
                    "physical store at trptr{off:+} is not covered by a trlim bounds check (proven headroom: {} bytes)",
                    st.checked
                )
            }
            AbsVal::Pr { pr, off }
                if pr == PrivReg::Trlim.number() && (0..=SPILL_LINE_BYTES - 4).contains(&off) =>
            {
                return
            }
            mar => format!(
                "physical store through {} is outside the reserved trace region",
                mar.describe(true)
            ),
        };
        self.sink.emit(addr, Severity::Error, message);
    }

    /// A rejoin, checked against the displaced routine and the datapath;
    /// every other edge the walker does not follow is a finding.
    fn edge(&mut self, addr: u32, edge: Edge, st: &State) {
        let (map, hook) = (self.sink.map, self.hook);
        let message = match edge {
            Edge::Rejoin(t) => match hook.expected {
                Some(e) if t == e => {
                    self.rejoined = true;
                    let (mar, mdr) = (st.eval(MicroReg::Mar), st.eval(MicroReg::Mdr));
                    if !hook.restore_datapath
                        || (mar == AbsVal::Init(MicroReg::Mar)
                            && mdr == AbsVal::Init(MicroReg::Mdr))
                    {
                        return;
                    }
                    format!(
                        "rejoins {} with unrestored datapath (mar = {}, mdr = {})",
                        hook.expected_name,
                        mar.describe(true),
                        mdr.describe(true)
                    )
                }
                Some(e) => format!(
                    "rejoins the stock flow at {} instead of the displaced {} ({e:#06x})",
                    map.name(t),
                    hook.expected_name
                ),
                None => {
                    self.rejoined = true;
                    return;
                }
            },
            Edge::Slot { entry, call } => format!(
                "patch {} through patchable entry slot {entry:?} (re-enters the patch)",
                if call { "calls" } else { "jumps" }
            ),
            Edge::Escape(t) => format!(
                "patch escapes its routine into {} without rejoining the stock flow",
                map.name(t)
            ),
            Edge::FallOff(start) => format!(
                "patch falls through the end of {} without rejoining the stock flow",
                map.name(start)
            ),
            Edge::CallStock(t) => format!(
                "patch calls into stock microcode at {} (transparency unverifiable)",
                map.name(t)
            ),
            Edge::CallOutside(t) => format!("call target {t:#06x} outside the store"),
            Edge::TooDeep => {
                "patch micro-call depth exceeds the verifier bound (runaway recursion?)".into()
            }
            Edge::RetPast(start) => format!(
                "patch subroutine returns past the end of {}",
                map.name(start)
            ),
            Edge::RetToCaller => {
                "patch returns to the micro-caller without running the displaced stock routine"
                    .into()
            }
        };
        self.sink.emit(addr, Severity::Error, message);
    }
}
