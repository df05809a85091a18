"""Vulnerability detectors over executed, taint-annotated traces.

Each detector is a predicate over one input's trace/report (plus a little
cross-transaction memory for order-dependency), yielding findings deduplicated
by (kind, program counter) across the whole campaign.  The ten kinds:

    AF  assertion failure        IO  integer overflow into state
    RE  reentrant value call     TD  transaction order dependency
    BD  block-data dependency    UE  unchecked failed call
    UD  attacker-driven delegatecall  LE  ether leak to a stranger
    LO  locked ether (can receive, cannot send)  US  open selfdestruct
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis.expr import contains, variables
from .analysis.slots import resolve_key
from .analysis.taint import BLOCK_KINDS, FUZZABLE_KINDS, TaintReport, parse_var, var_kinds
from .evm import ExecutionTrace
from .evm.opcodes import CALL_OPS, SEND_OPS, disassemble
from .evm.state import AccountSet
from .ga.individual import Individual, Input

ALL_KINDS = ("AF", "IO", "RE", "BD", "TD", "UE", "UD", "LE", "LO", "US")

# a .send()/.transfer() stipend cannot reenter; anything above it can
REENTRANCY_GAS_STIPEND = 2300


@dataclass(frozen=True)
class Finding:
    kind: str
    pc: int
    input_index: int
    individual: str  # fingerprint of the individual that exposed it
    evidence: dict

    def jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "pc": self.pc,
            "input_index": self.input_index,
            "individual": self.individual,
            "evidence": self.evidence,
        }


@dataclass
class _InputView:
    """Everything the detectors need to know about one executed input."""

    index: int
    input: Input
    trace: ExecutionTrace
    report: TaintReport
    received_before: dict[int, int]  # state.received_from before this input ran


class DetectorSuite:
    """Campaign-lifetime detector state: findings and the slot-writer memory
    that transaction-order dependency needs."""

    def __init__(
        self,
        accounts: AccountSet,
        contract: int,
        runtime_code: bytes,
        enabled: tuple[str, ...] = ALL_KINDS,
    ) -> None:
        self.accounts = accounts
        self.contract = contract
        self.enabled = frozenset(enabled)
        self.findings: dict[tuple[str, int], Finding] = {}
        # storage identity -> senders whose applied writes reached it
        self.slot_writers: dict[tuple, set[int]] = {}
        self._code_can_send = any(
            name in SEND_OPS for _, name, _ in disassemble(runtime_code)
        )

    # ------------------------------------------------------------------

    def inspect(
        self,
        individual: Individual,
        traces: list[ExecutionTrace],
        reports: list[TaintReport],
        received_before: list[dict[int, int]],
    ) -> list[Finding]:
        """Run every detector over one executed individual; returns only
        findings not already known."""
        views = [
            _InputView(i, inp, trace, report, before)
            for i, (inp, trace, report, before) in enumerate(
                zip(individual.inputs, traces, reports, received_before)
            )
        ]
        fingerprint: str | None = None
        fresh: list[Finding] = []
        for view in views:
            for kind, pc, evidence in self._detect(view, views):
                if kind not in self.enabled:
                    continue
                key = (kind, pc)
                if key in self.findings:
                    continue
                if fingerprint is None:
                    fingerprint = individual.fingerprint()
                finding = Finding(kind, pc, view.index, fingerprint, evidence)
                self.findings[key] = finding
                fresh.append(finding)
            # remember writes input-by-input so a later input of this same
            # individual can already trip order-dependency on them
            self._remember_writes(view)
        return fresh

    def _detect(self, view: _InputView, views: list[_InputView]):
        yield from self._assertion_failures(view)
        yield from self._overflows_into_state(view)
        yield from self._reentrant_calls(view)
        yield from self._block_dependent_transfers(view)
        yield from self._order_dependent_transfers(view, views)
        yield from self._unchecked_calls(view)
        yield from self._attacker_delegatecalls(view, views)
        yield from self._ether_leaks(view, views)
        yield from self._locked_ether(view)
        yield from self._open_selfdestructs(view)

    # -- per-detector rules ---------------------------------------------

    def _assertion_failures(self, view):
        # a genuine INVALID opcode was reached (failed assert); synthetic
        # fault records carry error=True and do not count
        for record in view.trace.records:
            if record.op == "INVALID" and not record.error:
                yield "AF", record.pc, {"terminal": view.trace.terminal}

    def _overflows_into_state(self, view):
        if not view.trace.state_delta_applied:
            return  # a reverted overflow is a guard doing its job
        for event in view.report.overflows:
            if not (var_kinds(event.result) & FUZZABLE_KINDS):
                continue
            sinks = []
            for store in view.report.stores:
                if store.value_term is not None and contains(store.value_term, event.result):
                    sinks.append(("SSTORE", store.pc))
            for call in view.report.calls:
                if call.value_term is not None and contains(call.value_term, event.result):
                    sinks.append((call.op, call.pc))
            if sinks:
                yield "IO", event.pc, {
                    "op": event.op,
                    "operands": [hex(x) for x in event.concrete_operands],
                    "sinks": [{"op": op, "pc": pc} for op, pc in sinks],
                }

    def _reentrant_calls(self, view):
        if not view.trace.state_delta_applied:
            return
        for call in view.report.calls:
            if call.op not in ("CALL", "CALLCODE"):
                continue
            if not call.transferred or call.gas <= REENTRANCY_GAS_STIPEND:
                continue
            later_stores = [
                store.pc
                for store in view.report.stores
                if store.record_index > call.record_index
            ]
            if later_stores:
                yield "RE", call.pc, {
                    "gas": call.gas,
                    "value": call.value,
                    "stores_after": later_stores,
                }

    def _block_dependent_transfers(self, view):
        for call in view.report.calls:
            moves_value = call.transferred or (
                call.op == "SELFDESTRUCT" and view.trace.state_delta_applied
            )
            if not moves_value:
                continue
            kinds = set(call.control_kinds)
            if call.value_term is not None:
                kinds |= var_kinds(call.value_term)
            if call.target_term is not None:
                kinds |= var_kinds(call.target_term)
            hits = kinds & BLOCK_KINDS
            if hits:
                yield "BD", call.pc, {"op": call.op, "depends_on": sorted(hits)}

    def _order_dependent_transfers(self, view, views):
        for call in view.report.calls:
            if not call.transferred or call.value_term is None:
                continue
            value_vars = variables(call.value_term)
            # storage the transfer depends on, written by someone else in an
            # earlier individual: the registry remembers those writers
            for name in sorted(value_vars):
                info = parse_var(name)
                if info.kind != "storage":
                    continue
                identity = resolve_key(info.extra, view.trace.sha3_preimages).identity()
                writers = self.slot_writers.get(identity, set())
                foreign = writers - {view.input.sender}
                if foreign:
                    yield "TD", call.pc, {
                        "slot": list(identity) if identity[0] != "raw" else ["raw", hex(identity[1])],
                        "other_writers": [hex(w) for w in sorted(foreign)],
                    }
            # within this individual the shadow storage substitutes the
            # writer's own term, so look for a differently-sent earlier input
            # whose applied store shares variables with the transferred value
            for earlier in views[: view.index]:
                if earlier.input.sender == view.input.sender:
                    continue
                if not earlier.trace.state_delta_applied:
                    continue
                for store in earlier.report.stores:
                    if store.value_term is None:
                        continue
                    shared = variables(store.value_term) & value_vars
                    if shared:
                        yield "TD", call.pc, {
                            "mediated_by": sorted(shared),
                            "other_writers": [hex(earlier.input.sender)],
                        }

    def _unchecked_calls(self, view):
        checked = set()
        for constraint in view.report.constraints:
            checked |= variables(constraint.cond)
        for call in view.report.calls:
            if call.op not in CALL_OPS:
                continue
            if call.success:
                continue
            status_var = f"callres_{view.index}_{call.to:x}"
            if status_var not in checked:
                yield "UE", call.pc, {"op": call.op, "callee": hex(call.to)}

    def _attacker_delegatecalls(self, view, views):
        if not view.trace.state_delta_applied:
            return
        for call in view.report.calls:
            if call.op != "DELEGATECALL" or call.target_term is None:
                continue
            controlling = []
            for name in sorted(variables(call.target_term)):
                info = parse_var(name)
                if info.kind not in FUZZABLE_KINDS or info.input_index is None:
                    continue
                source = views[info.input_index].input if info.input_index < len(views) else None
                if source is not None and self.accounts.is_attacker(source.sender):
                    controlling.append(name)
            if controlling:
                yield "UD", call.pc, {
                    "target": hex(call.to),
                    "controlled_by": controlling,
                }

    def _ether_leaks(self, view, views):
        if not view.trace.state_delta_applied:
            return
        for call in view.report.calls:
            if call.op not in ("CALL", "CALLCODE"):
                continue
            if not call.transferred or call.value <= 0:
                continue
            if not self.accounts.is_attacker(call.to):
                continue
            if view.received_before.get(call.to, 0) > 0:
                continue  # the recipient paid in first: refund, not leak
            if self._address_supplied_by_non_attacker(call.to, views):
                continue  # somebody trusted asked for this payout
            yield "LE", call.pc, {
                "to": hex(call.to),
                "value": call.value,
                "sender": hex(view.input.sender),
            }

    def _address_supplied_by_non_attacker(self, address, views) -> bool:
        for other in views:
            if self.accounts.is_attacker(other.input.sender):
                continue
            if any(arg == address for arg in _flat_args(other.input.args)):
                return True
        return False

    def _locked_ether(self, view):
        if self._code_can_send:
            return
        if view.trace.state_delta_applied and view.input.value > 0:
            yield "LO", 0, {"accepted_value": view.input.value}

    def _open_selfdestructs(self, view):
        if not view.trace.state_delta_applied:
            return
        if not self.accounts.is_attacker(view.input.sender):
            return
        for call in view.report.calls:
            if call.op == "SELFDESTRUCT":
                yield "US", call.pc, {
                    "sender": hex(view.input.sender),
                    "beneficiary": hex(call.to),
                }

    # -- cross-transaction memory -----------------------------------------

    def _remember_writes(self, view):
        if not view.trace.state_delta_applied:
            return
        for store in view.report.stores:
            identity = resolve_key(store.raw_key, view.trace.sha3_preimages).identity()
            self.slot_writers.setdefault(identity, set()).add(view.input.sender)


def _flat_args(args) -> list:
    out = []
    for arg in args:
        if isinstance(arg, list):
            out.extend(_flat_args(arg))
        else:
            out.append(arg)
    return out
