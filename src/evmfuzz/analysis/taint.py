"""Taint tracking over recorded traces.

Walks the instruction records of an executed input while maintaining a shadow
stack/memory/storage of symbolic terms.  Fuzzer-controllable sources (call
value, caller, block values, calldata words, injected call results) become
named variables; everything they touch becomes a compound term.  Conditional
jumps over tainted conditions yield the path constraints the solver negates;
tainted call/store operands feed the vulnerability detectors.

Variable naming is the contract between this module, the solver, and the
mutation pools:

    callvalue_<i>  caller_<i>  origin_<i>  timestamp_<i>  blocknumber_<i>
    calldatasize_<i>  gas_<i>  arg_<j>_<i>  calldata_<off>_<i>
    callres_<i>_<addr>  callret_<i>_<addr>_w<chunk>  retsize_<i>_<addr>
    extcode_<i>_<addr>  balance_<i>  blockhash_<i>  storage_<rawkey>

where <i> is the input's position in its individual.  storage_* names carry
no input index: they identify a location, persist across inputs, and are
never directly fuzzable (the solver concretizes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..evm import ExecutionTrace
from ..evm.interpreter import DEFAULT_CALL_RESULT
from ..evm.opcodes import CALL_OPS, MASK, NAME_TO_CODE, TABLE, WORD_OPS
from .expr import Term, apply, const, opaque, var, variables

FUZZABLE_KINDS = frozenset(
    [
        "callvalue",
        "caller",
        "origin",
        "timestamp",
        "blocknumber",
        "calldatasize",
        "gas",
        "arg",
        "callres",
        "callret",
        "retsize",
        "extcode",
    ]
)

BLOCK_KINDS = frozenset(["timestamp", "blocknumber", "blockhash"])


@dataclass(frozen=True)
class VarInfo:
    kind: str
    input_index: int | None
    extra: object = None


def parse_var(name: str) -> VarInfo:
    parts = name.split("_")
    kind = parts[0]
    if kind == "storage":
        return VarInfo(kind, None, int(parts[1], 16))
    if kind == "arg":
        return VarInfo(kind, int(parts[2]), int(parts[1]))
    if kind == "calldata":
        return VarInfo(kind, int(parts[2]), int(parts[1]))
    if kind in ("callres", "retsize", "extcode"):
        return VarInfo(kind, int(parts[1]), int(parts[2], 16))
    if kind == "callret":
        return VarInfo(kind, int(parts[1]), (int(parts[2], 16), int(parts[3][1:])))
    return VarInfo(kind, int(parts[1]))


def pool_tag_key(info: VarInfo) -> str | None:
    """The Input.pool_tags key a variable corresponds to, if any."""
    if info.kind == "callvalue":
        return "callvalue"
    if info.kind in ("caller", "origin"):
        return "caller"
    if info.kind in ("timestamp", "blocknumber", "calldatasize", "gas"):
        return info.kind
    if info.kind == "arg":
        return f"arg_{info.extra}"
    if info.kind in ("callres", "retsize"):
        return f"callret_{info.extra:x}"
    if info.kind == "callret":
        address, _chunk = info.extra
        return f"callret_{address:x}"
    if info.kind == "extcode":
        return f"extcodesize_{info.extra:x}"
    return None


def var_kinds(term: Term) -> frozenset[str]:
    return frozenset(parse_var(name).kind for name in variables(term))


@dataclass(frozen=True)
class PathConstraint:
    pc: int
    input_index: int
    cond: Term
    taken: bool
    true_dest: int
    false_dest: int


@dataclass
class OverflowEvent:
    pc: int
    input_index: int
    op: str
    result: Term
    concrete_operands: tuple


@dataclass
class CallAnnotation:
    record_index: int
    input_index: int
    pc: int
    op: str
    to: int
    value: int
    gas: int
    success: int
    transferred: bool
    target_term: Term | None
    value_term: Term | None
    control_kinds: frozenset[str]


@dataclass
class StoreAnnotation:
    record_index: int
    input_index: int
    pc: int
    raw_key: int
    value_term: Term | None
    control_kinds: frozenset[str]


@dataclass
class TaintReport:
    input_index: int
    constraints: list[PathConstraint] = field(default_factory=list)
    overflows: list[OverflowEvent] = field(default_factory=list)
    calls: list[CallAnnotation] = field(default_factory=list)
    stores: list[StoreAnnotation] = field(default_factory=list)
    var_values: dict[str, int] = field(default_factory=dict)

    def final_constraint(self) -> PathConstraint | None:
        return self.constraints[-1] if self.constraints else None


_OVERFLOWABLE = {"ADD", "SUB", "MUL"}

# Environment reads whose pushed word becomes a variable of the given kind.
_ENV_SOURCES = {
    "CALLVALUE": "callvalue", "CALLER": "caller", "ORIGIN": "origin",
    "TIMESTAMP": "timestamp", "NUMBER": "blocknumber",
    "CALLDATASIZE": "calldatasize", "GAS": "gas", "BALANCE": "balance",
    "BLOCKHASH": "blockhash",
}

# (target, value) operand depths, 0 for none, of the ops the interpreter
# records a CallEvent for.
_CALL_OPERANDS = {
    "CALL": (2, 3), "CALLCODE": (2, 3), "DELEGATECALL": (2, 0),
    "STATICCALL": (2, 0), "CREATE": (0, 1), "SELFDESTRUCT": (1, 0),
}


class TaintTracker:
    """Shadow state shared by all inputs of one individual."""

    def __init__(self) -> None:
        self._storage: dict[int, Term] = {}
        self.realignments = 0  # should stay zero; misalignment means a bug

    def run_input(self, input_index: int, inp, trace: ExecutionTrace) -> TaintReport:
        report = TaintReport(input_index=input_index)
        storage_before = dict(self._storage)
        walker = _Walker(self, input_index, inp, trace, report)
        walker.walk()
        self.realignments += walker.realignments
        if not trace.state_delta_applied:
            self._storage = storage_before
        return report


def taint_individual(inputs, traces: list[ExecutionTrace]) -> list[TaintReport]:
    tracker = TaintTracker()
    return [
        tracker.run_input(index, inp, trace)
        for index, (inp, trace) in enumerate(zip(inputs, traces))
    ]


class _Walker:
    def __init__(self, tracker: TaintTracker, input_index: int, inp, trace, report):
        self.tracker = tracker
        self.i = input_index
        self.inp = inp
        self.trace = trace
        self.report = report
        self.shadow: list[Term | None] = []
        self.memory: dict[int, tuple[int, Term]] = {}
        self.control_kinds: frozenset[str] = frozenset()
        self.last_callee: int | None = None
        self.realignments = 0
        self.calldata = inp.calldata() if inp is not None else b""

    # -- helpers ---------------------------------------------------------

    def _result_of(self, index: int) -> int:
        records = self.trace.records
        if index + 1 < len(records) and records[index + 1].stack:
            return records[index + 1].stack[-1]
        return 0

    def _mark(self, name: str, concrete: int) -> Term:
        self.report.var_values[name] = concrete & MASK
        return var(name)

    def _mem_clear(self, offset: int, size: int) -> None:
        if size <= 0:
            return
        end = offset + size
        dead = [
            o for o, (sz, _) in self.memory.items() if o < end and offset < o + sz
        ]
        for o in dead:
            del self.memory[o]

    def _mem_write(self, offset: int, size: int, term: Term | None) -> None:
        self._mem_clear(offset, size)
        if term is not None and size > 0:
            self.memory[offset] = (size, term)

    def _mem_terms(self, offset: int, size: int) -> list[Term]:
        if size <= 0:
            return []
        end = offset + size
        return [
            term
            for o, (sz, term) in sorted(self.memory.items())
            if o < end and offset < o + sz
        ]

    def _mem_read_word(self, offset: int, concrete: int) -> Term | None:
        entry = self.memory.get(offset)
        if entry is not None and entry[0] == 32:
            others = self._mem_terms(offset, 32)
            if len(others) == 1:
                return entry[1]
        terms = self._mem_terms(offset, 32)
        if not terms:
            return None
        return opaque("mix", concrete, *terms)

    def _term_or_const(self, term: Term | None, concrete: int) -> Term:
        return term if term is not None else const(concrete)

    def _call_result(self, to: int) -> tuple[int, bytes]:
        env = self.inp.env if self.inp is not None else None
        if env is not None:
            return env.call_results.get(to, DEFAULT_CALL_RESULT)
        return DEFAULT_CALL_RESULT

    def _taint_returndata(self, to: int, ret: bytes, out_off: int, out_sz: int) -> None:
        if out_sz <= 0:
            return
        self._mem_clear(out_off, out_sz)
        for chunk_start in range(0, out_sz, 32):
            chunk = (ret[chunk_start:chunk_start + 32]).ljust(32, b"\x00")
            size = min(32, out_sz - chunk_start)
            name = f"callret_{self.i}_{to:x}_w{chunk_start // 32}"
            term = self._mark(name, int.from_bytes(chunk, "big"))
            self.memory[out_off + chunk_start] = (size, term)

    def _calldata_word_term(self, offset: int, concrete: int) -> Term | None:
        if offset == 0:
            return None  # the selector word: fixed per individual
        if offset >= 4 and (offset - 4) % 32 == 0:
            return self._mark(f"arg_{(offset - 4) // 32}_{self.i}", concrete)
        return self._mark(f"calldata_{offset}_{self.i}", concrete)

    # -- the walk --------------------------------------------------------

    def walk(self) -> None:
        i = self.i
        records = self.trace.records
        events = {event.record_index: event for event in self.trace.calls}
        end = len(records)
        if end and records[-1].error:
            end -= 1  # the synthetic fault record: nothing executes past it
            if end and records[end - 1].pc == records[end].pc:
                end -= 1  # it repeats the pc of the op that raised, unfinished
        for index in range(end):
            record = records[index]
            if len(self.shadow) != len(record.stack):
                self.realignments += 1
                self.shadow = [None] * len(record.stack)
            op = record.op
            stack = record.stack
            shadow = self.shadow

            if op.startswith("PUSH"):  # first: the commonest op by far
                shadow.append(None)
                continue
            _, pops, pushes = TABLE[NAME_TO_CODE[op]]
            if op.startswith("DUP"):
                shadow.append(shadow[-pops])
            elif op.startswith("SWAP"):
                shadow[-1], shadow[-pops] = shadow[-pops], shadow[-1]
            elif op in WORD_OPS:
                terms = shadow[:-pops - 1:-1]
                del shadow[-pops:]
                if terms.count(None) == pops:
                    shadow.append(None)
                else:
                    concretes = stack[:-pops - 1:-1]
                    result = apply(
                        op.lower(),
                        *(self._term_or_const(t, c) for t, c in zip(terms, concretes)),
                    )
                    shadow.append(result)
                    if op in _OVERFLOWABLE and _wraps(op, concretes):
                        self.report.overflows.append(
                            OverflowEvent(record.pc, i, op.lower(), result, concretes)
                        )
            elif op == "JUMPI":
                del shadow[-1]
                cond_term = shadow.pop()
                if cond_term is not None:
                    self.report.constraints.append(
                        PathConstraint(
                            pc=record.pc,
                            input_index=i,
                            cond=cond_term,
                            taken=stack[-2] != 0,
                            true_dest=stack[-1],
                            false_dest=record.pc + 1,
                        )
                    )
                    self.control_kinds |= var_kinds(cond_term)
            elif op in _ENV_SOURCES:
                del shadow[len(shadow) - pops:]
                shadow.append(
                    self._mark(f"{_ENV_SOURCES[op]}_{i}", self._result_of(index))
                )
            elif op == "CALLDATALOAD":
                shadow.pop()
                offset = stack[-1]
                shadow.append(self._calldata_word_term(offset, self._result_of(index)))
            elif op == "CALLDATACOPY":
                del shadow[-3:]
                dest, offset, size = stack[-1], stack[-2], stack[-3]
                self._mem_clear(dest, size)
                for chunk_start in range(0, size, 32):
                    term = self._calldata_word_term(
                        offset + chunk_start,
                        int.from_bytes(
                            self.calldata[offset + chunk_start:offset + chunk_start + 32]
                            .ljust(32, b"\x00"),
                            "big",
                        ),
                    )
                    if term is not None:
                        self.memory[dest + chunk_start] = (
                            min(32, size - chunk_start),
                            term,
                        )
            elif op in ("CODECOPY", "RETURNDATACOPY"):
                del shadow[-3:]
                dest, offset, size = stack[-1], stack[-2], stack[-3]
                self._mem_clear(dest, size)
                if op == "RETURNDATACOPY" and self.last_callee is not None:
                    _, ret = self._call_result(self.last_callee)
                    for chunk_start in range(0, size, 32):
                        src = offset + chunk_start
                        chunk = ret[src:src + 32].ljust(32, b"\x00")
                        name = f"callret_{i}_{self.last_callee:x}_w{src // 32}"
                        self.memory[dest + chunk_start] = (
                            min(32, size - chunk_start),
                            self._mark(name, int.from_bytes(chunk, "big")),
                        )
            elif op == "RETURNDATASIZE":
                if self.last_callee is not None:
                    shadow.append(
                        self._mark(
                            f"retsize_{i}_{self.last_callee:x}", self._result_of(index)
                        )
                    )
                else:
                    shadow.append(None)
            elif op == "EXTCODESIZE":
                shadow.pop()
                address = stack[-1]
                shadow.append(
                    self._mark(f"extcode_{i}_{address:x}", self._result_of(index))
                )
            elif op == "SLOAD":
                shadow.pop()
                key = stack[-1]
                stored = self.tracker._storage.get(key)
                if stored is not None:
                    shadow.append(stored)
                else:
                    shadow.append(
                        self._mark(f"storage_{key:x}", self._result_of(index))
                    )
            elif op == "SSTORE":
                del shadow[-1]
                value_term = shadow.pop()
                key = stack[-1]
                if value_term is None:
                    self.tracker._storage.pop(key, None)
                else:
                    self.tracker._storage[key] = value_term
                self.report.stores.append(
                    StoreAnnotation(
                        record_index=index,
                        input_index=i,
                        pc=record.pc,
                        raw_key=key,
                        value_term=value_term,
                        control_kinds=self.control_kinds,
                    )
                )
            elif op == "MLOAD":
                shadow.pop()
                shadow.append(self._mem_read_word(stack[-1], self._result_of(index)))
            elif op in ("MSTORE", "MSTORE8"):
                del shadow[-1]
                value_term = shadow.pop()
                self._mem_write(stack[-1], 32 if op == "MSTORE" else 1, value_term)
            elif op == "SHA3":
                del shadow[-2:]
                offset, size = stack[-1], stack[-2]
                terms = self._mem_terms(offset, size)
                if terms:
                    shadow.append(
                        opaque("sha3", self._result_of(index), *terms)
                    )
                else:
                    shadow.append(None)
            elif op in _CALL_OPERANDS:
                event = events[index]
                target_depth, value_depth = _CALL_OPERANDS[op]
                self.report.calls.append(
                    CallAnnotation(
                        record_index=index,
                        input_index=i,
                        pc=record.pc,
                        op=op,
                        to=event.to,
                        value=event.value,
                        gas=event.gas,
                        success=event.success,
                        transferred=event.transferred,
                        target_term=shadow[-target_depth] if target_depth else None,
                        value_term=shadow[-value_depth] if value_depth else None,
                        control_kinds=self.control_kinds,
                    )
                )
                del shadow[len(shadow) - pops:]
                if op in CALL_OPS:
                    to = event.to
                    _, ret = self._call_result(to)
                    # out offset and size are the two deepest operands
                    self._taint_returndata(to, ret, stack[1 - pops], stack[-pops])
                    self.last_callee = to
                    shadow.append(self._mark(f"callres_{i}_{to:x}", self._result_of(index)))
                elif pushes:
                    shadow.append(None)
            else:  # no taint semantics: the table's stack effect, untainted
                del shadow[len(shadow) - pops:]
                shadow.extend([None] * pushes)


def _wraps(op: str, concretes: tuple) -> bool:
    a, b = concretes[0], concretes[1]
    if op == "ADD":
        return a + b > MASK
    if op == "SUB":
        return a < b
    return a * b > MASK
