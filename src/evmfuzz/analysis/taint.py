"""Taint tracking over recorded traces.

Walks the recorded steps of an executed input (its opcode and stack columns)
while maintaining a shadow memory/storage of symbolic terms.  The walk
follows a plan built once per walked ops sequence: it visits only the steps
that can carry taint and keeps one term per producing step, reading each
operand's term through the step that produced it.
Fuzzer-controllable sources (call value, caller, block values, calldata
words, injected call results) become named variables; everything they touch
becomes a compound term.  Conditional jumps over tainted conditions yield
the path constraints the solver negates; tainted call/store operands feed
the vulnerability detectors.

Variable naming is the contract between this module, the solver, and the
mutation pools:

    callvalue_<i>  caller_<i>  origin_<i>  timestamp_<i>  blocknumber_<i>
    calldatasize_<i>  gas_<i>  arg_<j>_<i>  calldata_<off>_<i>
    callres_<i>_<addr>  callret_<i>_<addr>_w<chunk>  retsize_<i>_<addr>
    extcode_<i>_<addr>  balance_<i>  blockhash_<i>  storage_<rawkey>

where <i> is the input's position in its individual.  storage_* names carry
no input index: they identify a location, persist across inputs, and are
never directly fuzzable (the solver concretizes them).  ``VAR_KINDS`` says,
per kind, which mutation pool a variable draws from and is solved into;
``pool_bucket`` finds that pool's bucket for one input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..evm import CallEvent, ExecutionTrace
from ..evm.opcodes import CALL_OPS, MASK, TABLE, WORD_OPS
from .expr import Term, apply, const, opaque, var

# Variable kind -> (mutation pool, block value).  A kind with a pool is
# fuzzable: mutation draws it from that pool, solved values go back into it,
# and a guard revert blamed on it evicts the value drawn.  The solver only
# concretizes the kinds without one.
VAR_KINDS = {
    "callvalue": ("amount", False),
    "caller": ("sender", False),
    "origin": ("sender", False),
    "timestamp": ("timestamp", True),
    "blocknumber": ("block_number", True),
    "calldatasize": ("calldata_size", False),
    "gas": ("gas_limit", False),
    "arg": ("argument", False),
    "callres": ("call_result", False),
    "callret": ("call_result", False),
    "retsize": ("call_result", False),
    "extcode": ("extcode_size", False),
    "calldata": (None, False),
    "balance": (None, False),
    "blockhash": (None, True),
    "storage": (None, False),
}

FUZZABLE_KINDS = frozenset(kind for kind, (pool, _) in VAR_KINDS.items() if pool)
BLOCK_KINDS = frozenset(kind for kind, (_, block) in VAR_KINDS.items() if block)


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


def pool_bucket(info: VarInfo, inp) -> tuple[str, object] | None:
    """The (pool kind, pool key) bucket a variable of input ``inp`` draws
    from and is solved into, which also keys ``Input.pool_tags``.  The key
    is the callee address for call results and code sizes, (selector,
    argument position) for an argument's head word, and the selector
    otherwise.  None for a kind without a pool, and for a calldata word that
    no argument's head holds."""
    pool = VAR_KINDS[info.kind][0]
    if pool in ("call_result", "extcode_size"):
        return pool, info.extra[0] if info.kind == "callret" else info.extra
    if pool == "argument":
        position = inp.fn.argument_at(info.extra) if inp.fn else None
        return None if position is None else (pool, (inp.selector, position))
    return None if pool is None else (pool, inp.selector)


@dataclass(frozen=True)
class PathConstraint:
    pc: int
    cond: Term
    taken: bool


@dataclass
class OverflowEvent:
    pc: int
    op: str
    result: Term
    concrete_operands: tuple


@dataclass
class CallAnnotation:
    event: CallEvent  # what the interpreter recorded for the call
    target_term: Term | None
    value_term: Term | None
    control_kinds: frozenset[str]


@dataclass
class StoreAnnotation:
    record_index: int
    pc: int
    value_term: Term | None


@dataclass
class TaintReport:
    """What the walk of one input found.  A report is shared: it is kept
    on the walked trace and handed to every repeat of that walk, so nothing
    may change a report once ``run_input`` returns it."""

    constraints: list[PathConstraint] = field(default_factory=list)
    overflows: list[OverflowEvent] = field(default_factory=list)
    calls: list[CallAnnotation] = field(default_factory=list)
    stores: list[StoreAnnotation] = field(default_factory=list)
    var_values: dict[str, int] = field(default_factory=dict)


# A CALL-family op's out region gets a callret_* term per 32-byte chunk only
# below max(return data length, this many bytes): words past the return data
# keep a variable, so the solver can still grow injected return data through
# them, up to the 4 KiB the campaign allows solved calldata, and a huge out
# size cannot make the walk step through megabytes of zeros.
OUT_REGION_TAINT_BYTES = 4096

_OVERFLOWABLE = {"add", "sub", "mul"}

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

# The ops with taint semantics of their own: sources, sinks, memory and
# storage.
_SOURCES_AND_SINKS = frozenset(
    [*_ENV_SOURCES, *_CALL_OPERANDS, "CALLDATALOAD", "CALLDATACOPY", "CODECOPY",
     "RETURNDATACOPY", "RETURNDATASIZE", "EXTCODESIZE", "SLOAD", "SSTORE",
     "MLOAD", "MSTORE", "MSTORE8", "SHA3"]
)

# How a step is planned.  _STACK: the table's stack effect, untainted.
# _EFFECT: the table's stack effect, pushing the term ``_Walker._effect``
# returns.
_PUSH, _STACK, _WORD, _DUP, _SWAP, _JUMPI, _EFFECT = range(7)


def _step_kind(name: str) -> int:
    if name.startswith("PUSH"):
        return _PUSH
    if name.startswith("DUP"):
        return _DUP
    if name.startswith("SWAP"):
        return _SWAP
    if name in WORD_OPS:
        return _WORD
    if name == "JUMPI":
        return _JUMPI
    return _EFFECT if name in _SOURCES_AND_SINKS else _STACK


# mnemonic -> (step kind, pops, pushes, lower-case name for expression terms)
_STEPS = {
    name: (_step_kind(name), pops, pushes, name.lower())
    for name, pops, pushes in TABLE.values()
}

# The producer of a stack slot that no step can taint.  A walk keeps one
# term per step plus one last entry that stays None, which this indexes.
_NEVER = -1

# Bounds of one plan cache.  Once either is reached, plans are built and
# walked but not kept: a loop whose trip count comes from calldata would
# otherwise add one key, as long as the whole trace, for every count.
PLAN_CACHE_ENTRIES = 1024
PLAN_CACHE_STEPS = 1 << 17  # the total length of the cached keys


def _plan(walked: tuple[str, ...], stacks) -> tuple[list[tuple], int]:
    """The steps of one walked ops sequence that can carry taint, and how
    often the stack heights they imply missed ``stacks`` (should stay zero;
    a miss means a bug, and the walk forgets the stack's taint there).

    The steps are the sources, sinks, memory and storage ops, and the word
    ops and JUMPIs with an operand that such a step produced.  Each is
    ``(index, kind, name, operands)``; ``operands`` holds the producing step
    of each operand, top of stack first (of a JUMPI, only its condition),
    ``_NEVER`` for a slot no step can taint."""
    steps = []
    slots: list[int] = []  # the producer of each stack slot
    realignments = 0
    for index, op in enumerate(walked):
        if len(slots) != len(stacks[index]):
            realignments += 1
            slots = [_NEVER] * len(stacks[index])
        kind, pops, pushes, name = _STEPS[op]
        if kind == _PUSH:  # first: the commonest op by far
            slots.append(_NEVER)
        elif kind == _DUP:
            slots.append(slots[-pops])
        elif kind == _SWAP:
            slots[-1], slots[-pops] = slots[-pops], slots[-1]
        else:
            operands = tuple(slots[:-pops - 1:-1])
            del slots[len(slots) - pops:]
            if kind == _JUMPI:
                operands = operands[1:]
            live = kind == _EFFECT or (
                kind != _STACK and operands.count(_NEVER) != len(operands)
            )
            if live:
                steps.append((index, kind, name if kind == _WORD else op, operands))
            if pushes:
                slots.append(index if live else _NEVER)
    return steps, realignments


class TaintPlans(dict):
    """The taint plans of one campaign by walked ops sequence.  Every op has
    a fixed stack effect and a transaction starts on an empty stack, so the
    walked ops alone fix which step produced each operand."""

    steps = 0  # the total length of the keys

    def plan(self, walked: tuple[str, ...], stacks) -> tuple[list[tuple], int]:
        plan = self.get(walked)
        if plan is None:
            plan = _plan(walked, stacks)
            if len(self) < PLAN_CACHE_ENTRIES and self.steps + len(walked) <= PLAN_CACHE_STEPS:
                self[walked] = plan
                self.steps += len(walked)
        return plan


class TaintTracker:
    """Shadow state shared by all inputs of one individual.  ``plans``
    defaults to a fresh cache."""

    def __init__(self, plans: TaintPlans | None = None) -> None:
        self._storage: dict[int, Term] = {}
        self.plans = TaintPlans() if plans is None else plans
        self.realignments = 0  # should stay zero; misalignment means a bug

    def run_input(self, input_index: int, inp, trace: ExecutionTrace) -> TaintReport:
        """Walk the trace ``inp`` produced, naming its variables after
        ``input_index``; the walk reads the calldata and everything else it
        needs from ``trace``, not from ``inp``.  A repeated walk, which the
        interpreter's shared traces make common, reuses the one kept on the
        trace."""
        before = self._storage
        key = (input_index, tuple(before.items()))
        walked = trace.walks.get(key)
        if walked is None:
            report = TaintReport()
            # the walk writes to a copy: a stored shadow storage never changes
            self._storage = dict(before)
            walker = _Walker(self, input_index, trace, report)
            walker.walk()
            if not trace.state_delta_applied:
                self._storage = before
            walked = trace.walks[key] = report, self._storage, walker.realignments
        report, self._storage, realignments = walked
        self.realignments += realignments
        return report


def taint_individual(
    inputs, traces: list[ExecutionTrace], plans: TaintPlans | None = None
) -> list[TaintReport]:
    tracker = TaintTracker(plans)
    return [
        tracker.run_input(index, inp, trace)
        for index, (inp, trace) in enumerate(zip(inputs, traces))
    ]


class _Walker:
    def __init__(self, tracker: TaintTracker, input_index: int, trace, report):
        self.tracker = tracker
        self.i = input_index
        self.trace = trace
        self.report = report
        self.terms: list[Term | None] = []  # by producing step
        self.memory: dict[int, tuple[int, Term]] = {}
        self.control_kinds: frozenset[str] = frozenset()
        self.last_callee: int | None = None
        self.last_return = b""  # what RETURNDATACOPY copies from
        self.realignments = 0
        self.calldata = trace.calldata
        self.events = {event.record_index: event for event in trace.calls}

    # -- helpers ---------------------------------------------------------

    def _result_of(self, index: int) -> int:
        stacks = self.trace.stacks
        if index + 1 < len(stacks) and stacks[index + 1]:
            return stacks[index + 1][-1]
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
            return entry[1]  # every write clears what it overlaps: no other term
        terms = self._mem_terms(offset, 32)
        return opaque("mix", concrete, *terms) if terms else None

    def _copy_in(self, dest: int, size: int, source: bytes, offset: int, limit: int,
                 term_of) -> None:
        """Clear ``size`` bytes at ``dest``, then give each 32-byte chunk
        copied from below ``limit`` in ``source`` the term ``term_of(source
        offset, chunk word)``: the walk is bounded by ``limit``, not ``size``."""
        self._mem_clear(dest, size)
        for chunk_start in range(0, min(size, limit - offset), 32):
            src = offset + chunk_start
            term = term_of(src, int.from_bytes(source[src:src + 32].ljust(32, b"\x00"), "big"))
            if term is not None:
                self.memory[dest + chunk_start] = (min(32, size - chunk_start), term)

    def _calldata_word_term(self, offset: int, concrete: int) -> Term | None:
        if offset == 0:
            return None  # the selector word: fixed per individual
        if offset >= 4 and (offset - 4) % 32 == 0:
            return self._mark(f"arg_{(offset - 4) // 32}_{self.i}", concrete)
        return self._mark(f"calldata_{offset}_{self.i}", concrete)

    def _callret_term(self, offset: int, concrete: int) -> Term:
        """The word at ``offset`` of the last callee's return data."""
        return self._mark(f"callret_{self.i}_{self.last_callee:x}_w{offset // 32}", concrete)

    # -- the walk --------------------------------------------------------

    def walk(self) -> None:
        trace = self.trace
        ops, pcs, stacks = trace.ops, trace.pcs, trace.stacks
        constraints = self.report.constraints
        end = len(ops)
        if trace.faulted:
            end -= 1  # the synthetic fault step: nothing executes past it
            if end and pcs[end - 1] == pcs[end]:
                end -= 1  # it repeats the pc of the op that raised, unfinished
        elif trace.terminal == "TIMEOUT" and end and ops[end - 1] in _CALL_OPERANDS \
                and end - 1 not in self.events:
            end -= 1  # the clock cut it short inside a memory region, unfinished
        steps, self.realignments = self.tracker.plans.plan(ops[:end], stacks)
        terms = self.terms = [None] * (end + 1)  # the last one for _NEVER
        for index, kind, name, operands in steps:
            stack = stacks[index]
            if kind == _WORD:
                args = [terms[p] for p in operands]  # top of stack first
                if args.count(None) != len(args):
                    concretes = stack[:-len(args) - 1:-1]
                    result = terms[index] = apply(
                        name,
                        *[const(c) if t is None else t for t, c in zip(args, concretes)],
                    )
                    if name in _OVERFLOWABLE and _wraps(name, concretes):
                        self.report.overflows.append(
                            OverflowEvent(pcs[index], name, result, concretes)
                        )
            elif kind == _JUMPI:
                cond_term = terms[operands[0]]
                if cond_term is not None:
                    constraints.append(PathConstraint(pcs[index], cond_term, stack[-2] != 0))
                    self.control_kinds |= cond_term.kinds
            else:
                terms[index] = self._effect(index, name, stack, operands)

    def _effect(self, index: int, op: str, stack, operands) -> Term | None:
        """The term pushed by an op that reads a source, writes a sink, or
        moves taint through memory or storage; None for an untainted word
        or none.  ``operands`` are the producers of its operands' terms,
        top of stack first."""
        i = self.i
        terms = self.terms
        # commonest first, as counted over the benchmark's fixture contracts
        if op == "CALLDATALOAD":
            return self._calldata_word_term(stack[-1], self._result_of(index))
        elif op == "SSTORE":
            key, value_term = stack[-1], terms[operands[1]]
            if value_term is None:
                self.tracker._storage.pop(key, None)
            else:
                self.tracker._storage[key] = value_term
            self.report.stores.append(StoreAnnotation(index, self.trace.pcs[index], value_term))
        elif op == "SLOAD":
            stored = self.tracker._storage.get(stack[-1])
            if stored is None:
                stored = self._mark(f"storage_{stack[-1]:x}", self._result_of(index))
            return stored
        elif op in _ENV_SOURCES:
            return self._mark(f"{_ENV_SOURCES[op]}_{i}", self._result_of(index))
        elif op in ("MSTORE", "MSTORE8"):
            offset, size, value_term = stack[-1], 32 if op == "MSTORE" else 1, terms[operands[1]]
            self._mem_clear(offset, size)
            if value_term is not None:
                self.memory[offset] = (size, value_term)
        elif op == "MLOAD":
            return self._mem_read_word(stack[-1], self._result_of(index))
        elif op == "SHA3":
            terms = self._mem_terms(stack[-1], stack[-2])
            return opaque("sha3", self._result_of(index), *terms) if terms else None
        elif op in _CALL_OPERANDS:  # an op the interpreter records a CallEvent for
            event = self.events[index]
            target_depth, value_depth = _CALL_OPERANDS[op]
            self.report.calls.append(
                CallAnnotation(
                    event=event,
                    target_term=terms[operands[target_depth - 1]] if target_depth else None,
                    value_term=terms[operands[value_depth - 1]] if value_depth else None,
                    control_kinds=self.control_kinds,
                )
            )
            if op in CALL_OPS:
                ret = event.return_data
                self.last_callee = event.to
                self.last_return = ret or b""
                if ret is not None:  # the call ran
                    # out offset and size are the two deepest of its operands
                    pops = _STEPS[op][1]
                    self._copy_in(
                        stack[1 - pops], stack[-pops], ret, 0,
                        max(len(ret), OUT_REGION_TAINT_BYTES), self._callret_term,
                    )
                return self._mark(f"callres_{i}_{event.to:x}", self._result_of(index))
        elif op == "CALLDATACOPY":  # the zeros copied past the data stay untainted
            data = self.calldata
            self._copy_in(stack[-1], stack[-3], data, stack[-2], len(data),
                          self._calldata_word_term)
        elif op == "RETURNDATACOPY":  # last_return is empty until a call ran
            ret = self.last_return
            self._copy_in(stack[-1], stack[-3], ret, stack[-2], len(ret), self._callret_term)
        elif op == "RETURNDATASIZE":
            if self.last_callee is not None:
                return self._mark(f"retsize_{i}_{self.last_callee:x}", self._result_of(index))
        elif op == "EXTCODESIZE":
            return self._mark(f"extcode_{i}_{stack[-1]:x}", self._result_of(index))
        else:  # CODECOPY: code is never tainted
            self._mem_clear(stack[-1], stack[-3])
        return None


def _wraps(op: str, concretes: tuple) -> bool:
    a, b = concretes[0], concretes[1]
    if op == "add":
        return a + b > MASK
    if op == "sub":
        return a < b
    return a * b > MASK
