"""Bytecode interpreter with environment injection and full tracing.

Executes one transaction against the emulated state and records every
instruction as three parallel columns (opcode, pc, a pre-execution stack
snapshot), plus one flag saying whether the run ended in a fault and the
facts its readers need (branches, storage keys, code-size targets), taken
as each operand is popped.  A finished trace is an immutable value, equal
to another field by field, and runs whose traces are equal share one.
Outgoing calls never execute code: their results come from the injectable
environment, which is what lets the fuzzer mutate block values and
external call outcomes like any other input byte.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator

import json
import time

from ..keccak import DEADLINE_CHECK_BYTES, RATE_BYTES, keccak256
from . import opcodes
from .opcodes import CALL_OPS, MASK, WORD_OPS
from .state import EmulatedState

GAS_BUDGET = 8_000_000  # per transaction, at 1 gas per instruction
MEMORY_CAP = 16 * 1024 * 1024
STACK_LIMIT = 1024

# Keccak memo bounds: preimages shorter than one rate block (136 bytes), at
# most this many per interpreter (about 1 MB with their digests).
KECCAK_MEMO_BYTES = RATE_BYTES
KECCAK_MEMO_ENTRIES = 4096

# Transaction outcome memo bounds: at most this many outcomes per interpreter,
# holding at most this many trace steps in all.
OUTCOME_MEMO_ENTRIES = 128
OUTCOME_MEMO_STEPS = 1 << 16

# With a wall cap or a deadline, the clock is read at every multiple of this
# many steps.
CLOCK_STEPS = 4096

# Block context the contract is deployed under; campaign env ranges start here.
DEPLOY_TIMESTAMP = 1_500_000_000
DEPLOY_BLOCK_NUMBER = 5_000_000

GAS_PRICE = 1_000_000_000
COINBASE = 0xC0FFEE0000000000000000000000000000000001
DIFFICULTY = 2_500_000_000_000_000
BLOCK_GAS_LIMIT = 8_000_000


@dataclass
class EnvOverrides:
    """Fuzzable execution environment.

    call_results maps callee address to (success flag, return data) for any
    outgoing call; unlisted callees succeed and return 32 zero bytes.
    returndata_sizes and extcode_sizes override RETURNDATASIZE/EXTCODESIZE
    per address, defaulting to the injected data length and zero.
    """

    timestamp: int = DEPLOY_TIMESTAMP
    block_number: int = DEPLOY_BLOCK_NUMBER
    call_results: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    returndata_sizes: dict[int, int] = field(default_factory=dict)
    extcode_sizes: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "EnvOverrides":
        return EnvOverrides(
            timestamp=self.timestamp,
            block_number=self.block_number,
            call_results=dict(self.call_results),
            returndata_sizes=dict(self.returndata_sizes),
            extcode_sizes=dict(self.extcode_sizes),
        )


DEFAULT_CALL_RESULT = (1, b"\x00" * 32)


@dataclass
class Transaction:
    sender: int
    to: int
    value: int
    gas_limit: int
    data: bytes


@dataclass
class TraceRecord:
    """One step of a trace, as the ``records`` view presents it."""

    op: str
    pc: int
    stack: tuple[int, ...]  # pre-execution snapshot, top of stack last
    error: bool  # the synthetic fault step that ends a faulted trace


@dataclass(frozen=True)
class CallEvent:
    """One outgoing CALL/CALLCODE/DELEGATECALL/STATICCALL or CREATE."""

    record_index: int  # the step that made it, an index into the columns
    op: str
    pc: int
    to: int
    gas: int
    value: int
    success: int
    transferred: bool  # value actually moved out of the contract
    # return data of a CALL-family op that ran; None when it never ran
    return_data: bytes | None = None


@dataclass
class TraceFacts:
    """What coverage, fitness, slot recovery, the GA registries and the
    detectors read from a trace, recorded by the run as it pops each operand.

    The recorded fields are immutable.  The fields after ``invalid_pc``
    cache work derived from the trace alone, done once per trace whoever
    asks first, and equality skips them.
    ``analysis.slots`` fills ``identities`` with the slot identity of each
    raw key it resolves against the trace's preimages, ``(declared slot,
    path)`` or ``("raw", key)``, and keeps the ``reads`` and ``writes``
    identity sets.  ``merged_by`` and ``observed_by`` name the coverage
    store and the GA engine that last took the trace in, which need not
    take it in again.
    """

    executed: frozenset[int] = frozenset()  # every pc visited, the fault step's included
    jumpis: tuple[tuple[int, int, bool], ...] = ()  # (pc, destination, taken)
    sstores: int = 0  # SSTOREs that executed
    read_keys: frozenset[int] = frozenset()  # raw SLOAD keys
    write_keys: frozenset[int] = frozenset()  # raw SSTORE keys
    extcode_targets: frozenset[int] = frozenset()  # EXTCODESIZE operands
    invalid_pc: int | None = None  # a genuine INVALID (failed assertion), never a fault
    identities: dict[int, tuple] = field(default_factory=dict, compare=False)
    reads: frozenset | None = field(default=None, compare=False)
    writes: frozenset | None = field(default=None, compare=False)
    merged_by: object = field(default=None, compare=False, repr=False)
    observed_by: object = field(default=None, compare=False, repr=False)


class TraceRecords(Sequence):
    """A trace's columns seen as one ``TraceRecord`` per step.

    Read-only.  ``len`` is O(1); a record is built only when it is indexed
    or iterated.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "ExecutionTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        trace = self._trace
        last = len(trace.ops) - 1
        if index < 0:
            index += last + 1
        if not 0 <= index <= last:
            raise IndexError("trace record index out of range")
        return TraceRecord(
            trace.ops[index], trace.pcs[index], trace.stacks[index],
            trace.faulted and index == last,
        )


@dataclass(frozen=True)
class ExecutionTrace:
    """One run, recorded as three parallel columns.

    Step ``i`` executed ``ops[i]`` at ``pcs[i]`` with ``stacks[i]`` on the
    stack beforehand, top of stack last.  ``faulted`` says the run halted
    abnormally (stack misuse, bad jump, memory cap, unassigned opcode,
    unpayable transaction); its last step is then a synthetic ``INVALID``
    that did not execute, and every other step cost one gas.  The run's
    effects were applied when it ended in ``STOP``, ``RETURN`` or
    ``SELFDESTRUCT`` (``state_delta_applied``).  ``calldata`` is the data
    the run read, and ``facts`` what the run recorded for the trace's
    readers.

    A trace is a value: two traces are equal when every field but
    ``facts``, ``walks`` and the kept ``_hash`` is, and a run whose trace
    equals one a memo holds gets that held trace, so nothing may change a
    trace once ``execute`` returns it (its facts' caches and ``walks`` aside).
    """

    ops: tuple[str, ...]
    pcs: tuple[int, ...]
    stacks: tuple[tuple[int, ...], ...]
    terminal: str
    faulted: bool = False
    calldata: bytes = b""
    calls: tuple[CallEvent, ...] = ()
    sha3_preimages: dict[int, bytes] = field(default_factory=dict)
    return_data: bytes = b""
    facts: TraceFacts = field(default_factory=TraceFacts, compare=False, repr=False)
    walks: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:  # kept once taken: the stacks column is long
        if self._hash is None:
            content = (self.calldata, self.terminal, self.return_data, self.stacks)
            object.__setattr__(self, "_hash", hash(content))
        return self._hash

    @property
    def state_delta_applied(self) -> bool:
        return self.terminal in {"STOP", "RETURN", "SELFDESTRUCT"}

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self)

    def jsonl(self) -> Iterator[str]:
        for record in self.records:
            yield json.dumps(
                {
                    "op": record.op,
                    "pc": record.pc,
                    "stack": [hex(item) for item in record.stack],
                    "depth": 0,  # calls never execute code
                    "error": record.error,
                }
            )


class DeployError(Exception):
    def __init__(self, message: str, trace: ExecutionTrace | None = None) -> None:
        super().__init__(message)
        self.trace = trace


class _Fault(Exception):
    """Internal: abnormal halt (stack misuse, bad jump, memory blowup)."""


# A decoded step: (kind, mnemonic, pops, argument).  The kind is "push",
# "jumpdest", "word", "dup", "swap" or "named"; the argument is a PUSH's
# (immediate, next pc), a word op's ``WORD_OPS`` function, None otherwise.
_STEPS: dict[int, tuple] = {}
for _code, (_name, _pops, _) in opcodes.TABLE.items():
    if 0x60 <= _code <= 0x7F:
        continue  # a PUSH step carries its immediate, so it is made per pc
    if _name in WORD_OPS:
        _STEPS[_code] = ("word", _name, _pops, WORD_OPS[_name])
    elif 0x80 <= _code <= 0x8F:
        _STEPS[_code] = ("dup", _name, _pops, None)
    elif 0x90 <= _code <= 0x9F:
        _STEPS[_code] = ("swap", _name, _pops, None)
    else:
        _STEPS[_code] = ("jumpdest" if _code == 0x5B else "named", _name, _pops, None)

# Past the end of the code every pc holds the implicit STOP.  A PUSH32 in
# the last byte leaves pc at most 32 bytes past the end, and jumps only land
# on jump destinations, so 33 padding steps cover every pc the loop reaches.
_STOP_PAD = (_STEPS[0x00],) * 33


def _decode(code: bytes) -> tuple[frozenset[int], list]:
    """The jump destinations of ``code`` and its program: ``program[pc]`` is
    the decoded step at each instruction start, None for an unassigned
    opcode (and inside PUSH data, which no pc reaches)."""
    program: list = [None] * len(code)
    for pc in opcodes.instruction_starts(code):
        opcode = code[pc]
        if 0x60 <= opcode <= 0x7F:  # PUSH1..PUSH32
            width = opcode - 0x5F
            end = pc + 1 + width
            # an immediate cut off by the end of the code reads zeros
            word = int.from_bytes(code[pc + 1:end].ljust(width, b"\x00"), "big")
            program[pc] = ("push", opcodes.TABLE[opcode][0], 0, (word, end))
        else:
            program[pc] = _STEPS.get(opcode)
    program.extend(_STOP_PAD)
    return opcodes.valid_jumpdests(code), program


class Interpreter:
    """Executes transactions and deployments against an ``EmulatedState``.

    An instance keeps three memos of pure functions that a campaign would
    otherwise recompute on nearly every transaction:

    * the outcome of ``execute``, keyed by the pre-state's snapshot (the
      items of its four maps), the transaction's fields and the
      environment's: a repeat restores the stored post-state snapshot (a run
      that was not applied stores none) and returns the stored trace.  The
      key names fields a run may never read (the gas limit, results of
      callees the path never calls, storage it never loads), so a miss
      often runs to a trace equal to one the memo holds; it then gets that
      held trace, and work derived from a trace alone is done once per
      distinct outcome.  The held traces are kept in a dict keyed by
      themselves, each with the count of entries that hold it, and leave
      it with the last of them.  Two equal states that hold
      their items in different orders only cost a miss.  A ``TIMEOUT``
      trace depends on the clock and is never stored.  At most
      ``OUTCOME_MEMO_ENTRIES`` outcomes holding ``OUTCOME_MEMO_STEPS`` trace
      steps are kept, the oldest evicted first, and an outcome of more steps
      than that is not stored.  Entries are filed under the key's hash,
      computed once per call; the key is kept beside the outcome and
      compared on lookup, so two keys with one hash only cost a miss;
    * the Keccak digests of ``SHA3`` and ``BLOCKHASH`` preimages, for
      preimages shorter than ``KECCAK_MEMO_BYTES`` and up to
      ``KECCAK_MEMO_ENTRIES`` of them (later or longer ones are hashed
      uncached), which keeps the memo near 1 MB;
    * each code blob decoded once: its valid jump destinations and its
      program, one decoded step per instruction start (opcode, stack
      effect, a PUSH's padded immediate, a word op's function), keyed by
      the code's bytes rather than its address, since SELFDESTRUCT and
      CREATE change the code at an address.

    The memos live on the instance, not in the process, so every campaign
    (which owns one interpreter) starts cold and is timed doing the work a
    run on its own would do.
    """

    def __init__(self, wall_cap: float | None = None) -> None:
        self.wall_cap = wall_cap  # seconds per transaction; None or 0 = unlimited
        self._digests: dict[bytes, int] = {}
        self._decoded: dict[bytes, tuple[frozenset[int], list]] = {}
        # key hash -> (key, trace, post-state or None), oldest first
        self._outcomes: dict[int, tuple] = {}
        self._held = 0  # the steps of the stored outcomes
        # held trace -> [held trace, entries holding it]
        self._traces: dict[ExecutionTrace, list] = {}

    def _keccak_word(self, blob: bytes, deadline: float | None = None) -> int:
        """Keccak-256 of ``blob`` as a word, through the bounded memo.
        Raises ``TimeoutError`` if hashing runs past ``deadline``."""
        digest = self._digests.get(blob)
        if digest is None:
            digest = int.from_bytes(keccak256(blob, deadline), "big")
            if len(blob) < KECCAK_MEMO_BYTES and len(self._digests) < KECCAK_MEMO_ENTRIES:
                self._digests[blob] = digest
        return digest

    # ------------------------------------------------------------------
    # entry points

    def deploy(
        self,
        state: EmulatedState,
        creation_code: bytes,
        sender: int,
        constructor_args: bytes = b"",
    ) -> tuple[int, ExecutionTrace]:
        """Run creation code, sending no value, under the deployment block
        context; on RETURN install the runtime code.

        Constructor arguments travel appended to the creation code, which is
        where CODECOPY-based constructor prologues expect them.
        """
        address = new_address(state, sender)
        snap = state.snapshot()
        trace = self._run(
            state,
            code=creation_code + constructor_args,
            self_addr=address,
            sender=sender,
            value=0,
            data=b"",
            gas=GAS_BUDGET,
            env=EnvOverrides(),
        )
        if trace.terminal != "RETURN":
            state.restore(snap)
            raise DeployError(f"constructor halted with {trace.terminal}", trace)
        state.code[address] = trace.return_data
        return address, trace

    def execute(
        self,
        state: EmulatedState,
        tx: Transaction,
        env: EnvOverrides | None = None,
        deadline: float | None = None,
    ) -> ExecutionTrace:
        """Run ``tx`` against ``state``, applying its effects unless the run
        failed.  A run ends in ``TIMEOUT`` at the earlier of the wall cap and
        ``deadline`` (a ``time.monotonic()`` value), at once if that has
        passed; a repeat of a memoized transaction does not run at all."""
        env = env or EnvOverrides()
        pre = state.snapshot()
        key = (
            pre, tx.sender, tx.to, tx.value, tx.gas_limit, tx.data,
            env.timestamp, env.block_number, tuple(env.call_results.items()),
            tuple(env.returndata_sizes.items()), tuple(env.extcode_sizes.items()),
        )
        digest = hash(key)
        outcomes = self._outcomes
        stored = outcomes.get(digest)
        if stored is not None and stored[0] == key:
            post = stored[2]
            if post is not None:  # else the run left the state as it found it
                state.restore(post)
            return stored[1]
        trace = self._transact(state, tx, env, deadline, pre)
        steps = len(trace.ops)
        if trace.terminal == "TIMEOUT" or OUTCOME_MEMO_ENTRIES <= 0 or steps > OUTCOME_MEMO_STEPS:
            return trace
        held = self._traces.setdefault(trace, [trace, 0])
        held[1] += 1
        trace = held[0]
        if stored is not None:  # another key with the same hash
            self._drop(digest)
        while outcomes and (len(outcomes) >= OUTCOME_MEMO_ENTRIES
                            or self._held + steps > OUTCOME_MEMO_STEPS):
            self._drop(next(iter(outcomes)))
        post = state.snapshot() if trace.state_delta_applied else None
        outcomes[digest] = (key, trace, post)
        self._held += steps
        return trace

    def _drop(self, digest: int) -> None:
        """Evict the outcome filed under ``digest``, and its trace from the
        held traces if no other entry holds it."""
        trace = self._outcomes.pop(digest)[1]
        self._held -= len(trace.ops)
        held = self._traces[trace]
        held[1] -= 1
        if not held[1]:
            del self._traces[trace]

    def _transact(
        self, state: EmulatedState, tx: Transaction, env: EnvOverrides,
        deadline: float | None, pre: tuple,
    ) -> ExecutionTrace:
        """Run ``tx``, rolling ``state`` back to its snapshot ``pre`` unless
        the run applied."""
        code = state.code.get(tx.to, b"")
        if tx.value > state.balance_of(tx.sender):
            # Unpayable transaction: a synthetic fault step, nothing applied.
            return ExecutionTrace(
                ("INVALID",), (0,), ((),), "INVALID", faulted=True, calldata=tx.data,
                facts=TraceFacts(executed=frozenset((0,))),
            )
        if tx.value:
            state.debit(tx.sender, tx.value)
            state.credit(tx.to, tx.value)
        trace = self._run(
            state,
            code=code,
            self_addr=tx.to,
            sender=tx.sender,
            value=tx.value,
            data=tx.data,
            gas=min(tx.gas_limit, GAS_BUDGET),
            env=env,
            deadline=deadline,
        )
        if not trace.state_delta_applied:
            state.restore(pre)
        return trace

    # ------------------------------------------------------------------
    # core loop

    def _run(
        self,
        state: EmulatedState,
        code: bytes,
        self_addr: int,
        sender: int,
        value: int,
        data: bytes,
        gas: int,
        env: EnvOverrides,
        deadline: float | None = None,
    ) -> ExecutionTrace:
        ops: list[str] = []
        pcs: list[int] = []
        stacks: list[tuple[int, ...]] = []
        record_op, record_pc, record_stack = ops.append, pcs.append, stacks.append
        jumpis: list[tuple[int, int, bool]] = []
        record_jumpi = jumpis.append
        reads, writes, targets = set(), set(), set()  # SLOAD, SSTORE, EXTCODESIZE operands
        sstores = 0
        invalid_pc = None
        calls: list[CallEvent] = []
        preimages: dict[int, bytes] = {}
        stack: list[int] = []
        memory = bytearray()
        returndata = b""
        last_callee: int | None = None
        decoded = self._decoded.get(code)
        if decoded is None:
            decoded = self._decoded[code] = _decode(code)
        jumpdests, program = decoded
        pc = 0
        used = 0
        terminal = ""
        faulted = False
        return_data = b""
        give_up_at = deadline  # the earlier of the deadline and the wall cap
        if self.wall_cap:
            capped = time.monotonic() + self.wall_cap
            give_up_at = capped if deadline is None else min(capped, deadline)
        # the next step count at which the gas limit or, with a time to give
        # up at, the clock is checked: the gas limit and every multiple of
        # CLOCK_STEPS, step 0 included
        checkpoint = gas if give_up_at is None else 0
        # What each environment op pushes, fixed for the whole run, so one
        # arm of the loop serves them all.  Execution is single-level (calls
        # never run code), so the origin is the caller.
        words = {
            "ADDRESS": self_addr, "ORIGIN": sender, "CALLER": sender, "CALLVALUE": value,
            "CALLDATASIZE": len(data), "CODESIZE": len(code), "GASPRICE": GAS_PRICE,
            "COINBASE": COINBASE, "TIMESTAMP": env.timestamp, "NUMBER": env.block_number,
            "DIFFICULTY": DIFFICULTY, "GASLIMIT": BLOCK_GAS_LIMIT,
        }

        def push(x: int) -> None:
            if len(stack) >= STACK_LIMIT:
                raise _Fault("stack overflow")
            stack.append(x & MASK)

        pop = stack.pop  # every op's operand count is checked before it runs
        append = stack.append  # for words in range, where no overflow can occur

        def touch(offset: int, size: int) -> None:
            if size == 0:
                return
            end = offset + size
            if end > MEMORY_CAP:
                raise _Fault("memory cap exceeded")
            # one step over a region this large can cost as much as the steps
            # between clock checkpoints, so the clock is read before it
            if size >= DEADLINE_CHECK_BYTES and give_up_at is not None:
                if time.monotonic() > give_up_at:
                    raise TimeoutError("a memory region ran past the wall cap")
            if end > len(memory):
                memory.extend(b"\x00" * (((end + 31) // 32) * 32 - len(memory)))

        def mread(offset: int, size: int) -> bytes:
            touch(offset, size)
            return bytes(memory[offset:offset + size])

        def mcopy(dest: int, source: bytes, offset: int, size: int) -> None:
            touch(dest, size)  # before padding: a huge size faults, not allocates
            memory[dest:dest + size] = source[offset:offset + size].ljust(size, b"\x00")

        while True:
            if used >= checkpoint:
                if used >= gas:
                    terminal = "OUT_OF_GAS"
                    break
                # below the gas limit, so this is a clock checkpoint
                if time.monotonic() > give_up_at:
                    terminal = "TIMEOUT"
                    break
                checkpoint = min(gas, used + CLOCK_STEPS)
            step = program[pc]
            if step is None:
                faulted = True  # unassigned opcode: same as a synthetic fault
                break
            kind, name, pops, argument = step
            record_op(name)
            record_pc(pc)
            record_stack(tuple(stack))
            used += 1
            try:
                # PUSH alone is ~40 % of what a campaign executes
                if kind == "push":
                    if len(stack) >= STACK_LIMIT:
                        raise _Fault("stack overflow")
                    word, pc = argument
                    append(word)
                    continue
                if len(stack) < pops:
                    raise _Fault("stack underflow")
                if kind == "jumpdest":
                    pass
                elif kind == "word":
                    # operands top of stack first; the result is a word
                    if pops == 2:
                        append(argument(pop(), pop()))
                    elif pops == 1:
                        append(argument(pop()))
                    else:
                        append(argument(pop(), pop(), pop()))
                elif kind == "dup":
                    if len(stack) >= STACK_LIMIT:
                        raise _Fault("stack overflow")
                    append(stack[-pops])
                elif kind == "swap":
                    stack[-1], stack[-pops] = stack[-pops], stack[-1]
                # then the named ops, commonest first, except that the
                # environment words come after the storage, memory and
                # hashing ops, so that those never pay for the table lookup
                elif name == "JUMPI":
                    dest, cond = pop(), pop()
                    record_jumpi((pc, dest, cond != 0))  # a bad destination still counts
                    if cond:
                        if dest not in jumpdests:
                            raise _Fault("bad jump destination")
                        pc = dest
                        continue
                elif name == "JUMP":
                    dest = pop()
                    if dest not in jumpdests:
                        raise _Fault("bad jump destination")
                    pc = dest
                    continue
                elif name == "CALLDATALOAD":
                    offset = pop()
                    append(int.from_bytes(data[offset:offset + 32].ljust(32, b"\x00"), "big"))
                elif name == "SSTORE":
                    slot, word = pop(), pop()
                    sstores += 1
                    writes.add(slot)
                    state.sstore(self_addr, slot, word)
                elif name == "SLOAD":
                    slot = pop()
                    reads.add(slot)
                    push(state.sload(self_addr, slot))
                elif name == "MSTORE":
                    offset, word = pop(), pop()
                    end = offset + 32
                    if end > len(memory):  # memory grows: check the cap
                        touch(offset, 32)
                    memory[offset:end] = word.to_bytes(32, "big")
                elif name == "MLOAD":
                    append(int.from_bytes(mread(pop(), 32), "big"))
                elif name == "POP":
                    pop()
                elif name == "STOP":
                    terminal = "STOP"
                    break
                elif name == "SHA3":
                    offset, size = pop(), pop()
                    blob = mread(offset, size)
                    digest = self._keccak_word(blob, give_up_at)
                    preimages[digest] = blob
                    append(digest)
                elif name in words:
                    push(words[name])
                elif name == "BALANCE":
                    push(state.balance_of(pop()))
                elif name == "CALLDATACOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, data, offset, size)
                elif name == "CODECOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, code, offset, size)
                elif name == "EXTCODESIZE":
                    target = pop()
                    targets.add(target)
                    push(env.extcode_sizes.get(target, 0))
                elif name == "RETURNDATASIZE":
                    push(env.returndata_sizes.get(last_callee, len(returndata)))
                elif name == "RETURNDATACOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, returndata, offset, size)
                elif name == "BLOCKHASH":
                    push(self._keccak_word(b"blockhash" + pop().to_bytes(32, "big")))
                elif name == "MSTORE8":
                    offset, word = pop(), pop()
                    touch(offset, 1)
                    memory[offset] = word & 0xFF
                elif name == "PC":
                    push(pc)
                elif name == "MSIZE":
                    push(len(memory))
                elif name == "GAS":
                    push(gas - used)
                elif name.startswith("LOG"):
                    offset, size = pop(), pop()
                    mread(offset, size)
                    del stack[len(stack) + 2 - pops:]  # the topics
                elif name == "CREATE":
                    create_value, offset, size = pop(), pop(), pop()
                    mread(offset, size)
                    if create_value > state.balance_of(self_addr):
                        child, success = 0, 0
                    else:
                        child = new_address(state, self_addr)
                        if create_value:
                            state.debit(self_addr, create_value)
                            state.credit(child, create_value)
                        # Initialisation code is not executed; the child is an
                        # empty account at a fresh deterministic address.
                        state.code.setdefault(child, b"")
                        success = 1
                    calls.append(
                        CallEvent(len(ops) - 1, name, pc, child, 0,
                                  create_value, success, bool(success and create_value))
                    )
                    push(child)
                elif name in CALL_OPS:
                    call_gas, to = pop(), pop()
                    call_value = pop() if pops == 7 else 0  # CALL and CALLCODE
                    in_off, in_sz, out_off, out_sz = pop(), pop(), pop(), pop()
                    mread(in_off, in_sz)
                    touch(out_off, out_sz)
                    last_callee = to
                    if call_value > state.balance_of(self_addr):
                        success, returndata, transferred = 0, b"", False
                        returned = None  # the call never ran
                    else:
                        success, returndata = env.call_results.get(to, DEFAULT_CALL_RESULT)
                        # CALLCODE runs the callee's code against our own
                        # account, so no value leaves the contract.
                        transferred = bool(call_value and success and name == "CALL")
                        if transferred:
                            state.debit(self_addr, call_value)
                            state.credit(to, call_value)
                        mcopy(out_off, returndata, 0, out_sz)
                        returned = returndata
                    calls.append(
                        CallEvent(len(ops) - 1, name, pc,
                                  to, call_gas, call_value, success, transferred, returned)
                    )
                    push(success)
                elif name == "RETURN" or name == "REVERT":
                    offset, size = pop(), pop()
                    return_data = mread(offset, size)
                    terminal = name
                    break
                elif name == "INVALID":
                    invalid_pc = pc  # a genuine INVALID, not a fault
                    terminal = "INVALID"
                    break
                elif name == "SELFDESTRUCT":
                    beneficiary = pop()
                    swept = state.balance_of(self_addr)
                    if swept:
                        state.debit(self_addr, swept)
                        state.credit(beneficiary, swept)
                    state.code.pop(self_addr, None)
                    calls.append(
                        CallEvent(len(ops) - 1, name, pc,
                                  beneficiary, 0, swept, 1, swept > 0)
                    )
                    terminal = "SELFDESTRUCT"
                    break
                else:  # pragma: no cover - table and dispatch agree
                    raise _Fault(f"unhandled opcode {name}")
            except _Fault:
                faulted = True
                break
            except TimeoutError:  # a large memory region met the wall cap
                terminal = "TIMEOUT"
                break
            pc += 1

        if faulted:
            # the synthetic fault step, at the pc of the op that faulted
            record_op("INVALID")
            record_pc(pc)
            record_stack(tuple(stack))
            terminal = "INVALID"

        return ExecutionTrace(
            ops=tuple(ops),
            pcs=tuple(pcs),
            stacks=tuple(stacks),
            terminal=terminal,
            faulted=faulted,
            calldata=data,
            calls=tuple(calls),
            sha3_preimages=preimages,
            return_data=return_data,
            facts=TraceFacts(
                frozenset(pcs), tuple(jumpis), sstores, frozenset(reads),
                frozenset(writes), frozenset(targets), invalid_pc,
            ),
        )


def new_address(state: EmulatedState, creator: int) -> int:
    """The address of the next account ``creator`` makes: bumps its nonce."""
    nonce = state.nonces.get(creator, 0)
    state.nonces[creator] = nonce + 1
    blob = creator.to_bytes(20, "big") + nonce.to_bytes(8, "big")
    return int.from_bytes(keccak256(blob)[12:], "big")
