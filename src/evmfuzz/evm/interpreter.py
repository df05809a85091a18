"""Bytecode interpreter with environment injection and full tracing.

Executes one transaction against the emulated state and records every
instruction as three parallel columns (opcode, pc, a pre-execution stack
snapshot), plus one flag saying whether the run ended in a fault and the
facts its readers need (branches, storage keys, code-size targets), taken
as each operand is popped.  A finished trace is an immutable value, equal
to another field by field.  A run only reads the state: it logs each value
it takes from outside itself (a storage slot, a balance, a nonce, the
sender, a block word, a call result, the gas cap) and each write it would
make, and an outcome reaches the state only by replaying those writes, so a
later transaction whose reads would all be equal gets the same trace and
writes without running.  Outgoing calls never execute code: their results
come from the injectable environment, which is what lets the fuzzer mutate
block values and external call outcomes like any other input byte.
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

# Transaction outcome memo bounds: at most this many outcomes (leaves of the
# trie of reads) per interpreter, holding at most this many trace steps in all.
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

# Where a run reads a value from outside itself, as (kind, where): ``where``
# is the slot, the account or the callee read at, None for the run's scalars.
_GAS = ("gas", None)  # the transaction's gas cap
# the environment words that a run reads from outside the fields its trie
# root is keyed by, and where each is logged
_LOGGED_WORDS = {"ORIGIN": ("sender", None), "CALLER": ("sender", None),
                 "TIMESTAMP": ("timestamp", None), "NUMBER": ("number", None)}


def _funded(state: EmulatedState, address: int, sender: int, to: int, value: int) -> int:
    """The balance of ``address`` once a transaction's ``value`` has moved
    from ``sender`` to ``to``: the balance a run of it starts with."""
    return state.balance_of(address) + value * ((address == to) - (address == sender))


def _reread(location: tuple, state: EmulatedState, tx: Transaction,
            env: EnvOverrides, gas: int):
    """What a run of ``tx`` under ``env`` and the gas cap ``gas``, starting
    from ``state``, would read first at ``location``, read without running
    it."""
    kind, where = location
    if kind == "slot":
        return state.sload(tx.to, where)
    if kind == "call":
        return env.call_results.get(where, DEFAULT_CALL_RESULT)
    if kind == "sender":
        return tx.sender
    if kind == "gas":
        return gas
    if kind == "balance":
        return _funded(state, where, tx.sender, tx.to, tx.value)
    if kind == "nonce":
        return state.nonces.get(where, 0)
    if kind == "code":
        return where in state.code
    if kind == "returndata":
        return env.returndata_sizes.get(where)
    if kind == "extcode":
        return env.extcode_sizes.get(where, 0)
    if kind == "timestamp":
        return env.timestamp
    return env.block_number


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
    ``facts`` and ``walks`` is.  A transaction whose reads equal those of a
    run the interpreter holds gets that run's trace, so nothing may change a
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

    * the outcomes of ``execute``, in a trie of the values each run read.
      A root is keyed by the fields every run reads: the target, its code,
      the calldata and the value.  Below it, each branch names the next
      location the runs under it read (a storage slot this run did not
      write first, an account's balance as the run started, the creator's
      nonce and whether its new account has code, the sender, the block
      timestamp or number, one callee's injected result or return-data
      size, one target's code size, the gas cap) and maps each value read
      there to what comes next.  A run is a function of its root and its
      reads, so runs with equal reads read the same next location: a lookup
      re-reads those locations from the state, the transaction and the
      environment, and runs nothing.  The leaf it reaches holds the trace,
      the run's writes and the lowest gas cap the run needs, since a run
      that reads no gas (the ``GAS`` op, or running out) holds under every
      cap from its step count up.  Values the run never read (the gas
      limit, unread storage, the results of callees it never calls) do not
      tell two transactions apart.  Only a ``TIMEOUT`` run, which depends
      on the clock, is not stored.  Where a run that ran out of gas
      parts from one that read on, the newer replaces the older.  At most
      ``OUTCOME_MEMO_ENTRIES`` leaves holding ``OUTCOME_MEMO_STEPS`` trace
      steps are kept: a full trie is emptied whole, and an outcome of more
      steps than that is not stored;
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
        # The trie of reads: root key -> node.  A branch is (location,
        # {value read there: node}); a leaf is (None, trace, writes, the
        # lowest gas cap the run needs).
        self._roots: dict[tuple, tuple] = {}
        # the leaves filed since the trie was last emptied, replaced ones
        # too, and the trace steps they hold: bounds on what it holds
        self._leaves = 0
        self._steps = 0

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
        context, once ``sender``'s nonce has moved past the new address; on
        RETURN replay the constructor's writes and install the runtime code,
        else raise ``DeployError`` and change nothing more.

        Constructor arguments travel appended to the creation code, which is
        where CODECOPY-based constructor prologues expect them.
        """
        address = new_address(state, sender)
        trace, _, writes, _ = self._run(
            state, creation_code + constructor_args, address, sender, 0, b"", GAS_BUDGET,
            EnvOverrides(),
        )
        if trace.terminal != "RETURN":
            raise DeployError(f"constructor halted with {trace.terminal}", trace)
        state.replay(writes)
        state.set_code(address, trace.return_data)
        return address, trace

    def execute(
        self,
        state: EmulatedState,
        tx: Transaction,
        env: EnvOverrides | None = None,
        deadline: float | None = None,
    ) -> ExecutionTrace:
        """Run ``tx`` against ``state`` and apply the outcome unless the run
        failed: the transaction's value moves, then the run's writes are
        replayed in order.  A run ends in ``TIMEOUT`` at the earlier of the
        wall cap and ``deadline`` (a ``time.monotonic()`` value), at once if
        that has passed.  A transaction whose every read equals a stored
        run's does not run at all: it gets that run's trace and writes."""
        env = env or EnvOverrides()
        if tx.value > state.balance_of(tx.sender):
            # Unpayable transaction: a synthetic fault step, nothing applied.
            return ExecutionTrace(
                ("INVALID",), (0,), ((),), "INVALID", faulted=True, calldata=tx.data,
                facts=TraceFacts(executed=frozenset((0,))),
            )
        code = state.code.get(tx.to, b"")
        gas = min(tx.gas_limit, GAS_BUDGET)
        root = (tx.to, code, tx.data, tx.value)
        node = self._roots.get(root)
        while node is not None and node[0] is not None:
            node = node[1].get(_reread(node[0], state, tx, env, gas))
        if node is not None and gas >= node[3]:
            _, trace, writes, _ = node
        else:
            trace, reads, writes, lowest = self._run(
                state, code, tx.to, tx.sender, tx.value, tx.data, gas, env, deadline)
            if trace.terminal != "TIMEOUT":
                self._store(root, reads, (None, trace, writes, lowest))
        if trace.state_delta_applied:
            # the sender is not in the root, so the transfer is not a logged write
            if tx.value:
                state.debit(tx.sender, tx.value)
                state.credit(tx.to, tx.value)
            state.replay(writes)
        return trace

    def _store(self, root: tuple, reads: dict, leaf: tuple) -> None:
        """File ``leaf`` under ``root`` along the path of ``reads``, emptying
        a full trie first."""
        steps = len(leaf[1].ops)
        if OUTCOME_MEMO_ENTRIES <= 0 or steps > OUTCOME_MEMO_STEPS:
            return
        if self._leaves >= OUTCOME_MEMO_ENTRIES or self._steps + steps > OUTCOME_MEMO_STEPS:
            self._roots, self._leaves, self._steps = {}, 0, 0
        parent, key = self._roots, root
        for location, value in reads.items():
            node = parent.get(key)
            # runs with equal reads read on alike, unless one of them ran
            # out of gas where the other read on: the newer one replaces
            if node is None or node[0] != location:
                node = parent[key] = (location, {})
            parent, key = node[1], value
        parent[key] = leaf
        self._leaves += 1
        self._steps += steps

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
    ) -> tuple[ExecutionTrace, dict, tuple, int]:
        """Run ``code`` against ``state``, which it only reads, with
        ``value`` moved from ``sender`` to ``self_addr``; return its trace,
        what it read, what it would write and the lowest gas cap it needs.

        The reads map each location the run took a value from outside
        itself at (see ``_reread``) to that value, at its first read and in
        the order of first reads.  A balance is noted as the run started
        with it: after ``value`` moved, before the run's own transfers.  The
        writes are ``(EmulatedState method name, arguments)`` in the order a
        run that wrote the state as it went would make them, less the move
        of ``value``.
        """
        ops: list[str] = []
        pcs: list[int] = []
        stacks: list[tuple[int, ...]] = []
        record_op, record_pc, record_stack = ops.append, pcs.append, stacks.append
        jumpis: list[tuple[int, int, bool]] = []
        record_jumpi = jumpis.append
        loaded, targets = set(), set()  # SLOAD, EXTCODESIZE operands
        stored: dict[int, int] = {}  # slot -> the word the run last stored there
        reads: dict[tuple, object] = {}  # location -> the value first read there
        note = reads.setdefault
        writes: list[tuple[str, tuple]] = []
        record_write = writes.append
        moved: dict[int, int] = {}  # the value this run's transfers moved, per account
        created = 0  # the accounts this run made
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
        # arm of the loop serves them all (``_LOGGED_WORDS`` are noted as
        # reads).  Execution is single-level (calls never run code), so the
        # origin is the caller.
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

        def balance(address: int) -> int:
            """The balance of ``address`` now, noted as the run started with it."""
            started = note(("balance", address), _funded(state, address, sender, self_addr, value))
            return started + moved.get(address, 0)

        def move(source: int, target: int, amount: int) -> None:
            record_write(("debit", (source, amount)))
            record_write(("credit", (target, amount)))
            moved[source] = moved.get(source, 0) - amount
            moved[target] = moved.get(target, 0) + amount

        while True:
            if used >= checkpoint:
                if used >= gas:
                    terminal = "OUT_OF_GAS"
                    note(_GAS, gas)
                    break
                # below the gas limit, so this is a clock checkpoint
                if time.monotonic() > give_up_at:
                    terminal = "TIMEOUT"
                    break
                checkpoint = min(gas, used + CLOCK_STEPS)
            step = program[pc]
            if step is None:
                faulted = True  # unassigned opcode: same as a synthetic fault
                used += 1  # its step began, so a cap must pass it too
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
                # then the named ops, in an order set by hand, not by counts
                # (no benchmark workload runs JUMP, the second arm), with the
                # environment words after the storage, memory and hashing
                # ops, so that those never pay for the table lookup
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
                    stored[slot] = word
                    record_write(("sstore", (self_addr, slot, word)))
                elif name == "SLOAD":
                    slot = pop()
                    loaded.add(slot)
                    if slot in stored:  # the run loads what it wrote: not a read
                        push(stored[slot])
                    else:
                        push(note(("slot", slot), state.sload(self_addr, slot)))
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
                    word = words[name]
                    if name in _LOGGED_WORDS:
                        note(_LOGGED_WORDS[name], word)
                    push(word)
                elif name == "BALANCE":
                    push(balance(pop()))
                elif name == "CALLDATACOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, data, offset, size)
                elif name == "CODECOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, code, offset, size)
                elif name == "EXTCODESIZE":
                    target = pop()
                    targets.add(target)
                    push(note(("extcode", target), env.extcode_sizes.get(target, 0)))
                elif name == "RETURNDATASIZE":
                    size = note(("returndata", last_callee), env.returndata_sizes.get(last_callee))
                    push(len(returndata) if size is None else size)
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
                    note(_GAS, gas)
                    push(gas - used)
                elif name.startswith("LOG"):
                    offset, size = pop(), pop()
                    mread(offset, size)
                    del stack[len(stack) + 2 - pops:]  # the topics
                elif name == "CREATE":
                    create_value, offset, size = pop(), pop(), pop()
                    mread(offset, size)
                    if create_value and create_value > balance(self_addr):
                        child, success = 0, 0
                    else:
                        nonce = note(("nonce", self_addr), state.nonces.get(self_addr, 0))
                        child = child_address(self_addr, nonce + created)
                        created += 1
                        record_write(("bump_nonce", (self_addr,)))
                        if create_value:
                            move(self_addr, child, create_value)
                        # Initialisation code is not executed; the child is an
                        # empty account at a fresh deterministic address.
                        if not note(("code", child), child in state.code):
                            record_write(("set_code", (child, b"")))
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
                    if call_value and call_value > balance(self_addr):
                        success, returndata, transferred = 0, b"", False
                        returned = None  # the call never ran
                    else:
                        success, returndata = note(
                            ("call", to), env.call_results.get(to, DEFAULT_CALL_RESULT))
                        # CALLCODE runs the callee's code against our own
                        # account, so no value leaves the contract.
                        transferred = bool(call_value and success and name == "CALL")
                        if transferred:
                            move(self_addr, to, call_value)
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
                    swept = balance(self_addr)
                    if swept:
                        move(self_addr, beneficiary, swept)
                    record_write(("drop_code", (self_addr,)))
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

        trace = ExecutionTrace(
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
                frozenset(pcs), tuple(jumpis), sstores, frozenset(loaded),
                frozenset(stored), frozenset(targets), invalid_pc,
            ),
        )
        return trace, reads, tuple(writes), used


def new_address(state: EmulatedState, creator: int) -> int:
    """The address of the next account ``creator`` makes: bumps its nonce."""
    address = child_address(creator, state.nonces.get(creator, 0))
    state.bump_nonce(creator)
    return address


def child_address(creator: int, nonce: int) -> int:
    """The address of the account ``creator`` makes at ``nonce``."""
    blob = creator.to_bytes(20, "big") + nonce.to_bytes(8, "big")
    return int.from_bytes(keccak256(blob)[12:], "big")
