"""No bytecode, calldata or environment makes the per-transaction pipeline
raise, or a transaction overrun its wall cap: execute -> taint -> slot sets,
coverage, fitness -> detectors.  A transaction the interpreter repeats from
its outcome memo ends as a fresh run of it would."""

import dataclasses
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import CoverageStore, TaintPlans, TaintTracker, read_set, write_set
from evmfuzz.detectors import DetectorSuite
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter
from evmfuzz.evm.interpreter import DEFAULT_CALL_RESULT, MEMORY_CAP
from evmfuzz.evm.opcodes import NAME_TO_CODE, TABLE
from evmfuzz.evm.state import INITIAL_BALANCE
from evmfuzz.ga import Individual, Input, compute_fitness

from oracles import taint_ref

ACCOUNTS = AccountSet()
CONTRACT = 0xB0B0

# control flow, copies, calls and the storage/memory/hash ops the analyses
# read, besides the ops any short program needs
PIECES = (
    "JUMP", "JUMPI", "JUMPDEST", "PC", "CALLDATACOPY", "CODECOPY", "RETURNDATACOPY",
    "CALLDATALOAD", "CALLDATASIZE", "RETURNDATASIZE", "EXTCODESIZE", "CALL",
    "CALLCODE", "DELEGATECALL", "STATICCALL", "CREATE", "SLOAD", "SSTORE", "MLOAD",
    "MSTORE", "MSTORE8", "SHA3", "ADD", "SUB", "MUL", "EQ", "ISZERO", "LT", "POP",
    "DUP1", "DUP2", "SWAP1", "SWAP2", "CALLVALUE", "CALLER", "TIMESTAMP", "NUMBER",
    "BALANCE", "BLOCKHASH", "GAS", "LOG1",
)
ENDINGS = ("STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT")


# mostly small words (offsets, sizes, jump targets, PUSH1 addresses), some
# long regions (just past the walker's out-region bound), regions of any size
# up to the memory cap and huge words (sizes past the memory cap, wrapping
# arithmetic).
words = st.one_of(
    st.integers(0, 64), st.integers(0, 255), st.sampled_from((4097, 1 << 40)),
    st.integers(0, MEMORY_CAP), st.integers(0, (1 << 256) - 1),
)

# The per-transaction wall cap of the runs below, and how far past it one may
# end: keccak reads the clock once per ~0.1 s of hashing (a SHA3 over a
# region near the memory cap takes about 40 s uncut), and touching or copying
# such a region takes milliseconds.
WALL_CAP = 0.05
SLACK = 1.0


def push(value: int) -> bytes:
    width = max(1, (value.bit_length() + 7) // 8)
    return bytes([0x5F + width]) + value.to_bytes(width, "big")


def piece(draw, name: str, operands: bool) -> bytes:
    # with its operands pushed first, an op mostly runs
    pops = TABLE[NAME_TO_CODE[name]][1] if operands else 0
    return b"".join(push(draw(words)) for _ in range(pops)) + bytes([NAME_TO_CODE[name]])


@st.composite
def programs(draw):
    parts = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("op",) * 18 + ("bare", "byte")))
        if kind == "byte":  # any byte: unassigned opcodes, PUSHes cut off by the end
            parts.append(bytes([draw(st.integers(0, 255))]))
        else:
            parts.append(piece(draw, draw(st.sampled_from(PIECES)), kind == "op"))
    ending = draw(st.sampled_from(ENDINGS + (None,)))  # None: run off the end
    if ending is not None:
        parts.append(piece(draw, ending, True))
    return b"".join(parts)


# One plan cache across all examples, as a campaign shares one across its
# individuals; the runs are derandomized, so the examples and their order
# are fixed.
PLANS = TaintPlans()

addresses = st.integers(0, 255)  # what a PUSH1 can name
environments = st.builds(
    EnvOverrides,
    timestamp=st.integers(0, (1 << 256) - 1),
    block_number=st.integers(0, 1 << 40),
    call_results=st.dictionaries(
        addresses, st.tuples(st.integers(0, 1), st.binary(max_size=96)), max_size=3
    ),
    returndata_sizes=st.dictionaries(addresses, st.integers(0, 1 << 20), max_size=2),
    extcode_sizes=st.dictionaries(addresses, st.integers(0, 1 << 24), max_size=2),
)
inputs = st.builds(
    Input,
    fn=st.none(),
    sender=st.sampled_from(ACCOUNTS.all()),
    value=st.sampled_from((0, 0, 0, 1, 7, INITIAL_BALANCE + 1)),  # the last unpayable
    gas_limit=st.sampled_from((10_000,) * 5 + (5,)),
    raw_calldata=st.binary(max_size=100),
    env=environments,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(code=programs(), batch=st.lists(inputs, min_size=1, max_size=3))
def test_no_input_crashes_the_pipeline(code, batch):
    run_pipeline(code, batch)


def test_a_run_cut_before_its_first_step_goes_through_the_pipeline():
    # a process stalled for the whole wall cap (a long garbage collection
    # will do) ends a run in TIMEOUT before its first step, with no records
    code = push(1) + push(0) + bytes([NAME_TO_CODE["SSTORE"]])
    inp = Input(fn=None, sender=ACCOUNTS.all()[0], raw_calldata=b"")
    [trace] = run_pipeline(code, [inp], deadline=time.monotonic())
    assert trace.terminal == "TIMEOUT" and trace.ops == ()


def run_pipeline(code, batch, deadline=None):
    """Run ``batch`` against ``code`` through every per-transaction stage,
    checking what each must hold; returns the traces."""
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    interpreter = Interpreter(wall_cap=WALL_CAP)
    traces = []
    for inp in batch:
        started = time.monotonic()
        traces.append(
            interpreter.execute(state, inp.transaction(CONTRACT), inp.env, deadline)
        )
        assert time.monotonic() - started < WALL_CAP + SLACK

    tracker = TaintTracker(PLANS)  # taint_individual's loop, keeping the tracker to read
    reports = [
        tracker.run_input(i, inp, trace) for i, (inp, trace) in enumerate(zip(batch, traces))
    ]
    assert tracker.realignments == 0
    assert reports == taint_ref.taint_individual(batch, traces)

    coverage = CoverageStore(code)
    for trace in traces:
        read_set(trace)
        write_set(trace)
        coverage.merge_trace(trace)
    compute_fitness(traces, frozenset())
    DetectorSuite(ACCOUNTS, CONTRACT, code).inspect(Individual(batch), traces, reports)

    for trace in traces:
        records = list(trace.records)
        assert len(trace.records) == len(trace.ops) == len(records)
        assert [(r.op, r.pc, r.stack) for r in records] == list(
            zip(trace.ops, trace.pcs, trace.stacks)
        )
        # only the last record can be the synthetic fault step, if any is
        last = len(records) - 1
        assert [r.error for r in records] == [
            trace.faulted and index == last for index in range(len(records))
        ]
    return traces


def outcome(trace, state) -> tuple:
    return (trace.ops, trace.pcs, trace.stacks, trace.terminal, trace.faulted,
            trace.return_data, trace.calls, trace.sha3_preimages, trace.facts,
            state.snapshot())


def prepared(code: bytes, poke: str, slot: int = 0) -> EmulatedState:
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    if poke == "sstore":
        state.sstore(CONTRACT, slot, 1)
    elif poke == "credit":
        state.credit(CONTRACT, 1)
    return state


# What the second run may change: nothing, the pre-state (the word in a slot
# the first run loaded, the contract's balance), the transaction (the sender,
# a gas limit above the first run's or one below its step count) or the
# environment.
POKES = ("none", "sstore", "credit", "sender", "gas_up", "gas_cut", "timestamp", "number",
         "call_result", "extcode_size")


def poked(code, tx, env, poke, first):
    """The state, transaction and environment of a second run that differs
    from the first by ``poke``, and the slot, callee or target it changes."""
    env = env.copy()
    slot = min(first.facts.read_keys, default=0)
    callee = next((event.to for event in first.calls if event.return_data is not None), 0)
    target = min(first.facts.extcode_targets, default=0)
    if poke == "sender":
        tx = dataclasses.replace(tx, sender=ACCOUNTS.attackers[tx.sender == ACCOUNTS.attackers[0]])
    elif poke == "gas_up":
        tx = dataclasses.replace(tx, gas_limit=tx.gas_limit + 1)
    elif poke == "gas_cut":
        tx = dataclasses.replace(tx, gas_limit=max(0, len(first.ops) - 1))
    elif poke == "timestamp":
        env.timestamp += 1
    elif poke == "number":
        env.block_number += 1
    elif poke == "call_result":
        success, data = env.call_results.get(callee, DEFAULT_CALL_RESULT)
        env.call_results[callee] = (1 - success, data + b"\x01")
    elif poke == "extcode_size":
        env.extcode_sizes[target] = env.extcode_sizes.get(target, 0) + 1
    return prepared(code, poke, slot), tx, env, (slot, callee, target)


def read_what_changed(trace, poke, tx, slot, callee, target) -> bool:
    """Whether the run that made ``trace`` read what ``poke`` changes for a
    run of ``tx``, judged from the trace alone.  A faulted trace's last two
    steps count as reading nothing: the synthetic fault step, and the op
    that faulted (or, after an unassigned opcode, the op before it)."""
    last = len(trace.ops) - 2 * trace.faulted
    steps = list(zip(trace.ops[:last], trace.stacks[:last]))
    if poke == "sstore":  # unless the run wrote the slot first
        loads = [op == "SLOAD" for op, stack in steps
                 if op in ("SLOAD", "SSTORE") and stack[-1] == slot]
        return loads[:1] == [True]
    if poke == "credit":  # the contract's balance
        return any(op == "BALANCE" and stack[-1] == CONTRACT
                   or op in ("CALL", "CALLCODE") and stack[-3]
                   or op == "CREATE" and stack[-1] or op == "SELFDESTRUCT"
                   for op, stack in steps)
    if poke in ("gas_up", "gas_cut"):
        return ("GAS" in trace.ops[:last] or trace.terminal == "OUT_OF_GAS"
                or tx.gas_limit < len(trace.ops) - trace.faulted)
    if poke == "call_result":
        return any(event.to == callee and event.return_data is not None
                   for event in trace.calls)
    if poke == "extcode_size":
        return target in trace.facts.extcode_targets
    reading = {"sender": ("CALLER", "ORIGIN"), "timestamp": ("TIMESTAMP",),
               "number": ("NUMBER",), "none": ()}[poke]
    return any(op in reading for op, _ in steps)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(code=programs(), inp=inputs, poke=st.sampled_from(POKES))
def test_a_repeated_transaction_ends_as_a_fresh_run(code, inp, poke):
    interpreter = Interpreter(wall_cap=WALL_CAP)
    runs = []
    shipped = interpreter._run
    interpreter._run = lambda *args: runs.append(args) or shipped(*args)
    tx = inp.transaction(CONTRACT)
    first = interpreter.execute(prepared(code, "none"), tx, inp.env)
    ran_first = len(runs)
    # the second run starts from an equal state, transaction and
    # environment, or from ones that differ in one place, which it must see
    state, tx, env, changed = poked(code, tx, inp.env, poke, first)
    second = interpreter.execute(state, tx, env)
    fresh_state = prepared(code, poke, changed[0])
    fresh = Interpreter(wall_cap=WALL_CAP).execute(fresh_state, tx, env)
    if "TIMEOUT" not in (second.terminal, fresh.terminal):
        assert outcome(second, state) == outcome(fresh, fresh_state)
    reused = len(runs) == ran_first
    if poke == "none" and first.terminal != "TIMEOUT":
        # an unpayable transaction never runs, and gets a fresh fault trace
        assert reused and (second is first or not ran_first)
    if reused:
        assert not read_what_changed(first, poke, tx, *changed)
