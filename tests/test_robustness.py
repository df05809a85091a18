"""No bytecode, calldata or environment makes the per-transaction pipeline
raise, or a transaction overrun its wall cap: execute -> taint -> slot sets,
coverage, fitness -> detectors.  A transaction the interpreter repeats from
its outcome memo ends as a fresh run of it would."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import CoverageStore, TaintPlans, TaintTracker, read_set, write_set
from evmfuzz.detectors import DetectorSuite
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter
from evmfuzz.evm.interpreter import MEMORY_CAP
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
            trace.return_data, trace.calls, trace.sha3_preimages, state.snapshot())


def prepared(code: bytes, poke: str) -> EmulatedState:
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    if poke == "sstore":
        state.sstore(CONTRACT, 0, 1)
    elif poke == "credit":
        state.credit(CONTRACT, 1)
    return state


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code=programs(), inp=inputs, poke=st.sampled_from(("none", "sstore", "credit")))
def test_a_repeated_transaction_ends_as_a_fresh_run(code, inp, poke):
    interpreter = Interpreter(wall_cap=WALL_CAP)
    runs = []
    shipped = interpreter._transact
    interpreter._transact = lambda *args: runs.append(args) or shipped(*args)
    tx = inp.transaction(CONTRACT)
    first = interpreter.execute(prepared(code, "none"), tx, inp.env)
    # the second run starts from an equal state, or one that a store or a
    # credit made different, which it must see
    state = prepared(code, poke)
    second = interpreter.execute(state, tx, inp.env)
    fresh_state = prepared(code, poke)
    fresh = Interpreter(wall_cap=WALL_CAP).execute(fresh_state, tx, inp.env)
    reused = poke == "none" and first.terminal != "TIMEOUT"
    assert len(runs) == (1 if reused else 2)
    if "TIMEOUT" not in (second.terminal, fresh.terminal):
        assert outcome(second, state) == outcome(fresh, fresh_state)
