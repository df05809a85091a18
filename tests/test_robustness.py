"""No bytecode, calldata or environment makes the per-transaction pipeline
raise: execute -> taint -> slot sets, coverage, fitness -> detectors."""

from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import CoverageStore, TaintTracker, read_set, write_set
from evmfuzz.detectors import DetectorSuite
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter
from evmfuzz.evm.opcodes import NAME_TO_CODE, TABLE
from evmfuzz.evm.state import INITIAL_BALANCE
from evmfuzz.ga import Individual, Input, compute_fitness

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
# long regions (just past the walker's out-region bound) and huge words
# (sizes past the memory cap, wrapping arithmetic).  No region between those:
# hashing one takes seconds per MiB.
words = st.one_of(
    st.integers(0, 64), st.integers(0, 255), st.sampled_from((4097, 1 << 40)),
    st.integers(0, (1 << 256) - 1),
)


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
    gas_limit=st.sampled_from((8_000_000,) * 5 + (5,)),  # the budget caps it at 10 000
    raw_calldata=st.binary(max_size=100),
    env=environments,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(code=programs(), batch=st.lists(inputs, min_size=1, max_size=3))
def test_no_input_crashes_the_pipeline(code, batch):
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    interpreter = Interpreter(gas_budget=10_000)
    traces, received = [], []
    for inp in batch:
        received.append(dict(state.received_from))
        traces.append(interpreter.execute(state, inp.transaction(CONTRACT), inp.env))

    tracker = TaintTracker()  # taint_individual's loop, keeping the tracker to read
    reports = [
        tracker.run_input(i, inp, trace) for i, (inp, trace) in enumerate(zip(batch, traces))
    ]
    assert tracker.realignments == 0

    coverage = CoverageStore(code)
    for trace in traces:
        read_set(trace)
        write_set(trace)
        coverage.merge_trace(trace)
    compute_fitness(traces, frozenset())
    DetectorSuite(ACCOUNTS, CONTRACT, code).inspect(Individual(batch), traces, reports, received)

    for trace in traces:
        records = list(trace.records)
        assert len(trace.records) == len(trace.ops) == len(records)
        assert [(r.op, r.pc, r.stack) for r in records] == list(
            zip(trace.ops, trace.pcs, trace.stacks)
        )
        assert all(r.depth == 0 for r in records)
        assert [r.error for r in records] == [False] * (len(records) - 1) + [trace.faulted]
