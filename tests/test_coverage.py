from evmfuzz.analysis import CoverageStore
from evmfuzz.asm import assemble
from evmfuzz.evm import AccountSet, EmulatedState, Interpreter, Transaction

CONTRACT = 0xC0DE

BRANCHING = assemble(
    """
    CALLVALUE
    PUSH @dest
    JUMPI
    STOP
dest:
    JUMPDEST
    PUSH1 0x01
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def run(value):
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = BRANCHING
    interp = Interpreter()
    sender = state.accounts.benign
    return interp.execute(
        state, Transaction(sender=sender, to=CONTRACT, value=value, gas_limit=100_000, data=b"")
    )


def test_totals_skip_push_immediates():
    store = CoverageStore(BRANCHING)
    # PUSH data bytes are not instructions; JUMPI dest operand is 2 bytes wide
    assert store.instructions_total == 9
    assert store.percent() == 0.0


def test_merge_reports_growth_once():
    store = CoverageStore(BRANCHING)
    trace = run(value=0)
    assert store.merge_trace(trace) is True
    assert store.merge_trace(trace) is False  # nothing new the second time


def test_two_stores_sharing_a_trace_each_take_it_in():
    trace = run(value=5)
    first, second = CoverageStore(BRANCHING), CoverageStore(BRANCHING)
    assert first.merge_trace(trace) is True
    assert second.merge_trace(trace) is True
    assert first.merge_trace(trace) is False
    assert second.executed == first.executed and first.percent() == 100.0 * 8 / 9
    assert second.branch_outcomes == first.branch_outcomes == {BRANCHING.index(0x57): {True}}


def test_fallthrough_covers_prefix_only():
    store = CoverageStore(BRANCHING)
    store.merge_trace(run(value=0))
    # CALLVALUE, PUSH, JUMPI, STOP
    assert len(store.executed) == 4
    assert store.percent() == 100.0 * 4 / 9


def test_both_paths_reach_full_coverage():
    store = CoverageStore(BRANCHING)
    store.merge_trace(run(value=0))
    store.merge_trace(run(value=5))
    assert store.percent() == 100.0
    assert store.branches_observed() == 2


def test_open_branch_wants_the_missing_outcome():
    store = CoverageStore(BRANCHING)
    store.merge_trace(run(value=0))  # fall through only
    open_branches = store.find_open_branches()
    assert len(open_branches) == 1
    assert open_branches[0].want_taken is True

    store.merge_trace(run(value=5))
    assert store.find_open_branches() == []


def test_taken_only_branch_wants_fallthrough():
    store = CoverageStore(BRANCHING)
    store.merge_trace(run(value=5))
    [branch] = store.find_open_branches()
    assert branch.want_taken is False
    assert branch.pc == BRANCHING.index(0x57)  # the JUMPI offset


def test_snapshot_is_immutable_copy():
    store = CoverageStore(BRANCHING)
    store.merge_trace(run(value=0))
    before = store.snapshot_executed()
    store.merge_trace(run(value=5))
    assert len(store.snapshot_executed()) > len(before)
    assert isinstance(before, frozenset)


def test_foreign_pcs_do_not_count():
    # a trace from different code must not inflate coverage of this store
    other = assemble("PUSH1 0x00 PUSH1 0x00 SSTORE STOP " + "JUMPDEST " * 40)
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = other
    trace = Interpreter().execute(
        state,
        Transaction(
            sender=state.accounts.benign, to=CONTRACT, value=0, gas_limit=100_000, data=b""
        ),
    )
    store = CoverageStore(bytes([0x00]))  # one-instruction program: STOP
    store.merge_trace(trace)
    assert store.executed <= {0}
