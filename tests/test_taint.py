import time
import weakref

import pytest

from evmfuzz.analysis import (
    BLOCK_KINDS,
    FUZZABLE_KINDS,
    VAR_KINDS,
    PathConstraint,
    TaintPlans,
    TaintReport,
    TaintTracker,
    parse_var,
    pool_bucket,
    purge_reverting_values,
    taint_individual,
    var,
    variables,
)
from evmfuzz.analysis import taint as taint_module
from evmfuzz.analysis.expr import evaluate
from evmfuzz.analysis.taint import OUT_REGION_TAINT_BYTES
from evmfuzz import campaign as campaign_module
from evmfuzz.asm import assemble
from evmfuzz.campaign import CampaignConfig, run_campaign
from evmfuzz.abi import parse_abi
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, ExecutionTrace, Interpreter
from evmfuzz.evm.opcodes import NAME_TO_CODE, TABLE, push_width
from evmfuzz.ga import Individual, Input, MutationPools

from fixtures import GUARDED_ADD, MINI_CORPUS, OWNED_PROXY, SAFE_ASSERT, TOKEN_SALE
from oracles import taint_ref

CONTRACT = 0x7A137
HELPER = 0x8888


def execute(code, inputs, extra_code=None):
    """Run a list of Inputs against one contract; returns (traces, state)."""
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    for address, blob in (extra_code or {}).items():
        state.code[address] = blob
    interp = Interpreter()
    traces = [interp.execute(state, inp.transaction(CONTRACT), inp.env) for inp in inputs]
    return traces, state


def reports_for(code, inputs, extra_code=None):
    traces, _ = execute(code, inputs, extra_code)
    tracker = TaintTracker()
    reports = [
        tracker.run_input(i, inp, trace)
        for i, (inp, trace) in enumerate(zip(inputs, traces))
    ]
    assert tracker.realignments == 0
    return reports, traces


def benign_input(**kwargs):
    return Input(fn=None, sender=AccountSet().benign, **kwargs)


# ---------------------------------------------------------------------------
# sources and constraints


VALUE_GUARD = assemble(
    """
    CALLVALUE
    PUSH1 0x2a
    EQ
    PUSH @yes
    JUMPI
    STOP
yes:
    JUMPDEST
    PUSH1 0x01
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def test_callvalue_branch_produces_constraint():
    inp = benign_input(value=7)
    [report], _ = reports_for(VALUE_GUARD, [inp])
    assert len(report.constraints) == 1
    constraint = report.constraints[0]
    assert constraint.taken is False  # 7 != 42
    assert variables(constraint.cond) == {"callvalue_0"}
    assert report.var_values["callvalue_0"] == 7
    # the recorded condition replays concretely
    assert evaluate(constraint.cond, {"callvalue_0": 7}) == 0
    assert evaluate(constraint.cond, {"callvalue_0": 42}) == 1


def test_branch_destinations_recorded():
    [report], [trace] = reports_for(VALUE_GUARD, [benign_input(value=42)])
    constraint = report.constraints[0]
    assert constraint.taken is True
    # the trace records the JUMPI's taken destination, the JUMPDEST of `yes`
    assert trace.facts.jumpis == ((constraint.pc, VALUE_GUARD.index(0x5B), True),)


def test_second_input_gets_its_own_index():
    inputs = [benign_input(value=1), benign_input(value=2)]
    reports, _ = reports_for(VALUE_GUARD, inputs)
    assert variables(reports[0].constraints[0].cond) == {"callvalue_0"}
    assert variables(reports[1].constraints[0].cond) == {"callvalue_1"}


CALLER_GUARD = assemble(
    """
    CALLER
    PUSH20 0xBE111C0000000000000000000000000000000B01
    EQ
    PUSH @yes
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    REVERT
yes:
    JUMPDEST
    STOP
"""
)


def test_caller_is_a_source():
    [report], _ = reports_for(CALLER_GUARD, [benign_input()])
    constraint = report.constraints[0]
    assert variables(constraint.cond) == {"caller_0"}
    assert constraint.taken is True
    assert report.var_values["caller_0"] == AccountSet().benign


ARG_GUARD = assemble(
    """
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x64
    GT              ; 0x64 > arg
    PUSH @small
    JUMPI
    STOP
small:
    JUMPDEST
    STOP
"""
)


def test_word_aligned_calldata_is_an_argument_variable():
    data = b"\xaa\xbb\xcc\xdd" + (5).to_bytes(32, "big")
    [report], _ = reports_for(ARG_GUARD, [benign_input(raw_calldata=data)])
    constraint = report.constraints[0]
    assert variables(constraint.cond) == {"arg_0_0"}
    assert report.var_values["arg_0_0"] == 5
    assert constraint.taken is True  # 100 > 5


SELECTOR_DISPATCH = assemble(
    """
    PUSH1 0x00
    CALLDATALOAD
    PUSH29 0x0100000000000000000000000000000000000000000000000000000000
    SWAP1
    DIV
    PUSH4 0xa9059cbb
    EQ
    PUSH @match
    JUMPI
    STOP
match:
    JUMPDEST
    STOP
"""
)


def test_selector_word_is_deliberately_untainted():
    data = bytes.fromhex("a9059cbb") + b"\x00" * 32
    [report], _ = reports_for(SELECTOR_DISPATCH, [benign_input(raw_calldata=data)])
    # dispatcher comparisons must not become constraints: the selector is
    # part of the individual's identity, not something the solver may bend
    assert report.constraints == []


UNALIGNED_LOAD = assemble(
    """
    PUSH1 0x07
    CALLDATALOAD
    PUSH @yes
    JUMPI
    STOP
yes:
    JUMPDEST
    STOP
"""
)


def test_unaligned_calldata_gets_offset_variable():
    data = b"\x00" * 7 + b"\x01" + b"\x00" * 31
    [report], _ = reports_for(UNALIGNED_LOAD, [benign_input(raw_calldata=data)])
    assert variables(report.constraints[0].cond) == {"calldata_7_0"}


def test_calldatasize_is_a_source():
    code = assemble(
        """
        CALLDATASIZE
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    [report], _ = reports_for(code, [benign_input(raw_calldata=b"\x01\x02")])
    assert variables(report.constraints[0].cond) == {"calldatasize_0"}
    assert report.var_values["calldatasize_0"] == 2


def test_timestamp_and_number_sources():
    code = assemble(
        """
        TIMESTAMP
        NUMBER
        ADD
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    env = EnvOverrides(timestamp=1_600_000_000, block_number=6_000_000)
    [report], _ = reports_for(code, [benign_input(env=env)])
    cond = report.constraints[0].cond
    assert variables(cond) == {"timestamp_0", "blocknumber_0"}
    assert cond.kinds & BLOCK_KINDS == {"timestamp", "blocknumber"}
    assert report.var_values["timestamp_0"] == 1_600_000_000
    assert report.var_values["blocknumber_0"] == 6_000_000


# ---------------------------------------------------------------------------
# storage shadowing across inputs


STORE_VALUE = assemble(
    """
    CALLVALUE
    PUSH1 0x05
    SSTORE
    STOP
"""
)

LOAD_AND_BRANCH = assemble(
    """
    PUSH1 0x05
    SLOAD
    PUSH @yes
    JUMPI
    STOP
yes:
    JUMPDEST
    STOP
"""
)

STORE_THEN_REVERT = assemble(
    """
    CALLVALUE
    PUSH1 0x05
    SSTORE
    PUSH1 0x00
    PUSH1 0x00
    REVERT
"""
)


def test_storage_taint_flows_between_inputs():
    # input 0 writes callvalue to slot 5; input 1 branches on the load
    writer = benign_input(value=9)
    reader = benign_input()
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = STORE_VALUE
    interp = Interpreter()
    trace0 = interp.execute(state, writer.transaction(CONTRACT), writer.env)
    state.code[CONTRACT] = LOAD_AND_BRANCH
    trace1 = interp.execute(state, reader.transaction(CONTRACT), reader.env)

    tracker = TaintTracker()
    tracker.run_input(0, writer, trace0)
    report = tracker.run_input(1, reader, trace1)
    assert tracker.realignments == 0
    # the load sees the symbolic value written by input 0
    assert variables(report.constraints[0].cond) == {"callvalue_0"}


def test_reverted_store_does_not_leak_taint():
    writer = benign_input(value=9)
    reader = benign_input()
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = STORE_THEN_REVERT
    interp = Interpreter()
    trace0 = interp.execute(state, writer.transaction(CONTRACT), writer.env)
    assert trace0.state_delta_applied is False
    state.code[CONTRACT] = LOAD_AND_BRANCH
    trace1 = interp.execute(state, reader.transaction(CONTRACT), reader.env)

    tracker = TaintTracker()
    tracker.run_input(0, writer, trace0)
    report = tracker.run_input(1, reader, trace1)
    # rollback: the slot never kept input 0's symbolic value, so the branch
    # depends on a fresh storage variable, not on callvalue_0
    assert variables(report.constraints[0].cond) == {"storage_5"}
    assert report.constraints[0].taken is False


def test_untouched_storage_reads_as_storage_variable():
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = LOAD_AND_BRANCH
    state.sstore(CONTRACT, 5, 1)  # pre-existing nonzero so the branch is taken
    reader = benign_input()
    trace = Interpreter().execute(state, reader.transaction(CONTRACT), reader.env)
    tracker = TaintTracker()
    report = tracker.run_input(0, reader, trace)
    cond = report.constraints[0].cond
    assert variables(cond) == {"storage_5"}
    assert parse_var("storage_5").kind not in FUZZABLE_KINDS


# ---------------------------------------------------------------------------
# memory, hashing, arithmetic


def test_memory_roundtrip_preserves_term():
    code = assemble(
        """
        CALLVALUE
        PUSH1 0x40
        MSTORE
        PUSH1 0x40
        MLOAD
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    [report], _ = reports_for(code, [benign_input(value=3)])
    assert variables(report.constraints[0].cond) == {"callvalue_0"}


def test_sha3_of_tainted_memory_is_opaque_but_tracked():
    code = assemble(
        """
        CALLVALUE
        PUSH1 0x00
        MSTORE
        PUSH1 0x20
        PUSH1 0x00
        SHA3
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    [report], traces = reports_for(code, [benign_input(value=3)])
    cond = report.constraints[0].cond
    assert cond.op == "sha3"
    assert variables(cond) == {"callvalue_0"}
    # opaque terms evaluate to the hash observed at runtime
    observed = evaluate(cond, {})
    assert observed == int.from_bytes(
        __import__("evmfuzz.keccak", fromlist=["keccak256"]).keccak256(
            (3).to_bytes(32, "big")
        ),
        "big",
    )


def test_sha3_of_untainted_memory_stays_clean():
    code = assemble(
        """
        PUSH1 0x07
        PUSH1 0x00
        MSTORE
        PUSH1 0x20
        PUSH1 0x00
        SHA3
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    [report], _ = reports_for(code, [benign_input()])
    assert report.constraints == []


def test_overflowing_add_of_tainted_value_is_flagged():
    code = assemble(
        """
        PUSH1 0x04
        CALLDATALOAD
        DUP1
        ADD           ; arg + arg wraps when arg >= 2^255
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    big = 1 << 255
    data = b"\x00" * 4 + big.to_bytes(32, "big")
    [report], _ = reports_for(code, [benign_input(raw_calldata=data)])
    assert len(report.overflows) == 1
    event = report.overflows[0]
    assert event.op == "add"
    assert variables(event.result) == {"arg_0_0"}
    # and the wrapped result flowed into the store
    assert len(report.stores) == 1
    assert report.stores[0].value_term is event.result


def test_untainted_overflow_is_not_an_event():
    code = assemble(
        """
        PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        PUSH1 0x02
        ADD
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    [report], _ = reports_for(code, [benign_input()])
    assert report.overflows == []


def test_in_range_tainted_add_is_not_an_event():
    code = assemble(
        """
        CALLVALUE
        PUSH1 0x01
        ADD
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    [report], _ = reports_for(code, [benign_input(value=10)])
    assert report.overflows == []


# ---------------------------------------------------------------------------
# calls and injected results


SEND_ALL = assemble(
    """
    PUSH1 0x00    ; out size
    PUSH1 0x00    ; out offset
    PUSH1 0x00    ; in size
    PUSH1 0x00    ; in offset
    CALLVALUE     ; forwarded value
    PUSH20 0x8888 ; target
    PUSH2 0x2000  ; gas
    CALL
    POP
    STOP
"""
)


def test_call_annotation_carries_terms_and_event_data():
    [report], traces = reports_for(SEND_ALL, [benign_input(value=6)])
    assert len(report.calls) == 1
    call = report.calls[0]
    assert call.event is traces[0].calls[0]
    event = call.event
    assert event.op == "CALL"
    assert event.to == HELPER
    assert event.value == 6
    assert event.transferred is True
    assert event.success == 1
    assert variables(call.value_term) == {"callvalue_0"}
    assert call.target_term is None  # PUSH20 constant
    assert call.control_kinds == frozenset()


def test_failed_create_is_annotated_as_failed():
    code = assemble("PUSH1 0x00 PUSH1 0x00 PUSH1 0x01 CALLVALUE ADD CREATE POP STOP")
    [report], _ = reports_for(code, [benign_input(value=2)])
    [create] = report.calls
    assert (create.event.op, create.event.to, create.event.value) == ("CREATE", 0, 3)
    assert (create.event.success, create.event.transferred) == (0, False)
    assert variables(create.value_term) == {"callvalue_0"}


def test_control_kinds_stick_after_tainted_branch():
    code = assemble(
        """
        PUSH4 0x5a0b4b50
        TIMESTAMP
        LT            ; timestamp < guard constant
        PUSH @go
        JUMPI
        STOP
    go:
        JUMPDEST
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x01    ; 1 wei
        PUSH20 0x8888
        PUSH2 0x2000
        CALL
        POP
        PUSH1 0x01
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    env = EnvOverrides(timestamp=1_400_000_000)  # below the guard constant
    [report], _ = reports_for(code, [benign_input(env=env)])
    assert len(report.calls) == 1
    assert "timestamp" in report.calls[0].control_kinds
    assert len(report.stores) == 1


def test_call_status_is_a_fuzzable_source():
    code = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH20 0x8888
        PUSH2 0x2000
        CALL
        PUSH @ok
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    ok:
        JUMPDEST
        STOP
    """
    )
    env = EnvOverrides(call_results={HELPER: (0, b"")})  # injected failure
    inp = benign_input(env=env)
    [report], _ = reports_for(code, [inp])
    constraint = report.constraints[0]
    assert variables(constraint.cond) == {f"callres_0_{HELPER:x}"}
    assert constraint.taken is False
    assert report.var_values[f"callres_0_{HELPER:x}"] == 0
    info = parse_var(f"callres_0_{HELPER:x}")
    assert info.kind in FUZZABLE_KINDS
    assert pool_bucket(info, inp) == ("call_result", HELPER)


def test_returned_data_words_become_callret_variables():
    code = assemble(
        """
        PUSH1 0x20    ; out size
        PUSH1 0x00    ; out offset
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH20 0x8888
        PUSH2 0x2000
        CALL
        POP
        PUSH1 0x00
        MLOAD         ; first returned word
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    ret = (77).to_bytes(32, "big")
    env = EnvOverrides(call_results={HELPER: (1, ret)})
    [report], _ = reports_for(code, [benign_input(env=env)])
    name = f"callret_0_{HELPER:x}_w0"
    assert variables(report.constraints[0].cond) == {name}
    assert report.var_values[name] == 77
    info = parse_var(name)
    assert info.extra == (HELPER, 0)
    assert pool_bucket(info, benign_input()) == ("call_result", HELPER)


def test_returndatasize_variable_names_last_callee():
    code = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH20 0x8888
        PUSH2 0x2000
        CALL
        POP
        RETURNDATASIZE
        PUSH @yes
        JUMPI
        STOP
    yes:
        JUMPDEST
        STOP
    """
    )
    env = EnvOverrides(returndata_sizes={HELPER: 64})
    [report], _ = reports_for(code, [benign_input(env=env)])
    name = f"retsize_0_{HELPER:x}"
    assert variables(report.constraints[0].cond) == {name}
    assert report.var_values[name] == 64


def test_extcodesize_variable():
    code = assemble(
        """
        PUSH20 0x8888
        EXTCODESIZE
        PUSH @yes
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    yes:
        JUMPDEST
        STOP
    """
    )
    env = EnvOverrides(extcode_sizes={HELPER: 100})
    [report], _ = reports_for(code, [benign_input(env=env)])
    name = f"extcode_0_{HELPER:x}"
    assert variables(report.constraints[0].cond) == {name}
    assert report.var_values[name] == 100
    assert report.constraints[0].taken is True


# ---------------------------------------------------------------------------
# variable grammar


@pytest.mark.parametrize(
    "name, kind, input_index, extra",
    [
        ("callvalue_0", "callvalue", 0, None),
        ("caller_3", "caller", 3, None),
        ("origin_1", "origin", 1, None),
        ("timestamp_2", "timestamp", 2, None),
        ("blocknumber_0", "blocknumber", 0, None),
        ("calldatasize_4", "calldatasize", 4, None),
        ("gas_0", "gas", 0, None),
        ("arg_7_2", "arg", 2, 7),
        ("calldata_37_1", "calldata", 1, 37),
        ("callres_0_8888", "callres", 0, 0x8888),
        ("callret_1_8888_w2", "callret", 1, (0x8888, 2)),
        ("retsize_0_abc", "retsize", 0, 0xABC),
        ("extcode_2_8888", "extcode", 2, 0x8888),
        ("balance_0", "balance", 0, None),
        ("blockhash_1", "blockhash", 1, None),
        ("storage_2a", "storage", None, 42),
    ],
)
def test_variable_grammar_roundtrip(name, kind, input_index, extra):
    info = parse_var(name)
    assert info.kind == kind
    assert info.input_index == input_index
    if extra is not None:
        assert info.extra == extra


ONE_ARG_ABI = parse_abi(
    '[{"type": "function", "name": "f", "payable": true,'
    ' "inputs": [{"name": "x", "type": "uint256"}]}]'
)


def blamed_revert(name):
    """A reverted trace and a report whose last guard reads only ``name``."""
    trace = ExecutionTrace([], [], [], terminal="REVERT")
    report = TaintReport(constraints=[PathConstraint(0, var(name), False)])
    return trace, report


def pool_contents(pools):
    return {bucket: list(buffer) for bucket, buffer in pools._buffers.items()}


@pytest.mark.parametrize(
    "name",
    ["callvalue_0", "caller_0", "origin_0", "timestamp_0", "blocknumber_0",
     "calldatasize_0", "gas_0", "arg_0_0", f"callres_0_{HELPER:x}",
     f"callret_0_{HELPER:x}_w1", f"retsize_0_{HELPER:x}", f"extcode_0_{HELPER:x}"],
)
def test_solved_values_round_trip_through_their_pool(name):
    campaign = campaign_module.Campaign(ONE_ARG_ABI, assemble("STOP"))
    pools = campaign.engine.pools
    info = parse_var(name)
    individual = Individual([Input(fn=ONE_ARG_ABI.functions[0], sender=1, args=[0])])
    if info.kind == "retsize":  # a size has no pool: tag its call result first
        individual = campaign._apply_model(individual, {f"callres_0_{HELPER:x}": 1})
    bucket = pool_bucket(info, individual.inputs[0])
    assert bucket[0] == VAR_KINDS[info.kind][0]
    pools.insert(*bucket, "kept")
    inp = campaign._apply_model(individual, {name: 5}).inputs[0]
    solved = inp.pool_tags[bucket]
    assert list(inp.pool_tags) == [bucket]
    assert solved in list(pools._buffers[bucket])
    expected = pool_contents(pools)
    expected[bucket].remove(solved)
    trace, report = blamed_revert(name)
    assert purge_reverting_values([inp], [trace], [report], pools) == 1
    assert pool_contents(pools) == expected


@pytest.mark.parametrize("name", ["balance_0", "blockhash_0", "storage_5", "calldata_7_0"])
def test_non_fuzzable_kinds_purge_nothing(name):
    assert name.partition("_")[0] not in FUZZABLE_KINDS
    pools = MutationPools()
    inp = Input(fn=ONE_ARG_ABI.functions[0], sender=1, args=[0])
    for pool in ("amount", "sender", "timestamp", "block_number", "gas_limit", "calldata_size"):
        pools.insert(pool, inp.selector, 5)
        inp.pool_tags[pool, inp.selector] = 5
    assert pool_bucket(parse_var(name), inp) is None
    expected = pool_contents(pools)
    trace, report = blamed_revert(name)
    assert purge_reverting_values([inp], [trace], [report], pools) == 0
    assert pool_contents(pools) == expected


# ---------------------------------------------------------------------------
# termination plugging into pools


def test_guard_revert_purges_the_blamed_pool_value():
    guard = assemble(
        """
        CALLVALUE
        PUSH1 0x2a
        EQ
        PUSH @ok
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    ok:
        JUMPDEST
        STOP
    """
    )
    pools = MutationPools()
    pools.insert("amount", b"", 7)
    inp = benign_input(value=7)
    inp.pool_tags["amount", b""] = 7
    traces, _ = execute(guard, [inp])
    assert traces[0].terminal == "REVERT"
    reports = taint_individual([inp], traces)
    purged = purge_reverting_values([inp], traces, reports, pools)
    assert purged == 1
    assert pools.pick("amount", b"") is None  # bucket emptied


def test_guard_revert_purges_the_argument_whose_head_word_it_read():
    # f(uint256[2] a, uint256 b, uint256 c): a fills head words 0-1, b word 2,
    # c word 3, so a guard on word 2 blames b, the argument at position 1
    fn = parse_abi(
        '[{"type": "function", "name": "f", "inputs": [{"name": "a", "type":'
        ' "uint256[2]"}, {"name": "b", "type": "uint256"}, {"name": "c", "type":'
        ' "uint256"}]}]'
    ).functions[0]
    guard = assemble(
        """
        PUSH1 0x44
        CALLDATALOAD
        PUSH1 0x2a
        EQ
        PUSH @ok
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    ok:
        JUMPDEST
        STOP
    """
    )
    pools = MutationPools()
    inp = Input(fn=fn, sender=AccountSet().benign, args=[[1, 2], 7, 9])
    for position, value in ((1, 7), (2, 9)):
        pools.insert("argument", (fn.selector, position), value)
        inp.pool_tags["argument", (fn.selector, position)] = value
    traces, _ = execute(guard, [inp])
    assert traces[0].terminal == "REVERT"
    reports = taint_individual([inp], traces)
    assert variables(reports[0].constraints[-1].cond) == {"arg_2_0"}
    assert purge_reverting_values([inp], traces, reports, pools) == 1
    assert pools.pick("argument", (fn.selector, 1)) is None  # b's 7 evicted
    assert pools.pick("argument", (fn.selector, 2)) == 9  # c's 9 kept


def test_applied_inputs_never_purge():
    pools = MutationPools()
    pools.insert("amount", b"", 42)
    inp = benign_input(value=42)
    inp.pool_tags["amount", b""] = 42
    traces, _ = execute(VALUE_GUARD, [inp])
    assert traces[0].state_delta_applied is True
    reports = taint_individual([inp], traces)
    assert purge_reverting_values([inp], traces, reports, pools) == 0
    assert pools.pick("amount", b"") == 42


def test_revert_without_tainted_guard_purges_nothing():
    always_revert = assemble("PUSH1 0x00 PUSH1 0x00 REVERT")
    pools = MutationPools()
    pools.insert("amount", b"", 3)
    inp = benign_input(value=3)
    inp.pool_tags["amount", b""] = 3
    traces, _ = execute(always_revert, [inp])
    reports = taint_individual([inp], traces)
    assert purge_reverting_values([inp], traces, reports, pools) == 0


def test_fresh_random_values_have_no_tag_to_purge():
    guard = assemble(
        """
        CALLVALUE
        PUSH @ok
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    ok:
        JUMPDEST
        STOP
    """
    )
    pools = MutationPools()
    inp = benign_input(value=0)  # no pool_tags at all
    traces, _ = execute(guard, [inp])
    reports = taint_individual([inp], traces)
    assert purge_reverting_values([inp], traces, reports, pools) == 0


# ---------------------------------------------------------------------------
# walker robustness


def test_synthetic_fault_records_stop_the_walk():
    # stack underflow mid-program: the walker must not trip over the
    # synthetic INVALID record's carried stack
    code = assemble("CALLVALUE ADD STOP")
    [report], traces = reports_for(VALUE_GUARD, [benign_input(value=1)])
    inp = benign_input(value=1)
    traces, _ = execute(code, [inp])
    assert traces[0].terminal == "INVALID"
    tracker = TaintTracker()
    report = tracker.run_input(0, inp, traces[0])
    assert report.constraints == []


def test_op_before_an_unassigned_opcode_still_counts():
    # the INVALID record of an unassigned opcode follows an op that completed
    code = assemble("CALLVALUE PUSH1 0x00 JUMPI") + b"\x0c"
    [report], traces = reports_for(code, [benign_input(value=0)])
    assert traces[0].records[-1].error is True
    [constraint] = report.constraints
    assert variables(constraint.cond) == {"callvalue_0"}
    assert constraint.taken is False


HUGE_OPERANDS = {
    "CALLDATACOPY": "PUSH {size} PUSH1 0x00 PUSH1 0x00 CALLDATACOPY",
    "CODECOPY": "PUSH {size} PUSH1 0x00 PUSH1 0x00 CODECOPY",
    # a call first, so the walker has returned data to copy
    "RETURNDATACOPY": "PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS "
                      "STATICCALL POP PUSH {size} PUSH1 0x00 PUSH1 0x00 RETURNDATACOPY",
    # value 1 from an empty contract: the call fails, memory still expands
    "CALL": "PUSH {size} PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x01 PUSH2 0x8888 GAS CALL",
    "CALLCODE": "PUSH {size} PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x01 PUSH2 0x8888 GAS CALLCODE",
    "DELEGATECALL": "PUSH {size} PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS DELEGATECALL",
    "STATICCALL": "PUSH {size} PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS STATICCALL",
}


@pytest.mark.parametrize("size", [2**40, 2**159])
@pytest.mark.parametrize("op", sorted(HUGE_OPERANDS))
def test_huge_copy_sizes_fault_and_the_walk_stops(op, size):
    code = assemble(HUGE_OPERANDS[op].format(size=size) + " STOP")
    inp = benign_input(raw_calldata=bytes(range(36)))
    traces, _ = execute(code, [inp])
    assert traces[0].terminal == "INVALID"
    assert [r.op for r in traces[0].records[-2:]] == [op, "INVALID"]
    assert traces[0].records[-1].error is True
    started = time.monotonic()
    [report] = taint_individual([inp], traces)
    assert time.monotonic() - started < 5.0
    faulting_op = len(traces[0].records) - 2
    assert all(call.event.record_index < faulting_op for call in report.calls)


# 15 MiB: under the memory cap, so the copy executes
LONG_COPIES = {
    "CALLDATACOPY": "PUSH3 0xf00000 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY",
    "RETURNDATACOPY": "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS "
                      "STATICCALL POP PUSH3 0xf00000 PUSH1 0x00 PUSH1 0x00 RETURNDATACOPY",
}


@pytest.mark.parametrize("op", sorted(LONG_COPIES))
def test_long_copies_walk_only_the_source_data(op):
    code = assemble(LONG_COPIES[op] + " PUSH1 0x20 MLOAD PUSH1 0x00 SSTORE STOP")
    inp = benign_input(raw_calldata=bytes(range(36)))  # 32 bytes returned by default
    traces, _ = execute(code, [inp])
    assert traces[0].terminal == "STOP"
    started = time.monotonic()
    [report] = taint_individual([inp], traces)
    assert time.monotonic() - started < 0.5
    kinds = [parse_var(name).kind for name in report.var_values]
    assert kinds.count("calldata") + kinds.count("arg") + kinds.count("callret") <= 2
    # the destination is still cleared past the source: the word at 0x20 is
    # untainted after a return-data copy and the calldata tail after the other
    [store] = report.stores
    if op == "RETURNDATACOPY":
        assert store.value_term is None
    else:
        assert variables(store.value_term) == {"calldata_32_0"}


def test_a_call_that_never_ran_taints_nothing():
    # value 5 from an empty contract: the call fails on balance, copies nothing
    code = assemble(
        """
        PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x05 PUSH2 0x8888 GAS CALL POP
        PUSH1 0x00 MLOAD PUSH1 0x00 SSTORE
        PUSH1 0x20 PUSH1 0x00 PUSH1 0x20 RETURNDATACOPY
        PUSH1 0x20 MLOAD PUSH1 0x01 SSTORE
        STOP
        """
    )
    env = EnvOverrides(call_results={HELPER: (1, (9).to_bytes(32, "big"))})
    [report], traces = reports_for(code, [benign_input(env=env)])
    assert traces[0].calls[0].success == 0
    assert traces[0].calls[0].return_data is None
    assert [store.value_term for store in report.stores] == [None, None]
    assert not any(name.startswith("callret_") for name in report.var_values)


def test_return_data_copy_reads_what_the_call_returned():
    code = assemble(
        """
        PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS STATICCALL POP
        PUSH1 0x40 PUSH1 0x00 PUSH1 0x00 RETURNDATACOPY
        PUSH1 0x20 MLOAD PUSH1 0x00 SSTORE
        STOP
        """
    )
    ret = (1).to_bytes(32, "big") + (2).to_bytes(32, "big")
    env = EnvOverrides(call_results={HELPER: (1, ret)})
    [report], _ = reports_for(code, [benign_input(env=env)])
    name = f"callret_0_{HELPER:x}_w1"
    assert variables(report.stores[0].value_term) == {name}
    assert report.var_values[name] == 2


def test_a_long_call_out_region_taints_a_bounded_prefix():
    # 15 MiB out region (under the memory cap) over the default 32-byte return
    code = assemble(
        """
        CALLVALUE PUSH2 0x2000 MSTORE
        PUSH3 0xf00000 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS STATICCALL POP
        PUSH1 0x20 MLOAD PUSH1 0x00 SSTORE
        PUSH2 0x2000 MLOAD PUSH1 0x01 SSTORE
        STOP
        """
    )
    inp = benign_input(value=5)
    traces, _ = execute(code, [inp])
    assert traces[0].terminal == "STOP"
    started = time.monotonic()
    [report] = taint_individual([inp], traces)
    assert time.monotonic() - started < 0.5
    callrets = [name for name in report.var_values if parse_var(name).kind == "callret"]
    assert len(callrets) <= OUT_REGION_TAINT_BYTES // 32 == 128
    # a word past the return data keeps its variable; one past the bound is
    # still cleared of what was stored there before the call
    first, second = report.stores
    assert variables(first.value_term) == {f"callret_0_{HELPER:x}_w1"}
    assert second.value_term is None


def test_out_region_words_past_the_return_data_stay_solvable():
    code = assemble(
        "PUSH1 0x40 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH2 0x8888 GAS STATICCALL POP "
        "PUSH1 0x20 MLOAD PUSH1 0x00 SSTORE STOP"
    )
    [report], _ = reports_for(code, [benign_input()])
    name = f"callret_0_{HELPER:x}_w1"
    assert variables(report.stores[0].value_term) == {name}
    assert report.var_values[name] == 0


def test_deep_program_never_realigns():
    # a busy little program exercising most shadow-stack paths at once
    code = assemble(
        """
        CALLVALUE
        PUSH1 0x00
        MSTORE
        PUSH1 0x04
        CALLDATALOAD
        PUSH1 0x20
        MSTORE
        PUSH1 0x40
        PUSH1 0x00
        SHA3
        DUP1
        SWAP1
        POP
        PUSH1 0x01
        SWAP1
        SSTORE
        CALLER
        PUSH1 0x00
        SSTORE
        TIMESTAMP
        NUMBER
        MUL
        CALLDATASIZE
        ADD
        PUSH @fin
        JUMPI
        STOP
    fin:
        JUMPDEST
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH20 0x8888
        GAS
        CALL
        POP
        STOP
    """
    )
    data = b"\x01\x02\x03\x04" + (9).to_bytes(32, "big")
    inp = benign_input(value=5, raw_calldata=data)
    [report], traces = reports_for(code, [inp])
    assert traces[0].terminal == "STOP"
    assert len(report.stores) == 2
    assert len(report.calls) == 1


# ---------------------------------------------------------------------------
# differential: the shipped walker against the reference walker


def assert_walkers_agree(inputs, traces, plans=None):
    """Both walkers give equal reports for every input, and neither realigns;
    the shipped one walks through ``plans``, a fresh cache by default."""
    shipped, reference = TaintTracker(plans), taint_ref.ReferenceTracker()
    for i, (inp, trace) in enumerate(zip(inputs, traces)):
        assert shipped.run_input(i, inp, trace) == reference.run_input(i, inp, trace)
    assert shipped.realignments == reference.realignments == 0


# Taints memory words at 0 (whole) and 0x30 (one byte), leaves a callret
# word past the default 32-byte return data at 0x60, then calls 0x21, whose
# injected 64 bytes are what RETURNDATACOPY reads from.
TAINTED_PRELUDE = """
    CALLVALUE PUSH1 0x00 MSTORE CALLER PUSH1 0x30 MSTORE8
    PUSH1 0x40 PUSH1 0x40 PUSH1 0x00 PUSH1 0x00 PUSH1 0x22 GAS STATICCALL POP
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x21 GAS STATICCALL POP
"""
# Stores the memory words at 0-0x60, a SHA3 over them, and slot 6 read back
# after an untainted write over a tainted one.
TAINTED_EPILOGUE = """
    PUSH1 0x00 MLOAD PUSH1 0x01 SSTORE PUSH1 0x20 MLOAD PUSH1 0x02 SSTORE
    PUSH1 0x40 MLOAD PUSH1 0x03 SSTORE PUSH1 0x60 MLOAD PUSH1 0x04 SSTORE
    PUSH1 0x80 PUSH1 0x00 SHA3 PUSH1 0x05 SSTORE
    CALLVALUE PUSH1 0x06 SSTORE PUSH1 0x00 PUSH1 0x06 SSTORE PUSH1 0x06 SLOAD PUSH1 0x07 SSTORE
    STOP
"""


def every_opcode_program(code):
    """CALLVALUE for each operand of ``code``, the op, then its result and
    the memory it may have touched stored."""
    _, pops, pushes = TABLE[code]
    body = bytes([NAME_TO_CODE["CALLVALUE"]]) * pops + bytes([code]) + bytes(push_width(code))
    if pushes:
        body += assemble("PUSH1 0x00 SSTORE")
    return assemble(TAINTED_PRELUDE) + body + assemble(TAINTED_EPILOGUE)


@pytest.mark.parametrize("code", sorted(TABLE), ids=lambda code: TABLE[code][0])
def test_every_opcode_over_tainted_operands_matches_the_reference(code):
    program = every_opcode_program(code)
    env = EnvOverrides(call_results={0x21: (1, bytes(range(64)))})
    inputs = [
        benign_input(value=value, env=env, raw_calldata=bytes(range(1, 41)))
        for value in (0, 1, 33)
    ]
    traces, _ = execute(program, inputs)
    assert_walkers_agree(inputs, traces)


# Equal ops and fault flags, walks of different length: the first
# STATICCALL's out region passes the memory cap, so it raises and the walk
# stops before it; the second runs, and the unassigned opcode after it faults.
STATICCALL_OPERANDS = " PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CALLVALUE GAS STATICCALL"
STATICCALL_RAISES = assemble("PUSH4 0x7fffffff" + STATICCALL_OPERANDS)
STATICCALL_RUNS = assemble("PUSH4 0x00000020" + STATICCALL_OPERANDS) + bytes([0x0C])


@pytest.mark.parametrize("first_runs", [False, True])
def test_plans_are_keyed_on_the_walked_ops(first_runs):
    inp = benign_input()
    [raises], _ = execute(STATICCALL_RAISES, [inp])
    [runs], _ = execute(STATICCALL_RUNS, [inp])
    assert raises.ops == runs.ops and raises.faulted and runs.faulted
    plans = TaintPlans()
    for trace in ([runs, raises] if first_runs else [raises, runs]):
        assert_walkers_agree([inp], [trace], plans)
    assert len(plans) == 2
    assert len(taint_individual([inp], [runs], plans)[0].calls) == 1


# Loops as often as its first argument says, branching on it every time:
# one distinct path per trip count.
COUNTED_LOOP = assemble(
    """
    PUSH1 0x04 CALLDATALOAD
loop:
    JUMPDEST DUP1 ISZERO PUSH @done JUMPI
    PUSH1 0x01 SWAP1 SUB PUSH @loop JUMP
done:
    JUMPDEST CALLVALUE PUSH1 0x00 SSTORE STOP
"""
)


@pytest.mark.parametrize("entries, steps", [(3, 1 << 17), (1024, 80)])
def test_a_full_plan_cache_keeps_its_bound(entries, steps, monkeypatch):
    monkeypatch.setattr(taint_module, "PLAN_CACHE_ENTRIES", entries)
    monkeypatch.setattr(taint_module, "PLAN_CACHE_STEPS", steps)
    inputs = [
        benign_input(value=7, raw_calldata=bytes(4) + count.to_bytes(32, "big"))
        for count in range(8)
    ]
    traces, _ = execute(COUNTED_LOOP, inputs)
    assert len({tuple(trace.ops) for trace in traces}) == 8
    plans = TaintPlans()
    for inp, trace in zip(inputs, traces):
        assert_walkers_agree([inp], [trace], plans)
        assert len(plans) <= entries and plans.steps <= steps
    assert 0 < len(plans) < 8
    # the uncached paths walk again, equal to the reference
    assert_walkers_agree(inputs, traces, plans)


def test_a_repeated_walk_reuses_its_report():
    writer = benign_input(value=7)
    traces, _ = execute(assemble("CALLVALUE PUSH1 0x00 SSTORE STOP"), [writer])
    plans = TaintPlans()
    first = TaintTracker(plans).run_input(0, writer, traces[0])
    assert TaintTracker(plans).run_input(0, writer, traces[0]) is first
    # another input position names other variables; another shadow storage
    # may read other terms
    assert TaintTracker(plans).run_input(1, writer, traces[0]) is not first
    tracker = TaintTracker(plans)
    tracker.run_input(0, writer, traces[0])
    assert tracker.run_input(0, writer, traces[0]) is not first


def test_a_walk_lives_on_its_trace():
    writer = benign_input(value=7)
    traces, _ = execute(assemble("CALLVALUE PUSH1 0x00 SSTORE STOP"), [writer])
    trace = traces.pop()
    first = TaintTracker(TaintPlans()).run_input(0, writer, trace)
    assert list(trace.walks) == [(0, ())]
    # a tracker on another plan cache finds the walk on the trace
    assert TaintTracker(TaintPlans()).run_input(0, writer, trace) is first
    # another input index or another shadow storage walks again
    assert TaintTracker().run_input(1, writer, trace) is not first
    tracker = TaintTracker()
    tracker.run_input(0, writer, trace)
    assert tracker.run_input(0, writer, trace) is not first
    assert len(trace.walks) == 3
    # the walks die with the trace: none refers back to it
    dead = weakref.ref(trace)
    del trace
    assert dead() is None


TAINT_FIXTURES = [TOKEN_SALE, SAFE_ASSERT, GUARDED_ADD, OWNED_PROXY, *MINI_CORPUS.values()]


@pytest.mark.parametrize("compiled", TAINT_FIXTURES, ids=lambda compiled: compiled.name)
def test_campaign_traces_match_the_reference(compiled, monkeypatch):
    compared, caches = [], []

    def both_walkers(inputs, traces, plans):
        assert_walkers_agree(inputs, traces, plans)
        compared.append(len(traces))
        caches.append(plans)
        return shipped_taint(inputs, traces, plans)

    shipped_taint = campaign_module.taint_individual
    monkeypatch.setattr(campaign_module, "taint_individual", both_walkers)
    run_campaign(
        compiled.abi(),
        compiled.runtime,
        creation_code=compiled.creation,
        constructor_args=compiled.constructor_args,
        config=CampaignConfig(seed=1, generations=10),
        contract_balance=compiled.contract_balance,
    )
    assert compared
    # one cache for the whole campaign, and its plans were reused
    assert all(plans is caches[0] for plans in caches)
    assert len(caches[0]) < sum(compared)
