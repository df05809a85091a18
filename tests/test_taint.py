import time

import pytest

from evmfuzz.analysis import (
    BLOCK_KINDS,
    FUZZABLE_KINDS,
    TaintTracker,
    parse_var,
    pool_tag_key,
    purge_reverting_values,
    taint_individual,
    var_kinds,
    variables,
)
from evmfuzz.analysis.expr import evaluate
from evmfuzz.asm import assemble
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter
from evmfuzz.ga import Input, MutationPools

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
    assert constraint.input_index == 0
    assert variables(constraint.cond) == {"callvalue_0"}
    assert report.var_values["callvalue_0"] == 7
    # the recorded condition replays concretely
    assert evaluate(constraint.cond, {"callvalue_0": 7}) == 0
    assert evaluate(constraint.cond, {"callvalue_0": 42}) == 1


def test_branch_destinations_recorded():
    [report], _ = reports_for(VALUE_GUARD, [benign_input(value=42)])
    constraint = report.constraints[0]
    assert constraint.taken is True
    # the taken destination is the JUMPDEST offset of `yes`
    assert constraint.true_dest == VALUE_GUARD.index(0x5B)
    assert constraint.false_dest == constraint.pc + 1


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
    assert var_kinds(cond) & BLOCK_KINDS == {"timestamp", "blocknumber"}
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
    assert call.op == "CALL"
    assert call.to == HELPER
    assert call.value == 6
    assert call.transferred is True
    assert call.success == 1
    assert variables(call.value_term) == {"callvalue_0"}
    assert call.target_term is None  # PUSH20 constant
    assert call.control_kinds == frozenset()


def test_failed_create_is_annotated_as_failed():
    code = assemble("PUSH1 0x00 PUSH1 0x00 PUSH1 0x01 CALLVALUE ADD CREATE POP STOP")
    [report], _ = reports_for(code, [benign_input(value=2)])
    [create] = report.calls
    assert (create.op, create.to, create.value) == ("CREATE", 0, 3)
    assert (create.success, create.transferred) == (0, False)
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
    assert "timestamp" in report.stores[0].control_kinds


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
    assert pool_tag_key(info) == f"callret_{HELPER:x}"


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
    assert pool_tag_key(info) == f"callret_{HELPER:x}"


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


def test_fuzzable_kinds_have_pool_tags_where_pools_exist():
    for name in ["callvalue_0", "caller_0", "timestamp_0", "blocknumber_0",
                 "calldatasize_0", "gas_0", "arg_3_0", "callres_0_8888",
                 "callret_0_8888_w1", "retsize_0_8888", "extcode_0_8888"]:
        assert pool_tag_key(parse_var(name)) is not None
    # non-fuzzable sources have no pool to purge
    for name in ["balance_0", "blockhash_0", "storage_5", "calldata_7_0"]:
        assert pool_tag_key(parse_var(name)) is None


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
    inp.pool_tags["callvalue"] = ("amount", b"", 7)
    traces, _ = execute(guard, [inp])
    assert traces[0].terminal == "REVERT"
    reports = taint_individual([inp], traces)
    purged = purge_reverting_values([inp], traces, reports, pools)
    assert purged == 1
    assert pools.pick("amount", b"") is None  # bucket emptied


def test_applied_inputs_never_purge():
    pools = MutationPools()
    pools.insert("amount", b"", 42)
    inp = benign_input(value=42)
    inp.pool_tags["callvalue"] = ("amount", b"", 42)
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
    inp.pool_tags["callvalue"] = ("amount", b"", 3)
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
    assert all(call.record_index < faulting_op for call in report.calls)


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
