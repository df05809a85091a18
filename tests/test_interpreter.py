import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.asm import assemble, creation_wrapper
from evmfuzz.evm import (
    AccountSet,
    DeployError,
    EmulatedState,
    EnvOverrides,
    Interpreter,
    Transaction,
)
from evmfuzz.evm.opcodes import NAME_TO_CODE
from evmfuzz.evm.state import INITIAL_BALANCE
from evmfuzz.keccak import keccak256

from oracles import bigint_ref

ACCOUNTS = AccountSet()
CONTRACT = 0xC0DE00000000000000000000000000000000C0DE
OTHER = 0x9999000000000000000000000000000000009999


def run(source_or_code, data=b"", value=0, sender=ACCOUNTS.benign,
        gas=8_000_000, env=None, state=None):
    if state is None:
        state = EmulatedState()
    code = assemble(source_or_code) if isinstance(source_or_code, str) else source_or_code
    state.code[CONTRACT] = code
    tx = Transaction(sender=sender, to=CONTRACT, value=value, gas_limit=gas, data=data)
    trace = Interpreter().execute(state, tx, env or EnvOverrides())
    return trace, state


def returned_word(trace):
    return int.from_bytes(trace.return_data, "big")


RETURN_TOP = "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN"


def test_empty_code_is_implicit_stop():
    trace, _ = run(b"")
    assert trace.terminal == "STOP"
    assert trace.state_delta_applied is True
    assert [(r.op, r.pc) for r in trace.records] == [("STOP", 0)]


def test_running_off_code_end_stops():
    trace, _ = run("PUSH1 0x01")
    assert trace.terminal == "STOP"
    assert trace.records[-1].op == "STOP"
    assert trace.records[-1].pc == 2


def test_add_and_return():
    trace, _ = run(f"PUSH1 0x02 PUSH1 0x03 ADD {RETURN_TOP}")
    assert trace.terminal == "RETURN"
    assert returned_word(trace) == 5


def test_stack_snapshots_are_pre_execution_top_last():
    trace, _ = run("PUSH1 0x01 PUSH1 0x02 ADD STOP")
    ops = [(r.op, r.stack) for r in trace.records]
    assert ops == [
        ("PUSH1", ()),
        ("PUSH1", (1,)),
        ("ADD", (1, 2)),
        ("STOP", (3,)),
    ]


def test_terminal_equals_last_record_opcode():
    for src, terminal in [
        ("STOP", "STOP"),
        ("PUSH1 0x00 PUSH1 0x00 RETURN", "RETURN"),
        ("PUSH1 0x00 PUSH1 0x00 REVERT", "REVERT"),
        ("INVALID", "INVALID"),
        ("CALLER SELFDESTRUCT", "SELFDESTRUCT"),
    ]:
        trace, _ = run(src)
        assert trace.terminal == terminal
        assert trace.records[-1].op == terminal


def test_jumpi_taken_and_fallthrough():
    source = """
        PUSH1 {cond} PUSH @there JUMPI
        PUSH1 0x11 PUSH1 0x00 MSTORE8 STOP
        there: JUMPDEST PUSH1 0x22 PUSH1 0x00 MSTORE8 STOP
    """
    taken, _ = run(source.format(cond="0x01"))
    flat, _ = run(source.format(cond="0x00"))
    assert [r.op for r in taken.records if r.op == "JUMPDEST"] == ["JUMPDEST"]
    assert all(r.op != "JUMPDEST" for r in flat.records)


def test_bad_jump_is_synthetic_fault():
    trace, state = run("PUSH1 0x01 PUSH1 0x55 SSTORE PUSH1 0x03 JUMP")
    assert trace.terminal == "INVALID"
    assert trace.records[-1].op == "INVALID"
    assert trace.records[-1].error is True
    assert trace.state_delta_applied is False
    assert state.storage == {}


def test_genuine_invalid_is_not_flagged_as_error():
    trace, _ = run("INVALID")
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is False


def test_stack_underflow_is_synthetic_fault():
    trace, _ = run("POP")
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is True
    # the faulting instruction itself is still in the trace
    assert trace.records[0].op == "POP"


def test_stack_overflow_is_synthetic_fault():
    body = " ".join(["PUSH1 0x01"] + ["DUP1"] * 1024) + " STOP"
    trace, _ = run(body)
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is True


def test_out_of_gas():
    trace, state = run(
        "PUSH1 0x01 PUSH1 0x00 SSTORE loop: JUMPDEST PUSH @loop JUMP",
        gas=50,
    )
    assert trace.terminal == "OUT_OF_GAS"
    assert trace.state_delta_applied is False
    assert trace.gas_used == 50
    assert state.storage == {}


def test_revert_rolls_back_storage_balance_and_received_from():
    src = "PUSH1 0x2a PUSH1 0x00 SSTORE PUSH1 0x00 PUSH1 0x00 REVERT"
    trace, state = run(src, value=7)
    assert trace.terminal == "REVERT"
    assert trace.state_delta_applied is False
    assert state.storage == {}
    assert state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE
    assert state.balance_of(CONTRACT) == 0
    assert state.received_from == {}


def test_stop_applies_storage_and_received_from():
    trace, state = run("PUSH1 0x2a PUSH1 0x00 SSTORE STOP", value=7)
    assert trace.state_delta_applied is True
    assert state.sload(CONTRACT, 0) == 0x2A
    assert state.received_from[ACCOUNTS.benign] == 7
    assert state.balance_of(CONTRACT) == 7


def test_received_from_accumulates_only_applied_value():
    _, state = run("STOP", value=5)
    state.code[CONTRACT] = assemble("PUSH1 0x00 PUSH1 0x00 REVERT")
    tx = Transaction(ACCOUNTS.benign, CONTRACT, 9, 8_000_000, b"")
    Interpreter().execute(state, tx)
    state.code[CONTRACT] = assemble("STOP")
    tx = Transaction(ACCOUNTS.benign, CONTRACT, 7, 8_000_000, b"")
    Interpreter().execute(state, tx)
    assert state.received_from[ACCOUNTS.benign] == 12


def test_unpayable_transaction_is_single_synthetic_record():
    trace, state = run("STOP", value=INITIAL_BALANCE + 1)
    assert trace.terminal == "INVALID"
    assert trace.state_delta_applied is False
    assert len(trace.records) == 1
    assert trace.records[0] == trace.records[-1]
    assert trace.records[0].error is True
    assert state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE


def test_calldataload_zero_pads_to_the_right():
    trace, _ = run(f"PUSH1 0x00 CALLDATALOAD {RETURN_TOP}", data=b"\xff")
    assert returned_word(trace) == 0xFF << 248


def test_calldatasize_and_copy():
    trace, _ = run(
        f"PUSH1 0x03 PUSH1 0x01 PUSH1 0x1d CALLDATACOPY PUSH1 0x00 MLOAD {RETURN_TOP}",
        data=b"\x00\xaa\xbb\xcc",
    )
    assert returned_word(trace) == 0xAABBCC


def test_sha3_records_preimage():
    src = f"PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 SHA3 {RETURN_TOP}"
    trace, _ = run(src)
    blob = (0x2A).to_bytes(32, "big")
    digest = int.from_bytes(keccak256(blob), "big")
    assert returned_word(trace) == digest
    assert trace.sha3_preimages == {digest: blob}


def test_call_uses_injected_default_result():
    src = (
        "PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "  # ret area, args
        f"PUSH1 0x00 PUSH2 {OTHER & 0xFFFF} PUSH2 0x2328 CALL {RETURN_TOP}"
    )
    trace, _ = run(src)
    assert returned_word(trace) == 1  # default success
    assert len(trace.calls) == 1
    event = trace.calls[0]
    assert event.op == "CALL"
    assert event.to == OTHER & 0xFFFF
    assert event.gas == 0x2328
    assert event.value == 0
    assert event.success == 1
    assert event.transferred is False


def test_call_writes_injected_returndata_into_memory():
    payload = (0xBEEF).to_bytes(32, "big")
    env = EnvOverrides(call_results={OTHER: (1, payload)})
    src = (
        "PUSH1 0x20 PUSH1 0x40 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALL POP PUSH1 0x40 MLOAD {RETURN_TOP}"
    )
    trace, _ = run(src, env=env)
    assert returned_word(trace) == 0xBEEF


def test_call_failure_injection():
    env = EnvOverrides(call_results={OTHER: (0, b"")})
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x05 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALL {RETURN_TOP}"
    )
    trace, state = run(src, value=5, env=env)
    assert returned_word(trace) == 0
    assert trace.calls[0].transferred is False
    assert state.balance_of(OTHER) == 0
    assert state.balance_of(CONTRACT) == 5


def test_call_moves_value_on_success():
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x05 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALL {RETURN_TOP}"
    )
    trace, state = run(src, value=5)
    assert returned_word(trace) == 1
    assert trace.calls[0].transferred is True
    assert state.balance_of(OTHER) == 5
    assert state.balance_of(CONTRACT) == 0


def test_call_value_above_balance_pushes_zero_without_fault():
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x09 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALL {RETURN_TOP}"
    )
    trace, state = run(src, value=5)
    assert trace.terminal == "RETURN"
    assert returned_word(trace) == 0
    assert trace.calls[0].success == 0
    assert state.balance_of(OTHER) == 0


def test_callcode_keeps_value_at_home():
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x05 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALLCODE {RETURN_TOP}"
    )
    trace, state = run(src, value=5)
    assert returned_word(trace) == 1
    assert trace.calls[0].transferred is False
    assert state.balance_of(CONTRACT) == 5


def test_delegatecall_event_and_result():
    env = EnvOverrides(call_results={OTHER: (1, b"\x07" * 32)})
    src = (
        "PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
        f"PUSH20 {OTHER} PUSH2 0x2328 DELEGATECALL POP PUSH1 0x00 MLOAD {RETURN_TOP}"
    )
    trace, _ = run(src, env=env)
    assert trace.calls[0].op == "DELEGATECALL"
    assert trace.calls[0].value == 0
    assert returned_word(trace) == int.from_bytes(b"\x07" * 32, "big")


def test_returndatasize_default_and_override():
    env = EnvOverrides(call_results={OTHER: (1, b"\x01\x02\x03\x04\x05")})
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
        f"PUSH20 {OTHER} PUSH2 0x2328 CALL POP RETURNDATASIZE {RETURN_TOP}"
    )
    trace, _ = run(src, env=env)
    assert returned_word(trace) == 5
    env.returndata_sizes[OTHER] = 99
    trace, _ = run(src, env=env)
    assert returned_word(trace) == 99


def test_returndatasize_is_zero_before_any_call():
    trace, _ = run(f"RETURNDATASIZE {RETURN_TOP}")
    assert returned_word(trace) == 0


def test_extcodesize_injection():
    src = f"PUSH20 {OTHER} EXTCODESIZE {RETURN_TOP}"
    trace, _ = run(src)
    assert returned_word(trace) == 0
    trace, _ = run(src, env=EnvOverrides(extcode_sizes={OTHER: 1234}))
    assert returned_word(trace) == 1234


def test_timestamp_and_number_injection():
    env = EnvOverrides(timestamp=123456, block_number=777)
    trace, _ = run(f"TIMESTAMP {RETURN_TOP}", env=env)
    assert returned_word(trace) == 123456
    trace, _ = run(f"NUMBER {RETURN_TOP}", env=env)
    assert returned_word(trace) == 777


def test_create_is_shallow_and_deterministic():
    src = (
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x05 CREATE "
        "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE "
        f"XOR {RETURN_TOP}"
    )
    trace, state = run(src, value=5)
    first, second = trace.calls
    assert first.op == second.op == "CREATE"
    assert first.to != second.to
    assert state.balance_of(first.to) == 5
    assert state.code[first.to] == b""
    # no child execution happened: every record belongs to depth zero
    assert all(r.depth == 0 for r in trace.records)

    _, state2 = run(src, value=5)
    assert state2.code.keys() == state.code.keys()

    # a value above the balance: nothing is created and the event says so
    trace, _ = run(f"PUSH1 0x00 PUSH1 0x00 PUSH1 0x06 CREATE {RETURN_TOP}", value=5)
    [failed] = trace.calls
    assert (failed.op, failed.to, failed.value) == ("CREATE", 0, 6)
    assert (failed.success, failed.transferred) == (0, False)
    assert returned_word(trace) == 0


def test_selfdestruct_sweeps_balance_and_removes_code():
    _, state = run("STOP", value=9)
    snap = state.snapshot()
    state.code[CONTRACT] = assemble(f"PUSH20 {OTHER} SELFDESTRUCT")
    tx = Transaction(ACCOUNTS.attackers[0], CONTRACT, 0, 8_000_000, b"")
    trace = Interpreter().execute(state, tx)
    assert trace.terminal == "SELFDESTRUCT"
    assert trace.state_delta_applied is True
    assert CONTRACT not in state.code
    assert state.balance_of(OTHER) == 9
    assert trace.calls[-1].op == "SELFDESTRUCT"
    assert trace.calls[-1].value == 9
    state.restore(snap)
    assert state.code[CONTRACT] is not None
    assert state.balance_of(CONTRACT) == 9


def test_memory_cap_fault():
    trace, _ = run("PUSH4 0x01000001 MLOAD STOP")
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is True


def test_msize_rounds_to_words():
    trace, _ = run(f"PUSH1 0x07 PUSH1 0x00 MSTORE8 MSIZE {RETURN_TOP}")
    assert returned_word(trace) == 32


def test_gas_opcode_reports_remaining_budget():
    trace, _ = run(f"GAS {RETURN_TOP}", gas=1000)
    # GAS is the first instruction; one unit was spent on it already
    assert returned_word(trace) == 999


def test_balance_and_address_opcodes():
    trace, _ = run(f"ADDRESS BALANCE {RETURN_TOP}", value=3)
    assert returned_word(trace) == 3
    trace, _ = run(f"CALLER {RETURN_TOP}", sender=ACCOUNTS.attackers[1])
    assert returned_word(trace) == ACCOUNTS.attackers[1]
    trace, _ = run(f"ORIGIN {RETURN_TOP}", sender=ACCOUNTS.attackers[1])
    assert returned_word(trace) == ACCOUNTS.attackers[1]


def test_trace_jsonl_round_trips():
    trace, _ = run("PUSH1 0x01 PUSH1 0x02 ADD STOP")
    lines = list(trace.jsonl())
    assert len(lines) == len(trace.records)
    decoded = json.loads(lines[2])
    assert decoded == {
        "op": "ADD",
        "pc": 4,
        "stack": ["0x1", "0x2"],
        "depth": 0,
        "error": False,
    }


def test_deploy_installs_runtime_code():
    runtime = assemble("CALLVALUE PUSH1 0x00 SSTORE STOP")
    state = EmulatedState()
    address, trace = Interpreter().deploy(state, creation_wrapper(runtime), ACCOUNTS.deployer)
    assert trace.terminal == "RETURN"
    assert state.code[address] == runtime


def test_deploy_reads_appended_constructor_args():
    creation = assemble(
        """
        PUSH1 0x20 PUSH @code_end PUSH1 0x00 CODECOPY
        PUSH1 0x00 MLOAD PUSH1 0x00 SSTORE
        PUSH @rt_end-@rt DUP1 PUSH @rt PUSH1 0x00 CODECOPY
        PUSH1 0x00 RETURN
        rt: JUMPDEST STOP
        rt_end:
        """
    )
    state = EmulatedState()
    args = (0xABCDEF).to_bytes(32, "big")
    address, _ = Interpreter().deploy(
        state, creation, ACCOUNTS.deployer, constructor_args=args
    )
    assert state.sload(address, 0) == 0xABCDEF
    assert state.code[address] == b"\x5b\x00"


def test_deploy_reverting_constructor_raises_and_leaves_state():
    creation = assemble("PUSH1 0x01 PUSH1 0x00 SSTORE PUSH1 0x00 PUSH1 0x00 REVERT")
    state = EmulatedState()
    with pytest.raises(DeployError):
        Interpreter().deploy(state, creation, ACCOUNTS.deployer, value=5)
    assert state.storage == {}
    assert state.balance_of(ACCOUNTS.deployer) == INITIAL_BALANCE
    assert state.code == {}


def test_deploy_addresses_are_stable_across_fresh_states():
    runtime = assemble("STOP")
    addr1, _ = Interpreter().deploy(EmulatedState(), creation_wrapper(runtime), ACCOUNTS.deployer)
    addr2, _ = Interpreter().deploy(EmulatedState(), creation_wrapper(runtime), ACCOUNTS.deployer)
    assert addr1 == addr2


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(bigint_ref.OPS)),
    words=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**256 - 1),
            st.sampled_from([0, 1, 2, 31, 32, 255, 256, 2**255 - 1, 2**255, 2**256 - 1]),
        ),
        min_size=3,
        max_size=3,
    ),
)
def test_word_ops_agree_with_reference(name, words):
    func, arity = bigint_ref.OPS[name]
    operands = words[:arity]  # pop order: first operand is top of stack
    program = b""
    for word in reversed(operands):
        program += b"\x7f" + word.to_bytes(32, "big")
    program += bytes([NAME_TO_CODE[name]])
    program += assemble(RETURN_TOP)
    trace, _ = run(program)
    assert trace.terminal == "RETURN", name
    assert returned_word(trace) == func(*operands), (name, operands)


def test_wall_cap_halts_endless_loops():
    state = EmulatedState()
    state.code[CONTRACT] = assemble(
        "PUSH1 0x01 PUSH1 0x00 SSTORE loop: JUMPDEST PUSH @loop JUMP"
    )
    tx = Transaction(
        sender=ACCOUNTS.benign, to=CONTRACT, value=0, gas_limit=8_000_000, data=b""
    )
    trace = Interpreter(wall_cap=0.02).execute(state, tx, EnvOverrides())
    assert trace.terminal == "TIMEOUT"
    assert trace.state_delta_applied is False
    assert state.storage == {}
    assert trace.gas_used < 8_000_000


def test_wall_cap_leaves_fast_programs_alone():
    state = EmulatedState()
    state.code[CONTRACT] = assemble("PUSH1 0x2a PUSH1 0x00 SSTORE STOP")
    tx = Transaction(
        sender=ACCOUNTS.benign, to=CONTRACT, value=0, gas_limit=8_000_000, data=b""
    )
    trace = Interpreter(wall_cap=1.0).execute(state, tx, EnvOverrides())
    assert trace.terminal == "STOP"
    assert state.storage == {(CONTRACT, 0): 0x2A}
