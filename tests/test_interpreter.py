import dataclasses
import gc
import json
import time
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import taint, taint_individual
from evmfuzz.asm import assemble, creation_wrapper
from evmfuzz.detectors import DetectorSuite
from evmfuzz.evm import (
    AccountSet,
    DeployError,
    EmulatedState,
    EnvOverrides,
    Interpreter,
    Transaction,
)
from evmfuzz.evm import interpreter as interpreter_module
from evmfuzz.evm.interpreter import (
    KECCAK_MEMO_BYTES,
    KECCAK_MEMO_ENTRIES,
    ExecutionTrace,
    TraceFacts,
    TraceRecord,
    child_address,
)
from evmfuzz.evm import opcodes
from evmfuzz.evm.opcodes import NAME_TO_CODE, WORD_OPS
from evmfuzz.evm.state import INITIAL_BALANCE
from evmfuzz.ga import Individual, Input
from evmfuzz.keccak import keccak256

from fixtures import GUARDED_ADD, MINI_CORPUS, OWNED_PROXY, SAFE_ASSERT, TOKEN_SALE
from oracles import bigint_ref, taint_ref
from oracles.keccak_ref import keccak256_reference

ACCOUNTS = AccountSet()
CONTRACT = 0xC0DE00000000000000000000000000000000C0DE
OTHER = 0x9999000000000000000000000000000000009999


def run(source_or_code, data=b"", value=0, sender=ACCOUNTS.benign,
        gas=8_000_000, env=None, state=None, interpreter=None):
    if state is None:
        state = EmulatedState()
    code = assemble(source_or_code) if isinstance(source_or_code, str) else source_or_code
    state.code[CONTRACT] = code
    tx = Transaction(sender=sender, to=CONTRACT, value=value, gas_limit=gas, data=data)
    trace = (interpreter or Interpreter()).execute(state, tx, env or EnvOverrides())
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
    assert len(trace.ops) == 50
    assert state.storage == {}


def test_revert_rolls_back_storage_and_balances():
    src = "PUSH1 0x2a PUSH1 0x00 SSTORE PUSH1 0x00 PUSH1 0x00 REVERT"
    trace, state = run(src, value=7)
    assert trace.terminal == "REVERT"
    assert trace.state_delta_applied is False
    assert state.storage == {}
    assert state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE
    assert state.balance_of(CONTRACT) == 0


def test_stop_applies_storage_and_balances():
    trace, state = run("PUSH1 0x2a PUSH1 0x00 SSTORE STOP", value=7)
    assert trace.state_delta_applied is True
    assert state.sload(CONTRACT, 0) == 0x2A
    assert state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE - 7
    assert state.balance_of(CONTRACT) == 7


def test_balances_accumulate_only_applied_value():
    _, state = run("STOP", value=5)
    state.code[CONTRACT] = assemble("PUSH1 0x00 PUSH1 0x00 REVERT")
    tx = Transaction(ACCOUNTS.benign, CONTRACT, 9, 8_000_000, b"")
    Interpreter().execute(state, tx)
    state.code[CONTRACT] = assemble("STOP")
    tx = Transaction(ACCOUNTS.benign, CONTRACT, 7, 8_000_000, b"")
    Interpreter().execute(state, tx)
    assert state.balance_of(CONTRACT) == 12
    assert state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE - 12


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


def test_a_faulted_trace_flags_its_last_record_only():
    trace, _ = run("PUSH1 0x01 PUSH1 0x02 ADD POP POP")  # the second POP underflows
    assert (trace.terminal, trace.faulted) == ("INVALID", True)
    assert len(trace.records) == len(trace.ops) == 6
    assert [r.error for r in trace.records] == [False] * 5 + [True]
    assert list(trace.jsonl()) == [
        '{"op": "PUSH1", "pc": 0, "stack": [], "depth": 0, "error": false}',
        '{"op": "PUSH1", "pc": 2, "stack": ["0x1"], "depth": 0, "error": false}',
        '{"op": "ADD", "pc": 4, "stack": ["0x1", "0x2"], "depth": 0, "error": false}',
        '{"op": "POP", "pc": 5, "stack": ["0x3"], "depth": 0, "error": false}',
        '{"op": "POP", "pc": 6, "stack": [], "depth": 0, "error": false}',
        '{"op": "INVALID", "pc": 6, "stack": [], "depth": 0, "error": true}',
    ]


def test_records_are_built_only_when_read(monkeypatch):
    built = []

    def counting_record(*args):
        built.append(args)
        return TraceRecord(*args)

    monkeypatch.setattr(interpreter_module, "TraceRecord", counting_record)
    trace, _ = run("PUSH1 0x01 PUSH1 0x02 ADD POP STOP")
    assert len(trace.records) == 5
    assert built == []
    assert trace.records[-1] == TraceRecord("STOP", 6, (), False)
    assert len(built) == 1


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
        Interpreter().deploy(state, creation, ACCOUNTS.deployer)
    assert state.storage == {}
    assert state.balance_of(ACCOUNTS.deployer) == INITIAL_BALANCE
    assert state.code == {}
    # the deployer's nonce moved past the address, as a deployment's does
    assert state.nonces == {ACCOUNTS.deployer: 1}


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
    assert len(trace.ops) < 8_000_000
    # the clock is read before every 4096th step, and that check records nothing
    assert len(trace.ops) % 4096 == 0 and len(trace.ops) > 0


@pytest.mark.parametrize("gas", [1, 4095, 4096, 4097, 5000, 8192])
def test_gas_limit_binds_between_clock_checks(gas):
    trace, _ = run(
        "loop: JUMPDEST PUSH @loop JUMP", gas=gas, interpreter=Interpreter(wall_cap=60.0)
    )
    assert trace.terminal == "OUT_OF_GAS"
    assert len(trace.ops) == gas


def test_wall_cap_cuts_a_long_sha3_short():
    # one SHA3 over 1 MiB hashes for seconds inside a single instruction
    accounts = AccountSet()
    state = EmulatedState(accounts)
    code = assemble("PUSH1 0x01 PUSH1 0x00 SSTORE PUSH3 0x100000 PUSH1 0x00 SHA3 STOP")
    state.code[CONTRACT] = code
    inp = Input(fn=None, sender=accounts.benign)
    started = time.monotonic()
    trace = Interpreter(wall_cap=0.05).execute(state, inp.transaction(CONTRACT), inp.env)
    assert time.monotonic() - started < 0.5
    assert trace.terminal == "TIMEOUT"
    assert trace.state_delta_applied is False
    assert state.storage == {}
    assert trace.ops[-1] == "SHA3" and not trace.sha3_preimages
    # the analyses take the cut trace like any other
    reports = taint_individual([inp], [trace])
    assert trace.facts.write_keys == {0}
    DetectorSuite(accounts, CONTRACT, code).inspect(Individual([inp]), [trace], reports)


@pytest.mark.parametrize("region", [
    "PUSH3 0xFFFFE0 PUSH1 0x00 PUSH1 0x20 CODECOPY",
    "PUSH3 0xFFFFE0 PUSH1 0x00 PUSH1 0x20 CALLDATACOPY",
    "PUSH3 0xFFFFE0 PUSH1 0x20 LOG0",
    "PUSH3 0xFFFFE0 PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH2 0x9999 PUSH1 0x00 STATICCALL POP",
    "PUSH1 0x00 PUSH1 0x00 PUSH3 0xFFFFE0 PUSH1 0x20 PUSH2 0x9999 PUSH1 0x00 STATICCALL POP",
    "PUSH3 0xFFFFE0 PUSH1 0x20 PUSH1 0x00 CREATE POP",
], ids=["CODECOPY", "CALLDATACOPY", "LOG0", "STATICCALL-out", "STATICCALL-in", "CREATE"])
def test_wall_cap_cuts_a_loop_over_a_large_region_short(region):
    # each step reads or copies a region that ends at the memory cap, some
    # milliseconds, so the steps between two clock checkpoints take seconds
    accounts = AccountSet()
    state = EmulatedState(accounts)
    code = assemble(f"PUSH1 0x01 PUSH1 0x00 SSTORE loop: JUMPDEST {region} PUSH @loop JUMP")
    state.code[CONTRACT] = code
    inp = Input(fn=None, sender=accounts.benign)
    started = time.monotonic()
    trace = Interpreter(wall_cap=0.05).execute(state, inp.transaction(CONTRACT), inp.env)
    assert time.monotonic() - started < 0.05 + 0.5
    assert trace.terminal == "TIMEOUT"
    assert trace.state_delta_applied is False
    assert state.storage == {}
    assert not trace.faulted  # so every step cost one gas
    # the step the clock cut short may be a call or create with no CallEvent;
    # the analyses take the cut trace like any other
    reports = taint_individual([inp], [trace])
    assert reports == taint_ref.taint_individual([inp], [trace])
    assert len(reports[0].calls) == len(trace.calls)
    assert trace.facts.write_keys == {0}
    DetectorSuite(accounts, CONTRACT, code).inspect(Individual([inp]), [trace], reports)


def test_wall_cap_leaves_fast_programs_alone():
    state = EmulatedState()
    state.code[CONTRACT] = assemble("PUSH1 0x2a PUSH1 0x00 SSTORE STOP")
    tx = Transaction(
        sender=ACCOUNTS.benign, to=CONTRACT, value=0, gas_limit=8_000_000, data=b""
    )
    trace = Interpreter(wall_cap=1.0).execute(state, tx, EnvOverrides())
    assert trace.terminal == "STOP"
    assert state.storage == {(CONTRACT, 0): 0x2A}


# ---------------------------------------------------------------------------
# what one interpreter remembers across transactions


def test_jump_destinations_follow_the_code_not_the_address():
    interpreter = Interpreter()
    state = EmulatedState()
    valid = bytes.fromhex("600456fe5b00")  # PUSH1 4 JUMP INVALID JUMPDEST STOP
    invalid = bytes.fromhex("600456fe0000")  # the same, with STOP at pc 4
    for code, terminal in [(valid, "STOP"), (invalid, "INVALID"), (valid, "STOP")]:
        trace, _ = run(code, state=state, interpreter=interpreter)
        assert trace.terminal == terminal
        assert trace.records[-1].error is (terminal == "INVALID")


def test_jumpdest_byte_inside_push_data_is_no_destination():
    trace, _ = run(bytes.fromhex("600456605b00"))  # PUSH1 4 JUMP PUSH1 0x5b STOP
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is True
    assert [r.op for r in trace.records[:-1]] == ["PUSH1", "JUMP"]


def test_push_cut_off_by_the_end_of_code_pads_right():
    trace, _ = run(bytes.fromhex("6101"))  # PUSH2 with a single immediate byte
    assert trace.terminal == "STOP"
    assert trace.records[-1].pc == 3
    assert trace.records[-1].stack == (0x0100,)
    _, program = interpreter_module._decode(bytes.fromhex("6101"))
    assert program[0] == ("push", "PUSH2", 0, (0x0100, 3))
    # a PUSH32 in the last byte runs 32 bytes past the end into the STOP pad
    trace, _ = run(b"\x7f")
    assert [(r.op, r.pc, r.stack) for r in trace.records] == [("PUSH32", 0, ()), ("STOP", 33, (0,))]


# ---------------------------------------------------------------------------
# the program each code blob is decoded into


def check_decoded(code):
    """Every instruction start decodes to what the disassembler reads there,
    and every pc from the end of the code on to the implicit STOP."""
    jumpdests, program = interpreter_module._decode(code)
    assert jumpdests == opcodes.valid_jumpdests(code)
    for pc, name, immediate in opcodes.disassemble(code):
        step = program[pc]
        if code[pc] not in opcodes.TABLE:
            assert step is None
            continue
        kind, mnemonic, pops, argument = step
        assert (mnemonic, pops) == (name, opcodes.TABLE[code[pc]][1])
        assert (kind == "push") is name.startswith("PUSH")
        assert (kind == "word") is (name in WORD_OPS)
        if kind == "push":
            word, next_pc = argument
            assert next_pc == pc + code[pc] - 0x5E
            # the disassembler reads a cut-off immediate short; the step pads it right
            assert word == immediate << 8 * max(0, next_pc - len(code))
        elif kind == "word":
            assert argument is WORD_OPS[name]
    assert [step[1] for step in program[len(code):]] == ["STOP"] * 33


@pytest.mark.parametrize(
    "compiled",
    [TOKEN_SALE, SAFE_ASSERT, GUARDED_ADD, OWNED_PROXY, *MINI_CORPUS.values()],
    ids=lambda compiled: compiled.name,
)
def test_fixture_code_decodes_like_the_disassembler(compiled):
    check_decoded(compiled.runtime)


@pytest.mark.parametrize("seed", range(20))
def test_random_bytes_decode_like_the_disassembler(seed):
    rng = Random(seed)
    check_decoded(rng.randbytes(rng.randrange(1, 400)))


def test_each_code_is_decoded_once_per_interpreter(monkeypatch):
    scanned = []
    original = opcodes.valid_jumpdests

    def counting(code):
        scanned.append(code)
        return original(code)

    monkeypatch.setattr(opcodes, "valid_jumpdests", counting)
    interpreter = Interpreter()
    loop = assemble("PUSH1 0x03 loop: JUMPDEST PUSH1 0x01 SWAP1 SUB DUP1 PUSH @loop JUMPI STOP")
    for attempt in range(5):  # each at its own timestamp: no outcome is reused
        trace, _ = run(loop, interpreter=interpreter, env=EnvOverrides(timestamp=attempt))
        assert trace.terminal == "STOP"
    run(b"\x00", interpreter=interpreter)
    assert scanned == [loop, b"\x00"]
    run(loop)  # another interpreter starts cold
    assert scanned == [loop, b"\x00", loop]


def test_unassigned_opcode_faults_without_a_step_of_its_own():
    trace, _ = run(bytes.fromhex("6001" "0c"))  # PUSH1 1, then the unassigned 0x0c
    assert (trace.terminal, trace.faulted, len(trace.ops)) == ("INVALID", True, 2)
    assert (trace.ops, trace.pcs, trace.stacks) == (("PUSH1", "INVALID"), (0, 2), ((), (1,)))


def test_push_past_the_stack_limit_is_synthetic_fault():
    trace, _ = run("PUSH1 0x01 " * 1025)
    assert trace.terminal == "INVALID"
    assert trace.records[-1].error is True
    assert len(trace.records[-1].stack) == 1024


HASH_CALLDATA = (
    f"CALLDATASIZE PUSH1 0x00 PUSH1 0x00 CALLDATACOPY CALLDATASIZE PUSH1 0x00 SHA3 {RETURN_TOP}"
)


@pytest.mark.parametrize("size", [0, 64, 135, 136, 300])
def test_sha3_digests_stay_exact_through_the_memo(size):
    interpreter = Interpreter()
    preimage = bytes((7 * i + size) & 0xFF for i in range(size))
    expected = int.from_bytes(keccak256_reference(preimage), "big")
    for attempt in range(2):  # the first run fills the memo, the second reads it
        env = EnvOverrides(timestamp=attempt)  # no outcome is reused
        trace, _ = run(HASH_CALLDATA, data=preimage, interpreter=interpreter, env=env)
        assert returned_word(trace) == expected
        assert trace.sha3_preimages == {expected: preimage}
    # only preimages shorter than one rate block are kept
    assert (preimage in interpreter._digests) is (size < KECCAK_MEMO_BYTES)


def test_blockhash_goes_through_the_memo():
    interpreter = Interpreter()
    preimage = b"blockhash" + (7).to_bytes(32, "big")
    expected = int.from_bytes(keccak256_reference(preimage), "big")
    for attempt in range(2):
        trace, _ = run(f"PUSH1 0x07 BLOCKHASH {RETURN_TOP}", interpreter=interpreter,
                       env=EnvOverrides(timestamp=attempt))
        assert returned_word(trace) == expected
    assert interpreter._digests == {preimage: expected}


def test_keccak_memo_stays_within_its_bound():
    keys = KECCAK_MEMO_ENTRIES + 64
    # hash the words keys .. 1, each once
    source = f"""
        PUSH2 {keys}
        loop: JUMPDEST
        DUP1 ISZERO PUSH @done JUMPI
        DUP1 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 SHA3 POP
        PUSH1 0x01 SWAP1 SUB
        PUSH @loop JUMP
        done: JUMPDEST STOP
    """
    interpreter = Interpreter()
    first, _ = run(source, interpreter=interpreter)
    assert first.terminal == "STOP"
    assert len(first.sha3_preimages) == keys
    assert len(interpreter._digests) == KECCAK_MEMO_ENTRIES
    # the second run reads the first 4096 keys from the memo and hashes the
    # rest again; every digest must match the first run's, all computed afresh
    second, _ = run(source, interpreter=interpreter, env=EnvOverrides(timestamp=1))
    assert second is not first
    assert second.sha3_preimages == first.sha3_preimages
    assert len(interpreter._digests) == KECCAK_MEMO_ENTRIES
    hashed = list(first.sha3_preimages.items())
    for digest, preimage in hashed[::97] + hashed[-64:]:
        assert int.from_bytes(keccak256(preimage), "big") == digest


# ---------------------------------------------------------------------------
# the outcome memo and the campaign deadline

ENDLESS = "loop: JUMPDEST PUSH @loop JUMP"
# about 57 000 steps, then STOP
COUNTDOWN = "PUSH2 0x2000 loop: JUMPDEST PUSH1 0x01 SWAP1 SUB DUP1 PUSH @loop JUMPI STOP"


def run_until(source, interpreter, deadline):
    state = EmulatedState()
    state.code[CONTRACT] = assemble(source)
    tx = Transaction(sender=ACCOUNTS.benign, to=CONTRACT, value=0, gas_limit=8_000_000, data=b"")
    return interpreter.execute(state, tx, EnvOverrides(), deadline), state


@pytest.mark.parametrize("wall_cap", [None, 0, 60.0])
def test_a_spent_budget_ends_the_input_in_timeout(wall_cap):
    # a cap of 0 or None means no cap, but the deadline still binds
    started = time.monotonic()
    trace, _ = run_until(ENDLESS, Interpreter(wall_cap=wall_cap), deadline=started - 1.0)
    assert trace.terminal == "TIMEOUT" and trace.ops == ()
    assert time.monotonic() - started < 0.1


def test_the_earlier_of_cap_and_deadline_binds():
    started = time.monotonic()
    trace, _ = run_until(ENDLESS, Interpreter(wall_cap=60.0), deadline=started + 0.05)
    assert trace.terminal == "TIMEOUT"
    assert time.monotonic() - started < 0.05 + 0.5
    started = time.monotonic()
    trace, _ = run_until(ENDLESS, Interpreter(wall_cap=0.05), deadline=started + 60.0)
    assert trace.terminal == "TIMEOUT"
    assert time.monotonic() - started < 0.05 + 0.5


def test_a_timeout_is_run_again_not_reused():
    interpreter = Interpreter()
    cut, _ = run_until(COUNTDOWN, interpreter, deadline=time.monotonic() - 1.0)
    assert cut.terminal == "TIMEOUT"
    whole, _ = run_until(COUNTDOWN, interpreter, deadline=None)
    assert whole.terminal == "STOP" and whole is not cut
    # a finished run is reused, even past the deadline: it does no work
    again, _ = run_until(COUNTDOWN, interpreter, deadline=time.monotonic() - 1.0)
    assert again is whole


def ran(interpreter) -> list:
    """The traces ``interpreter`` makes by running, appended as it runs them;
    a memoized repeat runs nothing and appends nothing."""
    made = []
    shipped = interpreter._run

    def running(*args):
        outcome = shipped(*args)
        made.append(outcome[0])
        return outcome

    interpreter._run = running
    return made


def leaves(interpreter) -> list:
    """The leaves of ``interpreter``'s trie of reads."""
    found, nodes = [], list(interpreter._roots.values())
    while nodes:
        node = nodes.pop()
        if node[0] is None:
            found.append(node)
        else:
            nodes.extend(node[1].values())
    return found


def filled(order):
    """A fresh state whose contract storage holds ``order``'s words, in order."""
    state = EmulatedState()
    state.code[CONTRACT] = b"\x00"
    for slot, word in order:
        state.sstore(CONTRACT, slot, word)
    return state


def fresh(source, slots=(), **kwargs):
    """The trace and post-state snapshot of a run on a fresh interpreter."""
    trace, state = run(source, state=filled(slots), **kwargs)
    return trace, state.snapshot()


def test_a_repeat_restores_the_post_state():
    interpreter = Interpreter()
    made = ran(interpreter)
    source = "PUSH1 0x07 PUSH1 0x02 SSTORE CALLVALUE PUSH1 0x00 SSTORE STOP"
    first, first_state = run(source, value=5, interpreter=interpreter)
    second, second_state = run(source, value=5, interpreter=interpreter)
    assert second is first and len(made) == 1
    assert second_state.snapshot() == first_state.snapshot()
    assert second_state.storage == {(CONTRACT, 2): 7, (CONTRACT, 0): 5}
    assert second_state.balance_of(CONTRACT) == 5
    assert second_state.balance_of(ACCOUNTS.benign) == INITIAL_BALANCE - 5
    # the run never loads slot 1, so a pre-state that differs there reuses
    # the trace, and the replayed writes leave what a fresh run leaves, in
    # the same order
    third, state = run(source, value=5, interpreter=interpreter, state=filled([(1, 1)]))
    assert third is first and len(made) == 1
    assert list(state.storage) == [(CONTRACT, 1), (CONTRACT, 2), (CONTRACT, 0)]
    assert state.snapshot() == fresh(source, [(1, 1)], value=5)[1]
    # a reverted repeat leaves the value its transaction would move
    reverting = "CALLVALUE PUSH1 0x00 SSTORE PUSH1 0x00 PUSH1 0x00 REVERT"
    before = filled([(0, 3)])
    before.code[CONTRACT] = assemble(reverting)
    before = before.snapshot()
    for _ in range(2):
        trace, state = run(reverting, value=5, interpreter=interpreter, state=filled([(0, 3)]))
        assert trace.terminal == "REVERT" and state.snapshot() == before
    assert len(made) == 2


def test_a_snapshot_is_a_hashable_key_that_restore_keeps_in_order():
    state = filled([(2, 5), (1, 7)])
    snap = state.snapshot()
    assert hash(snap) == hash(filled([(2, 5), (1, 7)]).snapshot())
    assert filled([(2, 5), (1, 7)]).snapshot() == snap
    # equal contents held in another order make another key
    assert filled([(1, 7), (2, 5)]).storage == state.storage
    assert filled([(1, 7), (2, 5)]).snapshot() != snap
    # later writes leave the snapshot alone; restoring it keeps its order
    state.sstore(CONTRACT, 3, 1)
    state.credit(CONTRACT, 4)
    state.restore(snap)
    assert state.snapshot() == snap
    assert list(state.storage) == [(CONTRACT, 2), (CONTRACT, 1)]
    fresh = EmulatedState(AccountSet(benign=OTHER))
    fresh.restore(snap)
    assert fresh.snapshot() == snap


COUNTED_LOOP = """
    PUSH1 0x00 CALLDATALOAD
    loop: JUMPDEST DUP1 ISZERO PUSH @done JUMPI
    PUSH1 0x01 SWAP1 SUB PUSH @loop JUMP
    done: JUMPDEST STOP
"""


@pytest.mark.parametrize("entries, steps", [(3, 1 << 16), (128, 200)])
def test_a_full_outcome_memo_keeps_its_bounds(entries, steps, monkeypatch):
    monkeypatch.setattr(interpreter_module, "OUTCOME_MEMO_ENTRIES", entries)
    monkeypatch.setattr(interpreter_module, "OUTCOME_MEMO_STEPS", steps)
    interpreter = Interpreter()
    traces = {}
    for count in [*range(12), *range(12)]:
        data = count.to_bytes(32, "big")
        trace, _ = run(COUNTED_LOOP, data=data, interpreter=interpreter)
        held = leaves(interpreter)
        assert 0 < len(held) == interpreter._leaves <= entries
        assert sum(len(leaf[1].ops) for leaf in held) == interpreter._steps <= steps
        assert trace == fresh(COUNTED_LOOP, data=data)[0]
        traces.setdefault(count, []).append(trace)
    # the oldest outcome was emptied out and ran again; the newest is reused
    assert traces[0][1] is not traces[0][0]
    again, _ = run(COUNTED_LOOP, data=(11).to_bytes(32, "big"), interpreter=interpreter)
    assert again is traces[11][1]


def test_an_outcome_longer_than_the_memo_holds_is_not_stored(monkeypatch):
    monkeypatch.setattr(interpreter_module, "OUTCOME_MEMO_STEPS", 20)
    interpreter = Interpreter()
    made = ran(interpreter)
    for count in (3, 3, 1, 1):  # 39 steps, then 19
        run(COUNTED_LOOP, data=count.to_bytes(32, "big"), interpreter=interpreter)
    assert len(made) == 3 and [len(leaf[1].ops) for leaf in leaves(interpreter)] == [19]


# ---------------------------------------------------------------------------
# what a run reads keys its outcome

LOADS_SLOT_ONE = f"PUSH1 0x01 SLOAD {RETURN_TOP}"


def test_a_changed_slot_misses_only_when_the_run_loaded_it():
    interpreter = Interpreter()
    made = ran(interpreter)
    first, _ = run(LOADS_SLOT_ONE, state=filled([(1, 7), (2, 1)]), interpreter=interpreter)
    # slot 2 is never loaded: a change there reuses the trace
    again, state = run(LOADS_SLOT_ONE, state=filled([(1, 7), (2, 5)]), interpreter=interpreter)
    assert again is first and len(made) == 1
    assert state.snapshot() == fresh(LOADS_SLOT_ONE, [(1, 7), (2, 5)])[1]
    # slot 1 is: a change there runs again and loads the new word
    other, _ = run(LOADS_SLOT_ONE, state=filled([(1, 8), (2, 1)]), interpreter=interpreter)
    assert len(made) == 2 and (returned_word(first), returned_word(other)) == (7, 8)
    assert other == fresh(LOADS_SLOT_ONE, [(1, 8), (2, 1)])[0]


def test_a_load_after_the_runs_own_store_is_not_a_read():
    source = f"PUSH1 0x09 PUSH1 0x01 SSTORE PUSH1 0x01 SLOAD {RETURN_TOP}"
    interpreter = Interpreter()
    made = ran(interpreter)
    first, _ = run(source, interpreter=interpreter)
    # slot 1 held 3 before, which the run overwrites before it loads it
    again, state = run(source, state=filled([(2, 4), (1, 3)]), interpreter=interpreter)
    assert again is first and len(made) == 1 and returned_word(again) == 9
    assert list(state.storage.items()) == [((CONTRACT, 2), 4), ((CONTRACT, 1), 9)]
    assert state.snapshot() == fresh(source, [(2, 4), (1, 3)])[1]


def test_a_gas_read_keys_on_the_gas_cap():
    source = f"GAS {RETURN_TOP}"
    interpreter = Interpreter()
    made = ran(interpreter)
    first, _ = run(source, gas=1000, interpreter=interpreter)
    assert run(source, gas=1000, interpreter=interpreter)[0] is first and len(made) == 1
    other, _ = run(source, gas=2000, interpreter=interpreter)
    assert len(made) == 2 and (returned_word(first), returned_word(other)) == (999, 1999)
    # a cap above the budget is the budget
    assert run(source, gas=9_000_000, interpreter=interpreter)[0] is run(
        source, gas=8_000_000, interpreter=interpreter)[0]
    assert len(made) == 3


def test_an_out_of_gas_run_is_reused_only_at_its_own_cap():
    data = (3).to_bytes(32, "big")  # 39 steps to STOP
    interpreter = Interpreter()
    made = ran(interpreter)
    for gas, runs in ((20, 1), (20, 1), (21, 2), (20, 2), (8_000_000, 3), (21, 4)):
        trace, state = run(COUNTED_LOOP, data=data, gas=gas, interpreter=interpreter)
        assert len(made) == runs, gas
        assert (trace, state.snapshot()) == fresh(COUNTED_LOOP, data=data, gas=gas)
        assert trace.terminal == ("STOP" if gas > 39 else "OUT_OF_GAS")


def test_a_stored_run_is_not_reused_under_a_cap_below_its_step_count():
    data = (3).to_bytes(32, "big")
    interpreter = Interpreter()
    made = ran(interpreter)
    whole, _ = run(COUNTED_LOOP, data=data, gas=100, interpreter=interpreter)
    assert whole.terminal == "STOP" and len(whole.ops) == 39
    # it reads no gas, so it holds under every cap from its 39 steps up
    assert run(COUNTED_LOOP, data=data, gas=39, interpreter=interpreter)[0] is whole
    assert len(made) == 1
    cut, _ = run(COUNTED_LOOP, data=data, gas=38, interpreter=interpreter)
    assert cut.terminal == "OUT_OF_GAS" and len(made) == 2
    assert cut == fresh(COUNTED_LOOP, data=data, gas=38)[0]
    # a run that ends on an unassigned opcode needs a cap past that step too
    unassigned = assemble("PUSH1 0x00 POP") + b"\xef"
    for gas, runs in ((3, 3), (3, 3), (2, 4)):
        trace, _ = run(unassigned, gas=gas, interpreter=interpreter)
        assert len(made) == runs and trace == fresh(unassigned, gas=gas)[0]
        assert trace.terminal == ("INVALID" if gas == 3 else "OUT_OF_GAS")


PAYS_OTHER = (
    "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CALLVALUE "
    f"PUSH20 {OTHER} PUSH2 0x2328 CALL STOP"
)


def test_a_call_that_carries_value_reads_the_balance_the_run_started_with():
    interpreter = Interpreter()
    made = ran(interpreter)

    def pay(value, balance):
        # the contract holds ``balance`` and the transaction brings ``value``,
        # which the call passes on twice: the second payment fails when the
        # contract started with less than the value
        def funded():
            state = EmulatedState()
            state.credit(CONTRACT, balance)
            return state

        source = PAYS_OTHER.removesuffix(" STOP") + " POP " + PAYS_OTHER
        trace, state = run(source, value=value, state=funded(), interpreter=interpreter)
        again, reference = run(source, value=value, state=funded())
        assert (trace, state.snapshot()) == (again, reference.snapshot())
        return trace

    first = pay(5, 5)
    assert [event.transferred for event in first.calls] == [True, True]
    assert pay(5, 5) is first and len(made) == 1
    # started with 4: the run reads the balance before it pays, so it misses
    short = pay(5, 4)
    assert [event.transferred for event in short.calls] == [True, False] and len(made) == 2
    # the balances are read as the run started (value brought in), not as
    # the first payment left them
    assert pay(5, 4) is short and pay(5, 5) is first and len(made) == 2
    # with no value to pass on, no balance is read
    free = pay(0, 1)
    assert pay(0, 2) is free and len(made) == 3
    # a balance first read after the run paid into it is noted as it was
    # when the run started: OTHER held 0, then 5
    source = f"{PAYS_OTHER.removesuffix(' STOP')} POP PUSH20 {OTHER} BALANCE {RETURN_TOP}"
    for held, runs in ((0, 4), (5, 5), (0, 5)):
        state = EmulatedState()
        state.credit(OTHER, held)
        trace, _ = run(source, value=5, state=state, interpreter=interpreter)
        assert returned_word(trace) == held + 5 and len(made) == runs


@pytest.mark.parametrize("source, runs", [
    # each round moves the creator's nonce, so each one reads another
    ("PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE STOP", 3),
    # each round sweeps the 2 its transaction brings
    (f"PUSH20 {OTHER} SELFDESTRUCT", 1),
], ids=["CREATE", "SELFDESTRUCT"])
def test_a_create_or_selfdestruct_run_is_stored_and_reused(source, runs):
    interpreter = Interpreter()
    made = ran(interpreter)
    state = EmulatedState()
    reference = EmulatedState()
    for _ in range(3):
        trace, state = run(source, value=2, state=state, interpreter=interpreter)
        again, reference = run(source, value=2, state=reference)
        assert trace == again and state.snapshot() == reference.snapshot()
    assert len(made) == len(leaves(interpreter)) == runs
    # a repeat from a fresh state reads what the first round read
    first = made[0]
    assert run(source, value=2, interpreter=interpreter)[0] is first and len(made) == runs

    # one from a nonce and a balance that no round started with does not
    def moved():
        state = EmulatedState()
        for _ in range(3):
            state.bump_nonce(CONTRACT)
        state.credit(CONTRACT, 1)
        return state

    trace, state = run(source, value=2, state=moved(), interpreter=interpreter)
    again, reference = run(source, value=2, state=moved())
    assert (trace, state.snapshot()) == (again, reference.snapshot())
    assert len(made) == runs + 1


@pytest.mark.parametrize("source, codes", [
    # two creates, the first paying 3 to its child, around two stores
    ("PUSH1 0x01 PUSH1 0x02 SSTORE PUSH1 0x00 PUSH1 0x00 PUSH1 0x03 CREATE "
     "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE SSTORE STOP", 3),
    # two stores, then a sweep of the 9 the contract holds
    (f"PUSH1 0x01 PUSH1 0x02 SSTORE PUSH1 0x01 PUSH1 0x03 SSTORE PUSH20 {OTHER} SELFDESTRUCT",
     0),
], ids=["CREATE", "SELFDESTRUCT"])
def test_a_create_or_selfdestruct_outcome_equals_a_fresh_run(source, codes):
    def funded():
        state = EmulatedState()
        state.credit(CONTRACT, 7)
        return state

    interpreter = Interpreter()
    for _ in range(2):  # the second execution repeats the first's reads
        trace, state = run(source, value=2, state=funded(), interpreter=interpreter)
        again, reference = run(source, value=2, state=funded())
        assert trace == again and trace.facts == again.facts
        # a snapshot holds each map's items in order
        assert state.snapshot() == reference.snapshot()
    assert trace.state_delta_applied and len(state.code) == codes


def test_a_create_reads_whether_its_new_account_has_code():
    source = "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE STOP"
    interpreter = Interpreter()
    made = ran(interpreter)
    for held, runs in ((None, 1), (b"\x01", 2), (None, 2), (b"\x01", 2)):
        def prepared():
            state = EmulatedState()
            if held is not None:  # kept: a create over code leaves it be
                state.set_code(child_address(CONTRACT, 0), held)
            return state

        trace, state = run(source, state=prepared(), interpreter=interpreter)
        again, reference = run(source, state=prepared())
        assert (trace, state.snapshot()) == (again, reference.snapshot())
        assert len(made) == runs


def test_a_balance_read_of_one_sender_keys_a_run_of_another():
    # the transaction's own transfer is no logged write, and it moves the
    # balance this run reads only when the reader sent it
    source = f"PUSH20 {ACCOUNTS.benign} BALANCE {RETURN_TOP}"
    interpreter = Interpreter()
    for sender in (ACCOUNTS.benign, ACCOUNTS.attackers[0], ACCOUNTS.benign):
        trace, state = run(source, value=5, sender=sender, interpreter=interpreter)
        again, reference = run(source, value=5, sender=sender)
        assert (trace, state.snapshot()) == (again, reference.snapshot())
        assert returned_word(trace) == INITIAL_BALANCE - 5 * (sender == ACCOUNTS.benign)


# ---------------------------------------------------------------------------
# runs with equal reads share one trace

# reads its calldata alone: never the gas left, the sender or a call result
ECHO = f"PUSH1 0x00 CALLDATALOAD {RETURN_TOP}"
# copies what OTHER returns to memory, where nothing reads it back
CALL_AND_DROP = (
    "PUSH1 0x20 PUSH1 0x40 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 "
    f"PUSH20 {OTHER} PUSH2 0x2328 CALL POP STOP"
)


def test_runs_that_differ_in_what_the_code_never_reads_share_one_trace(monkeypatch):
    interpreter = Interpreter()
    made = ran(interpreter)
    data = (7).to_bytes(32, "big")
    first, _ = run(ECHO, data=data, interpreter=interpreter)
    by_gas, _ = run(ECHO, data=data, gas=100_000, interpreter=interpreter)
    by_callee, _ = run(ECHO, data=data, interpreter=interpreter,
                       env=EnvOverrides(call_results={OTHER: (0, b"\x01")}))
    by_sender, _ = run(ECHO, data=data, sender=ACCOUNTS.attackers[0], interpreter=interpreter,
                       env=EnvOverrides(timestamp=1, block_number=2))
    # the first ran; the others read what it read and got its trace
    assert made == [first] and by_gas is first and by_callee is first and by_sender is first
    walks = []
    shipped = taint._Walker.walk
    monkeypatch.setattr(taint._Walker, "walk", lambda walker: walks.append(shipped(walker)))
    inp = Input(fn=None, sender=ACCOUNTS.benign, raw_calldata=data)
    reports = [taint_individual([inp], [trace]) for trace in (first, by_gas, by_callee)]
    assert len(walks) == 1 and reports[0] == reports[1] == reports[2]


def test_injected_return_data_that_nothing_reads_still_tells_traces_apart():
    interpreter = Interpreter()
    first, second, again = [
        run(CALL_AND_DROP, gas=gas, interpreter=interpreter,
            env=EnvOverrides(call_results={OTHER: (1, payload)}))[0]
        for payload, gas in ((b"\x01" * 32, 8_000_000), (b"\x02" * 32, 8_000_000),
                             (b"\x01" * 32, 9_000))
    ]
    assert second is not first and again is first
    assert (first.ops, first.stacks) == (second.ops, second.stacks)
    assert [event.return_data for event in first.calls + second.calls] == [
        b"\x01" * 32, b"\x02" * 32
    ]


@pytest.mark.parametrize("source, changed, unread", [
    (f"CALLER {RETURN_TOP}", {"sender": ACCOUNTS.attackers[0]},
     {"env": EnvOverrides(timestamp=7)}),
    (f"ORIGIN {RETURN_TOP}", {"sender": ACCOUNTS.attackers[0]},
     {"env": EnvOverrides(block_number=7)}),
    (f"TIMESTAMP {RETURN_TOP}", {"env": EnvOverrides(timestamp=7)},
     {"sender": ACCOUNTS.attackers[0]}),
    (f"NUMBER {RETURN_TOP}", {"env": EnvOverrides(block_number=7)},
     {"env": EnvOverrides(timestamp=7)}),
    (f"PUSH20 {OTHER} EXTCODESIZE {RETURN_TOP}", {"env": EnvOverrides(extcode_sizes={OTHER: 7})},
     {"env": EnvOverrides(extcode_sizes={CONTRACT: 9})}),
    # calls OTHER, then reads the size of what the last callee returned
    (f"{CALL_AND_DROP.removesuffix(' STOP')} RETURNDATASIZE {RETURN_TOP}",
     {"env": EnvOverrides(returndata_sizes={OTHER: 7})},
     {"env": EnvOverrides(returndata_sizes={CONTRACT: 9})}),
], ids=["CALLER", "ORIGIN", "TIMESTAMP", "NUMBER", "EXTCODESIZE", "RETURNDATASIZE"])
def test_an_input_keys_only_the_runs_that_read_it(source, changed, unread):
    interpreter = Interpreter()
    made = ran(interpreter)
    first, _ = run(source, interpreter=interpreter)
    assert run(source, interpreter=interpreter, **unread)[0] is first and len(made) == 1
    other, _ = run(source, interpreter=interpreter, **changed)
    assert len(made) == 2 and other != first and other == fresh(source, **changed)[0]
    assert run(source, interpreter=interpreter, **changed)[0] is other and len(made) == 2


def changed(value):
    """A value of the same type as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (tuple, str, bytes)):
        return value[:-1]
    if isinstance(value, dict):
        return {**value, -1: b""}
    return value + 1


def test_every_field_a_reader_sees_is_in_the_content_key():
    # the content two traces are told apart by is every field but the facts
    compared = {f.name for f in dataclasses.fields(ExecutionTrace) if f.compare}
    assert compared == {f.name for f in dataclasses.fields(ExecutionTrace) if f.init} - {"facts"}
    # a trace with a call, a preimage and return data: no field is empty
    interpreter = Interpreter()
    source = f"PUSH1 0x20 PUSH1 0x00 SHA3 {CALL_AND_DROP.removesuffix(' STOP')} {RETURN_TOP}"
    held, _ = run(source, data=b"\x05", interpreter=interpreter)
    assert all(getattr(held, name) for name in compared if name != "faulted")
    assert [leaf[1] for leaf in leaves(interpreter)] == [held]
    # a trace differing in any one compared field is another trace
    for name in compared:
        other = dataclasses.replace(held, **{name: changed(getattr(held, name))})
        assert other != held, name
    assert dataclasses.replace(held, facts=TraceFacts()) == held
    # the facts of equal runs compare equal, the caches aside
    caches = {f.name for f in dataclasses.fields(TraceFacts) if not f.compare}
    assert caches == {"identities", "reads", "writes", "merged_by", "observed_by"}
    made = ran(interpreter)
    again, _ = run(source, data=b"\x05", gas=9_000, interpreter=interpreter)
    assert again is held and made == []
    twin = fresh(source, data=b"\x05")[0]
    held.facts.identities[0] = (0, ())
    assert twin == held and twin.facts == held.facts


def test_a_held_trace_leaves_the_collectors_lists():
    # the collector stops tracking a tuple of atoms once it has seen one,
    # and a tuple of such tuples at its next collection, so a memo full of
    # traces and writes adds nothing to each collection's scan
    interpreter = Interpreter()
    source = f"PUSH1 0x07 PUSH1 0x00 SSTORE {COUNTED_LOOP}"
    held, _ = run(source, data=(3).to_bytes(32, "big"), interpreter=interpreter)
    [(_, stored, writes, _)] = leaves(interpreter)
    assert stored is held and held.facts.jumpis and all(held.stacks[4:]) and writes
    for _ in range(3):  # the writes nest three deep
        gc.collect()
    for name, column in [("ops", held.ops), ("pcs", held.pcs), ("stacks", held.stacks),
                         ("jumpis", held.facts.jumpis), ("writes", writes)]:
        assert not gc.is_tracked(column), name
