"""The opcode table is the one source of stack effects and word semantics:
the interpreter and the taint walker must agree with it for every opcode."""

import inspect

import pytest

from evmfuzz.analysis import TaintTracker, expr
from evmfuzz.asm import assemble
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter, Transaction
from evmfuzz.evm.opcodes import NAME_TO_CODE, TABLE, WORD_OPS, push_width

CONTRACT = 0xC0DE


@pytest.mark.parametrize("code", sorted(TABLE), ids=lambda code: TABLE[code][0])
def test_stack_effect_matches_the_table(code):
    name, pops, pushes = TABLE[code]
    # every operand is the pc of the JUMPDEST after the op, so jumps land and
    # sizes and offsets stay small
    dest = 2 * pops + 1 + push_width(code)
    program = bytes([0x60, dest]) * pops + bytes([code]) + bytes(push_width(code)) + b"\x5b"
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = program
    tx = Transaction(AccountSet().benign, CONTRACT, 0, 8_000_000, b"")
    trace = Interpreter().execute(state, tx, EnvOverrides())

    before = trace.records[pops]
    assert before.op == name
    if len(trace.records) == pops + 1:
        assert trace.terminal == name  # the op halts
    else:
        after = trace.records[pops + 1]
        assert not after.error, name
        assert len(after.stack) == len(before.stack) - pops + pushes
    tracker = TaintTracker()
    tracker.run_input(0, None, trace)
    assert tracker.realignments == 0


def test_expr_ops_are_the_word_table():
    assert set(expr.OPS) == {name.lower() for name in WORD_OPS}
    for name, func in WORD_OPS.items():
        pops = TABLE[NAME_TO_CODE[name]][1]
        assert len(inspect.signature(func).parameters) == pops, name
        assert expr.OPS[name.lower()] is func


RETURN_TOP = " PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN"
SENDER = AccountSet().attackers[0]
CALLEE = 0x9999
ENV_CALLDATA = bytes(range(37))
ENV_VALUE = 9
ENV_BLOCK = EnvOverrides(timestamp=1_600_000_123, block_number=7_654_321)


def run_code(source, env, data=b"", value=0):
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code = assemble(source)
    tx = Transaction(SENDER, CONTRACT, value, 8_000_000, data)
    return Interpreter().execute(state, tx, env), code


def env_words(code):
    """The word each environment op pushes, from the transaction, the code
    and the block under ENV_BLOCK; ORIGIN is the caller, since calls never
    execute code."""
    return {
        "ADDRESS": CONTRACT,
        "ORIGIN": SENDER,
        "CALLER": SENDER,
        "CALLVALUE": ENV_VALUE,
        "CALLDATASIZE": len(ENV_CALLDATA),
        "CODESIZE": len(code),
        "GASPRICE": 1_000_000_000,
        "COINBASE": 0xC0FFEE0000000000000000000000000000000001,
        "TIMESTAMP": 1_600_000_123,
        "NUMBER": 7_654_321,
        "DIFFICULTY": 2_500_000_000_000_000,
        "GASLIMIT": 8_000_000,
    }


@pytest.mark.parametrize("name", sorted(env_words(b"")))
def test_an_environment_op_pushes_its_word(name):
    trace, code = run_code(name + RETURN_TOP, ENV_BLOCK, ENV_CALLDATA, ENV_VALUE)
    assert trace.terminal == "RETURN"
    assert int.from_bytes(trace.return_data, "big") == env_words(code)[name]


def test_an_injected_block_word_is_taken_modulo_two_to_the_256():
    trace, _ = run_code("TIMESTAMP" + RETURN_TOP, EnvOverrides(timestamp=2**256 + 5))
    assert int.from_bytes(trace.return_data, "big") == 5


@pytest.mark.parametrize("name", sorted(env_words(b"")))
def test_an_environment_op_on_a_full_stack_faults(name):
    trace, _ = run_code("PUSH1 0x01" + " DUP1" * 1023 + f" {name} STOP", ENV_BLOCK)
    assert trace.faulted and trace.terminal == "INVALID"
    assert trace.ops[-2:] == (name, "INVALID")
    assert len(trace.stacks[-1]) == 1024


def call_callee(value):
    return f"PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 {value} PUSH2 {CALLEE} PUSH2 0x2328 CALL POP "


RAN = call_callee(0)
UNPAID = call_callee(5)  # more value than the contract holds: the call never runs


@pytest.mark.parametrize(
    "prefix, sizes, size",
    [
        ("", {}, 0),  # before any call
        ("", {CALLEE: 99}, 0),  # an injected size reads nothing before a call
        (RAN, {}, 3),  # the injected return data's length
        (RAN, {CALLEE: 99}, 99),  # the injected size
        (RAN, {0x7777: 99}, 3),  # another callee's size
        (UNPAID, {CALLEE: 99}, 99),  # a call that never ran: its callee's size
        (UNPAID, {}, 0),  # a call that never ran returns nothing
    ],
    ids=["before", "before-injected", "after", "after-injected", "after-other",
         "unpaid-injected", "unpaid"],
)
def test_returndatasize_reads_the_last_callee(prefix, sizes, size):
    env = EnvOverrides(call_results={CALLEE: (1, b"\x01\x02\x03")}, returndata_sizes=sizes)
    trace, _ = run_code(prefix + "RETURNDATASIZE" + RETURN_TOP, env)
    assert trace.terminal == "RETURN"
    assert int.from_bytes(trace.return_data, "big") == size
