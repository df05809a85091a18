"""The opcode table is the one source of stack effects and word semantics:
the interpreter and the taint walker must agree with it for every opcode."""

import inspect

import pytest

from evmfuzz.analysis import TaintTracker, expr
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
