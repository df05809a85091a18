"""What an opcode is: its name, its stack effect and its word semantics.

This module is the one source of these facts.  The interpreter executes word
operations through ``WORD_OPS``, the symbolic terms of ``analysis.expr``
evaluate through the same functions, and the taint walker takes every stack
effect it does not model itself from ``TABLE``.  Bytecode scanning helpers
live here too.
"""

from __future__ import annotations

from typing import Callable

WORD = 1 << 256
MASK = WORD - 1
SIGN = 1 << 255

# code -> (mnemonic, stack items consumed, stack items produced)
TABLE: dict[int, tuple[str, int, int]] = {
    0x00: ("STOP", 0, 0),
    0x01: ("ADD", 2, 1),
    0x02: ("MUL", 2, 1),
    0x03: ("SUB", 2, 1),
    0x04: ("DIV", 2, 1),
    0x05: ("SDIV", 2, 1),
    0x06: ("MOD", 2, 1),
    0x07: ("SMOD", 2, 1),
    0x08: ("ADDMOD", 3, 1),
    0x09: ("MULMOD", 3, 1),
    0x0A: ("EXP", 2, 1),
    0x0B: ("SIGNEXTEND", 2, 1),
    0x10: ("LT", 2, 1),
    0x11: ("GT", 2, 1),
    0x12: ("SLT", 2, 1),
    0x13: ("SGT", 2, 1),
    0x14: ("EQ", 2, 1),
    0x15: ("ISZERO", 1, 1),
    0x16: ("AND", 2, 1),
    0x17: ("OR", 2, 1),
    0x18: ("XOR", 2, 1),
    0x19: ("NOT", 1, 1),
    0x1A: ("BYTE", 2, 1),
    0x1B: ("SHL", 2, 1),
    0x1C: ("SHR", 2, 1),
    0x1D: ("SAR", 2, 1),
    0x20: ("SHA3", 2, 1),
    0x30: ("ADDRESS", 0, 1),
    0x31: ("BALANCE", 1, 1),
    0x32: ("ORIGIN", 0, 1),
    0x33: ("CALLER", 0, 1),
    0x34: ("CALLVALUE", 0, 1),
    0x35: ("CALLDATALOAD", 1, 1),
    0x36: ("CALLDATASIZE", 0, 1),
    0x37: ("CALLDATACOPY", 3, 0),
    0x38: ("CODESIZE", 0, 1),
    0x39: ("CODECOPY", 3, 0),
    0x3A: ("GASPRICE", 0, 1),
    0x3B: ("EXTCODESIZE", 1, 1),
    0x3D: ("RETURNDATASIZE", 0, 1),
    0x3E: ("RETURNDATACOPY", 3, 0),
    0x40: ("BLOCKHASH", 1, 1),
    0x41: ("COINBASE", 0, 1),
    0x42: ("TIMESTAMP", 0, 1),
    0x43: ("NUMBER", 0, 1),
    0x44: ("DIFFICULTY", 0, 1),
    0x45: ("GASLIMIT", 0, 1),
    0x50: ("POP", 1, 0),
    0x51: ("MLOAD", 1, 1),
    0x52: ("MSTORE", 2, 0),
    0x53: ("MSTORE8", 2, 0),
    0x54: ("SLOAD", 1, 1),
    0x55: ("SSTORE", 2, 0),
    0x56: ("JUMP", 1, 0),
    0x57: ("JUMPI", 2, 0),
    0x58: ("PC", 0, 1),
    0x59: ("MSIZE", 0, 1),
    0x5A: ("GAS", 0, 1),
    0x5B: ("JUMPDEST", 0, 0),
    0xF0: ("CREATE", 3, 1),
    0xF1: ("CALL", 7, 1),
    0xF2: ("CALLCODE", 7, 1),
    0xF3: ("RETURN", 2, 0),
    0xF4: ("DELEGATECALL", 6, 1),
    0xFA: ("STATICCALL", 6, 1),
    0xFD: ("REVERT", 2, 0),
    0xFE: ("INVALID", 0, 0),
    0xFF: ("SELFDESTRUCT", 1, 0),
}

for _n in range(32):
    TABLE[0x60 + _n] = (f"PUSH{_n + 1}", 0, 1)
for _n in range(16):
    TABLE[0x80 + _n] = (f"DUP{_n + 1}", _n + 1, _n + 2)
    TABLE[0x90 + _n] = (f"SWAP{_n + 1}", _n + 2, _n + 2)
for _n in range(5):
    TABLE[0xA0 + _n] = (f"LOG{_n}", _n + 2, 0)

NAME_TO_CODE: dict[str, int] = {name: code for code, (name, _, _) in TABLE.items()}

CALL_OPS = {"CALL", "CALLCODE", "DELEGATECALL", "STATICCALL"}
SEND_OPS = {"CREATE", "CALL", "CALLCODE", "DELEGATECALL", "SELFDESTRUCT"}


def signed(x: int) -> int:
    """A 256-bit word read as two's complement."""
    return x - WORD if x & SIGN else x


def _sdiv(a: int, b: int) -> int:
    sa, sb = signed(a), signed(b)
    if sb == 0:
        return 0
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & MASK


def _smod(a: int, b: int) -> int:
    sa, sb = signed(a), signed(b)
    if sb == 0:
        return 0
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) & MASK


def _signextend(k: int, x: int) -> int:
    if k > 31:
        return x
    bit = 8 * k + 7
    if x & (1 << bit):
        return x | (MASK ^ ((1 << (bit + 1)) - 1))
    return x & ((1 << (bit + 1)) - 1)


def _sar(shift: int, v: int) -> int:
    sv = signed(v)
    if shift >= 256:
        return MASK if sv < 0 else 0
    return (sv >> shift) & MASK


# Mnemonic -> function of the popped operands (top of stack first) returning
# the pushed word, always within 0..MASK.  Arity equals the op's pops.
WORD_OPS: dict[str, Callable[..., int]] = {
    "ADD": lambda a, b: (a + b) & MASK,
    "MUL": lambda a, b: (a * b) & MASK,
    "SUB": lambda a, b: (a - b) & MASK,
    "DIV": lambda a, b: a // b if b else 0,
    "SDIV": _sdiv,
    "MOD": lambda a, b: a % b if b else 0,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: (a + b) % n if n else 0,
    "MULMOD": lambda a, b, n: (a * b) % n if n else 0,
    "EXP": lambda a, b: pow(a, b, WORD),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(signed(a) < signed(b)),
    "SGT": lambda a, b: int(signed(a) > signed(b)),
    "EQ": lambda a, b: int(a == b),
    "ISZERO": lambda a: int(a == 0),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: MASK ^ a,
    "BYTE": lambda i, x: (x >> (8 * (31 - i))) & 0xFF if i < 32 else 0,
    "SHL": lambda s, v: (v << s) & MASK if s < 256 else 0,
    "SHR": lambda s, v: v >> s if s < 256 else 0,
    "SAR": _sar,
}


def push_width(code: int) -> int:
    """Immediate width for PUSH opcodes, 0 otherwise."""
    return code - 0x5F if 0x60 <= code <= 0x7F else 0


def instruction_starts(code: bytes) -> list[int]:
    """Byte offsets that begin an instruction (PUSH immediates skipped)."""
    starts = []
    pc = 0
    while pc < len(code):
        starts.append(pc)
        pc += 1 + push_width(code[pc])
    return starts


def valid_jumpdests(code: bytes) -> frozenset[int]:
    return frozenset(pc for pc in instruction_starts(code) if code[pc] == 0x5B)


def disassemble(code: bytes) -> list[tuple[int, str, int | None]]:
    """(pc, mnemonic, push immediate or None) per instruction."""
    out = []
    pc = 0
    while pc < len(code):
        opcode = code[pc]
        name = TABLE[opcode][0] if opcode in TABLE else f"UNKNOWN_{opcode:#04x}"
        width = push_width(opcode)
        if width:
            immediate = int.from_bytes(code[pc + 1:pc + 1 + width], "big")
            out.append((pc, name, immediate))
        else:
            out.append((pc, name, None))
        pc += 1 + width
    return out
