"""Keccak-256 (the pre-NIST padding variant used by Ethereum).

Single vendored implementation shared by hashing call sites everywhere in
the package: the SHA3 opcode, function selectors, deterministic address
derivation.  Kept dependency-free on purpose; guarded by known-answer tests
and an independent reference implementation in the test suite.

The permutation is unrolled over 25 local lane variables, with no list built
per round, and costs little beyond its arithmetic:

- A rotation is one multiply, one shift and one mask.  ``x * (2**64 + 1)``
  holds two copies of a 64-bit lane side by side, so shifting it right by
  ``64 - r`` leaves ``x`` rotated left by ``r`` in the low 64 bits.
- Lane complementing (Bertoni, Daemen, Peeters, Van Assche and Van Keer,
  "Keccak implementation overview", v3.2, section 2.2): six lanes are kept
  complemented between rounds, flipped once on entry and once on exit.  Chi
  is then written with OR where it had AND-NOT, and needs eight XORs with
  the mask per round instead of 25 NOTs, which would make negative ints.

Nothing here memoizes: the interpreter keeps its own bounded memo of short
preimages per instance (see ``evm.interpreter.Interpreter``), so a campaign
never reuses digests hashed by an earlier one.
"""

from __future__ import annotations

import time
from operator import xor
from struct import pack, unpack_from

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK = (1 << 64) - 1
_TWICE = (1 << 64) | 1  # x * _TWICE is x << 64 | x for a 64-bit x

# XOR mask of the complemented lanes (1, 0), (2, 0), (3, 1), (2, 2), (2, 3), (0, 4)
_COMPLEMENTED = (0, _MASK, _MASK, 0, 0, 0, 0, 0, _MASK, 0, 0, 0, _MASK,
                 0, 0, 0, 0, _MASK, 0, 0, _MASK, 0, 0, 0, 0)

RATE_BYTES = 136  # 1600-bit state, 512-bit capacity for a 256-bit digest

DEADLINE_CHECK_BYTES = 256 * RATE_BYTES  # absorbed between clock reads: ~0.1 s


# The permutation is unrolled: lane (x, y) of the flat state state[x + 5*y]
# lives in the local a<x><y>, and each rotation is by 64 less the literal shift.
def _keccak_f(state: list[int]) -> None:
    mask, twice = _MASK, _TWICE
    (a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22,
     a32, a42, a03, a13, a23, a33, a43, a04, a14, a24, a34, a44) = map(xor, state, _COMPLEMENTED)
    for rc in _ROUND_CONSTANTS:
        # theta (the complemented lanes leave d0 and d3 complemented)
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ ((c1 * twice >> 63) & mask)
        d1 = c0 ^ ((c2 * twice >> 63) & mask)
        d2 = c1 ^ ((c3 * twice >> 63) & mask)
        d3 = c2 ^ ((c4 * twice >> 63) & mask)
        d4 = c3 ^ ((c0 * twice >> 63) & mask)
        # rho + pi: lane (x, y) rotates into (y, 2x + 3y)
        b00 = a00 ^ d0
        b02 = ((a10 ^ d1) * twice >> 63) & mask
        b04 = ((a20 ^ d2) * twice >> 2) & mask
        b01 = ((a30 ^ d3) * twice >> 36) & mask
        b03 = ((a40 ^ d4) * twice >> 37) & mask
        b13 = ((a01 ^ d0) * twice >> 28) & mask
        b10 = ((a11 ^ d1) * twice >> 20) & mask
        b12 = ((a21 ^ d2) * twice >> 58) & mask
        b14 = ((a31 ^ d3) * twice >> 9) & mask
        b11 = ((a41 ^ d4) * twice >> 44) & mask
        b21 = ((a02 ^ d0) * twice >> 61) & mask
        b23 = ((a12 ^ d1) * twice >> 54) & mask
        b20 = ((a22 ^ d2) * twice >> 21) & mask
        b22 = ((a32 ^ d3) * twice >> 39) & mask
        b24 = ((a42 ^ d4) * twice >> 25) & mask
        b34 = ((a03 ^ d0) * twice >> 23) & mask
        b31 = ((a13 ^ d1) * twice >> 19) & mask
        b33 = ((a23 ^ d2) * twice >> 49) & mask
        b30 = ((a33 ^ d3) * twice >> 43) & mask
        b32 = ((a43 ^ d4) * twice >> 56) & mask
        b42 = ((a04 ^ d0) * twice >> 46) & mask
        b44 = ((a14 ^ d1) * twice >> 62) & mask
        b41 = ((a24 ^ d2) * twice >> 3) & mask
        b43 = ((a34 ^ d3) * twice >> 8) & mask
        b40 = ((a44 ^ d4) * twice >> 50) & mask
        # chi on complemented lanes, then iota on lane (0, 0)
        a00 = b00 ^ (b10 | b20) ^ rc
        a10 = b10 ^ ((b20 ^ mask) | b30)
        a20 = b20 ^ (b30 & b40)
        a30 = b30 ^ (b40 | b00)
        a40 = b40 ^ (b00 & b10)
        a01 = b01 ^ (b11 | b21)
        a11 = b11 ^ (b21 & b31)
        a21 = b21 ^ (b31 | (b41 ^ mask))
        a31 = b31 ^ (b41 | b01)
        a41 = b41 ^ (b01 & b11)
        a02 = b02 ^ (b12 | b22)
        a12 = b12 ^ (b22 & b32)
        a22 = b22 ^ ((b32 ^ mask) & b42)
        a32 = (b32 ^ mask) ^ (b42 | b02)
        a42 = b42 ^ (b02 & b12)
        a03 = b03 ^ (b13 & b23)
        a13 = b13 ^ (b23 | b33)
        a23 = b23 ^ ((b33 ^ mask) | b43)
        a33 = (b33 ^ mask) ^ (b43 & b03)
        a43 = b43 ^ (b03 | b13)
        a04 = b04 ^ ((b14 ^ mask) & b24)
        a14 = (b14 ^ mask) ^ (b24 | b34)
        a24 = b24 ^ (b34 & b44)
        a34 = b34 ^ (b44 | b04)
        a44 = b44 ^ (b04 & b14)
    state[:] = map(xor, (a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22,
                         a32, a42, a03, a13, a23, a33, a43, a04, a14, a24, a34, a44), _COMPLEMENTED)


def _sponge(data: bytes, pad_byte: int, deadline: float | None = None) -> bytes:
    # pad10*1: the domain byte, zeros to the block's end, and its final bit
    # (which merges with the domain byte in the single-byte-pad case)
    padded = bytearray(data) + bytes((pad_byte,)) + bytes(-(len(data) + 1) % RATE_BYTES)
    padded[-1] |= 0x80
    state = [0] * 25
    for block_start in range(0, len(padded), RATE_BYTES):
        if deadline is not None and block_start and block_start % DEADLINE_CHECK_BYTES == 0:
            if time.monotonic() > deadline:
                raise TimeoutError("hashing ran past its deadline")
        state[:17] = map(xor, state, unpack_from("<17Q", padded, block_start))
        _keccak_f(state)
    return pack("<4Q", *state[:4])


def keccak256(data: bytes, deadline: float | None = None) -> bytes:
    """32-byte Keccak-256 digest (legacy 0x01 domain padding).  Raises
    ``TimeoutError`` once ``time.monotonic()`` passes ``deadline``, read
    every ``DEADLINE_CHECK_BYTES`` absorbed; without one, nothing is read."""
    return _sponge(data, 0x01, deadline)


def sha3_256_compat(data: bytes) -> bytes:
    """Same sponge with the NIST SHA3-256 domain padding (0x06).

    Exists so the test suite can pin the permutation against hashlib.
    """
    return _sponge(data, 0x06)
