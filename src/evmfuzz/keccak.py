"""Keccak-256 (the pre-NIST padding variant used by Ethereum).

Single vendored implementation shared by hashing call sites everywhere in
the package: the SHA3 opcode, function selectors, deterministic address
derivation.  Kept dependency-free on purpose; guarded by known-answer tests
and an independent reference implementation in the test suite.

The permutation is unrolled over 25 local lane variables, with no list built
per round.  Nothing here memoizes: the interpreter keeps its own bounded memo
of short preimages per instance (see ``evm.interpreter.Interpreter``), so a
campaign never reuses digests hashed by an earlier one.
"""

from __future__ import annotations

import time

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK = (1 << 64) - 1

RATE_BYTES = 136  # 1600-bit state, 512-bit capacity for a 256-bit digest

DEADLINE_CHECK_BYTES = 256 * RATE_BYTES  # absorbed between clock reads: ~0.1 s


# The permutation is unrolled: lane (x, y) of the flat state state[x + 5*y]
# lives in the local a<x><y>, and each rotation offset is a literal below.
def _keccak_f(state: list[int]) -> None:
    (a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22,
     a32, a42, a03, a13, a23, a33, a43, a04, a14, a24, a34, a44) = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK)
        # rho + pi: lane (x, y) rotates into (y, 2x + 3y)
        b00 = a00 ^ d0
        t = a10 ^ d1
        b02 = ((t << 1) | (t >> 63)) & _MASK
        t = a20 ^ d2
        b04 = ((t << 62) | (t >> 2)) & _MASK
        t = a30 ^ d3
        b01 = ((t << 28) | (t >> 36)) & _MASK
        t = a40 ^ d4
        b03 = ((t << 27) | (t >> 37)) & _MASK
        t = a01 ^ d0
        b13 = ((t << 36) | (t >> 28)) & _MASK
        t = a11 ^ d1
        b10 = ((t << 44) | (t >> 20)) & _MASK
        t = a21 ^ d2
        b12 = ((t << 6) | (t >> 58)) & _MASK
        t = a31 ^ d3
        b14 = ((t << 55) | (t >> 9)) & _MASK
        t = a41 ^ d4
        b11 = ((t << 20) | (t >> 44)) & _MASK
        t = a02 ^ d0
        b21 = ((t << 3) | (t >> 61)) & _MASK
        t = a12 ^ d1
        b23 = ((t << 10) | (t >> 54)) & _MASK
        t = a22 ^ d2
        b20 = ((t << 43) | (t >> 21)) & _MASK
        t = a32 ^ d3
        b22 = ((t << 25) | (t >> 39)) & _MASK
        t = a42 ^ d4
        b24 = ((t << 39) | (t >> 25)) & _MASK
        t = a03 ^ d0
        b34 = ((t << 41) | (t >> 23)) & _MASK
        t = a13 ^ d1
        b31 = ((t << 45) | (t >> 19)) & _MASK
        t = a23 ^ d2
        b33 = ((t << 15) | (t >> 49)) & _MASK
        t = a33 ^ d3
        b30 = ((t << 21) | (t >> 43)) & _MASK
        t = a43 ^ d4
        b32 = ((t << 8) | (t >> 56)) & _MASK
        t = a04 ^ d0
        b42 = ((t << 18) | (t >> 46)) & _MASK
        t = a14 ^ d1
        b44 = ((t << 2) | (t >> 62)) & _MASK
        t = a24 ^ d2
        b41 = ((t << 61) | (t >> 3)) & _MASK
        t = a34 ^ d3
        b43 = ((t << 56) | (t >> 8)) & _MASK
        t = a44 ^ d4
        b40 = ((t << 14) | (t >> 50)) & _MASK
        # chi, then iota on lane (0, 0)
        a00 = b00 ^ (~b10 & b20) ^ rc
        a10 = b10 ^ (~b20 & b30)
        a20 = b20 ^ (~b30 & b40)
        a30 = b30 ^ (~b40 & b00)
        a40 = b40 ^ (~b00 & b10)
        a01 = b01 ^ (~b11 & b21)
        a11 = b11 ^ (~b21 & b31)
        a21 = b21 ^ (~b31 & b41)
        a31 = b31 ^ (~b41 & b01)
        a41 = b41 ^ (~b01 & b11)
        a02 = b02 ^ (~b12 & b22)
        a12 = b12 ^ (~b22 & b32)
        a22 = b22 ^ (~b32 & b42)
        a32 = b32 ^ (~b42 & b02)
        a42 = b42 ^ (~b02 & b12)
        a03 = b03 ^ (~b13 & b23)
        a13 = b13 ^ (~b23 & b33)
        a23 = b23 ^ (~b33 & b43)
        a33 = b33 ^ (~b43 & b03)
        a43 = b43 ^ (~b03 & b13)
        a04 = b04 ^ (~b14 & b24)
        a14 = b14 ^ (~b24 & b34)
        a24 = b24 ^ (~b34 & b44)
        a34 = b34 ^ (~b44 & b04)
        a44 = b44 ^ (~b04 & b14)
    state[:] = (a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22,
                a32, a42, a03, a13, a23, a33, a43, a04, a14, a24, a34, a44)


def _sponge(data: bytes, pad_byte: int, deadline: float | None = None) -> bytes:
    state = [0] * 25
    padded = data + bytes([pad_byte]) + b"\x00" * (RATE_BYTES - 1 - len(data) % RATE_BYTES)
    # final bit of the pad10*1 rule (merges with the domain byte in the
    # single-byte-pad case)
    padded = padded[:-1] + bytes([padded[-1] | 0x80])
    for block_start in range(0, len(padded), RATE_BYTES):
        if deadline is not None and block_start and block_start % DEADLINE_CHECK_BYTES == 0:
            if time.monotonic() > deadline:
                raise TimeoutError("hashing ran past its deadline")
        block = padded[block_start:block_start + RATE_BYTES]
        for i in range(RATE_BYTES // 8):
            state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _keccak_f(state)
    return b"".join(state[i].to_bytes(8, "little") for i in range(4))


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
