import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import evmfuzz
from evmfuzz.keccak import DEADLINE_CHECK_BYTES, _keccak_f, keccak256, sha3_256_compat

from oracles.keccak_ref import keccak256_reference, permute

MASK = 2**64 - 1

# Known-answer vectors.  The empty-input digest is the well-known hash every
# empty Ethereum account carries as its codeHash; the selectors are the
# canonical ERC-20 ones.
KAT = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"),
    (b"The quick brown fox jumps over the lazy dog",
     "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"),
]

SELECTOR_KAT = [
    ("transfer(address,uint256)", "a9059cbb"),
    ("transferFrom(address,address,uint256)", "23b872dd"),
    ("allowance(address,address)", "dd62ed3e"),
    ("approve(address,uint256)", "095ea7b3"),
    ("balanceOf(address)", "70a08231"),
    ("withdraw()", "3ccfd60b"),
]


@pytest.mark.parametrize("message,digest", KAT)
def test_known_answers(message, digest):
    assert keccak256(message).hex() == digest


@pytest.mark.parametrize("signature,selector", SELECTOR_KAT)
def test_known_selectors(signature, selector):
    assert keccak256(signature.encode())[:4].hex() == selector


@given(st.binary(max_size=600))
def test_matches_reference_implementation(message):
    assert keccak256(message) == keccak256_reference(message)


@given(st.binary(max_size=600))
def test_permutation_matches_stdlib_sha3(message):
    # identical sponge, NIST domain padding: must equal hashlib's SHA3-256
    assert sha3_256_compat(message) == hashlib.sha3_256(message).digest()


@pytest.mark.parametrize("size", [0, 1, 135, 136, 137, 271, 272, 273])
def test_rate_boundaries(size):
    message = bytes(range(256)) * 2
    message = message[:size]
    assert keccak256(message) == keccak256_reference(message)
    assert sha3_256_compat(message) == hashlib.sha3_256(message).digest()


def test_a_deadline_changes_no_digest_and_stops_long_inputs():
    message = bytes(range(256)) * (2 * DEADLINE_CHECK_BYTES // 256 + 1)  # two clock reads
    assert keccak256(message, time.monotonic() + 60) == keccak256(message)
    assert keccak256(b"abc", time.monotonic() - 1) == keccak256(b"abc")  # never read
    with pytest.raises(TimeoutError):
        keccak256(message, time.monotonic() - 1)


def _reference_permutation(state):
    lanes = [[state[x + 5 * y] for y in range(5)] for x in range(5)]
    permute(lanes)
    return [lanes[i % 5][i // 5] for i in range(25)]


# Lane complementing keeps some lanes inverted across rounds, so a slip shows
# first on lanes of all zeros, all ones or a single bit, which absorbing a
# message rarely produces.
LANES = st.one_of(st.just(0), st.just(MASK), st.integers(0, 63).map(lambda bit: 1 << bit),
                  st.integers(0, MASK))


@given(st.lists(LANES, min_size=25, max_size=25))
@example([0] * 25)
@example([MASK] * 25)
def test_permutation_matches_reference(state):
    expected = _reference_permutation(state)
    _keccak_f(state)
    assert state == expected


def test_importing_the_package_runs_no_permutation():
    script = """
import sys
from collections import Counter

calls = Counter()


def count(frame, event, arg):
    if event == "call":
        calls[frame.f_code] += 1


sys.setprofile(count)
import evmfuzz
from evmfuzz import keccak

at_import = calls[keccak._keccak_f.__code__]
keccak.keccak256(b"")
sys.setprofile(None)
print(at_import, calls[keccak._keccak_f.__code__])
"""
    src = str(Path(evmfuzz.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.split() == ["0", "1"]  # none at import; the one after shows the count works
