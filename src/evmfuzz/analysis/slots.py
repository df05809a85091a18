"""Recovering storage-layout identities from executed traces.

Solidity addresses a mapping entry as keccak(key . slot), a dynamic-array
element as keccak(slot) + index, and nests these recursively.  The
interpreter records every SHA3 preimage it hashes, so the raw 256-bit
storage key of an SLOAD/SSTORE can be decomposed back into (declared slot,
access path) without source code.
"""

from __future__ import annotations

from ..evm import ExecutionTrace

# Array/struct offsets beyond this are treated as unrelated keys, not
# elements; storage layouts never put this many words in one object.
MAX_ELEMENT_OFFSET = 1 << 16
# Raw keys below this are declared slots; real hash values are never small.
MAX_STATIC_SLOT = 1 << 32


def resolve_key(raw: int, preimages: dict[int, bytes]) -> tuple:
    """The identity of a raw storage key: ``(declared slot, path)``, the path
    a tuple of ``("map", key)``, ``("arr", index)`` and ``("off", delta)``
    steps, or ``("raw", raw)`` when the key does not decompose."""
    return _resolve(raw, preimages, depth=0)


def _resolve(raw: int, preimages: dict[int, bytes], depth: int) -> tuple:
    unresolved = ("raw", raw)
    if depth > 8:
        return unresolved
    blob = preimages.get(raw)
    if blob is not None:
        if len(blob) == 64:
            step = ("map", int.from_bytes(blob[:32], "big"))
        elif len(blob) == 32:
            step = ("arr", 0)
        else:
            return unresolved
        parent = _resolve(int.from_bytes(blob[-32:], "big"), preimages, depth + 1)
        if parent[0] == "raw":
            return unresolved
        return parent[0], parent[1] + (step,)
    if raw < MAX_STATIC_SLOT:
        return raw, ()
    # not a hash itself: maybe hash + element offset (array index, struct field)
    for digest in preimages:
        delta = raw - digest
        if 0 < delta < MAX_ELEMENT_OFFSET:
            parent = _resolve(digest, preimages, depth + 1)
            if parent[0] == "raw":
                continue
            base, path = parent
            if path and path[-1][0] == "arr":
                return base, path[:-1] + (("arr", path[-1][1] + delta),)
            return base, path + (("off", delta),)
    return unresolved


def slot_identity(trace: ExecutionTrace, raw: int) -> tuple:
    """The slot identity of a raw storage key of ``trace``, resolved against
    its preimages at most once per trace (memoized in ``trace.facts``)."""
    identities = trace.facts.identities
    identity = identities.get(raw)
    if identity is None:
        identity = identities[raw] = resolve_key(raw, trace.sha3_preimages)
    return identity


def read_set(trace: ExecutionTrace) -> frozenset:
    """Slots read by a trace, computed once per trace."""
    facts = trace.facts
    if facts.reads is None:
        facts.reads = frozenset(slot_identity(trace, raw) for raw in facts.read_keys)
    return facts.reads


def write_set(trace: ExecutionTrace) -> frozenset:
    """Slots written by a trace, computed once per trace; meaningful only for
    applied traces."""
    facts = trace.facts
    if facts.writes is None:
        facts.writes = frozenset(slot_identity(trace, raw) for raw in facts.write_keys)
    return facts.writes
