"""Recovering storage-layout identities from executed traces.

Solidity addresses a mapping entry as keccak(key . slot), a dynamic-array
element as keccak(slot) + index, and nests these recursively.  The
interpreter records every SHA3 preimage it hashes, so the raw 256-bit
storage key of an SLOAD/SSTORE can be decomposed back into (declared slot,
access path) without source code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..evm import ExecutionTrace

# Array/struct offsets beyond this are treated as unrelated keys, not
# elements; storage layouts never put this many words in one object.
MAX_ELEMENT_OFFSET = 1 << 16
# Raw keys below this are declared slots; real hash values are never small.
MAX_STATIC_SLOT = 1 << 32


@dataclass(frozen=True)
class SlotKey:
    base: int  # declared slot number (or raw key when unresolved)
    path: tuple = ()  # (("map", key) | ("arr", index) | ("off", delta), ...)
    raw: int = 0
    resolved: bool = True

    def identity(self) -> tuple:
        if not self.resolved:
            return ("raw", self.raw)
        return (self.base, self.path)


@dataclass(frozen=True)
class StorageAccess:
    kind: str  # "read" | "write"
    key: SlotKey
    record_index: int
    pc: int
    value: int | None  # written value for writes, None for reads


def resolve_key(raw: int, preimages: dict[int, bytes]) -> SlotKey:
    return _resolve(raw, preimages, depth=0)


def _resolve(raw: int, preimages: dict[int, bytes], depth: int) -> SlotKey:
    if depth > 8:
        return SlotKey(base=raw, raw=raw, resolved=False)
    blob = preimages.get(raw)
    if blob is not None:
        if len(blob) == 64:
            mapping_key = int.from_bytes(blob[:32], "big")
            parent = _resolve(int.from_bytes(blob[32:], "big"), preimages, depth + 1)
            return SlotKey(
                base=parent.base,
                path=parent.path + (("map", mapping_key),),
                raw=raw,
                resolved=parent.resolved,
            )
        if len(blob) == 32:
            parent = _resolve(int.from_bytes(blob, "big"), preimages, depth + 1)
            return SlotKey(
                base=parent.base,
                path=parent.path + (("arr", 0),),
                raw=raw,
                resolved=parent.resolved,
            )
        return SlotKey(base=raw, raw=raw, resolved=False)
    if raw < MAX_STATIC_SLOT:
        return SlotKey(base=raw, raw=raw, resolved=True)
    # not a hash itself: maybe hash + element offset (array index, struct field)
    for digest in preimages:
        delta = raw - digest
        if 0 < delta < MAX_ELEMENT_OFFSET:
            parent = _resolve(digest, preimages, depth + 1)
            if not parent.resolved:
                continue
            if parent.path and parent.path[-1][0] == "arr":
                bumped = parent.path[:-1] + (("arr", parent.path[-1][1] + delta),)
                return SlotKey(parent.base, bumped, raw, True)
            return SlotKey(parent.base, parent.path + (("off", delta),), raw, True)
    return SlotKey(base=raw, raw=raw, resolved=False)


def slot_identity(trace: ExecutionTrace, raw: int) -> tuple:
    """The slot identity of a raw storage key of ``trace``, resolved against
    its preimages at most once per trace (memoized in ``trace.facts``)."""
    identities = trace.facts.identities
    identity = identities.get(raw)
    if identity is None:
        identity = identities[raw] = resolve_key(raw, trace.sha3_preimages).identity()
    return identity


def extract_storage_accesses(trace: ExecutionTrace) -> list[StorageAccess]:
    out = []
    preimages = trace.sha3_preimages
    for index, record in enumerate(trace.records):
        if record.op == "SLOAD" and record.stack:
            key = resolve_key(record.stack[-1], preimages)
            out.append(StorageAccess("read", key, index, record.pc, None))
        elif record.op == "SSTORE" and len(record.stack) >= 2:
            key = resolve_key(record.stack[-1], preimages)
            out.append(StorageAccess("write", key, index, record.pc, record.stack[-2]))
    return out


def read_set(trace: ExecutionTrace) -> frozenset:
    return frozenset(slot_identity(trace, raw) for raw in trace.facts.read_keys)


def write_set(trace: ExecutionTrace) -> frozenset:
    """Slots written by a trace; meaningful only for applied traces."""
    return frozenset(slot_identity(trace, raw) for raw in trace.facts.write_keys)
