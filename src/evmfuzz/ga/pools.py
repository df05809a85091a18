"""Mutation value pools: small circular buffers of promising field values.

Solver models and seed constants land here; mutation drains them round-robin.
Values that provably caused a revert get purged.  One buffer per (kind, key),
where the key is the function selector for transaction fields, (selector,
argument index) for arguments, and the callee address for injected call
results and code sizes.
"""

from __future__ import annotations

from typing import Iterator

POOL_CAPACITY = 10

KINDS = (
    "sender",
    "amount",
    "gas_limit",
    "argument",
    "timestamp",
    "block_number",
    "call_result",
    "calldata_size",
    "extcode_size",
)


class CircularBuffer:
    """Fixed-capacity buffer: newest value first, picks rotate round-robin."""

    def __init__(self, capacity: int = POOL_CAPACITY) -> None:
        self.capacity = capacity
        self._items: list = []
        self._cursor = 0

    def insert(self, value) -> None:
        if value in self._items:
            self._items.remove(value)
        self._items.insert(0, value)
        if len(self._items) > self.capacity:
            self._items.pop()
        self._cursor = 0  # a fresh value should be the next thing tried

    def pick(self):
        if not self._items:
            return None
        value = self._items[self._cursor % len(self._items)]
        self._cursor += 1
        return value

    def purge(self, value) -> None:
        self._items = [item for item in self._items if item != value]
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)


class MutationPools:
    def __init__(self) -> None:
        self._buffers: dict[tuple[str, object], CircularBuffer] = {}

    def _buffer(self, kind: str, key) -> CircularBuffer:
        if kind not in KINDS:
            raise KeyError(f"unknown pool kind {kind!r}")
        return self._buffers.setdefault((kind, key), CircularBuffer())

    def insert(self, kind: str, key, value) -> None:
        self._buffer(kind, key).insert(value)

    def pick(self, kind: str, key):
        buf = self._buffers.get((kind, key))
        if buf is None:
            return None
        return buf.pick()

    def pick_amount(self, selector: bytes):
        """Amount pools start life holding the two canonical wei values."""
        buf = self._buffer("amount", selector)
        if len(buf) == 0:
            buf.insert(1)
            buf.insert(0)
        return buf.pick()

    def purge(self, kind: str, key, value) -> None:
        buf = self._buffers.get((kind, key))
        if buf is not None:
            buf.purge(value)
