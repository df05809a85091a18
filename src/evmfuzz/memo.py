"""A bounded first-in-first-out memo for outcomes that hold execution traces."""

from __future__ import annotations

from collections import OrderedDict


class TraceMemo:
    """Outcomes by key, at most ``entries`` of them, holding at most ``steps``
    trace steps in all.  Storing past either bound evicts the oldest entries
    first; an outcome larger than ``steps`` on its own is not stored.

    Entries are filed under the key's hash, which the caller computes once
    for a lookup and a store; the key itself is kept beside the outcome and
    compared on lookup, so two keys with one hash only cost a miss.
    """

    __slots__ = ("_items", "entries", "steps", "held")

    def __init__(self, entries: int, steps: int) -> None:
        # popitem(last=False) evicts without rehashing the evicted key
        self._items: OrderedDict[int, tuple] = OrderedDict()
        self.entries = entries
        self.steps = steps
        self.held = 0  # the steps of the stored outcomes

    def find(self, digest: int, key: tuple):
        """The outcome stored under ``key``, whose hash is ``digest``, or None."""
        item = self._items.get(digest)
        if item is not None and item[0] == key:
            return item[2]
        return None

    def store(self, digest: int, key: tuple, outcome, steps: int) -> None:
        if self.entries <= 0 or steps > self.steps:
            return
        items = self._items
        replaced = items.pop(digest, None)  # a key with the same hash
        if replaced is not None:
            self.held -= replaced[1]
        while items and (len(items) >= self.entries or self.held + steps > self.steps):
            self.held -= items.popitem(last=False)[1][1]
        items[digest] = (key, steps, outcome)
        self.held += steps
