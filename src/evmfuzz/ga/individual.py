"""Test-case representation: a short sequence of transactions plus the
environment each one runs under."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..abi import FunctionSpec, encode_calldata
from ..evm import EnvOverrides, Transaction

MAX_INPUTS = 5  # maximum transactions per individual
FALLBACK_KEY = b""  # the selector the pools file raw calldata inputs under


@dataclass
class Input:
    """One transaction: who sends what to the contract, and the world it
    executes in.

    fn is None for raw (fallback) calldata.  pool_tags remembers which field
    values were drawn from a mutation pool: the value by the (pool kind, pool
    key) bucket it came from, so failing constraints can evict exactly the
    values that caused a revert.  An input never changes once it has run:
    individuals share it, it keeps the transaction it built, and mutation and
    solved models write to copies only.  A copy carries the encoded calldata
    of the input it was copied from, and reuses those bytes only while its
    fn and args equal the ones they encode.
    """

    fn: FunctionSpec | None
    sender: int
    value: int = 0
    gas_limit: int = 8_000_000
    args: list = field(default_factory=list)
    raw_calldata: bytes = b""
    calldata_size: int | None = None
    env: EnvOverrides = field(default_factory=EnvOverrides)
    pool_tags: dict[tuple[str, object], object] = field(default_factory=dict)
    _tx: Transaction | None = field(default=None, init=False, repr=False, compare=False)
    # (fn, a private copy of args, their encoding): the last calldata encoded
    _encoded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def selector(self) -> bytes:
        return self.fn.selector if self.fn else FALLBACK_KEY

    def calldata(self) -> bytes:
        if self.fn is None:
            data = self.raw_calldata
        else:
            encoded = self._encoded
            if encoded is None or encoded[0] is not self.fn or encoded[1] != self.args:
                encoded = self._encoded = (
                    self.fn, _copy_args(self.args), encode_calldata(self.fn, self.args))
            data = encoded[2]
        if self.calldata_size is not None:
            if self.calldata_size <= len(data):
                data = data[:self.calldata_size]
            else:
                data = data.ljust(self.calldata_size, b"\x00")
        return data

    def transaction(self, to: int) -> Transaction:
        if self._tx is None or self._tx.to != to:
            self._tx = Transaction(self.sender, to, self.value, self.gas_limit, self.calldata())
        return self._tx

    def copy(self) -> "Input":
        new = object.__new__(Input)  # field by field: no dataclass __init__ round trip
        new.fn = self.fn
        new.sender = self.sender
        new.value = self.value
        new.gas_limit = self.gas_limit
        new.args = _copy_args(self.args)
        new.raw_calldata = self.raw_calldata
        new.calldata_size = self.calldata_size
        new.env = self.env.copy()
        new.pool_tags = dict(self.pool_tags)
        new._tx = None
        new._encoded = self._encoded
        return new

    def describe(self) -> dict:
        return {
            "fn": self.fn.name if self.fn else "",
            "selector": self.fn.selector.hex() if self.fn else "",
            "sender": f"{self.sender:#042x}",
            "value": self.value,
            "gas_limit": self.gas_limit,
            "args": [_jsonable(v) for v in self.args],
            "calldata": self.calldata().hex(),
            "timestamp": self.env.timestamp,
            "block_number": self.env.block_number,
            "call_results": {
                f"{addr:#x}": [success, ret.hex()]
                for addr, (success, ret) in sorted(self.env.call_results.items())
            },
            "returndata_sizes": {
                f"{addr:#x}": size for addr, size in sorted(self.env.returndata_sizes.items())
            },
            "extcode_sizes": {
                f"{addr:#x}": size for addr, size in sorted(self.env.extcode_sizes.items())
            },
        }


def _copy_args(args: list) -> list:
    return [list(a) if isinstance(a, list) else a for a in args]


def _jsonable(value):
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class Individual:
    inputs: list[Input]

    def copy(self) -> "Individual":
        return Individual([inp.copy() for inp in self.inputs])

    def fingerprint(self) -> str:
        blob = json.dumps(
            [inp.describe() for inp in self.inputs], sort_keys=True
        ).encode()
        return hashlib.sha256(blob).digest()[:6].hex()

    def describe(self) -> list[dict]:
        return [inp.describe() for inp in self.inputs]

    def __len__(self) -> int:
        return len(self.inputs)
