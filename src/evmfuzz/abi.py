"""Contract ABI handling: parsing, selectors, calldata encoding, argument
generation.

Values are represented as: int for uint/int/address/bool, bytes for bytesN
and bytes, str for string, list for arrays.
"""

from __future__ import annotations

import json
import random
import string as string_mod
from dataclasses import dataclass, field

from .evm.opcodes import signed
from .keccak import keccak256

WORD = 32


class AbiError(ValueError):
    pass


@dataclass(frozen=True)
class AbiType:
    kind: str  # uint | int | address | bool | fbytes | bytes | string | array
    bits: int = 0  # uint/int width; fbytes byte size
    elem: "AbiType | None" = None
    length: int = -1  # array length, -1 when dynamic

    @classmethod
    def parse(cls, text: str) -> "AbiType":
        text = text.strip()
        if text.endswith("]"):
            open_idx = text.rindex("[")
            dim = text[open_idx + 1:-1]
            elem = cls.parse(text[:open_idx])
            if dim == "":
                return cls("array", elem=elem, length=-1)
            if not dim.isdigit() or int(dim) == 0:
                raise AbiError(f"bad array dimension in {text!r}")
            return cls("array", elem=elem, length=int(dim))
        if text == "address":
            return cls("address")
        if text == "bool":
            return cls("bool")
        if text == "string":
            return cls("string")
        if text == "bytes":
            return cls("bytes")
        if text == "function":
            return cls("fbytes", bits=24)
        for prefix, kind in (("uint", "uint"), ("int", "int")):
            if text.startswith(prefix):
                rest = text[len(prefix):]
                bits = 256 if rest == "" else int(rest) if rest.isdigit() else 0
                if bits % 8 or not 8 <= bits <= 256:
                    raise AbiError(f"bad integer width {text!r}")
                return cls(kind, bits=bits)
        if text.startswith("bytes"):
            rest = text[5:]
            size = int(rest) if rest.isdigit() else 0
            if not 1 <= size <= 32:
                raise AbiError(f"bad fixed bytes size {text!r}")
            return cls("fbytes", bits=size)
        raise AbiError(f"unsupported type {text!r}")

    def canonical(self) -> str:
        if self.kind == "array":
            dim = "" if self.length < 0 else str(self.length)
            return f"{self.elem.canonical()}[{dim}]"
        if self.kind in ("uint", "int"):
            return f"{self.kind}{self.bits}"
        if self.kind == "fbytes":
            return f"bytes{self.bits}"
        return self.kind

    def is_dynamic(self) -> bool:
        if self.kind in ("bytes", "string"):
            return True
        if self.kind == "array":
            return self.length < 0 or self.elem.is_dynamic()
        return False

    def head_words(self) -> int:
        """Words this type occupies in the head section."""
        if self.is_dynamic():
            return 1
        if self.kind == "array":
            return self.length * self.elem.head_words()
        return 1


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    inputs: tuple[AbiType, ...]
    selector: bytes
    payable: bool
    signature: str


@dataclass
class ContractAbi:
    functions: list[FunctionSpec] = field(default_factory=list)
    constructor_inputs: tuple[AbiType, ...] = ()
    has_fallback: bool = False
    fallback_payable: bool = False

    def by_selector(self, selector: bytes) -> FunctionSpec | None:
        for fn in self.functions:
            if fn.selector == selector:
                return fn
        return None


def function_signature(name: str, inputs: tuple[AbiType, ...]) -> str:
    return f"{name}({','.join(t.canonical() for t in inputs)})"


def function_selector(signature: str) -> bytes:
    return keccak256(signature.encode("ascii"))[:4]


def _is_payable(entry: dict) -> bool:
    if "stateMutability" in entry:
        return entry["stateMutability"] == "payable"
    return bool(entry.get("payable", False))


def parse_abi(source: str | list) -> ContractAbi:
    entries = json.loads(source) if isinstance(source, str) else source
    if not isinstance(entries, list):
        raise AbiError("ABI must be a JSON array")
    abi = ContractAbi()
    for entry in entries:
        etype = entry.get("type", "function")
        if etype == "function":
            inputs = tuple(AbiType.parse(arg["type"]) for arg in entry.get("inputs", []))
            name = entry["name"]
            signature = function_signature(name, inputs)
            abi.functions.append(
                FunctionSpec(
                    name=name,
                    inputs=inputs,
                    selector=function_selector(signature),
                    payable=_is_payable(entry),
                    signature=signature,
                )
            )
        elif etype == "constructor":
            abi.constructor_inputs = tuple(
                AbiType.parse(arg["type"]) for arg in entry.get("inputs", [])
            )
        elif etype in ("fallback", "receive"):
            abi.has_fallback = True
            abi.fallback_payable = abi.fallback_payable or _is_payable(entry)
        # events and errors carry nothing the fuzzer needs
    return abi


# ---------------------------------------------------------------------------
# encoding


def _encode_word(abi_type: AbiType, value) -> bytes:
    kind = abi_type.kind
    if kind == "uint":
        value = int(value)
        if not 0 <= value < (1 << abi_type.bits):
            raise AbiError(f"uint{abi_type.bits} out of range: {value}")
        return value.to_bytes(WORD, "big")
    if kind == "int":
        value = int(value)
        bound = 1 << (abi_type.bits - 1)
        if not -bound <= value < bound:
            raise AbiError(f"int{abi_type.bits} out of range: {value}")
        return (value % (1 << 256)).to_bytes(WORD, "big")
    if kind == "address":
        value = int(value)
        if not 0 <= value < (1 << 160):
            raise AbiError(f"address out of range: {value:#x}")
        return value.to_bytes(WORD, "big")
    if kind == "bool":
        return int(bool(value)).to_bytes(WORD, "big")
    if kind == "fbytes":
        blob = bytes(value)
        if len(blob) != abi_type.bits:
            raise AbiError(f"bytes{abi_type.bits} expects exactly {abi_type.bits} bytes")
        return blob.ljust(WORD, b"\x00")
    raise AbiError(f"not a word type: {kind}")  # pragma: no cover


def _pad_right(blob: bytes) -> bytes:
    return blob.ljust(-len(blob) % WORD + len(blob), b"\x00")


def encode_arguments(types: tuple[AbiType, ...] | list[AbiType], values: list) -> bytes:
    if len(types) != len(values):
        raise AbiError(f"expected {len(types)} values, got {len(values)}")
    head_size = sum(t.head_words() for t in types) * WORD
    head = bytearray()
    tail = bytearray()
    for abi_type, value in zip(types, values):
        if abi_type.is_dynamic():
            head += (head_size + len(tail)).to_bytes(WORD, "big")
            tail += _encode_tail(abi_type, value)
        else:
            head += _encode_static(abi_type, value)
    return bytes(head + tail)


def _encode_static(abi_type: AbiType, value) -> bytes:
    if abi_type.kind == "array":
        if len(value) != abi_type.length:
            raise AbiError(f"expected {abi_type.length} array elements")
        return b"".join(_encode_static(abi_type.elem, item) for item in value)
    return _encode_word(abi_type, value)


def _encode_tail(abi_type: AbiType, value) -> bytes:
    if abi_type.kind == "string":
        blob = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        return len(blob).to_bytes(WORD, "big") + _pad_right(blob)
    if abi_type.kind == "bytes":
        blob = bytes(value)
        return len(blob).to_bytes(WORD, "big") + _pad_right(blob)
    if abi_type.kind == "array":
        if abi_type.length < 0:
            body = encode_arguments([abi_type.elem] * len(value), list(value))
            return len(value).to_bytes(WORD, "big") + body
        return encode_arguments([abi_type.elem] * abi_type.length, list(value))
    raise AbiError(f"not a dynamic type: {abi_type.kind}")  # pragma: no cover


def encode_calldata(fn: FunctionSpec, values: list) -> bytes:
    return fn.selector + encode_arguments(fn.inputs, values)


# ---------------------------------------------------------------------------
# decoding


def decode_arguments(types: tuple[AbiType, ...] | list[AbiType], blob: bytes) -> list:
    values = []
    offset = 0
    for abi_type in types:
        if abi_type.is_dynamic():
            pointer = int.from_bytes(blob[offset:offset + WORD], "big")
            values.append(_decode_tail(abi_type, blob, pointer))
            offset += WORD
        else:
            values.append(_decode_static(abi_type, blob, offset))
            offset += abi_type.head_words() * WORD
    return values


def _decode_word(abi_type: AbiType, word: bytes):
    kind = abi_type.kind
    x = int.from_bytes(word, "big")
    if kind == "uint":
        return x
    if kind == "int":
        return signed(x)
    if kind == "address":
        return x & ((1 << 160) - 1)
    if kind == "bool":
        return x & 1
    if kind == "fbytes":
        return word[:abi_type.bits]
    raise AbiError(f"not a word type: {kind}")  # pragma: no cover


def _decode_static(abi_type: AbiType, blob: bytes, offset: int):
    if abi_type.kind == "array":
        width = abi_type.elem.head_words() * WORD
        return [
            _decode_static(abi_type.elem, blob, offset + i * width)
            for i in range(abi_type.length)
        ]
    return _decode_word(abi_type, blob[offset:offset + WORD])


def _decode_tail(abi_type: AbiType, blob: bytes, pointer: int):
    if abi_type.kind == "string":
        size = int.from_bytes(blob[pointer:pointer + WORD], "big")
        return blob[pointer + WORD:pointer + WORD + size].decode("utf-8", "replace")
    if abi_type.kind == "bytes":
        size = int.from_bytes(blob[pointer:pointer + WORD], "big")
        return blob[pointer + WORD:pointer + WORD + size]
    if abi_type.kind == "array":
        if abi_type.length < 0:
            count = int.from_bytes(blob[pointer:pointer + WORD], "big")
            return decode_arguments([abi_type.elem] * count, blob[pointer + WORD:])
        return decode_arguments([abi_type.elem] * abi_type.length, blob[pointer:])
    raise AbiError(f"not a dynamic type: {abi_type.kind}")  # pragma: no cover


# ---------------------------------------------------------------------------
# generation

EDGE_PROBABILITY = 0.5
MAX_DYNAMIC_BYTES = 64
MAX_ARRAY_LENGTH = 4


def generate_argument(
    rng: random.Random,
    abi_type: AbiType,
    addresses: tuple[int, ...] = (),
):
    """Draw one random value of the given type.

    Half the time the value comes from the type's boundary set, which is
    where arithmetic and permission bugs live; otherwise it is uniform.
    Address values always come from the known account/contract set so that
    permission checks are actually exercisable.
    """
    kind = abi_type.kind
    edge = rng.random() < EDGE_PROBABILITY
    if kind == "uint":
        top = (1 << abi_type.bits) - 1
        if edge:
            return rng.choice([0, 1, 2, top, top - 1, 1 << (abi_type.bits - 1)])
        return rng.randrange(0, top + 1)
    if kind == "int":
        bound = 1 << (abi_type.bits - 1)
        if edge:
            return rng.choice([0, 1, -1, bound - 1, -bound])
        return rng.randrange(-bound, bound)
    if kind == "address":
        pool = tuple(addresses) + (0,)
        return rng.choice(pool)
    if kind == "bool":
        return rng.randrange(2)
    if kind == "fbytes":
        if edge:
            return rng.choice([b"\x00" * abi_type.bits, b"\xff" * abi_type.bits])
        return rng.randbytes(abi_type.bits)
    if kind == "bytes":
        if edge:
            return rng.choice([b"", b"\x00" * 32])
        return rng.randbytes(rng.randrange(0, MAX_DYNAMIC_BYTES + 1))
    if kind == "string":
        if edge:
            return ""
        size = rng.randrange(0, MAX_DYNAMIC_BYTES + 1)
        return "".join(rng.choice(string_mod.ascii_letters) for _ in range(size))
    if kind == "array":
        count = abi_type.length if abi_type.length >= 0 else rng.randrange(0, MAX_ARRAY_LENGTH + 1)
        return [generate_argument(rng, abi_type.elem, addresses) for _ in range(count)]
    raise AbiError(f"cannot generate {kind}")  # pragma: no cover
