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

from .keccak import keccak256

WORD = 32


class AbiError(ValueError):
    pass


def _count(text: str) -> int:
    """``text`` as a decimal count; 0 for anything else, and for more digits
    than any size or dimension bound allows."""
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 9 else 0


@dataclass(frozen=True)
class AbiType:
    kind: str  # uint | int | address | bool | fbytes | bytes | string | array
    bits: int = 0  # uint/int width; fbytes byte size
    elem: "AbiType | None" = None
    length: int = -1  # array length, -1 when dynamic

    @classmethod
    def parse(cls, text: str) -> "AbiType":
        text = text.strip()
        if text.endswith("]") and "[" in text:
            open_idx = text.rindex("[")
            dim = text[open_idx + 1:-1]
            elem = cls.parse(text[:open_idx])
            if dim == "":
                return cls("array", elem=elem, length=-1)
            length = _count(dim)
            if not length:
                raise AbiError(f"bad array dimension in {text!r}")
            # every draw builds each element, so a static array is bounded
            # by the words its elements take (one for a dynamic element)
            if length * elem.head_words() > MAX_STATIC_WORDS:
                raise AbiError(f"{text!r} spans more than {MAX_STATIC_WORDS} words")
            return cls("array", elem=elem, length=length)
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
                bits = 256 if rest == "" else _count(rest)
                if bits % 8 or not 8 <= bits <= 256:
                    raise AbiError(f"bad integer width {text!r}")
                return cls(kind, bits=bits)
        if text.startswith("bytes"):
            rest = text[5:]
            size = _count(rest)
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

    def argument_at(self, word: int) -> int | None:
        """The position of the argument whose head holds head word ``word``
        (counted from the first word after the selector); None past the
        head."""
        end = 0
        for position, abi_type in enumerate(self.inputs):
            end += abi_type.head_words()
            if word < end:
                return position
        return None


@dataclass
class ContractAbi:
    functions: list[FunctionSpec] = field(default_factory=list)
    constructor_inputs: tuple[AbiType, ...] = ()
    has_fallback: bool = False
    fallback_payable: bool = False


def function_signature(name: str, inputs: tuple[AbiType, ...]) -> str:
    return f"{name}({','.join(t.canonical() for t in inputs)})"


def function_selector(signature: str) -> bytes:
    return keccak256(signature.encode("ascii"))[:4]


def _is_payable(entry: dict) -> bool:
    if "stateMutability" in entry:
        return entry["stateMutability"] == "payable"
    return bool(entry.get("payable", False))


def _inputs(entry: dict) -> tuple[AbiType, ...]:
    inputs = entry.get("inputs", [])
    if not (isinstance(inputs, list) and all(isinstance(arg, dict) for arg in inputs)
            and all(isinstance(arg.get("type"), str) for arg in inputs)):
        raise AbiError(f"inputs must be a list of objects with a string type: {inputs!r}")
    return tuple(AbiType.parse(arg["type"]) for arg in inputs)


def parse_abi(source: str | list) -> ContractAbi:
    entries = json.loads(source) if isinstance(source, str) else source
    if not isinstance(entries, list):
        raise AbiError("ABI must be a JSON array")
    abi = ContractAbi()
    for entry in entries:
        if not isinstance(entry, dict):
            raise AbiError(f"ABI entry {entry!r} is not an object")
        etype = entry.get("type", "function")
        if etype == "function":
            inputs, name = _inputs(entry), entry.get("name")
            if not isinstance(name, str) or not name.isascii():
                raise AbiError(f"function without an ASCII name: {entry!r}")
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
            abi.constructor_inputs = _inputs(entry)
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
# generation

EDGE_PROBABILITY = 0.5
MAX_DYNAMIC_BYTES = 64
MAX_ARRAY_LENGTH = 4  # elements of a drawn dynamic array
MAX_STATIC_WORDS = 1024  # words of a static array type, checked when parsed


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
