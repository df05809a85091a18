import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.abi import (
    AbiError,
    AbiType,
    ContractAbi,
    encode_arguments,
    encode_calldata,
    function_selector,
    function_signature,
    generate_argument,
    parse_abi,
)

from oracles.abi_ref import encode_reference


# ---------------------------------------------------------------------------
# type parsing


def test_parse_elementary_types():
    assert AbiType.parse("uint256") == AbiType("uint", bits=256)
    assert AbiType.parse("uint") == AbiType("uint", bits=256)
    assert AbiType.parse("int8") == AbiType("int", bits=8)
    assert AbiType.parse("int") == AbiType("int", bits=256)
    assert AbiType.parse("address") == AbiType("address")
    assert AbiType.parse("bool") == AbiType("bool")
    assert AbiType.parse("bytes32") == AbiType("fbytes", bits=32)
    assert AbiType.parse("bytes1") == AbiType("fbytes", bits=1)
    assert AbiType.parse("bytes") == AbiType("bytes")
    assert AbiType.parse("string") == AbiType("string")


def test_parse_arrays():
    t = AbiType.parse("uint256[]")
    assert t.kind == "array" and t.length == -1 and t.elem.bits == 256
    t = AbiType.parse("address[3]")
    assert t.kind == "array" and t.length == 3
    t = AbiType.parse("uint8[2][]")
    assert t.length == -1 and t.elem.length == 2 and t.elem.elem.bits == 8


# malformed ABI entries: not an object, a function without a (string,
# ASCII) name, an argument without a string type, inputs that are not a list,
# a static array too large to draw
BAD_ABIS = [
    '[{"type": "function", "name": "f", "inputs": [{"type": "uint8[100000000]"}]}]',
    "[1]",
    '[{"type": "function"}]',
    '[{"type": "function", "name": 5}]',
    '[{"type": "function", "name": "f\u00e9"}]',
    '[{"type": "function", "name": "f", "inputs": [{"name": "x"}]}]',
    '[{"type": "function", "name": "f", "inputs": [{"type": 8}]}]',
    '[{"type": "function", "name": "f", "inputs": [1]}]',
    '[{"type": "function", "name": "f", "inputs": {"type": "uint256"}}]',
    '[{"type": "constructor", "inputs": "uint256"}]',
]


def test_parse_rejects_junk():
    for bad in ["uint7", "uint264", "bytes0", "bytes33", "frob", "uint256[0]", "int12", "]",
                "uint\u00b2", "bytes\u00b2", "uint8[\u00b2]", "uint" + "9" * 5000]:
        with pytest.raises(AbiError):
            AbiType.parse(bad)
    for bad in BAD_ABIS:
        with pytest.raises(AbiError):
            parse_abi(bad)


def test_canonical_names():
    assert AbiType.parse("uint").canonical() == "uint256"
    assert AbiType.parse("int").canonical() == "int256"
    assert AbiType.parse("uint[2][]").canonical() == "uint256[2][]"
    assert AbiType.parse("bytes8").canonical() == "bytes8"


def test_dynamicness():
    assert AbiType.parse("bytes").is_dynamic()
    assert AbiType.parse("string").is_dynamic()
    assert AbiType.parse("uint256[]").is_dynamic()
    assert AbiType.parse("string[2]").is_dynamic()
    assert not AbiType.parse("uint256[2]").is_dynamic()
    assert not AbiType.parse("bytes32").is_dynamic()


def test_head_words_for_static_arrays():
    assert AbiType.parse("uint256[4]").head_words() == 4
    assert AbiType.parse("uint256[2][3]").head_words() == 6
    assert AbiType.parse("uint256[]").head_words() == 1


def test_a_static_array_is_bounded_by_the_words_it_spans():
    for fits in ["uint8[1024]", "uint256[32][32]", "string[1024]", "uint8[1024][]"]:
        assert AbiType.parse(fits).kind == "array"
    # a dynamic element counts one word, as it does in the head
    for bad in ["uint8[1025]", "uint256[33][32]", "string[1025]", "uint8[100000000][]",
                "uint8[100000000]", "uint8[" + "9" * 5000 + "]"]:
        with pytest.raises(AbiError, match="bad array dimension|more than 1024 words"):
            AbiType.parse(bad)


def test_argument_at_maps_head_words_to_positions():
    fn = parse_abi(json.dumps([{"type": "function", "name": "f", "inputs": [
        {"name": "a", "type": "uint256[2][2]"}, {"name": "b", "type": "bytes"},
        {"name": "c", "type": "address"},
    ]}])).functions[0]
    assert [fn.argument_at(word) for word in range(7)] == [0, 0, 0, 0, 1, 2, None]


# ---------------------------------------------------------------------------
# selectors


def test_selector_canonicalizes_aliases():
    assert function_selector("transfer(address,uint256)") == bytes.fromhex("a9059cbb")
    abi = parse_abi(json.dumps([
        {"type": "function", "name": "transfer",
         "inputs": [{"name": "to", "type": "address"}, {"name": "v", "type": "uint"}]},
    ]))
    assert abi.functions[0].signature == "transfer(address,uint256)"
    assert abi.functions[0].selector == bytes.fromhex("a9059cbb")


def test_parse_abi_fields():
    abi = parse_abi(json.dumps([
        {"type": "constructor", "inputs": [{"name": "x", "type": "uint256"}],
         "stateMutability": "nonpayable"},
        {"type": "function", "name": "buy", "inputs": [], "payable": True},
        {"type": "function", "name": "rate", "inputs": [],
         "stateMutability": "view"},
        {"type": "fallback", "stateMutability": "payable"},
        {"type": "event", "name": "Bought", "inputs": []},
    ]))
    assert [fn.name for fn in abi.functions] == ["buy", "rate"]
    assert abi.functions[0].payable is True
    assert abi.functions[1].payable is False
    assert abi.constructor_inputs == (AbiType("uint", bits=256),)
    assert abi.has_fallback and abi.fallback_payable


# ---------------------------------------------------------------------------
# encoding


def word(x: int) -> bytes:
    return x.to_bytes(32, "big")


def test_encode_single_uint():
    types = (AbiType.parse("uint256"),)
    assert encode_arguments(types, [0x123]) == word(0x123)


def test_encode_negative_int_sign_extends():
    types = (AbiType.parse("int8"),)
    assert encode_arguments(types, [-1]) == b"\xff" * 32


def test_encode_fixed_bytes_left_aligned():
    types = (AbiType.parse("bytes4"),)
    assert encode_arguments(types, [b"\xde\xad\xbe\xef"]) == b"\xde\xad\xbe\xef" + b"\x00" * 28


def test_encode_mixed_static_and_dynamic_layout():
    # f(uint256, uint32[], bytes10, bytes) with the classic documentation values
    types = tuple(AbiType.parse(t) for t in ["uint256", "uint32[]", "bytes10", "bytes"])
    values = [0x123, [0x456, 0x789], b"1234567890", b"Hello, world!"]
    blob = encode_arguments(types, values)
    expected = b"".join([
        word(0x123),
        word(0x80),            # offset of uint32[] tail: 4 head words
        b"1234567890".ljust(32, b"\x00"),
        word(0xE0),            # offset of bytes tail: head + 3 tail words
        word(2), word(0x456), word(0x789),
        word(13), b"Hello, world!".ljust(32, b"\x00"),
    ])
    assert blob == expected
    assert blob == encode_reference(["uint256", "uint32[]", "bytes10", "bytes"], values)


def test_encode_static_array_is_inline():
    types = (AbiType.parse("uint256[3]"), AbiType.parse("uint256"))
    blob = encode_arguments(types, [[1, 2, 3], 9])
    assert blob == word(1) + word(2) + word(3) + word(9)


def test_encode_nested_dynamic_arrays():
    types = (AbiType.parse("uint256[][]"),)
    values = [[[1], [2, 3]]]
    blob = encode_arguments(types, values)
    assert blob == encode_reference(["uint256[][]"], values)


def test_encode_calldata_prepends_selector():
    abi = parse_abi(json.dumps([
        {"type": "function", "name": "transfer",
         "inputs": [{"type": "address"}, {"type": "uint256"}]},
    ]))
    data = encode_calldata(abi.functions[0], [0xAA, 7])
    assert data[:4] == bytes.fromhex("a9059cbb")
    assert data[4:] == word(0xAA) + word(7)


def test_encode_range_checks():
    with pytest.raises(AbiError):
        encode_arguments((AbiType.parse("uint8"),), [256])
    with pytest.raises(AbiError):
        encode_arguments((AbiType.parse("int8"),), [128])
    with pytest.raises(AbiError):
        encode_arguments((AbiType.parse("bytes4"),), [b"\x00"])
    with pytest.raises(AbiError):
        encode_arguments((AbiType.parse("uint256"),), [1, 2])


# ---------------------------------------------------------------------------
# generation + round trips

ADDRESSES = (0xA1, 0xB2, 0xC3)

TYPE_UNIVERSE = [
    "uint8", "uint64", "uint256", "int8", "int256", "address", "bool",
    "bytes1", "bytes4", "bytes32", "bytes", "string",
    "uint256[]", "address[2]", "bytes[]", "uint8[3][]", "string[]",
]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    names=st.lists(st.sampled_from(TYPE_UNIVERSE), min_size=1, max_size=4),
)
def test_generated_values_match_reference(seed, names):
    rng = random.Random(seed)
    types = tuple(AbiType.parse(name) for name in names)
    values = [generate_argument(rng, t, ADDRESSES) for t in types]
    blob = encode_arguments(types, values)
    assert blob == encode_reference(names, values), names
    assert len(blob) % 32 == 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_generate_argument_respects_bounds(seed):
    rng = random.Random(seed)
    value = generate_argument(rng, AbiType.parse("uint8"), ADDRESSES)
    assert 0 <= value <= 255
    value = generate_argument(rng, AbiType.parse("int8"), ADDRESSES)
    assert -128 <= value <= 127
    value = generate_argument(rng, AbiType.parse("address"), ADDRESSES)
    assert value in ADDRESSES + (0,)
    blob = generate_argument(rng, AbiType.parse("bytes"), ADDRESSES)
    assert len(blob) <= 64
    text = generate_argument(rng, AbiType.parse("string"), ADDRESSES)
    assert len(text) <= 64
    items = generate_argument(rng, AbiType.parse("uint256[]"), ADDRESSES)
    assert len(items) <= 4
    fixed = generate_argument(rng, AbiType.parse("address[2]"), ADDRESSES)
    assert len(fixed) == 2


def test_generation_is_deterministic_per_seed():
    t = AbiType.parse("uint256[]")
    a = [generate_argument(random.Random(42), t, ADDRESSES) for _ in range(5)]
    b = [generate_argument(random.Random(42), t, ADDRESSES) for _ in range(5)]
    assert a == b
