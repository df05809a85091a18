from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import (
    extract_storage_accesses,
    read_set,
    resolve_key,
    slots,
    taint_individual,
    write_set,
)
from evmfuzz.asm import assemble
from evmfuzz.detectors import DetectorSuite
from evmfuzz.evm import AccountSet, EmulatedState, Interpreter, Transaction
from evmfuzz.ga import Individual, Input

from oracles import slots_ref

CONTRACT = 0x51075


def check(scenario):
    raw, preimages, expected = scenario
    assert resolve_key(raw, preimages).identity() == expected


def test_static_slot():
    check(slots_ref.scenario_static(3))
    check(slots_ref.scenario_static(0))


class _Unscannable(dict):
    def __iter__(self):
        raise AssertionError("a static slot scanned the preimages")


def test_static_slot_resolves_without_scanning_the_preimages():
    _, preimages, _ = slots_ref.scenario_mapping(slot=1, key=0xABCDEF)
    unscannable = _Unscannable(preimages)
    for slot in (0, 3, (1 << 32) - 1):
        assert resolve_key(slot, unscannable).identity() == (slot, ())


def test_mapping_entry():
    check(slots_ref.scenario_mapping(slot=1, key=0xABCDEF))


def test_nested_mapping_entry():
    check(slots_ref.scenario_nested_mapping(slot=2, key1=0xAAAA, key2=0xBBBB))


def test_dynamic_array_element():
    check(slots_ref.scenario_array(slot=4, index=0))
    check(slots_ref.scenario_array(slot=4, index=17))


def test_mapping_of_arrays():
    check(slots_ref.scenario_mapping_to_array(slot=5, key=0x1234, index=3))


def test_struct_field_behind_mapping():
    check(slots_ref.scenario_mapping_to_struct(slot=6, key=0x99, offset=0))
    check(slots_ref.scenario_mapping_to_struct(slot=6, key=0x99, offset=2))


def test_array_of_structs():
    check(slots_ref.scenario_array_of_structs(slot=7, index=5, width=3, offset=1))


def test_unknown_hash_like_key_stays_raw():
    raw = int.from_bytes(b"\x80" + b"\x55" * 31, "big")
    key = resolve_key(raw, {})
    assert not key.resolved
    assert key.identity() == ("raw", raw)


def test_same_location_same_identity_different_routes():
    # an SLOAD and an SSTORE of one mapping entry must collide on identity
    raw1, pre1, expected = slots_ref.scenario_mapping(slot=1, key=77)
    raw2, pre2, expected2 = slots_ref.scenario_mapping(slot=1, key=77)
    assert expected == expected2
    assert resolve_key(raw1, pre1).identity() == resolve_key(raw2, pre2).identity()


def test_different_keys_different_identities():
    raw1, pre1, id1 = slots_ref.scenario_mapping(slot=1, key=77)
    raw2, pre2, id2 = slots_ref.scenario_mapping(slot=1, key=78)
    assert id1 != id2
    merged = dict(pre1)
    merged.update(pre2)
    assert resolve_key(raw1, merged).identity() != resolve_key(raw2, merged).identity()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(["static", "map", "mapmap", "arr", "maparr", "mapstruct"]),
    slot=st.integers(min_value=0, max_value=50),
    key1=st.integers(min_value=0, max_value=(1 << 256) - 1),
    key2=st.integers(min_value=0, max_value=(1 << 160) - 1),
    index=st.integers(min_value=0, max_value=1000),
    offset=st.integers(min_value=0, max_value=30),
)
def test_resolver_matches_reference_layouts(shape, slot, key1, key2, index, offset):
    scenario = {
        "static": lambda: slots_ref.scenario_static(slot),
        "map": lambda: slots_ref.scenario_mapping(slot, key1),
        "mapmap": lambda: slots_ref.scenario_nested_mapping(slot, key1, key2),
        "arr": lambda: slots_ref.scenario_array(slot, index),
        "maparr": lambda: slots_ref.scenario_mapping_to_array(slot, key1, index),
        "mapstruct": lambda: slots_ref.scenario_mapping_to_struct(slot, key1, offset),
    }[shape]()
    check(scenario)


# ---------------------------------------------------------------------------
# end to end: keys computed by actual SHA3 execution


MAPPING_WRITER = assemble(
    """
    ; stores callvalue into balances[caller] where balances lives at slot 1,
    ; then reads it back and also reads slot 0
    CALLER
    PUSH1 0x00
    MSTORE
    PUSH1 0x01
    PUSH1 0x20
    MSTORE
    PUSH1 0x40
    PUSH1 0x00
    SHA3            ; keccak(caller ++ 1)
    DUP1
    CALLVALUE
    SWAP1
    SSTORE          ; balances[caller] = callvalue
    SLOAD           ; balances[caller]
    POP
    PUSH1 0x00
    SLOAD           ; plain slot 0
    POP
    STOP
"""
)


def run_mapping_writer(value):
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = MAPPING_WRITER
    sender = state.accounts.benign
    return (
        Interpreter().execute(
            state,
            Transaction(sender=sender, to=CONTRACT, value=value, gas_limit=200_000, data=b""),
        ),
        sender,
    )


def test_executed_mapping_write_resolves_to_declared_slot():
    trace, sender = run_mapping_writer(value=42)
    accesses = extract_storage_accesses(trace)
    writes = [a for a in accesses if a.kind == "write"]
    reads = [a for a in accesses if a.kind == "read"]
    assert len(writes) == 1 and len(reads) == 2

    _, _, expected = slots_ref.scenario_mapping(slot=1, key=sender)
    assert writes[0].key.identity() == expected
    assert writes[0].value == 42
    assert reads[0].key.identity() == expected
    assert reads[1].key.identity() == (0, ())


def test_read_write_sets_use_identities():
    trace, sender = run_mapping_writer(value=7)
    _, _, expected = slots_ref.scenario_mapping(slot=1, key=sender)
    assert write_set(trace) == {expected}
    assert read_set(trace) == {expected, (0, ())}


MAPPING_INCREMENT = assemble(
    """
    ; balances[caller] += callvalue, balances at slot 1: one key, read then written
    CALLER PUSH1 0x00 MSTORE
    PUSH1 0x01 PUSH1 0x20 MSTORE
    PUSH1 0x40 PUSH1 0x00 SHA3
    DUP1 SLOAD CALLVALUE ADD
    SWAP1 SSTORE
    STOP
"""
)


def test_each_raw_key_is_resolved_once_per_trace(monkeypatch):
    accounts = AccountSet()
    state = EmulatedState(accounts)
    state.code[CONTRACT] = MAPPING_INCREMENT
    inp = Input(fn=None, sender=accounts.benign, value=5)
    trace = Interpreter().execute(state, inp.transaction(CONTRACT), inp.env)
    assert trace.state_delta_applied
    resolved = []
    resolve = slots._resolve

    def counting(raw, preimages, depth):
        if depth == 0:
            resolved.append(raw)
        return resolve(raw, preimages, depth)

    monkeypatch.setattr(slots, "_resolve", counting)
    _, _, expected = slots_ref.scenario_mapping(slot=1, key=accounts.benign)
    assert read_set(trace) == write_set(trace) == {expected}
    suite = DetectorSuite(accounts, CONTRACT, MAPPING_INCREMENT)
    suite.inspect(Individual([inp]), [trace], taint_individual([inp], [trace]), [{}])
    assert suite.slot_writers == {expected: {accounts.benign}}
    assert len(resolved) == 1
