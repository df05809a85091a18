import pytest

from evmfuzz.abi import parse_abi
from evmfuzz.analysis import taint_individual
from evmfuzz.asm import assemble
from evmfuzz.campaign import Campaign, CampaignConfig
from evmfuzz.detectors import ALL_KINDS, DetectorSuite, Finding
from evmfuzz.evm import AccountSet, EmulatedState, EnvOverrides, Interpreter
from evmfuzz.ga import Individual, Input

ACCOUNTS = AccountSet()
CONTRACT = 0xDE7EC7
HELPER = 0x8888
ATTACKER = ACCOUNTS.attackers[0]
BENIGN = ACCOUNTS.benign


def run_inputs(code, inputs, contract_balance=0, suite=None, pre_storage=None):
    state = EmulatedState(AccountSet())
    state.code[CONTRACT] = code
    if contract_balance:
        state.credit(CONTRACT, contract_balance)
    for slot, value in (pre_storage or {}).items():
        state.sstore(CONTRACT, slot, value)
    interp = Interpreter()
    traces = []
    for inp in inputs:
        traces.append(interp.execute(state, inp.transaction(CONTRACT), inp.env))
    reports = taint_individual(inputs, traces)
    suite = suite or DetectorSuite(ACCOUNTS, CONTRACT, code)
    findings = suite.inspect(Individual(inputs), traces, reports)
    return findings, suite


def kinds(findings):
    return sorted(f.kind for f in findings)


# ---------------------------------------------------------------------------
# AF: assertion failure


GUARDED_INVALID = assemble(
    """
    CALLVALUE
    PUSH @boom
    JUMPI
    STOP
boom:
    JUMPDEST
    INVALID
"""
)


def test_af_fires_on_reached_invalid():
    findings, _ = run_inputs(GUARDED_INVALID, [Input(fn=None, sender=BENIGN, value=1)])
    assert kinds(findings) == ["AF"]
    assert findings[0].pc == GUARDED_INVALID.index(0xFE)


def test_af_quiet_when_asserts_hold():
    findings, _ = run_inputs(GUARDED_INVALID, [Input(fn=None, sender=BENIGN, value=0)])
    assert findings == []


def test_af_ignores_synthetic_faults():
    underflow = assemble("ADD STOP")
    findings, _ = run_inputs(underflow, [Input(fn=None, sender=BENIGN)])
    assert findings == []


# ---------------------------------------------------------------------------
# IO: integer overflow reaching state


OVERFLOW_STORE = assemble(
    """
    PUSH1 0x04
    CALLDATALOAD
    DUP1
    ADD
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def _arg_calldata(value):
    return b"\x00" * 4 + (value % (1 << 256)).to_bytes(32, "big")


def test_io_fires_when_wrapped_result_is_stored():
    inp = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(1 << 255))
    findings, _ = run_inputs(OVERFLOW_STORE, [inp])
    assert kinds(findings) == ["IO"]
    assert findings[0].evidence["sinks"][0]["op"] == "SSTORE"


def test_io_fires_when_wrapped_result_is_sent():
    send_sum = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x04
        CALLDATALOAD
        DUP1
        ADD
        PUSH2 0x8888
        PUSH2 0x08fc
        CALL
        POP
        STOP
    """
    )
    inp = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata((1 << 255) + 3))
    findings, _ = run_inputs(send_sum, [inp], contract_balance=10)
    [finding] = [f for f in findings if f.kind == "IO"]
    assert finding.evidence["sinks"] == [{"op": "CALL", "pc": send_sum.index(0xF1)}]


def test_io_quiet_without_wraparound():
    inp = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(7))
    findings, _ = run_inputs(OVERFLOW_STORE, [inp])
    assert findings == []


def test_io_quiet_when_guard_reverts():
    guarded = assemble(
        """
        PUSH1 0x04
        CALLDATALOAD
        DUP1
        DUP1
        ADD             ; x + x
        LT              ; result < x  <=> wrapped
        ISZERO
        PUSH @fine
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    fine:
        JUMPDEST
        PUSH1 0x04
        CALLDATALOAD
        DUP1
        ADD
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    inp = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(1 << 255))
    findings, _ = run_inputs(guarded, [inp])
    assert findings == []  # the overflow existed but the revert contained it


def test_io_quiet_when_result_never_persists():
    dropped = assemble(
        """
        PUSH1 0x04
        CALLDATALOAD
        DUP1
        ADD
        POP
        STOP
    """
    )
    inp = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(1 << 255))
    findings, _ = run_inputs(dropped, [inp])
    assert findings == []


def test_io_quiet_for_constant_folding():
    constant = assemble(
        """
        PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        PUSH1 0x02
        ADD
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    findings, _ = run_inputs(constant, [Input(fn=None, sender=BENIGN)])
    assert findings == []


# ---------------------------------------------------------------------------
# RE: reentrant value call


def _send_then_store(gas_push):
    return assemble(
        f"""
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        CALLVALUE
        PUSH20 0x8888
        {gas_push}
        CALL
        POP
        PUSH1 0x01
        PUSH1 0x00
        SSTORE
        STOP
    """
    )


def test_re_fires_on_value_call_before_state_update():
    findings, _ = run_inputs(
        _send_then_store("PUSH2 0xc350"), [Input(fn=None, sender=ATTACKER, value=9)]
    )
    assert "RE" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "RE"]
    assert finding.evidence["stores_after"]


def test_re_quiet_at_the_send_stipend():
    findings, _ = run_inputs(
        _send_then_store("PUSH2 0x08fc"), [Input(fn=None, sender=ATTACKER, value=9)]
    )
    assert "RE" not in kinds(findings)


def test_re_quiet_without_value_transfer():
    findings, _ = run_inputs(
        _send_then_store("PUSH2 0xc350"), [Input(fn=None, sender=ATTACKER, value=0)]
    )
    assert "RE" not in kinds(findings)


def test_re_quiet_when_state_settles_first():
    settled = assemble(
        """
        PUSH1 0x01
        PUSH1 0x00
        SSTORE
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        CALLVALUE
        PUSH20 0x8888
        PUSH2 0xc350
        CALL
        POP
        STOP
    """
    )
    findings, _ = run_inputs(settled, [Input(fn=None, sender=ATTACKER, value=9)])
    assert "RE" not in kinds(findings)


# ---------------------------------------------------------------------------
# BD: block-data dependency


TIMED_PAYOUT = assemble(
    """
    PUSH4 0x5a0b4b50
    TIMESTAMP
    LT              ; timestamp < deadline
    PUSH @early
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x64
    CALLER
    PUSH2 0x2000
    CALL
    POP
    STOP
early:
    JUMPDEST
    STOP
"""
)


def test_bd_fires_on_time_gated_transfer():
    env = EnvOverrides(timestamp=1_600_000_000)  # past the deadline
    inp = Input(fn=None, sender=BENIGN, env=env)
    findings, _ = run_inputs(TIMED_PAYOUT, [inp], contract_balance=10**9)
    assert "BD" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "BD"]
    assert finding.evidence["depends_on"] == ["timestamp"]


def test_bd_quiet_before_the_deadline():
    env = EnvOverrides(timestamp=1_400_000_000)
    inp = Input(fn=None, sender=BENIGN, env=env)
    findings, _ = run_inputs(TIMED_PAYOUT, [inp], contract_balance=10**9)
    assert "BD" not in kinds(findings)  # transfer never executed


def test_bd_fires_when_amount_is_block_derived():
    pay_number = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        NUMBER
        PUSH1 0xff
        AND
        SWAP1
        POP
        NUMBER
        PUSH1 0x0f
        AND
        CALLER
        PUSH2 0x2000
        CALL
        POP
        STOP
    """
    )
    inp = Input(fn=None, sender=BENIGN, env=EnvOverrides(block_number=5_000_123))
    findings, _ = run_inputs(pay_number, [inp], contract_balance=10**9)
    assert "BD" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "BD"]
    assert "blocknumber" in finding.evidence["depends_on"]


def test_bd_quiet_on_unconditional_transfer():
    plain = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x64
        CALLER
        PUSH2 0x2000
        CALL
        POP
        STOP
    """
    )
    findings, _ = run_inputs(plain, [Input(fn=None, sender=BENIGN)], contract_balance=10**9)
    assert "BD" not in kinds(findings)


# ---------------------------------------------------------------------------
# TD: transaction order dependency


PRICE_DEPENDENT = assemble(
    """
    CALLDATASIZE
    PUSH @setter
    JUMPI
    PUSH1 0x00      ; payout path (empty calldata)
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    SLOAD
    CALLER
    PUSH2 0x2000
    CALL
    POP
    STOP
setter:
    JUMPDEST
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def test_td_fires_within_one_individual():
    setter = Input(fn=None, sender=ATTACKER, raw_calldata=_arg_calldata(55))
    reader = Input(fn=None, sender=BENIGN)
    findings, _ = run_inputs(PRICE_DEPENDENT, [setter, reader], contract_balance=10**9)
    assert "TD" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "TD"]
    assert finding.evidence["other_writers"] == [hex(ATTACKER)]


def test_td_fires_across_individuals_via_registry():
    suite = DetectorSuite(ACCOUNTS, CONTRACT, PRICE_DEPENDENT)
    setter = Input(fn=None, sender=ATTACKER, raw_calldata=_arg_calldata(55))
    findings, suite = run_inputs(PRICE_DEPENDENT, [setter], suite=suite)
    assert findings == []

    reader = Input(fn=None, sender=BENIGN)
    findings, _ = run_inputs(
        PRICE_DEPENDENT, [reader], contract_balance=10**9, pre_storage={0: 55}, suite=suite
    )
    assert kinds(findings) == ["TD"]


def test_td_quiet_when_writer_and_reader_agree():
    setter = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(55))
    reader = Input(fn=None, sender=BENIGN)
    findings, _ = run_inputs(PRICE_DEPENDENT, [setter, reader], contract_balance=10**9)
    assert "TD" not in kinds(findings)


def test_td_quiet_without_a_transfer():
    store_only = assemble(
        """
        PUSH1 0x04
        CALLDATALOAD
        PUSH1 0x00
        SSTORE
        STOP
    """
    )
    first = Input(fn=None, sender=ATTACKER, raw_calldata=_arg_calldata(1))
    second = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(2))
    findings, _ = run_inputs(store_only, [first, second])
    assert findings == []


# ---------------------------------------------------------------------------
# UE: unchecked failed call


CALL_IGNORING_RESULT = assemble(
    """
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH20 0x8888
    PUSH2 0x2000
    CALL
    POP
    PUSH1 0x01
    PUSH1 0x00
    SSTORE
    STOP
"""
)

CALL_CHECKING_RESULT = assemble(
    """
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH20 0x8888
    PUSH2 0x2000
    CALL
    PUSH @ok
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    REVERT
ok:
    JUMPDEST
    STOP
"""
)


def test_ue_fires_when_failure_is_ignored():
    env = EnvOverrides(call_results={HELPER: (0, b"")})
    findings, _ = run_inputs(CALL_IGNORING_RESULT, [Input(fn=None, sender=BENIGN, env=env)])
    assert kinds(findings) == ["UE"]


def test_ue_quiet_when_result_is_checked():
    env = EnvOverrides(call_results={HELPER: (0, b"")})
    findings, _ = run_inputs(CALL_CHECKING_RESULT, [Input(fn=None, sender=BENIGN, env=env)])
    assert findings == []


def test_ue_quiet_when_the_call_succeeds():
    findings, _ = run_inputs(CALL_IGNORING_RESULT, [Input(fn=None, sender=BENIGN)])
    assert findings == []


# ---------------------------------------------------------------------------
# UD: attacker-controlled delegatecall


OPEN_PROXY = assemble(
    """
    CALLDATASIZE
    PUSH @setter
    JUMPI
    PUSH1 0x00      ; forward path
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x01
    SLOAD
    GAS
    DELEGATECALL
    POP
    STOP
setter:
    JUMPDEST
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x01
    SSTORE
    STOP
"""
)


def test_ud_fires_when_attacker_plants_the_target():
    setter = Input(fn=None, sender=ATTACKER, raw_calldata=_arg_calldata(0x1234))
    forwarder = Input(fn=None, sender=ATTACKER)
    findings, _ = run_inputs(OPEN_PROXY, [setter, forwarder])
    assert "UD" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "UD"]
    assert finding.evidence["controlled_by"] == ["arg_0_0"]


def test_ud_quiet_when_owner_plants_the_target():
    setter = Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(0x1234))
    forwarder = Input(fn=None, sender=ATTACKER)
    findings, _ = run_inputs(OPEN_PROXY, [setter, forwarder])
    assert "UD" not in kinds(findings)


def test_ud_quiet_on_hardcoded_target():
    fixed = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH20 0x1234
        GAS
        DELEGATECALL
        POP
        STOP
    """
    )
    findings, _ = run_inputs(fixed, [Input(fn=None, sender=ATTACKER)])
    assert findings == []


# ---------------------------------------------------------------------------
# LE: leaking ether


PAY_CALLER = assemble(
    """
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x64
    CALLER
    PUSH2 0x2000
    CALL
    POP
    STOP
"""
)


def test_le_fires_when_stranger_withdraws():
    findings, _ = run_inputs(
        PAY_CALLER, [Input(fn=None, sender=ATTACKER)], contract_balance=10**9
    )
    assert kinds(findings) == ["LE"]
    assert findings[0].evidence["to"] == hex(ATTACKER)


def test_le_quiet_for_depositors():
    deposit = Input(fn=None, sender=ATTACKER, value=500, raw_calldata=b"\x01")
    accepts = assemble(
        """
        CALLDATASIZE
        PUSH @skip
        JUMPI
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x64
        CALLER
        PUSH2 0x2000
        CALL
        POP
        STOP
    skip:
        JUMPDEST
        STOP
    """
    )
    withdraw = Input(fn=None, sender=ATTACKER)
    findings, _ = run_inputs(accepts, [deposit, withdraw], contract_balance=10**9)
    assert "LE" not in kinds(findings)


# with calldata, a deposit: one byte is accepted, more revert; without, a
# payout of 100 wei to the caller
DEPOSIT_OR_PAYOUT = assemble(
    """
    CALLDATASIZE
    PUSH @deposit
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x64
    CALLER
    PUSH2 0x2000
    CALL
    POP
    STOP
deposit:
    JUMPDEST
    PUSH1 0x01
    CALLDATASIZE
    EQ
    PUSH @accept
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    REVERT
accept:
    JUMPDEST
    STOP
"""
)


def test_le_fires_when_the_payees_deposit_reverted():
    deposit = Input(fn=None, sender=ATTACKER, value=500, raw_calldata=b"\x01\x02")
    withdraw = Input(fn=None, sender=ATTACKER)
    findings, _ = run_inputs(DEPOSIT_OR_PAYOUT, [deposit, withdraw], contract_balance=10**9)
    assert kinds(findings) == ["LE"]


def test_le_fires_when_only_the_other_attacker_paid_in():
    other = ACCOUNTS.attackers[1]
    deposit = Input(fn=None, sender=other, value=500, raw_calldata=b"\x01")
    withdraw = Input(fn=None, sender=ATTACKER)
    findings, _ = run_inputs(DEPOSIT_OR_PAYOUT, [deposit, withdraw], contract_balance=10**9)
    assert kinds(findings) == ["LE"]
    assert findings[0].evidence["to"] == hex(ATTACKER)


@pytest.mark.parametrize("warm_up, leaks", [
    ((), True),
    (({"from": ATTACKER, "value": 500, "data": "0x01"},), False),
    # only a payment into the contract under test is a deposit
    (({"from": ATTACKER, "to": HELPER, "value": 1},), True),
    (({"from": ATTACKER, "value": 500, "data": "0x0102"},), True),  # reverted
    (({"from": ATTACKER, "data": "0x01"},), True),  # no value
])
def test_le_reads_deposits_from_the_initial_state_replay(warm_up, leaks):
    campaign = Campaign(
        parse_abi("[]"), DEPOSIT_OR_PAYOUT, config=CampaignConfig(initial_state=warm_up),
        contract_balance=10**9,
    )
    withdraw = Individual([Input(fn=None, sender=ATTACKER)])
    traces, reports = campaign.run_individual(withdraw)
    findings = campaign.detectors.inspect(withdraw, traces, reports)
    assert ("LE" in kinds(findings)) == leaks
    assert campaign.findings == findings


def test_le_quiet_when_benign_account_is_paid():
    findings, _ = run_inputs(
        PAY_CALLER, [Input(fn=None, sender=BENIGN)], contract_balance=10**9
    )
    assert "LE" not in kinds(findings)


def test_le_quiet_when_benign_sender_directs_the_payment():
    pay_arg = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x64
        PUSH1 0x04
        CALLDATALOAD
        PUSH2 0x2000
        CALL
        POP
        STOP
    """
    )
    instructed = Input(
        fn=None,
        sender=BENIGN,
        raw_calldata=_arg_calldata(ATTACKER),
        args=[ATTACKER],
    )
    findings, _ = run_inputs(pay_arg, [instructed], contract_balance=10**9)
    assert "LE" not in kinds(findings)


def test_le_fires_when_attacker_directs_the_payment():
    pay_arg = assemble(
        """
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x00
        PUSH1 0x64
        PUSH1 0x04
        CALLDATALOAD
        PUSH2 0x2000
        CALL
        POP
        STOP
    """
    )
    greedy = Input(
        fn=None,
        sender=ATTACKER,
        raw_calldata=_arg_calldata(ATTACKER),
        args=[ATTACKER],
    )
    findings, _ = run_inputs(pay_arg, [greedy], contract_balance=10**9)
    assert "LE" in kinds(findings)


# ---------------------------------------------------------------------------
# LO: locked ether


HOARDER = assemble(
    """
    CALLVALUE
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def test_lo_fires_when_value_enters_a_sink():
    findings, _ = run_inputs(HOARDER, [Input(fn=None, sender=BENIGN, value=123)])
    assert kinds(findings) == ["LO"]
    assert findings[0].evidence["accepted_value"] == 123


def test_lo_quiet_without_incoming_value():
    findings, _ = run_inputs(HOARDER, [Input(fn=None, sender=BENIGN, value=0)])
    assert findings == []


def test_lo_quiet_when_code_can_send():
    findings, _ = run_inputs(
        PAY_CALLER, [Input(fn=None, sender=BENIGN, value=123)], contract_balance=10**9
    )
    assert "LO" not in kinds(findings)


def test_lo_quiet_when_acceptance_reverted():
    rejecting = assemble(
        """
        CALLVALUE
        PUSH1 0x00
        SSTORE
        PUSH1 0x00
        PUSH1 0x00
        REVERT
    """
    )
    findings, _ = run_inputs(rejecting, [Input(fn=None, sender=BENIGN, value=123)])
    assert findings == []


# ---------------------------------------------------------------------------
# US: open selfdestruct


SUICIDAL = assemble(
    """
    CALLER
    SELFDESTRUCT
"""
)


def test_us_fires_for_attacker_triggered_selfdestruct():
    findings, _ = run_inputs(SUICIDAL, [Input(fn=None, sender=ATTACKER)])
    assert "US" in kinds(findings)
    [finding] = [f for f in findings if f.kind == "US"]
    assert finding.evidence["beneficiary"] == hex(ATTACKER)


def test_us_quiet_for_owner_shutdown():
    guarded = assemble(
        """
        CALLER
        PUSH20 0xBE111C0000000000000000000000000000000B01
        EQ
        PUSH @die
        JUMPI
        STOP
    die:
        JUMPDEST
        CALLER
        SELFDESTRUCT
    """
    )
    attacker_try = Input(fn=None, sender=ATTACKER)
    owner_shutdown = Input(fn=None, sender=BENIGN)
    findings, _ = run_inputs(guarded, [attacker_try, owner_shutdown])
    assert "US" not in kinds(findings)


# ---------------------------------------------------------------------------
# suite mechanics


def test_findings_deduplicate_by_kind_and_site():
    suite = DetectorSuite(ACCOUNTS, CONTRACT, GUARDED_INVALID)
    first, suite = run_inputs(
        GUARDED_INVALID, [Input(fn=None, sender=BENIGN, value=1)], suite=suite
    )
    second, _ = run_inputs(
        GUARDED_INVALID, [Input(fn=None, sender=ATTACKER, value=2)], suite=suite
    )
    assert kinds(first) == ["AF"]
    assert second == []
    assert len(suite.findings) == 1


def test_enabled_filter_suppresses_other_kinds():
    suite = DetectorSuite(ACCOUNTS, CONTRACT, GUARDED_INVALID, enabled=("LE",))
    findings, _ = run_inputs(
        GUARDED_INVALID, [Input(fn=None, sender=BENIGN, value=1)], suite=suite
    )
    assert findings == []


def test_every_kind_is_representable():
    assert set(ALL_KINDS) == {"AF", "IO", "RE", "BD", "TD", "UE", "UD", "LE", "LO", "US"}
    finding = Finding("AF", 3, 0, "abc123", {"terminal": "INVALID"})
    assert finding.jsonable()["kind"] == "AF"


# an argument of 1 reaches INVALID (AF); any other is doubled into slot 0,
# which wraps for large ones (IO), and the code cannot send, so accepted
# value is locked (LO)
CALL_FREE = assemble(
    """
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x01
    EQ
    PUSH @boom
    JUMPI
    PUSH1 0x04
    CALLDATALOAD
    DUP1
    ADD
    PUSH1 0x00
    SSTORE
    STOP
boom:
    JUMPDEST
    INVALID
"""
)

_CALL_RULES = (
    "_reentrant_calls", "_block_dependent_transfers", "_order_dependent_transfers",
    "_unchecked_calls", "_attacker_delegatecalls", "_ether_leaks", "_open_selfdestructs",
)


def test_call_free_inputs_skip_the_call_detectors(monkeypatch):
    inputs = [
        Input(fn=None, sender=BENIGN, value=5, raw_calldata=_arg_calldata(1 << 255)),
        Input(fn=None, sender=BENIGN, raw_calldata=_arg_calldata(1)),
    ]
    expected, _ = run_inputs(CALL_FREE, inputs)

    def entered(self, *args):
        raise AssertionError("a call detector ran over a call-free input")

    for name in _CALL_RULES:
        monkeypatch.setattr(DetectorSuite, name, entered)
    findings, _ = run_inputs(CALL_FREE, inputs)
    assert [(f.kind, f.pc, f.input_index) for f in findings] == [
        (f.kind, f.pc, f.input_index) for f in expected
    ]
    assert [f.kind for f in findings] == ["IO", "LO", "AF"]
