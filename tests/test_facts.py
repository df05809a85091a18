"""The facts a run records as it pops its operands equal the facts read back
from its columns afterwards (``oracles.facts_ref``), over the fixture
campaigns and over drawn bytecode."""

from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.campaign import CampaignConfig, run_campaign
from evmfuzz.evm import Interpreter

from oracles.facts_ref import gather_facts
from test_campaign import CORPUS
from test_robustness import CONTRACT, WALL_CAP, inputs, prepared, programs


def assert_recorded_as_read(trace):
    facts, reference = trace.facts, gather_facts(trace)
    for name, value in reference.items():
        # an SSTORE that underflowed counts as a step but never executed
        if name != "sstores" or not trace.faulted:
            assert getattr(facts, name) == value, name


def test_every_fixture_campaign_run_records_what_its_columns_hold(monkeypatch):
    traces = []
    shipped = Interpreter._run

    def keeping(self, *args, **kwargs):
        ran = shipped(self, *args, **kwargs)
        traces.append(ran[0])
        return ran

    monkeypatch.setattr(Interpreter, "_run", keeping)
    for compiled in CORPUS:
        run_campaign(
            compiled.abi(),
            compiled.runtime,
            creation_code=compiled.creation,
            constructor_args=compiled.constructor_args,
            config=CampaignConfig(seed=1, generations=15),
            contract_balance=compiled.contract_balance,
        )
    # every fact kind is met along the way
    assert any(t.facts.jumpis for t in traces) and any(t.facts.write_keys for t in traces)
    assert any(t.facts.read_keys for t in traces)
    assert any(t.facts.invalid_pc is not None for t in traces)
    for trace in traces:
        assert_recorded_as_read(trace)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(code=programs(), batch=st.lists(inputs, min_size=1, max_size=3))
def test_a_drawn_program_records_what_its_columns_hold(code, batch):
    # the first input may be unpayable: its synthetic trace has facts too
    state = prepared(code, "none")
    interpreter = Interpreter(wall_cap=WALL_CAP)
    for inp in batch:
        assert_recorded_as_read(interpreter.execute(state, inp.transaction(CONTRACT), inp.env))
