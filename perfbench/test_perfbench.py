"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import re
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _tiny_jobs() -> list:
    rng = Random(5)
    fixtures = {contract.name: contract for contract in inputs.fixture_contracts()}
    return [
        run.Job(fixtures["TokenSale"], 1, 4),
        run.Job(fixtures["FailingAssert"], 2, 4),
        run.Job(inputs.storage_batch(rng, 1)[0], 3, 2),
        run.Job(inputs.guard_program(rng, "g", "add", True), 4, 4),
        run.Job(inputs.guard_program(rng, "h", "mul", False), 5, 4),
    ]


def test_wrappers_restore_the_originals():
    owners = [tracing._resolve(boundary.target) for boundary in tracing.BOUNDARIES]
    before = [vars(owner)[name] for owner, name in owners]
    with tracing.installed(tracing.Tracer(), tracing.BOUNDARIES):
        during = [vars(owner)[name] for owner, name in owners]
        assert all(now is not then and now.__wrapped__ is then
                   for now, then in zip(during, before))
    assert [vars(owner)[name] for owner, name in owners] == before


def test_wrappers_are_restored_when_the_pass_raises():
    from evmfuzz.evm import opcodes

    original = opcodes.valid_jumpdests
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), tracing.BOUNDARIES):
            raise RuntimeError("boom")
    assert opcodes.valid_jumpdests is original


def test_a_missing_name_fails_loudly_and_installs_nothing():
    from evmfuzz.evm import opcodes

    original = opcodes.valid_jumpdests
    gone = tracing.Boundary("evmfuzz.campaign:no_such_helper", "analysis.trace")
    with pytest.raises(LookupError, match="no_such_helper"):
        with tracing.installed(tracing.Tracer(), (*tracing.BOUNDARIES, gone)):
            pass
    assert opcodes.valid_jumpdests is original


def test_two_runs_of_a_tiny_workload_do_the_same_work():
    jobs = _tiny_jobs()
    first = run.run_pass(jobs)
    second = run.run_pass(jobs)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.BOUNDARIES):
        traced = run.run_pass(jobs)
    assert not any(result.error for result in first)
    assert run.pass_fingerprint(first) == run.pass_fingerprint(second)
    assert run.pass_fingerprint(first) == run.pass_fingerprint(traced)
    assert tracer.counts["transactions"] == sum(result.executions for result in first)
    assert tracer.counts["taint_realignments"] == 0
    assert run.check(jobs, first) == []


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.names = ["campaign", "evm.interpreter", "keccak"]
    # campaign 0..100 holds an interpreter span 10..60 holding keccak 20..30;
    # a nested interpreter span must not be counted twice as busy time
    tracer.spans = [
        (0, 0, 100, -1),
        (1, 10, 60, 0),
        (2, 20, 30, 1),
        (1, 40, 50, 1),
    ]
    times = {name: (round(busy * 1e9), round(own * 1e9))
             for name, (busy, own) in tracer.times().items()}
    assert times == {"campaign": (100, 50), "evm.interpreter": (50, 40), "keccak": (10, 10)}


def test_metric_names_and_units_fit_the_benchmark_file():
    names = [name for name, _ in run.END_TO_END] + [name for name, _, _ in tracing.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in [unit for _, unit in run.END_TO_END] + [unit for _, unit, _ in tracing.LAYER_METRICS]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(metric) for metric in tracing.LAYER_METRICS]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_fixed_selectors_are_the_keccak_selectors():
    from evmfuzz.abi import function_selector

    for signature, selector in inputs.SELECTORS.items():
        assert function_selector(signature) == selector.to_bytes(4, "big"), signature


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        first = run.workload_jobs(workload, 7)
        assert first == run.workload_jobs(workload, 7)
    assert run.workload_jobs("guards", 7) != run.workload_jobs("guards", 8)
