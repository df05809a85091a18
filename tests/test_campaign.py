import dataclasses
import gc
import hashlib
import json
import time

import pytest

from evmfuzz import campaign as campaign_module
from evmfuzz.abi import AbiType, encode_calldata, parse_abi
from evmfuzz.analysis import OpenBranch, PathConstraint, SolveResult, TaintReport
from evmfuzz.analysis import expr
from evmfuzz.analysis import taint as taint_module
from evmfuzz.analysis.expr import apply, const, var
from evmfuzz.asm import assemble, creation_wrapper
from evmfuzz.campaign import (
    INPUT_WALL_CAP,
    Campaign,
    CampaignConfig,
    _coerce_word,
    run_campaign,
    write_report,
)
from evmfuzz.evm import EmulatedState, EnvOverrides, Interpreter, Transaction
from evmfuzz.evm import interpreter as interpreter_module
from evmfuzz.evm.interpreter import child_address, new_address
from evmfuzz.evm.opcodes import disassemble
from evmfuzz.evm.state import DEPLOYER, DEPLOYER_CHILD
from evmfuzz.ga import Individual, Input
from evmfuzz.keccak import keccak256

from fixtures import GUARDED_ADD, MINI_CORPUS, OWNED_PROXY, SAFE_ASSERT, TOKEN_SALE


def selector(signature: str) -> bytes:
    return keccak256(signature.encode())[:4]


# ---------------------------------------------------------------------------
# fixtures


SET_SEL = selector("set(uint256)")

# store arg0 at slot 0, but only behind an 8-byte magic constant the GA
# cannot stumble into — flipping the guard needs the solver
MAGIC_GUARD = assemble(
    f"""
    PUSH1 0x00
    CALLDATALOAD
    PUSH1 0xe0
    SHR
    PUSH4 0x{SET_SEL.hex()}
    EQ
    PUSH @body
    JUMPI
    STOP
body:
    JUMPDEST
    PUSH1 0x04
    CALLDATALOAD
    PUSH8 0xdeadbeef12345678
    EQ
    PUSH @win
    JUMPI
    PUSH1 0x00
    PUSH1 0x00
    REVERT
win:
    JUMPDEST
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x00
    SSTORE
    STOP
"""
)

MAGIC_ABI = parse_abi(
    '[{"type": "function", "name": "set",'
    ' "inputs": [{"type": "uint256"}], "stateMutability": "nonpayable"}]'
)


WRITE_SEL = selector("mark()")
GATE_SEL = selector("gated()")

# mark() writes slot 1; gated() branches on slot 1 — the deep body is only
# reachable by an individual that calls mark() first, i.e. by crossover
RAW_PAIR = assemble(
    f"""
    PUSH1 0x00
    CALLDATALOAD
    PUSH1 0xe0
    SHR
    DUP1
    PUSH4 0x{WRITE_SEL.hex()}
    EQ
    PUSH @mark
    JUMPI
    PUSH4 0x{GATE_SEL.hex()}
    EQ
    PUSH @gated
    JUMPI
    STOP
mark:
    JUMPDEST
    PUSH1 0x01
    PUSH1 0x01
    SSTORE
    STOP
gated:
    JUMPDEST
    PUSH1 0x01
    SLOAD
    PUSH @deep
    JUMPI
    STOP
deep:
    JUMPDEST
    PUSH1 0x02
    PUSH1 0x02
    SSTORE
    STOP
"""
)

RAW_PAIR_ABI = parse_abi(
    '[{"type": "function", "name": "mark", "inputs": []},'
    ' {"type": "function", "name": "gated", "inputs": []}]'
)


# any caller can blow the contract away; flagged when an attacker does
SUICIDAL = assemble(
    """
    CALLER
    SELFDESTRUCT
    """
)

EMPTY_ABI = parse_abi("[]")


# branches on preset storage slot 7; storage is not fuzzable, so the deep
# body is reachable only when the campaign starts with the slot set
STORAGE_GATE = assemble(
    """
    PUSH1 0x07
    SLOAD
    PUSH @open
    JUMPI
    STOP
open:
    JUMPDEST
    PUSH1 0x01
    PUSH1 0x00
    SSTORE
    STOP
"""
)


def quick_config(**overrides) -> CampaignConfig:
    base = dict(seed=3, timeout=20.0, generations=25)
    base.update(overrides)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# coverage and the solver loop


def test_a_dropped_campaign_leaves_the_term_table_as_it_found_it():
    def live():
        return {held() for held in expr._TERMS.values()}

    gc.collect()
    before = live()  # held here, so they stay
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=10))
    campaign.run()
    assert live() > before
    del campaign
    gc.collect()
    assert live() == before


def test_solver_flips_magic_guard():
    report = run_campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=40))
    assert report["coverage"]["percent"] == 100.0
    assert report["solver"]["sat"] >= 1
    assert report["solver"]["internal"] >= 1


def test_the_solver_is_asked_with_the_campaign_deadline(monkeypatch):
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=40))
    solve_branch, deadlines = campaign.bridge.solve_branch, []

    def recording(constraints, target_index, var_values, deadline=None):
        deadlines.append(deadline)
        return solve_branch(constraints, target_index, var_values, deadline)

    monkeypatch.setattr(campaign.bridge, "solve_branch", recording)
    started = time.monotonic()
    campaign.run()
    assert deadlines and all(started < d <= time.monotonic() + 20.0 for d in deadlines)


def test_without_solver_magic_guard_stays_closed():
    report = run_campaign(
        MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=40, solver_enabled=False)
    )
    assert report["coverage"]["percent"] < 100.0
    assert report["solver"]["attempts"] == 0


def test_raw_crossover_reaches_write_dependent_branch():
    report = run_campaign(RAW_PAIR_ABI, RAW_PAIR, config=quick_config(generations=40))
    assert report["coverage"]["percent"] == 100.0


def test_crossover_log_records_parent_and_child_names():
    report = run_campaign(RAW_PAIR_ABI, RAW_PAIR, config=quick_config())
    assert report["crossovers"]
    for entry in report["crossovers"]:
        assert set(entry) == {"first", "second", "child"}
        combined = entry["first"] + entry["second"]
        reversed_ = entry["second"] + entry["first"]
        assert entry["child"] in (combined, reversed_)


def test_storage_gate_needs_preset_state():
    closed = run_campaign(EMPTY_ABI, STORAGE_GATE, config=quick_config())
    opened = run_campaign(
        EMPTY_ABI, STORAGE_GATE, config=quick_config(), pre_storage={7: 1}
    )
    # the branch direction flips with the preset, and storage itself is not
    # fuzzable, so each run only ever sees its own side
    assert closed["coverage"]["percent"] < 100.0
    assert opened["coverage"]["percent"] < 100.0
    assert (
        opened["coverage"]["instructions_visited"]
        > closed["coverage"]["instructions_visited"]
    )


def _guard(flag_ops: str, prefix: str = "") -> tuple[bytes, int]:
    """A contract that stores only past one guard on ``set``'s argument:
    ``flag_ops`` turns the argument into the JUMPI flag.  Returns the code
    and the guard's JUMPI pc."""
    code = assemble(
        f"{prefix}PUSH1 0x04\nCALLDATALOAD\n{flag_ops}PUSH @win\nJUMPI\nSTOP\n"
        "win:\nJUMPDEST\nPUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP\n"
    )
    return code, max(pc for pc, name, _ in disassemble(code) if name == "JUMPI")


def test_an_unsatisfiable_guard_is_asked_once():
    # an even product is never odd: the first stagnating generation proves
    # it, and no later one asks again
    code, guard_pc = _guard("PUSH1 0x06\nMUL\nPUSH2 0x1235\nEQ\n")
    report = run_campaign(MAGIC_ABI, code, config=quick_config(generations=15))
    assert report["generations"] >= 12
    assert report["solver"]["attempts"] == report["solver"]["unsat"] == 1
    assert report["infeasible"] == [[guard_pc, True]]
    assert report["coverage"]["percent"] < 100.0

    code, _ = _guard("PUSH1 0x07\nMUL\nPUSH2 0x1235\nEQ\n")
    report = run_campaign(MAGIC_ABI, code, config=quick_config(generations=15))
    assert report["coverage"]["percent"] == 100.0
    assert report["solver"]["sat"] >= 1
    assert report["infeasible"] == []


def test_a_variable_free_branch_costs_no_solver_budget(monkeypatch):
    # the storage branch comes first and has no fuzzable variable; with a
    # budget of one call it must not keep the magic guard from being solved
    monkeypatch.setattr(campaign_module, "MAX_SOLVER_CALLS", 1)
    code, _ = _guard(
        "PUSH8 0xdeadbeef12345678\nEQ\n",
        prefix="PUSH1 0x05\nSLOAD\nPUSH @skip\nJUMPI\nskip:\nJUMPDEST\n",
    )
    report = run_campaign(MAGIC_ABI, code, config=quick_config(generations=15))
    assert report["solver"]["attempts"] >= 1
    assert report["solver"]["sat"] >= 1


def test_the_solver_is_asked_with_the_first_witness_of_a_branch(monkeypatch):
    # the first individual never took the branch; the second took it in
    # both of its inputs
    guard = apply("eq", var("arg_0_1"), const(0x1235))
    other = PathConstraint(0x30, apply("iszero", var("callvalue_0")), True)
    first = (Individual([]), [TaintReport(constraints=[other], var_values={"callvalue_0": 0})])
    second_reports = [
        TaintReport(
            constraints=[other],
            var_values={"callvalue_0": 0, "timestamp_0": 5},
        ),
        TaintReport(
            constraints=[PathConstraint(0x40, guard, False)] * 2,
            var_values={"arg_0_1": 7, "timestamp_0": 9},
        ),
    ]
    second = (Individual([]), second_reports)
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD)
    monkeypatch.setattr(
        campaign.coverage, "find_open_branches", lambda: [OpenBranch(0x40, True)]
    )
    asked = []

    def solve_branch(constraints, target_index, var_values, deadline=None):
        asked.append((list(constraints), target_index, dict(var_values)))
        return SolveResult("unknown")

    monkeypatch.setattr(campaign.bridge, "solve_branch", solve_branch)
    assert campaign._solve_open_branches([first, second]) == []
    assert asked == [(
        [other, PathConstraint(0x40, guard, False), PathConstraint(0x40, guard, False)],
        1,
        {"callvalue_0": 0, "timestamp_0": 9, "arg_0_1": 7},
    )]


def test_one_activation_asks_the_solver_at_most_its_budget(monkeypatch):
    # more open branches with a fuzzable variable than one activation may ask
    pcs = range(0x40, 0x40 + campaign_module.MAX_SOLVER_CALLS + 3)
    constraints = [
        PathConstraint(pc, apply("eq", var(f"arg_{k}_0"), const(7)), False)
        for k, pc in enumerate(pcs)
    ]
    witness = (Individual([]), [TaintReport(constraints=constraints)])
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD)
    monkeypatch.setattr(
        campaign.coverage, "find_open_branches", lambda: [OpenBranch(pc, True) for pc in pcs]
    )
    asked = []

    def solve_branch(constraints, target_index, var_values, deadline=None):
        asked.append(target_index)
        return SolveResult("unknown")

    monkeypatch.setattr(campaign.bridge, "solve_branch", solve_branch)
    assert campaign._solve_open_branches([witness]) == []
    assert asked == list(range(campaign_module.MAX_SOLVER_CALLS))


def test_series_is_monotonic():
    report = run_campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config())
    elapsed = [point[0] for point in report["series"]]
    percents = [point[1] for point in report["series"]]
    assert elapsed == sorted(elapsed)
    assert percents == sorted(percents)
    assert len(report["series"]) == report["generations"] + 1


def test_same_seed_reproduces_the_run():
    config = dict(seed=11, timeout=30.0, generations=10)
    first = run_campaign(RAW_PAIR_ABI, RAW_PAIR, config=CampaignConfig(**config))
    second = run_campaign(RAW_PAIR_ABI, RAW_PAIR, config=CampaignConfig(**config))
    assert first["coverage"] == second["coverage"]
    assert first["executions"] == second["executions"]
    assert first["crossovers"] == second["crossovers"]
    assert [f["kind"] for f in first["findings"]] == [
        f["kind"] for f in second["findings"]
    ]
    assert [p for _, p in first["series"]] == [p for _, p in second["series"]]


# ---------------------------------------------------------------------------
# findings


def test_attacker_selfdestruct_is_found():
    report = run_campaign(EMPTY_ABI, SUICIDAL, config=quick_config(seed=1))
    kinds = {f["kind"] for f in report["findings"]}
    assert "US" in kinds


# ---------------------------------------------------------------------------
# construction paths


def test_deploy_from_creation_code():
    campaign = Campaign(
        MAGIC_ABI, b"", creation_code=creation_wrapper(MAGIC_GUARD)
    )
    assert campaign.state.code[campaign.address] == MAGIC_GUARD
    assert campaign.runtime == MAGIC_GUARD
    assert campaign.coverage.instructions_total > 0


def test_runtime_only_install():
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD)
    assert campaign.state.code[campaign.address] == MAGIC_GUARD


def test_preseeded_storage_and_balance():
    campaign = Campaign(
        EMPTY_ABI, STORAGE_GATE, pre_storage={7: 5}, contract_balance=123
    )
    assert campaign.state.sload(campaign.address, 7) == 5
    assert campaign.state.balance_of(campaign.address) == 123


def test_ablation_flags_reach_the_engine():
    campaign = Campaign(
        MAGIC_ABI,
        MAGIC_GUARD,
        config=CampaignConfig(raw_aware=False, env_fuzzing=False, solver_enabled=False),
    )
    assert campaign.engine.raw_aware is False
    assert campaign.engine.env_fuzzing is False
    assert campaign.bridge.external is None


# ---------------------------------------------------------------------------
# report shape


def test_report_keys_are_pinned():
    report = run_campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=3))
    assert set(report) == {
        "version",
        "config",
        "seed",
        "contract",
        "elapsed_seconds",
        "generations",
        "executions",
        "coverage",
        "series",
        "findings",
        "solver",
        "infeasible",
        "crossovers",
    }
    assert report["seed"] == report["config"]["seed"]
    assert report["config"]["gas_model"] == {
        "per_instruction": 1,
        "per_transaction_cap": 8_000_000,
    }
    assert set(report["coverage"]) == {
        "instructions_visited",
        "instructions_total",
        "percent",
        "branches",
    }


def test_report_round_trips_through_json(tmp_path):
    report = run_campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=3))
    out = tmp_path / "report.json"
    write_report(report, out)
    assert json.loads(out.read_text()) == report


def test_trace_dump_writes_parseable_lines(tmp_path):
    config = quick_config(generations=2, trace_dir=str(tmp_path / "traces"))
    run_campaign(MAGIC_ABI, MAGIC_GUARD, config=config)
    files = list((tmp_path / "traces").glob("*.jsonl"))
    assert files
    for path in files:
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert {"op", "pc", "stack", "depth", "error", "input"} <= set(record)


# hashes its argument, calls out, and faults on a stack underflow when the
# argument is odd
POKE_ABI = parse_abi(
    '[{"type": "function", "name": "poke", "inputs": [{"type": "uint256"}],'
    ' "stateMutability": "nonpayable"}]'
)
HASH_CALL_FAULT = assemble(
    """
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3
    PUSH1 0x00
    SSTORE
    PUSH1 0x20
    PUSH1 0x40
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH20 0x9999000000000000000000000000000000009999
    GAS
    CALL
    POP
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x01
    AND
    PUSH @odd
    JUMPI
    STOP
odd:
    JUMPDEST
    POP
    STOP
"""
)
# sha256 of the dump's files, each as its name, a newline and its lines
HASH_CALL_FAULT_DUMP = "09a8d6fd7e62f6c26d0eb3a7057b85da978f02f1ef8b5f6d63f8f0735decaff1"


def test_the_trace_dump_of_a_fixed_campaign_is_pinned(tmp_path):
    run_campaign(POKE_ABI, HASH_CALL_FAULT,
                 config=quick_config(seed=1, generations=4, trace_dir=str(tmp_path)))
    digest = hashlib.sha256()
    records = []
    for path in sorted(tmp_path.glob("*.jsonl")):
        text = path.read_text()
        digest.update(f"{path.name}\n{text}".encode())
        records.extend(json.loads(line) for line in text.splitlines())
    ops = {record["op"] for record in records}
    assert {"CALL", "SHA3"} <= ops and any(record["error"] for record in records)
    assert digest.hexdigest() == HASH_CALL_FAULT_DUMP


# ---------------------------------------------------------------------------
# model application


def make_campaign() -> Campaign:
    return Campaign(MAGIC_ABI, MAGIC_GUARD, config=CampaignConfig(seed=9))


def test_apply_model_patches_static_argument():
    campaign = make_campaign()
    fn = MAGIC_ABI.functions[0]
    individual = Individual([Input(fn=fn, sender=1, args=[0])])
    patched = campaign._apply_model(individual, {"arg_0_0": 0xDEADBEEF12345678})
    assert patched.inputs[0].args[0] == 0xDEADBEEF12345678
    assert individual.inputs[0].args[0] == 0  # original untouched
    assert campaign.engine.pools.pick("argument", (fn.selector, 0)) == 0xDEADBEEF12345678


def test_apply_model_fills_the_argument_whose_head_holds_the_word():
    # f(uint256[2] a, uint256 b): a fills head words 0-1, so word 2 is b
    fn = parse_abi(
        '[{"type": "function", "name": "f", "inputs": [{"name": "a", "type":'
        ' "uint256[2]"}, {"name": "b", "type": "uint256"}]}]'
    ).functions[0]
    campaign = make_campaign()
    individual = Individual([Input(fn=fn, sender=1, args=[[0, 0], 0])])
    inp = campaign._apply_model(individual, {"arg_1_0": 4, "arg_2_0": 5}).inputs[0]
    assert inp.args == [[0, 0], 5]  # a word inside the array is not written
    assert inp.pool_tags == {("argument", (fn.selector, 1)): 5}


def test_apply_model_patches_raw_calldata_word():
    campaign = make_campaign()
    individual = Individual([Input(fn=None, sender=1, raw_calldata=b"\xaa\xbb\xcc\xdd")])
    patched = campaign._apply_model(individual, {"arg_0_0": 5})
    data = patched.inputs[0].raw_calldata
    assert len(data) == 36
    assert data[:4] == b"\xaa\xbb\xcc\xdd"
    assert int.from_bytes(data[4:36], "big") == 5


def test_a_model_copy_sends_the_calldata_of_its_patched_fields():
    # each input ran first, so its copy carries the bytes it encoded
    campaign = make_campaign()
    fn = MAGIC_ABI.functions[0]
    individual = Individual([
        Input(fn=fn, sender=1, args=[5]),
        Input(fn=None, sender=1, raw_calldata=b"\xaa\xbb\xcc\xdd"),
        Input(fn=fn, sender=1, args=[9]),
        Input(fn=fn, sender=1, args=[7]),
    ])
    sent = [inp.transaction(campaign.address).data for inp in individual.inputs]
    model = {"arg_0_0": 0xDEADBEEF12345678, "arg_1_1": 6, "calldatasize_2": 10, "gas_3": 30_000}
    patched = campaign._apply_model(individual, model)
    for inp in patched.inputs:
        data = inp.raw_calldata if inp.fn is None else encode_calldata(inp.fn, inp.args)
        if inp.calldata_size is not None:
            data = data[:inp.calldata_size].ljust(inp.calldata_size, b"\x00")
        assert inp.transaction(campaign.address).data == data
    assert patched.inputs[2].calldata() == sent[2][:10]
    assert patched.inputs[3].calldata() is sent[3]  # its args are its parent's
    assert [inp.transaction(campaign.address).data for inp in individual.inputs] == sent


def test_apply_model_sets_environment_fields():
    campaign = make_campaign()
    fn = MAGIC_ABI.functions[0]
    individual = Individual([Input(fn=fn, sender=1, args=[0])])
    model = {
        "caller_0": (1 << 200) | 0xABCD,  # masked to 160 bits
        "timestamp_0": 1_700_000_000,
        "callres_0_99": 0,
        "callret_0_99_w1": 7,
        "extcode_0_1234": 10,
        "gas_0": 5,  # clamped up to the floor
    }
    patched = campaign._apply_model(individual, model)
    inp = patched.inputs[0]
    assert inp.sender == 0xABCD
    assert inp.env.timestamp == 1_700_000_000
    success, ret = inp.env.call_results[0x99]  # addresses ride in hex
    assert success == 0
    assert int.from_bytes(ret[32:64], "big") == 7
    assert inp.env.extcode_sizes[0x1234] == 10
    assert inp.gas_limit == 21_000


def test_apply_model_skips_a_word_past_the_head():
    campaign = make_campaign()
    fn = MAGIC_ABI.functions[0]  # set(uint256): one head word
    individual = Individual([Input(fn=fn, sender=1, args=[0])])
    inp = campaign._apply_model(individual, {"arg_1_0": 5}).inputs[0]
    assert inp.args == [0]
    assert inp.pool_tags == {}


def test_apply_model_skips_out_of_range_inputs():
    campaign = make_campaign()
    fn = MAGIC_ABI.functions[0]
    individual = Individual([Input(fn=fn, sender=1, args=[0])])
    patched = campaign._apply_model(
        individual, {"arg_0_5": 1, "storage_7": 2, "balance_0": 3}
    )
    assert patched.inputs[0].args[0] == 0


@pytest.mark.parametrize(
    ("type_text", "word", "expected"),
    [
        ("uint8", 0x1FF, 0xFF),
        ("uint256", 2**256 - 1, 2**256 - 1),
        ("int8", 0xFF, -1),
        ("int256", 2**255, -(2**255)),
        ("address", (1 << 200) | 5, 5),
        ("bool", 2, 1),
        ("bool", 0, 0),
        (
            "bytes4",
            int.from_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 28, "big"),
            b"\xde\xad\xbe\xef",
        ),
    ],
)
def test_coerce_word(type_text, word, expected):
    assert _coerce_word(AbiType.parse(type_text), word) == expected


# ---------------------------------------------------------------------------
# generation accounting and initial state


def test_generation_cap_zero_runs_initial_population_only():
    report = run_campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config(generations=0))
    assert report["generations"] == 0
    assert len(report["series"]) == 1
    assert report["executions"] > 0


# ten functions, every call a loop of some 57 000 steps: one population of
# twenty individuals takes far longer than one input's wall cap
SLOW_ABI = parse_abi(
    json.dumps([{"type": "function", "name": f"f{k}", "inputs": []} for k in range(10)])
)
SLOW_LOOP = assemble(
    """
    PUSH2 0x2000
loop:
    JUMPDEST PUSH1 0x01 SWAP1 SUB DUP1 PUSH @loop JUMPI
    STOP
"""
)


ENDLESS_LOOP = assemble("loop: JUMPDEST PUSH @loop JUMP")


# A guard over the first argument doubled n times, x * 2**n == 0x1235, which
# no x meets: its condition is a tree of 2**n leaves that taint builds as a
# chain of n shared subterms.
def doubling_guard(rounds):
    return assemble(
        "PUSH1 0x04 CALLDATALOAD"
        + " DUP1 ADD" * rounds
        + " PUSH2 0x1235 EQ PUSH @win JUMPI STOP win: JUMPDEST STOP"
    )


def test_a_doubling_chain_keeps_the_campaign_within_its_budget():
    # past the solver's search depth of 24, every way down is a dead end, but
    # the abstract add(t, t) is even, so the guard is proven unsat and left
    budget = 5.0
    for rounds in (26, 40):
        started = time.monotonic()
        config = quick_config(timeout=budget, generations=None)
        report = run_campaign(MAGIC_ABI, doubling_guard(rounds), config=config)
        assert time.monotonic() - started < budget + INPUT_WALL_CAP, rounds
        assert report["solver"]["attempts"] > 0
        assert report["solver"]["unsat"] >= 1 and report["infeasible"], rounds


@pytest.mark.parametrize("op", ["AND", "OR"])
def test_a_guard_behind_dup1_and_or_rounds_is_solved_within_the_budget(op):
    # x == 0x1235 taken through 26 rounds of DUP1 AND (or OR): the same word,
    # so the solver flips it as it flips the bare comparison
    code = assemble(
        "PUSH1 4 CALLDATALOAD PUSH2 0x1235 EQ"
        + f" DUP1 {op}" * 26
        + " PUSH @win JUMPI STOP win: JUMPDEST STOP"
    )
    budget = 5.0
    started = time.monotonic()
    report = run_campaign(MAGIC_ABI, code, config=quick_config(timeout=budget))
    assert time.monotonic() - started < budget + INPUT_WALL_CAP
    assert report["solver"].get("sat", 0) >= 1
    assert report["coverage"]["percent"] == 100.0


# A guard over x == 0x1235 kept through n rounds that AND the condition with
# the OR of it and 0: DUP1 PUSH1 0 OR AND builds and(or(0, c), c), and
# PUSH1 0 DUP2 OR SWAP1 AND builds and(c, or(c, 0)).  Each round reaches the
# condition through two different objects, so its tree has 2**n copies.
def shared_or_guard(rounds, body="DUP1 PUSH1 0 OR AND"):
    return assemble(
        "PUSH1 4 CALLDATALOAD PUSH2 0x1235 EQ"
        + f" {body}" * rounds
        + " PUSH @win JUMPI STOP win: JUMPDEST STOP"
    )


def test_a_guard_behind_shared_or_rounds_is_solved_within_the_budget():
    # the unsat proof costs the condition's DAG, so the search that follows
    # it finds x == 0x1235
    budget = 5.0
    for rounds in (24, 30):
        started = time.monotonic()
        config = quick_config(timeout=budget)
        report = run_campaign(MAGIC_ABI, shared_or_guard(rounds), config=config)
        assert time.monotonic() - started < budget + INPUT_WALL_CAP, rounds
        assert report["solver"].get("sat", 0) >= 1
        assert report["coverage"]["percent"] == 100.0


def test_a_guard_whose_and_operands_share_a_condition_is_solved_within_a_second():
    # and(c, or(c, 0)): the search draws each stream of the condition's DAG
    # once, so one attempt finds x == 0x1235
    budget = 1.0
    for rounds in (16, 18):
        started = time.monotonic()
        code = shared_or_guard(rounds, "PUSH1 0 DUP2 OR SWAP1 AND")
        report = run_campaign(MAGIC_ABI, code, config=quick_config(timeout=budget))
        assert time.monotonic() - started < budget + INPUT_WALL_CAP, rounds
        assert report["solver"]["attempts"] == report["solver"]["sat"] == 1, rounds
        assert report["coverage"]["percent"] == 100.0, rounds


# x == 7 and no k < 22 with arg_k < 100, x being arg_0: each of the 2**22
# ways to make the or false sets x to 100 or 101, so the search draws no
# candidate for seconds
WIDE_OR_GUARD = assemble(
    "PUSH1 100 PUSH1 4 CALLDATALOAD LT"
    + "".join(f" PUSH1 100 PUSH {4 + 32 * k} CALLDATALOAD LT OR" for k in range(1, 22))
    + " ISZERO PUSH1 7 PUSH1 4 CALLDATALOAD EQ AND PUSH @win JUMPI STOP win: JUMPDEST STOP"
)


def test_a_search_too_large_for_the_budget_ends_with_it():
    # the search reads the clock while it draws a candidate
    budget = 1.0
    started = time.monotonic()
    report = run_campaign(MAGIC_ABI, WIDE_OR_GUARD, config=quick_config(timeout=budget))
    assert time.monotonic() - started < budget + INPUT_WALL_CAP
    assert report["solver"]["attempts"] == report["solver"]["timeout"] == 1


# adds 1 to a calldata word in a loop of 1 200 rounds, then guards on it: a
# condition deeper than the interpreter's recursion limit
LONG_LOOP = assemble(
    """
    PUSH1 4 CALLDATALOAD PUSH 0
    loop: JUMPDEST SWAP1 PUSH1 1 ADD SWAP1 PUSH1 1 ADD DUP1 PUSH 1200 GT PUSH @loop JUMPI
    POP PUSH 0x1235 EQ PUSH @win JUMPI STOP win: JUMPDEST INVALID
    """
)


def test_a_long_loop_keeps_the_campaign_within_its_budget():
    budget = 3.0
    started = time.monotonic()
    config = quick_config(timeout=budget, generations=None)
    report = run_campaign(MAGIC_ABI, LONG_LOOP, config=config)
    assert time.monotonic() - started < budget + INPUT_WALL_CAP
    assert report["solver"]["attempts"] > 0


def test_the_budget_is_checked_between_individuals(monkeypatch):
    campaign = Campaign(SLOW_ABI, SLOW_LOOP, config=quick_config(timeout=0.05))
    started = time.monotonic()
    report = campaign.run()
    assert time.monotonic() - started < 0.05 + INPUT_WALL_CAP
    # the cut population still gets its series point, and nothing evolves
    assert 0 < report["executions"] < campaign.engine.population_size
    assert len(report["series"]) == 1 and report["generations"] == 0

    # every input of one individual would loop until its wall cap: the budget
    # cuts the first short and ends the rest before their first step
    cap = 0.2
    monkeypatch.setattr(campaign_module, "INPUT_WALL_CAP", cap)
    campaign = Campaign(SLOW_ABI, ENDLESS_LOOP, config=quick_config(timeout=0.05))
    sender = campaign.state.accounts.benign
    looping = Individual([Input(fn, sender) for fn in SLOW_ABI.functions[:5]])
    monkeypatch.setattr(campaign.engine, "initial_population", lambda: [looping])
    started = time.monotonic()
    report = campaign.run()
    assert time.monotonic() - started < 0.05 + cap
    assert report["executions"] == 5
    assert len(report["series"]) == 1 and report["generations"] == 0


# writes slot 7 only for one specific caller, an address outside the fuzzed
# account set — only a replayed setup transaction can reach the store
PRIVILEGED = 0x00000000000000000000000000000000000D00D5

PRIVILEGED_SETTER = assemble(
    f"""
    CALLER
    PUSH20 0x{PRIVILEGED:040x}
    EQ
    PUSH @write
    JUMPI
    STOP
write:
    JUMPDEST
    PUSH1 0x01
    PUSH1 0x07
    SSTORE
    STOP
"""
)


def test_initial_state_transactions_apply_before_the_snapshot():
    config = CampaignConfig(
        initial_state=({"from": f"{PRIVILEGED:#x}", "data": "0x"},)
    )
    campaign = Campaign(EMPTY_ABI, PRIVILEGED_SETTER, config=config)
    assert campaign.state.sload(campaign.address, 7) == 1
    # the write must survive the per-individual restore
    campaign.state.restore(campaign._base)
    assert campaign.state.sload(campaign.address, 7) == 1


def test_initial_state_value_defaults_to_the_contract():
    from evmfuzz.evm.state import ATTACKER_1

    config = CampaignConfig(initial_state=({"from": ATTACKER_1, "value": 5},))
    campaign = Campaign(EMPTY_ABI, PRIVILEGED_SETTER, config=config)
    assert campaign.state.balance_of(campaign.address) == 5


@pytest.mark.parametrize("tx, bad", [
    ({"from": "0x10", "value": -5}, "value"),
    ({"from": 1 << 170}, "from"),
    ({"from": "0x10", "to": hex(1 << 160)}, "to"),
    ({"from": "0x10", "timestamp": 1 << 256}, "timestamp"),  # would wrap to 0
])
def test_initial_state_is_checked_when_the_config_is_built(tx, bad, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a warm-up transaction ran")

    monkeypatch.setattr(Interpreter, "execute", never)
    with pytest.raises(ValueError, match=f"^{bad} .* is out of range$"):
        Campaign(EMPTY_ABI, PRIVILEGED_SETTER, config=CampaignConfig(initial_state=(tx,)))


def test_an_initial_state_timestamp_fills_a_word():
    from evmfuzz.evm.state import ATTACKER_1

    top = (1 << 256) - 1
    config = CampaignConfig(initial_state=({"from": ATTACKER_1, "timestamp": top},))
    campaign = Campaign(EMPTY_ABI, assemble("TIMESTAMP PUSH1 0 SSTORE STOP"), config=config)
    assert campaign.state.sload(campaign.address, 0) == top


@pytest.mark.parametrize("field, value", [
    ("timeout", float("nan")),  # no deadline compares past NaN: the run would never end
    ("timeout", -1.0),
    ("generations", -3),
])
def test_a_config_rejects_a_budget_no_run_could_keep(field, value):
    with pytest.raises(ValueError, match=f"^{field} {value} is "):
        CampaignConfig(**{field: value})


def test_a_config_cannot_change_after_its_checks_ran():
    from evmfuzz.evm.state import ATTACKER_1

    tx = {"from": ATTACKER_1, "value": 5}
    config = CampaignConfig(initial_state=(tx,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.initial_state = ({"from": ATTACKER_1, "value": -5},)
    with pytest.raises(TypeError):
        config.initial_state[0]["value"] = -5
    tx["value"] = -5  # the caller's own dict
    campaign = Campaign(EMPTY_ABI, assemble("STOP"), config=config)
    assert campaign.state.balance_of(campaign.address) == 5


def test_initial_state_is_echoed_in_the_report_config():
    txs = ({"from": f"{PRIVILEGED:#x}", "value": 0, "data": "0x"},)
    report = run_campaign(
        EMPTY_ABI,
        PRIVILEGED_SETTER,
        config=quick_config(generations=0, initial_state=txs),
    )
    assert report["config"]["initial_state"] == [dict(txs[0])]


# ---------------------------------------------------------------------------
# process accounting: toggles must actually disable the subsystem


def test_disabled_solver_never_probes_or_spawns(monkeypatch):
    import evmfuzz.analysis.solver as solver_mod

    calls = []
    monkeypatch.setattr(
        solver_mod.shutil, "which", lambda *a, **k: calls.append(("which", a)) or None
    )
    monkeypatch.setattr(
        solver_mod.subprocess,
        "run",
        lambda *a, **k: calls.append(("run", a)) or None,
    )
    report = run_campaign(
        MAGIC_ABI, MAGIC_GUARD, config=quick_config(solver_enabled=False)
    )
    assert calls == []
    assert report["solver"]["attempts"] == 0


def test_building_a_campaign_probes_nothing(monkeypatch):
    import shutil

    def probe(*args, **kwargs):
        raise AssertionError("a campaign looked for a solver on PATH")

    monkeypatch.setattr(shutil, "which", probe)
    campaign = Campaign(MAGIC_ABI, MAGIC_GUARD, config=quick_config())
    assert campaign.bridge.external is None  # no command line given: internal only
    campaign.run()


def test_explicit_solver_argv_reaches_the_subprocess(monkeypatch, tmp_path):
    import evmfuzz.analysis.solver as solver_mod

    spawned = []

    def fake_run(argv, **kwargs):
        spawned.append(list(argv))
        raise FileNotFoundError(argv[0])

    monkeypatch.setattr(solver_mod.subprocess, "run", fake_run)
    report = run_campaign(
        MAGIC_ABI,
        MAGIC_GUARD,
        config=quick_config(solver_argv=("/opt/fake-smt", "-in")),
    )
    assert spawned and spawned[0][0] == "/opt/fake-smt"
    # the external route failing must not kill the run; the fallback still
    # gets to answer
    assert report["solver"]["attempts"] > 0


# ---------------------------------------------------------------------------
# memoized outcomes


CORPUS = [TOKEN_SALE, SAFE_ASSERT, GUARDED_ADD, OWNED_PROXY, *MINI_CORPUS.values()]


def fixture_report(compiled, generations=15, **switches) -> dict:
    report = run_campaign(
        compiled.abi(),
        compiled.runtime,
        creation_code=compiled.creation,
        constructor_args=compiled.constructor_args,
        config=CampaignConfig(seed=1, generations=generations, **switches),
        contract_balance=compiled.contract_balance,
    )
    # timing fields aside
    del report["elapsed_seconds"]
    report["series"] = [coverage for _, coverage in report["series"]]
    return report


# sha256 prefix of a seeded TOKEN_SALE report, timing fields aside, with one
# ablation switch off
ABLATION_REPORTS = {
    "raw_aware": "874f40f5e04e784a",
    "env_fuzzing": "7f619e54075a8f27",
    "solver_enabled": "01acad2bfaf31e52",
}


@pytest.mark.parametrize("switch", sorted(ABLATION_REPORTS))
def test_a_seeded_report_with_one_switch_off_is_pinned(switch):
    report = fixture_report(TOKEN_SALE, **{switch: False})
    assert report["config"][{"solver_enabled": "solver"}.get(switch, switch)] is False
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == ABLATION_REPORTS[switch]


def test_the_memos_change_no_report(monkeypatch):
    executions, runs, walks = [], [], []
    shipped_execute, shipped_run = Interpreter.execute, Interpreter._run
    shipped_walk = taint_module._Walker.walk
    monkeypatch.setattr(Interpreter, "execute",
                        lambda *args: executions.append(None) or shipped_execute(*args))
    monkeypatch.setattr(Interpreter, "_run",
                        lambda *args: runs.append(None) or shipped_run(*args))
    monkeypatch.setattr(taint_module._Walker, "walk",
                        lambda walker: walks.append(None) or shipped_walk(walker))
    memoized = [fixture_report(compiled) for compiled in CORPUS]
    # executions whose reads are equal share one run and one trace, and a
    # trace met again is not walked again
    assert 0 < len(runs) < len(executions) and len(walks) < len(executions)
    monkeypatch.setattr(interpreter_module, "OUTCOME_MEMO_ENTRIES", 0)
    walked = []

    def keeping_traces(inputs, traces, plans):
        walked.extend(traces)
        return shipped_taint(inputs, traces, plans)

    shipped_taint = campaign_module.taint_individual
    monkeypatch.setattr(campaign_module, "taint_individual", keeping_traces)
    assert [fixture_report(compiled) for compiled in CORPUS] == memoized
    # every run got a fresh trace, so no walk was repeated on one
    assert walked and max(len(trace.walks) for trace in walked) == 1


def test_every_outcome_equals_a_fresh_run_of_its_transaction(monkeypatch):
    # each execution is checked against a memo-less interpreter started
    # from a copy of its pre-state
    hits, checking = [], []
    shipped_execute, shipped_run = Interpreter.execute, Interpreter._run

    def running(interpreter, *args):
        if checking and interpreter is checking[-1]:  # not a deploy
            hits[-1] = False
        return shipped_run(interpreter, *args)

    def checked(interpreter, state, tx, env=None, deadline=None):
        pre = EmulatedState(state.accounts)
        pre.restore(state.snapshot())
        hits.append(True)
        checking.append(interpreter)
        trace = shipped_execute(interpreter, state, tx, env, deadline)
        fresh = shipped_execute(Interpreter(), pre, tx, env)
        if trace.terminal != "TIMEOUT":
            for field in dataclasses.fields(trace):
                if field.compare:
                    assert getattr(trace, field.name) == getattr(fresh, field.name), field.name
            assert trace.facts == fresh.facts
            assert state.snapshot() == pre.snapshot()
        return trace

    monkeypatch.setattr(Interpreter, "execute", checked)
    monkeypatch.setattr(Interpreter, "_run", running)
    for compiled in CORPUS:
        fixture_report(compiled, generations=30)
    # most executions were memo hits, which the check would catch out
    assert 2 * sum(hits) > len(hits)


def test_every_input_run_keeps_the_transaction_its_fields_build(monkeypatch):
    # an input keeps the transaction it built, so one written to after it
    # ran would execute a stale transaction: each one a campaign ran must
    # still equal, field by field, the one its input builds afresh
    built = []
    shipped = Input.transaction

    def keeping(inp, to):
        tx = shipped(inp, to)
        built.append((inp, to, tx))
        return tx

    monkeypatch.setattr(Input, "transaction", keeping)
    for compiled in CORPUS:
        fixture_report(compiled)
    for inp, to, tx in built:
        assert tx == Transaction(inp.sender, to, inp.value, inp.gas_limit, inp.calldata())
    # and shared inputs do reuse what they built
    assert len({id(tx) for _, _, tx in built}) < len(built)


# ---------------------------------------------------------------------------
# the deployer's first child address


def test_the_deployer_child_literal_is_its_hash():
    assert DEPLOYER_CHILD == child_address(DEPLOYER, 0)
    # later nonces still hash
    state = EmulatedState()
    assert new_address(state, DEPLOYER) == DEPLOYER_CHILD
    assert new_address(state, DEPLOYER) == child_address(DEPLOYER, 1)


CREATOR = assemble("PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE STOP")


def test_a_contract_lands_at_the_deployer_child_however_it_is_installed():
    installed = Campaign(EMPTY_ABI, CREATOR, config=quick_config())
    deployed = Campaign(
        EMPTY_ABI, b"", creation_code=creation_wrapper(CREATOR), config=quick_config()
    )
    assert installed.address == deployed.address == DEPLOYER_CHILD
    assert deployed.state.code[DEPLOYER_CHILD] == CREATOR


def test_a_create_from_the_contract_still_hashes_its_address():
    campaign = Campaign(EMPTY_ABI, CREATOR, config=quick_config())
    nonce = campaign.state.nonces.get(campaign.address, 0)
    tx = Transaction(campaign.state.accounts.benign, campaign.address, 0, 100_000, b"")
    trace = campaign.interpreter.execute(campaign.state, tx, EnvOverrides())
    [event] = trace.calls
    assert event.op == "CREATE" and event.to == child_address(campaign.address, nonce)
