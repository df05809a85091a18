import hashlib
import json
import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.abi import parse_abi
from evmfuzz.analysis.taint import VAR_KINDS
from evmfuzz.evm import ExecutionTrace
from evmfuzz.evm.interpreter import TraceFacts
from evmfuzz.evm.state import AccountSet
from evmfuzz.ga import engine as engine_module
from evmfuzz.ga import (
    KINDS,
    MAX_INPUTS,
    CircularBuffer,
    Evaluation,
    GeneticEngine,
    Individual,
    MutationPools,
    POOL_CAPACITY,
    compute_fitness,
    ranking_order,
    select_ranked,
)

ABI_JSON = json.dumps([
    {"type": "function", "name": "buy", "inputs": [], "payable": True},
    {"type": "function", "name": "withdraw", "inputs": []},
    {"type": "function", "name": "set",
     "inputs": [{"name": "x", "type": "uint256"}]},
])

CONTRACT = 0xC0DE00000000000000000000000000000000C0DE
ACCOUNTS = AccountSet()


def make_engine(seed=7):
    return GeneticEngine(random.Random(seed), parse_abi(ABI_JSON), ACCOUNTS, CONTRACT)


@pytest.fixture
def always_cross(monkeypatch):
    monkeypatch.setattr(engine_module, "CROSSOVER_PROBABILITY", 1.0)


@pytest.fixture
def always_mutate(monkeypatch):
    monkeypatch.setattr(engine_module, "MUTATION_PROBABILITY", 1.0)


def trace_with(ops, pcs, stacks, applied=True, **facts):
    """A hand-built trace with the ``facts`` its run would have recorded."""
    return ExecutionTrace(ops, pcs, stacks, terminal="STOP" if applied else "REVERT",
                          facts=TraceFacts(**facts))


# ---------------------------------------------------------------------------
# fitness


def test_fitness_counts_unseen_branch_destinations_per_occurrence():
    # dests 40 and 11, then the same site again
    trace = trace_with(["JUMPI", "JUMPI"], [10, 10], [(1, 40), (0, 40)],
                       jumpis=[(10, 40, True), (10, 40, False)])
    assert compute_fitness([trace], frozenset()) == 4.0
    assert compute_fitness([trace], frozenset({11})) == 2.0
    assert compute_fitness([trace], frozenset({11, 40})) == 0.0


def test_fitness_counts_applied_writes_only():
    write = (["SSTORE"], [5], [(7, 0)])
    facts = {"sstores": 1, "write_keys": {0}}
    assert compute_fitness([trace_with(*write, applied=True, **facts)], frozenset()) == 1.0
    assert compute_fitness([trace_with(*write, applied=False, **facts)], frozenset()) == 0.0


def test_fitness_sums_across_traces():
    jumpi = trace_with(["JUMPI"], [3], [(1, 9)], jumpis=[(3, 9, True)])
    store = trace_with(["SSTORE"], [5], [(7, 0)], sstores=1, write_keys={0})
    assert compute_fitness([jumpi, store], frozenset()) == 3.0


# ---------------------------------------------------------------------------
# ranking selection


def test_ranking_order_is_stable_for_ties():
    assert ranking_order([3.0, 1.0, 2.0, 2.0]) == [1, 2, 3, 0]


def ranking_of(fitnesses):
    """(ranking_order, cumulative rank weights), as evolve hands them down."""
    return ranking_order(fitnesses), list(accumulate(range(1, len(fitnesses) + 1)))


def test_linear_ranking_distribution():
    fitnesses = [3.0, 1.0, 2.0, 2.0]
    n = len(fitnesses)
    draws = 100_000
    rng = random.Random(12345)
    counts = [0] * n
    ranking = ranking_of(fitnesses)
    for _ in range(draws):
        counts[select_ranked(rng, ranking)] += 1
    # index -> rank: 1 has rank 1, 2 rank 2, 3 rank 3, 0 rank 4
    for index, rank in [(1, 1), (2, 2), (3, 3), (0, 4)]:
        p = 2 * rank / (n * (n + 1))
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[index] - draws * p) < 3 * sigma, (index, counts)


def test_a_ranked_draw_is_the_weighted_choice_of_its_ranks():
    # cumulative weights take the same single random() as weights by rank
    # and pick the same index, so seeded campaigns breed as they did
    fitnesses = [3.0, 1.0, 2.0, 2.0, 0.5, 7.0]
    order = ranking_order(fitnesses)
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(2000):
        expected = theirs.choices(order, weights=range(1, len(order) + 1))[0]
        assert select_ranked(ours, ranking_of(fitnesses)) == expected


# ---------------------------------------------------------------------------
# pools


def test_insert_at_head_and_evict_oldest():
    buf = CircularBuffer(capacity=3)
    for v in [1, 2, 3, 4]:
        buf.insert(v)
    assert list(buf) == [4, 3, 2]


def test_insert_existing_moves_to_head():
    buf = CircularBuffer(capacity=3)
    for v in [1, 2, 3]:
        buf.insert(v)
    buf.insert(2)
    assert list(buf) == [2, 3, 1]


def test_picks_rotate_round_robin_from_head():
    buf = CircularBuffer()
    for v in [1, 2, 3]:
        buf.insert(v)  # items: [3, 2, 1]
    assert [buf.pick() for _ in range(5)] == [3, 2, 1, 3, 2]


def test_purge_removes_all_occurrences():
    buf = CircularBuffer()
    buf.insert(1)
    buf.insert(2)
    buf.purge(1)
    assert list(buf) == [2]
    buf.purge(2)
    assert buf.pick() is None


def test_pools_keying_and_amount_seed():
    pools = MutationPools()
    assert pools.pick("timestamp", b"\x01\x02\x03\x04") is None
    pools.insert("timestamp", b"\x01\x02\x03\x04", 999)
    assert pools.pick("timestamp", b"\x01\x02\x03\x04") == 999
    assert pools.pick("timestamp", b"\xff\xff\xff\xff") is None  # other key

    assert pools.pick_amount(b"sel1") == 0
    assert pools.pick_amount(b"sel1") == 1
    assert pools.pick_amount(b"sel1") == 0
    pools.insert("amount", b"sel1", 42)
    assert pools.pick_amount(b"sel1") == 42


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "pick", "purge"]),
                  st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=80,
    )
)
def test_pool_invariants_under_random_operations(ops):
    buf = CircularBuffer()
    model: list[int] = []
    for op, value in ops:
        if op == "insert":
            buf.insert(value)
            if value in model:
                model.remove(value)
            model.insert(0, value)
            del model[POOL_CAPACITY:]
        elif op == "pick":
            picked = buf.pick()
            if model:
                assert picked in model
            else:
                assert picked is None
        else:
            buf.purge(value)
            model = [item for item in model if item != value]
        assert list(buf) == model
        assert len(buf) <= POOL_CAPACITY


# ---------------------------------------------------------------------------
# population and variation


def test_initial_population_round_robins_functions():
    engine = make_engine()
    population = engine.initial_population()
    assert len(population) == 6  # 2x three functions
    names = [ind.inputs[0].fn.name for ind in population]
    assert names == ["buy", "withdraw", "set", "buy", "withdraw", "set"]
    assert all(len(ind) == 1 for ind in population)
    for ind in population:
        inp = ind.inputs[0]
        assert inp.sender in ACCOUNTS.all()
        if inp.fn.name == "buy":
            assert inp.value in (0, 1)
            assert ("amount", inp.selector) in inp.pool_tags
        else:
            assert inp.value == 0


def test_fallback_only_abi_still_yields_population():
    engine = GeneticEngine(random.Random(1), parse_abi("[]"), ACCOUNTS, CONTRACT)
    population = engine.initial_population()
    assert len(population) == 2
    assert population[0].inputs[0].fn is None


def eval_with(writes=(), reads=(), fitness=1.0):
    return Evaluation(
        fitness=fitness,
        storage_reads=frozenset(reads),
        storage_writes=frozenset(writes),
    )


def test_crossover_puts_writer_first(always_cross, monkeypatch):
    monkeypatch.setattr(engine_module, "MUTATION_PROBABILITY", 0.0)
    engine = make_engine()
    population = engine.initial_population()
    a, b = population[0], population[1]

    child = engine.crossover(a, b, eval_with(writes={5}), eval_with(reads={5}))
    assert [i.fn.name for i in child.inputs] == ["buy", "withdraw"]

    child = engine.crossover(a, b, eval_with(reads={5}), eval_with(writes={5}))
    assert [i.fn.name for i in child.inputs] == ["withdraw", "buy"]

    child = engine.crossover(a, b, eval_with(), eval_with())
    assert [i.fn.name for i in child.inputs] == ["buy", "withdraw"]


def test_crossover_never_exceeds_max_inputs(always_cross):
    engine = make_engine()
    base = engine.initial_population()
    a = Individual([base[0].inputs[0].copy() for _ in range(3)])
    b = Individual([base[1].inputs[0].copy() for _ in range(3)])
    child = engine.crossover(a, b, eval_with(writes={1}), eval_with(reads={1}))
    assert len(child) == 3  # too long to merge: copy of the first parent
    assert [i.fn.name for i in child.inputs] == ["buy", "buy", "buy"]


def test_the_crossover_log_stops_at_its_cap(always_cross, monkeypatch):
    monkeypatch.setattr(engine_module, "CROSSOVER_LOG_CAP", 2)
    engine = make_engine()
    a, b = engine.initial_population()[:2]
    children = [engine.crossover(a, b, eval_with(), eval_with()) for _ in range(3)]
    assert len(children) == 3
    assert engine.crossover_log == [{
        "first": ["buy"], "second": ["withdraw"], "child": ["buy", "withdraw"],
    }] * 2


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    len_a=st.integers(min_value=1, max_value=5),
    len_b=st.integers(min_value=1, max_value=5),
    linked=st.booleans(),
)
def test_crossover_length_bound_property(seed, len_a, len_b, linked):
    engine = make_engine(seed=seed)
    base = engine.initial_population()
    a = Individual([base[0].inputs[0].copy() for _ in range(len_a)])
    b = Individual([base[1].inputs[0].copy() for _ in range(len_b)])
    ea = eval_with(writes={1} if linked else set())
    eb = eval_with(reads={1} if linked else set())
    with pytest.MonkeyPatch.context() as patch:  # a fixture would outlive one example
        patch.setattr(engine_module, "CROSSOVER_PROBABILITY", 1.0)
        child = engine.crossover(a, b, ea, eb)
    assert 1 <= len(child) <= MAX_INPUTS


def test_partner_selection_round_robins_data_linked_individuals():
    engine = make_engine()
    evals = [
        eval_with(writes={5}, fitness=9.0),
        eval_with(reads={5}, fitness=1.0),
        eval_with(reads={5}, fitness=1.0),
        eval_with(fitness=1.0),
    ]
    ranking = ranking_of([e.fitness for e in evals])
    partners = [engine._partner_for(0, evals, ranking) for _ in range(4)]
    assert partners == [1, 2, 1, 2]


def test_partner_falls_back_to_ranking_without_links():
    engine = make_engine()
    evals = [eval_with(fitness=1.0), eval_with(fitness=2.0), eval_with(fitness=3.0)]
    partner = engine._partner_for(0, evals, ranking_of([e.fitness for e in evals]))
    assert partner in (0, 1, 2)


def test_mutation_never_touches_selector_and_respects_pools(always_mutate):
    engine = make_engine()
    engine.pools.insert("argument", (engine.abi.functions[2].selector, 0), 777)
    engine.pools.insert("timestamp", engine.abi.functions[2].selector, 1_600_000_000)
    individual = Individual([engine.random_input(engine.abi.functions[2])])
    before_fn = individual.inputs[0].fn
    engine.mutate(individual)
    inp = individual.inputs[0]
    assert inp.fn is before_fn
    assert inp.args[0] == 777
    assert inp.env.timestamp == 1_600_000_000
    assert inp.pool_tags["argument", (before_fn.selector, 0)] == 777
    assert inp.pool_tags["timestamp", before_fn.selector] == 1_600_000_000


def test_mutation_uses_call_result_registry(always_mutate):
    engine = make_engine()
    callee = 0x1234
    engine.known_callees.add(callee)
    engine.pools.insert("call_result", callee, (1, b"\x01" * 32))
    individual = Individual([engine.random_input(engine.abi.functions[0])])
    engine.mutate(individual)
    inp = individual.inputs[0]
    assert inp.env.call_results[callee] == (1, b"\x01" * 32)
    assert callee in inp.env.returndata_sizes


def test_observe_trace_populates_registries():
    from evmfuzz.evm import CallEvent

    engine = make_engine()
    trace = ExecutionTrace(
        ops=["EXTCODESIZE"],
        pcs=[4],
        stacks=[(0xAB,)],
        terminal="STOP",
        calls=[CallEvent(0, "CALL", 9, 0xCD, 2300, 0, 1, False)],
        facts=TraceFacts(extcode_targets={0xAB}),
    )
    engine.observe_trace(trace)
    assert engine.known_callees == {0xCD}
    assert engine.known_extcode_targets == {0xAB}
    # the engine takes a trace in once; another engine sharing it still does
    engine.known_callees.clear()
    engine.observe_trace(trace)
    assert engine.known_callees == set()
    other = make_engine()
    other.observe_trace(trace)
    assert other.known_callees == {0xCD} and other.known_extcode_targets == {0xAB}


def test_evolution_is_deterministic_per_seed():
    def run(seed):
        engine = make_engine(seed=seed)
        population = engine.initial_population()
        evals = [eval_with(fitness=float(i), writes={i}, reads={i - 1})
                 for i in range(len(population))]
        for _ in range(3):
            population = engine.evolve(population, evals)
        return [ind.describe() for ind in population]

    assert run(99) == run(99)
    assert run(99) != run(100)


def test_an_input_keeps_its_transaction_per_address():
    inp = make_engine().initial_population()[2].inputs[0]
    tx = inp.transaction(CONTRACT)
    assert inp.transaction(CONTRACT) is tx
    assert inp.copy().transaction(CONTRACT) == tx and inp.copy().transaction(CONTRACT) is not tx
    assert inp.transaction(0xBEEF).to == 0xBEEF


EVOLVE_ABI_JSON = json.dumps([
    {"type": "function", "name": "buy", "inputs": [], "payable": True},
    {"type": "function", "name": "set", "inputs": [{"name": "x", "type": "uint256"}]},
    {"type": "function", "name": "put",
     "inputs": [{"name": "b", "type": "bytes"}, {"name": "xs", "type": "uint8[]"}]},
    {"type": "fallback", "payable": True},
])


def evolving_engine(seed):
    """An engine whose mutation reaches every field: a payable fallback,
    dynamic arguments, pooled values, a known callee and code-size target."""
    engine = GeneticEngine(random.Random(seed), parse_abi(EVOLVE_ABI_JSON), ACCOUNTS, CONTRACT)
    engine.known_callees.add(0x1234)
    engine.known_extcode_targets.add(0xAB)
    selector = engine.abi.functions[1].selector
    engine.pools.insert("argument", (selector, 0), 777)
    engine.pools.insert("timestamp", selector, 1_600_000_000)
    engine.pools.insert("calldata_size", b"", 3)
    return engine


def fixed_evals(population, generation):
    """Evaluations that depend only on the index and the generation; every
    third generation has no storage links, so partners come from ranking."""
    return [
        Evaluation(
            float((index * 7 + generation) % 5),
            frozenset({index % 3}) if generation % 3 else frozenset(),
            frozenset({(index + generation) % 3}),
        )
        for index in range(len(population))
    ]


def test_evolution_draws_are_pinned():
    # every parent, crossover and mutation draw of 20 generations feeds this
    # digest of the populations bred, so a reordered draw moves it
    engine = evolving_engine(18)
    population = engine.initial_population()
    digest = hashlib.sha256()
    for generation in range(20):
        population = engine.evolve(population, fixed_evals(population, generation))
        digest.update(json.dumps([ind.describe() for ind in population], sort_keys=True).encode())
    assert digest.hexdigest()[:16] == "b80d349ad5040f0d"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    mutation=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_evolve_shares_parent_inputs_and_never_writes_them(seed, mutation):
    engine = evolving_engine(seed)
    population = engine.initial_population()
    with pytest.MonkeyPatch.context() as patch:  # a fixture would outlive one example
        patch.setattr(engine_module, "MUTATION_PROBABILITY", mutation)
        for generation in range(6):
            before = [ind.describe() for ind in population]
            held = {id(inp) for ind in population for inp in ind.inputs}
            lists = {id(ind.inputs) for ind in population}
            children = engine.evolve(population, fixed_evals(population, generation))
            assert [ind.describe() for ind in population] == before
            fresh = [id(inp) for ind in children for inp in ind.inputs if id(inp) not in held]
            assert len(fresh) == len(set(fresh))  # a new input belongs to one child
            assert not lists & {id(ind.inputs) for ind in children}
            if mutation == 0.0:
                assert not fresh
            population = children


def test_fingerprint_is_content_based():
    engine = make_engine()
    population = engine.initial_population()
    ind = population[0]
    assert ind.fingerprint() == ind.copy().fingerprint()
    assert len(ind.fingerprint()) == 12
    other = ind.copy()
    other.inputs[0].value += 1
    assert other.fingerprint() != ind.fingerprint()


@pytest.mark.parametrize("sizes", ["returndata_sizes", "extcode_sizes"])
def test_fingerprint_names_the_injected_sizes(sizes):
    # execution reads both maps, so inputs that differ only there must not
    # share a fingerprint (trace dump file names, Finding.individual)
    ind = make_engine().initial_population()[0]
    other = ind.copy()
    getattr(other.inputs[0].env, sizes)[0xCD] = 7
    assert other.fingerprint() != ind.fingerprint()
    assert other.describe()[0][sizes] == {"0xcd": 7}


def test_reinitialize_keeps_pools():
    engine = make_engine()
    engine.pools.insert("timestamp", engine.abi.functions[0].selector, 42)
    fresh = engine.reinitialize()
    assert len(fresh) == engine.population_size
    assert engine.pools.pick("timestamp", engine.abi.functions[0].selector) == 42


def test_every_pool_a_variable_kind_names_is_a_mutation_pool():
    # a solved value goes into its kind's pool: a pool named in one table
    # and missing from the other raises KeyError in the middle of a campaign
    assert set(KINDS) == {pool for pool, _ in VAR_KINDS.values() if pool}
