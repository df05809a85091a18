import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.abi import parse_abi
from evmfuzz.evm import ExecutionTrace
from evmfuzz.evm.state import AccountSet
from evmfuzz.ga import (
    CircularBuffer,
    Evaluation,
    GaConfig,
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


def make_engine(seed=7, **config_kwargs):
    return GeneticEngine(
        random.Random(seed),
        parse_abi(ABI_JSON),
        ACCOUNTS,
        CONTRACT,
        GaConfig(**config_kwargs) if config_kwargs else None,
    )


def trace_with(ops, pcs, stacks, applied=True):
    return ExecutionTrace(ops, pcs, stacks, terminal="STOP", state_delta_applied=applied)


# ---------------------------------------------------------------------------
# fitness


def test_fitness_counts_unseen_branch_destinations_per_occurrence():
    # dests 40 and 11, then the same site again
    trace = trace_with(["JUMPI", "JUMPI"], [10, 10], [(1, 40), (0, 40)])
    assert compute_fitness([trace], frozenset()) == 4.0
    assert compute_fitness([trace], frozenset({11})) == 2.0
    assert compute_fitness([trace], frozenset({11, 40})) == 0.0


def test_fitness_counts_applied_writes_only():
    write = (["SSTORE"], [5], [(7, 0)])
    assert compute_fitness([trace_with(*write, applied=True)], frozenset()) == 1.0
    assert compute_fitness([trace_with(*write, applied=False)], frozenset()) == 0.0


def test_fitness_sums_across_traces():
    jumpi = trace_with(["JUMPI"], [3], [(1, 9)])
    store = trace_with(["SSTORE"], [5], [(7, 0)])
    assert compute_fitness([jumpi, store], frozenset()) == 3.0


# ---------------------------------------------------------------------------
# ranking selection


def test_ranking_order_is_stable_for_ties():
    assert ranking_order([3.0, 1.0, 2.0, 2.0]) == [1, 2, 3, 0]


def test_linear_ranking_distribution():
    fitnesses = [3.0, 1.0, 2.0, 2.0]
    n = len(fitnesses)
    draws = 100_000
    rng = random.Random(12345)
    counts = [0] * n
    for _ in range(draws):
        counts[select_ranked(rng, fitnesses)] += 1
    # index -> rank: 1 has rank 1, 2 rank 2, 3 rank 3, 0 rank 4
    for index, rank in [(1, 1), (2, 2), (3, 3), (0, 4)]:
        p = 2 * rank / (n * (n + 1))
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[index] - draws * p) < 3 * sigma, (index, counts)


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
            assert "callvalue" in inp.pool_tags
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


def test_crossover_puts_writer_first():
    engine = make_engine(crossover_probability=1.0, mutation_probability=0.0)
    population = engine.initial_population()
    a, b = population[0], population[1]

    child = engine.crossover(a, b, eval_with(writes={5}), eval_with(reads={5}))
    assert [i.fn.name for i in child.inputs] == ["buy", "withdraw"]

    child = engine.crossover(a, b, eval_with(reads={5}), eval_with(writes={5}))
    assert [i.fn.name for i in child.inputs] == ["withdraw", "buy"]

    child = engine.crossover(a, b, eval_with(), eval_with())
    assert [i.fn.name for i in child.inputs] == ["buy", "withdraw"]


def test_crossover_never_exceeds_max_inputs():
    engine = make_engine(crossover_probability=1.0)
    base = engine.initial_population()
    a = Individual([base[0].inputs[0].copy() for _ in range(3)])
    b = Individual([base[1].inputs[0].copy() for _ in range(3)])
    child = engine.crossover(a, b, eval_with(writes={1}), eval_with(reads={1}))
    assert len(child) == 3  # too long to merge: copy of the first parent
    assert [i.fn.name for i in child.inputs] == ["buy", "buy", "buy"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    len_a=st.integers(min_value=1, max_value=5),
    len_b=st.integers(min_value=1, max_value=5),
    linked=st.booleans(),
)
def test_crossover_length_bound_property(seed, len_a, len_b, linked):
    engine = make_engine(seed=seed, crossover_probability=1.0)
    base = engine.initial_population()
    a = Individual([base[0].inputs[0].copy() for _ in range(len_a)])
    b = Individual([base[1].inputs[0].copy() for _ in range(len_b)])
    ea = eval_with(writes={1} if linked else set())
    eb = eval_with(reads={1} if linked else set())
    child = engine.crossover(a, b, ea, eb)
    assert 1 <= len(child) <= engine.config.max_inputs


def test_partner_selection_round_robins_data_linked_individuals():
    engine = make_engine()
    evals = [
        eval_with(writes={5}, fitness=9.0),
        eval_with(reads={5}, fitness=1.0),
        eval_with(reads={5}, fitness=1.0),
        eval_with(fitness=1.0),
    ]
    fitnesses = [e.fitness for e in evals]
    partners = [engine._partner_for(0, evals, fitnesses) for _ in range(4)]
    assert partners == [1, 2, 1, 2]


def test_partner_falls_back_to_ranking_without_links():
    engine = make_engine()
    evals = [eval_with(fitness=1.0), eval_with(fitness=2.0), eval_with(fitness=3.0)]
    partner = engine._partner_for(0, evals, [e.fitness for e in evals])
    assert partner in (0, 1, 2)


def test_mutation_never_touches_selector_and_respects_pools():
    engine = make_engine(mutation_probability=1.0)
    engine.pools.insert("argument", (engine.abi.functions[2].selector, 0), 777)
    engine.pools.insert("timestamp", engine.abi.functions[2].selector, 1_600_000_000)
    individual = Individual([engine.random_input(engine.abi.functions[2])])
    before_fn = individual.inputs[0].fn
    engine.mutate(individual)
    inp = individual.inputs[0]
    assert inp.fn is before_fn
    assert inp.args[0] == 777
    assert inp.env.timestamp == 1_600_000_000
    assert inp.pool_tags["arg_0"] == ("argument", (before_fn.selector, 0), 777)
    assert inp.pool_tags["timestamp"] == ("timestamp", before_fn.selector, 1_600_000_000)


def test_mutation_uses_call_result_registry():
    engine = make_engine(mutation_probability=1.0)
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
        state_delta_applied=True,
        calls=[CallEvent(0, "CALL", 9, 0xCD, 2300, 0, 1, False)],
    )
    engine.observe_trace(trace)
    assert engine.known_callees == {0xCD}
    assert engine.known_extcode_targets == {0xAB}


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


def test_fingerprint_is_content_based():
    engine = make_engine()
    population = engine.initial_population()
    ind = population[0]
    assert ind.fingerprint() == ind.copy().fingerprint()
    assert len(ind.fingerprint()) == 12
    other = ind.copy()
    other.inputs[0].value += 1
    assert other.fingerprint() != ind.fingerprint()


def test_reinitialize_keeps_pools():
    engine = make_engine()
    engine.pools.insert("timestamp", engine.abi.functions[0].selector, 42)
    fresh = engine.reinitialize()
    assert len(fresh) == engine.population_size
    assert engine.pools.pick("timestamp", engine.abi.functions[0].selector) == 42
