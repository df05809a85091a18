import gc
import hashlib
import os
import stat
import time
from itertools import combinations, islice
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import expr
from evmfuzz.analysis.expr import MASK, apply, const, dag, evaluate, opaque, var
from evmfuzz.analysis.solver import (
    CandidateSearch,
    ExternalSolver,
    InternalSolver,
    SmtLibWriter,
    SolverBridge,
    _INVERSES,
    _RELATIONS,
    branch_script,
    bv,
    free_variables,
    parse_model,
)
from evmfuzz.analysis.taint import FUZZABLE_KINDS, VAR_KINDS, PathConstraint, parse_var
from evmfuzz.evm.opcodes import signed

from oracles import smt_eval


def smt_value(writer: SmtLibWriter, term, env=None):
    """Convert a term and evaluate the resulting SMT text."""
    body = writer.wrap_lets(writer.convert(term))
    smt_env = {name: ((env or {}).get(name, 0) & MASK, 256) for name in writer.declared}
    value, width = smt_eval.evaluate(smt_eval.parse_all(body)[0], smt_env)
    assert width == 256
    return value


# ---------------------------------------------------------------------------
# SMT emission


def test_constant_emission():
    assert bv(42) == "#x" + "0" * 62 + "2a"
    assert bv(-1) == "#x" + "f" * 64


def test_variable_is_declared():
    writer = SmtLibWriter()
    assert writer.convert(var("callvalue_0")) == "callvalue_0"
    assert writer.declared == {"callvalue_0"}


def test_division_by_zero_guards_to_zero():
    # EVM: x / 0 == 0; raw bvudiv would say all-ones
    writer = SmtLibWriter()
    assert smt_value(writer, apply("div", const(7), const(0))) == 0
    writer = SmtLibWriter()
    assert smt_value(writer, apply("mod", const(7), const(0))) == 0
    writer = SmtLibWriter()
    assert smt_value(writer, apply("sdiv", const(7), const(0))) == 0


def test_addmod_uses_wide_intermediate():
    term = apply("addmod", const(MASK), const(MASK), const(100))
    expected = (MASK + MASK) % 100
    writer = SmtLibWriter()
    assert smt_value(writer, term) == expected == evaluate(term, {})


def test_mulmod_uses_wide_intermediate():
    a = MASK - 3
    term = apply("mulmod", const(a), const(a), const((1 << 200) + 7))
    writer = SmtLibWriter()
    assert smt_value(writer, term) == (a * a) % ((1 << 200) + 7) == evaluate(term, {})


def test_exp_with_constant_exponent_unrolls():
    term = apply("exp", const(3), const(13))
    writer = SmtLibWriter()
    assert smt_value(writer, term) == 3**13
    term = apply("exp", var("arg_0_0"), const(5))
    writer = SmtLibWriter()
    assert smt_value(writer, term, {"arg_0_0": 7}) == 7**5


def test_exp_wraps_like_the_word():
    term = apply("exp", const(2), const(256))
    writer = SmtLibWriter()
    assert smt_value(writer, term) == 0


def test_exp_zero_exponent_is_one():
    writer = SmtLibWriter()
    assert smt_value(writer, apply("exp", var("arg_0_0"), const(0)), {"arg_0_0": 9}) == 1


def test_exp_with_symbolic_exponent_becomes_fresh_variable():
    term = apply("exp", const(2), var("arg_0_0"))
    writer = SmtLibWriter()
    body = writer.convert(term)
    assert body in writer.declared
    assert body != "arg_0_0"


def test_signextend_and_byte_match_word_semantics():
    for k, x in [(0, 0x80), (0, 0x7F), (1, 0x8000), (3, 0xDEADBEEF), (31, 5), (40, 5)]:
        term = apply("signextend", const(k), const(x))
        writer = SmtLibWriter()
        assert smt_value(writer, term) == evaluate(term, {}), (k, x)
    for i in [0, 5, 31, 32, 100]:
        term = apply("byte", const(i), const(0xAABBCC << 160))
        writer = SmtLibWriter()
        assert smt_value(writer, term) == evaluate(term, {}), i


def test_shift_operand_order():
    # term arguments are (shift, value) — EVM stack order — while the SMT
    # functions take (value, shift); getting this backwards is silent death
    writer = SmtLibWriter()
    assert smt_value(writer, apply("shl", const(4), const(1))) == 16
    writer = SmtLibWriter()
    assert smt_value(writer, apply("shr", const(4), const(256))) == 16
    writer = SmtLibWriter()
    assert smt_value(writer, apply("sar", const(1), const(MASK))) == MASK


def test_opaque_terms_get_congruent_fresh_variables():
    hashed = opaque("sha3", 0x1234, var("callvalue_0"))
    same = opaque("sha3", 0x1234, var("callvalue_0"))
    different = opaque("sha3", 0x9999, var("callvalue_0"))
    writer = SmtLibWriter()
    name1 = writer.convert(hashed)
    name2 = writer.convert(same)
    name3 = writer.convert(different)
    assert name1 == name2  # same term, same stand-in
    assert name1 != name3


_VAR_NAMES = ("callvalue_0", "arg_0_0", "timestamp_0")

_leaf = st.one_of(
    st.integers(min_value=0, max_value=MASK).map(const),
    st.integers(min_value=0, max_value=5).map(const),
    st.sampled_from(_VAR_NAMES).map(var),
)

_BINOps = [
    "add", "sub", "mul", "div", "sdiv", "mod", "smod", "lt", "gt", "slt",
    "sgt", "eq", "and", "or", "xor", "shl", "shr", "sar",
]


def _extend(children):
    binary = st.tuples(st.sampled_from(_BINOps), children, children).map(
        lambda t: apply(t[0], t[1], t[2])
    )
    unary = st.tuples(st.sampled_from(["iszero", "not"]), children).map(
        lambda t: apply(t[0], t[1])
    )
    ternary = st.tuples(children, children, children).map(
        lambda t: apply("addmod", *t)
    )
    # exp needs a constant exponent (args[1]); signextend/byte a constant
    # index (args[0]) — symbolic ones legitimately become fresh variables
    powers = st.tuples(children, st.integers(min_value=0, max_value=40)).map(
        lambda t: apply("exp", t[0], const(t[1]))
    )
    indexed = st.tuples(
        st.sampled_from(["signextend", "byte"]),
        st.integers(min_value=0, max_value=40),
        children,
    ).map(lambda t: apply(t[0], const(t[1]), t[2]))
    return st.one_of(binary, unary, ternary, powers, indexed)


_terms = st.recursive(_leaf, _extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(
    term=_terms,
    values=st.tuples(*[st.integers(min_value=0, max_value=MASK)] * len(_VAR_NAMES)),
)
def test_emitted_smt_means_what_the_term_means(term, values):
    env = dict(zip(_VAR_NAMES, values))
    writer = SmtLibWriter()
    assert smt_value(writer, term, env) == evaluate(term, env)


_DAG_OPS = ("add", "sub", "mul", "xor", "div", "mod", "lt", "eq", "shl", "addmod")
_WORDS_OR_SMALL = st.one_of(st.integers(0, 300), st.integers(0, MASK))


# Terms that share subterms, as taint builds them: each step applies an op to
# earlier nodes, which it may pick more than once.
@st.composite
def _shared_terms(draw):
    nodes = [var(name) for name in _VAR_NAMES] + [const(draw(_WORDS_OR_SMALL))]
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(_DAG_OPS))
        arity = 3 if op == "addmod" else 2
        picks = [draw(st.integers(0, len(nodes) - 1)) for _ in range(arity)]
        nodes.append(apply(op, *(nodes[pick] for pick in picks)))
    return nodes[-1]


# Deep terms that share, as a loop over DUP1 and one word op builds them: a
# leaf taken through 20-60 rounds of a binary op, applied either to the last
# term twice or to it and a constant.  Deeper than the searches' MAX_DEPTH.
# and/or are drawn too: the abstract words and the candidate search take
# and(t, t) and or(t, t) as t, so a chain of them costs its depth, not its
# 2**rounds tree.
@st.composite
def _deep_shared_terms(draw):
    term = draw(st.one_of(st.sampled_from(_VAR_NAMES).map(var), _WORDS_OR_SMALL.map(const)))
    for _ in range(draw(st.integers(20, 60))):
        op = draw(st.sampled_from([op for op in _DAG_OPS if op != "addmod"] + ["and", "or"]))
        if draw(st.booleans()):
            term = apply(op, term, term)
        else:
            other = const(draw(_WORDS_OR_SMALL))
            term = apply(op, *((term, other) if draw(st.booleans()) else (other, term)))
    return term


@settings(max_examples=200, deadline=None)
@given(
    term=st.one_of(_shared_terms(), _deep_shared_terms()),
    values=st.tuples(*[st.integers(min_value=0, max_value=MASK)] * len(_VAR_NAMES)),
)
def test_emitted_smt_of_shared_subterms_means_what_the_term_means(term, values):
    env = dict(zip(_VAR_NAMES, values))
    assert smt_value(SmtLibWriter(), term, env) == evaluate(term, env)


def doubled(term, times, op="add"):
    """What ``times`` rounds of DUP1 ADD (or DUP1 ``op``) make of term: one
    shared subterm per round, 2**times leaves as a tree."""
    for _ in range(times):
        term = apply(op, term, term)
    return term


def test_a_shared_subterm_is_written_once():
    x, y = var("arg_0_0"), var("arg_1_0")
    writer = SmtLibWriter()
    assert writer.wrap_lets(writer.convert(doubled(x, 2))) == (
        "(let ((t0 (bvadd arg_0_0 arg_0_0))) (bvadd t0 t0))"
    )
    # equal subterms built apart are one term, so they share one binding too
    apart = apply("add", apply("mul", x, y), apply("mul", x, y))
    assert writer.wrap_lets(writer.convert(apart)) == (
        "(let ((t1 (bvmul arg_0_0 arg_1_0))) (bvadd t1 t1))"
    )
    # a binding lives inside one assertion: the next one binds afresh
    twice = doubled(x, 1)
    pair = apply("add", twice, twice)
    first = writer.wrap_lets(writer.convert(pair))
    assert writer.wrap_lets(writer.convert(pair)) == first.replace("t2", "t3")


def test_lets_and_stand_ins_are_numbered_in_walk_order():
    x, y = var("arg_0_0"), var("callvalue_0")
    a, b = apply("add", x, y), apply("mul", y, x)
    first, second = opaque("sha3", 1, x), opaque("sha3", 2, a)
    term = apply("xor", apply("sub", b, second),
                 apply("add", apply("div", first, a), apply("mul", b, apply("exp", a, const(3)))))
    writer = SmtLibWriter()
    zero = bv(0)
    assert writer.wrap_lets(writer.convert(term)) == (
        "(let ((t0 (bvmul callvalue_0 arg_0_0))) (let ((t1 (bvadd arg_0_0 callvalue_0)))"
        " (let ((t2 t1)) (let ((t3 t1)) (let ((t4 (bvmul t3 t3))) (let ((t5 (bvmul t3 t4)))"
        f" (bvxor (bvsub t0 sha3_f0) (bvadd (ite (= t2 {zero}) {zero} (bvudiv sha3_f1 t2))"
        " (bvmul t0 t5)))))))))"
    )


def test_a_long_doubling_chain_costs_its_dag_not_its_tree():
    # eq(0x1235, x * 2**22): a tree of 4 million leaves
    x = var("arg_0_0")
    cond = apply("eq", const(0x1235), doubled(x, 22))
    solver = InternalSolver()
    started = time.monotonic()
    result = solver.solve([_constraint(cond, taken=False)], 0, {"arg_0_0": 3})
    assert time.monotonic() - started < 1.0
    assert result.status in ("unknown", "unsat")  # 0x1235 is odd: no model exists
    started = time.monotonic()
    assert solver._constants(cond) == [0x1235]
    assert time.monotonic() - started < 1.0
    started = time.monotonic()
    script, free = branch_script([_constraint(cond, taken=False)], 0, {"arg_0_0": 3})
    assert time.monotonic() - started < 1.0
    assert free == {"arg_0_0"} and len(script) < 10_000
    assert smt_value(SmtLibWriter(), doubled(x, 22), {"arg_0_0": 3}) == 3 << 22
    # past the searches' depth, where every way down the tree is a dead end
    cond = apply("eq", const(0x1235), doubled(x, 64))
    started = time.monotonic()
    result = solver.solve([_constraint(cond, taken=False)], 0, {"arg_0_0": 3})
    assert time.monotonic() - started < 1.0
    assert result.status in ("unknown", "unsat")


@pytest.mark.parametrize("rounds", [1, 20, 24, 25, 26, 64])
def test_a_doubling_chain_is_proven_unsat_at_once(rounds):
    # add(t, t) is judged as shl(1, t): x * 2**rounds is even, 0x1235 is odd
    x = var("arg_0_0")
    chain = doubled(x, rounds)
    solver = InternalSolver()
    shifted = apply("shl", const(1), doubled(x, rounds - 1))
    assert solver._abstract(chain, {}) == solver._abstract(shifted, {})
    cond = apply("eq", const(0x1235), chain)
    started = time.monotonic()
    result = solver.solve([_constraint(cond, taken=False)], 0, {"arg_0_0": 3})
    assert time.monotonic() - started < 0.1
    assert result.status == "unsat"


@pytest.mark.parametrize("op", ["and", "or"])
def test_a_chain_of_and_or_over_one_operand_costs_its_depth(op):
    # and(t, t) and or(t, t) are t: judged and solved as t, they answer at
    # once where their 2**rounds tree ran past any budget
    x = var("arg_0_0")
    solver = InternalSolver()
    for rounds in (20, 26, 200):
        chain = doubled(x, rounds, op)
        started = time.monotonic()
        assert solver._can_be(chain, True) and solver._can_be(chain, False)
        guard = doubled(apply("eq", x, const(0x1235)), rounds, op)
        result = solver.solve([_constraint(guard, taken=False)], 0, {"arg_0_0": 3})
        assert time.monotonic() - started < 1.0, rounds
        assert result.status == "sat" and result.model == {"arg_0_0": 0x1235}
        result = solver.solve([_constraint(guard, taken=True)], 0, {"arg_0_0": 0x1235})
        assert result.status == "sat" and result.model["arg_0_0"] != 0x1235


def shared_chain(cond, rounds, second):
    """``rounds`` levels of and(t, second(t)) over cond: each level reaches t
    through two different objects, so its tree has 2**rounds copies of cond."""
    for _ in range(rounds):
        cond = apply("and", cond, second(cond))
    return cond


_SECOND_OPERANDS = {
    "or": lambda t: apply("or", t, const(0)),
    "iszero": lambda t: apply("iszero", apply("iszero", t)),
}


@pytest.mark.parametrize("second", sorted(_SECOND_OPERANDS))
@pytest.mark.parametrize("rounds", [24, 30, 60])
def test_a_chain_whose_and_operands_share_a_condition_is_judged_at_once(second, rounds):
    # the unsat proof is one walk over the condition's DAG: each shared
    # subterm gets its abstract word once, however many ways it is reached
    chain = shared_chain(apply("lt", var("arg_0_0"), const(5)), rounds, _SECOND_OPERANDS[second])
    solver = InternalSolver()
    for want in (True, False):
        started = time.perf_counter()
        assert solver._can_be(chain, want)
        assert time.perf_counter() - started < 0.01, want


def wide_or_guard(n):
    """x == 7 and no k < n with arg_k < 100, x being arg_0, observed with
    every arg_k at 200: each of the 2**n ways to make the or false sets x to
    100 or 101, so the search merges none of them with x == 7."""
    either = apply("lt", var("arg_0_0"), const(100))
    for k in range(1, n):
        either = apply("or", either, apply("lt", var(f"arg_{k}_0"), const(100)))
    guard = apply("and", apply("eq", var("arg_0_0"), const(7)), apply("iszero", either))
    return guard, {f"arg_{k}_0": 200 for k in range(n)}


@pytest.fixture
def collector_paused():
    # a full collection of a test process's heap takes 20-60 ms, as long as
    # the bounds timed below, and can start inside any timed call
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_the_search_answers_to_its_deadline_while_it_draws_a_candidate(collector_paused):
    # each stream of these chains is drawn once per query, so the search
    # costs their DAG and finds a candidate at once, either way
    solver = InternalSolver()
    for rounds in (12, 14, 16, 18, 24, 30):
        chain = shared_chain(apply("lt", var("arg_0_0"), const(5)), rounds, _SECOND_OPERANDS["or"])
        for taken, observed in ((False, 9), (True, 1)):
            started = time.monotonic()
            result = solver.solve([_constraint(chain, taken)], 0, {"arg_0_0": observed}, started + 0.5)
            assert time.monotonic() - started < 0.05, (rounds, taken)
            assert result.status == "sat"
    # wanting such a chain false, the search forks at every level: past the
    # deadline it stops forking, so it unwinds at once
    for rounds in (18, 30):
        chain = shared_chain(apply("lt", var("arg_0_0"), const(5)), rounds, _SECOND_OPERANDS["or"])
        started = time.monotonic()
        result = solver.solve([_constraint(chain, taken=True)], 0, {"arg_0_0": 1}, started)
        assert time.monotonic() - started < 0.1, rounds
        assert result.status == "timeout"
    # no candidate comes out of this search in time: the clock is read while
    # it draws one
    guard, values = wide_or_guard(18)
    started = time.monotonic()
    result = solver.solve([_constraint(guard, taken=False)], 0, values, started + 0.2)
    assert time.monotonic() - started < 0.25
    assert result.status == "timeout"


def test_the_search_costs_a_conditions_dag_not_its_tree(monkeypatch):
    # and(c, or(c, 0)) x n reaches c through 2**n paths; each (search,
    # subterm, goal, depth) is searched once per query, so the searches grow
    # with n and the depth, and the shared sibling mul(storage_1, 3), the
    # other side of each comparison, is evaluated once
    mul, calls, searched = expr.OPS["mul"], [], []
    monkeypatch.setitem(expr.OPS, "mul", lambda a, b: calls.append(a) or mul(a, b))
    for name in ("solve_bool", "unify"):
        def counting(self, term, goal, depth, search=getattr(CandidateSearch, name)):
            searched.append((search, id(term), goal, depth))
            return search(self, term, goal, depth)
        monkeypatch.setattr(CandidateSearch, name, counting)
    bound = apply("mul", var("storage_1"), const(3))
    env = {"arg_0_0": 9, "storage_1": 2}
    for rounds in (6, 12, 18, 24, 30):
        chain = shared_chain(apply("lt", var("arg_0_0"), bound), rounds, _SECOND_OPERANDS["or"])
        for want in (True, False):
            calls.clear()
            searched.clear()
            search = CandidateSearch(chain, env, frozenset({"arg_0_0"}), None)
            list(islice(search.stream(search.solve_bool, chain, want, 0), 64))
            assert len(calls) == 1, (rounds, want)
            assert len(set(searched)) == len(searched) <= 4 * rounds * (InternalSolver.MAX_DEPTH + 1)
    # the memo lives with its query: the solver keeps nothing between calls
    solver = InternalSolver()
    assert solver.solve([_constraint(chain, taken=False)], 0, env).status == "sat"
    assert vars(solver) == {}
    # a stream keeps at most MAX_CANDIDATES items: the 2**10 ways to make
    # this or false are drawn, not kept
    guard, values = wide_or_guard(10)
    search = CandidateSearch(guard, values, frozenset(values), None)
    assert list(search.stream(search.solve_bool, guard, True, 0)) == [{"arg_0_0": 7}]
    assert max(len(kept) for kept, _ in search.streams.values()) <= InternalSolver.MAX_CANDIDATES


def _exactly(value):
    return (MASK, value, value, value)


def test_relations_and_iszero_are_exact_where_their_operands_decide_them():
    x, y = var("arg_0_0"), var("arg_1_0")
    solver = InternalSolver()
    assert solver._abstract(apply("lt", const(3), const(5)), {}) == _exactly(1)
    assert solver._abstract(apply("lt", x, const(0)), {}) == _exactly(0)
    assert solver._abstract(apply("lt", x, y), {}) == (MASK ^ 1, 0, 0, 1)
    assert solver._abstract(apply("iszero", const(0)), {}) == _exactly(1)
    assert solver._abstract(apply("iszero", apply("or", x, const(1))), {}) == _exactly(0)
    assert solver._abstract(apply("iszero", x), {}) == (MASK ^ 1, 0, 0, 1)
    # a | b is at least max(a, b): here a is 1 or 2, with no bit known to be
    # set, and the or still cannot be zero
    one_or_two = apply("div", apply("or", y, const(1 << 255)), const((1 << 255) - 1))
    assert solver._abstract(one_or_two, {})[2:] == (1, 2)
    either = apply("or", one_or_two, x)
    assert solver._abstract(either, {})[2] == 1
    assert not solver._can_be(apply("iszero", either), True)
    assert not solver._can_be(either, False)
    # and(t, t) and or(t, t), one operand object twice, are t's word: the
    # rules for two independent operands would widen it to [0, 3] and [1, 3]
    for op in ("and", "or"):
        assert solver._abstract(apply(op, one_or_two, one_or_two), {})[2:] == (1, 2)


def test_an_addend_built_apart_from_its_twin_is_judged_as_a_shift():
    # one term per value: add(x, x'), x' built apart from x, is add(x, x)
    x, twin = (apply("mul", var("arg_0_0"), const(3)) for _ in range(2))
    solver = InternalSolver()
    assert solver._abstract(apply("add", x, twin), {}) == (
        solver._abstract(apply("shl", const(1), x), {})
    )


def test_an_and_of_a_condition_and_its_twin_draws_what_the_condition_draws():
    # and(c, c'), c' built apart from c, is and(c, c): searched as c, once
    c, c_apart = (apply("lt", var("arg_0_0"), apply("mul", var("storage_1"), const(3)))
                  for _ in range(2))
    env, free = {"arg_0_0": 9, "storage_1": 2}, frozenset({"arg_0_0"})
    for want in (True, False):
        both = apply("and", c, c_apart)
        search = CandidateSearch(both, env, free, None)
        drawn = list(search.stream(search.solve_bool, both, want, 0))
        search = CandidateSearch(c, env, free, None)
        assert drawn == list(search.stream(search.solve_bool, c, want, 0))
        assert drawn


def test_the_solver_and_the_writer_walk_a_deep_chain_without_the_stack():
    # a loop that adds 1 to a word 5 000 times, far deeper than the
    # interpreter's recursion limit
    chain = var("arg_0_0")
    for depth in range(1, 5001):
        chain = apply("add", chain, const(1))
        if depth == 200:
            shallow = chain
    solver = InternalSolver()
    assert solver._constants(apply("eq", chain, const(0x1235))) == [1] * 32
    exact = const(7)
    for _ in range(5000):
        exact = apply("add", exact, const(1))
    assert solver._abstract(exact, {}) == (MASK, 5007, 5007, 5007)
    writer = SmtLibWriter()
    assert len(writer.wrap_lets(writer.convert(chain))) > 5000 * len(bv(1))
    assert smt_value(SmtLibWriter(), shallow, {"arg_0_0": 3}) == 203


# ---------------------------------------------------------------------------
# scripts and models


def _constraint(cond, taken, pc=10):
    return PathConstraint(pc=pc, cond=cond, taken=taken)


def test_branch_script_negates_target_and_keeps_prefix():
    prefix = _constraint(apply("eq", var("arg_0_0"), const(5)), taken=True)
    target = _constraint(apply("lt", var("callvalue_0"), const(100)), taken=True, pc=20)
    script, free = branch_script([prefix, target], 1, {"arg_0_0": 5, "callvalue_0": 3})
    assert free == {"callvalue_0"}
    assert "(check-sat)" in script and "(get-model)" in script
    # a model that keeps the prefix and flips the branch satisfies the script
    assert smt_eval.check_model(script, {"arg_0_0": 5, "callvalue_0": 100})
    # the observed values satisfy the prefix but not the negated target
    assert not smt_eval.check_model(script, {"arg_0_0": 5, "callvalue_0": 3})
    # breaking the pinned prefix variable also fails
    assert not smt_eval.check_model(script, {"arg_0_0": 6, "callvalue_0": 100})


def test_branch_script_pins_only_non_free_variables():
    prefix = _constraint(apply("eq", var("arg_0_0"), const(5)), taken=True)
    target = _constraint(var("callvalue_0"), taken=False, pc=20)
    script, free = branch_script([prefix, target], 1, {"arg_0_0": 5, "callvalue_0": 0})
    assert f"(assert (= arg_0_0 {bv(5)}))" in script
    assert "(assert (= callvalue_0" not in script  # negation: yes, pin: no
    assert smt_eval.check_model(script, {"arg_0_0": 5, "callvalue_0": 77})


def test_branch_script_declares_every_variable_once():
    target = _constraint(
        apply("add", var("callvalue_0"), apply("mul", var("arg_0_0"), var("arg_0_0"))),
        taken=False,
    )
    script, _ = branch_script([target], 0, {})
    assert script.count("(declare-fun callvalue_0 () (_ BitVec 256))") == 1
    assert script.count("(declare-fun arg_0_0 () (_ BitVec 256))") == 1


def test_parse_model_reads_solver_output():
    output = """sat
(
  (define-fun callvalue_0 () (_ BitVec 256)
    #x000000000000000000000000000000000000000000000000000000000000002a)
  (define-fun arg_0_0 () (_ BitVec 256) #b101)
)
"""
    model = parse_model(output)
    assert model == {"callvalue_0": 42, "arg_0_0": 5}


def test_free_variables_excludes_unfuzzable_kinds():
    cond = apply(
        "eq",
        apply("add", var("callvalue_0"), var("storage_5")),
        var("balance_0"),
    )
    assert free_variables(cond) == {"callvalue_0"}


# one name of every variable kind, as the taint walk spells it
NAME_OF_KIND = {
    "callvalue": "callvalue_0", "caller": "caller_1", "origin": "origin_0",
    "timestamp": "timestamp_2", "blocknumber": "blocknumber_0",
    "calldatasize": "calldatasize_1", "gas": "gas_0", "arg": "arg_1_0",
    "callres": "callres_0_9999", "callret": "callret_1_9999_w2",
    "retsize": "retsize_0_9999", "extcode": "extcode_2_ab", "calldata": "calldata_36_0",
    "balance": "balance_0", "blockhash": "blockhash_1", "storage": "storage_ff",
}


def test_free_variables_agree_with_the_kind_table():
    assert set(NAME_OF_KIND) == set(VAR_KINDS)
    names = sorted(NAME_OF_KIND.values())
    for size in (0, 1, 2, len(names)):
        for chosen in combinations(names, size):
            cond = const(1)
            for name in chosen:
                cond = apply("add", cond, var(name))
            expected = {name for name in chosen if parse_var(name).kind in FUZZABLE_KINDS}
            assert free_variables(cond) == expected


# ---------------------------------------------------------------------------
# external process handling


def _mock_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return [str(path)]


SAT_REPLY = """cat > /dev/null
echo sat
echo '((define-fun callvalue_0 () (_ BitVec 256) #x{:064x}))'
""".format(42)


def test_external_sat_with_model(tmp_path):
    solver = ExternalSolver(_mock_solver(tmp_path, "sat.sh", SAT_REPLY))
    result = solver.solve("(check-sat)", frozenset({"callvalue_0"}))
    assert result.status == "sat"
    assert result.model == {"callvalue_0": 42}
    assert result.route == "external"


def test_external_model_filtered_to_free_variables(tmp_path):
    solver = ExternalSolver(_mock_solver(tmp_path, "sat.sh", SAT_REPLY))
    result = solver.solve("(check-sat)", frozenset({"arg_0_0"}))
    assert result.status == "sat"
    assert result.model == {}


def test_external_unsat(tmp_path):
    solver = ExternalSolver(_mock_solver(tmp_path, "unsat.sh", "cat > /dev/null\necho unsat\n"))
    assert solver.solve("x", frozenset()).status == "unsat"


def test_external_unknown(tmp_path):
    solver = ExternalSolver(_mock_solver(tmp_path, "unk.sh", "cat > /dev/null\necho unknown\n"))
    assert solver.solve("x", frozenset()).status == "unknown"


def test_external_garbage_is_an_error(tmp_path):
    solver = ExternalSolver(_mock_solver(tmp_path, "bad.sh", "cat > /dev/null\necho whatever\n"))
    assert solver.solve("x", frozenset()).status == "error"


def test_external_missing_binary_is_an_error():
    solver = ExternalSolver(["/nonexistent/solver-binary"])
    assert solver.solve("x", frozenset()).status == "error"


def test_external_hang_times_out(tmp_path):
    solver = ExternalSolver(
        _mock_solver(tmp_path, "slow.sh", "sleep 30\n"), timeout_ms=50
    )
    assert solver.solve("x", frozenset()).status == "timeout"


def test_external_receives_script_on_stdin(tmp_path):
    capture = tmp_path / "captured.smt2"
    body = f"cat > {capture}\necho unsat\n"
    solver = ExternalSolver(_mock_solver(tmp_path, "cap.sh", body))
    solver.solve("(set-logic QF_BV)\n(check-sat)", frozenset())
    assert "(check-sat)" in capture.read_text()


# ---------------------------------------------------------------------------
# internal solver


def _flip(constraints, index, var_values):
    result = InternalSolver().solve(constraints, index, var_values)
    if result.status == "sat":
        # independent replay: model must flip the target and keep the prefix
        env = dict(var_values)
        env.update(result.model)
        for i, pc in enumerate(constraints[: index + 1]):
            want = pc.taken if i != index else not pc.taken
            assert bool(evaluate(pc.cond, env)) == want, (i, result.model)
    return result


def test_equality_guard_flips_to_taken():
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=False)
    result = _flip([c], 0, {"callvalue_0": 7})
    assert result.status == "sat"
    assert result.model == {"callvalue_0": 42}


def test_equality_guard_flips_to_untaken():
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=True)
    result = _flip([c], 0, {"callvalue_0": 42})
    assert result.status == "sat"
    assert result.model["callvalue_0"] != 42


def test_addition_chain_inverts():
    cond = apply("eq", apply("add", var("arg_0_0"), const(5)), const(77))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 1})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 72}


def test_subtraction_chain_inverts():
    cond = apply("eq", apply("sub", var("arg_0_0"), const(5)), const(10))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 15}


def test_wrapping_subtraction_inverts():
    # arg - 5 == MASK requires arg == 4 (mod 2^256)
    cond = apply("eq", apply("sub", var("arg_0_0"), const(5)), const(MASK))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 4}


def test_xor_and_not_invert():
    cond = apply("eq", apply("xor", var("arg_0_0"), const(0xFF)), const(0x12))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 0x12 ^ 0xFF}

    cond = apply("eq", apply("not", var("arg_0_0")), const(0))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": MASK}


def test_multiplication_by_odd_inverts_via_modular_inverse():
    cond = apply("eq", apply("mul", var("arg_0_0"), const(3)), const(9))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 1})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 3}


def test_multiplication_by_even_inverts_when_divisible():
    cond = apply("eq", apply("mul", var("arg_0_0"), const(2)), const(6))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 1})
    assert result.status == "sat"


def test_unsigned_comparison_boundaries():
    cond = apply("lt", var("callvalue_0"), const(100))
    result = _flip([_constraint(cond, taken=True)], 0, {"callvalue_0": 5})
    assert result.status == "sat"
    assert result.model["callvalue_0"] >= 100

    cond = apply("gt", var("callvalue_0"), const(10**18))
    result = _flip([_constraint(cond, taken=False)], 0, {"callvalue_0": 0})
    assert result.status == "sat"
    assert result.model["callvalue_0"] > 10**18


def test_signed_comparison_crosses_zero():
    cond = apply("slt", var("arg_0_0"), const(0))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 5})
    assert result.status == "sat"
    assert result.model["arg_0_0"] >> 255 == 1  # negative word


def test_iszero_nesting_unwraps():
    cond = apply("iszero", apply("eq", var("arg_0_0"), const(9)))
    result = _flip([_constraint(cond, taken=True)], 0, {"arg_0_0": 3})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": 9}


def test_shift_chain_inverts():
    cond = apply("eq", apply("shr", const(4), var("arg_0_0")), const(7))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model["arg_0_0"] >> 4 == 7


def test_mask_guard_inverts():
    cond = apply("eq", apply("and", var("arg_0_0"), const(0xFF)), const(0x2A))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0})
    assert result.status == "sat"
    assert result.model["arg_0_0"] & 0xFF == 0x2A


def test_prefix_constraints_survive_the_flip():
    keep = _constraint(apply("eq", apply("and", var("arg_0_0"), const(0xFF)), const(1)), taken=True)
    flip = _constraint(apply("lt", var("arg_0_0"), const(0x100)), taken=True, pc=30)
    result = _flip([keep, flip], 1, {"arg_0_0": 1})
    assert result.status == "sat"
    model_value = result.model["arg_0_0"]
    assert model_value >= 0x100 and model_value & 0xFF == 1


def test_condition_without_fuzzable_variables_is_unknown():
    cond = apply("eq", var("storage_5"), const(1))
    result = InternalSolver().solve([_constraint(cond, taken=False)], 0, {"storage_5": 0})
    assert result.status == "unknown"


def test_hash_equality_is_honestly_unknown():
    hashed = opaque("sha3", 0xAAAA, var("callvalue_0"))
    cond = apply("eq", hashed, const(0xBBBB))
    result = InternalSolver().solve([_constraint(cond, taken=False)], 0, {"callvalue_0": 1})
    assert result.status == "unknown"


def test_contradiction_is_unknown_not_a_bad_model():
    c0 = _constraint(apply("eq", var("arg_0_0"), const(5)), taken=True)
    c1 = _constraint(apply("eq", var("arg_0_0"), const(6)), taken=False, pc=30)
    result = InternalSolver().solve([c0, c1], 1, {"arg_0_0": 5})
    assert result.status == "unknown"


def test_internal_solver_is_deterministic():
    cond = apply("lt", apply("add", var("callvalue_0"), const(3)), const(1000))
    constraints = [_constraint(cond, taken=True)]
    first = InternalSolver().solve(constraints, 0, {"callvalue_0": 2})
    second = InternalSolver().solve(constraints, 0, {"callvalue_0": 2})
    assert first.status == second.status == "sat"
    assert first.model == second.model


def test_caller_guard_solves_to_the_compared_address():
    owner = 0xBE111C0000000000000000000000000000000B01
    cond = apply("eq", var("caller_0"), const(owner))
    result = _flip([_constraint(cond, taken=False)], 0, {"caller_0": 0xA1})
    assert result.status == "sat"
    assert result.model == {"caller_0": owner}


def test_candidates_are_drawn_lazily(monkeypatch):
    # negating the `or` of 16 comparisons makes every one false: the product
    # rule gives 2**16 candidates, and solve keeps at most MAX_CANDIDATES
    cond = apply("lt", var("arg_0_0"), const(100))
    for k in range(1, 16):
        cond = apply("or", cond, apply("lt", var(f"arg_{k}_0"), const(100)))
    drawn = []
    solve_bool = CandidateSearch.solve_bool

    def counting(self, cond, want, depth):
        for candidate in solve_bool(self, cond, want, depth):
            if depth == 0:
                drawn.append(candidate)
            yield candidate

    monkeypatch.setattr(CandidateSearch, "solve_bool", counting)
    values = {f"arg_{k}_0": 5 if k == 0 else 200 for k in range(16)}
    result = _flip([_constraint(cond, taken=True)], 0, values)
    assert result.status == "sat"
    assert 1 <= len(drawn) <= InternalSolver.MAX_CANDIDATES


# (op, operand position) -> (the other operand, the target, the one value of
# the operand that meets it); the operand's observed value is 0x1234
_INVERSE_CASES = {
    ("add", 0): (0x1111, 0x5555, 0x4444),
    ("add", 1): (0x1111, 0x5555, 0x4444),
    ("sub", 0): (0x1111, 0x3333, 0x4444),
    ("sub", 1): (0x5555, 0x1111, 0x4444),
    ("xor", 0): (0x1111, 0x5555, 0x4444),
    ("xor", 1): (0x1111, 0x5555, 0x4444),
    ("not", 0): (None, MASK ^ 0x4444, 0x4444),
    ("mul", 0): (3, 0xCCCC, 0x4444),
    ("mul", 1): (3, 0xCCCC, 0x4444),
    ("div", 0): (0x100, 0x44, 0x4400),
    ("shl", 1): (8, 0x4400, 0x44),
    ("shr", 1): (8, 0x44, 0x4400),
    ("and", 0): (0xFF0F, 0x4404, 0x4404),
    ("and", 1): (0xFF0F, 0x4404, 0x4404),
    ("signextend", 1): (1, 0x4404, 0x4404),
}


def test_the_inverse_cases_cover_the_table():
    assert set(_INVERSE_CASES) == {
        (op, position) for op, (_, inverses) in _INVERSES.items() for position, _ in inverses
    }


@pytest.mark.parametrize("op, position", list(_INVERSE_CASES))
def test_each_inverse_solves_a_one_step_guard(op, position):
    other, target, solution = _INVERSE_CASES[op, position]
    operand = var("arg_0_0")
    if other is None:
        term = apply(op, operand)
    else:
        operands = [const(other), const(other)]
        operands[position] = operand
        term = apply(op, *operands)
    # the target is a non-fuzzable variable's value, so that neither it nor
    # any other value _candidates falls back on meets the guard by itself
    fallbacks = {0, 1, 2, 0x1233, 0x1234, 0x1235, 1 << 255, MASK}
    fallbacks |= {((other or 0) + delta) & MASK for delta in (-1, 0, 1)}
    assert all(evaluate(term, {"arg_0_0": value}) != target for value in fallbacks)
    cond = apply("eq", term, var("storage_1"))
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": 0x1234, "storage_1": target})
    assert result.status == "sat"
    assert result.model == {"arg_0_0": solution}


# the word ops of the random conditions below; a fixed list, so the digest
# does not move when the solver learns a new op
_RANDOM_OPS = ("add", "sub", "xor", "not", "mul", "div", "shl", "shr", "and", "signextend")
_RANDOM_FREE = ("arg_0_0", "arg_1_0", "callvalue_0", "caller_0")
_RANDOM_FIXED = ("storage_1", "calldata_4_0")


def _random_word(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        leaf = rng.random()
        if leaf < 0.45:
            return var(rng.choice(_RANDOM_FREE))
        if leaf < 0.6:
            return var(rng.choice(_RANDOM_FIXED))
        return const(rng.choice((0, 1, 2, 3, 8, 0xFF, 256, 1 << 255, MASK,
                                 rng.getrandbits(16), rng.getrandbits(256))))
    if roll < 0.36:
        return opaque("sha3", rng.getrandbits(256), _random_word(rng, depth - 1))
    op = rng.choice(_RANDOM_OPS)
    operands = [_random_word(rng, depth - 1) for _ in range(1 if op == "not" else 2)]
    return apply(op, *operands)


def _random_condition(rng, depth=2):
    roll = rng.random()
    if depth and roll < 0.15:
        return apply("iszero", _random_condition(rng, depth - 1))
    if depth and roll < 0.3:
        return apply(rng.choice(("and", "or")),
                     _random_condition(rng, depth - 1), _random_condition(rng, depth - 1))
    if roll < 0.9:
        return apply(rng.choice(("lt", "gt", "slt", "sgt", "eq")),
                     _random_word(rng, 2), _random_word(rng, 2))
    return _random_word(rng, 2)


def test_candidate_order_is_pinned():
    # which candidate comes first decides which model the campaign injects,
    # so a change to the solver's rules must keep the order of the ones it
    # already draws: this digest of the first MAX_CANDIDATES candidates of
    # 1 000 seeded random conditions, both ways, must not move
    rng = Random(11)
    solver = InternalSolver()
    digest = hashlib.sha256()
    for _ in range(1000):
        cond = _random_condition(rng)
        env = {name: rng.choice((0, 1, rng.getrandbits(8), rng.getrandbits(256)))
               for name in _RANDOM_FREE + _RANDOM_FIXED if rng.random() < 0.9}
        for want in (True, False):
            candidates = solver._candidates(cond, want, env, free_variables(cond))
            for candidate in islice(candidates, solver.MAX_CANDIDATES):
                digest.update(repr(sorted(candidate.items())).encode())
            digest.update(b"|")
    assert digest.hexdigest()[:16] == "cd2c5d8308f5de74"


# ---------------------------------------------------------------------------
# unsat proofs

_WORDS = st.integers(min_value=0, max_value=MASK)
_ARG = var("arg_0_0")


def _eq(left, right, swap):
    return apply("eq", right, left) if swap else apply("eq", left, right)


# the unsatisfiable guard forms: no argument makes the condition true,
# whatever the constants drawn
_UNSAT_FORMS = {
    "mul": lambda w, s, swap: _eq(apply("mul", const((w >> 1 << 1) or 2), _ARG), const(s | 1), swap),
    "and": lambda w, s, swap: _eq(apply("and", const(w & ~1), _ARG), const(s | 1), swap),
    "or": lambda w, s, swap: _eq(apply("or", const(w | 1), _ARG), const(s & ~1), swap),
    "shr": lambda w, s, swap: _eq(
        apply("shr", const(w % 128 + 1), _ARG), const((1 << (256 - w % 128 - 1)) + 1), swap
    ),
    "lt": lambda w, s, swap: apply("lt", _ARG, const(0)),
}


@pytest.mark.parametrize("form", sorted(_UNSAT_FORMS))
@settings(max_examples=50, deadline=None)
@given(w=_WORDS, s=_WORDS, swap=st.booleans(), observed=_WORDS)
def test_unsatisfiable_guard_forms_are_proven(form, w, s, swap, observed):
    cond = _UNSAT_FORMS[form](w, s, swap)
    result = InternalSolver().solve([_constraint(cond, taken=False)], 0, {"arg_0_0": observed})
    assert result.status == "unsat"
    assert result.route == "internal"


# the satisfiable guard forms, built around a witness x the way the guard
# contracts build them; each must still flip to taken
_SAT_FORMS = {
    "eq": lambda x, w: apply("eq", const(x), _ARG),
    "add": lambda x, w: apply("eq", const(x + w), apply("add", const(w), _ARG)),
    "sub": lambda x, w: apply("eq", const(x - w), apply("sub", _ARG, const(w))),
    "mul": lambda x, w: apply("eq", const(x * (w | 1)), apply("mul", const(w | 1), _ARG)),
    "xor": lambda x, w: apply("eq", const(x ^ w), apply("xor", const(w), _ARG)),
    "and": lambda x, w: apply("eq", const(x & w & ~1), apply("and", const(w & ~1), _ARG)),
    "or": lambda x, w: apply("eq", const(x | w | 1), apply("or", const(w | 1), _ARG)),
    "shr": lambda x, w: apply("eq", const(x >> (w % 128 + 1)), apply("shr", const(w % 128 + 1), _ARG)),
    "lt": lambda x, w: apply("lt", _ARG, const(w | 1)),
}


@pytest.mark.parametrize("form", sorted(_SAT_FORMS))
@settings(max_examples=50, deadline=None)
@given(x=_WORDS, w=_WORDS, observed=_WORDS)
def test_satisfiable_guard_forms_still_solve(form, x, w, observed):
    cond = _SAT_FORMS[form](x, w)
    if evaluate(cond, {"arg_0_0": observed}):
        return  # the observed argument already passes: no open branch
    result = _flip([_constraint(cond, taken=False)], 0, {"arg_0_0": observed})
    assert result.status == "sat"


# words near the edges the rules reason about: small shift amounts and
# divisors, powers of two, low masks, the sign bit and the top
_EDGE_WORDS = st.one_of(
    st.integers(min_value=0, max_value=260),
    st.integers(min_value=0, max_value=256).map(lambda k: (1 << k) & MASK),
    st.integers(min_value=0, max_value=256).map(lambda k: (1 << k) - 1),
    st.sampled_from((0, 1 << 255, (1 << 255) - 1, MASK - 1, MASK)),
    _WORDS,
)
_edge_terms = st.recursive(
    st.one_of(_EDGE_WORDS.map(const), st.sampled_from(_VAR_NAMES).map(var)),
    _extend,
    max_leaves=8,
)
_edge_conditions = st.recursive(
    st.one_of(
        _edge_terms,
        st.tuples(st.sampled_from(("eq", "lt", "gt", "slt", "sgt")), _edge_terms, _edge_terms)
        .map(lambda t: apply(*t)),
    ),
    lambda children: st.one_of(
        children.map(lambda c: apply("iszero", c)),
        st.tuples(st.sampled_from(("and", "or")), children, children).map(lambda t: apply(*t)),
    ),
    max_leaves=4,
)


@settings(max_examples=500, deadline=None)
@given(
    cond=st.one_of(_edge_conditions, _deep_shared_terms()),
    values=st.tuples(*[_EDGE_WORDS] * len(_VAR_NAMES)),
)
def test_the_abstract_rules_hold_every_concrete_value(cond, values):
    # every subterm's abstract word holds its value under any assignment,
    # every relation that holds is judged possible, and so is the truth
    # value the whole condition takes
    env = dict(zip(_VAR_NAMES, values))
    solver = InternalSolver()
    for term in dag(cond):
        value = evaluate(term, env)
        known, bits, lo, hi = solver._abstract(term, {})
        assert value & known == bits and lo <= value <= hi, term
        if len(term.args) == 2:
            a, b = (evaluate(arg, env) for arg in term.args)
            words = [solver._abstract(arg, {}) for arg in term.args]
            sa, sb = signed(a), signed(b)
            for relation, test in (("eq", a == b), ("ne", a != b), ("lt", a < b),
                                   ("gt", a > b), ("ge", a >= b), ("le", a <= b),
                                   ("slt", sa < sb), ("sgt", sa > sb),
                                   ("sge", sa >= sb), ("sle", sa <= sb)):
                assert _RELATIONS[relation][4](*words) or not test, (relation, term)
    assert solver._can_be(cond, bool(evaluate(cond, env)))


def test_the_proof_keeps_its_precision():
    # 238 is how many of these queries the solver proved unsat when it
    # judged iszero, and and or by truth rules down the condition's tree:
    # a floor, so the abstract words may prove more but not fewer
    rng = Random(7)
    solver = InternalSolver()
    conditions = [_random_condition(rng, 4) for _ in range(3000)]
    proved = sum(not solver._can_be(cond, want) for cond in conditions for want in (True, False))
    assert proved >= 238


def _smt_truth(cond, env) -> bool:
    """cond's truth under env, through the SMT-LIB emitter and the
    independent evaluator; the fresh stand-ins of opaque terms and of
    SIGNEXTEND by a symbolic index take the values the terms evaluate to."""
    writer = SmtLibWriter()
    body = writer.wrap_lets(writer.convert(cond))
    env = {**env, **{name: evaluate(term, env) for term, name in writer._opaque_names.items()}}
    smt_env = {name: (env.get(name, 0) & MASK, 256) for name in writer.declared}
    value, _ = smt_eval.evaluate(smt_eval.parse_all(body)[0], smt_env)
    return value != 0


_PLANTED = st.one_of(
    st.sampled_from((0, 1, 2, 3, 8, 0xFF, 256, 1 << 255, (1 << 255) - 1, MASK)), _WORDS
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    planted=st.tuples(*[_PLANTED] * len(_RANDOM_FREE + _RANDOM_FIXED)),
)
def test_a_planted_witness_is_never_answered_unsat(seed, planted):
    # both conditions take, under the planted assignment, the outcomes the
    # query asks for, so the query is satisfiable and unsat would be a lie
    rng = Random(seed)
    env = dict(zip(_RANDOM_FREE + _RANDOM_FIXED, planted))
    prefix, target = _random_condition(rng), _random_condition(rng)
    constraints = [
        _constraint(prefix, taken=bool(evaluate(prefix, env)), pc=10),
        _constraint(target, taken=not evaluate(target, env), pc=20),
    ]
    observed = {name: value for name, value in env.items() if rng.random() < 0.5}
    observed.update((name, env[name]) for name in _RANDOM_FIXED)
    result = InternalSolver().solve(constraints, 1, observed)
    assert result.status != "unsat"
    if result.status == "sat":
        model_env = {**observed, **result.model}
        assert _smt_truth(prefix, model_env) == constraints[0].taken
        assert _smt_truth(target, model_env) != constraints[1].taken


# ---------------------------------------------------------------------------
# the bridge


def test_bridge_uses_internal_when_no_binary_exists():
    bridge = SolverBridge(external_argv=None)
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=False)
    result = bridge.solve_branch([c], 0, {"callvalue_0": 7})
    assert result.status == "sat"
    assert result.route == "internal"
    assert bridge.stats["attempts"] == 1
    assert bridge.stats["sat"] == 1
    assert bridge.stats["internal"] == 1
    assert bridge.stats["external"] == 0


def test_a_passed_deadline_answers_timeout():
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=False)
    passed = time.monotonic() - 1.0
    assert InternalSolver().solve([c], 0, {"callvalue_0": 7}, passed).status == "timeout"
    bridge = SolverBridge(external_argv=None)
    assert bridge.solve_branch([c], 0, {"callvalue_0": 7}, passed).status == "timeout"
    assert bridge.stats["timeout"] == 1 and bridge.stats["internal"] == 1


def test_bridge_skips_unfuzzable_targets():
    bridge = SolverBridge(external_argv=None)
    c = _constraint(apply("eq", var("storage_1"), const(1)), taken=False)
    assert bridge.solve_branch([c], 0, {"storage_1": 0}).status == "unknown"
    assert bridge.stats["attempts"] == 0


def test_bridge_prefers_external_answers(tmp_path):
    argv = _mock_solver(tmp_path, "sat.sh", SAT_REPLY)
    bridge = SolverBridge(external_argv=argv)
    c = _constraint(apply("eq", var("callvalue_0"), const(99)), taken=False)
    result = bridge.solve_branch([c], 0, {"callvalue_0": 7})
    assert result.route == "external"
    assert result.model == {"callvalue_0": 42}  # whatever the binary said
    assert bridge.stats["external"] == 1


def test_bridge_falls_back_to_internal_on_unknown(tmp_path):
    argv = _mock_solver(tmp_path, "unk.sh", "cat > /dev/null\necho unknown\n")
    bridge = SolverBridge(external_argv=argv)
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=False)
    result = bridge.solve_branch([c], 0, {"callvalue_0": 7})
    assert result.status == "sat"
    assert result.route == "internal"
    assert result.model == {"callvalue_0": 42}
    assert bridge.stats["external"] == 1
    assert bridge.stats["internal"] == 1


def test_bridge_respects_external_unsat(tmp_path):
    argv = _mock_solver(tmp_path, "unsat.sh", "cat > /dev/null\necho unsat\n")
    bridge = SolverBridge(external_argv=argv)
    c = _constraint(apply("eq", var("callvalue_0"), const(42)), taken=False)
    result = bridge.solve_branch([c], 0, {"callvalue_0": 7})
    assert result.status == "unsat"
    assert result.route == "external"
    assert bridge.stats["internal"] == 0
