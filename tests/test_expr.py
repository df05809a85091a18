import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfuzz.analysis import expr
from evmfuzz.analysis.expr import (
    EvalError,
    Term,
    apply,
    const,
    contains,
    evaluate,
    opaque,
    var,
    variables,
)
from evmfuzz.analysis.taint import parse_var, var_kinds

from oracles import bigint_ref

MASK = (1 << 256) - 1


def test_constant_evaluates_to_itself():
    assert evaluate(const(1234), {}) == 1234
    assert evaluate(const(-1), {}) == MASK  # stored masked


def test_variable_reads_environment():
    assert evaluate(var("callvalue_0"), {"callvalue_0": 99}) == 99


def test_missing_variable_raises():
    with pytest.raises(EvalError):
        evaluate(var("callvalue_0"), {})


def test_compound_evaluation():
    term = apply("add", var("x_0"), apply("mul", const(3), var("y_0")))
    assert evaluate(term, {"x_0": 5, "y_0": 7}) == 26


def test_addition_wraps():
    term = apply("add", const(MASK), const(2))
    assert evaluate(term, {}) == 1


def test_subtraction_wraps():
    assert evaluate(apply("sub", const(0), const(1)), {}) == MASK


def test_division_by_zero_is_zero():
    assert evaluate(apply("div", const(7), const(0)), {}) == 0
    assert evaluate(apply("mod", const(7), const(0)), {}) == 0
    assert evaluate(apply("sdiv", const(7), const(0)), {}) == 0
    assert evaluate(apply("smod", const(7), const(0)), {}) == 0


def test_signed_division_truncates_toward_zero():
    minus_seven = MASK - 6
    assert evaluate(apply("sdiv", const(minus_seven), const(2)), {}) == MASK - 2  # -3
    assert evaluate(apply("smod", const(minus_seven), const(2)), {}) == MASK  # -1


def test_comparisons_yield_word_booleans():
    assert evaluate(apply("lt", const(1), const(2)), {}) == 1
    assert evaluate(apply("gt", const(1), const(2)), {}) == 0
    assert evaluate(apply("slt", const(MASK), const(0)), {}) == 1  # -1 < 0
    assert evaluate(apply("sgt", const(MASK), const(0)), {}) == 0
    assert evaluate(apply("eq", const(5), const(5)), {}) == 1
    assert evaluate(apply("iszero", const(0)), {}) == 1
    assert evaluate(apply("iszero", const(3)), {}) == 0


def test_shifts():
    assert evaluate(apply("shl", const(4), const(1)), {}) == 16
    assert evaluate(apply("shr", const(4), const(256)), {}) == 16
    assert evaluate(apply("sar", const(1), const(MASK)), {}) == MASK  # -1 >> 1 == -1
    assert evaluate(apply("shl", const(256), const(1)), {}) == 0


def test_opaque_returns_observed_value():
    term = opaque("sha3", 0xDEADBEEF, var("x_0"))
    assert evaluate(term, {}) == 0xDEADBEEF  # no need for x_0


def test_variables_collects_all_names():
    term = apply("add", var("a_0"), apply("xor", var("b_1"), const(3)))
    assert variables(term) == frozenset({"a_0", "b_1"})
    assert variables(const(5)) == frozenset()


def test_opaque_arguments_still_count_as_variables():
    term = opaque("sha3", 7, var("x_0"))
    assert variables(term) == frozenset({"x_0"})


def test_contains_finds_subterm():
    inner = var("x_0")
    term = apply("add", apply("mul", inner, const(2)), const(1))
    assert contains(term, inner)
    assert not contains(term, var("y_0"))


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(sorted(expr.OPS)),
    a=st.integers(min_value=0, max_value=MASK),
    b=st.integers(min_value=0, max_value=MASK),
    c=st.integers(min_value=0, max_value=MASK),
)
def test_operations_agree_with_reference(op, a, b, c):
    ref_func, arity = bigint_ref.OPS[op.upper()]
    operands = (a, b, c)[:arity]
    term = apply(op, *(const(x) for x in operands))
    assert evaluate(term, {}) == ref_func(*operands)


@settings(max_examples=100, deadline=None)
@given(
    op=st.sampled_from(["exp", "signextend", "byte", "shl", "shr", "sar"]),
    a=st.integers(min_value=0, max_value=300),
    b=st.integers(min_value=0, max_value=MASK),
)
def test_small_first_operand_edge_cases_agree(op, a, b):
    # exponents, extension indices, byte indices and shifts near/over the
    # word width are where implementations usually diverge
    ref_func, _ = bigint_ref.OPS[op.upper()]
    term = apply(op, const(a), const(b))
    assert evaluate(term, {}) == ref_func(a, b)


# ---------------------------------------------------------------------------
# what a term caches when it is built

_NAMES = st.one_of(
    st.builds("callvalue_{}".format, st.integers(0, 3)),
    st.builds("arg_{}_{}".format, st.integers(0, 3), st.integers(0, 3)),
    st.builds("calldata_{}_{}".format, st.integers(0, 96), st.integers(0, 3)),
    st.builds("callret_{}_{:x}_w{}".format, st.integers(0, 3), st.integers(0, 1 << 160),
              st.integers(0, 4)),
    st.builds("storage_{:x}".format, st.integers(0, MASK)),
)
_LEAVES = st.one_of(st.builds(const, st.integers(0, MASK)), st.builds(var, _NAMES))


def _branches(children):
    return st.one_of(
        st.builds(lambda op, args: apply(op, *args), st.sampled_from(sorted(expr.OPS)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda op, observed, args: opaque(op, observed, *args),
                  st.sampled_from(expr.OPAQUE_OPS), st.integers(0, MASK),
                  st.lists(children, max_size=3)),
    )


_TERMS = st.recursive(_LEAVES, _branches, max_leaves=24)


def _reference_variables(term):
    if term.op == "var":
        return {term.name}
    return set().union(*(_reference_variables(arg) for arg in term.args))


def _rebuilt(term):
    return Term(term.op, tuple(_rebuilt(arg) for arg in term.args), term.value, term.name)


@settings(max_examples=300, deadline=None)
@given(term=_TERMS)
def test_cached_sets_and_hash_agree_with_the_tree(term):
    assert variables(term) == _reference_variables(term)
    assert var_kinds(term) == {parse_var(name).kind for name in variables(term)}
    assert hash(term) == hash((term.op, term.args, term.value, term.name))
    copy = _rebuilt(term)
    assert copy is not term
    assert copy == term
    assert hash(copy) == hash(term)
    assert variables(copy) == variables(term)
