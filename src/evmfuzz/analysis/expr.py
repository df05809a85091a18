"""Symbolic expression terms for taint tracking and constraint solving.

A Term is an immutable tree: concrete constants, named variables (fuzzer-
controllable sources like callvalue_0 or opaque ones like storage_…), and
compound applications of 256-bit word operations.  Opaque operations (sha3,
mix) remember the concrete value observed at execution time and evaluate to
it; everything else evaluates structurally through ``OPS``, the lower-cased
view of the opcode table's word semantics (``evm.opcodes.WORD_OPS``).
"""

from __future__ import annotations

from ..evm.opcodes import MASK, WORD_OPS

OPAQUE_OPS = ("sha3", "mix")


class Term:
    """One immutable node of a term tree, equal and hashed by value.

    Every term knows, from the moment it is built, the names of the
    variables in it (``names``) and their kinds (``kinds``, each name's
    prefix before its first ``_``), gathered from its arguments' sets.  Its
    hash is computed on first use, kept, and equals ``hash((op, args,
    value, name))``, so nothing may assign to a term once it is built.
    """

    __slots__ = ("op", "args", "value", "name", "names", "kinds", "_hash")

    def __init__(self, op: str, args: tuple = (), value: int = 0, name: str = "") -> None:
        self.op = op
        self.args = args
        self.value = value  # constant value, or observed value for opaque ops
        self.name = name  # variable name
        if op == "var":
            names, kinds = frozenset((name,)), frozenset((name.partition("_")[0],))
        else:
            names = kinds = _EMPTY
            for arg in args:
                if arg.names and arg.names is not names:
                    if names:
                        names, kinds = names | arg.names, kinds | arg.kinds
                    else:
                        names, kinds = arg.names, arg.kinds
        self.names = names
        self.kinds = kinds
        self._hash = None  # most terms are never hashed

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.op, self.args, self.value, self.name))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        return (
            self.op == other.op
            and self.value == other.value
            and self.name == other.name
            and self.args == other.args
        )

    def __repr__(self) -> str:  # compact, debugging only
        if self.op == "const":
            return f"{self.value:#x}" if self.value > 9 else str(self.value)
        if self.op == "var":
            return self.name
        return f"({self.op} {' '.join(map(repr, self.args))})"


_EMPTY: frozenset[str] = frozenset()


def const(value: int) -> Term:
    return Term("const", value=value & MASK)


def var(name: str) -> Term:
    return Term("var", name=name)


def apply(op: str, *args: Term) -> Term:
    return Term(op, args=tuple(args))


def opaque(op: str, observed: int, *args: Term) -> Term:
    return Term(op, args=tuple(args), value=observed & MASK)


def variables(term: Term) -> frozenset[str]:
    return term.names


def contains(term: Term, needle: Term, searched: set[int] | None = None) -> bool:
    """Whether needle occurs in term; ``searched`` keeps the ids of the
    subterms searched in vain, so a subterm that taint shares (``DUP1 ADD``
    makes ``add(t, t)``) is searched once, not once per path to it."""
    if term == needle:
        return True
    searched = set() if searched is None else searched
    searched.add(id(term))
    return any(id(arg) not in searched and contains(arg, needle, searched) for arg in term.args)


# The word semantics of the EVM opcodes, named in lower case.
OPS = {name.lower(): func for name, func in WORD_OPS.items()}


class EvalError(KeyError):
    pass


def evaluate(term: Term, env: dict[str, int], values: dict[int, int] | None = None) -> int:
    """``values`` keeps each compound subterm's value by identity, so a
    shared subterm is evaluated once."""
    op = term.op
    if op == "const" or op in OPAQUE_OPS:
        return term.value
    if op == "var":
        try:
            return env[term.name] & MASK
        except KeyError:
            raise EvalError(term.name) from None
    values = {} if values is None else values
    if id(term) not in values:
        func = OPS.get(op)
        if func is None:
            raise EvalError(f"no semantics for op {op!r}")
        values[id(term)] = func(*(evaluate(arg, env, values) for arg in term.args)) & MASK
    return values[id(term)]
