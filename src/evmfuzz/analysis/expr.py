"""Symbolic expression terms for taint tracking and constraint solving.

A Term is an immutable tree: concrete constants, named variables (fuzzer-
controllable sources like callvalue_0 or opaque ones like storage_…), and
compound applications of 256-bit word operations.  Opaque operations (sha3,
mix) remember the concrete value observed at execution time and evaluate to
it; everything else evaluates structurally through ``OPS``, the lower-cased
view of the opcode table's word semantics (``evm.opcodes.WORD_OPS``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..evm.opcodes import MASK, WORD_OPS

OPAQUE_OPS = ("sha3", "mix")


@dataclass(frozen=True)
class Term:
    op: str
    args: tuple = ()
    value: int = 0  # constant value, or observed value for opaque ops
    name: str = ""  # variable name

    def __repr__(self) -> str:  # compact, debugging only
        if self.op == "const":
            return f"{self.value:#x}" if self.value > 9 else str(self.value)
        if self.op == "var":
            return self.name
        return f"({self.op} {' '.join(map(repr, self.args))})"


def const(value: int) -> Term:
    return Term("const", value=value & MASK)


def var(name: str) -> Term:
    return Term("var", name=name)


def apply(op: str, *args: Term) -> Term:
    return Term(op, args=tuple(args))


def opaque(op: str, observed: int, *args: Term) -> Term:
    return Term(op, args=tuple(args), value=observed & MASK)


def variables(term: Term) -> frozenset[str]:
    if term.op == "var":
        return frozenset((term.name,))
    if term.op == "const":
        return frozenset()
    out: set[str] = set()
    for arg in term.args:
        out |= variables(arg)
    return frozenset(out)


def contains(term: Term, needle: Term) -> bool:
    if term == needle:
        return True
    return any(contains(arg, needle) for arg in term.args)


# The word semantics of the EVM opcodes, named in lower case.
OPS = {name.lower(): func for name, func in WORD_OPS.items()}


class EvalError(KeyError):
    pass


def evaluate(term: Term, env: dict[str, int]) -> int:
    if term.op == "const":
        return term.value
    if term.op == "var":
        try:
            return env[term.name] & MASK
        except KeyError:
            raise EvalError(term.name) from None
    if term.op in OPAQUE_OPS:
        return term.value
    func = OPS.get(term.op)
    if func is None:
        raise EvalError(f"no semantics for op {term.op!r}")
    return func(*(evaluate(arg, env) for arg in term.args)) & MASK
