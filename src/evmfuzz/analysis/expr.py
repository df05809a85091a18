"""Symbolic expression terms for taint tracking and constraint solving.

A Term is an immutable, hash-consed DAG (one live term per value, so equal
means identical): constants, named variables (fuzzer-controllable sources like
callvalue_0 or opaque ones like storage_…) and applications of 256-bit word
ops, which share subterms and are walked by loops keyed by identity.  Opaque
operations (sha3, mix) remember the concrete value observed at execution time
and evaluate to it; everything else evaluates structurally through ``OPS``,
the lower-cased ``evm.opcodes.WORD_OPS``.
"""

from __future__ import annotations

from weakref import ref

from ..evm.opcodes import MASK, WORD_OPS

OPAQUE_OPS = ("sha3", "mix")


class Term:
    """One immutable node of a term DAG, the only live term of its value.

    Building a term equal to a live one returns that one (``_TERMS``, weak
    and unlocked: build terms on one thread), so equality and hashing are by
    identity.  Each term knows its variables' names (``names``) and kinds
    (``kinds``, each name's prefix before its first ``_``), gathered from its
    arguments' sets when built; nothing may assign to a term once built.
    """

    __slots__ = ("op", "args", "value", "name", "names", "kinds", "__weakref__")

    def __new__(cls, op: str, args: tuple = (), value: int = 0, name: str = "") -> Term:
        key = (op, tuple(args), value, name)
        held = _TERMS.get(key)
        if held is not None and (term := held()) is not None:
            return term
        term = super().__new__(cls)
        held = _TERMS[key] = _Held(term, _forget)
        held.key = key
        # value: a constant's, or the word an opaque op observed; name: a variable's
        term.op, term.args, term.value, term.name = key
        if op == "var":
            names, kinds = frozenset((name,)), frozenset((name.partition("_")[0],))
        else:
            names = kinds = _EMPTY
            for arg in term.args:
                if arg.names and arg.names is not names:
                    if names:
                        names, kinds = names | arg.names, kinds | arg.kinds
                    else:
                        names, kinds = arg.names, arg.kinds
        term.names, term.kinds = names, kinds
        return term

    def __repr__(self) -> str:  # compact, debugging only: recursive, as long as the tree
        if self.op == "const":
            return f"{self.value:#x}" if self.value > 9 else str(self.value)
        if self.op == "var":
            return self.name
        return f"({self.op} {' '.join(map(repr, self.args))})"


class _Held(ref):  # a term's weak reference in ``_TERMS``, under the term's key
    __slots__ = ("key",)


_TERMS: dict[tuple, _Held] = {}  # (op, args, value, name) -> the live term of that value
_EMPTY: frozenset[str] = frozenset()


def _forget(dead: _Held, terms: dict = _TERMS) -> None:  # terms bound: works at teardown
    # drop a dead term's entry, unless a new term took its key first: the
    # cycle collector clears all the references it frees before calling back
    if terms.get(dead.key) is dead:
        del terms[dead.key]


def const(value: int) -> Term:
    return Term("const", value=value & MASK)


def var(name: str) -> Term:
    return Term("var", name=name)


def apply(op: str, *args: Term) -> Term:
    return Term(op, args)


def opaque(op: str, observed: int, *args: Term) -> Term:
    return Term(op, args, observed & MASK)


def variables(term: Term) -> frozenset[str]:
    return term.names


def dag(term: Term, into_opaque: bool = True) -> list[Term]:
    """Each distinct subterm of ``term`` once, by identity, in the order a
    recursive left-to-right walk finishes them: arguments first, ``term``
    last; an opaque op's arguments only when ``into_opaque`` is set."""
    done, stack = {}, [(term, iter(term.args))]
    while stack:  # the stack is a path, so an argument not done is not on it
        node, args = stack[-1]
        for arg in args if into_opaque or node.op not in OPAQUE_OPS else ():
            if id(arg) not in done:
                stack.append((arg, iter(arg.args)))
                break
        else:
            done[id(stack.pop()[0])] = node
    return list(done.values())


def contains(term: Term, needle: Term) -> bool:
    """Whether needle occurs in term, opaque operands included."""
    return any(node is needle for node in dag(term))


# The word semantics of the EVM opcodes, named in lower case.
OPS = {name.lower(): func for name, func in WORD_OPS.items()}


class EvalError(KeyError):
    pass


def values(term: Term, env: dict[str, int]) -> dict[int, int | None]:
    """The word each subterm of term takes under env, by identity, a shared
    subterm evaluated once: an opaque term is its observed value, and a
    subterm over a variable env lacks, or over an op with no semantics, is None."""
    words: dict[int, int | None] = {}
    for node in dag(term, into_opaque=False):
        op = node.op
        if op == "const" or op in OPAQUE_OPS:
            words[id(node)] = node.value
        elif op == "var":
            words[id(node)] = env[node.name] & MASK if node.name in env else None
        else:
            args = [words[id(arg)] for arg in node.args]
            words[id(node)] = None if op not in OPS or None in args else OPS[op](*args) & MASK
    return words


def evaluate(term: Term, env: dict[str, int]) -> int:
    """The word term takes under env, as ``values`` gives it; EvalError where that is None."""
    word = values(term, env)[id(term)]
    if word is None:
        raise EvalError(", ".join(sorted(term.names - env.keys())) or "an op with no semantics")
    return word
