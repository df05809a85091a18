"""Symbolic expression terms for taint tracking and constraint solving.

A Term is an immutable DAG: concrete constants, named variables (fuzzer-
controllable sources like callvalue_0 or opaque ones like storage_…), and
compound applications of 256-bit word operations, which share subterms
(``DUP1 ADD`` makes ``add(t, t)``) and are walked by loops, most over ``dag``.
Opaque operations (sha3, mix) remember the concrete value observed at
execution time and evaluate to it; everything else evaluates structurally
through ``OPS``, the lower-cased ``evm.opcodes.WORD_OPS``.
"""

from __future__ import annotations

from ..evm.opcodes import MASK, WORD_OPS

OPAQUE_OPS = ("sha3", "mix")


class Term:
    """One immutable node of a term DAG, equal and hashed by value.

    Every term knows, from the moment it is built, the names of the
    variables in it (``names``) and their kinds (``kinds``, each name's
    prefix before its first ``_``), gathered from its arguments' sets.  Its
    hash is computed on first use, after its arguments', kept, and equals
    ``hash((op, args, value, name))``, so nothing may assign to a term once
    built.  Equality compares hashes, then heads, each pair of subterms once.
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
        if self._hash is None:  # unhashed arguments first, on a stack of its own
            stack = [(self, iter(self.args))]
            while stack:
                node, args = stack[-1]
                for arg in args:
                    if arg._hash is None:
                        stack.append((arg, iter(arg.args)))
                        break
                else:
                    stack.pop()
                    node._hash = hash((node.op, node.args, node.value, node.name))
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Term:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        pairs, compared = [(self, other)], set()
        while pairs:  # heads pair by pair, each pair of subterms once
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            if (a.op, a.value, a.name, len(a.args)) != (b.op, b.value, b.name, len(b.args)):
                return False
            compared.add((id(a), id(b)))
            pairs += zip(a.args, b.args)
        return True

    def __repr__(self) -> str:  # compact, debugging only: recursive, as long as the tree
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
    return any(node == needle for node in dag(term))


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
