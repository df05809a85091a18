"""Branch-flipping constraint solving.

Given the ordered tainted path constraints of one executed input, build a
QF_BV query that keeps every earlier branch outcome and negates the chosen
one, concretizing all variables except the ones the negated condition
actually mentions (their previously observed values are asserted as
equalities, which is what lets a one-variable model extend a known-good
prefix).

Queries go to an external SMT-LIB 2 solver process when one is installed.
When none is available — or it gives up — an internal word-level solver
takes over.  It derives candidate assignments from two tables: one relation
table (``_RELATIONS``) says which values a condition's sides should take,
and one inverse table (``_INVERSES``) passes a target down through each
word op to the operand that holds a fuzzable variable, around the other
operand's observed concrete value.  It then verifies candidates by concrete
evaluation, so anything it returns is a real model.
"""

from __future__ import annotations

import operator
import re
import shutil
import subprocess
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice

from ..evm.opcodes import WORD, signed
from . import expr
from .expr import MASK, Term
from .taint import FUZZABLE_KINDS, PathConstraint

DEFAULT_TIMEOUT_MS = 100

ZERO = "#x" + "00" * 32
ONE = "#x" + "00" * 31 + "01"


def bv(value: int) -> str:
    return "#x" + format(value & MASK, "064x")


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown" | "timeout" | "error"
    model: dict[str, int] = field(default_factory=dict)
    route: str = ""  # "external" | "internal"


# ---------------------------------------------------------------------------
# SMT-LIB emission

# term op -> SMT-LIB function: bit-vector ops applied to the operands as they
# are, predicates wrapped in an ite to a 0/1 word, shifts with the operands
# swapped, and divisions guarded to 0 on a zero divisor.
_BV_OPS = {
    "add": "bvadd", "sub": "bvsub", "mul": "bvmul",
    "and": "bvand", "or": "bvor", "xor": "bvxor", "not": "bvnot",
}
_PREDICATES = {
    "lt": "bvult", "gt": "bvugt", "slt": "bvslt", "sgt": "bvsgt",
    "eq": "=", "iszero": "=",
}
_SHIFTS = {"shl": "bvshl", "shr": "bvlshr", "sar": "bvashr"}
_DIVISIONS = {"div": "bvudiv", "sdiv": "bvsdiv", "mod": "bvurem", "smod": "bvsrem"}


class SmtLibWriter:
    def __init__(self) -> None:
        self.declared: set[str] = set()
        self._opaque_names: dict[Term, str] = {}
        self._lets: list[tuple[str, str]] = []
        self._counter = 0

    def _declare(self, name: str) -> str:
        self.declared.add(name)
        return name

    def _fresh(self, term: Term, hint: str) -> str:
        name = self._opaque_names.get(term)
        if name is None:
            name = f"{hint}_f{len(self._opaque_names)}"
            self._opaque_names[term] = name
            self.declared.add(name)
        return name

    def _let(self, smt: str) -> str:
        """Bind a subexpression so ite/expansion can reuse it cheaply."""
        name = f"t{self._counter}"
        self._counter += 1
        self._lets.append((name, smt))
        return name

    def convert(self, term: Term) -> str:
        """The SMT-LIB text of ``term``, each node's built from its arguments'
        texts; a compound subterm used more than once is bound by a let."""
        nodes = expr.dag(term, into_opaque=False)
        uses = Counter(id(arg) for node in nodes if node.op not in expr.OPAQUE_OPS
                       for arg in node.args)
        texts: dict[int, str] = {}
        for node in nodes:
            if node.op in expr.OPAQUE_OPS:
                texts[id(node)] = self._fresh(node, node.op)
                continue
            smt = self._write(node, [texts[id(arg)] for arg in node.args])
            texts[id(node)] = self._let(smt) if node.args and uses[id(node)] > 1 else smt
        return texts[id(term)]

    def _write(self, term: Term, args: list[str]) -> str:
        op = term.op
        if op == "const":
            return bv(term.value)
        if op == "var":
            return self._declare(term.name)
        if op in _BV_OPS:
            return f"({_BV_OPS[op]} {' '.join(args)})"
        if op in _PREDICATES:
            if len(args) == 1:
                args.append(ZERO)  # iszero: equality with zero
            return f"(ite ({_PREDICATES[op]} {args[0]} {args[1]}) {ONE} {ZERO})"
        if op in _SHIFTS:  # the shift amount is the first operand
            return f"({_SHIFTS[op]} {args[1]} {args[0]})"
        if op in _DIVISIONS:
            b = self._let(args[1])
            return f"(ite (= {b} {ZERO}) {ZERO} ({_DIVISIONS[op]} {args[0]} {b}))"
        if op in ("addmod", "mulmod"):
            func = "bvadd" if op == "addmod" else "bvmul"
            wide = [f"((_ zero_extend 256) {a})" for a in args]
            n = self._let(args[2])
            inner = f"(bvurem ({func} {wide[0]} {wide[1]}) ((_ zero_extend 256) {n}))"
            return f"(ite (= {n} {ZERO}) {ZERO} ((_ extract 255 0) {inner}))"
        if op == "exp":
            return self._exp(term, args)
        if op == "signextend":
            return self._signextend(term, args)
        if op == "byte":
            return self._byte(term, args)
        return self._fresh(term, "op")  # anything exotic becomes opaque

    def _exp(self, term: Term, args: list[str]) -> str:
        base_term, exp_term = term.args
        if exp_term.op != "const":
            return self._fresh(term, "exp")
        e = exp_term.value
        if e == 0:
            return ONE
        if e == 1:
            return args[0]
        square = self._let(args[0])
        result = square if e & 1 else None
        e >>= 1
        while e:
            square = self._let(f"(bvmul {square} {square})")
            if e & 1:
                result = square if result is None else self._let(
                    f"(bvmul {result} {square})"
                )
            e >>= 1
        assert result is not None
        return result

    def _signextend(self, term: Term, args: list[str]) -> str:
        k_term = term.args[0]
        if k_term.op != "const":
            return self._fresh(term, "sext")
        k = k_term.value
        if k > 31:
            return args[1]
        bits = 8 * (k + 1)
        return f"((_ sign_extend {256 - bits}) ((_ extract {bits - 1} 0) {args[1]}))"

    def _byte(self, term: Term, args: list[str]) -> str:
        i_term = term.args[0]
        if i_term.op != "const":
            return self._fresh(term, "byte")
        i = i_term.value
        if i > 31:
            return ZERO
        hi = 8 * (31 - i) + 7
        return f"((_ zero_extend 248) ((_ extract {hi} {hi - 7}) {args[1]}))"

    def wrap_lets(self, body: str) -> str:
        """Bind the pending lets around ``body``; they are consumed."""
        for name, smt in reversed(self._lets):
            body = f"(let (({name} {smt})) {body})"
        self._lets = []
        return body


def condition_assertion(writer: SmtLibWriter, cond: Term, want_taken: bool) -> str:
    smt = writer.wrap_lets(writer.convert(cond))
    if want_taken:
        return f"(assert (not (= {smt} {ZERO})))"
    return f"(assert (= {smt} {ZERO}))"


def free_variables(cond: Term) -> frozenset[str]:
    """The names in ``cond`` of a fuzzable kind, each name's kind being its
    prefix before the first ``_`` (as ``Term.kinds`` gathers it)."""
    if cond.kinds <= FUZZABLE_KINDS:
        return cond.names
    return frozenset(name for name in cond.names if name.partition("_")[0] in FUZZABLE_KINDS)


def branch_script(
    constraints: list[PathConstraint],
    target_index: int,
    var_values: dict[str, int],
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> tuple[str, frozenset[str]]:
    """Full SMT-LIB script negating constraints[target_index]."""
    writer = SmtLibWriter()
    free = free_variables(constraints[target_index].cond)
    assertions = []
    for index in range(target_index + 1):
        pc = constraints[index]
        want = pc.taken if index != target_index else not pc.taken
        assertions.append(condition_assertion(writer, pc.cond, want))
    for name in sorted(writer.declared - free):
        if name in var_values:
            assertions.append(f"(assert (= {name} {bv(var_values[name])}))")
    lines = [
        "(set-option :produce-models true)",
        "(set-logic QF_BV)",
        f"(set-option :timeout {timeout_ms})",
    ]
    lines += [
        f"(declare-fun {name} () (_ BitVec 256))" for name in sorted(writer.declared)
    ]
    lines += assertions
    lines += ["(check-sat)", "(get-model)"]
    return "\n".join(lines), free


_MODEL_RE = re.compile(
    r"\(define-fun\s+(\S+)\s+\(\)\s+\(_\s+BitVec\s+256\s*\)\s+(#x[0-9a-fA-F]+|#b[01]+)",
)


def parse_model(output: str) -> dict[str, int]:
    model = {}
    for name, literal in _MODEL_RE.findall(output):
        base = 16 if literal.startswith("#x") else 2
        model[name] = int(literal[2:], base)
    return model


# ---------------------------------------------------------------------------
# external process


SOLVER_CANDIDATES = (
    ("z3", lambda path, ms: [path, "-in", "-smt2", f"-t:{ms}"]),
    ("cvc5", lambda path, ms: [path, "--lang=smt2", f"--tlimit-per={ms}", "-"]),
    ("cvc4", lambda path, ms: [path, "--lang=smt2", f"--tlimit-per={ms}", "-"]),
)


def detect_solver(timeout_ms: int = DEFAULT_TIMEOUT_MS) -> tuple[str, ...] | None:
    """The command line of the first known solver on ``PATH``, if any."""
    for name, argv in SOLVER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return tuple(argv(path, timeout_ms))
    return None


class ExternalSolver:
    """Runs SMT-LIB text through a solver binary, stdin to stdout."""

    def __init__(self, argv: Sequence[str], timeout_ms: int = DEFAULT_TIMEOUT_MS) -> None:
        self.argv = argv
        self.timeout_ms = timeout_ms

    def solve(self, script: str, free: frozenset[str]) -> SolveResult:
        try:
            proc = subprocess.run(
                self.argv,
                input=script.encode(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=self.timeout_ms / 1000.0 + 2.0,
            )
        except subprocess.TimeoutExpired:
            return SolveResult("timeout", route="external")
        except OSError:
            return SolveResult("error", route="external")
        text = proc.stdout.decode("utf-8", "replace")
        if re.search(r"^unsat\b", text, re.MULTILINE):
            return SolveResult("unsat", route="external")
        if re.search(r"^sat\b", text, re.MULTILINE):
            model = {k: v for k, v in parse_model(text).items() if k in free}
            return SolveResult("sat", model=model, route="external")
        if re.search(r"^(timeout|unknown)\b", text, re.MULTILINE):
            return SolveResult("timeout" if "timeout" in text else "unknown",
                               route="external")
        return SolveResult("error", route="external")


# ---------------------------------------------------------------------------
# internal fallback


def _mul_inverse(target: int, factor: int, own) -> tuple[int, ...]:
    if factor & 1:  # odd factors are units mod 2**256
        return (target * pow(factor, -1, WORD),)
    if factor and target % factor == 0:
        return (target // factor,)
    return ()


def _and_inverse(target: int, mask: int, own) -> Iterator[int]:
    if target & ~mask & MASK:
        return  # the target has bits the mask clears
    yield target
    if own is not None:  # the operand's own bits where the mask clears them
        yield (own & ~mask & MASK) | target


# An abstract word is a tuple (known, bits, lo, hi): the bits every
# assignment gives the same value, those values, and an unsigned interval
# holding every value the word can take.  The rules below map operands'
# abstract words to the result's, soundly for every assignment.

_TOP = (0, 0, 0, MASK)
_FLAG = (MASK ^ 1, 0, 0, 1)  # a comparison's result: 0 or 1


def _word(known: int, bits: int, lo: int = 0, hi: int = MASK) -> tuple[int, int, int, int]:
    """An abstract word whose bits and interval tighten each other: the
    known bits bound the interval, and the bits above the highest bit in
    which its bounds differ are known."""
    bits &= known
    lo, hi = max(lo, bits), min(hi, bits | (MASK ^ known))
    prefix = MASK ^ ((1 << (lo ^ hi).bit_length()) - 1)
    return known | prefix, bits | (lo & prefix), lo, hi


def _low_known(a, b) -> int:
    """The low bits known in both words, up to the first bit either lacks."""
    both = a[0] & b[0]
    return ((both + 1) & ~both) - 1


def _trailing_zeros(a) -> int:
    zeros = a[0] & ~a[1]
    return ((zeros + 1) & ~zeros).bit_length() - 1


def _shift_rule(left: bool):
    """SHL or SHR of the second operand by a constant first operand."""
    def rule(amount, x):
        if amount[2] != amount[3]:
            return _TOP
        n = amount[2]
        if n >= 256:
            return _word(MASK, 0)
        if left:
            lo, hi = (x[2] << n, x[3] << n) if x[3] << n <= MASK else (0, MASK)
            return _word((x[0] << n | (1 << n) - 1) & MASK, (x[1] << n) & MASK, lo, hi)
        return _word(x[0] >> n | MASK ^ (MASK >> n), x[1] >> n, x[2] >> n, x[3] >> n)
    return rule


def _div_rule(x, divisor):
    if divisor[2] != divisor[3] or not divisor[2]:
        return _TOP
    return _word(0, 0, x[2] // divisor[2], x[3] // divisor[2])


def _and_rule(a, b):
    zeros = (a[0] & ~a[1]) | (b[0] & ~b[1])
    return _word((a[0] & b[0]) | zeros, a[1] & b[1])


def _may_equal(a, b) -> bool:
    return not (a[0] & b[0] & (a[1] ^ b[1]) or a[3] < b[2] or b[3] < a[2])


def _signed_may(test):
    """A signed relation is decided only between two exact words."""
    return lambda a, b: a[2] != a[3] or b[2] != b[3] or test(signed(a[2]), signed(b[2]))


# Relation -> (negation, mirror, offsets, bounds, may hold): the relation
# that holds when it does not, the same relation with its operands swapped,
# the values an adjustable left side tries, tightest first (the right side's
# value plus each offset, then each bound), and whether the relation can hold
# between two abstract words.  The term ops are eq, lt, gt, slt and sgt; the
# others only arise as negations.
_RELATIONS = {
    "eq": ("ne", "eq", (0,), (), _may_equal),
    "ne": ("eq", "ne", (1,), (), lambda a, b: not a[2] == a[3] == b[2] == b[3]),
    "lt": ("ge", "gt", (-1, -2), (0,), lambda a, b: a[2] < b[3]),
    "gt": ("le", "lt", (1, 2), (MASK,), lambda a, b: a[3] > b[2]),
    "slt": ("sge", "sgt", (-1, -2), (1 << 255,), _signed_may(operator.lt)),
    "sgt": ("sle", "slt", (1, 2), ((1 << 255) - 1,), _signed_may(operator.gt)),
    "ge": ("lt", "le", (0, 1), (), lambda a, b: a[3] >= b[2]),
    "le": ("gt", "ge", (0, -1), (), lambda a, b: a[2] <= b[3]),
    "sge": ("slt", "sle", (0, 1), (), _signed_may(operator.ge)),
    "sle": ("sgt", "sge", (0, -1), (), _signed_may(operator.le)),
}


def _relation_rule(relation):
    """A relation is exactly 0 where it cannot hold, exactly 1 where its
    negation cannot, and 0 or 1 otherwise."""
    negation, *_, may_hold = _RELATIONS[relation]
    may_fail = _RELATIONS[negation][4]

    def rule(a, b):
        holds = may_hold(a, b)
        return _FLAG if holds and may_fail(a, b) else _word(MASK, int(holds))
    return rule


# The one op table: term op -> (abstract rule, inverses).  Any op not in it
# (variables, sha3, mix and the rest) is top.  Each inverse is an (operand
# position, inverse) pair for an operand the internal solver can solve for.
# The inverse takes the target, the other operand's value (0 for a unary op)
# and the operand's own value (None if unknown), and returns the values the
# operand must take for the op to yield the target; the solver masks them to
# words.  Shift amounts and SIGNEXTEND's byte index are the first operand,
# as on the stack.
_INVERSES = {
    "add": (lambda a, b: _word(_low_known(a, b), a[1] + b[1]),
            ((0, lambda t, o, own: (t - o,)), (1, lambda t, o, own: (t - o,)))),
    "sub": (lambda a, b: _word(_low_known(a, b), a[1] - b[1]),
            ((0, lambda t, o, own: (t + o,)), (1, lambda t, o, own: (o - t,)))),
    "xor": (lambda a, b: _word(a[0] & b[0], a[1] ^ b[1]),
            ((0, lambda t, o, own: (t ^ o,)), (1, lambda t, o, own: (t ^ o,)))),
    "not": (lambda a: _word(a[0], ~a[1]), ((0, lambda t, o, own: (MASK ^ t,)),)),
    "mul": (lambda a, b: _word((1 << min(256, _trailing_zeros(a) + _trailing_zeros(b))) - 1, 0),
            ((0, _mul_inverse), (1, _mul_inverse))),
    "div": (_div_rule, ((0, lambda t, o, own: (t * o,) if o else ()),)),
    "shl": (_shift_rule(True), ((1, lambda t, o, own: (t >> o,) if o < 256 else ()),)),
    "shr": (_shift_rule(False), ((1, lambda t, o, own: (t << o,) if o < 256 else ()),)),
    "and": (_and_rule, ((0, _and_inverse), (1, _and_inverse))),
    "signextend": (lambda index, x: _TOP, ((1, lambda t, o, own: (t,)),)),
    # a | b is at least the larger of a and b
    "or": (lambda a, b: _word((a[0] & b[0]) | a[1] | b[1], a[1] | b[1], max(a[2], b[2])), ()),
    "iszero": (lambda a: _FLAG if a[2] == 0 < a[3] else _word(MASK, int(not a[3])), ()),
    **{relation: (_relation_rule(relation), ()) for relation in ("eq", "lt", "gt", "slt", "sgt")},
}


class InternalSolver:
    """Inverse-propagation solver for chains of invertible word operations.

    In a ``CandidateSearch``, a condition's relations, ``iszero`` and
    ``and``/``or`` set the values its sides should take (``_RELATIONS``);
    each word op on the way down to a fuzzable variable is inverted around
    the other operand's observed value (``_INVERSES``).  Complete enough for
    the guard shapes compilers emit around a single fuzzable quantity; says
    "unknown" rather than guessing wrong, and only returns models that
    re-evaluate correctly against the full constraint prefix.

    It answers "unsat" only when the target condition alone cannot take the
    wanted truth value, every variable ranging over all words: one abstract
    interpretation over the condition's DAG gives every subterm an abstract
    word (known bits and an unsigned interval) from its op's rule in
    ``_INVERSES``, exact for relations and ``iszero`` where their operands
    decide them.  A query unsatisfiable only through the prefix stays "unknown".
    """

    MAX_CANDIDATES = 256
    MAX_DEPTH = 24  # the candidate search's recursion guard, part of each stream's key

    def solve(
        self,
        constraints: list[PathConstraint],
        target_index: int,
        var_values: dict[str, int],
        deadline: float | None = None,
    ) -> SolveResult:
        """Negate constraints[target_index]; ``deadline``, a
        ``time.monotonic()`` value, ends the candidate search with a
        "timeout"."""
        target = constraints[target_index]
        free = free_variables(target.cond)
        if not free:
            return SolveResult("unknown", route="internal")
        want = not target.taken
        if not self._can_be(target.cond, want):
            return SolveResult("unsat", route="internal")
        env = dict(var_values)
        candidates = self._candidates(target.cond, want, env, free, deadline)
        seen = set()
        for candidate in islice(candidates, self.MAX_CANDIDATES):
            if deadline is not None and time.monotonic() >= deadline:
                return SolveResult("timeout", route="internal")
            key = tuple(sorted(candidate.items()))
            if key in seen:
                continue
            seen.add(key)
            trial = dict(env)
            trial.update(candidate)
            if self._verifies(constraints, target_index, want, trial):
                return SolveResult("sat", model=candidate, route="internal")
        return SolveResult("unknown", route="internal")

    def _can_be(self, cond: Term, want: bool) -> bool:
        """False only if no assignment gives cond the truth value want."""
        _, _, lo, hi = self._abstract(cond, {})
        return hi > 0 if want else lo == 0

    def _abstract(self, term: Term, words: dict) -> tuple[int, int, int, int]:
        """The abstract word of term over every assignment; ``words`` keeps
        each subterm's by identity."""
        for node in expr.dag(term, into_opaque=False):
            if id(node) in words:
                continue
            op, args = node.op, node.args
            if len(args) == 2 and args[0] is args[1] and op in ("add", "and", "or"):
                # t + t is t << 1; and(t, t), or(t, t) are t; equal operands are one term
                t = words[id(args[0])]
                words[id(node)] = _INVERSES["shl"][0](_word(MASK, 1), t) if op == "add" else t
            elif op == "const":
                words[id(node)] = _word(MASK, node.value)
            else:
                entry = _INVERSES.get(op)
                words[id(node)] = entry[0](*(words[id(a)] for a in args)) if entry else _TOP
        return words[id(term)]

    def _candidates(self, cond: Term, want: bool, env: dict[str, int], free: frozenset[str],
                    deadline: float | None = None) -> Iterator[dict[str, int]]:
        """Candidate assignments, drawn lazily: a ``CandidateSearch`` until
        ``deadline``, then values around those the condition mentions."""
        search = CandidateSearch(cond, env, free, deadline)
        yield from search.stream(search.solve_bool, cond, want, 0)
        # concrete-first heuristics: nudge each free variable around the
        # values and constants the condition already mentions
        around = [env[name] for name in sorted(free) if name in env] + self._constants(cond)
        interesting = [0, 1, 2, *(v + d for v in around for d in (0, 1, -1)), 1 << 255, MASK]
        yield from ({name: value & MASK} for name in sorted(free) for value in interesting)

    def _constants(self, term: Term) -> list[int]:
        """The constants in term, depth first, at most 32 from any subterm."""
        lists: dict[int, list[int]] = {}
        for node in expr.dag(term):
            lists[id(node)] = ([node.value] if node.op == "const"
                               else [c for arg in node.args for c in lists[id(arg)]][:32])
        return lists[id(term)]

    def _verifies(self, constraints, target_index, want, env) -> bool:
        for index in range(target_index + 1):
            pc = constraints[index]
            value = expr.values(pc.cond, env)[id(pc.cond)]
            expected = pc.taken if index != target_index else want
            if value is None or bool(value) != expected:
                return False
        return True


class CandidateSearch:
    """One ``solve`` call's search for assignments that give cond a truth
    value, with one memo: each subterm's value under ``env``, computed once,
    and the stream of each (search, subterm, goal, depth), the goal being
    ``solve_bool``'s truth value or ``unify``'s target.  A stream replays
    what a fresh search would yield, so operands that share a subterm cost
    the DAG times ``MAX_DEPTH``, not the tree."""

    def __init__(self, cond: Term, env: dict, free: frozenset[str], deadline: float | None) -> None:
        self.free, self.deadline = free, deadline
        self.values = expr.values(cond, env)
        self.streams: dict[tuple, tuple[list, Iterator]] = {}

    def stream(self, search, term: Term, goal, depth: int) -> Iterator[dict[str, int]]:
        """What ``search(term, goal, depth)`` yields, read until the deadline.
        Its first ``MAX_CANDIDATES`` items, as many as ``solve`` draws, are
        drawn once and kept for every reader; a reader past them draws the
        rest from a fresh search."""
        if depth > InternalSolver.MAX_DEPTH:
            return
        key = (search, id(term), goal, depth)
        if key not in self.streams:
            self.streams[key] = ([], search(term, goal, depth))
        kept, source = self.streams[key]
        for i in count():
            if self.deadline is not None and time.monotonic() >= self.deadline:
                return
            if i == len(kept) == InternalSolver.MAX_CANDIDATES:
                yield from islice(search(term, goal, depth), i, None)
                return
            if i == len(kept):
                kept.append(next(source, None))  # None marks the end
            if kept[i] is None:
                return
            yield kept[i]

    def solve_bool(self, cond, want, depth):
        """Assignments aiming to make cond truthy (want) or zero (not want)."""
        while cond.op in ("and", "or") and cond.args[0] is cond.args[1]:
            cond = cond.args[0]  # and(t, t) and or(t, t) are t: search it once, not twice
        op = cond.op
        if op == "iszero":
            yield from self.stream(self.solve_bool, cond.args[0], not want, depth + 1)
        elif op in _RELATIONS:
            yield from self._solve_compare(cond, want, depth)
        elif op in ("and", "or"):
            first, second = (partial(self.stream, self.solve_bool, arg, want, depth + 1)
                             for arg in cond.args)
            if want != (op == "and"):  # a truthy or, a zero and: either side will do
                yield from first()
                yield from second()
                return
            for left in first():  # a truthy and, a zero or: both sides at once
                for right in second():
                    merged = _merge(left, right)
                    if merged is not None:
                        yield merged
                if op == "and":
                    yield left  # the right side may be truthy already
        else:  # an arbitrary word used as a condition
            yield from self.stream(self.unify, cond, int(want), depth)

    def _solve_compare(self, cond, want, depth):
        relation = cond.op if want else _RELATIONS[cond.op][0]
        a, b = cond.args
        for side, other, held in ((a, b, relation), (b, a, _RELATIONS[relation][1])):
            value = self.values[id(other)]
            if not side.names & self.free or value is None:
                continue
            offsets, bounds = _RELATIONS[held][2:4]
            for target in (*(value + offset for offset in offsets), *bounds):
                yield from self.stream(self.unify, side, target & MASK, depth)

    def unify(self, term, target, depth):
        """Assignments that could make term evaluate to target: a free
        variable takes it, and an op in ``_INVERSES`` hands each operand it
        can solve for the values that operand must take."""
        if term.op == "var" and term.name in self.free:
            yield {term.name: target}
            return
        args = term.args
        for position, inverse in _INVERSES.get(term.op, (None, ()))[1]:
            side = args[position]
            other = self.values[id(args[1 - position])] if len(args) == 2 else 0
            if not side.names & self.free or other is None:
                continue
            for value in inverse(target, other, self.values[id(side)]):
                yield from self.stream(self.unify, side, value & MASK, depth + 1)


def _merge(left: dict, right: dict) -> dict | None:
    merged = dict(left)
    for key, value in right.items():
        if merged.get(key, value) != value:
            return None
        merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# facade


class SolverBridge:
    def __init__(
        self,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        external_argv: Sequence[str] | None = None,
    ) -> None:
        self.timeout_ms = timeout_ms
        self.external = ExternalSolver(external_argv, timeout_ms) if external_argv else None
        self.internal = InternalSolver()
        self.stats = {
            "attempts": 0, "sat": 0, "unsat": 0, "unknown": 0,
            "timeout": 0, "error": 0, "external": 0, "internal": 0,
        }

    def solve_branch(
        self,
        constraints: list[PathConstraint],
        target_index: int,
        var_values: dict[str, int],
        deadline: float | None = None,
    ) -> SolveResult:
        """Negate constraints[target_index]; the internal solver stops at
        ``deadline``, a ``time.monotonic()`` value."""
        free = free_variables(constraints[target_index].cond)
        if not free:
            return SolveResult("unknown")
        self.stats["attempts"] += 1
        result = None
        if self.external is not None:
            script, free = branch_script(
                constraints, target_index, var_values, self.timeout_ms
            )
            result = self.external.solve(script, free)
            self.stats["external"] += 1
            if result.status in ("timeout", "error"):
                self.stats[result.status] += 1
        if result is None or result.status not in ("sat", "unsat"):
            result = self.internal.solve(constraints, target_index, var_values, deadline)
            self.stats["internal"] += 1
        self.stats[result.status] = self.stats.get(result.status, 0) + 1
        return result
