"""Branch-flipping constraint solving.

Given the ordered tainted path constraints of one executed input, build a
QF_BV query that keeps every earlier branch outcome and negates the chosen
one, concretizing all variables except the ones the negated condition
actually mentions (their previously observed values are asserted as
equalities, which is what lets a one-variable model extend a known-good
prefix).

Queries go to an external SMT-LIB 2 solver process when one is installed.
When none is available — or it gives up — an internal word-level solver
takes over: it derives candidate assignments by inverting the condition's
operation chain around observed concrete values, then verifies candidates
by concrete evaluation, so anything it returns is a real model.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from dataclasses import dataclass, field

from ..evm.opcodes import WORD, signed
from . import expr
from .expr import MASK, Term, evaluate, variables
from .taint import FUZZABLE_KINDS, PathConstraint, parse_var

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
        op = term.op
        if op == "const":
            return bv(term.value)
        if op == "var":
            return self._declare(term.name)
        if op in expr.OPAQUE_OPS:
            return self._fresh(term, op)
        args = [self.convert(arg) for arg in term.args]
        if op == "add":
            return f"(bvadd {args[0]} {args[1]})"
        if op == "sub":
            return f"(bvsub {args[0]} {args[1]})"
        if op == "mul":
            return f"(bvmul {args[0]} {args[1]})"
        if op in ("div", "sdiv", "mod", "smod"):
            func = {"div": "bvudiv", "sdiv": "bvsdiv",
                    "mod": "bvurem", "smod": "bvsrem"}[op]
            b = self._let(args[1])
            return f"(ite (= {b} {ZERO}) {ZERO} ({func} {args[0]} {b}))"
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
        if op == "lt":
            return f"(ite (bvult {args[0]} {args[1]}) {ONE} {ZERO})"
        if op == "gt":
            return f"(ite (bvugt {args[0]} {args[1]}) {ONE} {ZERO})"
        if op == "slt":
            return f"(ite (bvslt {args[0]} {args[1]}) {ONE} {ZERO})"
        if op == "sgt":
            return f"(ite (bvsgt {args[0]} {args[1]}) {ONE} {ZERO})"
        if op == "eq":
            return f"(ite (= {args[0]} {args[1]}) {ONE} {ZERO})"
        if op == "iszero":
            return f"(ite (= {args[0]} {ZERO}) {ONE} {ZERO})"
        if op == "and":
            return f"(bvand {args[0]} {args[1]})"
        if op == "or":
            return f"(bvor {args[0]} {args[1]})"
        if op == "xor":
            return f"(bvxor {args[0]} {args[1]})"
        if op == "not":
            return f"(bvnot {args[0]})"
        if op == "shl":
            return f"(bvshl {args[1]} {args[0]})"
        if op == "shr":
            return f"(bvlshr {args[1]} {args[0]})"
        if op == "sar":
            return f"(bvashr {args[1]} {args[0]})"
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
        for name, smt in reversed(self._lets):
            body = f"(let (({name} {smt})) {body})"
        return body


def condition_assertion(writer: SmtLibWriter, cond: Term, want_taken: bool) -> str:
    smt = writer.wrap_lets(writer.convert(cond))
    # lets are consumed by this assertion; reset for the next one
    writer._lets = []
    if want_taken:
        return f"(assert (not (= {smt} {ZERO})))"
    return f"(assert (= {smt} {ZERO}))"


def free_variables(cond: Term) -> frozenset[str]:
    return frozenset(
        name for name in variables(cond) if parse_var(name).kind in FUZZABLE_KINDS
    )


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


def detect_solver(timeout_ms: int = DEFAULT_TIMEOUT_MS) -> list[str] | None:
    for name, argv in SOLVER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return argv(path, timeout_ms)
    return None


class ExternalSolver:
    """Runs SMT-LIB text through a solver binary, stdin to stdout."""

    def __init__(self, argv: list[str], timeout_ms: int = DEFAULT_TIMEOUT_MS) -> None:
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


def _modinv(a: int) -> int | None:
    if a % 2 == 0:
        return None
    return pow(a, -1, WORD)


class InternalSolver:
    """Inverse-propagation solver for chains of invertible word operations.

    Complete enough for the guard shapes compilers emit around a single
    fuzzable quantity (comparisons over add/sub/xor/not/mul-by-odd chains);
    says "unknown" rather than guessing wrong, and only returns models that
    re-evaluate correctly against the full constraint prefix.
    """

    MAX_CANDIDATES = 256

    def solve(
        self,
        constraints: list[PathConstraint],
        target_index: int,
        var_values: dict[str, int],
    ) -> SolveResult:
        target = constraints[target_index]
        free = free_variables(target.cond)
        if not free:
            return SolveResult("unknown", route="internal")
        env = dict(var_values)
        want = not target.taken
        candidates = self._candidates(target.cond, want, env, free)
        seen = set()
        for candidate in candidates[: self.MAX_CANDIDATES]:
            key = tuple(sorted(candidate.items()))
            if key in seen:
                continue
            seen.add(key)
            trial = dict(env)
            trial.update(candidate)
            if self._verifies(constraints, target_index, want, trial):
                return SolveResult("sat", model=candidate, route="internal")
        return SolveResult("unknown", route="internal")

    # -- candidate generation -------------------------------------------

    def _candidates(
        self,
        cond: Term,
        want: bool,
        env: dict[str, int],
        free: frozenset[str],
    ) -> list[dict[str, int]]:
        out = list(self._solve_bool(cond, want, env, free, depth=0))
        # concrete-first heuristics: nudge each free variable around the
        # values and constants the condition already mentions
        interesting: list[int] = [0, 1, 2]
        for name in sorted(free):
            if name in env:
                observed = env[name]
                interesting += [observed, (observed + 1) & MASK, (observed - 1) & MASK]
        for c in self._constants(cond):
            interesting += [c, (c + 1) & MASK, (c - 1) & MASK]
        interesting += [1 << 255, MASK]
        for name in sorted(free):
            for value in interesting:
                out.append({name: value & MASK})
        return out

    def _constants(self, term: Term) -> list[int]:
        if term.op == "const":
            return [term.value]
        if term.op == "var":
            return []
        out = []
        for arg in term.args:
            out.extend(self._constants(arg))
        return out[:32]

    def _ground(self, term: Term, free: frozenset[str]) -> bool:
        return not (variables(term) & free)

    def _eval(self, term: Term, env: dict[str, int]) -> int | None:
        try:
            return evaluate(term, env)
        except expr.EvalError:
            return None

    def _solve_bool(self, cond, want, env, free, depth):
        """Assignments aiming to make cond truthy (want) or zero (not want)."""
        if depth > 24:
            return
        op = cond.op
        if op == "iszero":
            yield from self._solve_bool(cond.args[0], not want, env, free, depth + 1)
            return
        if op == "eq":
            a, b = cond.args
            if want:
                yield from self._unify_pair(a, b, env, free, depth)
            else:
                for other, target in ((a, b), (b, a)):
                    value = self._eval(target, env)
                    if value is not None:
                        yield from self._unify(other, (value + 1) & MASK, env, free, depth)
            return
        if op in ("lt", "gt", "slt", "sgt"):
            yield from self._solve_compare(cond, want, env, free, depth)
            return
        if op == "and":
            if want:
                for left in self._solve_bool(cond.args[0], True, env, free, depth + 1):
                    for right in self._solve_bool(cond.args[1], True, env, free, depth + 1):
                        merged = self._merge(left, right)
                        if merged is not None:
                            yield merged
                    yield left
            else:
                yield from self._solve_bool(cond.args[0], False, env, free, depth + 1)
                yield from self._solve_bool(cond.args[1], False, env, free, depth + 1)
            return
        if op == "or":
            if want:
                yield from self._solve_bool(cond.args[0], True, env, free, depth + 1)
                yield from self._solve_bool(cond.args[1], True, env, free, depth + 1)
            else:
                for left in self._solve_bool(cond.args[0], False, env, free, depth + 1):
                    for right in self._solve_bool(cond.args[1], False, env, free, depth + 1):
                        merged = self._merge(left, right)
                        if merged is not None:
                            yield merged
            return
        # arbitrary word used as a condition
        if want:
            yield from self._unify(cond, 1, env, free, depth)
        else:
            yield from self._unify(cond, 0, env, free, depth)

    def _solve_compare(self, cond, want, env, free, depth):
        op = cond.op
        if not want:
            op = {"lt": "ge", "gt": "le", "slt": "sge", "sgt": "sle"}[op]
        a, b = cond.args
        a_val = self._eval(a, env)
        b_val = self._eval(b, env)
        is_signed = op in ("slt", "sgt", "sge", "sle")

        def boundaries(op_now, other_val):
            # target values for the adjustable side, tightest first
            if other_val is None:
                return []
            o = signed(other_val) if is_signed else other_val
            if op_now in ("lt", "slt"):
                return [o - 1, o - 2, 0 if not is_signed else -(1 << 255)]
            if op_now in ("gt", "sgt"):
                return [o + 1, o + 2, MASK if not is_signed else (1 << 255) - 1]
            if op_now in ("ge", "sge"):
                return [o, o + 1]
            return [o, o - 1]  # le / sle

        flip = {"lt": "gt", "gt": "lt", "slt": "sgt", "sgt": "slt",
                "ge": "le", "le": "ge", "sge": "sle", "sle": "sge"}
        for side, other_val, op_now in ((a, b_val, op), (b, a_val, flip[op])):
            if self._ground(side, free):
                continue
            for target in boundaries(op_now, other_val):
                yield from self._unify(side, target & MASK, env, free, depth)

    def _unify_pair(self, a, b, env, free, depth):
        for side, other in ((a, b), (b, a)):
            if self._ground(side, free):
                continue
            value = self._eval(other, env)
            if value is not None:
                yield from self._unify(side, value, env, free, depth)

    def _unify(self, term, target, env, free, depth):
        """Assignments that could make term evaluate to target."""
        if depth > 24:
            return
        target &= MASK
        op = term.op
        if op == "var":
            if term.name in free:
                yield {term.name: target}
            return
        if op == "const":
            return
        if op == "add":
            a, b = term.args
            for x, y in ((a, b), (b, a)):
                y_val = self._eval(y, env)
                if y_val is not None and not self._ground(x, free):
                    yield from self._unify(x, (target - y_val) & MASK, env, free, depth + 1)
            return
        if op == "sub":
            a, b = term.args
            b_val = self._eval(b, env)
            if b_val is not None and not self._ground(a, free):
                yield from self._unify(a, (target + b_val) & MASK, env, free, depth + 1)
            a_val = self._eval(a, env)
            if a_val is not None and not self._ground(b, free):
                yield from self._unify(b, (a_val - target) & MASK, env, free, depth + 1)
            return
        if op == "xor":
            a, b = term.args
            for x, y in ((a, b), (b, a)):
                y_val = self._eval(y, env)
                if y_val is not None and not self._ground(x, free):
                    yield from self._unify(x, target ^ y_val, env, free, depth + 1)
            return
        if op == "not":
            yield from self._unify(term.args[0], MASK ^ target, env, free, depth + 1)
            return
        if op == "mul":
            a, b = term.args
            for x, y in ((a, b), (b, a)):
                y_val = self._eval(y, env)
                if y_val is None or self._ground(x, free):
                    continue
                inverse = _modinv(y_val) if y_val else None
                if inverse is not None:
                    yield from self._unify(x, (target * inverse) & MASK, env, free, depth + 1)
                elif y_val and target % y_val == 0:
                    yield from self._unify(x, (target // y_val) & MASK, env, free, depth + 1)
            return
        if op == "div":
            a, b = term.args
            b_val = self._eval(b, env)
            if b_val and not self._ground(a, free):
                yield from self._unify(a, (target * b_val) & MASK, env, free, depth + 1)
            return
        if op == "shl":
            s, v = term.args
            s_val = self._eval(s, env)
            if s_val is not None and s_val < 256 and not self._ground(v, free):
                yield from self._unify(v, target >> s_val, env, free, depth + 1)
            return
        if op == "shr":
            s, v = term.args
            s_val = self._eval(s, env)
            if s_val is not None and s_val < 256 and not self._ground(v, free):
                yield from self._unify(v, (target << s_val) & MASK, env, free, depth + 1)
            return
        if op == "and":
            a, b = term.args
            for x, y in ((a, b), (b, a)):
                y_val = self._eval(y, env)
                if y_val is None or self._ground(x, free):
                    continue
                if target & ~y_val & MASK:
                    continue  # impossible: target has bits the mask clears
                x_val = self._eval(x, env)
                yield from self._unify(x, target, env, free, depth + 1)
                if x_val is not None:
                    keep_high = (x_val & ~y_val & MASK) | target
                    yield from self._unify(x, keep_high, env, free, depth + 1)
            return
        if op == "signextend":
            k, x = term.args
            k_val = self._eval(k, env)
            if k_val is not None and not self._ground(x, free):
                yield from self._unify(x, target, env, free, depth + 1)
            return
        # everything else (sha3, mix, exp, ...) is not invertible here

    def _merge(self, left: dict, right: dict) -> dict | None:
        merged = dict(left)
        for key, value in right.items():
            if merged.get(key, value) != value:
                return None
            merged[key] = value
        return merged

    # -- verification -----------------------------------------------------

    def _verifies(self, constraints, target_index, want, env) -> bool:
        for index in range(target_index + 1):
            pc = constraints[index]
            value = self._eval(pc.cond, env)
            if value is None:
                return False
            expected = pc.taken if index != target_index else want
            if bool(value) != expected:
                return False
        return True


# ---------------------------------------------------------------------------
# facade


class SolverBridge:
    def __init__(
        self,
        enabled: bool = True,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        external_argv: list[str] | None = "auto",  # type: ignore[assignment]
    ) -> None:
        self.enabled = enabled
        self.timeout_ms = timeout_ms
        if external_argv == "auto":
            external_argv = detect_solver(timeout_ms)
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
    ) -> SolveResult:
        if not self.enabled:
            return SolveResult("unknown")
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
            result = self.internal.solve(constraints, target_index, var_values)
            self.stats["internal"] += 1
        self.stats[result.status] = self.stats.get(result.status, 0) + 1
        return result
