"""Per-layer tracing from outside the program.

Wrappers replace a public function or method where its caller looks it up
(``campaign.py`` imports most helpers by name, so ``read_set`` is wrapped as
``evmfuzz.campaign.read_set``, not in ``evmfuzz.analysis.slots``).  Each
call records a span: its name, start, end and the span that was open when
it started.  Spans stay in memory; layer busy and self times are computed
from them when the traced pass ends, and they can then be written out.
Counters are taken at the same boundaries, from the call's arguments and
result.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

TERMINALS = ("STOP", "RETURN", "REVERT", "INVALID", "OUT_OF_GAS", "TIMEOUT", "SELFDESTRUCT")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index or -1)
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.solver_ms: list[float] = []
        self.seen_preimages: set[bytes] = set()
        self.seen_code: set[bytes] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        name_id = self._id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name_id, start, end, parent)

    def wrap(self, function: Callable, boundary: "Boundary") -> Callable:
        name_id = self._id(boundary.span)
        spans, open_spans, count = self.spans, self._open, boundary.count

        def traced(*args, **kwargs):
            before = boundary.before(args) if boundary.before else None
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                spans[index] = (name_id, start, end, parent)
            if count:
                count(self, args, result, (end - start) / 1e9, before)
            return result

        traced.__wrapped__ = function
        return traced

    def times(self) -> dict[str, tuple[float, float]]:
        """Per span name: (busy seconds, self seconds).  Busy counts each
        outermost span of the name once; self subtracts the time that the
        span's direct children cover."""
        covered = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        busy = [0] * len(self.names)
        own = [0] * len(self.names)
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            own[name_id] += end - start - covered[index]
            while parent >= 0 and self.spans[parent][0] != name_id:
                parent = self.spans[parent][3]
            if parent < 0:
                busy[name_id] += end - start
        return {name: (busy[i] / 1e9, own[i] / 1e9) for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{self.names[name_id]}\t{parent}\t{start}\t{end}\n")


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: ``module:attribute`` or ``module:Class.method``."""

    target: str
    span: str
    count: Callable | None = None  # (tracer, args, result, seconds, before)
    before: Callable | None = None  # (args) -> value handed to count


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = vars(owner).get(part)
        if owner is None:
            raise LookupError(f"traced name {target} no longer exists")
    if attribute not in vars(owner):
        raise LookupError(f"traced name {target} no longer exists")
    return owner, attribute


@contextmanager
def installed(tracer: Tracer, boundaries):
    """Wrap every boundary for the duration of the block, then put the
    original objects back, even when the block raises."""
    originals = []
    try:
        for boundary in boundaries:
            owner, attribute = _resolve(boundary.target)
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(original, boundary))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# counters, one per kind of boundary


def _count_execute(tracer, args, trace, seconds, before):
    tracer.counts["transactions"] += 1
    tracer.counts["instructions"] += len(trace.records)
    tracer.counts[f"terminal.{trace.terminal}"] += 1


def _count_jumpdests(tracer, args, result, seconds, before):
    code = bytes(args[0])
    tracer.counts["jumpdest_calls"] += 1
    tracer.counts["jumpdest_repeats"] += code in tracer.seen_code
    tracer.seen_code.add(code)


def _count_keccak(tracer, args, result, seconds, before):
    data = bytes(args[0])
    tracer.counts["keccak_calls"] += 1
    tracer.counts["keccak_repeats"] += data in tracer.seen_preimages
    tracer.seen_preimages.add(data)


def _counter(key: str):
    def count(tracer, args, result, seconds, before):
        tracer.counts[key] += 1

    return count


def _count_walk(tracer, args, result, seconds, before):
    tracer.counts["walks"] += 1


def _count_fitness(tracer, args, result, seconds, before):
    tracer.counts["walks"] += len(args[0])  # every trace of one individual


def _count_taint(tracer, args, report, seconds, before):
    tracker, trace = args[0], args[3]
    tracer.counts["walks"] += 1
    tracer.counts["taint_records"] += len(trace.records)
    tracer.counts["taint_constraints"] += len(report.constraints)
    tracer.counts["taint_realignments"] += tracker.realignments - before


def _count_solver(tracer, args, result, seconds, before):
    tracer.counts["solver_queries"] += 1
    tracer.counts[f"solver_{result.status}"] += 1
    tracer.solver_ms.append(seconds * 1000.0)


def _count_detectors(tracer, args, findings, seconds, before):
    tracer.counts["walks"] += len(args[2])
    tracer.counts["findings"] += len(findings)


EXECUTE = Boundary("evmfuzz.evm.interpreter:Interpreter.execute", "evm.interpreter", _count_execute)
TAINT = Boundary(
    "evmfuzz.analysis.taint:TaintTracker.run_input", "analysis.taint", _count_taint,
    before=lambda args: args[0].realignments,
)

# Every layer boundary the traced pass wraps.  ``analysis.trace`` groups the
# per-trace analyses; the calls marked as walks (plus the taint walk and the
# detectors) each walk a trace's records once, so walks per transaction says
# how many passes a transaction's trace costs.
BOUNDARIES = (
    EXECUTE,
    Boundary("evmfuzz.evm.opcodes:valid_jumpdests", "evm.opcodes.jumpdest", _count_jumpdests),
    Boundary("evmfuzz.evm.state:EmulatedState.snapshot", "evm.state", _counter("state_calls")),
    Boundary("evmfuzz.evm.state:EmulatedState.restore", "evm.state", _counter("state_calls")),
    Boundary("evmfuzz.evm.interpreter:keccak256", "keccak", _count_keccak),
    Boundary("evmfuzz.abi:keccak256", "keccak", _count_keccak),
    Boundary("evmfuzz.ga.individual:Input.transaction", "abi", _counter("abi_calls")),
    TAINT,
    Boundary("evmfuzz.analysis.coverage:CoverageStore.merge_trace", "analysis.trace", _count_walk),
    Boundary("evmfuzz.campaign:read_set", "analysis.trace", _count_walk),
    Boundary("evmfuzz.campaign:write_set", "analysis.trace", _count_walk),
    Boundary("evmfuzz.campaign:compute_fitness", "analysis.trace", _count_fitness),
    Boundary("evmfuzz.campaign:purge_reverting_values", "analysis.trace"),
    Boundary("evmfuzz.ga.engine:GeneticEngine.observe_trace", "analysis.trace", _count_walk),
    Boundary("evmfuzz.analysis.solver:SolverBridge.solve_branch", "analysis.solver", _count_solver),
    Boundary("evmfuzz.detectors:DetectorSuite.inspect", "detectors", _count_detectors),
    Boundary("evmfuzz.ga.engine:GeneticEngine.initial_population", "ga.engine"),
    Boundary("evmfuzz.ga.engine:GeneticEngine.evolve", "ga.engine"),
    Boundary("evmfuzz.ga.engine:GeneticEngine.reinitialize", "ga.engine"),
)

# (metric, unit, better) of every per-layer metric, in report order.  Work
# counts are "lower": the same campaigns done with fewer calls or records.
LAYER_METRICS = (
    ("campaign.setup_busy_s", "s", "lower"),
    ("campaign.busy_s", "s", "lower"),
    ("campaign.self_s", "s", "lower"),
    ("evm.interpreter.busy_s", "s", "lower"),
    ("evm.interpreter.self_s", "s", "lower"),
    ("evm.interpreter.transactions", "count", "lower"),
    ("evm.interpreter.instructions", "count", "lower"),
    ("evm.interpreter.instr_per_s", "1/s", "higher"),
    *((f"evm.interpreter.terminal.{kind}", "count", "lower") for kind in TERMINALS),
    ("evm.opcodes.jumpdest_busy_s", "s", "lower"),
    ("evm.opcodes.jumpdest_calls", "count", "lower"),
    ("evm.opcodes.jumpdest_repeat_ratio", "ratio", "higher"),
    ("evm.state.busy_s", "s", "lower"),
    ("evm.state.calls", "count", "lower"),
    ("keccak.busy_s", "s", "lower"),
    ("keccak.calls", "count", "lower"),
    ("keccak.repeat_ratio", "ratio", "higher"),
    ("abi.busy_s", "s", "lower"),
    ("abi.calls", "count", "lower"),
    ("analysis.taint.busy_s", "s", "lower"),
    ("analysis.taint.self_s", "s", "lower"),
    ("analysis.taint.records", "count", "lower"),
    ("analysis.taint.records_per_s", "1/s", "higher"),
    ("analysis.taint.constraints", "count", "lower"),
    ("analysis.taint.realignments", "count", "lower"),
    ("analysis.trace.busy_s", "s", "lower"),
    ("analysis.trace.walks_per_tx", "ratio", "lower"),
    ("analysis.solver.busy_s", "s", "lower"),
    ("analysis.solver.queries", "count", "lower"),
    ("analysis.solver.latency_p50_ms", "ms", "lower"),
    ("analysis.solver.latency_max_ms", "ms", "lower"),
    ("analysis.solver.sat", "count", "higher"),
    ("analysis.solver.unsat", "count", "higher"),
    ("analysis.solver.unknown", "count", "lower"),
    ("analysis.solver.sat_ratio", "ratio", "higher"),
    ("detectors.busy_s", "s", "lower"),
    ("detectors.findings", "count", "higher"),
    ("ga.engine.busy_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead``, from one pass."""
    times = tracer.times()
    counts = tracer.counts

    def busy(name):
        return times.get(name, (0.0, 0.0))[0]

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    queries = counts["solver_queries"]
    values = {
        "campaign.setup_busy_s": busy("campaign.setup"),
        "campaign.busy_s": busy("campaign"),
        "campaign.self_s": own("campaign"),
        "evm.interpreter.busy_s": busy("evm.interpreter"),
        "evm.interpreter.self_s": own("evm.interpreter"),
        "evm.interpreter.transactions": counts["transactions"],
        "evm.interpreter.instructions": counts["instructions"],
        "evm.interpreter.instr_per_s": _share(counts["instructions"], busy("evm.interpreter")),
        "evm.opcodes.jumpdest_busy_s": busy("evm.opcodes.jumpdest"),
        "evm.opcodes.jumpdest_calls": counts["jumpdest_calls"],
        "evm.opcodes.jumpdest_repeat_ratio": _share(counts["jumpdest_repeats"], counts["jumpdest_calls"]),
        "evm.state.busy_s": busy("evm.state"),
        "evm.state.calls": counts["state_calls"],
        "keccak.busy_s": busy("keccak"),
        "keccak.calls": counts["keccak_calls"],
        "keccak.repeat_ratio": _share(counts["keccak_repeats"], counts["keccak_calls"]),
        "abi.busy_s": busy("abi"),
        "abi.calls": counts["abi_calls"],
        "analysis.taint.busy_s": busy("analysis.taint"),
        "analysis.taint.self_s": own("analysis.taint"),
        "analysis.taint.records": counts["taint_records"],
        "analysis.taint.records_per_s": _share(counts["taint_records"], busy("analysis.taint")),
        "analysis.taint.constraints": counts["taint_constraints"],
        "analysis.taint.realignments": counts["taint_realignments"],
        "analysis.trace.busy_s": busy("analysis.trace"),
        "analysis.trace.walks_per_tx": _share(counts["walks"], counts["transactions"]),
        "analysis.solver.busy_s": busy("analysis.solver"),
        "analysis.solver.queries": queries,
        "analysis.solver.latency_p50_ms": statistics.median(tracer.solver_ms) if queries else 0.0,
        "analysis.solver.latency_max_ms": max(tracer.solver_ms, default=0.0),
        "analysis.solver.sat": counts["solver_sat"],
        "analysis.solver.unsat": counts["solver_unsat"],
        "analysis.solver.unknown": counts["solver_unknown"],
        "analysis.solver.sat_ratio": _share(counts["solver_sat"], queries),
        "detectors.busy_s": busy("detectors"),
        "detectors.findings": counts["findings"],
        "ga.engine.busy_s": busy("ga.engine"),
    }
    for kind in TERMINALS:
        values[f"evm.interpreter.terminal.{kind}"] = counts[f"terminal.{kind}"]
    return values
