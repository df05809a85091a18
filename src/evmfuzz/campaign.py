"""Campaign driver: deploy the target, then alternate generations of genetic
search with constraint solving whenever coverage stops growing.

Each generation executes every individual from the post-deployment snapshot,
taints the traces, feeds annotations to the detectors, and evicts pool values
that sat in failing path conditions.  A generation that uncovers no new
instruction triggers the solver: open branches (conditional jumps observed in
one direction only) are negated and any model found is written back into a
copy of the witnessing individual, which is injected into the next
population.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from types import MappingProxyType

from .abi import ContractAbi
from .analysis import (
    CoverageStore,
    SolverBridge,
    TaintPlans,
    TaintReport,
    detect_solver,
    free_variables,
    parse_var,
    pool_bucket,
    purge_reverting_values,
    read_set,
    taint_individual,
    write_set,
)
from .detectors import ALL_KINDS, DetectorSuite, Finding
from .evm import EmulatedState, EnvOverrides, Interpreter, Transaction
from .evm.interpreter import DEFAULT_CALL_RESULT, GAS_BUDGET, new_address
from .ga import (
    Evaluation,
    GeneticEngine,
    Individual,
    Input,
    compute_fitness,
)
from .ga.engine import MAX_GAS, MIN_GAS

REPORT_VERSION = 1

INPUT_WALL_CAP = 1.0  # seconds; pathological bytecode must not stall the loop
# generations without new coverage (and no solver model) before reinitialising
STAGNATION_LIMIT = 10
MAX_SOLVER_CALLS = 16  # per solver activation, not per campaign

ADDRESS_MASK = (1 << 160) - 1
MAX_SOLVED_CALLDATA_SIZE = 4096
MAX_SOLVED_RETURN_SIZE = 1 << 20
MAX_SOLVED_EXTCODE_SIZE = 1 << 24
# Solved block values stay inside plausible chain history: a model that pins
# the clock near 2**256 replays fine but makes every date sum wrap, flooding
# the overflow detector with arithmetic no real block could produce.
MAX_SOLVED_TIMESTAMP = 1 << 48
MAX_SOLVED_BLOCK_NUMBER = 1 << 32

# Where a solved transaction field lands: (on the input's env, attribute,
# clamp).  The pool it goes into is the kind's pool in ``VAR_KINDS``.
_SOLVED_FIELDS = {
    "callvalue": (False, "value", lambda v: v),
    "caller": (False, "sender", lambda v: v & ADDRESS_MASK),
    "origin": (False, "sender", lambda v: v & ADDRESS_MASK),
    "timestamp": (True, "timestamp", lambda v: min(v, MAX_SOLVED_TIMESTAMP)),
    "blocknumber": (True, "block_number", lambda v: min(v, MAX_SOLVED_BLOCK_NUMBER)),
    "calldatasize": (False, "calldata_size", lambda v: min(v, MAX_SOLVED_CALLDATA_SIZE)),
    "gas": (False, "gas_limit", lambda v: min(max(v, MIN_GAS), MAX_GAS)),
}


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 1
    timeout: float = 60.0  # wall-clock budget, seconds
    generations: int | None = None  # evolution cap; 0 = initial population only
    solver_enabled: bool = True
    raw_aware: bool = True
    env_fuzzing: bool = True
    solver_timeout_ms: int = 100
    solver_argv: tuple[str, ...] | None = None  # external solver command
    detectors: tuple[str, ...] = ALL_KINDS
    trace_dir: str | None = None
    # transactions replayed after deployment, before the campaign snapshot:
    # {"from": addr, "to": addr?, "value": n?, "data": hex?, "timestamp": n?}
    initial_state: tuple = ()

    def __post_init__(self) -> None:
        """Raise ValueError on a budget no run could keep or a bad warm-up."""
        if not self.timeout >= 0:  # NaN too: no deadline would ever pass
            raise ValueError(f"timeout {self.timeout} is not a number of seconds")
        if self.generations is not None and self.generations < 0:
            raise ValueError(f"generations {self.generations} is negative")
        check_initial_state(self.initial_state)
        # a read-only copy, so neither the caller nor a reader can change a
        # checked warm-up transaction
        frozen = tuple(MappingProxyType(dict(tx)) for tx in self.initial_state)
        object.__setattr__(self, "initial_state", frozen)

    def jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "timeout": self.timeout,
            "generations": self.generations,
            "solver": self.solver_enabled,
            "raw_aware": self.raw_aware,
            "env_fuzzing": self.env_fuzzing,
            "solver_timeout_ms": self.solver_timeout_ms,
            "solver_argv": list(self.solver_argv) if self.solver_argv else None,
            "detectors": list(self.detectors),
            "initial_state": [dict(tx) for tx in self.initial_state],
            # fixed, not configurable: every instruction costs 1 gas
            "gas_model": {"per_instruction": 1, "per_transaction_cap": GAS_BUDGET},
        }


def _as_int(value) -> int:
    return int(value, 0) if isinstance(value, str) else int(value)


def check_initial_state(txs) -> None:
    """Raise ValueError unless every warm-up transaction is well formed and in range."""
    for tx in txs:
        if not isinstance(tx, dict) or "from" not in tx:
            raise ValueError('every transaction needs a "from" address')
        for key in ("from", "to", "value", "timestamp"):
            if key in tx:
                if isinstance(tx[key], bool) or not isinstance(tx[key], (int, str)):
                    raise ValueError(f"{key} {tx[key]!r} is not an integer or a string")
                number = _as_int(tx[key])
                if number < 0 or number >> (160 if key in ("from", "to") else 256):
                    raise ValueError(f"{key} {tx[key]!r} is out of range")
        data = tx.get("data", "")
        if not isinstance(data, str):
            raise ValueError(f"data {data!r} is not a hex string")
        bytes.fromhex(data.removeprefix("0x"))


class Campaign:
    """One fuzzing run against one contract."""

    def __init__(
        self,
        abi: ContractAbi,
        runtime_code: bytes,
        creation_code: bytes | None = None,
        constructor_args: bytes = b"",
        config: CampaignConfig | None = None,
        pre_storage: dict[int, int] | None = None,
        contract_balance: int = 0,
    ) -> None:
        self.config = config or CampaignConfig()
        self.rng = Random(self.config.seed)
        self.interpreter = Interpreter(wall_cap=INPUT_WALL_CAP)
        self.state = EmulatedState()
        accounts = self.state.accounts

        if creation_code is not None:
            self.address, _ = self.interpreter.deploy(
                self.state,
                creation_code,
                sender=accounts.deployer,
                constructor_args=constructor_args,
            )
            runtime = self.state.code[self.address]
        else:
            # No constructor to run: install the runtime image directly at
            # the address a deployment would have produced.
            self.address = new_address(self.state, accounts.deployer)
            self.state.set_code(self.address, runtime_code)
            runtime = runtime_code
        for slot, value in (pre_storage or {}).items():
            self.state.sstore(self.address, slot, value)
        if contract_balance:
            self.state.credit(self.address, contract_balance)
        # senders of warm-up value to the contract under test
        depositors = frozenset(
            _as_int(tx["from"]) for tx in self.config.initial_state if self._replay(tx)
        )

        self.runtime = runtime
        self.coverage = CoverageStore(runtime)
        self.engine = GeneticEngine(
            self.rng,
            abi,
            accounts,
            self.address,
            raw_aware=self.config.raw_aware,
            env_fuzzing=self.config.env_fuzzing,
        )
        if self.config.solver_argv:
            external_argv = list(self.config.solver_argv)
        elif self.config.solver_enabled:
            external_argv = detect_solver(self.config.solver_timeout_ms)
        else:
            external_argv = None  # a disabled solver must never probe or spawn
        self.bridge = SolverBridge(
            timeout_ms=self.config.solver_timeout_ms,
            external_argv=external_argv,
        )
        self.detectors = DetectorSuite(
            accounts, self.address, runtime, enabled=self.config.detectors,
            depositors=depositors,
        )
        self.series: list[list[float]] = []
        self.generations = 0
        self.executions = 0
        self._base = self.state.snapshot()
        # (pc, want_taken) of every branch side a solver answered unsat for,
        # never asked about again.  The answer covers the query built from
        # one witness (for the internal solver, its target condition alone);
        # another witness's condition at that pc is not checked again.
        self._infeasible: set[tuple[int, bool]] = set()
        self._taint_plans = TaintPlans()  # per campaign: every campaign starts cold
        self._trace_dir = Path(self.config.trace_dir) if self.config.trace_dir else None
        if self._trace_dir:
            self._trace_dir.mkdir(parents=True, exist_ok=True)

    @property
    def findings(self) -> list[Finding]:
        """Every finding so far, in the order the detectors made them."""
        return list(self.detectors.findings.values())

    def _replay(self, tx: dict) -> bool:
        """Run one warm-up transaction; returns whether it paid the contract value and applied."""
        env = EnvOverrides()
        if "timestamp" in tx:
            env.timestamp = _as_int(tx["timestamp"])
        data = tx.get("data", "")
        value = _as_int(tx.get("value", 0))
        to = _as_int(tx.get("to", self.address))
        trace = self.interpreter.execute(
            self.state,
            Transaction(
                sender=_as_int(tx["from"]),
                to=to,
                value=value,
                gas_limit=MAX_GAS,
                data=bytes.fromhex(data.removeprefix("0x")) if data else b"",
            ),
            env,
        )
        return value > 0 and to == self.address and trace.state_delta_applied

    # ------------------------------------------------------------------
    # execution

    def run_individual(
        self, individual: Individual, deadline: float | None = None
    ) -> tuple[list, list[TaintReport]]:
        """Execute one individual from the deployment snapshot; each input
        stops at the earlier of its wall cap and ``deadline``."""
        self.state.restore(self._base)
        traces = []
        for inp in individual.inputs:
            trace = self.interpreter.execute(
                self.state, inp.transaction(self.address), inp.env, deadline
            )
            traces.append(trace)
            self.engine.observe_trace(trace)
        self.executions += len(traces)
        reports = taint_individual(individual.inputs, traces, self._taint_plans)
        return traces, reports

    def _evaluate(self, traces, executed_before) -> Evaluation:
        reads: frozenset = frozenset()
        writes: frozenset = frozenset()
        for trace in traces:
            reads |= read_set(trace)
            if trace.state_delta_applied:
                writes |= write_set(trace)
        return Evaluation(
            fitness=compute_fitness(traces, executed_before),
            storage_reads=reads,
            storage_writes=writes,
        )

    def _dump_traces(self, individual: Individual, traces) -> None:
        if not self._trace_dir:
            return
        path = self._trace_dir / f"{individual.fingerprint()}.jsonl"
        with path.open("w") as handle:
            for index, trace in enumerate(traces):
                for line in trace.jsonl():
                    handle.write(line[:-1] + f', "input": {index}}}\n')

    # ------------------------------------------------------------------
    # the generation loop

    def run(self) -> dict:
        """The feedback loop.  The budget is checked after every individual,
        and every input stops at the earlier of its wall cap and the end of
        the budget, so an individual overruns neither.  One series
        point lands after every executed population, so the series is always
        one longer than the evolved-generation count.  A population the
        budget cuts short still gets its point, over the individuals that
        ran, and the campaign ends there without solving or evolving."""
        started = time.monotonic()
        deadline = started + self.config.timeout
        population = self.engine.initial_population()
        stagnation = 0

        while True:
            executed_before = self.coverage.snapshot_executed()
            evals: list[Evaluation] = []
            witnesses: list[tuple[Individual, list[TaintReport]]] = []
            grew = False
            for individual in population:
                traces, reports = self.run_individual(individual, deadline)
                for trace in traces:
                    grew = self.coverage.merge_trace(trace) or grew
                evals.append(self._evaluate(traces, executed_before))
                witnesses.append((individual, reports))
                self.detectors.inspect(individual, traces, reports)
                purge_reverting_values(
                    individual.inputs, traces, reports, self.engine.pools
                )
                self._dump_traces(individual, traces)
                if time.monotonic() >= deadline:
                    break
            self.series.append(
                [round((time.monotonic() - started) * 1000.0, 1), self.coverage.percent()]
            )
            if time.monotonic() >= deadline:
                break

            injected: list[Individual] = []
            if grew:
                stagnation = 0
            else:
                stagnation += 1
                injected = self._solve_open_branches(witnesses, deadline)

            cap = self.config.generations
            if cap is not None and self.generations >= cap:
                break
            if stagnation >= STAGNATION_LIMIT and not injected:
                population = self.engine.reinitialize()
                stagnation = 0
            else:
                population = self.engine.evolve(population, evals)
                population[: len(injected)] = injected
            self.generations += 1

        return self.report(time.monotonic() - started)

    # ------------------------------------------------------------------
    # solver activation

    def _solve_open_branches(
        self,
        witnesses: list[tuple[Individual, list[TaintReport]]],
        deadline: float | None = None,
    ) -> list[Individual]:
        """Negate never-taken sides of observed branches; returns patched
        copies of the witnessing individuals for every model found.  The
        solver stops at ``deadline``, as every transaction does."""
        if not self.config.solver_enabled:
            return []
        injected: list[Individual] = []
        budget = MAX_SOLVER_CALLS
        branches = self.coverage.find_open_branches()
        index = _witness_index(witnesses) if branches else {}
        for branch in branches:
            if budget <= 0:
                break
            key = (branch.pc, branch.want_taken)
            if key in self._infeasible:
                continue
            witness = index.get((branch.pc, not branch.want_taken))
            if witness is None:
                continue
            individual, constraints, target_index, var_values = witness
            if not free_variables(constraints[target_index].cond):
                continue  # nothing to solve for: no call, no budget spent
            budget -= 1
            result = self.bridge.solve_branch(constraints, target_index, var_values, deadline)
            if result.status == "sat" and result.model:
                # a branch that stays open despite a model (replay drifted,
                # value got purged) is solved again from a fresh witness
                injected.append(self._apply_model(individual, result.model))
            elif result.status == "unsat":
                self._infeasible.add(key)
        return injected

    # ------------------------------------------------------------------
    # writing models back into test cases

    def _apply_model(self, individual: Individual, model: dict[str, int]) -> Individual:
        patched = individual.copy()
        for name in sorted(model):
            info = parse_var(name)
            if info.input_index is None or info.input_index >= len(patched.inputs):
                continue
            self._apply_var(patched.inputs[info.input_index], info, model[name])
        return patched

    def _apply_var(self, inp: Input, info, value: int) -> None:
        """Write one solved variable into ``inp``.  A value that lands in a
        mutation pool goes into its bucket and is tagged on the input."""
        kind, env, solved = info.kind, inp.env, None
        if kind in _SOLVED_FIELDS:
            on_env, attribute, clamp = _SOLVED_FIELDS[kind]
            solved = clamp(value)
            setattr(env if on_env else inp, attribute, solved)
        elif kind == "arg":
            solved = self._apply_argument(inp, info.extra, value)
        elif kind == "callres":
            _, ret = env.call_results.get(info.extra, DEFAULT_CALL_RESULT)
            solved = env.call_results[info.extra] = (1 if value else 0, ret)
        elif kind == "callret":
            callee, chunk = info.extra
            success, ret = env.call_results.get(callee, DEFAULT_CALL_RESULT)
            ret = ret.ljust(32 * (chunk + 1), b"\x00")
            ret = ret[: 32 * chunk] + value.to_bytes(32, "big") + ret[32 * (chunk + 1):]
            solved = env.call_results[callee] = (success, ret)
        elif kind == "extcode":
            solved = env.extcode_sizes[info.extra] = min(value, MAX_SOLVED_EXTCODE_SIZE)
        elif kind == "retsize":  # a size only: its pool holds whole call results
            env.returndata_sizes[info.extra] = min(value, MAX_SOLVED_RETURN_SIZE)
        if solved is not None:
            bucket = pool_bucket(info, inp)
            self.engine.pools.insert(*bucket, solved)
            inp.pool_tags[bucket] = solved

    def _apply_argument(self, inp: Input, word_index: int, value: int):
        """Write a solved calldata head word into ``inp``; returns the
        argument value it became, or None where it fills no single-word
        static argument."""
        if inp.fn is None:
            # raw calldata: patch the word in place, growing as needed
            end = 4 + 32 * (word_index + 1)
            data = bytearray(inp.raw_calldata.ljust(end, b"\x00"))
            data[end - 32: end] = value.to_bytes(32, "big")
            inp.raw_calldata = bytes(data)
            return None
        position = inp.fn.argument_at(word_index)
        if position is None:
            return None
        abi_type = inp.fn.inputs[position]
        if abi_type.is_dynamic() or abi_type.head_words() != 1:
            return None
        inp.args[position] = coerced = _coerce_word(abi_type, value)
        return coerced

    # ------------------------------------------------------------------
    # reporting

    def report(self, elapsed: float) -> dict:
        return {
            "version": REPORT_VERSION,
            "config": self.config.jsonable(),
            "seed": self.config.seed,
            "contract": f"{self.address:#042x}",
            "elapsed_seconds": round(elapsed, 3),
            "generations": self.generations,
            "executions": self.executions,
            "coverage": {
                "instructions_visited": len(self.coverage.executed),
                "instructions_total": self.coverage.instructions_total,
                "percent": round(self.coverage.percent(), 2),
                "branches": self.coverage.branches_observed(),
            },
            "series": self.series,
            "findings": [finding.jsonable() for finding in self.findings],
            "solver": dict(self.bridge.stats),
            "infeasible": [list(key) for key in sorted(self._infeasible)],
            "crossovers": list(self.engine.crossover_log),
        }


def _witness_index(witnesses: list[tuple[Individual, list[TaintReport]]]) -> dict:
    """Each observed branch side ``(pc, taken)`` -> the first individual
    whose path went that way, its constraints over all its inputs, the index
    of the first one at that side, and its variables' observed values."""
    index = {}
    for individual, reports in witnesses:
        merged = [constraint for report in reports for constraint in report.constraints]
        # later inputs observe post-write storage; last value wins,
        # matching what the target input actually read
        var_values = {k: v for report in reports for k, v in report.var_values.items()}
        for target, c in enumerate(merged):
            index.setdefault((c.pc, c.taken), (individual, merged, target, var_values))
    return index


def _coerce_word(abi_type, value: int):
    """Squeeze a 256-bit model word into an ABI value of the given type."""
    if abi_type.kind == "uint":
        return value & ((1 << abi_type.bits) - 1)
    if abi_type.kind == "int":
        masked = value & ((1 << abi_type.bits) - 1)
        if masked >= 1 << (abi_type.bits - 1):
            masked -= 1 << abi_type.bits
        return masked
    if abi_type.kind == "address":
        return value & ADDRESS_MASK
    if abi_type.kind == "bool":
        return int(value != 0)
    if abi_type.kind == "fbytes":
        # fixed bytes sit left-aligned in their calldata word
        return (value >> (8 * (32 - abi_type.bits))).to_bytes(abi_type.bits, "big")
    raise ValueError(f"not a word type: {abi_type.kind}")  # pragma: no cover


def run_campaign(
    abi: ContractAbi,
    runtime_code: bytes,
    creation_code: bytes | None = None,
    constructor_args: bytes = b"",
    config: CampaignConfig | None = None,
    pre_storage: dict[int, int] | None = None,
    contract_balance: int = 0,
) -> dict:
    campaign = Campaign(
        abi,
        runtime_code,
        creation_code=creation_code,
        constructor_args=constructor_args,
        config=config,
        pre_storage=pre_storage,
        contract_balance=contract_balance,
    )
    return campaign.run()


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
