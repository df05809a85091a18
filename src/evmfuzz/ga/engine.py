"""Genetic search over transaction sequences.

Fitness rewards trips through branch destinations nobody has reached yet plus
storage writes that survive (those are what later transactions can read).
Selection is linear-ranking; the second parent is preferred among individuals
whose storage accesses overlap the first parent's, walked round-robin so every
data-dependent pairing eventually gets its turn.  Crossover concatenates the
writer's transactions in front of the reader's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..abi import ContractAbi, FunctionSpec, generate_argument
from ..evm import (
    DEPLOY_BLOCK_NUMBER,
    DEPLOY_TIMESTAMP,
    ExecutionTrace,
)
from ..evm.opcodes import CALL_OPS
from ..evm.state import AccountSet
from .individual import MAX_INPUTS, Individual, Input
from .pools import MutationPools

TEN_YEARS = 315_360_000
BLOCK_RANGE = 10_000_000
MIN_GAS = 21_000
MAX_GAS = 8_000_000
MAX_RAW_CALLDATA = 68  # selector + one argument word, roughly
FALLBACK_KEY = b""


@dataclass
class GaConfig:
    max_inputs: int = MAX_INPUTS
    crossover_probability: float = 0.9
    mutation_probability: float = 0.1
    stagnation_limit: int = 10
    population_scale: int = 2
    # ablation switches: pair parents by storage overlap, fuzz environment
    raw_aware: bool = True
    env_fuzzing: bool = True


CROSSOVER_LOG_CAP = 4096


@dataclass
class Evaluation:
    """Per-individual results the engine needs for breeding."""

    fitness: float = 0.0
    storage_reads: frozenset = frozenset()
    storage_writes: frozenset = frozenset()


def _call_names(individual: Individual) -> list[str]:
    return [inp.fn.name if inp.fn else "(fallback)" for inp in individual.inputs]


def compute_fitness(traces: list[ExecutionTrace], executed_before: frozenset[int] | set[int]) -> float:
    """Branch-novelty plus applied-write score for one individual's traces.

    Every JUMPI occurrence contributes one point per destination (taken
    target from the top of stack, fall-through at pc+1) that the campaign
    had not executed before this generation; every SSTORE in a trace whose
    effects stuck contributes one point.
    """
    score = 0
    for trace in traces:
        applied = trace.state_delta_applied
        for record in trace.records:
            if record.op == "JUMPI" and len(record.stack) >= 2:
                for dest in (record.stack[-1], record.pc + 1):
                    if dest not in executed_before:
                        score += 1
            elif record.op == "SSTORE" and applied:
                score += 1
    return float(score)


def ranking_order(fitnesses: list[float]) -> list[int]:
    """Indices sorted worst-to-best; equal fitness keeps insertion order."""
    return sorted(range(len(fitnesses)), key=lambda i: fitnesses[i])


def select_ranked(rng: random.Random, fitnesses: list[float]) -> int:
    """Linear ranking selection: rank r is chosen with P = 2r / (N(N+1))."""
    order = ranking_order(fitnesses)
    ranks = range(1, len(order) + 1)
    return rng.choices(order, weights=ranks)[0]


class GeneticEngine:
    def __init__(
        self,
        rng: random.Random,
        abi: ContractAbi,
        accounts: AccountSet,
        contract_address: int,
        config: GaConfig | None = None,
    ) -> None:
        self.rng = rng
        self.abi = abi
        self.accounts = accounts
        self.contract_address = contract_address
        self.config = config or GaConfig()
        self.pools = MutationPools()
        self.known_callees: set[int] = set()
        self.known_extcode_targets: set[int] = set()
        self.crossover_log: list[dict] = []
        self._partner_cursor = 0
        self._callable: list[FunctionSpec | None] = list(abi.functions)
        if abi.has_fallback or not self._callable:
            self._callable.append(None)
        self.population_size = max(
            2, self.config.population_scale * len(self._callable)
        )
        self._address_universe = accounts.all() + (contract_address,)

    # ------------------------------------------------------------------
    # population construction

    def initial_population(self) -> list[Individual]:
        return [
            Individual([self.random_input(self._callable[i % len(self._callable)])])
            for i in range(self.population_size)
        ]

    def random_input(self, fn: FunctionSpec | None) -> Input:
        inp = Input(fn=fn, sender=self.rng.choice(self.accounts.all()))
        if fn is None:
            inp.raw_calldata = self.rng.randbytes(
                self.rng.randrange(0, MAX_RAW_CALLDATA + 1)
            )
            payable, selector = self.abi.fallback_payable, FALLBACK_KEY
        else:
            inp.args = [
                generate_argument(self.rng, t, self._address_universe)
                for t in fn.inputs
            ]
            payable, selector = fn.payable, fn.selector
        if payable:
            value = self.pools.pick_amount(selector)
            inp.value = value
            inp.pool_tags["callvalue"] = ("amount", selector, value)
        return inp

    # ------------------------------------------------------------------
    # selection

    def select_parents(
        self, population: list[Individual], evals: list[Evaluation]
    ) -> tuple[int, int]:
        fitnesses = [e.fitness for e in evals]
        first = select_ranked(self.rng, fitnesses)
        second = self._partner_for(first, evals, fitnesses)
        return first, second

    def _partner_for(
        self, first: int, evals: list[Evaluation], fitnesses: list[float]
    ) -> int:
        mine = evals[first]
        candidates = [
            j
            for j, other in enumerate(evals)
            if j != first
            and (
                (mine.storage_writes & other.storage_reads)
                or (other.storage_writes & mine.storage_reads)
            )
        ] if self.config.raw_aware else []
        if candidates:
            partner = candidates[self._partner_cursor % len(candidates)]
            self._partner_cursor += 1
            return partner
        return select_ranked(self.rng, fitnesses)

    # ------------------------------------------------------------------
    # variation

    def crossover(
        self,
        a: Individual,
        b: Individual,
        eval_a: Evaluation,
        eval_b: Evaluation,
    ) -> Individual:
        if (
            self.rng.random() < self.config.crossover_probability
            and len(a) + len(b) <= self.config.max_inputs
        ):
            if self.config.raw_aware and (
                eval_b.storage_writes & eval_a.storage_reads
                and not (eval_a.storage_writes & eval_b.storage_reads)
            ):
                # only the reverse direction is data-linked: writer goes first
                child = Individual([i.copy() for i in b.inputs + a.inputs])
            else:
                child = Individual([i.copy() for i in a.inputs + b.inputs])
            self._log_crossover(a, b, child)
            return child
        return a.copy()

    def _log_crossover(self, a: Individual, b: Individual, child: Individual) -> None:
        if len(self.crossover_log) >= CROSSOVER_LOG_CAP:
            return
        self.crossover_log.append(
            {
                "first": _call_names(a),
                "second": _call_names(b),
                "child": _call_names(child),
            }
        )

    def mutate(self, individual: Individual) -> None:
        for inp in individual.inputs:
            self._mutate_input(inp)

    def _chance(self) -> bool:
        return self.rng.random() < self.config.mutation_probability

    def _mutate_input(self, inp: Input) -> None:
        rng = self.rng
        selector = inp.fn.selector if inp.fn else FALLBACK_KEY
        payable = inp.fn.payable if inp.fn else self.abi.fallback_payable

        if self._chance():
            pooled = self.pools.pick("sender", selector)
            sender = pooled if pooled is not None else rng.choice(self.accounts.all())
            inp.sender = sender
            inp.pool_tags["caller"] = ("sender", selector, sender)
        if payable and self._chance():
            value = self.pools.pick_amount(selector)
            inp.value = value
            inp.pool_tags["callvalue"] = ("amount", selector, value)
        if self._chance():
            pooled = self.pools.pick("gas_limit", selector)
            gas = pooled if pooled is not None else rng.randrange(MIN_GAS, MAX_GAS + 1)
            inp.gas_limit = gas
            inp.pool_tags["gas"] = ("gas_limit", selector, gas)
        if inp.fn is not None:
            for j, abi_type in enumerate(inp.fn.inputs):
                if self._chance():
                    pooled = self.pools.pick("argument", (selector, j))
                    if pooled is None:
                        pooled = generate_argument(rng, abi_type, self._address_universe)
                    inp.args[j] = pooled
                    inp.pool_tags[f"arg_{j}"] = ("argument", (selector, j), pooled)
        else:
            if self._chance():
                inp.raw_calldata = rng.randbytes(rng.randrange(0, MAX_RAW_CALLDATA + 1))
        if self._chance():
            pooled = self.pools.pick("calldata_size", selector)
            if pooled is not None:
                inp.calldata_size = pooled
                inp.pool_tags["calldatasize"] = ("calldata_size", selector, pooled)
            elif rng.random() < 0.5:
                inp.calldata_size = None
            else:
                base = len(inp.calldata()) if inp.calldata_size is None else inp.calldata_size
                inp.calldata_size = rng.randrange(0, max(base, 4) + 1)
        if not self.config.env_fuzzing:
            return
        # overrides must stay reversible: an input that can never get back to
        # the chain default would drift away from every replayable schedule
        if self._chance():
            roll = rng.random()
            ts = self.pools.pick("timestamp", selector) if roll < 0.6 else None
            if ts is None and roll >= 0.8:
                ts = rng.randrange(DEPLOY_TIMESTAMP, DEPLOY_TIMESTAMP + TEN_YEARS)
            if ts is None:
                inp.env.timestamp = DEPLOY_TIMESTAMP
                inp.pool_tags.pop("timestamp", None)
            else:
                inp.env.timestamp = ts
                inp.pool_tags["timestamp"] = ("timestamp", selector, ts)
        if self._chance():
            roll = rng.random()
            number = self.pools.pick("block_number", selector) if roll < 0.6 else None
            if number is None and roll >= 0.8:
                number = rng.randrange(
                    DEPLOY_BLOCK_NUMBER, DEPLOY_BLOCK_NUMBER + BLOCK_RANGE
                )
            if number is None:
                inp.env.block_number = DEPLOY_BLOCK_NUMBER
                inp.pool_tags.pop("blocknumber", None)
            else:
                inp.env.block_number = number
                inp.pool_tags["blocknumber"] = ("block_number", selector, number)
        for callee in sorted(self.known_callees):
            if self._chance():
                pooled = self.pools.pick("call_result", callee)
                if pooled is None:
                    success = 1 if rng.random() < 0.75 else 0
                    ret = b"\x00" * 32 if rng.random() < 0.5 else rng.randbytes(32)
                    pooled = (success, ret)
                inp.env.call_results[callee] = pooled
                inp.pool_tags[f"callret_{callee:x}"] = ("call_result", callee, pooled)
            if self._chance():
                inp.env.returndata_sizes[callee] = rng.choice(
                    [0, 32, 64, rng.randrange(0, 1025)]
                )
        for target in sorted(self.known_extcode_targets):
            if self._chance():
                pooled = self.pools.pick("extcode_size", target)
                if pooled is None:
                    pooled = rng.choice([0, 1, 100, 24_576, rng.randrange(0, 24_577)])
                inp.env.extcode_sizes[target] = pooled
                inp.pool_tags[f"extcodesize_{target:x}"] = ("extcode_size", target, pooled)

    # ------------------------------------------------------------------
    # generation turnover

    def evolve(
        self, population: list[Individual], evals: list[Evaluation]
    ) -> list[Individual]:
        children = []
        for _ in range(len(population)):
            first, second = self.select_parents(population, evals)
            child = self.crossover(
                population[first], population[second], evals[first], evals[second]
            )
            self.mutate(child)
            children.append(child)
        return children

    def reinitialize(self) -> list[Individual]:
        """Fresh random population; pools survive, nothing is carried over."""
        return self.initial_population()

    # ------------------------------------------------------------------
    # observations feeding the registries

    def observe_trace(self, trace: ExecutionTrace) -> None:
        for event in trace.calls:
            if event.op in CALL_OPS:
                self.known_callees.add(event.to)
        for record in trace.records:
            if record.op == "EXTCODESIZE" and record.stack:
                self.known_extcode_targets.add(record.stack[-1])
