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
from bisect import bisect
from dataclasses import dataclass

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
POPULATION_SCALE = 2  # individuals per callable function
CROSSOVER_PROBABILITY = 0.9
MUTATION_PROBABILITY = 0.1  # per field of every input


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
        facts = trace.facts
        for pc, dest, _ in facts.jumpis:
            score += (dest not in executed_before) + (pc + 1 not in executed_before)
        if trace.state_delta_applied:
            score += facts.sstores
    return float(score)


def ranking_order(fitnesses: list[float]) -> list[int]:
    """Indices sorted worst-to-best; equal fitness keeps insertion order."""
    return sorted(range(len(fitnesses)), key=lambda i: fitnesses[i])


def select_ranked(rng: random.Random, ranking: tuple[list[int], list[int]]) -> int:
    """Linear ranking selection over ``(ranking_order, cumulative rank
    weights)``: rank r is chosen with P = 2r / (N(N+1)), by the one draw
    ``rng.choices(order, cum_weights=cum_weights)`` makes, less its checks."""
    order, cum_weights = ranking
    return order[bisect(cum_weights, rng.random() * cum_weights[-1], 0, len(order) - 1)]


class GeneticEngine:
    def __init__(
        self,
        rng: random.Random,
        abi: ContractAbi,
        accounts: AccountSet,
        contract_address: int,
        *,
        raw_aware: bool = True,
        env_fuzzing: bool = True,
    ) -> None:
        self.rng = rng
        self.abi = abi
        self.accounts = accounts
        self.contract_address = contract_address
        # ablation switches: pair parents by storage overlap, fuzz environment
        self.raw_aware = raw_aware
        self.env_fuzzing = env_fuzzing
        self.pools = MutationPools()
        # what traces showed, kept sorted: each mutation walks them in order
        self.known_callees: tuple[int, ...] = ()
        self.known_extcode_targets: tuple[int, ...] = ()
        self.crossover_log: list[dict] = []
        self._partner_cursor = 0
        self._callable: list[FunctionSpec | None] = list(abi.functions)
        if abi.has_fallback or not self._callable:
            self._callable.append(None)
        self.population_size = max(2, POPULATION_SCALE * len(self._callable))
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
            payable = self.abi.fallback_payable
        else:
            inp.args = [
                generate_argument(self.rng, t, self._address_universe)
                for t in fn.inputs
            ]
            payable = fn.payable
        if payable:
            selector = inp.selector
            inp.value = inp.pool_tags["amount", selector] = self.pools.pick_amount(selector)
        return inp

    # ------------------------------------------------------------------
    # selection

    def _partner_for(
        self, first: int, evals: list[Evaluation], ranking: tuple[list[int], list[int]],
        linked: dict[int, list[int]],
    ) -> int:
        """A data-linked partner of ``first`` in round-robin, else a ranked draw;
        ``linked`` keeps the candidates found per first parent over ``evals``."""
        candidates = linked.get(first) if self.raw_aware else ()
        if candidates is None:
            mine = evals[first]
            candidates = linked[first] = [
                j for j, other in enumerate(evals) if j != first and (
                    mine.storage_writes & other.storage_reads
                    or other.storage_writes & mine.storage_reads)
            ]
        if candidates:
            partner = candidates[self._partner_cursor % len(candidates)]
            self._partner_cursor += 1
            return partner
        return select_ranked(self.rng, ranking)

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
            self.rng.random() < CROSSOVER_PROBABILITY
            and len(a) + len(b) <= MAX_INPUTS
        ):
            if self.raw_aware and (
                eval_b.storage_writes & eval_a.storage_reads
                and not (eval_a.storage_writes & eval_b.storage_reads)
            ):
                # only the reverse direction is data-linked: writer goes first
                child = Individual(b.inputs + a.inputs)
            else:
                child = Individual(a.inputs + b.inputs)
            self._log_crossover(a, b, child)
            return child
        return Individual(list(a.inputs))

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
        individual.inputs = [self._mutate_input(inp) for inp in individual.inputs]

    def _mutate_input(self, inp: Input) -> Input:
        """``inp`` itself when no field is drawn, else a copy with the drawn
        fields.  Each field takes one ``random()`` draw against
        ``MUTATION_PROBABILITY`` in a fixed order, and seeded campaigns
        depend on that order: ``test_evolution_draws_are_pinned`` pins it."""
        rng = self.rng
        draw, chance = rng.random, MUTATION_PROBABILITY
        selector = inp.selector
        payable = inp.fn.payable if inp.fn else self.abi.fallback_payable
        new = None  # the copy; its pool_tags key each drawn value by its pool bucket

        if draw() < chance:
            pooled = self.pools.pick("sender", selector)
            sender = pooled if pooled is not None else rng.choice(self.accounts.all())
            new = new or inp.copy()
            new.sender = new.pool_tags["sender", selector] = sender
        if payable and draw() < chance:
            new = new or inp.copy()
            new.value = new.pool_tags["amount", selector] = self.pools.pick_amount(selector)
        if draw() < chance:
            pooled = self.pools.pick("gas_limit", selector)
            gas = pooled if pooled is not None else rng.randrange(MIN_GAS, MAX_GAS + 1)
            new = new or inp.copy()
            new.gas_limit = new.pool_tags["gas_limit", selector] = gas
        if inp.fn is not None:
            for j, abi_type in enumerate(inp.fn.inputs):
                if draw() < chance:
                    pooled = self.pools.pick("argument", (selector, j))
                    if pooled is None:
                        pooled = generate_argument(rng, abi_type, self._address_universe)
                    new = new or inp.copy()
                    new.args[j] = new.pool_tags["argument", (selector, j)] = pooled
        elif draw() < chance:
            new = new or inp.copy()
            new.raw_calldata = rng.randbytes(rng.randrange(0, MAX_RAW_CALLDATA + 1))
        if draw() < chance:
            pooled = self.pools.pick("calldata_size", selector)
            new = new or inp.copy()
            if pooled is not None:
                new.calldata_size = new.pool_tags["calldata_size", selector] = pooled
            elif rng.random() < 0.5:
                new.calldata_size = None
            else:
                base = len(new.calldata()) if new.calldata_size is None else new.calldata_size
                new.calldata_size = rng.randrange(0, max(base, 4) + 1)
        if not self.env_fuzzing:
            return new or inp
        # overrides must stay reversible: an input that can never get back to
        # the chain default would drift away from every replayable schedule
        # each block value's pool kind is also its attribute on the env
        for kind, default, span in (("timestamp", DEPLOY_TIMESTAMP, TEN_YEARS),
                                    ("block_number", DEPLOY_BLOCK_NUMBER, BLOCK_RANGE)):
            if draw() < chance:
                roll = rng.random()
                drawn = self.pools.pick(kind, selector) if roll < 0.6 else None
                if drawn is None and roll >= 0.8:
                    drawn = rng.randrange(default, default + span)
                new = new or inp.copy()
                if drawn is None:
                    setattr(new.env, kind, default)
                    new.pool_tags.pop((kind, selector), None)
                else:
                    setattr(new.env, kind, drawn)
                    new.pool_tags[kind, selector] = drawn
        for callee in self.known_callees:
            if draw() < chance:
                pooled = self.pools.pick("call_result", callee)
                if pooled is None:
                    success = 1 if rng.random() < 0.75 else 0
                    ret = b"\x00" * 32 if rng.random() < 0.5 else rng.randbytes(32)
                    pooled = (success, ret)
                new = new or inp.copy()
                new.env.call_results[callee] = new.pool_tags["call_result", callee] = pooled
            if draw() < chance:
                new = new or inp.copy()
                new.env.returndata_sizes[callee] = rng.choice(
                    [0, 32, 64, rng.randrange(0, 1025)]
                )
        for target in self.known_extcode_targets:
            if draw() < chance:
                pooled = self.pools.pick("extcode_size", target)
                if pooled is None:
                    pooled = rng.choice([0, 1, 100, 24_576, rng.randrange(0, 24_577)])
                new = new or inp.copy()
                new.env.extcode_sizes[target] = new.pool_tags["extcode_size", target] = pooled
        return new or inp

    # ------------------------------------------------------------------
    # generation turnover

    def evolve(
        self, population: list[Individual], evals: list[Evaluation]
    ) -> list[Individual]:
        order = ranking_order([e.fitness for e in evals])
        ranking = order, [k * (k + 1) // 2 for k in range(1, len(order) + 1)]
        children, linked = [], {}
        for _ in range(len(population)):
            first = select_ranked(self.rng, ranking)
            second = self._partner_for(first, evals, ranking, linked)
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
        """Register a trace's callees and EXTCODESIZE targets, once per
        trace this engine took in last."""
        if trace.facts.observed_by is self:
            return
        trace.facts.observed_by = self
        callees = {event.to for event in trace.calls if event.op in CALL_OPS}
        self.known_callees = _grown(self.known_callees, callees)
        self.known_extcode_targets = _grown(self.known_extcode_targets, trace.facts.extcode_targets)


def _grown(registry: tuple[int, ...], seen: set[int] | frozenset[int]) -> tuple[int, ...]:
    """``registry`` with the members of ``seen`` it lacks, still sorted."""
    return registry if seen.issubset(registry) else tuple(sorted(seen.union(registry)))
