"""Coverage accounting over instruction offsets and branch outcomes."""

from __future__ import annotations

from dataclasses import dataclass

from ..evm import ExecutionTrace
from ..evm.opcodes import instruction_starts


@dataclass(frozen=True)
class OpenBranch:
    """A JUMPI site where only one outcome has ever been observed."""

    pc: int
    want_taken: bool  # the outcome nobody has produced yet


class CoverageStore:
    def __init__(self, code: bytes) -> None:
        self._starts = frozenset(instruction_starts(code))
        self.instructions_total = len(self._starts)
        self.executed: set[int] = set()
        self.branch_outcomes: dict[int, set[bool]] = {}

    def merge_trace(self, trace: ExecutionTrace) -> bool:
        """Fold one trace in; returns True when new instructions appeared."""
        facts = trace.facts
        fresh = facts.executed - self.executed
        if fresh:
            fresh &= self._starts
            self.executed |= fresh
        for pc, _, taken in facts.jumpis:
            self.branch_outcomes.setdefault(pc, set()).add(taken)
        return bool(fresh)

    def snapshot_executed(self) -> frozenset[int]:
        return frozenset(self.executed)

    def percent(self) -> float:
        if not self.instructions_total:
            return 0.0
        return 100.0 * len(self.executed) / self.instructions_total

    def branches_observed(self) -> int:
        return sum(len(outcomes) for outcomes in self.branch_outcomes.values())

    def find_open_branches(self) -> list[OpenBranch]:
        out = []
        for pc in sorted(self.branch_outcomes):
            outcomes = self.branch_outcomes[pc]
            if len(outcomes) == 1:
                seen = next(iter(outcomes))
                out.append(OpenBranch(pc=pc, want_taken=not seen))
        return out
