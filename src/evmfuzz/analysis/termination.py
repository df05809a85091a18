"""Pool hygiene for inputs that die on a guard.

When a transaction ends in REVERT or INVALID without touching state, the
last tainted branch it evaluated is the guard that killed it.  If that
condition pins the blame on exactly one fuzzable quantity, the pool value
that fed it gets evicted, so the mutation stage stops resampling a value
already known to bounce off the same check.  A guard over several free
quantities purges nothing: any one of them could be the wrong one, and
evicting a value that only failed because of its neighbour throws away
solver work (the exact payment for one schedule is still exact after a
mutation bends the clock).  A field with no pool tag on the input is left
alone.  Mutation tags the sender, gas limit, arguments, block values, call
results and code sizes it writes even when they came from fresh randomness
rather than a pool, and copies keep the tags of values evicted earlier.  So
a purge often names a value absent from its bucket; it still counts as an
eviction and resets that bucket's round-robin cursor.
"""

from __future__ import annotations

from ..evm.interpreter import ExecutionTrace
from ..ga.individual import Input
from ..ga.pools import MutationPools
from .solver import free_variables
from .taint import TaintReport, parse_var, pool_bucket

GUARD_TERMINALS = ("REVERT", "INVALID")


def purge_reverting_values(
    inputs: list[Input],
    traces: list[ExecutionTrace],
    reports: list[TaintReport],
    pools: MutationPools,
) -> int:
    """Evict pool values implicated in guard-terminated inputs.

    Returns the number of evictions performed.
    """
    purged = 0
    for inp, trace, report in zip(inputs, traces, reports):
        if trace.state_delta_applied or trace.terminal not in GUARD_TERMINALS:
            continue
        if not report.constraints:
            continue
        culprits = free_variables(report.constraints[-1].cond)
        if len(culprits) != 1:
            continue  # shared blame; see the module docstring
        [culprit] = culprits
        bucket = pool_bucket(parse_var(culprit), inp)
        if bucket in inp.pool_tags:
            pools.purge(*bucket, inp.pool_tags[bucket])
            purged += 1
    return purged
