"""The work of one seed-1 pass of each benchmark workload, and of a held-out
seed-11 pass of the workloads whose campaigns depend on the seed, pinned.

A change that should leave every search decision alone (a refactor, a speed
change) must leave this digest alone too: it covers each campaign's
executions, generations, coverage, (kind, pc) findings and solver counts.
A change that means to move the work updates the digest and says why.

Beside the digests, ``PASS_RUNS_AND_WALKS`` pins how much the seed-1
passes execute: the transactions the interpreter runs (``_transact``, so
outcome-memo hits do not count) and the taint walks it takes
(``_Walker.walk``, so walks kept on a trace do not count).  The digest
cannot see these, since a memo hit gives the same answer as a run.  A
change that means to move these counts updates them and gives the reason.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from evmfuzz.analysis import taint  # noqa: E402
from evmfuzz.evm import Interpreter  # noqa: E402

PASS_DIGESTS = {
    ("fixtures", 1): "4c0d27ec961e",
    ("storage", 1): "2f6c71bcf8ad",
    ("guards", 1): "eb1d12e48691",
    # seeds 2 and 3, which the fingerprint check over seeds 1-3 reads too
    ("storage", 2): "111679608542",
    ("storage", 3): "9a4fa81a59cf",
    ("guards", 2): "62f0d54dd86a",
    ("guards", 3): "b893473a55d2",
    # the held-out seed that speed claims are checked on
    ("storage", 11): "be60e91a356e",
    ("guards", 11): "b179b3805e93",
}

# Keyed by what each run read, the outcome memo skips about three runs in
# four (the pass ran 10 292 / 384 / 7 925 transactions when it was keyed by
# the whole pre-state).  A full trie is emptied whole, so an outcome met
# again after that gets a fresh trace and is walked again: 3 766 walks on
# ``fixtures`` where a memo that evicted its oldest outcome took 3 436.
PASS_RUNS_AND_WALKS = {
    "fixtures": (2_807, 3_766),
    "storage": (188, 274),
    "guards": (2_691, 4_358),
}


def counted(monkeypatch, owner, name) -> list:
    """The calls made to ``owner.name`` from now on, one entry each."""
    calls = []
    shipped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return shipped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def pass_digest(workload: str, seed: int) -> str:
    fingerprint = run.pass_fingerprint(run.run_pass(run.workload_jobs(workload, seed)))
    return hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()[:12]


@pytest.mark.parametrize("workload", sorted(w for w, seed in PASS_DIGESTS if seed == 1))
def test_a_seed_one_pass_does_the_pinned_work(workload, monkeypatch):
    runs = counted(monkeypatch, Interpreter, "_transact")
    walks = counted(monkeypatch, taint._Walker, "walk")
    assert pass_digest(workload, 1) == PASS_DIGESTS[workload, 1]
    assert (len(runs), len(walks)) == PASS_RUNS_AND_WALKS[workload]


@pytest.mark.parametrize("workload, seed", sorted(key for key in PASS_DIGESTS if key[1] in (2, 3)))
def test_seed_two_and_three_passes_do_the_pinned_work(workload, seed):
    assert pass_digest(workload, seed) == PASS_DIGESTS[workload, seed]


@pytest.mark.parametrize("workload", sorted(w for w, seed in PASS_DIGESTS if seed == 11))
def test_a_held_out_seed_pass_does_the_pinned_work(workload):
    assert pass_digest(workload, 11) == PASS_DIGESTS[workload, 11]
