"""The work of one seed-1 pass of each benchmark workload, pinned.

A change that should leave every search decision alone (a refactor, a speed
change) must leave this digest alone too: it covers each campaign's
executions, generations, coverage, (kind, pc) findings and solver counts.
A change that means to move the work updates the digest and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

PASS_DIGESTS = {
    "fixtures": "4c0d27ec961e",
    "storage": "2f6c71bcf8ad",
    "guards": "eb1d12e48691",
}


@pytest.mark.parametrize("workload", sorted(PASS_DIGESTS))
def test_a_seed_one_pass_does_the_pinned_work(workload):
    fingerprint = run.pass_fingerprint(run.run_pass(run.workload_jobs(workload, 1)))
    digest = hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()
    assert digest[:12] == PASS_DIGESTS[workload]
