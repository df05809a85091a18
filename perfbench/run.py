"""Whole-campaign benchmark for evmfuzz.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 10 --trace 0

One process runs the workload's campaigns back to back on one thread: a
closed loop with a single caller, as a user fuzzing a batch of contracts
does.  Each campaign has a fixed campaign seed and generation cap, and a
wall-clock budget far above its run time, so a pass does the same work on
every run and a faster program does that work sooner.

A run makes one untimed warm-up pass, which also checks the outputs, then
repeats the pass until ``--seconds`` have gone by (at least three timed
passes).  Every pass must reproduce the warm-up's work fingerprint.

Throughput divides the transactions of one pass by the sum over campaigns
of each campaign's fastest run among the timed passes: a neighbour's load
on a shared host only ever adds time.  Set-up time is the median over
passes.  Both are then scaled to the speed of a reference machine, which
``calibrate`` measures before every campaign, because such load also comes
in spells of minutes that slow every campaign of a run alike.  On a 2-vCPU
VM this cut the interquartile spread of ``tx_per_s`` over six runs from
10 % to 5 %.  The info line before the result gives the unscaled figures.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` one pass runs with every layer boundary wrapped (see
``tracing.py``) and the last line reports the per-layer metrics of that
pass; ``trace_overhead`` is its run time over the untraced median.

The process exits with 0 after printing that line, with 2 when the program
cannot be imported, and with a traceback when a traced name is gone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_TIMED_PASSES = 3
# 10th percentile of ``calibrate()`` on the reference machine (2 shared
# vCPUs, Python 3.11); timings are reported at that machine's speed
REFERENCE_CALIBRATION_S = 0.0024
WORD_MASK = (1 << 256) - 1
CAMPAIGN_TIMEOUT = 600.0  # seconds; far above any campaign here, never binding
IMPORT_SAMPLES = 9

# Campaign counts and generation caps per workload.  Fixture campaigns run
# well past coverage saturation; storage programs have no branches, so a few
# generations cover them; guard campaigns are short and numerous.
FIXTURE_GENERATIONS = 150
STORAGE_PROGRAMS = 24
STORAGE_GENERATIONS = 6
GUARDS_PER_KIND = 16  # of 14 kinds: 9 forms, 5 of them also unsatisfiable
GUARD_GENERATIONS = 15

WORKLOADS = ("fixtures", "storage", "guards")

END_TO_END = (
    ("tx_per_s", "1/s"),
    ("setup_s", "s"),
    ("coverage_pct", "%"),
    ("gens_to_coverage", "count"),
    ("findings_expected", "ratio"),
    ("traps_clean", "ratio"),
    ("guards_opened", "ratio"),
    ("completed_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Job:
    contract: object  # inputs.Contract
    seed: int
    generations: int


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The campaigns of one workload; the same seed gives the same jobs.

    The fixture corpus is fixed and so are its campaign seeds: the
    generation at which a fixture's coverage saturates varies so widely
    from one campaign seed to the next that ``gens_to_coverage`` would
    measure the seed's luck rather than the search."""
    from inputs import fixture_contracts, guard_batch, storage_batch

    rng = Random(f"{workload}:{seed}")
    if workload == "fixtures":
        return [Job(contract, 1, FIXTURE_GENERATIONS) for contract in fixture_contracts()]
    if workload == "storage":
        contracts, generations = storage_batch(rng, STORAGE_PROGRAMS), STORAGE_GENERATIONS
    elif workload == "guards":
        contracts, generations = guard_batch(rng, GUARDS_PER_KIND), GUARD_GENERATIONS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Job(contract, rng.getrandbits(32), generations) for contract in contracts]


@dataclass
class Result:
    """What one campaign did, and how long it took."""

    name: str
    setup_s: float = 0.0
    run_s: float = 0.0
    error: str | None = None
    executions: int = 0
    generations: int = 0
    covered: int = 0
    coverage_pct: float = 0.0
    gens_to_final: int = 0
    findings: tuple = ()
    solver: tuple = ()
    opened: bool = False
    calibration_s: float = 0.0

    def fingerprint(self) -> list:
        return [self.name, self.error, self.executions, self.generations,
                self.covered, [list(f) for f in self.findings], [list(s) for s in self.solver]]


def run_job(job: Job, tracer=None) -> Result:
    from evmfuzz.abi import parse_abi
    from evmfuzz.campaign import Campaign, CampaignConfig

    contract = job.contract
    result = Result(contract.name, calibration_s=calibrate())
    span = tracer.span if tracer else (lambda name: nullcontext())
    try:
        started = perf_counter()
        with span("campaign.setup"):
            campaign = Campaign(
                parse_abi(contract.abi_json),
                contract.runtime,
                creation_code=contract.creation,
                constructor_args=contract.constructor_args,
                config=CampaignConfig(
                    seed=job.seed, timeout=CAMPAIGN_TIMEOUT, generations=job.generations
                ),
                contract_balance=contract.balance,
            )
        built = perf_counter()
        with span("campaign"):
            campaign.run()
        result.run_s = perf_counter() - built
        result.setup_s = built - started
    except Exception as error:  # a campaign that raises is a failed operation
        traceback.print_exc()
        result.error = f"{type(error).__name__}: {error}"
        return result
    if campaign.generations < job.generations:
        result.error = f"hit its {CAMPAIGN_TIMEOUT:.0f} s timeout"
    final = campaign.series[-1][1]
    result.executions = campaign.executions
    result.generations = campaign.generations
    result.covered = len(campaign.coverage.executed)
    result.coverage_pct = campaign.coverage.percent()
    # generation numbers count the initial population as 1
    result.gens_to_final = 1 + next(i for i, point in enumerate(campaign.series) if point[1] == final)
    result.findings = tuple(sorted({(f.kind, f.pc) for f in campaign.findings}))
    result.solver = tuple(sorted(campaign.bridge.stats.items()))
    result.opened = contract.guard_pc in campaign.coverage.executed
    return result


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter-like work that runs no
    program code: a small stack machine over 256-bit words that snapshots
    its stack into a trace record at every step and keeps a storage map."""
    started = perf_counter()
    records, stack, storage = [], [1, 2, 3, 4, 5, 6], {}
    for step in range(6000):
        records.append((step & 3, step, tuple(stack)))
        phase = step & 3
        if phase < 2:
            stack.append(step * 0x9E3779B97F4A7C15 & WORD_MASK)
        elif phase == 2:
            stack.append((stack.pop() * stack.pop() + step) & WORD_MASK)
        else:
            word = stack.pop()
            storage[word & 255] = storage.get(word >> 248, 0) + word & WORD_MASK
    return perf_counter() - started


def machine_speed(timed: list[list[Result]]) -> float:
    """How fast this machine ran during the timed passes, relative to the
    reference machine.  A neighbour's load on a shared host slows the
    program for minutes at a time; calibration samples taken between the
    campaigns slow down with it."""
    samples = [result.calibration_s for run in timed for result in run]
    return REFERENCE_CALIBRATION_S / statistics.quantiles(samples, n=10)[0]


def run_pass(jobs: list[Job], tracer=None) -> list[Result]:
    return [run_job(job, tracer) for job in jobs]


def pass_fingerprint(results: list[Result]) -> list:
    return [result.fingerprint() for result in results]


# ---------------------------------------------------------------------------
# output checks


def slot_sets(contract) -> tuple[frozenset, frozenset]:
    """Read and write sets the program's slot analysis recovers from one
    execution of a straight-line storage program."""
    from evmfuzz.analysis import read_set, write_set
    from evmfuzz.evm import EmulatedState, EnvOverrides, Interpreter, Transaction

    state = EmulatedState()
    address = 0xFEED0000000000000000000000000000000000AB
    state.code[address] = contract.runtime
    trace = Interpreter().execute(
        state,
        Transaction(sender=state.accounts.benign, to=address, value=0,
                    gas_limit=8_000_000, data=b""),
        EnvOverrides(),
    )
    if trace.terminal != "STOP":
        return frozenset(), frozenset()
    return read_set(trace), write_set(trace)


def check(jobs: list[Job], results: list[Result]) -> list[str]:
    """Every way the outputs disagree with the inputs' expectations."""
    from inputs import TRAP

    problems = []
    for job, result in zip(jobs, results):
        contract = job.contract
        kinds = {kind for kind, _ in result.findings}
        if result.error:
            problems.append(f"{contract.name}: campaign failed: {result.error}")
        elif contract.expect == TRAP and result.findings:
            problems.append(f"{contract.name}: false findings {result.findings}")
        elif contract.expect and contract.expect != TRAP and contract.expect not in kinds:
            problems.append(f"{contract.name}: {contract.expect} not reported, got {sorted(kinds)}")
        if contract.satisfiable is False and result.opened:
            problems.append(f"{contract.name}: unsatisfiable guard reported opened")
        if contract.reads is not None:
            reads, writes = slot_sets(contract)
            if (reads, writes) != (contract.reads, contract.writes):
                problems.append(f"{contract.name}: slot sets {sorted(reads)} / {sorted(writes)} "
                                f"differ from {sorted(contract.reads)} / {sorted(contract.writes)}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def _share(part: int, whole: int) -> float:
    """A share that is 1.0 when there is nothing to count."""
    return part / whole if whole else 1.0


def fastest_run_s(timed: list[list[Result]]) -> float:
    """Sum over campaigns of each one's fastest run."""
    return sum(min(result.run_s for result in runs) for runs in zip(*timed))


def end_to_end(jobs, warmup, timed, import_s, failed, attempted) -> dict[str, float]:
    from inputs import TRAP

    speed = machine_speed(timed)
    setups = [sum(result.setup_s for result in run) for run in timed]
    bugs = [r for job, r in zip(jobs, warmup) if job.contract.expect not in (None, TRAP)]
    found = [r for job, r in zip(jobs, warmup) if job.contract.expect in {k for k, _ in r.findings}]
    traps = [r for job, r in zip(jobs, warmup) if job.contract.expect == TRAP]
    unsat = [r for job, r in zip(jobs, warmup) if job.contract.satisfiable is False]
    sat = [r for job, r in zip(jobs, warmup) if job.contract.satisfiable]
    clean = sum(not r.findings for r in traps) + sum(not r.opened for r in unsat)
    return {
        "tx_per_s": sum(r.executions for r in warmup) / fastest_run_s(timed) / speed,
        "setup_s": (import_s + statistics.median(setups)) * speed,
        "coverage_pct": statistics.fmean(r.coverage_pct for r in warmup),
        "gens_to_coverage": sum(r.gens_to_final for r in warmup),
        "findings_expected": _share(len(found), len(bugs)),
        "traps_clean": _share(clean, len(traps) + len(unsat)),
        "guards_opened": _share(sum(r.opened for r in sat), len(sat)),
        "completed_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def import_seconds() -> float:
    """Median time to import evmfuzz in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import evmfuzz; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def source_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def code_digest() -> str:
    """Identifies the program and benchmark sources a fingerprint came from."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def remember_fingerprint(workload: str, seed: int, fingerprint) -> str | None:
    """Store this run's fingerprint digest; report a determinism failure when
    an earlier run of the same code on the same seed did different work."""
    digest = hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}:{seed}:{code_digest()}"
    earlier = known.setdefault(key, digest)
    OUT.mkdir(exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    if earlier != digest:
        return f"determinism failure: work fingerprint {digest[:12]} differs from {earlier[:12]} of an earlier run"
    return None


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    jobs = workload_jobs(workload, seed)
    import_s = import_seconds()
    counter = tracing.Tracer()
    with tracing.installed(counter, (tracing.EXECUTE, tracing.TAINT)):
        warmup = run_pass(jobs, counter)
    problems = check(jobs, warmup)
    if counter.counts["terminal.TIMEOUT"]:
        problems.append(f"{counter.counts['terminal.TIMEOUT']} transactions hit the per-input wall cap")
    if counter.counts["taint_realignments"]:
        problems.append(f"taint realigned {counter.counts['taint_realignments']} times")
    expected = pass_fingerprint(warmup)
    fingerprint = {
        "campaigns": expected,
        "executions": sum(r.executions for r in warmup),
        "instructions": counter.counts["instructions"],
        "terminals": {k: counter.counts[f"terminal.{k}"] for k in tracing.TERMINALS},
    }

    runs = [warmup]
    tracer = tracing.Tracer()
    if trace:
        with tracing.installed(tracer, tracing.BOUNDARIES):
            runs.append(run_pass(jobs, tracer))
        if pass_fingerprint(runs[-1]) != expected or tracer.counts["instructions"] != fingerprint["instructions"]:
            problems.append("determinism failure: the traced pass did different work")

    timed = []
    started = perf_counter()
    while len(timed) < MIN_TIMED_PASSES or perf_counter() - started < seconds:
        timed.append(run_pass(jobs))
        if pass_fingerprint(timed[-1]) != expected:
            problems.append(f"determinism failure: timed pass {len(timed)} did different work")
            break
    runs += timed
    attempted = sum(len(run) for run in runs)
    failed = sum(bool(r.error) for run in runs for r in run)
    stale = remember_fingerprint(workload, seed, fingerprint)
    if stale:
        problems.append(stale)

    print(f"workload {workload} seed {seed}: {len(jobs)} campaigns, {fingerprint['executions']} "
          f"transactions per pass, {len(timed)} timed passes")
    print("fingerprint " + json.dumps(fingerprint, separators=(",", ":")))
    print("info " + json.dumps({
        "src_lines": source_lines(),
        "import_s": import_s,
        "machine_speed": machine_speed(timed),
        "unscaled_tx_per_s": fingerprint["executions"] / fastest_run_s(timed),
    }))
    for problem in problems:
        print("check failed: " + problem)

    if trace:
        layers = tracing.layer_values(tracer)
        untraced = statistics.median(sum(r.run_s for r in run) for run in timed)
        layers["trace_overhead"] = sum(r.run_s for r in runs[1]) / untraced
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}-{seed}.tsv")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = end_to_end(jobs, warmup, timed, import_s, failed, attempted)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import evmfuzz  # noqa: F401  the program must be present to be measured
    except ImportError as error:
        print(f"cannot import the program from {SRC}: {error}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
