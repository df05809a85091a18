"""Command-line front end: load a compiled contract and run one campaign."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .abi import AbiError, ContractAbi, parse_abi
from .analysis.solver import SOLVER_CANDIDATES, detect_solver
from .campaign import CampaignConfig, check_initial_state, run_campaign, write_report
from .detectors import ALL_KINDS
from .evm import DeployError

EXIT_OK = 0
EXIT_INPUT = 1  # malformed inputs
EXIT_IO = 2  # unreadable inputs or unwritable outputs
EXIT_DEPLOY = 3  # constructor replay halted abnormally
EXIT_SOLVER = 4  # requested solver binary missing or unrecognized


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzz",
        description="Fuzz one EVM contract and report coverage plus findings.",
    )
    parser.add_argument("--abi", metavar="FILE", help="contract ABI (JSON)")
    parser.add_argument(
        "--bin-runtime",
        metavar="FILE",
        help="runtime bytecode as hex; skipped when --bin is replayed",
    )
    parser.add_argument(
        "--bin", metavar="FILE", help="creation bytecode as hex, replayed to deploy"
    )
    parser.add_argument(
        "--constructor-args",
        metavar="HEX",
        default="",
        help="ABI-encoded constructor arguments appended to the creation code",
    )
    parser.add_argument(
        "--state",
        metavar="FILE",
        help="JSON list of transactions replayed before fuzzing starts, each "
        '{"from": addr, "to": addr, "value": wei, "data": hex, "timestamp": secs}',
    )
    parser.add_argument("--seed", type=int, default=1, help="campaign RNG seed")
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--generations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N evolved generations (0 = score the initial "
        "population only; default: run until the time budget)",
    )
    parser.add_argument(
        "--solver-timeout-ms", type=int, default=100, help="per-query solver budget"
    )
    parser.add_argument(
        "--solver-bin",
        metavar="PATH",
        help="SMT solver executable (z3, cvc5, and cvc4 command lines are "
        "understood); default: the first of these found on PATH, looked up "
        "once, else the built-in solver",
    )
    parser.add_argument(
        "--detectors",
        metavar="LIST",
        default=",".join(ALL_KINDS),
        help=f"comma-separated subset of {','.join(ALL_KINDS)}",
    )
    parser.add_argument(
        "--no-solver",
        action="store_true",
        help="never invoke the constraint solver on stuck branches",
    )
    parser.add_argument(
        "--no-raw",
        action="store_true",
        help="ignore storage read/write links when pairing and ordering parents",
    )
    parser.add_argument(
        "--no-env",
        action="store_true",
        help="do not fuzz block values, external call results, or code sizes",
    )
    parser.add_argument("--report", metavar="FILE", help="write the JSON report here")
    parser.add_argument(
        "--trace-dump",
        metavar="DIR",
        help="write one JSONL trace file per executed individual",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the stdout summary"
    )
    return parser


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _Problem(EXIT_IO, f"cannot read {what} {path!r}: {exc}") from exc


def _read_code(path: str, what: str) -> bytes:
    text = _read_text(path, what).strip()
    if text.startswith(("0x", "0X")):
        text = text[2:]
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise _Problem(EXIT_INPUT, f"{what} {path!r} is not hex: {exc}") from exc


def _read_abi(path: str | None) -> ContractAbi:
    if path is None:
        return ContractAbi(has_fallback=True, fallback_payable=True)
    try:
        return parse_abi(_read_text(path, "ABI"))
    except (AbiError, json.JSONDecodeError) as exc:
        raise _Problem(EXIT_INPUT, f"bad ABI {path!r}: {exc}") from exc


def _read_state(path: str | None) -> tuple:
    """Parse the warm-up transaction list replayed ahead of the campaign."""
    if path is None:
        return ()
    try:
        blob = json.loads(_read_text(path, "state"))
        if not isinstance(blob, list):
            raise ValueError("expected a JSON list of transactions")
        check_initial_state(blob)
    except (ValueError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise _Problem(EXIT_INPUT, f"bad state file {path!r}: {exc}") from exc
    return tuple(blob)


def _parse_detectors(text: str) -> tuple[str, ...]:
    kinds = tuple(part.strip().upper() for part in text.split(",") if part.strip())
    unknown = [kind for kind in kinds if kind not in ALL_KINDS]
    if unknown:
        raise _Problem(EXIT_INPUT, f"unknown detectors: {', '.join(unknown)}")
    return kinds


def _solver_argv(path: str, timeout_ms: int) -> tuple[str, ...]:
    """Build a command line for an explicitly chosen solver binary."""
    resolved = Path(path)
    if not resolved.is_file() or not os.access(resolved, os.X_OK):
        raise _Problem(EXIT_SOLVER, f"solver binary {path!r} is not an executable file")
    base = resolved.name.lower()
    for name, template in SOLVER_CANDIDATES:
        if base.startswith(name):
            return tuple(template(str(resolved), timeout_ms))
    known = ", ".join(name for name, _ in SOLVER_CANDIDATES)
    raise _Problem(
        EXIT_SOLVER,
        f"unrecognized solver binary {path!r}; the name must start with one of: {known}"
    )


class _Problem(Exception):
    """A reason to stop before the campaign starts, with its exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.bin and not args.bin_runtime:
            raise _Problem(EXIT_INPUT, "one of --bin or --bin-runtime is required")
        if not args.timeout >= 0:  # NaN too: no deadline would ever pass
            raise _Problem(EXIT_INPUT, f"--timeout {args.timeout} is not a number of seconds")
        abi = _read_abi(args.abi)
        runtime = _read_code(args.bin_runtime, "runtime code") if args.bin_runtime else b""
        creation = _read_code(args.bin, "creation code") if args.bin else None
        try:
            constructor_args = bytes.fromhex(args.constructor_args.removeprefix("0x"))
        except ValueError as exc:
            raise _Problem(EXIT_INPUT, f"--constructor-args is not hex: {exc}") from exc
        solver_argv = None
        if args.solver_bin:
            if args.no_solver:
                raise _Problem(EXIT_INPUT, "--solver-bin conflicts with --no-solver")
            solver_argv = _solver_argv(args.solver_bin, args.solver_timeout_ms)
        elif not args.no_solver:
            solver_argv = detect_solver(args.solver_timeout_ms)
        try:
            config = CampaignConfig(
                seed=args.seed,
                timeout=args.timeout,
                generations=args.generations,
                solver_enabled=not args.no_solver,
                raw_aware=not args.no_raw,
                env_fuzzing=not args.no_env,
                solver_timeout_ms=args.solver_timeout_ms,
                solver_argv=solver_argv,
                detectors=_parse_detectors(args.detectors),
                trace_dir=args.trace_dump,
                initial_state=_read_state(args.state),
            )
        except ValueError as exc:
            raise _Problem(EXIT_INPUT, str(exc)) from exc
        if args.trace_dump:
            try:
                Path(args.trace_dump).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _Problem(
                    EXIT_IO, f"cannot write trace dump {args.trace_dump!r}: {exc}"
                ) from exc
    except _Problem as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return exc.code

    try:
        report = run_campaign(
            abi,
            runtime,
            creation_code=creation,
            constructor_args=constructor_args,
            config=config,
        )
    except DeployError as exc:
        print(f"fuzz: deployment failed: {exc}", file=sys.stderr)
        return EXIT_DEPLOY

    if args.report:
        try:
            write_report(report, args.report)
        except OSError as exc:
            print(f"fuzz: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO

    if not args.quiet:
        _print_summary(report, args.report)
    return EXIT_OK


def _print_summary(report: dict, report_path: str | None) -> None:
    cov = report["coverage"]
    print(
        f"contract {report['contract']}: "
        f"{cov['instructions_visited']}/{cov['instructions_total']} instructions "
        f"({cov['percent']}%), {cov['branches']} branch outcomes"
    )
    print(
        f"{report['executions']} transactions over {report['generations']} "
        f"generations in {report['elapsed_seconds']}s"
    )
    stats = report["solver"]
    if stats["attempts"]:
        print(
            f"solver: {stats['attempts']} queries, {stats['sat']} sat, "
            f"{stats['unsat']} unsat, {stats['unknown']} unknown"
        )
    print(f"findings: {len(report['findings'])}")
    for finding in report["findings"]:
        print(
            f"  {finding['kind']} at pc {finding['pc']:#x} "
            f"(input {finding['input_index']} of {finding['individual']})"
        )
    if report_path:
        print(f"report written to {report_path}")


if __name__ == "__main__":
    sys.exit(main())
