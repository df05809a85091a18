import json

import pytest

from evmfuzz.asm import assemble, creation_wrapper
from evmfuzz.cli import EXIT_DEPLOY, EXIT_INPUT, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from evmfuzz.keccak import keccak256

from test_abi import BAD_ABIS

SET_SEL = keccak256(b"set(uint256)")[:4]

RUNTIME = assemble(
    f"""
    PUSH1 0x00
    CALLDATALOAD
    PUSH1 0xe0
    SHR
    PUSH4 0x{SET_SEL.hex()}
    EQ
    PUSH @body
    JUMPI
    STOP
body:
    JUMPDEST
    PUSH1 0x04
    CALLDATALOAD
    PUSH1 0x00
    SSTORE
    STOP
"""
)

ABI_JSON = (
    '[{"type": "function", "name": "set",'
    ' "inputs": [{"type": "uint256"}], "stateMutability": "nonpayable"}]'
)

SUICIDAL = assemble(
    """
    CALLER
    SELFDESTRUCT
    """
)


@pytest.fixture
def compiled(tmp_path):
    """A contract directory: ABI, runtime hex, creation hex."""
    abi = tmp_path / "contract.abi"
    abi.write_text(ABI_JSON)
    runtime = tmp_path / "contract.bin-runtime"
    runtime.write_text("0x" + RUNTIME.hex() + "\n")
    creation = tmp_path / "contract.bin"
    creation.write_text(creation_wrapper(RUNTIME).hex())
    return tmp_path


def quick_args(compiled, *extra):
    return [
        "--abi", str(compiled / "contract.abi"),
        "--bin-runtime", str(compiled / "contract.bin-runtime"),
        "--seed", "3",
        "--generations", "3",
        "--timeout", "20",
        *extra,
    ]


# ---------------------------------------------------------------------------
# happy paths


def test_writes_report_and_summary(compiled, capsys):
    out = compiled / "report.json"
    code = main(quick_args(compiled, "--report", str(out)))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["coverage"]["instructions_total"] > 0
    stdout = capsys.readouterr().out
    assert "contract 0x" in stdout
    assert "findings:" in stdout
    assert f"report written to {out}" in stdout


def test_quiet_suppresses_stdout(compiled, capsys):
    assert main(quick_args(compiled, "--quiet")) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_deploys_creation_code_without_runtime(compiled, capsys):
    code = main(
        [
            "--abi", str(compiled / "contract.abi"),
            "--bin", str(compiled / "contract.bin"),
            "--seed", "1",
            "--generations", "2",
        ]
    )
    assert code == EXIT_OK
    assert "contract 0x" in capsys.readouterr().out


def test_runs_without_abi_as_fallback_only(compiled, tmp_path, capsys):
    raw = tmp_path / "suicidal.bin-runtime"
    raw.write_text(SUICIDAL.hex())
    code = main(
        ["--bin-runtime", str(raw), "--seed", "1", "--generations", "6"]
    )
    assert code == EXIT_OK
    assert "US at pc" in capsys.readouterr().out


def test_state_file_transactions_are_replayed_and_echoed(compiled):
    state = compiled / "state.json"
    txs = [
        {
            "from": "0xa77ac4e200000000000000000000000000000a01",
            "value": 3,
            "data": "0x" + SET_SEL.hex() + "07".rjust(64, "0"),
            "timestamp": 1_600_000_000,
        }
    ]
    state.write_text(json.dumps(txs))
    out = compiled / "report.json"
    code = main(quick_args(compiled, "--state", str(state), "--report", str(out)))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["initial_state"] == txs


def test_detector_filter_and_ablations(compiled):
    out = compiled / "report.json"
    code = main(
        quick_args(
            compiled,
            "--detectors", "af,IO",
            "--no-solver", "--no-raw", "--no-env",
            "--report", str(out),
        )
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["detectors"] == ["AF", "IO"]
    assert report["config"]["solver"] is False
    assert report["config"]["raw_aware"] is False
    assert report["config"]["env_fuzzing"] is False
    assert report["solver"]["attempts"] == 0


def test_trace_dump_directory(compiled):
    dump = compiled / "traces"
    assert main(quick_args(compiled, "--trace-dump", str(dump))) == EXIT_OK
    assert list(dump.glob("*.jsonl"))


def test_a_trace_dump_path_that_cannot_be_a_directory_fails_distinctly(compiled, capsys):
    taken = compiled / "contract.abi"  # an existing file, then a path under it
    for dump in (taken, taken / "traces"):
        assert main(quick_args(compiled, "--trace-dump", str(dump))) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("fuzz: cannot write trace dump") and repr(str(dump)) in err


# ---------------------------------------------------------------------------
# input problems


def test_requires_some_bytecode(capsys):
    assert main(["--seed", "1"]) == EXIT_INPUT
    assert "--bin or --bin-runtime" in capsys.readouterr().err


def test_rejects_missing_file(capsys):
    assert main(["--bin-runtime", "/does/not/exist.hex"]) == EXIT_IO
    assert "cannot read" in capsys.readouterr().err


def test_rejects_bad_hex(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("zz-not-hex")
    assert main(["--bin-runtime", str(bad)]) == EXIT_INPUT
    assert "not hex" in capsys.readouterr().err


def test_rejects_bad_abi(compiled, tmp_path, capsys):
    bad = tmp_path / "bad.abi"
    for text in ["{not json", *BAD_ABIS]:
        bad.write_text(text)
        args = quick_args(compiled)
        args[1] = str(bad)
        assert main(args) == EXIT_INPUT, text
        assert "bad ABI" in capsys.readouterr().err, text


def test_rejects_a_static_array_too_large_to_draw(compiled, tmp_path, capsys):
    huge = tmp_path / "huge.abi"
    huge.write_text(json.dumps(
        [{"type": "function", "name": "f", "inputs": [{"name": "x", "type": "uint8[100000000]"}]}]
    ))
    args = quick_args(compiled)
    args[1] = str(huge)
    assert main(args) == EXIT_INPUT == 1
    assert "bad ABI" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["nan", "-1"])
def test_rejects_a_timeout_that_is_not_a_number_of_seconds(compiled, capsys, seconds):
    # no deadline compares past NaN, so a run without --generations would never end
    assert main(quick_args(compiled, "--timeout", seconds)) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"fuzz: --timeout {float(seconds)}")


def test_rejects_a_negative_generation_cap(compiled, capsys):
    assert main(quick_args(compiled, "--generations", "-3")) == EXIT_INPUT
    assert capsys.readouterr().err == "fuzz: generations -3 is negative\n"


def test_rejects_unknown_detector(compiled, capsys):
    assert main(quick_args(compiled, "--detectors", "AF,XX")) == EXIT_INPUT
    assert "unknown detectors: XX" in capsys.readouterr().err


@pytest.mark.parametrize(
    "blob",
    [
        '{"storage": {}}',  # an object, not a transaction list
        '[{"to": "0x1"}]',  # transaction without a sender
        '[{"from": "pole"}]',  # unparseable address
        '[{"from": "0x1", "data": "0xzz"}]',  # unparseable calldata
        '[{"from": "0x1", "value": -5}]',  # negative value
        '[{"from": "0x1", "timestamp": "-0x1"}]',  # negative timestamp
        '[{"from": "0x1%s"}]' % ("0" * 40),  # a sender of 161 bits
        '[{"from": "0x1", "to": %d}]' % (1 << 160),  # a recipient of 161 bits
        '[{"from": "0x1", "data": 5}]',  # calldata that is not a string
        '[{"from": "0x1", "data": ["00"]}]',
        '[{"from": "0x1", "value": 1.5e400}]',  # a value JSON reads as infinity
        '[{"from": true, "value": 1.5, "timestamp": 2.9}]',  # a boolean and fractions
    ],
)
def test_rejects_bad_state_file(compiled, capsys, blob):
    state = compiled / "state.json"
    state.write_text(blob)
    assert main(quick_args(compiled, "--state", str(state))) == EXIT_INPUT
    assert "bad state file" in capsys.readouterr().err


def test_rejects_bad_constructor_args(compiled, capsys):
    args = [
        "--abi", str(compiled / "contract.abi"),
        "--bin", str(compiled / "contract.bin"),
        "--constructor-args", "0xzz",
    ]
    assert main(args) == EXIT_INPUT
    assert "not hex" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deployment problems


def test_reverting_constructor_fails_distinctly(tmp_path, capsys):
    creation = tmp_path / "broken.bin"
    creation.write_text(assemble("PUSH1 0x00\nPUSH1 0x00\nREVERT").hex())
    code = main(["--bin", str(creation), "--seed", "1", "--generations", "1"])
    assert code == EXIT_DEPLOY
    assert "deployment failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solver selection


def test_solver_bin_builds_a_known_command_line(compiled, tmp_path):
    fake = tmp_path / "z3-custom"
    fake.write_text("#!/bin/sh\nexit 1\n")
    fake.chmod(0o755)
    out = compiled / "report.json"
    code = main(
        quick_args(compiled, "--solver-bin", str(fake), "--report", str(out))
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    argv = report["config"]["solver_argv"]
    assert argv[0] == str(fake)
    assert "-in" in argv and "-smt2" in argv


def test_a_solver_found_on_path_is_probed_once_and_reported(compiled, monkeypatch):
    import shutil

    import evmfuzz.analysis.solver as solver_mod

    looked, spawned = [], []

    def which(name, *args, **kwargs):
        looked.append(name)
        return "/usr/local/bin/z3" if name == "z3" else None

    def fake_run(argv, **kwargs):
        spawned.append(argv)
        raise FileNotFoundError(argv[0])

    monkeypatch.setattr(shutil, "which", which)
    monkeypatch.setattr(solver_mod.subprocess, "run", fake_run)
    out = compiled / "report.json"
    assert main(quick_args(compiled, "--report", str(out), "--solver-timeout-ms", "70")) == EXIT_OK
    assert looked == ["z3"]
    argv = json.loads(out.read_text())["config"]["solver_argv"]
    assert argv == ["/usr/local/bin/z3", "-in", "-smt2", "-t:70"]
    assert all(list(spawned_argv) == argv for spawned_argv in spawned)


def test_no_solver_never_probes_or_spawns(compiled, monkeypatch):
    import shutil

    import evmfuzz.analysis.solver as solver_mod

    def refuse(*args, **kwargs):
        raise AssertionError("--no-solver looked for or ran a solver")

    monkeypatch.setattr(shutil, "which", refuse)
    monkeypatch.setattr(solver_mod.subprocess, "run", refuse)
    out = compiled / "report.json"
    assert main(quick_args(compiled, "--no-solver", "--report", str(out))) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["solver_argv"] is None
    assert report["solver"]["attempts"] == 0


def test_solver_bin_missing_fails_distinctly(compiled, capsys):
    code = main(quick_args(compiled, "--solver-bin", "/does/not/exist/z3"))
    assert code == EXIT_SOLVER
    assert "not an executable file" in capsys.readouterr().err


def test_solver_bin_unrecognized_fails_distinctly(compiled, tmp_path, capsys):
    fake = tmp_path / "mystery-smt"
    fake.write_text("#!/bin/sh\nexit 1\n")
    fake.chmod(0o755)
    code = main(quick_args(compiled, "--solver-bin", str(fake)))
    assert code == EXIT_SOLVER
    assert "unrecognized solver binary" in capsys.readouterr().err


def test_solver_bin_conflicts_with_no_solver(compiled, tmp_path, capsys):
    fake = tmp_path / "z3"
    fake.write_text("#!/bin/sh\nexit 1\n")
    fake.chmod(0o755)
    code = main(quick_args(compiled, "--solver-bin", str(fake), "--no-solver"))
    assert code == EXIT_INPUT
    assert "conflicts" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output problems


def test_unwritable_report_fails_distinctly(compiled, capsys):
    code = main(quick_args(compiled, "--report", "/does/not/exist/report.json"))
    assert code == EXIT_IO
    assert "cannot write report" in capsys.readouterr().err


def test_generations_default_runs_until_the_budget(compiled):
    out = compiled / "report.json"
    args = [
        "--abi", str(compiled / "contract.abi"),
        "--bin-runtime", str(compiled / "contract.bin-runtime"),
        "--seed", "3",
        "--timeout", "0.5",
        "--report", str(out),
        "--quiet",
    ]
    assert main(args) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["generations"] is None
    assert report["generations"] >= 1
    assert len(report["series"]) == report["generations"] + 1
