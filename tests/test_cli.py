import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from omxsim import cli
from omxsim.constants import MAX_ARRAY_ENTRIES, MAX_SAMPLES, MAX_SWEEP_WEIGHTS

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# protocol subcommands

def test_teleport_json_validates_and_is_ideal(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--n-bar", "0")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    phi_plus = [o for o in payload["outcomes"] if o["outcome"] == "phi_plus"][0]
    assert phi_plus["fidelity_raw"] == 1.0


def test_swap_json_validates(capsys):
    code, out, _ = run_cli(capsys, "swap", "--n-bar", "0.2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["aggregate_fidelity"] == pytest.approx((1296 / 1849) ** 2, abs=1e-9)


def test_readout_round_trip_via_cli(capsys):
    code, out, _ = run_cli(capsys, "readout", "--n-bar", "0",
                           "--alpha", "0.6,0", "--beta", "0,0.8")
    assert code == 0
    payload = json.loads(out)
    for herald in ("phi_plus", "phi_minus"):
        assert payload["retrieved"][herald]["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_qubit_flags_require_both(capsys):
    code, _, err = run_cli(capsys, "teleport", "--alpha", "0.6,0")
    assert code == 1
    assert "together" in err


@pytest.mark.parametrize("argv, message", [
    (("teleport", "--phi", "nan"), "--phi needs --theta"),
    (("readout", "--alpha", "1,0", "--beta", "0,0", "--phi", "0"), "--phi needs --theta"),
    (("teleport", "--theta", "1", "--alpha", "1,0", "--beta", "0,0"),
     "--theta cannot be combined with --alpha/--beta"),
    (("readout", "--theta", "1", "--beta", "0,1"),
     "--theta cannot be combined with --alpha/--beta"),
])
def test_conflicting_qubit_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"omxsim: error: {message}\n"


def test_readout_beyond_the_old_six_mode_registry_returns_a_report(capsys):
    code, out, err = run_cli(capsys, "readout", "--cutoff", "9")
    assert code == 0
    assert err == ""
    retrieved = json.loads(out)["retrieved"]
    for herald in ("phi_plus", "phi_minus"):
        assert retrieved[herald]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert not retrieved[herald]["partial_readout"]


def test_invalid_qubit_is_simulation_error(capsys):
    code, _, err = run_cli(capsys, "teleport", "--alpha", "1,0", "--beta", "1,0")
    assert code == 2
    assert "simulation error" in err
    # overflowing and non-finite amplitudes, and non-finite angles
    for argv in (("--alpha", "1e200,0", "--beta", "1e200,0"),
                 ("--alpha", "nan,0", "--beta", "1,0"),
                 ("--alpha", "1e400,0", "--beta", "0,0"),
                 ("--theta", "nan"),
                 ("--theta", "1", "--phi", "inf")):
        code, out, err = run_cli(capsys, "teleport", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("omxsim: simulation error: input qubit") or \
            err.startswith("omxsim: simulation error: Bloch angles")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("teleport", "--n-bar", "nan"),
    ("swap", "--n-bar", "inf", "--cutoff", "1"),
])
def test_non_finite_occupation_is_simulation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_huge_occupation_reports_the_large_occupation_limit(capsys):
    # s = n_bar/(n_bar+1) rounds to 1: the renormalized truncated weights
    # take their uniform limit and the fidelity its 1/9 limit
    code, out, _ = run_cli(capsys, "teleport", "--n-bar", "1e308")
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["aggregate_fidelity"] == pytest.approx(1 / 9, abs=1e-12)
    assert payload["closed_form"]["full_thermal"] == 0.0
    # without renormalization every weight is 0
    code, out, err = run_cli(capsys, "teleport", "--n-bar", "1e308", "--no-renormalize")
    assert code == 2
    assert out == ""
    assert err == "omxsim: simulation error: plan produced a zero-mass ensemble\n"


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_schema_and_values(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "teleport",
                           "--from", "0", "--to", "0.3", "--steps", "61")
    assert code == 0
    lines = out.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("protocol = teleport" in c for c in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "n_bar,simulated,closed_form,abs_diff"
    assert len(body) == 62
    for row in body[1:]:
        n_bar, simulated, closed, diff = (float(x) for x in row.split(","))
        assert abs(simulated - closed) < 1e-9
        assert diff < 1e-9


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "swap",
                           "--from", "0", "--to", "0.1", "--steps", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "swap"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["simulated"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--protocol", "teleport",
                         "--from", "0.3", "--to", "0", "--steps", "5")
    assert code == 1
    code, _, _ = run_cli(capsys, "sweep", "--protocol", "teleport",
                         "--from", "0", "--to", "0.3", "--steps", "0")
    assert code == 1


@pytest.mark.parametrize("start, stop", [("0", "inf"), ("nan", "1"), ("0", "nan")])
def test_non_finite_sweep_end_is_one_line_simulation_error(capsys, start, stop):
    code, out, err = run_cli(capsys, "sweep", "--protocol", "teleport",
                             "--from", start, "--to", stop, "--steps", "3")
    assert code == 2
    assert out == ""
    assert err == "omxsim: simulation error: sweep grid values must be finite and >= 0\n"


def test_oversized_sweep_grid_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sweep", "--protocol", "swap", "--from", "0",
                                 "--to", "0.3", "--steps", "1000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: sweep of 1000000000000 points needs "
                   f"81000000000000 pair weights, above the limit {MAX_SWEEP_WEIGHTS}\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ("teleport", "--n-bar", "0.1", "--cutoff", "126"),
    ("sweep", "--protocol", "teleport", "--from", "0.1", "--to", "0.1",
     "--steps", "1", "--cutoff", "126"),
])
def test_oversized_side_exits_2_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: 16129 thermal components on a "
                   "262144-dim side need 4228120576 amplitudes, above the limit "
                   f"{MAX_ARRAY_ENTRIES}\n")
    assert peak < 16 << 20


def test_oversized_readout_post_state_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "readout", "--n-bar", "0", "--cutoff", "60")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: a heralded state over 3844 magnon levels "
                   f"needs 14776336 entries, above the limit {MAX_ARRAY_ENTRIES}\n")
    assert peak < 16 << 20


# ---------------------------------------------------------------------------
# threshold

def test_threshold_prints_crossing(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--target", "0.6667")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split("=")[1])
    assert value == pytest.approx(0.233, abs=1e-3)


def test_threshold_unreachable_target(capsys):
    code, _, err = run_cli(capsys, "threshold", "--target", "0.05")
    assert code == 2
    assert "unreachable" in err


# ---------------------------------------------------------------------------
# circuit files

def test_run_and_validate_shipped_circuits(capsys):
    for name in ("teleport.omx", "swap.omx"):
        code, out, _ = run_cli(capsys, "run", str(CIRCUITS / name))
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)
        code, out, _ = run_cli(capsys, "validate", str(CIRCUITS / name))
        assert code == 0
        assert out.startswith("OK:")


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.omx"
    bad.write_text("apply bs50(pA.H)\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "second mode argument" in err


def test_circuit_with_infinite_occupation_exits_2(tmp_path, capsys):
    # the circuit language reads 1e999 as inf
    source = (CIRCUITS / "teleport.omx").read_text()
    assert "set n_bar = 0.2\n" in source
    bad = tmp_path / "hot.omx"
    bad.write_text(source.replace("set n_bar = 0.2\n", "set n_bar = 1e999\n"))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_circuit_with_non_finite_amplitude_exits_2(tmp_path, capsys):
    source = (CIRCUITS / "teleport.omx").read_text()
    bad = tmp_path / "nan.omx"
    bad.write_text(source.replace("set alpha = 0.6\n", "set alpha = nan\n"))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_circuit_with_unnormalized_qubit_exits_2(tmp_path, capsys):
    source = (CIRCUITS / "teleport.omx").read_text()
    bad = tmp_path / "norm.omx"
    bad.write_text(source.replace("set beta = 0.8\n", "set beta = 0.9\n"))
    for command in ("run", "validate"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("omxsim: simulation error: input qubit norm^2 = ")
        assert err.count("\n") == 1
    # the same qubit on the command line is refused the same way
    code, _, cli_err = run_cli(capsys, "teleport", "--alpha", "0.6,0", "--beta", "0.9,0")
    assert code == 2
    assert cli_err.split(" = ")[0] == err.split(" = ")[0]
    # a swap ignores the qubit settings
    swap = tmp_path / "swap.omx"
    swap.write_text((CIRCUITS / "swap.omx").read_text().replace(
        "set thermal_cutoff = 2", "set thermal_cutoff = 1\nset beta = 0.9"))
    assert run_cli(capsys, "validate", str(swap))[0] == 0


def test_unreadable_circuit_file_is_one_line_error(tmp_path, capsys):
    binary = tmp_path / "binary.omx"
    binary.write_bytes(bytes(range(128, 256)))
    for command in ("run", "validate"):
        for path, reason in ((tmp_path / "missing.omx", "No such file"),
                             (tmp_path, "Is a directory"),
                             (binary, "not a text file")):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1
            assert out == ""
            assert err.startswith(f"omxsim: error: cannot read {path}: {reason}")
            assert err.count("\n") == 1


def test_unwritable_output_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "teleport", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err == f"omxsim: error: cannot write {target}: No such file or directory\n"


def test_semantic_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.omx"
    bad.write_text("mode photon A\napply bs50(A.V, Z.V)\nmeasure bell(A, A)\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 3
    assert "undeclared" in err


def test_usage_error_exits_1(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys, "teleport", "--bogus-flag")
    assert code == 1


# ---------------------------------------------------------------------------
# determinism and output files

def test_identical_invocations_are_byte_identical(capsys):
    args = ("teleport", "--n-bar", "0.17", "--theta", "0.9", "--phi", "1.3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("sweep", "--protocol", "teleport", "--from", "0", "--to", "0.2",
            "--steps", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sampling_is_seeded(capsys):
    args = ("teleport", "--n-bar", "0.1", "--sample", "25", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    heralds = json.loads(first)["sampled_heralds"]
    assert len(heralds) == 25
    _, other, _ = run_cli(capsys, "teleport", "--n-bar", "0.1",
                          "--sample", "25", "--seed", "12")
    assert json.loads(other)["sampled_heralds"] != heralds


@pytest.mark.parametrize("argv, message", [
    (("teleport", "--sample", "-3"), f"--sample must lie in [0, {MAX_SAMPLES}]"),
    (("teleport", "--sample", "5", "--seed", "-1"), "--seed must be >= 0"),
    (("swap", "--sample", "3000000000"), f"--sample must lie in [0, {MAX_SAMPLES}]"),
])
def test_bad_sample_or_seed_is_one_line_usage_error(capsys, argv, message):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err == f"omxsim: error: {message}\n"
    assert peak < 16 << 20


RUNTIME_COMMANDS = [
    ("teleport", "--n-bar", "0.2"),
    ("swap", "--n-bar", "0.2"),
    ("readout", "--n-bar", "0.2"),
    ("sweep", "--protocol", "swap", "--from", "0", "--to", "0.3", "--steps", "3"),
    ("run", str(CIRCUITS / "teleport.omx")),
    ("run", str(CIRCUITS / "swap.omx")),
]


def test_runtime_never_imports_scipy():
    script = "\n".join([
        "import sys",
        "from omxsim import cli",
        "assert 'scipy' not in sys.modules, 'import'",
        f"for argv in {RUNTIME_COMMANDS!r}:",
        "    assert cli.main(list(argv)) == 0, argv",
        "    assert 'scipy' not in sys.modules, argv",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "omxsim.cli", "teleport", "--n-bar", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "teleport", "--n-bar", "0", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, SCHEMA)
