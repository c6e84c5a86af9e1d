import argparse
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import command_grid
from omxsim import cli, protocols
from omxsim.constants import (
    MAX_DIMENSION,
    MAX_SAMPLES,
    MAX_SWEEP_WEIGHTS,
)
from omxsim.elements import ScatterModel
from omxsim.fock import OmxError

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


def _assert_agree(renormalized, raw, where: str):
    """The same fields and text; numbers equal to within 1e-13."""
    if isinstance(renormalized, dict):
        assert renormalized.keys() == raw.keys(), where
        for key in renormalized.keys() - {"renormalize"}:
            _assert_agree(renormalized[key], raw[key], f"{where} {key}")
    elif isinstance(renormalized, list):
        assert len(renormalized) == len(raw), where
        for k, (a, b) in enumerate(zip(renormalized, raw)):
            _assert_agree(a, b, f"{where} [{k}]")
    elif isinstance(renormalized, float):
        assert abs(renormalized - raw) <= 1e-13, where
    else:
        assert renormalized == raw, where


@pytest.mark.parametrize("model", ["paper", "bosonic"])
@pytest.mark.parametrize("cutoff", ["1", "2", "3"])
@pytest.mark.parametrize("command", ["teleport", "swap", "readout", "teleport-sweep",
                                     "swap-sweep"])
def test_renormalization_moves_reported_numbers_only_by_rounding(capsys, command, cutoff,
                                                                 model):
    # every reported number is a ratio of quantities bilinear in the two
    # sides' thermal weights, so each magnon's normalization cancels
    if command.endswith("-sweep"):
        runs = [("sweep", "--protocol", command[:-6], "--from", "0", "--to", "3",
                 "--steps", "37", "--format", "json")]
    else:
        runs = [(command, "--n-bar", n_bar) for n_bar in ("0", "0.05", "0.2", "0.45", "3")]
    for argv in runs:
        argv += ("--cutoff", cutoff, "--model", model)
        reports = []
        for flag in ("--renormalize", "--no-renormalize"):
            code, out, _ = run_cli(capsys, *argv, flag)
            assert code == 0, argv
            reports.append(json.loads(out))
        _assert_agree(*reports, " ".join(argv))


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


def _sweep_reference(protocol, start, stop, steps, cutoff, model, renormalize, fmt):
    """A sweep's text built one value at a time: `_fmt` of each value, the
    JSON rows as dicts written by `json.dumps(..., indent=2)`, the CSV rows
    as joined lines."""
    rows = protocols.sweep_fidelity(protocol, np.linspace(start, stop, steps),
                                    protocols.ThermalConfig(0.0, cutoff, renormalize),
                                    ScatterModel(model))
    f = cli._fmt
    if fmt == "json":
        payload = {
            "protocol": protocol,
            "config": {"thermal_cutoff": cutoff, "renormalize": renormalize,
                       "model": model, "from": float(f(start)), "to": float(f(stop)),
                       "steps": steps},
            "rows": [{key: float(f(v)) for key, v in row._asdict().items()}
                     for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["# omxsim sweep", f"# protocol = {protocol}", f"# from = {f(start)}",
             f"# to = {f(stop)}", f"# steps = {steps}", f"# thermal_cutoff = {cutoff}",
             f"# renormalize = {str(renormalize).lower()}", f"# model = {model}",
             "n_bar,simulated,closed_form,abs_diff"]
    lines += [",".join(f(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# a bare 0 (0.0 in JSON), small occupations, and ends from 1e12, where %.12g
# takes an exponent and JSON's float text does not until 1e16
SWEEP_ENDS = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e12, 1e300))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(protocol=st.sampled_from(["teleport", "swap"]), fmt=st.sampled_from(["csv", "json"]),
       model=st.sampled_from(["paper", "bosonic"]), renormalize=st.booleans(),
       cutoff=st.integers(1, 3), steps=st.integers(1, 61), ends=st.lists(
           SWEEP_ENDS, min_size=2, max_size=2).map(sorted))
def test_sweep_prints_the_text_built_one_value_at_a_time(
        tmp_path_factory, protocol, fmt, model, renormalize, cutoff, steps, ends):
    start, stop = ends
    argv = ["sweep", "--protocol", protocol, "--from", repr(start), "--to", repr(stop),
            "--steps", str(steps), "--cutoff", str(cutoff), "--model", model,
            "--renormalize" if renormalize else "--no-renormalize", "--format", fmt]
    try:
        expected = _sweep_reference(protocol, start, stop, steps, cutoff, model,
                                    renormalize, fmt)
    except OmxError as exc:
        assert command_grid._run(argv)[:3] == (2, "", f"omxsim: simulation error: {exc}\n")
        return
    assert command_grid._run(argv)[:3] == (0, expected, "")
    path = tmp_path_factory.mktemp("sweep") / f"sweep.{fmt}"
    assert command_grid._run(argv + ["--output", str(path)])[:3] == (0, "", "")
    assert path.read_bytes() == expected.encode()


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
    # each point weights both interferometers' 9 thermal components
    assert err == ("omxsim: simulation error: sweep of 1000000000000 points needs "
                   f"18000000000000 thermal weights, above the limit {MAX_SWEEP_WEIGHTS}\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ("teleport", "--n-bar", "0.1", "--cutoff", "255"),
    ("sweep", "--protocol", "teleport", "--from", "0.1", "--to", "0.1",
     "--steps", "1", "--cutoff", "255"),
])
def test_oversized_side_exits_2_before_allocating(capsys, argv):
    # the interferometer's side registry, 16 * 257**2 dimensions, exceeds
    # MAX_DIMENSION: its 65,536 thermal components are never propagated
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: registry dimension exceeds hard limit "
                   f"{MAX_DIMENSION}\n")
    assert peak < 16 << 20


def test_oversized_swap_side_exits_2_before_allocating(capsys):
    # each interferometer is its own 16 * 257**2-dim side, above MAX_DIMENSION
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "swap", "--n-bar", "0.2", "--cutoff", "255")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: registry dimension exceeds hard limit "
                   f"{MAX_DIMENSION}\n")
    assert peak < 1 << 20


def test_oversized_herald_factors_exit_2_before_allocating(monkeypatch, tmp_path,
                                                           capsys):
    # an extra photon coupled into each interferometer widens both sides'
    # dump ports, yet each side still enters the herald through one factor
    # row per thermal component: its norm, its 2 x 2 analyzer Gram and its
    # 4 x 4 sector Gram, 21 entries for each of 4 components
    source = (CIRCUITS / "swap.omx").read_text()
    source = source.replace("set thermal_cutoff = 2", "set thermal_cutoff = 1")
    source = source.replace("measure bell(B, D)", "mode photon E\nmode photon F\n"
                            "apply bs50(A.H, E.H)\napply bs50(C.H, F.H)\n"
                            "measure bell(B, D)")
    path = tmp_path / "wide.omx"
    path.write_text(source)
    assert run_cli(capsys, "run", str(path))[0] == 0
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 83)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert err == ("omxsim: simulation error: the herald factors of 4 thermal "
                   "components need 84 entries, above the limit 83\n")


@pytest.mark.parametrize("argv, message", [
    # the side registry, 16 * 257**2 dimensions, exceeds MAX_DIMENSION
    (("readout", "--n-bar", "0", "--cutoff", "255"),
     f"registry dimension exceeds hard limit {MAX_DIMENSION}"),
], ids=["cutoff-255"])
def test_readout_beyond_its_side_limits_exits_2_before_allocating(capsys, argv, message):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"omxsim: simulation error: {message}\n"
    assert peak < 16 << 20


def _traced_peak(capsys, *argv):
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out
    return peak


def test_readout_forms_only_the_two_heralded_states_it_reads(capsys):
    # 32**2 magnon levels: a heralded state over them would be 16 MiB, but
    # only PHI+'s and PHI-'s sector blocks and populations are formed (1.0 MiB
    # measured)
    assert _traced_peak(capsys, "readout", "--n-bar", "0", "--cutoff", "30") < 128 << 20


def test_readout_at_cutoff_43_peaks_without_a_heralded_state(capsys):
    # a 45**2-square heralded state would be 65 MiB (1.7 MiB measured)
    assert _traced_peak(capsys, "readout", "--n-bar", "0", "--cutoff", "43") < 16 << 20


def test_readout_runs_to_the_side_registry_limit(capsys):
    # cutoff 254: the side registry, 16 * 256**2 dimensions, is MAX_DIMENSION
    code, out, err = run_cli(capsys, "readout", "--n-bar", "0", "--cutoff", "254")
    assert (code, err) == (0, "")
    retrieved = json.loads(out)["retrieved"]
    for herald in ("phi_plus", "phi_minus"):
        assert retrieved[herald]["fidelity"] == 1.0
        assert retrieved[herald]["qubit_sector_weight"] == 1.0


def test_large_teleport_runs_from_the_herald_factors(capsys):
    # 441 components x 7,744 amplitudes would be a 52.1 MiB dense stack of
    # side outputs; the side is held as its batch entries and reduced to
    # herald factors, so none is formed (0.7 MiB measured)
    assert _traced_peak(capsys, "teleport", "--n-bar", "0.1", "--cutoff", "20") < 16 << 20


@pytest.mark.parametrize("argv, bound", [
    # a 9,216-dim side's 529 components in a dense stack took 271 MiB here
    (("swap", "--n-bar", "0.2", "--cutoff", "21"), 16 << 20),
    (("swap", "--n-bar", "0.2", "--cutoff", "40"), 32 << 20),
    # every magnon occupation's weighted columns took 141 MiB here
    (("readout", "--n-bar", "0.1", "--cutoff", "21"), 16 << 20),
    (("readout", "--n-bar", "0.2", "--cutoff", "22"), 16 << 20),
], ids=["swap-21", "swap-40", "readout-21", "readout-22"])
def test_large_cutoffs_run_from_the_herald_factors(capsys, argv, bound):
    assert _traced_peak(capsys, *argv) < bound


def test_swap_runs_to_the_side_registry_limit(capsys):
    # cutoff 254: each side registry, 16 * 256**2 dimensions, is MAX_DIMENSION
    code, out, err = run_cli(capsys, "swap", "--n-bar", "0.2", "--cutoff", "254")
    assert (code, err) == (0, "")
    s = 0.2 / 1.2
    assert json.loads(out)["aggregate_fidelity"] == pytest.approx(
        ((1 - s) / (1 - s ** 255)) ** 4, abs=1e-12)


def test_sweep_at_the_size_limit_stays_small(capsys):
    # 12,409 points x 2 x 169 thermal weights at cutoff 12, joined a slice of
    # the grid at a time (4.5 MiB measured); one point more exits 2
    steps = MAX_SWEEP_WEIGHTS // 338
    argv = ["sweep", "--protocol", "swap", "--from", "0", "--to", "0.3", "--cutoff", "12"]
    assert _traced_peak(capsys, *argv, "--steps", str(steps)) < 32 << 20
    code, out, err = run_cli(capsys, *argv, "--steps", str(steps + 1))
    assert (code, out) == (2, "")
    assert err == (f"omxsim: simulation error: sweep of {steps + 1} points needs "
                   f"{(steps + 1) * 338} thermal weights, above the limit "
                   f"{MAX_SWEEP_WEIGHTS}\n")


def test_json_sweep_at_the_size_limit_stays_small(capsys):
    # the same 12,409 points as JSON: one float list for json's C encoder
    # and one row template, not a dict per row (9.9 MiB measured)
    argv = ["sweep", "--protocol", "swap", "--from", "0", "--to", "0.3", "--cutoff", "12",
            "--steps", str(MAX_SWEEP_WEIGHTS // 338), "--format", "json"]
    assert _traced_peak(capsys, *argv) < 32 << 20


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


def test_swap_circuit_beyond_the_joint_registry_limit_validates_and_runs(
        tmp_path, capsys):
    # at thermal cutoff 7 the plan's joint registry would exceed MAX_DIMENSION;
    # each side's stays far below it
    source = (CIRCUITS / "swap.omx").read_text()
    assert "set thermal_cutoff = 2\n" in source
    path = tmp_path / "swap7.omx"
    path.write_text(source.replace("set thermal_cutoff = 2\n", "set thermal_cutoff = 7\n"))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out == f"OK: {path} (12 modes, 10 elements, protocol swap)\n"
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    s = 0.2 / 1.2
    assert payload["aggregate_fidelity"] == pytest.approx(((1 - s) / (1 - s ** 8)) ** 4,
                                                          abs=1e-12)


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.omx"
    bad.write_text("apply bs50(pA.H)\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "second mode argument" in err


def test_circuit_with_non_finite_occupation_exits_3(tmp_path, capsys):
    # the circuit language reads 1e999 as inf; like a negative occupation,
    # a non-finite one is refused at its `set` line
    source = (CIRCUITS / "teleport.omx").read_text()
    row = source.splitlines().index("set n_bar = 0.2") + 1
    bad = tmp_path / "hot.omx"
    for value in ("1e999", "nan", "-1"):
        bad.write_text(source.replace("set n_bar = 0.2\n", f"set n_bar = {value}\n"))
        for command in ("validate", "run"):
            code, out, err = run_cli(capsys, command, str(bad))
            assert code == 3
            assert out == ""
            assert err == (f"omxsim: circuit error: line {row}, column 1: bad value "
                           f"'{value}' for n_bar (expected a number >= 0)\n")


@pytest.mark.parametrize("element, argument", [("hwp(A, {})", "1e400"),
                                               ("pdc(c.H, mA, {})", "1e400")])
def test_circuit_with_overflowing_element_argument_exits_3(tmp_path, capsys, element,
                                                           argument):
    # 1e400 reads as inf; it is refused at its column, before any element is built
    source = (CIRCUITS / "teleport.omx").read_text()
    assert "apply hwp(A, 0.25pi)\n" in source
    bad = tmp_path / "huge.omx"
    line = "apply " + element.format(argument)
    bad.write_text(source.replace("apply hwp(A, 0.25pi)\n", line + "\n"))
    row = source.splitlines().index("apply hwp(A, 0.25pi)") + 1
    for command in ("validate", "run"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 3
        assert out == ""
        assert err == (f"omxsim: circuit error: line {row}, column "
                       f"{line.index(argument) + 1}: expected a finite "
                       f"{'second angle' if element.startswith('hwp') else 'third number'}"
                       f" argument, found '{argument}'\n")


@pytest.mark.parametrize("element, setting, message", [
    # cos(2e308) and e^{2i 1e308} are NaN: the unitarity check must still refuse
    ("hwp(A, 1e308)", "", "single-particle matrix not unitary (residual nan)"),
    ("phase(mA, 1e308)", "", "phase: not unitary (residual nan)"),
    # sqrt(2 * 3) * 1e308 overflows the squeezing generator
    ("pdc(c.H, mA, 1e308)", "set photon_cutoff = 2\n",
     "pdc: gt = 1e+308 overflows the generator"),
])
def test_circuit_whose_element_overflows_exits_2(tmp_path, capsys, element, setting,
                                                  message):
    source = (CIRCUITS / "teleport.omx").read_text()
    bad = tmp_path / "nan_element.omx"
    bad.write_text(setting + source.replace("apply hwp(A, 0.25pi)\n", f"apply {element}\n"))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"omxsim: simulation error: {message}\n"


def test_circuit_with_non_finite_amplitude_exits_3(tmp_path, capsys):
    source = (CIRCUITS / "teleport.omx").read_text()
    bad = tmp_path / "nan.omx"
    for key, value in (("alpha", "nan"), ("beta", "nan"), ("beta", "inf+0j")):
        line = next(line for line in source.splitlines() if line.startswith(f"set {key} ="))
        row = source.splitlines().index(line) + 1
        bad.write_text(source.replace(line, f"set {key} = {value}"))
        for command in ("validate", "run"):
            code, out, err = run_cli(capsys, command, str(bad))
            assert code == 3
            assert out == ""
            assert err == (f"omxsim: circuit error: line {row}, column 1: bad value "
                           f"'{value}' for {key} (expected a complex number)\n")


@pytest.mark.parametrize("name", ["teleport.omx", "swap.omx"])
def test_validate_refuses_a_side_past_the_limit_exactly_when_run_does(tmp_path, capsys,
                                                                      name):
    # the compiler counts each side's registry as the executor builds it:
    # at thermal cutoff 254 or photon cutoff 12 the largest side fits within
    # MAX_DIMENSION, and one level past it (or photon cutoff 40) it does not
    source = (CIRCUITS / name).read_text()
    circuit = tmp_path / name
    for setting, refused in (("thermal_cutoff = 254", False), ("thermal_cutoff = 255", True),
                             ("photon_cutoff = 12", False), ("photon_cutoff = 40", True)):
        circuit.write_text(f"{source}set {setting}\n")
        codes = []
        for command in ("validate", "run"):
            code, out, err = run_cli(capsys, command, str(circuit))
            codes.append(code)
            if code == 3:
                assert out == ""
                assert err == ("omxsim: circuit error: line 1, column 1: registry "
                               f"dimension exceeds hard limit {MAX_DIMENSION}\n")
        assert codes == ([3, 3] if refused else [0, 0]), setting


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


# ---------------------------------------------------------------------------
# repeated calls in one process

ONE_OF_EACH = [
    ("teleport", "--n-bar", "0.1"),
    ("swap", "--n-bar", "0.1"),
    ("readout", "--n-bar", "0.1"),
    ("sweep", "--protocol", "teleport", "--from", "0", "--to", "0.3", "--steps", "5"),
    ("threshold",),
    ("run", str(CIRCUITS / "teleport.omx")),
    ("validate", str(CIRCUITS / "swap.omx")),
    ("teleport", "--cutoff", "x"),
]


def test_one_parser_per_process(monkeypatch, capsys):
    run_cli(capsys, "threshold")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [run_cli(capsys, *argv)[0] for argv in ONE_OF_EACH]
    assert codes == [0] * 7 + [1]
    assert built == []
    # the counter does see a build: the parser and its seven subparsers
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "threshold")[0] == 0
    assert len(built) == 8


def test_no_state_carries_between_calls(capsys, tmp_path):
    sweep = ("sweep", "--protocol", "teleport", "--from", "0", "--to", "0.3",
             "--steps", "5")
    plain = [("teleport", "--n-bar", "0.1"), ("swap", "--n-bar", "0.1"),
             ("readout", "--n-bar", "0.1"), sweep, ("teleport", "--cutoff", "x")]
    flagged = [
        ("teleport", "--n-bar", "0.1", "--sample", "3", "--seed", "5"),
        ("swap", "--n-bar", "0.1", "--sample", "3", "--seed", "5"),
        ("teleport", "--n-bar", "0.1", "--no-renormalize", "--model", "bosonic"),
        ("readout", "--n-bar", "0.1", "--theta", "1.1", "--phi", "0.4"),
        sweep + ("--format", "json", "--no-renormalize", "--model", "bosonic"),
        ("teleport", "--n-bar", "0.1", "--output", str(tmp_path / "teleport.json")),
        sweep + ("--output", str(tmp_path / "sweep.csv")),
        ("teleport", "--cutoff", "x"),
    ]
    fresh = []
    for argv in plain:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    ran = [run_cli(capsys, *argv) for argv in flagged]
    assert [code for code, _, _ in ran] == [0] * 7 + [1]
    assert len(json.loads(ran[0][1])["sampled_heralds"]) == 3
    assert json.loads(ran[4][1])["config"]["model"] == "bosonic"
    later = [run_cli(capsys, *argv) for argv in plain]
    assert later == fresh
    assert "sampled_heralds" not in json.loads(later[0][1])
    assert "sampled_heralds" not in json.loads(later[1][1])
    assert later[3][1].startswith("# omxsim sweep\n")
    assert later[4][2].startswith("usage: omxsim teleport")


def test_command_outputs_do_not_depend_on_order():
    kinds = {}
    for argv in command_grid.commands():
        cutoff = int(argv[argv.index("--cutoff") + 1]) if "--cutoff" in argv else 2
        if cutoff <= 2 and "601" not in argv:
            kinds.setdefault(argv[0], []).append(argv)
    # about four per kind, at a stride that steps through the inner flag loops
    picked = [argv for group in kinds.values() for argv in group[::len(group) // 4 + 1]]
    # a refusal: unrenormalized weights at n_bar = 1e308 exit 2
    picked += [argv for argv in kinds["swap"]
               if "1e308" in argv and "--no-renormalize" in argv][:1]
    assert set(kinds) == {"teleport", "swap", "sweep", "readout", "run"}
    assert 15 <= len(picked) <= 25
    forward = {tuple(argv): command_grid.digest(argv) for argv in picked}
    backward = {tuple(argv): command_grid.digest(argv) for argv in reversed(picked)}
    assert forward == backward
    assert {line.split()[2] for line in forward.values()} == {"0", "2"}
