"""Tests of the benchmark's own reference checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402

GRID = (0.0, 1e-3, 0.05, 0.137, 0.2, 0.3, 2.0)


def s_of(n):
    return n / (1 + n)


@pytest.mark.parametrize("n_bar", GRID)
def test_paper_form_at_cutoff_2_is_the_shipped_closed_form(n_bar):
    s = s_of(n_bar)
    want = 1 / (1 + s + s * s) ** 2
    assert ref.teleport_fidelity(n_bar, 2, "paper") == pytest.approx(want, abs=1e-15)
    assert ref.closed_form_cutoff2("teleport", n_bar) == pytest.approx(want, abs=1e-15)
    assert ref.swap_fidelity(n_bar, 2, "paper") == pytest.approx(want ** 2, abs=1e-15)


@pytest.mark.parametrize("n_bar", GRID)
def test_paper_form_is_the_squared_ground_weight(n_bar):
    for cutoff in range(1, 9):
        w0 = ref.thermal_weights(n_bar, cutoff)[0]
        assert ref.teleport_fidelity(n_bar, cutoff, "paper") == \
            pytest.approx(w0 ** 2, abs=1e-14)


@pytest.mark.parametrize("n_bar", GRID)
def test_paper_form_converges_to_the_untruncated_mixture(n_bar):
    assert ref.teleport_fidelity(n_bar, 200, "paper") == \
        pytest.approx(ref.full_thermal("teleport", n_bar), abs=1e-12)


@pytest.mark.parametrize("n_bar", GRID)
def test_bosonic_form_at_cutoff_1_by_hand(n_bar):
    # w = (1, s) / (1 + s), <n> = s / (1 + s)
    s = s_of(n_bar)
    want = 1 / ((1 + s) * (1 + 2 * s))
    assert ref.teleport_fidelity(n_bar, 1, "bosonic") == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8])
def test_weights_are_normalized_and_bosonic_never_beats_paper(cutoff):
    for n_bar in GRID:
        assert sum(ref.thermal_weights(n_bar, cutoff)) == pytest.approx(1.0, abs=1e-15)
        assert ref.teleport_fidelity(n_bar, cutoff, "bosonic") <= \
            ref.teleport_fidelity(n_bar, cutoff, "paper") + 1e-15
    assert ref.teleport_fidelity(0.0, cutoff, "bosonic") == 1.0


def _sig12(x):
    return float(f"{x:.12g}")


def synthetic_report(protocol="teleport", n_bar=0.2, cutoff=3, model="bosonic"):
    f = ref.fidelity(protocol, n_bar, cutoff, model)
    value = ref.closed_form_cutoff2(protocol, n_bar)
    full = ref.full_thermal(protocol, n_bar)
    return {
        "protocol": protocol,
        "config": {"protocol": protocol, "n_bar": n_bar, "thermal_cutoff": cutoff,
                   "renormalize": True, "model": model, "alpha": [0.6, 0.0],
                   "beta": [0.8, 0.0], "photon_cutoff": 1},
        "outcomes": [{"outcome": o, "probability": 0.25,
                      "fidelity_raw": _sig12(f), "fidelity_corrected": _sig12(f),
                      "included_in_aggregate": o.startswith("phi"),
                      "requires_number_resolution": o.startswith("psi")}
                     for o in ref.BELL_ORDER],
        "no_herald_probability": 0.0,
        "aggregate_fidelity": _sig12(f),
        "closed_form": {"value": _sig12(value), "full_thermal": _sig12(full),
                        "abs_diff": _sig12(abs(f - value)),
                        "truncation_gap": _sig12(abs(value - full))},
    }


@pytest.fixture(scope="module")
def validator():
    return ref.load_validator(ROOT)


def check(report, validator, protocol="teleport"):
    return ref.check_report(json.dumps(report), validator, protocol, 0.2, 3, "bosonic",
                            True, 0.6 + 0j, 0.8 + 0j)


def test_check_report_accepts_the_reference_values(validator):
    check(synthetic_report(), validator)


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(aggregate_fidelity=r["aggregate_fidelity"] + 1e-10),
    lambda r: r["outcomes"][2].update(probability=0.2500001),
    lambda r: r.update(no_herald_probability=1e-11),
    lambda r: r["outcomes"][1].update(fidelity_corrected=0.5),
    lambda r: r["closed_form"].update(value=0.7),
    lambda r: r["config"].update(thermal_cutoff=2),
    lambda r: r.update(extra=1),                          # schema: no extra keys
    lambda r: r["outcomes"].reverse(),
])
def test_check_report_rejects_a_corrupted_report(validator, corrupt):
    report = copy.deepcopy(synthetic_report())
    corrupt(report)
    with pytest.raises(ref.CheckError):
        check(report, validator)


def test_check_report_rejects_non_json(validator):
    with pytest.raises(ref.CheckError):
        ref.check_report('{"aggregate_fidelity": NaN', validator, "teleport", 0.2, 2,
                         "paper", True)


def synthetic_sweep_csv(protocol, start, stop, steps, cutoff, model):
    lines = ["# omxsim sweep", f"# protocol = {protocol}", f"# steps = {steps}",
             f"# thermal_cutoff = {cutoff}", "# renormalize = true",
             f"# model = {model}", "n_bar,simulated,closed_form,abs_diff"]
    for n in ref.sweep_grid(start, stop, steps):
        sim = ref.fidelity(protocol, n, cutoff, model)
        cf = ref.closed_form_cutoff2(protocol, n)
        lines.append(",".join(f"{v:.12g}" for v in (n, sim, cf, abs(sim - cf))))
    return "\n".join(lines) + "\n"


def test_check_sweep_uses_the_general_cutoff_form():
    text = synthetic_sweep_csv("swap", 0.0, 0.3, 61, 3, "paper")
    assert ref.check_sweep(text, "csv", "swap", 0.0, 0.3, 61, 3, "paper", True) == 61
    # the cutoff-2 column is not what a cutoff-3 sweep simulates
    wrong = synthetic_sweep_csv("swap", 0.0, 0.3, 61, 2, "paper").replace(
        "thermal_cutoff = 2", "thermal_cutoff = 3")
    with pytest.raises(ref.CheckError):
        ref.check_sweep(wrong, "csv", "swap", 0.0, 0.3, 61, 3, "paper", True)


def test_check_sweep_rejects_a_missing_row():
    text = synthetic_sweep_csv("teleport", 0.0, 0.3, 11, 2, "bosonic")
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ref.CheckError):
        ref.check_sweep(short, "csv", "teleport", 0.0, 0.3, 11, 2, "bosonic", True)


def test_check_readout_requires_the_teleport_fidelity():
    f = ref.teleport_fidelity(0.1, 2, "paper")
    payload = {"protocol": "readout",
               "config": {"n_bar": 0.1, "thermal_cutoff": 2, "renormalize": False,
                          "model": "paper"},
               "retrieved": {h: {"probability": 0.25, "correction_applied": c,
                                 "fidelity": _sig12(f), "qubit_sector_weight": 0.9,
                                 "partial_readout": True}
                             for h, c in (("phi_plus", False), ("phi_minus", True))}}
    ref.check_readout(json.dumps(payload), 0.1, 2, "paper", False)
    payload["retrieved"]["phi_minus"]["fidelity"] = _sig12(f ** 2)
    with pytest.raises(ref.CheckError):
        ref.check_readout(json.dumps(payload), 0.1, 2, "paper", False)


def test_circuit_shape_reads_the_shipped_files():
    assert ref.circuit_shape((ROOT / "circuits/teleport.omx").read_text()) == \
        (8, 5, "teleport")
    assert ref.circuit_shape((ROOT / "circuits/swap.omx").read_text()) == (12, 10, "swap")


def cli_out(argv):
    from omxsim import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_cli_outputs_pass_their_checks(validator):
    theta, phi = 1.1, 0.4
    alpha = complex(math.cos(theta / 2))
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
    for model, ren in (("paper", True), ("bosonic", False)):
        flags = ["--cutoff", "2", "--model", model,
                 "--renormalize" if ren else "--no-renormalize"]
        ref.check_report(cli_out(["teleport", "--n-bar", "0.17", "--theta", "1.1",
                                  "--phi", "0.4"] + flags),
                         validator, "teleport", 0.17, 2, model, ren, alpha, beta)
        ref.check_readout(cli_out(["readout", "--n-bar", "0", "--theta", "1.1"] + flags),
                          0.0, 2, model, ren)
        ref.check_sweep(cli_out(["sweep", "--protocol", "teleport", "--from", "0",
                                 "--to", "0.3", "--steps", "7", "--format", "json"]
                                + flags), "json", "teleport", 0.0, 0.3, 7, 2, model, ren)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_first_touch_commands_pass_their_checks(cutoff, validator):
    import workload

    for op in workload.first_touch_ops(ref, validator, cutoff):
        op.check(cli_out(op.argv))


@pytest.mark.parametrize("name", ["paper", "deep_truncation"])
def test_every_seed_and_host_speed_gives_the_same_operations(name, validator):
    import random

    import workload

    def without_numbers(argv):
        kept = []
        for a in argv:
            try:
                float(a)
            except ValueError:
                kept.append(a.split("=")[0])     # --alpha=re,im -> --alpha
        return kept

    def shape(seed):
        ops = workload.round_ops(ref, validator, workload.WORKLOADS[name],
                                 random.Random(seed))
        return [(op.kind, op.points, without_numbers(op.argv)) for op in ops]

    assert shape(1) == shape(2)
    assert workload.WORKLOADS[name].rounds(40) == {"paper": 5, "deep_truncation": 1}[name]


def test_tracer_records_nested_spans_and_restores_the_modules():
    import omxsim.cli
    import omxsim.fock
    import omxsim.protocols
    from tracer import Tracer

    original = omxsim.protocols.apply
    tracer = Tracer()
    tracer.install()
    try:
        assert omxsim.protocols.apply is not original
        assert omxsim.fock.apply is omxsim.protocols.apply
        since = 0.0
        cli_out(["teleport", "--n-bar", "0.1"])
    finally:
        tracer.uninstall()
    assert omxsim.protocols.apply is original
    layers = tracer.layer_metrics(since, 1, (0.0, 0.0))
    # teleport at cutoff 2: 3 x 3 thermal components, 5 elements each
    assert layers["plans.initial_vector.calls"] == 9
    assert layers["fock.apply.calls"] == 45
    assert layers["elements.build.calls"] == 5
    assert 0.0 < layers["fock.apply.support_ratio"] < 1.0
    assert all(v >= 0.0 for v in layers.values())
    names = [tracer.names[i] for i in tracer.name_id]
    parents = {tracer.names[tracer.name_id[p]] for i, p in enumerate(tracer.parent)
               if names[i] == "fock.apply"}
    assert parents == {"protocols.execute_plan"}
