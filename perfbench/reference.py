"""Fidelities and report properties computed apart from omxsim.

Nothing here imports omxsim: every expected value comes from the closed
forms of the truncated thermal model, written in plain Python floats.

With s = n_bar / (1 + n_bar) and thermal cutoff c, the renormalized
truncated weights are w_n = (1 - s) s^n / (1 - s^(c+1)), n = 0..c.

* paper model:   F_teleport = w_0^2 = ((1 - s) / (1 - s^(c+1)))^2
* bosonic model: F_teleport = w_0^2 / (1 + <n>_w)
* either model:  F_swap = F_teleport^2, independent of renormalization
* every Bell herald has probability 1/4; the no-herald probability is 0
* a readout of either even-parity herald retrieves the qubit with F_teleport

Reports round to 12 significant digits, so values are compared at TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

TOL = 1e-11
NO_HERALD_TOL = 1e-12
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
SCHEMA_PATH = Path("src") / "omxsim" / "schemas" / "report.schema.json"


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


# ---------------------------------------------------------------------------
# closed forms

def occupation_ratio(n_bar: float) -> float:
    return n_bar / (1.0 + n_bar)


def thermal_weights(n_bar: float, cutoff: int) -> list[float]:
    """Renormalized truncated geometric weights w_0..w_cutoff."""
    s = occupation_ratio(n_bar)
    raw = [(1.0 - s) * s ** n for n in range(cutoff + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def teleport_fidelity(n_bar: float, cutoff: int, model: str) -> float:
    """Heralded teleport fidelity at thermal cutoff `cutoff`."""
    if model == "paper":
        s = occupation_ratio(n_bar)
        return ((1.0 - s) / (1.0 - s ** (cutoff + 1))) ** 2
    if model == "bosonic":
        w = thermal_weights(n_bar, cutoff)
        mean_n = sum(n * wn for n, wn in enumerate(w))
        return w[0] ** 2 / (1.0 + mean_n)
    raise ValueError(f"unknown model {model!r}")


def swap_fidelity(n_bar: float, cutoff: int, model: str) -> float:
    return teleport_fidelity(n_bar, cutoff, model) ** 2


def fidelity(protocol: str, n_bar: float, cutoff: int, model: str) -> float:
    if protocol == "teleport":
        return teleport_fidelity(n_bar, cutoff, model)
    if protocol == "swap":
        return swap_fidelity(n_bar, cutoff, model)
    raise ValueError(f"unknown protocol {protocol!r}")


def closed_form_cutoff2(protocol: str, n_bar: float) -> float:
    """The comparison column every report carries: the cutoff-2 paper form."""
    s = occupation_ratio(n_bar)
    f1 = 1.0 / (1.0 + s + s * s) ** 2
    return f1 if protocol == "teleport" else f1 * f1


def full_thermal(protocol: str, n_bar: float) -> float:
    """Untruncated-mixture value (1 - s)^2, squared again for swap."""
    f1 = 1.0 / (1.0 + n_bar) ** 2
    return f1 if protocol == "teleport" else f1 * f1


# ---------------------------------------------------------------------------
# comparisons

def expect_close(what: str, got, want: float, tol: float = TOL):
    if not isinstance(got, (int, float)) or isinstance(got, bool) \
            or not math.isfinite(got) or abs(got - want) > tol:
        raise CheckError(f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


def expect_equal(what: str, got, want):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def load_validator(root: Path):
    """Draft-7 validator for the report schema shipped with the program."""
    import jsonschema

    schema = json.loads((root / SCHEMA_PATH).read_text())
    return jsonschema.Draft7Validator(schema)


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# per-command checks; each takes the command's stdout and its inputs

def check_report(text: str, validator, protocol: str, n_bar: float, cutoff: int,
                 model: str, renormalize: bool,
                 alpha: complex | None = None, beta: complex | None = None) -> dict:
    """A teleport or swap JSON report against the closed forms."""
    report = parse_json(text)
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        raise CheckError(f"report fails the schema: {errors[0].message}")
    expect_equal("protocol", report["protocol"], protocol)
    cfg = report["config"]
    expect_equal("config.protocol", cfg["protocol"], protocol)
    expect_close("config.n_bar", cfg["n_bar"], n_bar, TOL * max(1.0, n_bar))
    expect_equal("config.thermal_cutoff", cfg["thermal_cutoff"], cutoff)
    expect_equal("config.renormalize", cfg["renormalize"], renormalize)
    expect_equal("config.model", cfg["model"], model)
    if alpha is not None:
        for name, value in (("alpha", alpha), ("beta", beta)):
            expect_close(f"config.{name}.re", cfg[name][0], value.real)
            expect_close(f"config.{name}.im", cfg[name][1], value.imag)

    want = fidelity(protocol, n_bar, cutoff, model)
    expect_equal("outcome order", [o["outcome"] for o in report["outcomes"]],
                 list(BELL_ORDER))
    for o in report["outcomes"]:
        even = o["outcome"].startswith("phi")
        expect_close(f"{o['outcome']}.probability", o["probability"], 0.25)
        expect_equal(f"{o['outcome']}.included_in_aggregate",
                     o["included_in_aggregate"], even)
        expect_equal(f"{o['outcome']}.requires_number_resolution",
                     o["requires_number_resolution"], not even)
        if even:
            expect_close(f"{o['outcome']}.fidelity_corrected",
                         o["fidelity_corrected"], want)
    expect_close("no_herald_probability", report["no_herald_probability"], 0.0,
                 NO_HERALD_TOL)
    expect_close("aggregate_fidelity", report["aggregate_fidelity"], want)

    closed = report["closed_form"]
    value = closed_form_cutoff2(protocol, n_bar)
    full = full_thermal(protocol, n_bar)
    expect_close("closed_form.value", closed["value"], value)
    expect_close("closed_form.full_thermal", closed["full_thermal"], full)
    expect_close("closed_form.abs_diff", closed["abs_diff"],
                 abs(report["aggregate_fidelity"] - value))
    expect_close("closed_form.truncation_gap", closed["truncation_gap"],
                 abs(value - full))
    return report


def check_readout(text: str, n_bar: float, cutoff: int, model: str,
                  renormalize: bool) -> dict:
    """Both even-parity retrievals carry the teleport fidelity."""
    payload = parse_json(text)
    expect_equal("protocol", payload["protocol"], "readout")
    cfg = payload["config"]
    expect_equal("config.thermal_cutoff", cfg["thermal_cutoff"], cutoff)
    expect_equal("config.renormalize", cfg["renormalize"], renormalize)
    expect_equal("config.model", cfg["model"], model)
    expect_close("config.n_bar", cfg["n_bar"], n_bar, TOL * max(1.0, n_bar))
    expect_equal("retrieved heralds", sorted(payload["retrieved"]),
                 ["phi_minus", "phi_plus"])
    want = teleport_fidelity(n_bar, cutoff, model)
    for herald, corrected in (("phi_plus", False), ("phi_minus", True)):
        r = payload["retrieved"][herald]
        expect_close(f"{herald}.probability", r["probability"], 0.25)
        expect_equal(f"{herald}.correction_applied", r["correction_applied"], corrected)
        expect_close(f"{herald}.fidelity", r["fidelity"], want)
        weight = r["qubit_sector_weight"]
        if not -TOL <= weight <= 1.0 + TOL:
            raise CheckError(f"{herald}.qubit_sector_weight {weight!r} outside [0, 1]")
        if n_bar == 0.0:
            expect_close(f"{herald}.fidelity at n_bar = 0", r["fidelity"], 1.0)
            expect_equal(f"{herald}.partial_readout at n_bar = 0",
                         r["partial_readout"], False)
    return payload


def sweep_grid(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def check_sweep(text: str, fmt: str, protocol: str, start: float, stop: float,
                steps: int, cutoff: int, model: str, renormalize: bool) -> int:
    """Every row against the general-cutoff form; returns the row count."""
    if fmt == "json":
        payload = parse_json(text)
        expect_equal("protocol", payload["protocol"], protocol)
        cfg = payload["config"]
        expect_equal("config", (cfg["thermal_cutoff"], cfg["renormalize"],
                                cfg["model"], cfg["steps"]),
                     (cutoff, renormalize, model, steps))
        rows = [(r["n_bar"], r["simulated"], r["closed_form"], r["abs_diff"])
                for r in payload["rows"]]
    else:
        lines = text.splitlines()
        comments = dict(line[2:].split(" = ", 1) for line in lines
                        if line.startswith("# ") and " = " in line)
        expect_equal("csv config", (comments.get("protocol"),
                                    comments.get("thermal_cutoff"),
                                    comments.get("renormalize"), comments.get("model"),
                                    comments.get("steps")),
                     (protocol, str(cutoff), str(renormalize).lower(), model,
                      str(steps)))
        body = [line for line in lines if not line.startswith("#")]
        expect_equal("csv header", body[0] if body else None,
                     "n_bar,simulated,closed_form,abs_diff")
        try:
            rows = [tuple(float(v) for v in r) for r in csv.reader(io.StringIO(
                "\n".join(body[1:])))]
        except ValueError as exc:
            raise CheckError(f"csv row is not numeric: {exc}") from None
    expect_equal("row count", len(rows), steps)
    for i, ((n_bar, sim, closed, diff), grid_n) in enumerate(
            zip(rows, sweep_grid(start, stop, steps))):
        expect_close(f"row {i} n_bar", n_bar, grid_n)
        expect_close(f"row {i} simulated", sim, fidelity(protocol, grid_n, cutoff, model))
        expect_close(f"row {i} closed_form", closed, closed_form_cutoff2(protocol, grid_n))
        expect_close(f"row {i} abs_diff", diff, abs(sim - closed))
    return len(rows)


def circuit_shape(source: str) -> tuple[int, int, str]:
    """(mode count, element count, protocol) read off `.omx` text by line."""
    modes = elements = 0
    protocol = "teleport"
    for raw in source.splitlines():
        words = raw.split("#", 1)[0].split()
        if words[:2] == ["mode", "photon"]:
            modes += 2
        elif words[:2] == ["mode", "magnon"]:
            modes += 1
        elif words[:1] == ["apply"]:
            elements += 1
        elif words[:2] == ["set", "protocol"] and len(words) >= 4:
            protocol = words[3]
    return modes, elements, protocol


def circuit_settings(source: str) -> dict[str, str]:
    """The `set key = value` lines of `.omx` text."""
    out = {}
    for raw in source.splitlines():
        words = raw.split("#", 1)[0].split()
        if words[:1] == ["set"] and len(words) >= 4 and words[2] == "=":
            out[words[1]] = " ".join(words[3:])
    return out


def check_validate(text: str, path: str, source: str):
    modes, elements, protocol = circuit_shape(source)
    expect_equal("validate output", text,
                 f"OK: {path} ({modes} modes, {elements} elements, "
                 f"protocol {protocol})\n")
