"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from omxsim import dsl, elements, protocols
from omxsim.elements import ScatterModel
from omxsim.fock import Batch, ModeRegistry, apply, magnon, optical
from omxsim.measurement import BellId, bell_projectors
from omxsim.protocols import (
    InputQubit,
    ThermalConfig,
    closed_form_f1,
    closed_form_f2,
    entanglement_swap,
    genuine_threshold,
    readout,
    retrieved_qubit_fidelity,
    sweep_fidelity,
    teleport,
)

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
FIG_GRID = np.linspace(0.0, 0.3, 61)          # 0, 0.005, ..., 0.3
F1_AT_02 = 1296 / 1849


def _gate(num: int, description: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def poincare_grid(n):
    golden = np.pi * (3 - np.sqrt(5))
    for k in range(n):
        theta = np.arccos(1 - 2 * (k + 0.5) / n)
        yield InputQubit.from_angles(theta, k * golden)


def test_criterion_01_ideal_teleportation():
    start = time.perf_counter()
    worst = 0.0
    for q in poincare_grid(20):
        rep = teleport(q, ThermalConfig(0.0))
        worst = max(worst,
                    abs(rep.outcome(BellId.PHI_PLUS).fidelity_raw - 1.0),
                    abs(rep.outcome(BellId.PHI_MINUS).fidelity_corrected - 1.0))
    elapsed = time.perf_counter() - start
    _gate(1, "ideal teleportation fidelity 1 over 20 input qubits",
          worst < 1e-10 and elapsed < 1.0,
          f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_teleport_fidelity_curve():
    start = time.perf_counter()
    rows = sweep_fidelity("teleport", FIG_GRID, ThermalConfig(0.0, 2, True),
                          ScatterModel.PAPER_UNIFORM)
    elapsed = time.perf_counter() - start
    worst = max(r.abs_diff for r in rows)
    spot = next(r.simulated for r in rows if abs(r.n_bar - 0.2) < 1e-12)
    ok = worst < 1e-9 and abs(spot - F1_AT_02) < 1e-9 and elapsed < 10.0
    _gate(2, "teleport curve matches 1/(1+s+s^2)^2 on the 61-point grid",
          ok, f"max |diff| {worst:.2e}, F(0.2) err {abs(spot - F1_AT_02):.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_03_swap_fidelity_curve():
    start = time.perf_counter()
    swap_rows = sweep_fidelity("swap", FIG_GRID, ThermalConfig(0.0, 2, True),
                               ScatterModel.PAPER_UNIFORM)
    tele_rows = sweep_fidelity("teleport", FIG_GRID, ThermalConfig(0.0, 2, True),
                               ScatterModel.PAPER_UNIFORM)
    elapsed = time.perf_counter() - start
    worst = max(r.abs_diff for r in swap_rows)
    square_err = max(abs(b.simulated - a.simulated ** 2)
                     for a, b in zip(tele_rows, swap_rows))
    closed_err = max(abs(closed_form_f2(x) - closed_form_f1(x) ** 2) for x in FIG_GRID)
    ok = worst < 1e-9 and square_err < 1e-12 and closed_err < 1e-12 and elapsed < 60.0
    _gate(3, "swap curve matches the squared teleport fidelity pointwise",
          ok, f"max |diff| {worst:.2e}, max |F2 - F1^2| {square_err:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_04_genuine_teleportation_threshold():
    value = genuine_threshold(2.0 / 3.0)
    c = 1 / np.sqrt(2.0 / 3.0)
    s_star = (-1 + np.sqrt(4 * c - 3)) / 2
    algebraic = s_star / (1 - s_star)
    ok = abs(value - 0.2331) <= 1e-4 and abs(value - algebraic) < 1e-8
    _gate(4, "fidelity-2/3 threshold lands at thermal occupation 0.2331",
          ok, f"bisection {value:.6f} vs algebraic {algebraic:.6f}")


def test_criterion_05_truncation_sensitivity_disclosure():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2, cutoff=20))
    sim = rep.aggregate_fidelity
    gap = rep.closed_form["abs_diff"]
    expected_gap = F1_AT_02 - 25 / 36
    ok = (abs(sim - 25 / 36) < 1e-9
          and abs(gap - expected_gap) < 1e-6
          and rep.closed_form["truncation_gap"] == pytest.approx(expected_gap, abs=1e-9))
    _gate(5, "high-cutoff run reaches (1-s)^2 and reports the truncation gap",
          ok, f"fidelity {sim:.9f} vs 25/36, reported gap {gap:.6f}")


def test_criterion_06_weak_pdc_validation():
    worst_rel = 0.0
    ok = True
    for gt in (0.05, 0.1, 0.2):
        reg = ModeRegistry([optical("p", "H"), magnon("p")], [4, 4])
        vacuum = Batch(reg, np.zeros(1, int), np.zeros(1, int), np.ones(1, complex))
        out = apply(elements.pdc_evolution(reg, 0, 1, gt), vacuum)
        amplitude = dict(zip(out.index.tolist(), out.amplitudes))
        ratio = abs(amplitude[reg.index_of_occupation([1, 1])]) / abs(amplitude[0])
        err = abs(ratio - np.tanh(gt))
        ok = ok and err < gt ** 3
        worst_rel = max(worst_rel, err / gt ** 3)
    _gate(6, "pair production amplitude ratio equals tanh(gt) to o((gt)^3)",
          ok, f"worst error/(gt)^3 = {worst_rel:.2e}")


def test_criterion_07_measurement_completeness():
    reg = ModeRegistry(
        [optical("b", "H"), optical("b", "V"), optical("c", "H"), optical("c", "V")],
        [1, 1, 1, 1])
    projs = bell_projectors(reg, "b", "c")
    mats = [p.matrix for p in projs.values()]
    ok = True
    for i, a in enumerate(mats):
        ok = ok and np.abs(a @ a - a).max() < 1e-10
        for b in mats[i + 1:]:
            ok = ok and np.abs(a @ b).max() < 1e-10
    sector = np.zeros_like(mats[0])
    for idx in range(reg.dimension):
        occ = reg.occupation_of(idx)
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1:
            sector[idx, idx] = 1.0
    ok = ok and np.abs(sum(mats) - sector).max() < 1e-10

    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = z / np.linalg.norm(z)
        n_bar = (0.0, 0.1, 0.2, 0.3)[trial % 4]
        rep = teleport(InputQubit(alpha, beta), ThermalConfig(n_bar))
        total = sum(o.probability for o in rep.outcomes) + rep.no_herald_probability
        worst = max(worst, abs(total - 1.0))
    ok = ok and worst < 1e-10
    _gate(7, "projector suite is complete and probabilities total 1 over "
             "100 random inputs", ok, f"worst |sum - 1| = {worst:.2e}")


def test_criterion_08_swap_entanglement():
    rep = entanglement_swap(ThermalConfig(0.0))
    out = rep.outcome(BellId.PHI_PLUS)
    # the sector states q1 + 2 q2 hold (q1, 1 - q1, q2, 1 - q2): the block is
    # the dual-rail Bell state (|0101> + |1010>) / sqrt(2)
    target = np.array([1, 0, 0, 1]) / np.sqrt(2)
    state_err = np.abs(out.sector.block - np.outer(target, target)).max()
    fid_err = abs(out.fidelity_corrected - 1.0)
    prob_err = max(abs(o.probability - 0.25) for o in rep.outcomes)
    conc = out.concurrence
    ok = (state_err < 1e-10 and fid_err < 1e-10 and abs(conc - 1.0) < 1e-10
          and prob_err < 1e-10)
    _gate(8, "ideal swap heralds the dual-rail Bell state with concurrence 1",
          ok, f"state err {state_err:.2e}, fidelity err {fid_err:.2e}, "
              f"concurrence {conc:.12f}, prob err {prob_err:.2e}")


def test_criterion_09_teleport_readout_round_trip():
    worst = 0.0
    for q in (InputQubit(0.6, 0.8), InputQubit.from_angles(1.2, 2.1)):
        rep = teleport(q, ThermalConfig(0.0))
        plus = readout(rep.outcome(BellId.PHI_PLUS))
        minus = readout(rep.outcome(BellId.PHI_MINUS), apply_correction=True)
        worst = max(worst,
                    abs(retrieved_qubit_fidelity(plus, q) - 1.0),
                    abs(retrieved_qubit_fidelity(minus, q) - 1.0))
    _gate(9, "teleport then readout returns the input qubit on both heralds",
          worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_10_dsl_equivalence():
    def close(a, b, tol=1e-12):
        if isinstance(a, dict):
            return set(a) == set(b) and all(close(a[k], b[k], tol) for k in a)
        if isinstance(a, list):
            return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
        if isinstance(a, float) and isinstance(b, float):
            return abs(a - b) <= tol
        return a == b

    tele_plan = dsl.compile_source((CIRCUITS / "teleport.omx").read_text())
    tele_dsl = protocols.execute_plan(tele_plan).to_dict()
    tele_builtin = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2)).to_dict()
    swap_plan = dsl.compile_source((CIRCUITS / "swap.omx").read_text())
    swap_dsl = protocols.execute_plan(swap_plan).to_dict()
    swap_builtin = entanglement_swap(ThermalConfig(0.2)).to_dict()

    stable = True
    for name in ("teleport.omx", "swap.omx"):
        src = (CIRCUITS / name).read_text()
        once = dsl.pretty_print(dsl.parse(src))
        stable = stable and once == dsl.pretty_print(dsl.parse(once))

    ok = close(tele_dsl, tele_builtin) and close(swap_dsl, swap_builtin) and stable
    _gate(10, "shipped circuits reproduce the built-in protocol reports",
          ok, "round-trip stable" if stable else "round-trip unstable")
