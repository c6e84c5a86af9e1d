"""The two-sided executor against the dense joint-registry oracle.

`protocols.execute_plan` propagates each side of the Bell analyzer on its
own registry and joins the sides only in the herald; `dense_oracle` pushes
every joint thermal component through the full joint registry.  Reports
must agree to 1e-12 in every reported number, and each herald's sector
block and populations with the oracle's heralded state.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import (
    DenseOutcome,
    dense_apply,
    dense_initial_vector,
    dense_report,
    sector_block,
    side_start,
)

from omxsim import cli, constants, dsl, fock, plans, protocols
from omxsim.elements import ScatterModel
from omxsim.protocols import InputQubit, ThermalConfig

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
TOL = 1e-12
BOSONIC = ScatterModel.BOSONIC


def assert_reports_equal(got, want):
    assert got.config == want.config
    assert got.no_herald_probability == pytest.approx(want.no_herald_probability, abs=TOL)
    assert got.aggregate_fidelity == pytest.approx(want.aggregate_fidelity, abs=TOL)
    for key, value in want.closed_form.items():
        assert got.closed_form[key] == pytest.approx(value, abs=TOL)
    for g, w in zip(got.outcomes, want.outcomes, strict=True):
        assert g.outcome is w.outcome
        assert g.probability == pytest.approx(w.probability, abs=TOL)
        assert g.fidelity_raw == pytest.approx(w.fidelity_raw, abs=TOL)
        assert g.fidelity_corrected == pytest.approx(w.fidelity_corrected, abs=TOL)
        assert g.included_in_aggregate == w.included_in_aggregate
        assert g.requires_number_resolution == w.requires_number_resolution
        if w.concurrence is None:
            assert g.concurrence is None
        else:
            assert g.concurrence == pytest.approx(w.concurrence, abs=TOL)
        want_sector = sector_of(w)
        if want_sector is None:
            assert g.sector is None
        else:
            paths, block, populations = want_sector
            assert g.sector.paths == paths
            assert np.abs(g.sector.block - block).max() < TOL
            assert np.abs(g.sector.populations - populations).max() < TOL


def sector_of(outcome):
    """A herald's (magnon paths, sector block, populations), None where it is
    unreachable: the oracle's are its heralded state's sector block and
    diagonal."""
    if not isinstance(outcome, DenseOutcome):
        sector = outcome.sector
        if sector is None:
            return None
        return sector.paths, sector.block, sector.populations
    post = outcome.post_state
    if post is None:
        return None
    return (tuple(m.path for m in post.registry.modes), sector_block(post),
            np.diag(post.matrix).reshape(post.registry.dims, order="F"))


def teleport_plan(n_bar, cutoff, model=ScatterModel.PAPER_UNIFORM, renormalize=True,
                  overrides=None, odd=False):
    return protocols.teleport_plan(InputQubit(0.6, 0.8j), ThermalConfig(n_bar, cutoff,
                                                                       renormalize),
                                   model, overrides, odd)


def swap_plan(n_bar, cutoff, model=ScatterModel.PAPER_UNIFORM, renormalize=True,
              overrides=None, odd=False):
    return protocols.swap_plan(ThermalConfig(n_bar, cutoff, renormalize), model,
                               overrides, odd)


BUILTIN_CASES = {
    "teleport-c1": lambda: teleport_plan(0.2, 1),
    "teleport-c2-bosonic": lambda: teleport_plan(0.15, 2, BOSONIC),
    "teleport-c2-raw-weights": lambda: teleport_plan(0.3, 2, renormalize=False),
    "teleport-c2-overrides-odd": lambda: teleport_plan(0.2, 2, overrides={"A": 0.3,
                                                                           "B": 0.05},
                                                       odd=True),
    "teleport-c3": lambda: teleport_plan(0.25, 3, BOSONIC, renormalize=False),
    "teleport-ground": lambda: teleport_plan(0.0, 2),
    "swap-c1-bosonic-raw": lambda: swap_plan(0.3, 1, BOSONIC, renormalize=False),
    "swap-c1-overrides-odd": lambda: swap_plan(0.2, 1, overrides={"A": 0.1, "D": 0.4},
                                               odd=True),
    "swap-c2": lambda: swap_plan(0.2, 2),
    "swap-c2-bosonic-overrides": lambda: swap_plan(0.1, 2, BOSONIC,
                                                   overrides={"C": 0.25}),
}


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_builtin_plans_match_dense_oracle(case):
    plan = BUILTIN_CASES[case]()
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


@pytest.mark.parametrize("name", ["teleport.omx", "swap.omx"])
def test_shipped_circuits_match_dense_oracle(name):
    plan = dsl.compile_source((CIRCUITS / name).read_text())
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


def test_circuit_joining_both_interferometers_runs_as_one_side():
    source = (CIRCUITS / "swap.omx").read_text()
    source = source.replace("set thermal_cutoff = 2", "set thermal_cutoff = 1")
    joined = source.replace("measure bell(B, D)", "apply bs50(B.V, D.V)\nmeasure bell(B, D)")
    plan = dsl.compile_source(joined)
    circuit = protocols._Circuit(plan)
    # the second side is empty: one component on one analyzer state; the
    # Bell vectors use four of the first side's joint analyzer states
    second = circuit.sides[1]
    assert (len(second.factors), second.da, second.dm) == (1, 1, 1)
    assert [len(states) for states in circuit.states] == [4, 1]
    assert [side.factors.shape[1] for side in circuit.sides] == [1 + 4 ** 2 + (4 * 4) ** 2,
                                                                 1 + 1 + 1]
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


def test_interleaved_magnon_declarations_match_dense_oracle():
    # magnon registry order (mA, mC, mB, mD) crosses the sides' (mA, mB | mC, mD)
    source = "\n".join([
        "set protocol = swap", "set n_bar = 0.2", "set thermal_cutoff = 1",
        "set model = bosonic",
        "mode photon A init=single_v", "mode photon B",
        "mode photon C init=single_v", "mode photon D",
        "mode magnon mA init=thermal", "mode magnon mC init=thermal",
        "mode magnon mB init=thermal", "mode magnon mD init=thermal",
        "apply bs50(A.V, B.V)", "apply stokes(A.V, A.H, mA)",
        "apply stokes(B.V, B.H, mB)", "apply hwp(A, 0.25pi)", "apply pbs(A, B)",
        "apply bs50(C.V, D.V)", "apply stokes(C.V, C.H, mC)",
        "apply stokes(D.V, D.H, mD)", "apply hwp(C, 0.25pi)", "apply pbs(C, D)",
        "measure bell(B, D)", ""])
    plan = dsl.compile_source(source)
    circuit = protocols._Circuit(plan)
    assert [[d.path for d in side.magnons] for side in circuit.sides] == [
        ["mA", "mB"], ["mC", "mD"]]
    # the sector pairs (mA, mC) and (mB, mD): state q1 + 2 q2 puts q1 on mA,
    # 1 - q1 on mC, and so on, so each side's occupations hold both qubits,
    # and the sector states sit on the second side in reverse
    occupations = ((0, 0), (1, 0), (0, 1), (1, 1))
    assert [side.sector for side in plans.sides(plan)] == [occupations, occupations]
    assert circuit.positions == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


def second_side_first(source):
    """The swap circuit with the (C, D) interferometer, which holds the
    analyzer's second path, declared before (A, B)."""
    ab, cd = source.index("mode photon A"), source.index("mode photon C")
    end = source.index("\napply")
    return source[:ab] + source[cd:end] + "\n" + source[ab:cd].rstrip("\n") + source[end:]


def test_second_side_declared_first_matches_dense_oracle():
    # side 2's magnons come first in registry order
    source = second_side_first((CIRCUITS / "swap.omx").read_text())
    source = source.replace("set thermal_cutoff = 2", "set thermal_cutoff = 1")
    plan = dsl.compile_source(source)
    assert [d.path for d in plan.magnon_decls()] == ["mC", "mD", "mA", "mB"]
    circuit = protocols._Circuit(plan)
    assert [[d.path for d in side.magnons] for side in circuit.sides] == [
        ["mA", "mB"], ["mC", "mD"]]
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


def test_untouched_extra_photon_leaves_the_report_unchanged():
    source = (CIRCUITS / "teleport.omx").read_text()
    extra = source.replace("mode photon c init=qubit",
                           "mode photon c init=qubit\nmode photon E init=single_h")
    plan, plan_e = (dsl.compile_source(s) for s in (source, extra))
    assert len(plan_e.decls) == len(plan.decls) + 1
    report, report_e = (protocols.execute_plan(p) for p in (plan, plan_e))
    assert report_e.to_json() == report.to_json()
    assert_reports_equal(report_e, report)
    assert_reports_equal(report_e, dense_report(plan_e))


@pytest.mark.parametrize("protocol", ["teleport", "swap"])
def test_sweep_points_match_dense_reports(protocol):
    grid = [0.0, 0.05, 0.2]
    rows = protocols.sweep_fidelity(protocol, grid, ThermalConfig(0.0, 1, False),
                                    BOSONIC)
    for row in rows:
        cfg = ThermalConfig(row.n_bar, 1, False)
        plan = (protocols.teleport_plan(protocols.DEFAULT_SWEEP_QUBIT, cfg, BOSONIC)
                if protocol == "teleport" else protocols.swap_plan(cfg, BOSONIC))
        assert row.simulated == pytest.approx(dense_report(plan).aggregate_fidelity,
                                              abs=TOL)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_side_weights_are_each_sides_component_weights_bit_for_bit(cutoff):
    # side 1 holds magnons A and B, side 2 holds C and D; each side's weights
    # are its own magnons' product, and no weight of a component pair is formed
    overrides = {"D": 0.3}
    grid = [0.0, 0.05, 0.2, 0.45, 3.0]
    plan = protocols.swap_plan(ThermalConfig(0.0, cutoff), n_bar_overrides=overrides)
    magnons = plan.magnon_decls()
    w1, w2 = protocols._Circuit(plan).weights(grid)
    assert w1.shape == w2.shape == (len(grid), (cutoff + 1) ** 2)
    assert w1.tobytes() == plans.component_weight(plan.settings, grid, magnons[:2]).tobytes()
    assert w2.tobytes() == plans.component_weight(plan.settings, grid, magnons[2:]).tobytes()
    # a report weights every component, as the one-point grid of its sweep
    for point, n_bar in enumerate(grid):
        report_plan = protocols.swap_plan(ThermalConfig(n_bar, cutoff),
                                          n_bar_overrides=overrides)
        (r1,), (r2,) = protocols._Circuit(report_plan).weights([n_bar])
        assert r1.tobytes() == w1[point].tobytes()
        assert r2.tobytes() == w2[point].tobytes()


@pytest.mark.parametrize("protocol", ["teleport", "swap"])
@pytest.mark.parametrize("cutoff, steps", [(2, 601), (12, 41)])
def test_sweep_rows_equal_their_reports_bit_for_bit(protocol, cutoff, steps):
    # each point's herald is summed over its own terms only, so a row of a
    # long grid is its one-point report, whatever the other points are
    grid = np.linspace(0.0, 0.45, steps)
    rows = protocols.sweep_fidelity(protocol, grid, ThermalConfig(0.0, cutoff))
    for row in rows:
        cfg = ThermalConfig(row.n_bar, cutoff)
        report = (protocols.teleport(protocols.DEFAULT_SWEEP_QUBIT, cfg)
                  if protocol == "teleport" else protocols.entanglement_swap(cfg))
        assert row.simulated == report.aggregate_fidelity
        assert row.abs_diff == report.closed_form["abs_diff"]


def side_output(plan, side):
    """The thermal components and output batch of the `side` spec, rebuilt
    from the plans."""
    _, components, batch, ops = side_start(plan, side)
    for op in ops:
        batch = fock.apply(op, batch)
    return components, batch


@pytest.mark.parametrize("make_plan", [teleport_plan, swap_plan], ids=["teleport", "swap"])
def test_the_circuit_does_not_depend_on_the_occupation(monkeypatch, make_plan):
    # n_bar only weights the thermal components, so the circuits of reports
    # that differ only in it propagate every component alike and reduce to
    # the same factors; each circuit is built cold, so two builds are compared
    built = []

    class Recorded(protocols._Circuit):
        def __init__(self, plan):
            super().__init__(plan)
            built.append(self)

    monkeypatch.setattr(protocols, "_Circuit", Recorded)
    for n_bar in (0.0, 0.2):
        protocols._sides.cache_clear()
        protocols.execute_plan(make_plan(n_bar, 2))
    ground, warm = built
    for a, b in zip(ground.sides, warm.sides, strict=True):
        assert a is not b and a.factors is not b.factors
        assert a.factors.tobytes() == b.factors.tobytes()
        assert [c.tobytes() for c in a.columns] == [c.tobytes() for c in b.columns]
    # so do the batches they reduce, rebuilt from the plans
    for sides in zip(*(plans.sides(c.plan) for c in built), strict=True):
        (ca, a), (cb, b) = (side_output(c.plan, side) for c, side in zip(built, sides))
        assert ca == cb
        for field in ("component", "index", "amplitudes"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("command", ["teleport", "swap", "readout"])
def test_each_side_is_weighted_once_per_command(monkeypatch, capsys, command):
    # a report weights each side once, and its join and its heralds'
    # populations read those same weights
    weighted = []
    real_weight = plans.component_weight

    def spy(settings, n_bars, magnons):
        weighted.append(tuple(d.path for d in magnons))
        return real_weight(settings, n_bars, magnons)

    monkeypatch.setattr(plans, "component_weight", spy)
    assert cli.main([command, "--n-bar", "0.2"]) == 0
    capsys.readouterr()
    sides = [("A", "B"), ()] if command != "swap" else [("A", "B"), ("C", "D")]
    assert sorted(weighted) == sorted(sides)


def test_cutoff_3_swap_applies_elements_on_one_interferometer_only(monkeypatch):
    # each side pushes all of its thermal components through each element as
    # one batch, so the call count does not grow with the cutoff
    seen = []
    real_apply = protocols.apply

    def spy(op, state):
        seen.append((state.registry.dimension, len(set(state.component.tolist()))))
        return real_apply(op, state)

    monkeypatch.setattr(protocols, "apply", spy)
    for cutoff in (1, 3, 6):
        teleport = protocols.teleport(InputQubit(1.0, 0.0), ThermalConfig(0.2, cutoff))
        seen.clear()
        protocols._sides.cache_clear()          # the teleport kept the (A, B) side
        report = protocols.entanglement_swap(ThermalConfig(0.2, cutoff))
        assert report.aggregate_fidelity == pytest.approx(
            teleport.aggregate_fidelity ** 2, abs=TOL)
        # per side: its 5 elements, each applied once to its (c+1)^2 components
        assert len(seen) == 2 * 5
        assert {components for _, components in seen} == {(cutoff + 1) ** 2}
        # one interferometer: four photon modes and two magnons of cutoff + 1
        assert max(dim for dim, _ in seen) <= 16 * (cutoff + 2) ** 2


def test_pdc_leaves_as_many_entries_as_the_dense_states_hold():
    # the paper's elements leave at most 3 entries per thermal component; a
    # pdc's local columns are dense (its exponential's rounding dust), so the
    # entries it leaves are counted against the dense oracle, not assumed
    plan = teleport_plan(0.2, 2)
    pdc = plans.ElementStep("pdc", (plans.ModeRef("photon", "A", "H"),
                                    plans.ModeRef("magnon", "A"), 0.5))
    plan = replace(plan, steps=plan.steps + (pdc,))
    side, _ = plans.sides(plan)
    registry, components, batch, ops = side_start(plan, side)
    dense = [fock.StateVector(registry, dense_initial_vector(plan, registry, occ, side.decls),
                              normalized=False) for occ in components]
    for op in ops:
        batch = fock.apply(op, batch)
        dense = [dense_apply(op, state) for state in dense]
        per_component = np.bincount(batch.component, minlength=len(components))
        assert per_component.tolist() == [np.count_nonzero(s.amplitudes) for s in dense]
        if op.label != "pdc":
            assert per_component.max() <= 3
    assert per_component.min() > 3
    got = np.zeros((len(components), registry.dimension), dtype=complex)
    got[batch.component, batch.index] = batch.amplitudes
    assert np.abs(got - [s.amplitudes for s in dense]).max() < TOL


def test_gathers_are_refused_above_the_array_limit(monkeypatch):
    # a pdc's local columns are dense, so each entry gathers many amplitudes;
    # their count is checked before any of them is gathered
    plan = teleport_plan(0.2, 2)
    step = plans.ElementStep("pdc", (plans.ModeRef("photon", "A", "H"),
                                     plans.ModeRef("magnon", "A"), 0.5))
    plan = replace(plan, steps=plan.steps + (step,))
    side, _ = plans.sides(plan)
    registry, _, batch, (*ops, pdc) = side_start(plan, side)
    for op in ops:
        batch = fock.apply(op, batch)
    digits = np.unravel_index(batch.index, registry.dims, order="F")
    local = np.ravel_multi_index([digits[t] for t in pdc.targets],
                                 [registry.dims[t] for t in pdc.targets], order="F")
    gathered = int(np.count_nonzero(pdc.matrix, axis=0)[local].sum())
    assert gathered > len(local)
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", gathered - 1)
    with pytest.raises(fock.OperatorError) as exc:
        protocols.execute_plan(plan)
    assert str(exc.value) == (f"pdc: {len(local)} entries gather {gathered} amplitudes, "
                              f"above the limit {gathered - 1}")
    # at the pdc's own count the propagation passes, and the next array over
    # the lowered limit is the herald factors
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", gathered)
    with pytest.raises(protocols.ProtocolError, match="^the herald factors of 9 thermal "
                       f"components need 189 entries, above the limit {gathered}$"):
        protocols.execute_plan(plan)


def test_herald_tables_are_refused_above_the_array_limit(monkeypatch):
    # each side's herald table holds one row of factors per thermal
    # component; a teleport's interferometer side holds 9 components at
    # cutoff 2, each row 1 + 2**2 + (2 * 2)**2 = 21 entries
    plan = teleport_plan(0.2, 2)
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 188)
    with pytest.raises(protocols.ProtocolError) as exc:
        protocols._Circuit(plan)
    assert str(exc.value) == ("the herald factors of 9 thermal components need 189 "
                              "entries, above the limit 188")
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 189)
    circuit = protocols._Circuit(plan)
    # the input photon's side holds a row for each of its 4 pairs of basis
    # states, which the circuit weights into its one row at the qubit
    assert [side.factors.shape for side in circuit.sides] == [(9, 21), (4, 9)]
    assert [f.shape for f in circuit.factors] == [(9, 21), (1, 9)]


def test_concurrences_copy_only_the_sector_rows():
    # a side's sector Gram reads only its entries on the two sector rows, so
    # a cutoff-12 swap's concurrences come from a 4 x 4 Gram per component;
    # the whole report stays far below the 16 MiB side stacks they once read
    n_bar = 0.2
    tracemalloc.start()
    try:
        report = protocols.entanglement_swap(ThermalConfig(n_bar, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    circuit = protocols._Circuit(swap_plan(n_bar, 12))
    assert [side.factors.shape for side in circuit.sides] == [(169, 21), (169, 21)]
    s = n_bar / (n_bar + 1)
    for outcome in report.outcomes:
        # each herald's sector block is Bell-diagonal, so its concurrence is
        # twice its fidelity less its trace (the weight left in the sector)
        assert outcome.concurrence == pytest.approx(
            max(0.0, 2 * outcome.fidelity_corrected - np.trace(outcome.sector.block).real),
            abs=TOL)
    assert report.aggregate_fidelity == pytest.approx(
        ((1 - s) / (1 - s ** 13)) ** 4, abs=TOL)


def dense_side(plan, spec, side):
    """The output of `side`, the side of the `spec`, rebuilt on its
    registry's layout as the dense (component, analyzer, magnon row, other)
    tensor."""
    components, b = side_output(plan, spec)
    shape = (side.da, side.dm, side.span // side.dm)
    out = np.zeros((len(components),) + shape, dtype=complex)
    out[(b.component, *np.unravel_index(b.index, shape, order="F"))] = b.amplitudes
    return out


@pytest.mark.parametrize("reorder", [False, True])
def test_side_factors_are_the_grams_of_the_dense_side_outputs(reorder):
    source = (CIRCUITS / "swap.omx").read_text().replace("set n_bar = 0.2", "set n_bar = 0.3")
    plan = dsl.compile_source(second_side_first(source) if reorder else source)
    n_bar, levels = plan.settings.n_bar, plan.settings.thermal_cutoff + 2
    magnons = plan.magnon_decls()
    circuit = protocols._Circuit(plan)
    for side, spec, states, (w,) in zip(circuit.sides, plans.sides(plan), circuit.states,
                                        circuit.weights([n_bar]), strict=True):
        out, f = dense_side(plan, spec, side), side.factors
        # the magnon rows of the side's occupations in the sector states,
        # little-endian over its own magnons, ascending
        rows = np.unique([np.ravel_multi_index([state[magnons.index(d)] for d in side.magnons],
                                               [levels] * len(side.magnons), order="F")
                          for state in plans.dual_rail_sector(len(magnons))])
        n, ns = len(out), len(states)
        x = out[:, states]
        gram = np.einsum("kimo,kjmo->kij", x, x.conj()).reshape(n, -1)
        sub = x[:, :, rows]
        sector = np.einsum("kiro,kjso->krisj", sub, sub.conj()).reshape(n, -1)
        norm = (np.abs(out) ** 2).sum(axis=(1, 2, 3))
        assert f.shape == (n, 1 + ns * ns + (len(rows) * ns) ** 2)
        assert np.abs(f[:, 0] - norm).max() < 1e-15
        assert np.abs(f[:, 1:1 + ns * ns] - gram).max() < 1e-15
        assert np.abs(f[:, 1 + ns * ns:] - sector).max() < 1e-15
        by_row = np.einsum("k,kimo,kjmo->mij", w, x, x.conj()).reshape(side.dm, -1)
        assert np.abs(side.row_grams(w, circuit.qubit) - by_row).max() < 1e-15


def joined_teleport(cutoff: int) -> str:
    """The shipped teleport circuit at `cutoff` with the input photon's V
    mode mixed into arm A: one side holds the qubit and both thermal magnons."""
    return ((CIRCUITS / "teleport.omx").read_text()
            .replace("set thermal_cutoff = 2", f"set thermal_cutoff = {cutoff}")
            .replace("measure bell(B, c)", "apply bs50(c.V, A.V)\nmeasure bell(B, c)"))


def test_a_side_holding_the_qubit_and_thermal_magnons_matches_the_dense_oracle():
    plan = dsl.compile_source(joined_teleport(1))
    circuit = protocols._Circuit(plan)
    # 4 components, each on the 4 pairs of basis states, weighed into one row
    assert [side.qubits for side in circuit.sides] == [1, 0]
    assert [side.factors.shape for side in circuit.sides] == [(16, 81), (1, 3)]
    assert [f.shape for f in circuit.factors] == [(4, 81), (1, 3)]
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


@pytest.mark.parametrize("steps, qubits", [
    ("", [1, 1]), ("apply bs50(c.V, d.V)\n", [0, 2]),
    ("apply bs50(c.V, d.V)\napply bs50(d.V, A.V)\n", [2, 0])])
def test_sides_holding_two_qubit_photons_match_the_dense_oracle(steps, qubits):
    # a second input photon d: untouched, it joins the interferometer's
    # side; mixed with c, the two share a side of 4 basis states
    source = joined_teleport(1).replace("apply bs50(c.V, A.V)\n", steps).replace(
        "mode photon c init=qubit", "mode photon c init=qubit\nmode photon d init=qubit")
    plan = dsl.compile_source(source)
    circuit = protocols._Circuit(plan)
    assert [side.qubits for side in circuit.sides] == qubits
    assert [len(f) for f in circuit.factors] == [len(side.factors) // 4 ** side.qubits
                                                 for side in circuit.sides]
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


def test_a_side_holding_the_qubit_refuses_its_factors_at_four_times_the_entries(
        monkeypatch, tmp_path, capsys):
    # such a side's factors hold a row per component and pair of basis
    # states: 4 (c + 1)^2 rows of 81 entries
    path = tmp_path / "joined.omx"

    def run(cutoff: int) -> tuple[int, str, str]:
        path.write_text(joined_teleport(cutoff))
        code = cli.main(["run", str(path)])
        return (code, *capsys.readouterr())

    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 4 * 4 * 81 - 1)
    assert run(1) == (2, "", "omxsim: simulation error: the herald factors of 4 thermal "
                      "components need 1296 entries, above the limit 1295\n")
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 4 * 4 * 81)
    assert run(1)[0] == 0
    # at the shipped limit, cutoff 113 is the first refused, one line, exit 2
    monkeypatch.undo()
    assert run(113) == (2, "", "omxsim: simulation error: the herald factors of 12996 "
                        "thermal components need 4210704 entries, above the limit "
                        f"{constants.MAX_ARRAY_ENTRIES}\n")


@pytest.mark.parametrize("cutoff", [7, 8])
def test_swap_beyond_the_joint_registry_limit_matches_the_truncated_form(cutoff):
    # the joint registry, 256 (cutoff + 2)^4 dimensions, would exceed
    # MAX_DIMENSION; each interferometer's side holds 16 (cutoff + 2)^2
    n_bar = 0.2
    report = protocols.entanglement_swap(ThermalConfig(n_bar, cutoff))
    s = n_bar / (n_bar + 1)
    assert report.aggregate_fidelity == pytest.approx(
        ((1 - s) / (1 - s ** (cutoff + 1))) ** 4, abs=TOL)


def test_no_registry_spans_both_interferometers(monkeypatch, capsys):
    protocols._sides.cache_clear()              # every side built cold
    sides = ({"A", "B", "mA", "mB"}, {"C", "D", "mC", "mD"})
    calls = []
    real_build = plans.build_registry

    def spy(settings, decls):
        calls.append({d.path for d in decls})
        return real_build(settings, decls)

    monkeypatch.setattr(plans, "build_registry", spy)
    monkeypatch.setattr(dsl, "build_registry", spy)
    assert cli.main(["swap", "--n-bar", "0.2", "--cutoff", "3"]) == 0
    assert cli.main(["run", str(CIRCUITS / "swap.omx")]) == 0
    capsys.readouterr()
    # one registry per side for the swap command, the compile and the run
    assert len(calls) == 6
    for paths in calls:
        assert any(paths <= side for side in sides), paths


def test_zero_mass_ensemble_is_rejected():
    with pytest.raises(protocols.ProtocolError, match="zero-mass"):
        protocols.execute_plan(teleport_plan(1e308, 2, renormalize=False))


# ---------------------------------------------------------------------------
# dual-rail sector: concurrence without post-states, post-states on demand

@pytest.mark.parametrize("reorder", [False, True])
def test_concurrence_of_a_non_bell_diagonal_block_matches_dense_oracle(reorder):
    # a half-wave plate off pi/8 unbalances the arms, so each herald leaves a
    # dual-rail block that is not diagonal in the Bell basis
    source = (CIRCUITS / "swap.omx").read_text()
    source = source.replace("set thermal_cutoff = 2", "set thermal_cutoff = 1")
    source = source.replace("apply hwp(A, 0.25pi)", "apply hwp(A, 0.2pi)")
    plan = dsl.compile_source(second_side_first(source) if reorder else source)
    plan = replace(plan, settings=replace(plan.settings,
                                          n_bar_overrides=(("mA", 0.3), ("mD", 0.05))))
    got, want = protocols.execute_plan(plan), dense_report(plan)
    s = 1 / np.sqrt(2)
    # columns: Phi+, Phi-, Psi+, Psi- over the sector states q1 + 2 q2
    bell = np.array([[0, s, s, 0], [0, s, -s, 0], [s, 0, 0, s], [s, 0, 0, -s]]).T
    for g, w in zip(got.outcomes, want.outcomes, strict=True):
        reg = w.post_state.registry
        idx = [reg.index_of_occupation((q1, 1 - q1, q2, 1 - q2))
               for q2 in (0, 1) for q1 in (0, 1)]
        block = bell.T @ w.post_state.matrix[np.ix_(idx, idx)] @ bell
        assert np.abs(block - np.diag(np.diag(block))).max() > 1e-3
        assert 0.1 < w.concurrence < np.trace(block).real - 1e-4
        assert g.concurrence == pytest.approx(w.concurrence, abs=TOL)


def spy_density_matrices(monkeypatch) -> list:
    built = []
    real_init = fock.DensityMatrix.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(fock.DensityMatrix, "__init__", spy)
    return built


@pytest.mark.parametrize("cutoff", [2, 3])
def test_swap_command_builds_no_post_state(monkeypatch, capsys, cutoff):
    built = spy_density_matrices(monkeypatch)
    assert cli.main(["swap", "--n-bar", "0.2", "--cutoff", str(cutoff)]) == 0
    assert "concurrence" in capsys.readouterr().out
    # a library caller gets every herald's sector on first access, built
    # once, and still no density matrix
    report = protocols.entanglement_swap(ThermalConfig(0.2, cutoff))
    sectors = [o.sector for o in report.outcomes]
    assert all(o.sector is s for o, s in zip(report.outcomes, sectors))
    assert all(s.block.shape == (4, 4) for s in sectors)
    assert built == []


def test_teleport_and_readout_commands_build_no_density_matrix(monkeypatch, capsys):
    # readout retrieves PHI+ and PHI- from their sector blocks and populations
    built = spy_density_matrices(monkeypatch)
    assert cli.main(["teleport", "--n-bar", "0.2"]) == 0
    assert cli.main(["readout", "--n-bar", "0.2"]) == 0
    assert "phi_minus" in capsys.readouterr().out
    assert built == []


def test_cutoff_6_swap_report_stays_small():
    n_bar, cutoff = 0.2, 6
    tracemalloc.start()
    try:
        report = protocols.entanglement_swap(ThermalConfig(n_bar, cutoff))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    s = n_bar / (n_bar + 1)
    assert report.aggregate_fidelity == pytest.approx(
        ((1 - s) / (1 - s ** (cutoff + 1))) ** 4, abs=TOL)
