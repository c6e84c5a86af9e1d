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
)

from omxsim import cli, dsl, fock, plans, protocols
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
    assert circuit.sides[1].out.shape == (1, 1, 1, 1)     # empty second side
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
    # one excitation on mC, the second declared magnon, is side 2's row 1
    rows = circuit._side_rows(np.array([[0, 1, 0, 0]]))
    assert [r.tolist() for r in rows] == [[0], [1]]
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
def test_pair_weights_are_the_joint_components_weights_bit_for_bit(cutoff):
    # side 1 holds magnons A and B, side 2 holds C and D, so pair (i, j) is
    # joint component i * n2 + j, and its weight the joint product in order
    overrides = {"D": 0.3}
    grid = [0.0, 0.05, 0.2, 0.45, 3.0]
    plan = protocols.swap_plan(ThermalConfig(0.0, cutoff), n_bar_overrides=overrides)
    w1, w2, pairs = protocols._Circuit(plan).weights(grid)
    joint = plans.component_weight(plan, grid)
    assert pairs.shape == (len(grid), (cutoff + 1) ** 2, (cutoff + 1) ** 2)
    assert pairs.reshape(len(grid), -1).tobytes() == joint.tobytes()
    # a report's circuit keeps the components of nonzero weight, in order
    for point, n_bar in enumerate(grid):
        report_plan = protocols.swap_plan(ThermalConfig(n_bar, cutoff),
                                          n_bar_overrides=overrides)
        (r1,), (r2,), (rp,) = protocols._Circuit(report_plan, n_bar).weights([n_bar])
        assert r1.tobytes() == w1[point][w1[point] != 0].tobytes()
        assert r2.tobytes() == w2[point][w2[point] != 0].tobytes()
        assert rp.tobytes() == joint[point][joint[point] != 0].tobytes()


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
    (decls, steps), _ = plans.split_sides(plan)
    registry = plans.build_registry(plan, decls)
    magnons = [d for d in decls if isinstance(d, plans.MagnonDecl)]
    components = list(plans.iter_components(plan, magnons))
    batch = plans.initial_vector(plan, registry, components, decls)
    dense = [fock.StateVector(registry, dense_initial_vector(plan, registry, occ, decls),
                              normalized=False) for occ in components]
    for op in plans.build_elements(plan, registry, steps):
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


def test_herald_tables_are_refused_above_the_array_limit(monkeypatch):
    # a teleport's second side is the input photon alone: at cutoff 2 a
    # fidelity overlap holds 9 x 4 entries and the herald table 13 x 9 x 1
    circuit = protocols._Circuit(teleport_plan(0.2, 2))
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 116)
    with pytest.raises(protocols.ProtocolError) as exc:
        circuit.tables()
    assert str(exc.value) == ("a herald table over 9 x 1 component pairs needs 117 "
                              "entries, above the limit 116")
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 35)
    with pytest.raises(protocols.ProtocolError, match="a fidelity overlap over 9 x 1 "
                       "component pairs needs 36 entries, above the limit 35"):
        circuit.tables()
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 117)
    assert circuit.tables().shape == (13, 9, 1)


def test_concurrences_copy_only_the_sector_rows():
    # the four sector rows are selected before the columns are weighted, so
    # the concurrence peak stays below one copy of the side stacks (the full
    # weighted columns took 29 MiB here, 1.8 copies)
    n_bar = 0.2
    circuit = protocols._Circuit(swap_plan(n_bar, 12), n_bar)
    (w1,), (w2,), pairs = circuit.weights([n_bar])
    sums = protocols._pair_sums(circuit.tables(), pairs)[0]
    masses = [float(sums[1 + 3 * k]) for k in range(4)]
    stacks = sum(side.out.nbytes for side in circuit.sides)
    tracemalloc.start()
    try:
        circuit.concurrences(w1, w2, masses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 << 20 < stacks < 17 << 20
    assert peak < 20 << 20


@pytest.mark.parametrize("reorder", [False, True])
def test_sector_columns_are_the_rows_of_the_full_weighted_columns(reorder):
    # what the concurrence reads is bit for bit what selecting the sector
    # rows from every weighted column gives
    source = (CIRCUITS / "swap.omx").read_text().replace("set n_bar = 0.2", "set n_bar = 0.3")
    plan = dsl.compile_source(second_side_first(source) if reorder else source)
    circuit = protocols._Circuit(plan, plan.settings.n_bar)
    (w1,), (w2,), _ = circuit.weights([plan.settings.n_bar])
    for side, w, rows in zip(circuit.sides, (w1, w2), circuit.rows):
        x = np.sqrt(w)[:, None, None, None] * side.out
        x = np.moveaxis(x, 0, 3).reshape(x.shape[1], x.shape[2], -1)
        full = x[:, :, np.any(x != 0, axis=(0, 1))]
        assert side.columns(w, rows).tobytes() == full[:, rows].tobytes()
        every = np.arange(full.shape[1])
        assert side.columns(w, every).tobytes() == full.tobytes()


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
    sides = ({"A", "B", "mA", "mB"}, {"C", "D", "mC", "mD"})
    calls = []
    real_build = plans.build_registry

    def spy(plan, decls=None):
        calls.append(None if decls is None else {d.path for d in decls})
        return real_build(plan, decls)

    monkeypatch.setattr(plans, "build_registry", spy)
    monkeypatch.setattr(dsl, "build_registry", spy)
    assert cli.main(["swap", "--n-bar", "0.2", "--cutoff", "3"]) == 0
    assert cli.main(["run", str(CIRCUITS / "swap.omx")]) == 0
    capsys.readouterr()
    # one registry per side for the swap command, the compile and the run
    assert len(calls) == 6
    for paths in calls:
        assert paths is not None
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
