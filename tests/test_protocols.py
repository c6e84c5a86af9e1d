from dataclasses import replace

import numpy as np
import pytest
from dense_oracle import concurrence_dual_rail, dense_apply, dense_readout, dense_report

from omxsim import constants, elements, plans, protocols
from omxsim.elements import ScatterModel
from omxsim.fock import (
    ModeRegistry,
    RegistryError,
    StateVector,
    apply,
    fidelity,
    magnon,
    optical,
)
from omxsim.measurement import BellId
from omxsim.plans import PlanError
from omxsim.protocols import (
    InputQubit,
    ProtocolError,
    ThermalConfig,
    check_sweep_size,
    closed_form_f1,
    closed_form_f2,
    entanglement_swap,
    full_thermal_f1,
    genuine_threshold,
    readout,
    retrieved_qubit_fidelity,
    sweep_fidelity,
    teleport,
)

F1_AT_02 = 1296 / 1849          # truncated closed form at n_bar = 0.2
GRID = np.linspace(0.0, 0.3, 13)


def poincare_grid(n):
    golden = np.pi * (3 - np.sqrt(5))
    for k in range(n):
        theta = np.arccos(1 - 2 * (k + 0.5) / n)
        yield InputQubit.from_angles(theta, k * golden)


# ---------------------------------------------------------------------------
# inputs

def test_input_qubit_validation():
    InputQubit(0.6, 0.8)
    with pytest.raises(ProtocolError):
        InputQubit(1.0, 0.5)
    # a norm^2 that overflows is a norm error, not an OverflowError
    with pytest.raises(ProtocolError, match="norm"):
        InputQubit(1e200, 1e200)
    for bad in (complex("nan"), complex(0, float("nan")), complex("inf"), 1e400):
        with pytest.raises(ProtocolError, match="finite"):
            InputQubit(bad, 0.0)
        with pytest.raises(ProtocolError, match="finite"):
            InputQubit(1.0, bad)
    for theta, phi in ((float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan"))):
        with pytest.raises(ProtocolError, match="finite"):
            InputQubit.from_angles(theta, phi)
    q = InputQubit.from_angles(np.pi / 2, np.pi / 2)
    assert q.alpha == pytest.approx(1 / np.sqrt(2))
    assert q.beta == pytest.approx(1j / np.sqrt(2))


def test_thermal_config_validation():
    with pytest.raises(ProtocolError):
        ThermalConfig(-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ProtocolError, match="finite"):
            ThermalConfig(bad)
    with pytest.raises(ProtocolError):
        ThermalConfig(0.1, cutoff=0)
    assert ThermalConfig(0.2).s == pytest.approx(1 / 6)


# ---------------------------------------------------------------------------
# thermal preparation

def test_prepare_thermal_ground_state():
    weights = ThermalConfig(0.0).weights()
    assert weights[0] == pytest.approx(1.0)
    assert np.abs(weights).sum() == pytest.approx(1.0)


def test_prepare_thermal_renormalized_weights():
    weights = ThermalConfig(0.2, cutoff=2).weights()
    assert np.allclose(weights, [36 / 43, 6 / 43, 1 / 43], atol=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_prepare_thermal_high_cutoff_matches_geometric_law():
    cfg = ThermalConfig(0.2, cutoff=25, renormalize=False)
    weights = cfg.weights()
    s = cfg.s
    assert np.allclose(weights, (1 - s) * s ** np.arange(26), atol=1e-15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)


def _scalar_thermal_row(n_bar: float, cutoff: int, renormalize: bool) -> np.ndarray:
    """The truncated geometric row of one occupation, in scalar arithmetic."""
    s = n_bar / (n_bar + 1.0)
    weights = (1.0 - s) * s ** np.arange(cutoff + 1)
    if renormalize:
        total = weights.sum()
        if total == 0.0:
            return np.full(cutoff + 1, 1.0 / (cutoff + 1))
        weights = weights / total
    return weights


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 9])
def test_thermal_weights_on_an_array_equal_the_scalar_rows_bit_for_bit(cutoff,
                                                                       renormalize):
    # 1e17 is the s -> 1 limit (uniform when renormalized) and 1e308 the
    # all-zero row without renormalization
    n_bars = [0.0, 1e-300, 0.2, 1e17, 1e308]
    rows = plans.thermal_weights(np.array(n_bars), cutoff, renormalize)
    assert rows.shape == (len(n_bars), cutoff + 1)
    for n_bar, row in zip(n_bars, rows):
        scalar = plans.thermal_weights(n_bar, cutoff, renormalize)
        assert scalar.shape == (cutoff + 1,)
        assert row.tobytes() == scalar.tobytes()
        assert row.tobytes() == _scalar_thermal_row(n_bar, cutoff, renormalize).tobytes()
    if renormalize:
        assert np.all(rows[3:] == 1.0 / (cutoff + 1))
    else:
        assert not rows[3:].any()


def test_component_weight_is_the_product_in_declaration_order():
    plan = protocols.swap_plan(ThermalConfig(0.2, cutoff=2),
                               n_bar_overrides={"C": 0.05})
    grid = np.array([0.0, 0.1, 0.3, 1e17])
    magnons = plan.magnon_decls()
    s = plan.settings
    # column by column, the scalar product over iter_components in its order,
    # for all magnons and for each interferometer's own
    for group in (magnons, magnons[:2], magnons[2:]):
        weights = plans.component_weight(s, grid, group)
        assert weights.shape == (4, 3 ** len(group))
        for col, occs in enumerate(plans.iter_components(s.thermal_cutoff, group)):
            for point, g in enumerate(grid):
                w = 1.0
                for decl, n in zip(group, occs):
                    w *= _scalar_thermal_row(s.n_bar_for(decl.path, g), 2, True)[n]
                assert weights[point, col] == w


# ---------------------------------------------------------------------------
# element steps

@pytest.mark.parametrize("args", [(), ("A",), ("A", "B", "C")])
def test_build_elements_rejects_a_wrong_argument_count(args):
    # the plan's sides are resolved before any element is built, and the
    # resolution refuses the step, for the executor as for `plans.sides`
    plan = protocols.teleport_plan(InputQubit(1, 0), ThermalConfig())
    refs = [plans.ModeRef("photon", p, "V") for p in args]
    bad = replace(plan, steps=(plans.ElementStep("bs50", tuple(refs)),))
    for resolve in (plans.sides, protocols.execute_plan):
        with pytest.raises(PlanError, match="'bs50' takes 2 arguments, got"):
            resolve(bad)


def test_build_elements_looks_constructors_up_at_call_time(monkeypatch):
    plan = protocols.teleport_plan(InputQubit(1, 0), ThermalConfig())
    calls = []
    original = elements.beam_splitter_50_50
    monkeypatch.setattr(elements, "beam_splitter_50_50",
                        lambda *a: calls.append(a) or original(*a))
    s = plan.settings
    ops = [op for side in plans.sides(plan) for op in plans.build_elements(
        s, plans.build_registry(s, side.decls), side.elements)]
    assert len(calls) == sum(step.name == "bs50" for step in plan.steps) > 0
    assert len(ops) == len(plan.steps)


# ---------------------------------------------------------------------------
# array size limits

def test_oversized_post_state_is_refused_before_it_is_formed(monkeypatch):
    def no_grams(*args):
        raise AssertionError("formed the row Grams of over-limit populations")

    # swap at cutoff 60: four magnons of 62 levels, whose populations alone
    # would be 62**4 entries, plus each side's 62**2 rows of 2 x 2 Grams
    rep = entanglement_swap(ThermalConfig(0.0, cutoff=60))
    monkeypatch.setattr(protocols._Side, "row_grams", no_grams)
    with pytest.raises(ProtocolError, match="the populations of a herald over "
                       "14776336 magnon levels need 14807088 entries, above the limit "
                       f"{constants.MAX_ARRAY_ENTRIES}"):
        rep.outcome(BellId.PHI_PLUS).sector


def test_sector_populations_are_refused_before_the_row_grams_are_formed(monkeypatch):
    def no_grams(*args):
        raise AssertionError("formed the row Grams of over-limit populations")

    # swap at cutoff 2, n_bar 0.2: populations over 256 magnon levels, from
    # each side's 16 magnon rows of 2 x 2 analyzer Grams
    rep = entanglement_swap(ThermalConfig(0.2, cutoff=2))
    monkeypatch.setattr(protocols._Side, "row_grams", no_grams)
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 383)
    with pytest.raises(ProtocolError, match="the populations of a herald over "
                       "256 magnon levels need 384 entries, above the limit 383"):
        rep.outcome(BellId.PHI_PLUS).sector
    monkeypatch.undo()
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", 384)
    sector = rep.outcome(BellId.PHI_PLUS).sector
    assert sector.block.shape == (4, 4)
    assert sector.populations.shape == (4, 4, 4, 4)


def test_library_swap_sector_builds_at_cutoff_20():
    # 22**4 magnon levels: each side's 22**2 rows of analyzer Grams are
    # joined through the Bell vector, with no side rows repeated
    rep = entanglement_swap(ThermalConfig(0.0, cutoff=20))
    for outcome in rep.outcomes:
        sector = outcome.sector
        assert sector.populations.shape == (22,) * 4
        assert sector.populations.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.trace(sector.block).real == pytest.approx(1.0, abs=1e-12)
        assert outcome.concurrence == pytest.approx(1.0, abs=1e-12)


def test_oversized_side_is_refused_before_propagating(monkeypatch):
    def no_propagation(*args):
        raise AssertionError("propagated an over-limit side")

    monkeypatch.setattr(protocols, "apply", no_propagation)
    # cutoff 255: a 16 * 257**2-dim side registry, above MAX_DIMENSION
    with pytest.raises(RegistryError, match="registry dimension exceeds hard limit "
                       f"{constants.MAX_DIMENSION}"):
        teleport(InputQubit(1, 0), ThermalConfig(0.1, cutoff=255))


def test_ground_teleport_propagates_every_component(monkeypatch):
    # n_bar only weights the components: at n_bar = 0 all 31**2 of the
    # interferometer side are propagated, and only the ground one counts
    protocols._sides.cache_clear()
    propagated = []
    real_apply = protocols.apply

    def spy(op, batch):
        propagated.append(len(np.unique(batch.component)))
        return real_apply(op, batch)

    monkeypatch.setattr(protocols, "apply", spy)
    rep = teleport(InputQubit(1, 0), ThermalConfig(0.0, cutoff=30))
    assert rep.aggregate_fidelity == pytest.approx(1.0, abs=1e-12)
    assert max(propagated) == 31 ** 2


# ---------------------------------------------------------------------------
# EPR preparation: the teleport plan's interferometer before the Bell analyzer,
# on its side's registry (the input photon c is the other side)

def _epr_side(plan):
    side, _ = plans.sides(plan)
    return side, plans.build_registry(plan.settings, side.decls)


def _epr_component(plan, side, registry, occs):
    state = plans.initial_vector(plan.settings, registry, [occs], side.decls)
    for op in plans.build_elements(plan.settings, registry, side.elements):
        state = apply(op, state)
    amplitudes = np.zeros(registry.dimension, dtype=complex)
    amplitudes[state.index] = state.amplitudes
    return StateVector(registry, amplitudes, normalized=False)


def _epr_occupation(reg, pol, n_a, n_b):
    # photon B carries the polarization
    occ = [0] * len(reg)
    occ[reg.optical_index("B", pol)] = 1
    occ[reg.magnon_index("A")] = n_a
    occ[reg.magnon_index("B")] = n_b
    return occ


def test_prepare_epr_ground_state_is_bell_pair():
    plan = protocols.teleport_plan(InputQubit(1.0, 0.0), ThermalConfig(0.0))
    side, reg = _epr_side(plan)
    psi = _epr_component(plan, side, reg, (0, 0))
    # H photon with the lower-arm magnon, V photon with the upper-arm magnon;
    # the upper path is left in vacuum
    target = np.zeros(reg.dimension, dtype=complex)
    target[reg.index_of_occupation(_epr_occupation(reg, "H", 0, 1))] = 1 / np.sqrt(2)
    target[reg.index_of_occupation(_epr_occupation(reg, "V", 1, 0))] = 1 / np.sqrt(2)
    assert psi.norm() > 0.0
    overlap = abs(np.vdot(target, psi.amplitudes)) ** 2 / psi.norm() ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_prepare_epr_thermal_mixture_weights():
    cfg = ThermalConfig(0.2, cutoff=2)
    plan = protocols.teleport_plan(InputQubit(1.0, 0.0), cfg)
    side, reg = _epr_side(plan)
    s = cfg.s
    components = list(plans.iter_components(cfg.cutoff, side.magnons))
    assert len(components) == 9
    weights = plans.component_weight(plan.settings, [cfg.n_bar], side.magnons)
    assert weights.shape == (1, 9)
    diag = np.zeros(reg.dimension)
    total = 0.0
    for occs, w in zip(components, weights[0]):
        psi = _epr_component(plan, side, reg, occs)
        diag += w * np.abs(psi.amplitudes) ** 2
        total += w * psi.norm() ** 2
    diag /= total
    # every diagonal pair (H, n_A, n_B+1) and (V, n_A+1, n_B) carries half the
    # component weight s^(nA+nB) (1-s)^2 / norm
    wsum = sum(s ** (na + nb) for na in range(3) for nb in range(3))
    populated = 0.0
    for na in range(3):
        for nb in range(3):
            expected = 0.5 * s ** (na + nb) / wsum
            for occ in (_epr_occupation(reg, "H", na, nb + 1),
                        _epr_occupation(reg, "V", na + 1, nb)):
                p = diag[reg.index_of_occupation(occ)]
                assert p == pytest.approx(expected, abs=1e-12)
                populated += p
    assert populated == pytest.approx(1.0, abs=1e-10)


def test_unsuccessful_scattering_exits_other_port():
    # without a scattering event the drive photon leaves on the upper path's
    # continuation and never reaches the analyzer port
    reg = ModeRegistry(
        [optical("A", "H"), optical("A", "V"), optical("B", "H"), optical("B", "V")],
        [1, 1, 1, 1])
    psi = StateVector.from_occupation(reg, [0, 1, 0, 0])
    psi = dense_apply(elements.beam_splitter_50_50(
        reg, reg.optical_index("A", "V"), reg.optical_index("B", "V")), psi)
    psi = dense_apply(elements.half_wave_plate(reg, "A", np.pi / 4), psi)
    psi = dense_apply(elements.pbs(reg, "A", "B"), psi)
    # arm A: V -> H, transmits on A; arm B: stays V, crosses to A
    assert abs(psi.amplitude([1, 0, 0, 0])) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(psi.amplitude([0, 1, 0, 0])) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# teleportation

def test_teleport_ideal_fidelity_for_all_inputs():
    for q in poincare_grid(20):
        rep = teleport(q, ThermalConfig(0.0))
        assert rep.outcome(BellId.PHI_PLUS).fidelity_raw == pytest.approx(1.0, abs=1e-10)
        assert rep.outcome(BellId.PHI_MINUS).fidelity_corrected == \
            pytest.approx(1.0, abs=1e-10)


def test_teleport_truncated_thermal_matches_closed_form():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2))
    assert rep.outcome(BellId.PHI_PLUS).fidelity_raw == pytest.approx(F1_AT_02, abs=1e-12)
    assert rep.outcome(BellId.PHI_MINUS).fidelity_corrected == \
        pytest.approx(F1_AT_02, abs=1e-12)
    assert rep.aggregate_fidelity == pytest.approx(F1_AT_02, abs=1e-12)
    assert rep.closed_form["value"] == pytest.approx(F1_AT_02, abs=1e-15)


def test_teleport_high_cutoff_exposes_truncation_gap():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2, cutoff=12))
    # cutoff N: fidelity 1 / (sum_n<=N s^n)^2, approaching (1-s)^2 = 25/36
    s = 1 / 6
    expected = 1.0 / sum(s ** n for n in range(13)) ** 2
    assert rep.aggregate_fidelity == pytest.approx(expected, abs=1e-12)
    assert rep.aggregate_fidelity == pytest.approx(25 / 36, abs=1e-8)
    assert rep.closed_form["truncation_gap"] == pytest.approx(
        F1_AT_02 - 25 / 36, abs=1e-12)


def test_teleport_fidelity_is_input_independent():
    values = [teleport(q, ThermalConfig(0.2)).aggregate_fidelity
              for q in poincare_grid(20)]
    assert max(values) - min(values) < 1e-10


def test_no_herald_mass_is_never_clipped():
    assert protocols._no_herald(0.75) == 0.25
    assert protocols._no_herald(1.0) == 0.0
    # rounding dust above 1 reports no no-herald mass ...
    assert protocols._no_herald(1.0 + 1e-13) == 0.0
    # ... a real excess is an error, not a clip to 0
    with pytest.raises(ProtocolError, match="above 1"):
        protocols._no_herald(1.0 + 1e-9)


def test_teleport_probability_bookkeeping():
    for n_bar in (0.0, 0.2):
        rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(n_bar))
        for o in rep.outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-10)
        total = sum(o.probability for o in rep.outcomes) + rep.no_herald_probability
        assert total == pytest.approx(1.0, abs=1e-10)


def test_teleport_unrenormalized_truncation_gives_same_conditional_fidelity():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2, renormalize=False))
    assert rep.aggregate_fidelity == pytest.approx(F1_AT_02, abs=1e-12)


def test_teleport_odd_parity_outcomes_are_flagged():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0))
    psi_plus = rep.outcome(BellId.PSI_PLUS)
    assert psi_plus.requires_number_resolution
    assert not psi_plus.included_in_aggregate


def test_teleport_per_mode_thermal_overrides():
    # identical overrides reproduce the shared-occupation run
    shared = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2))
    same = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0),
                    n_bar_overrides={"A": 0.2, "B": 0.2})
    assert same.aggregate_fidelity == pytest.approx(shared.aggregate_fidelity,
                                                    abs=1e-12)
    # asymmetric spheres: fidelity factorizes over the two geometric sums
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0),
                   n_bar_overrides={"A": 0.3, "B": 0.1})
    s_a, s_b = 0.3 / 1.3, 0.1 / 1.1
    expected = 1.0 / (sum(s_a ** n for n in range(3))
                      * sum(s_b ** n for n in range(3)))
    assert rep.aggregate_fidelity == pytest.approx(expected, abs=1e-12)
    assert rep.config["n_bar_overrides"] == {"A": 0.3, "B": 0.1}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(PlanError, match="finite"):
            teleport(InputQubit(0.6, 0.8), n_bar_overrides={"A": bad})


def test_include_odd_parity_switch():
    rep = entanglement_swap(ThermalConfig(0.1), include_odd_parity=True)
    for o in rep.outcomes:
        assert o.included_in_aggregate
    # by symmetry every herald carries the same fidelity, so the aggregate
    # still equals the closed form
    assert rep.aggregate_fidelity == pytest.approx(closed_form_f2(0.1), abs=1e-9)
    assert rep.config["include_odd_parity"] is True


def test_teleport_bosonic_model_deviates_and_is_reported():
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2),
                   model=ScatterModel.BOSONIC)
    assert rep.config["model"] == "bosonic"
    # the (n+1) enhancement factorizes: F = 1 / (sum_n s^n)(sum_n (n+1) s^n)
    s = 1 / 6
    w = sum(s ** n for n in range(3))
    w_enh = sum((n + 1) * s ** n for n in range(3))
    assert rep.aggregate_fidelity == pytest.approx(1 / (w * w_enh), abs=1e-12)
    assert rep.aggregate_fidelity < F1_AT_02      # enhanced thermal weights hurt
    assert rep.closed_form["abs_diff"] > 1e-3
    total = sum(o.probability for o in rep.outcomes) + rep.no_herald_probability
    assert total == pytest.approx(1.0, abs=1e-10)


def test_swap_bosonic_model_squares_the_teleport_fidelity():
    tele = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2),
                    model=ScatterModel.BOSONIC)
    swap = entanglement_swap(ThermalConfig(0.2), model=ScatterModel.BOSONIC)
    assert swap.aggregate_fidelity == pytest.approx(
        tele.aggregate_fidelity ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# entanglement swapping

def test_swap_ideal_heralds_exact_bell_state():
    rep = entanglement_swap(ThermalConfig(0.0))
    sector = rep.outcome(BellId.PHI_PLUS).sector
    # the sector states q1 + 2 q2 are (q1, 1 - q1, q2, 1 - q2)
    target = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.abs(sector.block - np.outer(target, target)).max() < 1e-10
    # populations over (n_A, n_B, n_C, n_D)
    expected = np.zeros((4, 4, 4, 4))
    expected[0, 1, 0, 1] = expected[1, 0, 1, 0] = 0.5
    assert np.abs(sector.populations - expected).max() < 1e-10
    assert rep.outcome(BellId.PHI_PLUS).concurrence == pytest.approx(1.0, abs=1e-10)
    for o in rep.outcomes:
        assert o.probability == pytest.approx(0.25, abs=1e-10)
        assert o.fidelity_raw == pytest.approx(1.0, abs=1e-10)


def test_swap_thermal_fidelity_is_square_of_teleport():
    rep = entanglement_swap(ThermalConfig(0.2))
    assert rep.aggregate_fidelity == pytest.approx(F1_AT_02 ** 2, abs=1e-12)
    assert rep.closed_form["value"] == pytest.approx(closed_form_f2(0.2), abs=1e-15)


def test_swap_minus_herald_corrects_like_teleport():
    rep = entanglement_swap(ThermalConfig(0.1))
    minus = rep.outcome(BellId.PHI_MINUS)
    plus = rep.outcome(BellId.PHI_PLUS)
    assert minus.fidelity_raw == pytest.approx(plus.fidelity_raw, abs=1e-12)
    assert minus.fidelity_corrected == pytest.approx(plus.fidelity_corrected, abs=1e-12)


# ---------------------------------------------------------------------------
# readout

def handmade_herald(occupation, levels=3):
    """A teleport herald over magnons (A, B) that leaves them in one
    occupation (n_A, n_B), outside the dual-rail sector."""
    populations = np.zeros((levels, levels))
    populations[occupation] = 1.0
    sector = protocols.HeraldedSector(("A", "B"), np.zeros((2, 2)), populations)
    return protocols.OutcomeReport(BellId.PHI_PLUS, 1.0, 1.0, 1.0, True, False,
                                   build_sector=lambda: sector)


def test_readout_transfers_magnon_qubit_to_photon():
    q = InputQubit(0.6, 0.8j)
    result = readout(teleport(q, ThermalConfig(0.0)).outcome(BellId.PHI_PLUS))
    assert retrieved_qubit_fidelity(result, q) == pytest.approx(1.0, abs=1e-10)
    assert not result.partial_readout
    assert result.qubit_sector_weight == pytest.approx(1.0, abs=1e-12)


def test_readout_vacuum_magnons_gives_vacuum_photon():
    # vacuum magnons leave nothing in the port's one-photon block
    result = readout(handmade_herald((0, 0)))
    assert not result.port.any()
    assert result.qubit_sector_weight == 0.0
    assert not result.partial_readout


def test_readout_after_teleport_round_trip():
    q = InputQubit.from_angles(1.1, 0.7)
    rep = teleport(q, ThermalConfig(0.0))
    plus = readout(rep.outcome(BellId.PHI_PLUS))
    assert retrieved_qubit_fidelity(plus, q) == pytest.approx(1.0, abs=1e-10)
    minus = readout(rep.outcome(BellId.PHI_MINUS), apply_correction=True)
    assert retrieved_qubit_fidelity(minus, q) == pytest.approx(1.0, abs=1e-10)
    raw_minus = readout(rep.outcome(BellId.PHI_MINUS))
    assert retrieved_qubit_fidelity(raw_minus, q) < 1.0 - 1e-3


def test_readout_flags_partial_for_high_occupation():
    result = readout(handmade_herald((2, 0)))
    assert result.partial_readout
    assert result.qubit_sector_weight == pytest.approx(0.0, abs=1e-12)


def assert_readout_matches_dense(got, want):
    """`readout` against `dense_readout` of the oracle's heralded state: the
    port block is the dense port state's block on (V, H), the lower rail
    then the upper."""
    reg = want.state.registry
    idx = [reg.index_of_occupation([0, 1]), reg.index_of_occupation([1, 0])]
    assert np.abs(got.port - want.state.matrix[np.ix_(idx, idx)]).max() < 1e-12
    assert got.qubit_sector_weight == pytest.approx(want.qubit_sector_weight, abs=1e-12)
    assert got.partial_readout == want.partial_readout


def assert_heralds_read_out_like_dense(plan, correct):
    got, want = protocols.execute_plan(plan), dense_report(plan)
    q = InputQubit(plan.settings.alpha, plan.settings.beta)
    for bell_id in (BellId.PHI_PLUS, BellId.PHI_MINUS):
        result = readout(got.outcome(bell_id), correct)
        dense = dense_readout(want.outcome(bell_id).post_state, correct)
        assert_readout_matches_dense(result, dense)
        target = np.zeros(dense.state.registry.dimension, dtype=complex)
        target[dense.state.registry.index_of_occupation([0, 1])] = q.alpha
        target[dense.state.registry.index_of_occupation([1, 0])] = q.beta
        assert retrieved_qubit_fidelity(result, q) == pytest.approx(
            fidelity(dense.state, StateVector(dense.state.registry, target)), abs=1e-12)


@pytest.mark.parametrize("correct", [False, True])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_readout_matches_dense_readout_on_random_inputs(rng, cutoff, correct):
    # random input qubits and occupations, teleported and read out
    for model in ScatterModel:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = z / np.linalg.norm(z)
        cfg = ThermalConfig(float(rng.uniform(0.0, 1.0)), cutoff, bool(rng.integers(2)))
        assert_heralds_read_out_like_dense(
            protocols.teleport_plan(InputQubit(alpha, beta), cfg, model), correct)


@pytest.mark.parametrize("correct", [False, True])
@pytest.mark.parametrize("n_bar", [0.0, 0.2, 3.0])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_readout_matches_dense_readout_on_teleport_post_states(cutoff, n_bar, correct):
    for model in ScatterModel:
        plan = protocols.teleport_plan(InputQubit.from_angles(1.1, 0.7),
                                       ThermalConfig(n_bar, cutoff), model)
        assert_heralds_read_out_like_dense(plan, correct)


def test_readout_refuses_a_network_that_does_not_map_rails_to_the_port(monkeypatch):
    # without the recombining splitter the lower rail stays on the lower path
    outcome = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0)).outcome(BellId.PHI_PLUS)
    monkeypatch.setattr(elements, "pbs", lambda reg, path1, path2: elements.phase_shift(
        reg, reg.optical_index(path1, "H"), 0.0))
    with pytest.raises(ProtocolError, match="does not map the upper rail to H"):
        readout(outcome)


def test_readout_refusal_holds_after_an_unpatched_readout(monkeypatch):
    # the element memo sits below the constructors: a transfer built earlier in
    # the process is not reused once `elements.pbs` is replaced
    outcome = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0)).outcome(BellId.PHI_PLUS)
    assert readout(outcome).qubit_sector_weight == pytest.approx(1.0)
    monkeypatch.setattr(elements, "pbs", lambda reg, path1, path2: elements.phase_shift(
        reg, reg.optical_index(path1, "H"), 0.0))
    with pytest.raises(ProtocolError, match="does not map the upper rail to H"):
        readout(outcome)


def test_readout_refuses_a_nan_transfer(monkeypatch):
    # the diagonal-and-unitary check is written `not x <= tol`: NaN fails it
    outcome = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0)).outcome(BellId.PHI_PLUS)
    real_apply = protocols.apply

    def nan_apply(op, state):
        out = real_apply(op, state)
        return replace(out, amplitudes=out.amplitudes * np.nan)

    monkeypatch.setattr(protocols, "apply", nan_apply)
    with pytest.raises(ProtocolError, match="does not map the upper rail to H"):
        readout(outcome)


def test_readout_rejects_a_swap_herald():
    # a swap herald spans four magnons, not one dual-rail qubit
    rep = entanglement_swap(ThermalConfig(0.0))
    with pytest.raises(ProtocolError, match="readout expects a reachable herald over "
                       "two magnon modes; phi_plus is not one"):
        readout(rep.outcome(BellId.PHI_PLUS))


# ---------------------------------------------------------------------------
# closed forms and threshold

def test_closed_forms_reference_values():
    assert closed_form_f1(0.0) == pytest.approx(1.0)
    assert closed_form_f1(0.2) == pytest.approx(F1_AT_02, abs=1e-15)
    assert closed_form_f2(0.2) == pytest.approx(F1_AT_02 ** 2, abs=1e-15)
    assert full_thermal_f1(0.2) == pytest.approx(25 / 36, abs=1e-15)
    # s rounds to 1: the large-occupation limits, without overflow
    assert closed_form_f1(1e308) == pytest.approx(1 / 9, abs=1e-15)
    assert full_thermal_f1(1e308) == 0.0


def test_closed_form_is_monotone_decreasing():
    values = [closed_form_f1(x) for x in np.linspace(0, 1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_against_algebraic_inversion():
    for target in (2 / 3, 0.6667, 0.99999, 0.1111112):
        # invert 1/(1+s+s^2)^2 = t by the quadratic formula
        c = 1 / np.sqrt(target)
        s_star = (-1 + np.sqrt(4 * c - 3)) / 2
        expected = s_star / (1 - s_star)
        value = genuine_threshold(target)
        assert value == pytest.approx(expected, rel=1e-12)
        assert closed_form_f1(value) == pytest.approx(target, rel=1e-12)
    assert genuine_threshold(2 / 3) == pytest.approx(0.2331, abs=1e-4)


def test_threshold_edge_cases():
    assert genuine_threshold(1.0) == 0.0
    assert genuine_threshold(closed_form_f1(0.2)) == pytest.approx(0.2, abs=1e-6)
    with pytest.raises(ProtocolError):
        genuine_threshold(0.05)
    with pytest.raises(ProtocolError):
        genuine_threshold(1.5)
    # the smallest reachable target still gives s < 1 and a finite root
    assert 4e15 < genuine_threshold(np.nextafter(1 / 9, 1)) < 5e15


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_single_point_grid():
    rows = sweep_fidelity("teleport", [0.0])
    assert rows[0].simulated == pytest.approx(1.0, abs=1e-10)
    assert rows[0].closed_form == 1.0


def test_sweep_teleport_matches_closed_form_pointwise():
    rows = sweep_fidelity("teleport", GRID)
    assert [r.n_bar for r in rows] == list(GRID)
    for r in rows:
        assert r.abs_diff < 1e-9


def test_sweep_swap_is_square_of_teleport():
    tele = sweep_fidelity("teleport", GRID)
    swap = sweep_fidelity("swap", GRID)
    for a, b in zip(tele, swap):
        assert b.abs_diff < 1e-9
        assert b.simulated == pytest.approx(a.simulated ** 2, abs=1e-12)
        assert b.closed_form == pytest.approx(a.closed_form ** 2, abs=1e-12)


def test_sweep_rejects_bad_grid():
    with pytest.raises(ProtocolError):
        sweep_fidelity("teleport", [0.2, 0.1])
    with pytest.raises(ProtocolError):
        sweep_fidelity("nope", [0.1])
    for grid in ([-0.1, 0.0], [0.0, float("nan")], [0.0, float("inf")]):
        with pytest.raises(ProtocolError, match="finite and >= 0"):
            sweep_fidelity("teleport", grid)


def test_sweep_size_is_checked_before_the_grid_is_read():
    # a range knows its length without holding its values
    with pytest.raises(ProtocolError, match="18000000000000 thermal weights, above the "
                       "limit"):
        sweep_fidelity("swap", range(10 ** 12))
    # a teleport point weights the interferometer's 16**2 components and the
    # input photon's one; a swap point both interferometers' 16**2
    for protocol, per_point in (("teleport", 16 ** 2 + 1), ("swap", 2 * 16 ** 2)):
        points = constants.MAX_SWEEP_WEIGHTS // per_point
        check_sweep_size(protocol, points, 15)
        with pytest.raises(ProtocolError, match=f"sweep of {points + 1} points needs "
                           f"{(points + 1) * per_point} thermal weights"):
            check_sweep_size(protocol, points + 1, 15)


@pytest.mark.parametrize("protocol", ["teleport", "swap"])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_the_sweep_size_counts_the_components_of_the_sides_built(monkeypatch, protocol,
                                                                 cutoff):
    # the check counts on the plan's sides, unpropagated, what the sweep's
    # circuit then weights: one factor row per thermal component of a side
    cfg = ThermalConfig(0.0, cutoff)
    plan = (protocols.teleport_plan(protocols.DEFAULT_SWEEP_QUBIT, cfg)
            if protocol == "teleport" else protocols.swap_plan(cfg))
    components = sum(len(side.factors) for side in protocols._Circuit(plan).sides)
    points = 7
    monkeypatch.setattr("omxsim.constants.MAX_SWEEP_WEIGHTS", points * components)
    check_sweep_size(protocol, points, cutoff)
    monkeypatch.setattr("omxsim.constants.MAX_SWEEP_WEIGHTS", points * components - 1)
    with pytest.raises(ProtocolError, match=f"^sweep of {points} points needs "
                       f"{points * components} thermal weights"):
        check_sweep_size(protocol, points, cutoff)


# ---------------------------------------------------------------------------
# concurrence

def test_concurrence_of_bell_and_product_states():
    reg = ModeRegistry([magnon("A"), magnon("B"), magnon("C"), magnon("D")],
                       [1, 1, 1, 1])
    bell = np.zeros(reg.dimension, dtype=complex)
    bell[reg.index_of_occupation([0, 1, 0, 1])] = 1 / np.sqrt(2)
    bell[reg.index_of_occupation([1, 0, 1, 0])] = 1 / np.sqrt(2)
    assert concurrence_dual_rail(StateVector(reg, bell)) == pytest.approx(1.0, abs=1e-10)
    product = np.zeros(reg.dimension, dtype=complex)
    product[reg.index_of_occupation([0, 1, 0, 1])] = 1.0
    assert concurrence_dual_rail(StateVector(reg, product)) == pytest.approx(0.0, abs=1e-10)


def test_swap_concurrence_decreases_with_thermal_occupation():
    values = []
    for n_bar in (0.0, 0.05, 0.1, 0.2):
        rep = entanglement_swap(ThermalConfig(n_bar))
        values.append(rep.outcome(BellId.PHI_PLUS).concurrence)
    assert values[0] == pytest.approx(1.0, abs=1e-10)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 + 1e-12 for v in values)


def test_swap_concurrence_renormalized_sector_is_pure_bell():
    rep = entanglement_swap(ThermalConfig(0.1))
    block = rep.outcome(BellId.PHI_PLUS).sector.block
    conc = protocols._spin_flip_concurrence(block / np.trace(block).real)
    assert conc == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# report shape

def test_report_serialization_round_trips():
    import json
    rep = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.2))
    payload = json.loads(rep.to_json())
    assert payload["protocol"] == "teleport"
    assert payload["config"]["n_bar"] == 0.2
    assert {o["outcome"] for o in payload["outcomes"]} == \
        {"phi_plus", "phi_minus", "psi_plus", "psi_minus"}
    for o in payload["outcomes"]:
        assert -1e-12 <= o["fidelity_raw"] <= 1 + 1e-12
        assert -1e-12 <= o["probability"] <= 1 + 1e-12
