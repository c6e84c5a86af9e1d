from dataclasses import replace

import numpy as np
import pytest
from conftest import random_pure
from dense_oracle import dense_readout

from omxsim import constants, elements, plans, protocols
from omxsim.elements import ScatterModel
from omxsim.fock import (
    DensityMatrix,
    ModeRegistry,
    StateVector,
    apply,
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
    concurrence_dual_rail,
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


# ---------------------------------------------------------------------------
# element steps

@pytest.mark.parametrize("args", [(), ("A",), ("A", "B", "C")])
def test_build_elements_rejects_a_wrong_argument_count(args):
    plan = protocols.teleport_plan(InputQubit(1, 0), ThermalConfig())
    refs = [plans.ModeRef("photon", p, "V") for p in args]
    bad = replace(plan, steps=(plans.ElementStep("bs50", tuple(refs)),))
    with pytest.raises(PlanError, match="'bs50' takes 2 arguments, got"):
        plans.build_elements(bad, plans.build_registry(bad))


def test_build_elements_looks_constructors_up_at_call_time(monkeypatch):
    plan = protocols.teleport_plan(InputQubit(1, 0), ThermalConfig())
    calls = []
    original = elements.beam_splitter_50_50
    monkeypatch.setattr(elements, "beam_splitter_50_50",
                        lambda *a: calls.append(a) or original(*a))
    ops = plans.build_elements(plan, plans.build_registry(plan))
    assert len(calls) == sum(step.name == "bs50" for step in plan.steps) > 0
    assert len(ops) == len(plan.steps)


# ---------------------------------------------------------------------------
# array size limits

def test_oversized_post_state_is_refused_before_it_is_formed(monkeypatch):
    def no_columns(*args):
        raise AssertionError("formed the columns of an over-limit post-state")

    # swap at cutoff 5: four magnons of 7 levels, a 7**4-square state
    rep = entanglement_swap(ThermalConfig(0.0, cutoff=5))
    monkeypatch.setattr(protocols._Side, "columns", no_columns)
    with pytest.raises(ProtocolError, match="a heralded state over 2401 magnon levels "
                       "needs 5764801 entries, above the limit "
                       f"{constants.MAX_ARRAY_ENTRIES}"):
        rep.outcome(BellId.PHI_PLUS).post_state


def test_oversized_side_is_refused_before_propagating(monkeypatch):
    def no_propagation(*args):
        raise AssertionError("propagated an over-limit side")

    monkeypatch.setattr(protocols, "apply", no_propagation)
    # cutoff 22: 23**2 components of a 16 * 24**2-dim side
    with pytest.raises(ProtocolError, match="529 thermal components on a 9216-dim "
                       "side need 4875264 amplitudes, above the limit "
                       f"{constants.MAX_ARRAY_ENTRIES}"):
        teleport(InputQubit(1, 0), ThermalConfig(0.1, cutoff=22))


def test_side_limit_counts_only_components_with_weight():
    # at n_bar = 0 only the ground component is propagated
    rep = teleport(InputQubit(1, 0), ThermalConfig(0.0, cutoff=30))
    assert rep.aggregate_fidelity == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# EPR preparation: the teleport plan's interferometer before the Bell analyzer

def _epr_component(plan, registry, occs):
    state = StateVector(registry, plans.initial_vector(plan, registry, occs),
                        normalized=False)
    for op in plans.build_elements(plan, registry):
        state = apply(op, state)
    return state


def _epr_occupation(reg, pol, n_a, n_b):
    # photon B carries the polarization, the input photon c stays in H
    occ = [0] * len(reg)
    occ[reg.optical_index("B", pol)] = 1
    occ[reg.magnon_index("A")] = n_a
    occ[reg.magnon_index("B")] = n_b
    occ[reg.optical_index("c", "H")] = 1
    return occ


def test_prepare_epr_ground_state_is_bell_pair():
    plan = protocols.teleport_plan(InputQubit(1.0, 0.0), ThermalConfig(0.0))
    reg = plans.build_registry(plan)
    psi = _epr_component(plan, reg, (0, 0))
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
    reg = plans.build_registry(plan)
    s = cfg.s
    components = list(plans.iter_components(plan))
    assert len(components) == 9
    diag = np.zeros(reg.dimension)
    total = 0.0
    for occs in components:
        w = plans.component_weight(plan, occs, cfg.n_bar)
        psi = _epr_component(plan, reg, occs)
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
    psi = apply(elements.beam_splitter_50_50(
        reg, reg.optical_index("A", "V"), reg.optical_index("B", "V")), psi)
    psi = apply(elements.half_wave_plate(reg, "A", np.pi / 4), psi)
    psi = apply(elements.pbs(reg, "A", "B"), psi)
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
    out = rep.outcome(BellId.PHI_PLUS)
    reg = out.post_state.registry
    target = np.zeros(reg.dimension, dtype=complex)
    target[reg.index_of_occupation([0, 1, 0, 1])] = 1 / np.sqrt(2)
    target[reg.index_of_occupation([1, 0, 1, 0])] = 1 / np.sqrt(2)
    expected = np.outer(target, target.conj())
    assert np.abs(out.post_state.matrix - expected).max() < 1e-10
    assert out.concurrence == pytest.approx(1.0, abs=1e-10)
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

def magnon_qubit_state(alpha, beta, cutoffs=(1, 1)):
    reg = ModeRegistry([magnon("A"), magnon("B")], cutoffs)
    vec = np.zeros(reg.dimension, dtype=complex)
    vec[reg.index_of_occupation([0, 1])] = alpha
    vec[reg.index_of_occupation([1, 0])] = beta
    return StateVector(reg, vec)


def test_readout_transfers_magnon_qubit_to_photon():
    q = InputQubit(0.6, 0.8j)
    result = readout(magnon_qubit_state(q.alpha, q.beta))
    assert retrieved_qubit_fidelity(result, q) == pytest.approx(1.0, abs=1e-10)
    assert not result.partial_readout
    assert result.qubit_sector_weight == pytest.approx(1.0, abs=1e-12)


def test_readout_vacuum_magnons_gives_vacuum_photon():
    reg = ModeRegistry([magnon("A"), magnon("B")], [1, 1])
    result = readout(StateVector.vacuum(reg))
    assert abs(result.state.amplitude([0, 0])) == pytest.approx(1.0, abs=1e-12)


def test_readout_after_teleport_round_trip():
    q = InputQubit.from_angles(1.1, 0.7)
    rep = teleport(q, ThermalConfig(0.0))
    plus = readout(rep.outcome(BellId.PHI_PLUS).post_state)
    assert retrieved_qubit_fidelity(plus, q) == pytest.approx(1.0, abs=1e-10)
    minus = readout(rep.outcome(BellId.PHI_MINUS).post_state, apply_correction=True)
    assert retrieved_qubit_fidelity(minus, q) == pytest.approx(1.0, abs=1e-10)
    raw_minus = readout(rep.outcome(BellId.PHI_MINUS).post_state)
    assert retrieved_qubit_fidelity(raw_minus, q) < 1.0 - 1e-3


def test_readout_flags_partial_for_high_occupation():
    reg = ModeRegistry([magnon("A"), magnon("B")], [2, 2])
    vec = np.zeros(reg.dimension, dtype=complex)
    vec[reg.index_of_occupation([2, 0])] = 1.0
    result = readout(StateVector(reg, vec))
    assert result.partial_readout
    assert result.qubit_sector_weight == pytest.approx(0.0, abs=1e-12)


def random_mixed(registry, rng):
    g = (rng.normal(size=(registry.dimension,) * 2)
         + 1j * rng.normal(size=(registry.dimension,) * 2))
    rho = g @ g.conj().T
    return DensityMatrix(registry, rho / rho.trace().real)


def assert_readouts_equal(got, want):
    assert got.state.registry == want.state.registry
    assert type(got.state) is type(want.state)
    if isinstance(want.state, StateVector):
        assert np.abs(got.state.amplitudes - want.state.amplitudes).max() < 1e-12
    else:
        assert np.abs(got.state.matrix - want.state.matrix).max() < 1e-12
    assert got.state.normalized == want.state.normalized
    assert got.qubit_sector_weight == pytest.approx(want.qubit_sector_weight, abs=1e-12)
    assert got.partial_readout == want.partial_readout
    assert (got.upper_rail, got.lower_rail) == (want.upper_rail, want.lower_rail)


@pytest.mark.parametrize("correct", [False, True])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_readout_matches_dense_readout_on_random_inputs(rng, cutoff, correct):
    reg = ModeRegistry([magnon("A"), magnon("B")], [cutoff, cutoff])
    for state in (random_pure(reg, rng), random_mixed(reg, rng)):
        assert_readouts_equal(readout(state, correct), dense_readout(state, correct))


@pytest.mark.parametrize("correct", [False, True])
@pytest.mark.parametrize("n_bar", [0.0, 0.2])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_readout_matches_dense_readout_on_teleport_post_states(cutoff, n_bar, correct):
    rep = teleport(InputQubit.from_angles(1.1, 0.7), ThermalConfig(n_bar, cutoff))
    for bell_id in (BellId.PHI_PLUS, BellId.PHI_MINUS):
        post = rep.outcome(bell_id).post_state
        assert_readouts_equal(readout(post, correct), dense_readout(post, correct))


def test_readout_keeps_unequal_magnon_cutoffs():
    q = InputQubit(0.6, 0.8j)
    result = readout(magnon_qubit_state(q.alpha, q.beta, cutoffs=(1, 2)))
    assert result.state.registry.cutoffs == (1, 2)
    assert retrieved_qubit_fidelity(result, q) == pytest.approx(1.0, abs=1e-12)


def test_readout_refuses_a_network_that_does_not_map_rails_to_the_port(monkeypatch):
    # without the recombining splitter the lower rail stays on the lower path
    monkeypatch.setattr(elements, "pbs", lambda reg, path1, path2: elements.phase_shift(
        reg, reg.optical_index(path1, "H"), 0.0))
    with pytest.raises(ProtocolError, match="does not map the upper rail to H"):
        readout(magnon_qubit_state(0.6, 0.8))


def test_readout_rejects_non_magnon_registry():
    reg = ModeRegistry([optical("A", "H"), optical("A", "V")], [1, 1])
    with pytest.raises(ProtocolError):
        readout(StateVector.vacuum(reg))


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
    with pytest.raises(ProtocolError, match="pair weights, above the limit"):
        sweep_fidelity("swap", range(10 ** 12))
    points = constants.MAX_SWEEP_WEIGHTS // 16 ** 2
    check_sweep_size("teleport", points, 15)
    with pytest.raises(ProtocolError, match=f"sweep of {points + 1} points"):
        check_sweep_size("teleport", points + 1, 15)


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
    conc = concurrence_dual_rail(rep.outcome(BellId.PHI_PLUS).post_state,
                                 renormalize=True)
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
