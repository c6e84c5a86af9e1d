import numpy as np
import pytest

from omxsim import elements
from omxsim.fock import (
    ModeRegistry,
    StateVector,
    fidelity,
    magnon,
    optical,
    partial_trace,
)
from omxsim.measurement import (
    BELL_IDS,
    BellId,
    bell_projectors,
    bell_state_vectors,
    sample_outcomes,
)
from omxsim.protocols import InputQubit, ThermalConfig, teleport

from dense_oracle import dense_apply, tensor


def photon_pair_registry():
    return ModeRegistry(
        [optical("b", "H"), optical("b", "V"), optical("c", "H"), optical("c", "V")],
        [1, 1, 1, 1])


def bell_state(reg, bell_id):
    targets, vecs = bell_state_vectors(reg, "b", "c")
    # targets are (b.H, b.V, c.H, c.V) in registry order here
    assert targets == (0, 1, 2, 3)
    return StateVector(reg, vecs[bell_id])


def joint_teleport_state(alpha, beta, magnon_occ=(0, 0), cutoff=1):
    """EPR pair (photon b entangled with magnons) tensor input qubit c."""
    reg = ModeRegistry(
        [optical("b", "H"), optical("b", "V"), magnon("A"), magnon("B")],
        [1, 1, cutoff, cutoff])
    na, nb = magnon_occ
    amps = np.zeros(reg.dimension, dtype=complex)
    amps[reg.index_of_occupation([1, 0, na, nb + 1])] = 1 / np.sqrt(2)
    amps[reg.index_of_occupation([0, 1, na + 1, nb])] = 1 / np.sqrt(2)
    epr = StateVector(reg, amps)
    qreg = ModeRegistry([optical("c", "H"), optical("c", "V")], [1, 1])
    qvec = np.zeros(4, dtype=complex)
    qvec[qreg.index_of_occupation([1, 0])] = alpha
    qvec[qreg.index_of_occupation([0, 1])] = beta
    return tensor(epr, StateVector(qreg, qvec))


# ---------------------------------------------------------------------------
# projector suite

def test_projectors_are_orthogonal_idempotent_complete():
    reg = photon_pair_registry()
    projs = bell_projectors(reg, "b", "c")
    mats = {bid: p.matrix for bid, p in projs.items()}
    ids = list(mats)
    for i, a in enumerate(ids):
        assert np.abs(mats[a] @ mats[a] - mats[a]).max() < 1e-10
        for b in ids[i + 1:]:
            assert np.abs(mats[a] @ mats[b]).max() < 1e-10
    total = sum(mats.values())
    # independent construction of the coincidence-sector projector
    sector = np.zeros_like(total)
    for i in range(reg.dimension):
        occ = reg.occupation_of(i)
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1:
            sector[i, i] = 1.0
    assert np.abs(total - sector).max() < 1e-10


def test_projector_overlaps_on_bell_inputs():
    reg = photon_pair_registry()
    projs = bell_projectors(reg, "b", "c")
    phi_plus = bell_state(reg, BellId.PHI_PLUS)
    assert dense_apply(projs[BellId.PHI_PLUS], phi_plus).norm() ** 2 == \
        pytest.approx(1.0, abs=1e-12)
    psi_minus = bell_state(reg, BellId.PSI_MINUS)
    assert dense_apply(projs[BellId.PHI_PLUS], psi_minus).norm() ** 2 < 1e-14


def test_projection_teleports_qubit_onto_magnons():
    alpha, beta = 0.6, 0.8j
    joint = joint_teleport_state(alpha, beta)
    projs = bell_projectors(joint.registry, "b", "c")
    mag = [joint.registry.magnon_index("A"), joint.registry.magnon_index("B")]

    # projected states stay unnormalized: each herald carries weight 1/4
    rho = partial_trace(dense_apply(projs[BellId.PHI_PLUS], joint), mag)
    target = np.zeros(rho.registry.dimension, dtype=complex)
    target[rho.registry.index_of_occupation([0, 1])] = alpha
    target[rho.registry.index_of_occupation([1, 0])] = beta
    assert rho.trace() == pytest.approx(0.25, abs=1e-12)
    assert fidelity(rho, StateVector(rho.registry, target)) == pytest.approx(0.25, abs=1e-12)

    # the minus herald flips the upper-arm sign
    rho_m = partial_trace(dense_apply(projs[BellId.PHI_MINUS], joint), mag)
    target_m = np.zeros(rho.registry.dimension, dtype=complex)
    target_m[rho.registry.index_of_occupation([0, 1])] = alpha
    target_m[rho.registry.index_of_occupation([1, 0])] = -beta
    assert fidelity(rho_m, StateVector(rho.registry, target_m)) == \
        pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# coincidence analyzer

def test_detector_patterns_realize_bell_projectors():
    # The analyzer (PBS, then HWP(pi/8) on each line, detectors 3h = b.H,
    # 3v = b.V, 4h = c.H, 4v = c.V) acts on the photons alone, so its
    # pattern POVM on the one-photon-per-path sector fixes the herald
    # probabilities of every plan.  Cutoff 2 keeps bunched pairs.
    reg = ModeRegistry(
        [optical("b", "H"), optical("b", "V"), optical("c", "H"), optical("c", "V")],
        [2, 2, 2, 2])
    inputs = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    columns = []
    for occ in inputs:
        psi = StateVector.from_occupation(reg, occ)
        for op in (elements.pbs(reg, "b", "c"),
                   elements.half_wave_plate(reg, "b", np.pi / 8),
                   elements.half_wave_plate(reg, "c", np.pi / 8)):
            psi = dense_apply(op, psi)
        columns.append(psi.amplitudes)
    routed = np.column_stack(columns)

    def povm(patterns):
        rows = routed[[reg.index_of_occupation(p) for p in patterns]]
        return rows.conj().T @ rows

    sector = [reg.index_of_occupation(occ) for occ in inputs]
    projs = {bid: p.matrix[np.ix_(sector, sector)]
             for bid, p in bell_projectors(reg, "b", "c").items()}
    phi_plus = povm([(1, 0, 1, 0), (0, 1, 0, 1)])        # (3h,4h), (3v,4v)
    phi_minus = povm([(1, 0, 0, 1), (0, 1, 1, 0)])       # (3h,4v), (3v,4h)
    bunched = povm([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    assert np.abs(phi_plus - projs[BellId.PHI_PLUS]).max() < 1e-12
    assert np.abs(phi_minus - projs[BellId.PHI_MINUS]).max() < 1e-12
    assert np.abs(bunched - projs[BellId.PSI_PLUS]
                  - projs[BellId.PSI_MINUS]).max() < 1e-12


def test_detection_patterns_for_pure_even_parity_input():
    # propagate |HH + VV>/sqrt(2) through the analyzer by hand and check the
    # two coincidence patterns carry probability 1/2 each
    wide = ModeRegistry(photon_pair_registry().modes, [2, 2, 2, 2])
    routed = bell_state(wide, BellId.PHI_PLUS)
    for op in (elements.pbs(wide, "b", "c"),
               elements.half_wave_plate(wide, "b", np.pi / 8),
               elements.half_wave_plate(wide, "c", np.pi / 8)):
        routed = dense_apply(op, routed)
    # detectors: 3h = b.H, 3v = b.V, 4h = c.H, 4v = c.V
    probs = {}
    for occ in [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]:
        probs[occ] = abs(routed.amplitude(list(occ))) ** 2
    assert probs[(1, 0, 1, 0)] == pytest.approx(0.5, abs=1e-12)   # (3h, 4h)
    assert probs[(0, 1, 0, 1)] == pytest.approx(0.5, abs=1e-12)   # (3v, 4v)
    assert probs[(1, 0, 0, 1)] < 1e-12
    assert probs[(0, 1, 1, 0)] < 1e-12


# ---------------------------------------------------------------------------
# herald probabilities

def herald_probabilities(state, path1="b", path2="c"):
    projs = bell_projectors(state.registry, path1, path2)
    return {bid: dense_apply(projs[bid], state).norm() ** 2 for bid in BELL_IDS}


def test_detection_on_joint_state_gives_quarter_probabilities():
    for alpha, beta in ((1.0, 0.0), (0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2))):
        probs = herald_probabilities(joint_teleport_state(alpha, beta))
        for bid in BELL_IDS:
            assert probs[bid] == pytest.approx(0.25, abs=1e-10)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_detection_zero_probability_on_other_bell_ids():
    reg = photon_pair_registry()
    for bid in BELL_IDS:
        probs = herald_probabilities(bell_state(reg, bid))
        assert probs[bid] == pytest.approx(1.0, abs=1e-12)
        for other in BELL_IDS:
            if other is not bid:
                assert probs[other] < 1e-12


def test_detection_odd_parity_states_bunch_and_need_number_resolution():
    # through the analyzer both photons of psi+ land on one detector, so the
    # coincidence patterns never fire and only a number-resolving detector
    # registers the herald
    wide = ModeRegistry(photon_pair_registry().modes, [2, 2, 2, 2])
    routed = bell_state(wide, BellId.PSI_PLUS)
    for op in (elements.pbs(wide, "b", "c"),
               elements.half_wave_plate(wide, "b", np.pi / 8),
               elements.half_wave_plate(wide, "c", np.pi / 8)):
        routed = dense_apply(op, routed)
    bunched = sum(abs(routed.amplitude(list(occ))) ** 2
                  for occ in [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    coincident = sum(abs(routed.amplitude(list(occ))) ** 2
                     for occ in [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)])
    assert bunched == pytest.approx(1.0, abs=1e-10)
    assert coincident < 1e-12
    assert herald_probabilities(bell_state(photon_pair_registry(), BellId.PSI_PLUS)
                                )[BellId.PSI_PLUS] == pytest.approx(1.0, abs=1e-10)

    out = teleport(InputQubit(0.6, 0.8), ThermalConfig(0.0)).outcome(BellId.PSI_PLUS)
    assert out.requires_number_resolution
    assert not out.included_in_aggregate


def test_detection_vacuum_gives_single_no_herald():
    probs = herald_probabilities(StateVector.vacuum(photon_pair_registry()))
    assert all(p < 1e-15 for p in probs.values())
    assert 1.0 - sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_detection_is_global_phase_invariant():
    joint = joint_teleport_state(0.6, 0.8)
    shifted = StateVector(joint.registry, np.exp(1j * 0.83) * joint.amplitudes)
    a = herald_probabilities(joint)
    b = herald_probabilities(shifted)
    for bid in BELL_IDS:
        assert a[bid] == pytest.approx(b[bid], abs=1e-12)


# ---------------------------------------------------------------------------
# sampler

def test_sampler_is_seed_deterministic():
    outcomes = [("phi_plus", 0.25), ("phi_minus", 0.25), ("psi_plus", 0.5)]
    a = sample_outcomes(outcomes, 50, seed=7)
    b = sample_outcomes(outcomes, 50, seed=7)
    c = sample_outcomes(outcomes, 50, seed=8)
    assert a == b
    assert a != c
    assert set(a) <= {"phi_plus", "phi_minus", "psi_plus"}

