import contextlib
import io

import numpy as np
import pytest
import scipy.linalg

from omxsim import cli, constants, elements, fock, protocols
from omxsim.elements import (
    ScatterModel,
    antistokes_swap,
    beam_splitter_50_50,
    half_wave_plate,
    hwp_jones,
    pbs,
    pdc_evolution,
    phase_shift,
    quarter_wave_plate,
    qwp_jones,
    stokes_scatter,
)
from omxsim.fock import (
    ElementOp,
    ModeRegistry,
    OperatorError,
    OpFlavor,
    StateVector,
    magnon,
    optical,
)

from conftest import random_unitary
from dense_oracle import dense_apply


def path_registry(*paths, cutoff=1):
    modes = []
    for p in paths:
        modes += [optical(p, "H"), optical(p, "V")]
    return ModeRegistry(modes, [cutoff] * len(modes))


def single_photon(reg, path, pol):
    occ = [0] * len(reg)
    occ[reg.optical_index(path, pol)] = 1
    return StateVector.from_occupation(reg, occ)


# ---------------------------------------------------------------------------
# beam splitter

def test_bs_splits_drive_photon():
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [1, 1])
    out = dense_apply(beam_splitter_50_50(reg, 0, 1), StateVector.from_occupation(reg, [1, 0]))
    assert out.amplitude([0, 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out.amplitude([1, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_bs_vacuum_invariance():
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [1, 1])
    out = dense_apply(beam_splitter_50_50(reg, 0, 1), StateVector.vacuum(reg))
    assert out.amplitude([0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_bs_applied_twice_is_identity():
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [2, 2])
    op = beam_splitter_50_50(reg, 0, 1)
    psi = StateVector.from_occupation(reg, [1, 0])
    out = dense_apply(op, dense_apply(op, psi))
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-12


def test_bs_rejects_bad_wiring():
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [1, 2])
    with pytest.raises(OperatorError):
        beam_splitter_50_50(reg, 0, 0)
    with pytest.raises(OperatorError, match="cutoff"):
        beam_splitter_50_50(reg, 0, 1)


# ---------------------------------------------------------------------------
# wave plates

def test_hwp_hadamard_angle():
    reg = path_registry("p")
    out = dense_apply(half_wave_plate(reg, "p", np.pi / 8), single_photon(reg, "p", "H"))
    assert out.amplitude([1, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out.amplitude([0, 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_hwp_quarter_angle_swaps_h_and_v():
    reg = path_registry("p")
    out = dense_apply(half_wave_plate(reg, "p", np.pi / 4), single_photon(reg, "p", "H"))
    assert out.amplitude([0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_hwp_zero_angle_signs():
    reg = path_registry("p")
    h = dense_apply(half_wave_plate(reg, "p", 0.0), single_photon(reg, "p", "H"))
    v = dense_apply(half_wave_plate(reg, "p", 0.0), single_photon(reg, "p", "V"))
    assert h.amplitude([1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert v.amplitude([0, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_hwp_hadamard_involution():
    assert np.abs(hwp_jones(np.pi / 8) @ hwp_jones(np.pi / 8) - np.eye(2)).max() < 1e-12
    reg = path_registry("p")
    op = half_wave_plate(reg, "p", np.pi / 8)
    psi = single_photon(reg, "p", "V")
    out = dense_apply(op, dense_apply(op, psi))
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-12


def test_qwp_zero_angle_fixes_h_up_to_phase():
    reg = path_registry("p")
    out = dense_apply(quarter_wave_plate(reg, "p", 0.0), single_photon(reg, "p", "H"))
    assert abs(out.amplitude([1, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(out.amplitude([0, 1])) < 1e-12


def test_qwp_diagonal_angle_makes_circular():
    out = qwp_jones(np.pi / 4) @ np.array([1, 0], dtype=complex)
    assert out[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out[1] == pytest.approx(1j / np.sqrt(2), abs=1e-12)


def test_wave_plates_need_both_polarizations():
    reg = ModeRegistry([optical("p", "H")], [1])
    with pytest.raises(OperatorError, match="H and V"):
        half_wave_plate(reg, "p", 0.1)


# ---------------------------------------------------------------------------
# polarizing beam splitter

def test_pbs_transmits_h_and_reflects_v():
    reg = path_registry("A", "B")
    op = pbs(reg, "A", "B")
    h_out = dense_apply(op, single_photon(reg, "A", "H"))
    assert abs(h_out.amplitude([1, 0, 0, 0])) == pytest.approx(1.0)   # stays on A
    v_out = dense_apply(op, single_photon(reg, "A", "V"))
    occ = [0] * 4
    occ[reg.optical_index("B", "V")] = 1
    assert abs(v_out.amplitude(occ)) == pytest.approx(1.0)            # crosses to B


def test_pbs_is_linear_on_superpositions():
    reg = path_registry("A", "B")
    plus = StateVector(reg, (single_photon(reg, "A", "H").amplitudes
                             + single_photon(reg, "A", "V").amplitudes) / np.sqrt(2))
    out = dense_apply(pbs(reg, "A", "B"), plus)
    occ_h = [0] * 4
    occ_h[reg.optical_index("A", "H")] = 1
    occ_v = [0] * 4
    occ_v[reg.optical_index("B", "V")] = 1
    assert out.amplitude(occ_h) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out.amplitude(occ_v) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# phase shift

def test_phase_shift_zero_is_identity():
    reg = ModeRegistry([magnon("A")], [3])
    psi = StateVector.from_occupation(reg, [2])
    out = dense_apply(phase_shift(reg, 0, 0.0), psi)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_phase_shift_pi_completes_feed_forward():
    reg = ModeRegistry([magnon("A"), magnon("B")], [1, 1])
    alpha, beta = 0.6, 0.8
    vec = np.zeros(4, dtype=complex)
    vec[reg.index_of_occupation([0, 1])] = alpha    # lower-arm excitation
    vec[reg.index_of_occupation([1, 0])] = -beta    # upper-arm, wrong sign
    out = dense_apply(phase_shift(reg, 0, np.pi), StateVector(reg, vec))
    assert out.amplitude([0, 1]) == pytest.approx(alpha, abs=1e-12)
    assert out.amplitude([1, 0]) == pytest.approx(beta, abs=1e-12)


def test_phase_shift_pi_twice_is_identity_on_single_excitation():
    reg = ModeRegistry([magnon("A")], [1])
    psi = StateVector.from_occupation(reg, [1])
    op = phase_shift(reg, 0, np.pi)
    out = dense_apply(op, dense_apply(op, psi))
    assert out.amplitude([1]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scattering elements

def scatter_registry(mag_cutoff=3):
    return ModeRegistry([optical("p", "V"), optical("p", "H"), magnon("p")],
                        [1, 1, mag_cutoff])


def test_stokes_scatter_ground_state_event():
    reg = scatter_registry()
    op = stokes_scatter(reg, 0, 1, 2)
    assert op.flavor is OpFlavor.ISOMETRY
    out = dense_apply(op, StateVector.from_occupation(reg, [1, 0, 0]))
    assert out.amplitude([0, 1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_stokes_scatter_uniform_weight_on_occupied_mode():
    reg = scatter_registry()
    out = dense_apply(stokes_scatter(reg, 0, 1, 2), StateVector.from_occupation(reg, [1, 0, 1]))
    assert out.amplitude([0, 1, 2]) == pytest.approx(1.0, abs=1e-12)


def test_stokes_scatter_bosonic_shifts_mixture_weights():
    # thermal mode hit by one photon: outcome weights pick up the (n+1) factor
    reg = scatter_registry()
    s = 0.25
    weights = (1 - s) * s ** np.arange(3)
    op = stokes_scatter(reg, 0, 1, 2, model=ScatterModel.BOSONIC)
    assert op.flavor is OpFlavor.KRAUS
    post = []
    for n, w in enumerate(weights):
        out = dense_apply(op, StateVector.from_occupation(reg, [1, 0, n]))
        assert not out.normalized
        post.append(w * out.norm() ** 2)
    post = np.array(post) / sum(post)
    expected = weights * (np.arange(3) + 1)
    expected /= expected.sum()
    assert np.allclose(post, expected, atol=1e-12)


def test_stokes_scatter_raises_on_cutoff_overflow():
    reg = scatter_registry(mag_cutoff=2)
    op = stokes_scatter(reg, 0, 1, 2)
    with pytest.raises(OperatorError, match="domain"):
        dense_apply(op, StateVector.from_occupation(reg, [1, 0, 2]))


def test_stokes_scatter_leaves_empty_drive_untouched():
    reg = scatter_registry()
    out = dense_apply(stokes_scatter(reg, 0, 1, 2), StateVector.from_occupation(reg, [0, 0, 2]))
    assert out.amplitude([0, 0, 2]) == pytest.approx(1.0, abs=1e-12)


def test_stokes_scatter_checks_mode_kinds():
    reg = scatter_registry()
    with pytest.raises(OperatorError, match="magnon"):
        stokes_scatter(reg, 0, 2, 1)


# ---------------------------------------------------------------------------
# anti-photon state swap

def test_antistokes_swap_single_excitation_phase():
    reg = ModeRegistry([optical("p", "V"), magnon("p")], [1, 1])
    out = dense_apply(antistokes_swap(reg, 0, 1), StateVector.from_occupation(reg, [0, 1]))
    assert out.amplitude([1, 0]) == pytest.approx(-1j, abs=1e-12)


def test_antistokes_swap_vacuum():
    reg = ModeRegistry([optical("p", "V"), magnon("p")], [2, 2])
    out = dense_apply(antistokes_swap(reg, 0, 1), StateVector.vacuum(reg))
    assert out.amplitude([0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_antistokes_exact_swap_restores_number_states():
    reg = ModeRegistry([optical("p", "V"), magnon("p")], [3, 3])
    op = antistokes_swap(reg, 0, 1, exact_swap=True)
    for n in range(4):
        out = dense_apply(op, StateVector.from_occupation(reg, [0, n]))
        assert out.amplitude([n, 0]) == pytest.approx(1.0, abs=1e-10)


def test_antistokes_swap_retrieves_dual_rail_qubit():
    # magnon qubit over two arms onto two readout photons, up to a global -i
    reg = ModeRegistry([optical("A", "V"), optical("B", "V"), magnon("A"), magnon("B")],
                       [1, 1, 1, 1])
    alpha, beta = 0.6, 0.8j
    vec = np.zeros(reg.dimension, dtype=complex)
    vec[reg.index_of_occupation([0, 0, 0, 1])] = alpha
    vec[reg.index_of_occupation([0, 0, 1, 0])] = beta
    psi = StateVector(reg, vec)
    psi = dense_apply(antistokes_swap(reg, 0, 2), psi)
    psi = dense_apply(antistokes_swap(reg, 1, 3), psi)
    assert psi.amplitude([0, 1, 0, 0]) == pytest.approx(-1j * alpha, abs=1e-10)
    assert psi.amplitude([1, 0, 0, 0]) == pytest.approx(-1j * beta, abs=1e-10)


def test_antistokes_swap_requires_matching_cutoffs():
    reg = ModeRegistry([optical("p", "V"), magnon("p")], [1, 3])
    with pytest.raises(OperatorError, match="cutoff"):
        antistokes_swap(reg, 0, 1)


def test_scatter_then_swap_round_trip_preserves_path_state():
    # two-arm drive superposition: scatter, read back, project zero magnons
    reg = ModeRegistry(
        [optical("A", "V"), optical("A", "H"), magnon("A"),
         optical("B", "V"), optical("B", "H"), magnon("B")],
        [1, 1, 1, 1, 1, 1])
    c_a, c_b = 0.6, 0.8j
    vec = np.zeros(reg.dimension, dtype=complex)
    vec[reg.index_of_occupation([1, 0, 0, 0, 0, 0])] = c_a
    vec[reg.index_of_occupation([0, 0, 0, 1, 0, 0])] = c_b
    psi = StateVector(reg, vec)
    for op in (stokes_scatter(reg, 0, 1, 2), stokes_scatter(reg, 3, 4, 5),
               antistokes_swap(reg, 0, 2), antistokes_swap(reg, 3, 5)):
        psi = dense_apply(op, psi)
    # magnons back to vacuum; each arm holds its drive photon plus the record
    expected = np.zeros(reg.dimension, dtype=complex)
    expected[reg.index_of_occupation([1, 1, 0, 0, 0, 0])] = -1j * c_a
    expected[reg.index_of_occupation([0, 0, 0, 1, 1, 0])] = -1j * c_b
    assert np.abs(psi.amplitudes - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# weak-coupling pair production

def test_pdc_zero_time_is_identity():
    reg = ModeRegistry([optical("p", "H"), magnon("p")], [4, 4])
    out = dense_apply(pdc_evolution(reg, 0, 1, 0.0), StateVector.vacuum(reg))
    assert out.amplitude([0, 0]) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("gt", [0.05, 0.1, 0.2])
def test_pdc_pair_amplitude_ratio_matches_squeezer(gt):
    reg = ModeRegistry([optical("p", "H"), magnon("p")], [4, 4])
    out = dense_apply(pdc_evolution(reg, 0, 1, gt), StateVector.vacuum(reg))
    ratio = abs(out.amplitude([1, 1])) / abs(out.amplitude([0, 0]))
    assert abs(ratio - np.tanh(gt)) < gt ** 3


def test_pdc_double_pair_weight():
    gt = 0.1
    reg = ModeRegistry([optical("p", "H"), magnon("p")], [4, 4])
    out = dense_apply(pdc_evolution(reg, 0, 1, gt), StateVector.vacuum(reg))
    ratio2 = abs(out.amplitude([2, 2])) / abs(out.amplitude([0, 0]))
    assert ratio2 == pytest.approx(np.tanh(gt) ** 2, abs=1e-4)


# ---------------------------------------------------------------------------
# generic lift sanity

def test_passive_lift_restricts_to_single_particle_matrix(rng):
    reg = ModeRegistry([optical("p", "H"), optical("p", "V")], [2, 2])
    u = random_unitary(2, rng)
    op = elements.passive_lift(reg, (0, 1), u, "rnd")
    one_h = dense_apply(op, StateVector.from_occupation(reg, [1, 0]))
    one_v = dense_apply(op, StateVector.from_occupation(reg, [0, 1]))
    assert one_h.amplitude([1, 0]) == pytest.approx(u[0, 0], abs=1e-10)
    assert one_h.amplitude([0, 1]) == pytest.approx(u[1, 0], abs=1e-10)
    assert one_v.amplitude([1, 0]) == pytest.approx(u[0, 1], abs=1e-10)
    assert one_v.amplitude([0, 1]) == pytest.approx(u[1, 1], abs=1e-10)


def test_every_constructor_returns_validated_flavor():
    reg = ModeRegistry(
        [optical("A", "H"), optical("A", "V"), optical("B", "H"), optical("B", "V"),
         magnon("A")],
        [1, 1, 1, 1, 2])
    ops = [
        beam_splitter_50_50(reg, reg.optical_index("A", "V"), reg.optical_index("B", "V")),
        half_wave_plate(reg, "A", 0.3),
        quarter_wave_plate(reg, "A", 1.1),
        pbs(reg, "A", "B"),
        phase_shift(reg, 0, 0.7),
    ]
    swap_reg = ModeRegistry([optical("p", "V"), magnon("p")], [2, 2])
    ops.append(antistokes_swap(swap_reg, 0, 1))
    ops.append(pdc_evolution(swap_reg, 0, 1, 0.1))
    for op in ops:
        assert op.flavor is OpFlavor.UNITARY
    iso = stokes_scatter(reg, reg.optical_index("A", "V"), reg.optical_index("A", "H"), 4)
    v = iso.matrix
    assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() < 1e-10


# ---------------------------------------------------------------------------
# numpy exponentials against a Schur + scipy expm reference construction

REFERENCE_TOL = 1e-13
ANGLES = [0.0, np.pi / 8, np.pi / 4, 0.2 * np.pi, np.pi / 2, np.pi, 1.3, -0.7]


def reference_lift(dims, u):
    """exp(i sum h_ij a_i+ a_j), h = log(u) / i from a complex Schur form."""
    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    h = (q * np.angle(np.diag(t))) @ q.conj().T
    ann = [fock.embed_local({i: fock.destroy(d)}, dims) for i, d in enumerate(dims)]
    quad = sum(h[i, j] * (ann[i].conj().T @ ann[j])
               for i in range(len(dims)) for j in range(len(dims)))
    return scipy.linalg.expm(1j * quad)


def reference_two_mode(dims, gen, scale):
    """expm(-i scale G) of G = a+m + a m+ ("swap") or a m + a+m+ ("pdc")."""
    a = fock.embed_local({0: fock.destroy(dims[0])}, dims)
    m = fock.embed_local({1: fock.destroy(dims[1])}, dims)
    term = a.conj().T @ m if gen == "swap" else a @ m
    return scipy.linalg.expm(-1j * scale * (term + term.conj().T))


def assert_matches_reference(op, reference):
    assert np.abs(op.matrix - reference).max() < REFERENCE_TOL


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_bs50_matches_reference(cutoff):
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [cutoff, cutoff])
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert_matches_reference(beam_splitter_50_50(reg, 0, 1),
                             reference_lift([cutoff + 1] * 2, u))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("theta", ANGLES)
def test_wave_plates_match_reference(theta, cutoff):
    reg = path_registry("p", cutoff=cutoff)
    dims = [cutoff + 1] * 2
    assert_matches_reference(half_wave_plate(reg, "p", theta),
                             reference_lift(dims, hwp_jones(theta)))
    assert_matches_reference(quarter_wave_plate(reg, "p", theta),
                             reference_lift(dims, qwp_jones(theta)))


@pytest.mark.parametrize("cutoffs", [(1, 1), (2, 2), (1, 3), (2, 1, 1)])
def test_passive_lift_matches_reference_on_random_unitaries(cutoffs, rng):
    reg = ModeRegistry([magnon(f"m{i}") for i in range(len(cutoffs))], list(cutoffs))
    for _ in range(3):
        u = random_unitary(len(cutoffs), rng)
        op = elements.passive_lift(reg, tuple(range(len(cutoffs))), u, "rnd")
        assert_matches_reference(op, reference_lift([c + 1 for c in cutoffs], u))


@pytest.mark.parametrize("dim", range(2, 8))
def test_antistokes_matches_reference(dim):
    reg = ModeRegistry([optical("p", "V"), magnon("p")], [dim - 1, dim - 1])
    assert_matches_reference(antistokes_swap(reg, 0, 1),
                             reference_two_mode([dim, dim], "swap", np.pi / 2))


@pytest.mark.parametrize("gt", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_pdc_matches_reference(gt):
    reg = ModeRegistry([optical("p", "H"), magnon("p")], [2, 3])
    assert_matches_reference(pdc_evolution(reg, 0, 1, gt),
                             reference_two_mode([3, 4], "pdc", gt))


# ---------------------------------------------------------------------------
# memoized exponentials

@pytest.mark.parametrize("cutoffs", [(1, 1), (2, 2), (1, 3), (2, 1, 1)])
def test_memoized_lifts_equal_the_unmemoized_body_bit_for_bit(cutoffs, rng):
    reg = ModeRegistry([magnon(f"m{i}") for i in range(len(cutoffs))], list(cutoffs))
    targets = tuple(range(len(cutoffs)))
    dims = tuple(c + 1 for c in cutoffs)
    for _ in range(3):
        u = random_unitary(len(cutoffs), rng)
        body = elements._lift.__wrapped__(dims, u.tobytes())
        for _ in range(2):                  # the first call fills the memo
            op = elements.passive_lift(reg, targets, u, "rnd")
            assert np.array_equal(op.matrix, body)


def test_a_memoized_lift_is_read_only_and_never_aliased_writably():
    reg = path_registry("p", cutoff=2)
    memo = elements._lift((3, 3), np.ascontiguousarray(hwp_jones(0.3)).tobytes())
    assert not memo.flags.writeable
    with pytest.raises(ValueError):
        memo[0, 0] = 0.0
    swap_reg = ModeRegistry([optical("p", "V"), magnon("p")], [2, 2])
    ops = [half_wave_plate(reg, "p", 0.3), half_wave_plate(reg, "p", 0.3),
           antistokes_swap(swap_reg, 0, 1), antistokes_swap(swap_reg, 0, 1, exact_swap=True)]
    for op in ops:
        assert not op.matrix.flags.writeable
    # equal elements share the one read-only memo entry rather than copies of it
    assert ops[0].matrix is ops[1].matrix is memo
    # an ElementOp copies whatever a caller could still write through
    writable = np.array(memo)
    frozen_view = writable.view()
    frozen_view.setflags(write=False)
    for source in (writable, frozen_view):
        op = ElementOp((0, 1), source, OpFlavor.UNITARY)
        assert not op.matrix.flags.writeable
        assert not np.shares_memory(op.matrix, writable)


def test_a_refused_matrix_raises_on_every_call_and_is_not_memoized():
    reg = path_registry("p")
    elements._lift.cache_clear()
    for _ in range(2):
        with pytest.raises(OperatorError, match="not unitary"):
            elements.passive_lift(reg, (0, 1), np.array([[1, 1], [0, 1]]), "shear")
        with pytest.raises(OperatorError, match=r"not unitary \(residual nan\)"):
            half_wave_plate(reg, "p", 1e308)         # cos(2e308) is NaN
    assert elements._lift.cache_info().currsize == 0
    assert elements._lift.cache_info().misses == 4


def test_a_single_particle_matrix_must_be_square_in_the_target_count():
    reg = path_registry("p")
    for u in (np.array([[1, 0, 0, 1]]) / np.sqrt(2), np.eye(3), np.eye(1)):
        with pytest.raises(OperatorError, match=r"single-particle matrix of shape"):
            elements.passive_lift(reg, (0, 1), u, "bad")


def test_pdc_refuses_a_time_that_overflows_its_generator():
    reg = ModeRegistry([optical("p", "H"), magnon("p")], [2, 3])
    for gt in (np.inf, 1e308):
        with pytest.raises(OperatorError, match="overflows the generator"):
            pdc_evolution(reg, 0, 1, gt)


def test_the_memo_holds_at_most_its_bound():
    reg = path_registry("p")
    elements._lift.cache_clear()
    for theta in np.linspace(0.0, 1.0, constants.MAX_MEMOIZED_LIFTS + 5):
        quarter_wave_plate(reg, "p", theta)
    info = elements._lift.cache_info()
    assert info.maxsize == constants.MAX_MEMOIZED_LIFTS
    assert info.currsize == constants.MAX_MEMOIZED_LIFTS


@pytest.mark.parametrize("command, misses, hits", [("swap", 2, 2), ("readout", 3, 5)])
def test_a_command_exponentiates_each_distinct_element_once(command, misses, hits):
    # a swap lifts bs50 and hwp(pi/4) on each side; a readout lifts those two
    # for its teleport and antistokes twice and hwp(pi/4) once per transfer,
    # each side built cold
    elements._lift.cache_clear()
    protocols._sides.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command]) == 0
    info = elements._lift.cache_info()
    assert (info.misses, info.hits) == (misses, hits)
