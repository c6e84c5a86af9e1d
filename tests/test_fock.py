import numpy as np
import pytest

from omxsim import fock
from omxsim.fock import (
    DensityMatrix,
    ElementOp,
    ModeRegistry,
    OperatorError,
    OpFlavor,
    RegistryError,
    StateError,
    StateVector,
    apply,
    fidelity,
    magnon,
    optical,
    partial_trace,
)
from omxsim.elements import ScatterModel, beam_splitter_50_50, stokes_scatter

from conftest import brute_partial_trace, random_pure, random_unitary
from dense_oracle import dense_apply, tensor


def two_magnons(cutoff=1):
    return ModeRegistry([magnon("A"), magnon("B")], [cutoff, cutoff])


def photon_pair(path="b", cutoff=1):
    return ModeRegistry([optical(path, "H"), optical(path, "V")], [cutoff, cutoff])


def as_batch(*states):
    """State vectors as one batch of their nonzero amplitudes, state k as
    component k."""
    amplitudes = np.array([s.amplitudes for s in states])
    component, index = np.nonzero(amplitudes)
    return fock.Batch(states[0].registry, component, index, amplitudes[component, index])


def as_vectors(batch, components=1):
    """A batch's components as rows of dense amplitudes."""
    out = np.zeros((components, batch.registry.dimension), dtype=complex)
    out[batch.component, batch.index] = batch.amplitudes
    return out


# ---------------------------------------------------------------------------
# registry and labels

def test_registry_indexing_is_little_endian():
    reg = ModeRegistry([magnon("A"), magnon("B"), magnon("C")], [1, 2, 1])
    assert reg.dimension == 2 * 3 * 2
    assert reg.index_of_occupation([1, 0, 0]) == 1
    assert reg.index_of_occupation([0, 1, 0]) == 2
    assert reg.index_of_occupation([0, 0, 1]) == 6
    for idx in range(reg.dimension):
        assert reg.index_of_occupation(reg.occupation_of(idx)) == idx


def test_registry_rejects_duplicates_and_overflow():
    with pytest.raises(RegistryError):
        ModeRegistry([magnon("A"), magnon("A")], [1, 1])
    with pytest.raises(RegistryError):
        ModeRegistry([magnon("A")], [0])
    with pytest.raises(RegistryError):
        ModeRegistry([magnon(str(i)) for i in range(8)], [9] * 8)


def test_mode_label_polarization_rules():
    with pytest.raises(RegistryError):
        fock.ModeLabel(fock.ModeKind.OPTICAL_PATH, "A")
    with pytest.raises(RegistryError):
        fock.ModeLabel(fock.ModeKind.MAGNON, "A", fock.Polarization.H)
    assert str(optical("A", "H")) == "A.H"


# ---------------------------------------------------------------------------
# tensor

def test_tensor_vacuum_composition():
    a = StateVector.vacuum(ModeRegistry([magnon("A")], [1]))
    b = StateVector.vacuum(ModeRegistry([magnon("B")], [1]))
    joint = tensor(a, b)
    assert joint.amplitudes[0] == 1.0
    assert np.count_nonzero(joint.amplitudes) == 1


def test_tensor_builds_joint_bell_qubit_state():
    # (|H>|L> + |V>|U>)/sqrt(2) on (b.H, b.V, mA, mB), then x input qubit
    reg = ModeRegistry([optical("b", "H"), optical("b", "V"), magnon("A"), magnon("B")],
                       [1, 1, 1, 1])
    amps = np.zeros(reg.dimension, dtype=complex)
    amps[reg.index_of_occupation([1, 0, 0, 1])] = 1 / np.sqrt(2)   # H with lower
    amps[reg.index_of_occupation([0, 1, 1, 0])] = 1 / np.sqrt(2)   # V with upper
    epr = StateVector(reg, amps)
    alpha, beta = 0.6, 0.8j
    qreg = photon_pair("c")
    qvec = np.zeros(4, dtype=complex)
    qvec[qreg.index_of_occupation([1, 0])] = alpha
    qvec[qreg.index_of_occupation([0, 1])] = beta
    joint = tensor(epr, StateVector(qreg, qvec))

    r = joint.registry
    assert r.modes == reg.modes + qreg.modes
    expect = {
        (1, 0, 0, 1, 1, 0): alpha / np.sqrt(2),
        (1, 0, 0, 1, 0, 1): beta / np.sqrt(2),
        (0, 1, 1, 0, 1, 0): alpha / np.sqrt(2),
        (0, 1, 1, 0, 0, 1): beta / np.sqrt(2),
    }
    for occ, val in expect.items():
        assert joint.amplitude(occ) == pytest.approx(val, abs=1e-15)
    assert np.count_nonzero(joint.amplitudes) == 4


def test_tensor_rejects_duplicate_labels():
    a = StateVector.vacuum(ModeRegistry([magnon("A")], [1]))
    with pytest.raises(RegistryError, match="duplicate"):
        tensor(a, a)


# ---------------------------------------------------------------------------
# apply

def test_apply_identity_leaves_state():
    reg = two_magnons()
    psi = StateVector.from_occupation(reg, [1, 0])
    op = ElementOp((0,), np.eye(2, dtype=complex), OpFlavor.UNITARY)
    (out,) = as_vectors(apply(op, as_batch(psi)))
    assert np.allclose(out, psi.amplitudes)


def test_apply_beam_splitter_single_photon():
    reg = ModeRegistry([optical("A", "V"), optical("B", "V")], [1, 1])
    psi = StateVector.from_occupation(reg, [1, 0])
    (out,) = as_vectors(apply(beam_splitter_50_50(reg, 0, 1), as_batch(psi)))
    assert out[reg.index_of_occupation([1, 0])] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out[reg.index_of_occupation([0, 1])] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_apply_rejects_out_of_range_target():
    reg = two_magnons()
    psi = as_batch(StateVector.vacuum(reg))
    op = ElementOp((5,), np.eye(2, dtype=complex), OpFlavor.UNITARY)
    with pytest.raises(OperatorError, match="outside registry"):
        apply(op, psi)


# ---------------------------------------------------------------------------
# partial trace

def test_partial_trace_bell_half_is_maximally_mixed():
    reg = two_magnons()
    amps = np.zeros(4, dtype=complex)
    amps[reg.index_of_occupation([0, 0])] = 1 / np.sqrt(2)
    amps[reg.index_of_occupation([1, 1])] = 1 / np.sqrt(2)
    rho = partial_trace(StateVector(reg, amps), [0])
    assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)


def test_partial_trace_of_joint_state_matches_brute_force():
    # trace photons out of the joint Bell-pair (x) qubit state with alpha = 1
    reg = ModeRegistry([optical("b", "H"), optical("b", "V"), magnon("A"), magnon("B"),
                        optical("c", "H"), optical("c", "V")], [1] * 6)
    amps = np.zeros(reg.dimension, dtype=complex)
    amps[reg.index_of_occupation([1, 0, 0, 1, 1, 0])] = 1 / np.sqrt(2)
    amps[reg.index_of_occupation([0, 1, 1, 0, 1, 0])] = 1 / np.sqrt(2)
    psi = StateVector(reg, amps)
    reduced = partial_trace(psi, [2, 3])
    brute = brute_partial_trace(psi.to_density_matrix().matrix, reg.dims, [2, 3])
    assert np.allclose(reduced.matrix, brute, atol=1e-14)
    # magnon mixture (|L><L| + |U><U|)/2
    expected = np.zeros((4, 4))
    expected[reduced.registry.index_of_occupation([0, 1]),
             reduced.registry.index_of_occupation([0, 1])] = 0.5
    expected[reduced.registry.index_of_occupation([1, 0]),
             reduced.registry.index_of_occupation([1, 0])] = 0.5
    assert np.allclose(reduced.matrix, expected, atol=1e-14)


def test_partial_trace_keep_all_and_empty():
    reg = two_magnons()
    psi = StateVector.from_occupation(reg, [1, 1])
    same = partial_trace(psi, [0, 1])
    assert np.allclose(same.matrix, psi.to_density_matrix().matrix)
    with pytest.raises(StateError):
        partial_trace(psi, [])


def test_operators_reject_density_matrices():
    reg = two_magnons()
    psi = StateVector.vacuum(reg)
    rho = psi.to_density_matrix()
    other = StateVector.vacuum(ModeRegistry([magnon("C")], [1]))
    op = ElementOp((0,), np.eye(2, dtype=complex), OpFlavor.UNITARY)
    # `apply` maps a batch to a batch; a dense state is refused, not unpacked
    with pytest.raises(StateError, match="^apply: expects a Batch, got DensityMatrix$"):
        apply(op, rho)
    with pytest.raises(StateError, match="^apply: expects a Batch, got StateVector$"):
        apply(op, psi)
    with pytest.raises(StateError, match="tensor: expects a StateVector"):
        tensor(other, rho)
    with pytest.raises(StateError, match="partial_trace: expects a StateVector"):
        partial_trace(rho, [0])


# ---------------------------------------------------------------------------
# fidelity

def test_fidelity_pure_self_is_one(rng):
    reg = two_magnons(cutoff=2)
    psi = random_pure(reg, rng)
    assert fidelity(psi.to_density_matrix(), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_maximally_mixed_qubit():
    reg = ModeRegistry([magnon("A")], [1])
    rho = DensityMatrix(reg, 0.5 * np.eye(2, dtype=complex))
    psi = StateVector(reg, np.array([0.6, 0.8], dtype=complex))
    assert fidelity(rho, psi) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_of_truncated_thermal_teleport_mixture():
    # mixture over alpha|nA, nB+1> + beta|nA+1, nB> with geometric weights,
    # built directly from the formula (independent of the protocol pipeline)
    s = 0.2 / 1.2
    alpha, beta = 0.6, 0.8
    reg = ModeRegistry([magnon("A"), magnon("B")], [3, 3])
    mat = np.zeros((reg.dimension, reg.dimension), dtype=complex)
    norm = sum(s ** (na + nb) for na in range(3) for nb in range(3))
    for na in range(3):
        for nb in range(3):
            vec = np.zeros(reg.dimension, dtype=complex)
            vec[reg.index_of_occupation([na, nb + 1])] = alpha
            vec[reg.index_of_occupation([na + 1, nb])] = beta
            mat += (s ** (na + nb) / norm) * np.outer(vec, vec.conj())
    rho = DensityMatrix(reg, mat)
    target = np.zeros(reg.dimension, dtype=complex)
    target[reg.index_of_occupation([0, 1])] = alpha
    target[reg.index_of_occupation([1, 0])] = beta
    value = fidelity(rho, StateVector(reg, target))
    assert value == pytest.approx(1296 / 1849, abs=1e-12)


def test_fidelity_rejects_registry_mismatch():
    a = StateVector.vacuum(two_magnons())
    b = StateVector.vacuum(ModeRegistry([magnon("C"), magnon("D")], [1, 1]))
    with pytest.raises(StateError):
        fidelity(a.to_density_matrix(), b)


def test_domain_violation_keeps_its_message():
    # a drive photon meeting a magnon already at its cutoff would overflow it
    reg = ModeRegistry([optical("a", "V"), optical("a", "H"), magnon("a")], [1, 1, 2])
    op = stokes_scatter(reg, 0, 1, 2)
    full = as_batch(StateVector.from_occupation(reg, [1, 0, 2]))
    message = (r"stokes\(paper\): state has weight 1\.000e\+00 outside the operator "
               r"domain \(occupation would overflow a cutoff\)")
    with pytest.raises(OperatorError, match=message):
        apply(op, full)
    # in a batch, the first component with weight outside the domain is named
    batch = fock.Batch(reg, np.array([0, 1, 1]),
                       np.array([reg.index_of_occupation(o)
                                 for o in ([1, 0, 1], [1, 0, 0], [1, 0, 2])]),
                       np.array([1.0, 0.6, 0.8], dtype=complex))
    with pytest.raises(OperatorError, match=message.replace(r"1\.000e\+00", r"6\.400e-01")):
        apply(op, batch)
    # weight below UNREACHABLE_PROBABILITY outside the domain is dropped
    dust = np.zeros(reg.dimension, dtype=complex)
    dust[reg.index_of_occupation([1, 0, 1])] = 1.0
    dust[reg.index_of_occupation([1, 0, 2])] = 1e-8
    out = apply(op, as_batch(StateVector(reg, dust, normalized=False)))
    assert out.index.tolist() == [reg.index_of_occupation([0, 1, 2])]


def test_apply_matches_the_dense_contraction(rng):
    # random unitaries on mode subsets, in any target order, and a scattering
    # isometry: the batch step against the oracle's tensordot contraction
    reg = ModeRegistry([magnon("A"), optical("a", "V"), optical("a", "H"), magnon("B")],
                       [2, 1, 1, 2])
    ops = [ElementOp((3, 0), random_unitary(9, rng), OpFlavor.UNITARY),
           ElementOp((2,), random_unitary(2, rng), OpFlavor.UNITARY),
           ElementOp((1, 3, 2), random_unitary(12, rng), OpFlavor.UNITARY)]
    for op in ops:
        psi = random_pure(reg, rng)
        (got,) = as_vectors(apply(op, as_batch(psi)))
        assert np.abs(got - dense_apply(op, psi).amplitudes).max() < 1e-12
    psi = StateVector.from_occupation(reg, [1, 1, 0, 0])
    scatter = stokes_scatter(reg, 1, 2, 3, ScatterModel.BOSONIC)
    (got,) = as_vectors(apply(scatter, as_batch(psi)))
    assert np.abs(got - dense_apply(scatter, psi).amplitudes).max() == 0.0


def test_a_batch_applies_to_every_component_at_once(rng):
    reg = two_magnons(cutoff=2)
    op = ElementOp((1, 0), random_unitary(9, rng), OpFlavor.UNITARY)
    states = [random_pure(reg, rng) for _ in range(3)]
    out = apply(op, as_batch(*states))
    assert out.registry is reg and out.amplitudes.all()
    got = as_vectors(out, len(states))
    # each component's amplitudes are those of the state applied on its own
    for k, state in enumerate(states):
        assert np.abs(got[k] - as_vectors(apply(op, as_batch(state)))[0]).max() == 0.0


# ---------------------------------------------------------------------------
# invariants

def test_unitary_preserves_norm_and_spectrum(rng):
    reg = two_magnons(cutoff=2)
    u = random_unitary(9, rng)
    op = ElementOp((0, 1), u, OpFlavor.UNITARY)
    psi = random_pure(reg, rng)
    assert np.linalg.norm(apply(op, as_batch(psi)).amplitudes) == pytest.approx(1.0, abs=1e-10)
    # a mixture goes through the operator as its pure components
    weights = np.array([0.5, 0.3, 0.2])
    comps = [random_pure(reg, rng) for _ in weights]
    before = sum(w * np.outer(c.amplitudes, c.amplitudes.conj())
                 for w, c in zip(weights, comps))
    outs = as_vectors(apply(op, as_batch(*comps)), len(comps))
    after = sum(w * np.outer(o, o.conj()) for w, o in zip(weights, outs))
    assert np.trace(after).real == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(np.linalg.eigvalsh(after), np.linalg.eigvalsh(before),
                       atol=1e-10)


def test_tensor_then_partial_trace_recovers_factors(rng):
    rega = ModeRegistry([magnon("A")], [2])
    regb = ModeRegistry([magnon("B"), magnon("C")], [1, 1])
    psi_a = random_pure(rega, rng)
    psi_b = random_pure(regb, rng)
    joint = tensor(psi_a, psi_b)
    back_a = partial_trace(joint, [0])
    back_b = partial_trace(joint, [1, 2])
    assert np.allclose(back_a.matrix, psi_a.to_density_matrix().matrix, atol=1e-12)
    assert np.allclose(back_b.matrix, psi_b.to_density_matrix().matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# state validation

def test_state_normalization_flags():
    reg = two_magnons()
    with pytest.raises(StateError, match="norm"):
        StateVector(reg, np.array([0.5, 0, 0, 0]))
    flagged = StateVector(reg, np.array([0.5, 0, 0, 0]), normalized=False)
    assert flagged.norm() == pytest.approx(0.5)
    with pytest.raises(StateError, match="Hermitian"):
        DensityMatrix(reg, np.triu(np.ones((4, 4))))
    with pytest.raises(StateError, match="trace"):
        DensityMatrix(reg, 0.5 * np.eye(4))
    half = DensityMatrix(reg, 0.5 * np.eye(4), normalized=False)
    assert half.trace() == pytest.approx(2.0)


def test_isometry_flavor_validation():
    # columns must be orthonormal
    good = np.zeros((4, 2), dtype=complex)
    good[0, 0] = 1.0
    good[3, 1] = 1.0
    ElementOp((0,), good, OpFlavor.ISOMETRY, domain=(0, 1))
    bad = good.copy()
    bad[3, 1] = 2.0
    with pytest.raises(OperatorError, match="isometry"):
        ElementOp((0,), bad, OpFlavor.ISOMETRY, domain=(0, 1))
    with pytest.raises(OperatorError, match="domain"):
        ElementOp((0,), good, OpFlavor.ISOMETRY)


def test_flavor_checks_refuse_nan_entries():
    # a NaN residual compares False against the tolerance either way round
    with pytest.raises(OperatorError, match=r"not unitary \(residual nan\)"):
        ElementOp((0,), np.diag([1.0, np.nan]), OpFlavor.UNITARY)
    bad = np.zeros((4, 2), dtype=complex)
    bad[0, 0] = 1.0
    bad[3, 1] = np.nan
    with pytest.raises(OperatorError, match=r"not an isometry \(V\^dag V residual nan\)"):
        ElementOp((0,), bad, OpFlavor.ISOMETRY, domain=(0, 1))


def test_state_and_fidelity_checks_refuse_nan():
    # each tolerance check is written `not x <= tol`, so a NaN fails it
    reg = ModeRegistry([magnon("A")], [1])
    with pytest.raises(StateError, match="state norm nan deviates from 1"):
        StateVector(reg, [np.nan, 0], normalized=True)
    with pytest.raises(StateError, match=r"not Hermitian \(residual nan\)"):
        DensityMatrix(reg, [[0.5, np.nan], [np.nan, 0.5]], normalized=False)
    # a NaN entry fails the Hermiticity check; a finite diagonal whose sum
    # overflows both ways leaves a NaN trace
    big = np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308])
    with np.errstate(all="ignore"), pytest.raises(StateError,
                                                  match=r"trace \(nan\+0j\) deviates"):
        DensityMatrix(two_magnons(), big, normalized=True)
    plus = StateVector(reg, np.array([1, 1]) / np.sqrt(2))
    with pytest.raises(StateError, match="target must be normalized"):
        fidelity(plus, StateVector(reg, [np.nan, 0], normalized=False))
    # finite entries whose overlap overflows leave a NaN imaginary part
    rho = DensityMatrix(reg, 1.7e308 * np.array([[1, 1j], [-1j, 1]]), normalized=False)
    target = StateVector(reg, np.array([1, -1j]) / np.sqrt(2))
    with np.errstate(all="ignore"), pytest.raises(StateError,
                                                  match="imaginary residue nan"):
        fidelity(rho, target)


def test_domain_check_refuses_nan_weight_outside_the_domain():
    reg = ModeRegistry([optical("a", "V"), optical("a", "H"), magnon("a")], [1, 1, 2])
    batch = fock.Batch(reg, np.array([0]), np.array([reg.index_of_occupation([1, 0, 2])]),
                       np.array([np.nan], dtype=complex))
    with pytest.raises(OperatorError, match="state has weight nan outside the operator "
                       "domain"):
        apply(stokes_scatter(reg, 0, 1, 2), batch)
