"""Truncated multimode Fock space: labeled modes, states, and operators.

Basis convention (fixed, tests depend on it): occupation-number indexing is
little-endian over registry order.  A basis index decomposes as

    index = n_0 + n_1 * d_0 + n_2 * d_0 * d_1 + ...

where d_k = cutoff_k + 1 is the Fock dimension of mode k, so the first
registry mode is the fastest-varying digit.  Numpy reshapes therefore use
Fortran order throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import constants


class OmxError(Exception):
    """Base class for all simulator errors."""


class RegistryError(OmxError):
    """Malformed mode registry: duplicate labels, bad cutoffs, overflow."""


class StateError(OmxError):
    """Invalid quantum state or mismatched registries."""


class OperatorError(OmxError):
    """Invalid element operator or illegal application."""


class ModeKind(enum.Enum):
    OPTICAL_PATH = "optical"
    MAGNON = "magnon"


class Polarization(enum.Enum):
    H = "H"
    V = "V"


@dataclass(frozen=True)
class ModeLabel:
    """A labeled bosonic mode: optical path-and-polarization, or a magnon."""

    kind: ModeKind
    path: str
    polarization: Polarization | None = None

    def __post_init__(self):
        if self.kind is ModeKind.OPTICAL_PATH and self.polarization is None:
            raise RegistryError(f"optical mode {self.path!r} needs a polarization")
        if self.kind is ModeKind.MAGNON and self.polarization is not None:
            raise RegistryError(f"magnon mode {self.path!r} must not carry a polarization")

    def __str__(self) -> str:
        if self.kind is ModeKind.OPTICAL_PATH:
            return f"{self.path}.{self.polarization.value}"
        return f"{self.path}[m]"


def optical(path: str, polarization: Polarization | str) -> ModeLabel:
    pol = Polarization(polarization) if isinstance(polarization, str) else polarization
    return ModeLabel(ModeKind.OPTICAL_PATH, path, pol)


def magnon(path: str) -> ModeLabel:
    return ModeLabel(ModeKind.MAGNON, path)


class ModeRegistry:
    """Ordered catalogue of modes with per-mode Fock cutoffs.

    Mode order is fixed at construction; states and operators reference modes
    by registry index.
    """

    def __init__(self, modes: Sequence[ModeLabel], cutoffs: Sequence[int],
                 max_dimension: int = constants.MAX_DIMENSION):
        modes = tuple(modes)
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(modes) != len(cutoffs):
            raise RegistryError("one cutoff per mode required")
        if len(set(modes)) != len(modes):
            raise RegistryError("duplicate mode labels in registry")
        if any(c < 1 for c in cutoffs):
            raise RegistryError("per-mode cutoff must be >= 1")
        dim = 1
        for c in cutoffs:
            dim *= c + 1
            if dim > max_dimension:
                raise RegistryError(
                    f"registry dimension exceeds hard limit {max_dimension}")
        self.modes = modes
        self.cutoffs = cutoffs
        self.dims = tuple(c + 1 for c in cutoffs)
        self.dimension = dim
        self._index = {label: i for i, label in enumerate(modes)}
        # little-endian strides: stride of mode k is prod(dims[:k])
        strides = [1]
        for d in self.dims[:-1]:
            strides.append(strides[-1] * d)
        self.strides = tuple(strides)

    def __len__(self) -> int:
        return len(self.modes)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModeRegistry)
                and self.modes == other.modes and self.cutoffs == other.cutoffs)

    def __hash__(self):
        return hash((self.modes, self.cutoffs))

    def index_of(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise RegistryError(f"mode {label} not in registry") from None

    def optical_index(self, path: str, polarization: Polarization | str) -> int:
        return self.index_of(optical(path, polarization))

    def magnon_index(self, path: str) -> int:
        return self.index_of(magnon(path))

    def index_of_occupation(self, occupation: Sequence[int]) -> int:
        if len(occupation) != len(self.modes):
            raise RegistryError("occupation tuple length mismatch")
        idx = 0
        for n, c, s in zip(occupation, self.cutoffs, self.strides):
            if not 0 <= n <= c:
                raise RegistryError(f"occupation {n} outside cutoff {c}")
            idx += n * s
        return idx

    def occupation_of(self, index: int) -> tuple[int, ...]:
        occ = []
        for d in self.dims:
            index, n = divmod(index, d)
            occ.append(n)
        return tuple(occ)

    def concat(self, other: "ModeRegistry") -> "ModeRegistry":
        overlap = set(self.modes) & set(other.modes)
        if overlap:
            raise RegistryError(f"duplicate mode labels in tensor product: "
                                f"{', '.join(str(m) for m in sorted(overlap, key=str))}")
        return ModeRegistry(self.modes + other.modes, self.cutoffs + other.cutoffs)

    def reduced(self, keep: Sequence[int]) -> "ModeRegistry":
        return ModeRegistry([self.modes[i] for i in keep],
                            [self.cutoffs[i] for i in keep])


# ---------------------------------------------------------------------------
# ladder operators on a single truncated mode

def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a (dim)-level truncated mode."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def embed_local(ops: dict[int, np.ndarray], dims: Sequence[int]) -> np.ndarray:
    """Kron-embed single-mode operators into the joint space of `dims`.

    Position 0 is the fastest-varying (little-endian) factor, so the joint
    matrix is kron(op_last, ..., op_0).
    """
    mat = np.eye(1, dtype=complex)
    for pos in range(len(dims)):
        local = ops.get(pos)
        if local is None:
            local = np.eye(dims[pos], dtype=complex)
        mat = np.kron(local, mat)
    return mat


# ---------------------------------------------------------------------------
# states

class StateVector:
    """Pure state over a registry's truncated Fock basis.

    States are immutable after construction; operations return new values.
    """

    def __init__(self, registry: ModeRegistry, amplitudes: np.ndarray,
                 normalized: bool = True):
        amplitudes = np.array(amplitudes, dtype=complex)
        if amplitudes.shape != (registry.dimension,):
            raise StateError(f"amplitude vector length {amplitudes.shape} does not "
                             f"match registry dimension {registry.dimension}")
        if normalized:
            nrm = np.linalg.norm(amplitudes)
            if abs(nrm - 1.0) > constants.NORM_TOL:
                raise StateError(f"state norm {nrm} deviates from 1; "
                                 "construct with normalized=False for projected states")
        self.registry = registry
        self.amplitudes = amplitudes
        self.amplitudes.setflags(write=False)
        self.normalized = normalized

    @classmethod
    def from_occupation(cls, registry: ModeRegistry, occupation: Sequence[int]) -> "StateVector":
        amps = np.zeros(registry.dimension, dtype=complex)
        amps[registry.index_of_occupation(occupation)] = 1.0
        return cls(registry, amps)

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "StateVector":
        return cls.from_occupation(registry, [0] * len(registry))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, occupation: Sequence[int]) -> complex:
        return complex(self.amplitudes[self.registry.index_of_occupation(occupation)])

    def to_density_matrix(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.registry, mat, normalized=self.normalized)


class DensityMatrix:
    """Mixed state over a registry's truncated Fock basis."""

    def __init__(self, registry: ModeRegistry, matrix: np.ndarray,
                 normalized: bool = True):
        matrix = np.array(matrix, dtype=complex)
        d = registry.dimension
        if matrix.shape != (d, d):
            raise StateError(f"matrix shape {matrix.shape} does not match registry "
                             f"dimension {d}")
        herm = np.abs(matrix - matrix.conj().T).max()
        if herm > constants.HERMITICITY_TOL:
            raise StateError(f"density matrix not Hermitian (residual {herm:.3e})")
        if normalized:
            tr = matrix.trace()
            if abs(tr - 1.0) > constants.TRACE_TOL:
                raise StateError(f"trace {tr} deviates from 1; "
                                 "construct with normalized=False for projected states")
        self.registry = registry
        self.matrix = matrix
        self.matrix.setflags(write=False)
        self.normalized = normalized

    def trace(self) -> float:
        return float(self.matrix.trace().real)


State = StateVector | DensityMatrix


def _require_pure(state: State, operation: str):
    """Operators act on state vectors only; a mixture goes through as its
    pure components."""
    if not isinstance(state, StateVector):
        raise StateError(f"{operation}: expects a StateVector, got "
                         f"{type(state).__name__}; propagate a mixture's pure components")


# ---------------------------------------------------------------------------
# element operators

class OpFlavor(enum.Enum):
    UNITARY = "unitary"
    ISOMETRY = "isometry"
    # Post-selected operator applied up to renormalization (projectors, the
    # occupation-weighted scattering variant).  Not part of the two spec'd
    # flavors; applications return unnormalized states.
    KRAUS = "kraus"


@dataclass(frozen=True)
class ElementOp:
    """Operator acting on a named subset of registry modes.

    `matrix` lives on the joint subspace of `targets` (little-endian over the
    target order).  For ISOMETRY flavor the matrix may be rectangular
    (full target space x domain) with `domain` listing the local basis
    indices spanning its domain; application requires the state to be
    supported there.
    """

    targets: tuple[int, ...]
    matrix: np.ndarray
    flavor: OpFlavor
    domain: tuple[int, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise OperatorError(f"{self.label or 'op'}: repeated target mode")
        object.__setattr__(self, "matrix", np.array(self.matrix, dtype=complex))
        m = self.matrix
        if self.flavor is OpFlavor.UNITARY:
            if m.shape[0] != m.shape[1]:
                raise OperatorError(f"{self.label or 'op'}: unitary must be square")
            res = max(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max(),
                      np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
            if res > constants.UNITARITY_TOL:
                raise OperatorError(
                    f"{self.label or 'op'}: not unitary (residual {res:.3e})")
        elif self.flavor is OpFlavor.ISOMETRY:
            if self.domain is None:
                raise OperatorError("isometry requires an explicit domain")
            if m.shape[1] != len(self.domain):
                raise OperatorError("isometry matrix width must match domain size")
            res = np.abs(m.conj().T @ m - np.eye(m.shape[1])).max()
            if res > constants.UNITARITY_TOL:
                raise OperatorError(
                    f"{self.label or 'op'}: not an isometry (V^dag V residual {res:.3e})")
        self.matrix.setflags(write=False)

    def target_dims(self, registry: ModeRegistry) -> tuple[int, ...]:
        return tuple(registry.dims[t] for t in self.targets)


def _square_matrix(op: ElementOp, tdims: Sequence[int]) -> np.ndarray:
    """Expand a domain-rectangular matrix to the full target space."""
    dt = int(np.prod(tdims))
    if op.domain is None:
        if op.matrix.shape != (dt, dt):
            raise OperatorError(f"{op.label or 'op'}: matrix shape {op.matrix.shape} "
                                f"does not match target dimension {dt}")
        return op.matrix
    full = np.zeros((dt, dt), dtype=complex)
    full[:, list(op.domain)] = op.matrix
    return full


def _domain_violation(amps: np.ndarray, dims: Sequence[int], targets: Sequence[int],
                      domain: Sequence[int]) -> float:
    """Probability weight of a vector outside the op's local domain."""
    k = len(targets)
    dt = int(np.prod([dims[t] for t in targets]))
    psi = amps.reshape(dims, order="F")
    psi = np.moveaxis(psi, targets, range(k))
    rows = psi.reshape(dt, -1, order="F")
    weights = np.sum(np.abs(rows) ** 2, axis=1)
    mask = np.ones(dt, dtype=bool)
    mask[list(domain)] = False
    return float(weights[mask].sum())


def _contract_vector(amps: np.ndarray, dims: Sequence[int], targets: Sequence[int],
                     matrix: np.ndarray) -> np.ndarray:
    """Apply `matrix` (square on the target joint space) to an amplitude vector."""
    k = len(targets)
    tdims = [dims[t] for t in targets]
    psi = amps.reshape(dims, order="F")
    op = matrix.reshape(tdims + tdims, order="F")
    out = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), list(targets)))
    out = np.moveaxis(out, list(range(k)), list(targets))
    return out.reshape(-1, order="F")


def apply(op: ElementOp, state: StateVector) -> StateVector:
    """Apply an element, lifted with identity on untouched modes."""
    _require_pure(state, "apply")
    registry = state.registry
    n = len(registry)
    for t in op.targets:
        if not 0 <= t < n:
            raise OperatorError(f"{op.label or 'op'}: target index {t} outside registry")
    tdims = op.target_dims(registry)
    square = _square_matrix(op, tdims)
    if op.domain is not None:
        bad = _domain_violation(state.amplitudes, registry.dims, op.targets, op.domain)
        if bad > constants.UNREACHABLE_PROBABILITY:
            raise OperatorError(
                f"{op.label or 'op'}: state has weight {bad:.3e} outside the "
                "operator domain (occupation would overflow a cutoff)")
    out = _contract_vector(state.amplitudes, registry.dims, op.targets, square)
    if op.flavor is OpFlavor.KRAUS:
        return StateVector(registry, out, normalized=False)
    return StateVector(registry, out, normalized=state.normalized)


# ---------------------------------------------------------------------------
# spec operations

def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor composition; combined registry is the concatenation."""
    _require_pure(a, "tensor")
    _require_pure(b, "tensor")
    registry = a.registry.concat(b.registry)
    # little-endian: first factor varies fastest -> kron(b, a)
    amps = np.kron(b.amplitudes, a.amplitudes)
    return StateVector(registry, amps, normalized=a.normalized and b.normalized)


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the kept modes (registry order preserved); trace preserved."""
    _require_pure(state, "partial_trace")
    keep = sorted(set(keep))
    n = len(state.registry)
    if not keep:
        raise StateError("partial_trace: keep set must be nonempty")
    if any(not 0 <= k < n for k in keep):
        raise StateError("partial_trace: keep index outside registry")
    # reduce without forming the full outer product
    k = len(keep)
    tens = np.moveaxis(state.amplitudes.reshape(state.registry.dims, order="F"),
                       keep, range(k))
    sub = state.registry.reduced(keep)
    m = tens.reshape(sub.dimension, -1, order="F")
    return DensityMatrix(sub, m @ m.conj().T, normalized=state.normalized)


def fidelity(state: State, target: StateVector) -> float:
    """Overlap <target| state |target> (pure-target fidelity)."""
    if target.registry != state.registry:
        raise StateError("fidelity: state and target registries differ")
    if abs(target.norm() - 1.0) > constants.NORM_TOL:
        raise StateError("fidelity: target must be normalized")
    if isinstance(state, StateVector):
        return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
    val = complex(target.amplitudes.conj() @ state.matrix @ target.amplitudes)
    if abs(val.imag) > constants.FIDELITY_IMAG_TOL:
        raise StateError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(val.real)
