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
import math
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

    def __init__(self, modes: Sequence[ModeLabel], cutoffs: Sequence[int]):
        modes = tuple(modes)
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(modes) != len(cutoffs):
            raise RegistryError("one cutoff per mode required")
        if len(set(modes)) != len(modes):
            raise RegistryError("duplicate mode labels in registry")
        if any(c < 1 for c in cutoffs):
            raise RegistryError("per-mode cutoff must be >= 1")
        self.modes = modes
        self.cutoffs = cutoffs
        self.dims = tuple(c + 1 for c in cutoffs)
        self.dimension = math.prod(self.dims)
        if self.dimension > constants.MAX_DIMENSION:
            raise RegistryError("registry dimension exceeds hard limit "
                                f"{constants.MAX_DIMENSION}")
        self._index = {label: i for i, label in enumerate(modes)}
        # little-endian strides: stride of mode k is prod(dims[:k])
        self.strides = tuple(math.prod(self.dims[:k]) for k in range(len(modes)))

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
        return tuple(int(n) for n in np.unravel_index(index, self.dims, order="F"))

    def reduced(self, keep: Sequence[int]) -> "ModeRegistry":
        return ModeRegistry([self.modes[i] for i in keep],
                            [self.cutoffs[i] for i in keep])


# ---------------------------------------------------------------------------
# ladder operators on a single truncated mode

def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a (dim)-level truncated mode."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


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
            if not abs(nrm - 1.0) <= constants.NORM_TOL:     # a NaN norm fails too
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
        if not herm <= constants.HERMITICITY_TOL:
            raise StateError(f"density matrix not Hermitian (residual {herm:.3e})")
        if normalized:
            tr = matrix.trace()
            if not abs(tr - 1.0) <= constants.TRACE_TOL:
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
    """The dense operations take state vectors only; a mixture goes through
    as its pure components."""
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
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype == complex
                and not m.flags.writeable and m.flags.owndata):
            # copy what a caller could still write to; a frozen complex array
            # (an `elements` memo entry) is shared as it is
            m = np.array(m, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if self.flavor is OpFlavor.UNITARY:
            if m.shape[0] != m.shape[1]:
                raise OperatorError(f"{self.label or 'op'}: unitary must be square")
            res = max(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max(),
                      np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
            if not res <= constants.UNITARITY_TOL:      # a NaN residual fails too
                raise OperatorError(
                    f"{self.label or 'op'}: not unitary (residual {res:.3e})")
        elif self.flavor is OpFlavor.ISOMETRY:
            if self.domain is None:
                raise OperatorError("isometry requires an explicit domain")
            if m.shape[1] != len(self.domain):
                raise OperatorError("isometry matrix width must match domain size")
            res = np.abs(m.conj().T @ m - np.eye(m.shape[1])).max()
            if not res <= constants.UNITARITY_TOL:
                raise OperatorError(
                    f"{self.label or 'op'}: not an isometry (V^dag V residual {res:.3e})")
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Batch:
    """Sparse amplitudes of many pure states over one registry.

    Entry e is amplitude `amplitudes[e]` of state `component[e]` at basis
    index `index[e]`; every (component, index) key appears at most once.
    The paper's states are a few occupations each (one drive photon and its
    thermal magnons), so a batch holds every thermal component of a side in
    a handful of entries per component.
    """

    registry: ModeRegistry
    component: np.ndarray
    index: np.ndarray
    amplitudes: np.ndarray


def apply(op: ElementOp, batch: Batch) -> Batch:
    """Apply an element to a `Batch`, lifted with identity on untouched modes.

    Every entry meets the nonzeros of its column of the local matrix (a
    gather over the matrix in compressed-column form), and the entries that
    land on one key are summed.
    """
    if not isinstance(batch, Batch):
        raise StateError(f"apply: expects a Batch, got {type(batch).__name__}")
    registry = batch.registry
    for t in op.targets:
        if not 0 <= t < len(registry):
            raise OperatorError(f"{op.label or 'op'}: target index {t} outside registry")
    tdims = [registry.dims[t] for t in op.targets]
    dt = math.prod(tdims)
    domain = list(range(dt) if op.domain is None else op.domain)
    if op.matrix.shape != (dt, len(domain)):
        raise OperatorError(f"{op.label or 'op'}: matrix shape {op.matrix.shape} "
                            f"does not match target dimension {dt}")
    square = np.zeros((dt, dt), dtype=complex)
    square[:, domain] = op.matrix
    # column j's nonzeros are rows[ptr[j]:ptr[j + 1]]
    col, rows = np.nonzero(square.T)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=dt))])
    # each entry's local index, and its registry index without the targets
    strides = np.array([registry.strides[t] for t in op.targets])
    digits = np.unravel_index(batch.index, registry.dims, order="F")
    occ = np.array([digits[t] for t in op.targets])
    local = np.ravel_multi_index(occ, tdims, order="F")
    rest = batch.index - strides @ occ
    outside = np.ones(dt, dtype=bool)
    outside[domain] = False
    hit = outside[local]
    bad = np.bincount(batch.component[hit], np.abs(batch.amplitudes[hit]) ** 2)
    bad = bad[~(bad <= constants.UNREACHABLE_PROBABILITY)]
    if len(bad):
        raise OperatorError(
            f"{op.label or 'op'}: state has weight {bad[0]:.3e} outside the "
            "operator domain (occupation would overflow a cutoff)")
    # entry e meets the nonzeros ptr[local[e]] .. ptr[local[e] + 1] - 1
    counts = ptr[local + 1] - ptr[local]
    gathered = int(counts.sum())
    if gathered > constants.MAX_ARRAY_ENTRIES:
        raise OperatorError(f"{op.label or 'op'}: {len(local)} entries gather {gathered} "
                            f"amplitudes, above the limit {constants.MAX_ARRAY_ENTRIES}")
    source = np.repeat(np.arange(len(local)), counts)
    nz = np.arange(len(source)) + np.repeat(ptr[local] - np.cumsum(counts) + counts,
                                            counts)
    moved = strides @ np.unravel_index(rows[nz], tdims, order="F")
    keys, slot = np.unique(batch.component[source] * registry.dimension
                           + rest[source] + moved, return_inverse=True)
    amplitudes = np.zeros(len(keys), dtype=complex)
    np.add.at(amplitudes, slot, batch.amplitudes[source] * square[rows[nz], col[nz]])
    live = amplitudes != 0
    return Batch(registry, *np.divmod(keys[live], registry.dimension), amplitudes[live])


# ---------------------------------------------------------------------------
# spec operations

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
    if not abs(target.norm() - 1.0) <= constants.NORM_TOL:
        raise StateError("fidelity: target must be normalized")
    if isinstance(state, StateVector):
        return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
    val = complex(target.amplitudes.conj() @ state.matrix @ target.amplitudes)
    if not abs(val.imag) <= constants.FIDELITY_IMAG_TOL:
        raise StateError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(val.real)
