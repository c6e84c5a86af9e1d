"""Optical and optomagnonic element constructors with fixed phase conventions.

Conventions (all of them; only coincidence statistics are physically fixed):

* 50/50 beam splitter: real Hadamard convention, a1+ -> (a1+ + a2+)/sqrt(2),
  a2+ -> (a1+ - a2+)/sqrt(2).  A single photon in the first (drive) input
  becomes (|01> + |10>)/sqrt(2).
* PBS: horizontal transmits (stays on its input line's continuation),
  vertical reflects (crosses to the other line).  Output ports reuse the
  input path labels.
* Half-wave plate at angle theta: [[cos 2t, sin 2t], [sin 2t, -cos 2t]] on
  (H, V); theta = pi/8 is the Hadamard, theta = pi/4 swaps H and V.
* Quarter-wave plate: symmetric retarder R(t) diag(e^{i pi/4}, e^{-i pi/4})
  R(-t); the fast axis leads by +i relative to the slow axis.
* State swap (anti-Stokes interaction at gt = pi/2): |01> -> -i |10>;
  `exact_swap=True` appends a local phase that restores the literal SWAP.

Multi-photon behaviour of every passive element is obtained by exponentiating
the quadratic generator of its single-particle matrix on the truncated joint
space, which keeps the lifted operator exactly unitary.  Every exponential is
taken with numpy alone: exp(i H) of a Hermitian generator H is V e^{i w} V^dag
from H's eigendecomposition (`_expi`), and the single-particle phase h with
u = exp(i h) comes from u's eigenvalues.

The passive exponentials are memoized, since the paper's circuits repeat a
few small elements on every side of every command.  `_lift` maps (target dims,
the single-particle unitary's bytes) to the lifted matrix, serving `bs50`,
`hwp`, `qwp` and `antistokes`.  It keeps at most `constants.MAX_MEMOIZED_LIFTS`
read-only matrices, least recently used first out, and holds only matrices
whose u passed the unitarity check (a non-unitary u raises on every call; a
raise is not memoized).  Everything else runs on every call: each
constructor's registry checks (distinct modes, equal cutoffs, mode kinds, H/V
pairs), the shape check on u and the `ElementOp`, which shares the read-only
matrix and checks it for unitarity.  The constructors stay plain module
functions above the memo, so a wrapper installed on this module's attribute
sees every call; a side kept by `protocols._sides` calls none of them again.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from . import constants
from .fock import (
    ElementOp,
    ModeKind,
    ModeRegistry,
    OperatorError,
    OpFlavor,
    Polarization,
    destroy,
    embed_local,
)


class ScatterModel(enum.Enum):
    """Weighting of the post-selected single-scattering event.

    PAPER_UNIFORM adds the excitation with occupation-independent amplitude,
    so a thermal mixture keeps its geometric weights.  BOSONIC applies the
    physical sqrt(n+1) creation weighting; outcome weights then acquire an
    (n+1) enhancement and the state requires renormalization after
    post-selection.
    """

    PAPER_UNIFORM = "paper"
    BOSONIC = "bosonic"


# ---------------------------------------------------------------------------
# passive (number-conserving) elements from single-particle matrices

def _expi(gen: np.ndarray) -> np.ndarray:
    """exp(i gen) of a Hermitian generator, from its eigendecomposition."""
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(1j * w)) @ v.conj().T


def _hermitian_phase(u: np.ndarray) -> np.ndarray:
    """Hermitian h with u = exp(i h), from the eigenvalues of unitary u."""
    res = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if not res <= constants.UNITARITY_TOL:          # a NaN residual fails too
        raise OperatorError(f"single-particle matrix not unitary (residual {res:.3e})")
    w, v = np.linalg.eig(u)
    h = (v * np.angle(w)) @ np.linalg.inv(v)
    return (h + h.conj().T) / 2


@functools.lru_cache(maxsize=constants.MAX_MEMOIZED_LIFTS)
def _lift(dims: tuple[int, ...], u_bytes: bytes) -> np.ndarray:
    """exp of the quadratic generator of u (given as its complex bytes) on the
    joint Fock space of modes with `dims`; read-only, shared by every caller."""
    k = len(dims)
    h = _hermitian_phase(np.frombuffer(u_bytes, dtype=complex).reshape(k, k))
    ann = [embed_local({i: destroy(dims[i])}, dims) for i in range(k)]
    quad = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for i in range(k):
        for j in range(k):
            if h[i, j] != 0:
                quad += h[i, j] * (ann[i].conj().T @ ann[j])
    lifted = _expi(quad)
    lifted.setflags(write=False)
    return lifted


def passive_lift(registry: ModeRegistry, targets: tuple[int, ...],
                 u: np.ndarray, label: str) -> ElementOp:
    """Lift a k x k single-particle unitary to the targets' joint Fock space."""
    dims = tuple(registry.dims[t] for t in targets)
    if np.shape(u) != (len(targets),) * 2:
        raise OperatorError(f"{label}: single-particle matrix of shape {np.shape(u)} "
                            f"for {len(targets)} modes")
    u_bytes = np.ascontiguousarray(u, dtype=complex).tobytes()
    return ElementOp(targets, _lift(dims, u_bytes), OpFlavor.UNITARY, label=label)


def beam_splitter_50_50(registry: ModeRegistry, mode1: int, mode2: int) -> ElementOp:
    """Symmetric 50/50 beam splitter on two equal-cutoff modes."""
    if mode1 == mode2:
        raise OperatorError("beam splitter needs two distinct modes")
    if registry.dims[mode1] != registry.dims[mode2]:
        raise OperatorError("beam splitter requires equal cutoffs")
    u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return passive_lift(registry, (mode1, mode2), u, "bs50")


# A non-finite angle (or one whose multiple overflows) gives NaN entries, which
# the unitarity check refuses, so numpy's warnings about them are silenced.

def hwp_jones(theta: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_jones(theta: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    retard = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    return rot @ retard @ rot.conj().T


def _polarization_pair(registry: ModeRegistry, path: str) -> tuple[int, int]:
    try:
        h = registry.optical_index(path, Polarization.H)
        v = registry.optical_index(path, Polarization.V)
    except Exception as exc:
        raise OperatorError(f"path {path!r} needs both H and V modes") from exc
    return h, v


def half_wave_plate(registry: ModeRegistry, path: str, theta: float) -> ElementOp:
    """HWP with fast axis at `theta` acting on one optical path."""
    h, v = _polarization_pair(registry, path)
    return passive_lift(registry, (h, v), hwp_jones(theta), f"hwp({path})")


def quarter_wave_plate(registry: ModeRegistry, path: str, theta: float) -> ElementOp:
    """QWP with fast axis at `theta` acting on one optical path."""
    h, v = _polarization_pair(registry, path)
    return passive_lift(registry, (h, v), qwp_jones(theta), f"qwp({path})")


def pbs(registry: ModeRegistry, path1: str, path2: str) -> ElementOp:
    """Polarizing beam splitter: H transmits, V reflects (crosses paths).

    Output port 1 is the continuation of `path1`, port 2 of `path2`; the H
    modes stay put and the two V modes are exchanged.
    """
    if path1 == path2:
        raise OperatorError("pbs needs two distinct paths")
    _polarization_pair(registry, path1)
    _polarization_pair(registry, path2)
    v1 = registry.optical_index(path1, Polarization.V)
    v2 = registry.optical_index(path2, Polarization.V)
    if registry.dims[v1] != registry.dims[v2]:
        raise OperatorError("pbs requires equal cutoffs on the crossing modes")
    d = registry.dims[v1]
    swap = np.zeros((d * d, d * d), dtype=complex)
    for n1 in range(d):
        for n2 in range(d):
            swap[n2 + d * n1, n1 + d * n2] = 1.0
    return ElementOp((v1, v2), swap, OpFlavor.UNITARY, label=f"pbs({path1},{path2})")


def phase_shift(registry: ModeRegistry, mode: int, phi: float) -> ElementOp:
    """|n> -> e^{i n phi} |n> on the target mode."""
    d = registry.dims[mode]
    with np.errstate(over="ignore", invalid="ignore"):  # see hwp_jones
        matrix = np.diag(np.exp(1j * phi * np.arange(d)))
    return ElementOp((mode,), matrix, OpFlavor.UNITARY, label="phase")


# ---------------------------------------------------------------------------
# optomagnonic scattering elements

def stokes_scatter(registry: ModeRegistry, te: int, tm: int, mag: int,
                   model: ScatterModel = ScatterModel.PAPER_UNIFORM) -> ElementOp:
    """Post-selected single Stokes scattering event.

    One drive (TE) photon is consumed; one scattered (TM) photon and one
    magnon excitation are created: |1,0,n> -> |0,1,n+1>.  The |0>_TE
    component (photon in the other arm, or an unsuccessful trial) is left
    untouched.  Domain: the TM mode vacuum, at most one TE photon, and the
    magnon below its cutoff whenever a photon is present; applying the
    element to a state with magnon occupation at the cutoff raises.
    """
    kinds = (registry.modes[te].kind, registry.modes[tm].kind, registry.modes[mag].kind)
    if kinds != (ModeKind.OPTICAL_PATH, ModeKind.OPTICAL_PATH, ModeKind.MAGNON):
        raise OperatorError("stokes_scatter expects (optical TE, optical TM, magnon)")
    dt, ds, dm = registry.dims[te], registry.dims[tm], registry.dims[mag]
    if ds < 2:
        raise OperatorError("TM output mode needs cutoff >= 1")

    def local_index(t, s, n):
        return t + dt * (s + ds * n)

    domain = []
    columns = []
    dim_out = dt * ds * dm
    for n in range(dm):
        domain.append(local_index(0, 0, n))
        col = np.zeros(dim_out, dtype=complex)
        col[local_index(0, 0, n)] = 1.0
        columns.append(col)
    for n in range(dm - 1):
        domain.append(local_index(1, 0, n))
        col = np.zeros(dim_out, dtype=complex)
        amp = 1.0 if model is ScatterModel.PAPER_UNIFORM else np.sqrt(n + 1)
        col[local_index(0, 1, n + 1)] = amp
        columns.append(col)
    matrix = np.column_stack(columns)
    flavor = OpFlavor.ISOMETRY if model is ScatterModel.PAPER_UNIFORM else OpFlavor.KRAUS
    return ElementOp((te, tm, mag), matrix, flavor, domain=tuple(domain),
                     label=f"stokes({model.value})")


def antistokes_swap(registry: ModeRegistry, photon: int, mag: int,
                    exact_swap: bool = False) -> ElementOp:
    """Full state swap between a photon and a magnon mode.

    Implemented as the beam-splitter interaction a+m + a m+ evolved to
    gt = pi/2, giving |0,n> -> (-i)^n |n,0>.  With `exact_swap` a local
    i^n phase on the photon mode restores the literal SWAP on every fully
    represented excitation sector.
    """
    dp, dm = registry.dims[photon], registry.dims[mag]
    if dp != dm:
        raise OperatorError("antistokes_swap requires matching cutoffs")
    # exp(-i pi/2 sigma_x) = -i sigma_x is the single-particle matrix
    op = passive_lift(registry, (photon, mag), [[0, -1j], [-1j, 0]], "antistokes")
    if exact_swap:
        correction = embed_local({0: np.diag(1j ** np.arange(dp))}, [dp, dm])
        op = ElementOp(op.targets, correction @ op.matrix, OpFlavor.UNITARY, label=op.label)
    return op


def pdc_evolution(registry: ModeRegistry, photon: int, mag: int, gt: float) -> ElementOp:
    """Exponential of the truncated two-mode-squeezing generator bm + b+m+.

    The generator is truncated to the cutoff space first, so the element is
    exactly unitary there; the residual against the untruncated squeezer is
    measured in tests, not hidden.
    """
    dims = [registry.dims[photon], registry.dims[mag]]
    b = embed_local({0: destroy(dims[0])}, dims)
    m = embed_local({1: destroy(dims[1])}, dims)
    down = b @ m
    gen = down + down.conj().T
    with np.errstate(invalid="ignore", over="ignore"):
        gen = -gt * gen
    if not np.isfinite(gen).all():
        raise OperatorError(f"pdc: gt = {gt:g} overflows the generator")
    return ElementOp((photon, mag), _expi(gen), OpFlavor.UNITARY, label="pdc")
