"""Bell-state vectors and projectors for two dual-rail photons, and the
seeded demonstration sampler.

The coincidence analyzer routes the two photons through a polarizing beam
splitter, a half-wave plate at pi/8 on each output line, and a final
polarizing splitter per line whose ports are the four detectors (3h, 3v, 4h,
4v).  The two even-parity Bell states map onto distinct coincidence pairs:

    (HH + VV)/sqrt(2)  ->  (3h,4h) or (3v,4v)
    (HH - VV)/sqrt(2)  ->  (3h,4v) or (3v,4h)

so their pattern probabilities equal the projector values computed here.
The odd-parity pair (HV +- VH)/sqrt(2) bunches both photons onto a single
detector: its two members share one pattern set, which registers at all
only with photon-number resolution.  Reports therefore flag those heralds
as requiring number resolution.
"""

from __future__ import annotations

import enum

import numpy as np

from .fock import (
    ElementOp,
    ModeRegistry,
    OpFlavor,
    Polarization,
    StateError,
)


class BellId(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    NO_HERALD = "no_herald"


BELL_IDS = (BellId.PHI_PLUS, BellId.PHI_MINUS, BellId.PSI_PLUS, BellId.PSI_MINUS)


def _pair_indices(registry: ModeRegistry, path: str) -> tuple[int, int]:
    try:
        return (registry.optical_index(path, Polarization.H),
                registry.optical_index(path, Polarization.V))
    except Exception as exc:
        raise StateError(f"path {path!r} must carry H and V modes") from exc


def bell_state_vectors(registry: ModeRegistry, path1: str, path2: str
                       ) -> tuple[tuple[int, ...], dict[BellId, np.ndarray]]:
    """Local Bell vectors on the (p1.H, p1.V, p2.H, p2.V) joint subspace."""
    h1, v1 = _pair_indices(registry, path1)
    h2, v2 = _pair_indices(registry, path2)
    targets = (h1, v1, h2, v2)
    dims = [registry.dims[t] for t in targets]
    dt = int(np.prod(dims))

    def local(occ):
        idx = 0
        stride = 1
        for n, d in zip(occ, dims):
            idx += n * stride
            stride *= d
        return idx

    hh, vv = local((1, 0, 1, 0)), local((0, 1, 0, 1))
    hv, vh = local((1, 0, 0, 1)), local((0, 1, 1, 0))
    vecs = {}
    for bell_id, plus_idx, minus_idx, sign in (
            (BellId.PHI_PLUS, hh, vv, 1), (BellId.PHI_MINUS, hh, vv, -1),
            (BellId.PSI_PLUS, hv, vh, 1), (BellId.PSI_MINUS, hv, vh, -1)):
        vec = np.zeros(dt, dtype=complex)
        vec[plus_idx] = 1 / np.sqrt(2)
        vec[minus_idx] = sign / np.sqrt(2)
        vecs[bell_id] = vec
    return targets, vecs


def bell_projectors(registry: ModeRegistry, path1: str, path2: str
                    ) -> dict[BellId, ElementOp]:
    """Rank-1 projectors onto the four Bell states of two dual-rail photons.

    Pairwise orthogonal; their sum is the identity on the
    one-photon-per-subsystem coincidence sector.
    """
    targets, vecs = bell_state_vectors(registry, path1, path2)
    return {bell_id: ElementOp(targets, np.outer(v, v.conj()), OpFlavor.KRAUS,
                               label=f"P[{bell_id.value}]")
            for bell_id, v in vecs.items()}


def sample_outcomes(outcomes: list[tuple[str, float]], trials: int,
                    seed: int) -> list[str]:
    """Draw a demonstration herald sequence from (label, probability) pairs.

    Never feeds any acceptance path.
    """
    rng = np.random.default_rng(seed)
    ids = [label for label, _ in outcomes]
    probs = np.array([max(p, 0.0) for _, p in outcomes])
    probs = probs / probs.sum()
    return [ids[i] for i in rng.choice(len(ids), size=trials, p=probs)]
