"""End-to-end heralded teleportation, entanglement swapping, readout, and
thermal-noise analysis, with closed-form comparison values.

The teleportation pipeline: a single drive photon split over two
interferometer arms scatters into one dual-rail magnon excitation plus a
polarization-tagged photon; a Bell coincidence between that photon and the
input qubit heralds the transfer.  Entanglement swapping runs two such
interferometers and Bell-measures the two scattered photons, projecting the
four magnon modes onto a dual-rail Bell state.

Thermal magnon occupation enters as a truncated geometric mixture, weights
(1-s) s^n with s = n_bar / (n_bar + 1).  With the default truncation at
n = 2 the heralded fidelities take the closed forms

    F_teleport = 1 / (1 + s + s^2)^2        F_swap = F_teleport^2

while the untruncated mixture gives (1-s)^2 and (1-s)^4; reports carry both
so the truncation sensitivity stays visible.

Execution splits a plan at the Bell analyzer.  Declarations that an element
acts on together form one group (a photon path's H and V modes always
together); side 2 is the group holding the analyzer's second path, side 1
everything else, or the whole circuit if its elements join the two paths.
Each side's thermal components run through that side's elements on its own
registry, and the sides meet only in the herald: both outputs are
contracted with the Bell vectors and fidelity targets into tables over the
component pairs, which each report and sweep point weights with the thermal
mixture.  The joint registry is built for its size limit only.

Reports are scored on the dual-rail sector, one excitation per magnon pair:
the fidelity numerators and the swap concurrence read only the sector rows
of each side's output.  The full heralded magnon state, a (c+2)^4-square
matrix for a swap, is built only when a report's `post_state` is read
(readout reads it), and is refused above MAX_ARRAY_ENTRIES entries.
Readout's passive network is simulated for one excitation per magnon; every
occupation of the heralded state picks up the product of those phases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable

import numpy as np

from . import constants, elements, measurement, plans
from .elements import ScatterModel
from .fock import (
    DensityMatrix,
    ElementOp,
    ModeKind,
    ModeRegistry,
    OmxError,
    State,
    StateVector,
    apply,
    fidelity,
    magnon,
    optical,
)
from .measurement import BELL_IDS, BellId
from .plans import (
    BellMeasure,
    CircuitPlan,
    ElementStep,
    MagnonDecl,
    ModeRef,
    PhotonDecl,
    PlanSettings,
)


class ProtocolError(OmxError):
    """Invalid protocol configuration or input."""


# ---------------------------------------------------------------------------
# inputs and configuration

@dataclass(frozen=True)
class InputQubit:
    """Polarization qubit alpha |H> + beta |V> to be teleported."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        amps = (complex(self.alpha), complex(self.beta))
        if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps):
            raise ProtocolError(f"input qubit amplitudes must be finite, got "
                                f"{amps[0]} and {amps[1]}")
        nrm = plans.qubit_norm_sq(*amps)
        if not abs(nrm - 1.0) <= constants.NORM_TOL:
            raise ProtocolError(f"input qubit norm^2 = {nrm} deviates from 1")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "InputQubit":
        """Bloch-sphere angles: alpha = cos(theta/2), beta = e^{i phi} sin(theta/2)."""
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ProtocolError(f"Bloch angles must be finite, got {theta} and {phi}")
        return cls(complex(np.cos(theta / 2)),
                   complex(np.exp(1j * phi) * np.sin(theta / 2)))


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal magnon model: mean occupation and truncation level.

    `cutoff` is the highest retained thermal occupation; the simulation keeps
    one extra Fock level above it so the scattering excitation never
    overflows.  `renormalize` divides the truncated weights by their sum.
    """

    n_bar: float = 0.0
    cutoff: int = constants.DEFAULT_THERMAL_CUTOFF
    renormalize: bool = True

    def __post_init__(self):
        if not math.isfinite(self.n_bar):
            raise ProtocolError(f"n_bar must be finite, got {self.n_bar}")
        if self.n_bar < 0:
            raise ProtocolError("n_bar must be >= 0")
        if self.cutoff < 1:
            raise ProtocolError("thermal cutoff must be >= 1")

    @property
    def s(self) -> float:
        return self.n_bar / (self.n_bar + 1.0)

    def weights(self) -> np.ndarray:
        return plans.thermal_weights(self.n_bar, self.cutoff, self.renormalize)


# ---------------------------------------------------------------------------
# closed forms

def closed_form_f1(n_bar: float) -> float:
    """Heralded teleport fidelity for the default (n <= 2) thermal truncation."""
    s = n_bar / (n_bar + 1.0)
    return 1.0 / (1.0 + s + s * s) ** 2


def closed_form_f2(n_bar: float) -> float:
    """Swap fidelity; the square of the teleport value."""
    return closed_form_f1(n_bar) ** 2


def full_thermal_f1(n_bar: float) -> float:
    """Untruncated-mixture teleport fidelity (1-s)^2."""
    s = n_bar / (n_bar + 1.0)
    return (1.0 - s) ** 2


def full_thermal_f2(n_bar: float) -> float:
    return full_thermal_f1(n_bar) ** 2


def genuine_threshold(target: float = 2.0 / 3.0) -> float:
    """Thermal occupation at which the teleport closed form crosses `target`.

    Inverts 1/(1+s+s^2)^2 = target exactly: with c = target^(-1/2),
    s = (-1 + sqrt(4c - 3))/2 and n_bar = s/(1 - s).  The closed form
    decreases from 1 toward 1/9, so targets outside (1/9, 1] are unreachable.
    """
    if not 0.0 < target <= 1.0:
        raise ProtocolError("target fidelity must lie in (0, 1]")
    if target <= 1.0 / 9.0:
        raise ProtocolError("target below the large-occupation limit 1/9 is unreachable")
    c = 1.0 / math.sqrt(target)
    s = (-1.0 + math.sqrt(4.0 * c - 3.0)) / 2.0
    return s / (1.0 - s)


# ---------------------------------------------------------------------------
# reports

@dataclass
class OutcomeReport:
    """One Bell herald of a report.

    The numbers are scored on the dual-rail sector.  The heralded magnon
    state `post_state` (None where the herald is unreachable) is built by
    `build_post_state` on first access, so a report that is only printed
    never forms it.
    """

    outcome: BellId
    probability: float
    fidelity_raw: float
    fidelity_corrected: float
    included_in_aggregate: bool
    requires_number_resolution: bool
    concurrence: float | None = None
    build_post_state: Callable[[], DensityMatrix | None] = field(
        default=lambda: None, repr=False, compare=False)

    @cached_property
    def post_state(self) -> DensityMatrix | None:
        return self.build_post_state()

    def to_dict(self) -> dict:
        out = {
            "outcome": self.outcome.value,
            "probability": _sig12(self.probability),
            "fidelity_raw": _sig12(self.fidelity_raw),
            "fidelity_corrected": _sig12(self.fidelity_corrected),
            "included_in_aggregate": self.included_in_aggregate,
            "requires_number_resolution": self.requires_number_resolution,
        }
        if self.concurrence is not None:
            out["concurrence"] = _sig12(self.concurrence)
        return out


@dataclass
class ProtocolReport:
    protocol: str
    config: dict
    outcomes: list[OutcomeReport]
    no_herald_probability: float
    aggregate_fidelity: float
    closed_form: dict

    def outcome(self, bell_id: BellId) -> OutcomeReport:
        for o in self.outcomes:
            if o.outcome is bell_id:
                return o
        raise KeyError(bell_id)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "config": self.config,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "no_herald_probability": _sig12(self.no_herald_probability),
            "aggregate_fidelity": _sig12(self.aggregate_fidelity),
            "closed_form": {k: _sig12(v) for k, v in self.closed_form.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{float(x):.12g}")


def _config_echo(settings: PlanSettings) -> dict:
    echo = {
        "protocol": settings.protocol,
        "n_bar": _sig12(settings.n_bar),
        "thermal_cutoff": settings.thermal_cutoff,
        "renormalize": settings.renormalize,
        "model": settings.model.value,
        "alpha": [_sig12(settings.alpha.real), _sig12(settings.alpha.imag)],
        "beta": [_sig12(settings.beta.real), _sig12(settings.beta.imag)],
        "photon_cutoff": settings.photon_cutoff,
    }
    if settings.n_bar_overrides:
        echo["n_bar_overrides"] = {p: _sig12(v) for p, v in settings.n_bar_overrides}
    if settings.include_odd_parity:
        echo["include_odd_parity"] = True
    return echo


# ---------------------------------------------------------------------------
# plan execution

def _magnon_targets(plan: CircuitPlan, registry: ModeRegistry) -> list[int]:
    idx = [i for i, m in enumerate(registry.modes) if m.kind is ModeKind.MAGNON]
    need = 2 if plan.settings.protocol == "teleport" else 4
    if len(idx) != need:
        raise ProtocolError(f"{plan.settings.protocol} expects {need} magnon modes, "
                            f"found {len(idx)}")
    return idx


def _dual_rail_vector(registry: ModeRegistry, occ: dict[int, int]) -> np.ndarray:
    full = [0] * len(registry)
    for mode, n in occ.items():
        full[mode] = n
    vec = np.zeros(registry.dimension, dtype=complex)
    vec[registry.index_of_occupation(full)] = 1.0
    return vec


def _targets_for(plan: CircuitPlan, reduced: ModeRegistry) -> dict[BellId, tuple]:
    """(raw, corrected) fidelity target vectors per Bell herald.

    Teleport targets the transferred qubit alpha |lower> + beta |upper>; the
    even-parity minus herald is corrected by a pi phase on the upper arm,
    which is the same as comparing against the sign-matched target.  Swap
    targets the matching dual-rail Bell state; the same phase correction maps
    the minus heralds onto their plus partners.
    """
    s = plan.settings
    if s.protocol == "teleport":
        lower = _dual_rail_vector(reduced, {0: 0, 1: 1})
        upper = _dual_rail_vector(reduced, {0: 1, 1: 0})
        t_plus = s.alpha * lower + s.beta * upper
        t_minus = s.alpha * lower - s.beta * upper
        return {
            BellId.PHI_PLUS: (t_plus, t_plus),
            BellId.PHI_MINUS: (t_plus, t_minus),
            BellId.PSI_PLUS: (t_plus, t_plus),
            BellId.PSI_MINUS: (t_plus, t_plus),
        }
    ll = _dual_rail_vector(reduced, {0: 0, 1: 1, 2: 0, 3: 1})
    uu = _dual_rail_vector(reduced, {0: 1, 1: 0, 2: 1, 3: 0})
    lu = _dual_rail_vector(reduced, {0: 0, 1: 1, 2: 1, 3: 0})
    ul = _dual_rail_vector(reduced, {0: 1, 1: 0, 2: 0, 3: 1})
    phi_p = (ll + uu) / np.sqrt(2)
    phi_m = (ll - uu) / np.sqrt(2)
    psi_p = (lu + ul) / np.sqrt(2)
    psi_m = (lu - ul) / np.sqrt(2)
    return {
        BellId.PHI_PLUS: (phi_p, phi_p),
        BellId.PHI_MINUS: (phi_m, phi_m),
        BellId.PSI_PLUS: (psi_p, psi_p),
        BellId.PSI_MINUS: (psi_m, psi_m),
    }


def _split_sides(plan: CircuitPlan, owner: list[int],
                 registry: ModeRegistry, ops: list[ElementOp]) -> list[set[int]]:
    """Declaration indices of the Bell analyzer's two sides.

    `owner[m]` is the declaration holding registry mode m, so a photon
    path's H and V modes (which a qubit init entangles) always stay
    together; an element joins the declarations of all its targets.  Side 2
    is the group holding the analyzer's second path, unless the elements
    join it to the first path's group; side 1 is everything else.  A circuit
    that couples everything runs as side 1 alone, with an empty side 2.
    """
    root = list(range(len(plan.decls)))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    for op in ops:
        first = find(owner[op.targets[0]])
        for t in op.targets[1:]:
            root[find(owner[t])] = first
    g1, g2 = (find(owner[registry.optical_index(path, "H")])
              for path in (plan.measure.path1, plan.measure.path2))
    side2 = {k for k in range(len(plan.decls)) if g2 != g1 and find(k) == g2}
    return [set(range(len(plan.decls))) - side2, side2]


class _Side:
    """One side of the Bell analyzer, propagated on its own small registry.

    `out[k]` is the post-circuit amplitude tensor of the side's thermal
    component `components[k]`, with axes (the analyzer modes on this side,
    its magnons, its other modes), each flattened little-endian: analyzer
    modes in Bell-vector order, the rest in registry order.  Built for one
    report (`n_bar` given), a side keeps only its components of nonzero
    weight, with their weights in `report_weights`; built for a sweep, all.
    """

    def __init__(self, plan: CircuitPlan, registry: ModeRegistry,
                 ops: list[ElementOp], owner: list[int], decl_ids: set[int],
                 bell_modes: tuple[int, ...], n_bar: float | None):
        modes = [m for m, k in enumerate(owner) if k in decl_ids]
        local = {m: i for i, m in enumerate(modes)}
        reg = registry.reduced(modes)
        decls = [plan.decls[k] for k in sorted(decl_ids)]
        self.plan = plan
        self.magnons = [d for d in decls if isinstance(d, MagnonDecl)]
        self.magnon_modes = [m for m in modes
                             if registry.modes[m].kind is ModeKind.MAGNON]
        self.components = list(plans.iter_components(plan, self.magnons))
        if n_bar is not None:
            # a single report: components without weight never contribute
            w = self.weights(n_bar)
            self.components = [occs for occs, keep in zip(self.components, w) if keep]
            if not self.components:
                raise ProtocolError("plan produced a zero-mass ensemble")
            self.report_weights = w[w != 0]
        size = len(self.components) * reg.dimension
        if size > constants.MAX_ARRAY_ENTRIES:
            raise ProtocolError(
                f"{len(self.components)} thermal components on a {reg.dimension}-dim "
                f"side need {size} amplitudes, above the limit "
                f"{constants.MAX_ARRAY_ENTRIES}")
        side_ops = [replace(op, targets=tuple(local[t] for t in op.targets))
                    for op in ops if op.targets[0] in local]
        amps = []
        for occs in self.components:
            state = StateVector(reg, plans.initial_vector(plan, reg, occs, decls),
                                normalized=False)
            for op in side_ops:
                state = apply(op, state)
            amps.append(state.amplitudes)
        groups = ([local[m] for m in bell_modes if m in local],
                  [local[m] for m in self.magnon_modes])
        rest = [i for i in range(len(modes)) if i not in groups[0] + groups[1]]
        axes = groups[0] + groups[1] + rest
        tens = np.stack(amps, axis=-1).reshape(reg.dims + (len(amps),), order="F")
        tens = np.moveaxis(tens, axes, range(len(axes)))
        shape = [math.prod(reg.dims[i] for i in g) for g in (*groups, rest)]
        self.out = tens.reshape(shape + [len(amps)], order="F").transpose(3, 0, 1, 2)

    def weights(self, n_bar: float) -> np.ndarray:
        return np.array([plans.component_weight(self.plan, occs, n_bar, self.magnons)
                         for occs in self.components])

    def columns(self, w: np.ndarray) -> np.ndarray:
        """Output columns sqrt(w_k) out[k][..., o] as (analyzer, magnons,
        column); zero columns (vacuum dump ports, zero weights) dropped."""
        x = np.sqrt(w)[:, None, None, None] * self.out
        x = np.moveaxis(x, 0, 3).reshape(x.shape[1], x.shape[2], -1)
        return x[:, :, np.any(x != 0, axis=(0, 1))]


class _Circuit:
    """A plan split at the Bell analyzer, its sides run one at a time.

    The elements never act across the two sides, so each side's thermal
    components are propagated on that side's registry alone, and the joint
    state of a component pair is the product of the two sides' outputs.
    The sides meet only in the herald: `tables` contracts both outputs with
    the Bell vectors and fidelity targets into per-pair tables T, and every
    report or sweep point sums w1_i w2_j T_ij over the sides' thermal
    weights.  No amplitude array of the joint dimension is ever formed; the
    joint registry is built for its size limit and the element wiring only.
    With `n_bar` the circuit serves one report at that occupation; without,
    it keeps every thermal component, for a sweep.
    """

    def __init__(self, plan: CircuitPlan, n_bar: float | None = None):
        self.plan = plan
        registry = plans.build_registry(plan)
        ops = plans.build_elements(plan, registry)
        bell_modes, bell_vecs = measurement.bell_state_vectors(
            registry, plan.measure.path1, plan.measure.path2)
        mag_idx = _magnon_targets(plan, registry)
        if set(mag_idx) & set(bell_modes):
            raise ProtocolError("measured modes must be photonic")
        self.reduced = registry.reduced(mag_idx)
        owner = [k for k, decl in enumerate(plan.decls)
                 for _ in range(2 if isinstance(decl, PhotonDecl) else 1)]
        self.sides = [_Side(plan, registry, ops, owner, ids, bell_modes, n_bar)
                      for ids in _split_sides(plan, owner, registry, ops)]
        x, y = (side.out for side in self.sides)
        # registry-order position of each magnon in side order (side 1's first)
        side_order = self.sides[0].magnon_modes + self.sides[1].magnon_modes
        self._perm = [mag_idx.index(m) for m in side_order]
        self._mag_dims = [registry.dims[m] for m in side_order]
        self.bell = {b: v.reshape(x.shape[1], y.shape[1], order="F")
                     for b, v in bell_vecs.items()}
        self.targets = {b: tuple(self._to_sides(t, x.shape[2], y.shape[2]) for t in ts)
                        for b, ts in _targets_for(plan, self.reduced).items()}

    def _to_sides(self, t: np.ndarray, d1: int, d2: int) -> np.ndarray:
        tens = t.reshape(self.reduced.dims, order="F")
        return tens.transpose(self._perm).reshape(d1, d2, order="F")

    def pair_weights(self, w1: np.ndarray, n_bar: float) -> np.ndarray:
        """(n1, n2) weights of the component pairs, given side 1's weights.

        Side 2's magnon factors multiply onto side 1's weight, so a pair's
        weight is the joint component's product, factor for factor.
        """
        side = self.sides[1]
        return np.stack([plans.component_weight(self.plan, occs, n_bar, side.magnons,
                                                weight=w1)
                         for occs in side.components], axis=-1)

    def tables(self) -> np.ndarray:
        """(13, n1, n2) herald table over the component pairs (i, j).

        Row 0 is the pair's squared norm; rows 1 + 3k, 2 + 3k and 3 + 3k are
        the herald mass and the raw and corrected fidelity numerators of
        Bell id `BELL_IDS[k]`.  The herald mass needs each side's full Gram
        trace, but every fidelity target lies in the dual-rail sector, so the
        numerators contract only the magnon rows some target touches.
        """
        x, y = (side.out for side in self.sides)
        (n1, da, dm1, do1), (n2, db, dm2, do2) = x.shape, y.shape
        # analyzer-mode Gram matrix of each component, (n, d, d)
        gx, gy = ((r @ r.conj().transpose(0, 2, 1))
                  for r in (x.reshape(n1, da, -1), y.reshape(n2, db, -1)))
        rows = [np.outer(np.trace(gx, axis1=1, axis2=2).real,
                         np.trace(gy, axis1=1, axis2=2).real)]
        touched = np.any([t != 0 for ts in self.targets.values() for t in ts], axis=0)
        s1, s2 = np.flatnonzero(touched.any(axis=1)), np.flatnonzero(touched.any(axis=0))
        xf = x[:, :, s1].reshape(n1, da * len(s1), do1).transpose(0, 2, 1)  # (i, o1, (a m1))
        yf = y[:, :, s2].reshape(n2, db * len(s2), do2).transpose(1, 0, 2).reshape(
            db * len(s2), -1)
        for bell_id in BELL_IDS:
            b = self.bell[bell_id]
            # sum_abcd gx[i,a,c] conj(B[a,b]) gy[j,b,d] B[c,d]
            e = (b.conj() @ gy @ b.T).reshape(n2, -1)
            rows.append((gx.reshape(n1, -1) @ e.T).real)
            for t in self.targets[bell_id]:
                # overlap of the pair's conditional state with the target
                k = np.multiply.outer(b, t[np.ix_(s1, s2)]).transpose(0, 2, 1, 3)
                k = k.reshape(da * len(s1), db * len(s2)).conj()
                amp = (xf @ k).reshape(n1 * do1, -1) @ yf
                amp = amp.reshape(n1, do1, n2, do2)
                rows.append((amp.real ** 2 + amp.imag ** 2).sum(axis=(1, 3)))
        return np.stack(rows)

    def concurrences(self, w1: np.ndarray, w2: np.ndarray,
                     masses: list[float]) -> list[float | None]:
        """Dual-rail concurrence per Bell id of the mixture with side weights
        w1, w2 (None where the herald mass is unreachable).

        The block that `concurrence_dual_rail` reads from a post-state holds
        four magnon states, (q1, 1-q1, q2, 1-q2) in registry order.  Each is
        one magnon row of either side, so the block is a 4 x (k1 k2) product
        of those rows of the conditional columns; no post-state is formed.
        """
        x, y = (side.columns(w) for side, w in zip(self.sides, (w1, w2)))
        n = len(self.sides[0].magnon_modes)
        rows1, rows2 = [], []
        for q2 in (0, 1):
            for q1 in (0, 1):
                occ = (q1, 1 - q1, q2, 1 - q2)
                occ = [occ[m] for m in self._perm]      # registry to side order
                rows1.append(_flat_index(occ[:n], self._mag_dims[:n]))
                rows2.append(_flat_index(occ[n:], self._mag_dims[n:]))
        xs, ys = x[:, rows1], y[:, rows2]               # (da, 4, k1), (db, 4, k2)
        out = []
        for bell_id, mass in zip(BELL_IDS, masses):
            if mass <= constants.UNREACHABLE_PROBABILITY:
                out.append(None)
                continue
            v = np.tensordot(self.bell[bell_id].conj(), ys, axes=(1, 0))
            cols = np.einsum("akp,akq->kqp", xs, v).reshape(4, -1)
            block = cols @ cols.conj().T / mass
            out.append(_spin_flip_concurrence(0.5 * (block + block.conj().T)))
        return out

    def post_states(self, w1: np.ndarray, w2: np.ndarray,
                    masses: list[float]) -> list[DensityMatrix | None]:
        """Heralded magnon state per Bell id of the mixture with side weights
        w1, w2 (None where the herald mass is unreachable).

        With few output columns the conditional states themselves are formed
        (a teleport's second side is one photon, one column); otherwise each
        side's weighted Gram tensor is formed and the two are joined through
        the Bell vector, which costs (c+2)^4 squared rather than a column
        per component pair.  A state of more than MAX_ARRAY_ENTRIES entries
        is refused before anything is formed.
        """
        d = math.prod(self._mag_dims)
        if d * d > constants.MAX_ARRAY_ENTRIES:
            raise ProtocolError(f"a heralded state over {d} magnon levels needs "
                                f"{d * d} entries, above the limit "
                                f"{constants.MAX_ARRAY_ENTRIES}")
        x, y = (side.columns(w) for side, w in zip(self.sides, (w1, w2)))
        (da, dm1, k1), (db, dm2, k2) = x.shape, y.shape
        direct = d * d * k1 * k2 <= ((da * dm1) ** 2 * k1 + (db * dm2) ** 2 * k2
                                     + (db * d) ** 2)
        if not direct:
            xm, ym = x.reshape(da * dm1, k1), y.reshape(db * dm2, k2)
            rx = (xm @ xm.conj().T).reshape(da, dm1, da, dm1)
            ry = (ym @ ym.conj().T).reshape(db, dm2, db, dm2)
        states = []
        for bell_id, mass in zip(BELL_IDS, masses):
            if mass <= constants.UNREACHABLE_PROBABILITY:
                states.append(None)
                continue
            b = self.bell[bell_id]
            # rows and columns index the magnons (m, p) of sides 1 and 2 as m + dm1 p
            if direct:
                v = (b.conj() @ y.reshape(db, -1)).reshape(da, dm2, k2)
                cols = np.tensordot(v, x, axes=(0, 0)).transpose(0, 2, 1, 3)
                cols = cols.reshape(d, -1)
                rho = cols @ cols.conj().T
            else:
                # sum_abcd conj(B[a,b]) B[c,d] rx[a,m,c,n] ry[b,p,d,q] -> (m, n, p, q)
                t = np.tensordot(np.tensordot(b.conj(), rx, axes=(0, 0)), b,
                                 axes=(2, 0))
                rho = np.tensordot(t, ry, axes=([0, 3], [0, 2]))
                rho = rho.transpose(2, 0, 3, 1).reshape(d, d)
            if self._perm != sorted(self._perm):
                # magnon axes from side order back to registry order
                n = len(self._perm)
                inv = list(np.argsort(self._perm))
                rho = rho.reshape(self._mag_dims * 2, order="F").transpose(
                    inv + [n + i for i in inv]).reshape(d, d, order="F")
            block = rho / mass
            states.append(DensityMatrix(self.reduced, 0.5 * (block + block.conj().T)))
        return states


def _flat_index(occ: list[int], dims: list[int]) -> int:
    """Little-endian index of an occupation over modes of Fock dims `dims`."""
    return sum(n * math.prod(dims[:i]) for i, n in enumerate(occ))


def _pair_sums(tables: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_ij w_ij T_ij for every table row, over pair weights (..., n1, n2).

    The sum runs sequentially in joint component order (side 1's component
    the slower index), so each total is the one a loop over the joint
    thermal components accumulates, to the last bit.  Each row's totals are
    copied out of its running sum, so only one row's temporaries are alive.
    """
    w = weights.reshape(weights.shape[:-2] + (-1,))
    return np.stack([np.cumsum(w * row.ravel(), axis=-1)[..., -1].copy()
                     for row in tables], axis=-1)


def _heralds(sums: np.ndarray) -> list[tuple]:
    """(probability, raw fidelity, corrected fidelity) per Bell id, from
    weighted table sums; works elementwise over any leading grid axes."""
    total = sums[..., 0]
    if np.any(total <= 0.0):
        raise ProtocolError("plan produced a zero-mass ensemble")
    out = []
    for k in range(len(BELL_IDS)):
        mass, raw, corr = (sums[..., 1 + 3 * k + r] for r in range(3))
        reach = mass > constants.UNREACHABLE_PROBABILITY
        safe = np.where(reach, mass, 1.0)
        out.append((mass / total, np.where(reach, raw / safe, 0.0),
                    np.where(reach, corr / safe, 0.0)))
    return out


def _included(settings: PlanSettings) -> list[bool]:
    return [b in (BellId.PHI_PLUS, BellId.PHI_MINUS) or settings.include_odd_parity
            for b in BELL_IDS]


def _aggregate(heralds: list[tuple], included: list[bool]):
    """Probability-weighted corrected fidelity over the included heralds."""
    inc_mass = sum(p for (p, _, _), inc in zip(heralds, included) if inc)
    num = sum(p * f for (p, _, f), inc in zip(heralds, included) if inc)
    return np.where(inc_mass > 0, num / np.where(inc_mass > 0, inc_mass, 1.0), 0.0)


def _no_herald(heralded: float) -> float:
    """Probability that no Bell herald fires, given the heralds' total.

    A total above 1 by rounding dust (within TRACE_TOL) leaves 0; a larger
    excess means the herald model is broken, and is an error.
    """
    if heralded > 1.0 + constants.TRACE_TOL:
        raise ProtocolError(f"herald probabilities sum to {heralded!r}, above 1")
    return 1.0 - heralded if heralded <= 1.0 else 0.0


def execute_plan(plan: CircuitPlan) -> ProtocolReport:
    """Run a plan exactly (no sampling) and assemble its report."""
    settings = plan.settings
    n_bar = settings.n_bar
    circuit = _Circuit(plan, n_bar)
    w1, w2 = (side.report_weights for side in circuit.sides)
    sums = _pair_sums(circuit.tables(), circuit.pair_weights(w1, n_bar))
    heralds = _heralds(sums)
    included = _included(settings)
    masses = [float(sums[1 + 3 * k]) for k in range(len(BELL_IDS))]
    concurrences = (circuit.concurrences(w1, w2, masses) if settings.protocol == "swap"
                    else [None] * len(BELL_IDS))
    posts = cache(lambda: circuit.post_states(w1, w2, masses))

    outcomes = []
    for k, bell_id in enumerate(BELL_IDS):
        p, f_raw, f_corr = (float(v) for v in heralds[k])
        even = bell_id in (BellId.PHI_PLUS, BellId.PHI_MINUS)
        outcomes.append(OutcomeReport(
            outcome=bell_id,
            probability=p,
            fidelity_raw=f_raw,
            fidelity_corrected=f_corr,
            included_in_aggregate=included[k],
            requires_number_resolution=not even,
            concurrence=concurrences[k],
            build_post_state=lambda k=k: posts()[k],
        ))

    no_herald = _no_herald(sum(o.probability for o in outcomes))
    aggregate = float(_aggregate(heralds, included))

    if settings.protocol == "teleport":
        value, full = closed_form_f1(n_bar), full_thermal_f1(n_bar)
    else:
        value, full = closed_form_f2(n_bar), full_thermal_f2(n_bar)
    closed = {
        "value": value,
        "full_thermal": full,
        "abs_diff": abs(aggregate - value),
        "truncation_gap": abs(value - full),
    }
    return ProtocolReport(
        protocol=settings.protocol,
        config=_config_echo(settings),
        outcomes=outcomes,
        no_herald_probability=no_herald,
        aggregate_fidelity=aggregate,
        closed_form=closed,
    )


# ---------------------------------------------------------------------------
# built-in plan topologies

def teleport_plan(q: InputQubit, cfg: ThermalConfig,
                  model: ScatterModel = ScatterModel.PAPER_UNIFORM,
                  n_bar_overrides: dict | None = None,
                  include_odd_parity: bool = False) -> CircuitPlan:
    """Single-interferometer topology: arms A (upper) and B (lower), input c."""
    decls = (
        PhotonDecl("A", "single_v"),
        PhotonDecl("B"),
        MagnonDecl("A", "thermal"),
        MagnonDecl("B", "thermal"),
        PhotonDecl("c", "qubit"),
    )
    steps = _interferometer_steps("A", "B") + (
        ElementStep("pbs", ("A", "B")),
    )
    settings = PlanSettings("teleport", cfg.n_bar, cfg.cutoff, cfg.renormalize,
                            model, complex(q.alpha), complex(q.beta),
                            n_bar_overrides=tuple(sorted((n_bar_overrides or {}).items())),
                            include_odd_parity=include_odd_parity)
    return CircuitPlan(decls, steps, BellMeasure("B", "c"), settings)


def swap_plan(cfg: ThermalConfig,
              model: ScatterModel = ScatterModel.PAPER_UNIFORM,
              n_bar_overrides: dict | None = None,
              include_odd_parity: bool = False) -> CircuitPlan:
    """Dual-interferometer topology: arms (A, B) and (C, D)."""
    decls = (
        PhotonDecl("A", "single_v"),
        PhotonDecl("B"),
        MagnonDecl("A", "thermal"),
        MagnonDecl("B", "thermal"),
        PhotonDecl("C", "single_v"),
        PhotonDecl("D"),
        MagnonDecl("C", "thermal"),
        MagnonDecl("D", "thermal"),
    )
    steps = (_interferometer_steps("A", "B")
             + (ElementStep("pbs", ("A", "B")),)
             + _interferometer_steps("C", "D")
             + (ElementStep("pbs", ("C", "D")),))
    settings = PlanSettings("swap", cfg.n_bar, cfg.cutoff, cfg.renormalize, model,
                            n_bar_overrides=tuple(sorted((n_bar_overrides or {}).items())),
                            include_odd_parity=include_odd_parity)
    return CircuitPlan(decls, steps, BellMeasure("B", "D"), settings)


def _interferometer_steps(upper: str, lower: str) -> tuple[ElementStep, ...]:
    return (
        ElementStep("bs50", (ModeRef("photon", upper, "V"),
                             ModeRef("photon", lower, "V"))),
        ElementStep("stokes", (ModeRef("photon", upper, "V"),
                               ModeRef("photon", upper, "H"),
                               ModeRef("magnon", upper))),
        ElementStep("stokes", (ModeRef("photon", lower, "V"),
                               ModeRef("photon", lower, "H"),
                               ModeRef("magnon", lower))),
        ElementStep("hwp", (upper, np.pi / 4)),
    )


def teleport(q: InputQubit, cfg: ThermalConfig | None = None,
             model: ScatterModel = ScatterModel.PAPER_UNIFORM,
             n_bar_overrides: dict | None = None,
             include_odd_parity: bool = False) -> ProtocolReport:
    """Teleport an input polarization qubit onto the dual-rail magnon pair.

    `n_bar_overrides` maps arm names (A, B) to per-sphere occupations when
    the shared n_bar assumption does not hold; the closed-form comparison
    column keeps using the shared value.  `include_odd_parity` counts the
    number-resolution-requiring heralds in the aggregate fidelity.
    """
    return execute_plan(teleport_plan(q, cfg or ThermalConfig(), model,
                                      n_bar_overrides, include_odd_parity))


def entanglement_swap(cfg: ThermalConfig | None = None,
                      model: ScatterModel = ScatterModel.PAPER_UNIFORM,
                      n_bar_overrides: dict | None = None,
                      include_odd_parity: bool = False) -> ProtocolReport:
    """Project two independently prepared magnon pairs onto a joint Bell state."""
    return execute_plan(swap_plan(cfg or ThermalConfig(), model,
                                  n_bar_overrides, include_odd_parity))


# ---------------------------------------------------------------------------
# readout

def _port_transfer(upper: str, lower: str, apply_correction: bool) -> np.ndarray:
    """Amplitudes (t_upper, t_lower) of one magnon excitation on the output
    port's H and V modes, run through the retrieval elements on a cutoff-1
    registry.  The 2 x 2 transfer matrix (rows port H, V; columns magnon
    upper, lower) must be diagonal and unitary for `readout` to be exact.
    """
    reg = ModeRegistry([optical(upper, "H"), optical(upper, "V"),
                        optical(lower, "H"), optical(lower, "V"),
                        magnon(upper), magnon(lower)], [1] * 6)
    mag_u, mag_l = reg.magnon_index(upper), reg.magnon_index(lower)
    ops = [elements.phase_shift(reg, mag_u, np.pi)] if apply_correction else []
    ops += [elements.antistokes_swap(reg, reg.optical_index(upper, "V"), mag_u),
            elements.antistokes_swap(reg, reg.optical_index(lower, "V"), mag_l),
            elements.half_wave_plate(reg, upper, np.pi / 4),
            elements.pbs(reg, upper, lower)]
    port = [reg.strides[reg.optical_index(upper, pol)] for pol in "HV"]
    transfer = np.zeros((2, 2), dtype=complex)
    for col, mag in enumerate((mag_u, mag_l)):
        out = StateVector.from_occupation(reg, np.eye(6, dtype=int)[mag])
        for op in ops:
            out = apply(op, out)
        transfer[:, col] = out.amplitudes[port]     # one photon in a port mode
    t = np.diag(transfer)
    if (np.abs(transfer - np.diag(t)).max() > constants.UNITARITY_TOL
            or np.abs(np.abs(t) - 1.0).max() > constants.UNITARITY_TOL):
        raise ProtocolError(f"readout network does not map the upper rail to H and "
                            f"the lower rail to V: transfer matrix {transfer.tolist()}")
    return t


@dataclass
class ReadoutResult:
    """Anti-photon retrieval of a dual-rail magnon state.

    `state` lives on the output port's (H, V) modes; the upper rail maps to
    H and the lower rail to V (lower-arm light crosses at the recombining
    polarizing splitter).  `partial_readout` flags magnon occupations beyond
    the qubit sector.
    """

    state: State
    upper_rail: object
    lower_rail: object
    qubit_sector_weight: float
    partial_readout: bool


def readout(state: State, apply_correction: bool = False) -> ReadoutResult:
    """Swap a two-mode magnon state onto the dual-rail anti-photon port.

    The optional feed-forward correction applies a pi phase on the upper arm
    before the swap, completing the even-parity minus herald.  The passive
    network maps the upper magnon onto the port's H mode and the lower onto
    its V mode, so occupation (n_u, n_l) only picks up the phase
    t_upper^n_u t_lower^n_l of `_port_transfer`; the port keeps the magnon
    cutoffs.
    """
    in_reg = state.registry
    if len(in_reg) != 2 or any(m.kind is not ModeKind.MAGNON for m in in_reg.modes):
        raise ProtocolError("readout expects a state over exactly two magnon modes")
    upper, lower = in_reg.modes[0].path, in_reg.modes[1].path
    t_u, t_l = _port_transfer(upper, lower, apply_correction)
    n_u, n_l = np.unravel_index(np.arange(in_reg.dimension), in_reg.dims, order="F")
    phase = t_u ** n_u * t_l ** n_l
    port = ModeRegistry([optical(upper, "H"), optical(upper, "V")], in_reg.cutoffs)
    if isinstance(state, StateVector):
        diag = np.abs(state.amplitudes) ** 2
        out_state: State = StateVector(port, phase * state.amplitudes,
                                       normalized=state.normalized)
    else:
        diag = np.abs(np.diag(state.matrix))
        out_state = DensityMatrix(port, phase[:, None] * state.matrix * phase.conj(),
                                  normalized=state.normalized)
    beyond = diag[np.maximum(n_u, n_l) >= 2].sum()      # a magnon holding 2 or more
    return ReadoutResult(
        state=out_state,
        upper_rail=optical(upper, "H"),
        lower_rail=optical(upper, "V"),
        qubit_sector_weight=float(diag[n_u + n_l == 1].sum()),
        partial_readout=float(beyond) > constants.PARTIAL_READOUT_TOL,
    )


def retrieved_qubit_fidelity(result: ReadoutResult, q: InputQubit) -> float:
    """Overlap of the readout photon with alpha |lower rail> + beta |upper rail>."""
    reg = result.state.registry
    vec = np.zeros(reg.dimension, dtype=complex)
    vec[reg.index_of_occupation([0, 1])] = q.alpha   # lower rail = V
    vec[reg.index_of_occupation([1, 0])] = q.beta    # upper rail = H
    return fidelity(result.state, StateVector(reg, vec))


# ---------------------------------------------------------------------------
# sweeps and entanglement quantifier

@dataclass(frozen=True)
class SweepRow:
    n_bar: float
    simulated: float
    closed_form: float
    abs_diff: float


DEFAULT_SWEEP_QUBIT = InputQubit(complex(1 / np.sqrt(2)), complex(1 / np.sqrt(2)))


def check_sweep_size(protocol: str, points: int, cutoff: int) -> None:
    """Refuse a sweep whose pair-weight array would be too large.

    A sweep holds one weight per grid point and joint thermal component
    ((cutoff + 1) per thermal magnon: 2 for teleport, 4 for swap); the check
    needs only the sizes, so it runs before the grid is formed.
    """
    if protocol not in plans.PROTOCOLS:
        raise ProtocolError(f"unknown sweep protocol {protocol!r}")
    size = points * (cutoff + 1) ** (2 if protocol == "teleport" else 4)
    if size > constants.MAX_SWEEP_WEIGHTS:
        raise ProtocolError(f"sweep of {points} points needs {size} pair weights, "
                            f"above the limit {constants.MAX_SWEEP_WEIGHTS}")


def sweep_fidelity(protocol: str, grid, cfg: ThermalConfig | None = None,
                   model: ScatterModel = ScatterModel.PAPER_UNIFORM,
                   qubit: InputQubit | None = None) -> list[SweepRow]:
    """Heralded fidelity against the closed form over a thermal-occupation grid.

    `grid` is a sequence of occupations, its length checked by
    `check_sweep_size` before anything is formed.  The circuit is propagated
    once (conditional amplitudes are independent of n_bar); each grid point
    only reweights the herald tables.
    """
    cfg = cfg or ThermalConfig()
    qubit = qubit or DEFAULT_SWEEP_QUBIT
    check_sweep_size(protocol, len(grid), cfg.cutoff)
    grid = [float(g) for g in grid]
    if not all(math.isfinite(g) and g >= 0 for g in grid):
        raise ProtocolError("sweep grid values must be finite and >= 0")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ProtocolError("sweep grid must be monotone nondecreasing")
    if protocol == "teleport":
        plan = teleport_plan(qubit, ThermalConfig(0.0, cfg.cutoff, cfg.renormalize), model)
        closed = closed_form_f1
    else:
        plan = swap_plan(ThermalConfig(0.0, cfg.cutoff, cfg.renormalize), model)
        closed = closed_form_f2
    circuit = _Circuit(plan)
    side = circuit.sides[0]
    weights = np.array([circuit.pair_weights(side.weights(g), g) for g in grid])
    sums = _pair_sums(circuit.tables(), weights)
    simulated = _aggregate(_heralds(sums), _included(plan.settings))
    return [SweepRow(g, float(sim), closed(g), abs(float(sim) - closed(g)))
            for g, sim in zip(grid, simulated)]


def concurrence_dual_rail(state: State, renormalize: bool = False) -> float:
    """Entanglement of the one-excitation-per-pair sector of four magnon modes.

    The four modes (upper1, lower1, upper2, lower2) are projected onto the
    sector with exactly one excitation in each pair, giving an effective
    two-qubit block whose entanglement is scored with the standard
    spin-flip (sqrt-eigenvalue) concurrence.  By default the block keeps its
    sector weight (trace <= 1), so thermal leakage out of the qubit sector
    shows up as a reduced value; `renormalize` rescales to a unit-trace
    two-qubit state first.
    """
    rho = state if isinstance(state, DensityMatrix) else state.to_density_matrix()
    reg = rho.registry
    if len(reg) != 4:
        raise ProtocolError("dual-rail concurrence expects four modes")
    # qubit value 0 = lower rail excited, 1 = upper rail excited; q1 fastest
    block = np.zeros((4, 4), dtype=complex)
    occs = {}
    for q1 in (0, 1):
        for q2 in (0, 1):
            occ = (q1, 1 - q1, q2, 1 - q2)
            occs[q1 + 2 * q2] = reg.index_of_occupation(occ)
    for i in range(4):
        for j in range(4):
            block[i, j] = rho.matrix[occs[i], occs[j]]
    if renormalize:
        tr = block.trace().real
        if tr < constants.UNREACHABLE_PROBABILITY:
            raise ProtocolError("no weight in the dual-rail sector")
        block = block / tr
    return _spin_flip_concurrence(block)


def _spin_flip_concurrence(rho4: np.ndarray) -> float:
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rt = rho4 @ yy @ rho4.conj() @ yy
    ev = np.abs(np.sort(np.linalg.eigvals(rt).real)[::-1])
    # the square root amplifies eigenvalue dust; floor it relative to the top
    ev[ev < constants.CONCURRENCE_EIGENVALUE_FLOOR * max(ev[0], 1e-300)] = 0.0
    lam = np.sqrt(ev)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
