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

Execution splits a plan at the Bell analyzer (`plans.split_sides`).
Declarations that an element acts on together form one group (a photon
path's H and V modes always together); side 2 is the group holding the
analyzer's second path, side 1 everything else, or the whole circuit if its
elements join the two paths.  Each side's registry and elements are built
from its own declarations and steps, and all of its thermal components run
through them as one sparse batch, one `fock.apply` per element; no registry
over the whole plan is built.  The sides meet only in the herald: both
outputs are contracted with the Bell vectors and fidelity targets into
tables over the component pairs, which each report and sweep point weights
with the thermal mixture.  Reports and sweeps form those
weights through one product, `plans.component_weight`, over a grid of
occupations at once; a report is the one-point grid, so a sweep row equals
the report at its occupation to the last bit.

Reports are scored on the dual-rail sector, one excitation per magnon pair:
the fidelity numerators and the swap concurrence read only the sector rows
of each side's output.  A herald's magnon state is read through one
contraction, `_Circuit.conditional`, of both sides' weighted columns through
the Bell vector: one conditional column per magnon occupation.  Their Gram
matrix over the sector rows is the sector block that the swap concurrence
and readout read, and their squared norms are the populations, where
residual thermal occupation shows up outside the sector; no heralded state
over every occupation is formed.  Readout's passive network is simulated
for one excitation per magnon, whose phases the sector block picks up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import constants, elements, measurement, plans
from .elements import ScatterModel
from .fock import Batch, ModeRegistry, OmxError, apply, magnon, optical
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

class HeraldedSector(NamedTuple):
    """A herald's magnon state as readout reads it: its block on the
    dual-rail sector, in `_sector` order, and its populations, indexed by
    the occupations of the magnons `paths` in declaration order."""

    paths: tuple[str, ...]
    block: np.ndarray
    populations: np.ndarray


@dataclass
class OutcomeReport:
    """One Bell herald of a report.

    The numbers are scored on the dual-rail sector.  The herald's `sector`
    (None where the herald is unreachable) is built by `build_sector` on
    first access, so a report that is only printed never forms it.
    """

    outcome: BellId
    probability: float
    fidelity_raw: float
    fidelity_corrected: float
    included_in_aggregate: bool
    requires_number_resolution: bool
    concurrence: float | None = None
    build_sector: Callable[[], HeraldedSector | None] = field(
        default=lambda: None, repr=False, compare=False)

    @cached_property
    def sector(self) -> HeraldedSector | None:
        return self.build_sector()

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

def _sector(n: int) -> list[tuple[int, ...]]:
    """The dual-rail sector of n magnons in declaration order, one excitation
    per pair: state q1 + 2 q2 holds (q1, 1 - q1, q2, 1 - q2), where qubit
    value 0 excites the lower rail (a pair of magnons has q1 only)."""
    return [(q1, 1 - q1, q2, 1 - q2)[:n] for q2 in range(n // 2) for q1 in (0, 1)]


def _targets(settings: PlanSettings) -> dict[BellId, tuple]:
    """(raw, corrected) fidelity targets per Bell herald, as coefficients over
    the states of `_sector`.

    Teleport targets the transferred qubit alpha |lower> + beta |upper>; the
    even-parity minus herald is corrected by a pi phase on the upper arm,
    which is the same as comparing against the sign-matched target.  Swap
    targets the matching dual-rail Bell state; the same phase correction maps
    the minus heralds onto their plus partners.
    """
    if settings.protocol == "teleport":
        t_plus = np.array([settings.alpha, settings.beta])
        t_minus = np.array([settings.alpha, -settings.beta])
        return {
            BellId.PHI_PLUS: (t_plus, t_plus),
            BellId.PHI_MINUS: (t_plus, t_minus),
            BellId.PSI_PLUS: (t_plus, t_plus),
            BellId.PSI_MINUS: (t_plus, t_plus),
        }
    r = 1 / np.sqrt(2)
    bell = ([r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, -r, r, 0])
    return {b: (np.array(t), np.array(t)) for b, t in zip(BELL_IDS, bell)}


class _Side:
    """One side of the Bell analyzer, propagated on its own small registry.

    The registry holds the side's declarations in the order: analyzer paths
    in Bell-vector order, magnons, the rest, each group in plan order.  All
    of the side's thermal components go through the elements together, as
    one sparse `fock.Batch` (each holds one drive photon and its magnon
    occupations, a few entries), one `fock.apply` per element.  The entries
    are then scattered into `out`: an amplitude vector, little-endian over
    the registry, is in Fortran order the tensor `out[k]` of thermal
    component `components[k]`, with axes (analyzer modes, magnons, other
    modes), each flattened little-endian; `out` is one C-contiguous array.
    Built for one report (`n_bar` given), a side keeps only its components
    of nonzero weight, and `kept` indexes them among all of
    `iter_components`; built for a sweep, it keeps all, and `kept` is the
    full slice.
    """

    def __init__(self, plan: CircuitPlan, decls: list, steps: list[ElementStep],
                 n_bar: float | None):
        paths = (plan.measure.path1, plan.measure.path2)

        def rank(decl) -> int:
            if isinstance(decl, MagnonDecl):
                return 2
            return paths.index(decl.path) if decl.path in paths else 3

        decls = sorted(decls, key=rank)
        reg = plans.build_registry(plan, decls)
        self.magnons = [d for d in decls if isinstance(d, MagnonDecl)]
        self.components = list(plans.iter_components(plan, self.magnons))
        self.kept = slice(None)
        if n_bar is not None:
            # a single report: components without weight never contribute
            w = plans.component_weight(plan, [n_bar], self.magnons)[0]
            self.kept = np.flatnonzero(w)
            if not len(self.kept):
                raise ProtocolError("plan produced a zero-mass ensemble")
            self.components = [self.components[k] for k in self.kept]
        n = len(self.components)
        _check_entries(n * reg.dimension, f"{n} thermal components on a "
                       f"{reg.dimension}-dim side need", "amplitudes")
        a = 2 * sum(rank(d) < 2 for d in decls)     # H and V of each analyzer path
        m = a + len(self.magnons)
        shape = [math.prod(reg.dims[:a]), math.prod(reg.dims[a:m]), math.prod(reg.dims[m:])]
        state = plans.initial_vector(plan, reg, self.components, decls)
        for op in plans.build_elements(plan, reg, steps):
            state = apply(op, state)
        analyzer, mags, other = np.unravel_index(state.index, shape, order="F")
        self.out = np.zeros([n] + shape, dtype=complex)
        self.out[state.component, analyzer, mags, other] = state.amplitudes
        # the output columns (component, other-mode index) holding amplitude
        self.live = np.zeros((n, shape[2]), dtype=bool)
        self.live[state.component, other] = True

    def columns(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Output columns sqrt(w_k) out[k][:, rows, o] as (analyzer, magnon
        row, column), ordered by o, then k; columns without amplitude (vacuum
        dump ports, zero weights) dropped.  Only the selected magnon rows of
        the live columns are gathered, straight into that order."""
        o, k = np.nonzero((self.live & (w != 0)[:, None]).T)
        _, da, dm, do = self.out.shape
        at = (np.arange(da)[:, None, None] * (dm * do) + rows[:, None] * do
              + k * (da * dm * do) + o)
        return self.out.ravel()[at] * np.sqrt(w)[k]


class _Circuit:
    """A plan split at the Bell analyzer, its sides run one at a time.

    The elements never act across the two sides (`plans.split_sides`), so
    each side's thermal components are propagated, as one batch, on a
    registry of that side's declarations alone, and the joint state of a
    component pair is the product of the two sides' outputs.  No registry or
    amplitude array over the whole plan is ever formed.  The sides meet only
    in the herald: `tables` contracts both outputs with the Bell vectors and
    fidelity targets into per-pair tables T, and every report or sweep point
    sums W_ij T_ij over the pairs' thermal weights (`weights`).

    The heralded magnon states are read through one contraction,
    `conditional`, of both sides' weighted columns at the rows of a list of
    magnon states (`_side_rows`); the targets and the swap concurrence live
    in the dual-rail sector (`_sector`), whose rows on side i are `rows[i]`.
    With `n_bar` the circuit serves one report at that occupation and
    propagates only components of nonzero weight; without, it keeps every
    thermal component, for a sweep.
    """

    def __init__(self, plan: CircuitPlan, n_bar: float | None = None):
        self.plan = plan
        s = plan.settings
        magnons = plan.magnon_decls()
        need = 2 if s.protocol == "teleport" else 4
        if len(magnons) != need:
            raise ProtocolError(f"{s.protocol} expects {need} magnon modes, "
                                f"found {len(magnons)}")
        self.sides = [_Side(plan, decls, steps, n_bar)
                      for decls, steps in plans.split_sides(plan)]
        x, y = (side.out for side in self.sides)
        paths = (plan.measure.path1, plan.measure.path2)
        analyzer = ModeRegistry([optical(p, pol) for p in paths for pol in "HV"],
                                [s.photon_cutoff] * 4)
        _, bell_vecs = measurement.bell_state_vectors(analyzer, *paths)
        self.bell = {b: v.reshape(x.shape[1], y.shape[1], order="F")
                     for b, v in bell_vecs.items()}
        self.rows = self._side_rows(np.array(_sector(need)))
        self.targets = _targets(s)

    def _side_rows(self, occs: np.ndarray) -> list[np.ndarray]:
        """Each side's magnon row of the occupations `occs`, (states, magnons)
        in declaration order: little-endian over the side's own magnons, so
        a magnon's stride is 0 on the other side."""
        magnons, dm = self.plan.magnon_decls(), self.plan.settings.thermal_cutoff + 2
        return [occs @ [dm ** side.magnons.index(d) if d in side.magnons else 0
                        for d in magnons] for side in self.sides]

    def weights(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thermal weights at the shared occupations `grid`: side 1's and side
        2's component weights, (points, n1) and (points, n2), and the
        component pairs' weights, (points, n1, n2).

        A pair's weight continues side 1's product over side 2's magnons, so
        it is the joint component's product, factor for factor.  A report's
        sides select their kept components; a sweep's take the full slice,
        so nothing is copied.
        """
        (s1, s2), points = self.sides, len(grid)
        w1 = plans.component_weight(self.plan, grid, s1.magnons)
        w2 = plans.component_weight(self.plan, grid, s2.magnons)
        pairs = plans.component_weight(self.plan, grid, s2.magnons, weight=w1)
        pairs = pairs.reshape(points, w1.shape[1], w2.shape[1])
        return w1[:, s1.kept], w2[:, s2.kept], pairs[:, s1.kept][:, :, s2.kept]

    def tables(self) -> np.ndarray:
        """(13, n1, n2) herald table over the component pairs (i, j).

        Row 0 is the pair's squared norm; rows 1 + 3k, 2 + 3k and 3 + 3k are
        the herald mass and the raw and corrected fidelity numerators of
        Bell id `BELL_IDS[k]`.  The herald mass needs each side's full Gram
        trace, but every fidelity target lies in the dual-rail sector, so the
        numerators contract only the sector's magnon rows.
        """
        x, y = (side.out for side in self.sides)
        (n1, da, dm1, do1), (n2, db, dm2, do2) = x.shape, y.shape
        pairs = f"over {n1} x {n2} component pairs needs"
        _check_entries(n1 * do1 * n2 * do2, f"a fidelity overlap {pairs}", "entries")
        _check_entries((1 + 3 * len(BELL_IDS)) * n1 * n2, f"a herald table {pairs}",
                       "entries")
        # analyzer-mode Gram matrix of each component, (n, d, d), formed one
        # component at a time so that no conjugate of a whole stack is held
        gx, gy = (np.stack([c @ c.conj().T for c in r])
                  for r in (x.reshape(n1, da, -1), y.reshape(n2, db, -1)))
        rows = [np.outer(np.trace(gx, axis1=1, axis2=2).real,
                         np.trace(gy, axis1=1, axis2=2).real)]
        # each side's distinct sector rows, ascending, and each sector
        # state's position among them
        (s1, q1), (s2, q2) = (np.unique(r, return_inverse=True) for r in self.rows)
        xf = x[:, :, s1].reshape(n1, da * len(s1), do1).transpose(0, 2, 1)  # (i, o1, (a m1))
        yf = y[:, :, s2].reshape(n2, db * len(s2), do2).transpose(1, 0, 2).reshape(
            db * len(s2), -1)
        for bell_id in BELL_IDS:
            b = self.bell[bell_id]
            # sum_abcd gx[i,a,c] conj(B[a,b]) gy[j,b,d] B[c,d]
            e = (b.conj() @ gy @ b.T).reshape(n2, -1)
            rows.append((gx.reshape(n1, -1) @ e.T).real)
            for coefficients in self.targets[bell_id]:
                # overlap of the pair's conditional state with the target
                t = np.zeros((len(s1), len(s2)), dtype=complex)
                t[q1, q2] = coefficients
                k = np.multiply.outer(b, t).transpose(0, 2, 1, 3)
                k = k.reshape(da * len(s1), db * len(s2)).conj()
                amp = (xf @ k).reshape(n1 * do1, -1) @ yf
                amp = amp.reshape(n1, do1, n2, do2)
                rows.append((amp.real ** 2 + amp.imag ** 2).sum(axis=(1, 3)))
        return np.stack(rows)

    def conditional(self, bell_id: BellId, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Conditional columns of `bell_id` over a list of magnon states,
        (states, k1 k2), from side 1's and side 2's weighted columns at each
        state's row, (da, states, k1) and (db, states, k2): a state's column
        over the pairs (p, q) is sum_ab conj(B[a, b]) xs[a, :, p] ys[b, :, q].
        """
        v = np.tensordot(self.bell[bell_id].conj(), ys, axes=(1, 0))
        return np.einsum("akp,akq->kqp", xs, v).reshape(xs.shape[1], -1)

    @staticmethod
    def block(cols: np.ndarray, mass: float) -> np.ndarray:
        """Heralded magnon block over the states of the conditional columns
        `cols`: their Gram matrix over the herald mass, made Hermitian."""
        block = cols @ cols.conj().T
        block /= mass
        block += block.conj().T
        block *= 0.5
        return block

    def concurrences(self, w1: np.ndarray, w2: np.ndarray,
                     masses: list[float]) -> list[float | None]:
        """Dual-rail concurrence per Bell id of the mixture with side weights
        w1, w2 (None where the herald mass is unreachable): the spin-flip
        concurrence of the `block` over the dual-rail sector, which keeps
        its sector weight, so leakage out of the sector lowers it."""
        xs, ys = (side.columns(w, rows)
                  for side, w, rows in zip(self.sides, (w1, w2), self.rows))
        return [None if mass <= constants.UNREACHABLE_PROBABILITY else
                _spin_flip_concurrence(self.block(self.conditional(b, xs, ys), mass))
                for b, mass in zip(BELL_IDS, masses)]

    def post_columns(self, w1: np.ndarray, w2: np.ndarray) -> list[np.ndarray]:
        """Both sides' weighted columns at each of the (c+2)^n magnon
        occupations, little-endian in declaration order.  These and their
        conditional columns are refused together above MAX_ARRAY_ENTRIES
        entries, before any of them is formed."""
        magnons, dm = self.plan.magnon_decls(), self.plan.settings.thermal_cutoff + 2
        d = dm ** len(magnons)
        (da, k1), (db, k2) = ((side.out.shape[1], np.count_nonzero(side.live[w != 0]))
                              for side, w in zip(self.sides, (w1, w2)))
        _check_entries(d * (k1 * k2 + da * k1 + db * k2), f"the columns of a herald's "
                       f"populations over {d} magnon levels need", "entries")
        occs = np.array(np.unravel_index(np.arange(d), [dm] * len(magnons), order="F")).T
        return [side.columns(w, rows) for side, w, rows
                in zip(self.sides, (w1, w2), self._side_rows(occs))]


def _check_entries(entries: int, need: str, unit: str) -> None:
    """Refuse an array of more than MAX_ARRAY_ENTRIES entries before it is
    allocated; `need` says what needs them."""
    if entries > constants.MAX_ARRAY_ENTRIES:
        raise ProtocolError(f"{need} {entries} {unit}, above the limit "
                            f"{constants.MAX_ARRAY_ENTRIES}")


def _pair_sums(tables: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_ij w_ij T_ij for every table row, over pair weights (..., n1, n2).

    The sum runs sequentially in joint component order (side 1's component
    the slower index), so each total is the one a loop over the joint
    thermal components accumulates, to the last bit.  Every row's running
    sum is formed in the same buffer, one array the size of the weights.
    """
    w = weights.reshape(weights.shape[:-2] + (-1,))
    running = np.empty_like(w)
    sums = np.empty(w.shape[:-1] + (len(tables),))
    for k, row in enumerate(tables):
        np.cumsum(np.multiply(w, row.ravel(), out=running), axis=-1, out=running)
        sums[..., k] = running[..., -1]
    return sums


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
    (w1,), (w2,), pairs = circuit.weights([n_bar])
    sums = _pair_sums(circuit.tables(), pairs)[0]
    heralds = _heralds(sums)
    included = _included(settings)
    masses = [float(sums[1 + 3 * k]) for k in range(len(BELL_IDS))]
    concurrences = (circuit.concurrences(w1, w2, masses) if settings.protocol == "swap"
                    else [None] * len(BELL_IDS))
    post_columns = cache(lambda: circuit.post_columns(w1, w2))

    def sector(k: int) -> HeraldedSector | None:
        bell_id, mass = BELL_IDS[k], masses[k]
        if mass <= constants.UNREACHABLE_PROBABILITY:
            return None
        cols = circuit.conditional(bell_id, *post_columns())
        pops = (cols.real ** 2 + cols.imag ** 2).sum(axis=1) / mass
        if not abs(pops.sum() - 1.0) <= constants.TRACE_TOL:
            raise ProtocolError(f"{bell_id.value} populations sum to {pops.sum()!r}")
        paths = tuple(d.path for d in plan.magnon_decls())
        levels = [settings.thermal_cutoff + 2] * len(paths)
        rows = np.ravel_multi_index(np.array(_sector(len(paths))).T, levels, order="F")
        return HeraldedSector(paths, circuit.block(cols[rows], mass),
                              pops.reshape(levels, order="F"))

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
            build_sector=lambda k=k: sector(k),
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
    # component 0 excites the upper magnon, component 1 the lower
    out = Batch(reg, np.arange(2), np.array([reg.strides[mag_u], reg.strides[mag_l]]),
                np.ones(2, dtype=complex))
    for op in ops:
        out = apply(op, out)
    transfer = np.zeros((2, 2), dtype=complex)
    for row, pol in enumerate("HV"):                # one photon in a port mode
        hit = out.index == reg.strides[reg.optical_index(upper, pol)]
        transfer[row, out.component[hit]] = out.amplitudes[hit]
    t = np.diag(transfer)
    if not (np.abs(transfer - np.diag(t)).max() <= constants.UNITARITY_TOL
            and np.abs(np.abs(t) - 1.0).max() <= constants.UNITARITY_TOL):
        raise ProtocolError(f"readout network does not map the upper rail to H and "
                            f"the lower rail to V: transfer matrix {transfer.tolist()}")
    return t


@dataclass
class ReadoutResult:
    """Anti-photon retrieval of a teleport herald's dual-rail magnon qubit.

    The upper rail maps to the output port's H mode and the lower rail to
    its V mode (lower-arm light crosses at the recombining polarizing
    splitter).  `port` is the retrieved photon's block on the port's
    one-photon states V and H, in the magnon sector's order (lower rail,
    then upper).  `partial_readout` flags magnon occupations beyond the
    qubit sector.
    """

    port: np.ndarray
    qubit_sector_weight: float
    partial_readout: bool


def readout(outcome: OutcomeReport, apply_correction: bool = False) -> ReadoutResult:
    """Swap a teleport herald's magnon qubit onto the dual-rail anti-photon port.

    The optional feed-forward correction applies a pi phase on the upper arm
    before the swap, completing the even-parity minus herald.  The passive
    network maps the upper magnon onto the port's H mode and the lower onto
    its V mode, so each sector state only picks up its magnon's phase
    t_upper or t_lower of `_port_transfer`.
    """
    sector = outcome.sector
    if sector is None or len(sector.paths) != 2:
        raise ProtocolError(f"readout expects a reachable herald over two magnon "
                            f"modes; {outcome.outcome.value} is not one")
    t_u, t_l = _port_transfer(*sector.paths, apply_correction)
    phase = np.array([t_l, t_u])                        # sector order: lower, upper
    pops = sector.populations                           # [n_upper, n_lower]
    beyond = pops[2:].sum() + pops[:2, 2:].sum()        # a magnon holding 2 or more
    return ReadoutResult(port=phase[:, None] * sector.block * phase.conj(),
                         qubit_sector_weight=float(pops[1, 0] + pops[0, 1]),
                         partial_readout=float(beyond) > constants.PARTIAL_READOUT_TOL)


def retrieved_qubit_fidelity(result: ReadoutResult, q: InputQubit) -> float:
    """Overlap of the readout photon with alpha |lower rail> + beta |upper rail>."""
    target = np.array([q.alpha, q.beta], dtype=complex)
    val = complex(target.conj() @ result.port @ target)
    if not abs(val.imag) <= constants.FIDELITY_IMAG_TOL:
        raise ProtocolError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(val.real)


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
    once (conditional amplitudes are independent of n_bar); the pair weights
    of the whole grid, one matrix, then reweight the herald tables.
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
    sums = _pair_sums(circuit.tables(), circuit.weights(grid)[2])
    simulated = _aggregate(_heralds(sums), _included(plan.settings))
    return [SweepRow(g, float(sim), c, abs(float(sim) - c))
            for g, sim, c in zip(grid, simulated, map(closed, grid))]


def _spin_flip_concurrence(rho4: np.ndarray) -> float:
    """Standard (sqrt-eigenvalue) concurrence of a two-qubit block."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rt = rho4 @ yy @ rho4.conj() @ yy
    ev = np.abs(np.sort(np.linalg.eigvals(rt).real)[::-1])
    # the square root amplifies eigenvalue dust; floor it relative to the top
    ev[ev < constants.CONCURRENCE_EIGENVALUE_FLOOR * max(ev[0], 1e-300)] = 0.0
    lam = np.sqrt(ev)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
