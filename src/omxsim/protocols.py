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

Execution splits a plan at the Bell analyzer into the two sides that
`plans.sides` resolves, each a `plans.Side` spec.  Each side's registry and
elements are built from its own spec, and all of its thermal components,
whatever their weight, run through them as one sparse batch, one
`fock.apply` per element; no registry over the whole plan is built.
The sides meet only in the herald, which a side enters only through its
output on the analyzer states that the Bell vectors use: each thermal
component reduces to its squared norm and two small Gram matrices
(`_Side.factors`), and only these are kept.  Reports and sweeps weight each
side's factors with its own thermal weights (`plans.component_weight`) over
a grid of occupations at once, and join the sides through the Bell vectors.
A report is the one-point grid of the same path, so a sweep row equals the
report at its occupation to the last bit.  No side reads the occupation:
`_sides` keeps each built side for later commands, keyed on its spec and
the settings its build reads, unless it holds the input qubit.

Reports are scored on the dual-rail sector, one excitation per magnon pair:
the join forms each herald's block over the sector states, whose overlaps
with the targets are the fidelity numerators and which the swap
concurrence and readout read.  Readout also reads the herald's populations
over every magnon occupation, where residual thermal occupation shows up
outside the sector.  No heralded state is formed.  Readout's passive
network is simulated for one excitation per magnon, whose phases the sector
block picks up.
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
    dual-rail sector (`plans.dual_rail_sector`) and its populations, indexed
    by the occupations of the magnons `paths` in declaration order."""

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

def _overlaps(settings: PlanSettings) -> np.ndarray:
    """conj(t_s) t_s' of each Bell herald's fidelity target t over the
    sector states s (`plans.dual_rail_sector`): raw, then corrected, (2, ids, S^2).

    Teleport targets the transferred qubit alpha |lower> + beta |upper>; the
    even-parity minus herald is corrected by a pi phase on the upper arm,
    which is the same as comparing against the sign-matched target.  Swap
    targets the matching dual-rail Bell state; the same phase correction maps
    the minus heralds onto their plus partners.
    """
    if settings.protocol == "teleport":
        plus, minus = [settings.alpha, settings.beta], [settings.alpha, -settings.beta]
        targets = [[plus] * 4, [plus, minus, plus, plus]]
    else:
        r = 1 / np.sqrt(2)
        targets = [([r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, -r, r, 0])] * 2
    t = np.array(targets, dtype=complex)
    return (t.conj()[..., :, None] * t[..., None, :]).reshape(2, len(BELL_IDS), -1)


class _Side:
    """One side of the Bell analyzer, propagated on its own small registry
    and reduced at once to the herald factors that the join reads.

    The registry holds the spec's declarations in their order.  All of its
    thermal components, whatever their weight, go through the elements as
    one sparse `fock.Batch`, one `fock.apply` per element.  An entry's
    registry index is, little-endian, its analyzer state (of `da`), its
    magnon row (of `dm`) and its other-mode index.  `states`, the analyzer
    states that the Bell vectors use, follow from the spec's measured paths
    and the photon cutoff; the sector rows hold its sector occupations.  Per
    component k, the
    `factors` row holds |x_k|^2, G[i, j] = sum x_k[states[i], m, o]
    conj(x_k[states[j], m, o]) over magnon rows m and other modes o, and
    H[(r, i), (r', j)], over o alone at sector rows r, r', row-major;
    `columns` holds G's columns, one per (k, m, o).  The batch is dropped.
    """

    def __init__(self, spec: plans.Side, settings: PlanSettings, states: np.ndarray):
        reg = plans.build_registry(settings, spec.decls)
        self.magnons = spec.magnons
        components = list(plans.iter_components(settings.thermal_cutoff, self.magnons))
        a, m = 2 * len(spec.measured), len(self.magnons)    # H and V of each analyzer path
        self.da, self.dm = math.prod(reg.dims[:a]), math.prod(reg.dims[a:a + m])
        self.span = reg.dimension // self.da          # magnon rows x other modes
        rows = np.array(spec.sector, np.int64) @ (settings.thermal_cutoff + 2) ** np.arange(m)
        b = plans.initial_vector(settings, reg, components, spec.decls)
        for op in plans.build_elements(settings, reg, spec.elements):
            b = apply(op, b)
        n, ns, width = len(components), len(states), len(states) * len(rows)
        _check_entries(n * (1 + ns * ns + width * width),
                       f"the herald factors of {n} thermal components need")
        f = np.zeros((n, 1 + ns * ns + width * width), dtype=complex)
        f[:, 0] = np.bincount(b.component, b.amplitudes.real ** 2 + b.amplitudes.imag ** 2,
                              minlength=n)
        rest, analyzer = np.divmod(b.index, self.da)
        hit = analyzer[:, None] == states
        use = hit.any(axis=1)
        k, rest, slot, amplitudes = (b.component[use], rest[use], hit[use].argmax(axis=1),
                                     b.amplitudes[use])
        # one column per (component, magnon row, other modes)
        self.columns = keys, grams = _column_grams(k * self.span + rest, slot, amplitudes, ns)
        np.add.at(f[:, 1:1 + ns * ns], keys // self.span, grams)
        # one column per (component, other modes), over the sector rows
        other, row = np.divmod(rest, self.dm)
        hit = row[:, None] == rows
        use = hit.any(axis=1)
        span = self.span // self.dm
        keys, grams = _column_grams(k[use] * span + other[use],
                                    hit[use].argmax(axis=1) * ns + slot[use], amplitudes[use],
                                    width)
        np.add.at(f[:, 1 + ns * ns:], keys // span, grams)
        self.factors = f

    def row_grams(self, w: np.ndarray) -> np.ndarray:
        """The G of `factors` per magnon row, summed from its `columns` over
        the components with their weights `w`, (dm, states^2)."""
        keys, grams = self.columns
        out = np.zeros((self.dm, grams.shape[1]), dtype=complex)
        np.add.at(out, keys % self.span % self.dm, w[keys // self.span, None] * grams)
        return out


class _SideMemo(dict):
    """Built sides by all that a side reads, its spec, settings and the
    limits its build checks (a lowered limit refuses as cold), least
    recently used first.  A hit moves its side to most recent; a new side is
    kept read-only while the kept sides' entries stay within
    MAX_ARRAY_ENTRIES, unless it holds the input qubit.  Angles -0.0 and 0.0
    build equal elements."""

    Info = NamedTuple("Info", [("hits", int), ("misses", int), ("sides", int), ("entries", int)])
    hits = misses = 0

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0

    def cache_info(self) -> Info:
        return self.Info(self.hits, self.misses, len(self), sum(n for _, n in self.values()))

    def side(self, spec: plans.Side, s: PlanSettings, states: np.ndarray) -> _Side:
        key = None if any(d.init == "qubit" for d in spec.decls) else (
            spec, s.thermal_cutoff, s.photon_cutoff, s.model, constants.MAX_DIMENSION,
            constants.MAX_ARRAY_ENTRIES)
        if key in self:
            self.hits += 1
            self[key] = self.pop(key)               # most recently used last
            return self[key][0]
        self.misses += key is not None
        side = _Side(spec, s, states)
        arrays = (side.factors, *side.columns)
        if key is not None and (n := sum(a.size for a in arrays)) <= constants.MAX_ARRAY_ENTRIES:
            for array in arrays:
                array.setflags(write=False)
            self[key] = side, n
            while self.cache_info().entries > constants.MAX_ARRAY_ENTRIES:
                del self[next(iter(self))]
        return side


_sides = _SideMemo()


def _column_grams(key: np.ndarray, slot: np.ndarray, amplitudes: np.ndarray,
                  width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct column keys, ascending, and each column's v v^H, where
    entry e puts amplitudes[e] at slot[e] of the vector v of column key[e]."""
    keys, column = np.unique(key, return_inverse=True)
    _check_entries(len(keys) * width * width,
                   f"the Gram matrices of {len(keys)} output columns need")
    v = np.zeros((len(keys), width), dtype=complex)
    v[column, slot] = amplitudes
    return keys, (v[:, :, None] * v[:, None, :].conj()).reshape(len(keys), -1)


@cache
def _join_layout(photon_cutoff: int, paths: tuple[int, int],
                 sectors: tuple[tuple[int, ...], ...]) -> tuple:
    """How the herald joins two sides that hold `paths` analyzer paths each,
    where `sectors[i][s]` is sector state s's position among side i's
    distinct sector rows: each side's analyzer states that the Bell vectors
    use; where a join reads each side's factor row, per Bell id, quantity
    and pair (t, u) of its terms c_t |a_t>|b_t> (quantity 0, the mass, reads
    G[a_t, a_u]; quantity 1 + S s + s', the sector block's entry (s, s'),
    reads H[(row of s, a_t), (row of s', a_u)]); and the coefficients
    conj(c_t) c_u.  Read-only, as circuits share them."""
    analyzer = ModeRegistry([optical(p, pol) for p in "12" for pol in "HV"],
                            [photon_cutoff] * 4)
    _, bell_vecs = measurement.bell_state_vectors(analyzer, "1", "2")
    da = [(photon_cutoff + 1) ** (2 * n) for n in paths]     # H and V of each path
    bell = np.array([bell_vecs[b].reshape(da, order="F") for b in BELL_IDS])
    ids, *terms = np.nonzero(bell)
    c = bell[(ids, *terms)].reshape(len(BELL_IDS), -1)
    states, index = [], []
    for on_side, q in zip(terms, map(np.array, sectors)):
        used, slots = np.unique(on_side, return_inverse=True)
        ns, t = len(used), slots.reshape(c.shape)[:, None, None, :, None]
        u, r, r2 = t.swapaxes(-1, -2), q[:, None, None, None], q[:, None, None]
        block = 1 + ns * ns + (r * ns + t) * (ns * (q.max() + 1)) + r2 * ns + u
        states.append(used)
        index.append(np.concatenate([(1 + t * ns + u).reshape(len(c), 1, -1),
                                     block.reshape(len(c), len(q) ** 2, -1)], axis=1))
    coefficients = (c.conj()[:, :, None] * c[:, None, :]).reshape(len(c), 1, -1)
    for array in (*states, *index, coefficients):
        array.setflags(write=False)
    return tuple(states), tuple(index), coefficients


class _Circuit:
    """A plan split at the Bell analyzer, each side built or taken from `_sides`.

    The elements never act across the two sides (`plans.sides`), so the
    joint state of a component pair is the product of the two sides'
    outputs, and every herald quantity (`join`) is a sum, over pairs (t, u)
    of a Bell vector's terms c_t |a_t>|b_t>, of conj(c_t) c_u times one
    entry of each side's factors (`_Side.factors`) weighted by that side's
    own thermal weights (`weights`).  The join is laid out from the side
    specs before any side is asked for.  Nothing in it depends on the
    occupation, so a report is the sweep over the one-point grid.
    """

    def __init__(self, plan: CircuitPlan):
        self.plan = plan
        s = plan.settings
        magnons = plan.magnon_decls()
        need = plans.PROTOCOL_MAGNONS[s.protocol]
        if len(magnons) != need:
            raise ProtocolError(f"{s.protocol} expects {need} magnon modes, "
                                f"found {len(magnons)}")
        specs = plans.sides(plan)
        self.levels = s.thermal_cutoff + 2          # Fock levels of each magnon
        self.sector = plans.dual_rail_sector(need)
        # each sector state's position among each side's sector occupations
        own = [[magnons.index(d) for d in spec.magnons] for spec in specs]
        self.positions = tuple(tuple(spec.sector.index(tuple(state[m] for m in o))
                                     for state in self.sector) for spec, o in zip(specs, own))
        self.states, self.index, self.coefficients = _join_layout(
            s.photon_cutoff, tuple(len(spec.measured) for spec in specs), self.positions)
        self.sides = tuple(_sides.side(spec, s, st) for spec, st in zip(specs, self.states))
        self.overlap = _overlaps(s)

    def weights(self, grid) -> list[np.ndarray]:
        """Each side's component weights at the shared occupations `grid`,
        (points, n1) and (points, n2)."""
        return [plans.component_weight(self.plan.settings, grid, side.magnons)
                for side in self.sides]

    def join(self, w1: np.ndarray, w2: np.ndarray) -> tuple:
        """The herald at side weights w1 and w2 over a grid of points: per
        Bell id, its (probability, raw fidelity, corrected fidelity) at each
        point; each herald's mass, (points, ids); and its dual-rail sector
        block, (points, ids, S, S), whose overlap t^H block t with a target t
        is that fidelity's numerator.  Every sum runs over one point's own
        terms in a fixed order (the weighting sums the components in turn),
        so a point's results do not depend on the other points, to the last
        bit."""
        x, y = (np.einsum("pk,kf->pf", w, f.view(float)).view(complex)
                for w, f in zip((w1, w2), (side.factors for side in self.sides)))
        (ix, iy), c = self.index, self.coefficients
        q = 0.0
        for tu in range(ix.shape[-1]):      # added elementwise, one pair at a time
            term = x[:, ix[..., tu]]
            term *= y[:, iy[..., tu]]
            term *= c[..., tu]
            q = q + term
        norm, masses, blocks = x[:, 0].real * y[:, 0].real, q[:, :, 0].real, q[:, :, 1:]
        if np.any(norm <= 0.0):
            raise ProtocolError("plan produced a zero-mass ensemble")
        reach = masses > constants.UNREACHABLE_PROBABILITY
        safe = np.where(reach, masses, 1.0)
        raw, corrected = (np.where(reach, (blocks * o).sum(axis=-1).real / safe, 0.0)
                          for o in self.overlap)
        heralds = list(zip((masses / norm[:, None]).T, raw.T, corrected.T))
        states = len(self.sector)
        return heralds, masses, blocks.reshape(len(q), len(BELL_IDS), states, states)

    def row_grams(self, w1: np.ndarray, w2: np.ndarray) -> list[np.ndarray]:
        """Each side's `_Side.row_grams` at one point's side weights w1 and
        w2, shared by its heralds; refused with the populations they give
        above MAX_ARRAY_ENTRIES before any is formed."""
        d = self.levels ** len(self.plan.magnon_decls())
        _check_entries(d + sum(side.dm * len(st) ** 2
                               for side, st in zip(self.sides, self.states)),
                       f"the populations of a herald over {d} magnon levels need")
        return [side.row_grams(w) for side, w in zip(self.sides, (w1, w2))]

    def populations(self, k: int, grams: list[np.ndarray]) -> np.ndarray:
        """Unnormalized populations of the herald `BELL_IDS[k]` over the
        occupations of the plan's magnons, indexed in declaration order:
        sum_tu conj(c_t) c_u Px[m1][a_t, a_u] Py[m2][b_t, b_u] over the
        `row_grams` Px and Py."""
        (px, py), (ix, iy) = grams, (i[k, 0] - 1 for i in self.index)
        pops = 0.0
        for i, j, c in zip(ix, iy, self.coefficients[k, 0]):
            pops = pops + c * np.multiply.outer(px[:, i], py[:, j])
        order = [m for side in self.sides for m in side.magnons]
        return pops.real.reshape([self.levels] * len(order), order="F").transpose(
            [order.index(d) for d in self.plan.magnon_decls()])


def _check_entries(entries: int, need: str) -> None:
    """Refuse an array of more than MAX_ARRAY_ENTRIES entries before it is
    allocated; `need` says what needs them."""
    if entries > constants.MAX_ARRAY_ENTRIES:
        raise ProtocolError(f"{need} {entries} entries, above the limit "
                            f"{constants.MAX_ARRAY_ENTRIES}")


def _sector_block(block: np.ndarray, mass: float) -> np.ndarray:
    """A herald's magnon block over the dual-rail sector: its joined sector
    block over the herald mass, made Hermitian."""
    block = block / mass
    block += block.conj().T
    block *= 0.5
    return block


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
    circuit = _Circuit(plan)
    weights = circuit.weights([n_bar])
    heralds, (masses,), (blocks,) = circuit.join(*weights)
    included = _included(settings)
    concurrences = [None if settings.protocol != "swap"
                    or mass <= constants.UNREACHABLE_PROBABILITY
                    else _spin_flip_concurrence(_sector_block(block, mass))
                    for block, mass in zip(blocks, masses)]
    # the heralds' populations share one set of row Grams, formed on first read
    row_grams = cache(lambda: circuit.row_grams(*(w[0] for w in weights)))

    def sector(k: int) -> HeraldedSector | None:
        bell_id, mass = BELL_IDS[k], masses[k]
        if mass <= constants.UNREACHABLE_PROBABILITY:
            return None
        pops = circuit.populations(k, row_grams()) / mass
        if not abs(pops.sum() - 1.0) <= constants.TRACE_TOL:
            raise ProtocolError(f"{bell_id.value} populations sum to {pops.sum()!r}")
        paths = tuple(d.path for d in plan.magnon_decls())
        return HeraldedSector(paths, _sector_block(blocks[k], mass), pops)

    outcomes = []
    for k, bell_id in enumerate(BELL_IDS):
        p, f_raw, f_corr = (float(v[0]) for v in heralds[k])
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
    aggregate = float(_aggregate(heralds, included)[0])

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
    decls, steps = _interferometer("A", "B")
    settings = _plan_settings("teleport", cfg, model, n_bar_overrides, include_odd_parity,
                              alpha=complex(q.alpha), beta=complex(q.beta))
    return CircuitPlan(decls + (PhotonDecl("c", "qubit"),), steps, BellMeasure("B", "c"),
                       settings)


def swap_plan(cfg: ThermalConfig,
              model: ScatterModel = ScatterModel.PAPER_UNIFORM,
              n_bar_overrides: dict | None = None,
              include_odd_parity: bool = False) -> CircuitPlan:
    """Dual-interferometer topology: arms (A, B) and (C, D)."""
    (decls1, steps1), (decls2, steps2) = _interferometer("A", "B"), _interferometer("C", "D")
    settings = _plan_settings("swap", cfg, model, n_bar_overrides, include_odd_parity)
    return CircuitPlan(decls1 + decls2, steps1 + steps2, BellMeasure("B", "D"), settings)


@cache
def _interferometer(upper: str, lower: str) -> tuple[tuple, tuple[ElementStep, ...]]:
    """Declarations and steps of one interferometer: the drive photon enters
    arm `upper`, and each arm's photon scatters off that arm's thermal magnon."""
    decls = (
        PhotonDecl(upper, "single_v"),
        PhotonDecl(lower),
        MagnonDecl(upper, "thermal"),
        MagnonDecl(lower, "thermal"),
    )
    steps = (
        ElementStep("bs50", (ModeRef("photon", upper, "V"),
                             ModeRef("photon", lower, "V"))),
        ElementStep("stokes", (ModeRef("photon", upper, "V"),
                               ModeRef("photon", upper, "H"),
                               ModeRef("magnon", upper))),
        ElementStep("stokes", (ModeRef("photon", lower, "V"),
                               ModeRef("photon", lower, "H"),
                               ModeRef("magnon", lower))),
        ElementStep("hwp", (upper, np.pi / 4)),
        ElementStep("pbs", (upper, lower)),
    )
    return decls, steps


def _plan_settings(protocol: str, cfg: ThermalConfig, model: ScatterModel,
                   n_bar_overrides: dict | None, include_odd_parity: bool,
                   **qubit: complex) -> PlanSettings:
    return PlanSettings(protocol, cfg.n_bar, cfg.cutoff, cfg.renormalize, model,
                        n_bar_overrides=tuple(sorted((n_bar_overrides or {}).items())),
                        include_odd_parity=include_odd_parity, **qubit)


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

class SweepRow(NamedTuple):
    n_bar: float
    simulated: float
    closed_form: float
    abs_diff: float


DEFAULT_SWEEP_QUBIT = InputQubit(complex(1 / np.sqrt(2)), complex(1 / np.sqrt(2)))


def _sweep_plan(protocol: str, cfg: ThermalConfig,
                model: ScatterModel = ScatterModel.PAPER_UNIFORM) -> CircuitPlan:
    """A sweep's circuit (it reads no occupation); a teleport sends DEFAULT_SWEEP_QUBIT."""
    return (teleport_plan(DEFAULT_SWEEP_QUBIT, cfg, model) if protocol == "teleport"
            else swap_plan(cfg, model))


def check_sweep_size(protocol: str, points: int, cutoff: int) -> None:
    """Refuse a sweep that would form too many thermal weights: each side's
    thermal components at every grid point, counted before anything is formed."""
    if protocol not in plans.PROTOCOLS:
        raise ProtocolError(f"unknown sweep protocol {protocol!r}")
    size = points * sum(math.prod(map(len, plans.occupation_ranges(cutoff, side.magnons)))
                        for side in plans.sides(_sweep_plan(protocol, ThermalConfig())))
    if size > constants.MAX_SWEEP_WEIGHTS:
        raise ProtocolError(f"sweep of {points} points needs {size} thermal weights, "
                            f"above the limit {constants.MAX_SWEEP_WEIGHTS}")


def sweep_fidelity(protocol: str, grid, cfg: ThermalConfig | None = None,
                   model: ScatterModel = ScatterModel.PAPER_UNIFORM) -> list[SweepRow]:
    """Heralded fidelity against the closed form over a thermal-occupation grid.

    `grid` is a sequence of occupations, its length checked by
    `check_sweep_size` before anything is formed.  The circuit is propagated
    at most once (its side outputs do not depend on n_bar); each side's
    factors are then weighted and joined over a slice of the grid at a time,
    whose largest array holds at most SWEEP_SLICE entries.
    """
    cfg = cfg or ThermalConfig()
    check_sweep_size(protocol, len(grid), cfg.cutoff)
    grid = [float(g) for g in grid]
    if not all(math.isfinite(g) and g >= 0 for g in grid):
        raise ProtocolError("sweep grid values must be finite and >= 0")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ProtocolError("sweep grid must be monotone nondecreasing")
    plan = _sweep_plan(protocol, cfg, model)
    closed = closed_form_f1 if protocol == "teleport" else closed_form_f2
    circuit = _Circuit(plan)
    included = _included(plan.settings)
    simulated = []
    step = max(1, constants.SWEEP_SLICE // circuit.index[0][..., 0].size)
    for start in range(0, len(grid), step):
        heralds, _, _ = circuit.join(*circuit.weights(grid[start:start + step]))
        simulated += _aggregate(heralds, included).tolist()
    return [SweepRow(g, sim, c, abs(sim - c))
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
