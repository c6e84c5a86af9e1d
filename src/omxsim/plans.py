"""Executable simulation plans: declarations, registries, element wiring.

A CircuitPlan is the common executable form behind both the built-in
protocol runners and circuits compiled from `.omx` text.  `sides` resolves
a plan, once per (declarations, steps, measurement), into the Bell
analyzer's two sides, each a small immutable `Side` value that the
executor, the sweep-size check and the `.omx` compiler's side-limit check
all read.  A registry lays out the declarations it is built from in their
given order (photon paths contribute an H then a V mode), so a side
determines its basis layout completely and runs are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import constants, elements
from .elements import ScatterModel
from .fock import (
    Batch,
    ElementOp,
    ModeLabel,
    ModeRegistry,
    OmxError,
    magnon,
    optical,
)


class PlanError(OmxError):
    """Structurally invalid simulation plan."""


# protocol -> magnon modes of its plan: one dual-rail pair per interferometer
PROTOCOL_MAGNONS = {"teleport": 2, "swap": 4}
PROTOCOLS = tuple(PROTOCOL_MAGNONS)
PHOTON_INITS = ("vacuum", "single_h", "single_v", "qubit")
MAGNON_INITS = ("ground", "thermal")

# The element catalogue: name -> (constructor in `elements`, argument kinds,
# PlanSettings fields passed by keyword).  The `.omx` parser checks a step's
# arguments against the kinds; `sides` resolves them for `build_elements`.
ELEMENTS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "bs50": ("beam_splitter_50_50", ("mode", "mode"), ()),
    "hwp": ("half_wave_plate", ("path", "angle"), ()),
    "qwp": ("quarter_wave_plate", ("path", "angle"), ()),
    "pbs": ("pbs", ("path", "path"), ()),
    "phase": ("phase_shift", ("mode", "angle"), ()),
    "stokes": ("stokes_scatter", ("mode", "mode", "mode"), ("model",)),
    "antistokes": ("antistokes_swap", ("mode", "mode"), ()),
    "pdc": ("pdc_evolution", ("mode", "mode", "number"), ()),
}


@dataclass(frozen=True)
class PhotonDecl:
    path: str
    init: str = "vacuum"

    def __post_init__(self):
        if self.init not in PHOTON_INITS:
            raise PlanError(f"unknown photon init {self.init!r}")


@dataclass(frozen=True)
class MagnonDecl:
    path: str
    init: str = "ground"

    def __post_init__(self):
        if self.init not in MAGNON_INITS:
            raise PlanError(f"unknown magnon init {self.init!r}")


@dataclass(frozen=True)
class ModeRef:
    """Symbolic reference to a declared mode (photon needs a polarization)."""

    kind: str           # "photon" | "magnon"
    path: str
    pol: str | None = None


@dataclass(frozen=True)
class ElementStep:
    name: str
    args: tuple


@dataclass(frozen=True)
class BellMeasure:
    path1: str
    path2: str


def qubit_norm_sq(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2 of an input qubit.

    Products, not ** 2: a huge amplitude overflows to inf, which fails the
    norm check, instead of raising OverflowError.
    """
    a, b = abs(complex(alpha)), abs(complex(beta))
    return a * a + b * b


@dataclass(frozen=True)
class PlanSettings:
    protocol: str = "teleport"          # teleport | swap
    n_bar: float = 0.0
    thermal_cutoff: int = constants.DEFAULT_THERMAL_CUTOFF
    renormalize: bool = True
    model: ScatterModel = ScatterModel.PAPER_UNIFORM
    alpha: complex = 1.0 + 0.0j
    beta: complex = 0.0 + 0.0j
    photon_cutoff: int = constants.DEFAULT_OPTICAL_CUTOFF
    # extension flags: per-magnon thermal occupations (sphere frequencies not
    # identical), and counting the odd-parity heralds in the aggregate despite
    # their number-resolution requirement
    n_bar_overrides: tuple = ()
    include_odd_parity: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise PlanError(f"unknown protocol {self.protocol!r}")
        if not math.isfinite(self.n_bar):
            raise PlanError(f"thermal occupation must be finite, got {self.n_bar}")
        if self.n_bar < 0:
            raise PlanError("thermal occupation must be >= 0")
        if self.thermal_cutoff < 1:
            raise PlanError("thermal cutoff must be >= 1")
        if self.photon_cutoff < 1:
            raise PlanError("photon cutoff must be >= 1")
        for name in ("alpha", "beta"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise PlanError(f"qubit amplitude {name} must be finite, got {value}")
        if self.protocol == "teleport":
            nrm = qubit_norm_sq(self.alpha, self.beta)
            if not abs(nrm - 1.0) <= constants.NORM_TOL:
                raise PlanError(f"input qubit norm^2 = {nrm} deviates from 1")
        for path, value in self.n_bar_overrides:
            if not math.isfinite(value):
                raise PlanError(f"override for {path!r} must be finite, got {value}")
            if value < 0:
                raise PlanError(f"override for {path!r} must be >= 0")

    def n_bar_for(self, path: str, shared: float | np.ndarray) -> float | np.ndarray:
        """Occupation of the magnon on `path`: its override, else `shared`."""
        for p, value in self.n_bar_overrides:
            if p == path:
                return value
        return shared


@dataclass(frozen=True)
class CircuitPlan:
    decls: tuple
    steps: tuple[ElementStep, ...]
    measure: BellMeasure
    settings: PlanSettings

    def photon_decls(self) -> list[PhotonDecl]:
        return [d for d in self.decls if isinstance(d, PhotonDecl)]

    def magnon_decls(self) -> list[MagnonDecl]:
        return [d for d in self.decls if isinstance(d, MagnonDecl)]


def thermal_weights(n_bar: float | np.ndarray, cutoff: int,
                    renormalize: bool) -> np.ndarray:
    """Geometric weights (1-s) s^n, n <= cutoff, of a truncated thermal state.

    `n_bar` may be an array of occupations; the result then has one row per
    occupation, each equal bit for bit to the row of that scalar occupation.
    """
    n_bar = np.asarray(n_bar, dtype=float)[..., None]
    s = n_bar / (n_bar + 1.0)
    weights = (1.0 - s) * s ** np.arange(cutoff + 1)
    if renormalize:
        total = weights.sum(axis=-1, keepdims=True)
        # where s rounds to 1 (n_bar beyond ~1e16) every weight is 0; the
        # renormalized weights s^n / sum_k s^k then take their limit
        empty = total == 0.0
        weights = np.where(empty, 1.0 / (cutoff + 1),
                           weights / np.where(empty, 1.0, total))
    return weights


def build_registry(settings: PlanSettings, decls: Sequence) -> ModeRegistry:
    """Registry over `decls`, in their order; magnon cutoffs keep scattering
    headroom."""
    modes: list[ModeLabel] = []
    cutoffs: list[int] = []
    for decl in decls:
        if isinstance(decl, PhotonDecl):
            modes += [optical(decl.path, "H"), optical(decl.path, "V")]
            cutoffs += [settings.photon_cutoff, settings.photon_cutoff]
        else:
            modes.append(magnon(decl.path))
            cutoffs.append(settings.thermal_cutoff + 1)
    return ModeRegistry(modes, cutoffs)


def build_elements(settings: PlanSettings, registry: ModeRegistry,
                   steps: Sequence[tuple]) -> list[ElementOp]:
    """Instantiate a side's resolved `steps` (`Side.elements`) on its
    registry, in order.

    Constructors are looked up on `elements` at call time, so a wrapper
    installed on that module's attribute is the one called.
    """
    return [getattr(elements, constructor)(
                registry, *args, **{key: getattr(settings, key) for key in keywords})
            for constructor, args, keywords in steps]


def dual_rail_sector(n: int) -> list[tuple[int, ...]]:
    """The dual-rail sector of n magnons in declaration order, one excitation
    per pair: state q1 + 2 q2 holds (q1, 1 - q1, q2, 1 - q2), where qubit
    value 0 excites the lower rail (a pair of magnons has q1 only)."""
    return [(q1, 1 - q1, q2, 1 - q2)[:n] for q2 in range(n // 2) for q1 in (0, 1)]


class Side(NamedTuple):
    """One side of the Bell analyzer, as `sides` resolves it.

    `decls` are in registry order: the analyzer paths in Bell-vector order,
    then the magnons, then the rest, each in plan order.  `measured` holds
    the Bell-vector positions (0 and 1) of the analyzer paths on the side.
    `sector` holds the side's distinct magnon occupations over the
    `dual_rail_sector` states, in magnon-row order (little-endian over its
    magnons).  Each of `elements` is (constructor name on `elements`,
    arguments with each mode resolved to its registry position, the
    PlanSettings fields it takes).
    """

    decls: tuple
    measured: tuple[int, ...]
    sector: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[str, tuple, tuple[str, ...]], ...]

    @property
    def magnons(self) -> tuple[MagnonDecl, ...]:
        return tuple(d for d in self.decls if isinstance(d, MagnonDecl))


def sides(plan: CircuitPlan) -> tuple[Side, Side]:
    """The Bell analyzer's two sides of `plan`, side 1 then side 2.

    The declarations an element acts on join one group; a photon path is
    one declaration, as an element on one of its modes acts on the path,
    whose H and V modes a qubit init entangles.  Side 2 is the group
    holding the analyzer's second path, unless the elements join it to the
    first path's group; side 1 is everything else.  A circuit that couples
    everything runs as side 1 alone, with an empty side 2.  Resolved once
    per (declarations, steps, measurement), which no setting changes.
    """
    return _resolve(plan.decls, plan.steps, plan.measure)


@functools.lru_cache(maxsize=64)
def _resolve(decls: tuple, steps: tuple, measure: BellMeasure) -> tuple[Side, Side]:
    index = {("photon" if isinstance(d, PhotonDecl) else "magnon", d.path): k
             for k, d in enumerate(decls)}

    def position(kind: str, path: str) -> int:
        if (kind, path) not in index:
            raise PlanError(f"undeclared {kind} {path!r}")
        return index[kind, path]

    acted = []          # each step's catalogue entry and the declarations it acts on
    for step in steps:
        if step.name not in ELEMENTS:
            raise PlanError(f"unknown element {step.name!r}")
        entry = ELEMENTS[step.name]
        if len(step.args) != len(entry[1]):
            raise PlanError(f"element {step.name!r} takes {len(entry[1])} arguments, "
                            f"got {len(step.args)}")
        acted.append((entry, [position(arg.kind, arg.path) if kind == "mode"
                              else position("photon", arg)
                              for kind, arg in zip(entry[1], step.args)
                              if kind in ("mode", "path")]))
    group = list(range(len(decls)))
    for _, acts_on in acted:
        joined = {group[k] for k in acts_on}
        group = [min(joined) if g in joined else g for g in group]
    paths = (measure.path1, measure.path2)
    ends = [position("photon", path) for path in paths]
    side_of = [int(group[ends[1]] != group[ends[0]] and g == group[ends[1]]) for g in group]
    magnons = [d for d in decls if isinstance(d, MagnonDecl)]
    out = []
    for side in (0, 1):
        own = sorted((d for d, s in zip(decls, side_of) if s == side),
                     key=lambda d: 2 if isinstance(d, MagnonDecl)
                     else paths.index(d.path) if d.path in paths else 3)
        # the side's modes in the order `build_registry` lays them out
        modes = [ref for d in own for ref in (
            [ModeRef("magnon", d.path)] if isinstance(d, MagnonDecl)
            else [ModeRef("photon", d.path, "H"), ModeRef("photon", d.path, "V")])]
        sector = {tuple(state[magnons.index(d)] for d in own if isinstance(d, MagnonDecl))
                  for state in dual_rail_sector(len(magnons))}
        out.append(Side(
            tuple(own), tuple(i for i, k in enumerate(ends) if side_of[k] == side),
            tuple(sorted(sector, key=lambda occupations: occupations[::-1])),
            tuple((constructor, tuple(modes.index(arg) if kind == "mode" else
                                      arg if kind == "path" else float(arg)
                                      for kind, arg in zip(kinds, step.args)), keywords)
                  for step, ((constructor, kinds, keywords), acts_on) in zip(steps, acted)
                  if side_of[acts_on[0]] == side)))
    return tuple(out)


def occupation_ranges(cutoff: int, magnons: Sequence[MagnonDecl]) -> list[range]:
    """The thermal occupations, up to `cutoff`, of each of `magnons`, a
    ground magnon's pinned to 0."""
    return [range(cutoff + 1 if d.init == "thermal" else 1) for d in magnons]


def iter_components(cutoff: int, magnons: Sequence[MagnonDecl]) -> Iterator[tuple[int, ...]]:
    """All joint thermal occupations of `magnons`, one per magnon in their
    order, over their `occupation_ranges`; the set depends only on the
    thermal cutoff, not on n_bar."""
    yield from itertools.product(*occupation_ranges(cutoff, magnons))


def component_weight(settings: PlanSettings, n_bars: Sequence[float],
                     magnons: Sequence[MagnonDecl]) -> np.ndarray:
    """Thermal weights of the components of `magnons` at each shared
    occupation of `n_bars`, as a (points, components) matrix whose columns
    follow `iter_components`.

    Each thermal magnon's `thermal_weights` row (its override's, if it has
    one) multiplies onto the running product in declaration order; a ground
    magnon contributes weight 1 at n = 0.
    """
    n_bars = np.asarray(n_bars, dtype=float)
    w = np.ones((len(n_bars), 1))
    for decl in magnons:
        if decl.init == "thermal":
            row = thermal_weights(settings.n_bar_for(decl.path, n_bars),
                                  settings.thermal_cutoff, settings.renormalize)
            w = (w[:, :, None] * row[..., None, :]).reshape(len(n_bars), -1)
    return w


def initial_vector(settings: PlanSettings, registry: ModeRegistry,
                   components: Sequence[Sequence[int]], decls: Sequence) -> Batch:
    """Initial states of the thermal `components` as one batch, component k
    the state of occupations `components[k]`.

    `decls` are the declarations `registry` holds, in its order; each
    occupation tuple belongs to their magnons.
    """
    occupations = np.array(components, dtype=np.int64).reshape(len(components), -1)
    component = np.arange(len(components))
    index = np.zeros(len(components), dtype=np.int64)
    amplitudes = np.ones(len(components), dtype=complex)
    strides = iter(registry.strides)
    magnon = 0
    for decl in decls:
        if isinstance(decl, MagnonDecl):
            index = index + occupations[component, magnon] * next(strides)
            magnon += 1
            continue
        h, v = next(strides), next(strides)
        local = {"vacuum": {0: 1.0}, "single_h": {h: 1.0}, "single_v": {v: 1.0},
                 "qubit": {h: settings.alpha, v: settings.beta}}[decl.init]
        offsets = np.array([o for o, a in local.items() if a != 0], dtype=np.int64)
        values = np.array([a for a in local.values() if a != 0], dtype=complex)
        component = np.repeat(component, len(offsets))
        index = (index[:, None] + offsets).ravel()
        amplitudes = (amplitudes[:, None] * values).ravel()
    return Batch(registry, component, index, amplitudes)
