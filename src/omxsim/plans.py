"""Executable simulation plans: declarations, registries, element wiring.

A CircuitPlan is the common executable form behind both the built-in
protocol runners and circuits compiled from `.omx` text.  A registry lays
out the declarations it is built from in their given order (photon paths
contribute an H then a V mode), so a plan determines the basis layout
completely and runs are deterministic.  `split_sides` divides a plan into
the Bell analyzer's two sides, which are built and run apart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
# arguments against the kinds; `build_elements` converts and passes them.
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


def build_registry(plan: CircuitPlan, decls: Sequence | None = None) -> ModeRegistry:
    """Registry over `decls` (default all of the plan's), in their order;
    magnon cutoffs keep scattering headroom."""
    modes: list[ModeLabel] = []
    cutoffs: list[int] = []
    s = plan.settings
    for decl in plan.decls if decls is None else decls:
        if isinstance(decl, PhotonDecl):
            modes += [optical(decl.path, "H"), optical(decl.path, "V")]
            cutoffs += [s.photon_cutoff, s.photon_cutoff]
        else:
            modes.append(magnon(decl.path))
            cutoffs.append(s.thermal_cutoff + 1)
    return ModeRegistry(modes, cutoffs)


def _argument(registry: ModeRegistry, kind: str, value):
    if kind == "mode":
        if value.kind == "photon":
            return registry.optical_index(value.path, value.pol)
        return registry.magnon_index(value.path)
    return value if kind == "path" else float(value)


def _signature(step: ElementStep) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The step's catalogue entry, checked against its argument count."""
    if step.name not in ELEMENTS:
        raise PlanError(f"unknown element {step.name!r}")
    entry = ELEMENTS[step.name]
    if len(step.args) != len(entry[1]):
        raise PlanError(f"element {step.name!r} takes {len(entry[1])} arguments, "
                        f"got {len(step.args)}")
    return entry


def build_elements(plan: CircuitPlan, registry: ModeRegistry,
                   steps: Sequence[ElementStep] | None = None) -> list[ElementOp]:
    """Instantiate `steps` (default all of the plan's) against the registry,
    in order.

    Constructors are looked up on `elements` at call time, so a wrapper
    installed on that module's attribute is the one called.
    """
    ops = []
    for step in plan.steps if steps is None else steps:
        constructor, kinds, keywords = _signature(step)
        args = [_argument(registry, k, a) for k, a in zip(kinds, step.args)]
        options = {key: getattr(plan.settings, key) for key in keywords}
        ops.append(getattr(elements, constructor)(registry, *args, **options))
    return ops


def _position(index: dict[tuple[str, str], int], kind: str, path: str) -> int:
    if (kind, path) not in index:
        raise PlanError(f"undeclared {kind} {path!r}")
    return index[kind, path]


def step_decls(step: ElementStep, index: dict[tuple[str, str], int]) -> list[int]:
    """Plan positions of the declarations `step` acts on, in argument order.

    `index` maps each declaration's (kind, path), kind "photon" or "magnon",
    to its position.  A photon path is one declaration: an element on one
    of its modes acts on the path, whose H and V modes a qubit init
    entangles.
    """
    _, kinds, _ = _signature(step)
    return [_position(index, arg.kind, arg.path) if kind == "mode"
            else _position(index, "photon", arg)
            for kind, arg in zip(kinds, step.args) if kind in ("mode", "path")]


def split_sides(plan: CircuitPlan) -> list[tuple[list, list[ElementStep]]]:
    """(declarations, steps) of the Bell analyzer's two sides, in plan order.

    The declarations an element acts on join one group.  Side 2 is the group
    holding the analyzer's second path, unless the elements join it to the
    first path's group; side 1 is everything else.  A circuit that couples
    everything runs as side 1 alone, with an empty side 2.
    """
    index = {("photon" if isinstance(d, PhotonDecl) else "magnon", d.path): k
             for k, d in enumerate(plan.decls)}
    group = list(range(len(plan.decls)))
    acted = [step_decls(step, index) for step in plan.steps]
    for acts_on in acted:
        joined = {group[k] for k in acts_on}
        group = [min(joined) if g in joined else g for g in group]
    g1, g2 = (group[_position(index, "photon", path)]
              for path in (plan.measure.path1, plan.measure.path2))
    side_of = [int(g2 != g1 and g == g2) for g in group]
    return [([d for d, s in zip(plan.decls, side_of) if s == side],
             [st for st, ks in zip(plan.steps, acted) if side_of[ks[0]] == side])
            for side in (0, 1)]


def occupation_ranges(cutoff: int, decls: Sequence) -> list[range]:
    """The thermal occupations, up to `cutoff`, of each magnon among `decls`,
    a ground magnon's pinned to 0."""
    return [range(cutoff + 1 if d.init == "thermal" else 1)
            for d in decls if isinstance(d, MagnonDecl)]


def iter_components(plan: CircuitPlan, magnons: Sequence[MagnonDecl] | None = None
                    ) -> Iterator[tuple[int, ...]]:
    """All joint thermal occupations of `magnons` (default all of the plan's),
    one per magnon in declaration order, over their `occupation_ranges`; the
    set depends only on the thermal cutoff, not on n_bar."""
    yield from itertools.product(*occupation_ranges(
        plan.settings.thermal_cutoff, plan.magnon_decls() if magnons is None else magnons))


def component_weight(plan: CircuitPlan, n_bars: Sequence[float],
                     magnons: Sequence[MagnonDecl] | None = None) -> np.ndarray:
    """Thermal weights of the components of `magnons` (default all of the
    plan's) at each shared occupation of `n_bars`, as a (points, components)
    matrix whose columns follow `iter_components`.

    Each thermal magnon's `thermal_weights` row (its override's, if it has
    one) multiplies onto the running product in declaration order; a ground
    magnon contributes weight 1 at n = 0.
    """
    s = plan.settings
    n_bars = np.asarray(n_bars, dtype=float)
    w = np.ones((len(n_bars), 1))
    for decl in plan.magnon_decls() if magnons is None else magnons:
        if decl.init == "thermal":
            row = thermal_weights(s.n_bar_for(decl.path, n_bars), s.thermal_cutoff,
                                  s.renormalize)
            w = (w[:, :, None] * row[..., None, :]).reshape(len(n_bars), -1)
    return w


def initial_vector(plan: CircuitPlan, registry: ModeRegistry,
                   components: Sequence[Sequence[int]], decls: Sequence | None = None
                   ) -> Batch:
    """Initial states of the thermal `components` as one batch, component k
    the state of occupations `components[k]`.

    `decls` (default all of the plan's) are the declarations `registry`
    holds, in plan order; each occupation tuple belongs to their magnons.
    """
    s = plan.settings
    occupations = np.array(components, dtype=np.int64).reshape(len(components), -1)
    component = np.arange(len(components))
    index = np.zeros(len(components), dtype=np.int64)
    amplitudes = np.ones(len(components), dtype=complex)
    strides = iter(registry.strides)
    magnon = 0
    for decl in plan.decls if decls is None else decls:
        if isinstance(decl, MagnonDecl):
            index = index + occupations[component, magnon] * next(strides)
            magnon += 1
            continue
        h, v = next(strides), next(strides)
        local = {"vacuum": {0: 1.0}, "single_h": {h: 1.0}, "single_v": {v: 1.0},
                 "qubit": {h: s.alpha, v: s.beta}}[decl.init]
        offsets = np.array([o for o, a in local.items() if a != 0], dtype=np.int64)
        values = np.array([a for a in local.values() if a != 0], dtype=complex)
        component = np.repeat(component, len(offsets))
        index = (index[:, None] + offsets).ravel()
        amplitudes = (amplitudes[:, None] * values).ravel()
    return Batch(registry, component, index, amplitudes)
