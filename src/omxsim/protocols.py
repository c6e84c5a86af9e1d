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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import constants, elements, measurement, plans
from .elements import ScatterModel
from .fock import (
    DensityMatrix,
    ModeKind,
    ModeRegistry,
    OmxError,
    State,
    StateError,
    StateVector,
    apply,
    fidelity,
    optical,
    partial_trace,
    tensor,
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
        nrm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(nrm - 1.0) > constants.NORM_TOL:
            raise ProtocolError(f"input qubit norm^2 = {nrm} deviates from 1")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "InputQubit":
        """Bloch-sphere angles: alpha = cos(theta/2), beta = e^{i phi} sin(theta/2)."""
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
    outcome: BellId
    probability: float
    fidelity_raw: float
    fidelity_corrected: float
    included_in_aggregate: bool
    requires_number_resolution: bool
    concurrence: float | None = None
    post_state: DensityMatrix | None = None

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


@dataclass
class _ComponentRecord:
    """Post-circuit conditionals of one thermal component (n_bar independent)."""

    total: float                               # squared norm after the circuit
    mass: dict                                 # bell -> squared conditional norm
    f_raw: dict                                # bell -> <t_raw| rho_c |t_raw>
    f_corr: dict                               # bell -> <t_corr| rho_c |t_corr>
    cond: dict                                 # bell -> pruned (magnon x rest) block


class _Propagator:
    """Runs a plan's circuit on thermal components, lazily and cached.

    The post-circuit conditional amplitudes do not depend on n_bar (only the
    mixture weights do), so one propagation serves any number of sweep
    points over the same plan shape.
    """

    def __init__(self, plan: CircuitPlan):
        self.plan = plan
        self.registry = plans.build_registry(plan)
        self.ops = plans.build_elements(plan, self.registry)
        self.bell_targets, self.bell_vecs = measurement.bell_state_vectors(
            self.registry, plan.measure.path1, plan.measure.path2)
        self.mag_idx = _magnon_targets(plan, self.registry)
        if set(self.mag_idx) & set(self.bell_targets):
            raise ProtocolError("measured modes must be photonic")
        self.reduced = self.registry.reduced(self.mag_idx)
        self.targets = _targets_for(plan, self.reduced)
        self.rest = [i for i in range(len(self.registry))
                     if i not in self.bell_targets]
        self.rest_dims = [self.registry.dims[i] for i in self.rest]
        self.mag_pos = [self.rest.index(i) for i in self.mag_idx]
        self.components = list(plans.iter_components(plan))
        self._cache: dict[tuple, _ComponentRecord] = {}

    def record(self, occs: tuple) -> _ComponentRecord:
        cached = self._cache.get(occs)
        if cached is not None:
            return cached
        dims = self.registry.dims
        n_targets = len(self.bell_targets)
        dt = int(np.prod([dims[t] for t in self.bell_targets]))
        dm = self.reduced.dimension
        state = StateVector(self.registry,
                            plans.initial_vector(self.plan, self.registry, occs),
                            normalized=False)
        for op in self.ops:
            state = apply(op, state)
        amps = state.amplitudes
        total = float(np.vdot(amps, amps).real)
        tens = np.moveaxis(amps.reshape(dims, order="F"),
                           self.bell_targets, range(n_targets))
        rows = tens.reshape(dt, -1, order="F")
        rec = _ComponentRecord(total, {}, {}, {}, {})
        for bell_id in BELL_IDS:
            cond = self.bell_vecs[bell_id].conj() @ rows
            cond_t = np.moveaxis(cond.reshape(self.rest_dims, order="F"),
                                 self.mag_pos, range(len(self.mag_pos)))
            m = cond_t.reshape(dm, -1, order="F")
            t_raw, t_corr = self.targets[bell_id]
            rec.mass[bell_id] = float(np.vdot(m, m).real)
            rec.f_raw[bell_id] = float(np.vdot(t_raw.conj() @ m, t_raw.conj() @ m).real)
            rec.f_corr[bell_id] = float(np.vdot(t_corr.conj() @ m, t_corr.conj() @ m).real)
            # keep only the populated conditional columns (dump ports are vacuum)
            nonzero = np.flatnonzero(np.einsum("ij,ij->j", m.conj(), m).real > 0.0)
            rec.cond[bell_id] = m[:, nonzero]
        self._cache[occs] = rec
        return rec

    def weights(self, n_bar: float) -> np.ndarray:
        return np.array([plans.component_weight(self.plan, occs, n_bar)
                         for occs in self.components])


def execute_plan(plan: CircuitPlan) -> ProtocolReport:
    """Run a plan exactly (no sampling) and assemble its report."""
    prop = _Propagator(plan)
    return _report_from(prop, plan.settings.n_bar, want_post_states=True)


def _report_from(prop: _Propagator, n_bar: float,
                 want_post_states: bool = False) -> ProtocolReport:
    plan = prop.plan
    settings = plan.settings
    weights = prop.weights(n_bar)

    masses = {b: 0.0 for b in BELL_IDS}
    raw_num = {b: 0.0 for b in BELL_IDS}
    corr_num = {b: 0.0 for b in BELL_IDS}
    cols = {b: [] for b in BELL_IDS} if want_post_states else None
    total_mass = 0.0
    for w, occs in zip(weights, prop.components):
        if w == 0.0:
            continue
        rec = prop.record(occs)
        total_mass += w * rec.total
        for bell_id in BELL_IDS:
            masses[bell_id] += w * rec.mass[bell_id]
            raw_num[bell_id] += w * rec.f_raw[bell_id]
            corr_num[bell_id] += w * rec.f_corr[bell_id]
            if cols is not None and rec.cond[bell_id].size:
                cols[bell_id].append(np.sqrt(w) * rec.cond[bell_id])
    if total_mass <= 0.0:
        raise ProtocolError("plan produced a zero-mass ensemble")

    outcomes = []
    for bell_id in BELL_IDS:
        p = masses[bell_id] / total_mass
        if masses[bell_id] > constants.UNREACHABLE_PROBABILITY:
            f_raw = raw_num[bell_id] / masses[bell_id]
            f_corr = corr_num[bell_id] / masses[bell_id]
        else:
            f_raw = f_corr = 0.0
        post = None
        if cols is not None and cols[bell_id] and \
                masses[bell_id] > constants.UNREACHABLE_PROBABILITY:
            c = np.concatenate(cols[bell_id], axis=1)
            block = (c @ c.conj().T) / masses[bell_id]
            block = 0.5 * (block + block.conj().T)
            post = DensityMatrix(prop.reduced, block)
        even = bell_id in (BellId.PHI_PLUS, BellId.PHI_MINUS)
        conc = None
        if settings.protocol == "swap" and post is not None:
            conc = concurrence_dual_rail(post)
        outcomes.append(OutcomeReport(
            outcome=bell_id,
            probability=p,
            fidelity_raw=f_raw,
            fidelity_corrected=f_corr,
            included_in_aggregate=even or settings.include_odd_parity,
            requires_number_resolution=not even,
            concurrence=conc,
            post_state=post,
        ))

    no_herald = max(0.0, 1.0 - sum(o.probability for o in outcomes))
    inc_mass = sum(o.probability for o in outcomes if o.included_in_aggregate)
    aggregate = (sum(o.probability * o.fidelity_corrected
                     for o in outcomes if o.included_in_aggregate) / inc_mass
                 if inc_mass > 0 else 0.0)

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

def _project_vacuum(state: StateVector, drop: list[int]) -> StateVector:
    """Slice away modes that are exactly in vacuum (post-selected ports)."""
    registry = state.registry
    keep = [i for i in range(len(registry)) if i not in drop]
    tens = np.moveaxis(state.amplitudes.reshape(registry.dims, order="F"),
                       drop, range(len(drop)))
    rows = tens.reshape(int(np.prod([registry.dims[i] for i in drop])), -1, order="F")
    residue = float(np.sum(np.abs(rows[1:]) ** 2))
    if residue > constants.UNREACHABLE_PROBABILITY:
        raise StateError(f"dropped modes carry weight {residue:.3e}, not vacuum")
    return StateVector(registry.reduced(keep), rows[0], normalized=state.normalized)


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
    before the swap, completing the even-parity minus herald.
    """
    in_reg = state.registry
    if len(in_reg) != 2 or any(m.kind is not ModeKind.MAGNON for m in in_reg.modes):
        raise ProtocolError("readout expects a state over exactly two magnon modes")
    upper, lower = in_reg.modes[0].path, in_reg.modes[1].path
    c = max(in_reg.cutoffs)
    registry = ModeRegistry(
        [optical(upper, "H"), optical(upper, "V"),
         optical(lower, "H"), optical(lower, "V")],
        [c, c, c, c])
    photon_vac = StateVector.vacuum(registry)
    probe = tensor(photon_vac, StateVector.vacuum(in_reg))
    reg = probe.registry
    mag_u, mag_l = reg.magnon_index(upper), reg.magnon_index(lower)

    # weight diagnostics on the input
    diag = (np.abs(state.amplitudes) ** 2 if isinstance(state, StateVector)
            else np.abs(np.diag(state.matrix)))
    qubit_w = 0.0
    beyond = 0.0
    for idx, w in enumerate(diag):
        occ = in_reg.occupation_of(idx)
        if occ in ((0, 1), (1, 0)):
            qubit_w += float(w)
        if max(occ) >= 2:
            beyond += float(w)

    ops = []
    if apply_correction:
        ops.append(elements.phase_shift(reg, mag_u, np.pi))
    ops.append(elements.antistokes_swap(reg, reg.optical_index(upper, "V"), mag_u))
    ops.append(elements.antistokes_swap(reg, reg.optical_index(lower, "V"), mag_l))
    ops.append(elements.half_wave_plate(reg, upper, np.pi / 4))
    ops.append(elements.pbs(reg, upper, lower))
    port = [reg.optical_index(upper, "H"), reg.optical_index(upper, "V")]

    def run_pure(vec: StateVector) -> StateVector:
        out = tensor(photon_vac, vec)
        for op in ops:
            out = apply(op, out)
        return out

    if isinstance(state, StateVector):
        joint = run_pure(state)
        drop = [i for i in range(len(reg)) if i not in port]
        out_state: State = _project_vacuum(joint, drop)
    else:
        # mixed input: propagate eigenvectors, recombine the tiny port blocks
        vals, vecs = np.linalg.eigh(state.matrix)
        port_dim = (c + 1) ** 2
        acc = np.zeros((port_dim, port_dim), dtype=complex)
        for val, vec in zip(vals, vecs.T):
            if val < constants.READOUT_EIGENVALUE_FLOOR:
                continue
            pure = StateVector(in_reg, vec, normalized=False)
            acc += val * partial_trace(run_pure(pure), port).matrix
        out_state = DensityMatrix(registry.reduced([0, 1]), 0.5 * (acc + acc.conj().T),
                                  normalized=state.normalized)
    return ReadoutResult(
        state=out_state,
        upper_rail=optical(upper, "H"),
        lower_rail=optical(upper, "V"),
        qubit_sector_weight=qubit_w,
        partial_readout=beyond > constants.PARTIAL_READOUT_TOL,
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


def sweep_fidelity(protocol: str, grid, cfg: ThermalConfig | None = None,
                   model: ScatterModel = ScatterModel.PAPER_UNIFORM,
                   qubit: InputQubit | None = None) -> list[SweepRow]:
    """Heralded fidelity against the closed form over a thermal-occupation grid.

    The circuit is propagated once (conditional amplitudes are independent of
    n_bar); each grid point only reweights the thermal mixture.
    """
    cfg = cfg or ThermalConfig()
    qubit = qubit or DEFAULT_SWEEP_QUBIT
    grid = [float(g) for g in grid]
    if not all(math.isfinite(g) and g >= 0 for g in grid):
        raise ProtocolError("sweep grid values must be finite and >= 0")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ProtocolError("sweep grid must be monotone nondecreasing")
    if protocol == "teleport":
        plan = teleport_plan(qubit, ThermalConfig(0.0, cfg.cutoff, cfg.renormalize), model)
        closed = closed_form_f1
    elif protocol == "swap":
        plan = swap_plan(ThermalConfig(0.0, cfg.cutoff, cfg.renormalize), model)
        closed = closed_form_f2
    else:
        raise ProtocolError(f"unknown sweep protocol {protocol!r}")
    prop = _Propagator(plan)
    for occs in prop.components:
        prop.record(occs)

    def point(n_bar: float) -> SweepRow:
        report = _report_from(prop, n_bar)
        sim = report.aggregate_fidelity
        cf = closed(n_bar)
        return SweepRow(n_bar, sim, cf, abs(sim - cf))

    return [point(g) for g in grid]


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
