"""Dense reference executor and readout for the equality tests.

`dense_report` is the per-component propagation that `omxsim.protocols`
replaced with its two-sided executor: every joint thermal component of a
plan is pushed through the full joint registry with `fock.apply`, then
projected onto the four Bell vectors.  It allocates amplitude vectors of the
joint dimension (65,536 for a cutoff-2 swap).

`dense_readout` is the retrieval that `protocols.readout` replaced with a
phase per occupation: the magnon state, or each eigenvector of a mixed one,
is pushed through a registry of four photon modes and the two magnons, and
the output port is sliced or traced out.  Both are kept out of the package
and used only to check its results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from omxsim import constants, elements, measurement, plans
from omxsim.fock import (
    DensityMatrix,
    ModeKind,
    ModeRegistry,
    State,
    StateError,
    StateVector,
    apply,
    optical,
    partial_trace,
    tensor,
)
from omxsim.measurement import BELL_IDS, BellId
from omxsim.plans import CircuitPlan
from omxsim.protocols import (
    OutcomeReport,
    ProtocolError,
    ProtocolReport,
    ReadoutResult,
    _config_echo,
    _magnon_targets,
    _targets_for,
    closed_form_f1,
    closed_form_f2,
    concurrence_dual_rail,
    full_thermal_f1,
    full_thermal_f2,
)


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
            build_post_state=lambda post=post: post,
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


def dense_report(plan: CircuitPlan) -> ProtocolReport:
    """The plan's report by dense joint propagation (post-states included)."""
    return _report_from(_Propagator(plan), plan.settings.n_bar, want_post_states=True)


# Eigen-components of a mixed readout input with weight below this are
# rounding dust of the eigendecomposition and are not propagated.
_READOUT_EIGENVALUE_FLOOR = 1e-14


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


def dense_readout(state: State, apply_correction: bool = False) -> ReadoutResult:
    """`protocols.readout` by propagation through the six-mode registry."""
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
    reg = tensor(photon_vac, StateVector.vacuum(in_reg)).registry
    mag_u, mag_l = reg.magnon_index(upper), reg.magnon_index(lower)

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
        drop = [i for i in range(len(reg)) if i not in port]
        out_state: State = _project_vacuum(run_pure(state), drop)
    else:
        vals, vecs = np.linalg.eigh(state.matrix)
        port_dim = (c + 1) ** 2
        acc = np.zeros((port_dim, port_dim), dtype=complex)
        for val, vec in zip(vals, vecs.T):
            if val < _READOUT_EIGENVALUE_FLOOR:
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
