"""Dense reference executor for the equality tests.

This is the per-component propagation that `omxsim.protocols` replaced with
its two-sided executor: every joint thermal component of a plan is pushed
through the full joint registry with `fock.apply`, then projected onto the
four Bell vectors.  It allocates amplitude vectors of the joint dimension
(65,536 for a cutoff-2 swap), so it is kept out of the package and used only
to check the factorized reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from omxsim import constants, measurement, plans
from omxsim.fock import DensityMatrix, StateVector, apply
from omxsim.measurement import BELL_IDS, BellId
from omxsim.plans import CircuitPlan
from omxsim.protocols import (
    OutcomeReport,
    ProtocolError,
    ProtocolReport,
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
