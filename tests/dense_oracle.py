"""Dense reference executor and readout for the equality tests.

`dense_report` is the per-component propagation that `omxsim.protocols`
replaced with its two-sided batch executor: every joint thermal component
of a plan is built as a dense kron vector (`dense_initial_vector`) and
pushed through the full joint registry with `dense_apply`, a tensordot
contraction of the whole vector, then
projected onto the four Bell vectors and scored against full-length
target vectors over the magnon registry.  It allocates amplitude vectors of
the joint dimension (65,536 for a cutoff-2 swap).

Its outcomes (`DenseOutcome`) carry the full heralded magnon state, a
density matrix over every magnon occupation, which the package never forms:
it reads a herald's dual-rail sector block and populations instead.
`concurrence_dual_rail` scores such a state's sector block.

The oracle builds the joint registry over all of a plan's declarations and
resolves every element against it itself (`joint_elements`), so it shares
no side resolution with the package.  `side_start` builds one side's
registry, thermal components, initial batch and elements from its
`plans.Side` spec, for the checks that compare a side's propagation, or the
herald factors the package keeps in its place, against these dense states.

`dense_readout` is the retrieval that `protocols.readout` replaced with a
phase per sector state: the magnon state, or each eigenvector of a mixed
one, is pushed through a registry of four photon modes and the two magnons,
and the output port is sliced or traced out.  All of them are kept out of
the package and used only to check its results, with `tensor`, the
composition of two states that only these checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from omxsim import constants, elements, measurement, plans
from omxsim.fock import (
    DensityMatrix,
    ElementOp,
    ModeKind,
    ModeRegistry,
    OperatorError,
    OpFlavor,
    State,
    StateError,
    StateVector,
    _require_pure,
    optical,
    partial_trace,
)
from omxsim.measurement import BELL_IDS, BellId
from omxsim.plans import CircuitPlan
from omxsim.protocols import (
    OutcomeReport,
    ProtocolError,
    ProtocolReport,
    _config_echo,
    _spin_flip_concurrence,
    closed_form_f1,
    closed_form_f2,
    full_thermal_f1,
    full_thermal_f2,
)


def dense_initial_vector(plan: CircuitPlan, registry: ModeRegistry, occupations,
                         decls=None) -> np.ndarray:
    """Initial amplitude vector of one thermal component over `decls`
    (default all of the plan's), the kron of each declaration's local
    vector (later declarations vary slower)."""
    s = plan.settings
    full = np.ones(1, dtype=complex)
    mag_iter = iter(occupations)
    for decl in plan.decls if decls is None else decls:
        if isinstance(decl, plans.PhotonDecl):
            d = s.photon_cutoff + 1
            vec = np.zeros(d * d, dtype=complex)   # little-endian (H, V)
            if decl.init == "single_h":
                vec[1] = 1.0
            elif decl.init == "single_v":
                vec[d] = 1.0
            elif decl.init == "qubit":
                vec[1], vec[d] = s.alpha, s.beta
            else:
                vec[0] = 1.0
        else:
            vec = np.zeros(s.thermal_cutoff + 2, dtype=complex)
            vec[next(mag_iter)] = 1.0
        full = np.kron(vec, full)
    assert full.shape == (registry.dimension,)
    return full


def side_start(plan: CircuitPlan, side: plans.Side) -> tuple:
    """The registry over the `side` spec's declarations (in their order), its
    thermal components, their initial batch and its elements, built from
    the `plans` primitives that a side runs; applying the elements to the
    batch in turn gives the side's output."""
    s = plan.settings
    registry = plans.build_registry(s, side.decls)
    components = list(plans.iter_components(s.thermal_cutoff, side.magnons))
    batch = plans.initial_vector(registry, components, side.decls)
    return registry, components, batch, plans.build_elements(s, registry, side.elements)


def joint_elements(plan: CircuitPlan, registry: ModeRegistry) -> list[ElementOp]:
    """The plan's elements, in order, with every mode looked up on the joint
    `registry` over all of its declarations."""
    ops = []
    for step in plan.steps:
        constructor, kinds, keywords = plans.ELEMENTS[step.name]
        args = [(registry.optical_index(arg.path, arg.pol) if arg.kind == "photon"
                 else registry.magnon_index(arg.path)) if kind == "mode"
                else arg if kind == "path" else float(arg)
                for kind, arg in zip(kinds, step.args)]
        options = {key: getattr(plan.settings, key) for key in keywords}
        ops.append(getattr(elements, constructor)(registry, *args, **options))
    return ops


def dense_apply(op: ElementOp, state: StateVector) -> StateVector:
    """`fock.apply` as a contraction of the op's domain-expanded square
    matrix with the whole amplitude tensor, after the same domain check."""
    dims, k = state.registry.dims, len(op.targets)
    tdims = [dims[t] for t in op.targets]
    dt = int(np.prod(tdims))
    square = op.matrix
    psi = state.amplitudes.reshape(dims, order="F")
    if op.domain is not None:
        square = np.zeros((dt, dt), dtype=complex)
        square[:, list(op.domain)] = op.matrix
        rows = np.moveaxis(psi, op.targets, range(k)).reshape(dt, -1, order="F")
        mask = np.ones(dt, dtype=bool)
        mask[list(op.domain)] = False
        bad = float(np.sum(np.abs(rows[mask]) ** 2))
        if bad > constants.UNREACHABLE_PROBABILITY:
            raise OperatorError(
                f"{op.label or 'op'}: state has weight {bad:.3e} outside the "
                "operator domain (occupation would overflow a cutoff)")
    tensor_op = square.reshape(tdims + tdims, order="F")
    out = np.tensordot(tensor_op, psi, axes=(list(range(k, 2 * k)), list(op.targets)))
    out = np.moveaxis(out, list(range(k)), list(op.targets)).reshape(-1, order="F")
    return StateVector(state.registry, out, normalized=state.normalized
                       and op.flavor is not OpFlavor.KRAUS)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor composition over the concatenated registry; the first factor
    varies fastest, so the amplitudes are kron(b, a)."""
    _require_pure(a, "tensor")
    _require_pure(b, "tensor")
    registry = ModeRegistry(a.registry.modes + b.registry.modes,
                            a.registry.cutoffs + b.registry.cutoffs)
    return StateVector(registry, np.kron(b.amplitudes, a.amplitudes),
                       normalized=a.normalized and b.normalized)


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
    """(raw, corrected) fidelity target vectors per Bell herald, over the
    full magnon registry `reduced`.

    Teleport targets the transferred qubit alpha |lower> + beta |upper>; the
    even-parity minus herald is corrected by a pi phase on the upper arm.
    Swap targets the matching dual-rail Bell state; the same phase correction
    maps the minus heralds onto their plus partners.
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
class DenseOutcome(OutcomeReport):
    """An outcome of `dense_report`, with its heralded magnon state over the
    magnon registry in declaration order (None where unreachable)."""

    post_state: DensityMatrix | None = None


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
    block = sector_block(rho)
    if renormalize:
        tr = block.trace().real
        if tr < constants.UNREACHABLE_PROBABILITY:
            raise ProtocolError("no weight in the dual-rail sector")
        block = block / tr
    return _spin_flip_concurrence(block)


def sector_block(rho: DensityMatrix) -> np.ndarray:
    """A magnon state's block on the dual-rail sector, in
    `plans.dual_rail_sector` order."""
    reg = rho.registry
    idx = [reg.index_of_occupation(occ) for occ in plans.dual_rail_sector(len(reg))]
    return rho.matrix[np.ix_(idx, idx)]


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
        self.registry = plans.build_registry(plan.settings, plan.decls)
        self.ops = joint_elements(plan, self.registry)
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
        self.components = list(plans.iter_components(plan.settings.thermal_cutoff,
                                                     plan.magnon_decls()))
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
                            dense_initial_vector(self.plan, self.registry, occs),
                            normalized=False)
        for op in self.ops:
            state = dense_apply(op, state)
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
        """Per-component weights, each the scalar product of its magnons'
        `thermal_weights` entries, formed here rather than by the executor."""
        s = self.plan.settings
        out = []
        for occs in self.components:
            w = 1.0
            for decl, n in zip(self.plan.magnon_decls(), occs):
                if decl.init == "thermal":
                    w *= plans.thermal_weights(s.n_bar_for(decl.path, n_bar),
                                               s.thermal_cutoff, s.renormalize)[n]
            out.append(w)
        return np.array(out)


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
        outcomes.append(DenseOutcome(
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


@dataclass
class DenseReadout:
    """`dense_readout`'s retrieved photon: `state` lives on the output port's
    (H, V) modes, with the magnon state's normalization."""

    state: State
    qubit_sector_weight: float
    partial_readout: bool


def dense_readout(state: State, apply_correction: bool = False) -> DenseReadout:
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
            out = dense_apply(op, out)
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
    return DenseReadout(
        state=out_state,
        qubit_sector_weight=qubit_w,
        partial_readout=beyond > constants.PARTIAL_READOUT_TOL,
    )
