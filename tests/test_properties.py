"""Invariants of the reports, checked over generated thermal settings.

The report properties run through the dual-rail-sector herald: the fidelity
numerators contract only the sector rows, and the herald masses the full
Gram traces.  The readout property runs through the heralded post-state.
The weight properties hold bit for bit: a sweep and a report form their
thermal weights through the same product, so a sweep row equals the report
at its occupation, and overrides equal to the shared occupation change
nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omxsim import plans, protocols
from omxsim.elements import ScatterModel
from omxsim.measurement import BellId
from omxsim.protocols import InputQubit, ProtocolError, ThermalConfig

TOL = 1e-12
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

thermal = st.builds(ThermalConfig,
                    n_bar=st.floats(0.0, 0.5),
                    cutoff=st.integers(1, 3),
                    renormalize=st.booleans())
models = st.sampled_from(list(ScatterModel))
qubits = st.builds(InputQubit.from_angles,
                   st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
# small occupations, and large ones up to the s -> 1 limit
occupations = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 1e17))


def _report(protocol: str, cfg: ThermalConfig, model: ScatterModel,
            qubit: InputQubit = protocols.DEFAULT_SWEEP_QUBIT, **kwargs):
    if protocol == "teleport":
        return protocols.teleport(qubit, cfg, model, **kwargs)
    return protocols.entanglement_swap(cfg, model, **kwargs)


@PROPERTY
@given(cfg=thermal, model=models, qubit=qubits)
def test_swap_fidelity_is_teleport_fidelity_squared(cfg, model, qubit):
    f_teleport = protocols.teleport(qubit, cfg, model).aggregate_fidelity
    f_swap = protocols.entanglement_swap(cfg, model).aggregate_fidelity
    assert f_swap == pytest.approx(f_teleport ** 2, abs=TOL)


@PROPERTY
@given(cfg=thermal, model=models, qubit=qubits)
def test_each_bell_herald_has_probability_one_quarter(cfg, model, qubit):
    for report in (protocols.teleport(qubit, cfg, model),
                   protocols.entanglement_swap(cfg, model)):
        for outcome in report.outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=TOL)
        assert report.no_herald_probability == pytest.approx(0.0, abs=TOL)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_bar=st.floats(0.0, 0.5), cutoff=st.integers(1, 9), renormalize=st.booleans(),
       model=models, qubit=qubits)
def test_readout_retrieves_each_even_herald_with_its_corrected_fidelity(
        n_bar, cutoff, renormalize, model, qubit):
    report = protocols.teleport(qubit, ThermalConfig(n_bar, cutoff, renormalize), model)
    for bell_id, correct in ((BellId.PHI_PLUS, False), (BellId.PHI_MINUS, True)):
        outcome = report.outcome(bell_id)
        result = protocols.readout(outcome.post_state, apply_correction=correct)
        assert protocols.retrieved_qubit_fidelity(result, qubit) == pytest.approx(
            outcome.fidelity_corrected, abs=TOL)


@PROPERTY
@given(protocol=st.sampled_from(plans.PROTOCOLS), cutoff=st.integers(1, 3),
       renormalize=st.booleans(), model=models,
       grid=st.lists(occupations, min_size=1, max_size=4).map(sorted))
def test_each_sweep_row_equals_the_report_at_its_occupation(
        protocol, cutoff, renormalize, model, grid):
    cfg = ThermalConfig(0.0, cutoff, renormalize)
    try:
        rows = protocols.sweep_fidelity(protocol, grid, cfg, model)
    except ProtocolError as exc:
        # a point of zero mass (no renormalization once s rounds to 1) is
        # refused by the sweep and by its report alike
        messages = []
        for g in grid:
            try:
                _report(protocol, ThermalConfig(g, cutoff, renormalize), model)
            except ProtocolError as report_exc:
                messages.append(str(report_exc))
        assert str(exc) in messages
        return
    for row in rows:
        report = _report(protocol, ThermalConfig(row.n_bar, cutoff, renormalize), model)
        assert row.simulated == report.aggregate_fidelity
        assert row.abs_diff == report.closed_form["abs_diff"]


@PROPERTY
@given(protocol=st.sampled_from(plans.PROTOCOLS), n_bar=occupations,
       cutoff=st.integers(1, 3), renormalize=st.booleans(), model=models, qubit=qubits)
def test_overrides_equal_to_the_shared_occupation_change_nothing(
        protocol, n_bar, cutoff, renormalize, model, qubit):
    cfg = ThermalConfig(n_bar, cutoff, renormalize)
    overrides = dict.fromkeys("AB" if protocol == "teleport" else "ABCD", n_bar)
    try:
        shared = _report(protocol, cfg, model, qubit).to_dict()
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as overridden_exc:
            _report(protocol, cfg, model, qubit, n_bar_overrides=overrides)
        assert str(overridden_exc.value) == str(exc)
        return
    overridden = _report(protocol, cfg, model, qubit,
                         n_bar_overrides=overrides).to_dict()
    echoed = overridden["config"].pop("n_bar_overrides")
    assert echoed == dict.fromkeys(overrides, shared["config"]["n_bar"])
    assert overridden == shared
