"""Invariants of the reports, checked over generated thermal settings.

The report properties run through the dual-rail-sector herald: the fidelity
numerators contract only the sector rows, and the herald masses the full
Gram traces.  The readout property runs through the heralded post-state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omxsim import protocols
from omxsim.elements import ScatterModel
from omxsim.measurement import BellId
from omxsim.protocols import InputQubit, ThermalConfig

TOL = 1e-12
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

thermal = st.builds(ThermalConfig,
                    n_bar=st.floats(0.0, 0.5),
                    cutoff=st.integers(1, 3),
                    renormalize=st.booleans())
models = st.sampled_from(list(ScatterModel))
qubits = st.builds(InputQubit.from_angles,
                   st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))


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
