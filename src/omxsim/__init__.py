"""Truncated-Fock-space simulator for optomagnonic teleportation and
entanglement swapping, with a small circuit language and CLI."""

from .fock import (
    Batch,
    DensityMatrix,
    ElementOp,
    ModeKind,
    ModeLabel,
    ModeRegistry,
    OmxError,
    OperatorError,
    OpFlavor,
    Polarization,
    RegistryError,
    StateError,
    StateVector,
    apply,
    fidelity,
    magnon,
    optical,
    partial_trace,
)
from .elements import (
    ScatterModel,
    antistokes_swap,
    beam_splitter_50_50,
    half_wave_plate,
    pbs,
    pdc_evolution,
    phase_shift,
    quarter_wave_plate,
    stokes_scatter,
)
from .measurement import (
    BellId,
    bell_projectors,
)
from .protocols import (
    InputQubit,
    ProtocolReport,
    ThermalConfig,
    closed_form_f1,
    closed_form_f2,
    entanglement_swap,
    genuine_threshold,
    readout,
    retrieved_qubit_fidelity,
    sweep_fidelity,
    teleport,
)

__version__ = "0.1.0"
