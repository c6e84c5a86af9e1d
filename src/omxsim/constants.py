"""Central numerical tolerance and limit table.

Every tolerance used by validation code and by the test suite lives here, so
the accuracy contract of the package can be audited in one place.
"""

# State vectors: |norm - 1| tolerance for states flagged as normalized.
NORM_TOL = 1e-12

# Density matrices: Hermiticity and unit-trace tolerance.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12

# Operator flavor checks: ||U U^dag - I|| / ||V^dag V - I|| tolerance.
UNITARITY_TOL = 1e-10

# Measurement outcomes with probability below this are reported as
# unreachable rather than as true zeros carrying floating-point dust.
UNREACHABLE_PROBABILITY = 1e-14

# Residual imaginary part allowed when a fidelity is cast to a real number.
FIDELITY_IMAG_TOL = 1e-12

# Readout input weight beyond the qubit sector (a magnon holding two or more
# excitations) above which the retrieval is flagged as partial.
PARTIAL_READOUT_TOL = 1e-12

# Concurrence: eigenvalues of rho (Y x Y) rho* (Y x Y) below this fraction of
# the largest are zeroed; the square root would amplify their rounding dust.
CONCURRENCE_EIGENVALUE_FLOOR = 1e-14

# Hard ceiling on the dimension of any mode registry (product of per-mode
# Fock dimensions).  Dense complex vectors of this length stay cheap.
MAX_DIMENSION = 1 << 20

# Ceiling on one array's entries, checked from the sizes alone: a side's
# thermal components times its registry dimension (a teleport at cutoff 22
# or more with n_bar > 0 is refused), and a heralded magnon state's d^2
# entries for d magnon levels (a teleport post-state is refused from cutoff
# 44, a swap post-state from cutoff 5).
MAX_ARRAY_ENTRIES = 1 << 22

# Ceiling on a sweep's pair-weight array: grid points times joint thermal
# components (81 per point for a swap at the default truncation).
MAX_SWEEP_WEIGHTS = 1 << 22

# Ceiling on the demonstration heralds one --sample draw may request.
MAX_SAMPLES = 1 << 20

# Default per-mode Fock cutoffs: dual-rail optical modes hold at most one
# photon in protocol use; magnon modes keep headroom above the thermal
# truncation so a single added excitation is always representable.
DEFAULT_OPTICAL_CUTOFF = 1
DEFAULT_THERMAL_CUTOFF = 2
