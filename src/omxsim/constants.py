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
# Fock dimensions).  The executor builds one registry per side of the Bell
# analyzer, never one over the whole circuit, so the ceiling applies per
# side (a swap interferometer at thermal cutoff c has 16 (c + 2)^2, so c
# stops at 254).  A side is held as a sparse batch, never as a vector of
# this length; the ceiling bounds its thermal components and magnon rows.
MAX_DIMENSION = 1 << 20

# Ceiling on one array's entries, checked from the sizes alone: the
# amplitudes one element gathers from a side's batch (`fock.apply`), a
# side's herald factors (thermal components times a few Gram entries), and
# the populations of a herald over d magnon levels with their per-row Grams
# (a swap's are refused from cutoff 44); also all that `protocols._sides` keeps.
MAX_ARRAY_ENTRIES = 1 << 22

# Ceiling on a sweep's thermal weights: grid points times the two sides'
# thermal components (18 per point for a swap at the default truncation).
MAX_SWEEP_WEIGHTS = 1 << 22

# Entries of the largest array a sweep's join forms at once (a few tens
# per grid point): it joins a slice of the grid at a time.
SWEEP_SLICE = 1 << 13

# Ceiling on the demonstration heralds one --sample draw may request.
MAX_SAMPLES = 1 << 20

# Ceiling on the lifted element matrices `elements._lift` keeps (least
# recently used first out).  A circuit repeats a handful of distinct
# elements; the paper's commands need at most 3.
MAX_MEMOIZED_LIFTS = 32

# Default per-mode Fock cutoffs: dual-rail optical modes hold at most one
# photon in protocol use; magnon modes keep headroom above the thermal
# truncation so a single added excitation is always representable.
DEFAULT_OPTICAL_CUTOFF = 1
DEFAULT_THERMAL_CUTOFF = 2
