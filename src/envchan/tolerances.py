"""Numerical tolerances used across the package.

Every threshold that decides whether an input is accepted, or whether a
numerical value counts as zero, is one of the named constants below, so the
thresholds are documented in one place and the same value is used everywhere
a given kind of check appears. Every entrywise comparison ("within atol in
every entry") goes through ``linalg._within``, and every PSD floor through
``linalg._is_psd``; a NaN passes neither. One 1e-12 literal stays local
because it only fixes a layout, never a verdict: the phase and
degenerate-block ordering in ``linalg.eig_hermitian``.
"""

# Entrywise bound for density-matrix hermiticity and unit trace.
DENSITY_MATRIX = 1e-12
# Entrywise bound where a function requires a Hermitian input (e.g. before an
# eigendecomposition).
HERMITIAN_INPUT = 1e-10
# Eigenvalues of a density matrix may dip this far below zero.
PSD = 1e-10
# Bound for pure-state normalization.
STATE_NORM = 1e-12
# Entrywise bound on U @ U.conj().T - I.
UNITARY = 1e-10
# Entrywise bound on sum(E.conj().T @ E) - I for a Kraus set; for a Choi
# matrix, the bound on its hermiticity, on its negative eigenvalues and on its
# partial trace against the identity.
CHANNEL = 1e-10
# Choi eigenvalues at or below this give no Kraus operator.
KRAUS_RANK_CUTOFF = 1e-10
# Singular values below this count as zero in the extremality rank test.
EXTREMAL_RANK = 1e-8
# Environment-state eigenvalues at or below this are dropped when decomposing
# a mixed-environment dilation.
ENV_SPECTRUM_CUTOFF = 1e-12
# A state is pure when purity >= 1 - PURE_PURITY_GAP.
PURE_PURITY_GAP = 1e-10
# For d = 2 the family needs <0'|rho'|0'> above this.
OVERLAP = 1e-10
# Bound for probability-vector validation.
DISTRIBUTION = 1e-12
# Looser bound for objects loaded from JSON files (serialization noise budget).
FILE = 1e-8
# Choi-distance bound for counterexample-family membership detection.
FAMILY_MATCH = 1e-8
