"""Numerical tolerances used across the package.

Every comparison against zero in this library goes through a named field of
:class:`Tolerances` so the thresholds are documented in one place and the
same value is used everywhere a given kind of check appears.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Collection of absolute numerical thresholds.

    Attributes:
        hermitian: entrywise bound for density-matrix hermiticity.
        hermitian_check: entrywise bound used when a function requires a
            Hermitian input (e.g. before an eigendecomposition).
        psd: eigenvalues of positive-semidefinite matrices may dip this far
            below zero before being rejected.
        trace: bound for unit-trace and distribution-sum checks.
        state_norm: bound for pure-state normalization.
        unitary: entrywise bound on ``U @ U.conj().T - I``.
        trace_preserving: entrywise bound on ``sum(E.conj().T @ E) - I`` and
            on the partial trace of a Choi matrix against the identity.
        kraus_rank_cutoff: Choi eigenvalues at or below this are dropped when
            extracting Kraus operators.
        extremal_rank: singular values below this count as zero in the
            extremality rank test.
        env_spectrum_cutoff: environment-state eigenvalues at or below this
            are dropped when decomposing a mixed-environment dilation.
        pure_purity_gap: a state is pure when ``purity >= 1 - pure_purity_gap``.
        distribution: bound for probability-vector validation.
        file_roundtrip: looser bound applied when validating objects loaded
            from JSON files (serialization noise budget).
        family_match: Choi-distance bound for counterexample-family
            membership detection.
    """

    hermitian: float = 1e-12
    hermitian_check: float = 1e-10
    psd: float = 1e-10
    trace: float = 1e-12
    state_norm: float = 1e-12
    unitary: float = 1e-10
    trace_preserving: float = 1e-10
    kraus_rank_cutoff: float = 1e-10
    extremal_rank: float = 1e-8
    env_spectrum_cutoff: float = 1e-12
    pure_purity_gap: float = 1e-10
    distribution: float = 1e-12
    file_roundtrip: float = 1e-8
    family_match: float = 1e-8


TOLS = Tolerances()
