"""The family's non-realizability certificate and its scalar preconditions.

Standard library only. The argument is pure counting: it needs d, d', the
purity of the mixed image ρ' and its overlap ⟨0'|ρ'|0'⟩, and no matrix. So
``envchan certify`` from family flags, where ρ' = diag(λ), starts without
NumPy through :func:`certify_spectrum`, while
``counterexample.certify_nonrealizable`` builds the same certificate from a
matrix ρ'. The rules that dimensions are integers ≥ 2, that ρ' is mixed and
that at d = 2 it overlaps |0'⟩ are stated here once, for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .sizes import _is_integer
from .tolerances import DENSITY_MATRIX, OVERLAP, PSD, PURE_PURITY_GAP

if TYPE_CHECKING:
    import numpy as np

NOT_REALIZABLE = "NOT_REALIZABLE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class FamilyMembership:
    """How a channel matched the family (see ``counterexample.match_family``):
    the Frobenius Choi distance to the rebuilt member, and ρ' in the basis
    whose first vector is the common pure image."""

    choi_distance: float
    canonical_rho_target: np.ndarray


@dataclass(frozen=True, eq=False)
class NonRealizabilityCertificate:
    """Outcome of the analytic argument, with an auditable narrative.

    ``claim`` is NOT_REALIZABLE or, for a channel outside the family,
    INCONCLUSIVE. A NOT_REALIZABLE ``excluded_ranks`` holds one
    ``(rank, rule)`` pair for each initialization rank r = 1..d_fin, in rank
    order, naming the deduction that excludes it: ``"decoherence"`` for
    r = 1, ``"overlap"`` for r = 2 at d = 2, and ``"counting"`` (r(d−1) > d
    orthonormal vectors in the d-dimensional initial space) otherwise; an
    INCONCLUSIVE one has None. ``membership`` is set when the claim was
    decided from a channel, not from family parameters.
    """

    claim: str
    excluded_ranks: tuple | None
    narrative: tuple
    membership: FamilyMembership | None = None


def _check_dimensions(d, d_fin) -> None:
    """Raise "dimensions must be integers" or "dimensions must be at least 2"
    unless d and d_fin are integers ≥ 2."""
    if not (_is_integer(d) and _is_integer(d_fin)):
        raise ValueError("dimensions must be integers")
    if d < 2 or d_fin < 2:
        raise ValueError("dimensions must be at least 2")


def _check_image(d: int, purity: float, overlap: float) -> None:
    """Raise "target image must be mixed" unless purity(ρ') < 1 − 1e-10, and
    "d=2 requires overlap with |0'⟩" if d = 2 and ⟨0'|ρ'|0'⟩ ≤ 1e-10."""
    if purity >= 1.0 - PURE_PURITY_GAP:
        raise ValueError("target image must be mixed")
    if d == 2 and overlap <= OVERLAP:
        raise ValueError("d=2 requires overlap with |0'⟩")


def _certificate(d: int, d_fin: int, purity: float, overlap: float) -> NonRealizabilityCertificate:
    """The NOT_REALIZABLE certificate of the member with these parameters,
    which the caller has checked.

    The argument walks every possible rank r of the initialization:
    r ≥ 2 dies by counting orthonormal vectors (r(d−1) > d) except the
    r = 2, d = 2 case, which dies by the overlap condition; r = 1 (pure)
    dies because total decoherence would force the mixed image to be pure.
    Each deduction is recorded as one narrative line, and each excluded
    rank as one ``(rank, rule)`` pair of ``excluded_ranks``.
    """
    steps = [
        f"family channel: |i><i| -> |0'><0'| for i = 0..{d - 2}, "
        f"|{d - 1}><{d - 1}| -> rho' with purity {purity:.12g} < 1, "
        "and superpositions with |" + str(d - 1) + "> totally decohere",
        "a candidate realization is a unitary on the initial (x) final space "
        "with the final system initialized in a fixed state of some rank r",
    ]
    excluded = [(1, "decoherence")]
    for r in range(2, d_fin + 1):
        if d == 2 and r == 2:
            steps.extend(
                [
                    "d = 2: counting is silent for a rank-2 initialization "
                    "(2 vectors fit in a 2-dimensional space), so examine its "
                    "structure directly",
                    "a rank-2 initialization is p|0'><0'| + (1-p)|1'><1'| with "
                    "0 < p < 1; sending |0><0| to the same pure state from both "
                    "eigenvectors forces, up to relabeling, |0>|0'> -> |0>|0'> "
                    "and |0>|1'> -> |1>|0'>",
                    "unitarity then forces the images of |1>|0'> and |1>|1'> "
                    "into the orthogonal complement, so the image of |1><1| "
                    "has no |0'> component: <0'|image|0'> = 0",
                    f"but the family requires <0'|rho'|0'> = {overlap:.12g} != 0 "
                    "— contradiction, so no rank-2 initialization exists",
                ]
            )
            excluded.append((r, "overlap"))
            continue
        required = r * (d - 1)
        steps.append(
            f"rank {r}: each initialization eigenvector must carry every "
            f"collapsing basis state to the same pure output, forcing "
            f"{r}*({d}-1) = {required} orthonormal vectors in the "
            f"{d}-dimensional initial space: {required} > {d} — impossible"
        )
        excluded.append((r, "counting"))
    steps.append(
        f"rank 1: with a pure initialization, total decoherence forces the "
        f"joint image of |{d - 1}>|0'> to have no component on the other "
        f"initial basis states, so the image of |{d - 1}><{d - 1}| would be "
        f"pure — contradicting purity(rho') = {purity:.12g} < 1"
    )
    steps.append(
        "no initialization of any rank realizes the channel: NOT_REALIZABLE"
    )
    return NonRealizabilityCertificate(
        claim=NOT_REALIZABLE,
        excluded_ranks=tuple(excluded),
        narrative=tuple(steps),
    )


def _trace_sum(values: list) -> float:
    """Σ values, added in the order NumPy's ``np.trace`` adds the diagonal
    of a complex matrix, so the trace and purity checks see NumPy's bits.

    That order is NumPy's pairwise summation: fewer than 4 terms one by
    one; up to 64 terms four running sums, each over every fourth term of
    the longest prefix whose length is a multiple of 4, combined as
    (s₀ + s₁) + (s₂ + s₃), then the rest one by one; more than 64 terms
    the two halves, split at a multiple of 4, each summed this way.
    """
    n = len(values)
    if n > 64:
        half = (n - n % 8) // 2
        return _trace_sum(values[:half]) + _trace_sum(values[half:])
    if n < 4:
        total = -0.0
        rest = values
    else:
        stop = n - n % 4
        lanes = values[:4]
        for start in range(4, stop, 4):
            lanes = [lane + x for lane, x in zip(lanes, values[start:start + 4])]
        total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        rest = values[stop:]
    for x in rest:
        total += x
    return total


def certify_spectrum(d, d_fin, eigenvalues) -> NonRealizabilityCertificate:
    """The certificate of the member whose mixed image is ρ' = diag(λ),
    from its real eigenvalues λ: the result that
    ``certify_nonrealizable(CounterexampleParams(d, d_fin, np.diag(λ)))``
    returns, without NumPy.

    It runs that constructor's checks on the diagonal matrix, in its order
    and with its messages, after one more that comes first:

    - "shape mismatch" unless there are d_fin eigenvalues, checked before
      anything the list's length pays for;
    - the dimension rules;
    - "matrix entries must be finite";
    - "not positive semidefinite" if an eigenvalue is below −1e-10, or if
      λ + λ overflows: ``linalg._is_psd`` eigendecomposes (ρ' + ρ'†)/2,
      whose diagonal is λ unless λ + λ is infinite, and LAPACK computes no
      spectrum of a matrix with an infinite entry;
    - "trace not one" unless Σλ is within 1e-12 of 1;
    - the mixed-image and d = 2 overlap rules, with purity Σλ² and overlap
      λ₀.

    Σλ and Σλ² are added in NumPy's order (:func:`_trace_sum`), so each
    check and the narrative's digits are those of the matrix path. One
    difference remains: LAPACK rescales a matrix with an entry beyond
    2⁴⁸⁵ ≈ 1e146, which can move an eigenvalue lying within rounding of
    −1e-10 across that floor. Such a spectrum fails the trace check
    anyway, but the matrix path may then name the PSD check instead.
    """
    if len(eigenvalues) != d_fin:
        raise ValueError("shape mismatch")
    _check_dimensions(d, d_fin)
    values = [float(x) for x in eigenvalues]
    if not all(math.isfinite(x) for x in values):
        raise ValueError("matrix entries must be finite")
    floor = -max(DENSITY_MATRIX, PSD)
    if not all(math.isfinite(x + x) and x >= floor for x in values):
        raise ValueError("not positive semidefinite")
    if abs(_trace_sum(values) - 1.0) > DENSITY_MATRIX:
        raise ValueError("trace not one")
    purity = _trace_sum([x * x for x in values])
    _check_image(d, purity, values[0])
    return _certificate(d, d_fin, purity, values[0])
