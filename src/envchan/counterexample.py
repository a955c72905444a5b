"""The collapse-with-one-mixed-image channel family and its non-realizability
certificate.

The family: a channel from a d-dimensional initial system to a
d_fin-dimensional final system (d, d_fin ≥ 2) that sends every basis state
|i⟩⟨i| with i < d−1 to the same pure state |0'⟩⟨0'|, sends |d−1⟩⟨d−1| to a
truly mixed state ρ', and totally decoheres superpositions:

    (Σᵢ αᵢ|i⟩ + β|d−1⟩)(…)†  ↦  (Σᵢ |αᵢ|²)|0'⟩⟨0'| + |β|² ρ'.

Such channels are valid quantum operations — :func:`implementing_unitary`
exhibits an explicit dilation with a two-dimensional auxiliary environment —
yet they cannot be realized by a unitary on the initial ⊗ final space alone
with the final system initialized in any fixed state, however mixed.
:func:`certify_nonrealizable` mechanizes that argument step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _frozen_copy, apply, distance
from .dilation import Dilation
from .linalg import _is_integer, as_complex_matrix, complete_unitary, eig_hermitian
from .states import basis_state, is_pure, projector, purity, validate_density_matrix
from .tolerances import ENV_SPECTRUM_CUTOFF, FAMILY_MATCH, OVERLAP, STATE_NORM

NOT_REALIZABLE = "NOT_REALIZABLE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class CounterexampleParams:
    """Parameters of a family member.

    Attributes:
        d: initial-system dimension, ≥ 2.
        d_fin: final-system dimension, ≥ 2.
        rho_target: the mixed image of |d−1⟩⟨d−1|, a d_fin × d_fin density
            matrix with purity < 1 − 1e-10; for d = 2 it must additionally
            satisfy ⟨0'|ρ'|0'⟩ > 1e-10.

    These are the only checks of the family's preconditions; ``rho_target``
    is stored as a read-only copy, so they hold for the object's lifetime.

    Raises:
        ValueError: "dimensions must be integers" or "dimensions must be at
            least 2" on bad dimensions; "shape mismatch" if rho_target is
            not d_fin × d_fin; "target image must be mixed" if rho_target
            is pure; "d=2 requires overlap with |0'⟩" if d == 2 and
            ⟨0'|ρ'|0'⟩ vanishes.
    """

    d: int
    d_fin: int
    rho_target: np.ndarray

    def __post_init__(self):
        if not (_is_integer(self.d) and _is_integer(self.d_fin)):
            raise ValueError("dimensions must be integers")
        if self.d < 2 or self.d_fin < 2:
            raise ValueError("dimensions must be at least 2")
        # The shape comes first: it is checked without the spectrum, whose
        # cost grows with the cube of the matrix size.
        rho = as_complex_matrix(self.rho_target)
        if rho.shape != (self.d_fin, self.d_fin):
            raise ValueError("shape mismatch")
        rho = _frozen_copy(validate_density_matrix(rho))
        object.__setattr__(self, "rho_target", rho)
        if is_pure(rho):
            raise ValueError("target image must be mixed")
        if self.d == 2 and self.overlap <= OVERLAP:
            raise ValueError("d=2 requires overlap with |0'⟩")

    @property
    def overlap(self) -> float:
        """⟨0'|ρ'|0'⟩ — the overlap of the mixed image with the pure image."""
        return float(self.rho_target[0, 0].real)


def _family_channel(d: int, d_fin: int, phi: np.ndarray, rho: np.ndarray) -> Channel:
    """The family member with common pure image |φ⟩⟨φ| and mixed image ρ.

    Kraus operators: |φ⟩⟨i| for each collapsing basis state i < d−1, plus
    √λ_k |e_k⟩⟨d−1| for each spectral component ρ = Σ λ_k |e_k⟩⟨e_k| above
    the spectral cutoff. The set is minimal (the vectorized operators are
    mutually orthogonal) and reproduces the family action formula exactly.
    """
    ops = []
    for i in range(d - 1):
        op = np.zeros((d_fin, d), dtype=complex)
        op[:, i] = phi
        ops.append(op)
    lam, vecs = eig_hermitian(rho)
    for weight, vec in zip(lam, vecs.T):
        if weight <= ENV_SPECTRUM_CUTOFF:
            continue
        op = np.zeros((d_fin, d), dtype=complex)
        op[:, d - 1] = np.sqrt(weight) * vec
        ops.append(op)
    return Channel.from_kraus(ops)


def build_counterexample(p: CounterexampleParams) -> Channel:
    """Construct the family member as a Kraus channel, with pure image |0'⟩."""
    return _family_channel(p.d, p.d_fin, basis_state(p.d_fin, 0), p.rho_target)


def implementing_unitary(d: int, d_fin: int, alpha: complex, beta: complex) -> Dilation:
    """Explicit dilation of the rank-2 family member with a 2-dim environment.

    The unitary acts on initial ⊗ final ⊗ environment as the identity on
    every joint basis state except

        |d−1⟩|0'⟩|0⟩ ↦ α|d−1⟩|0'⟩|0⟩ + β|d−1⟩|1'⟩|1⟩,

    (with the paired column fixed by unitarity), and the final ⊗ environment
    factors start in |0'⟩|0⟩. The induced channel is the family member with
    ρ' = |α|²|0'⟩⟨0'| + |β|²|1'⟩⟨1'|.

    Raises:
        ValueError: "dimensions must be at least 2" unless d and d_fin are
            integers ≥ 2; "coefficients must be nonzero" if α or β vanishes;
            "coefficients must be normalized" unless |α|² + |β|² = 1 within
            1e-12.
    """
    if not all(_is_integer(n) and n >= 2 for n in (d, d_fin)):
        raise ValueError("dimensions must be at least 2")
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha == 0 or beta == 0:
        raise ValueError("coefficients must be nonzero")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > STATE_NORM:
        raise ValueError("coefficients must be normalized")
    d_env = 2
    block = d_fin * d_env
    side = d * block
    hold = (d - 1) * block          # index of |d−1⟩|0'⟩|0⟩
    flip = (d - 1) * block + 1 * d_env + 1  # index of |d−1⟩|1'⟩|1⟩
    unitary = np.eye(side, dtype=complex)
    unitary[hold, hold] = alpha
    unitary[flip, hold] = beta
    unitary[hold, flip] = -np.conj(beta)
    unitary[flip, flip] = np.conj(alpha)
    env_state = projector(basis_state(block, 0))
    return Dilation(d_in=d, d_fin=d_fin, d_env=d_env, unitary=unitary, env_state=env_state)


@dataclass(frozen=True, eq=False)
class NonRealizabilityCertificate:
    """Outcome of the analytic argument, with an auditable narrative.

    ``claim`` is always NOT_REALIZABLE; only the CLI reports INCONCLUSIVE,
    for a channel outside the family. ``excluded_ranks`` holds one
    ``(rank, rule)`` pair for each initialization rank r = 1..d_fin, in rank
    order, naming the deduction that excludes it: ``"decoherence"`` for
    r = 1, ``"overlap"`` for r = 2 at d = 2, and ``"counting"`` (r(d−1) > d
    orthonormal vectors in the d-dimensional initial space) otherwise.
    """

    claim: str
    excluded_ranks: tuple
    narrative: tuple


def certify_nonrealizable(p: CounterexampleParams) -> NonRealizabilityCertificate:
    """Prove that a family member admits no realization by a unitary on
    initial ⊗ final with the final system initialized in a fixed state.

    The argument walks every possible rank r of the initialization:
    r ≥ 2 dies by counting orthonormal vectors (r(d−1) > d) except the
    r = 2, d = 2 case, which dies by the overlap condition; r = 1 (pure)
    dies because total decoherence would force the mixed image to be pure.
    Each deduction is recorded as one narrative line, and each excluded
    rank as one ``(rank, rule)`` pair of ``excluded_ranks``.

    ``p``'s constructor is the one check of the family's preconditions, and
    its fields are read-only, so the claim is always NOT_REALIZABLE; only
    the CLI reports INCONCLUSIVE, for non-members.
    """
    d, d_fin = p.d, p.d_fin
    target_purity = purity(p.rho_target)
    steps = [
        f"family channel: |i><i| -> |0'><0'| for i = 0..{d - 2}, "
        f"|{d - 1}><{d - 1}| -> rho' with purity {target_purity:.12g} < 1, "
        "and superpositions with |" + str(d - 1) + "> totally decohere",
        "a candidate realization is a unitary on the initial (x) final space "
        "with the final system initialized in a fixed state of some rank r",
    ]
    excluded = [(1, "decoherence")]
    for r in range(2, d_fin + 1):
        if d == 2 and r == 2:
            overlap = p.overlap
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
        f"pure — contradicting purity(rho') = {target_purity:.12g} < 1"
    )
    steps.append(
        "no initialization of any rank realizes the channel: NOT_REALIZABLE"
    )
    return NonRealizabilityCertificate(
        claim=NOT_REALIZABLE,
        excluded_ranks=tuple(excluded),
        narrative=tuple(steps),
    )


def match_family(channel: Channel) -> tuple[CounterexampleParams, float] | None:
    """Detect whether a channel belongs to the family, in any output basis.

    The image of |0⟩⟨0| must have an eigenvalue within ``FAMILY_MATCH`` of 1;
    its eigenvector φ is the candidate common pure image and ρ' the image of
    |d−1⟩⟨d−1|. :class:`CounterexampleParams` then checks ρ' (a density
    matrix within 1e-12, truly mixed, with the d = 2 overlap), and the one
    membership test is the Choi distance to the member rebuilt around
    (φ, ρ'), at most ``FAMILY_MATCH``. That comparison covers every other
    collapsed image and total decoherence: an image off by more than
    ``FAMILY_MATCH`` puts the Choi distance above it.

    ρ' is validated before the rebuild, so its eigenvalues sum to 1 within
    1e-12 and the rebuilt member is trace preserving well within the 1e-10
    Kraus check: a near-member is rejected by the checks above, never by an
    error.

    Returns ``(params, choi_distance)``: ``params`` describe the channel
    after rotating φ to |0'⟩ (the family is closed under output rotations,
    and the certificate is basis-independent), and ``choi_distance`` is the
    Frobenius distance to the rebuilt member. ``params.rho_target`` is ρ' in
    a basis whose first vector is φ and whose other vectors come from
    ``complete_unitary(φ)``: its spectrum and its ⟨0'|ρ'|0'⟩ entry belong to
    the channel, its other entries depend on the completion. Returns None if
    the channel is not in the family or fails a family precondition (e.g.
    d = 2 with zero overlap).
    """
    d, d_fin = channel.d_in, channel.d_out
    lam, vecs = eig_hermitian(apply(channel, projector(basis_state(d, 0))))
    if lam[0] < 1.0 - FAMILY_MATCH:
        return None
    phi = vecs[:, 0]
    rho_mixed = apply(channel, projector(basis_state(d, d - 1)))
    rotation = complete_unitary(phi).conj().T  # sends phi to |0'>
    try:
        params = CounterexampleParams(d, d_fin, rotation @ rho_mixed @ rotation.conj().T)
    except ValueError:
        return None
    candidate = _family_channel(d, d_fin, phi, rho_mixed)
    dist = distance(channel, candidate)
    if dist > FAMILY_MATCH:
        return None
    return params, float(dist)
