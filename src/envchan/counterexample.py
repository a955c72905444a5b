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
:func:`certify_nonrealizable` mechanizes that argument step by step for
given family parameters, and :func:`certify_channel` decides a channel: it
certifies a detected member (:func:`match_family`) and says INCONCLUSIVE
for any other channel. Both return one :class:`NonRealizabilityCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificate import (
    INCONCLUSIVE,
    FamilyMembership,
    NonRealizabilityCertificate,
    _certificate,
    _check_dimensions,
    _check_image,
)
from .channels import Channel, _frozen_copy, apply, distance
from .dilation import Dilation
from .linalg import as_complex_matrix, complete_unitary, eig_hermitian
from .sizes import _check_integers
from .states import basis_state, projector, purity, validate_density_matrix
from .tolerances import ENV_SPECTRUM_CUTOFF, FAMILY_MATCH, STATE_NORM


@dataclass(frozen=True, eq=False)
class CounterexampleParams:
    """Parameters of a family member.

    Attributes:
        d: initial-system dimension, ≥ 2.
        d_fin: final-system dimension, ≥ 2.
        rho_target: the mixed image of |d−1⟩⟨d−1|, a d_fin × d_fin density
            matrix with purity < 1 − 1e-10; for d = 2 it must additionally
            satisfy ⟨0'|ρ'|0'⟩ > 1e-10.

    These are the only checks of the family's preconditions on a matrix ρ';
    the dimension, mixed-image and overlap rules are ``certificate``'s,
    which ``certificate.certify_spectrum`` shares. ``rho_target`` is stored
    as a read-only copy, so the checks hold for the object's lifetime.

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
        _check_dimensions(self.d, self.d_fin)
        # The shape comes first: it is checked without the spectrum, whose
        # cost grows with the cube of the matrix size.
        rho = as_complex_matrix(self.rho_target, (self.d_fin, self.d_fin))
        rho = _frozen_copy(validate_density_matrix(rho))
        object.__setattr__(self, "rho_target", rho)
        _check_image(self.d, purity(rho), self.overlap)

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
    _check_integers("dimensions must be at least 2", d, d_fin, least=2)
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha == 0 or beta == 0:
        raise ValueError("coefficients must be nonzero")
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= STATE_NORM:
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


def certify_nonrealizable(p: CounterexampleParams) -> NonRealizabilityCertificate:
    """Prove that a family member admits no realization by a unitary on
    initial ⊗ final with the final system initialized in a fixed state.

    The argument excludes every rank of the initialization in turn (see
    :class:`NonRealizabilityCertificate`). It needs only d, d_fin, the
    purity of ρ' and ⟨0'|ρ'|0'⟩, so it is built in ``certificate``, where
    ``certify_spectrum`` gives the same certificate from ρ''s eigenvalues
    without NumPy. ``p``'s constructor is the one check of the family's
    preconditions, and its fields are read-only, so the claim is always
    NOT_REALIZABLE.
    """
    return _certificate(p.d, p.d_fin, purity(p.rho_target), p.overlap)


def match_family(channel: Channel) -> tuple[CounterexampleParams, float] | None:
    """Detect whether a channel belongs to the family, in any output basis.

    The image of |0⟩⟨0| must have an eigenvalue within ``FAMILY_MATCH`` of 1;
    its eigenvector φ is the candidate common pure image and ρ' the image of
    |d−1⟩⟨d−1|, divided by its trace. :class:`CounterexampleParams` then
    checks ρ' (truly mixed, with the d = 2 overlap), and the one membership
    test is the Choi distance to the member rebuilt around (φ, ρ'), at most
    ``FAMILY_MATCH``, the file tolerance. That comparison covers every other
    collapsed image, total decoherence and the trace of the image of
    |d−1⟩⟨d−1|: an image off by more than ``FAMILY_MATCH`` puts the Choi
    distance above it. The rebuilt member is trace preserving to rounding,
    so a near-member is rejected by these checks, never by an error.

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
    rho_mixed = rho_mixed / np.trace(rho_mixed).real
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


def certify_channel(channel: Channel) -> NonRealizabilityCertificate:
    """Certify a channel: NOT_REALIZABLE, with its ``membership``, if
    :func:`match_family` finds it in the family, and INCONCLUSIVE, with one
    narrative line and no ``excluded_ranks``, otherwise."""
    match = match_family(channel)
    if match is None:
        return NonRealizabilityCertificate(
            claim=INCONCLUSIVE,
            excluded_ranks=None,
            narrative=(
                "channel is not a detectable member of the certifiable family "
                "(collapse to a common pure image plus one truly mixed, totally "
                "decohered image); the analytic argument does not apply",
            ),
        )
    params, choi_distance = match
    membership = FamilyMembership(choi_distance, params.rho_target)
    return replace(certify_nonrealizable(params), membership=membership)
