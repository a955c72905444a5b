"""Unitary dilations of channels.

A :class:`Dilation` realizes a channel d_in → d_fin as

    ρ ↦ tr_{initial, env}[ U (ρ ⊗ env_state) U† ]

where U acts on the joint space ordered [initial, final, environment] and
``env_state`` is the fixed initial state of the non-initial factors
(final system ⊗ auxiliary environment). ``d_env = 0`` means there is no
auxiliary environment at all — the final system doubles as the environment —
and is treated as a one-dimensional trivial factor internally.

Which entry of U is which Kraus entry is stated once, in :func:`_kraus_rows`;
the channel of a dilation gathers through it, and the Stinespring
construction and the realization searcher scatter through its inverse
:func:`_kraus_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, ChoiMatrix, KrausSet, _choi_from_vecs, _frozen_copy, _vec
from .linalg import (
    _is_integer, as_complex_matrix, complete_unitary, eig_hermitian, is_unitary,
)
from .states import basis_state, projector, validate_density_matrix
from .tolerances import CHANNEL, DENSITY_MATRIX, ENV_SPECTRUM_CUTOFF, UNITARY


@dataclass(frozen=True, eq=False)
class Dilation:
    """A unitary realization of a channel.

    Attributes:
        d_in: dimension of the initial system (traced out at the end).
        d_fin: dimension of the final system (the channel output).
        d_env: dimension of the auxiliary environment; 0 means absent.
        unitary: matrix of side d_in · d_fin · max(d_env, 1).
        env_state: density matrix over final ⊗ environment, the fixed
            initial state of everything except the channel input.
        atol: tolerance of ``env_state``'s validation. The unitarity check,
            and the Choi matrices derived from this dilation, use it where
            it is looser than their own defaults (``UNITARY``, ``CHANNEL``),
            so files can be loaded at ``FILE``.

    ``unitary`` and ``env_state`` are stored as read-only copies, so a
    dilation cannot change after it is validated.

    Raises:
        ValueError: "not unitary" if ``unitary`` fails the unitarity check;
            "shape mismatch" on a non-integer dimension or any dimension
            disagreement.
    """

    d_in: int
    d_fin: int
    d_env: int
    unitary: np.ndarray
    env_state: np.ndarray
    atol: float = DENSITY_MATRIX

    def __post_init__(self):
        if not all(_is_integer(n) for n in (self.d_in, self.d_fin, self.d_env)):
            raise ValueError("shape mismatch")
        if self.d_in < 1 or self.d_fin < 1 or self.d_env < 0:
            raise ValueError("shape mismatch")
        side = self.d_in * self.env_side
        u = _frozen_copy(as_complex_matrix(self.unitary))
        if u.shape != (side, side):
            raise ValueError("shape mismatch")
        if not is_unitary(u, max(self.atol, UNITARY)):
            raise ValueError("not unitary")
        env = _frozen_copy(validate_density_matrix(self.env_state, atol=self.atol))
        if env.shape != (self.env_side, self.env_side):
            raise ValueError("shape mismatch")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "env_state", env)

    @property
    def env_side(self) -> int:
        """Joint dimension of the initialized factors: d_fin · max(d_env, 1)."""
        return self.d_fin * max(self.d_env, 1)


@dataclass(frozen=True, eq=False)
class SpectralComponent:
    """One pure-environment component of a mixed-environment dilation."""

    weight: float
    env_basis_state: np.ndarray
    channel: Channel


def _kraus_rows(columns: np.ndarray, d_in: int, d_fin: int) -> np.ndarray:
    """The dilation's Kraus layout, stated once: E_{t,a,b}[m, i] = ⟨a m b|U|i t⟩.

    ``columns`` holds U's columns for the inputs |i, t⟩ (input-major), with
    rows ordered [initial a, final m, environment b]. Returns one row per
    (t, a, b) holding vec(E_{t,a,b}) in the input-major convention of the
    channels module. :func:`_kraus_columns` is its inverse.
    """
    t = columns.reshape(d_in, d_fin, -1, d_in, columns.shape[1] // d_in)
    return t.transpose(4, 0, 2, 3, 1).reshape(-1, d_in * d_fin)


def _kraus_columns(rows: np.ndarray, d_in: int, d_fin: int, d_env: int = 0):
    """The inverse of :func:`_kraus_rows`, given the environment slot's length
    ``d_env`` (0 meaning absent, as in :class:`Dilation`): the Kraus rows
    (t, a, b) laid out as U's columns, one per input |i, t⟩."""
    t = rows.reshape(-1, d_in, max(d_env, 1), d_in, d_fin)
    return t.transpose(1, 4, 2, 3, 0).reshape(-1, d_in * len(t))


def _env_components(d: Dilation):
    """Yield (weight, eigenvector, component Choi) for each eigenvalue of
    ``env_state`` above the spectral cutoff, by decreasing weight.

    The component Choi matrix is that of the dilation run on the pure
    environment eigenvector.
    """
    weights, vectors = eig_hermitian(d.env_state)
    inputs = np.arange(d.d_in)
    for p, vec in zip(weights, vectors.T):
        if p <= ENV_SPECTRUM_CUTOFF:
            continue
        # I ⊗ vec: column i holds vec in the rows (i, ·), zeros elsewhere.
        lift = np.zeros((d.d_in, d.env_side, d.d_in), dtype=complex)
        lift[inputs, :, inputs] = vec
        columns = d.unitary @ lift.reshape(-1, d.d_in)
        yield p, vec, _choi_from_vecs(_kraus_rows(columns, d.d_in, d.d_fin))


def _channel(d: Dilation, choi: np.ndarray) -> Channel:
    """The channel d_in → d_fin with Choi matrix ``choi``, checked at the
    dilation's tolerance."""
    return Channel.from_choi(
        ChoiMatrix(d.d_in, d.d_fin, choi, atol=max(d.atol, CHANNEL))
    )


def channel_from_dilation(d: Dilation) -> Channel:
    """The channel ρ ↦ tr_{initial, env}[ U (ρ ⊗ env_state) U† ].

    The environment state is diagonalized; each eigenvalue above the
    spectral cutoff contributes its family of Kraus operators with weight
    √p. The result carries the minimal Kraus set of the induced Choi matrix.
    """
    side = d.d_in * d.d_fin
    choi = np.zeros((side, side), dtype=complex)
    for p, _, component in _env_components(d):
        choi += p * component
    return _channel(d, choi)


def stinespring_from_kraus(k: KrausSet) -> Dilation:
    """Pure-environment dilation of a channel given by a minimal Kraus set.

    The environment dimension equals the number of Kraus operators. The
    populated columns of the unitary send |i⟩|0'⟩|0⟩ to
    |0⟩ ⊗ Σ_k (E_k|i⟩) ⊗ |k⟩ and are extended to a full unitary; the
    completion never touches the sector selected by the pure initial state,
    so the induced channel is independent of it.
    """
    d_in, d_out, r = k.d_in, k.d_out, len(k)
    block = d_out * r
    side = d_in * block
    # Kraus E_k sits at (t=0, a=0, b=k): the first r rows of the layout.
    rows = np.zeros((side * r, d_in * d_out), dtype=complex)
    rows[:r] = np.stack([_vec(op) for op in k.operators])
    u = _kraus_columns(rows, d_in, d_out, r)
    filler = np.arange(side) % block != 0
    u[:, filler] = complete_unitary(u[:, ~filler])[:, d_in:]
    env_state = projector(basis_state(block, 0))
    return Dilation(d_in=d_in, d_fin=d_out, d_env=r, unitary=u, env_state=env_state)


def decompose_mixed_env(d: Dilation) -> list[SpectralComponent]:
    """Split a dilation into pure-environment components, one per eigenvalue
    of ``env_state`` above the spectral cutoff.

    The weighted mixture of the component channels equals the channel of the
    full dilation; components are ordered by decreasing weight.
    """
    return [
        SpectralComponent(
            weight=float(p),
            env_basis_state=vec,
            channel=_channel(d, component),
        )
        for p, vec, component in _env_components(d)
    ]
