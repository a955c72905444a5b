"""Quantum channel representations and operations.

A channel is stored by its Kraus operators (:class:`KrausSet`) with the Choi
matrix (:class:`ChoiMatrix`) derived on demand and cached. The Choi
convention used throughout is input-major and unnormalized:

    C = Σᵢⱼ |i⟩⟨j| ⊗ Φ(|i⟩⟨j|),    tr_out(C) = I_{d_in},  tr(C) = d_in,

so row index ``i * d_out + m`` pairs input basis index ``i`` with output
basis index ``m``, and ``C = Σ_k vec(E_k) vec(E_k)†`` with
``vec(E) = E.T.reshape(-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    _check_integers, _is_psd, _within, as_complex_matrix, eig_hermitian,
    is_hermitian, partial_trace,
)
from .tolerances import CHANNEL, DISTRIBUTION, EXTREMAL_RANK, KRAUS_RANK_CUTOFF


def _vec(op: np.ndarray) -> np.ndarray:
    """Vectorize a d_out×d_in operator into length d_in·d_out, input-major."""
    return op.T.reshape(-1)


def _choi_from_vecs(vecs: np.ndarray) -> np.ndarray:
    """Σ_k v_k v_k† over the rows v_k of ``vecs``."""
    return np.einsum("kv,kw->vw", vecs, vecs.conj())


def _unvec(v: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return v.reshape(d_in, d_out).T


def _frozen_copy(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A trace-preserving set of Kraus operators, all of shape d_out × d_in.

    ``atol`` is kept so that :func:`kraus_to_choi` checks the Choi matrix it
    derives at the tolerance this set was accepted at.

    Raises:
        ValueError: "shape mismatch" if the operators disagree in shape or
            have a zero dimension; "not trace preserving" if Σᵢ Eᵢ†Eᵢ
            deviates from the identity by more than ``atol`` in any entry.
    """

    operators: tuple
    atol: float = CHANNEL

    def __post_init__(self):
        ops = tuple(_frozen_copy(as_complex_matrix(op)) for op in self.operators)
        if not ops:
            raise ValueError("kraus set must be nonempty")
        shape = ops[0].shape
        if any(op.shape != shape for op in ops) or 0 in shape:
            raise ValueError("shape mismatch")
        # Σᵢ Eᵢ†Eᵢ = A†A for A the operators stacked on top of each other.
        stacked = np.concatenate(ops)
        total = stacked.conj().T @ stacked
        if not _within(total, np.eye(shape[1]), self.atol):
            raise ValueError("not trace preserving")
        object.__setattr__(self, "operators", ops)

    @property
    def d_in(self) -> int:
        return self.operators[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a channel, validated as CP and TP on construction.

    ``atol`` is kept for :func:`choi_to_kraus`, as ``KrausSet.atol`` is.

    Raises:
        ValueError: "shape mismatch" if a dimension is not a positive
            integer or the matrix side is not d_in·d_out;
            "not completely positive" if the matrix is not Hermitian PSD
            within ``atol``; "not trace preserving" if the partial trace over
            the output factor deviates from I_{d_in} by more than ``atol``.
    """

    d_in: int
    d_out: int
    matrix: np.ndarray
    atol: float = CHANNEL

    def __post_init__(self):
        _check_integers("shape mismatch", self.d_in, self.d_out)
        side = self.d_in * self.d_out
        m = as_complex_matrix(self.matrix, (side, side))
        if not is_hermitian(m, self.atol):
            raise ValueError("not completely positive")
        if not _is_psd(m, self.atol):
            raise ValueError("not completely positive")
        # partial_trace(m, [d_in, d_out], keep={0}), without its checks.
        reduced = np.trace(m.reshape((self.d_in, self.d_out) * 2), axis1=1, axis2=3)
        if not _within(reduced, np.eye(self.d_in), self.atol):
            raise ValueError("not trace preserving")
        object.__setattr__(self, "matrix", _frozen_copy(m))


def kraus_to_choi(k: KrausSet) -> ChoiMatrix:
    """Choi matrix Σ_k vec(E_k) vec(E_k)† of a Kraus set."""
    vecs = np.stack([_vec(op) for op in k.operators])
    return ChoiMatrix(k.d_in, k.d_out, _choi_from_vecs(vecs), atol=k.atol)


def choi_to_kraus(c: ChoiMatrix) -> KrausSet:
    """Minimal Kraus set from the spectral decomposition of a Choi matrix.

    Eigenvalues above ``KRAUS_RANK_CUTOFF`` each contribute one operator
    √λ·unvec(v), ordered by decreasing eigenvalue, so the number of operators
    is the numerical rank of the Choi matrix. ``c`` was checked Hermitian at
    its own tolerance, so its exactly Hermitian part is decomposed.
    """
    w, v = eig_hermitian((c.matrix + c.matrix.conj().T) / 2)
    ops = [
        _unvec(np.sqrt(w[j]) * v[:, j], c.d_in, c.d_out)
        for j in range(len(w))
        if w[j] > KRAUS_RANK_CUTOFF
    ]
    return KrausSet(tuple(ops), atol=c.atol)


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive trace-preserving map, held as Kraus operators."""

    kraus: KrausSet

    @classmethod
    def from_kraus(cls, operators) -> "Channel":
        return cls(KrausSet(tuple(operators)))

    @classmethod
    def from_choi(cls, choi: ChoiMatrix) -> "Channel":
        """Build a channel (with minimal Kraus set) from a Choi matrix."""
        return cls(choi_to_kraus(choi))

    @property
    def d_in(self) -> int:
        return self.kraus.d_in

    @property
    def d_out(self) -> int:
        return self.kraus.d_out

    @cached_property
    def choi(self) -> ChoiMatrix:
        return kraus_to_choi(self.kraus)


def identity_channel(dim: int) -> Channel:
    """The channel ρ ↦ ρ."""
    return Channel.from_kraus([np.eye(dim, dtype=complex)])


def apply(ch: Channel, rho) -> np.ndarray:
    """Apply the channel: ρ ↦ Σᵢ Eᵢ ρ Eᵢ†.

    Raises:
        ValueError: "shape mismatch" if ρ is not d_in × d_in.
    """
    rho = as_complex_matrix(rho, (ch.d_in, ch.d_in))
    out = np.zeros((ch.d_out, ch.d_out), dtype=complex)
    for op in ch.kraus.operators:
        out += op @ rho @ op.conj().T
    return out


def apply_from_choi(choi: ChoiMatrix, rho) -> np.ndarray:
    """Apply a channel through its Choi matrix: Φ(ρ) = tr_in[(ρᵀ ⊗ I) C].

    Nothing in the package calls this; it is kept on purpose as a reference
    independent of the Kraus path, against which :func:`apply` is tested.
    """
    rho = as_complex_matrix(rho, (choi.d_in, choi.d_in))
    lifted = np.kron(rho.T, np.eye(choi.d_out)) @ choi.matrix
    return partial_trace(lifted, [choi.d_in, choi.d_out], keep={1})


def mix(channels, weights) -> Channel:
    """Convex mixture of channels: Choi(result) = Σᵢ wᵢ · Choi(chᵢ), checked at
    the loosest tolerance among the parts, since its defects are a weighted
    average of theirs.

    Raises:
        ValueError: "shape mismatch" if the channels' dimensions disagree;
            "not a distribution" if the weights are negative or NaN, or do
            not sum to 1 within the distribution tolerance.
    """
    channels = list(channels)
    w = np.asarray(weights, dtype=float)
    if not channels or w.ndim != 1 or len(w) != len(channels):
        raise ValueError("shape mismatch")
    dims = (channels[0].d_in, channels[0].d_out)
    if any((ch.d_in, ch.d_out) != dims for ch in channels):
        raise ValueError("shape mismatch")
    if not (w.min() >= 0 and abs(w.sum() - 1.0) <= DISTRIBUTION):
        raise ValueError("not a distribution")
    c = sum(wi * ch.choi.matrix for wi, ch in zip(w, channels))
    atol = max(ch.choi.atol for ch in channels)
    return Channel.from_choi(ChoiMatrix(dims[0], dims[1], c, atol=atol))


def distance(a: Channel | ChoiMatrix, b: Channel | ChoiMatrix) -> float:
    """Frobenius distance between Choi matrices; 0 iff the maps are equal.

    Either side may be a :class:`Channel` or an already checked
    :class:`ChoiMatrix`, which is compared as it stands: the search's
    re-check passes the Choi matrix it summed from a dilation, with no
    Kraus round trip.

    Raises:
        ValueError: "shape mismatch" if dimensions differ.
    """
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise ValueError("shape mismatch")
    a, b = (x.choi if isinstance(x, Channel) else x for x in (a, b))
    return float(np.linalg.norm(a.matrix - b.matrix))


def is_extremal(k: KrausSet) -> bool:
    """Whether a channel with minimal Kraus set ``k`` is extremal.

    Uses the linear-independence criterion: the channel is extremal iff the
    set {Eᵢ†Eⱼ} of all pairwise products is linearly independent. The test
    stacks the vectorized products and compares the numerical rank (singular
    values above ``EXTREMAL_RANK``) against len(k)².
    """
    ops = k.operators
    products = [a.conj().T @ b for a in ops for b in ops]
    stacked = np.stack([p.reshape(-1) for p in products])
    singular_values = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(singular_values > EXTREMAL_RANK))
    return rank == len(ops) ** 2


def random_channel(
    d_in: int,
    d_out: int,
    rng: np.random.Generator,
    kraus_rank: int | None = None,
) -> Channel:
    """Random channel from a Haar-style isometry.

    A Ginibre matrix of shape (d_out·kraus_rank, d_in) is orthonormalized by
    QR; its d_out-row blocks are the Kraus operators. ``kraus_rank`` defaults
    to d_in·d_out (a generic, full-Choi-rank channel).

    Raises:
        ValueError: "dimensions must be positive" unless d_in and d_out are
            integers ≥ 1; "kraus rank too small" if the rank is not an
            integer or cannot give an isometry; "kraus rank too large" if it
            exceeds d_in·d_out, the largest Kraus rank of a channel.
    """
    _check_integers("dimensions must be positive", d_in, d_out)
    if kraus_rank is None:
        kraus_rank = d_in * d_out
    _check_integers("kraus rank too small", kraus_rank)
    if d_out * kraus_rank < d_in:
        raise ValueError("kraus rank too small")
    if kraus_rank > d_in * d_out:
        raise ValueError("kraus rank too large")
    g = rng.normal(size=(d_out * kraus_rank, d_in)) + 1j * rng.normal(
        size=(d_out * kraus_rank, d_in)
    )
    q, _ = np.linalg.qr(g)
    ops = [q[b * d_out : (b + 1) * d_out, :] for b in range(kraus_rank)]
    return Channel.from_kraus(ops)
