"""Dense complex linear algebra helpers: partial traces, deterministic
Hermitian eigendecompositions, and unitary completion.

All functions take and return plain numpy arrays. Composite subsystems are
ordered [initial, final, environment] throughout the package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from numbers import Integral

import numpy as np

from .tolerances import HERMITIAN_INPUT, UNITARY


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex ndarray, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("shape mismatch")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; booleans are not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_INPUT) -> bool:
    """Whether ``m`` is square and within ``atol`` of its conjugate
    transpose in every entry."""
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(
        np.abs(m - m.conj().T).max(initial=0.0) <= atol
    )


def is_unitary(m: np.ndarray, atol: float = UNITARY) -> bool:
    """Whether ``m`` is square and U·U† is within ``atol`` of I in every
    entry."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return bool(np.abs(m @ m.conj().T - eye).max() <= atol)


def partial_trace(m, dims: Iterable[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Args:
        m: square matrix on the full tensor-product space.
        dims: dimension of each subsystem, in tensor order.
        keep: indices of the subsystems to retain (order-insensitive; the
            result keeps them in their original tensor order).

    Returns:
        The reduced matrix over the kept subsystems. The trace is preserved.

    Raises:
        ValueError: "shape mismatch" if a dimension is not a positive
            integer or the matrix side does not equal the product of
            ``dims``; "bad subsystem index" if ``keep`` is empty, holds a
            non-integer or names a subsystem outside ``range(len(dims))``.
    """
    m = as_complex_matrix(m)
    dims = tuple(dims)
    if not dims or not all(_is_integer(d) and d >= 1 for d in dims):
        raise ValueError("shape mismatch")
    side = math.prod(dims)
    if m.shape != (side, side):
        raise ValueError("shape mismatch")
    keep = set(keep)
    if not keep or not all(_is_integer(k) and 0 <= k < len(dims) for k in keep):
        raise ValueError("bad subsystem index")

    t = m.reshape(dims + dims)
    # Trace highest-index subsystems first so lower axis numbers stay valid.
    for ax in sorted(set(range(len(dims))) - keep, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept_side = math.prod(dims[k] for k in keep)
    return t.reshape(kept_side, kept_side)


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix with a deterministic layout.

    Eigenvalues are returned in descending order. Each eigenvector's global
    phase is fixed by making its first component of magnitude > 1e-12 real
    and positive, and eigenvectors within a degenerate block (eigenvalues
    equal within 1e-12) are ordered lexicographically by their (real, imag)
    interleaved entries.

    Returns:
        ``(eigenvalues, eigenvectors)`` with ``m = V @ diag(w) @ V.conj().T``
        and eigenvectors as the columns of ``V``.

    Raises:
        ValueError: "not hermitian" if ``m`` deviates from its conjugate
            transpose by more than ``HERMITIAN_INPUT`` in any entry.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("shape mismatch")
    if not is_hermitian(m):
        raise ValueError("not hermitian")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # Each column has unit norm, so an entry above 1e-12; the first one
    # follows the column's leading run of smaller entries.
    first = np.logical_and.accumulate(np.abs(v) <= 1e-12, axis=0).sum(axis=0)
    lead = v[first, np.arange(len(w))]
    v *= lead.conj() / np.abs(lead)
    # Canonical order inside degenerate blocks.
    start = 0
    for end in range(1, len(w) + 1):
        if end < len(w) and abs(w[end] - w[start]) <= 1e-12:
            continue
        if end - start > 1:
            block = v[:, start:end]
            # Rows re₀, im₀, re₁, im₁, …; lexsort's primary key is its last.
            keys = np.stack([block.real, block.imag], axis=1).reshape(-1, end - start)
            v[:, start:end] = block[:, np.lexsort(keys[::-1])]
        start = end
    return w, v


def _frame(w: np.ndarray) -> np.ndarray:
    """V = [W, W⊥]: the orthonormal columns of W followed by the last n − k
    columns of W's complete QR factor; W itself when square. Unchecked, so
    the searcher can call it at every step; ``complete_unitary`` checks."""
    n, k = w.shape
    return w if k == n else np.hstack([w, np.linalg.qr(w, mode="complete")[0][:, k:]])


def complete_unitary(columns) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The missing columns are the last n − k columns of the complete QR
    factor of ``columns`` (``_frame``): an orthonormal basis of their
    complement, fixed by LAPACK's Householder reflections, so the same
    input always gives the same completion.

    Args:
        columns: an ``n x k`` matrix (or a single length-``n`` vector) whose
            columns are orthonormal within the unitary tolerance.

    Returns:
        An ``n x n`` unitary whose first ``k`` columns equal ``columns``.
    """
    q = np.array(columns, dtype=complex)  # a copy: returned as is when k = n
    if q.ndim == 1:
        q = q[:, None]
    q = as_complex_matrix(q)
    n, k = q.shape
    if k > n:
        raise ValueError("shape mismatch")
    gram = q.conj().T @ q
    if np.abs(gram - np.eye(k)).max(initial=0.0) > UNITARY:
        raise ValueError("columns not orthonormal")
    u = _frame(q)
    if not is_unitary(u):
        raise ValueError("not unitary")
    return u
