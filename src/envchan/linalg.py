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
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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
        np.max(np.abs(m - m.conj().T), initial=0.0) <= atol
    )


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m @ m.conj().T - eye)) <= UNITARY)


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
        ValueError: "shape mismatch" if the matrix side does not equal the
            product of ``dims``; "bad subsystem index" if ``keep`` is empty
            or names a subsystem outside ``range(len(dims))``.
    """
    m = as_complex_matrix(m)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("shape mismatch")
    side = math.prod(dims)
    if m.shape != (side, side):
        raise ValueError("shape mismatch")
    keep_idx = sorted(set(int(k) for k in keep))
    if not keep_idx or keep_idx[0] < 0 or keep_idx[-1] >= len(dims):
        raise ValueError("bad subsystem index")

    t = m.reshape(dims + dims)
    # Trace highest-index subsystems first so lower axis numbers stay valid.
    for ax in sorted(set(range(len(dims))) - set(keep_idx), reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept_side = math.prod(dims[k] for k in keep_idx)
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
    for j in range(v.shape[1]):
        col = v[:, j]
        big = np.flatnonzero(np.abs(col) > 1e-12)
        if big.size:
            lead = col[big[0]]
            v[:, j] = col * (lead.conj() / abs(lead))
    # Canonical order inside degenerate blocks.
    start = 0
    for end in range(1, len(w) + 1):
        if end < len(w) and abs(w[end] - w[start]) <= 1e-12:
            continue
        if end - start > 1:
            block = v[:, start:end]
            keys = [
                tuple(np.column_stack([block[:, t].real, block[:, t].imag]).ravel())
                for t in range(end - start)
            ]
            order = sorted(range(end - start), key=keys.__getitem__)
            v[:, start:end] = block[:, order]
        start = end
    return w, v


def complete_unitary(columns) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The missing columns are chosen deterministically: at each step the
    standard-basis vector with the largest residual after projecting out the
    columns found so far is orthogonalized (twice, for numerical stability)
    and appended.

    Args:
        columns: an ``n x k`` matrix (or a single length-``n`` vector) whose
            columns are orthonormal within the unitary tolerance.

    Returns:
        An ``n x n`` unitary whose first ``k`` columns equal ``columns``.
    """
    q = np.asarray(columns, dtype=complex)
    if q.ndim == 1:
        q = q[:, None]
    q = as_complex_matrix(q)
    n, k = q.shape
    if k > n:
        raise ValueError("shape mismatch")
    gram = q.conj().T @ q
    if np.max(np.abs(gram - np.eye(k)), initial=0.0) > UNITARY:
        raise ValueError("columns not orthonormal")

    cols = [q[:, j] for j in range(k)]
    basis = np.eye(n, dtype=complex)
    while len(cols) < n:
        qmat = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)
        residuals = basis - qmat @ (qmat.conj().T @ basis)
        pick = int(np.argmax(np.linalg.norm(residuals, axis=0)))
        vec = residuals[:, pick]
        vec = vec - qmat @ (qmat.conj().T @ vec)
        cols.append(vec / np.linalg.norm(vec))
    u = np.column_stack(cols)
    if not is_unitary(u):
        raise ValueError("not unitary")
    return u
