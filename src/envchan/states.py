"""Pure and mixed quantum states: construction, validation, purity, and
seeded random generators.

States are plain numpy arrays — vectors for pure states, square matrices for
density matrices — validated by the functions here rather than wrapped in
classes.
"""

from __future__ import annotations

import numpy as np

from .linalg import _is_psd, as_complex_matrix, is_hermitian
from .sizes import _check_integers, _is_integer
from .tolerances import DENSITY_MATRIX, PSD, PURE_PURITY_GAP, STATE_NORM


def basis_state(dim: int, index: int) -> np.ndarray:
    """Standard basis vector |index⟩ in a ``dim``-dimensional space."""
    _check_integers("dimension must be positive", dim)
    if not (_is_integer(index) and 0 <= index < dim):
        raise ValueError("bad subsystem index")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def validate_pure_state(vec) -> np.ndarray:
    """Coerce to a complex vector and check unit norm within ``STATE_NORM``."""
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("shape mismatch")
    as_complex_matrix(v[None, :])  # rejects non-finite entries
    if abs(np.linalg.norm(v) - 1.0) > STATE_NORM:
        raise ValueError("not normalized")
    return v


def projector(vec) -> np.ndarray:
    """Rank-1 projector |v⟩⟨v| onto a unit vector."""
    v = validate_pure_state(vec)
    return np.outer(v, v.conj())


def validate_density_matrix(rho, *, atol: float = DENSITY_MATRIX) -> np.ndarray:
    """Coerce and validate a density matrix.

    Checks, in order: squareness, hermiticity (entrywise within ``atol``),
    positive semidefiniteness (eigenvalues above ``-max(atol, PSD)``), and
    unit trace (within ``atol``).

    Returns:
        The validated matrix as a complex ndarray.
    """
    m = as_complex_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError("shape mismatch")
    if not is_hermitian(m, atol):
        raise ValueError("not hermitian")
    if not _is_psd(m, max(atol, PSD)):
        raise ValueError("not positive semidefinite")
    if abs(np.trace(m).real - 1.0) > atol or abs(np.trace(m).imag) > atol:
        raise ValueError("trace not one")
    return m


def purity(rho) -> float:
    """tr(ρ²) — equals 1 exactly for pure states, 1/dim for maximally mixed."""
    m = as_complex_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError("shape mismatch")
    return float(np.real(np.trace(m @ m)))


def is_pure(rho) -> bool:
    """Whether purity(rho) ≥ 1 − PURE_PURITY_GAP."""
    return purity(rho) >= 1.0 - PURE_PURITY_GAP


def maximally_mixed(dim: int) -> np.ndarray:
    """The state I/dim."""
    _check_integers("dimension must be positive", dim)
    return np.eye(dim, dtype=complex) / dim


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    _check_integers("dimension must be positive", dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Random density matrix GG†/tr(GG†) with G a dim×rank Ginibre matrix.

    ``rank`` defaults to ``dim`` (full rank, almost surely).

    Raises:
        ValueError: "rank must be between 1 and dim" unless dim and rank are
            integers with 1 ≤ rank ≤ dim.
    """
    if rank is None:
        rank = dim
    if not (_is_integer(dim) and _is_integer(rank)) or not 1 <= rank <= dim:
        raise ValueError("rank must be between 1 and dim")
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real
