"""Tests for partial traces, eigendecomposition, and unitary completion."""

import numpy as np
import pytest

from envchan import (
    ChoiMatrix,
    CounterexampleParams,
    Dilation,
    KrausSet,
    apply,
    basis_state,
    build_counterexample,
    complete_unitary,
    eig_hermitian,
    identity_channel,
    implementing_unitary,
    is_hermitian,
    is_unitary,
    maximally_mixed,
    partial_trace,
    random_channel,
    random_density_matrix,
    random_pure_state,
)
from envchan.channels import apply_from_choi
from envchan.linalg import _is_psd, as_complex_matrix
from envchan.tolerances import CHANNEL, UNITARY

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def haar_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(2, rng)
        a = a @ a.conj().T
        a /= np.trace(a)
        b = random_hermitian(3, rng)
        b = b @ b.conj().T
        b /= np.trace(b)
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), [2, 3], keep={0}), a, atol=1e-12
        )

    def test_bell_state_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(
            partial_trace(rho, [2, 2], keep={1}), np.eye(2) / 2, atol=1e-12
        )

    def test_keep_everything_is_identity_operation(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_array_equal(partial_trace(m, [3], keep={0}), m)

    def test_trace_preserving_and_linear(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            alpha, beta = rng.normal(), rng.normal()
            left = partial_trace(alpha * a + beta * b, [2, 3, 2], keep={1})
            right = alpha * partial_trace(a, [2, 3, 2], keep={1}) + beta * partial_trace(
                b, [2, 3, 2], keep={1}
            )
            np.testing.assert_allclose(left, right, atol=1e-10)
            assert abs(np.trace(partial_trace(a, [2, 3, 2], keep={2})) - np.trace(a)) < 1e-10

    def test_tensor_then_trace_scales_by_partner_trace(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), [3, 2], keep={0}), np.trace(b) * a, atol=1e-10
        )

    def test_multi_subsystem_keep(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 2, 3)]
        joint = np.kron(np.kron(mats[0], mats[1]), mats[2])
        expected = np.trace(mats[1]) * np.kron(mats[0], mats[2])
        np.testing.assert_allclose(
            partial_trace(joint, [2, 2, 3], keep={0, 2}), expected, atol=1e-10
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            partial_trace(np.eye(5), [2, 2], keep={0})

    def test_bad_subsystem_index(self):
        with pytest.raises(ValueError, match="bad subsystem index"):
            partial_trace(np.eye(4), [2, 2], keep={2})
        with pytest.raises(ValueError, match="bad subsystem index"):
            partial_trace(np.eye(4), [2, 2], keep=set())

    @pytest.mark.parametrize("dims", [[2.9, 2.2], [2.0, 2], [True, 4]])
    def test_rejects_non_integer_dimensions(self, dims):
        # Truncating [2.9, 2.2] to (2, 2) would trace a 4x4 matrix silently.
        with pytest.raises(ValueError, match="shape mismatch"):
            partial_trace(np.eye(4), dims, keep={0})

    @pytest.mark.parametrize("keep", [{True}, {0.7}, {0, 1.0}])
    def test_rejects_non_integer_keep(self, keep):
        with pytest.raises(ValueError, match="bad subsystem index"):
            partial_trace(np.eye(4), [2, 2], keep=keep)

    def test_numpy_integers_are_valid(self):
        a = random_density_matrix(2, np.random.default_rng(8))
        reduced = partial_trace(
            np.kron(a, np.eye(2) / 2), np.array([2, 2]), keep={np.int64(0)}
        )
        np.testing.assert_allclose(reduced, a, atol=1e-12)


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_diagonal_input(self):
        w, v = eig_hermitian(np.diag([0.7, 0.3]))
        np.testing.assert_allclose(w, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_bit_flip_spectrum(self):
        # X has eigenpairs (+1, (|0⟩+|1⟩)/√2) and (−1, (|0⟩−|1⟩)/√2).
        w, v = eig_hermitian(X)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(v[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(v[:, 1], [s, -s], atol=1e-12)

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            m = random_hermitian(n, rng)
            w, v = eig_hermitian(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert is_unitary(v)
            np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(4, rng)
        w1, v1 = eig_hermitian(m)
        w2, v2 = eig_hermitian(m.copy())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(v1, v2)

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(5, rng)
        # Zero first rows and columns give eigenvectors whose first entries
        # are exactly zero, so their phase is fixed by a later entry.
        sparse = np.zeros((5, 5), dtype=complex)
        sparse[2:, 2:] = random_hermitian(3, rng)
        for m in (m, sparse):
            w, v = eig_hermitian(m)
            np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)
            for col in v.T:
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0
        assert any(col[0] == 0 for col in eig_hermitian(sparse)[1].T)
        w, v = eig_hermitian(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)

    def test_phase_matches_column_loop(self):
        # The phase is fixed by one gather and one multiply; fixing it one
        # column at a time is the reference, bit for bit, on spectra without
        # degenerate blocks (whose reordering the loop leaves out).
        rng = np.random.default_rng(17)
        for n, zero in ((1, 0), (1, 1), (3, 0), (6, 0), (6, 1)):
            m = random_hermitian(n, rng)
            m[:zero], m[:, :zero] = 0, 0
            v = np.linalg.eigh((m + m.conj().T) / 2)[1][:, ::-1].copy()
            for j in range(n):
                col = v[:, j]
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                v[:, j] = col * (lead.conj() / abs(lead))
            assert np.array_equal(eig_hermitian(m)[1], v)

    def test_block_order_matches_tuple_sort(self):
        # Each degenerate block is ordered by one lexsort; sorting the
        # columns by tuples of their interleaved (re, im) entries, block by
        # block from each block's first eigenvalue, is the reference, bit
        # for bit. The (3,2) member's Choi matrix has blocks at 1, ½ and 0,
        # and eigh's columns there are out of order.
        choi = build_counterexample(CounterexampleParams(3, 2, np.diag([0.5, 0.5]))).choi.matrix
        reordered = False
        for m in (np.eye(2), np.diag([0.5, 0.5]), choi):
            w, v = np.linalg.eigh(m)
            w, v = w[::-1], v[:, ::-1].copy()
            for j in range(len(w)):
                col = v[:, j]
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                v[:, j] = col * (lead.conj() / abs(lead))
            expected = v.copy()
            start = 0
            for end in range(1, len(w) + 1):
                if end < len(w) and abs(w[end] - w[start]) <= 1e-12:
                    continue
                block = v[:, start:end]
                keys = [tuple(np.column_stack([c.real, c.imag]).ravel()) for c in block.T]
                expected[:, start:end] = block[:, sorted(range(end - start), key=keys.__getitem__)]
                start = end
            assert np.array_equal(eig_hermitian(m)[1], expected)
            reordered |= not np.array_equal(expected, v)
        assert reordered

    def test_not_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestCompleteUnitary:
    def test_extends_columns(self):
        rng = np.random.default_rng(8)
        for n, k in ((4, 1), (6, 3), (5, 5)):
            q = haar_unitary(n, rng)[:, :k]
            u = complete_unitary(q)
            assert is_unitary(u)
            np.testing.assert_allclose(u[:, :k], q, atol=1e-12)

    def test_single_vector_input(self):
        vec = np.array([0.6, 0.8j, 0, 0])
        u = complete_unitary(vec)
        assert is_unitary(u)
        np.testing.assert_allclose(u[:, 0], vec, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        q = haar_unitary(5, rng)[:, :2]
        np.testing.assert_array_equal(complete_unitary(q), complete_unitary(q.copy()))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_unitary(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_overflowing_columns(self):
        # The Gram matrix overflows to inf and NaN entries, and a NaN defect
        # is never within tolerance, so the orthonormality check rejects the
        # input before the completion is built. The overflow comes from the
        # input, so its RuntimeWarnings, which the test settings turn into
        # errors, are silenced here.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="columns not orthonormal"):
                complete_unitary(1e200 * np.array([1 + 1j, 1 - 1j]))


def test_hermitian_predicate():
    assert is_hermitian(X)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_unitary(X)
    assert not is_unitary(2 * X)
    assert not is_unitary(np.ones((2, 3)))


def test_empty_matrix_is_unitary():
    # As is_hermitian, is_unitary holds vacuously for a 0 × 0 matrix.
    assert is_hermitian(np.zeros((0, 0)))
    assert is_unitary(np.zeros((0, 0)))


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.5])
def test_within_gives_each_old_verdict(factor):
    # Five sites once wrote "within atol in every entry" by hand, in two
    # forms; each old expression is kept here as the reference, with its
    # own comparison and its own `initial`. Every input is finite, and its
    # largest defect is `factor` times the tolerance: where the tolerance
    # is an argument it is set from the measured defect, so at 1.0 the two
    # are equal and the boundary is pinned.
    rng = np.random.default_rng([26, int(10 * factor)])
    tiny = 1e-11 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    verdicts = []

    h = random_hermitian(2, rng) + tiny
    atol = np.abs(h - h.conj().T).max(initial=0.0) / factor
    old = bool(np.abs(h - h.conj().T).max(initial=0.0) <= atol)
    verdicts.append((is_hermitian(h, atol), old))

    u = haar_unitary(2, rng) + tiny
    eye = np.eye(2)
    atol = np.abs(u @ u.conj().T - eye).max() / factor
    old = bool(np.abs(u @ u.conj().T - eye).max() <= atol)
    verdicts.append((is_unitary(u, atol), old))

    # UNITARY is fixed here, so the defect is one exact off-diagonal entry
    # of the Gram matrix.
    q = np.eye(3, 2, dtype=complex)
    q[0, 1] = factor * UNITARY
    old = not np.abs(q.conj().T @ q - np.eye(2)).max(initial=0.0) > UNITARY
    verdicts.append((_accepts(lambda: complete_unitary(q)), old))

    ops = tuple((1 + CHANNEL) * op for op in random_channel(2, 2, rng).kraus.operators)
    stacked = np.concatenate(ops)
    total = stacked.conj().T @ stacked
    atol = np.abs(total - np.eye(2)).max() / factor
    old = not np.abs(total - np.eye(2)).max() > atol
    verdicts.append((_accepts(lambda: KrausSet(ops, atol=atol)), old))

    m = (1 + CHANNEL) * random_channel(2, 2, rng).choi.matrix
    reduced = np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    atol = np.abs(reduced - np.eye(2)).max() / factor
    old = not np.abs(reduced - np.eye(2)).max() > atol
    verdicts.append((_accepts(lambda: ChoiMatrix(2, 2, m, atol=atol)), old))

    assert verdicts == [(factor <= 1, factor <= 1)] * 5


# The callers that pass as_complex_matrix a shape: a 1-D input and a finite
# matrix of the wrong shape are a shape mismatch, but non-finite entries are
# named first, whatever the shape.
SHAPED = {
    "ChoiMatrix": lambda m: ChoiMatrix(2, 2, m),
    "apply": lambda m: apply(identity_channel(2), m),
    "apply_from_choi": lambda m: apply_from_choi(identity_channel(2).choi, m),
    "CounterexampleParams": lambda m: CounterexampleParams(2, 2, m),
    "Dilation": lambda m: Dilation(
        d_in=2, d_fin=2, d_env=0, unitary=m, env_state=np.diag([1.0, 0.0])
    ),
}
MISSHAPEN = {
    "vector": (np.ones(4), "shape mismatch"),
    "wrong-shape": (np.eye(3), "shape mismatch"),
    "nan-wrong-shape": (np.full((3, 3), np.nan), "matrix entries must be finite"),
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_complex_matrix(np.ones(3)), "shape mismatch"),
        (lambda: eig_hermitian(np.ones((2, 3))), "shape mismatch"),
        (lambda: complete_unitary(np.eye(2, 3)), "shape mismatch"),
    ] + [
        (lambda site=site, m=m: site(m), message)
        for site in SHAPED.values() for m, message in MISSHAPEN.values()
    ],
    ids=["as_complex_matrix-vector", "eig_hermitian-non-square", "complete_unitary-wide"]
    + [f"{name}-{kind}" for name in SHAPED for kind in MISSHAPEN],
)
def test_rejects_mismatched_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "entries", [[1e308, 1e308], [1e308, 1e308, 0.1]], ids=["nan-spectrum", "no-convergence"]
)
def test_uncomputable_spectrum_is_not_psd(entries):
    # Finite entries whose Hermitian part overflows: LAPACK returns NaN
    # eigenvalues for the 2 × 2 and fails to converge on the 3 × 3.
    with np.errstate(over="ignore", invalid="ignore"):
        assert not _is_psd(np.diag(entries).astype(complex), 1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_rejects_non_finite_part(bad, part):
    # One np.isfinite over the complex entries sees a non-finite real part
    # and a non-finite imaginary part alike.
    m = np.ones((2, 3), dtype=complex)
    m[1, 2] = complex(bad, 0.5) if part == "real" else complex(0.5, bad)
    assert np.isfinite(getattr(m[1, 2], "imag" if part == "real" else "real"))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        as_complex_matrix(m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: basis_state(2.0, 0), "dimension must be positive"),
        (lambda rng: maximally_mixed(2.0), "dimension must be positive"),
        (lambda rng: random_pure_state(2.0, rng), "dimension must be positive"),
        (lambda rng: random_pure_state(0, rng), "dimension must be positive"),
        (lambda rng: random_density_matrix(2.0, rng), "rank must be between 1 and dim"),
        (
            lambda rng: implementing_unitary(2.0, 2, 0.6, 0.8),
            "dimensions must be at least 2",
        ),
        (lambda rng: random_channel(2, 2, rng, kraus_rank=2.0), "kraus rank too small"),
    ],
    ids=[
        "basis_state", "maximally_mixed", "random_pure_state",
        "random_pure_state-zero", "random_density_matrix",
        "implementing_unitary", "random_channel",
    ],
)
def test_constructors_reject_bad_sizes(call, message):
    # A float size would otherwise reach numpy and fail with a TypeError;
    # random_pure_state(0) returned an empty vector.
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))
