"""Tests for the parameter count, the mixed-environment realization search
(its evaluator's residual and Jacobian, its Levenberg–Marquardt solver and
its decoding included), and the perturbation experiment."""

import numpy as np
import pytest

from envchan import (
    LIKELY_NOT_REALIZABLE,
    NUMERICAL_EVIDENCE_NOTE,
    REALIZED,
    Channel,
    CounterexampleParams,
    Dilation,
    SearchConfig,
    build_counterexample,
    channel_from_dilation,
    distance,
    identity_channel,
    parameter_count,
    perturbation_experiment,
    random_channel,
    realization_residual,
    search_mixed_env_realization,
)
import envchan.realizability as realizability
from envchan.dilation import _kraus_columns, _kraus_rows
from envchan.linalg import complete_unitary
from envchan.realizability import (
    _curvature,
    _decode_point,
    _frame,
    _minimal_kraus_rows,
    _objective_and_grad,
    _polar,
    _residual,
    _residual_terms,
    _residual_vector,
    _retract,
    _tangent_basis,
    minimize,
)
from envchan.tolerances import ENV_SPECTRUM_CUTOFF


def haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def realizable_target(d, dp, rng):
    """A channel that by construction has a same-size mixed-environment
    realization."""
    spectrum = rng.dirichlet(np.ones(dp))
    dil = Dilation(
        d_in=d,
        d_fin=dp,
        d_env=0,
        unitary=haar_unitary(d * dp, rng),
        env_state=np.diag(spectrum).astype(complex),
    )
    return channel_from_dilation(dil)


def realizable_point(d, dp, spectrum, rng):
    """A target with a known dilation (Haar U, ``spectrum``), its Kraus rows
    and the evaluator's point W for that dilation: F_{s,a} = √p_s·K_{s,a},
    written as W·E with W = A·E⁺."""
    unitary = haar_unitary(d * dp, rng)
    target = channel_from_dilation(
        Dilation(
            d_in=d,
            d_fin=dp,
            d_env=0,
            unitary=unitary,
            env_state=np.diag(spectrum).astype(complex),
        )
    )
    kraus = _minimal_kraus_rows(target)
    rows = np.sqrt(np.repeat(spectrum, d))[:, None] * _kraus_rows(unitary, d, dp)
    return target, kraus, rows @ np.linalg.pinv(kraus)


def random_isometry(n, kappa, rng):
    """The polar factor of a complex Gaussian n×κ matrix, as the search
    draws its start points."""
    real, imag = rng.normal(size=(2, n, kappa))
    return _polar(real + 1j * imag)


class TestParameterCount:
    def test_oracle_values(self):
        assert parameter_count(2, 2) == 12
        assert parameter_count(3, 2) == 27
        assert parameter_count(2, 3) == 32

    def test_term_by_term(self):
        # spectrum freedom − absorbed basis freedom + unitary group − traced
        # redundancy, which telescopes to d²(d_fin² − 1).
        for d in range(1, 7):
            for dp in range(1, 7):
                terms = (
                    (dp - 1)
                    - (dp - 1)
                    + (d * d * dp * dp - 1)
                    - (d * d - 1)
                )
                assert parameter_count(d, dp) == terms == d * d * (dp * dp - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            parameter_count(0, 2)
        with pytest.raises(ValueError, match="positive"):
            parameter_count(2, -1)

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_non_integer_dimensions(self, dim):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            parameter_count(dim, 2)


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.restarts == 50
        assert config.realizable_threshold < config.nonrealizable_threshold

    def test_validation(self):
        with pytest.raises(ValueError, match="restarts must be positive"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="max_iters must be positive"):
            SearchConfig(max_iters=0)

    @pytest.mark.parametrize("field", ["restarts", "max_iters"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0, True])
    def test_rejects_non_integer_counts(self, field, value):
        # NaN passes a `< 1` check, 2.5 and 3.0 break `range`, and bool is
        # an int subclass: none of them is a count.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = SearchConfig(restarts=np.int64(3), max_iters=np.int32(7))
        assert (config.restarts, config.max_iters) == (3, 7)

    @pytest.mark.parametrize("seed", [2.5, 3.0, float("nan"), True, -1])
    def test_rejects_bad_seed(self, seed):
        # numpy's default_rng would raise TypeError on the non-integers and
        # ValueError on -1, mid-search; the config rejects them up front.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SearchConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(5), np.uint32(2**32 - 1)])
    def test_accepts_integer_seeds(self, seed):
        assert SearchConfig(seed=seed).seed == seed


def u_columns(rows, d, dp):
    """Kraus rows vec(F_k) scattered through the dilation's Kraus layout
    into the columns of U, as the evaluator's Fm."""
    n = d * dp
    fm = np.empty(n * n, dtype=complex)
    fm[_kraus_rows(np.arange(n * n).reshape(n, n), d, dp).ravel()] = rows.ravel()
    return fm.reshape(n, n)


def centred(g, d, dp):
    """g − I_d ⊗ diag(p), with p_s the mean of g's diagonal entries (i, s)
    over i."""
    p = g.diagonal().real.reshape(d, dp).mean(axis=0)
    return g - np.diag(np.tile(p, d))


def gram_residual(w, kraus, d, dp):
    """R = G − I_d ⊗ diag(p) at the isometry w, computed here without the
    evaluator: Fm through the dilation's Kraus layout and G = Fm†Fm."""
    fm = u_columns(w @ kraus, d, dp)
    return centred(fm.conj().T @ fm, d, dp)


def residual_entries(matrix):
    """The diagonal, then √2 times the real and the imaginary parts of the
    upper triangle, of a Hermitian matrix."""
    upper = matrix[np.triu_indices(len(matrix), 1)]
    return np.concatenate(
        [matrix.diagonal().real, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag]
    )


def check_residual_and_jacobian(w, kraus, d, dp, eps=1e-6):
    """Compare the evaluator's r with the independent R, and its J with
    central differences of the independent r along the retraction; returns
    ‖r‖²."""
    n, kappa = w.shape
    residual, fm = _residual(w, kraus, d, dp)
    jac = _objective_and_grad(w, fm, kraus, d, dp)
    expected = gram_residual(w, kraus, d, dp)
    np.testing.assert_allclose(residual, residual_entries(expected), atol=1e-12)
    norm = np.vdot(expected, expected).real
    assert residual @ residual == pytest.approx(norm, rel=1e-12, abs=1e-28)
    # One column per real coordinate of the isometries: 2nκ − κ².
    assert jac.shape == (len(residual), 2 * n * kappa - kappa * kappa)
    fd = np.empty_like(jac)
    for k in range(jac.shape[1]):
        step = np.zeros(jac.shape[1])
        step[k] = eps
        up = residual_entries(gram_residual(_retract(w, step), kraus, d, dp))
        down = residual_entries(gram_residual(_retract(w, -step), kraus, d, dp))
        fd[:, k] = (up - down) / (2 * eps)
    assert np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1.0) < 1e-6
    return norm


class TestGradient:
    def test_matches_finite_differences(self):
        # The residual is the n² independent real entries of the Gram
        # residual, with ‖r‖² = ‖G − I_d ⊗ diag(p)‖², and J must agree with
        # central differences of it for Levenberg–Marquardt to converge.
        rng = np.random.default_rng(7)
        for d, dp in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]:
            target = realizable_target(d, dp, rng)
            kraus = _minimal_kraus_rows(target)
            assert len(kraus) == d * dp
            w = random_isometry(d * dp, len(kraus), rng)
            assert check_residual_and_jacobian(w, kraus, d, dp) > 0.0

    @pytest.mark.parametrize(
        "target",
        [
            identity_channel(2),
            identity_channel(3),
            random_channel(2, 2, np.random.default_rng(15), kraus_rank=2),
            random_channel(3, 2, np.random.default_rng(15), kraus_rank=3),
            random_channel(2, 3, np.random.default_rng(15), kraus_rank=2),
        ],
        ids=["identity-2", "identity-3", "rank-2", "3x2-rank-3", "2x3-rank-2"],
    )
    def test_matches_finite_differences_below_full_rank(self, target):
        # With κ < n, W is a tall isometry and steps also turn it into its
        # complement W⊥.
        d, dp = target.d_in, target.d_out
        kraus = _minimal_kraus_rows(target)
        assert len(kraus) < d * dp
        rng = np.random.default_rng([16, d, len(kraus)])
        w = random_isometry(d * dp, len(kraus), rng)
        assert check_residual_and_jacobian(w, kraus, d, dp) > 0.0

    @pytest.mark.parametrize(
        "d, dp, kappa", [(2, 2, 4), (2, 2, 2), (3, 2, 3), (2, 3, 2), (3, 3, 9), (4, 4, 16)]
    )
    def test_matches_column_by_column_formula(self, d, dp, kappa):
        # Column q of J is the residual entries of dR_q = dG_q − I_d ⊗
        # diag(δp_q), with dG_q = Fm†dFm_q + h.c. and dF_q = V·C_q·E, built
        # here one direction at a time. The evaluator builds all of them in
        # a different order of summation, so they agree to round-off.
        rng = np.random.default_rng([20, d, dp, kappa])
        n = d * dp
        kraus = rng.normal(size=(kappa, n)) + 1j * rng.normal(size=(kappa, n))
        w = random_isometry(n, kappa, rng)
        fm = u_columns(w @ kraus, d, dp)
        columns = []
        for step in _frame(w) @ _tangent_basis(n, kappa)[0]:
            dg = fm.conj().T @ u_columns(step @ kraus, d, dp)
            columns.append(residual_entries(centred(dg + dg.conj().T, d, dp)))
        jac = _objective_and_grad(w, _residual(w, kraus, d, dp)[1], kraus, d, dp)
        np.testing.assert_allclose(jac, np.array(columns).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, kappa", [(4, 4), (4, 2), (9, 3), (6, 1)])
    def test_steps_are_orthonormal_tangents(self, n, kappa):
        # The steps dW_q = V·C_q are orthonormal in the real inner product
        # Re tr(X†Y), as many as the isometries' dimension, and tangent to
        # them (W†dW anti-Hermitian); the retraction keeps an isometry.
        rng = np.random.default_rng([19, n, kappa])
        w = random_isometry(n, kappa, rng)
        steps = _frame(w) @ _tangent_basis(n, kappa)[0]
        assert len(steps) == 2 * n * kappa - kappa * kappa
        flat = steps.reshape(len(steps), -1)
        gram = (flat.conj() @ flat.T).real
        np.testing.assert_allclose(gram, np.eye(len(steps)), atol=1e-12)
        inner = w.conj().T @ steps
        np.testing.assert_allclose(inner, -inner.conj().transpose(0, 2, 1), atol=1e-12)
        moved = _retract(w, rng.normal(size=len(steps)))
        np.testing.assert_allclose(moved.conj().T @ moved, np.eye(kappa), atol=1e-12)

    @pytest.mark.parametrize("n, kappa", [(9, 3), (6, 1)])
    def test_frame_is_the_shared_completion(self, n, kappa):
        # Below full rank the searcher's frame [W, W⊥] is the completion
        # that the Stinespring dilation and the family match also use.
        w = random_isometry(n, kappa, np.random.default_rng([21, n, kappa]))
        np.testing.assert_array_equal(_frame(w), complete_unitary(w))

    @pytest.mark.parametrize("d, dp, kappa", [(2, 2, 4), (3, 2, 3), (2, 3, 2)])
    def test_jacobian_tables_are_cached_and_read_only(self, d, dp, kappa):
        # The residual's entries for one block and for the Q blocks of J,
        # and the tangent basis in both layouts, are built once per argument
        # and shared, so no caller may write to them.
        n = d * dp
        basis, rows = tables = _tangent_basis(n, kappa)
        assert _tangent_basis(n, kappa) is tables
        assert _tangent_basis(n, kappa - 1) is not tables
        assert basis.shape == (2 * n * kappa - kappa * kappa, n, kappa)
        assert rows.shape == (n, len(basis) * kappa)
        arrays = list(tables)
        for blocks in (1, len(basis)):
            terms = _residual_terms(n, blocks)
            assert _residual_terms(n, blocks) is terms
            assert _residual_terms(n + 1, blocks) is not terms
            assert terms[0].shape == (n * n, blocks)
            arrays += terms
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    @pytest.mark.parametrize("d, dp, blocks", [(2, 2, 3), (3, 2, 5), (4, 4, 2)])
    def test_side_by_side_blocks_match_single_blocks(self, d, dp, blocks):
        # m matrices set side by side give, bit for bit, the columns of m
        # single-matrix residuals: J's table is the one-block table spread.
        rng = np.random.default_rng([23, d, dp, blocks])
        n = d * dp
        h = rng.normal(size=(n, blocks * n)) + 1j * rng.normal(size=(n, blocks * n))
        single = [_residual_vector(h[:, q * n:(q + 1) * n], d, dp) for q in range(blocks)]
        stacked = _residual_vector(h, d, dp)
        assert stacked.shape == (n * n, blocks)
        assert np.array_equal(stacked, np.column_stack(single))


class TestCurvature:
    @pytest.mark.parametrize("d, dp, kappa", [(2, 2, 4), (3, 2, 3), (2, 3, 2), (3, 3, 9)])
    def test_matches_central_differences(self, d, dp, kappa):
        # r_vv is the second derivative of the residual along the
        # retraction t ↦ polar(W + t·dW), κ < n included; central
        # differences of the evaluator's residual at ±h·v agree with it to
        # O(h²) plus round-off of order ε‖r‖/h².
        rng = np.random.default_rng([22, d, dp, kappa])
        n, h = d * dp, 1e-4
        kraus = rng.normal(size=(kappa, n)) + 1j * rng.normal(size=(kappa, n))
        w = random_isometry(n, kappa, rng)
        step = rng.normal(size=2 * n * kappa - kappa * kappa)
        residual, fm = _residual(w, kraus, d, dp)
        fd = (
            _residual(_retract(w, h * step), kraus, d, dp)[0]
            - 2.0 * residual
            + _residual(_retract(w, -h * step), kraus, d, dp)[0]
        ) / (h * h)
        curvature = _curvature(w, fm, step, kraus, d, dp)
        assert np.linalg.norm(curvature - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("d, dp, kappa", [(2, 2, 4), (3, 2, 3), (4, 4, 16)])
    def test_point_state_matches_fresh_kraus_columns(self, d, dp, kappa):
        # ``minimize`` hands J and the curvature the Fm that ``_residual``
        # built at the same point. The reference is that Fm built afresh,
        # ``_kraus_columns(w @ kraus, d, dp)``: given either, J and the
        # curvature must give the same bits.
        rng = np.random.default_rng([24, d, dp, kappa])
        n = d * dp
        kraus = rng.normal(size=(kappa, n)) + 1j * rng.normal(size=(kappa, n))
        w = random_isometry(n, kappa, rng)
        step = rng.normal(size=2 * n * kappa - kappa * kappa)
        residual, fm = _residual(w, kraus, d, dp)
        fresh = _kraus_columns(w @ kraus, d, dp)
        assert np.array_equal(fm, fresh)
        assert np.array_equal(residual, _residual_vector(fresh.conj().T @ fresh, d, dp)[:, 0])
        assert np.array_equal(
            _objective_and_grad(w, fm, kraus, d, dp),
            _objective_and_grad(w, fresh, kraus, d, dp),
        )
        assert np.array_equal(
            _curvature(w, fm, step, kraus, d, dp), _curvature(w, fresh, step, kraus, d, dp)
        )


class TestDecode:
    @pytest.mark.parametrize("d, dp", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_known_dilation_is_a_zero(self, d, dp):
        # A dilation of the target is a zero of the residual and a
        # stationary point of ‖r‖², and decoding it gives a realization the
        # independent re-check accepts.
        rng = np.random.default_rng([17, d, dp])
        spectrum = rng.dirichlet(np.ones(dp))
        target, kraus, w = realizable_point(d, dp, spectrum, rng)
        residual, fm = _residual(w, kraus, d, dp)
        jac = _objective_and_grad(w, fm, kraus, d, dp)
        assert residual @ residual < 1e-26
        assert np.linalg.norm(jac.T @ residual) < 1e-12
        unitary, decoded = _decode_point(w, kraus, d, dp)
        np.testing.assert_allclose(decoded, spectrum, atol=1e-12)
        assert realization_residual(target, unitary, decoded) < 1e-12

    def test_pure_initialization_decodes_to_unitary(self):
        # p_1 = 0 leaves Fm's s = 1 columns exactly zero; decoding must not
        # divide by zero, and the polar factor completes those columns.
        rng = np.random.default_rng(18)
        target, kraus, w = realizable_point(2, 2, np.array([1.0, 0.0]), rng)
        unitary, spectrum = _decode_point(w, kraus, 2, 2)
        assert spectrum[1] == 0.0
        dilation = Dilation(
            d_in=2,
            d_fin=2,
            d_env=0,
            unitary=unitary,
            env_state=np.diag(spectrum).astype(complex),
        )
        assert distance(channel_from_dilation(dilation), target) < 1e-12

    def test_round_off_spectrum_is_not_amplified(self):
        # A pure initialization reached numerically leaves round-off, not
        # zeros, in the s = 1 Kraus operators (rows 2 and 3 of F). Scaled
        # by 1/√p_1 that noise would no longer be orthonormal and would
        # wreck the polar factor; decoding must treat p_1 as zero.
        rng = np.random.default_rng(18)
        target, kraus, w = realizable_point(2, 2, np.array([1.0, 0.0]), rng)
        w[2:] = 1e-11 * (rng.normal(size=w[2:].shape) + 1j * rng.normal(size=w[2:].shape))
        unitary, spectrum = _decode_point(w, kraus, 2, 2)
        assert 0.0 < spectrum[1] <= ENV_SPECTRUM_CUTOFF
        assert realization_residual(target, unitary, spectrum) < 1e-9


def rosenbrock(x):
    """Rosenbrock's function as residuals (10(x₂ − x₁²), 1 − x₁), zero at
    (1, 1), with no state for the other callbacks."""
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]), None


def rosenbrock_jacobian(x, state):
    """The Jacobian of ``rosenbrock``."""
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def rosenbrock_curvature(x, state, v):
    """The second derivative of ``rosenbrock`` along x + t·v."""
    return np.array([-20.0 * v[0] ** 2, 0.0])


# Run on ℝⁿ, where a step's retraction is x + δ.
EUCLIDEAN = {"residual": rosenbrock, "curvature": rosenbrock_curvature, "retract": np.add}


class TestMinimize:
    def test_converges_on_a_zero_residual(self):
        res = minimize(
            rosenbrock_jacobian, np.array([-1.2, 1.0]), **EUCLIDEAN, options={"maxiter": 200}
        )
        assert res.status == 0
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
        assert 0 < res.nit < 200
        assert res.nfev == res.nit + 1

    def test_capped_run_reports_status_one(self):
        res = minimize(
            rosenbrock_jacobian, np.array([-1.2, 1.0]), **EUCLIDEAN, options={"maxiter": 3}
        )
        assert res.status == 1
        assert res.nit == 3

    def test_deterministic(self):
        a = minimize(
            rosenbrock_jacobian, np.array([-1.2, 1.0]), **EUCLIDEAN, options={"maxiter": 200}
        )
        b = minimize(
            rosenbrock_jacobian, np.array([-1.2, 1.0]), **EUCLIDEAN, options={"maxiter": 200}
        )
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.nit, a.nfev) == (b.nit, b.nfev)

    def test_passes_args_and_leaves_x0_alone(self):
        # A least-squares fit of a line through three points, shifted by an
        # argument: the minimum has a non-zero residual.
        t = np.array([0.0, 1.0, 2.0])

        def line(x, shift):
            return x[0] + x[1] * t - (np.array([1.0, 2.0, 4.0]) + shift), None

        x0 = np.zeros(2)
        res = minimize(
            lambda x, state, shift: np.stack([np.ones(3), t], axis=1),
            x0,
            args=(1.0,),
            residual=line,
            curvature=lambda x, state, v, shift: np.zeros(3),
            retract=np.add,
            options={"maxiter": 100},
        )
        assert res.status == 0
        np.testing.assert_allclose(res.x, [11.0 / 6.0, 1.5], atol=1e-6)
        np.testing.assert_array_equal(x0, np.zeros(2))


class TestSearch:
    def test_recovers_realizable_channel(self):
        rng = np.random.default_rng(9)
        target = realizable_target(2, 2, rng)
        result = search_mixed_env_realization(target, SearchConfig(restarts=10))
        assert result.verdict == REALIZED
        assert result.best_residual < 1e-6
        np.testing.assert_allclose(np.sum(result.best_env_spectrum), 1.0, atol=1e-12)

    def test_identity_is_realized(self):
        result = search_mixed_env_realization(
            identity_channel(2), SearchConfig(restarts=10)
        )
        assert result.verdict == REALIZED

    def test_early_stop_shortens_history(self):
        result = search_mixed_env_realization(
            identity_channel(2), SearchConfig(restarts=50)
        )
        # The loop breaks at the first restart that beats the threshold.
        assert len(result.residual_history) < 50

    @pytest.mark.parametrize("seed", range(6))
    def test_kraus_rank_two_channels_are_realized(self, seed):
        # Kraus rank 2 ≤ d: a pure initialization realizes these, so the
        # search ends at a spectrum with one entry at round-off, which
        # decoding must treat as zero.
        target = random_channel(2, 2, np.random.default_rng(seed), kraus_rank=2)
        result = search_mixed_env_realization(target, SearchConfig(restarts=5))
        assert result.verdict == REALIZED

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        target = realizable_target(2, 2, rng)
        config = SearchConfig(restarts=3, seed=42)
        a = search_mixed_env_realization(target, config)
        b = search_mixed_env_realization(target, config)
        assert a.verdict == b.verdict
        assert a.best_residual == b.best_residual
        np.testing.assert_array_equal(a.best_unitary, b.best_unitary)
        np.testing.assert_array_equal(a.best_env_spectrum, b.best_env_spectrum)
        assert a.residual_history == b.residual_history

    def test_counterexample_flagged(self):
        target = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        )
        result = search_mixed_env_realization(target, SearchConfig(restarts=5))
        assert result.verdict == LIKELY_NOT_REALIZABLE
        assert result.best_residual > 1e-3

    def test_more_restarts_never_worse(self):
        target = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        )
        few = search_mixed_env_realization(target, SearchConfig(restarts=2))
        more = search_mixed_env_realization(target, SearchConfig(restarts=6))
        assert more.best_residual <= few.best_residual + 1e-12

    def test_traced_layer_names_are_called(self, monkeypatch):
        # The benchmark traces the objective, each restart, each re-check
        # and the re-check's dilation, distance and Choi constructor by
        # rebinding these names; the search must call through them,
        # re-checking once per restart run.
        calls = {
            "objective": 0, "maxiter": [], "recheck": 0,
            "channel_from_dilation": 0, "distance": 0, "from_choi": 0,
        }
        objective, minimize = realizability._objective_and_grad, realizability.minimize
        recheck = realizability.realization_residual
        from_dilation, distance_ = realizability.channel_from_dilation, realizability.distance
        from_choi = vars(Channel)["from_choi"].__func__

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_minimize(*args, **kwargs):
            calls["maxiter"].append(kwargs["options"]["maxiter"])
            return minimize(*args, **kwargs)

        def counted_recheck(*args):
            calls["recheck"] += 1
            return recheck(*args)

        def counted_from_dilation(*args):
            calls["channel_from_dilation"] += 1
            return from_dilation(*args)

        def counted_distance(*args):
            calls["distance"] += 1
            return distance_(*args)

        def counted_from_choi(cls, *args, **kwargs):
            calls["from_choi"] += 1
            return from_choi(cls, *args, **kwargs)

        monkeypatch.setattr(realizability, "_objective_and_grad", counted_objective)
        monkeypatch.setattr(realizability, "channel_from_dilation", counted_from_dilation)
        monkeypatch.setattr(realizability, "distance", counted_distance)
        monkeypatch.setattr(Channel, "from_choi", classmethod(counted_from_choi))
        monkeypatch.setattr(realizability, "realization_residual", counted_recheck)
        monkeypatch.setattr(realizability, "minimize", counted_minimize)
        target = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        )
        result = search_mixed_env_realization(
            target, SearchConfig(restarts=2, max_iters=40)
        )
        assert len(result.residual_history) == 2
        assert calls["maxiter"] == [40, 40]
        assert calls["objective"] > 2
        assert calls["recheck"] == 2
        for layer in ("channel_from_dilation", "distance", "from_choi"):
            assert calls[layer] >= calls["recheck"], layer

    def test_jacobian_only_at_start_and_accepted_points(self, monkeypatch):
        # Every point costs one residual; J is built at the start point and
        # at each accepted point that does not end the run, never at a
        # rejected one. Below ``_ACCELERATE_BELOW`` each trial first takes
        # the curvature at the current point. Accepted means ‖r‖² went
        # down, and the run ends on a decrease of at most ``_DECREASE_STOP``
        # of ‖r‖² or at the cap, so the trial costs alone fix the exact
        # order of the calls. Each J and curvature call is tagged with ‖r‖²
        # at its own point, recomputed here outside the count.
        calls, results = [], []
        objective, residual = realizability._objective_and_grad, realizability._residual
        curvature, minimize = realizability._curvature, realizability.minimize

        def counted_objective(w, fm, *args):
            r, own = residual(w, *args)
            assert np.array_equal(fm, own)  # the state of this point
            calls.append(("jacobian", r @ r))
            return objective(w, fm, *args)

        def counted_curvature(w, fm, step, *args):
            r, own = residual(w, *args)
            assert np.array_equal(fm, own)
            calls.append(("curvature", r @ r))
            return curvature(w, fm, step, *args)

        def counted_residual(*args):
            r, fm = residual(*args)
            calls.append(("residual", r @ r))
            return r, fm

        def kept_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(realizability, "_objective_and_grad", counted_objective)
        monkeypatch.setattr(realizability, "_curvature", counted_curvature)
        monkeypatch.setattr(realizability, "_residual", counted_residual)
        monkeypatch.setattr(realizability, "minimize", kept_minimize)
        member = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
        realizable = realizable_target(2, 2, np.random.default_rng(9))
        kinds = []
        for target, max_iters in [(member, 60), (realizable, 60), (realizable, 5)]:
            calls.clear()
            search_mixed_env_realization(
                target, SearchConfig(restarts=1, max_iters=max_iters)
            )
            start, *trials = [cost for kind, cost in calls if kind == "residual"]
            expected, cost, accepted = [("residual", start), ("jacobian", start)], start, 0
            for nit, trial in enumerate(trials, 1):
                if cost < realizability._ACCELERATE_BELOW:
                    expected.append(("curvature", cost))
                expected.append(("residual", trial))
                if trial < cost:
                    ends = cost - trial <= realizability._DECREASE_STOP * cost
                    if not ends and nit < max_iters:
                        expected.append(("jacobian", trial))
                    cost, accepted = trial, accepted + 1
            assert calls == expected
            kinds.append({kind for kind, _ in calls})
            assert 0 < accepted < len(trials)
            res = results[-1]
            assert res.nfev == res.nit + 1 == len(trials) + 1
        # The member never reaches the acceleration, the realizable target
        # does, and the capped run ends at the cap.
        assert "curvature" not in kinds[0] and "curvature" in kinds[1]
        assert (results[1].status, results[2].status) == (0, 1)

        # A restart cut by the cap still ends on an isometry.
        target = realizable_target(4, 4, np.random.default_rng(20))
        search_mixed_env_realization(target, SearchConfig(restarts=1, max_iters=10))
        w = results[-1].x
        assert results[-1].status == 1
        assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])) <= 1e-12

    def test_member_search_never_takes_the_curvature(self, monkeypatch):
        # ‖r‖² stays above ``_ACCELERATE_BELOW`` on every restart for the
        # (2,2) ρ′ = diag(½, ½) member, so its search runs plain
        # Levenberg–Marquardt; the same counter sees the identity's search
        # take the curvature.
        calls = []
        curvature = realizability._curvature

        def counted_curvature(*args):
            calls.append(1)
            return curvature(*args)

        monkeypatch.setattr(realizability, "_curvature", counted_curvature)
        member = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
        result = search_mixed_env_realization(member)
        assert result.verdict == LIKELY_NOT_REALIZABLE
        assert len(result.residual_history) == SearchConfig().restarts
        assert calls == []
        assert search_mixed_env_realization(identity_channel(2)).verdict == REALIZED
        assert calls

    def test_criterion_08_target_8_does_not_crawl(self, monkeypatch):
        # The ninth criterion-08 target sits in a curved valley near its
        # zero residual: plain Levenberg–Marquardt took 437 trials on
        # restart 0, the geodesic acceleration finishes it in under 100.
        rng = np.random.default_rng(108)
        for _ in range(9):
            target = channel_from_dilation(
                Dilation(
                    d_in=2,
                    d_fin=2,
                    d_env=0,
                    unitary=haar_unitary(4, rng),
                    env_state=np.diag(rng.dirichlet(np.ones(2))).astype(complex),
                )
            )
        results, minimize = [], realizability.minimize

        def kept_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(realizability, "minimize", kept_minimize)
        result = search_mixed_env_realization(target, SearchConfig(restarts=1))
        (res,) = results
        assert res.status == 0
        assert res.nit <= 100
        assert result.residual_history[0] < 1e-6

    @pytest.mark.parametrize(
        "target, verdict",
        [
            (identity_channel(2), REALIZED),
            (
                build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5]))),
                LIKELY_NOT_REALIZABLE,
            ),
        ],
        ids=["realized", "likely-not-realizable"],
    )
    def test_best_residual_is_least_of_history(self, target, verdict):
        # Every history entry is a re-checked residual, and the best one is
        # the result's, exactly.
        result = search_mixed_env_realization(target, SearchConfig(restarts=3))
        assert result.verdict == verdict
        assert min(result.residual_history) == result.best_residual

    def test_reported_residual_is_reverified(self):
        rng = np.random.default_rng(11)
        target = realizable_target(2, 2, rng)
        result = search_mixed_env_realization(target, SearchConfig(restarts=5))
        recomputed = realization_residual(
            target, result.best_unitary, result.best_env_spectrum
        )
        assert result.best_residual == pytest.approx(recomputed, abs=1e-15)


class TestPerturbation:
    def test_rejects_bad_radius(self):
        center = identity_channel(2)
        with pytest.raises(ValueError, match="radius too large"):
            perturbation_experiment(center, 1.0, 2)
        with pytest.raises(ValueError, match="radius too large"):
            perturbation_experiment(center, float("nan"), 2)
        with pytest.raises(ValueError, match="radius must be positive"):
            perturbation_experiment(center, 0.0, 2)
        with pytest.raises(ValueError, match="n_samples must be positive"):
            perturbation_experiment(center, 0.1, 0)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            perturbation_experiment(center, 0.01, 2.5)

    def test_neighborhood_of_counterexample(self):
        center = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        )
        report = perturbation_experiment(
            center, 0.005, 2, SearchConfig(restarts=6, max_iters=500)
        )
        assert report.n_samples == 2
        assert len(report.verdicts) == 2
        assert report.fraction_likely_not_realizable == 1.0
        assert report.residual_min <= report.residual_median <= report.residual_max
        assert min(report.best_residuals) == report.residual_min
        assert report.note == NUMERICAL_EVIDENCE_NOTE

    def test_deterministic(self):
        center = identity_channel(2)
        config = SearchConfig(restarts=2, max_iters=300, seed=5)
        a = perturbation_experiment(center, 0.01, 2, config)
        b = perturbation_experiment(center, 0.01, 2, config)
        assert a.best_residuals == b.best_residuals
        assert a.verdicts == b.verdicts
