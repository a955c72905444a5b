"""Tests for the parameter count, the mixed-environment realization search
(its evaluator's residual and Jacobian, its Levenberg–Marquardt solver and
its decoding included), and the perturbation experiment."""

import numpy as np
import pytest

from envchan import (
    LIKELY_NOT_REALIZABLE,
    NUMERICAL_EVIDENCE_NOTE,
    REALIZED,
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
from envchan.dilation import _kraus_rows
from envchan.realizability import (
    _decode_point,
    _minimal_kraus_rows,
    _objective_and_grad,
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
    and the evaluator's point x for that dilation: F_{s,a} = √p_s·K_{s,a},
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
    w = rows @ np.linalg.pinv(kraus)
    return target, kraus, np.concatenate([w.real.ravel(), w.imag.ravel()])


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
        with pytest.raises(ValueError, match="below"):
            SearchConfig(realizable_threshold=1e-2, nonrealizable_threshold=1e-3)

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


def gram_residual(x, kraus, d, dp):
    """R = G − I_d ⊗ diag(p) at the point x, computed here without the
    evaluator: W from an SVD, Fm through the dilation's Kraus layout, G =
    Fm†Fm and p_s the mean of G's diagonal entries (i, s) over i."""
    n = d * dp
    half = n * len(kraus)
    m = (x[:half] + 1j * x[half:]).reshape(n, -1)
    left, _, right = np.linalg.svd(m, full_matrices=False)
    fm = np.empty(n * n, dtype=complex)
    fm[_kraus_rows(np.arange(n * n).reshape(n, n), d, dp).ravel()] = (
        left @ right @ kraus
    ).ravel()
    fm = fm.reshape(n, n)
    g = fm.conj().T @ fm
    p = g.diagonal().real.reshape(d, dp).mean(axis=0)
    return g - np.diag(np.tile(p, d))


def residual_entries(matrix):
    """The diagonal, then √2 times the real and the imaginary parts of the
    upper triangle, of a Hermitian matrix."""
    upper = matrix[np.triu_indices(len(matrix), 1)]
    return np.concatenate(
        [matrix.diagonal().real, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag]
    )


def check_residual_and_jacobian(x, kraus, d, dp, eps=1e-6):
    """Compare the evaluator's r with the independent R, and its J with
    central differences of the independent r; returns ‖r‖²."""
    residual, jac = _objective_and_grad(x, kraus, d, dp)
    expected = gram_residual(x, kraus, d, dp)
    np.testing.assert_allclose(residual, residual_entries(expected), atol=1e-12)
    norm = np.vdot(expected, expected).real
    assert residual @ residual == pytest.approx(norm, rel=1e-12, abs=1e-28)
    assert jac.shape == (len(residual), len(x))
    fd = np.empty_like(jac)
    for k in range(len(x)):
        step = np.zeros(len(x))
        step[k] = eps
        up = residual_entries(gram_residual(x + step, kraus, d, dp))
        down = residual_entries(gram_residual(x - step, kraus, d, dp))
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
            x = rng.normal(size=2 * d * dp * len(kraus))
            assert check_residual_and_jacobian(x, kraus, d, dp) > 0.0

    @pytest.mark.parametrize(
        "target",
        [
            identity_channel(2),
            identity_channel(3),
            random_channel(2, 2, np.random.default_rng(15), kraus_rank=2),
        ],
        ids=["identity-2", "identity-3", "rank-2"],
    )
    def test_matches_finite_differences_below_full_rank(self, target):
        # With κ < n, W is a tall isometry and M†M is κ×κ.
        d, dp = target.d_in, target.d_out
        kraus = _minimal_kraus_rows(target)
        assert len(kraus) < d * dp
        rng = np.random.default_rng([16, d, len(kraus)])
        x = rng.normal(size=2 * d * dp * len(kraus))
        assert check_residual_and_jacobian(x, kraus, d, dp) > 0.0


class TestDecode:
    @pytest.mark.parametrize("d, dp", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_known_dilation_is_a_zero(self, d, dp):
        # A dilation of the target is a zero of the residual and a
        # stationary point of ‖r‖², and decoding it gives a realization the
        # independent re-check accepts.
        rng = np.random.default_rng([17, d, dp])
        spectrum = rng.dirichlet(np.ones(dp))
        target, kraus, x = realizable_point(d, dp, spectrum, rng)
        residual, jac = _objective_and_grad(x, kraus, d, dp)
        assert residual @ residual < 1e-26
        assert np.linalg.norm(jac.T @ residual) < 1e-12
        unitary, decoded = _decode_point(x, kraus, d, dp)
        np.testing.assert_allclose(decoded, spectrum, atol=1e-12)
        assert realization_residual(target, unitary, decoded) < 1e-12

    def test_pure_initialization_decodes_to_unitary(self):
        # p_1 = 0 leaves Fm's s = 1 columns exactly zero; decoding must not
        # divide by zero, and the polar factor completes those columns.
        rng = np.random.default_rng(18)
        target, kraus, x = realizable_point(2, 2, np.array([1.0, 0.0]), rng)
        unitary, spectrum = _decode_point(x, kraus, 2, 2)
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
        target, kraus, x = realizable_point(2, 2, np.array([1.0, 0.0]), rng)
        half = len(x) // 2
        w = (x[:half] + 1j * x[half:]).reshape(4, -1)
        w[2:] = 1e-11 * (rng.normal(size=w[2:].shape) + 1j * rng.normal(size=w[2:].shape))
        x = np.concatenate([w.real.ravel(), w.imag.ravel()])
        unitary, spectrum = _decode_point(x, kraus, 2, 2)
        assert 0.0 < spectrum[1] <= ENV_SPECTRUM_CUTOFF
        assert realization_residual(target, unitary, spectrum) < 1e-9


def rosenbrock(x):
    """Rosenbrock's function as residuals (10(x₂ − x₁²), 1 − x₁), zero at
    (1, 1), and their Jacobian."""
    residual = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
    return residual, jac


class TestMinimize:
    def test_converges_on_a_zero_residual(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), options={"maxiter": 200})
        assert res.status == 0
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
        assert 0 < res.nit < 200
        assert res.nfev == res.nit + 1

    def test_capped_run_reports_status_one(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), options={"maxiter": 3})
        assert res.status == 1
        assert res.nit == 3

    def test_deterministic(self):
        a = minimize(rosenbrock, np.array([-1.2, 1.0]), options={"maxiter": 200})
        b = minimize(rosenbrock, np.array([-1.2, 1.0]), options={"maxiter": 200})
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.nit, a.nfev) == (b.nit, b.nfev)

    def test_passes_args_and_leaves_x0_alone(self):
        # A least-squares fit of a line through three points, shifted by an
        # argument: the minimum has a non-zero residual.
        def line(x, shift):
            t = np.array([0.0, 1.0, 2.0])
            residual = x[0] + x[1] * t - (np.array([1.0, 2.0, 4.0]) + shift)
            return residual, np.stack([np.ones(3), t], axis=1)

        x0 = np.zeros(2)
        res = minimize(line, x0, args=(1.0,), options={"maxiter": 100})
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
        # The benchmark traces the objective, each restart and each re-check
        # by rebinding these module-level names; the search must call
        # through them, re-checking once per restart run.
        calls = {"objective": 0, "maxiter": [], "recheck": 0}
        objective, minimize = realizability._objective_and_grad, realizability.minimize
        recheck = realizability.realization_residual

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_minimize(*args, **kwargs):
            calls["maxiter"].append(kwargs["options"]["maxiter"])
            return minimize(*args, **kwargs)

        def counted_recheck(*args):
            calls["recheck"] += 1
            return recheck(*args)

        monkeypatch.setattr(realizability, "_objective_and_grad", counted_objective)
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
