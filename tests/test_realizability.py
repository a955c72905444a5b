"""Tests for the parameter count, the mixed-environment realization search
(including its analytic gradient), and the perturbation experiment."""

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
    identity_channel,
    parameter_count,
    perturbation_experiment,
    realization_residual,
    search_mixed_env_realization,
)
import envchan.realizability as realizability
from envchan.realizability import (
    _decode_point,
    _objective_and_grad,
    _pack_hermitian,
    _plan,
)


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


def _reference_objective_and_grad(x, target_choi, d, dp):
    """The evaluator in its einsum formulation, with index arrays rebuilt on
    every call: the reference ``_objective_and_grad`` is checked against."""
    n = d * dp
    nh = n * n
    iu = np.triu_indices(n, k=1)
    il = (iu[1], iu[0])
    m = len(iu[0])
    h = np.zeros((n, n), dtype=complex)
    h[np.diag_indices(n)] = x[:n]
    h[iu] = x[n : n + m] + 1j * x[n + m : nh]
    h[il] = x[n : n + m] - 1j * x[n + m : nh]
    z = x[nh:]
    ez = np.exp(z - z.max())
    p = ez / ez.sum()

    w, v = np.linalg.eigh(h)
    eiw = np.exp(1j * w)
    u = (v * eiw) @ v.conj().T
    # vecs[s, a, (i·dp + m)] = U[(a, m), (i, s)]
    vecs = np.transpose(u.reshape(d, dp, d, dp), (3, 0, 2, 1)).reshape(dp, d, n)
    choi = np.einsum("s,sav,saw->vw", p, vecs, vecs.conj())
    diff = choi - target_choi
    value = float(np.real(np.einsum("vw,vw->", diff.conj(), diff)))

    wv = np.einsum("vw,saw->sav", diff, vecs)
    q = 2.0 * np.real(np.einsum("sav,sav->s", vecs.conj(), wv))
    grad_z = p * (q - np.dot(q, p))

    g4 = np.einsum("s,sav->sav", p, wv).reshape(dp, d, d, dp)
    g = np.transpose(g4, (1, 3, 2, 0)).reshape(n, n)
    dw = w[:, None] - w[None, :]
    same = np.abs(dw) <= 1e-12
    phi = (eiw[:, None] - eiw[None, :]) / np.where(same, 1.0, dw)
    phi[same] = (1j * np.broadcast_to(eiw[:, None], phi.shape))[same]
    gh = v @ (np.conj(phi) * (v.conj().T @ g @ v)) @ v.conj().T
    grad_h = 4.0 * np.concatenate(
        [
            np.real(np.diagonal(gh)),
            np.real(gh[il] + gh[iu]),
            np.real(1j * gh[il] - 1j * gh[iu]),
        ]
    )
    return value, np.concatenate([grad_h, grad_z])


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


def finite_difference_error(x, target_choi, d, dp, grad, eps=1e-6):
    """Distance of ``grad`` from central differences of the objective,
    relative to the larger of their norm and 1."""
    fd = np.empty(len(x))
    for k in range(len(x)):
        step = np.zeros(len(x))
        step[k] = eps
        up, _ = _objective_and_grad(x + step, target_choi, d, dp)
        down, _ = _objective_and_grad(x - step, target_choi, d, dp)
        fd[k] = (up - down) / (2 * eps)
    return np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)


class TestGradient:
    def test_matches_finite_differences(self):
        # Central differences around random points; the analytic gradient
        # must agree to high relative accuracy for the optimizer to work.
        rng = np.random.default_rng(7)
        for d, dp in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]:
            target = realizable_target(d, dp, rng)
            x = rng.normal(size=(d * dp) ** 2 + dp)
            value, grad = _objective_and_grad(x, target.choi.matrix, d, dp)
            assert value >= 0.0
            assert finite_difference_error(x, target.choi.matrix, d, dp, grad) < 1e-6

    @pytest.mark.parametrize("d, dp", [(2, 2), (3, 2)])
    def test_degenerate_spectrum(self, d, dp):
        # At H = 0 every eigenvalue coincides; the second point has H with a
        # repeated eigenvalue, so the divided differences also take their
        # coincidence limit off the diagonal.
        rng = np.random.default_rng([14, d, dp])
        n = d * dp
        target = realizable_target(d, dp, rng)
        w = rng.normal(size=n)
        w[1] = w[0]
        q = haar_unitary(n, rng)
        h = (q * w) @ q.conj().T
        iu = np.triu_indices(n, k=1)
        packed = np.concatenate([h.diagonal().real, h[iu].real, h[iu].imag])
        spectrum = np.linalg.eigvalsh(_pack_hermitian(packed, _plan(d, dp)))
        assert np.sum(np.diff(spectrum) <= 1e-12) == 1
        for h_part in (np.zeros(n * n), packed):
            x = np.concatenate([h_part, rng.normal(size=dp)])
            value, grad = _objective_and_grad(x, target.choi.matrix, d, dp)
            ref_value, ref_grad = _reference_objective_and_grad(
                x, target.choi.matrix, d, dp
            )
            assert abs(value - ref_value) <= 1e-12 * ref_value
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
            assert finite_difference_error(x, target.choi.matrix, d, dp, grad) < 1e-6

    @pytest.mark.parametrize("d, dp", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_value_is_squared_residual(self, d, dp):
        # The evaluator's gather and the dilation path share the Kraus layout;
        # its value must be the square of the independent re-check's residual.
        rng = np.random.default_rng([13, d, dp])
        target = realizable_target(d, dp, rng)
        for _ in range(3):
            x = rng.normal(size=(d * dp) ** 2 + dp)
            value, _ = _objective_and_grad(x, target.choi.matrix, d, dp)
            residual = realization_residual(target, *_decode_point(x, d, dp))
            assert value == pytest.approx(residual**2, rel=1e-12, abs=0)

    def test_pack_hermitian(self):
        rng = np.random.default_rng(8)
        h = _pack_hermitian(rng.normal(size=9), _plan(3, 1))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    @pytest.mark.parametrize("d, dp", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_matches_reference(self, d, dp):
        # Matmuls reassociate the einsum sums, so agreement is to roundoff,
        # not bit for bit.
        rng = np.random.default_rng([12, d, dp])
        for _ in range(5):
            target = realizable_target(d, dp, rng)
            x = rng.normal(size=(d * dp) ** 2 + dp)
            value, grad = _objective_and_grad(x, target.choi.matrix, d, dp)
            ref_value, ref_grad = _reference_objective_and_grad(
                x, target.choi.matrix, d, dp
            )
            assert abs(value - ref_value) <= 1e-12 * ref_value
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


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
        # The benchmark traces the objective and each restart by rebinding
        # these two module-level names; the search must call through them.
        calls = {"objective": 0, "maxiter": []}
        objective, minimize = realizability._objective_and_grad, realizability.minimize

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_minimize(*args, **kwargs):
            calls["maxiter"].append(kwargs["options"]["maxiter"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(realizability, "_objective_and_grad", counted_objective)
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
