"""Tests for the collapse-family channels, their explicit dilation, the
analytic certificate, and family detection."""

import numpy as np
import pytest

from envchan import (
    NOT_REALIZABLE,
    Channel,
    CounterexampleParams,
    apply,
    basis_state,
    build_counterexample,
    certify_nonrealizable,
    channel_from_dilation,
    distance,
    identity_channel,
    implementing_unitary,
    is_unitary,
    match_family,
    projector,
    random_density_matrix,
    random_pure_state,
)

S = 1 / np.sqrt(2)


def admissible_target(d_fin, rng, d=3):
    """Random truly mixed image, with overlap on |0'⟩ when d = 2."""
    while True:
        rho = random_density_matrix(d_fin, rng)
        if d == 2 and rho[0, 0].real <= 1e-6:
            continue
        return rho


def family_action(params, psi):
    """The defining action on a pure input, evaluated directly."""
    weight_collapse = float(np.sum(np.abs(psi[: params.d - 1]) ** 2))
    weight_mixed = float(np.abs(psi[params.d - 1]) ** 2)
    pure = projector(basis_state(params.d_fin, 0))
    return weight_collapse * pure + weight_mixed * params.rho_target


class TestParams:
    def test_rejects_pure_target(self):
        with pytest.raises(ValueError, match="target image must be mixed"):
            CounterexampleParams(3, 2, np.diag([1.0, 0.0]))

    def test_rejects_missing_overlap_for_d2(self):
        with pytest.raises(ValueError, match="d=2 requires overlap"):
            CounterexampleParams(2, 3, np.diag([0.0, 0.5, 0.5]))

    def test_overlap_not_required_above_d2(self):
        params = CounterexampleParams(3, 3, np.diag([0.0, 0.5, 0.5]))
        assert params.overlap == 0.0

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError, match="at least 2"):
            CounterexampleParams(1, 2, np.diag([0.5, 0.5]))

    def test_rejects_wrong_target_shape(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            CounterexampleParams(3, 3, np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_non_integer_dimensions(self, dim):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            CounterexampleParams(dim, 2, np.diag([0.5, 0.5]))

    def test_target_is_a_read_only_copy(self):
        # Mutating the caller's array must not turn a validated member
        # into a pure-target non-member.
        rho = np.diag([0.5, 0.5]).astype(complex)
        params = CounterexampleParams(3, 2, rho)
        rho[:] = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(params.rho_target, np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="read-only"):
            params.rho_target[0, 0] = 1.0
        assert certify_nonrealizable(params).claim == NOT_REALIZABLE


class TestBuildCounterexample:
    def test_basis_state_images(self):
        params = CounterexampleParams(3, 2, np.diag([0.5, 0.5]))
        ch = build_counterexample(params)
        pure = np.diag([1.0, 0.0])
        np.testing.assert_allclose(apply(ch, projector(basis_state(3, 0))), pure, atol=1e-12)
        np.testing.assert_allclose(apply(ch, projector(basis_state(3, 1))), pure, atol=1e-12)
        np.testing.assert_allclose(
            apply(ch, projector(basis_state(3, 2))), params.rho_target, atol=1e-12
        )

    def test_superposition_decoheres(self):
        params = CounterexampleParams(3, 2, np.diag([0.5, 0.5]))
        ch = build_counterexample(params)
        psi = (basis_state(3, 0) + basis_state(3, 2)) * S
        expected = 0.5 * np.diag([1.0, 0.0]) + 0.5 * params.rho_target
        np.testing.assert_allclose(apply(ch, projector(psi)), expected, atol=1e-12)

    def test_phase_independence(self):
        params = CounterexampleParams(4, 3, admissible_target(3, np.random.default_rng(0)))
        ch = build_counterexample(params)
        rng = np.random.default_rng(1)
        for i in range(params.d - 1):
            base = None
            for _ in range(4):
                theta = rng.uniform(0, 2 * np.pi)
                psi = (basis_state(4, i) + np.exp(1j * theta) * basis_state(4, 3)) * S
                image = apply(ch, projector(psi))
                if base is None:
                    base = image
                np.testing.assert_allclose(image, base, atol=1e-10)

    def test_action_formula_random(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            for d_fin in (2, 3):
                params = CounterexampleParams(d, d_fin, admissible_target(d_fin, rng, d))
                ch = build_counterexample(params)
                for _ in range(10):
                    psi = random_pure_state(d, rng)
                    np.testing.assert_allclose(
                        apply(ch, projector(psi)), family_action(params, psi), atol=1e-10
                    )

    def test_kraus_count_for_half_half_target(self):
        # One collapse operator plus one per spectral component of ρ':
        # the 4×4 Choi is diag(1, 0, ½, ½), rank 3.
        params = CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        ch = build_counterexample(params)
        assert len(ch.kraus) == 3
        np.testing.assert_allclose(
            np.linalg.eigvalsh(ch.choi.matrix), [0.0, 0.5, 0.5, 1.0], atol=1e-12
        )


class TestImplementingUnitary:
    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError, match="coefficients must be nonzero"):
            implementing_unitary(2, 2, 1.0, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            implementing_unitary(2, 2, 1.0, 1.0)

    def test_unitary_and_environment_shape(self):
        dil = implementing_unitary(3, 2, S, S)
        assert dil.d_env == 2
        assert is_unitary(dil.unitary)

    def test_half_half_image(self):
        # |1⟩⟨1| ↦ diag(½, ½): trace the dilation output by hand or here.
        ch = channel_from_dilation(implementing_unitary(2, 2, S, S))
        np.testing.assert_allclose(
            apply(ch, projector(basis_state(2, 1))), np.eye(2) / 2, atol=1e-12
        )
        assert apply(ch, projector(basis_state(2, 1)))[0, 0].real == pytest.approx(0.5)

    def test_matches_family_member(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for _ in range(5):
                phase_a, phase_b = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
                a = rng.uniform(0.2, 0.8)
                alpha, beta = phase_a * np.sqrt(a), phase_b * np.sqrt(1 - a)
                dil = implementing_unitary(d, 2, alpha, beta)
                rho = np.diag([abs(alpha) ** 2, abs(beta) ** 2]).astype(complex)
                target = build_counterexample(CounterexampleParams(d, 2, rho))
                assert distance(channel_from_dilation(dil), target) < 1e-9


class TestCertificate:
    def test_d3_counting(self):
        cert = certify_nonrealizable(CounterexampleParams(3, 2, np.diag([0.5, 0.5])))
        assert cert.claim == NOT_REALIZABLE
        assert cert.rank_tested == 2
        assert cert.vectors_required == 4
        assert cert.dimension_available == 3
        assert cert.decoherence_contradiction
        assert not cert.d2_branch_used
        assert any("4 > 3" in step for step in cert.narrative)

    def test_d2_branch(self):
        cert = certify_nonrealizable(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
        assert cert.claim == NOT_REALIZABLE
        assert cert.d2_branch_used
        assert any("<0'|image|0'> = 0" in step for step in cert.narrative)
        assert any("rank 1" in step for step in cert.narrative)

    def test_d2_with_larger_output_combines_branches(self):
        cert = certify_nonrealizable(
            CounterexampleParams(2, 3, np.diag([0.4, 0.3, 0.3]))
        )
        assert cert.claim == NOT_REALIZABLE
        assert cert.d2_branch_used
        # rank 3 still dies by counting: 3·(2−1) = 3 > 2.
        assert any("3 > 2" in step for step in cert.narrative)

    def test_claim_invariant(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4, 5):
            for d_fin in (2, 3):
                params = CounterexampleParams(d, d_fin, admissible_target(d_fin, rng, d))
                cert = certify_nonrealizable(params)
                assert cert.claim == NOT_REALIZABLE
                counting_closes = cert.vectors_required > cert.dimension_available
                d2_closes = (
                    params.d == 2
                    and cert.decoherence_contradiction
                    and cert.d2_branch_used
                )
                assert counting_closes or d2_closes


class TestMatchFamily:
    def test_detects_family_member(self):
        params = CounterexampleParams(3, 2, np.diag([0.7, 0.3]))
        match = match_family(build_counterexample(params))
        assert match is not None
        assert match.choi_distance < 1e-10
        np.testing.assert_allclose(match.params.rho_target, params.rho_target, atol=1e-10)

    def test_detects_rotated_member(self):
        # Conjugate the output by a unitary; detection must still work and
        # report the canonical (|0'⟩-aligned) parameters.
        rng = np.random.default_rng(5)
        params = CounterexampleParams(3, 2, admissible_target(2, rng))
        ch = build_counterexample(params)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v, _ = np.linalg.qr(g)
        rotated = Channel.from_kraus([v @ op for op in ch.kraus.operators])
        match = match_family(rotated)
        assert match is not None
        assert match.choi_distance < 1e-8
        # The canonical target must be spectrally identical to the original.
        np.testing.assert_allclose(
            np.linalg.eigvalsh(match.params.rho_target),
            np.linalg.eigvalsh(params.rho_target),
            atol=1e-9,
        )
        cert = certify_nonrealizable(match.params)
        assert cert.claim == NOT_REALIZABLE

    def test_rejects_identity(self):
        assert match_family(identity_channel(2)) is None

    def test_rejects_total_collapse(self):
        # All inputs collapse to |0'⟩⟨0'|: no mixed image, not in the family.
        ops = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
        ops[0][0, 0] = 1.0
        ops[1][0, 1] = 1.0
        assert match_family(Channel.from_kraus(ops)) is None

    def test_rejects_d2_zero_overlap_member(self):
        # Family-shaped channel at d = 2 whose mixed image misses |0'⟩: the
        # certificate's rank-2 branch needs the overlap, so no match.
        ops = [
            np.array([[1, 0], [0, 0], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, S], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, 0], [0, S]], dtype=complex),
        ]
        assert match_family(Channel.from_kraus(ops)) is None
