"""Tests for Kraus/Choi representations, conversions, mixing, distance, and
extremality."""

import numpy as np
import pytest

from envchan import (
    Channel,
    ChoiMatrix,
    KrausSet,
    apply,
    choi_to_kraus,
    distance,
    identity_channel,
    is_extremal,
    kraus_to_choi,
    mix,
    projector,
    random_channel,
    random_density_matrix,
    validate_density_matrix,
)
from envchan.channels import apply_from_choi
from envchan.linalg import partial_trace
from envchan.tolerances import CHANNEL

X = np.array([[0, 1], [1, 0]], dtype=complex)
S = 1 / np.sqrt(2)


def bit_flip_channel():
    return Channel.from_kraus([X])


def collapse_to_zero_channel():
    # E_i = |0'⟩⟨i|: every input collapses onto |0'⟩⟨0'|.
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 1], [0, 0]], dtype=complex)
    return Channel.from_kraus([e0, e1])


class TestKrausSet:
    def test_dimensions(self):
        k = identity_channel(3).kraus
        assert (k.d_in, k.d_out, len(k)) == (3, 3, 1)

    def test_rejects_non_tp(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausSet((np.eye(2) * 0.5,))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            KrausSet((np.eye(2), np.eye(3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            KrausSet(())

    @pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 2), (2, 3)])
    def test_trace_check_matches_operator_sum(self, d_in, d_out):
        # The check forms Σᵢ Eᵢ†Eᵢ as one product of the stacked operators,
        # which sums in another order than the loop over the operators kept
        # here as the reference. Scaled just inside and just outside the
        # tolerance, a set must be decided as the reference decides.
        ops = random_channel(d_in, d_out, np.random.default_rng([25, d_in, d_out])).kraus.operators
        outside = []
        for factor in (1 + 0.5 * CHANNEL, 1 + 2 * CHANNEL):
            scaled = tuple(np.sqrt(factor) * op for op in ops)
            total = sum(op.conj().T @ op for op in scaled)
            outside.append(np.abs(total - np.eye(d_in)).max() > CHANNEL)
            if outside[-1]:
                with pytest.raises(ValueError, match="not trace preserving"):
                    KrausSet(scaled)
            else:
                KrausSet(scaled)
        assert outside == [False, True]

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 2)])
    def test_rejects_zero_dimension(self, shape):
        # A zero dimension is a shape error, reported before numpy's
        # zero-size reduction error or the trace-preservation check.
        with pytest.raises(ValueError, match="shape mismatch"):
            KrausSet((np.zeros(shape),))
        with pytest.raises(ValueError, match="shape mismatch"):
            Channel.from_kraus([np.zeros(shape)])

    @pytest.mark.parametrize(
        "ops",
        [
            (np.eye(2), np.full((3, 3), np.nan)),
            (np.array([[np.inf, 0.0]]), np.eye(2)),
            (np.eye(2), np.full((3, 3), complex(0.0, -np.inf))),
        ],
        ids=["nan-second", "inf-first", "imaginary-inf"],
    )
    def test_non_finite_entry_is_named_before_shapes(self, ops):
        # Each operator is checked on its own before the set's shapes are
        # compared or the operators stacked.
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            KrausSet(ops)

    def test_rejects_overflowing_operator_sum(self):
        # Σ E†E overflows to inf and NaN entries, and a NaN defect is never
        # within tolerance. The overflow comes from the input, so its
        # RuntimeWarnings, which the test settings turn into errors, are
        # silenced here.
        huge = 1e200 * np.array([[1, 1], [1, 1j]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not trace preserving"):
                KrausSet((huge,))
            with pytest.raises(ValueError, match="not trace preserving"):
                Channel.from_kraus([huge])

    def test_operators_are_read_only(self):
        k = identity_channel(2).kraus
        with pytest.raises(ValueError):
            k.operators[0][0, 0] = 5.0


class TestKrausToChoi:
    def test_identity_channel(self):
        # Choi of identity = 2|Φ⁺⟩⟨Φ⁺|: ones at the (00, 11) corners.
        expected = np.zeros((4, 4), dtype=complex)
        for r in (0, 3):
            for c in (0, 3):
                expected[r, c] = 1.0
        choi = identity_channel(2).choi
        np.testing.assert_allclose(choi.matrix, expected, atol=1e-15)

    def test_collapse_channel(self):
        # Derived block-by-block: Choi = I₂ ⊗ |0'⟩⟨0'|.
        choi = collapse_to_zero_channel().choi
        np.testing.assert_allclose(choi.matrix, np.diag([1.0, 0, 1.0, 0]), atol=1e-15)

    def test_unitary_channel_rank_one(self):
        choi = bit_flip_channel().choi
        eigenvalues = np.linalg.eigvalsh(choi.matrix)
        assert np.sum(eigenvalues > 1e-10) == 1

    def test_trace_is_input_dimension(self):
        rng = np.random.default_rng(0)
        for d_in, d_out in ((2, 2), (3, 2), (2, 3)):
            ch = random_channel(d_in, d_out, rng)
            assert np.trace(ch.choi.matrix).real == pytest.approx(d_in, abs=1e-10)


class TestChoiValidation:
    def test_rejects_non_positive(self):
        # Hermitian, trace-preserving, but with a negative eigenvalue.
        m = identity_channel(2).choi.matrix.copy()
        m[0, 0] -= 0.1
        m[1, 1] += 0.1
        with pytest.raises(ValueError, match="not completely positive"):
            ChoiMatrix(2, 2, m)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            ChoiMatrix(2, 2, 1.5 * np.diag([1.0, 0, 1.0, 0]))

    def test_rejects_overflowing_hermitian_part(self):
        # Trace preserving, but the Hermitian part overflows to inf and its
        # spectrum is NaN, which is never above the PSD floor. The overflow
        # comes from the input, so its RuntimeWarnings are silenced here.
        huge = np.array([[0.5, 1e308], [1e308, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not completely positive"):
                ChoiMatrix(1, 2, huge)

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_non_integer_dimensions(self, dim):
        # The completely depolarizing channel on int(dim) inputs.
        with pytest.raises(ValueError, match="shape mismatch"):
            ChoiMatrix(dim, 2, np.eye(2 * int(dim)) / 2)

    def test_rejects_wrong_side(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ChoiMatrix(2, 2, np.eye(3))

    @pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 2), (2, 3)])
    def test_trace_check_matches_partial_trace(self, d_in, d_out):
        # The check reduces over the output factor by one reshape and
        # np.trace; partial_trace, with its argument checks, is the
        # reference, bit for bit. A non-unital channel scaled just inside
        # and just outside the tolerance must be decided as the reference
        # decides, which also fails a reduction over the input factor.
        rng = np.random.default_rng([24, d_in, d_out])
        m = random_channel(d_in, d_out, rng).choi.matrix
        fast = np.trace(m.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
        assert np.array_equal(fast, partial_trace(m, [d_in, d_out], keep={0}))
        outside = []
        for scale in (1 + 0.5 * CHANNEL, 1 + 2 * CHANNEL):
            reduced = partial_trace(scale * m, [d_in, d_out], keep={0})
            outside.append(np.abs(reduced - np.eye(d_in)).max() > CHANNEL)
            if outside[-1]:
                with pytest.raises(ValueError, match="not trace preserving"):
                    ChoiMatrix(d_in, d_out, scale * m)
            else:
                ChoiMatrix(d_in, d_out, scale * m)
        assert outside == [False, True]


class TestChoiToKraus:
    def test_identity_choi_gives_identity_operator(self):
        k = choi_to_kraus(identity_channel(2).choi)
        assert len(k) == 1
        op = k.operators[0]
        phase = op[0, 0] / abs(op[0, 0])
        np.testing.assert_allclose(op / phase, np.eye(2), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            choi = random_channel(2, 2, rng).choi
            again = kraus_to_choi(choi_to_kraus(choi))
            assert np.linalg.norm(again.matrix - choi.matrix) < 1e-9

    def test_tiny_eigenvalue_dropped(self):
        # A 1e-14 weight on the X component sits below the rank cutoff.
        eps = 1e-14
        ch = mix([identity_channel(2), bit_flip_channel()], [1 - eps, eps])
        assert len(ch.kraus) == 1


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(apply(identity_channel(2), rho), rho, atol=1e-12)

    def test_collapse_channel_on_basis(self):
        rho0 = projector([1, 0])
        np.testing.assert_allclose(
            apply(collapse_to_zero_channel(), rho0), np.diag([1.0, 0]), atol=1e-12
        )

    def test_kraus_equals_choi_contraction(self):
        rng = np.random.default_rng(3)
        for d_in, d_out in ((2, 2), (3, 2), (2, 3)):
            ch = random_channel(d_in, d_out, rng)
            for _ in range(5):
                rho = random_density_matrix(d_in, rng)
                np.testing.assert_allclose(
                    apply(ch, rho), apply_from_choi(ch.choi, rho), atol=1e-10
                )

    def test_output_is_density_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = random_channel(3, 2, rng)
            out = apply(ch, random_density_matrix(3, rng))
            validate_density_matrix(out, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            apply(identity_channel(2), np.eye(3) / 3)
        with pytest.raises(ValueError, match="shape mismatch"):
            apply_from_choi(identity_channel(2).choi, np.eye(3) / 3)


class TestMix:
    def test_single_channel(self):
        ch = bit_flip_channel()
        assert distance(mix([ch], [1.0]), ch) < 1e-12

    def test_coin_flip_on_zero(self):
        mixed = mix([identity_channel(2), bit_flip_channel()], [0.5, 0.5])
        np.testing.assert_allclose(
            apply(mixed, projector([1, 0])), np.eye(2) / 2, atol=1e-12
        )

    def test_idempotent(self):
        ch = collapse_to_zero_channel()
        assert distance(mix([ch, ch], [0.3, 0.7]), ch) < 1e-12

    def test_commutes_with_apply(self):
        rng = np.random.default_rng(5)
        chs = [random_channel(2, 2, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        mixed = mix(chs, w)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            expected = sum(wi * apply(ch, rho) for wi, ch in zip(w, chs))
            np.testing.assert_allclose(apply(mixed, rho), expected, atol=1e-10)

    def test_rejects_bad_weights(self):
        chs = [identity_channel(2), bit_flip_channel()]
        with pytest.raises(ValueError, match="not a distribution"):
            mix(chs, [0.6, 0.6])
        with pytest.raises(ValueError, match="not a distribution"):
            mix(chs, [1.5, -0.5])
        with pytest.raises(ValueError, match="not a distribution"):
            mix(chs, [np.nan, 1.0])

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mix([identity_channel(2), identity_channel(3)], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape mismatch"):
            mix([identity_channel(2)], [0.5, 0.5])


class TestDistance:
    def test_self_distance_zero(self):
        ch = bit_flip_channel()
        assert distance(ch, ch) == 0.0

    def test_identity_vs_bit_flip(self):
        # Two orthogonal rank-1 Choi matrices of trace 2: ‖C₁ − C₂‖_F = 2√2.
        value = distance(identity_channel(2), bit_flip_channel())
        assert value == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_zero_weight_mix(self):
        a, b = identity_channel(2), bit_flip_channel()
        assert distance(a, mix([a, b], [1.0, 0.0])) < 1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            distance(identity_channel(2), identity_channel(3))

    def test_choi_matrix_gives_its_channels_bits(self):
        rng = np.random.default_rng(32)
        for d_in, d_out in [(2, 2), (3, 2), (2, 3)]:
            a, b = random_channel(d_in, d_out, rng), random_channel(d_in, d_out, rng)
            value = distance(a, b)
            assert value > 0
            assert distance(a.choi, b) == value
            assert distance(a, b.choi) == value
            assert distance(a.choi, b.choi) == value

    def test_rejects_mismatched_choi_matrices(self):
        two, three = identity_channel(2), identity_channel(3)
        for a, b in [(two.choi, three), (two, three.choi), (two.choi, three.choi)]:
            with pytest.raises(ValueError, match="shape mismatch"):
                distance(a, b)


class TestIsExtremal:
    def test_unitary_channel(self):
        assert is_extremal(bit_flip_channel().kraus)

    def test_coin_flip_mix_not_extremal(self):
        mixed = mix([identity_channel(2), bit_flip_channel()], [0.5, 0.5])
        assert not is_extremal(mixed.kraus)

    def test_three_operator_qubit_channel_not_extremal(self):
        # Any minimal qubit→qubit set with 3 operators has 9 pairwise
        # products in the 4-dimensional operator space, so it can never be
        # extremal; exercised on the collapse family with a mixed image.
        ops = [
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, S], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, S]], dtype=complex),
        ]
        k = KrausSet(tuple(ops))
        assert not is_extremal(k)

    def test_random_unitary_conjugation_extremal(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(g)
        assert is_extremal(Channel.from_kraus([q]).kraus)


class TestRandomChannel:
    def test_valid_and_rank(self):
        rng = np.random.default_rng(7)
        for rank in (1, 2, 3, 4):
            ch = random_channel(2, 2, rng, kraus_rank=rank)
            eigenvalues = np.linalg.eigvalsh(ch.choi.matrix)
            assert np.sum(eigenvalues > 1e-10) == rank

    def test_rejects_impossible_rank(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="rank too small"):
            random_channel(3, 2, rng, kraus_rank=1)
        # A channel has Kraus rank at most d_in·d_out, the Choi matrix's size.
        random_channel(2, 2, rng, kraus_rank=4)
        with pytest.raises(ValueError, match="rank too large"):
            random_channel(2, 2, rng, kraus_rank=9)
        with pytest.raises(ValueError, match="rank too large"):
            random_channel(3, 2, rng, kraus_rank=7)

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_non_integer_dimensions(self, dim):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            random_channel(2, dim, np.random.default_rng(8))

    def test_seeded_reproducibility(self):
        a = random_channel(2, 3, np.random.default_rng(9))
        b = random_channel(2, 3, np.random.default_rng(9))
        assert distance(a, b) == 0.0
