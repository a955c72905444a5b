"""Tests for unitary dilations: induced channels, Stinespring construction,
and spectral decomposition of mixed environments."""

import numpy as np
import pytest

from envchan import (
    Channel,
    Dilation,
    apply,
    basis_state,
    channel_from_dilation,
    decompose_mixed_env,
    distance,
    identity_channel,
    maximally_mixed,
    mix,
    projector,
    random_channel,
    random_density_matrix,
    stinespring_from_kraus,
)
from envchan.channels import _choi_from_vecs
from envchan.dilation import _env_components, _kraus_columns, _kraus_rows
from envchan.linalg import eig_hermitian


def haar_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def swap_gate():
    u = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for m in range(2):
            u[m * 2 + i, i * 2 + m] = 1.0
    return u


class TestChannelFromDilation:
    def test_identity_unitary_gives_constant_channel(self):
        # With U = I the final factor keeps its initial |0'⟩⟨0'| whatever
        # the input is, so the channel is ρ ↦ |0'⟩⟨0'|.
        dil = Dilation(2, 2, 0, np.eye(4), projector(basis_state(2, 0)))
        ch = channel_from_dilation(dil)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(apply(ch, rho), np.diag([1.0, 0]), atol=1e-12)

    def test_swap_gives_identity_channel(self):
        dil = Dilation(2, 2, 0, swap_gate(), projector(basis_state(2, 0)))
        assert distance(channel_from_dilation(dil), identity_channel(2)) < 1e-12

    def test_result_is_minimal(self):
        rng = np.random.default_rng(1)
        dil = Dilation(2, 2, 0, haar_unitary(4, rng), maximally_mixed(2))
        ch = channel_from_dilation(dil)
        eigenvalues = np.linalg.eigvalsh(ch.choi.matrix)
        assert len(ch.kraus) == np.sum(eigenvalues > 1e-10)

    @pytest.mark.parametrize("d_env", [0, 1, 2])
    def test_choi_matches_definition(self, d_env):
        # C[(i, m), (j, n)] = Σ U[a,m,b,i,t] ρ[t,t′] U*[a,n,b,j,t′], written
        # from the definition rather than through the Kraus layout, with a
        # non-diagonal environment state.
        rng = np.random.default_rng([8, d_env])
        d_in, d_fin, env_eff = 2, 3, max(d_env, 1)
        u = haar_unitary(d_in * d_fin * env_eff, rng)
        env = random_density_matrix(d_fin * env_eff, rng)
        assert np.max(np.abs(env - np.diag(np.diag(env)))) > 1e-3
        ch = channel_from_dilation(Dilation(d_in, d_fin, d_env, u, env))
        u5 = u.reshape(d_in, d_fin, env_eff, d_in, d_fin * env_eff)
        direct = np.einsum("ambit,ts,anbjs->imjn", u5, env, u5.conj())
        side = d_in * d_fin
        np.testing.assert_allclose(
            ch.choi.matrix, direct.reshape(side, side), atol=1e-12
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Dilation(2, 2, 0, np.eye(4) * 0.9, projector(basis_state(2, 0)))

    def test_rejects_wrong_env_shape(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            Dilation(2, 2, 0, np.eye(4), maximally_mixed(4))
        with pytest.raises(ValueError, match="shape mismatch"):
            Dilation(0, 2, 0, np.eye(2), maximally_mixed(2))

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_rejects_non_integer_dimensions(self, dim):
        u = np.eye(2 * int(dim))
        with pytest.raises(ValueError, match="shape mismatch"):
            Dilation(d_in=dim, d_fin=2, d_env=0, unitary=u, env_state=maximally_mixed(2))

    def test_fields_are_read_only_copies(self):
        u = swap_gate()
        env = projector(basis_state(2, 0))
        dil = Dilation(2, 2, 0, u, env)
        u[:] = np.eye(4)
        env[:] = maximally_mixed(2)
        np.testing.assert_array_equal(dil.unitary, swap_gate())
        np.testing.assert_array_equal(dil.env_state, projector(basis_state(2, 0)))
        for field in (dil.unitary, dil.env_state):
            with pytest.raises(ValueError, match="read-only"):
                field[0, 0] = 0.0


class TestKrausLayout:
    @pytest.mark.parametrize("d_in, d_fin, d_env", [(2, 2, 0), (3, 2, 0), (2, 3, 4)])
    def test_columns_and_rows_are_inverse(self, d_in, d_fin, d_env):
        # _kraus_rows gathers U's entries into Kraus rows and _kraus_columns
        # scatters them back, each undoing the other.
        side = d_in * d_fin * max(d_env, 1)
        rng = np.random.default_rng([22, d_in, d_fin, d_env])
        u = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        rows = _kraus_rows(u, d_in, d_fin)
        assert rows.shape == (side * side // (d_in * d_fin), d_in * d_fin)
        np.testing.assert_array_equal(_kraus_columns(rows, d_in, d_fin, d_env), u)
        rows = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
        back = _kraus_rows(_kraus_columns(rows, d_in, d_fin, d_env), d_in, d_fin)
        np.testing.assert_array_equal(back, rows)

    @pytest.mark.parametrize("d, dp, count", [(2, 2, 15), (3, 2, 27)])
    def test_environment_slot_stacks_blocks(self, d, dp, count):
        # The searcher's Jacobian stacks `count` Kraus sets as rows (t, a, q),
        # q in the environment slot: one scatter lays them out as n × count·n,
        # block q holding set q in U's layout, and one gather undoes it.
        n = d * dp
        rng = np.random.default_rng([23, d, dp])
        rows = rng.normal(size=(n * count, n)) + 1j * rng.normal(size=(n * count, n))
        stacked = _kraus_columns(rows, d, dp, count)
        assert stacked.shape == (n * count, n)
        blocks = stacked.reshape(n, count, n)
        for q, kraus_set in enumerate(rows.reshape(n, count, n).transpose(1, 0, 2)):
            np.testing.assert_array_equal(blocks[:, q], _kraus_columns(kraus_set, d, dp))
        np.testing.assert_array_equal(_kraus_rows(stacked, d, dp), rows)

    @pytest.mark.parametrize(
        "d_in, d_fin, d_env", [(2, 2, 0), (3, 2, 0), (2, 3, 0), (4, 4, 0), (2, 2, 4)]
    )
    def test_components_match_the_kron_lift(self, d_in, d_fin, d_env):
        # A component's Kraus columns are U·(I ⊗ v), v an eigenvector of the
        # environment state. The lift I ⊗ v is built without np.kron, and
        # each component must equal, bit for bit, the one that np.kron's
        # lift gives.
        side = d_fin * max(d_env, 1)
        rng = np.random.default_rng([24, d_in, d_fin, d_env])
        dil = Dilation(
            d_in=d_in, d_fin=d_fin, d_env=d_env,
            unitary=haar_unitary(d_in * side, rng),
            env_state=random_density_matrix(side, rng),
        )
        weights, vectors = eig_hermitian(dil.env_state)
        components = list(_env_components(dil))
        assert len(components) == side
        for (p, vec, choi), weight, v in zip(components, weights, vectors.T):
            columns = dil.unitary @ np.kron(np.eye(d_in), v[:, None])
            assert p == weight and np.array_equal(vec, v)
            assert np.array_equal(choi, _choi_from_vecs(_kraus_rows(columns, d_in, d_fin)))


class TestStinespring:
    def test_identity_needs_one_dim_environment(self):
        dil = stinespring_from_kraus(identity_channel(2).kraus)
        assert dil.d_env == 1
        assert distance(channel_from_dilation(dil), identity_channel(2)) < 1e-12

    def test_full_rank_qubit_channel_needs_four(self):
        rng = np.random.default_rng(2)
        ch = random_channel(2, 2, rng, kraus_rank=4)
        dil = stinespring_from_kraus(ch.kraus)
        assert dil.d_env == 4
        assert distance(channel_from_dilation(dil), ch) < 1e-9

    def test_round_trip_various_dims(self):
        rng = np.random.default_rng(3)
        for d_in, d_out in ((2, 2), (2, 3), (3, 2)):
            for _ in range(5):
                ch = random_channel(d_in, d_out, rng)
                dil = stinespring_from_kraus(ch.kraus)
                assert dil.d_env <= d_in * d_out
                assert distance(channel_from_dilation(dil), ch) < 1e-9

    def test_round_trip_full_rank_four_by_four(self):
        # A 256×256 unitary: 4 populated columns and 252 filler columns.
        ch = random_channel(4, 4, np.random.default_rng(5), kraus_rank=16)
        dil = stinespring_from_kraus(ch.kraus)
        assert dil.unitary.shape == (256, 256)
        assert distance(channel_from_dilation(dil), ch) < 1e-12

    def test_completion_independence(self):
        # Rotating the unused filler columns must not change the channel:
        # the pure initial state never populates that sector.
        rng = np.random.default_rng(4)
        ch = random_channel(2, 2, rng, kraus_rank=3)
        dil = stinespring_from_kraus(ch.kraus)
        block = dil.env_side
        populated = [i * block for i in range(dil.d_in)]
        others = [c for c in range(dil.unitary.shape[0]) if c not in populated]
        rotation = haar_unitary(len(others), rng)
        u2 = dil.unitary.copy()
        u2[:, others] = u2[:, others] @ rotation
        dil2 = Dilation(dil.d_in, dil.d_fin, dil.d_env, u2, dil.env_state)
        assert (
            distance(channel_from_dilation(dil2), channel_from_dilation(dil)) < 1e-9
        )


class TestDecomposeMixedEnv:
    def test_pure_environment_single_component(self):
        dil = Dilation(2, 2, 0, swap_gate(), projector(basis_state(2, 0)))
        components = decompose_mixed_env(dil)
        assert len(components) == 1
        assert components[0].weight == pytest.approx(1.0, abs=1e-12)

    def test_two_component_weights_and_mixture(self):
        rng = np.random.default_rng(5)
        dil = Dilation(2, 2, 0, haar_unitary(4, rng), np.diag([0.7, 0.3]))
        components = decompose_mixed_env(dil)
        np.testing.assert_allclose([c.weight for c in components], [0.7, 0.3])
        mixed = mix([c.channel for c in components], [c.weight for c in components])
        assert distance(mixed, channel_from_dilation(dil)) < 1e-9

    def test_identity_unitary_on_maximally_mixed_env(self):
        # U = I with env I/d' yields d' constant channels, one per basis
        # projector (in whichever order the degenerate eigenbasis comes out).
        d = 3
        dil = Dilation(2, d, 0, np.eye(2 * d), maximally_mixed(d))
        components = decompose_mixed_env(dil)
        assert len(components) == d
        constant_channels = [
            Channel.from_kraus(
                [np.outer(basis_state(d, k), basis_state(2, i).conj()) for i in range(2)]
            )
            for k in range(d)
        ]
        for comp in components:
            assert comp.weight == pytest.approx(1 / d, abs=1e-12)
            assert min(distance(comp.channel, c) for c in constant_channels) < 1e-9

    def test_mixture_identity_random(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            dil = Dilation(
                d, d, 0, haar_unitary(d * d, rng), random_density_matrix(d, rng)
            )
            components = decompose_mixed_env(dil)
            assert sum(c.weight for c in components) == pytest.approx(1.0, abs=1e-12)
            mixed = mix([c.channel for c in components], [c.weight for c in components])
            assert distance(mixed, channel_from_dilation(dil)) < 1e-9

    def test_auxiliary_environment_dilation(self):
        # d_env > 0: the initialized block is final ⊗ environment.
        rng = np.random.default_rng(7)
        d_in, d_fin, d_env = 2, 2, 2
        u = haar_unitary(d_in * d_fin * d_env, rng)
        env = random_density_matrix(d_fin * d_env, rng)
        dil = Dilation(d_in, d_fin, d_env, u, env)
        ch = channel_from_dilation(dil)
        assert (ch.d_in, ch.d_out) == (d_in, d_fin)
        components = decompose_mixed_env(dil)
        mixed = mix([c.channel for c in components], [c.weight for c in components])
        assert distance(mixed, ch) < 1e-9
