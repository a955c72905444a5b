"""Tests for unitary dilations: induced channels, Stinespring construction,
and spectral decomposition of mixed environments."""

import itertools

import numpy as np
import pytest

from envchan import (
    Channel,
    ChoiMatrix,
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
from envchan.dilation import _env_components, _kraus_columns, _kraus_rows, _layout
from envchan.linalg import eig_hermitian
from envchan.tolerances import CHANNEL


def haar_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def loop_rows(columns, d_in, d_fin, env):
    # E_{t,a,b}[m, i] = ⟨a m b|U|i t⟩ entry by entry: row (t, a, b) holds
    # vec(E_{t,a,b}) input-major, at (i, m); U's row (a, m, b), column (i, t).
    inputs = columns.shape[1] // d_in
    rows = np.zeros((inputs * d_in * env, d_in * d_fin), dtype=columns.dtype)
    for t, a, b, m, i in itertools.product(
        range(inputs), range(d_in), range(env), range(d_fin), range(d_in)
    ):
        rows[(t * d_in + a) * env + b, i * d_fin + m] = columns[
            (a * d_fin + m) * env + b, i * inputs + t
        ]
    return rows


def loop_columns(rows, d_in, d_fin, env):
    # The same entries read the other way: U's columns from the Kraus rows.
    inputs = len(rows) // (d_in * env)
    columns = np.zeros((d_in * d_fin * env, d_in * inputs), dtype=rows.dtype)
    for t, a, b, m, i in itertools.product(
        range(inputs), range(d_in), range(env), range(d_fin), range(d_in)
    ):
        columns[(a * d_fin + m) * env + b, i * inputs + t] = rows[
            (t * d_in + a) * env + b, i * d_fin + m
        ]
    return columns


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

    @pytest.mark.parametrize(
        "d_in, d_fin, d_env",
        [(2, 2, 0), (3, 2, 0), (2, 3, 0), (2, 2, 2), (2, 1, 3)],
    )
    def test_kraus_operators_are_those_of_the_weighted_choi_sum(self, d_in, d_fin, d_env):
        # The arithmetic stated out in full: sum p·C_p over the environment
        # components, check it at the dilation's tolerance, decompose it.
        # The channel must carry exactly these bits.
        rng = np.random.default_rng([31, d_in, d_fin, d_env])
        env_side = d_fin * max(d_env, 1)
        dil = Dilation(
            d_in, d_fin, d_env,
            haar_unitary(d_in * env_side, rng),
            random_density_matrix(env_side, rng),
        )
        choi = np.zeros((d_in * d_fin,) * 2, dtype=complex)
        for p, _, component in _env_components(dil):
            choi += p * component
        wanted = Channel.from_choi(ChoiMatrix(d_in, d_fin, choi, atol=max(dil.atol, CHANNEL)))
        got = channel_from_dilation(dil)
        assert len(got.kraus) == len(wanted.kraus)
        for a, b in zip(got.kraus.operators, wanted.kraus.operators):
            assert a.tobytes() == b.tobytes()

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
        # Wrongly sized and not Hermitian: the shape is checked first.
        with pytest.raises(ValueError, match="shape mismatch"):
            Dilation(2, 2, 0, np.eye(4), [[0.5, 1, 0], [0, 0.5, 0], [0, 0, 0]])

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
        "d_in, d_fin, d_env, inputs",
        [(1, 2, 0, 2), (1, 3, 2, 6), (2, 2, 0, 2), (3, 2, 0, 2), (2, 3, 4, 12), (3, 2, 2, 4),
         (2, 2, 16, 2), (3, 2, 36, 2)],
    )
    def test_matches_the_explicit_loop(self, d_in, d_fin, d_env, inputs):
        # Square U for inputs = d_fin·max(d_env, 1); inputs = d_fin with
        # d_env = Q is the Jacobian's stack of Q Kraus sets ((2,2) with κ = 4
        # has Q = 16, (3,2) with κ = 6 has Q = 36).
        env = max(d_env, 1)
        rng = np.random.default_rng([25, d_in, d_fin, d_env, inputs])
        shape = (d_in * d_fin * env, d_in * inputs)
        columns = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows = loop_rows(columns, d_in, d_fin, env)
        assert np.array_equal(_kraus_rows(columns, d_in, d_fin), rows)
        other = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
        assert np.array_equal(
            _kraus_columns(other, d_in, d_fin, d_env), loop_columns(other, d_in, d_fin, env)
        )

    @pytest.mark.parametrize("d_in, d_fin, d_env", [(1, 2, 0), (2, 2, 0), (2, 3, 4)])
    def test_index_is_cached_read_only_and_results_are_fresh(self, d_in, d_fin, d_env):
        side = d_in * d_fin * max(d_env, 1)
        rng = np.random.default_rng([26, d_in, d_fin, d_env])
        u = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        layout = _layout(d_in, d_fin, d_env, side * side // (d_in * d_fin))
        assert _layout(d_in, d_fin, d_env, side * side // (d_in * d_fin)) is layout
        for index in layout:
            assert not index.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                index[0, 0] = 0
        rows = _kraus_rows(u, d_in, d_fin)
        columns = _kraus_columns(rows, d_in, d_fin, d_env)
        # Each call returns a new writable array: stinespring_from_kraus
        # writes into its columns, and a caller's write must not reach the
        # input or a later call.
        for out, source in ((rows, u), (columns, rows)):
            assert out.flags.writeable and not np.shares_memory(out, source)
        expected_rows, expected_columns = rows.copy(), columns.copy()
        rows[:] = 0.0
        columns[:] = 0.0
        assert np.array_equal(_kraus_rows(u, d_in, d_fin), expected_rows)
        assert np.array_equal(_kraus_columns(expected_rows, d_in, d_fin, d_env), expected_columns)
        assert np.array_equal(expected_columns, u)

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
