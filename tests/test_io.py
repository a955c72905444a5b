"""Round-trip and error-path tests for the JSON file formats."""

import json

import numpy as np
import pytest

from envchan import (
    CounterexampleParams,
    Dilation,
    build_counterexample,
    channel_from_dilation,
    distance,
    identity_channel,
    implementing_unitary,
    random_channel,
    random_density_matrix,
)
from envchan.io import (
    FORMAT_VERSION,
    channel_from_dict,
    channel_to_dict,
    choi_to_dict,
    dilation_from_dict,
    dilation_to_dict,
    load_json,
    matrix_from_pairs,
    matrix_to_pairs,
    save_json,
    state_from_dict,
    state_to_dict,
)


class TestMatrixPairs:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        np.testing.assert_array_equal(matrix_from_pairs(matrix_to_pairs(m)), m)

    def test_malformed_inputs(self):
        for bad in (
            [],
            "nope",
            [[1.0, 2.0]],
            [[[1.0]]],
            [[[1.0, "x"]]],
            [[[True, False]]],
            [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            [[]],
        ):
            with pytest.raises(ValueError, match="malformed matrix"):
                matrix_from_pairs(bad)


class TestChannelFiles:
    def test_kraus_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ch = random_channel(2, 3, rng)
        path = tmp_path / "channel.json"
        save_json(channel_to_dict(ch), path)
        loaded = channel_from_dict(load_json(path))
        assert (loaded.d_in, loaded.d_out) == (2, 3)
        assert distance(loaded, ch) < 1e-12

    def test_choi_round_trip(self, tmp_path):
        ch = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
        path = tmp_path / "choi.json"
        save_json(choi_to_dict(ch), path)
        loaded = channel_from_dict(load_json(path))
        assert distance(loaded, ch) < 1e-9

    def test_bad_version(self):
        data = channel_to_dict(random_channel(2, 2, np.random.default_rng(2)))
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported format version"):
            channel_from_dict(data)

    def test_missing_representation(self):
        with pytest.raises(ValueError, match="malformed file"):
            channel_from_dict(
                {"format_version": FORMAT_VERSION, "d_in": 2, "d_out": 2}
            )

    def test_inconsistent_dims(self):
        data = channel_to_dict(random_channel(2, 3, np.random.default_rng(3)))
        data["d_out"] = 2
        with pytest.raises(ValueError, match="shape mismatch"):
            channel_from_dict(data)

    def test_non_channel_matrix_rejected(self):
        data = channel_to_dict(random_channel(2, 2, np.random.default_rng(4)))
        data["kraus"][0][0][0] = [5.0, 0.0]
        with pytest.raises(ValueError, match="not trace preserving"):
            channel_from_dict(data)

    def test_many_random_channels(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "fuzz.json"
        for k in range(20):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            ch = random_channel(d_in, d_out, rng)
            save_json(channel_to_dict(ch), path)
            assert distance(channel_from_dict(load_json(path)), ch) < 1e-9


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rho = random_density_matrix(3, np.random.default_rng(6))
        path = tmp_path / "state.json"
        save_json(state_to_dict(rho), path)
        np.testing.assert_allclose(state_from_dict(load_json(path)), rho, atol=1e-15)

    def test_dim_mismatch(self):
        data = state_to_dict(np.eye(2) / 2)
        data["dim"] = 3
        with pytest.raises(ValueError, match="shape mismatch"):
            state_from_dict(data)

    def test_invalid_state(self):
        data = state_to_dict(np.eye(2))
        with pytest.raises(ValueError, match="trace not one"):
            state_from_dict(data)


class TestDilationFiles:
    def test_round_trip(self, tmp_path):
        dil = implementing_unitary(3, 2, 0.6, 0.8)
        path = tmp_path / "dilation.json"
        save_json(dilation_to_dict(dil), path)
        loaded = dilation_from_dict(load_json(path))
        assert (loaded.d_in, loaded.d_fin, loaded.d_env) == (3, 2, 2)
        np.testing.assert_array_equal(loaded.unitary, dil.unitary)
        assert (
            distance(channel_from_dilation(loaded), channel_from_dilation(dil))
            < 1e-12
        )

    def test_missing_dims(self):
        data = dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8))
        del data["d_env"]
        with pytest.raises(ValueError, match="malformed file"):
            dilation_from_dict(data)

    def test_corrupted_unitary(self):
        data = dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8))
        data["unitary"][0][0] = [2.0, 0.0]
        with pytest.raises(ValueError, match="not unitary"):
            dilation_from_dict(data)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed file"):
        load_json(path)


@pytest.mark.parametrize(
    "loader, payload, keys",
    [
        (channel_from_dict, lambda: channel_to_dict(identity_channel(1)), ("d_in", "d_out")),
        (state_from_dict, lambda: state_to_dict(np.eye(1)), ("dim",)),
        (
            dilation_from_dict,
            lambda: dilation_to_dict(Dilation(1, 1, 0, np.eye(1), np.eye(1))),
            ("d_in", "d_fin"),
        ),
    ],
    ids=["channel", "state", "dilation"],
)
def test_boolean_dimensions_rejected(loader, payload, keys):
    # bool is an int subclass: True would otherwise load as dimension 1.
    data = payload()
    loader(data)
    for key in keys:
        data[key] = True
    with pytest.raises(ValueError, match="malformed file"):
        loader(data)


@pytest.mark.parametrize(
    "loader, payload, key",
    [
        (channel_from_dict, lambda: channel_to_dict(identity_channel(1)), "kraus"),
        (state_from_dict, lambda: state_to_dict(np.eye(1)), "matrix"),
    ],
    ids=["channel", "state"],
)
def test_boolean_entries_rejected(tmp_path, loader, payload, key):
    # bool is a numbers.Real: [true, false] would otherwise load as 1+0j.
    data = payload()
    loader(data)
    path = tmp_path / "booleans.json"
    save_json(data, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("1.0", "true").replace("0.0", "false"), encoding="utf-8")
    assert "true" in json.dumps(load_json(path)[key])
    with pytest.raises(ValueError, match="malformed matrix"):
        loader(load_json(path))
