"""Round-trip and error-path tests for the JSON file formats."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from envchan import (
    Channel,
    ChoiMatrix,
    CounterexampleParams,
    Dilation,
    KrausSet,
    build_counterexample,
    channel_from_dilation,
    distance,
    identity_channel,
    implementing_unitary,
    mix,
    random_channel,
    random_density_matrix,
    validate_density_matrix,
)
from envchan.cli import main
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
        assert list(load_json(path)) == ["format_version", "kind", "d_in", "d_out", "kraus"]
        loaded = channel_from_dict(load_json(path))
        assert (loaded.d_in, loaded.d_out) == (2, 3)
        assert distance(loaded, ch) < 1e-12

    def test_choi_round_trip(self, tmp_path):
        ch = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
        path = tmp_path / "choi.json"
        save_json(choi_to_dict(ch), path)
        assert list(load_json(path)) == ["format_version", "kind", "d_in", "d_out", "choi"]
        loaded = channel_from_dict(load_json(path))
        assert distance(loaded, ch) < 1e-9

    def test_bad_version(self):
        data = channel_to_dict(random_channel(2, 2, np.random.default_rng(2)))
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported format version"):
            channel_from_dict(data)

    @pytest.mark.parametrize("version", [1.0, "1", True], ids=["float", "string", "bool"])
    def test_version_must_be_the_integer_one(self, version):
        # 1.0 == 1 and True == 1, so only the integer 1 is accepted.
        data = channel_to_dict(identity_channel(2))
        data["format_version"] = version
        with pytest.raises(ValueError, match="unsupported format version"):
            channel_from_dict(data)

    @pytest.mark.parametrize(
        "writer, kind",
        [
            (channel_to_dict, "state"),
            (channel_to_dict, "choi"),
            (choi_to_dict, "channel"),
            (choi_to_dict, "dilation"),
            (channel_to_dict, None),
            (choi_to_dict, ["choi"]),
        ],
    )
    def test_only_its_writers_kind_loads(self, writer, kind):
        # A Kraus file loads as "channel" and a Choi file as "choi"; any
        # other kind, or none, is malformed, whatever the file holds.
        data = writer(identity_channel(2))
        channel_from_dict(data)
        data["kind"] = kind
        if kind is None:
            del data["kind"]
        with pytest.raises(ValueError, match="malformed file"):
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
        assert list(load_json(path)) == ["format_version", "kind", "dim", "matrix"]
        np.testing.assert_allclose(state_from_dict(load_json(path)), rho, atol=1e-15)

    @pytest.mark.parametrize("kind", ["channel", "choi", "dilation", "report", None])
    def test_only_its_writers_kind_loads(self, kind):
        data = state_to_dict(np.eye(2) / 2)
        data["kind"] = kind
        if kind is None:
            del data["kind"]
        with pytest.raises(ValueError, match="malformed file"):
            state_from_dict(data)

    def test_dim_mismatch(self):
        data = state_to_dict(np.eye(2) / 2)
        data["dim"] = 3
        with pytest.raises(ValueError, match="shape mismatch"):
            state_from_dict(data)

    def test_invalid_state(self):
        data = state_to_dict(np.eye(2))
        with pytest.raises(ValueError, match="trace not one"):
            state_from_dict(data)


# Identity channel on a qubit: C = vec(I) vec(I)†.
IDENTITY_CHOI = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)


def _hermitian_defect(m, eps):
    m = np.array(m, dtype=complex)
    m[0, -1] += eps
    return m


# Each case: (representation, matrix off by eps, message on rejection).
BAND_CASES = {
    "kraus-tp": ("kraus", lambda eps: [np.sqrt(1 + eps) * np.eye(2)], "not trace preserving"),
    "choi-tp": ("choi", lambda eps: (1 + eps) * IDENTITY_CHOI, "not trace preserving"),
    "choi-hermitian": (
        "choi", lambda eps: _hermitian_defect(IDENTITY_CHOI, eps), "not completely positive"
    ),
    # Smallest eigenvalue about -eps/2; the partial trace stays I.
    "choi-psd": (
        "choi", lambda eps: IDENTITY_CHOI + eps * np.diag([-1, 1, 0, 0]),
        "not completely positive",
    ),
    "state-trace": ("state", lambda eps: np.diag([0.5 + eps, 0.5]), "trace not one"),
    "state-hermitian": (
        "state", lambda eps: _hermitian_defect(np.eye(2) / 2, eps), "not hermitian"
    ),
    "state-psd": ("state", lambda eps: np.diag([1 + eps, -eps]), "not positive semidefinite"),
}


def _band_file(kind, m) -> dict:
    data = {"format_version": FORMAT_VERSION, "d_in": 2, "d_out": 2}
    if kind == "kraus":
        return {**data, "kind": "channel", "kraus": [matrix_to_pairs(op) for op in m]}
    if kind == "choi":
        return {**data, "kind": "choi", "choi": matrix_to_pairs(m)}
    return {"format_version": FORMAT_VERSION, "kind": "state", "dim": 2,
            "matrix": matrix_to_pairs(m)}


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_file_tolerance_band(tmp_path, case):
    # Loaded files are validated at 1e-8, in-process construction at 1e-10
    # or tighter: a 5e-9 defect loads from a file only, and 1e-7 never does.
    kind, perturbed, message = BAND_CASES[case]
    load = state_from_dict if kind == "state" else channel_from_dict
    construct = {
        "kraus": lambda m: KrausSet(tuple(m)),
        "choi": lambda m: ChoiMatrix(2, 2, m),
        "state": validate_density_matrix,
    }[kind]
    path = tmp_path / "near.json"
    save_json(_band_file(kind, perturbed(5e-9)), path)
    loaded = load(load_json(path))
    if kind != "state":  # derived channels keep the file tolerance
        for derived in (choi_to_dict(loaded), channel_to_dict(loaded)):
            assert distance(channel_from_dict(derived), loaded) < 1e-12
        mix([loaded, identity_channel(2)], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        construct(perturbed(5e-9))
    save_json(_band_file(kind, perturbed(1e-7)), path)
    with pytest.raises(ValueError, match=message):
        load(load_json(path))


class TestDilationFiles:
    def test_round_trip(self, tmp_path):
        dil = implementing_unitary(3, 2, 0.6, 0.8)
        path = tmp_path / "dilation.json"
        save_json(dilation_to_dict(dil), path)
        assert list(load_json(path)) == [
            "format_version", "kind", "d_in", "d_fin", "d_env", "unitary", "env_state",
        ]
        loaded = dilation_from_dict(load_json(path))
        assert (loaded.d_in, loaded.d_fin, loaded.d_env) == (3, 2, 2)
        np.testing.assert_array_equal(loaded.unitary, dil.unitary)
        assert (
            distance(channel_from_dilation(loaded), channel_from_dilation(dil))
            < 1e-12
        )

    def test_numpy_integer_sizes(self, tmp_path):
        # Dilation accepts NumPy integer sizes; its file is the one written
        # with Python ints, and it loads back.
        dil = implementing_unitary(2, 2, 0.6, 0.8)
        numpy_sized = replace(
            dil, d_in=np.int64(dil.d_in), d_fin=np.int64(dil.d_fin), d_env=np.int64(dil.d_env)
        )
        python_path, numpy_path = tmp_path / "python.json", tmp_path / "numpy.json"
        save_json(dilation_to_dict(dil), python_path)
        save_json(dilation_to_dict(numpy_sized), numpy_path)
        assert numpy_path.read_bytes() == python_path.read_bytes()
        loaded = dilation_from_dict(load_json(numpy_path))
        assert (loaded.d_in, loaded.d_fin, loaded.d_env) == (2, 2, 2)

    @pytest.mark.parametrize("kind", ["channel", "state", "Dilation", None])
    def test_only_its_writers_kind_loads(self, kind):
        data = dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8))
        data["kind"] = kind
        if kind is None:
            del data["kind"]
        with pytest.raises(ValueError, match="malformed file"):
            dilation_from_dict(data)

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

    @pytest.mark.parametrize(
        "field, message",
        [("unitary", "not unitary"), ("env_state", "trace not one")],
        ids=["unitary", "env-trace"],
    )
    def test_file_tolerance_band(self, capsys, tmp_path, field, message):
        # Dilation files are validated at 1e-8, as channel and state files
        # are: a 5e-9 defect loads from a file only, and 1e-6 never does.
        dil = implementing_unitary(2, 2, 0.6, 0.8)
        path = tmp_path / "near.json"

        def perturbed(eps):
            # Scaled so that U·U† − I, or tr(env_state) − 1, is off by eps.
            scale = np.sqrt(1 + eps) if field == "unitary" else 1 + eps
            return scale * getattr(dil, field)

        def save(eps):
            data = {**dilation_to_dict(dil), field: matrix_to_pairs(perturbed(eps))}
            save_json(data, path)

        save(5e-9)
        loaded = dilation_from_dict(load_json(path))
        assert distance(channel_from_dilation(loaded), channel_from_dilation(dil)) < 1e-8
        assert main(["build", "from-dilation", str(path)]) == 0
        with pytest.raises(ValueError, match=message):
            replace(dil, **{field: perturbed(5e-9)})
        save(1e-6)
        capsys.readouterr()
        assert main(["build", "from-dilation", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_failed_encoding_writes_no_file(tmp_path):
    path = tmp_path / "set.json"
    with pytest.raises(TypeError):
        save_json({"x": {1, 2}}, path)
    assert not path.exists()


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed file"):
        load_json(path)
    with pytest.raises(ValueError, match="malformed file"):
        channel_from_dict([1])


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


# ±1e300 is left out: at library level Σ E†E and U·U† overflow with a
# RuntimeWarning before the ValueError.
FUZZ_VALUES = (
    None, True, False, 10**30, float("nan"), float("inf"), "x", "",
    [], [[]], [[1.0, 0.0], [1.0]], 1e-300, -1e-300, 5e-324, -0.0,
)


def _paths(node, prefix=()):
    """Every key or index path into a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize(
    "loader, writer, source",
    [
        (
            # Dephasing: its Kraus operators' zero entries let tiny edits load.
            channel_from_dict, channel_to_dict,
            lambda: Channel.from_kraus(np.sqrt(0.5) * np.array([np.eye(2), np.diag([1, -1])])),
        ),
        (channel_from_dict, choi_to_dict, lambda: random_channel(2, 2, np.random.default_rng(0))),
        (
            state_from_dict, state_to_dict,
            lambda: random_density_matrix(2, np.random.default_rng(0)),
        ),
        (dilation_from_dict, dilation_to_dict, lambda: implementing_unitary(2, 2, 0.6, 0.8)),
    ],
    ids=["kraus", "choi", "state", "dilation"],
)
def test_fuzzed_payload_loads_or_raises_value_error(loader, writer, source):
    # 500 payloads per file kind, each with one field or nested entry
    # deleted or replaced. The depth is drawn first, so top-level fields are
    # hit as often as matrix entries. An accepted payload goes back through
    # its writer and loads again; only the Choi loader rebuilds its matrix,
    # so the other files, "kind" included, come back unchanged.
    rng = np.random.default_rng(31)
    original = writer(source())
    loader(original)
    by_depth = {}
    for path in _paths(original):
        by_depth.setdefault(len(path), []).append(path)
    depths = sorted(by_depth)
    for _ in range(500):
        data = copy.deepcopy(original)
        paths = by_depth[depths[rng.integers(len(depths))]]
        path = paths[rng.integers(len(paths))]
        node = data
        for key in path[:-1]:
            node = node[key]
        if rng.random() < 0.2:
            edit = "deleted"
            del node[path[-1]]
        else:
            edit = copy.deepcopy(FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))])
            node[path[-1]] = edit
        try:
            loaded = loader(data)
        except ValueError:
            continue
        except Exception as exc:  # name the payload that broke the rule
            pytest.fail(f"{path} {edit!r}: {exc!r}")
        rewritten = writer(loaded)
        loader(rewritten)
        if writer is not choi_to_dict:
            assert rewritten == data, f"{path} {edit!r}"
