"""End-to-end tests of the command-line interface, driven through
``main(argv)`` with files in a temp directory."""

import json

import numpy as np
import pytest

from envchan import (
    CounterexampleParams,
    SearchConfig,
    build_counterexample,
    distance,
    identity_channel,
    random_density_matrix,
)
from envchan.cli import _search_config, build_parser, main
from envchan.io import (
    FORMAT_VERSION,
    channel_from_dict,
    channel_to_dict,
    load_json,
    matrix_from_pairs,
    save_json,
    state_from_dict,
    state_to_dict,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    save_json(channel_to_dict(identity_channel(2)), path)
    return str(path)


@pytest.fixture
def counterexample_file(tmp_path):
    ch = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
    path = tmp_path / "counterexample.json"
    save_json(channel_to_dict(ch), path)
    return str(path)


class TestBuild:
    def test_counterexample_channel(self, capsys):
        code, data, _ = run_json(
            capsys,
            "build", "counterexample", "--d", "2", "--d-fin", "2",
            "--rho-target", "0.5,0.5",
        )
        assert code == 0
        assert data["kind"] == "channel"
        assert len(data["kraus"]) == 3
        expected = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
        )
        assert distance(channel_from_dict(data), expected) < 1e-12

    def test_alpha_beta_shorthand(self, capsys):
        s = str(1 / np.sqrt(2))
        code, data, _ = run_json(
            capsys,
            "build", "counterexample", "--d", "3", "--d-fin", "2",
            "--alpha", s, "--beta", s,
        )
        assert code == 0
        expected = build_counterexample(
            CounterexampleParams(3, 2, np.diag([0.5, 0.5]))
        )
        assert distance(channel_from_dict(data), expected) < 1e-12

    def test_rejects_pure_target(self, capsys):
        code, out, err = run(
            capsys,
            "build", "counterexample", "--d", "2", "--d-fin", "2",
            "--rho-target", "1.0,0.0",
        )
        assert code == 2
        assert "target image must be mixed" in err

    def test_rejects_lone_alpha(self, capsys):
        code, _, err = run(
            capsys,
            "build", "counterexample", "--d", "2", "--d-fin", "2",
            "--alpha", "0.6",
        )
        assert code == 2
        assert "together" in err

    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_one_dimensional_final_system(self, capsys, command):
        code, _, err = run(
            capsys, *command, "--d", "2", "--d-fin", "1", "--alpha", "1", "--beta", "1"
        )
        assert code == 2
        assert "dimensions must be at least 2" in err

    def test_random_channel_is_valid(self, capsys, tmp_path):
        path = tmp_path / "random.json"
        code, out, _ = run(
            capsys,
            "build", "random", "--d", "2", "--d-fin", "3",
            "--kraus-rank", "2", "--seed", "7", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        # channel_from_dict re-validates trace preservation at file tolerance.
        ch = channel_from_dict(load_json(path))
        assert (ch.d_in, ch.d_out) == (2, 3)
        assert len(ch.kraus) == 2

    def test_random_rejects_zero_dimension(self, capsys):
        code, _, err = run(capsys, "build", "random", "--d", "0", "--d-fin", "2")
        assert code == 2
        assert "dimensions must be positive" in err

    def test_random_is_seeded(self, capsys):
        args = ("build", "random", "--d", "2", "--d-fin", "2", "--seed", "3")
        _, first, _ = run_json(capsys, *args)
        _, second, _ = run_json(capsys, *args)
        assert first == second

    def test_from_dilation(self, capsys, tmp_path):
        from envchan import implementing_unitary
        from envchan.io import dilation_to_dict

        dil_path = tmp_path / "dilation.json"
        save_json(dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8)), dil_path)
        code, data, _ = run_json(capsys, "build", "from-dilation", str(dil_path))
        assert code == 0
        expected = build_counterexample(
            CounterexampleParams(2, 2, np.diag([0.36, 0.64]))
        )
        assert distance(channel_from_dict(data), expected) < 1e-12


class TestConvert:
    def test_round_trip_through_choi(self, capsys, counterexample_file, tmp_path):
        choi_path = tmp_path / "as_choi.json"
        code, _, _ = run(
            capsys, "convert", counterexample_file, "--to", "choi",
            "--out", str(choi_path),
        )
        assert code == 0
        assert load_json(choi_path)["kind"] == "choi"
        code, data, _ = run_json(capsys, "convert", str(choi_path), "--to", "kraus")
        assert code == 0
        original = channel_from_dict(load_json(counterexample_file))
        assert distance(channel_from_dict(data), original) < 1e-9


class TestApply:
    def test_identity_returns_input(self, capsys, identity_file, tmp_path):
        rho = random_density_matrix(2, np.random.default_rng(0))
        state_path = tmp_path / "state.json"
        save_json(state_to_dict(rho), state_path)
        code, data, _ = run_json(capsys, "apply", identity_file, str(state_path))
        assert code == 0
        np.testing.assert_allclose(state_from_dict(data), rho, atol=1e-10)


class TestParams:
    def test_prints_count(self, capsys):
        code, out, _ = run(capsys, "params", "--d", "2", "--d-fin", "2")
        assert code == 0
        assert out.strip() == "12"


class TestCertify:
    def test_from_flags(self, capsys):
        code, data, _ = run_json(
            capsys,
            "certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.5,0.5",
        )
        assert code == 0
        assert data["kind"] == "report"
        assert data["command"] == "certify"
        results = data["results"]
        assert results["claim"] == "NOT_REALIZABLE"
        assert any("4 > 3" in step for step in results["narrative"])

    def test_family_file_gets_membership(self, capsys, counterexample_file):
        code, data, _ = run_json(capsys, "certify", counterexample_file)
        assert code == 0
        results = data["results"]
        assert results["claim"] == "NOT_REALIZABLE"
        assert results["d2_branch_used"]
        assert results["membership"]["choi_distance"] < 1e-8
        canonical = matrix_from_pairs(results["membership"]["canonical_rho_target"])
        np.testing.assert_allclose(canonical, np.eye(2) / 2, atol=1e-9)

    def test_non_family_file_is_inconclusive(self, capsys, identity_file):
        code, data, _ = run_json(capsys, "certify", identity_file)
        assert code == 3
        assert data["results"]["claim"] == "INCONCLUSIVE"
        assert data["results"]["narrative"]


class TestSearch:
    def test_realizable_exit_zero(self, capsys, tmp_path):
        from envchan import Dilation, channel_from_dilation

        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        dil = Dilation(
            d_in=2, d_fin=2, d_env=0,
            unitary=u, env_state=np.diag([0.7, 0.3]).astype(complex),
        )
        path = tmp_path / "realizable.json"
        save_json(channel_to_dict(channel_from_dilation(dil)), path)
        code, data, _ = run_json(capsys, "search", str(path), "--restarts", "10")
        assert code == 0
        results = data["results"]
        assert results["verdict"] == "REALIZED"
        assert results["best_residual"] < 1e-6
        assert results["note"]

    def test_counterexample_exit_four(self, capsys, counterexample_file):
        code, data, _ = run_json(
            capsys, "search", counterexample_file, "--restarts", "5"
        )
        assert code == 4
        assert data["results"]["verdict"] == "LIKELY_NOT_REALIZABLE"
        assert data["results"]["best_residual"] > 1e-3
        assert len(data["results"]["residual_history"]) == 5

    def test_rejects_zero_restarts(self, capsys, identity_file):
        code, _, err = run(capsys, "search", identity_file, "--restarts", "0")
        assert code == 2
        assert "restarts must be positive" in err

    def test_report_is_deterministic(self, capsys, counterexample_file):
        args = ("search", counterexample_file, "--restarts", "3", "--seed", "1")
        code_a, a, _ = run_json(capsys, *args)
        code_b, b, _ = run_json(capsys, *args)
        assert code_a == code_b
        assert a["results"] == b["results"]
        assert a["seed"] == b["seed"] == 1
        assert a["argv"] == list(args)
        # Only the wall-clock field may differ between runs.
        assert {k for k in a if a[k] != b[k]} <= {"duration_seconds"}


@pytest.mark.parametrize(
    "argv", [["search", "f.json"], ["perturb", "f.json", "--radius", "0.1"]]
)
def test_search_flag_defaults_are_search_config_defaults(argv):
    assert _search_config(build_parser().parse_args(argv)) == SearchConfig()


class TestPerturb:
    def test_radius_validation(self, capsys, identity_file):
        for radius in ("1.5", "nan"):
            code, _, err = run(
                capsys, "perturb", identity_file, "--radius", radius, "--samples", "2"
            )
            assert code == 2
            assert "radius too large" in err

    def test_small_run(self, capsys, identity_file):
        code, data, _ = run_json(
            capsys,
            "perturb", identity_file, "--radius", "0.01", "--samples", "1",
            "--restarts", "2", "--max-iters", "300",
        )
        assert code == 0
        results = data["results"]
        assert results["n_samples"] == 1
        assert len(results["verdicts"]) == 1
        assert 0.0 <= results["fraction_likely_not_realizable"] <= 1.0
        assert results["note"]


class TestReportKeys:
    """The report encoder must keep each result's keys in this order."""

    def test_search(self, capsys, counterexample_file):
        _, data, _ = run_json(
            capsys, "search", counterexample_file, "--restarts", "1", "--max-iters", "20"
        )
        assert list(data["results"]) == [
            "verdict", "best_residual", "residual_history", "best_env_spectrum",
            "best_unitary", "realizable_threshold", "nonrealizable_threshold", "note",
        ]

    def test_perturb(self, capsys, identity_file):
        _, data, _ = run_json(
            capsys, "perturb", identity_file, "--radius", "0.01", "--samples", "1",
            "--restarts", "1", "--max-iters", "20",
        )
        assert list(data["results"]) == [
            "radius", "n_samples", "fraction_likely_not_realizable", "verdicts",
            "best_residuals", "residual_min", "residual_max", "residual_mean",
            "residual_median", "note",
        ]

    def test_certify_with_membership(self, capsys, counterexample_file):
        _, data, _ = run_json(capsys, "certify", counterexample_file)
        assert list(data["results"]) == [
            "claim", "rank_tested", "vectors_required", "dimension_available",
            "decoherence_contradiction", "d2_branch_used", "narrative", "membership",
        ]
        assert list(data["results"]["membership"]) == [
            "choi_distance", "canonical_rho_target",
        ]


class TestErrorPaths:
    def test_unsupported_version(self, capsys, tmp_path):
        data = channel_to_dict(identity_channel(2))
        data["format_version"] = FORMAT_VERSION + 1
        path = tmp_path / "future.json"
        save_json(data, path)
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "unsupported format version" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "search", "/nonexistent/channel.json")
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "convert", str(path), "--to", "choi")
        assert code == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            # An integer too large for a float: OverflowError in complex().
            (lambda text: text.replace("1.0", "1" + "0" * 400, 1), "malformed matrix"),
            # Nesting deeper than the JSON parser's recursion limit.
            (
                lambda text: text.replace('"kraus": [', '"kraus": ' + "[" * 100_000, 1)
                .replace("]\n}", "]" * 100_000 + "\n}"),
                "malformed file",
            ),
            # bool is an int subclass: true == 1.
            (
                lambda text: text.replace('"format_version": 1', '"format_version": true'),
                "unsupported format version",
            ),
        ],
        ids=["huge-integer", "deep-nesting", "boolean-version"],
    )
    def test_malformed_file_exits_two(self, capsys, identity_file, edit, message):
        with open(identity_file, encoding="utf-8") as handle:
            text = edit(handle.read())
        with open(identity_file, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, _, err = run(capsys, "convert", identity_file, "--to", "choi")
        assert code == 2
        assert message in err
