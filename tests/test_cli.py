"""End-to-end tests of the command-line interface, driven through
``main(argv)`` with files in a temp directory."""

import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import envchan.counterexample as counterexample
from envchan import (
    Channel,
    CounterexampleParams,
    KrausSet,
    SearchConfig,
    build_counterexample,
    distance,
    identity_channel,
    match_family,
    random_channel,
    random_density_matrix,
)
from envchan.cli import _search_config, build_parser, main
from envchan.io import (
    FORMAT_VERSION,
    channel_from_dict,
    channel_to_dict,
    load_json,
    matrix_from_pairs,
    matrix_to_pairs,
    save_json,
    state_from_dict,
    state_to_dict,
)
from envchan.tolerances import FILE


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

    def test_rejects_pure_target(self, capsys):
        code, out, err = run(
            capsys,
            "build", "counterexample", "--d", "2", "--d-fin", "2",
            "--rho-target", "1.0,0.0",
        )
        assert code == 2
        assert "target image must be mixed" in err

    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_one_dimensional_final_system(self, capsys, command):
        code, _, err = run(
            capsys, *command, "--d", "2", "--d-fin", "1", "--rho-target", "1"
        )
        assert code == 2
        assert "dimensions must be at least 2" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--d", "3"), "--d, --d-fin and --rho-target are required"),
            (("--d", "3", "--d-fin", "2"), "--d, --d-fin and --rho-target are required"),
            (
                ("--d", "3", "--d-fin", "2", "--rho-target", "0.5,x"),
                "cannot parse --rho-target eigenvalue list",
            ),
        ],
        ids=["d-only", "no-rho-target", "unparsable"],
    )
    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_incomplete_family_flags(self, capsys, command, flags, message):
        code, out, err = run(capsys, *command, *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_alpha_beta(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--d", "3", "--d-fin", "2", "--alpha", "0.6", "--beta", "0.8"])
        assert exc.value.code == 2

    def test_rho_basis(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        basis = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-random unitary
        path = tmp_path / "basis.json"
        save_json({"matrix": matrix_to_pairs(basis)}, path)
        flags = ("--d-fin", "3", "--rho-target", "0.5,0.3,0.2", "--rho-basis", str(path))
        code, data, _ = run_json(capsys, "build", "counterexample", "--d", "3", *flags)
        assert code == 0
        rho = basis @ np.diag([0.5, 0.3, 0.2]).astype(complex) @ basis.conj().T
        expected = build_counterexample(CounterexampleParams(3, 3, rho))
        for got, want in zip(
            channel_from_dict(data).kraus.operators, expected.kraus.operators, strict=True
        ):
            np.testing.assert_array_equal(got, want)
        code, data, _ = run_json(capsys, "certify", "--d", "2", *flags)
        assert code == 0
        assert data["results"]["claim"] == "NOT_REALIZABLE"

    @pytest.mark.parametrize(
        "matrix",
        [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], np.eye(2)],
        ids=["non-unitary", "wrong-shape"],
    )
    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_bad_rho_basis(self, capsys, tmp_path, command, matrix):
        path = tmp_path / "basis.json"
        save_json({"matrix": matrix_to_pairs(matrix)}, path)
        code, out, err = run(
            capsys, *command, "--d", "3", "--d-fin", "3",
            "--rho-target", "0.5,0.3,0.2", "--rho-basis", str(path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: not unitary\n"

    @pytest.mark.parametrize("command", [("certify",), ("build", "counterexample")])
    def test_rejects_empty_rho_basis(self, capsys, command):
        # An empty path names no file; it does not mean the flag was left out.
        code, out, err = run(
            capsys, *command, "--d", "2", "--d-fin", "2",
            "--rho-target", "0.5,0.5", "--rho-basis", "",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_from_dilation_checks_env_shape_first(self, capsys, tmp_path):
        # A 3×3 env_state that is not Hermitian either: the shape is wrong
        # for d_fin = 2, and that is what the one error line says.
        from envchan import implementing_unitary
        from envchan.io import dilation_to_dict

        data = dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8))
        data["env_state"] = matrix_to_pairs(np.array([[0.5, 1, 0], [0, 0.5, 0], [0, 0, 0]]))
        dil_path = tmp_path / "dilation.json"
        save_json(data, dil_path)
        code, out, err = run(capsys, "build", "from-dilation", str(dil_path))
        assert (code, out, err) == (2, "", "error: shape mismatch\n")


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
    def test_long_rho_target_is_a_shape_mismatch(self, capsys, monkeypatch):
        # The shape is compared before ρ' is validated, so a long list is
        # turned away without eigendecomposing a 1000 × 1000 matrix.
        def no_spectrum(rho):
            raise AssertionError("validated before the shape check")

        monkeypatch.setattr(counterexample, "validate_density_matrix", no_spectrum)
        code, out, err = run(
            capsys, "certify", "--d", "3", "--d-fin", "2",
            "--rho-target", ",".join(["0.001"] * 1000),
        )
        assert code == 2
        assert out == ""
        assert err == "error: shape mismatch\n"

    def test_rho_target_length_is_checked_before_allocation(self, capsys):
        # The eigenvalue count is compared with --d-fin before np.diag builds
        # a 1500 × 1500 complex ρ' (36 MB).
        argv = ("certify", "--d", "3", "--d-fin", "2",
                "--rho-target", ",".join(["0.001"] * 1500))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == "error: shape mismatch\n"
        assert peak < 1_000_000

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
        assert results["excluded_ranks"] == [[1, "decoherence"], [2, "overlap"]]
        assert results["membership"]["choi_distance"] < 1e-8
        canonical = matrix_from_pairs(results["membership"]["canonical_rho_target"])
        np.testing.assert_allclose(canonical, np.eye(2) / 2, atol=1e-9)

    def test_canonical_rho_target_is_fixed_on_phi_only(self, capsys, tmp_path):
        # canonical_rho_target is ρ′ in a basis whose first vector is the
        # common pure image φ and whose others come from complete_unitary(φ).
        # Two output unitaries that agree on φ give one spectrum and one
        # ⟨0′|ρ′|0′⟩; the other entries follow the basis of φ's complement.
        rng = np.random.default_rng(24)
        member = build_counterexample(
            CounterexampleParams(3, 3, random_density_matrix(3, rng))
        )
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        first = np.linalg.qr(g)[0]
        turn = np.eye(3, dtype=complex)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        turn[1:, 1:] = np.linalg.qr(g)[0]
        reported = []
        for k, unitary in enumerate((first, first @ turn)):
            path = tmp_path / f"member-{k}.json"
            rotated = Channel.from_kraus(unitary @ op for op in member.kraus.operators)
            save_json(channel_to_dict(rotated), path)
            code, data, _ = run_json(capsys, "certify", str(path))
            assert code == 0
            membership = data["results"]["membership"]
            reported.append(matrix_from_pairs(membership["canonical_rho_target"]))
        a, b = reported
        np.testing.assert_allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-12)
        assert a[0, 0] == pytest.approx(b[0, 0], abs=1e-12)
        assert not np.allclose(a, b, atol=1e-6)

    def test_non_family_file_is_inconclusive(self, capsys, identity_file):
        code, data, _ = run_json(capsys, "certify", identity_file)
        assert code == 3
        assert data["results"]["claim"] == "INCONCLUSIVE"
        assert data["results"]["narrative"]

    def test_mixed_first_image_file_is_inconclusive(self, capsys, tmp_path):
        # A full-rank random channel sends |0><0| to a mixed state, so there
        # is no common pure image to match.
        path = tmp_path / "random.json"
        save_json(channel_to_dict(random_channel(3, 2, np.random.default_rng(21))), path)
        code, data, err = run_json(capsys, "certify", str(path))
        assert code == 3
        assert err == ""
        assert data["results"]["claim"] == "INCONCLUSIVE"

    def test_file_off_trace_within_load_tolerance_is_certified(self, capsys, tmp_path):
        # Scaling the last Kraus operator by 1 + 4e-9 keeps the file within
        # its 1e-8 load tolerance but puts tr(rho') 4e-9 above 1. rho' is
        # divided by its trace, so the one Choi comparison decides.
        member = build_counterexample(CounterexampleParams(3, 2, np.diag([0.5, 0.5])))
        ops = list(member.kraus.operators)
        ops[-1] = ops[-1] * (1 + 4e-9)
        path = tmp_path / "near.json"
        save_json(channel_to_dict(Channel(KrausSet(tuple(ops), atol=FILE))), path)
        code, data, err = run_json(capsys, "certify", str(path))
        assert code == 0
        assert err == ""
        assert data["results"]["claim"] == "NOT_REALIZABLE"
        assert data["results"]["membership"]["choi_distance"] <= 1e-8

    def test_near_member_file_is_inconclusive(self, capsys, tmp_path):
        # The member after the input rotation exp(iε·σ_x) on |0⟩, |d−1⟩ is
        # exactly trace preserving, but it keeps coherences of order ε between
        # |0⟩ and |d−1⟩, which put it more than 1e-8 from the rebuilt member.
        d = 3
        member = build_counterexample(CounterexampleParams(d, 2, np.diag([0.5, 0.5])))
        for eps in (1e-5, 1e-6, 1e-7):
            turn = np.eye(d, dtype=complex)
            turn[[0, d - 1], [0, d - 1]] = np.cos(eps)
            turn[[0, d - 1], [d - 1, 0]] = 1j * np.sin(eps)
            near = Channel.from_kraus(op @ turn for op in member.kraus.operators)
            path = tmp_path / "near.json"
            save_json(channel_to_dict(near), path)
            assert match_family(channel_from_dict(load_json(path))) is None
            code, data, err = run_json(capsys, "certify", str(path))
            assert code == 3
            assert err == ""
            assert data["results"]["claim"] == "INCONCLUSIVE"

    @pytest.mark.parametrize(
        "d, d_fin, seed", [(2, 2, 0), (3, 2, 2), (2, 3, 0), (3, 3, 0)]
    )
    def test_rounded_member_files_are_certified(self, capsys, tmp_path, d, d_fin, seed):
        # An output-rotated member with every Kraus entry rounded to 10 or 8
        # decimals is certified by its Choi distance alone. Rounding to 8
        # decimals can put a file outside the 1e-8 load tolerance; these
        # members' files load, which the test checks first.
        rng = np.random.default_rng([d, d_fin, seed])
        member = build_counterexample(
            CounterexampleParams(d, d_fin, random_density_matrix(d_fin, rng))
        )
        g = rng.normal(size=(d_fin, d_fin)) + 1j * rng.normal(size=(d_fin, d_fin))
        rotation = np.linalg.qr(g)[0]
        data = channel_to_dict(Channel.from_kraus(rotation @ op for op in member.kraus.operators))
        for decimals in (10, 8):
            rounded = dict(data, kraus=np.round(data["kraus"], decimals).tolist())
            channel_from_dict(rounded)
            path = tmp_path / f"rounded-{decimals}.json"
            save_json(rounded, path)
            code, report, err = run_json(capsys, "certify", str(path))
            assert (code, err) == (0, "")
            assert report["results"]["claim"] == "NOT_REALIZABLE"
            assert report["results"]["membership"]["choi_distance"] <= 1e-8

    @pytest.mark.parametrize(
        "flags",
        [
            ("--d", "5", "--d-fin", "9", "--rho-target", "1,2"),
            ("--rho-basis", "basis.json"),
        ],
        ids=["rho-target", "rho-basis"],
    )
    def test_rejects_file_with_family_flags(self, capsys, counterexample_file, flags):
        code, out, err = run(capsys, "certify", counterexample_file, *flags)
        assert code == 2
        assert out == ""
        assert err == "error: give a channel file or family flags, not both\n"


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

    def test_undecided_exit_five(self, capsys, tmp_path):
        # One restart cut at 5 iterations stops between the two thresholds
        # (about 2e-4) on this realizable target.
        from envchan import Dilation, channel_from_dilation

        rng = np.random.default_rng(4)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        dil = Dilation(
            d_in=2, d_fin=2, d_env=0,
            unitary=u, env_state=np.diag([0.7, 0.3]).astype(complex),
        )
        path = tmp_path / "realizable.json"
        save_json(channel_to_dict(channel_from_dilation(dil)), path)
        code, data, _ = run_json(
            capsys, "search", str(path), "--restarts", "1", "--max-iters", "5"
        )
        assert code == 5
        results = data["results"]
        assert results["verdict"] == "UNDECIDED"
        assert 1e-6 <= results["best_residual"] <= 1e-3

    def test_rejects_zero_restarts(self, capsys, identity_file):
        code, _, err = run(capsys, "search", identity_file, "--restarts", "0")
        assert code == 2
        assert "restarts must be positive" in err

    def test_kraus_rank_two_random_channel_is_realized(self, capsys, tmp_path):
        # A 2→2 channel of Kraus rank 2 has a pure-initialization
        # realization; the search must find it, not report 0.68.
        path = str(tmp_path / "random.json")
        code, _, _ = run(
            capsys, "build", "random", "--d", "2", "--d-fin", "2",
            "--kraus-rank", "2", "--seed", "7", "--out", path,
        )
        assert code == 0
        code, data, _ = run_json(capsys, "search", path)
        assert code == 0
        assert data["results"]["verdict"] == "REALIZED"

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


def test_search_without_flags_is_the_default_search(capsys, identity_file):
    # An unset --restarts or --max-iters takes SearchConfig's value, and the
    # report still echoes the CLI's seed of 0.
    code, data, _ = run_json(capsys, "search", identity_file)
    explicit = ("--seed", "0", "--restarts", "50", "--max-iters", "2000")
    code_explicit, data_explicit, _ = run_json(capsys, "search", identity_file, *explicit)
    assert code == code_explicit == 0
    assert data["seed"] == data_explicit["seed"] == 0
    assert data["results"] == data_explicit["results"]


@pytest.mark.parametrize("command", ["search", "perturb"])
def test_search_help_names_search_config(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    out = " ".join(capsys.readouterr().out.split())
    assert "(default SearchConfig.restarts)" in out
    assert "(default SearchConfig.max_iters)" in out
    assert "RNG seed (default 0)" in out


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
    """The report encoder must keep the envelope's keys and each result's
    keys in this order."""

    ENVELOPE = [
        "format_version", "kind", "command", "argv", "seed", "duration_seconds", "results",
    ]

    def test_search(self, capsys, counterexample_file):
        _, data, _ = run_json(
            capsys, "search", counterexample_file, "--restarts", "1", "--max-iters", "20"
        )
        assert list(data) == self.ENVELOPE
        assert list(data["results"]) == [
            "verdict", "best_residual", "residual_history", "best_env_spectrum",
            "best_unitary", "realizable_threshold", "nonrealizable_threshold", "note",
        ]

    def test_perturb(self, capsys, identity_file):
        _, data, _ = run_json(
            capsys, "perturb", identity_file, "--radius", "0.01", "--samples", "1",
            "--restarts", "1", "--max-iters", "20",
        )
        assert list(data) == self.ENVELOPE
        assert list(data["results"]) == [
            "radius", "n_samples", "fraction_likely_not_realizable", "verdicts",
            "best_residuals", "residual_min", "residual_max", "residual_mean",
            "residual_median", "note",
        ]

    def test_certify_with_membership(self, capsys, counterexample_file):
        _, data, _ = run_json(capsys, "certify", counterexample_file)
        assert list(data) == self.ENVELOPE
        assert data["seed"] is None
        assert list(data["results"]) == [
            "claim", "excluded_ranks", "narrative", "membership",
        ]
        assert list(data["results"]["membership"]) == [
            "choi_distance", "canonical_rho_target",
        ]

    def test_certify_inconclusive(self, capsys, identity_file):
        _, data, _ = run_json(capsys, "certify", identity_file)
        assert list(data) == self.ENVELOPE
        assert data["seed"] is None
        assert list(data["results"]) == ["claim", "narrative"]

    def test_certify_flags(self, capsys):
        _, data, _ = run_json(
            capsys, "certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.5,0.5"
        )
        assert list(data) == self.ENVELOPE
        assert data["seed"] is None
        assert list(data["results"]) == ["claim", "excluded_ranks", "narrative"]


class TestOutput:
    """Every JSON-writing command writes the same payload to --out as to
    standard output, in the same format."""

    @pytest.fixture
    def files(self, tmp_path, identity_file, counterexample_file):
        from envchan import implementing_unitary
        from envchan.io import dilation_to_dict

        dilation = tmp_path / "dilation.json"
        save_json(dilation_to_dict(implementing_unitary(2, 2, 0.6, 0.8)), dilation)
        state = tmp_path / "state.json"
        save_json(state_to_dict(random_density_matrix(2, np.random.default_rng(0))), state)
        return {
            "identity": identity_file, "counterexample": counterexample_file,
            "dilation": str(dilation), "state": str(state),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "counterexample", "--d", "2", "--d-fin", "2", "--rho-target", "0.5,0.5"],
            ["build", "random", "--d", "2", "--d-fin", "2", "--seed", "3"],
            ["build", "from-dilation", "{dilation}"],
            ["certify", "{counterexample}"],
            ["certify", "{identity}"],
            ["convert", "{counterexample}", "--to", "choi"],
            ["apply", "{identity}", "{state}"],
            ["search", "{counterexample}", "--restarts", "1", "--max-iters", "20"],
            ["perturb", "{identity}", "--radius", "0.01", "--samples", "1",
             "--restarts", "1", "--max-iters", "20"],
        ],
        ids=[
            "build-counterexample", "build-random", "build-from-dilation", "certify",
            "certify-inconclusive", "convert", "apply", "search", "perturb",
        ],
    )
    def test_out_file_matches_stdout(self, capsys, tmp_path, files, argv):
        argv = [a.format(**files) for a in argv]
        out_path = str(tmp_path / "out.json")
        code_stdout, printed, _ = run(capsys, *argv)
        code_file, written_out, _ = run(capsys, *argv, "--out", out_path)
        assert code_file == code_stdout
        assert written_out == ""
        with open(out_path, encoding="utf-8") as handle:
            written = handle.read()
        payloads = []
        for text in (printed, written):
            data = json.loads(text)
            assert text == json.dumps(data, indent=2) + "\n"
            data.pop("duration_seconds", None)
            payloads.append(data)
        if "argv" in payloads[1]:
            assert payloads[1]["argv"] == argv + ["--out", out_path]
            payloads[1]["argv"] = argv
        assert payloads[0] == payloads[1]

    def test_out_in_missing_directory_exits_two(self, capsys, tmp_path, counterexample_file):
        missing = str(tmp_path / "missing" / "out.json")
        code, out, err = run(capsys, "certify", counterexample_file, "--out", missing)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "random", "--d", "2", "--d-fin", "2", "--seed", "1"],
            ["certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.5,0.5"],
        ],
        ids=["build", "report"],
    )
    def test_empty_out_exits_two(self, capsys, argv):
        # An empty path names no file; it does not mean stdout.
        code, out, err = run(capsys, *argv, "--out", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_allocation_failure_exits_two(self, capsys):
        # The first request is ~589 TiB, more than a 47/48-bit user address
        # space can map, so numpy fails before touching any memory.
        code, out, err = run(capsys, "build", "random", "--d", "3000", "--d-fin", "3000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "convert", str(path), "--to", "choi")
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [["convert", "huge.json", "--to", "kraus"], ["apply", "huge.json", "state.json"]],
        ids=["convert", "apply"],
    )
    def test_overflowing_kraus_file_exits_two(self, capsys, tmp_path, monkeypatch, command):
        # Finite entries whose Σ E†E overflows to inf and NaN: the load must
        # reject the channel, not write NaN or Infinity. The overflow comes
        # from the input, so its RuntimeWarnings, which the test settings
        # turn into errors, are silenced here.
        monkeypatch.chdir(tmp_path)
        data = channel_to_dict(identity_channel(2))
        data["kraus"] = [matrix_to_pairs(1e200 * np.array([[1, 1], [1, 1j]]))]
        save_json(data, "huge.json")
        save_json(state_to_dict(np.eye(2) / 2), "state.json")
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "not trace preserving" in err

    def test_overflowing_input_gives_one_stderr_line(self, capsys, tmp_path, monkeypatch):
        # main runs every command with overflow and invalid-value warnings
        # off, so an overflow in the input neither warns (the test settings
        # would make that an error) nor adds lines before the one error line.
        from envchan import Dilation
        from envchan.io import dilation_to_dict

        monkeypatch.chdir(tmp_path)
        data = channel_to_dict(identity_channel(2))
        data["kraus"] = [matrix_to_pairs(1e200 * np.array([[1, 1], [1, 1j]]))]
        save_json(data, "huge.json")
        save_json(state_to_dict(np.eye(2) / 2), "state.json")
        dilation = dilation_to_dict(Dilation(2, 2, 0, np.eye(4), np.eye(2) / 2))
        dilation["unitary"] = matrix_to_pairs(1e200 * np.eye(4))
        save_json(dilation, "huge_dilation.json")
        family = ["--d", "2", "--d-fin", "2", "--rho-target", "1e308,1e308"]
        family3 = ["--d", "2", "--d-fin", "3", "--rho-target", "1e308,1e308,0.1"]
        cases = [
            (["convert", "huge.json", "--to", "kraus"], "not trace preserving"),
            (["certify", "huge.json"], "not trace preserving"),
            (["search", "huge.json"], "not trace preserving"),
            (
                ["perturb", "huge.json", "--radius", "0.01", "--samples", "1"],
                "not trace preserving",
            ),
            (["apply", "huge.json", "state.json"], "not trace preserving"),
            (["build", "from-dilation", "huge_dilation.json"], "not unitary"),
            (["certify", *family], "not positive semidefinite"),
            (["build", "counterexample", *family], "not positive semidefinite"),
            # Three entries: LAPACK fails to converge rather than give NaN.
            (["certify", *family3], "not positive semidefinite"),
            (["build", "counterexample", *family3], "not positive semidefinite"),
        ]
        for command, message in cases:
            code, out, err = run(capsys, *command)
            assert (code, out, err) == (2, "", f"error: {message}\n"), command

    def test_warning_filter_is_narrow(self, monkeypatch):
        # Only overflow and invalid-value warnings are off: any other
        # RuntimeWarning, divide by zero among them, reaches the test
        # settings' error filter.
        def divide(args):
            warnings.warn("divide by zero encountered in divide", RuntimeWarning)
            return 0, 0

        monkeypatch.setattr("envchan.cli.cmd_params", divide)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            main(["params", "--d", "2", "--d-fin", "2"])

    def test_warning_filter_leaves_no_trace(self, capsys):
        before = list(warnings.filters)
        assert run(capsys, "params", "--d", "2", "--d-fin", "2") == (0, "12\n", "")
        assert warnings.filters == before

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


def test_readme_commands_parse():
    # Every envchan line of the README's "Command line" code block.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("envchan ")]
    assert len(commands) == 12
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])


NO_SCIPY = """
import os, sys
import numpy as np
from envchan import Dilation, basis_state, projector
from envchan.cli import main
from envchan.io import dilation_to_dict, save_json, state_to_dict

os.chdir(sys.argv[1])
save_json(state_to_dict(projector(basis_state(2, 0))), "state.json")
save_json(dilation_to_dict(Dilation(
    d_in=2, d_fin=2, d_env=0, unitary=np.eye(4, dtype=complex),
    env_state=np.diag([0.7, 0.3]).astype(complex),
)), "dilation.json")
for argv in (
    ["params", "--d", "3", "--d-fin", "2"],
    ["certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.7,0.3"],
    ["build", "counterexample", "--d", "2", "--d-fin", "2",
     "--rho-target", "0.5,0.5", "--out", "channel.json"],
    ["build", "random", "--d", "2", "--d-fin", "2", "--out", "random.json"],
    ["build", "from-dilation", "dilation.json", "--out", "induced.json"],
    ["convert", "channel.json", "--to", "choi", "--out", "choi.json"],
    ["apply", "channel.json", "state.json", "--out", "out.json"],
    ["search", "induced.json", "--restarts", "2", "--out", "search.json"],
    ["perturb", "channel.json", "--radius", "0.01", "--samples", "1",
     "--restarts", "2", "--out", "perturb.json"],
):
    assert main(argv) == 0, argv
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_no_command_loads_scipy(tmp_path):
    # The package depends on NumPy alone: a fresh interpreter that runs
    # every subcommand, the search and the perturbation experiment
    # included, must not load SciPy.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
