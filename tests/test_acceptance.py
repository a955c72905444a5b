"""Acceptance suite: one test per end-to-end behavioral guarantee of the
package, each printing a single pass/fail line (run with ``pytest -s`` to
see them).

The eleven criteria cover: the family action formula, the explicit
implementing dilation, pure-environment dilation size, the search-space
parameter count, the spectral decomposition identity, the purity lemma for
mixtures, the analytic certificate across dimensions, searcher recovery of
realizable channels, searcher corroboration on the counterexample, the
perturbation experiment around the counterexample versus the identity, and
the CLI round trip with its exit codes.
"""

import json

import numpy as np

from envchan import (
    LIKELY_NOT_REALIZABLE,
    NOT_REALIZABLE,
    REALIZED,
    Channel,
    CounterexampleParams,
    Dilation,
    SearchConfig,
    apply,
    basis_state,
    build_counterexample,
    certify_nonrealizable,
    channel_from_dilation,
    complete_unitary,
    decompose_mixed_env,
    distance,
    identity_channel,
    implementing_unitary,
    mix,
    parameter_count,
    perturbation_experiment,
    projector,
    purity,
    random_channel,
    random_density_matrix,
    random_pure_state,
    search_mixed_env_realization,
    stinespring_from_kraus,
)
from envchan.cli import main as cli_main
from envchan.io import channel_from_dict, channel_to_dict, load_json, save_json


def check(num, ok, summary):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {summary}")
    assert ok, f"criterion {num:02d}: {summary}"


def haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def admissible_target(d, d_fin, rng):
    while True:
        rho = random_density_matrix(d_fin, rng)
        if d > 2 or rho[0, 0].real > 1e-6:
            return rho


def test_criterion_01_family_action_formula():
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in (2, 3, 4):
        for d_fin in (2, 3):
            params = CounterexampleParams(d, d_fin, admissible_target(d, d_fin, rng))
            channel = build_counterexample(params)
            pure = projector(basis_state(d_fin, 0))
            for _ in range(100):
                psi = random_pure_state(d, rng)
                collapse_weight = float(np.sum(np.abs(psi[: d - 1]) ** 2))
                mixed_weight = float(np.abs(psi[d - 1]) ** 2)
                expected = collapse_weight * pure + mixed_weight * params.rho_target
                worst = max(
                    worst,
                    float(np.max(np.abs(apply(channel, projector(psi)) - expected))),
                )
    check(1, worst < 1e-10, f"action formula, max entrywise error {worst:.2e} < 1e-10")


def test_criterion_02_implementing_unitary():
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(20):
            a = rng.uniform(0.05, 0.95)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            alpha, beta = phases[0] * np.sqrt(a), phases[1] * np.sqrt(1 - a)
            induced = channel_from_dilation(implementing_unitary(d, 2, alpha, beta))
            rho = np.diag([abs(alpha) ** 2, abs(beta) ** 2]).astype(complex)
            direct = build_counterexample(CounterexampleParams(d, 2, rho))
            worst = max(worst, distance(induced, direct))
    check(2, worst < 1e-9, f"dilation matches family, max distance {worst:.2e} < 1e-9")


def test_criterion_03_pure_environment_bound():
    rng = np.random.default_rng(103)
    env_dims = []
    worst = 0.0
    for k in range(50):
        rank = 4 - (k % 4)
        channel = random_channel(2, 2, rng, kraus_rank=rank)
        dilation = stinespring_from_kraus(channel.kraus)
        env_dims.append(dilation.d_env)
        worst = max(worst, distance(channel_from_dilation(dilation), channel))
    ok = max(env_dims) <= 4 and worst < 1e-9 and 4 in env_dims
    check(
        3,
        ok,
        f"qubit dilations: d_env <= 4 (max {max(env_dims)}), attained 4, "
        f"round trip {worst:.2e} < 1e-9",
    )


def test_criterion_04_parameter_count():
    ok = (
        parameter_count(2, 2) == 12
        and parameter_count(3, 2) == 27
        and parameter_count(2, 3) == 32
    )
    for d in range(1, 7):
        for dp in range(1, 7):
            closed_form = d * d * (dp * dp - 1)
            term_chain = (dp - 1) - (dp - 1) + (d * d * dp * dp - 1) - (d * d - 1)
            ok = ok and parameter_count(d, dp) == closed_form == term_chain
    check(4, ok, "parameter count matches closed form and term chain on 1..6")


def test_criterion_05_spectral_decomposition_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for k in range(50):
        d = 2 + (k % 2)
        dilation = Dilation(
            d_in=d,
            d_fin=d,
            d_env=0,
            unitary=haar_unitary(d * d, rng),
            env_state=random_density_matrix(d, rng),
        )
        components = decompose_mixed_env(dilation)
        recombined = mix(
            [c.channel for c in components], [c.weight for c in components]
        )
        worst = max(worst, distance(recombined, channel_from_dilation(dilation)))
    check(5, worst < 1e-9, f"mix(decompose(D)) == D-channel, max {worst:.2e} < 1e-9")


def test_criterion_06_purity_lemma():
    # Constructive instances: mixtures w·A + (1−w)·B that send a pure input
    # to a pure output. The lemma forces each component to send it to the
    # same pure output; count violations at 1e-6.
    rng = np.random.default_rng(106)

    def rotation_onto(src, dst, rng):
        d = len(src)
        block = np.zeros((d, d), dtype=complex)
        block[0, 0] = 1.0
        block[1:, 1:] = haar_unitary(d - 1, rng)
        return complete_unitary(dst) @ block @ complete_unitary(src).conj().T

    violations = 0
    premise_failures = 0
    for k in range(100):
        kind = k % 3
        if kind == 0:
            # Two distinct unitary channels agreeing on phi -> tau.
            d = int(rng.integers(2, 5))
            phi, tau = random_pure_state(d, rng), random_pure_state(d, rng)
            a = Channel.from_kraus([rotation_onto(phi, tau, rng)])
            b = Channel.from_kraus([rotation_onto(phi, tau, rng)])
        elif kind == 1:
            # Constant-to-tau channel mixed with a unitary sending phi -> tau.
            d = int(rng.integers(2, 5))
            phi, tau = random_pure_state(d, rng), random_pure_state(d, rng)
            a = Channel.from_kraus(
                [np.outer(tau, basis_state(d, i).conj()) for i in range(d)]
            )
            b = Channel.from_kraus([rotation_onto(phi, tau, rng)])
        else:
            # Two family members with different mixed images; both send
            # |0> to the same pure output.
            d, d_fin = 3, 2
            phi = basis_state(d, 0)
            a = build_counterexample(
                CounterexampleParams(d, d_fin, random_density_matrix(d_fin, rng))
            )
            b = build_counterexample(
                CounterexampleParams(d, d_fin, random_density_matrix(d_fin, rng))
            )
        w = float(rng.uniform(0.1, 0.9))
        mixed_image = apply(mix([a, b], [w, 1.0 - w]), projector(phi))
        if purity(mixed_image) < 1.0 - 1e-12:
            premise_failures += 1
            continue
        for component in (a, b):
            deviation = np.max(np.abs(apply(component, projector(phi)) - mixed_image))
            if deviation >= 1e-6:
                violations += 1
    ok = violations == 0 and premise_failures == 0
    check(
        6,
        ok,
        f"purity lemma: 100 pure-image mixtures, {violations} component "
        f"violations at 1e-6",
    )


def test_criterion_07_analytic_certificate():
    rng = np.random.default_rng(107)
    ok = True
    for d in (2, 3, 4, 5):
        for d_fin in (2, 3):
            params = CounterexampleParams(d, d_fin, admissible_target(d, d_fin, rng))
            cert = certify_nonrealizable(params)
            ok = ok and cert.claim == NOT_REALIZABLE
            ok = ok and [r for r, _ in cert.excluded_ranks] == list(range(1, d_fin + 1))
            if d == 2:
                ok = ok and (2, "overlap") in cert.excluded_ranks
                for r in range(3, d_fin + 1):
                    ok = ok and any(
                        f"{r * (d - 1)} > {d}" in step for step in cert.narrative
                    )
            else:
                for r in range(2, d_fin + 1):
                    ok = ok and any(
                        f"{r * (d - 1)} > {d}" in step for step in cert.narrative
                    )
    check(7, ok, "certificate NOT_REALIZABLE with counting/d=2 branches, d in 2..5")


def test_criterion_08_searcher_recovers_realizable():
    rng = np.random.default_rng(108)
    realized = 0
    for _ in range(100):
        dilation = Dilation(
            d_in=2,
            d_fin=2,
            d_env=0,
            unitary=haar_unitary(4, rng),
            env_state=np.diag(rng.dirichlet(np.ones(2))).astype(complex),
        )
        target = channel_from_dilation(dilation)
        result = search_mixed_env_realization(target)
        if result.verdict == REALIZED and result.best_residual < 1e-6:
            realized += 1
    check(8, realized >= 95, f"search realized {realized}/100 constructed targets")


def test_criterion_09_searcher_flags_counterexample():
    target = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
    result = search_mixed_env_realization(target, SearchConfig(restarts=50))
    ok = result.verdict == LIKELY_NOT_REALIZABLE and result.best_residual > 1e-3
    check(
        9,
        ok,
        f"counterexample best residual {result.best_residual:.3e} > 1e-3 "
        f"({result.verdict})",
    )


def test_criterion_10_perturbation_experiment():
    config = SearchConfig(seed=11)
    center = build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))
    nearby = perturbation_experiment(center, 0.01, 20, config)
    baseline = perturbation_experiment(identity_channel(2), 0.01, 20, config)
    ok = (
        nearby.fraction_likely_not_realizable >= 0.8
        and baseline.fraction_likely_not_realizable <= 0.2
    )
    check(
        10,
        ok,
        f"fraction flagged near counterexample "
        f"{nearby.fraction_likely_not_realizable:.2f} >= 0.8, near identity "
        f"{baseline.fraction_likely_not_realizable:.2f} <= 0.2",
    )


def test_criterion_11_cli_round_trip_and_exit_codes(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    kraus_path = str(tmp_path / "family.json")
    choi_path = str(tmp_path / "family_choi.json")
    code_build, _ = run(
        "build", "counterexample", "--d", "2", "--d-fin", "2",
        "--rho-target", "0.5,0.5", "--out", kraus_path,
    )
    code_choi, _ = run("convert", kraus_path, "--to", "choi", "--out", choi_path)
    code_kraus, out = run("convert", choi_path, "--to", "kraus")
    round_trip = distance(
        channel_from_dict(json.loads(out)),
        channel_from_dict(load_json(kraus_path)),
    )

    rng = np.random.default_rng(111)
    realizable = channel_from_dilation(
        Dilation(
            d_in=2, d_fin=2, d_env=0,
            unitary=haar_unitary(4, rng),
            env_state=np.diag([0.6, 0.4]).astype(complex),
        )
    )
    realizable_path = str(tmp_path / "realizable.json")
    save_json(channel_to_dict(realizable), realizable_path)
    identity_path = str(tmp_path / "identity.json")
    save_json(channel_to_dict(identity_channel(2)), identity_path)

    code_certify_family, _ = run("certify", kraus_path)
    code_certify_other, _ = run("certify", identity_path)
    code_search_good, _ = run("search", realizable_path, "--restarts", "10")
    code_search_ce, _ = run("search", kraus_path, "--restarts", "5")

    ok = (
        code_build == 0
        and code_choi == 0
        and code_kraus == 0
        and round_trip < 1e-9
        and code_certify_family == 0
        and code_certify_other == 3
        and code_search_good == 0
        and code_search_ce == 4
    )
    check(
        11,
        ok,
        f"CLI round trip {round_trip:.2e} < 1e-9; exit codes certify 0/3, "
        f"search 0/4",
    )
