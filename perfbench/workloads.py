"""The four workloads: fixed input corpora with their ground truth, and one
op per input.

Each corpus is drawn from its own fixed generator seed, so every run
measures the same inputs; the run seed only sets the order in which they
are sent (see ``run.py``). An op returns its deterministic results, with
``outcome`` (a verdict or an exit code) compared against ``expected``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Package functions are called through the ``envchan`` namespace, looked up
# on each call, so the traced run's wrappers see the benchmark's own calls.
import envchan
from envchan import (
    LIKELY_NOT_REALIZABLE,
    NOT_REALIZABLE,
    REALIZED,
    CounterexampleParams,
    Dilation,
    SearchConfig,
)
from envchan import io as envio

# realizable_2x2: the first targets of the criterion-08 generator.
REALIZABLE_SEED = 108
REALIZABLE_TARGETS = 40
# nonrealizable_2x2: criterion-10's neighborhood of the d=2 counterexample;
# sample k searches with config seed PERTURB_SEED + k.
PERTURB_SEED = 11
PERTURB_RADIUS = 0.01
PERTURB_SAMPLES = 4
# larger_dims: per dimension pair, LARGER_PER_KIND constructed-realizable
# targets and as many certified family members, searched with a fixed,
# reduced restart count (the default 50 costs ~40 s per (3,3) target).
LARGER_SEED = 344
LARGER_DIMS = ((3, 2), (3, 3), (4, 4))
LARGER_PER_KIND = 1
LARGER_RESTARTS = 3
# cli_session: files the commands read, generated from this seed.
CLI_SEED = 111
CLI_TIMEOUT_S = 120

SEEDS = {
    "realizable_2x2": REALIZABLE_SEED,
    "nonrealizable_2x2": PERTURB_SEED,
    "larger_dims": LARGER_SEED,
    "cli_session": CLI_SEED,
}

# Residual agreement demanded between the search's re-check and the
# benchmark's own recomputation of a REALIZED point.
RECHECK_ATOL = 1e-9


@dataclass
class Op:
    label: str
    expected: object
    run: Callable[[], dict]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Ginibre matrix (as criterion 08)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _constructed_realizable(d: int, dp: int, rng: np.random.Generator):
    dilation = Dilation(
        d_in=d,
        d_fin=dp,
        d_env=0,
        unitary=haar_unitary(d * dp, rng),
        env_state=np.diag(rng.dirichlet(np.ones(dp))).astype(complex),
    )
    return envchan.channel_from_dilation(dilation)


def _certified_member(params: CounterexampleParams):
    cert = envchan.certify_nonrealizable(params)
    if cert.claim != NOT_REALIZABLE:
        raise RuntimeError(f"family member not certified: {cert.claim}")
    return envchan.build_counterexample(params)


def independent_residual(target, unitary, spectrum) -> float:
    """Choi distance between ``target`` and the dilation (unitary,
    diag(spectrum)), computed here from the Kraus operators and the
    unitary's entries, without the package's dilation code."""
    d, dp = target.d_in, target.d_out
    u4 = np.asarray(unitary).reshape(d, dp, d, dp)  # [a, m, i, s]
    found = np.einsum("s,amis,anjs->minj", np.asarray(spectrum), u4, u4.conj())
    ops = np.stack(target.kraus.operators)  # [k, m, i]
    wanted = np.einsum("kmi,knj->minj", ops, ops.conj())
    return float(np.linalg.norm((found - wanted).ravel()))


def _search_op(label: str, target, config: SearchConfig, expected: str) -> Op:
    def run() -> dict:
        result = envchan.search_mixed_env_realization(target, config)
        out = {
            "outcome": result.verdict,
            "best_residual": result.best_residual,
            "restarts": len(result.residual_history),
        }
        if result.verdict == REALIZED:
            recheck = independent_residual(
                target, result.best_unitary, result.best_env_spectrum)
            if not (recheck < config.realizable_threshold
                    and abs(recheck - result.best_residual) <= RECHECK_ATOL):
                out["unsound"] = f"REALIZED but independent residual {recheck!r}"
        return out

    return Op(label=label, expected=expected, run=run)


def realizable_2x2(workdir: str) -> list:
    rng = np.random.default_rng(REALIZABLE_SEED)
    return [
        _search_op(f"target-{k}", _constructed_realizable(2, 2, rng), SearchConfig(), REALIZED)
        for k in range(REALIZABLE_TARGETS)
    ]


def nonrealizable_2x2(workdir: str) -> list:
    center = _certified_member(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))

    def sample(k: int) -> Op:
        config = SearchConfig(seed=PERTURB_SEED + k)

        def run() -> dict:
            report = envchan.perturbation_experiment(center, PERTURB_RADIUS, 1, config)
            return {
                "outcome": report.verdicts[0],
                "best_residual": report.best_residuals[0],
            }

        return Op(label=f"sample-seed{config.seed}", expected=LIKELY_NOT_REALIZABLE, run=run)

    return [sample(k) for k in range(PERTURB_SAMPLES)]


def larger_dims(workdir: str) -> list:
    rng = np.random.default_rng(LARGER_SEED)
    config = SearchConfig(restarts=LARGER_RESTARTS)
    ops = []
    for d, dp in LARGER_DIMS:
        for j in range(LARGER_PER_KIND):
            ops.append(_search_op(f"{d}x{dp}-realizable-{j}",
                                  _constructed_realizable(d, dp, rng), config, REALIZED))
            rho = np.diag(rng.dirichlet(np.ones(dp))).astype(complex)
            ops.append(_search_op(f"{d}x{dp}-certified-{j}",
                                  _certified_member(CounterexampleParams(d, dp, rho)),
                                  config, LIKELY_NOT_REALIZABLE))
    return ops


# cli_session script: (label, argv, expected exit code, whether the command
# writes its output with --out rather than to standard output). Expected
# exit codes are those in the cli module's docstring.
CLI_SCRIPT = (
    ("build-counterexample",
     ["build", "counterexample", "--d", "2", "--d-fin", "2", "--rho-target", "0.5,0.5"], 0, True),
    ("build-random", ["build", "random", "--d", "3", "--d-fin", "2", "--seed", "7"], 0, True),
    ("build-from-dilation", ["build", "from-dilation", "dilation.json"], 0, True),
    ("certify-flags", ["certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.7,0.3"], 0, True),
    ("certify-file", ["certify", "family.json"], 0, True),
    ("convert", ["convert", "channel.json", "--to", "choi"], 0, True),
    ("apply", ["apply", "channel.json", "state.json"], 0, True),
    ("params", ["params", "--d", "3", "--d-fin", "3"], 0, False),
    ("search", ["search", "realizable.json", "--restarts", "10"], 0, True),
    ("perturb", ["perturb", "counterexample.json", "--radius", "0.01", "--samples", "1",
                 "--restarts", "5"], 0, True),
)

# Exit code each report implies, from the cli module's docstring.
_SEARCH_CODES = {REALIZED: 0, LIKELY_NOT_REALIZABLE: 4, "UNDECIDED": 5}
_CERTIFY_CODES = {NOT_REALIZABLE: 0, "INCONCLUSIVE": 3}


def write_cli_inputs(workdir: str) -> None:
    """The files the cli_session script reads."""
    rng = np.random.default_rng(CLI_SEED)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    realizable = Dilation(
        d_in=2, d_fin=2, d_env=0,
        unitary=haar_unitary(4, rng),
        env_state=np.diag([0.6, 0.4]).astype(complex),
    )
    basis = haar_unitary(2, rng)
    family = CounterexampleParams(3, 2, basis @ np.diag([0.7, 0.3]) @ basis.conj().T)
    files = {
        "realizable.json": envio.channel_to_dict(envchan.channel_from_dilation(realizable)),
        "dilation.json": envio.dilation_to_dict(Dilation(
            d_in=2, d_fin=2, d_env=0, unitary=haar_unitary(4, rng),
            env_state=np.diag(rng.dirichlet(np.ones(2))).astype(complex))),
        "family.json": envio.channel_to_dict(envchan.build_counterexample(family)),
        "counterexample.json": envio.channel_to_dict(
            envchan.build_counterexample(CounterexampleParams(2, 2, np.diag([0.5, 0.5])))),
        "channel.json": envio.channel_to_dict(envchan.random_channel(2, 2, rng)),
        "state.json": envio.state_to_dict(envchan.random_density_matrix(2, rng)),
    }
    for name, data in files.items():
        envio.save_json(data, os.path.join(workdir, name))


def _cli_results(label: str, argv: list, code: int, stdout: str, workdir: str) -> dict:
    """Deterministic results of one command: exit code, a digest of its
    output without timing fields, and the verdicts it reports."""
    out = {"outcome": code}
    if "--out" in argv:
        with open(os.path.join(workdir, argv[argv.index("--out") + 1]), encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(stdout)
    if isinstance(payload, dict):
        payload.pop("duration_seconds", None)
        results = payload.get("results", {})
        if label == "search":
            out["verdict"] = results["verdict"]
            out["best_residual"] = results["best_residual"]
            if _SEARCH_CODES[results["verdict"]] != code:
                out["unsound"] = "exit code disagrees with the reported verdict"
        elif label == "perturb":
            out["verdicts"] = results["verdicts"]
            out["best_residuals"] = results["best_residuals"]
        elif label.startswith("certify"):
            out["claim"] = results["claim"]
            if _CERTIFY_CODES[results["claim"]] != code:
                out["unsound"] = "exit code disagrees with the reported claim"
    canonical = json.dumps(payload, sort_keys=True).encode()
    out["output_sha256"] = hashlib.sha256(canonical).hexdigest()
    return out


def run_cli_inprocess(argv: list, workdir: str):
    """``envchan.cli.main(argv)`` in this process, run from ``workdir``;
    returns (exit code, captured standard output). The module attribute is
    looked up on every call so a traced wrapper is seen."""
    import envchan.cli

    buf = _io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_io.StringIO()):
            code = envchan.cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def cli_session(workdir: str, env: dict, inprocess: bool) -> list:
    write_cli_inputs(workdir)

    def command(label: str, argv: list, expected: int, to_file: bool) -> Op:
        if to_file:
            argv = argv + ["--out", os.path.join("out", label + ".json")]

        def run_subprocess() -> dict:
            proc = subprocess.run(
                [sys.executable, "-m", "envchan.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )
            return _cli_results(label, argv, proc.returncode, proc.stdout, workdir)

        def run_inprocess() -> dict:
            code, stdout = run_cli_inprocess(argv, workdir)
            return _cli_results(label, argv, code, stdout, workdir)

        return Op(label=label, expected=expected,
                  run=run_inprocess if inprocess else run_subprocess)

    return [command(*entry) for entry in CLI_SCRIPT]


def make(name: str, workdir: str, env: dict, inprocess: bool = False) -> list:
    """The ops of workload ``name``. cli_session writes its input files into
    ``workdir`` and runs each command as a fresh subprocess with environment
    ``env``, unless ``inprocess``."""
    if name == "cli_session":
        return cli_session(workdir, env, inprocess)
    return {
        "realizable_2x2": realizable_2x2,
        "nonrealizable_2x2": nonrealizable_2x2,
        "larger_dims": larger_dims,
    }[name](workdir)
