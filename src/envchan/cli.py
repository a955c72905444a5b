"""Command-line interface.

Subcommands: build, certify, search, convert, apply, params, perturb.
Machine-readable JSON goes to --out or standard output; human-oriented
errors go to standard error.

Exit codes:
    0  success (including certificate NOT_REALIZABLE and search REALIZED)
    2  invalid input: bad flags, malformed files, failed validation
    3  certificate INCONCLUSIVE (the channel is not in the family)
    4  search verdict LIKELY_NOT_REALIZABLE
    5  search verdict UNDECIDED

Randomized commands (build random, search, perturb) default to --seed 0 so
reports are reproducible by re-running the echoed command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from time import perf_counter

import numpy as np

from . import io
from .channels import Channel, apply, random_channel
from .counterexample import (
    INCONCLUSIVE,
    CounterexampleParams,
    build_counterexample,
    certify_nonrealizable,
    match_family,
)
from .dilation import channel_from_dilation
from .linalg import is_unitary
from .realizability import (
    LIKELY_NOT_REALIZABLE,
    REALIZED,
    NUMERICAL_EVIDENCE_NOTE,
    SearchConfig,
    parameter_count,
    perturbation_experiment,
    search_mixed_env_realization,
)


def _emit(data: dict, out: str | None) -> None:
    if out:
        io.save_json(data, out)
    else:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _jsonable(value):
    """Encode a result for a report: dataclasses become dicts in field
    order, tuples become lists, real arrays nested lists, and complex
    arrays nested [re, im] pairs."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return io.matrix_to_pairs(value) if np.iscomplexobj(value) else value.tolist()
    return value


def _report(command: str, argv_echo: list, seed, results: dict, started: float) -> dict:
    return {
        "format_version": io.FORMAT_VERSION,
        "kind": "report",
        "command": command,
        "argv": argv_echo,
        "seed": seed,
        "duration_seconds": perf_counter() - started,
        "results": results,
    }


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _counterexample_params(args) -> CounterexampleParams:
    """Build family parameters from CLI flags.

    Either --alpha/--beta (shorthand for ρ' = |α|²|0'⟩⟨0'| + |β|²|1'⟩⟨1'|)
    or --rho-target with comma-separated eigenvalues, optionally rotated by
    the unitary in --rho-basis.
    """
    if args.d is None or args.d_fin is None:
        raise ValueError("--d and --d-fin are required")
    if args.d < 2 or args.d_fin < 2:
        raise ValueError("dimensions must be at least 2")
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        if args.rho_target is not None:
            raise ValueError("--rho-target conflicts with --alpha/--beta")
        alpha = _parse_complex(args.alpha)
        beta = _parse_complex(args.beta)
        if alpha == 0 or beta == 0:
            raise ValueError("coefficients must be nonzero")
        eigenvalues = np.zeros(args.d_fin)
        eigenvalues[0] = abs(alpha) ** 2
        eigenvalues[1] = abs(beta) ** 2
    elif args.rho_target is not None:
        try:
            eigenvalues = np.array(
                [float(x) for x in args.rho_target.split(",")], dtype=float
            )
        except ValueError as exc:
            raise ValueError("cannot parse --rho-target eigenvalue list") from exc
        if len(eigenvalues) != args.d_fin:
            raise ValueError("shape mismatch")
    else:
        raise ValueError("provide either --alpha/--beta or --rho-target")

    rho = np.diag(eigenvalues).astype(complex)
    if getattr(args, "rho_basis", None):
        basis = io.matrix_from_pairs(io.load_json(args.rho_basis).get("matrix"))
        if basis.shape != (args.d_fin, args.d_fin) or not is_unitary(basis):
            raise ValueError("not unitary")
        rho = basis @ rho @ basis.conj().T
    return CounterexampleParams(args.d, args.d_fin, rho)


def _search_config(args) -> SearchConfig:
    return SearchConfig(seed=args.seed, restarts=args.restarts, max_iters=args.max_iters)


def _load_channel(path: str) -> Channel:
    return io.channel_from_dict(io.load_json(path))


def cmd_build(args, argv_echo) -> int:
    if args.kind == "counterexample":
        channel = build_counterexample(_counterexample_params(args))
    elif args.kind == "random":
        rng = np.random.default_rng(args.seed)
        channel = random_channel(args.d, args.d_fin, rng, kraus_rank=args.kraus_rank)
    else:  # from-dilation
        channel = channel_from_dilation(io.dilation_from_dict(io.load_json(args.dilation)))
    _emit(io.channel_to_dict(channel), args.out)
    return 0


def cmd_certify(args, argv_echo) -> int:
    started = perf_counter()
    membership = None
    if args.channel is not None:
        channel = _load_channel(args.channel)
        match = match_family(channel)
        if match is None:
            results = {
                "claim": INCONCLUSIVE,
                "narrative": [
                    "channel is not a detectable member of the certifiable "
                    "family (collapse to a common pure image plus one truly "
                    "mixed, totally decohered image); the analytic argument "
                    "does not apply"
                ],
            }
            _emit(_report("certify", argv_echo, None, results, started), args.out)
            return 3
        membership = {
            "choi_distance": match.choi_distance,
            "canonical_rho_target": _jsonable(match.params.rho_target),
        }
        params = match.params
    else:
        params = _counterexample_params(args)
    results = _jsonable(certify_nonrealizable(params))
    if membership is not None:
        results["membership"] = membership
    _emit(_report("certify", argv_echo, None, results, started), args.out)
    return 0


def cmd_search(args, argv_echo) -> int:
    started = perf_counter()
    channel = _load_channel(args.channel)
    config = _search_config(args)
    result = search_mixed_env_realization(channel, config)
    results = {
        **_jsonable(result),
        "realizable_threshold": config.realizable_threshold,
        "nonrealizable_threshold": config.nonrealizable_threshold,
        "note": NUMERICAL_EVIDENCE_NOTE,
    }
    _emit(_report("search", argv_echo, config.seed, results, started), args.out)
    if result.verdict == REALIZED:
        return 0
    if result.verdict == LIKELY_NOT_REALIZABLE:
        return 4
    return 5


def cmd_convert(args, argv_echo) -> int:
    channel = _load_channel(args.input)
    payload = io.choi_to_dict(channel) if args.to == "choi" else io.channel_to_dict(channel)
    _emit(payload, args.out)
    return 0


def cmd_apply(args, argv_echo) -> int:
    channel = _load_channel(args.channel)
    rho = io.state_from_dict(io.load_json(args.state))
    _emit(io.state_to_dict(apply(channel, rho)), args.out)
    return 0


def cmd_params(args, argv_echo) -> int:
    print(parameter_count(args.d, args.d_fin))
    return 0


def cmd_perturb(args, argv_echo) -> int:
    started = perf_counter()
    channel = _load_channel(args.channel)
    config = _search_config(args)
    report = perturbation_experiment(channel, args.radius, args.samples, config)
    _emit(_report("perturb", argv_echo, config.seed, _jsonable(report), started), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envchan",
        description="Quantum channels, dilations, and mixed-environment "
        "realizability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    def add_family_flags(p):
        p.add_argument("--d", type=int, help="initial-system dimension")
        p.add_argument("--d-fin", type=int, help="final-system dimension")
        p.add_argument("--alpha", help="amplitude kept on |0'> (complex)")
        p.add_argument("--beta", help="amplitude moved to |1'> (complex)")
        p.add_argument(
            "--rho-target",
            help="comma-separated eigenvalues of the mixed image",
        )
        p.add_argument(
            "--rho-basis",
            help="JSON file with a unitary 'matrix' whose columns are the "
            "eigenvectors for --rho-target",
        )

    def add_seed(p):
        p.add_argument(
            "--seed", type=int, default=SearchConfig.seed,
            help="RNG seed (default %(default)s)",
        )

    def add_search_flags(p):
        add_seed(p)
        p.add_argument(
            "--restarts", type=int, default=SearchConfig.restarts,
            help="search restarts (default %(default)s)",
        )
        p.add_argument(
            "--max-iters", type=int, default=SearchConfig.max_iters,
            help="optimizer iterations per restart (default %(default)s)",
        )

    build = sub.add_parser("build", help="construct a channel file")
    build_kind = build.add_subparsers(dest="kind", required=True)

    ce = build_kind.add_parser("counterexample", help="family member channel")
    add_family_flags(ce)
    add_out(ce)
    ce.set_defaults(func=cmd_build)

    rnd = build_kind.add_parser("random", help="random channel")
    rnd.add_argument("--d", type=int, required=True)
    rnd.add_argument("--d-fin", type=int, required=True)
    rnd.add_argument("--kraus-rank", type=int, help="default d*d_fin")
    add_seed(rnd)
    add_out(rnd)
    rnd.set_defaults(func=cmd_build)

    fd = build_kind.add_parser("from-dilation", help="channel induced by a dilation file")
    fd.add_argument("dilation", help="dilation JSON file")
    add_out(fd)
    fd.set_defaults(func=cmd_build)

    certify = sub.add_parser(
        "certify", help="analytic non-realizability certificate"
    )
    certify.add_argument(
        "channel", nargs="?", help="channel JSON file (otherwise give family flags)"
    )
    add_family_flags(certify)
    add_out(certify)
    certify.set_defaults(func=cmd_certify)

    search = sub.add_parser("search", help="numerical realization search")
    search.add_argument("channel", help="channel JSON file")
    add_search_flags(search)
    add_out(search)
    search.set_defaults(func=cmd_search)

    convert = sub.add_parser("convert", help="switch channel representation")
    convert.add_argument("input", help="channel JSON file")
    convert.add_argument("--to", choices=["kraus", "choi"], required=True)
    add_out(convert)
    convert.set_defaults(func=cmd_convert)

    apply_p = sub.add_parser("apply", help="apply a channel to a state file")
    apply_p.add_argument("channel", help="channel JSON file")
    apply_p.add_argument("state", help="density-matrix JSON file")
    add_out(apply_p)
    apply_p.set_defaults(func=cmd_apply)

    params_p = sub.add_parser("params", help="parameter count of the search space")
    params_p.add_argument("--d", type=int, required=True)
    params_p.add_argument("--d-fin", type=int, required=True)
    params_p.set_defaults(func=cmd_params)

    perturb = sub.add_parser(
        "perturb", help="sample and search the neighborhood of a channel"
    )
    perturb.add_argument("channel", help="channel JSON file")
    perturb.add_argument("--radius", type=float, required=True)
    perturb.add_argument("--samples", type=int, default=20)
    add_search_flags(perturb)
    add_out(perturb)
    perturb.set_defaults(func=cmd_perturb)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
