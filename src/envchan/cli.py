"""Command-line interface.

Subcommands: build, certify, search, convert, apply, params, perturb.
Each command returns its payload and ``main`` writes it as JSON to --out
or standard output. certify, search and perturb return the one result
object that the library decides: the certificate of ``certify_channel``
(file) or ``certify_nonrealizable`` (family flags), the ``SearchResult``
or the ``PerturbationReport``. ``main`` wraps it in a report envelope,
whose fields ``io`` encodes. build, convert and apply return the file
payload, params an integer. Errors go to standard error, one line each.
Each command imports the modules it runs when it runs, so a command loads
no module it does not use (``convert`` never loads the search, ``search``
never loads the counterexample family). Two commands load no NumPy:
``params``, a closed-form integer from ``sizes``, and ``certify`` from
family flags without --rho-basis, whose ρ' = diag(--rho-target) goes to
``certificate.certify_spectrum`` and whose report ``io`` writes without
NumPy. Every command runs with NumPy's overflow and invalid-value warnings
off (where no array is computed, that changes nothing); divide-by-zero and
other warnings still show.

``build counterexample`` and ``certify`` without a channel file take the
family flags: --d, --d-fin and --rho-target, the comma-separated
eigenvalues of the mixed image ρ', are required; --rho-basis names a JSON
file ``{"matrix": [[[re, im], ...], ...]}`` holding a unitary whose columns
are ρ''s eigenvectors (the one JSON input read without ``format_version``).
Without it ρ' is diagonal.

Exit codes:
    0  success (including certificate NOT_REALIZABLE and search REALIZED)
    2  invalid input: bad flags, malformed files, failed validation, or
       an input too large to allocate
    3  certificate INCONCLUSIVE (the channel is not in the family)
    4  search verdict LIKELY_NOT_REALIZABLE
    5  search verdict UNDECIDED

Randomized commands (build random, search, perturb) default to --seed 0 so
reports are reproducible by re-running the echoed command. Without
--restarts or --max-iters, search and perturb take ``SearchConfig``'s.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .channels import Channel
    from .certificate import NonRealizabilityCertificate
    from .counterexample import CounterexampleParams
    from .realizability import PerturbationReport, SearchConfig, SearchResult


def _eigenvalues(args) -> list:
    """The --rho-target eigenvalues, once the family flags are all given."""
    if args.d is None or args.d_fin is None or args.rho_target is None:
        raise ValueError("--d, --d-fin and --rho-target are required")
    try:
        return [float(x) for x in args.rho_target.split(",")]
    except ValueError as exc:
        raise ValueError("cannot parse --rho-target eigenvalue list") from exc


def _counterexample_params(args) -> CounterexampleParams:
    """Build family parameters from the family flags.

    ρ' is diag(--rho-target), rotated by the unitary in --rho-basis (whose
    columns are the eigenvectors) when that flag is given. The eigenvalue
    count is checked against --d-fin before ρ' is allocated;
    :class:`CounterexampleParams` checks the dimensions and ρ'.
    """
    import numpy as np

    from . import io
    from .counterexample import CounterexampleParams
    from .linalg import is_unitary

    eigenvalues = _eigenvalues(args)
    if len(eigenvalues) != args.d_fin:
        raise ValueError("shape mismatch")
    rho = np.diag(eigenvalues).astype(complex)
    if args.rho_basis is not None:
        basis = io.matrix_from_pairs(io.load_json(args.rho_basis).get("matrix"))
        if basis.shape != rho.shape or not is_unitary(basis):
            raise ValueError("not unitary")
        rho = basis @ rho @ basis.conj().T
    return CounterexampleParams(args.d, args.d_fin, rho)


def _search_config(args) -> SearchConfig:
    """The search flags as a ``SearchConfig``; an unset flag takes its
    field's default."""
    from .realizability import SearchConfig

    flags = {"restarts": args.restarts, "max_iters": args.max_iters}
    return SearchConfig(seed=args.seed, **{k: v for k, v in flags.items() if v is not None})


def _load_channel(path: str) -> Channel:
    from . import io

    return io.channel_from_dict(io.load_json(path))


def cmd_build(args) -> tuple[dict, int]:
    from . import io

    if args.kind == "counterexample":
        from .counterexample import build_counterexample

        channel = build_counterexample(_counterexample_params(args))
    elif args.kind == "random":
        import numpy as np

        from .channels import random_channel

        rng = np.random.default_rng(args.seed)
        channel = random_channel(args.d, args.d_fin, rng, kraus_rank=args.kraus_rank)
    else:  # from-dilation
        from .dilation import channel_from_dilation

        channel = channel_from_dilation(io.dilation_from_dict(io.load_json(args.dilation)))
    return io.channel_to_dict(channel), 0


def cmd_certify(args) -> tuple[NonRealizabilityCertificate, int]:
    from .certificate import INCONCLUSIVE, NOT_REALIZABLE, certify_spectrum

    if args.channel is not None:
        from .counterexample import certify_channel

        family = (args.d, args.d_fin, args.rho_target, args.rho_basis)
        if any(flag is not None for flag in family):
            raise ValueError("give a channel file or family flags, not both")
        certificate = certify_channel(_load_channel(args.channel))
    elif args.rho_basis is not None:
        from .counterexample import certify_nonrealizable

        certificate = certify_nonrealizable(_counterexample_params(args))
    else:
        # ρ' = diag(--rho-target): the same checks and certificate as
        # CounterexampleParams gives, without NumPy.
        certificate = certify_spectrum(args.d, args.d_fin, _eigenvalues(args))
    return certificate, {NOT_REALIZABLE: 0, INCONCLUSIVE: 3}[certificate.claim]


def cmd_search(args) -> tuple[SearchResult, int]:
    from .realizability import (
        LIKELY_NOT_REALIZABLE,
        REALIZED,
        UNDECIDED,
        search_mixed_env_realization,
    )

    result = search_mixed_env_realization(_load_channel(args.channel), _search_config(args))
    return result, {REALIZED: 0, LIKELY_NOT_REALIZABLE: 4, UNDECIDED: 5}[result.verdict]


def cmd_convert(args) -> tuple[dict, int]:
    from . import io

    channel = _load_channel(args.input)
    payload = io.choi_to_dict(channel) if args.to == "choi" else io.channel_to_dict(channel)
    return payload, 0


def cmd_apply(args) -> tuple[dict, int]:
    from . import io
    from .channels import apply

    channel = _load_channel(args.channel)
    rho = io.state_from_dict(io.load_json(args.state))
    return io.state_to_dict(apply(channel, rho)), 0


def cmd_params(args) -> tuple[int, int]:
    from .sizes import parameter_count

    return parameter_count(args.d, args.d_fin), 0


def cmd_perturb(args) -> tuple[PerturbationReport, int]:
    from .realizability import perturbation_experiment

    report = perturbation_experiment(
        _load_channel(args.channel), args.radius, args.samples, _search_config(args)
    )
    return report, 0


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
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")

    def add_search_flags(p):
        add_seed(p)
        p.add_argument(
            "--restarts", type=int,
            help="search restarts (default SearchConfig.restarts)",
        )
        p.add_argument(
            "--max-iters", type=int,
            help="optimizer iterations per restart (default SearchConfig.max_iters)",
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


@contextmanager
def _numpy_warnings_off():
    """NumPy's overflow and invalid-value RuntimeWarnings off inside the block.

    An input that overflows fails a validation check, which is the one
    stderr line; NumPy's warnings would only add lines before it. Other
    warnings, divide-by-zero among them, still show. Afterwards the caller's
    filters are back, and any filter added inside the block stays: NumPy
    installs its own when a command is the first to import it.
    """
    added = []
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "(overflow|invalid value) encountered", RuntimeWarning
            )
            quiet = warnings.filters[:]
            try:
                yield
            finally:
                added = [f for f in warnings.filters if f not in quiet]
    finally:
        for action, message, category, module, lineno in reversed(added):
            warnings.filterwarnings(
                action, getattr(message, "pattern", ""), category,
                getattr(module, "pattern", ""), lineno,
            )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    started = perf_counter()
    try:
        with _numpy_warnings_off():
            payload, code = args.func(args)
        # build, convert and apply return a file payload, params an integer;
        # any other payload is a result object, written as a report.
        if not isinstance(payload, (dict, int)):
            from . import io

            payload = io._envelope(
                "report", command=args.command, argv=list(argv),
                seed=getattr(args, "seed", None),
                duration_seconds=perf_counter() - started, results=payload,
            )
        out = getattr(args, "out", None)
        if out is not None:
            from . import io

            io.save_json(payload, out)
        else:
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
