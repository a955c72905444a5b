"""The standard-library certificate of a family member given ρ''s
eigenvalues, against the matrix path it stands in for.

``envchan certify`` from family flags without --rho-basis certifies
ρ' = diag(λ) through ``certify_spectrum``; with --rho-basis it builds ρ' as
a matrix for ``CounterexampleParams``. Both must give the same exit code,
error line and report, bit for bit, on every input.
"""

import json

import numpy as np
import pytest

from envchan import certify_nonrealizable
from envchan.certificate import _trace_sum, certify_spectrum
from envchan.cli import _counterexample_params, build_parser, main
from envchan.io import _envelope


def flags(d, d_fin, eigenvalues):
    # One token, since a list may start with a minus sign.
    return ["certify", "--d", str(d), "--d-fin", str(d_fin),
            "--rho-target=" + ",".join(eigenvalues)]


def matrix_path(argv):
    """Exit code, standard error and report of ``argv`` when ρ' is the
    matrix diag(λ) that ``CounterexampleParams`` checks."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            certificate = certify_nonrealizable(_counterexample_params(args))
    except ValueError as exc:
        return 2, f"error: {exc}\n", None
    return 0, "", _envelope(
        "report", command="certify", argv=argv, seed=None,
        duration_seconds=None, results=certificate,
    )


def spectrum_path(capsys, argv):
    """The same for ``main``, which certifies diag(λ) from λ."""
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    if report is not None:
        report["duration_seconds"] = None
    return code, captured.err, report


def seeded_spectra(d, d_fin):
    rng = np.random.default_rng([37, d, d_fin])
    spectra = [rng.dirichlet(np.ones(d_fin)) for _ in range(20)]
    spectra.append(np.full(d_fin, 1 / d_fin))
    # Near-pure spectra on both sides of the purity bound 1 − 1e-10.
    for eps in (1e-9, 5.1e-11, 5e-11, 4.9e-11, 1e-11):
        spectra.append(np.array([1 - eps, eps] + [0.0] * (d_fin - 2)))
    return [[repr(float(x)) for x in s] for s in spectra]


@pytest.mark.parametrize("d_fin", range(2, 7))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_seeded_spectra_match_the_matrix_path(capsys, d, d_fin):
    for eigenvalues in seeded_spectra(d, d_fin):
        argv = flags(d, d_fin, eigenvalues)
        assert spectrum_path(capsys, argv) == matrix_path(argv), argv


@pytest.mark.parametrize(
    "d, d_fin, eigenvalues",
    [
        (3, 2, ["nan", "0.5"]),
        (3, 2, ["inf", "0"]),
        (3, 2, ["1e308", "1e308"]),
        # λ + λ overflows in the third entry too: LAPACK reports no
        # convergence, which the PSD check counts as a failure.
        (2, 3, ["1e308", "1e308", "0.1"]),
        (3, 2, ["1.1", "-0.1"]),
        (3, 2, ["-1e-11", "1.00000000001"]),
        (3, 2, ["0.5", "0.50000000001"]),
        (3, 2, ["0.5", "0.49999999999"]),
        (3, 2, ["0.5", "0.5000000000001"]),
        (3, 2, ["8e307", "8e307"]),
        (3, 2, ["1", "0"]),
        (2, 3, ["0", "0.5", "0.5"]),
        (3, 1, ["1"]),
        (3, 3, ["0.5", "0.5"]),
        (3, 2, ["0.001"] * 1500),
        # More than 64 terms: NumPy's sum splits into halves.
        (3, 200, [repr(1 / 200)] * 200),
    ],
    ids=[
        "nan", "inf", "overflow", "overflow-d_fin-3", "negative",
        "negative-within-floor", "trace-plus-1e-11", "trace-minus-1e-11",
        "trace-within-1e-12", "trace-overflow", "pure", "d2-zero-overlap",
        "d_fin-1", "count-mismatch", "1500-entries", "uniform-200",
    ],
)
def test_rejections_match_the_matrix_path(capsys, d, d_fin, eigenvalues):
    argv = flags(d, d_fin, eigenvalues)
    assert spectrum_path(capsys, argv) == matrix_path(argv)


@pytest.mark.parametrize("n", [*range(1, 70), 127, 128, 129, 200, 513, 1500])
def test_trace_sum_is_numpys(n):
    # The trace and the purity of diag(λ), as CounterexampleParams and
    # certify_nonrealizable compute them, bit for bit.
    rng = np.random.default_rng(n)
    values = [float(x) for x in rng.dirichlet(np.ones(n)) * rng.uniform(0.5, 2)]
    rho = np.diag(values).astype(complex)
    assert _trace_sum(values) == np.trace(rho).real
    assert _trace_sum([x * x for x in values]) == np.real(np.trace(rho @ rho))


def test_count_is_checked_before_the_list_is_read():
    class Unreadable(list):
        def __iter__(self):
            raise AssertionError("read before the count check")

    with pytest.raises(ValueError, match="shape mismatch"):
        certify_spectrum(3, 2, Unreadable([0.001] * 1500))
