"""envchan: quantum channels, unitary dilations, and experiments on how
small a mixed environment can be.

The library builds channels in Kraus/Choi form, realizes them through
unitary dilations, constructs an explicit family of channels that no
same-size mixed environment can implement (with a step-by-step analytic
certificate), and searches numerically for realizations to corroborate the
certificates.

Importing the package loads none of its modules. A public name loads its
home module on first use (PEP 562), and so does a submodule such as
``envchan.io``. The names are never cached here: each lookup reads the
home module's current binding, so a name rebound there (by a test's
monkeypatch, or a tracer that wraps it) is what ``envchan.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under its home module.
_EXPORTS = {
    "channels": (
        "Channel", "ChoiMatrix", "KrausSet", "apply", "choi_to_kraus", "distance",
        "identity_channel", "is_extremal", "kraus_to_choi", "mix", "random_channel",
    ),
    "certificate": ("INCONCLUSIVE", "NOT_REALIZABLE", "NonRealizabilityCertificate"),
    "counterexample": (
        "CounterexampleParams", "build_counterexample", "certify_channel",
        "certify_nonrealizable", "implementing_unitary", "match_family",
    ),
    "dilation": (
        "Dilation", "channel_from_dilation", "decompose_mixed_env", "stinespring_from_kraus",
    ),
    "linalg": (
        "complete_unitary", "eig_hermitian", "is_hermitian", "is_unitary", "partial_trace",
    ),
    "realizability": (
        "LIKELY_NOT_REALIZABLE", "NUMERICAL_EVIDENCE_NOTE", "REALIZED", "UNDECIDED",
        "PerturbationReport", "SearchConfig", "SearchResult", "perturbation_experiment",
        "realization_residual", "search_mixed_env_realization",
    ),
    "sizes": ("parameter_count",),
    "states": (
        "basis_state", "is_pure", "maximally_mixed", "projector", "purity",
        "random_density_matrix", "random_pure_state", "validate_density_matrix",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f"{__name__}.{home}"), name)
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
