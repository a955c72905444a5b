"""envchan: quantum channels, unitary dilations, and experiments on how
small a mixed environment can be.

The library builds channels in Kraus/Choi form, realizes them through
unitary dilations, constructs an explicit family of channels that no
same-size mixed environment can implement (with a step-by-step analytic
certificate), and searches numerically for realizations to corroborate the
certificates.
"""

from .channels import (
    Channel,
    ChoiMatrix,
    KrausSet,
    apply,
    choi_to_kraus,
    distance,
    identity_channel,
    is_extremal,
    kraus_to_choi,
    mix,
    random_channel,
)
from .counterexample import (
    INCONCLUSIVE,
    NOT_REALIZABLE,
    CounterexampleParams,
    NonRealizabilityCertificate,
    build_counterexample,
    certify_channel,
    certify_nonrealizable,
    implementing_unitary,
    match_family,
)
from .dilation import (
    Dilation,
    channel_from_dilation,
    decompose_mixed_env,
    stinespring_from_kraus,
)
from .linalg import (
    complete_unitary,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    partial_trace,
)
from .realizability import (
    LIKELY_NOT_REALIZABLE,
    NUMERICAL_EVIDENCE_NOTE,
    REALIZED,
    UNDECIDED,
    PerturbationReport,
    SearchConfig,
    SearchResult,
    parameter_count,
    perturbation_experiment,
    realization_residual,
    search_mixed_env_realization,
)
from .states import (
    basis_state,
    is_pure,
    maximally_mixed,
    projector,
    purity,
    random_density_matrix,
    random_pure_state,
    validate_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChoiMatrix",
    "CounterexampleParams",
    "Dilation",
    "INCONCLUSIVE",
    "KrausSet",
    "LIKELY_NOT_REALIZABLE",
    "NOT_REALIZABLE",
    "NUMERICAL_EVIDENCE_NOTE",
    "NonRealizabilityCertificate",
    "PerturbationReport",
    "REALIZED",
    "SearchConfig",
    "SearchResult",
    "UNDECIDED",
    "apply",
    "basis_state",
    "build_counterexample",
    "certify_channel",
    "certify_nonrealizable",
    "channel_from_dilation",
    "choi_to_kraus",
    "complete_unitary",
    "decompose_mixed_env",
    "distance",
    "eig_hermitian",
    "identity_channel",
    "implementing_unitary",
    "is_extremal",
    "is_hermitian",
    "is_pure",
    "is_unitary",
    "kraus_to_choi",
    "match_family",
    "maximally_mixed",
    "mix",
    "parameter_count",
    "partial_trace",
    "perturbation_experiment",
    "projector",
    "purity",
    "random_channel",
    "random_density_matrix",
    "random_pure_state",
    "realization_residual",
    "search_mixed_env_realization",
    "stinespring_from_kraus",
    "validate_density_matrix",
]
