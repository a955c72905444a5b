"""Numerical search for realizations with a same-size mixed environment.

The question: given a channel d → d_fin, is there a unitary U on the joint
initial ⊗ final space and a spectrum p over the final system such that
initializing the final system in Σᵢ pᵢ|i'⟩⟨i'| and tracing out the initial
system reproduces the channel? (Restricting the initial state to diagonal
form loses nothing — a basis change is absorbed into U.)

Such a realization is a Kraus set {F_{s,a}} (s < d_fin, a < d) of the
channel with Σ_a F_{s,a}† F_{s',a} = p_s δ_{ss'} I_d, and every Kraus set of
n = d·d_fin operators is F = W·E, with E the minimal Kraus set (κ operators)
and W an n×κ isometry. The searcher therefore runs over W, the polar factor
of a free complex n×κ matrix, so the target is matched by construction: it
minimizes the squared distance of F's Gram matrix from the nearest
I_d ⊗ diag(p), using L-BFGS-B with an analytic gradient, multi-restarted
from seeded random points. Each restart's end point is decoded into a
unitary and a spectrum, and its Choi distance to the target is re-checked
through the dilation path; the re-checked residuals alone decide the early
stop and the verdict, against two thresholds. LIKELY_NOT_REALIZABLE is
numerical evidence from a local search, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from statistics import median

import numpy as np

from .channels import Channel, _vec, choi_to_kraus, distance, mix, random_channel
from .dilation import Dilation, _kraus_rows, channel_from_dilation
from .linalg import _is_integer

REALIZED = "REALIZED"
LIKELY_NOT_REALIZABLE = "LIKELY_NOT_REALIZABLE"
UNDECIDED = "UNDECIDED"

NUMERICAL_EVIDENCE_NOTE = (
    "LIKELY_NOT_REALIZABLE is numerical evidence from a multi-start local "
    "search, not a proof of non-realizability."
)

# L-BFGS-B stopping tolerances are multiples of this; both act on the squared
# objective and stay well below the squared verdict thresholds. They stay
# written as products: 1e-6 * 1e-12 is not the double 1e-18, and seeded
# search results depend on the exact ftol.
_STEP_TOLERANCE = 1e-12


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    Importing ``scipy.optimize`` takes most of ``import envchan``, and only
    the search needs it, so commands that build, certify, convert or apply
    channels never load it. The search calls this module-level name, so it
    stays rebindable for tracing and tests.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (booleans included) or is below 1."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def parameter_count(d: int, d_fin: int) -> int:
    """Real parameters of the mixed-environment realization problem:
    d²·(d_fin² − 1).

    Counted as: spectrum degrees of freedom (d_fin − 1), minus the basis
    freedom absorbed into U (d_fin − 1), plus the unitary group dimension
    (d²·d_fin² − 1, up to global phase), minus redundancy on the traced-out
    input factor (d² − 1). This is the problem's dimension, not the number
    of reals the searcher optimizes over.

    Raises:
        ValueError: "dimensions must be positive" unless d and d_fin are
            integers ≥ 1.
    """
    if not all(_is_integer(n) and n >= 1 for n in (d, d_fin)):
        raise ValueError("dimensions must be positive")
    return d * d * (d_fin * d_fin - 1)


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of the multi-restart search.

    ``realizable_threshold`` (ε_r) and ``nonrealizable_threshold`` (ε_nr)
    split residuals into REALIZED (< ε_r), LIKELY_NOT_REALIZABLE (> ε_nr
    after all restarts) and UNDECIDED (in between). The search is a pure
    function of (target, config): per-restart randomness derives from
    (seed, restart index).
    """

    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0
    realizable_threshold: float = 1e-6
    nonrealizable_threshold: float = 1e-3

    def __post_init__(self):
        _check_count("restarts", self.restarts)
        _check_count("max_iters", self.max_iters)
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 < self.realizable_threshold < self.nonrealizable_threshold:
            raise ValueError(
                "realizable_threshold must be below nonrealizable_threshold"
            )


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best point found by the search.

    ``residual_history`` holds, per restart actually run, the Choi distance
    to the target of the dilation decoded from that restart's end point,
    re-checked independently of the optimizer (the loop stops early once one
    beats the realizable threshold). ``best_residual`` is the least of them,
    and ``best_unitary``/``best_env_spectrum`` are its dilation.
    """

    verdict: str
    best_residual: float
    residual_history: tuple
    best_env_spectrum: np.ndarray
    best_unitary: np.ndarray


@lru_cache(maxsize=None)
def _kraus_gather(d: int, dp: int) -> np.ndarray:
    """Flat index into U of every entry of the Kraus rows A, in the layout of
    ``dilation._kraus_rows``: A.ravel() == U.ravel()[gather]. Built once per
    (d, d_fin) and shared read-only by every call."""
    n = d * dp
    gather = _kraus_rows(np.arange(n * n).reshape(n, n), d, dp).ravel()
    gather.flags.writeable = False
    return gather


def _kraus_columns(x: np.ndarray, kraus: np.ndarray, d: int, dp: int):
    """Decode x into (M, eigenpairs of M†M, (M†M)^{-1/2}, Fm).

    x holds the real, then the imaginary parts of a free n×κ matrix M
    (n = d·dp, κ = len(kraus)). Its polar factor W = M(M†M)^{-1/2} is an
    isometry, so F = W·E is a Kraus set of the target for every x; Fm holds
    F in U's layout, one column per input |i, s⟩.
    """
    n = d * dp
    half = n * len(kraus)
    m = (x[:half] + 1j * x[half:]).reshape(n, -1)
    sigma, v = np.linalg.eigh(m.conj().T @ m)
    q = (v / np.sqrt(sigma)) @ v.conj().T
    fm = np.empty(n * n, dtype=complex)
    fm[_kraus_gather(d, dp)] = (m @ q @ kraus).ravel()
    return m, sigma, v, q, fm.reshape(n, n)


def _spectrum(g: np.ndarray, d: int, dp: int) -> np.ndarray:
    """p_s = tr(G_ss)/d: the I_d ⊗ diag(p) closest to G = Fm†Fm."""
    return g.diagonal().real.reshape(d, dp).sum(axis=0) / d


def _objective_and_grad(x: np.ndarray, kraus: np.ndarray, d: int, dp: int):
    """‖G − I_d ⊗ diag(p)‖² for G = Fm†Fm and p = ``_spectrum(G)``, with its
    exact gradient in x.

    ``kraus`` holds the rows vec(E_j) of the target's minimal Kraus set; see
    ``_kraus_columns`` for x. The value is zero exactly when Fm's columns,
    scaled by 1/√p_s, are orthonormal: then they are columns of a unitary
    that realizes the target with spectrum p.
    """
    n = d * dp
    m, sigma, v, q, fm = _kraus_columns(x, kraus, d, dp)
    r = fm.conj().T @ fm
    r[np.diag_indices(n)] -= np.tile(_spectrum(r, d, dp), d)
    value = np.vdot(r, r).real

    # Gradients Γ with df = Re⟨Γ, dZ⟩. p is a projection of G, so only R
    # carries through: Γ_Fm = 4·Fm·R, then back through the gather and E.
    gamma_w = (4.0 * fm @ r).ravel()[_kraus_gather(d, dp)].reshape(n, n)
    gamma_w = gamma_w @ kraus.conj().T
    # Through W = M·S^{-1/2}, S = M†M: d(S^{-1/2}) = V(Φ ∘ V†dS V)V† with
    # Φ_kl = (σ_k^{-1/2} − σ_l^{-1/2})/(σ_k − σ_l), closed form below.
    root = np.sqrt(sigma)
    phi = -1.0 / (root[:, None] * root * (root[:, None] + root))
    b = v.conj().T @ (gamma_w.conj().T @ m) @ v
    gamma_m = gamma_w @ q + m @ (v @ (phi * (b + b.conj().T)) @ v.conj().T)
    return value, np.concatenate([gamma_m.real.ravel(), gamma_m.imag.ravel()])


def _decode_point(x: np.ndarray, kraus: np.ndarray, d: int, dp: int):
    """The realization (U, p) that x encodes: p = ``_spectrum(G)`` and U the
    polar factor of Fm with column (i, s) scaled by 1/√p_s. Columns with
    p_s = 0 are left zero; the polar factor completes them. p is normalized
    because E lacks the Choi eigenvalues below the Kraus rank cutoff."""
    fm = _kraus_columns(x, kraus, d, dp)[-1]
    p = _spectrum(fm.conj().T @ fm, d, dp)
    scale = np.divide(1.0, np.sqrt(p), out=np.zeros(dp), where=p > 0)
    left, _, right = np.linalg.svd(fm * np.tile(scale, d))
    return left @ right, p / p.sum()


def _minimal_kraus_rows(target: Channel) -> np.ndarray:
    """Rows vec(E_j) of the target's minimal Kraus set."""
    return np.stack([_vec(op) for op in choi_to_kraus(target.choi).operators])


def realization_residual(target: Channel, unitary: np.ndarray, spectrum) -> float:
    """Choi distance between the target and the channel induced by the
    dilation (unitary, diag(spectrum)) — the independent check of a search
    outcome."""
    spectrum = np.asarray(spectrum, dtype=float)
    dil = Dilation(
        d_in=target.d_in,
        d_fin=target.d_out,
        d_env=0,
        unitary=unitary,
        env_state=np.diag(spectrum).astype(complex),
    )
    return distance(channel_from_dilation(dil), target)


def search_mixed_env_realization(
    target: Channel, config: SearchConfig = SearchConfig()
) -> SearchResult:
    """Multi-restart local search for a same-size mixed-environment
    realization of ``target``.

    Deterministic given the config: restart r draws its start point from
    ``default_rng([config.seed, r])``. Each restart's residual is recomputed
    through the dilation path rather than trusted from the optimizer, and
    restarts stop early once one beats the realizable threshold — later
    restarts could only confirm the verdict.
    """
    d, dp = target.d_in, target.d_out
    kraus = _minimal_kraus_rows(target)
    n_params = 2 * d * dp * len(kraus)

    best = None
    history = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        x0 = rng.normal(scale=1.0, size=n_params)
        res = minimize(
            _objective_and_grad,
            x0,
            args=(kraus, d, dp),
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iters,
                "ftol": 1e-6 * _STEP_TOLERANCE,
                "gtol": 1e-4 * _STEP_TOLERANCE,
            },
        )
        unitary, spectrum = _decode_point(res.x, kraus, d, dp)
        residual = float(realization_residual(target, unitary, spectrum))
        history.append(residual)
        if best is None or residual < best[0]:
            best = (residual, unitary, spectrum)
        if residual < config.realizable_threshold:
            break

    best_residual, unitary, spectrum = best
    if best_residual < config.realizable_threshold:
        verdict = REALIZED
    elif best_residual > config.nonrealizable_threshold:
        verdict = LIKELY_NOT_REALIZABLE
    else:
        verdict = UNDECIDED
    return SearchResult(
        verdict=verdict,
        best_residual=best_residual,
        residual_history=tuple(history),
        best_env_spectrum=spectrum,
        best_unitary=unitary,
    )


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """Outcome of sampling the neighborhood of a channel.

    ``fraction_likely_not_realizable`` is the share of sampled channels the
    searcher flagged LIKELY_NOT_REALIZABLE; the residual statistics summarize
    the per-sample best residuals. Observational output, not a proof — see
    ``note``.
    """

    radius: float
    n_samples: int
    fraction_likely_not_realizable: float
    verdicts: tuple
    best_residuals: tuple
    residual_min: float
    residual_max: float
    residual_mean: float
    residual_median: float
    note: str = field(default=NUMERICAL_EVIDENCE_NOTE)


def perturbation_experiment(
    center: Channel,
    radius: float,
    n_samples: int,
    config: SearchConfig = SearchConfig(),
) -> PerturbationReport:
    """Sample channels near ``center`` and search each one.

    Each sample mixes the center with a random channel at a weight drawn
    uniformly from (0, radius], which stays inside the convex set of
    channels by construction. Deterministic given (config.seed, radius,
    n_samples).

    Raises:
        ValueError: "radius too large" if radius ≥ 1 or is NaN; "radius
            must be positive" if radius ≤ 0; "n_samples must be an integer"
            or "n_samples must be positive".
    """
    if not radius < 1:
        raise ValueError("radius too large")
    if not radius > 0:
        raise ValueError("radius must be positive")
    _check_count("n_samples", n_samples)

    verdicts = []
    residuals = []
    for k in range(n_samples):
        rng = np.random.default_rng([config.seed, k, 1])
        weight = radius * (1.0 - rng.uniform())  # in (0, radius]
        direction = random_channel(center.d_in, center.d_out, rng)
        sample = mix([center, direction], [1.0 - weight, weight])
        sample_config = replace(config, seed=int(rng.integers(0, 2**63)))
        result = search_mixed_env_realization(sample, sample_config)
        verdicts.append(result.verdict)
        residuals.append(result.best_residual)

    fraction = verdicts.count(LIKELY_NOT_REALIZABLE) / n_samples
    return PerturbationReport(
        radius=float(radius),
        n_samples=int(n_samples),
        fraction_likely_not_realizable=fraction,
        verdicts=tuple(verdicts),
        best_residuals=tuple(residuals),
        residual_min=float(min(residuals)),
        residual_max=float(max(residuals)),
        residual_mean=float(np.mean(residuals)),
        residual_median=float(median(residuals)),
    )
