"""Numerical search for realizations with a same-size mixed environment.

The question: given a channel d → d_fin, is there a unitary U on the joint
initial ⊗ final space and a spectrum p over the final system such that
initializing the final system in Σᵢ pᵢ|i'⟩⟨i'| and tracing out the initial
system reproduces the channel? (Restricting the initial state to diagonal
form loses nothing — a basis change is absorbed into U.)

The searcher minimizes the Frobenius Choi distance over an unconstrained
parametrization: U = exp(iH) with H Hermitian (n² real parameters,
n = d·d_fin) and p = softmax(z) (d_fin reals), using L-BFGS-B with an
analytic gradient, multi-restarted from seeded random points. The
evaluator's index arrays (the Hermitian packing, and the Kraus layout taken
from ``dilation._kraus_rows``) form a plan built once per (d, d_fin), so
each objective call does only the arithmetic: one eigendecomposition and a
handful of matmuls. Results carry a verdict against two thresholds;
LIKELY_NOT_REALIZABLE is numerical evidence from a local search, never a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Integral
from statistics import median

import numpy as np
from scipy.optimize import minimize

from .channels import Channel, distance, mix, random_channel
from .dilation import Dilation, _kraus_rows, channel_from_dilation

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


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (booleans included) or is below 1."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def parameter_count(d: int, d_fin: int) -> int:
    """Real parameters of the mixed-environment realization problem:
    d²·(d_fin² − 1).

    Counted as: spectrum degrees of freedom (d_fin − 1), minus the basis
    freedom absorbed into U (d_fin − 1), plus the unitary group dimension
    (d²·d_fin² − 1, up to global phase), minus redundancy on the traced-out
    input factor (d² − 1).
    """
    if d < 1 or d_fin < 1:
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
        if not 0 < self.realizable_threshold < self.nonrealizable_threshold:
            raise ValueError(
                "realizable_threshold must be below nonrealizable_threshold"
            )


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best point found by the search.

    ``best_residual`` is re-verified independently of the optimizer by
    rebuilding the dilation and measuring the Choi distance to the target.
    ``residual_history`` holds one best residual per restart actually run
    (the loop stops early once a restart beats the realizable threshold).
    """

    verdict: str
    best_residual: float
    residual_history: tuple
    best_env_spectrum: np.ndarray
    best_unitary: np.ndarray


@dataclass(frozen=True, eq=False)
class _Plan:
    """Index arrays of the evaluator for one (d, d_fin), n = d·d_fin.

    ``diag``, ``upper`` and ``lower`` are flat indices into an n×n matrix:
    its diagonal, its strict upper triangle in row-major order, and the
    mirror of each upper entry. ``kraus`` gathers the flat unitary into the
    (d_fin·d)×n matrix A of vectorized Kraus operators, in the layout of
    ``dilation._kraus_rows``, and ``kraus_inv`` maps A's layout back onto U's.
    """

    n: int
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    kraus: np.ndarray
    kraus_inv: np.ndarray


@lru_cache(maxsize=None)
def _plan(d: int, dp: int) -> _Plan:
    """The evaluator's index plan, built once per (d, d_fin) and shared
    read-only by every call."""
    n = d * dp
    iu, ju = np.triu_indices(n, k=1)
    flat = np.arange(n * n)
    kraus = _kraus_rows(flat.reshape(n, n), d, dp).ravel()
    kraus_inv = np.empty_like(kraus)
    kraus_inv[kraus] = flat
    arrays = (np.arange(n) * (n + 1), iu * n + ju, ju * n + iu, kraus, kraus_inv)
    for a in arrays:
        a.flags.writeable = False
    return _Plan(n, *arrays)


def _pack_hermitian(x: np.ndarray, plan: _Plan) -> np.ndarray:
    """Hermitian matrix from the first n² reals of x: diagonal, then
    upper-triangle re/im."""
    n = plan.n
    m = len(plan.upper)
    h = np.zeros(n * n, dtype=complex)
    h[plan.diag] = x[:n]
    c = x[n : n + m] + 1j * x[n + m : n + 2 * m]
    h[plan.upper] = c
    h[plan.lower] = c.conj()
    return h.reshape(n, n)


def _exp_i_hermitian(h: np.ndarray):
    """(exp(iH), eigenvalues, eigenvectors V, V†, exp(i·eigenvalues))."""
    w, v = np.linalg.eigh(h)
    vh = v.conj().T
    eiw = np.exp(1j * w)
    return (v * eiw) @ vh, w, v, vh, eiw


def _dexp_divided_differences(w: np.ndarray, eiw: np.ndarray) -> np.ndarray:
    """First divided differences of t ↦ exp(it) on the eigenvalue grid:
    Φ_kl = (e^{iw_k} − e^{iw_l})/(w_k − w_l), with i·e^{iw_k} on coincidence.
    """
    dw = w[:, None] - w[None, :]
    same = np.abs(dw) <= 1e-12
    quotient = (eiw[:, None] - eiw[None, :]) / np.where(same, 1.0, dw)
    return np.where(same, 1j * eiw[:, None], quotient)


def _objective_and_grad(x: np.ndarray, target_choi: np.ndarray, d: int, dp: int):
    """Squared Choi distance of the parametrized dilation to the target,
    with its exact gradient.

    Parameters are n² reals for H (U = exp(iH), n = d·dp) followed by dp
    reals for the softmax spectrum. The gradient through exp(iH) uses the
    eigendecomposition and first divided differences; the gradient through
    softmax is the standard Jacobian-vector product. The index arrays come
    from ``_plan``, built once per (d, dp) and cached, so a call does only
    the arithmetic.
    """
    plan = _plan(d, dp)
    n = plan.n
    nh = n * n
    h = _pack_hermitian(x, plan)
    z = x[nh:]
    ez = np.exp(z - z.max())
    p = ez / ez.sum()
    p_rep = p.repeat(d)[:, None]

    u, w, v, vh, eiw = _exp_i_hermitian(h)
    # Row (s, a) of A is the vectorized Kraus operator for environment
    # eigenvector s and traced-out initial index a.
    a = u.ravel()[plan.kraus].reshape(dp * d, n)
    a_conj = a.conj()
    choi = a.T @ (p_rep * a_conj)
    diff = choi - target_choi
    value = np.vdot(diff, diff).real

    wv = a @ diff.T
    q = 2.0 * (a_conj * wv).real.sum(axis=1).reshape(dp, d).sum(axis=1)
    grad = np.empty(nh + dp)
    grad[nh:] = p * (q - np.dot(q, p))

    # p·wv in U's layout; the factor 4 belongs to dF/dH.
    g = (4.0 * p_rep * wv).ravel()[plan.kraus_inv].reshape(n, n)
    phi = _dexp_divided_differences(w, eiw)
    gh = (v @ (np.conj(phi) * (vh @ g @ v)) @ vh).ravel()
    # Chain rule from dF/dH* onto the diagonal and upper-triangle re/im.
    re, im = gh.real, gh.imag
    m = len(plan.upper)
    grad[:n] = re[plan.diag]
    grad[n : n + m] = re[plan.lower] + re[plan.upper]
    grad[n + m : nh] = im[plan.upper] - im[plan.lower]
    return value, grad


def _decode_point(x: np.ndarray, d: int, dp: int):
    plan = _plan(d, dp)
    u = _exp_i_hermitian(_pack_hermitian(x, plan))[0]
    z = x[plan.n * plan.n :]
    ez = np.exp(z - z.max())
    return u, ez / ez.sum()


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
    ``default_rng([config.seed, r])``. Restarts stop early once the
    realizable threshold is beaten — later restarts could only confirm the
    verdict. The reported best residual is recomputed through the dilation
    path rather than trusted from the optimizer.
    """
    d, dp = target.d_in, target.d_out
    n = d * dp
    n_params = n * n + dp
    target_choi = target.choi.matrix

    best_value = np.inf
    best_x = None
    history = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        x0 = rng.normal(scale=1.0, size=n_params)
        res = minimize(
            _objective_and_grad,
            x0,
            args=(target_choi, d, dp),
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iters,
                "ftol": 1e-6 * _STEP_TOLERANCE,
                "gtol": 1e-4 * _STEP_TOLERANCE,
            },
        )
        value = float(res.fun)
        history.append(float(np.sqrt(max(value, 0.0))))
        if best_x is None or value < best_value:
            best_value = value
            best_x = res.x
        if np.sqrt(max(best_value, 0.0)) < config.realizable_threshold:
            break

    unitary, spectrum = _decode_point(best_x, d, dp)
    best_residual = float(realization_residual(target, unitary, spectrum))
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
