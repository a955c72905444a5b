"""Numerical search for realizations with a same-size mixed environment.

The question: given a channel d → d_fin, is there a unitary U on the joint
initial ⊗ final space and a spectrum p over the final system such that
initializing the final system in Σᵢ pᵢ|i'⟩⟨i'| and tracing out the initial
system reproduces the channel? (Restricting the initial state to diagonal
form loses nothing — a basis change is absorbed into U.)

Such a realization is a Kraus set {F_{s,a}} (s < d_fin, a < d) of the
channel with Σ_a F_{s,a}† F_{s',a} = p_s δ_{ss'} I_d, and every Kraus set of
n = d·d_fin operators is F = W·E, with E the minimal Kraus set (κ operators)
and W an n×κ isometry. The searcher therefore runs over the isometries W,
so the target is matched by construction: it drives the residual
R = G − I_d ⊗ diag(p), between F's Gram matrix G and the nearest
I_d ⊗ diag(p), to zero by Levenberg–Marquardt (``minimize``, NumPy only),
multi-restarted from seeded random isometries. Steps dW = [W, W⊥]·C are
taken in a chart centred at W and retracted to polar(W + dW) (Absil,
Mahony & Sepulchre 2008, ch. 4); F = W·E is linear in W, so the Jacobian
is plain linear algebra. A trial step costs one residual; the Jacobian is
built at the start point and at accepted points only. A restart stops once
a step lowers ‖R‖² by at most 1e-4 of itself or barely moves the point, or
after ``max_iters`` trial steps. Near a zero residual the method converges
quadratically, so a realizable target needs tens of steps, not hundreds.
Each restart's end point is decoded into a unitary and a spectrum, and its
Choi distance to the target is re-checked through the dilation path; the
re-checked residuals alone decide the early stop and the verdict, against
two thresholds. LIKELY_NOT_REALIZABLE is numerical evidence from a local
search, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from statistics import median
from typing import ClassVar

import numpy as np

from .channels import Channel, _vec, choi_to_kraus, distance, mix, random_channel
from .dilation import Dilation, _kraus_rows, channel_from_dilation
from .linalg import _frame, _is_integer
from .tolerances import ENV_SPECTRUM_CUTOFF

REALIZED = "REALIZED"
LIKELY_NOT_REALIZABLE = "LIKELY_NOT_REALIZABLE"
UNDECIDED = "UNDECIDED"

NUMERICAL_EVIDENCE_NOTE = (
    "LIKELY_NOT_REALIZABLE is numerical evidence from a multi-start local "
    "search, not a proof of non-realizability."
)

# Levenberg–Marquardt stops, as converged, on an accepted step that lowers
# ‖r‖² by at most this share, or on a step no longer than ``_STEP_STOP``·‖x‖.
# Near a zero residual each step cuts ‖r‖² by orders of magnitude, so the
# first rule fires only once round-off is reached or where the residual
# cannot go to zero and Gauss–Newton steps would otherwise crawl.
_DECREASE_STOP = 1e-4
_STEP_STOP = 1e-10


@dataclass(frozen=True, eq=False)
class LeastSquaresResult:
    """End point of one ``minimize`` run: ``status`` is 0 when a stop rule
    fired and 1 when ``maxiter`` trial steps ran out; ``nit`` counts trial
    steps and ``nfev`` evaluations of the residual, nit + 1."""

    x: np.ndarray
    status: int
    nit: int
    nfev: int


def minimize(fun, x0, args=(), *, residual, retract, options) -> LeastSquaresResult:
    """Levenberg–Marquardt on ‖r(x)‖²: ``fun(x, *args)`` returns the real
    residual vector r and its Jacobian J over real step coordinates at x,
    ``residual(x, *args)`` r alone, and ``retract(x, δ)`` the point a step δ
    leads to (``np.add`` on ℝⁿ).

    Each trial step solves (JᵀJ + μI)δ = −Jᵀr and is accepted when it lowers
    ‖r‖². A trial point costs one ``residual``; ``fun`` runs only at the
    start point and at accepted points. The damping μ starts at
    1e-3·max diag(JᵀJ) and follows Nielsen's update (Nielsen 1999, "Damping
    parameter in Marquardt's method"). ``options["maxiter"]`` caps the trial
    steps. Deterministic: the same input gives the same iterates. The search
    calls this module-level name, so it stays rebindable for tracing and
    tests.
    """
    x = x0
    r, jac = fun(x, *args)
    cost, nfev, nit = r @ r, 1, 0
    mu, nu = 1e-3 * np.max(np.sum(jac * jac, axis=0)), 2.0
    x_norm = np.linalg.norm(x)
    converged = cost == 0
    while not converged and nit < options["maxiter"]:
        grad = jac.T @ r
        gram = jac.T @ jac
        gram.flat[:: len(gram) + 1] += mu
        step = -np.linalg.solve(gram, grad)
        if np.sqrt(step @ step) <= _STEP_STOP * x_norm:
            converged = True
            break
        nit += 1
        trial = retract(x, step)
        trial_r = residual(trial, *args)
        nfev += 1
        trial_cost = trial_r @ trial_r
        # Gain ratio: actual decrease of ‖r‖² over the decrease the
        # linear model predicts, δᵀ(μδ − Jᵀr).
        rho = (cost - trial_cost) / (step @ (mu * step - grad))
        if rho > 0:
            converged = cost - trial_cost <= _DECREASE_STOP * cost
            x, cost = trial, trial_cost
            x_norm = np.linalg.norm(x)
            r, jac = fun(x, *args)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return LeastSquaresResult(x=x, status=0 if converged else 1, nit=nit, nfev=nfev)


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

    Three fields are settable: ``restarts``, ``max_iters`` and ``seed``. The
    class constants ``realizable_threshold`` (ε_r = 1e-6) and
    ``nonrealizable_threshold`` (ε_nr = 1e-3) split residuals into REALIZED
    (< ε_r), LIKELY_NOT_REALIZABLE (> ε_nr after all restarts) and UNDECIDED
    (in between). The search is a pure function of (target, config):
    per-restart randomness derives from (seed, restart index).
    """

    realizable_threshold: ClassVar[float] = 1e-6
    nonrealizable_threshold: ClassVar[float] = 1e-3

    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts)
        _check_count("max_iters", self.max_iters)
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


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
def _u_layout(d: int, dp: int) -> np.ndarray:
    """Flat index into the Kraus rows A of every entry of U, in the layout of
    ``dilation._kraus_rows``: U.ravel() == A.ravel()[index]. Built once per
    (d, d_fin) and shared read-only by every call."""
    n = d * dp
    index = np.argsort(_kraus_rows(np.arange(n * n).reshape(n, n), d, dp).ravel())
    index.flags.writeable = False
    return index


def _to_u_layout(rows: np.ndarray, d: int, dp: int) -> np.ndarray:
    """Kraus rows (n, n) rearranged into U's layout, one column per input
    |i, s⟩."""
    return rows.ravel()[_u_layout(d, dp)].reshape(rows.shape)


def _spectrum(g: np.ndarray, d: int, dp: int) -> np.ndarray:
    """p_s = tr(G_ss)/d: the I_d ⊗ diag(p) closest to G = Fm†Fm."""
    return g.diagonal().real.reshape(d, dp).sum(axis=0) / d


@lru_cache(maxsize=None)
def _residual_terms(n: int):
    """Flat indices into the real view of n×n complex matrices, and weights,
    such that r = h[a]·u + h[b]·w lists the n² independent real entries of
    the Hermitian part of h: its diagonal, then √2 times the real and the
    imaginary parts of its upper triangle."""
    rows, cols = np.triu_indices(n, 1)
    upper, lower = 2 * (rows * n + cols), 2 * (cols * n + rows)
    diag = 2 * (n + 1) * np.arange(n)
    a = np.concatenate([diag, upper, upper + 1])
    b = np.concatenate([diag, lower, lower + 1])
    half, pairs = np.sqrt(0.5), len(rows)
    u = np.concatenate([np.full(n, 0.5), np.full(2 * pairs, half)])
    w = np.concatenate([np.full(n, 0.5), np.full(pairs, half), np.full(pairs, -half)])
    for array in (a, b, u, w):
        array.flags.writeable = False
    return a, b, u, w


def _residual_vector(h: np.ndarray, d: int, dp: int, a, b, u, w) -> np.ndarray:
    """The n² independent real entries of R = H − I_d ⊗ diag(p), for H the
    Hermitian part (h + h†)/2 of h (n, n) and p = ``_spectrum(H)``: R's
    diagonal, then √2 times the real and the imaginary parts of its upper
    triangle, so that ‖r‖² = ‖R‖². (a, b, u, w) are ``_residual_terms(n)``;
    with ``_jacobian_tables``' terms, h holds many such matrices side by
    side and r has one column for each."""
    flat = h.ravel().view(float)
    r = flat[a] * u
    r += flat[b] * w
    diag = r[: d * dp].reshape(d, dp, -1)
    diag -= np.add.reduce(diag, axis=0) / d
    return r


def _polar(m: np.ndarray) -> np.ndarray:
    """The polar factor of m, the isometry nearest to it."""
    left, _, right = np.linalg.svd(m, full_matrices=False)
    return left @ right


@lru_cache(maxsize=None)
def _tangent_basis(n: int, kappa: int) -> np.ndarray:
    """Coefficients C_q (2nκ − κ², n, κ) of an orthonormal real basis of
    the steps dW = V·C at an n×κ isometry W. C's top κ×κ block is i·H, H
    Hermitian in the coordinates of ``_residual_terms``, since polar(W + dW)
    discards a Hermitian one; the real and the imaginary part of each entry
    of the free lower block follow. Built once per (n, κ), read-only."""
    top, lower = kappa * kappa, (n - kappa) * kappa
    a, b, u, w = _residual_terms(kappa)
    herm = np.zeros((top, 2 * top))
    herm[np.arange(top), a] = u
    herm[np.arange(top), b] += w
    basis = np.zeros((top + 2 * lower, n, kappa), dtype=complex)
    basis[:top, :kappa] = 1j * herm.view(complex).reshape(top, kappa, kappa)
    unit = np.eye(2 * lower).view(complex)
    basis[top:, kappa:] = unit.reshape(2 * lower, n - kappa, kappa)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def _jacobian_tables(d: int, dp: int, kappa: int):
    """Tables that build all 2nκ − κ² Jacobian columns at once, for an n×κ
    isometry at (d, d_fin). ``rows`` (n × Qκ) sets the C_q of
    ``_tangent_basis`` side by side, so that (V·rows).reshape(nQ, κ)·E lays
    the dF_q = V·C_q·E side by side as dF = [dF_0 … dF_{Q−1}] (n × Qn).
    ``layout`` gathers dF into U's layout block by block, and ``a``/``b``
    and ``u``/``w`` are ``_residual_terms``' indices and weights for the
    real view of every block of such an n × Qn matrix, one column per q.
    Built once per (d, d_fin, κ) and shared read-only."""
    n = d * dp
    basis = _tangent_basis(n, kappa)
    count = len(basis)
    rows = basis.transpose(1, 0, 2).reshape(n, count * kappa)

    def spread(index):
        """Flat indices x·n + y into one n×n block, as (index, q) into
        block q of an n × Qn matrix, where (x, y) sits at x·Qn + q·n + y."""
        return (index // n * count * n + index % n)[:, None] + n * np.arange(count)

    layout = spread(_u_layout(d, dp)).reshape(n, n, count).transpose(0, 2, 1).ravel()
    a, b, u, w = _residual_terms(n)
    a, b = (2 * spread(terms // 2) + terms[:, None] % 2 for terms in (a, b))
    for array in (rows, layout, a, b):
        array.flags.writeable = False
    return rows, layout, a, b, u[:, None], w[:, None]


def _retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """polar(W + dW), with dW = V·Σ_q step_q·C_q (``_tangent_basis``)."""
    basis = _tangent_basis(*w.shape)
    tangent = step @ basis.reshape(len(basis), -1)
    return _polar(w + _frame(w) @ tangent.reshape(w.shape))


def _residual(w: np.ndarray, kraus: np.ndarray, d: int, dp: int) -> np.ndarray:
    """The residual r of R = G − I_d ⊗ diag(p) at the n×κ isometry w: G =
    Fm†Fm for Fm the Kraus set F = w·E (``kraus`` holds the rows vec(E_j))
    in U's layout, p = ``_spectrum(G)``. ‖r‖² is zero exactly when Fm's
    columns, scaled by 1/√p_s, are orthonormal: then they are columns of a
    unitary that realizes the target with spectrum p."""
    fm = _to_u_layout(w @ kraus, d, dp)
    return _residual_vector(fm.conj().T @ fm, d, dp, *_residual_terms(d * dp))


def _objective_and_grad(w: np.ndarray, kraus: np.ndarray, d: int, dp: int):
    """``_residual`` at w and its exact Jacobian, the derivative of r along
    each dW_q = V·C_q of ``_tangent_basis``, which is also its derivative
    through ``_retract``."""
    n, kappa = w.shape
    fm = _to_u_layout(w @ kraus, d, dp)
    residual = _residual_vector(fm.conj().T @ fm, d, dp, *_residual_terms(n))
    # F = W·E is linear in W, so dF_q = V·C_q·E, and dG_q = Fm†dFm_q + h.c.
    # is twice the Hermitian part of Fm†dFm_q: two products build every
    # dF_q, one gather puts them in U's layout, and one more product gives
    # every Fm†dFm_q, whose residual entries are J's columns.
    rows, layout, *terms = _jacobian_tables(d, dp, kappa)
    dfm = ((_frame(w) @ rows).reshape(-1, kappa) @ kraus).ravel()[layout]
    h = 2.0 * fm.conj().T @ dfm.reshape(n, -1)
    return residual, _residual_vector(h, d, dp, *terms)


def _decode_point(w: np.ndarray, kraus: np.ndarray, d: int, dp: int):
    """The realization (U, p) at the isometry w: p = ``_spectrum(G)`` and U
    the polar factor of Fm with column (i, s) scaled by 1/√p_s. Columns with
    p_s ≤ ``ENV_SPECTRUM_CUTOFF`` are left zero, since scaling their
    round-off by 1/√p_s would amplify it into a non-realization; the polar
    factor completes them. p is normalized because E lacks the Choi
    eigenvalues below the Kraus rank cutoff."""
    fm = _to_u_layout(w @ kraus, d, dp)
    p = _spectrum(fm.conj().T @ fm, d, dp)
    scale = np.divide(
        1.0, np.sqrt(p), out=np.zeros(dp), where=p > ENV_SPECTRUM_CUTOFF
    )
    return _polar(fm * np.tile(scale, d)), p / p.sum()


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

    best = None
    history = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        real, imag = rng.normal(scale=1.0, size=(2, d * dp, len(kraus)))
        res = minimize(
            _objective_and_grad,
            _polar(real + 1j * imag),
            args=(kraus, d, dp),
            residual=_residual,
            retract=_retract,
            options={"maxiter": config.max_iters},
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
