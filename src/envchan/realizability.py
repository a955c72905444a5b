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
is plain linear algebra: J is read from Fm†·K(V·T), K the Kraus-column
layout and T = C·E the table of every C_q·E, built once per search. Every
point costs one residual, which builds its state (Fm, V): the Kraus columns
and the frame V = [W, W⊥] that the Jacobian, the curvature, the retraction
and the decoding read; J is built at the start point and at accepted points
that do not end the restart. Once
‖R‖² < 1e-2, each step adds half the geodesic acceleration along the
retraction (Transtrum & Sethna 2012), so the iterates follow the curved
valley around a zero residual instead of zigzagging across it, and a
realizable target needs tens of steps, not hundreds. A restart stops once a
step lowers ‖R‖² by at most 1e-4 of itself or barely moves the point, or
after ``max_iters`` trial steps. One gather table (``_projected_terms``)
reads R's entries out of G, its derivatives and its second derivative, with
the projection onto p folded in, so R's diagonal still sums to zero over the
input index for every s. Each restart's end point is decoded into a unitary
and a spectrum, and its Choi distance to the target is re-checked: the
dilation's Choi matrix, summed from U's entries and checked as CP and TP, is
compared with the target's. The re-checked residuals alone decide the early
stop and the verdict, against two thresholds. LIKELY_NOT_REALIZABLE is
numerical evidence from a local search, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .channels import Channel, _vec, choi_to_kraus, distance, mix, random_channel
from .dilation import Dilation, _dilation_choi, _kraus_columns
from .linalg import _check_integers, _frame, _is_integer
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
# ``minimize`` adds geodesic acceleration a to a step v below this ‖r‖²,
# when 2‖a‖ ≤ this ratio·‖v‖ (Transtrum & Sethna 2012's α).
_ACCELERATE_BELOW = 1e-2
_ACCELERATION_RATIO = 0.75


@dataclass(frozen=True, eq=False)
class LeastSquaresResult:
    """End point of one ``minimize`` run: ``status`` is 0 when a stop rule
    fired and 1 when ``maxiter`` trial steps ran out; ``nit`` counts trial
    steps, ``nfev`` residual evaluations (nit + 1); ``state`` is x's."""

    x: np.ndarray
    status: int
    nit: int
    nfev: int
    state: object


def minimize(
    jacobian, x0, args=(), *, residual, curvature, retract, options
) -> LeastSquaresResult:
    """Levenberg–Marquardt on ‖r(x)‖², with geodesic acceleration near a
    zero residual: ``residual(x, *args)`` returns (r, state), the real
    residual vector r at x and what the other callbacks reuse of the point
    (the search's Kraus columns and frame (Fm, V); ``None`` if nothing),
    ``jacobian(x, state, *args)`` only r's Jacobian J over real step
    coordinates, ``curvature(x, state, δ, *args)`` the second derivative
    r_δδ of r along t ↦ ``retract(x, state, t·δ)`` at t = 0, and
    ``retract(x, state, δ)`` the point a step δ leads to (x + δ on ℝⁿ).

    Each trial step solves (JᵀJ + μI)v = −Jᵀr. Once ‖r‖² <
    ``_ACCELERATE_BELOW``, it also solves (JᵀJ + μI)a = −Jᵀr_vv with the same
    matrix and tries v + a/2 when 2‖a‖ ≤ ``_ACCELERATION_RATIO``·‖v‖, v
    otherwise (Transtrum & Sethna 2012, "Improvements to the
    Levenberg–Marquardt algorithm for nonlinear least-squares
    minimization"). A trial is accepted when it lowers ‖r‖²; the gain ratio
    and the stop rules measure v alone. Every point costs one ``residual``
    and an accepted trial keeps its r and state, so ``jacobian`` returns J
    only and runs only at the start point and at accepted points that do
    not end the run. The damping μ starts at 1e-3·max diag(JᵀJ) and
    follows Nielsen's update (Nielsen 1999, "Damping parameter in
    Marquardt's method").
    ``options["maxiter"]`` caps the trial steps. Deterministic: the same
    input gives the same iterates. The search calls this module-level name,
    so it stays rebindable for tracing and tests; the benchmark traces it
    under this name, with this ``options`` keyword.
    """
    x, maxiter = x0, options["maxiter"]
    r, state = residual(x, *args)
    jac = jacobian(x, state, *args)
    cost, nfev, nit = float(r @ r), 1, 0
    mu, nu = 1e-3 * float((jac * jac).sum(axis=0).max()), 2.0
    x_norm = math.sqrt(np.vdot(x, x).real)
    converged = cost == 0
    while not converged and nit < maxiter:
        grad = jac.T @ r
        gram = jac.T @ jac
        gram.flat[:: len(gram) + 1] += mu
        step = -np.linalg.solve(gram, grad)
        step_norm = math.sqrt(step @ step)
        if step_norm <= _STEP_STOP * x_norm:
            converged = True
            break
        nit += 1
        move = step
        if cost < _ACCELERATE_BELOW:
            accel = -np.linalg.solve(gram, jac.T @ curvature(x, state, step, *args))
            if 2.0 * math.sqrt(accel @ accel) <= _ACCELERATION_RATIO * step_norm:
                move = step + 0.5 * accel
        trial = retract(x, state, move)
        trial_r, trial_state = residual(trial, *args)
        nfev += 1
        trial_cost = float(trial_r @ trial_r)
        # Gain ratio: actual decrease of ‖r‖² over the decrease the
        # linear model predicts for v, vᵀ(μv − Jᵀr).
        rho = (cost - trial_cost) / float(step @ (mu * step - grad))
        if rho > 0:
            converged = cost - trial_cost <= _DECREASE_STOP * cost
            x, r, state, cost = trial, trial_r, trial_state, trial_cost
            x_norm = math.sqrt(np.vdot(x, x).real)
            if not converged and nit < maxiter:
                jac = jacobian(x, state, *args)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return LeastSquaresResult(x, 0 if converged else 1, nit, nfev, state)


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
    _check_integers("dimensions must be positive", d, d_fin)
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
        _check_integers("seed must be a non-negative integer", self.seed, least=0)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best point found by the search.

    ``residual_history`` holds, per restart actually run, the Choi distance
    to the target of the dilation decoded from that restart's end point,
    re-checked independently of the optimizer (the loop stops early once one
    beats the realizable threshold). ``best_residual`` is the least of them,
    and ``best_unitary``/``best_env_spectrum`` are its dilation. The two
    thresholds are those the verdict was decided against; ``note`` says
    what LIKELY_NOT_REALIZABLE means.
    """

    verdict: str
    best_residual: float
    residual_history: tuple
    best_env_spectrum: np.ndarray
    best_unitary: np.ndarray
    realizable_threshold: float
    nonrealizable_threshold: float
    note: str = field(default=NUMERICAL_EVIDENCE_NOTE)


def _spectrum(g: np.ndarray, d: int, dp: int) -> np.ndarray:
    """p_s = tr(G_ss)/d: the I_d ⊗ diag(p) closest to G = Fm†Fm."""
    return g.diagonal().real.reshape(d, dp).sum(axis=0) / d


def _read_only(*arrays):
    """``arrays``, marked read-only: a cached table is shared by every
    caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _hermitian_terms(n: int, blocks: int):
    """Flat indices (n², blocks) into the real view of an n × blocks·n
    complex matrix h, and weights (n², 1), such that column q of r = h[a]·u
    + h[b]·w lists the n² independent real entries of the Hermitian part of
    h's block q (its columns q·n to q·n + n − 1): its diagonal, then √2
    times the real and the imaginary parts of its upper triangle. Built
    fresh and writable."""
    rows, cols = np.triu_indices(n, 1)
    width, pairs, half = blocks * n, len(rows), np.sqrt(0.5)
    upper, lower = rows * width + cols, cols * width + rows
    diag, start = (width + 1) * np.arange(n), n * np.arange(blocks)
    imag = np.repeat([0, 0, 1], [n, pairs, pairs])[:, None]
    a = 2 * (np.concatenate([diag, upper, upper])[:, None] + start) + imag
    b = 2 * (np.concatenate([diag, lower, lower])[:, None] + start) + imag
    u = np.repeat([0.5, half, half], [n, pairs, pairs])[:, None]
    w = np.repeat([0.5, half, -half], [n, pairs, pairs])[:, None]
    return a, b, u, w


@lru_cache(maxsize=None)
def _projected_terms(d: int, dp: int, blocks: int):
    """``_hermitian_terms(d·dp, blocks)`` with the projection onto p =
    ``_spectrum(H)`` folded in: (a, b, u, w, extra) such that h[a]·u +
    h[b]·w, less h[c]/d on the n diagonal rows for each c in ``extra``, is
    r of R = H − I_d ⊗ diag(p). Diagonal row (x, s) takes H_(x,s) at
    1 − 1/d, H_(x+1,s) at −1/d and, from ``extra``, H_(x+j,s) at −1/d for
    j = 2 … d − 1 (mod d; none at d = 2): H_(x,s) less its mean over x,
    so Σ_x r_(x,s) = 0. At d = 1, x + 1 wraps to x itself and weighs 0:
    the diagonal rows are 0. The rows past the diagonal are those of
    ``_hermitian_terms``. Built once per (d, dp, blocks), read-only."""
    n = d * dp
    a, b, u, w = _hermitian_terms(n, blocks)
    diag = a[:n]
    b[:n] = np.roll(diag, -dp, axis=0)
    u[:n] = 1.0 - 1.0 / d
    w[:n] = -1.0 / d if d > 1 else 0.0
    extra = tuple(np.roll(diag, -j * dp, axis=0) for j in range(2, d))
    return _read_only(a, b, u, w) + (_read_only(*extra),)


def _residual_vector(h: np.ndarray, d: int, dp: int) -> np.ndarray:
    """The n² independent real entries of R = H − I_d ⊗ diag(p), for H the
    Hermitian part (h + h†)/2 of h (n, n) and p = ``_spectrum(H)``: R's
    diagonal, then √2 times the real and the imaginary parts of its upper
    triangle, so that ‖r‖² = ‖R‖². h may hold m such matrices side by side
    (n × m·n); r then has one column for each, through
    ``_projected_terms(d, dp, m)``. The projection onto p is part of that
    gather table, so r is one gather-multiply-add (plus d − 2 on the
    diagonal rows), and Σ_x r_(x,s) = 0 for every s and column: the
    d_fin linear constraints that J's rank count relies on."""
    n = d * dp
    a, b, u, w, extra = _projected_terms(d, dp, h.shape[1] // n)
    flat = h.ravel().view(float)
    # One temporary fewer than r = h[a]·u + h[b]·w: at J's size each is a
    # fresh allocation costing about as much as a gather. (Scaling h[a] in
    # place as well made a (4,4) search page-fault 11 times as often.)
    r = flat[a] * u
    second = flat[b]
    second *= w
    r += second
    for c in extra:
        r[:n] -= flat[c] / d
    return r


def _polar(m: np.ndarray) -> np.ndarray:
    """The polar factor of m, the isometry nearest to it."""
    left, _, right = np.linalg.svd(m, full_matrices=False)
    return left @ right


@lru_cache(maxsize=None)
def _tangent_basis(n: int, kappa: int):
    """Coefficients C_q of an orthonormal real basis of the steps dW = V·C
    at an n×κ isometry W, Q = 2nκ − κ² of them, in one layout: side by
    side (n × Qκ, block q is C_q). C's top κ×κ block is i·H, H Hermitian
    in the coordinates of ``_hermitian_terms``, since polar(W + dW)
    discards a Hermitian one; the real and the imaginary part of each
    entry of the free lower block follow. Built once per (n, κ),
    read-only."""
    top, lower = kappa * kappa, (n - kappa) * kappa
    a, b, u, w = _hermitian_terms(kappa, 1)
    herm = np.zeros((top, 2 * top))
    herm[np.arange(top)[:, None], a] = u
    herm[np.arange(top)[:, None], b] += w
    basis = np.zeros((top + 2 * lower, n, kappa), dtype=complex)
    basis[:top, :kappa] = 1j * herm.view(complex).reshape(top, kappa, kappa)
    unit = np.eye(2 * lower).view(complex)
    basis[top:, kappa:] = unit.reshape(2 * lower, n - kappa, kappa)
    return _read_only(basis.transpose(1, 0, 2).reshape(n, -1))[0]


def _tangent(w: np.ndarray, v: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The tangent dW = V·Σ_q step_q·C_q at w in its frame v (``_tangent_basis``)."""
    n, kappa = w.shape
    return v @ (step @ _tangent_basis(n, kappa).reshape(n, -1, kappa))


def _retract(w: np.ndarray, state, step: np.ndarray) -> np.ndarray:
    """polar(W + dW), with dW = ``_tangent`` in the V of w's state (Fm, V)."""
    return _polar(w + _tangent(w, state[1], step))


def _residual(w: np.ndarray, kraus: np.ndarray, table, d: int, dp: int):
    """(r, (Fm, V)): the residual r of R = G − I_d ⊗ diag(p) at the n×κ
    isometry w, and the point's state: G = Fm†Fm for Fm the Kraus set F =
    w·E (``kraus`` holds the rows vec(E_j)) in U's layout, p =
    ``_spectrum(G)``, and w's frame V = ``_frame(w)``, built only here.
    ``table`` is J's (``_tangent_kraus``), unread here.
    ‖r‖² is zero exactly when Fm's columns, scaled by 1/√p_s, are
    orthonormal: then they are columns of a unitary that realizes the
    target with spectrum p."""
    fm = _kraus_columns(w @ kraus, d, dp)
    return _residual_vector(fm.conj().T @ fm, d, dp)[:, 0], (fm, _frame(w))


def _tangent_kraus(kraus: np.ndarray) -> np.ndarray:
    """T = C·E: each C_q of ``_tangent_basis`` times the Kraus rows E
    (``kraus``, κ × n), side by side (n × Qn, block q is C_q·E), so that
    V·T_q are the Kraus rows of dF_q at any point with frame V. T depends
    on the target alone; the search builds it once."""
    kappa, n = kraus.shape
    return (_tangent_basis(n, kappa).reshape(n, -1, kappa) @ kraus).reshape(n, -1)


def _objective_and_grad(w: np.ndarray, state, kraus, table: np.ndarray, d: int, dp: int):
    """The exact Jacobian J of ``_residual`` at w, its derivative along each
    dW_q = V·C_q of ``_tangent_basis``, which is also its derivative
    through ``_retract``; ``state`` is w's (Fm, V) from ``_residual`` and
    ``table`` the target's T = ``_tangent_kraus(kraus)``, read in place of
    ``kraus``. J only: ``minimize`` keeps r from ``_residual``. The name is
    kept because the benchmark traces it."""
    (fm, v), n = state, len(w)
    # F = W·E is linear in W, so dF_q = V·C_q·E = V·T_q and dG_q = Fm†dFm_q
    # + h.c. V·T, viewed as (nQ, n), holds the Kraus rows (t, a, q) of every
    # dF_q, q in the environment slot, so ``_kraus_columns`` lays them side
    # by side in U's layout; one more product gives all of J's columns.
    dfm = _kraus_columns((v @ table).reshape(-1, n), d, dp, table.shape[1] // n)
    h = fm.conj().T @ dfm.reshape(n, -1)
    h *= 2.0
    return _residual_vector(h, d, dp)


def _curvature(
    w: np.ndarray, state, step: np.ndarray, kraus: np.ndarray, table, d: int, dp: int
) -> np.ndarray:
    """r_vv: the second derivative of ``_residual`` along the retraction
    curve t ↦ polar(W + tZ) at t = 0, for Z = ``_tangent`` along step and
    ``state`` w's (Fm, V) from ``_residual``; ``table`` is J's, unread.

    W†Z is anti-Hermitian, so (W + tZ)†(W + tZ) = I + t²Z†Z and the curve is
    W + tZ − (t²/2)·W·Z†Z + O(t³): W' = Z and W'' = −W·Z†Z. F = W·E is
    linear in W, so Fm' and Fm'' are Z·E and W''·E in U's layout, and G'' =
    2·Fm'†Fm' + Fm†Fm'' + h.c. is the Hermitian part of 2·Fm†Fm'' +
    2·Fm'†Fm', whose residual entries are r_vv."""
    fm, v = state
    z = _tangent(w, v, step)
    dfm = _kraus_columns(z @ kraus, d, dp)
    ddfm = _kraus_columns(-w @ (z.conj().T @ z) @ kraus, d, dp)
    h = 2.0 * (fm.conj().T @ ddfm + dfm.conj().T @ dfm)
    return _residual_vector(h, d, dp)[:, 0]


def _decode_point(fm: np.ndarray, d: int, dp: int):
    """The realization (U, p) at the point whose state has Kraus columns fm:
    p = ``_spectrum(G)`` and U the polar factor of Fm with column (i, s)
    scaled by 1/√p_s. Columns with p_s ≤ ``ENV_SPECTRUM_CUTOFF`` are left
    zero, since scaling their round-off by 1/√p_s would amplify it into a
    non-realization; the polar factor completes them. p is normalized
    because E lacks the Choi eigenvalues below the Kraus rank cutoff."""
    p = _spectrum(fm.conj().T @ fm, d, dp)
    scale = np.divide(1.0, np.sqrt(p), out=np.zeros(dp), where=p > ENV_SPECTRUM_CUTOFF)
    return _polar(fm * np.tile(scale, d)), p / p.sum()


def _minimal_kraus_rows(target: Channel) -> np.ndarray:
    """Rows vec(E_j) of the target's minimal Kraus set."""
    return np.stack([_vec(op) for op in choi_to_kraus(target.choi).operators])


def realization_residual(target: Channel, unitary: np.ndarray, spectrum) -> float:
    """Choi distance between the target and the channel induced by the
    dilation (unitary, diag(spectrum)) — the independent check of a search
    outcome.

    It uses nothing of the optimizer's state: the dilation is validated
    (U unitary, diag(spectrum) a density matrix), its Choi matrix is summed
    from U's entries and checked as CP and TP, and that checked matrix is
    compared with the target's.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    dil = Dilation(
        d_in=target.d_in,
        d_fin=target.d_out,
        d_env=0,
        unitary=unitary,
        env_state=np.diag(spectrum).astype(complex),
    )
    return distance(_dilation_choi(dil), target)


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
    table = _tangent_kraus(kraus)

    best, history = None, []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        real, imag = rng.normal(scale=1.0, size=(2, d * dp, len(kraus)))
        res = minimize(
            _objective_and_grad,
            _polar(real + 1j * imag),
            args=(kraus, table, d, dp),
            residual=_residual,
            curvature=_curvature,
            retract=_retract,
            options={"maxiter": config.max_iters},
        )
        unitary, spectrum = _decode_point(res.state[0], d, dp)
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
        realizable_threshold=config.realizable_threshold,
        nonrealizable_threshold=config.nonrealizable_threshold,
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
    channels by construction. Sample k draws only from its own generator,
    ``default_rng([config.seed, k, 1])``, and runs the config's search, so
    it does not depend on ``n_samples`` and can be re-run alone.

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
        residual_median=float(np.median(residuals)),
    )
