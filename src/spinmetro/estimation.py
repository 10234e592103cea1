"""Sampling and phase estimation: maximum likelihood, Bayesian, method of moments.

Sampling is backed by the counter-based Philox generator: one 64-bit seed
keys the whole experiment and every Monte-Carlo trial gets its own counter
stream, so trials are reproducible and independently parallelisable without
sequence sharing.  A harness keys one Philox bit generator and rewinds it to
the start of each trial's stream, and inverts one CDF of P(theta_true) for
every trial.  All likelihood work happens in log space with per-sample max
subtraction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .fisher import (P_FLOOR, ProbabilityModel, _vecdot, fisher_information,
                     moment_statistics, povm_diagonal_coefficients)

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: default estimation window for probes whose statistics are even in theta
DEFAULT_DOMAIN = (0.0, math.pi / 2)
#: MLE: coarse grid points, then Newton refinement until its bracket is this narrow
MLE_GRID = 512
MLE_TOL = 1e-7
#: posterior grid points (flat prior)
BAYES_GRID = 2048
#: probability mass of the symmetric credible interval around the posterior mean
CREDIBLE_MASS = 0.6827
#: posterior density at the domain borders, relative to the peak, treated as vanishing
BORDER_TOL = 1e-8
#: relative slack of the posterior variance below its bound (grid discretisation)
GRID_RTOL = 1e-3
#: method of moments: monotonicity-check grid points, and Newton's stopping step or bracket
MOMENTS_GRID = 256
MOMENTS_TOL = 1e-12


class StatisticalFailure(RuntimeError):
    """A statistical run produced unusable output (not a configuration error)."""


class DomainError(ValueError):
    """The requested estimation domain violates a precondition."""


def _interval(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    return lo, hi


def _index(value, name: str, lo: int, hi: int | None = None) -> int:
    """`value` as a Python int in [lo, hi); a bool or a non-integer is rejected."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or (hi is not None and value >= hi):
        limits = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ValueError(f"{name} must be {limits}, got {value}")
    return value


class _PhiloxStreams:
    """One Philox bit generator keyed by `seed`, rewound to the start of any stream.

    Stream t starts at counter t * 2**128: counter words (0, 0, t mod 2**64,
    t >> 64) with the 4-word output buffer empty, exactly the state of a fresh
    `Philox(key=seed, counter=t << 128)`.
    """

    def __init__(self, seed):
        self._bitgen = np.random.Philox(key=_index(seed, "seed", 0, 2**64))
        self._state = self._bitgen.state
        self._generator = np.random.Generator(self._bitgen)

    def at(self, stream) -> np.random.Generator:
        """The generator, positioned at the first draw of `stream`."""
        stream = _index(stream, "stream", 0, 2**128)
        state = self._state
        state["state"]["counter"] = [0, 0, stream & (2**64 - 1), stream >> 64]
        state["buffer_pos"], state["has_uint32"], state["uinteger"] = 4, 0, 0
        self._bitgen.state = state
        return self._generator


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator: `seed` keys it, `stream` offsets the counter.

    Stream k starts at counter k * 2**128, leaving every stream an
    astronomically long private block of the Philox sequence.  `seed` must be
    an integer in [0, 2**64) and `stream` one in [0, 2**128).
    """
    return _PhiloxStreams(seed).at(stream)


@dataclass(frozen=True)
class OutcomeSample:
    """m i.i.d. outcome draws from a model at the true phase."""

    model: ProbabilityModel
    theta_true: float
    outcomes: np.ndarray
    seed: int
    stream: int = 0
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out = np.asarray(self.outcomes, dtype=np.int64)
        if out.ndim != 1:
            raise ValueError("outcomes must be a 1-d array of outcome ids")
        n = self.model.n_outcomes
        try:  # one pass both counts and checks the range
            counts = np.bincount(out, minlength=n)
            in_range = counts.size == n
        except (ValueError, MemoryError):  # a negative id, or one too large to count
            in_range = False
        if not in_range:
            raise ValueError("sample contains outcome ids outside the model's POVM")
        out.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "outcomes", out)
        object.__setattr__(self, "_counts", counts)

    @property
    def m(self) -> int:
        return int(self.outcomes.size)

    def counts(self) -> np.ndarray:
        """Read-only count of each outcome id, length `model.n_outcomes`."""
        return self._counts


class _TrialDraws:
    """What a Monte-Carlo harness shares over its trials: the CDF of the
    outcome probabilities `p` at the true phase and one Philox source."""

    def __init__(self, p: np.ndarray, seed):
        self.cdf = np.cumsum(p)
        self.cdf[-1] = max(self.cdf[-1], 1.0)  # guard the top edge against round-off
        self.streams = _PhiloxStreams(seed)


def sample(model: ProbabilityModel, theta_true: float, m: int, seed: int,
           stream: int = 0, *, draws: _TrialDraws | None = None) -> OutcomeSample:
    """Draw m outcomes by inverse CDF over the outcome table; deterministic in seed.

    `draws` is the CDF and Philox source a harness drawing every trial at
    one angle builds once from `seed` and `model.probabilities(theta_true)`.
    """
    m = _index(m, "m", 1)
    if draws is None:
        draws = _TrialDraws(model.probabilities(theta_true), seed)
    u = draws.streams.at(stream).random(m)
    outcomes = draws.cdf.searchsorted(u, side="right")
    return OutcomeSample(model=model, theta_true=float(theta_true),
                         outcomes=outcomes, seed=int(seed), stream=int(stream))


def _log_table(model: ProbabilityModel, thetas) -> np.ndarray:
    return np.log(np.clip(model.probability_table(thetas), P_FLOOR, None))


def log_likelihood(model: ProbabilityModel, outcomes, phi):
    """L(eps|phi) = sum_i ln P(eps_i|phi), probabilities floored at P_FLOOR.

    `phi` may be a scalar or an array; the result matches its shape.
    """
    counts = np.bincount(np.asarray(outcomes, dtype=np.int64), minlength=model.n_outcomes)
    values = _log_table(model, phi) @ counts
    return float(values[0]) if np.isscalar(phi) or np.ndim(phi) == 0 else values


@dataclass(frozen=True)
class MleEstimate:
    theta: float
    log_likelihood: float
    boundary: bool


#: trials per block of the grid stage and of Newton's steps, bounding their scratch
_GRID_BLOCK = 256
#: Newton steps per block before a refinement gives up (bisection alone needs far fewer)
_NEWTON_STEPS = 64


def _newton(g, x, a, b, step_tol, width_tol):
    """Row-wise roots of increasing functions in brackets [a, b], from x, in place.

    `g(rows, x)` gives the values and slopes of the functions `rows` at x;
    each call covers the open rows of one block of _GRID_BLOCK.  Each
    value's sign moves its bracket to x and an exact zero keeps x; a step
    outside the bracket (inclusive) or a slope <= 0 bisects it.  A row stops
    once its step is <= step_tol or its bracket <= width_tol.
    """
    for start in range(0, x.size, _GRID_BLOCK):
        rows = np.arange(start, min(start + _GRID_BLOCK, x.size))
        for _ in range(_NEWTON_STEPS):
            xr = x[rows]
            val, slope = g(rows, xr)
            ar = a[rows] = np.where(val < 0, xr, a[rows])
            br = b[rows] = np.where(val > 0, xr, b[rows])
            new = xr - val / np.where(slope > 0, slope, np.inf)
            bisect = (slope <= 0) | ~((ar <= new) & (new <= br))
            x[rows] = new = np.where(val == 0, xr, np.where(bisect, 0.5 * (ar + br), new))
            rows = rows[(np.abs(new - xr) > step_tol) & (br - ar > width_tol)]
            if not rows.size:
                break
        else:
            raise StatisticalFailure(
                f"{rows.size} trials did not converge in {_NEWTON_STEPS} Newton steps")
    return x


def _mle_refine(model, counts, domain):
    """Row-wise MLE of a (trials, outcomes) count matrix, and the boundary flags.

    The grid stage takes one product per block of trials.  From each trial's
    best grid point, safeguarded Newton on the score S = sum n P'/P in
    [best - 1, best + 1], with S' = sum n (P''/P - (P'/P)^2) and no term from
    outcomes with P <= P_FLOOR, stops once a step is <= 1e-10 or the bracket
    <= MLE_TOL.
    """
    lo, hi = _interval(domain)
    grid = np.linspace(lo, hi, MLE_GRID)
    logp_grid = _log_table(model, grid)
    best = np.concatenate([np.argmax(counts[i:i + _GRID_BLOCK] @ logp_grid.T, axis=1)
                           for i in range(0, len(counts), _GRID_BLOCK)])

    def minus_score(rows, x):
        p, dp, d2p = model._tables(x, 2)
        inv = np.divide(1.0, p, out=np.zeros_like(p), where=p > P_FLOOR)
        ratio, n = dp * inv, counts[rows]
        return -_vecdot(ratio, n), _vecdot(ratio ** 2 - d2p * inv, n)

    est = _newton(minus_score, grid[best], grid[np.maximum(best - 1, 0)],
                  grid[np.minimum(best + 1, MLE_GRID - 1)], 1e-10, MLE_TOL)
    boundary = (est - lo < 2 * MLE_TOL) | (hi - est < 2 * MLE_TOL)
    return est, boundary


def mle(model: ProbabilityModel, outcomes, domain=DEFAULT_DOMAIN) -> MleEstimate:
    """Maximum-likelihood phase: coarse grid, then safeguarded Newton on the score.

    The domain must be an interval on which the model is identifiable; a
    maximum on the domain boundary is flagged but still returned.
    """
    counts = np.bincount(np.asarray(outcomes, dtype=np.int64), minlength=model.n_outcomes)
    est, (boundary,) = _mle_refine(model, counts[None, :], domain)
    (loglik,) = _vecdot(_log_table(model, est), counts)
    return MleEstimate(theta=float(est[0]), log_likelihood=float(loglik), boundary=bool(boundary))


@dataclass(frozen=True)
class EstimationReport:
    """Monte-Carlo trial statistics for one estimator; the moment harness also
    keeps each trial's predicted variance."""

    estimator: str
    theta_true: float
    m: int
    seed: int
    estimates: np.ndarray
    crlb: float
    boundary_fraction: float = 0.0
    variance_predictions: np.ndarray | None = None

    def __post_init__(self):
        for name in ("estimates", "variance_predictions"):
            if getattr(self, name) is not None:
                values = np.asarray(getattr(self, name), dtype=float)
                values.setflags(write=False)
                object.__setattr__(self, name, values)
        if self.trials < 1:
            raise ValueError("report needs at least one trial")

    @property
    def trials(self) -> int:
        return int(self.estimates.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.estimates))

    @property
    def variance(self) -> float:
        if self.trials < 2:
            return 0.0
        return float(np.var(self.estimates, ddof=1))

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.trials) if self.trials > 1 else 0.0

    @property
    def bias(self) -> float:
        return self.mean - self.theta_true


def _count_matrix(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                  seed: int) -> np.ndarray:
    """(trials, outcomes) outcome counts; row t is `sample` on Philox stream t,
    every trial drawn from one P(theta_true)."""
    trials = _index(trials, "trials", 1)
    draws = _TrialDraws(model.probabilities(theta_true), seed)
    return np.array([sample(model, theta_true, m, seed, stream=t, draws=draws).counts()
                     for t in range(trials)])


def _crlb(model: ProbabilityModel, theta_true: float, m: int) -> float:
    fi = fisher_information(model, theta_true).fi
    return 1.0 / (m * fi) if fi > 0 else math.inf


def mle_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                    seed: int, domain=DEFAULT_DOMAIN) -> EstimationReport:
    """MLE of every trial's counts at once; compare the spread with 1/(m F)."""
    counts = _count_matrix(model, theta_true, m, trials, seed)
    estimates, boundary = _mle_refine(model, counts, domain)
    return EstimationReport(
        estimator="mle", theta_true=float(theta_true), m=int(m), seed=int(seed),
        estimates=estimates, crlb=_crlb(model, theta_true, m),
        boundary_fraction=int(np.count_nonzero(boundary)) / trials,
    )


@dataclass(frozen=True)
class PosteriorDistribution:
    """Posterior density on an ascending phase grid, trapezoid-normalised."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.shape != dens.shape or grid.size < 3:
            raise ValueError("grid and density must be matching 1-d arrays")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if np.any(dens < 0):
            raise ValueError("density must be non-negative")
        total = float(_trapz(dens, grid))
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"posterior integrates to {total!r}, not 1")
        grid.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)


def bayes_posterior(model: ProbabilityModel, outcomes,
                    domain=DEFAULT_DOMAIN) -> PosteriorDistribution:
    """Flat-prior posterior P(phi|eps) on BAYES_GRID points: exp(L - max),
    trapezoid-normalised.  With no outcomes it is the flat prior itself."""
    grid = np.linspace(*_interval(domain), BAYES_GRID)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if outcomes.size:
        loglik = log_likelihood(model, outcomes, grid)
    else:
        loglik = np.zeros_like(grid)
    return _normalised_posterior(grid, loglik)


def _normalised_posterior(grid, logpost) -> PosteriorDistribution:
    peak = float(np.max(logpost))
    if not np.isfinite(peak):
        raise StatisticalFailure("posterior underflowed to zero everywhere")
    density = np.exp(logpost - peak)
    norm = float(_trapz(density, grid))
    if norm <= 0 or not np.isfinite(norm):
        raise StatisticalFailure("posterior could not be normalised")
    return PosteriorDistribution(grid=grid, density=density / norm)


def _moments(x: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Trapezoidal mean and variance of the density f on the grid x."""
    mean = float(_trapz(x * f, x))
    return mean, float(_trapz((x - mean) ** 2 * f, x))


@dataclass(frozen=True)
class PosteriorSummary:
    mean: float
    mode: float
    variance: float
    credible_halfwidth: float


def posterior_summaries(post: PosteriorDistribution) -> PosteriorSummary:
    """Trapezoidal mean and variance, the mode, and the credible half-width Delta
    that holds CREDIBLE_MASS symmetrically around the mean."""
    x, f = post.grid, post.density
    mean, var = _moments(x, f)
    mode = float(x[np.argmax(f)])

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
    # The mass within mean +- delta is piecewise linear in delta, with kinks where
    # mean +- delta meets a grid point (np.interp holds it constant past a border),
    # so it is exact at the kinks d and linear between them.
    d = np.concatenate([[0.0], np.sort(np.abs(x - mean))])
    mass = (np.interp(mean + d, x, cum) - np.interp(mean - d, x, cum)) / cum[-1]
    if mass[-1] < CREDIBLE_MASS:
        delta = float(d[-1])
    else:
        # the first kink that holds the mass, and the one before it, which does not;
        # mass[k] > mass[k - 1], so a flat stretch (zero density) is never divided by
        k = int(np.argmax(mass >= CREDIBLE_MASS))
        t = (CREDIBLE_MASS - mass[k - 1]) / (mass[k] - mass[k - 1])
        delta = float(d[k - 1] + t * (d[k] - d[k - 1]))
    return PosteriorSummary(mean=mean, mode=mode, variance=var, credible_halfwidth=delta)


class BorderSupportError(StatisticalFailure):
    """The posterior does not vanish at the domain borders."""


def bayes_variance_bound(post: PosteriorDistribution) -> float:
    """Lower bound 1/G on the posterior variance, G = int (dP/dphi)^2 / P dphi.

    Requires the posterior to vanish at the domain borders (checked against
    BORDER_TOL relative to the peak).  The derivative is a second-order
    finite difference on the grid; the resulting bound is verified against
    the posterior variance up to the relative grid tolerance GRID_RTOL.
    """
    x, f = post.grid, post.density
    peak = float(np.max(f))
    if f[0] > BORDER_TOL * peak or f[-1] > BORDER_TOL * peak:
        raise BorderSupportError(
            "posterior does not vanish at the domain borders; the variance "
            "bound's boundary conditions fail"
        )
    df = np.gradient(f, x)
    integrand = np.zeros_like(f)
    mask = f > P_FLOOR * peak
    integrand[mask] = df[mask] ** 2 / f[mask]
    g = float(_trapz(integrand, x))
    if g <= 0:
        raise StatisticalFailure("degenerate posterior: G evaluated to zero")
    bound = 1.0 / g
    _, var = _moments(x, f)
    if var < bound * (1.0 - GRID_RTOL) - 1e-15:
        raise AssertionError(
            f"posterior variance {var:.6e} fell below its bound {bound:.6e}; "
            "refine the grid"
        )
    return bound


@dataclass(frozen=True)
class BayesReport:
    """Monte-Carlo statistics of posterior means, variances, and G bounds."""

    theta_true: float
    m: int
    seed: int
    estimates: np.ndarray
    posterior_variances: np.ndarray
    g_values: np.ndarray
    crlb: float
    first_posterior: PosteriorDistribution

    @property
    def trials(self) -> int:
        return int(self.estimates.size)

    @property
    def mean_posterior_variance(self) -> float:
        return float(np.mean(self.posterior_variances))

    @property
    def bound_g2(self) -> float:
        """Monte-Carlo form of the averaged bound: 1 / mean(G)."""
        return 1.0 / float(np.mean(self.g_values))


def bayes_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                      seed: int, domain=DEFAULT_DOMAIN) -> BayesReport:
    """Sample, build the posterior, and collect means, variances and G over trials.

    The log-probability grid is built once and shared by every trial; the
    report keeps trial 0's posterior.
    """
    grid = np.linspace(*_interval(domain), BAYES_GRID)
    counts = _count_matrix(model, theta_true, m, trials, seed)
    logp_grid = _log_table(model, grid)
    estimates, variances, gs = np.empty((3, trials))
    for t, row in enumerate(counts):
        post = _normalised_posterior(grid, logp_grid @ row)
        if t == 0:
            first = post
        estimates[t], variances[t] = _moments(post.grid, post.density)
        gs[t] = 1.0 / bayes_variance_bound(post)
    return BayesReport(theta_true=float(theta_true), m=int(m), seed=int(seed),
                       estimates=estimates, posterior_variances=variances,
                       g_values=gs, crlb=_crlb(model, theta_true, m), first_posterior=first)


@dataclass(frozen=True)
class MomentsEstimate:
    theta: float
    variance_prediction: float
    sample_moment: float


class MomentOutOfRangeError(StatisticalFailure):
    """The sample moment falls outside the range of <M> over the domain."""


def _moments_refine(model, c, counts, domain):
    """Row-wise moment estimates of a (trials, outcomes) count matrix, and the
    predicted variances (Delta M)^2 / (m (d<M>/dphi)^2) at them.

    Checks once that <M>_phi is strictly monotone on MOMENTS_GRID points of the
    domain and that every sample moment lies in its range.  Safeguarded Newton
    with slope dP . c then refines each root from its grid cell until a step
    or the bracket is <= MOMENTS_TOL.
    """
    lo, hi = _interval(domain)
    m = counts.sum(axis=1)
    moments = counts @ c / m
    grid = np.linspace(lo, hi, MOMENTS_GRID)
    f_grid = model.probability_table(grid) @ c
    diffs = np.diff(f_grid)
    increasing = bool(np.all(diffs > 0))
    if not (increasing or np.all(diffs < 0)):
        raise DomainError("<M>_phi is not strictly monotone over the domain")
    low, high = sorted((float(f_grid[0]), float(f_grid[-1])))
    outside = np.flatnonzero((moments < low) | (moments > high))
    if outside.size:
        raise MomentOutOfRangeError(
            f"sample moment {moments[outside[0]]:.6g} outside the range "
            f"[{low:.6g}, {high:.6g}] of <M> over the domain"
        )
    # sign * (<M> - moment) increases; start on the chord of the grid cell holding its root
    sign = 1.0 if increasing else -1.0
    f_up, target = sign * f_grid, sign * moments
    cell = np.clip(f_up.searchsorted(target), 1, MOMENTS_GRID - 1)
    a, b = grid[cell - 1], grid[cell]
    est = a + (target - f_up[cell - 1]) / (f_up[cell] - f_up[cell - 1]) * (b - a)

    def residual(rows, x):
        p, dp = model._tables(x, 1)
        return sign * _vecdot(p, c) - target[rows], sign * _vecdot(dp, c)

    est = _newton(residual, est, a, b, MOMENTS_TOL, MOMENTS_TOL)
    var, slope = moment_statistics(c, *model._tables(est, 1))
    if np.any(np.abs(slope) < 1e-15):
        raise DomainError("d<M>/dphi vanishes at the estimate")
    return est, var / (m * slope**2)


def method_of_moments(model: ProbabilityModel, observable: np.ndarray, outcomes,
                      domain=DEFAULT_DOMAIN) -> MomentsEstimate:
    """Invert the sample mean of M through f(phi) = <M>_phi (safeguarded Newton).

    f must be strictly monotone over the domain (checked on a grid); the
    predicted variance is (Delta M)^2 / (m (df/dphi)^2) at the estimate.
    """
    c = povm_diagonal_coefficients(model.povm, observable)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if outcomes.size < 1:
        raise ValueError("method of moments needs at least one outcome")
    counts = np.bincount(outcomes, minlength=model.n_outcomes)[None, :]
    (est,), (prediction,) = _moments_refine(model, c, counts, domain)
    return MomentsEstimate(theta=float(est), variance_prediction=float(prediction),
                           sample_moment=float(counts[0] @ c / outcomes.size))


def moments_monte_carlo(model: ProbabilityModel, observable: np.ndarray,
                        theta_true: float, m: int, trials: int, seed: int,
                        domain=DEFAULT_DOMAIN) -> EstimationReport:
    """Moment estimates of every trial at once; the report's CRLB slot holds
    the error-propagation prediction evaluated at the true phase, and
    `variance_predictions` the prediction at each trial's estimate."""
    counts = _count_matrix(model, theta_true, m, trials, seed)
    c = povm_diagonal_coefficients(model.povm, observable)
    estimates, predictions = _moments_refine(model, c, counts, domain)
    var, slope = moment_statistics(c, *model._tables([theta_true], 1)[:, 0])
    return EstimationReport(
        estimator="moments", theta_true=float(theta_true), m=int(m), seed=int(seed),
        estimates=estimates, crlb=float(var / (m * slope**2)),
        variance_predictions=predictions,
    )


def kl_divergence(model: ProbabilityModel, theta: float, phi: float) -> float:
    """K(P_theta || P_phi) = sum_eps P(eps|theta) ln [P(eps|theta)/P(eps|phi)].

    Returns math.inf when P(.|phi) vanishes somewhere P(.|theta) does not.
    Non-negative, zero if and only if the distributions coincide.
    """
    p, q = model.probability_table([theta, phi])
    mask = p > P_FLOOR
    if np.any(q[mask] <= P_FLOOR):
        return math.inf
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(val, 0.0)


def crlb_saturation_residual(model: ProbabilityModel, theta: float,
                             estimator_values) -> float:
    """Diagnostic residual of the CRLB saturation condition at theta.

    For a single-measurement estimator eps -> Theta(eps), the CRLB is
    saturated iff dL/dtheta = lambda (Theta - <Theta>) for every outcome,
    lambda = F / d<Theta>/dtheta.  Returns max_eps of the absolute residual;
    zero means an efficient estimator at this phase.
    """
    values = np.asarray(estimator_values, dtype=float)
    if values.shape != (model.n_outcomes,):
        raise ValueError("need one estimator value per outcome")
    p, dp = model._tables([theta], 1)[:, 0]
    mask = p > P_FLOOR
    score = dp[mask] / p[mask]
    mean = float(values @ p)
    slope = float(values @ dp)
    if abs(slope) < 1e-15:
        raise ValueError("estimator is insensitive to theta at this point")
    fi = fisher_information(model, theta).fi
    lam = fi / slope
    return float(np.max(np.abs(score - lam * (values[mask] - mean))))
