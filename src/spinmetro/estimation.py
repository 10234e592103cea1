"""Sampling and phase estimation: maximum likelihood, Bayesian, method of moments.

Sampling is backed by the counter-based Philox generator: one 64-bit seed
keys the whole experiment and every Monte-Carlo trial gets its own counter
stream, so trials are reproducible and independently parallelisable without
sequence sharing.  All likelihood work happens in log space with per-sample
max subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import (P_FLOOR, ProbabilityModel, _vecdot, fisher_information,
                     moment_statistics, povm_diagonal_coefficients)

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: default estimation window for probes whose statistics are even in theta
DEFAULT_DOMAIN = (0.0, math.pi / 2)


class StatisticalFailure(RuntimeError):
    """A statistical run produced unusable output (not a configuration error)."""


class DomainError(ValueError):
    """The requested estimation domain violates a precondition."""


def _interval(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    return lo, hi


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator: `seed` keys it, `stream` offsets the counter.

    Stream k starts at counter k * 2**128, leaving every stream an
    astronomically long private block of the Philox sequence.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if stream < 0:
        raise ValueError("stream index must be non-negative")
    return np.random.Generator(np.random.Philox(key=int(seed), counter=int(stream) << 128))


@dataclass(frozen=True)
class OutcomeSample:
    """m i.i.d. outcome draws from a model at the true phase."""

    model: ProbabilityModel
    theta_true: float
    outcomes: np.ndarray
    seed: int
    stream: int = 0

    def __post_init__(self):
        out = np.asarray(self.outcomes, dtype=np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.model.n_outcomes):
            raise ValueError("sample contains outcome ids outside the model's POVM")
        out.setflags(write=False)
        object.__setattr__(self, "outcomes", out)

    @property
    def m(self) -> int:
        return int(self.outcomes.size)

    def counts(self) -> np.ndarray:
        return np.bincount(self.outcomes, minlength=self.model.n_outcomes)


def sample(model: ProbabilityModel, theta_true: float, m: int, seed: int,
           stream: int = 0, *, p_true: np.ndarray | None = None) -> OutcomeSample:
    """Draw m outcomes by inverse CDF over the outcome table; deterministic in seed.

    `p_true` is the row `model.probabilities(theta_true)` when the caller
    already holds it (a harness drawing every trial at one angle).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = model.probabilities(theta_true) if p_true is None else p_true
    cdf = np.cumsum(p)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against round-off
    u = philox_stream(seed, stream).random(m)
    outcomes = np.searchsorted(cdf, u, side="right")
    return OutcomeSample(model=model, theta_true=float(theta_true),
                         outcomes=outcomes, seed=int(seed), stream=int(stream))


def _log_table(model: ProbabilityModel, thetas, p_floor: float = P_FLOOR) -> np.ndarray:
    return np.log(np.clip(model.probability_table(thetas), p_floor, None))


def log_likelihood(model: ProbabilityModel, outcomes, phi, p_floor: float = P_FLOOR):
    """L(eps|phi) = sum_i ln P(eps_i|phi), probabilities floored at p_floor.

    `phi` may be a scalar or an array; the result matches its shape.
    """
    counts = np.bincount(np.asarray(outcomes, dtype=np.int64), minlength=model.n_outcomes)
    values = _log_table(model, phi, p_floor) @ counts
    return float(values[0]) if np.isscalar(phi) or np.ndim(phi) == 0 else values


@dataclass(frozen=True)
class MleEstimate:
    theta: float
    log_likelihood: float
    boundary: bool


#: trials per block of the grid stage, bounding its (trials x grid) scratch
_GRID_BLOCK = 256


def _mle_refine(model, counts, domain, grid_points, refine_tol):
    """Row-wise MLE of a (trials, outcomes) count matrix.

    The grid stage takes one product per block of trials.  Golden-section
    search then refines every trial at once, one table call per step over
    the trials whose bracket is still wider than `refine_tol`.  Returns the
    estimates and the boundary flags.
    """
    lo, hi = _interval(domain)
    grid = np.linspace(lo, hi, grid_points)
    logp_grid = _log_table(model, grid)
    best = np.concatenate([np.argmax(counts[i:i + _GRID_BLOCK] @ logp_grid.T, axis=1)
                           for i in range(0, len(counts), _GRID_BLOCK)])
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid_points - 1)]

    def objective(thetas, rows=slice(None)):
        return _vecdot(_log_table(model, thetas), counts[rows])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (rows := np.flatnonzero(b - a > refine_tol)).size:
        right = fc[rows] < fd[rows]
        up, down = rows[right], rows[~right]
        a[up], c[up], fc[up] = c[up], d[up], fd[up]
        b[down], d[down], fd[down] = d[down], c[down], fc[down]
        d[up] = a[up] + invphi * (b[up] - a[up])
        c[down] = b[down] - invphi * (b[down] - a[down])
        fresh = objective(np.where(right, d[rows], c[rows]), rows)
        fd[up], fc[down] = fresh[right], fresh[~right]
    est = 0.5 * (a + b)
    boundary = (est - lo < 2 * refine_tol) | (hi - est < 2 * refine_tol)
    return est, boundary


def mle(model: ProbabilityModel, outcomes, domain=DEFAULT_DOMAIN,
        grid_points: int = 512, refine_tol: float = 1e-7) -> MleEstimate:
    """Maximum-likelihood phase: coarse grid then golden-section refinement.

    The domain must be an interval on which the model is identifiable; a
    maximum on the domain boundary is flagged but still returned.
    """
    counts = np.bincount(np.asarray(outcomes, dtype=np.int64), minlength=model.n_outcomes)
    est, (boundary,) = _mle_refine(model, counts[None, :], domain, grid_points, refine_tol)
    (loglik,) = _vecdot(_log_table(model, est), counts)
    return MleEstimate(theta=float(est[0]), log_likelihood=float(loglik), boundary=bool(boundary))


@dataclass(frozen=True)
class EstimationReport:
    """Monte-Carlo trial statistics for one estimator."""

    estimator: str
    theta_true: float
    m: int
    seed: int
    estimates: np.ndarray
    crlb: float
    boundary_fraction: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)
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
    if trials < 1 or m < 1:
        raise ValueError("m and trials must both be >= 1")
    p_true = model.probabilities(theta_true)
    return np.array([sample(model, theta_true, m, seed, stream=t, p_true=p_true).counts()
                     for t in range(trials)])


def _crlb(model: ProbabilityModel, theta_true: float, m: int) -> float:
    fi = fisher_information(model, theta_true).fi
    return 1.0 / (m * fi) if fi > 0 else math.inf


def mle_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                    seed: int, domain=DEFAULT_DOMAIN, grid_points: int = 512,
                    refine_tol: float = 1e-7) -> EstimationReport:
    """MLE of every trial's counts at once; compare the spread with 1/(m F)."""
    counts = _count_matrix(model, theta_true, m, trials, seed)
    estimates, boundary = _mle_refine(model, counts, domain, grid_points, refine_tol)
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
    prior_tag: str = "flat"

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


def bayes_posterior(model: ProbabilityModel, outcomes, domain=DEFAULT_DOMAIN,
                    prior=None, grid_points: int = 2048) -> PosteriorDistribution:
    """Posterior P(phi|eps) on a grid: exp(L + ln prior - max), trapezoid-normalised.

    `prior` may be None (flat), a callable of the grid, or an array of
    densities; it must be non-negative and normalisable.  With no outcomes
    the posterior is the normalised prior.
    """
    grid, log_prior, tag = _posterior_grid(domain, prior, grid_points)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if outcomes.size:
        loglik = log_likelihood(model, outcomes, grid)
    else:
        loglik = np.zeros_like(grid)
    return _normalised_posterior(grid, loglik + log_prior, tag)


def _posterior_grid(domain, prior, grid_points: int):
    """The phase grid, the log prior on it (-inf where it vanishes), and its tag."""
    grid = np.linspace(*_interval(domain), grid_points)
    if prior is None:
        prior_values = np.ones_like(grid)
        tag = "flat"
    elif callable(prior):
        prior_values = np.asarray(prior(grid), dtype=float)
        tag = "callable"
    else:
        prior_values = np.asarray(prior, dtype=float)
        tag = "array"
    if prior_values.shape != grid.shape:
        raise ValueError("prior values must match the grid")
    if np.any(prior_values < 0) or not np.any(prior_values > 0):
        raise ValueError("prior must be non-negative and normalisable")
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior_values)
    return grid, log_prior, tag


def _normalised_posterior(grid, logpost, tag) -> PosteriorDistribution:
    peak = float(np.max(logpost))
    if not np.isfinite(peak):
        raise StatisticalFailure("posterior underflowed to zero everywhere")
    density = np.exp(logpost - peak)
    norm = float(_trapz(density, grid))
    if norm <= 0 or not np.isfinite(norm):
        raise StatisticalFailure("posterior could not be normalised")
    return PosteriorDistribution(grid=grid, density=density / norm, prior_tag=tag)


@dataclass(frozen=True)
class PosteriorSummary:
    mean: float
    mode: float
    variance: float
    credible_halfwidth: float
    credible_mass: float
    point_estimate: str


def posterior_summaries(post: PosteriorDistribution, point: str = "mean",
                        mass: float = 0.6827) -> PosteriorSummary:
    """Trapezoidal moments and the symmetric credible interval around the estimate.

    The variance is taken around the chosen point estimate ('mean' or 'map');
    the credible half-width Delta accumulates `mass` symmetrically around it.
    """
    x, f = post.grid, post.density
    mean = float(_trapz(x * f, x))
    mode = float(x[np.argmax(f)])
    centre = mean if point == "mean" else mode
    if point not in ("mean", "map"):
        raise ValueError("point must be 'mean' or 'map'")
    var = float(_trapz((x - centre) ** 2 * f, x))
    if not 0 < mass < 1:
        raise ValueError("credible mass must lie in (0, 1)")

    steps = np.diff(x)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * steps)])
    total = cum[-1]

    def contained(delta):
        hi_v = float(np.interp(min(centre + delta, x[-1]), x, cum))
        lo_v = float(np.interp(max(centre - delta, x[0]), x, cum))
        return (hi_v - lo_v) / total

    lo_d, hi_d = 0.0, float(max(centre - x[0], x[-1] - centre))
    if contained(hi_d) < mass:
        delta = hi_d
    else:
        for _ in range(200):
            mid = 0.5 * (lo_d + hi_d)
            if not lo_d < mid < hi_d:  # the bracket cannot shrink any further
                break
            if contained(mid) < mass:
                lo_d = mid
            else:
                hi_d = mid
        delta = 0.5 * (lo_d + hi_d)
    return PosteriorSummary(mean=mean, mode=mode, variance=var,
                            credible_halfwidth=delta, credible_mass=mass,
                            point_estimate=point)


class BorderSupportError(StatisticalFailure):
    """The posterior does not vanish at the domain borders."""


def bayes_variance_bound(post: PosteriorDistribution, border_tol: float = 1e-8,
                         grid_rtol: float = 1e-3) -> float:
    """Lower bound 1/G on the posterior variance, G = int (dP/dphi)^2 / P dphi.

    Requires the posterior to vanish at the domain borders (checked against
    `border_tol` relative to the peak).  The derivative is a second-order
    finite difference on the grid; the resulting bound is verified against
    the posterior variance up to a relative grid tolerance.
    """
    x, f = post.grid, post.density
    peak = float(np.max(f))
    if f[0] > border_tol * peak or f[-1] > border_tol * peak:
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
    var = float(_trapz((x - float(_trapz(x * f, x))) ** 2 * f, x))
    if var < bound * (1.0 - grid_rtol) - 1e-15:
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
                      seed: int, domain=DEFAULT_DOMAIN, prior=None,
                      grid_points: int = 2048) -> BayesReport:
    """Sample, build the posterior, and collect variances and G over trials.

    The log-probability grid is built once and shared by every trial; the
    report keeps trial 0's posterior.
    """
    grid, log_prior, tag = _posterior_grid(domain, prior, grid_points)
    counts = _count_matrix(model, theta_true, m, trials, seed)
    logp_grid = _log_table(model, grid)
    estimates, variances, gs = np.empty((3, trials))
    for t, row in enumerate(counts):
        post = _normalised_posterior(grid, logp_grid @ row + log_prior, tag)
        if t == 0:
            first = post
        summary = posterior_summaries(post)
        estimates[t] = summary.mean
        variances[t] = summary.variance
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


def _moments_refine(model, c, counts, domain, monotone_grid=256, tol=1e-12):
    """Row-wise moment estimates of a (trials, outcomes) count matrix, and the
    predicted variances (Delta M)^2 / (m (d<M>/dphi)^2) at them.

    Checks once that <M>_phi is strictly monotone on the domain and that every
    sample moment lies in its range, then bisects every trial at once.
    """
    lo, hi = _interval(domain)
    m = counts.sum(axis=1)
    moments = counts @ c / m
    f_grid = model.probability_table(np.linspace(lo, hi, monotone_grid)) @ c
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
    # left of the root <M> <= moment when <M> increases, and > moment when it decreases
    a, b = np.full(len(counts), lo), np.full(len(counts), hi)
    for _ in range(200):
        rows = np.flatnonzero(b - a > tol)
        if not rows.size:
            break
        mid = 0.5 * (a[rows] + b[rows])
        left_of_root = (_vecdot(model.probability_table(mid), c) <= moments[rows]) == increasing
        a[rows] = np.where(left_of_root, mid, a[rows])
        b[rows] = np.where(left_of_root, b[rows], mid)
    estimates = 0.5 * (a + b)
    var, slope = moment_statistics(c, model.probability_table(estimates),
                                   model.derivative_table(estimates))
    if np.any(np.abs(slope) < 1e-15):
        raise DomainError("d<M>/dphi vanishes at the estimate")
    return estimates, var / (m * slope**2)


def method_of_moments(model: ProbabilityModel, observable: np.ndarray, outcomes,
                      domain=DEFAULT_DOMAIN, monotone_grid: int = 256,
                      tol: float = 1e-12) -> MomentsEstimate:
    """Invert the sample mean of M through f(phi) = <M>_phi (bisection).

    f must be strictly monotone over the domain (checked on a grid); the
    predicted variance is (Delta M)^2 / (m (df/dphi)^2) at the estimate.
    """
    c = povm_diagonal_coefficients(model.povm, observable)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if outcomes.size < 1:
        raise ValueError("method of moments needs at least one outcome")
    counts = np.bincount(outcomes, minlength=model.n_outcomes)[None, :]
    (est,), (prediction,) = _moments_refine(model, c, counts, domain, monotone_grid, tol)
    return MomentsEstimate(theta=float(est), variance_prediction=float(prediction),
                           sample_moment=float(counts[0] @ c / outcomes.size))


def moments_monte_carlo(model: ProbabilityModel, observable: np.ndarray,
                        theta_true: float, m: int, trials: int, seed: int,
                        domain=DEFAULT_DOMAIN) -> EstimationReport:
    """Moment estimates of every trial at once; the report's CRLB slot holds
    the error-propagation prediction evaluated at the true phase."""
    counts = _count_matrix(model, theta_true, m, trials, seed)
    c = povm_diagonal_coefficients(model.povm, observable)
    estimates, predictions = _moments_refine(model, c, counts, domain)
    var, slope = moment_statistics(c, model.probabilities(theta_true),
                                   model.derivatives(theta_true))
    return EstimationReport(
        estimator="moments", theta_true=float(theta_true), m=int(m), seed=int(seed),
        estimates=estimates, crlb=float(var / (m * slope**2)),
        extra={"variance_predictions": predictions},
    )


def kl_divergence(model: ProbabilityModel, theta: float, phi: float,
                  p_floor: float = P_FLOOR) -> float:
    """K(P_theta || P_phi) = sum_eps P(eps|theta) ln [P(eps|theta)/P(eps|phi)].

    Returns math.inf when P(.|phi) vanishes somewhere P(.|theta) does not.
    Non-negative, zero if and only if the distributions coincide.
    """
    p = model.probabilities(theta)
    q = model.probabilities(phi)
    mask = p > p_floor
    if np.any(q[mask] <= p_floor):
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
    p = model.probabilities(theta)
    dp = model.derivatives(theta)
    mask = p > P_FLOOR
    score = dp[mask] / p[mask]
    mean = float(values @ p)
    slope = float(values @ dp)
    if abs(slope) < 1e-15:
        raise ValueError("estimator is insensitive to theta at this point")
    fi = fisher_information(model, theta).fi
    lam = fi / slope
    return float(np.max(np.abs(score - lam * (values[mask] - mean))))
