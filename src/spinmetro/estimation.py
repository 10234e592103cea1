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

from .fisher import P_FLOOR, ProbabilityModel, fisher_information, povm_diagonal_coefficients

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: default estimation window for probes whose statistics are even in theta
DEFAULT_DOMAIN = (0.0, math.pi / 2)


class StatisticalFailure(RuntimeError):
    """A statistical run produced unusable output (not a configuration error)."""


class DomainError(ValueError):
    """The requested estimation domain violates a precondition."""


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
           stream: int = 0) -> OutcomeSample:
    """Draw m outcomes by inverse CDF over the outcome table; deterministic in seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = model.probabilities(theta_true)
    cdf = np.cumsum(p)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against round-off
    u = philox_stream(seed, stream).random(m)
    outcomes = np.searchsorted(cdf, u, side="right")
    return OutcomeSample(model=model, theta_true=float(theta_true),
                         outcomes=outcomes, seed=int(seed), stream=int(stream))


def log_likelihood(model: ProbabilityModel, outcomes, phi, p_floor: float = P_FLOOR):
    """L(eps|phi) = sum_i ln P(eps_i|phi), probabilities floored at p_floor.

    `phi` may be a scalar or an array; the result matches its shape.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    counts = np.bincount(outcomes, minlength=model.n_outcomes)
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    logp = np.log(np.clip(model.probability_table(phis), p_floor, None))
    values = logp @ counts
    return float(values[0]) if np.isscalar(phi) or np.ndim(phi) == 0 else values


@dataclass(frozen=True)
class MleEstimate:
    theta: float
    log_likelihood: float
    boundary: bool


def _golden_max(f, a: float, b: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _mle_from_counts(model, counts, domain, grid, logp_grid, refine_tol):
    values = logp_grid @ counts
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    def objective(phi):
        return float(np.log(np.clip(model.probabilities(phi), P_FLOOR, None)) @ counts)

    est = _golden_max(objective, lo, hi, refine_tol)
    boundary = est - domain[0] < 2 * refine_tol or domain[1] - est < 2 * refine_tol
    return MleEstimate(theta=float(est), log_likelihood=objective(est), boundary=boundary)


def mle(model: ProbabilityModel, outcomes, domain=DEFAULT_DOMAIN,
        grid_points: int = 512, refine_tol: float = 1e-7) -> MleEstimate:
    """Maximum-likelihood phase: coarse grid then golden-section refinement.

    The domain must be an interval on which the model is identifiable; a
    maximum on the domain boundary is flagged but still returned.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    outcomes = np.asarray(outcomes, dtype=np.int64)
    counts = np.bincount(outcomes, minlength=model.n_outcomes)
    grid = np.linspace(lo, hi, grid_points)
    logp_grid = np.log(np.clip(model.probability_table(grid), P_FLOOR, None))
    return _mle_from_counts(model, counts, (lo, hi), grid, logp_grid, refine_tol)


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


def mle_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                    seed: int, domain=DEFAULT_DOMAIN, grid_points: int = 512,
                    refine_tol: float = 1e-7) -> EstimationReport:
    """Repeat (sample, mle) over independent streams; compare with 1/(m F)."""
    if trials < 1 or m < 1:
        raise ValueError("m and trials must both be >= 1")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    grid = np.linspace(lo, hi, grid_points)
    logp_grid = np.log(np.clip(model.probability_table(grid), P_FLOOR, None))
    estimates = np.empty(trials)
    boundary = 0
    for t in range(trials):
        draw = sample(model, theta_true, m, seed, stream=t)
        est = _mle_from_counts(model, draw.counts(), (lo, hi), grid, logp_grid, refine_tol)
        estimates[t] = est.theta
        boundary += est.boundary
    fi = fisher_information(model, theta_true).fi
    crlb = 1.0 / (m * fi) if fi > 0 else math.inf
    return EstimationReport(
        estimator="mle", theta_true=float(theta_true), m=int(m), seed=int(seed),
        estimates=estimates, crlb=crlb, boundary_fraction=boundary / trials,
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
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    grid = np.linspace(lo, hi, grid_points)
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
            if contained(mid) < mass:
                lo_d = mid
            else:
                hi_d = mid
        delta = 0.5 * (lo_d + hi_d)
    return PosteriorSummary(mean=mean, mode=mode, variance=var,
                            credible_halfwidth=delta, credible_mass=mass,
                            point_estimate=point)


class BorderSupportError(ValueError):
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
    var = posterior_summaries(post).variance
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
    if trials < 1 or m < 1:
        raise ValueError("m and trials must both be >= 1")
    grid, log_prior, tag = _posterior_grid(domain, prior, grid_points)
    logp_grid = np.log(np.clip(model.probability_table(grid), P_FLOOR, None))
    estimates = np.empty(trials)
    variances = np.empty(trials)
    gs = np.empty(trials)
    for t in range(trials):
        draw = sample(model, theta_true, m, seed, stream=t)
        post = _normalised_posterior(grid, logp_grid @ draw.counts() + log_prior, tag)
        if t == 0:
            first = post
        summary = posterior_summaries(post)
        estimates[t] = summary.mean
        variances[t] = summary.variance
        gs[t] = 1.0 / bayes_variance_bound(post)
    fi = fisher_information(model, theta_true).fi
    crlb = 1.0 / (m * fi) if fi > 0 else math.inf
    return BayesReport(theta_true=float(theta_true), m=int(m), seed=int(seed),
                       estimates=estimates, posterior_variances=variances,
                       g_values=gs, crlb=crlb, first_posterior=first)


@dataclass(frozen=True)
class MomentsEstimate:
    theta: float
    variance_prediction: float
    sample_moment: float


class MomentOutOfRangeError(StatisticalFailure):
    """The sample moment falls outside the range of <M> over the domain."""


def method_of_moments(model: ProbabilityModel, observable: np.ndarray, outcomes,
                      domain=DEFAULT_DOMAIN, monotone_grid: int = 256,
                      tol: float = 1e-12) -> MomentsEstimate:
    """Invert the sample mean of M through f(phi) = <M>_phi (bisection).

    f must be strictly monotone over the domain (checked on a grid); the
    predicted variance is (Delta M)^2 / (m (df/dphi)^2) at the estimate.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is empty")
    c = povm_diagonal_coefficients(model.povm, observable)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if outcomes.size < 1:
        raise ValueError("method of moments needs at least one outcome")
    m = outcomes.size
    sample_moment = float(np.mean(c[outcomes]))

    grid = np.linspace(lo, hi, monotone_grid)
    f_grid = model.probability_table(grid) @ c
    diffs = np.diff(f_grid)
    if np.all(diffs > 0):
        increasing = True
    elif np.all(diffs < 0):
        increasing = False
    else:
        raise DomainError("<M>_phi is not strictly monotone over the domain")

    f_lo, f_hi = float(f_grid[0]), float(f_grid[-1])
    low, high = (f_lo, f_hi) if increasing else (f_hi, f_lo)
    if not low <= sample_moment <= high:
        raise MomentOutOfRangeError(
            f"sample moment {sample_moment:.6g} outside the range "
            f"[{low:.6g}, {high:.6g}] of <M> over the domain"
        )

    def f(phi):
        return float(model.probabilities(phi) @ c)

    a, b = lo, hi
    fa = f(a) - sample_moment
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        fm = f(mid) - sample_moment
        if (fa <= 0) == (fm <= 0):
            a, fa = mid, fm
        else:
            b = mid
    estimate = 0.5 * (a + b)

    p = model.probabilities(estimate)
    dp = model.derivatives(estimate)
    mean = float(c @ p)
    var = float((c - mean) ** 2 @ p)
    slope = float(c @ dp)
    if abs(slope) < 1e-15:
        raise DomainError("d<M>/dphi vanishes at the estimate")
    prediction = var / (m * slope**2)
    return MomentsEstimate(theta=float(estimate), variance_prediction=prediction,
                           sample_moment=sample_moment)


def moments_monte_carlo(model: ProbabilityModel, observable: np.ndarray,
                        theta_true: float, m: int, trials: int, seed: int,
                        domain=DEFAULT_DOMAIN) -> EstimationReport:
    """Monte-Carlo harness for the moment estimator; the report's CRLB slot
    holds the error-propagation prediction evaluated at the true phase."""
    if trials < 1 or m < 1:
        raise ValueError("m and trials must both be >= 1")
    estimates = np.empty(trials)
    predictions = np.empty(trials)
    for t in range(trials):
        draw = sample(model, theta_true, m, seed, stream=t)
        est = method_of_moments(model, observable, draw.outcomes, domain=domain)
        estimates[t] = est.theta
        predictions[t] = est.variance_prediction
    c = povm_diagonal_coefficients(model.povm, observable)
    p = model.probabilities(theta_true)
    dp = model.derivatives(theta_true)
    mean = float(c @ p)
    var = float((c - mean) ** 2 @ p)
    slope = float(c @ dp)
    prediction_true = var / (m * slope**2)
    return EstimationReport(
        estimator="moments", theta_true=float(theta_true), m=int(m), seed=int(seed),
        estimates=estimates, crlb=prediction_true,
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
