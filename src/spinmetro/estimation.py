"""Sampling and phase estimation: maximum likelihood, Bayesian, method of moments.

Sampling is backed by the counter-based Philox generator: one 64-bit seed
keys the whole experiment and every Monte-Carlo trial gets its own counter
stream, so trials are reproducible and independently parallelisable without
sequence sharing.  Each harness makes one `sample(..., trials=T)` call: it
keys one Philox bit generator, rewinds it to the start of each trial's
stream, and counts every trial's draws against one CDF of P(theta_true) in
blocks, without mapping each draw to its outcome.  The harness then refines
or builds every trial's estimate or posterior as rows of one array.  All
likelihood work happens in log space with per-sample max subtraction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fisher import (P_FLOOR, ProbabilityModel, _vecdot, fisher_information,
                     povm_diagonal_coefficients, spin_moments)
from .linalg import NumericalError

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: default estimation window for probes whose statistics are even in theta
DEFAULT_DOMAIN = (0.0, math.pi / 2)
#: MLE: at least this many grid points, then Newton until the bracket is this narrow
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
        self._rewind(_index(stream, "stream", 0, 2**128))
        return self._generator

    def fill(self, first: int, out: np.ndarray) -> None:
        """Row r of the float array `out` <- the first draws of stream first + r;
        the caller checks that every stream lies in [0, 2**128)."""
        for r, row in enumerate(out):
            self._rewind(first + r)
            self._generator.random(out=row)

    def _rewind(self, stream: int) -> None:
        state = self._state
        state["state"]["counter"] = [0, 0, stream & (2**64 - 1), stream >> 64]
        state["buffer_pos"], state["has_uint32"], state["uinteger"] = 4, 0, 0
        self._bitgen.state = state


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator: `seed` keys it, `stream` offsets the counter.

    Stream k starts at counter k * 2**128, leaving every stream an
    astronomically long private block of the Philox sequence.  `seed` must be
    an integer in [0, 2**64) and `stream` one in [0, 2**128).
    """
    return _PhiloxStreams(seed).at(stream)


#: trials per block of the batched count, the MLE grid stage and Newton's steps, at
#: every N (any block <= 1024 keeps the count's r * 2**53 key shifts below 2**63).
#: On 2 cores an order-2 pass over 1000 angles at N = 20 took 2.0 ms whole and
#: 1.2-1.5 ms in blocks of 256 or 390
_TRIAL_BLOCK = 256
#: draws per block of the batched count: counting 256 trials of m = 10**5 peaked at
#: 2.3 MiB with it and at 391 MiB as one block
_DRAW_BLOCK = 2**17
#: a double from `Generator.random` is k / 2**53 for an integer 0 <= k < 2**53
_KEY_SCALE = 2.0**53


def _count_draws(streams: _PhiloxStreams, cdf: np.ndarray, m: int, first: int,
                 trials: int) -> np.ndarray:
    """(trials, outcomes) counts: row t is the bincount of cdf.searchsorted(u,
    "right") over the m draws u of stream first + t.

    A draw u = k / 2**53 lies below an edge c exactly when k < ceil(c 2**53), so
    sorting each row's keys k and searching for the edges counts the draws below
    every edge.  Row r's keys and edges are shifted by r 2**53, which keeps the
    rows of a block apart, so one search serves the block.
    """
    edges = np.minimum(np.ceil(cdf * _KEY_SCALE), _KEY_SCALE).astype(np.int64)
    rows = min(trials, _TRIAL_BLOCK, max(1, _DRAW_BLOCK // m))
    draws = np.empty((rows, m))
    keys = draws.view(np.int64)  # each row's keys overwrite its draws
    shift = np.arange(rows, dtype=np.int64)[:, None] << 53
    counts = np.empty((trials, cdf.size), dtype=np.int64)
    for start in range(0, trials, rows):
        b = min(rows, trials - start)
        streams.fill(first + start, draws[:b])
        block = keys[:b]
        np.multiply(draws[:b], _KEY_SCALE, out=block, casting="unsafe")
        block.sort(axis=1)
        block += shift[:b]
        below = block.ravel().searchsorted(edges + shift[:b])
        counts[start:start + b] = np.diff(below, axis=1, prepend=m * np.arange(b)[:, None])
    return counts


def sample(model: ProbabilityModel, theta_true: float, m: int, seed: int,
           stream: int = 0, *, trials: int = 1) -> np.ndarray:
    """(trials, outcomes) counts of m draws by inverse CDF over the outcome table,
    row t from Philox stream `stream + t`, all from one P(theta_true)."""
    m = _index(m, "m", 1)
    stream = _index(stream, "stream", 0, 2**128)
    trials = _index(trials, "trials", 1)
    _index(stream + trials - 1, "last stream", 0, 2**128)
    cdf = np.cumsum(model.probabilities(theta_true))
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against round-off
    return _count_draws(_PhiloxStreams(seed), cdf, m, stream, trials)


def _count_row(model: ProbabilityModel, counts, least: int = 0) -> np.ndarray:
    """`counts` as one row of int64 outcome counts, checked: length n_outcomes, an
    integer dtype, entries >= 0 and a total of at least `least`."""
    row = np.asarray(counts)
    if row.shape != (model.n_outcomes,):
        raise ValueError(f"counts must be one row of {model.n_outcomes} outcome counts, "
                         f"got shape {row.shape}")
    if row.dtype.kind not in "iu":
        raise ValueError(f"counts must have an integer dtype, got {row.dtype}")
    row = row.astype(np.int64)
    if np.any(row < 0):
        raise ValueError("counts must be >= 0")
    if row.sum() < least:
        raise ValueError(f"counts must total at least {least}, got {row.sum()}")
    return row


def _log_table(model: ProbabilityModel, thetas) -> np.ndarray:
    table = model.probability_table(thetas)  # in place: an N = 4096 MLE grid holds 256 MB
    return np.log(np.clip(table, P_FLOOR, None, out=table), out=table)


def log_likelihood(model: ProbabilityModel, counts, phi):
    """L(n|phi) = sum_k n_k ln P(k|phi) of one count row, P floored at P_FLOOR.

    `phi` may be a scalar or an array; the result matches its shape.
    """
    values = _log_table(model, phi) @ _count_row(model, counts)
    return float(values[0]) if np.isscalar(phi) or np.ndim(phi) == 0 else values


@dataclass(frozen=True)
class MleEstimate:
    theta: float
    boundary: bool


#: Newton steps before a refinement gives up (bisection alone needs far fewer)
_NEWTON_STEPS = 64


def _newton(g, x, a, b, step_tol, width_tol):
    """Row-wise roots of increasing functions in brackets [a, b], from x, in place.

    `g(rows, x)` gives the values and slopes of the functions `rows` at x, for
    the rows still open.  Each value's sign moves its bracket to x and an exact
    zero keeps x; a step outside the bracket (inclusive) or a slope <= 0 bisects
    it.  A row stops once its step is <= step_tol or its bracket <= width_tol.
    """
    rows = np.arange(x.size)
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
            return x
    raise StatisticalFailure(
        f"{rows.size} trials did not converge in {_NEWTON_STEPS} Newton steps")


def _mle_refine(model, counts, domain):
    """Row-wise MLE of a (trials, outcomes) count matrix, and the boundary flags.

    Every P_k is a trigonometric polynomial of degree <= N in phi, so no
    feature is narrower than about pi/N: the grid takes max(MLE_GRID,
    ceil(4 N |domain| / pi)) points, four per pi/N.  Block by block of _TRIAL_BLOCK
    trials, one product gives the grid stage, and from each trial's best grid point
    safeguarded Newton on the score S = sum n P'/P in [best - 1, best + 1], with
    S' = sum n (P''/P - (P'/P)^2) and no term from outcomes with P <= P_FLOOR,
    stops once a step is <= 1e-10 or the bracket <= MLE_TOL.
    """
    lo, hi = _interval(domain)
    points = max(MLE_GRID, math.ceil(4 * model.space.n_particles * (hi - lo) / math.pi))
    grid = np.linspace(lo, hi, points)
    logp_grid = _log_table(model, grid)

    def minus_score(rows, x):  # rows of the block being refined
        p, dp, d2p = model._tables(x, 2)
        inv = np.divide(1.0, p, out=np.zeros_like(p), where=p > P_FLOOR)
        ratio, n = dp * inv, block[rows]
        return -_vecdot(ratio, n), _vecdot(ratio ** 2 - d2p * inv, n)

    est = np.empty(len(counts))
    for start in range(0, len(counts), _TRIAL_BLOCK):
        block = counts[start:start + _TRIAL_BLOCK]
        best = np.argmax(block @ logp_grid.T, axis=1)
        est[start:start + _TRIAL_BLOCK] = _newton(
            minus_score, grid[best], grid[np.maximum(best - 1, 0)],
            grid[np.minimum(best + 1, points - 1)], 1e-10, MLE_TOL)
    boundary = (est - lo < 2 * MLE_TOL) | (hi - est < 2 * MLE_TOL)
    return est, boundary


def mle(model: ProbabilityModel, counts, domain=DEFAULT_DOMAIN) -> MleEstimate:
    """Maximum-likelihood phase of one count row (total >= 1): coarse grid, then
    safeguarded Newton on the score.

    The domain must be an interval on which the model is identifiable; a
    maximum on the domain boundary is flagged but still returned.
    """
    counts = _count_row(model, counts, 1)
    (est,), (boundary,) = _mle_refine(model, counts[None, :], domain)
    return MleEstimate(theta=float(est), boundary=bool(boundary))


@dataclass(frozen=True)
class EstimationReport:
    """Monte-Carlo trial statistics for one estimator; the moment harness also
    keeps each trial's predicted variance."""

    theta_true: float
    m: int
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


def _crlb(model: ProbabilityModel, theta_true: float, m: int) -> float:
    fi = fisher_information(model, theta_true).fi
    return 1.0 / (m * fi) if fi > 0 else math.inf


def mle_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                    seed: int, domain=DEFAULT_DOMAIN) -> EstimationReport:
    """MLE of every trial's counts at once; compare the spread with 1/(m F)."""
    counts = sample(model, theta_true, m, seed, trials=trials)
    estimates, boundary = _mle_refine(model, counts, domain)
    return EstimationReport(
        theta_true=float(theta_true), m=int(m), estimates=estimates,
        crlb=_crlb(model, theta_true, m),
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


#: trials per block of the Bayes harness, 16 posteriors of BAYES_GRID points: blocks
#: of 256 raised `mc-small-n` peak RSS by 0.7 MB
_BAYES_BLOCK = 2**15 // BAYES_GRID


def _raise_first(failures) -> None:
    """Raise, for the lowest failing row, the error of the first check it fails.

    `failures` lists (row mask, row -> exception) in check order, so a block of
    rows fails as the rows would one after another.
    """
    failed = np.logical_or.reduce([mask for mask, _ in failures])
    if failed.any():
        row = int(np.argmax(failed))
        raise next(error(row) for mask, error in failures if mask[row])


def _log_likelihoods(logp_grid: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(rows, grid) log-likelihoods of a (rows, outcomes) count matrix.

    One stacked product of one vector per row, so a row's values do not depend
    on the rows beside it: a BLAS matrix product sums in an order that does,
    and trial 0 of a harness must match its one-row `bayes_posterior`.
    """
    return np.matmul(counts[:, None, :], logp_grid.T)[:, 0]


def _normalised(grid: np.ndarray, logpost: np.ndarray):
    """Row-wise densities exp(L - max L), trapezoid-normalised, of a (rows, grid)
    block of log-posteriors, and the failures of each row in check order."""
    with np.errstate(all="ignore"):  # a failing row's inf or nan is reported below
        peak = np.max(logpost, axis=1)
        density = np.exp(logpost - peak[:, None])
        norm = _trapz(density, grid, axis=1)
        density /= norm[:, None]
    return density, [
        (~np.isfinite(peak),
         lambda r: StatisticalFailure("posterior underflowed to zero everywhere")),
        (~((norm > 0) & np.isfinite(norm)),
         lambda r: StatisticalFailure("posterior could not be normalised")),
    ]


def _moments(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise trapezoidal means and variances of the (rows, grid) densities f."""
    mean = _trapz(x * f, x, axis=1)
    return mean, _trapz((x - mean[:, None]) ** 2 * f, x, axis=1)


def bayes_posterior(model: ProbabilityModel, counts,
                    domain=DEFAULT_DOMAIN) -> PosteriorDistribution:
    """Flat-prior posterior P(phi|n) of one count row on BAYES_GRID points:
    exp(L - max), trapezoid-normalised.  The all-zero row gives the flat prior."""
    grid = np.linspace(*_interval(domain), BAYES_GRID)
    counts = _count_row(model, counts)
    density, failures = _normalised(grid, _log_likelihoods(_log_table(model, grid),
                                                           counts[None, :]))
    _raise_first(failures)
    return PosteriorDistribution(grid=grid, density=density[0])


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
    (mean,), (var,) = _moments(x, f[None, :])
    mean, var = float(mean), float(var)
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


def _variance_bounds(x: np.ndarray, f: np.ndarray):
    """Row-wise means, variances and variance bounds 1/G of the normalised
    (rows, grid) densities f, and the failures of each row in check order."""
    with np.errstate(all="ignore"):  # a failing row's inf or nan is reported below
        mean, var = _moments(x, f)
        peak = np.max(f, axis=1)
        df = np.gradient(f, x, axis=1)
        integrand = np.divide(df ** 2, f, out=np.zeros_like(f),
                              where=f > P_FLOOR * peak[:, None])
        g = _trapz(integrand, x, axis=1)
        bound = 1.0 / g
    return mean, var, bound, [
        ((f[:, 0] > BORDER_TOL * peak) | (f[:, -1] > BORDER_TOL * peak),
         lambda r: BorderSupportError(
             "posterior does not vanish at the domain borders; the variance "
             "bound's boundary conditions fail")),
        (g <= 0, lambda r: StatisticalFailure("degenerate posterior: G evaluated to zero")),
        (var < bound * (1.0 - GRID_RTOL) - 1e-15,
         lambda r: NumericalError(
             f"posterior variance {var[r]:.6e} fell below its bound {bound[r]:.6e}; "
             "refine the grid")),
    ]


def bayes_variance_bound(post: PosteriorDistribution) -> float:
    """Lower bound 1/G on the posterior variance, G = int (dP/dphi)^2 / P dphi.

    Requires the posterior to vanish at the domain borders (checked against
    BORDER_TOL relative to the peak).  The derivative is a second-order
    finite difference on the grid; the resulting bound is verified against
    the posterior variance up to the relative grid tolerance GRID_RTOL, and a
    variance below it raises NumericalError (the grid does not resolve it).
    """
    _, _, (bound,), failures = _variance_bounds(post.grid, post.density[None, :])
    _raise_first(failures)
    return float(bound)


@dataclass(frozen=True)
class BayesReport:
    """Monte-Carlo statistics of posterior means, variances, and G bounds."""

    theta_true: float
    m: int
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
    """Sample, build the posteriors, and collect means, variances and G over trials.

    The log-probability grid is built once and shared by every trial; each
    block of _BAYES_BLOCK trials is one (block, BAYES_GRID) array of
    posteriors, and a failing block raises what its first failing trial
    would.  The report keeps trial 0's posterior.
    """
    grid = np.linspace(*_interval(domain), BAYES_GRID)
    counts = sample(model, theta_true, m, seed, trials=trials)
    logp_grid = _log_table(model, grid)
    estimates, variances, bounds = np.empty((3, len(counts)))
    for start in range(0, len(counts), _BAYES_BLOCK):
        block = slice(start, start + _BAYES_BLOCK)
        density, failures = _normalised(grid, _log_likelihoods(logp_grid, counts[block]))
        estimates[block], variances[block], bounds[block], more = _variance_bounds(grid,
                                                                                   density)
        _raise_first(failures + more)
        if start == 0:
            first = PosteriorDistribution(grid=grid, density=density[0])
    return BayesReport(theta_true=float(theta_true), m=int(m), estimates=estimates,
                       posterior_variances=variances, g_values=1.0 / bounds,
                       crlb=_crlb(model, theta_true, m), first_posterior=first)


@dataclass(frozen=True)
class MomentsEstimate:
    theta: float
    variance_prediction: float
    sample_moment: float


class MomentOutOfRangeError(StatisticalFailure):
    """The sample moment falls outside the range of <J_z> over the domain."""


def _jz_moments(model, counts, domain):
    """Row-wise J_z sample moments of a (trials, outcomes) count matrix, their
    estimates, and phi -> (Delta J_z)^2 / (d<J_z>/dphi)^2, in closed form.

    The mean spin rotates rigidly: U^dag J_z U = v . J, v = z - sin(phi) n x z +
    (1 - cos(phi)) n x (n x z), so <J_z>_phi = v . <J> = a0 + R cos(phi - phi0),
    (Delta J_z)^2_phi = v^T Sigma v and the slope is -R sin(phi - phi0).  Parts of
    <J>, and an R, within its rounding bound dim eps j count as 0.
    """
    c = povm_diagonal_coefficients(model.povm, model.space.mu)
    lo, hi = _interval(domain)
    moments = _vecdot(counts, c) / counts.sum(axis=1)
    spin = spin_moments(model.probe)
    bound = model.space.dim * np.finfo(float).eps * model.space.j
    means = np.where(np.abs(spin.means) > bound, spin.means, 0.0)
    z = np.array([0.0, 0.0, 1.0])
    nxz = np.cross(model.axis.as_array(), z)
    nxnxz = np.cross(model.axis.as_array(), nxz)
    a0, a_cos, a_sin = (z + nxnxz) @ means, -nxnxz @ means, -nxz @ means
    r, phi0 = math.hypot(a_cos, a_sin), math.atan2(a_sin, a_cos)

    def v(phi):
        return z - np.sin(phi)[:, None] * nxz + (1.0 - np.cos(phi))[:, None] * nxnxz

    def spread(phi):
        rows = v(phi)
        return _vecdot(rows @ spin.covariance, rows) / (r * np.sin(phi - phi0)) ** 2

    if r <= bound:
        raise DomainError("<J_z>_phi does not depend on phi: no mean spin turns through z")
    k = math.floor((0.5 * (lo + hi) - phi0) / math.pi)
    base = phi0 + k * math.pi
    if lo < base or base + math.pi < hi:
        raise DomainError("<J_z>_phi is not strictly monotone over the domain")
    low, high = sorted(v(np.array([lo, hi])) @ means)
    outside = np.flatnonzero((moments < low) | (moments > high))
    if outside.size:
        raise MomentOutOfRangeError(f"sample moment {moments[outside[0]]:.17g} outside the "
                                    f"range [{low:.17g}, {high:.17g}] of <M> over the domain")
    # the arccos branch of the domain's half-period; at an extreme value a0 +- R the
    # slope vanishes, and within the rounding bound of one it is round-off
    cosine = (-1) ** k * (moments - a0) / r
    if np.any(1.0 - np.abs(cosine) <= bound / r):
        raise StatisticalFailure("d<J_z>/dphi vanishes at the estimate, an extreme of <J_z>")
    return moments, np.clip(base + np.arccos(cosine), lo, hi), spread


def method_of_moments(model: ProbabilityModel, counts,
                      domain=DEFAULT_DOMAIN) -> MomentsEstimate:
    """Invert the sample mean of J_z of one count row (total m >= 1) through
    f(phi) = <J_z>_phi, in closed form.

    f must be strictly monotone over the domain and the POVM must diagonalise
    J_z; the predicted variance is (Delta J_z)^2 / (m (df/dphi)^2) at the estimate.
    """
    counts = _count_row(model, counts, 1)
    (moment,), est, spread = _jz_moments(model, counts[None, :], domain)
    return MomentsEstimate(theta=float(est[0]), sample_moment=float(moment),
                           variance_prediction=float(spread(est)[0] / counts.sum()))


def moments_monte_carlo(model: ProbabilityModel, theta_true: float, m: int, trials: int,
                        seed: int, domain=DEFAULT_DOMAIN) -> EstimationReport:
    """Moment estimates of every trial at once; the report's CRLB slot holds
    the error-propagation prediction evaluated at the true phase, and
    `variance_predictions` the prediction at each trial's estimate."""
    counts = sample(model, theta_true, m, seed, trials=trials)
    _, estimates, spread = _jz_moments(model, counts, domain)
    return EstimationReport(
        theta_true=float(theta_true), m=int(m), estimates=estimates,
        crlb=float(spread(np.array([float(theta_true)]))[0] / m),
        variance_predictions=spread(estimates) / m,
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
