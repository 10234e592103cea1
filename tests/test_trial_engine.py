"""The batched trial engine against the single-sample estimators.

Each Monte-Carlo harness draws one count matrix in one `sample(...,
trials=T)` call (row t from Philox stream t) and refines every trial at
once; trial t must agree with the single-sample estimator run on the count
row `sample(..., stream=t)[0]`, with an independent scalar search run one trial at
a time (golden section for the MLE, where the engine runs safeguarded
Newton; bisection over the probability table for the moments, which the
engine takes in closed form from the probe's spin moments), and with the
closed-form estimates of the coherent probe.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmetro import estimation
from spinmetro.entanglement import squeezing
from spinmetro.estimation import (BorderSupportError, DomainError, MomentOutOfRangeError,
                                  StatisticalFailure,
                                  bayes_monte_carlo, bayes_posterior,
                                  bayes_variance_bound, method_of_moments, mle,
                                  mle_monte_carlo, moments_monte_carlo, philox_stream,
                                  posterior_summaries, sample)
from spinmetro.fisher import (P_FLOOR, Povm, ProbabilityModel, povm_diagonal_coefficients,
                              povm_number_counting, povm_probe_projection)
from spinmetro.spins import SpinSpace
from spinmetro.states import coherent_spin, mix, noon, twin_fock

N = 8
TRIALS = 12
SEED = 2024


def _css():
    space = SpinSpace(N)
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                             povm_number_counting(space))
    return model, 0.6, (0.1, 1.4), 200


def _twin_fock():
    space = SpinSpace(N)
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    return model, 0.7, (0.1, 1.4), 200


def _mixture():
    space = SpinSpace(N)
    probe = mix([(0.5, noon(space)), (0.5, twin_fock(space))])
    model = ProbabilityModel(probe, "y", povm_number_counting(space))
    return model, 0.7, (0.1, 1.4), 2000


def _noon_projection():
    # P(probe) = cos^2(N theta / 2) decreases on (0, pi/N)
    space = SpinSpace(N)
    probe = noon(space)
    model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
    return model, 0.5 * math.pi / N, (0.0, math.pi / N), 200


def _oblique_css():
    # <J_z>_phi = a0 + R cos(phi - phi0) turns at phi0 = -1.445 and phi0 + pi = 1.697
    space = SpinSpace(N)
    model = ProbabilityModel(coherent_spin(space, 1.1, 0.4), (0.3, 0.8, 0.5),
                             povm_number_counting(space))
    return model, 0.4, (-1.3, 1.5), 200


def _css_second_branch():
    # <J_z> = -j sin(phi) rises between its turning points pi/2 and 3 pi/2
    model, _, _, m = _css()
    return model, 2.3, (1.7, 3.0), m


def _css_mixture():
    space = SpinSpace(N)
    probe = mix([(0.5, coherent_spin(space, math.pi / 2)),
                 (0.5, coherent_spin(space, 1.2, 0.7))])
    model = ProbabilityModel(probe, "y", povm_number_counting(space))
    return model, 0.6, (0.1, 1.4), 200


def _css_dicke_povm():
    # counting as a dense POVM, its Dicke projectors listed from mu = +j down
    space = SpinSpace(N)
    basis = np.eye(space.dim)[::-1]
    povm = Povm(tuple(space.mu[::-1]), [np.outer(e, e) for e in basis])
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y", povm)
    return model, 0.6, (0.1, 1.4), 200


CASES = {"css": _css, "twin-fock": _twin_fock, "noon+twin-fock": _mixture,
         "noon-projection": _noon_projection}
#: the moment estimator inverts <J_z>, which needs a mean spin that the rotation
#: turns through z (twin-Fock and NOON have none) and a POVM that diagonalises J_z
MOMENT_CASES = {**CASES, "oblique-css": _oblique_css, "css-second-branch": _css_second_branch,
                "css-mixture": _css_mixture, "css-dicke-povm": _css_dicke_povm}
MOMENT_REFUSALS = {"twin-fock": DomainError, "noon+twin-fock": DomainError,
                   "noon-projection": ValueError}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


@pytest.fixture(scope="module", params=list(MOMENT_CASES))
def moment_case(request):
    return request.param, MOMENT_CASES[request.param]()


def _draw(model, theta, m, t):
    return sample(model, theta, m, SEED, stream=t)[0]


def _inverse_cdf_counts(model, theta, m, seed, stream):
    """The bincount of the plain inverse-CDF map of each of m draws of one stream,
    the top edge of the CDF guarded against round-off."""
    cdf = np.cumsum(model.probabilities(theta))
    cdf[-1] = max(cdf[-1], 1.0)
    draws = philox_stream(seed, stream).random(m)
    return np.bincount(cdf.searchsorted(draws, "right"), minlength=model.n_outcomes)


def _golden_reference(model, counts, domain, grid_points=512, tol=1e-7):
    """Scalar grid search plus golden-section refinement, one trial at a time."""
    grid = np.linspace(*domain, grid_points)
    i = int(np.argmax(np.log(np.clip(model.probability_table(grid), P_FLOOR, None)) @ counts))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid_points - 1)]

    def f(phi):
        return float(np.log(np.clip(model.probabilities(phi), P_FLOOR, None)) @ counts)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
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


def _bisection_reference(model, c, counts, domain, tol=1e-12):
    """Scalar bisection of <M>_phi = sample moment, one trial at a time."""
    moment = float(c @ counts / counts.sum())
    a, b = domain
    fa = float(model.probabilities(a) @ c) - moment
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = float(model.probabilities(mid) @ c) - moment
        if (fa <= 0) == (fm <= 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def test_mle_trials_match_scalar_reference(case):
    model, theta, domain, m = case
    rep = mle_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        ref = _golden_reference(model, _draw(model, theta, m, t), domain)
        assert abs(rep.estimates[t] - ref) <= 1e-7


def test_moments_trials_match_scalar_reference(moment_case):
    name, (model, theta, domain, m) = moment_case
    if name in MOMENT_REFUSALS:
        with pytest.raises(MOMENT_REFUSALS[name]):
            moments_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
        return
    rep = moments_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    c = povm_diagonal_coefficients(model.povm, model.space.mu)
    for t in range(TRIALS):
        ref = _bisection_reference(model, c, _draw(model, theta, m, t), domain)
        assert abs(rep.estimates[t] - ref) <= 1e-12


def test_mle_trials_match_single_sample(case):
    model, theta, domain, m = case
    rep = mle_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        single = mle(model, _draw(model, theta, m, t), domain=domain)
        assert abs(rep.estimates[t] - single.theta) <= 1e-7


def test_moments_trials_match_single_sample(moment_case):
    name, (model, theta, domain, m) = moment_case
    if name in MOMENT_REFUSALS:
        with pytest.raises(MOMENT_REFUSALS[name]):
            method_of_moments(model, _draw(model, theta, m, 0), domain=domain)
        return
    rep = moments_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        single = method_of_moments(model, _draw(model, theta, m, t), domain=domain)
        assert rep.estimates[t] == single.theta
        assert rep.variance_predictions[t] == single.variance_prediction


def test_bayes_trials_match_single_sample(case):
    model, theta, domain, m = case
    rep = bayes_monte_carlo(model, theta, m, 4, SEED, domain=domain)
    for t in range(4):
        post = bayes_posterior(model, _draw(model, theta, m, t), domain=domain)
        summary = posterior_summaries(post)
        assert rep.estimates[t] == pytest.approx(summary.mean, rel=1e-12)
        assert rep.posterior_variances[t] == pytest.approx(summary.variance, rel=1e-12)
        assert rep.g_values[t] == pytest.approx(1.0 / bayes_variance_bound(post),
                                                rel=1e-12)


@pytest.fixture(scope="module")
def ramsey():
    space = SpinSpace(20)
    return ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                            povm_number_counting(space))


def test_later_trial_moment_out_of_range_still_raises(ramsey):
    # seed 10, m = 20 on the narrow domain: trials 0 and 1 invert; trials 2 and 6
    # fall outside the range with different moments, and the first one is named
    domain = (0.5, 0.7)
    for t in range(2):
        method_of_moments(ramsey, sample(ramsey, 0.6, 20, 10, stream=t)[0], domain=domain)
    labels = np.array(ramsey.outcome_labels)
    moments = [float(labels @ sample(ramsey, 0.6, 20, 10, stream=t)[0] / 20) for t in (2, 6)]
    assert moments[0] != moments[1]
    with pytest.raises(MomentOutOfRangeError,
                       match=re.escape(f"sample moment {moments[0]:.17g} ")):
        moments_monte_carlo(ramsey, 0.6, 20, 8, 10, domain=domain)


def test_later_trial_border_support_still_raises(ramsey):
    # seed 1: trial 0's posterior vanishes at the borders, trial 1's does not
    domain = (0.47, 1.2)
    first = bayes_posterior(ramsey, sample(ramsey, 0.6, 100, 1)[0], domain=domain)
    bayes_variance_bound(first)
    with pytest.raises(BorderSupportError):
        bayes_monte_carlo(ramsey, 0.6, 100, 4, 1, domain=domain)


@pytest.mark.parametrize("underflow_row, raised", [
    (3, BorderSupportError),  # trial 1's border check comes first, trial by trial
    (0, StatisticalFailure),  # trial 0 underflows before trial 1 is looked at
])
def test_block_raises_for_its_first_failing_trial(ramsey, monkeypatch, underflow_row,
                                                  raised):
    # seed 1 on this domain: trial 1 fails the border check (the test above); one
    # more trial's log-posterior is -inf everywhere, so it cannot be normalised
    original = estimation._log_likelihoods

    def underflowing(logp_grid, counts):
        logpost = original(logp_grid, counts)
        logpost[underflow_row] = -np.inf
        return logpost

    monkeypatch.setattr(estimation, "_log_likelihoods", underflowing)
    with pytest.raises(StatisticalFailure) as info:
        bayes_monte_carlo(ramsey, 0.6, 100, 4, 1, domain=(0.47, 1.2))
    assert type(info.value) is raised
    if raised is StatisticalFailure:
        assert str(info.value) == "posterior underflowed to zero everywhere"


@pytest.fixture
def table_calls(monkeypatch):
    """Rows of every amplitude-kernel pass: each probability or derivative table,
    and each refinement step, which calls the kernel directly."""
    calls = []
    original = ProbabilityModel._tables

    def counting(self, thetas, order=0):
        calls.append(np.size(thetas))
        return original(self, thetas, order)

    monkeypatch.setattr(ProbabilityModel, "_tables", counting)
    return calls


def test_mle_harness_table_calls_do_not_scale_with_trials(ramsey, table_calls):
    mle_monte_carlo(ramsey, 0.6, 100, 200, 5, domain=(0.0, 1.5))
    # P(theta_true) once for every `sample`, plus the grid and the refinement steps
    assert len(table_calls) <= 100


def test_moments_harness_table_calls_do_not_scale_with_trials(ramsey, table_calls):
    # P(theta_true) for `sample`; the estimates and predictions are closed forms
    moments_monte_carlo(ramsey, 0.6, 100, 200, 5, domain=(0.1, 1.2))
    assert table_calls == [1]


HARNESSES = {
    "mle": lambda model, trials: mle_monte_carlo(model, 0.6, 100, trials, 5,
                                                 domain=(0.0, 1.5)),
    "moments": lambda model, trials: moments_monte_carlo(model, 0.6, 100, trials, 5,
                                                         domain=(0.1, 1.2)),
    "bayes": lambda model, trials: bayes_monte_carlo(model, 0.6, 100, trials, 5,
                                                     domain=(0.0, 1.5)),
}


@pytest.mark.parametrize("harness", list(HARNESSES))
def test_harness_samples_every_trial_from_one_table_row(harness, ramsey, table_calls,
                                                        monkeypatch):
    sample_calls = []
    original = estimation.sample

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        sample_calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(estimation, "sample", counting)
    per_run = []
    for trials in (20, 200):
        del table_calls[:], sample_calls[:]
        HARNESSES[harness](ramsey, trials)
        per_run.append(len(table_calls))
        ((args, kwargs, counts),) = sample_calls
        assert kwargs == {"trials": trials} and counts.shape == (trials, ramsey.n_outcomes)
        model, theta, m, seed = args
        for t in range(trials):
            assert np.array_equal(counts[t], _inverse_cdf_counts(model, theta, m, seed, t))
    # both runs are one block: at most 5 fixed passes (P at theta_true for the draws,
    # the grid, P and dP there for the bound), plus Newton steps whose number depends
    # on the data but never exceeds their cap; the moments make the first pass alone
    assert max(per_run) <= 5 + estimation._NEWTON_STEPS
    if harness == "moments":
        assert per_run == [1, 1]


def test_refinements_evaluate_few_kernel_rows_per_trial(ramsey, table_calls):
    # a linearly converging search (golden section) needs 25 rows here; the moment
    # estimates are a closed form in the probe's spin moments and pass no row
    trials = 1000
    counts = sample(ramsey, 0.6, 100, 5, trials=trials)
    del table_calls[:]
    estimation._mle_refine(ramsey, counts, (0.0, 1.5))
    assert (sum(table_calls) - estimation.MLE_GRID) / trials <= 8
    del table_calls[:]
    estimation._jz_moments(ramsey, counts, (0.1, 1.2))
    assert table_calls == []


@pytest.mark.parametrize("kind", ["css", "noon+twin-fock"])
def test_estimates_do_not_depend_on_the_trial_block(kind, monkeypatch):
    # 300 trials are 43 blocks of 7 and two blocks of 256, in the draws, the MLE grid
    # stage and Newton alike.  How a kernel pass rounds an angle's row depends on the
    # other angles in the pass (the BLAS product's tiling), but the score's round-off
    # moves an MLE step far less than an ulp.  The moment estimates are row-wise
    # closed forms; the mixture has no mean spin, so it has none
    space = SpinSpace(100)
    probe = (coherent_spin(space, math.pi / 2) if kind == "css"
             else mix([(0.5, noon(space)), (0.5, twin_fock(space))]))
    model = ProbabilityModel(probe, "y", povm_number_counting(space))
    runs = []
    for block in (7, 256):
        monkeypatch.setattr(estimation, "_TRIAL_BLOCK", block)
        runs.append([mle_monte_carlo(model, 0.7, 500, 300, SEED, domain=(0.1, 1.4))])
        if kind == "css":
            runs[-1].append(moments_monte_carlo(model, 0.7, 500, 300, SEED,
                                                domain=(0.1, 1.4)))
    for small, large in zip(*runs):
        assert np.array_equal(small.estimates, large.estimates)


def test_large_n_mle_blocks_match_single_sample_rows():
    # twin-Fock at N = 1000: 300 trials are two blocks of _TRIAL_BLOCK
    space = SpinSpace(1000)
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    domain = (0.0, 1.5)
    rep = mle_monte_carlo(model, 0.7, 100, 300, SEED, domain=domain)
    assert estimation._TRIAL_BLOCK == 256
    for t in (0, 1, 255, 256, 299):
        assert rep.estimates[t] == mle(model, _draw(model, 0.7, 100, t), domain=domain).theta


@pytest.fixture(scope="module")
def twin_fock_1000():
    # N |domain| = 1500 > 128 pi: the grid takes ceil(4 N |domain| / pi) = 1910 points
    space = SpinSpace(1000)
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    return model, mle_monte_carlo(model, 0.7, 100, 200, 3, domain=(0.0, 1.5))


def test_mle_grid_resolves_the_twin_fock_fringes_at_n1000(twin_fock_1000):
    # 512 points, about one per pi/N, gave var/CRLB = 449
    _, rep = twin_fock_1000
    assert 0.5 <= rep.variance / rep.crlb <= 3.0


def test_no_mle_falls_below_a_ten_times_finer_grid(twin_fock_1000):
    model, rep = twin_fock_1000
    counts = sample(model, 0.7, 100, 3, trials=200)
    finest = np.full(len(counts), -np.inf)
    for chunk in np.array_split(np.linspace(0.0, 1.5, 19_100), 20):
        logp = np.log(np.clip(model.probability_table(chunk), P_FLOOR, None))
        finest = np.maximum(finest, np.max(counts @ logp.T, axis=1))
    logp = np.log(np.clip(model.probability_table(rep.estimates), P_FLOOR, None))
    assert np.all(np.einsum("tk,tk->t", logp, counts) >= finest - 1e-6)


@pytest.mark.parametrize("n", [4, 20, 250])
def test_estimates_match_coherent_closed_form(n):
    # css about y with counting: <J_z> = -j sin(theta), and J_z is binomial, so the
    # MLE and the moment estimate both equal arcsin(-Mbar / j) inside the domain
    space = SpinSpace(n)
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                             povm_number_counting(space))
    domain, m, trials = (-1.5, 1.5), 50, 40
    j = n / 2
    counts = sample(model, 0.6, m, SEED, trials=trials)
    closed = np.arcsin(-(counts @ np.array(model.outcome_labels)) / m / j)
    inside = (closed > domain[0]) & (closed < domain[1])
    assert inside.sum() >= trials - 2
    mle_rep = mle_monte_carlo(model, 0.6, m, trials, SEED, domain=domain)
    moments_rep = moments_monte_carlo(model, 0.6, m, trials, SEED, domain=domain)
    assert np.max(np.abs(mle_rep.estimates - closed)[inside]) <= 1e-12
    assert np.max(np.abs(moments_rep.estimates - closed)[inside]) <= 1e-12


@pytest.mark.parametrize("theta", [-1.2, -0.4, 0.3, 1.2])
def test_css_moment_prediction_is_shot_noise_at_every_theta(theta):
    # about y, (Delta J_z)^2 = j cos^2(theta) / 2 and d<J_z>/dtheta = -j cos(theta)
    space = SpinSpace(20)
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                             povm_number_counting(space))
    m = 300
    rep = moments_monte_carlo(model, theta, m, 50, SEED, domain=(-1.5, 1.5))
    shot_noise = 1.0 / (m * space.n_particles)
    assert rep.crlb == pytest.approx(shot_noise, rel=1e-12)
    assert np.allclose(rep.variance_predictions, shot_noise, rtol=1e-12, atol=0.0)


def test_moment_prediction_where_the_mean_spin_is_perpendicular_to_z_is_xi_r_squared():
    # the mean spin lies in the xz plane, so the rotation about y turns it through the
    # x axis; there m (Delta theta)^2 = (Delta J_n1)^2 / |<J>|^2 = xi_R^2 / N
    space = SpinSpace(10)
    probe = mix([(0.5, coherent_spin(space, 1.0, 0.5)),
                 (0.5, coherent_spin(space, 1.0, -0.5))])
    model = ProbabilityModel(probe, "y", povm_number_counting(space))
    mean = np.array([math.sin(1.0) * math.cos(0.5), 0.0, math.cos(1.0)])
    report = squeezing(probe, (np.cross(mean, (0.0, 1.0, 0.0)), "y", mean))
    assert abs(report.xi_r_squared - 1.0) > 0.05
    m = 400
    zero = space.index_of(0.0)  # the sample moment 0 is <J_z> where <J> is along x
    est = method_of_moments(model, m * np.eye(space.dim, dtype=np.int64)[zero],
                            domain=(-0.9, 0.9))
    assert float(model.probabilities(est.theta) @ space.mu) == pytest.approx(0.0,
                                                                             abs=1e-12)
    assert m * est.variance_prediction == pytest.approx(
        report.xi_r_squared / space.n_particles, rel=1e-12)


def test_newton_keeps_an_exact_zero():
    # value and slope both vanish at x: bisection would move it to the midpoint
    x = estimation._newton(lambda rows, x: ((x - 0.3) ** 3, 3 * (x - 0.3) ** 2),
                           np.array([0.3]), np.array([0.0]), np.array([1.0]), 0.0, 0.0)
    assert x[0] == 0.3


def test_newton_takes_a_step_onto_the_bracket_end():
    # the first step lands exactly on b; an exclusive test would bisect instead
    calls = []

    def g(rows, x):
        calls.append(x.size)
        return x - 1.0, np.ones_like(x)

    x = estimation._newton(g, np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.0, 0.0)
    assert x[0] == 1.0 and len(calls) == 2


def test_newton_names_the_trials_it_cannot_converge():
    # rows 1 and 2 have zero slopes, so they bisect towards 1e-300 and run out of steps
    roots = np.array([0.5, 1e-300, 1e-300])

    def g(rows, x):
        return x - roots[rows], np.where(rows == 0, 1.0, 0.0)

    with pytest.raises(StatisticalFailure,
                       match=f"^2 trials did not converge in {estimation._NEWTON_STEPS} "):
        estimation._newton(g, np.full(3, 0.9), np.zeros(3), np.ones(3), 0.0, 0.0)


@pytest.mark.parametrize("harness", list(HARNESSES))
def test_harness_keys_one_philox_generator(harness, ramsey, monkeypatch):
    made = []
    original = np.random.Philox

    def counting(*args, **kwargs):
        made.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for trials in (20, 200):
        del made[:]
        HARNESSES[harness](ramsey, trials)
        assert len(made) == 1


class _FixedModel:
    """Stands in for a model whose outcome probabilities are `p` at every angle."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)
        self.n_outcomes = self.p.size

    def probabilities(self, theta):
        return self.p.copy()


_TENTH = [0.1] * 10
assert np.cumsum(_TENTH)[-1] < 1.0  # exercises the top-edge guard
FIXED_P = {
    "zero outcomes": [0.0, 0.25, 0.0, 0.0, 0.75, 0.0],
    "point mass": [0.0, 0.0, 1.0, 0.0],
    "cdf below 1": _TENTH,
    "tiny edges": [1e-300, 1e-17, 0.5, 0.5 - 1e-17],
}


@given(case=st.sampled_from(sorted(FIXED_P) + ["ramsey"]),
       seed=st.integers(0, 2**64 - 1), m=st.integers(1, 500),
       trials=st.integers(1, 2 * estimation._TRIAL_BLOCK + 1),
       high=st.booleans(), data=st.data())
def test_count_matrix_rows_match_single_stream_samples(case, seed, m, trials, high, data):
    # one batch of `trials` streams against the plain inverse-CDF map of each stream's
    # draws, over more than one block of _TRIAL_BLOCK trials, from stream 0 or from
    # near the top stream
    if case == "ramsey":
        space = SpinSpace(20)
        model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                                 povm_number_counting(space))
    else:
        model = _FixedModel(FIXED_P[case])
    first = data.draw(st.integers(2**128 - 2 * trials, 2**128 - trials)) if high else 0
    counts = sample(model, 0.6, m, seed, first, trials=trials)
    assert counts.shape == (trials, model.n_outcomes)
    for t in range(trials):
        assert np.array_equal(counts[t], _inverse_cdf_counts(model, 0.6, m, seed, first + t))


def test_count_matrix_checks_its_last_stream(ramsey):
    sample(ramsey, 0.6, 10, 3, 2**128 - 2, trials=2)
    with pytest.raises(ValueError, match="last stream must be in"):
        sample(ramsey, 0.6, 10, 3, 2**128 - 2, trials=3)
