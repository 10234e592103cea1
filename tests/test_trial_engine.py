"""The batched trial engine against the single-sample estimators.

Each Monte-Carlo harness draws one count matrix in one `sample(...,
trials=T)` call (row t from Philox stream t) and refines every trial at
once; trial t must agree with the single-sample estimator run on
`sample(..., stream=t)`, with an independent scalar search run one trial at
a time (golden section for the MLE, bisection for the moments, where the
engine runs safeguarded Newton), and with the closed-form estimates of the
coherent probe.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmetro import estimation
from spinmetro.estimation import (BorderSupportError, MomentOutOfRangeError,
                                  StatisticalFailure,
                                  bayes_monte_carlo, bayes_posterior,
                                  bayes_variance_bound, method_of_moments, mle,
                                  mle_monte_carlo, moments_monte_carlo,
                                  posterior_summaries, sample)
from spinmetro.fisher import (P_FLOOR, ProbabilityModel, povm_diagonal_coefficients,
                              povm_number_counting, povm_probe_projection)
from spinmetro.spins import SpinSpace, op_jz
from spinmetro.states import coherent_spin, mix, noon, twin_fock

N = 8
TRIALS = 12
SEED = 2024


def _css():
    space = SpinSpace(N)
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                             povm_number_counting(space))
    return model, 0.6, (0.1, 1.4), op_jz(space), 200


def _twin_fock():
    # <Jz^2> = sin^2(theta) j(j+1)/2 is monotone on (0, pi/2)
    space = SpinSpace(N)
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    return model, 0.7, (0.1, 1.4), op_jz(space) @ op_jz(space), 200


def _mixture():
    # <Jz^2> = (j^2 - sin^2(theta) (j^2/2 - j)) / 2 decreases on (0, pi/2)
    space = SpinSpace(N)
    probe = mix([(0.5, noon(space)), (0.5, twin_fock(space))])
    model = ProbabilityModel(probe, "y", povm_number_counting(space))
    return model, 0.7, (0.1, 1.4), op_jz(space) @ op_jz(space), 2000


def _noon_projection():
    # P(probe) = cos^2(N theta / 2) decreases on (0, pi/N)
    space = SpinSpace(N)
    probe = noon(space)
    model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
    projector = np.outer(probe.amplitudes, probe.amplitudes.conj())
    return model, 0.5 * math.pi / N, (0.0, math.pi / N), projector, 200


CASES = {"css": _css, "twin-fock": _twin_fock, "noon+twin-fock": _mixture,
         "noon-projection": _noon_projection}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def _draw(model, theta, m, t):
    return sample(model, theta, m, SEED, stream=t).outcomes


def _golden_reference(model, outcomes, domain, grid_points=512, tol=1e-7):
    """Scalar grid search plus golden-section refinement, one trial at a time."""
    counts = np.bincount(outcomes, minlength=model.n_outcomes)
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


def _bisection_reference(model, c, outcomes, domain, tol=1e-12):
    """Scalar bisection of <M>_phi = sample moment, one trial at a time."""
    moment = float(np.mean(c[outcomes]))
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
    model, theta, domain, _, m = case
    rep = mle_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        ref = _golden_reference(model, _draw(model, theta, m, t), domain)
        assert abs(rep.estimates[t] - ref) <= 1e-7


def test_moments_trials_match_scalar_reference(case):
    model, theta, domain, observable, m = case
    rep = moments_monte_carlo(model, observable, theta, m, TRIALS, SEED, domain=domain)
    c = povm_diagonal_coefficients(model.povm, observable)
    for t in range(TRIALS):
        ref = _bisection_reference(model, c, _draw(model, theta, m, t), domain)
        assert abs(rep.estimates[t] - ref) <= 1e-12


def test_mle_trials_match_single_sample(case):
    model, theta, domain, _, m = case
    rep = mle_monte_carlo(model, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        single = mle(model, _draw(model, theta, m, t), domain=domain)
        assert abs(rep.estimates[t] - single.theta) <= 1e-7


def test_moments_trials_match_single_sample(case):
    model, theta, domain, observable, m = case
    rep = moments_monte_carlo(model, observable, theta, m, TRIALS, SEED, domain=domain)
    for t in range(TRIALS):
        single = method_of_moments(model, observable, _draw(model, theta, m, t),
                                   domain=domain)
        assert abs(rep.estimates[t] - single.theta) <= 1e-12
        assert rep.variance_predictions[t] == pytest.approx(
            single.variance_prediction, rel=1e-12)


def test_bayes_trials_match_single_sample(case):
    model, theta, domain, _, m = case
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
    jz = op_jz(ramsey.space)
    domain = (0.5, 0.7)
    for t in range(2):
        method_of_moments(ramsey, jz, sample(ramsey, 0.6, 20, 10, stream=t).outcomes,
                          domain=domain)
    labels = np.array(ramsey.outcome_labels)
    moments = [float(np.mean(labels[sample(ramsey, 0.6, 20, 10, stream=t).outcomes]))
               for t in (2, 6)]
    assert moments[0] != moments[1]
    with pytest.raises(MomentOutOfRangeError, match=f"sample moment {moments[0]:.6g} "):
        moments_monte_carlo(ramsey, jz, 0.6, 20, 8, 10, domain=domain)


def test_later_trial_border_support_still_raises(ramsey):
    # seed 1: trial 0's posterior vanishes at the borders, trial 1's does not
    domain = (0.47, 1.2)
    first = bayes_posterior(ramsey, sample(ramsey, 0.6, 100, 1, stream=0).outcomes,
                            domain=domain)
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
    moments_monte_carlo(ramsey, op_jz(ramsey.space), 0.6, 100, 200, 5, domain=(0.1, 1.2))
    assert len(table_calls) <= 100


HARNESSES = {
    "mle": lambda model, trials: mle_monte_carlo(model, 0.6, 100, trials, 5,
                                                 domain=(0.0, 1.5)),
    "moments": lambda model, trials: moments_monte_carlo(
        model, op_jz(model.space), 0.6, 100, trials, 5, domain=(0.1, 1.2)),
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
        for t in range(trials):
            assert np.array_equal(counts[t], original(*args, stream=t).counts())
    # both runs are one block: at most 5 fixed passes (P at theta_true for the draws,
    # the grid, P and dP there for the bound, the final moment pass), plus Newton
    # steps whose number depends on the data but never exceeds their cap
    assert max(per_run) <= 5 + estimation._NEWTON_STEPS


def test_refinements_evaluate_few_kernel_rows_per_trial(ramsey, table_calls):
    # a linearly converging search (golden section, bisection) needs 25 and 43 rows here
    trials = 1000
    counts = sample(ramsey, 0.6, 100, 5, trials=trials)
    del table_calls[:]
    estimation._mle_refine(ramsey, counts, (0.0, 1.5))
    assert (sum(table_calls) - estimation.MLE_GRID) / trials <= 8
    del table_calls[:]
    c = povm_diagonal_coefficients(ramsey.povm, op_jz(ramsey.space))
    estimation._moments_refine(ramsey, c, counts, (0.1, 1.2))
    assert (sum(table_calls) - estimation.MOMENTS_GRID) / trials <= 8


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
    moments_rep = moments_monte_carlo(model, op_jz(space), 0.6, m, trials, SEED,
                                      domain=domain)
    assert np.max(np.abs(mle_rep.estimates - closed)[inside]) <= 1e-12
    assert np.max(np.abs(moments_rep.estimates - closed)[inside]) <= 1e-12


def test_newton_keeps_an_exact_zero():
    # value and slope both vanish at x: bisection would move it to the midpoint
    x = estimation._newton(lambda rows, x: ((x - 0.3) ** 3, 3 * (x - 0.3) ** 2),
                           np.array([0.3]), np.array([0.0]), np.array([1.0]), 0.0, 0.0, 1)
    assert x[0] == 0.3


def test_newton_takes_a_step_onto_the_bracket_end():
    # the first step lands exactly on b; an exclusive test would bisect instead
    calls = []

    def g(rows, x):
        calls.append(x.size)
        return x - 1.0, np.ones_like(x)

    x = estimation._newton(g, np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.0, 0.0, 1)
    assert x[0] == 1.0 and len(calls) == 2


def test_newton_names_the_trials_it_cannot_converge():
    # rows 1 and 2 have zero slopes, so they bisect towards 1e-300 and run out of steps
    roots = np.array([0.5, 1e-300, 1e-300])

    def g(rows, x):
        return x - roots[rows], np.where(rows == 0, 1.0, 0.0)

    with pytest.raises(StatisticalFailure,
                       match=f"^2 trials did not converge in {estimation._NEWTON_STEPS} "):
        estimation._newton(g, np.full(3, 0.9), np.zeros(3), np.ones(3), 0.0, 0.0, 1)


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
       trials=st.integers(1, 2 * estimation._DRAW_ROWS + 1),
       high=st.booleans(), data=st.data())
def test_count_matrix_rows_match_single_stream_samples(case, seed, m, trials, high, data):
    # one batch of `trials` streams against one `sample` per stream, over more than
    # one block of _DRAW_ROWS trials, from stream 0 or from near the top stream
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
        assert np.array_equal(counts[t], sample(model, 0.6, m, seed, first + t).counts())


def test_count_matrix_checks_its_last_stream(ramsey):
    sample(ramsey, 0.6, 10, 3, 2**128 - 2, trials=2)
    with pytest.raises(ValueError, match="last stream must be in"):
        sample(ramsey, 0.6, 10, 3, 2**128 - 2, trials=3)
