"""The batched trial engine against the single-sample estimators.

Each Monte-Carlo harness draws one count matrix (row t from Philox stream t)
and refines every trial at once; trial t must agree with the single-sample
estimator run on `sample(..., stream=t)` and with a scalar one-trial-at-a-time
reference of the same search.
"""

import math

import numpy as np
import pytest

from spinmetro import estimation
from spinmetro.estimation import (BorderSupportError, MomentOutOfRangeError,
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


@pytest.fixture
def table_calls(monkeypatch):
    calls = []
    original = ProbabilityModel.probability_table

    def counting(self, thetas):
        calls.append(np.size(thetas))
        return original(self, thetas)

    monkeypatch.setattr(ProbabilityModel, "probability_table", counting)
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
        sample_calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, "sample", counting)
    per_run = []
    for trials in (20, 200):
        del table_calls[:], sample_calls[:]
        HARNESSES[harness](ramsey, trials)
        assert len(sample_calls) == trials
        per_run.append(len(table_calls))
    assert per_run[0] == per_run[1]


def test_sample_from_a_given_row_matches_its_own_table(ramsey):
    p_true = ramsey.probabilities(0.6)
    for stream in (0, 3):
        own = sample(ramsey, 0.6, 50, 8, stream=stream)
        given = sample(ramsey, 0.6, 50, 8, stream=stream, p_true=p_true)
        assert np.array_equal(own.outcomes, given.outcomes)
    assert np.array_equal(p_true, ramsey.probabilities(0.6))
