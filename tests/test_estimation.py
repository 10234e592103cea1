import io
import math

import numpy as np
import pytest

from spinmetro.estimation import (BAYES_GRID, BorderSupportError, DomainError,
                                  MomentOutOfRangeError, PosteriorDistribution,
                                  bayes_monte_carlo, bayes_posterior,
                                  bayes_variance_bound,
                                  crlb_saturation_residual, kl_divergence,
                                  log_likelihood, method_of_moments, mle,
                                  mle_monte_carlo, moments_monte_carlo,
                                  philox_stream, posterior_summaries, sample)
from spinmetro.fisher import (ProbabilityModel, fisher_information,
                              povm_number_counting)
from spinmetro.reporting import write_posterior_csv, write_trials_csv
from spinmetro.spins import SpinSpace, op_jz
from spinmetro.states import coherent_spin, fock, spin_polarized


@pytest.fixture(scope="module")
def qubit_model():
    # P(up|theta) = cos^2(theta/2), P(down|theta) = sin^2(theta/2); F = 1
    space = SpinSpace(1)
    return ProbabilityModel(spin_polarized(space), "y", povm_number_counting(space))


class TestPhiloxStreams:
    def test_deterministic(self):
        a = philox_stream(123, 0).random(8)
        b = philox_stream(123, 0).random(8)
        assert np.array_equal(a, b)

    def test_streams_disjoint(self):
        a = philox_stream(123, 0).random(8)
        b = philox_stream(123, 1).random(8)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            philox_stream(2**64)
        with pytest.raises(ValueError):
            philox_stream(3, stream=-1)


class TestSample:
    def test_point_mass_constant_sequence(self):
        space = SpinSpace(3)
        model = ProbabilityModel(fock(space, 1.5), "z", povm_number_counting(space))
        draw = sample(model, 0.9, 50, seed=1)
        assert np.all(draw.outcomes == space.index_of(1.5))

    def test_same_seed_identical(self, qubit_model):
        a = sample(qubit_model, 0.8, 100, seed=9, stream=4)
        b = sample(qubit_model, 0.8, 100, seed=9, stream=4)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_multinomial_frequencies(self):
        space = SpinSpace(4)
        model = ProbabilityModel(coherent_spin(space, 1.1), "y",
                                 povm_number_counting(space))
        m = 100_000
        draw = sample(model, 0.4, m, seed=2024)
        p = model.probabilities(0.4)
        freq = draw.counts() / m
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(freq - p) <= 4 * sigma + 1e-12)

    def test_m_must_be_positive(self, qubit_model):
        with pytest.raises(ValueError):
            sample(qubit_model, 0.1, 0, seed=3)


class TestLogLikelihood:
    def test_uniform_two_outcome(self, qubit_model):
        # theta = pi/2 gives P = (1/2, 1/2)
        assert log_likelihood(qubit_model, [0], math.pi / 2) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_additivity_exact(self, qubit_model, rng):
        a = rng.integers(0, 2, size=40)
        b = rng.integers(0, 2, size=25)
        phi = 0.73
        total = log_likelihood(qubit_model, np.concatenate([a, b]), phi)
        assert total == log_likelihood(qubit_model, a, phi) + log_likelihood(
            qubit_model, b, phi)

    def test_single_qubit_closed_form(self, qubit_model):
        # single 'up' outcome: L = ln cos^2(phi/2); up is the mu=+1/2 index (1)
        phi = 0.6
        assert log_likelihood(qubit_model, [1], phi) == pytest.approx(
            2 * math.log(math.cos(phi / 2)), abs=1e-12)

    def test_vectorised_over_grid(self, qubit_model):
        grid = np.linspace(0.1, 1.0, 7)
        values = log_likelihood(qubit_model, [0, 1, 1], grid)
        assert values.shape == grid.shape
        assert values[3] == pytest.approx(
            log_likelihood(qubit_model, [0, 1, 1], float(grid[3])), abs=1e-12)


class TestMle:
    def test_matching_frequencies_recover_theta(self, qubit_model):
        # 50-50 counts maximise the likelihood exactly at pi/2
        outcomes = np.array([0, 1] * 50)
        est = mle(qubit_model, outcomes, domain=(0.2, 2.9))
        assert est.theta == pytest.approx(math.pi / 2, abs=1e-6)
        assert not est.boundary

    def test_stationarity_when_interior(self, qubit_model):
        outcomes = sample(qubit_model, 0.9, 500, seed=5).outcomes
        est = mle(qubit_model, outcomes, domain=(0.1, 2.8))
        h = 1e-4
        d = (log_likelihood(qubit_model, outcomes, est.theta + h)
             - log_likelihood(qubit_model, outcomes, est.theta - h)) / (2 * h)
        assert abs(d) < 1e-2  # flat to the refinement tolerance

    def test_consistency_large_m(self, qubit_model):
        est = mle(qubit_model, sample(qubit_model, 0.8, 10_000, seed=11).outcomes,
                  domain=(0.0, math.pi))
        assert abs(est.theta - 0.8) < 0.05

    def test_matches_dense_grid_search(self):
        # N=2 probe |1,+1>, y rotation, counting; oracle: exhaustive grid
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        outcomes = sample(model, 0.75, 60, seed=31).outcomes
        est = mle(model, outcomes, domain=(0.05, 1.5))
        grid = np.linspace(0.05, 1.5, 1_000_001)
        best, best_val = None, -np.inf
        for chunk in np.array_split(grid, 20):
            vals = log_likelihood(model, outcomes, chunk)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best = float(vals[k]), float(chunk[k])
        assert est.theta == pytest.approx(best, abs=1e-5)

    def test_boundary_flagged(self, qubit_model):
        outcomes = np.zeros(40, dtype=int)  # all 'down': MLE at the upper edge
        est = mle(qubit_model, outcomes, domain=(0.1, 2.0))
        assert est.boundary
        assert est.theta == pytest.approx(2.0, abs=1e-4)

    def test_empty_domain_rejected(self, qubit_model):
        with pytest.raises(DomainError):
            mle(qubit_model, [0], domain=(1.0, 1.0))


class TestMleMonteCarlo:
    def test_determinism(self, qubit_model):
        a = mle_monte_carlo(qubit_model, 0.8, m=50, trials=20, seed=77,
                            domain=(0.0, math.pi))
        b = mle_monte_carlo(qubit_model, 0.8, m=50, trials=20, seed=77,
                            domain=(0.0, math.pi))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.crlb == b.crlb

    def test_small_m_report_wellformed(self, qubit_model):
        # no efficiency assertion at m = 25; the report itself must be sound
        rep = mle_monte_carlo(qubit_model, 0.8, m=25, trials=200, seed=13,
                              domain=(0.0, math.pi))
        assert rep.trials == 200
        assert rep.variance >= 0.0
        assert rep.crlb == pytest.approx(1.0 / 25.0, abs=1e-10)

    def test_variance_halves_when_m_doubles(self, qubit_model):
        r1 = mle_monte_carlo(qubit_model, 0.8, m=200, trials=400, seed=21,
                             domain=(0.0, math.pi))
        r2 = mle_monte_carlo(qubit_model, 0.8, m=400, trials=400, seed=22,
                             domain=(0.0, math.pi))
        assert r2.variance / r1.variance == pytest.approx(0.5, rel=0.25)

    def test_trials_csv_export(self, qubit_model, tmp_path):
        rep = mle_monte_carlo(qubit_model, 0.8, m=30, trials=5, seed=3,
                              domain=(0.0, math.pi))
        path = tmp_path / "trials.csv"
        write_trials_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,estimate"
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == pytest.approx(rep.estimates[0])
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


def gaussian_posterior(center=1.2, sigma=0.05, lo=0.0, hi=math.pi, points=4001):
    grid = np.linspace(lo, hi, points)
    dens = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
    dens /= np.trapezoid(dens, grid) if hasattr(np, "trapezoid") else np.trapz(dens, grid)
    return PosteriorDistribution(grid=grid, density=dens)


class TestBayes:
    def test_no_data_returns_prior(self, qubit_model):
        post = bayes_posterior(qubit_model, [], domain=(0.0, math.pi))
        assert np.allclose(post.density, post.density[0])

    @pytest.mark.parametrize("seed", [8, 21, 1999])
    def test_flat_prior_mode_matches_mle(self, qubit_model, seed):
        outcomes = sample(qubit_model, 0.8, 300, seed=seed).outcomes
        post = bayes_posterior(qubit_model, outcomes, domain=(0.0, math.pi))
        est = mle(qubit_model, outcomes, domain=(0.0, math.pi))
        cell = post.grid[1] - post.grid[0]
        assert abs(posterior_summaries(post).mode - est.theta) <= cell

    def test_large_m_gaussian_width(self, qubit_model):
        outcomes = sample(qubit_model, 0.8, 1000, seed=3).outcomes
        post = bayes_posterior(qubit_model, outcomes, domain=(0.0, math.pi))
        summary = posterior_summaries(post)
        assert summary.variance == pytest.approx(1e-3, rel=0.15)

    def test_gaussian_summaries(self):
        post = gaussian_posterior()
        s = posterior_summaries(post)
        assert s.mean == pytest.approx(1.2, abs=1e-6)
        assert s.mode == pytest.approx(1.2, abs=1e-3)
        assert s.variance == pytest.approx(0.05**2, rel=0.01)
        # 68.27% mass within one standard deviation
        assert s.credible_halfwidth == pytest.approx(0.05, rel=0.01)

    def test_credible_halfwidth_encloses_mass_to_round_off(self):
        post = gaussian_posterior()
        s = posterior_summaries(post)
        x, f = post.grid, post.density
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
        enclosed = (np.interp(s.mean + s.credible_halfwidth, x, cum)
                    - np.interp(s.mean - s.credible_halfwidth, x, cum)) / cum[-1]
        assert enclosed == pytest.approx(0.6827, abs=1e-12)

    def test_gaussian_variance_bound_tight(self):
        post = gaussian_posterior()
        bound = bayes_variance_bound(post)
        assert bound == pytest.approx(0.05**2, rel=0.01)
        assert posterior_summaries(post).variance >= bound * (1 - 1e-3)

    def test_broad_posterior_bound_is_loose(self):
        # bimodal posterior: variance far above the information bound
        grid = np.linspace(0.0, math.pi, 4001)
        dens = (np.exp(-0.5 * ((grid - 0.8) / 0.05) ** 2)
                + np.exp(-0.5 * ((grid - 2.3) / 0.05) ** 2))
        dens /= float(np.trapezoid(dens, grid)) if hasattr(np, "trapezoid") \
            else float(np.trapz(dens, grid))
        post = PosteriorDistribution(grid=grid, density=dens)
        assert posterior_summaries(post).variance > 10 * bayes_variance_bound(post)

    def test_border_support_violation(self):
        grid = np.linspace(0.0, 1.0, 513)
        dens = np.ones_like(grid)
        post = PosteriorDistribution(grid=grid, density=dens)
        with pytest.raises(BorderSupportError):
            bayes_variance_bound(post)

    def test_variance_bound_on_samples(self, qubit_model):
        for s in (1, 2, 3):
            outcomes = sample(qubit_model, 1.0, 400, seed=s).outcomes
            post = bayes_posterior(qubit_model, outcomes, domain=(0.0, math.pi))
            assert posterior_summaries(post).variance >= bayes_variance_bound(
                post) * (1 - 1e-3)

    def test_monte_carlo_report(self, qubit_model):
        rep = bayes_monte_carlo(qubit_model, 0.9, m=300, trials=8, seed=12,
                                domain=(0.0, math.pi))
        assert rep.trials == 8
        assert rep.mean_posterior_variance == pytest.approx(1 / 300, rel=0.5)
        assert rep.bound_g2 <= rep.mean_posterior_variance * 1.05

    def test_first_posterior_equals_stream_zero_posterior(self, ramsey_model):
        rep = bayes_monte_carlo(ramsey_model, 0.6, m=200, trials=3, seed=41,
                                domain=(0.0, 1.5))
        draw = sample(ramsey_model, 0.6, 200, seed=41, stream=0)
        post = bayes_posterior(ramsey_model, draw.outcomes, domain=(0.0, 1.5))
        assert np.array_equal(rep.first_posterior.grid, post.grid)
        assert np.array_equal(rep.first_posterior.density, post.density)
        assert rep.estimates[0] == posterior_summaries(post).mean

    def test_posterior_csv_export(self, qubit_model, tmp_path):
        post = bayes_posterior(qubit_model, [1, 1, 0], domain=(0.0, math.pi))
        buf = io.StringIO()
        write_posterior_csv(post, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "grid_phi,posterior_density"
        assert len(lines) == BAYES_GRID + 1


@pytest.fixture(scope="module")
def ramsey_model():
    # equator CSS along x, rotation about y, Jz counting
    space = SpinSpace(20)
    return ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                            povm_number_counting(space))


class TestMethodOfMoments:
    def test_noiseless_inversion_exact(self, ramsey_model):
        space = ramsey_model.space
        theta0 = 0.6
        p = ramsey_model.probabilities(theta0)
        # feed outcome counts proportional to the exact distribution by using
        # the expected moment directly: a synthetic sample whose mean matches
        mu = np.array(ramsey_model.outcome_labels)
        target = float(mu @ p)
        # build integer counts hitting the target moment via two outcomes
        i_lo, i_hi = 0, len(mu) - 1
        w = (mu[i_hi] - target) / (mu[i_hi] - mu[i_lo])
        m = 10_000
        n_lo = int(round(w * m))
        outcomes = np.array([i_lo] * n_lo + [i_hi] * (m - n_lo))
        est = method_of_moments(ramsey_model, op_jz(space), outcomes,
                                domain=(0.1, 1.2))
        achieved = float(np.mean(mu[outcomes]))
        # bisection inverts the achieved sample moment to full tolerance
        p_est = ramsey_model.probabilities(est.theta)
        assert float(mu @ p_est) == pytest.approx(achieved, abs=1e-9)

    def test_prediction_equals_shot_noise(self, ramsey_model):
        space = ramsey_model.space
        draw = sample(ramsey_model, 0.6, 10_000, seed=11)
        est = method_of_moments(ramsey_model, op_jz(space), draw.outcomes,
                                domain=(0.1, 1.2))
        # xi_R^2 = 1 for the coherent state: prediction is the shot-noise variance
        assert est.variance_prediction == pytest.approx(
            1.0 / (10_000 * 20), abs=1e-9)

    def test_non_monotone_domain_rejected(self, ramsey_model):
        # <Jz>_phi = -(N/2) sin(phi) turns around at pi/2
        space = ramsey_model.space
        draw = sample(ramsey_model, 0.3, 100, seed=4)
        with pytest.raises(DomainError, match="monotone"):
            method_of_moments(ramsey_model, op_jz(space), draw.outcomes,
                              domain=(0.1, 2.5))

    def test_out_of_range_moment(self, ramsey_model):
        space = ramsey_model.space
        # all outcomes at mu = +j: sample moment +10, far outside f over domain
        outcomes = np.full(50, space.dim - 1)
        with pytest.raises(MomentOutOfRangeError):
            method_of_moments(ramsey_model, op_jz(space), outcomes,
                              domain=(0.1, 1.2))

    def test_monte_carlo_spread_matches_prediction(self, ramsey_model):
        space = ramsey_model.space
        rep = moments_monte_carlo(ramsey_model, op_jz(space), 0.6, m=2000,
                                  trials=300, seed=17, domain=(0.1, 1.2))
        assert rep.variance == pytest.approx(rep.crlb, rel=0.2)


class TestKlDivergence:
    def test_zero_at_equal_phases(self, qubit_model):
        assert kl_divergence(qubit_model, 0.6, 0.6) == 0.0

    def test_nonnegative_random_pairs(self, qubit_model, rng):
        for _ in range(25):
            t, p = rng.uniform(0.1, 3.0, size=2)
            assert kl_divergence(qubit_model, float(t), float(p)) >= 0.0

    def test_second_order_matches_fisher(self, qubit_model):
        t, d = 0.9, 1e-3
        f = fisher_information(qubit_model, t).fi
        kl = kl_divergence(qubit_model, t, t + d)
        assert kl == pytest.approx(f * d * d / 2, rel=0.05)

    def test_support_mismatch_is_infinite(self):
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "z", povm_number_counting(space))
        # z rotation leaves the point mass in place: distributions equal
        assert kl_divergence(model, 0.0, 1.0) == 0.0
        model_y = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        assert kl_divergence(model_y, 0.4, 0.0) == math.inf


class TestSaturationResidual:
    def test_locally_efficient_estimator_has_zero_residual(self, qubit_model):
        theta = 0.9
        p = qubit_model.probabilities(theta)
        dp = qubit_model.derivatives(theta)
        fi = fisher_information(qubit_model, theta).fi
        # Theta(eps) = theta + (dP/P)/F is locally unbiased and efficient
        values = theta + (dp / p) / fi
        assert crlb_saturation_residual(qubit_model, theta, values) < 1e-9

    def test_mismatched_estimator_has_residual(self):
        # the counting model on a rotated Fock probe is an exponential family,
        # so estimators affine in mu saturate exactly; pick a non-affine one
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        residual = crlb_saturation_residual(model, 0.9, np.array([0.0, 1.0, 5.0]))
        assert residual > 1e-3
