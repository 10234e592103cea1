import math

import numpy as np
import pytest

from spinmetro import estimation
from spinmetro.estimation import (BAYES_GRID, BorderSupportError, DomainError,
                                  MomentOutOfRangeError,
                                  PosteriorDistribution,
                                  bayes_monte_carlo, bayes_posterior,
                                  bayes_variance_bound,
                                  crlb_saturation_residual, kl_divergence,
                                  log_likelihood, method_of_moments, mle,
                                  mle_monte_carlo, moments_monte_carlo,
                                  philox_stream, posterior_summaries, sample)
from spinmetro.fisher import (ProbabilityModel, fisher_information,
                              povm_number_counting)
from spinmetro.reporting import csv_text, posterior_table, trial_table
from spinmetro.spins import SpinSpace
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

    @pytest.mark.parametrize("seed, stream, message", [
        (1.7, 0, "seed must be an integer"),
        (True, 0, "seed must be an integer"),
        (np.float64(3.0), 0, "seed must be an integer"),
        (-1, 0, "seed must be in"),
        (1, 2**128, "stream must be in"),
        (1, 2.0, "stream must be an integer"),
        (1, False, "stream must be an integer"),
    ])
    def test_seed_and_stream_must_be_integers_in_range(self, seed, stream, message):
        with pytest.raises(ValueError, match=message):
            philox_stream(seed, stream)

    def test_numpy_integers_are_accepted(self):
        assert np.array_equal(philox_stream(np.uint64(9), np.int32(4)).random(5),
                              philox_stream(9, 4).random(5))

    STREAMS = (0, 1, 7, 2**64 - 1, 2**64, 2**100, 2**128 - 1)
    # 1, 3, 4 and 5 draws end inside, at and just past Philox's 4-word buffer
    DRAWS = (1, 3, 4, 5, 297)

    @staticmethod
    def _reference(seed, stream, m):
        """A fresh generator whose counter starts at stream * 2**128."""
        return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128)).random(m)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_stream_matches_an_independent_generator(self, stream):
        seed = 2**64 - 3
        for m in self.DRAWS:
            assert np.array_equal(philox_stream(seed, stream).random(m),
                                  self._reference(seed, stream, m))

    def test_one_rewound_source_matches_every_stream(self):
        source = estimation._PhiloxStreams(77)
        for stream in self.STREAMS:
            for m in self.DRAWS:
                assert np.array_equal(source.at(stream).random(m),
                                      self._reference(77, stream, m))
        for stream in (5, 2, 5):  # out of order, and back to a stream already drawn
            assert np.array_equal(source.at(stream).random(297),
                                  self._reference(77, stream, 297))


class TestSample:
    def test_point_mass_constant_sequence(self):
        space = SpinSpace(3)
        model = ProbabilityModel(fock(space, 1.5), "z", povm_number_counting(space))
        counts = sample(model, 0.9, 50, seed=1)
        assert counts.shape == (1, space.dim)
        assert counts[0, space.index_of(1.5)] == counts.sum() == 50

    def test_same_seed_identical(self, qubit_model):
        a = sample(qubit_model, 0.8, 100, seed=9, stream=4)
        b = sample(qubit_model, 0.8, 100, seed=9, stream=4)
        assert np.array_equal(a, b)

    def test_multinomial_frequencies(self):
        space = SpinSpace(4)
        model = ProbabilityModel(coherent_spin(space, 1.1), "y",
                                 povm_number_counting(space))
        m = 100_000
        p = model.probabilities(0.4)
        freq = sample(model, 0.4, m, seed=2024)[0] / m
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(freq - p) <= 4 * sigma + 1e-12)

    def test_m_must_be_positive(self, qubit_model):
        with pytest.raises(ValueError):
            sample(qubit_model, 0.1, 0, seed=3)

    @pytest.mark.parametrize("m", [2.5, 3.0, True])
    def test_m_must_be_an_integer(self, qubit_model, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            sample(qubit_model, 0.1, m, seed=3)

    def test_non_integer_seed_is_rejected(self, qubit_model):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(qubit_model, 0.1, 10, seed=1.7)


#: every call that reads one count row, on the qubit model
ONE_ROW = {
    "log_likelihood": lambda model, counts: log_likelihood(model, counts, 0.4),
    "mle": lambda model, counts: mle(model, counts, domain=(0.1, 2.0)),
    "method_of_moments": lambda model, counts: method_of_moments(model, counts,
                                                                 domain=(0.1, 2.0)),
    "bayes_posterior": lambda model, counts: bayes_posterior(model, counts,
                                                             domain=(0.0, math.pi)).density,
}


class TestOutcomeSample:
    """A sample of outcomes is its row of outcome counts: the one-row calls refuse a
    row without length n_outcomes, an integer dtype and entries >= 0."""

    @staticmethod
    def _refused(model, counts, match, calls=ONE_ROW):
        for name in calls:
            with pytest.raises(ValueError, match=match):
                ONE_ROW[name](model, counts)

    @pytest.mark.parametrize("outcomes", [[0, 1, 1], [2, 0, 0, 1], [5, 5, 5]])
    def test_ids_outside_the_povm_are_rejected(self, qubit_model, outcomes):
        # the qubit model has 2 outcomes; a longer row counts ids from 2 up
        self._refused(qubit_model, outcomes, "one row of 2 outcome counts, got shape")

    @pytest.mark.parametrize("counts", [[4], []])
    def test_short_rows_are_rejected(self, qubit_model, counts):
        self._refused(qubit_model, counts, "one row of 2 outcome counts")

    def test_two_dimensional_outcomes_are_rejected(self, qubit_model):
        for counts in ([[0, 1], [1, 1]], [[3, 4]]):
            self._refused(qubit_model, counts, "one row of 2 outcome counts")

    @pytest.mark.parametrize("counts", [[1.0, 2.0], [True, False]],
                             ids=["float", "bool"])
    def test_non_integer_counts_are_rejected(self, qubit_model, counts):
        self._refused(qubit_model, counts, "integer dtype")

    def test_negative_counts_are_rejected(self, qubit_model):
        self._refused(qubit_model, [3, -1], "counts must be >= 0")

    def test_mle_and_moments_need_a_total_of_one(self, qubit_model):
        self._refused(qubit_model, [0, 0], "counts must total at least 1, got 0",
                      calls=("mle", "method_of_moments"))

    def test_empty_sample_has_zero_counts(self, qubit_model):
        # the empty sample's likelihood is 1, and its posterior is the flat prior
        zero = np.zeros(2, dtype=np.int64)
        grid = np.linspace(0.1, 3.0, 9)
        assert np.array_equal(log_likelihood(qubit_model, zero, grid), np.zeros(9))
        density = bayes_posterior(qubit_model, zero, domain=(0.0, math.pi)).density
        assert np.all(density == density[0])

    def test_every_integer_dtype_is_accepted(self, qubit_model):
        counts = np.array([12, 31])
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            for call in ONE_ROW.values():
                assert np.array_equal(call(qubit_model, counts.astype(dtype)),
                                      call(qubit_model, counts))

    def test_counts_are_the_bincount_of_the_draws(self, qubit_model):
        # the inverse-CDF map of each draw, with the top edge guarded against round-off
        cdf = np.cumsum(qubit_model.probabilities(0.7))
        cdf[-1] = max(cdf[-1], 1.0)
        draws = philox_stream(12, 3).random(500)
        counts = sample(qubit_model, 0.7, 500, seed=12, stream=3)
        assert np.array_equal(counts, [np.bincount(cdf.searchsorted(draws, "right"),
                                                   minlength=2)])
        assert counts.dtype == np.int64 and counts.sum() == 500


class TestLogLikelihood:
    def test_uniform_two_outcome(self, qubit_model):
        # theta = pi/2 gives P = (1/2, 1/2)
        assert log_likelihood(qubit_model, [1, 0], math.pi / 2) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_additivity_exact(self, qubit_model, rng):
        a = np.bincount(rng.integers(0, 2, size=40), minlength=2)
        b = np.bincount(rng.integers(0, 2, size=25), minlength=2)
        phi = 0.73
        total = log_likelihood(qubit_model, a + b, phi)
        assert total == log_likelihood(qubit_model, a, phi) + log_likelihood(
            qubit_model, b, phi)

    def test_single_qubit_closed_form(self, qubit_model):
        # single 'up' outcome: L = ln cos^2(phi/2); up is the mu=+1/2 index (1)
        phi = 0.6
        assert log_likelihood(qubit_model, [0, 1], phi) == pytest.approx(
            2 * math.log(math.cos(phi / 2)), abs=1e-12)

    def test_vectorised_over_grid(self, qubit_model):
        grid = np.linspace(0.1, 1.0, 7)
        values = log_likelihood(qubit_model, [1, 2], grid)
        assert values.shape == grid.shape
        assert values[3] == pytest.approx(
            log_likelihood(qubit_model, [1, 2], float(grid[3])), abs=1e-12)


class TestMle:
    def test_matching_frequencies_recover_theta(self, qubit_model):
        # 50-50 counts maximise the likelihood exactly at pi/2
        est = mle(qubit_model, [50, 50], domain=(0.2, 2.9))
        assert est.theta == pytest.approx(math.pi / 2, abs=1e-6)
        assert not est.boundary

    def test_stationarity_when_interior(self, qubit_model):
        counts = sample(qubit_model, 0.9, 500, seed=5)[0]
        est = mle(qubit_model, counts, domain=(0.1, 2.8))
        h = 1e-4
        d = (log_likelihood(qubit_model, counts, est.theta + h)
             - log_likelihood(qubit_model, counts, est.theta - h)) / (2 * h)
        assert abs(d) < 1e-2  # flat to the refinement tolerance

    def test_consistency_large_m(self, qubit_model):
        est = mle(qubit_model, sample(qubit_model, 0.8, 10_000, seed=11)[0],
                  domain=(0.0, math.pi))
        assert abs(est.theta - 0.8) < 0.05

    def test_matches_dense_grid_search(self):
        # N=2 probe |1,+1>, y rotation, counting; oracle: exhaustive grid
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        counts = sample(model, 0.75, 60, seed=31)[0]
        est = mle(model, counts, domain=(0.05, 1.5))
        grid = np.linspace(0.05, 1.5, 1_000_001)
        best, best_val = None, -np.inf
        for chunk in np.array_split(grid, 20):
            vals = log_likelihood(model, counts, chunk)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best = float(vals[k]), float(chunk[k])
        assert est.theta == pytest.approx(best, abs=1e-5)

    def test_boundary_flagged(self, qubit_model):
        est = mle(qubit_model, [40, 0], domain=(0.1, 2.0))  # all 'down': the upper edge
        assert est.boundary
        assert est.theta == pytest.approx(2.0, abs=1e-4)

    def test_empty_domain_rejected(self, qubit_model):
        with pytest.raises(DomainError):
            mle(qubit_model, [1, 0], domain=(1.0, 1.0))


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

    @pytest.mark.parametrize("harness", [mle_monte_carlo, bayes_monte_carlo])
    @pytest.mark.parametrize("trials", [True, 2.5, 0])
    def test_trials_must_be_a_positive_integer(self, qubit_model, harness, trials):
        # True used to run one trial, and 2.5 failed inside range()
        with pytest.raises(ValueError, match="trials must be"):
            harness(qubit_model, 0.6, 50, trials, 3, domain=(0.0, math.pi))

    def test_trials_csv_export(self, qubit_model):
        rep = mle_monte_carlo(qubit_model, 0.8, m=30, trials=5, seed=3,
                              domain=(0.0, math.pi))
        lines = csv_text(*trial_table(rep.estimates)).splitlines()
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
        post = bayes_posterior(qubit_model, [0, 0], domain=(0.0, math.pi))
        assert np.allclose(post.density, post.density[0])

    @pytest.mark.parametrize("seed", [8, 21, 1999])
    def test_flat_prior_mode_matches_mle(self, qubit_model, seed):
        counts = sample(qubit_model, 0.8, 300, seed=seed)[0]
        post = bayes_posterior(qubit_model, counts, domain=(0.0, math.pi))
        est = mle(qubit_model, counts, domain=(0.0, math.pi))
        cell = post.grid[1] - post.grid[0]
        assert abs(posterior_summaries(post).mode - est.theta) <= cell

    def test_large_m_gaussian_width(self, qubit_model):
        post = bayes_posterior(qubit_model, sample(qubit_model, 0.8, 1000, seed=3)[0],
                               domain=(0.0, math.pi))
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
            post = bayes_posterior(qubit_model, sample(qubit_model, 1.0, 400, seed=s)[0],
                                   domain=(0.0, math.pi))
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
        counts = sample(ramsey_model, 0.6, 200, seed=41, stream=0)[0]
        post = bayes_posterior(ramsey_model, counts, domain=(0.0, 1.5))
        assert np.array_equal(rep.first_posterior.grid, post.grid)
        assert np.array_equal(rep.first_posterior.density, post.density)
        assert rep.estimates[0] == posterior_summaries(post).mean

    def test_posterior_csv_export(self, qubit_model):
        post = bayes_posterior(qubit_model, [1, 2], domain=(0.0, math.pi))
        lines = csv_text(*posterior_table(post)).splitlines()
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
        counts = np.zeros(len(mu), dtype=np.int64)
        counts[i_lo] = round(w * m)
        counts[i_hi] = m - counts[i_lo]
        est = method_of_moments(ramsey_model, counts, domain=(0.1, 1.2))
        achieved = float(mu @ counts / m)
        # the closed form inverts the achieved sample moment to full tolerance
        p_est = ramsey_model.probabilities(est.theta)
        assert float(mu @ p_est) == pytest.approx(achieved, abs=1e-9)

    def test_prediction_equals_shot_noise(self, ramsey_model):
        est = method_of_moments(ramsey_model, sample(ramsey_model, 0.6, 10_000, seed=11)[0],
                                domain=(0.1, 1.2))
        # xi_R^2 = 1 for the coherent state: prediction is the shot-noise variance
        assert est.variance_prediction == pytest.approx(
            1.0 / (10_000 * 20), abs=1e-9)

    def test_non_monotone_domain_rejected(self, ramsey_model):
        # <Jz>_phi = -(N/2) sin(phi) turns around at pi/2
        counts = sample(ramsey_model, 0.3, 100, seed=4)[0]
        with pytest.raises(DomainError, match="monotone"):
            method_of_moments(ramsey_model, counts, domain=(0.1, 2.5))

    def test_out_of_range_moment(self, ramsey_model):
        space = ramsey_model.space
        # all outcomes at mu = +j: sample moment +10, far outside f over domain
        counts = np.zeros(space.dim, dtype=np.int64)
        counts[-1] = 50
        with pytest.raises(MomentOutOfRangeError):
            method_of_moments(ramsey_model, counts, domain=(0.1, 1.2))

    def test_estimate_at_the_domain_end_stays_inside(self):
        # N = 2: the moment -1/2 is <J_z> at pi/6, the low end; with R = <J_x> =
        # 1 + 2e-16 the inversion lands one ulp below it
        space = SpinSpace(2)
        model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                                 povm_number_counting(space))
        est = method_of_moments(model, [1, 1, 0], domain=(math.pi / 6, 1.4))
        assert est.sample_moment == -0.5 and est.theta == math.pi / 6

    def test_monte_carlo_spread_matches_prediction(self, ramsey_model):
        rep = moments_monte_carlo(ramsey_model, 0.6, m=2000, trials=300, seed=17,
                                  domain=(0.1, 1.2))
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
