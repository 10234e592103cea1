"""spinmetro: SU(2) interferometry and phase-estimation toolkit.

Simulates two-mode interferometers on the permutationally symmetric spin
space, quantifies achievable sensitivity through classical and quantum
Fisher information, runs maximum-likelihood / Bayesian / method-of-moments
estimators in Monte-Carlo harnesses, and classifies probe states by spin
squeezing and useful multiparticle entanglement depth.
"""

__version__ = "0.1.0"

from .entanglement import (DepthReport, FisherSqueezingCheck, SqueezingReport,
                           entanglement_depth, k_bound, squeezing,
                           squeezing_fisher_check, useful_entanglement,
                           write_staircase_csv)
from .estimation import (DEFAULT_DOMAIN, BayesReport, BorderSupportError,
                         DomainError, EstimationReport, MleEstimate,
                         MomentsEstimate, OutcomeSample, PosteriorDistribution,
                         PosteriorSummary, StatisticalFailure,
                         bayes_monte_carlo, bayes_posterior,
                         bayes_variance_bound, crlb_saturation_residual,
                         kl_divergence, log_likelihood, method_of_moments,
                         mle, mle_monte_carlo, moments_monte_carlo,
                         philox_stream, posterior_summaries, sample)
from .fisher import (EigenvalueCrossingError, FisherReport, Povm,
                     ProbabilityModel, bound_heisenberg, bound_shot_noise,
                     fisher_information, fisher_lower_bound_moment,
                     optimal_axis, povm_number_counting,
                     povm_probe_projection, qfi, qfi_family, qfi_mixed,
                     qfi_pure, qfi_unitary, sld, spin_moments)
from .linalg import (SpectralDecomposition, eig_hermitian, expm_generator,
                     max_eig_sym3)
from .reporting import write_posterior_csv, write_trials_csv
from .spins import (ReducedAccuracyWarning, SpinAxis, SpinSpace,
                    beam_splitter, casimir, j_spectrum, mach_zehnder, op_j,
                    op_jx, op_jy, op_jz, phase_shifter, rotation, wigner_d,
                    wigner_d_matrix)
from .states import (MixedState, PureState, coherent_spin, expectation, fock,
                     ghz_along, mix, noon, spin_polarized, state_from_json,
                     state_to_json, twin_fock, variance)
