"""The spin-moment kernel: ladder action, moments and the QFI matrix.

Dense references are the operators of `op_j` and the spectral QFI formula
over the full eigenbasis of rho; the large-N checks use closed forms.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spinmetro.entanglement import squeezing
from spinmetro.fisher import (_spectral_weight, optimal_axis, qfi, qfi_unitary,
                              spin_moments)
from spinmetro.linalg import max_abs
from spinmetro.spins import (SpinAxis, SpinSpace, op_j, op_jx, op_jy, op_jz,
                             spin_action)
from spinmetro.states import (MixedState, PureState, coherent_spin, expectation,
                              mix, noon, twin_fock, variance)

SIZES = (1, 2, 5, 12, 40)
AXES = ("x", "y", "z", "0.3,-0.5,0.8")


def _random_pure(space, rng):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return PureState(space, amp / np.linalg.norm(amp))


def _probes(n, rng):
    """Pure, rank-2, full-rank and near-rank-1 probes on N = n."""
    space = SpinSpace(n)
    css = coherent_spin(space, 0.7, 0.3)
    psi = _random_pure(space, rng)
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    full = g @ g.conj().T
    return {
        "pure": psi,
        "rank-2": mix([(0.3, css), (0.7, psi)]),
        "full-rank": MixedState(space, full / np.trace(full).real),
        "near-rank-1": mix([(1 - 1e-13, css), (1e-13, noon(space))]),
    }


def _dense_gamma(state):
    """QFI matrix by the spectral formula over the full eigenbasis of rho."""
    p, v = np.linalg.eigh(state.density_matrix())
    space = state.space
    tilde = [v.conj().T @ o @ v for o in (op_jx(space), op_jy(space), op_jz(space))]
    weight = _spectral_weight(p)
    gamma = np.array([[0.5 * np.einsum("kl,lk,kl->", weight, tilde[i], tilde[j])
                       for j in range(3)] for i in range(3)])
    return 0.5 * (gamma + gamma.T).real


def _close(got, want, rel=1e-10):
    return max_abs(np.asarray(got) - want) <= rel * max(1.0, max_abs(want))


@pytest.mark.parametrize("n", SIZES)
def test_spin_action_matches_dense_operators(n, rng):
    space = SpinSpace(n)
    b = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    dense = (op_jx(space), op_jy(space), op_jz(space))
    for block in (b, b[:, 0]):
        for moved, op in zip(spin_action(space, block), dense):
            assert moved.shape == block.shape
            assert _close(moved, op @ block, rel=1e-14)


@pytest.mark.parametrize("n", SIZES)
def test_moments_match_dense_references(n, rng):
    for name, state in _probes(n, rng).items():
        space = state.space
        moments = spin_moments(state)
        assert _close(moments.gamma, _dense_gamma(state)), name
        for axis in AXES:
            h = op_j(space, axis)
            vec = SpinAxis.from_spec(axis).as_array()
            assert _close(vec @ moments.means, expectation(state, h).real), (name, axis)
            assert _close(vec @ moments.covariance @ vec, variance(state, h)), (name, axis)
            assert _close(qfi(state, axis), qfi_unitary(state.density_matrix(), h)), \
                (name, axis)


def test_pure_gamma_is_the_covariance(rng):
    moments = spin_moments(_random_pure(SpinSpace(12), rng))
    assert _close(moments.gamma, moments.covariance, rel=1e-13)


class TestClosedFormsAtN4096:
    N = 4096

    def test_twin_fock(self):
        probe = twin_fock(SpinSpace(self.N))
        for axis in ("x", "y"):
            assert qfi(probe, axis) == pytest.approx(self.N**2 / 2 + self.N, rel=1e-12)
        assert qfi(probe, "z") == pytest.approx(0.0, abs=1e-9)

    def test_noon(self):
        probe = noon(SpinSpace(self.N))
        assert qfi(probe, "z") == pytest.approx(self.N**2, rel=1e-12)
        axis, value = optimal_axis(probe)
        assert abs(axis.vector[2]) > 1 - 1e-12
        assert value == pytest.approx(self.N**2, rel=1e-12)

    def test_coherent_state_along_x_is_not_squeezed(self):
        probe = coherent_spin(SpinSpace(self.N), math.pi / 2)
        report = squeezing(probe, ("z", "y", "x"))
        assert report.xi_r_squared == pytest.approx(1.0, rel=1e-10)

    def test_coherent_state_covariance_does_not_cancel_along_the_mean_spin(self):
        # gram @ p - <J_x>^2 cancelled j^2 to leave -9.3e-10 of an exact 0
        cov = spin_moments(coherent_spin(SpinSpace(self.N), math.pi / 2)).covariance
        assert 0.0 <= cov[0, 0] <= 1e-12
        assert cov[1, 1] == pytest.approx(self.N / 4, rel=1e-12)
        assert cov[2, 2] == pytest.approx(self.N / 4, rel=1e-12)

    def test_oblique_coherent_state_covariance_is_positive_semidefinite(self):
        # its smallest eigenvalue, 0 along the mean spin, read -2.9e-9 before
        cov = spin_moments(coherent_spin(SpinSpace(self.N), 1.1, 0.4)).covariance
        assert np.linalg.eigvalsh(cov)[0] >= -1e-12


def test_pure_probe_moments_allocate_no_dense_operator():
    probe = coherent_spin(SpinSpace(2048), math.pi / 2)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        qfi(probe, "y")
        optimal_axis(probe)
        squeezing(probe, ("z", "y", "x"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    # one dense 2049 x 2049 complex operator alone would take 64 MB
    assert peak - start < 16 * 2**20
