import math

import numpy as np
import pytest

from spinmetro.linalg import max_abs
from spinmetro.spins import SpinSpace, op_j, op_jx, op_jy, op_jz, rotation
from spinmetro.states import (MixedState, PureState, coherent_spin,
                              expectation, fock, ghz_along, mix, noon,
                              spin_polarized, state_from_json, state_to_json,
                              twin_fock, variance)


class TestFock:
    def test_spin_polarized(self):
        state = fock(SpinSpace(4), 2.0)
        assert np.allclose(state.amplitudes, [0, 0, 0, 0, 1])
        assert np.allclose(spin_polarized(SpinSpace(4)).amplitudes, state.amplitudes)

    def test_twin_fock(self):
        state = twin_fock(SpinSpace(4))
        assert np.allclose(state.amplitudes, [0, 0, 1, 0, 0])
        with pytest.raises(ValueError):
            twin_fock(SpinSpace(3))

    def test_half_integer_label(self):
        # mu = 1/2 on N=3 means 2 particles in mode a, 1 in mode b
        state = fock(SpinSpace(3), 0.5)
        assert np.flatnonzero(state.amplitudes).tolist() == [2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock(SpinSpace(3), 2.5)


class TestCoherentSpin:
    def test_polar_zero_is_polarized(self):
        space = SpinSpace(6)
        assert np.allclose(coherent_spin(space, 0.0).amplitudes,
                           spin_polarized(space).amplitudes)

    def test_single_qubit_equator(self):
        state = coherent_spin(SpinSpace(1), math.pi / 2)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_equator_binomial_weights(self):
        # |c_mu|^2 = C(6, 3+mu) / 2^6 on the equator
        space = SpinSpace(6)
        state = coherent_spin(space, math.pi / 2)
        expected = np.array([math.comb(6, k) for k in range(7)]) / 64.0
        assert np.allclose(np.abs(state.amplitudes) ** 2, expected, atol=1e-12)

    @pytest.mark.parametrize("polar,azimuth", [
        (0.4, 0.0), (1.2, 2.2), (2.6, -1.0), (math.pi / 2, 0.7),
    ])
    def test_mean_spin_length_and_direction(self, polar, azimuth):
        space = SpinSpace(7)
        state = coherent_spin(space, polar, azimuth)
        mean = np.array([expectation(state, op).real
                         for op in (op_jx(space), op_jy(space), op_jz(space))])
        assert np.linalg.norm(mean) == pytest.approx(space.n_particles / 2, abs=1e-10)
        direction = np.array([
            math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth),
            math.cos(polar),
        ])
        assert np.allclose(mean, (space.n_particles / 2) * direction, atol=1e-10)

    def test_large_n_equator_is_normalised_binomial(self):
        # C(2000, k) overflows a float; the exact integer ratio does not
        n = 2000
        state = coherent_spin(SpinSpace(n), math.pi / 2)
        expected = np.array([math.comb(n, k) / 2**n for k in range(n + 1)])
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)
        assert max_abs(np.abs(state.amplitudes) ** 2 - expected) < 1e-13

    def test_phase_convention(self):
        state = coherent_spin(SpinSpace(5), 1.1, 0.9)
        first = state.amplitudes[np.flatnonzero(np.abs(state.amplitudes) > 1e-12)[0]]
        assert first.imag == pytest.approx(0.0, abs=1e-15)
        assert first.real > 0


class TestNoonAndGhz:
    def test_noon_amplitudes(self):
        state = noon(SpinSpace(10))
        amp = state.amplitudes
        assert amp[0] == pytest.approx(1 / math.sqrt(2))
        assert amp[-1] == pytest.approx(1 / math.sqrt(2))
        assert np.all(amp[1:-1] == 0)

    def test_single_qubit_noon_is_equator(self):
        assert np.allclose(noon(SpinSpace(1)).amplitudes,
                           coherent_spin(SpinSpace(1), math.pi / 2).amplitudes)

    def test_ghz_z_equals_noon_exactly(self):
        space = SpinSpace(6)
        assert np.array_equal(ghz_along(space, "z").amplitudes,
                              noon(space).amplitudes)

    def test_ghz_x_supported_on_extremal_jx(self):
        space = SpinSpace(2)
        state = ghz_along(space, "x")
        jx = op_jx(space)
        # mean Jx vanishes; Jx^2 takes the extremal value j^2
        assert expectation(state, jx).real == pytest.approx(0.0, abs=1e-10)
        assert expectation(state, jx @ jx).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("axis", ["x", "y", (0.3, -0.5, 0.81)])
    def test_ghz_overlap_oscillation(self, axis):
        # |<GHZ| e^{-i theta J_n} |GHZ>|^2 = cos^2(N theta / 2) on its own axis
        space = SpinSpace(5)
        state = ghz_along(space, axis)
        for theta in np.linspace(0.0, 1.0, 7):
            u = rotation(space, axis, theta)
            overlap = abs(state.amplitudes.conj() @ (u @ state.amplitudes)) ** 2
            assert overlap == pytest.approx(
                math.cos(space.n_particles * theta / 2) ** 2, abs=1e-10)


class TestMix:
    def test_single_component_matches_density_matrix(self):
        state = noon(SpinSpace(4))
        mixed = mix([(1.0, state)])
        assert max_abs(mixed.rho - state.density_matrix()) < 1e-12

    def test_maximally_mixed_qubit(self):
        space = SpinSpace(1)
        mixed = mix([(0.5, fock(space, 0.5)), (0.5, fock(space, -0.5))])
        assert np.allclose(mixed.spectrum.eigenvalues, [0.5, 0.5])

    def test_noon_plus_twin_fock_rank_two(self):
        space = SpinSpace(4)
        mixed = mix([(0.5, noon(space)), (0.5, twin_fock(space))])
        assert np.trace(mixed.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.sum(mixed.spectrum.eigenvalues > 1e-10) == 2

    def test_rejects_bad_weights_and_spaces(self):
        space = SpinSpace(2)
        with pytest.raises(ValueError):
            mix([(0.5, noon(space)), (0.4, twin_fock(space))])
        with pytest.raises(ValueError):
            mix([(-0.5, noon(space)), (1.5, twin_fock(space))])
        with pytest.raises(ValueError):
            mix([(0.5, noon(space)), (0.5, noon(SpinSpace(3)))])


class TestTypeInvariants:
    def test_pure_state_requires_normalisation(self):
        with pytest.raises(ValueError):
            PureState(SpinSpace(1), np.array([1.0, 1.0]))

    def test_pure_state_requires_shape(self):
        with pytest.raises(ValueError):
            PureState(SpinSpace(2), np.array([1.0, 0.0]))

    def test_mixed_state_requires_unit_trace_and_hermiticity(self):
        space = SpinSpace(1)
        with pytest.raises(ValueError):
            MixedState(space, np.diag([0.5, 0.4]))
        with pytest.raises(ValueError):
            MixedState(space, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            MixedState(space, np.diag([1.2, -0.2]))

    def test_mixed_state_clamps_roundoff_negatives(self):
        space = SpinSpace(1)
        eps = 5e-13
        state = MixedState(space, np.diag([1.0 + eps, -eps]))
        assert np.all(state.spectrum.eigenvalues >= 0.0)
        assert float(np.sum(state.spectrum.eigenvalues)) == pytest.approx(1.0, abs=1e-15)

    def test_variance_nonnegative(self, rng):
        space = SpinSpace(3)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = PureState(space, amp / np.linalg.norm(amp))
        assert variance(state, op_j(space, (0.3, 0.2, 0.93))) >= -1e-12


class TestSerialization:
    def test_pure_round_trip(self):
        state = coherent_spin(SpinSpace(5), 0.9, 1.7)
        obj = state_to_json(state, kind="css", parameters={"polar": 0.9, "azimuth": 1.7})
        assert obj["kind"] == "css"
        assert obj["n_particles"] == 5
        back = state_from_json(obj)
        assert isinstance(back, PureState)
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-15)

    def test_mixed_round_trip(self):
        space = SpinSpace(3)
        state = mix([(0.25, noon(space)), (0.75, spin_polarized(space))])
        back = state_from_json(state_to_json(state))
        assert isinstance(back, MixedState)
        assert max_abs(back.rho - state.rho) < 1e-12

    def test_complex_entries_are_re_im_pairs(self):
        obj = state_to_json(noon(SpinSpace(2)))
        assert obj["amplitudes"][0] == [pytest.approx(1 / math.sqrt(2)), 0.0]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            state_from_json({"n_particles": 2, "kind": "pure", "parameters": {}})
