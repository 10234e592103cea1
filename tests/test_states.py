import math

import numpy as np
import pytest

from spinmetro.fisher import (ProbabilityModel, povm_number_counting, povm_probe_projection,
                              qfi, sld, spin_moments)
from spinmetro.linalg import dagger, eig_hermitian, max_abs
from spinmetro.spins import SpinAxis, SpinSpace, op_j, op_jx, op_jy, op_jz, rotation
from spinmetro.states import (MixedState, PureState, _fix_global_phase, coherent_spin,
                              expectation, fock, ghz_along, mix, noon,
                              spectral_support, spin_polarized, state_from_json,
                              state_to_json, twin_fock, variance)


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


def extremal_eigenvector_ghz(space, axis):
    """GHZ from the extremal eigenvectors of a dense complex eigh of J_n."""
    v = eig_hermitian(op_j(space, axis)).eigenvectors
    amp = sum(_fix_global_phase(v[:, k].copy()) for k in (0, -1)) / math.sqrt(2.0)
    return _fix_global_phase(amp / np.linalg.norm(amp))


class TestGhzFromCoherentStates:
    @pytest.mark.parametrize("n", [5, 20, 250])
    @pytest.mark.parametrize("axis", ["x", "y", (0.0, 0.0, -1.0), (0.3, -0.5, 0.81)])
    def test_matches_extremal_eigenvectors(self, n, axis):
        space = SpinSpace(n)
        assert max_abs(ghz_along(space, axis).amplitudes
                       - extremal_eigenvector_ghz(space, axis)) < 1e-13

    @pytest.mark.parametrize("axis", ["y", (0.3, -0.5, 0.81)])
    def test_heisenberg_qfi_at_n4096(self, axis):
        n = 4096
        state = ghz_along(SpinSpace(n), axis)
        direction = SpinAxis.from_spec(axis).as_array()
        assert abs(direction @ spin_moments(state).means) < 1e-9 * n
        assert qfi(state, axis) == pytest.approx(n * n, rel=1e-12)


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


def _random_pure(space, rng):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return PureState(space, amp / np.linalg.norm(amp))


def _mixtures(name, rng):
    if name == "noon+twin-fock":
        space = SpinSpace(40)
        return mix([(0.5, noon(space)), (0.5, twin_fock(space))])
    space = SpinSpace(12)
    css = coherent_spin(space, 0.7, 0.3)
    if name == "rank-3":
        return mix([(0.2, css), (0.3, _random_pure(space, rng)),
                    (0.5, _random_pure(space, rng))])
    inner = mix([(0.4, css), (0.6, _random_pure(space, rng))])
    return mix([(0.35, inner), (0.65, twin_fock(space))])


class TestFactorMixture:
    """`mix` builds the support from the K x K Gram matrix of its factor; a
    MixedState from the dense rho of the same state, and the state read back from
    its JSON wire format, are the references."""

    @pytest.mark.parametrize("name", ["noon+twin-fock", "rank-3", "mixed-component"])
    def test_matches_the_dense_path(self, name, rng):
        factor = _mixtures(name, rng)
        space = factor.space
        p, phi = spectral_support(factor)
        assert max_abs(dagger(phi) @ phi - np.eye(p.size)) < 1e-12
        axis = SpinAxis((0.3, -0.5, 0.8))
        thetas = np.array([-0.9, 0.0, 0.4, 2.2])
        povms = (povm_number_counting(space), povm_probe_projection(_random_pure(space, rng)))
        want = [ProbabilityModel(factor, axis, povm)._tables(thetas, 2) for povm in povms]
        scale = space.n_particles ** 2
        for dense in (MixedState(space, factor.rho), state_from_json(state_to_json(factor))):
            q, psi = spectral_support(dense)
            assert q.size == p.size
            assert max_abs(p - q) < 1e-12
            assert max_abs(phi @ dagger(phi) - psi @ dagger(psi)) < 1e-12
            for povm, table in zip(povms, want):
                tables = ProbabilityModel(dense, axis, povm)._tables(thetas, 2)
                assert max_abs(tables - table) < 1e-12
            for got, ref in zip(spin_moments(dense), spin_moments(factor)):
                assert max_abs(got - ref) < 1e-12 * scale
            assert max_abs(sld(dense, axis) - sld(factor, axis)) < 1e-12 * scale

    def test_on_demand_rho_and_spectrum(self, rng):
        state = _mixtures("rank-3", rng)
        p, phi = spectral_support(state)
        dec = state.spectrum
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.array_equal(dec.eigenvalues[-p.size:], p)
        assert max_abs(dec.eigenvalues[:-p.size]) == 0.0
        v = dec.eigenvectors
        assert max_abs(dagger(v) @ v - np.eye(state.space.dim)) < 1e-13
        assert max_abs(dec.reconstruct() - state.rho) < 1e-15
        assert state.density_matrix() is state.rho
        assert not state.rho.flags.writeable

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_rank_of_a_state_mixed_with_itself(self, n, rng):
        space = SpinSpace(n)
        psi = _random_pure(space, rng)
        phased = PureState(space, np.exp(0.7j) * psi.amplitudes)
        for parts in ([(0.3, psi), (0.7, psi)], [(0.1, psi), (0.2, phased), (0.7, psi)]):
            p, phi = spectral_support(mix(parts))
            assert p.size == 1 and p[0] == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(phi[:, 0], psi.amplitudes)) == pytest.approx(1.0, abs=1e-14)

    def test_rank_with_a_near_duplicate(self, rng):
        # rho = 0.4 |psi><psi| + 0.6 |psi'><psi'| has a second eigenvalue of about
        # 0.24 (1 - |<psi|psi'>|^2) = 2.4e-11, far above round-off
        space = SpinSpace(30)
        psi = _random_pure(space, rng)
        near = psi.amplitudes + 1e-5 * _random_pure(space, rng).amplitudes
        near = PureState(space, near / np.linalg.norm(near))
        state = mix([(0.4, psi), (0.6, near)])
        p, _ = spectral_support(state)
        assert p.size == 2
        exact = np.linalg.eigvalsh(state.rho)[-2:]
        assert max_abs(p - exact) < 1e-15

    def test_rank_with_a_mixed_component(self, rng):
        space = SpinSpace(9)
        a, b = _random_pure(space, rng), _random_pure(space, rng)
        inner = mix([(0.5, a), (0.5, b)])
        assert spectral_support(mix([(0.3, inner), (0.7, a)]))[0].size == 2
        assert spectral_support(mix([(0.3, inner), (0.7, inner)]))[0].size == 2
        third = mix([(0.3, inner), (0.7, fock(space, 0.5))])
        assert spectral_support(third)[0].size == 3


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
