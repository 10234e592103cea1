import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmetro import spins
from spinmetro.linalg import NumericalError, dagger, max_abs
from spinmetro.spins import (SPECTRUM_TOL, ReducedAccuracyWarning, SpinAxis,
                             SpinSpace, beam_splitter, casimir, core_spectrum,
                             mach_zehnder, op_j, op_jx, op_jy, op_jz, op_ladder_plus,
                             phase_shifter, rotation, wigner_d, wigner_d_matrix)


class TestSpinSpace:
    def test_dimensions_and_labels(self):
        space = SpinSpace(5)
        assert space.j == 2.5
        assert space.dim == 6
        assert list(space.two_mu) == [-5, -3, -1, 1, 3, 5]
        assert space.index_of(-2.5) == 0
        assert space.index_of(0.5) == 3

    def test_label_bijection(self):
        space = SpinSpace(8)
        assert [space.index_of(m) for m in space.mu] == list(range(space.dim))

    def test_rejects_bad_labels(self):
        space = SpinSpace(3)
        with pytest.raises(ValueError):
            space.index_of(0.0)  # wrong parity for odd N
        with pytest.raises(ValueError):
            space.index_of(2.5)  # out of range
        with pytest.raises(ValueError):
            SpinSpace(0)


class TestSpinAxis:
    def test_named_and_normalised(self):
        assert SpinAxis.from_spec("z").vector == (0.0, 0.0, 1.0)
        axis = SpinAxis.from_spec("3,0,4")
        assert axis.vector == pytest.approx((0.6, 0.0, 0.8))
        assert np.linalg.norm(SpinAxis((1, 1, 1)).as_array()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_and_nan(self):
        with pytest.raises(ValueError):
            SpinAxis((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SpinAxis((np.nan, 0.0, 1.0))


class TestCollectiveOperators:
    def test_single_qubit_jz(self):
        assert np.allclose(op_jz(SpinSpace(1)), np.diag([-0.5, 0.5]))

    def test_ladder_action_two_qubits(self):
        # J+|1,0> = sqrt(2) |1,1>
        space = SpinSpace(2)
        jp = op_ladder_plus(space)
        out = jp @ np.array([0.0, 1.0, 0.0])
        assert np.allclose(out, [0.0, 0.0, math.sqrt(2.0)])

    def test_jx_spectrum_is_linear(self):
        space = SpinSpace(4)
        vals = np.linalg.eigvalsh(op_jx(space))
        assert np.allclose(vals, [-2, -1, 0, 1, 2], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
    def test_commutators(self, n):
        space = SpinSpace(n)
        jx, jy, jz = op_jx(space), op_jy(space), op_jz(space)
        assert max_abs(jx @ jy - jy @ jx - 1j * jz) < 1e-12
        assert max_abs(jy @ jz - jz @ jy - 1j * jx) < 1e-12
        assert max_abs(jz @ jx - jx @ jz - 1j * jy) < 1e-12

    def test_op_j_combines_components(self, rng):
        space = SpinSpace(3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        expected = n[0] * op_jx(space) + n[1] * op_jy(space) + n[2] * op_jz(space)
        assert max_abs(op_j(space, n) - expected) < 1e-14

    @pytest.mark.parametrize("n,value", [(1, 0.75), (2, 2.0), (10, 30.0)])
    def test_casimir(self, n, value):
        assert casimir(SpinSpace(n)) == pytest.approx(value, abs=1e-12)

    def test_casimir_defect_raises_numerical_error(self, monkeypatch):
        exact = spins._half_ladder
        monkeypatch.setattr(spins, "_half_ladder", lambda space: exact(space) + 1e-3)
        with pytest.raises(NumericalError, match="Casimir identity violated"):
            casimir(SpinSpace(6))


half_integers = st.integers(min_value=1, max_value=16)


class TestWignerD:
    def test_closed_forms(self):
        for theta in np.linspace(-3.0, 3.0, 17):
            assert wigner_d(0.5, 0.5, 0.5, theta) == pytest.approx(
                math.cos(theta / 2), abs=1e-14)
            assert wigner_d(1, 0, 0, theta) == pytest.approx(
                math.cos(theta), abs=1e-13)

    @given(two_j=half_integers, data=st.data())
    def test_zero_angle_is_kronecker(self, two_j, data):
        j = two_j / 2
        two_mu = data.draw(st.integers(0, two_j).map(lambda i: -two_j + 2 * i))
        two_nu = data.draw(st.integers(0, two_j).map(lambda i: -two_j + 2 * i))
        value = wigner_d(j, two_mu / 2, two_nu / 2, 0.0)
        assert value == pytest.approx(1.0 if two_mu == two_nu else 0.0, abs=1e-14)

    @given(two_j=half_integers, data=st.data(),
           theta=st.floats(-math.pi, math.pi, allow_nan=False))
    @settings(max_examples=150)
    def test_symmetry_relations(self, two_j, data, theta):
        j = two_j / 2
        mu = data.draw(st.integers(0, two_j).map(lambda i: (-two_j + 2 * i) / 2))
        nu = data.draw(st.integers(0, two_j).map(lambda i: (-two_j + 2 * i) / 2))
        d = wigner_d(j, mu, nu, theta)
        sign = (-1.0) ** round(mu - nu)
        assert d == pytest.approx(wigner_d(j, nu, mu, -theta), abs=1e-12)
        assert wigner_d(j, mu, nu, -theta) == pytest.approx(sign * d, abs=1e-12)
        assert d == pytest.approx(sign * wigner_d(j, -mu, -nu, theta), abs=1e-12)

    def test_rejects_bad_quantum_numbers(self):
        with pytest.raises(ValueError):
            wigner_d(1, 1.5, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d(1, 0.5, 0, 0.3)  # mu not integer-shifted from j
        with pytest.raises(ValueError):
            wigner_d(0.3, 0.3, 0.3, 0.1)

    def test_large_j_warns_reduced_accuracy(self):
        with pytest.warns(ReducedAccuracyWarning):
            wigner_d(51, 0, 0, 0.3)

    @pytest.mark.parametrize("two_j", [1, 2, 5, 8])
    def test_rows_are_normalised(self, two_j):
        j = two_j / 2
        for theta in np.linspace(0.0, 2 * math.pi, 11):
            d = wigner_d_matrix(j, theta)
            assert np.allclose((d**2).sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("two_j", [1, 3, 6])
    def test_composition_law(self, two_j):
        j = two_j / 2
        t1, t2 = 0.43, -1.17
        product = wigner_d_matrix(j, t1) @ wigner_d_matrix(j, t2)
        assert max_abs(product - wigner_d_matrix(j, t1 + t2)) < 1e-9


SPECTRUM_AXES = ("x", "y", "z", (0.0, -1.0, 0.0),
                 *(tuple(v) for v in np.random.default_rng(4193).normal(size=(2, 3))))


class TestJSpectrum:
    """J_n = V diag(mu) V^dag with V = D W from `core_spectrum` and the eigenvalues
    exactly the labels mu = -j .. j."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 250])
    @pytest.mark.parametrize("axis", SPECTRUM_AXES, ids=["x", "y", "z", "-y", "oblique1", "oblique2"])
    def test_exact_labels_unitary_and_reconstruction(self, n, axis):
        space = SpinSpace(n)
        w, phase = core_spectrum(space, axis)
        assert np.isrealobj(w) and w.shape == (space.dim, space.dim)
        v = phase[:, None] * w
        assert max_abs(dagger(v) @ v - np.eye(space.dim)) < 1e-12
        assert max_abs((v * space.mu) @ dagger(v) - op_j(space, axis)) < 1e-12

    def test_corrupted_core_raises(self, monkeypatch):
        # ladder coefficients 1e-3 too large move the spectrum of the core off mu
        exact = spins._half_ladder
        monkeypatch.setattr(spins, "_half_ladder", lambda space: exact(space) + 1e-3)
        with pytest.raises(NumericalError, match="miss mu"):
            core_spectrum(SpinSpace(6), "y")
        with pytest.raises(NumericalError, match="miss mu"):
            rotation(SpinSpace(6), "x", 0.3)


KERNEL_SIZES = (1, 2, 3, 4, 5, 6, 7, 12, 40, 100, 101, 250, 1000)
# axis at polar angle beta, by beta; pi/2 exactly through x, y and -y, pi through -z
KERNEL_AXES = {
    "0": "z",
    **{name: (math.sin(beta), 0.0, math.cos(beta))
       for name, beta in (("1e-8", 1e-8), ("0.3", 0.3), ("1", 1.0), ("pi-1e-8", math.pi - 1e-8))},
    "x": "x", "y": "y", "-y": (0.0, -1.0, 0.0), "-z": (0.0, 0.0, -1.0),
}


def core_action(space, axis, w):
    """T w for the core T = sin(b) Jx + cos(b) Jz of J_n, from the closed-form
    ladder coefficients sqrt(j(j+1) - mu(mu+1))/2, one column block at a time."""
    nx, ny, nz = SpinAxis.from_spec(axis).vector
    mu = space.mu
    off = math.hypot(nx, ny) * np.sqrt(space.j * (space.j + 1) - mu[:-1] * (mu[:-1] + 1)) / 2
    out = nz * mu[:, None] * w
    out[1:] += off[:, None] * w[:-1]
    out[:-1] += off[:, None] * w[1:]
    return out


def core_residual(space, axis, w, block=256):
    """max |T w - mu w| over the columns of w, the eigenvalue of column c being mu[c]."""
    return max(max_abs(core_action(space, axis, w[:, c:c + block]) - w[:, c:c + block]
                       * space.mu[c:c + block]) for c in range(0, space.dim, block))


class TestTwistedKernel:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("axis", KERNEL_AXES.values(), ids=KERNEL_AXES.keys())
    def test_unit_orthogonal_columns_with_small_residual(self, n, axis):
        space = SpinSpace(n)
        w, phase = core_spectrum(space, axis)
        assert w.dtype == np.float64 and max_abs(np.abs(phase) - 1.0) < 1e-14
        assert max_abs(np.einsum("kc,kc->c", w, w) - 1.0) < 1e-12
        assert max_abs(w.T @ w - np.eye(space.dim)) < 1e-12
        assert core_residual(space, axis, w) <= SPECTRUM_TOL * max(1.0, space.j)

    @pytest.mark.parametrize("n", [n for n in KERNEL_SIZES if n % 2 == 0])
    @pytest.mark.parametrize("axis", ["x", "y", (0.0, -1.0, 0.0)], ids=["x", "y", "-y"])
    def test_zero_eigenvalue_at_zero_diagonal(self, n, axis):
        # T = Jx has a zero diagonal, so every other pivot of T - 0 vanishes and
        # the mu = 0 eigenvector is zero on every odd index
        space = SpinSpace(n)
        w = core_spectrum(space, axis)[0][:, n // 2]
        assert np.all(np.isfinite(w))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert max_abs(core_action(space, axis, w[:, None])) < 1e-12
        assert max_abs(w[1::2]) < 1e-12
        if n <= 100:  # the closed form d^j_{m,0}(pi/2), inside its accuracy range
            d = np.array([wigner_d(space.j, m, 0.0, math.pi / 2) for m in space.mu])
            assert min(max_abs(w - d), max_abs(w + d)) < 1e-12

    def test_n4096(self):
        space = SpinSpace(4096)
        axis = (math.sin(1.0), 0.0, math.cos(1.0))
        w, _ = core_spectrum(space, axis)
        assert max_abs(np.einsum("kc,kc->c", w, w) - 1.0) < 1e-12
        assert core_residual(space, axis, w) <= SPECTRUM_TOL * space.j
        sample = w[:, np.linspace(0, space.n_particles, 64).astype(int)]
        assert max_abs(sample.T @ sample - np.eye(64)) < 1e-12


class TestRotations:
    def test_z_rotation_is_diagonal_phase(self):
        u = rotation(SpinSpace(2), "z", 0.9)
        assert np.allclose(np.diag(u),
                           [np.exp(0.9j), 1.0, np.exp(-0.9j)], atol=1e-12)
        assert max_abs(u - np.diag(np.diag(u))) < 1e-12

    def test_y_rotation_central_element(self):
        u = rotation(SpinSpace(2), "y", 0.7)
        assert u[1, 1].real == pytest.approx(math.cos(0.7), abs=1e-12)
        assert abs(u[1, 1].imag) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_full_turn_parity(self, n, rng):
        axis = rng.normal(size=3)
        u = rotation(SpinSpace(n), axis, 2 * math.pi)
        assert max_abs(u - (-1.0) ** n * np.eye(n + 1)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 20, 51, 100])
    def test_y_rotation_matches_wigner_d(self, n):
        space = SpinSpace(n)
        for theta in (0.0, 0.31, 2.4, -1.2):
            u = rotation(space, "y", theta)
            d = wigner_d_matrix(space.j, theta)
            assert max_abs(u - d) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_x_rotation_phase_pattern(self, n):
        # <mu| e^{-i theta Jx} |nu> = e^{+i pi (mu-nu)/2} d^j_{mu nu}(theta);
        # the conjugate phase pattern reproduces the reverse rotation instead
        space = SpinSpace(n)
        theta = 0.83
        u = rotation(space, "x", theta)
        d = wigner_d_matrix(space.j, theta)
        mu = space.mu
        phases = np.exp(1j * (math.pi / 2) * (mu[:, None] - mu[None, :]))
        assert max_abs(u - phases * d) < 1e-10
        assert max_abs(rotation(space, "x", -theta) - phases.conj() * d) < 1e-10

    def test_beam_splitter_5050_single_particle(self):
        # 50-50 splitter at theta = pi/2 lifts the two-mode matrix
        # (1/sqrt2) [[1, -i], [-i, 1]] to N=1
        u = beam_splitter(SpinSpace(1), math.pi / 2)
        expected = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
        assert max_abs(u - expected) < 1e-12

    def test_phase_shifter_equals_z_rotation(self):
        space = SpinSpace(4)
        assert max_abs(phase_shifter(space, 0.3) - rotation(space, "z", 0.3)) == 0.0


class TestMachZehnder:
    def test_zero_angle_identity(self):
        assert max_abs(mach_zehnder(SpinSpace(4), 0.0) - np.eye(5)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 14, 20])
    def test_three_factor_identity(self, n):
        space = SpinSpace(n)
        for theta in (0.7, -2.1, 0.05):
            assert max_abs(mach_zehnder(space, theta)
                           - rotation(space, "y", theta)) < 1e-10
