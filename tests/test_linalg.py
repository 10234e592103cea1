import numpy as np
import pytest

from spinmetro.linalg import (dagger, eig_hermitian, expm_generator, max_abs,
                              max_eig_sym3)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + dagger(a)) / 2


def test_eig_identity():
    dec = eig_hermitian(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert max_abs(dagger(dec.eigenvectors) @ dec.eigenvectors - np.eye(3)) < 1e-10


def test_eig_already_diagonal_sorted_ascending():
    dec = eig_hermitian(np.diag([2.0, -1.0]))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0])


def test_eig_jx_two_qubits_matches_characteristic_cubic():
    # Jx for N=2 in the ascending Dicke basis; oracle: characteristic cubic
    # det(Jx - t) = -t^3 + 2 a^2 t with a the off-diagonal entry.
    a = 1.0 / np.sqrt(2.0)
    jx = np.array([[0, a, 0], [a, 0, a], [0, a, 0]], dtype=complex)
    roots = np.sort(np.roots([-1.0, 0.0, 2 * a * a, 0.0]).real)
    dec = eig_hermitian(jx)
    assert np.allclose(dec.eigenvalues, roots, atol=1e-10)
    assert np.allclose(dec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-10)


def test_eig_keeps_real_symmetric_input_real(rng):
    a = rng.normal(size=(6, 6))
    a = a + a.T
    dec = eig_hermitian(a)
    assert dec.eigenvectors.dtype == np.float64
    assert max_abs(dec.reconstruct() - a) < 1e-12
    assert eig_hermitian(a.astype(complex)).eigenvectors.dtype == np.complex128
    assert eig_hermitian(np.eye(2, dtype=int)).eigenvectors.dtype == np.float64


def test_eig_rejects_non_hermitian_with_measured_asymmetry():
    with pytest.raises(ValueError, match=r"not Hermitian.*1\.0"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("dim", [1, 2, 5, 17, 32])
def test_reconstruction_and_unitarity(rng, dim):
    a = random_hermitian(rng, dim)
    dec = eig_hermitian(a)
    assert max_abs(dec.reconstruct() - a) < 1e-10
    v = dec.eigenvectors
    assert max_abs(dagger(v) @ v - np.eye(dim)) < 1e-10
    assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


def test_expm_zero_angle_is_identity(rng):
    h = random_hermitian(rng, 6)
    assert max_abs(expm_generator(h, 0.0) - np.eye(6)) < 1e-12


def test_expm_diagonal_generator():
    # generator with eigenvalues (1, 0, -1) on the diagonal
    u = expm_generator(np.diag([1.0, 0.0, -1.0]), 0.4)
    assert np.allclose(np.diag(u), [np.exp(-0.4j), 1.0, np.exp(0.4j)], atol=1e-14)
    assert max_abs(u - np.diag(np.diag(u))) < 1e-14


def test_expm_group_law_inverse_unitarity(rng):
    h = random_hermitian(rng, 8)
    u1 = expm_generator(h, 0.37)
    u2 = expm_generator(h, -1.21)
    assert max_abs(u1 @ u2 - expm_generator(h, -0.84)) < 1e-10
    assert max_abs(dagger(u1) - expm_generator(h, -0.37)) < 1e-12
    assert max_abs(dagger(u1) @ u1 - np.eye(8)) < 1e-10


def _sym3_eigenvalues_closed_form(m):
    # trigonometric solution of the characteristic cubic of a symmetric 3x3
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    q = np.trace(m) / 3.0
    p2 = (m[0, 0] - q) ** 2 + (m[1, 1] - q) ** 2 + (m[2, 2] - q) ** 2 + 2 * p1
    if p2 < 1e-30:
        return np.array([q, q, q])
    p = np.sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(b) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2 * p * np.cos(phi)
    e3 = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    return np.sort([e1, 3 * q - e1 - e3, e3])


def test_max_eig_sym3_diagonal():
    lam, vec = max_eig_sym3(np.diag([1.0, 2.0, 3.0]))
    assert lam == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(np.abs(vec), [0, 0, 1], atol=1e-10)


def test_max_eig_sym3_degenerate_plane():
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for m, lam_max, canonical in (
        (np.diag([2.0, 2.0, 1.0]), 2.0, (1, 0, 0)),  # x-y plane: e_x is the first longest
        (np.diag([1.0, 2.0, 2.0]), 2.0, (0, 1, 0)),  # y-z plane, as for css along x
        (np.zeros((3, 3)), 0.0, (1, 0, 0)),  # threefold (gamma = 0): every axis, so e_x
        # the plane of (1, 1, 0)/sqrt2 and e_z: e_z projects whole, e_x and e_y by 1/sqrt2
        (3.0 * np.eye(3) - 2.0 * np.outer(u, u), 3.0, (0, 0, 1)),
    ):
        lam, vec = max_eig_sym3(m)
        assert lam == pytest.approx(lam_max, abs=1e-12)
        assert np.allclose(vec, canonical, rtol=0, atol=1e-12), (m, vec)


def test_max_eig_sym3_simple_top_has_positive_largest_component():
    u = np.array([0.3, -0.9, 0.1])
    lam, vec = max_eig_sym3(np.outer(u, u))
    assert lam == pytest.approx(u @ u, abs=1e-12)
    assert np.allclose(vec, -u / np.linalg.norm(u), rtol=0, atol=1e-12)


def test_max_eig_sym3_random_matches_cubic_oracle(rng):
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        m = (m + m.T) / 2
        lam, vec = max_eig_sym3(m)
        oracle = _sym3_eigenvalues_closed_form(m)
        assert lam == pytest.approx(oracle[-1], abs=1e-9)
        assert max_abs(m @ vec - lam * vec) < 1e-10
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_max_eig_sym3_rejects_asymmetric():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        max_eig_sym3(m)
