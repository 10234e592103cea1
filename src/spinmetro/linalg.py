"""Dense linear-algebra kernels shared by every other module.

All tolerances are expressed in the max-entry norm.  Matrix exponentials go
through a Hermitian eigendecomposition, which is exact (no series truncation)
for the rotation families used in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm |A|_max, the tolerance currency of this package."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def eig_hermitian(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Real symmetric input stays float64 and gets real eigenvectors; other input
    is treated as complex.  Rejects input whose asymmetry max|A - A^dag|
    exceeds HERMITICITY_TOL; reports the measured asymmetry in the error message.
    """
    a = np.asarray(a)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    asym = max_abs(a - dagger(a))
    if asym > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max|A - A^dag| = {asym:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"Hermitian eigensolver did not converge: {err}") from err
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def expm_generator(h: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i*theta*H) for Hermitian H, built as V diag(e^{-i theta lam}) V^dag."""
    dec = eig_hermitian(h)
    return unitary_from_spectrum(dec, theta)


def unitary_from_spectrum(dec: SpectralDecomposition, theta: float) -> np.ndarray:
    """exp(-i*theta*H) from a precomputed decomposition of H."""
    v = dec.eigenvectors
    phases = np.exp(-1j * theta * dec.eigenvalues)
    return (v * phases) @ dagger(v)


def max_eig_sym3(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a real symmetric 3x3 matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if max_abs(m - m.T) > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max|M - M^T| = {max_abs(m - m.T):.3e}"
        )
    w, v = np.linalg.eigh(m)
    return float(w[-1]), v[:, -1].copy()
