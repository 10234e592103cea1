"""Dense linear-algebra kernels shared by every other module.

All tolerances are expressed in the max-entry norm.  Only the reference
exponential `expm_generator` goes through a Hermitian eigendecomposition;
rotations about a spin axis read the exact spectrum of J_n from
`spins.core_spectrum` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


class NumericalError(RuntimeError):
    """A computation missed the accuracy its result relies on: an eigensolver that
    does not converge, a spectrum that misses its eigenvalues, probabilities that
    do not normalise or a variance below its bound.  Not a configuration error,
    and not a statistical outcome; the CLI exits 4."""


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
        raise NumericalError(f"Hermitian eigensolver did not converge: {err}") from err
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def above_roundoff(w: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues w of a positive semidefinite matrix that
    are above round-off, 16 w.size eps max w.  (A Gram matrix of K copies of one
    column has spurious eigenvalues of up to about 3 eps max w.)"""
    return w > 16 * w.size * np.finfo(float).eps * w[-1]


def expm_generator(h: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i*theta*H) for Hermitian H, built as V diag(e^{-i theta lam}) V^dag."""
    dec = eig_hermitian(h)
    v = dec.eigenvectors
    return (v * np.exp(-1j * theta * dec.eigenvalues)) @ dagger(v)


def max_eig_sym3(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a canonical unit eigenvector of a real symmetric 3x3 matrix.

    The top eigenspace holds the eigenvalues within 1e-9 of the largest, relative
    to the largest |eigenvalue|.  Of e_x, e_y, e_z the first whose projection onto
    it is, within 1e-9, the longest is projected and normalised, so a degenerate
    top eigenvalue gives the same vector, to round-off, on every LAPACK build; for
    a simple one this only fixes the sign, making the largest component positive.
    """
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
    top = v[:, w >= w[-1] - 1e-9 * np.max(np.abs(w))]
    lengths = np.linalg.norm(top, axis=1)  # |projection of e_k| is the norm of row k
    k = int(np.argmax(lengths >= lengths.max() - 1e-9))
    return float(w[-1]), top @ top[k] / lengths[k]
