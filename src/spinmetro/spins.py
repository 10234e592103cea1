"""Collective spin-j space of N qubits and the SU(2) interferometer rotations.

Conventions, fixed once for the whole package:

* basis is |j, mu> with mu ascending, i.e. |j, -j> first;
* magnetic labels are kept as doubled integers internally so half-integer
  bookkeeping never drifts through floating point;
* rotations are exp(-i*theta*J_n); the phase shifter is the z rotation and
  the symmetric beam splitter is the x rotation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, dagger, max_abs

#: largest residual max|T w - mu w| and norm defect |w^T w - 1| accepted for an
#: eigenvector column w of the core of J_n, relative to max(1, j)
SPECTRUM_TOL = 1e-10

#: elements per scratch array of the eigenvector kernel; its eigenvalue columns
#: run in blocks of this many divided by the dimension
_SPECTRUM_BLOCK = 2**20

#: added to every pivot of the twisted factorisation, so none is exactly zero
_PIVMIN = math.sqrt(np.finfo(float).tiny)

#: above this j the direct closed-form evaluation of the rotation matrix
#: elements starts losing digits; callers get a warning instead of silence
WIGNER_D_ACCURACY_LIMIT_J = 50.0


class ReducedAccuracyWarning(UserWarning):
    pass


_NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


@dataclass(frozen=True)
class SpinAxis:
    """Unit direction on the generalised Bloch sphere.

    Construction normalises the given 3-vector and rejects zero or
    non-finite input, so ``|n| = 1`` holds within 1e-12 by construction.
    """

    vector: tuple[float, float, float]

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ValueError("axis must be a finite 3-vector")
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            raise ValueError("axis vector must be nonzero")
        object.__setattr__(self, "vector", tuple(float(c) for c in v / norm))

    @classmethod
    def from_spec(cls, spec) -> "SpinAxis":
        """Accept an axis name ('x'|'y'|'z'), 'nx,ny,nz' string, 3-sequence, or SpinAxis."""
        if isinstance(spec, SpinAxis):
            return spec
        if isinstance(spec, str):
            key = spec.strip().lower()
            if key in _NAMED_AXES:
                return cls(_NAMED_AXES[key])
            return cls(tuple(float(p) for p in key.split(",")))
        return cls(tuple(spec))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=float)


@dataclass(frozen=True)
class SpinSpace:
    """The permutationally symmetric (N+1)-dimensional subspace of N qubits."""

    n_particles: int

    def __post_init__(self):
        n = self.n_particles
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_particles must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_particles", int(n))

    @property
    def j(self) -> float:
        return self.n_particles / 2.0

    @property
    def dim(self) -> int:
        return self.n_particles + 1

    @property
    def two_mu(self) -> np.ndarray:
        """Doubled magnetic labels 2*mu, ascending; exact integers."""
        n = self.n_particles
        return np.arange(-n, n + 1, 2)

    @property
    def mu(self) -> np.ndarray:
        return self.two_mu / 2.0

    def index_of(self, mu: float) -> int:
        """Basis index of the label mu; rejects labels outside this space."""
        two = 2.0 * mu
        k = int(round(two))
        if abs(two - k) > 1e-9:
            raise ValueError(f"mu={mu} is not a half-integer")
        if (k + self.n_particles) % 2 != 0 or abs(k) > self.n_particles:
            raise ValueError(
                f"mu={mu} is not a valid label for N={self.n_particles}"
            )
        return (k + self.n_particles) // 2


def _half_ladder(space: SpinSpace) -> np.ndarray:
    """<mu+1|Jx|mu> = i<mu+1|Jy|mu> = sqrt(j(j+1) - mu(mu+1))/2 for mu = -j .. j-1."""
    mu = space.mu[:-1]
    return np.sqrt(space.j * (space.j + 1) - mu * (mu + 1)) / 2.0


def spin_action(space: SpinSpace, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx b, Jy b, Jz b) for a vector or the columns of a matrix, by the three-term
    ladder action (J_+ moves weight from mu to mu+1, J_- back) in O(dim) per column."""
    b = np.asarray(b, dtype=complex)
    shape = (-1,) + (1,) * (b.ndim - 1)
    half = _half_ladder(space).reshape(shape)
    edge = np.zeros_like(b[:1])
    raised = np.concatenate([edge, half * b[:-1]])  # (J_+ b)/2
    lowered = np.concatenate([half * b[1:], edge])  # (J_- b)/2
    return raised + lowered, -1j * (raised - lowered), space.mu.reshape(shape) * b


def _dense_j(space: SpinSpace, nx: float, ny: float, nz: float) -> np.ndarray:
    """Dense nx*Jx + ny*Jy + nz*Jz, built from the ladder coefficients."""
    half = _half_ladder(space)
    k = np.arange(space.dim - 1)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[k + 1, k] = half * complex(nx, -ny)
    out[k, k + 1] = half * complex(nx, ny)
    out[np.arange(space.dim), np.arange(space.dim)] = nz * space.mu
    return out


def op_jx(space: SpinSpace) -> np.ndarray:
    return _dense_j(space, 1.0, 0.0, 0.0)


def op_jy(space: SpinSpace) -> np.ndarray:
    return _dense_j(space, 0.0, 1.0, 0.0)


def op_jz(space: SpinSpace) -> np.ndarray:
    return _dense_j(space, 0.0, 0.0, 1.0)


def op_j(space: SpinSpace, axis) -> np.ndarray:
    """Collective spin component n.J = nx*Jx + ny*Jy + nz*Jz (Hermitian, dense)."""
    return _dense_j(space, *SpinAxis.from_spec(axis).vector)


def core_spectrum(space: SpinSpace, axis) -> tuple[np.ndarray, np.ndarray]:
    """(W, D) with J_n = D T D^dag and T W = W diag(mu), W real orthogonal; W is
    assembled from the column blocks of `core_columns`, which describes both."""
    phase, blocks = core_columns(space, axis)
    w = np.empty((space.dim, space.dim))
    for index, columns in blocks:
        w[:, index] = columns
    return w, phase


def core_columns(space: SpinSpace, axis):
    """D of `core_spectrum`, and its W as an iterator of (indices, columns) blocks,
    which together hold every column once; a caller that keeps a few columns of
    each block never holds W whole.

    With n = (sin b cos f, sin b sin f, cos b), J_n = D T D^dag, where
    T = sin b Jx + cos b Jz is a real symmetric tridiagonal core and
    D = diag(e^{-i f (mu + j)}) (the exact diagonalisation of Feng, Wang, Yang &
    Jin, PRE 92, 043307 (2015)).  The eigenvalues of T are exactly mu, so no
    eigenvalue is computed: each column of W comes in O(dim) from a twisted
    factorisation of T - mu (Parlett & Dhillon, LAA 267 (1997); Dhillon &
    Parlett, LAA 387 (2004)), and T is read from the ladder coefficients, never
    formed densely.  Each column is checked for unit norm and a residual
    max|T w - mu w| within SPECTRUM_TOL * max(1, j), as its block is made, and a
    column that misses raises NumericalError; neighbouring eigenvalues are 1
    apart, so that residual also bounds the column's distance from the true
    eigenvector.  D is the running product of e^{-i f}, so the ratio of
    neighbouring entries, which is all J_n sees, keeps round-off accuracy at any
    N; evaluating e^{-i f mu} directly would lose |f mu| ulps in every entry.
    """
    nx, ny, nz = SpinAxis.from_spec(axis).vector
    step = np.full(space.dim, np.exp(-1j * math.atan2(ny, nx)))
    step[0] = 1.0
    return np.cumprod(step), _core_blocks(space, nz, math.hypot(nx, ny))


def _core_blocks(space: SpinSpace, nz: float, sin_b: float):
    """The (indices, columns) blocks of `core_columns` for the core
    T = sin_b Jx + nz Jz, _SPECTRUM_BLOCK elements or fewer to a block."""
    n, dim = space.n_particles, space.dim
    diagonal, ladder = nz * space.mu, sin_b * _half_ladder(space)
    cols = max(1, _SPECTRUM_BLOCK // dim)
    if not ladder.any():  # n = +-z: T = +-Jz is diagonal already, W = I or its reversal
        for start in range(0, dim, cols):
            index = np.arange(start, min(start + cols, dim))
            block = np.zeros((dim, index.size))
            block[index if nz > 0 else n - index, np.arange(index.size)] = 1.0
            yield index, block
        return
    # T is mapped to -T by the signed reversal (S z)_k = (-1)^k z_{N-k}, exactly
    # in floating point, so S takes the eigenvector of mu to that of -mu: the
    # columns of the first `half` eigenvalues give all the others
    half = n // 2 + 1
    sign = np.where(np.arange(dim) % 2, -1.0, 1.0)[:, None]
    for start in range(0, half, cols):
        index = np.arange(start, min(start + cols, half))
        block = np.empty((dim, index.size))
        with np.errstate(all="ignore"):  # a failed column turns into NaN, caught below
            defect = _twisted_eigenvectors(diagonal, ladder, space.mu[index], block)
        if not defect <= SPECTRUM_TOL * max(1.0, space.j):  # NaN-proof
            raise NumericalError(f"eigenvectors of J_n miss mu = -j .. j: residual {defect:.3e}")
        yield index, block
        mirrored = index[index <= n - half]
        if mirrored.size:
            yield n - mirrored, sign * block[::-1, :mirrored.size]


def _twisted_eigenvectors(diagonal, ladder, lam, out) -> float:
    """Write the unit eigenvectors of the tridiagonal T (`diagonal`, off-diagonal
    `ladder`) for its exact eigenvalues `lam` into the columns of `out`; return
    their largest residual max|T w - lam w| or norm defect |w^T w - 1|.

    T - lam = L D+ L^T (pivots d_k, top down) = U D- U^T (pivots u_k, bottom up);
    at the twist r the eigenvector is z_r = 1, z_k = -b_k z_{k+1} / d_k above and
    z_{k+1} = -b_k z_k / u_{k+1} below.  r minimises |gamma_k| plus its rounding
    bound eps (|s_k| + |p_k|), where gamma_k = (a_k - lam) + s_k + p_k with
    s_k = -b_{k-1}^2 / d_{k-1} and p_k = -b_k^2 / u_{k+1}.  Where z_k vanishes,
    as every other entry does at a zero diagonal and lam = 0, s_k and p_k are
    huge and cancel, so the bound keeps the twist off such k.
    """
    # both factorisations run as one top-down recurrence over (dim, 2, cols) arrays:
    # [k, 0] holds row k of the top-down one, [k, 1] row dim - 1 - k of the
    # bottom-up one, whose off-diagonal is the reversed ladder
    shifted = diagonal[:, None] - lam
    dim = shifted.shape[0]
    b = np.stack([ladder, ladder[::-1]], axis=1)[:, :, None]
    b2 = b * b
    # pivots d_k, u_k, which start as the shifted diagonal, and the terms
    # -s_k = b_{k-1}^2 / d_{k-1}, -p_k = b_k^2 / u_{k+1}
    piv = np.stack([shifted, shifted[::-1]], axis=1)
    terms = np.empty_like(piv)
    terms[0] = 0.0
    piv[0] += _PIVMIN
    for above, row, term, coeff in zip(piv, piv[1:], terms[1:], b2):
        np.divide(coeff, above, out=term)
        row -= term
        row += _PIVMIN
    minus_s, minus_p = terms[:, 0], terms[::-1, 1]
    bound = np.abs(shifted - minus_s - minus_p) + np.finfo(float).eps * (
        np.abs(minus_s) + np.abs(minus_p))
    twist = np.argmin(bound, axis=0)
    # ratios z_k / z_{k+1} above the twist and z_{k+1} / z_k below it, 1 elsewhere,
    # multiplied out from the twist; row by row, as cumprod down a column is slower
    rows = np.arange(dim - 1)[:, None, None]
    np.divide(-b, piv[:-1], out=piv[:-1])
    # the reversed half meets the twist at row dim - 1 - twist
    np.copyto(piv[:-1], 1.0, where=rows >= np.stack([twist, dim - 1 - twist]))
    piv[-1] = 1.0
    for below, row in zip(piv[::-1], piv[-2::-1]):
        row *= below
    np.multiply(piv[:, 0], piv[::-1, 1], out=out)
    out /= np.sqrt(np.einsum("kc,kc->c", out, out))
    residual = np.multiply(shifted, out, out=shifted)
    residual[1:] += b[:, 0] * out[:-1]
    residual[:-1] += b[:, 0] * out[1:]
    return float(np.maximum(max_abs(residual), max_abs(np.einsum("kc,kc->c", out, out) - 1.0)))


def op_ladder_plus(space: SpinSpace) -> np.ndarray:
    """Raising operator J_+ = Jx + i*Jy, acting as sqrt(j(j+1)-mu(mu+1))."""
    return _dense_j(space, 1.0, 0.0, 0.0) + 1j * _dense_j(space, 0.0, 1.0, 0.0)


def casimir(space: SpinSpace) -> float:
    """(N/2)(N/2+1); checks it against the diagonal Jx^2+Jy^2+Jz^2 = (J_+J_- + J_-J_+)/2 + Jz^2."""
    half_sq = 2.0 * _half_ladder(space) ** 2
    diagonal = space.mu ** 2 + np.append(half_sq, 0.0) + np.append(0.0, half_sq)
    value = space.j * (space.j + 1.0)
    defect = max_abs(diagonal - value)
    if defect > 1e-10:
        raise NumericalError(
            f"Casimir identity violated by {defect:.3e} for N={space.n_particles}"
        )
    return value


def _as_doubled(x: float, name: str) -> int:
    two = 2.0 * x
    k = int(round(two))
    if abs(two - k) > 1e-9:
        raise ValueError(f"{name}={x} is not half-integer")
    return k


def _parity(k: int) -> float:
    return -1.0 if k % 2 else 1.0


def _jacobi(n: int, a: int, b: int, x: float) -> float:
    """Jacobi polynomial P_n^{(a,b)}(x) by the three-term recurrence."""
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (
            (2.0 * k + a + b) * (2.0 * k + a + b - 2.0) * x + a * a - b * b
        )
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return p


def wigner_d(j: float, mu: float, nu: float, theta: float) -> float:
    """Rotation matrix element d^j_{mu,nu}(theta) = <j,mu| e^{-i theta Jy} |j,nu>.

    Direct evaluation of the closed form: a log-space factorial prefactor,
    powers of sin(theta/2) and cos(theta/2), and a Jacobi polynomial by its
    three-term recurrence.  The three symmetry relations

        d^j_{mu,nu}(theta) = (-1)^{nu-mu} d^j_{nu,mu}(theta)
                           = (-1)^{mu-nu} d^j_{-mu,-nu}(theta),
        d^j_{mu,nu}(-theta) = (-1)^{mu-nu} d^j_{mu,nu}(theta)

    map any label pair onto the corner nu >= |mu| where every exponent is
    non-negative, which also removes the theta = 0, pi singularities of the
    raw formula.
    """
    two_j = _as_doubled(j, "j")
    two_mu = _as_doubled(mu, "mu")
    two_nu = _as_doubled(nu, "nu")
    if two_j < 0:
        raise ValueError(f"j={j} must be non-negative")
    if abs(two_mu) > two_j or abs(two_nu) > two_j:
        raise ValueError(f"labels mu={mu}, nu={nu} out of range for j={j}")
    if (two_j - two_mu) % 2 or (two_j - two_nu) % 2:
        raise ValueError(f"mu={mu} and nu={nu} must differ from j={j} by integers")
    if two_j > 2 * WIGNER_D_ACCURACY_LIMIT_J:
        warnings.warn(
            f"wigner_d at j={j} > {WIGNER_D_ACCURACY_LIMIT_J:g}: "
            "the direct closed form is evaluated with reduced accuracy",
            ReducedAccuracyWarning,
            stacklevel=2,
        )

    sign = 1.0
    a, b = two_mu, two_nu
    if abs(b) < abs(a):
        a, b = b, a
        sign *= _parity((b - a) // 2)
    if b < 0:
        sign *= _parity((a - b) // 2)
        a, b = -a, -b

    n = (two_j - b) // 2
    alpha = (b - a) // 2
    beta = (b + a) // 2
    log_pref = 0.5 * (
        math.lgamma((two_j - b) // 2 + 1)
        + math.lgamma((two_j + b) // 2 + 1)
        - math.lgamma((two_j - a) // 2 + 1)
        - math.lgamma((two_j + a) // 2 + 1)
    )
    half = 0.5 * theta
    return (
        sign
        * math.exp(log_pref)
        * math.sin(half) ** alpha
        * math.cos(half) ** beta
        * _jacobi(n, alpha, beta, math.cos(theta))
    )


def wigner_d_matrix(j: float, theta: float) -> np.ndarray:
    """Full (2j+1)x(2j+1) matrix of d^j_{mu,nu}(theta), labels ascending."""
    two_j = _as_doubled(j, "j")
    labels = [k / 2.0 for k in range(-two_j, two_j + 1, 2)]
    out = np.empty((len(labels), len(labels)))
    for r, mu in enumerate(labels):
        for c, nu in enumerate(labels):
            out[r, c] = wigner_d(j, mu, nu, theta)
    return out


def rotation(space: SpinSpace, axis, theta: float) -> np.ndarray:
    """Collective rotation exp(-i*theta*J_n) = V e^{-i theta mu} V^dag about the given
    Bloch axis, with V = D W from `core_spectrum`; no eigenvalue is computed."""
    w, phase = core_spectrum(space, axis)
    v = phase[:, None] * w
    return (v * np.exp(-1j * theta * space.mu)) @ dagger(v)


def phase_shifter(space: SpinSpace, theta: float) -> np.ndarray:
    """exp(-i*theta*Jz): relative phase between the two modes."""
    return rotation(space, "z", theta)


def beam_splitter(space: SpinSpace, theta: float) -> np.ndarray:
    """exp(-i*theta*Jx): symmetric beam splitter / Ramsey pulse; theta=pi/2 is 50-50."""
    return rotation(space, "x", theta)


def mach_zehnder(space: SpinSpace, theta: float) -> np.ndarray:
    """Balanced interferometer as the explicit three-factor product.

    Built as exp(+i pi/2 Jx) exp(-i theta Jz) exp(-i pi/2 Jx), i.e. with the
    two beam splitters rotating by opposite angles; the product equals the y
    rotation exp(-i theta Jy).
    """
    bs_out = beam_splitter(space, -math.pi / 2)
    bs_in = beam_splitter(space, math.pi / 2)
    return bs_out @ phase_shifter(space, theta) @ bs_in
