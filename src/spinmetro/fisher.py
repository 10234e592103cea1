"""Probability models, classical and quantum Fisher information, SLD, bounds.

A probability model is the map theta -> {P(eps|theta)} induced by a probe
state, a rotation generator J_n, and a POVM:

    P(eps|theta) = Tr[E(eps) rho(theta)],    rho(theta) = U rho0 U^dag,
    U = exp(-i*theta*J_n).

Derivatives of the probabilities are analytic, through
d rho/d theta = -i [J_n, rho(theta)]; finite differences appear only in
`qfi_family` where the spectral data itself is differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import dagger, eig_hermitian, max_abs, max_eig_sym3
from .spins import SpinAxis, SpinSpace, j_spectrum, op_j, spin_action
from .states import MixedState, PureState, State, spectral_support

#: probabilities at or below this are treated as vanishing
P_FLOOR = 1e-12
#: derivative magnitude separating flat vanishing outcomes (excluded from F)
#: from ones near a zero of P (kept, as (dP)^2/P)
D_FLOOR = 1e-9

# row-wise dot product; numpy < 2 lacks vecdot and falls back to einsum
_vecdot = getattr(np, "vecdot", None) or (lambda a, b: np.einsum("...k,...k->...", a, b))


class EigenvalueCrossingError(RuntimeError):
    """Spectral family is not smooth at the requested point and step."""


class Povm:
    """Positive-operator valued measure, stored by its structure.

    Outcome eps owns the columns f_j of `vectors` from ``starts[eps]`` up to
    the next outcome's start, and E(eps) = sum_{j in eps} f_j f_j^dag.  The
    number-counting and probe-projection factories write the vectors
    directly.  Dense `elements` are checked (Hermitian, positive
    semidefinite, resolving the identity) and factorised once through eigh;
    eigenvectors whose weight is round-off (below dim * eps of the largest)
    are dropped, but each outcome keeps at least its top eigenvector.
    """

    def __init__(self, labels, elements):
        if len(labels) != len(elements) or not elements:
            raise ValueError("POVM needs one label per element")
        mats = [np.asarray(e, dtype=complex) for e in elements]
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        columns = []
        for e in mats:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            if max_abs(e - dagger(e)) > 1e-10:
                raise ValueError("POVM element is not Hermitian")
            w, u = np.linalg.eigh(e)
            if float(w[0]) < -1e-10:
                raise ValueError("POVM element is not positive semidefinite")
            keep = w > dim * np.finfo(float).eps * w[-1]
            keep[-1] = True
            columns.append(u[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None)))
            total += e
        defect = max_abs(total - np.eye(dim))
        if defect > 1e-10:
            raise ValueError(f"POVM does not resolve the identity: defect {defect:.3e}")
        sizes = [f.shape[1] for f in columns]
        self._set(labels, np.hstack(columns), np.cumsum([0] + sizes[:-1]))

    @classmethod
    def _from_vectors(cls, labels, vectors: np.ndarray, starts) -> "Povm":
        """POVM from vectors that resolve the identity by construction."""
        povm = cls.__new__(cls)
        povm._set(labels, vectors, starts)
        return povm

    def _set(self, labels, vectors, starts) -> None:
        vectors = np.asarray(vectors, dtype=complex)
        starts = np.asarray(starts, dtype=np.intp)
        vectors.setflags(write=False)
        starts.setflags(write=False)
        self.labels = tuple(labels)
        self.vectors = vectors
        self.starts = starts

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __len__(self) -> int:
        return len(self.labels)

    def sizes(self) -> np.ndarray:
        """Number of vectors per outcome."""
        return np.diff(self.starts, append=self.vectors.shape[1])

    @property
    def elements(self) -> tuple:
        """Dense E(eps), built on demand for inspection; evaluation never needs them."""
        ends = self.starts + self.sizes()
        return tuple(self.vectors[:, a:b] @ dagger(self.vectors[:, a:b])
                     for a, b in zip(self.starts, ends))


def povm_number_counting(space: SpinSpace) -> Povm:
    """Particle-number measurement: the Dicke basis |j,mu>, one vector per outcome."""
    labels = tuple(float(m) for m in space.mu)
    return Povm._from_vectors(labels, np.eye(space.dim, dtype=complex),
                              np.arange(space.dim))


def povm_probe_projection(probe: PureState) -> Povm:
    """Two outcomes: the probe, and its orthogonal complement ("orthogonal").

    The vectors are the columns of the Householder reflection that maps |0>
    onto the probe (up to a global phase), so the first column spans the
    probe and the others complete it to an orthonormal basis in O(dim^2).
    """
    psi = probe.amplitudes
    # the reflection maps |0> to phase * psi; this phase makes u[0] = 1 + |psi_0|,
    # so forming u never cancels
    phase = -abs(psi[0]) / psi[0] if psi[0] != 0 else -1.0
    u = -phase * psi
    u[0] += 1.0
    reflection = np.eye(probe.space.dim, dtype=complex) \
        - (2.0 / np.vdot(u, u).real) * np.outer(u, u.conj())
    return Povm._from_vectors(("probe", "orthogonal"), reflection, [0, 1])


def _is_identity(a: np.ndarray) -> bool:
    """True for the square identity, checked without forming a dense one."""
    return (a.shape[0] == a.shape[1] and np.count_nonzero(a) == a.shape[0]
            and bool(np.all(a.diagonal() == 1)))


class ProbabilityModel:
    """theta -> outcome probability table for (probe, axis, POVM).

    With J_n = V diag(lam) V^dag, rho0 = sum_r p_r |phi_r><phi_r| over the
    eigenvectors with p_r > 0 (one term for a pure probe) and the POVM
    vectors f_j, every table comes from the amplitudes

        a_{r,j}(theta) = f_j^dag V e^{-i theta lam} V^dag sqrt(p_r) phi_r,

        P(eps|theta)  = sum_r sum_{j in eps} |a_{r,j}|^2,
        dP/dtheta     = sum_r sum_{j in eps} 2 Re(a_{r,j}^* a'_{r,j}),
        d2P/dtheta2   = sum_r sum_{j in eps} 2 (|a'_{r,j}|^2 + Re(a_{r,j}^* a''_{r,j})),

    with a' and a'' from the same phases times -i lam and -lam^2.  A table over T angles
    costs O(T R M dim) time for probe rank R and M POVM vectors, and
    O(M dim) memory.  Instances are immutable after construction and safe
    to share between threads.
    """

    def __init__(self, probe: State, axis, povm: Povm):
        axis = SpinAxis.from_spec(axis)
        if povm.dim != probe.space.dim:
            raise ValueError("POVM dimension does not match the probe's space")
        self.probe = probe
        self.axis = axis
        self.povm = povm
        self.space = probe.space
        dec = j_spectrum(probe.space, axis)
        v = dec.eigenvectors
        self._lam = dec.eigenvalues
        self._minus_i_lam = -1j * dec.eigenvalues
        # rows V^dag sqrt(p_r) phi_r = conj((sqrt(p_r) phi_r)^dag V): the probe in
        # the generator's eigenbasis, without a dense copy of V^dag
        p, phi = spectral_support(probe)
        self._probe_rows = (dagger(phi * np.sqrt(p)) @ v).conj()
        # (F^dag V)^T: phased probe rows times it give the amplitudes a_{r,j};
        # number counting has F = I, so it is V^T
        f = povm.vectors
        self._povm_basis = v.T if _is_identity(f) else (dagger(f) @ v).T

    @property
    def outcome_labels(self) -> tuple:
        return self.povm.labels

    @property
    def n_outcomes(self) -> int:
        return len(self.povm)

    def _tables(self, thetas, order: int = 0) -> np.ndarray:
        """(order + 1, len(thetas), n_outcomes) stack: P, then dP and d2P up to `order`;
        raises RuntimeError if P does not normalise."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        phases = np.exp(-1j * np.outer(thetas, self._lam))
        out = np.zeros((order + 1, thetas.size, self._povm_basis.shape[1]))
        for row in self._probe_rows:
            x = phases * row
            a = x @ self._povm_basis
            out[0] += a.real ** 2 + a.imag ** 2
            if order:
                x *= self._minus_i_lam
                da = x @ self._povm_basis
                out[1] += a.real * da.real + a.imag * da.imag
            if order > 1:
                x *= self._minus_i_lam
                dda = x @ self._povm_basis
                out[2] += da.real ** 2 + da.imag ** 2 + a.real * dda.real + a.imag * dda.imag
        if len(self.povm) < out.shape[2]:  # some outcome owns several vectors
            out = np.add.reduceat(out, self.povm.starts, axis=2)
        if order:
            out[1:] *= 2.0
        worst = np.abs(out[0].sum(axis=1) - 1.0).max()
        if not worst <= 1e-10:  # a NaN angle must raise too
            raise RuntimeError(f"probabilities do not normalise: defect {worst:.3e}")
        return out

    def probability_table(self, thetas) -> np.ndarray:
        """(len(thetas), n_outcomes) table, non-negative by construction."""
        return self._tables(thetas)[0]

    def probabilities(self, theta: float) -> np.ndarray:
        return self.probability_table([theta])[0]

    def derivative_table(self, thetas) -> np.ndarray:
        """dP/dtheta rows; analytic, equals Tr[E (-i)[J_n, rho(theta)]]."""
        return self._tables(thetas, 1)[1]

    def derivatives(self, theta: float) -> np.ndarray:
        return self.derivative_table([theta])[0]


@dataclass(frozen=True)
class FisherReport:
    """F(theta) with its per-outcome contributions and handling flags."""

    theta: float
    fi: float
    labels: tuple
    contributions: np.ndarray
    flagged: tuple = ()

    def __post_init__(self):
        if abs(self.fi - float(np.sum(self.contributions))) > 1e-10 * max(1.0, abs(self.fi)):
            raise AssertionError("FI does not match the sum of its contributions")


def fisher_information(model: ProbabilityModel, theta: float) -> FisherReport:
    """Classical Fisher information F(theta) = sum_eps (dP/dtheta)^2 / P.

    P and dP come from one kernel pass.  Outcomes with P <= P_FLOOR are
    flagged: "excluded" ones (|dP| <= D_FLOOR) add 0, "limit" ones keep
    (dP)^2/P.  There P > 0, since P = 0 forces every amplitude and so dP to 0,
    and by Cauchy-Schwarz (2 Re sum a* a')^2 / sum |a|^2 <= 4 sum |a'|^2,
    so the ratio stays bounded as P approaches its zero.
    """
    p, dp = model._tables([theta], 1)[:, 0]
    live = p > P_FLOOR
    limit = ~live & (np.abs(dp) > D_FLOOR)
    kept = live | limit
    contributions = np.zeros_like(p)
    contributions[kept] = dp[kept] ** 2 / p[kept]
    labels = model.outcome_labels
    return FisherReport(
        theta=float(theta),
        fi=float(np.sum(contributions)),
        labels=labels,
        contributions=contributions,
        flagged=tuple((labels[e], "limit" if limit[e] else "excluded")
                      for e in np.flatnonzero(~live)),
    )


class SpinMoments(NamedTuple):
    """means[i] = <J_i>, covariance[i, j] = <{J_i, J_j}>/2 - <J_i><J_j>, and the
    QFI matrix gamma, F_Q[rho, J_n] = 4 n^T gamma n (the covariance for a pure probe)."""

    means: np.ndarray
    covariance: np.ndarray
    gamma: np.ndarray


def spin_moments(probe: State | SpinMoments) -> SpinMoments:
    """Means, covariance and QFI matrix of (Jx, Jy, Jz) from the columns J_i phi_r.

    With rho = sum_r p_r |phi_r><phi_r| over its support S (p_r > 0),
    A_i = Phi^dag J_i Phi and w = (p_k - p_l)^2 / (p_k + p_l),

        gamma_ij = 1/2 sum_{k,l in S} w_kl Re(A_i,kl A_j,lk)
                 + sum_{k in S, p_k > P_FLOOR} p_k Re(<J_i phi_k|J_j phi_k> - (A_i A_j)_kk),

    where the second sum is the closed form of every pair with one index
    outside S (there w = p_k).  The columns J_i phi_r come from the ladder
    action, so R support columns cost O(dim R^2) time and O(dim R) memory,
    and a pure probe (R = 1) needs no dense operator.  Moments are returned as given.
    """
    if isinstance(probe, SpinMoments):
        return probe
    p, phi = spectral_support(probe)
    moved = np.stack(spin_action(probe.space, phi))  # moved[i] = J_i Phi
    a = dagger(phi) @ moved
    gram = np.einsum("ikr,jkr->ijr", moved.conj(), moved).real  # Re <J_i phi_r|J_j phi_r>
    means = np.einsum("irr,r->i", a, p).real
    inside = np.where(p > P_FLOOR, p, 0.0)
    coeff = 0.5 * _spectral_weight(p) - inside[:, None]
    gamma = gram @ inside + np.einsum("kl,ikl,jlk->ij", coeff, a, a).real
    return SpinMoments(means, gram @ p - np.outer(means, means), 0.5 * (gamma + gamma.T))


def qfi(probe: State | SpinMoments, axis) -> float:
    """QFI 4 n^T gamma n of a probe (or its SpinMoments) for the rotation about `axis`."""
    n = SpinAxis.from_spec(axis).as_array()
    return float(4.0 * n @ spin_moments(probe).gamma @ n)


def qfi_pure(probe: PureState, axis) -> float:
    """Quantum Fisher information of a pure probe: 4 (Delta J_n)^2."""
    return qfi(probe, axis)


def qfi_mixed(probe: MixedState, axis) -> float:
    """QFI of a mixed probe under exp(-i*theta*J_n)."""
    return qfi(probe, axis)


def qfi_unitary(rho: np.ndarray, h: np.ndarray) -> float:
    """QFI of a density matrix under exp(-i*theta*H), from its spectrum.

    2 sum_{k,k'} (p_k - p_k')^2 / (p_k + p_k') |<k|H|k'>|^2 restricted to
    p_k + p_k' > P_FLOOR.
    """
    dec = eig_hermitian(rho)
    h_t = dagger(dec.eigenvectors) @ h @ dec.eigenvectors
    return float(2.0 * np.sum(_spectral_weight(dec.eigenvalues) * np.abs(h_t) ** 2))


def _spectral_weight(p: np.ndarray, power: int = 2) -> np.ndarray:
    """(p_k - p_k')^power / (p_k + p_k') on p_k + p_k' > P_FLOOR, zero elsewhere;
    power 2 is the QFI weight, power 1 the SLD factor."""
    diff = p[:, None] - p[None, :]
    den = p[:, None] + p[None, :]
    out = np.zeros_like(diff)
    mask = den > P_FLOOR
    out[mask] = diff[mask] ** power / den[mask]
    return out


def sld(probe: State, axis) -> np.ndarray:
    """Symmetric logarithmic derivative L0 of the rotation family at theta=0.

    In the probe eigenbasis, L0_{kk'} = 2i (p_k - p_k')/(p_k + p_k') <k|H|k'>
    on p_k + p_k' > P_FLOOR and zero elsewhere; L0 solves
    {rho, L0} = 2i [rho, H] on the supported block, Tr[rho L0] = 0, and
    Tr[rho L0^2] equals the QFI.
    """
    if isinstance(probe, PureState):
        probe = MixedState(probe.space, probe.density_matrix())
    h = op_j(probe.space, axis)
    dec = probe.spectrum
    p = dec.eigenvalues
    v = dec.eigenvectors
    h_t = dagger(v) @ h @ v
    l_t = 2.0j * _spectral_weight(p, power=1) * h_t
    return v @ l_t @ dagger(v)


def _degenerate_blocks(p: np.ndarray) -> list[np.ndarray]:
    """Group ascending eigenvalues into blocks degenerate within 1e-9 relative."""
    scale = max(1.0, float(np.max(np.abs(p))))
    blocks = []
    start = 0
    for i in range(1, len(p) + 1):
        if i == len(p) or p[i] - p[i - 1] > 1e-9 * scale:
            blocks.append(np.arange(start, i))
            start = i
    return blocks


def _align_to(reference: np.ndarray, vectors: np.ndarray, blocks) -> np.ndarray:
    """Rotate eigenvector columns inside each degenerate block onto `reference`.

    Per block this is an orthogonal Procrustes fit (for 1-dim blocks it
    reduces to phase alignment), which fixes the gauge freedom of the
    decomposition before spectral data can be finite-differenced.
    """
    out = vectors.copy()
    for block in blocks:
        m = dagger(vectors[:, block]) @ reference[:, block]
        u, s, wh = np.linalg.svd(m)
        if float(np.min(s)) < 0.5:
            raise EigenvalueCrossingError(
                "eigenvector branches cannot be matched across the step; "
                "the spectrum crosses or the step is too large"
            )
        out[:, block] = vectors[:, block] @ (u @ wh)
    return out


def qfi_family(family, theta: float, step: float = 1e-5) -> float:
    """QFI of a generic smooth state family theta -> MixedState.

    Evaluates sum_k (dp_k)^2/p_k + 2 sum_{kk'} (p_k-p_k')^2/(p_k+p_k')
    |<dk|k'>|^2 with dp_k and |dk> by central differences of the spectral
    data at theta +/- step, eigenvectors gauge-aligned to the central basis
    first.  Raises EigenvalueCrossingError when branches cannot be matched.
    """
    lo, mid, hi = family(theta - step), family(theta), family(theta + step)
    for s in (lo, mid, hi):
        if not isinstance(s, MixedState):
            raise TypeError("qfi_family expects the family to yield MixedState values")
    p0 = mid.spectrum.eigenvalues
    v0 = mid.spectrum.eigenvectors
    blocks = _degenerate_blocks(p0)
    v_lo = _align_to(v0, lo.spectrum.eigenvectors, blocks)
    v_hi = _align_to(v0, hi.spectrum.eigenvectors, blocks)
    dp = (hi.spectrum.eigenvalues - lo.spectrum.eigenvalues) / (2.0 * step)
    dv = (v_hi - v_lo) / (2.0 * step)

    term1 = 0.0
    for k in range(len(p0)):
        if p0[k] > P_FLOOR:
            term1 += dp[k] ** 2 / p0[k]

    overlap = dagger(dv) @ v0  # overlap[k, k'] = <d theta k | k'>
    return float(term1 + 2.0 * np.sum(_spectral_weight(p0) * np.abs(overlap) ** 2))


def bound_shot_noise(n: int, m: int = 1, h_range: float = 1.0) -> float:
    """Best phase sensitivity of separable probes: 1/(sqrt(N m) |h_max-h_min|)."""
    _check_bound_args(n, m, h_range)
    return 1.0 / (math.sqrt(n * m) * h_range)


def bound_heisenberg(n: int, m: int = 1, h_range: float = 1.0) -> float:
    """Ultimate phase sensitivity: 1/(N sqrt(m) |h_max-h_min|)."""
    _check_bound_args(n, m, h_range)
    return 1.0 / (n * math.sqrt(m) * h_range)


def _check_bound_args(n, m, h_range):
    if n < 1 or m < 1:
        raise ValueError("n and m must both be >= 1")
    if not h_range > 0:
        raise ValueError("h_range must be positive")


def povm_diagonal_coefficients(povm: Povm, observable: np.ndarray) -> np.ndarray:
    """Coefficients c_eps with M = sum_eps c_eps E(eps); rejects other observables.

    c_eps = Tr[M E(eps)] / Tr[E(eps)], read off the POVM vectors as
    sum_{j in eps} f_j^dag M f_j over sum_{j in eps} |f_j|^2.  When the
    vectors are the identity (number counting) that is the diagonal of M,
    and M must vanish off it; no dim x dim product is formed.
    """
    observable = np.asarray(observable, dtype=complex)
    f = povm.vectors
    if _is_identity(f):
        sizes = povm.sizes()
        coeffs = np.add.reduceat(observable.diagonal().real, povm.starts) / sizes
        # the off-diagonal entries of a C-ordered square matrix, viewed without a copy
        n = f.shape[0]
        off = observable.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
        defect = max(max_abs(off), max_abs(observable.diagonal() - np.repeat(coeffs, sizes)))
    else:
        diag = np.sum(f.conj() * (observable @ f), axis=0).real
        tr = np.add.reduceat(np.sum(f.real ** 2 + f.imag ** 2, axis=0), povm.starts)
        if np.any(tr <= 0):
            raise ValueError("POVM element with non-positive trace")
        coeffs = np.add.reduceat(diag, povm.starts) / tr
        recon = (f * np.repeat(coeffs, povm.sizes())) @ dagger(f)
        defect = max_abs(observable - recon)
    if defect > 1e-8:
        raise ValueError(
            f"observable is not diagonal in the POVM basis (defect {defect:.3e})"
        )
    return coeffs


def fisher_lower_bound_moment(
    model: ProbabilityModel, theta: float, observable: np.ndarray
) -> float:
    """Moment lower bound |d<M>/dtheta|^2 / (Delta M)^2 <= F(theta).

    For a unitary family this equals |<[M, H]>|^2/(Delta M)^2 by the
    Ehrenfest theorem.  The observable must be diagonal in the POVM basis of
    the model; a vanishing variance leaves the bound undefined.
    """
    c = povm_diagonal_coefficients(model.povm, observable)
    var, slope = moment_statistics(c, *model._tables([theta], 1)[:, 0])
    if var < P_FLOOR:
        raise ValueError("zero variance of the observable: moment bound undefined")
    return float(slope**2 / var)


def moment_statistics(c: np.ndarray, p: np.ndarray, dp: np.ndarray):
    """(Delta M)^2 and d<M>/dtheta of M = sum_eps c_eps E(eps) from rows p, dp or tables of them.

    Row-wise dot products give a row of a table the same bits as the row alone.
    """
    mean = _vecdot(p, c)
    var = _vecdot((c - np.expand_dims(mean, -1)) ** 2, p)
    return var, _vecdot(dp, c)


def optimal_axis(probe: State | SpinMoments) -> tuple[SpinAxis, float]:
    """Rotation axis maximising the QFI, and the maximal value 4*lambda_max(gamma).

    Takes a probe or its SpinMoments; gamma is the 3x3 QFI matrix of `spin_moments`.
    """
    lam, n_max = max_eig_sym3(spin_moments(probe).gamma)
    return SpinAxis(tuple(n_max)), 4.0 * lam
