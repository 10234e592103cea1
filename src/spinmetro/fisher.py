"""Probability models, classical and quantum Fisher information, SLD, bounds.

A probability model is the map theta -> {P(eps|theta)} induced by a probe
state, a rotation generator J_n, and a POVM:

    P(eps|theta) = Tr[E(eps) rho(theta)],    rho(theta) = U rho0 U^dag,
    U = exp(-i*theta*J_n).

Derivatives of the probabilities are analytic, through
d rho/d theta = -i [J_n, rho(theta)].  Finite differences appear in
`qfi_family`, where the spectral data itself is differentiated, and in
`estimation.bayes_variance_bound`, which differentiates the posterior on its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (NumericalError, above_roundoff, dagger, eig_hermitian, max_abs,
                     max_eig_sym3)
from .spins import SpinAxis, SpinSpace, core_columns, op_j, spin_action
from .states import MixedState, PureState, State, mix, spectral_support

#: probabilities at or below this are treated as vanishing
P_FLOOR = 1e-12
#: derivative magnitude separating flat vanishing outcomes (excluded from F)
#: from ones near a zero of P (kept, as (dP)^2/P)
D_FLOOR = 1e-9
#: complex elements of a probability table's largest per-angle array (its phases
#: over the support, or its amplitudes); its angles run in blocks of this many
#: divided by that array's length
_TABLE_BLOCK = 2**19
#: unit round-off u = eps / 2: a part of a column W^T y within dim u |y| of zero is
#: within the rounding bound of its own product
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _angle_blocks(n_angles: int, width: int):
    """Slices of `n_angles` angles, _TABLE_BLOCK / width (at least 1) to a block."""
    rows = max(1, _TABLE_BLOCK // width)
    return (slice(start, start + rows) for start in range(0, n_angles, rows))


# row-wise dot product; numpy < 2 lacks vecdot and falls back to einsum
_vecdot = getattr(np, "vecdot", None) or (lambda a, b: np.einsum("...k,...k->...", a, b))


class EigenvalueCrossingError(NumericalError):
    """Spectral family is not smooth at the requested point and step."""


class Povm:
    """Positive-operator valued measure, stored by its structure.

    Outcome eps owns the columns f_j of `vectors` from ``starts[eps]`` up to
    the next outcome's start, and E(eps) = sum_{j in eps} f_j f_j^dag.
    `vectors` is None for number counting, whose vectors are the Dicke basis
    itself.  With `complement` set, the vectors F are orthonormal without
    spanning the space, and one last outcome is their complement I - F F^dag,
    which is never formed: the probe projection stores the probe as its one
    vector.  Dense `elements` are checked (finite, Hermitian, positive
    semidefinite, resolving the identity) and factorised once through eigh;
    eigenvectors whose weight is round-off (`above_roundoff`) are dropped, but
    each outcome keeps at least its top eigenvector.
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
            if not np.all(np.isfinite(e)):
                raise ValueError("POVM element has non-finite entries")
            if max_abs(e - dagger(e)) > 1e-10:
                raise ValueError("POVM element is not Hermitian")
            w, u = np.linalg.eigh(e)
            if float(w[0]) < -1e-10:
                raise ValueError("POVM element is not positive semidefinite")
            keep = above_roundoff(w)
            keep[-1] = True
            columns.append(u[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None)))
            total += e
        defect = max_abs(total - np.eye(dim))
        if defect > 1e-10:
            raise ValueError(f"POVM does not resolve the identity: defect {defect:.3e}")
        sizes = [f.shape[1] for f in columns]
        self._set(labels, np.hstack(columns), np.cumsum([0] + sizes[:-1]))

    @classmethod
    def _from_vectors(cls, labels, vectors: np.ndarray | None, starts,
                      complement: bool = False) -> "Povm":
        """POVM from vectors that resolve the identity by construction, with
        their complement as the last outcome (None: the Dicke basis, one vector
        per start)."""
        povm = cls.__new__(cls)
        povm._set(labels, vectors, starts, complement)
        return povm

    def _set(self, labels, vectors, starts, complement: bool = False) -> None:
        starts = np.asarray(starts, dtype=np.intp)
        starts.setflags(write=False)
        if vectors is not None:
            vectors = np.asarray(vectors, dtype=complex)
            vectors.setflags(write=False)
        self.labels = tuple(labels)
        self.vectors = vectors
        self.starts = starts
        self.complement = complement

    @property
    def dim(self) -> int:
        return self.starts.size if self.vectors is None else self.vectors.shape[0]

    def __len__(self) -> int:
        return len(self.labels)

    def sizes(self) -> np.ndarray:
        """Number of vectors per outcome; the complement counts its rank dim - M."""
        stored = self.dim if self.vectors is None else self.vectors.shape[1]
        sizes = np.diff(self.starts, append=stored)
        return np.append(sizes, self.dim - stored) if self.complement else sizes

    @property
    def elements(self) -> tuple:
        """Dense E(eps), built on demand for inspection; evaluation never needs them."""
        f = np.eye(self.dim, dtype=complex) if self.vectors is None else self.vectors
        ends = np.append(self.starts[1:], f.shape[1])
        elements = [f[:, a:b] @ dagger(f[:, a:b]) for a, b in zip(self.starts, ends)]
        if self.complement:
            elements.append(np.eye(self.dim) - f @ dagger(f))
        return tuple(elements)


def povm_number_counting(space: SpinSpace) -> Povm:
    """Particle-number measurement: the Dicke basis |j,mu>, one vector per outcome,
    stored by that structure alone."""
    labels = tuple(float(m) for m in space.mu)
    return Povm._from_vectors(labels, None, np.arange(space.dim))


def povm_probe_projection(probe: PureState) -> Povm:
    """Two outcomes: the probe, and its orthogonal complement ("orthogonal").

    The probe is the one stored vector and the complement I - |psi><psi| is
    the last outcome, so the POVM takes O(dim) memory.
    """
    return Povm._from_vectors(("probe", "orthogonal"), probe.amplitudes[:, None], [0],
                              complement=True)


def _times(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis @ x for a complex matrix x.  A real basis multiplies the (re, im)
    view of x as one real product; numpy would promote it to complex."""
    if np.isrealobj(basis):
        return (basis @ np.ascontiguousarray(x).view(float)).view(complex)
    return basis @ x


def _phases(lam: np.ndarray, thetas: np.ndarray, mirrored: int) -> np.ndarray:
    """(len(lam), T) phases e^{-i theta lam} for lam in kernel order (`_kernel_order`),
    whose first `mirrored` entries are the negatives of its last ones, reversed.

    cos - i sin is evaluated on lam[mirrored:] only; since those negatives are
    exact, the first rows are the last ones' mirror image conjugated.  With
    numpy 2.4 on glibc that is bit-identical to np.exp of the imaginary
    argument, at about half the cost when the support is symmetric.
    """
    arg = np.outer(-lam[mirrored:], thetas)
    out = np.empty((lam.size, thetas.size), dtype=complex)
    np.cos(arg, out=out[mirrored:].real)
    np.sin(arg, out=out[mirrored:].imag)
    np.conjugate(out[::-1][:mirrored], out=out[:mirrored])
    return out


def _above_rounding(rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Set to 0 every real and imaginary part of the complex rows W_b^T v, for a
    block b of columns of an orthogonal W and each column v of `vectors`, that
    lies within dim u |v| of zero, the rounding bound of its own product; return
    the mask of the rows that keep a nonzero part.  A part that survives exceeds
    dim u |v|, far above sqrt(tiny), so the kernel does no subnormal arithmetic."""
    parts = rows.view(float)
    bound = vectors.shape[0] * _UNIT_ROUNDOFF * np.linalg.norm(vectors, axis=0)
    parts[np.abs(parts) <= np.repeat(bound, 2)] = 0.0
    return parts.any(axis=1)


def _kernel_order(mu: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, int]:
    """Indices of the supported entries of the ascending mu = -j .. j in kernel
    order, and how many of them `_phases` mirrors.

    With P the mu > 0 whose -mu is supported too, the order is -P, then the
    unpaired ones, then P, each ascending; -P is mirrored.  Full support is the
    ascending order itself.
    """
    paired = support & support[::-1]  # mu_{dim-1-k} = -mu_k
    lower = np.flatnonzero(paired & (mu < 0))
    upper = np.flatnonzero(paired & (mu > 0))
    unpaired = np.flatnonzero(support & ~(paired & (mu != 0)))
    return np.concatenate([lower, unpaired, upper]), lower.size


def _column_inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re sum_i u_ij^* v_ij for every column j of two C-ordered complex arrays,
    as one real contraction of their (re, im) views."""
    return np.einsum("ij,ij->j", u.view(float), v.view(float)).reshape(-1, 2).sum(axis=1)


class ProbabilityModel:
    """theta -> outcome probability table for (probe, axis, POVM).

    With J_n = V diag(lam) V^dag, V = D W (`core_columns`: W real, D a diagonal
    phase), rho0 = sum_r p_r |phi_r><phi_r| over its support (one term for a
    pure probe) and the POVM vectors f_j, every table comes from the columns
    x_r(theta) = e^{-i theta lam} V^dag sqrt(p_r) phi_r and their amplitudes

        a_{r,j}(theta) = f_j^dag V x_r(theta),

        P(eps|theta)  = sum_r sum_{j in eps} |a_{r,j}|^2,
        dP/dtheta     = sum_r sum_{j in eps} 2 Re(a_{r,j}^* a'_{r,j}),
        d2P/dtheta2   = sum_r sum_{j in eps} 2 (|a'_{r,j}|^2 + Re(a_{r,j}^* a''_{r,j})),

    with a' and a'' from the same phases times -i lam and -lam^2.  The model keeps
    the probe columns V^dag sqrt(p_r) phi_r and the basis G = F^dag V, in which
    D is folded; for number counting G = W, since |D_jj| = 1 drops out of every
    table, and the phased columns meet it in one real product.  A complement
    outcome I - F F^dag takes the same sums over the residual r = x - G^dag a,
    the part of x outside the span of the rows of G, which are orthonormal; its
    derivatives are r' = x' - G^dag a' and r'' = x'' - G^dag a''.

    Every sum runs over the support S: the components mu where some probe
    column, or with a complement outcome some row of G, has a real or imaginary
    part above the rounding bound dim u |column| of its own product W^T y
    (`_above_rounding`, u = eps / 2); the parts within it are set to 0.  Only the
    columns, eigenvalues and columns of G on S are kept.  A parity probe about
    y populates N/2 + 1 components, NOON about z two, a Dicke state about z one.
    By Cauchy-Schwarz, with |g_j| <= 1, the parts set to 0 move an amplitude
    a_{r,j} by at most delta_r = 2 sqrt(2 dim) dim u sqrt(p_r), and its k-th
    derivative by j^k delta_r: they are noise of that size.  A table over T
    angles costs O(T R M |S|) time for probe rank R and M POVM vectors, and
    O(max(M, |S|)) memory per angle: its angles run in blocks (`_angle_blocks`).
    Instances are immutable after construction and safe to share between threads.
    """

    def __init__(self, probe: State, axis, povm: Povm):
        axis = SpinAxis.from_spec(axis)
        if povm.dim != probe.space.dim:
            raise ValueError("POVM dimension does not match the probe's space")
        self.probe = probe
        self.axis = axis
        self.povm = povm
        self.space = probe.space
        phase, blocks = core_columns(probe.space, axis)
        # the probe columns V^dag sqrt(p_r) phi_r = W^T D^* sqrt(p_r) phi_r and G^T =
        # W^T D F^*, in the generator's eigenbasis, taken block by block of W and
        # kept on their support, so that W is never held whole
        p, phi = spectral_support(probe)
        probe_in = phase.conj()[:, None] * phi * np.sqrt(p)
        f = povm.vectors
        povm_in = None if f is None else phase[:, None] * f.conj()
        kept = []
        for index, w in blocks:
            columns = _times(w.T, probe_in)
            keep = _above_rounding(columns, probe_in)
            if f is None:
                rows = w.T
            else:
                rows = _times(w.T, povm_in)
                populated = _above_rounding(rows, povm_in)
                if povm.complement:  # the residual x - G^dag a lives where G does too
                    keep |= populated
            kept.append((index[keep], columns[keep], rows[keep]))
        support = np.zeros(probe.space.dim, dtype=bool)
        support[np.concatenate([index for index, _, _ in kept])] = True
        self._support, self._mirrored = _kernel_order(probe.space.mu, support)
        self._lam = probe.space.mu[self._support]
        self._minus_i_lam = -1j * self._lam[:, None]
        position = np.empty(probe.space.dim, dtype=np.intp)
        position[self._support] = np.arange(self._support.size)
        self._probe_columns = np.empty((self._support.size, p.size), dtype=complex)
        basis_t = np.empty((self._support.size, probe.space.dim if f is None else f.shape[1]),
                           dtype=float if f is None else complex)
        while kept:  # each block's rows are dropped as soon as they are placed
            index, columns, rows = kept.pop()
            self._probe_columns[position[index]] = columns
            basis_t[position[index]] = rows
        self._povm_basis = basis_t.T
        # G^dag, which maps amplitudes back onto the span of the POVM vectors
        self._span = dagger(self._povm_basis) if povm.complement else None
        listed = self._povm_basis.shape[0]
        self._segments = np.append(povm.starts, listed) if povm.complement else povm.starts
        # length of the longest per-angle array of a table: its phases or amplitudes
        self._width = max(self._support.size, listed)

    @property
    def outcome_labels(self) -> tuple:
        return self.povm.labels

    @property
    def n_outcomes(self) -> int:
        return len(self.povm)

    def _tables(self, thetas, order: int = 0) -> np.ndarray:
        """(order + 1, len(thetas), n_outcomes) stack: P, then dP and d2P up to `order`;
        raises NumericalError if P does not normalise."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        basis, span = self._povm_basis, self._span
        listed = basis.shape[0]
        out = np.zeros((order + 1, thetas.size, listed + (span is not None)))
        for angles in _angle_blocks(thetas.size, self._width):
            block = out[:, angles]
            phases = _phases(self._lam, thetas[angles], self._mirrored)
            for column in self._probe_columns.T:
                x = phases * column[:, None]
                a, r = [], []  # derivatives of the amplitudes and of the residual
                for k in range(order + 1):
                    if k:
                        x *= self._minus_i_lam
                    a.append(_times(basis, x))
                    if span is not None:  # x - G^dag a, in the buffer of G^dag a
                        r.append(span @ a[k])
                        np.subtract(x, r[k], out=r[k])
                listed_block = block[..., :listed]
                listed_block[0] += (a[0].real ** 2 + a[0].imag ** 2).T
                if order:
                    listed_block[1] += (a[0].real * a[1].real + a[0].imag * a[1].imag).T
                if order > 1:
                    listed_block[2] += (a[1].real ** 2 + a[1].imag ** 2
                                        + a[0].real * a[2].real + a[0].imag * a[2].imag).T
                if span is not None:
                    block[0, :, listed] += _column_inner(r[0], r[0])
                    if order:
                        block[1, :, listed] += _column_inner(r[0], r[1])
                    if order > 1:
                        block[2, :, listed] += (_column_inner(r[1], r[1])
                                                + _column_inner(r[0], r[2]))
        if len(self.povm) < out.shape[2]:  # some outcome owns several vectors
            out = np.add.reduceat(out, self._segments, axis=2)
        if order:
            out[1:] *= 2.0
        worst = np.abs(out[0].sum(axis=1) - 1.0).max()
        if not worst <= 1e-10:  # a NaN angle must raise too
            raise NumericalError(f"probabilities do not normalise: defect {worst:.3e}")
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
            raise ValueError("FI does not match the sum of its contributions")


def _fisher_terms(p: np.ndarray, dp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-outcome terms (dP)^2/P of F and the masks (live, limit) for rows p, dp of
    any leading shape.

    Outcomes with P <= P_FLOOR are flagged: "excluded" ones (|dP| <= D_FLOOR) add 0,
    "limit" ones keep (dP)^2/P.  There P > 0, since P = 0 forces every amplitude and
    so dP to 0, and by Cauchy-Schwarz (2 Re sum a* a')^2 / sum |a|^2 <= 4 sum |a'|^2,
    so the ratio stays bounded as P approaches its zero.
    """
    live = p > P_FLOOR
    limit = ~live & (np.abs(dp) > D_FLOOR)
    kept = live | limit
    terms = np.zeros_like(p)
    terms[kept] = dp[kept] ** 2 / p[kept]
    return terms, live, limit


def fisher_information(model: ProbabilityModel, theta: float) -> FisherReport:
    """Classical Fisher information F(theta) = sum_eps (dP/dtheta)^2 / P, with its
    per-outcome contributions and flags (`_fisher_terms`), from one kernel pass."""
    contributions, live, limit = _fisher_terms(*model._tables([theta], 1)[:, 0])
    labels = model.outcome_labels
    return FisherReport(
        theta=float(theta),
        fi=float(np.sum(contributions)),
        labels=labels,
        contributions=contributions,
        flagged=tuple((labels[e], "limit" if limit[e] else "excluded")
                      for e in np.flatnonzero(~live)),
    )


def fisher_scan(model: ProbabilityModel, thetas) -> tuple[np.ndarray, np.ndarray]:
    """F at every angle of `thetas`, and the number of flagged outcomes (P <= P_FLOOR)
    there: `fisher_information` over a grid, without a report per angle.

    The angles run in the blocks of `_angle_blocks`, one kernel pass each, and every
    block is reduced to its two rows before the next, so the time is O(T R M |S|)
    over the model's support S and the memory does not grow with the grid length T.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    fi = np.empty(thetas.size)
    flagged = np.empty(thetas.size, dtype=np.intp)
    for block in _angle_blocks(thetas.size, model._width):
        terms, live, limit = _fisher_terms(*model._tables(thetas[block], 1))
        fi[block] = terms.sum(axis=1)
        flagged[block] = np.count_nonzero(~live, axis=1)
        del terms, live, limit  # before the next block's pass allocates its table
    return fi, flagged


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
    means = np.einsum("irr,r->i", a, p).real
    # the central columns (J_i - <J_i>) phi_r leave gamma as it is and the covariance
    # without the cancellation of gram @ p - <J_i><J_j> along the mean spin
    moved -= means[:, None, None] * phi
    a -= means[:, None, None] * np.eye(p.size)
    gram = np.einsum("ikr,jkr->ijr", moved.conj(), moved).real  # Re <J_i phi_r|J_j phi_r>
    inside = np.where(p > P_FLOOR, p, 0.0)
    coeff = 0.5 * _spectral_weight(p) - inside[:, None]
    gamma = gram @ inside + np.einsum("kl,ikl,jlk->ij", coeff, a, a).real
    return SpinMoments(means, gram @ p, 0.5 * (gamma + gamma.T))


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
        probe = mix([(1.0, probe)])
    dec = probe.spectrum
    v = dec.eigenvectors
    h_t = dagger(v) @ op_j(probe.space, axis) @ v
    return v @ (2.0j * _spectral_weight(dec.eigenvalues, power=1) * h_t) @ dagger(v)


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


def bound_shot_noise(n: int, m: int = 1) -> float:
    """Best phase sensitivity of separable probes of N two-level particles: 1/sqrt(N m)."""
    _check_bound_args(n, m)
    return 1.0 / math.sqrt(n * m)


def bound_heisenberg(n: int, m: int = 1) -> float:
    """Ultimate phase sensitivity of N two-level particles: 1/(N sqrt(m))."""
    _check_bound_args(n, m)
    return 1.0 / (n * math.sqrt(m))


def _check_bound_args(n, m):
    if n < 1 or m < 1:
        raise ValueError("n and m must both be >= 1")


def povm_diagonal_coefficients(povm: Povm, observable: np.ndarray) -> np.ndarray:
    """Coefficients c_eps with M = sum_eps c_eps E(eps); rejects other observables.

    c_eps = Tr[M E(eps)] / Tr[E(eps)], read off the POVM vectors as
    sum_{j in eps} f_j^dag M f_j over sum_{j in eps} |f_j|^2; a complement
    outcome takes Tr M minus the sum over every f_j, over dim - M.  For number
    counting that is the diagonal of M, and M must vanish off it; no
    dim x dim product is formed.  A 1-d `observable` is the diagonal of a
    diagonal M, which counting reads in O(dim).  Rejects M with non-finite
    entries.
    """
    observable = np.asarray(observable, dtype=complex)
    if not np.all(np.isfinite(observable)):
        raise ValueError("observable has non-finite entries")
    if observable.shape not in ((povm.dim,), (povm.dim, povm.dim)):
        raise ValueError(f"observable of shape {observable.shape} does not act on "
                         f"dimension {povm.dim}")
    f = povm.vectors
    if f is None:
        sizes = povm.sizes()
        diag = observable if observable.ndim == 1 else observable.diagonal()
        coeffs = np.add.reduceat(diag.real, povm.starts) / sizes
        defect = max_abs(diag - np.repeat(coeffs, sizes))
        if observable.ndim == 2:
            # the off-diagonal entries of a C-ordered square matrix, viewed without a copy
            n = povm.dim
            defect = max(max_abs(observable.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]),
                         defect)
    else:
        if observable.ndim == 1:
            observable = np.diag(observable)
        diag = np.sum(f.conj() * (observable @ f), axis=0).real
        norms = np.sum(f.real ** 2 + f.imag ** 2, axis=0)
        num = np.add.reduceat(diag, povm.starts)
        tr = np.add.reduceat(norms, povm.starts)
        if povm.complement:
            num = np.append(num, np.trace(observable).real - diag.sum())
            tr = np.append(tr, povm.dim - norms.sum())
        if np.any(tr <= 0):
            raise ValueError("POVM element with non-positive trace")
        coeffs = num / tr
        # M = F diag(c - c_rest) F^dag + c_rest I, with c_rest that of the complement
        listed, rest = povm.starts.size, coeffs[-1] if povm.complement else 0.0
        recon = (f * np.repeat(coeffs[:listed] - rest, povm.sizes()[:listed])) @ dagger(f)
        recon[np.diag_indices(povm.dim)] += rest
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
    the model, M = sum_eps c_eps E(eps), so (Delta M)^2 and d<M>/dtheta come
    from one row of P and dP; a vanishing variance leaves the bound undefined.
    """
    c = povm_diagonal_coefficients(model.povm, observable)
    p, dp = model._tables([theta], 1)[:, 0]
    var = _vecdot((c - _vecdot(p, c)) ** 2, p)
    if var < P_FLOOR:
        raise ValueError("zero variance of the observable: moment bound undefined")
    return float(_vecdot(dp, c) ** 2 / var)


def optimal_axis(probe: State | SpinMoments) -> tuple[SpinAxis, float]:
    """Rotation axis maximising the QFI, and the maximal value 4*lambda_max(gamma).

    Takes a probe or its SpinMoments; gamma is the 3x3 QFI matrix of `spin_moments`.
    """
    lam, n_max = max_eig_sym3(spin_moments(probe).gamma)
    return SpinAxis(tuple(n_max)), 4.0 * lam
