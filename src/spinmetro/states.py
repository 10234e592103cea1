"""Probe states on a spin space: Fock, coherent, NOON/GHZ, twin-Fock, mixtures.

Factories fix the global phase so the first nonzero amplitude is real and
positive, which keeps golden tests deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SpectralDecomposition, above_roundoff, dagger, eig_hermitian
from .spins import SpinAxis, SpinSpace

NORM_TOL = 1e-12
NEGATIVE_EIGENVALUE_TOL = 1e-12


def _fix_global_phase(amp: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(np.abs(amp) > 1e-12)
    if idx.size:
        first = amp[idx[0]]
        amp = amp * (abs(first) / first)
        amp[idx[0]] = abs(first)
    return amp


@dataclass(frozen=True)
class PureState:
    """Normalised amplitude vector over the ascending-mu Dicke basis."""

    space: SpinSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dim,):
            raise ValueError(
                f"expected {self.space.dim} amplitudes, got shape {amp.shape}"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes have non-finite entries")
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes are not normalised: sum |c|^2 = {norm2!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


class MixedState:
    """Density matrix rho = sum_r p_r |phi_r><phi_r|, stored by its support: the
    weights p_r above round-off (`above_roundoff`) and their orthonormal columns.

    `MixedState(space, rho)` validates a dense rho (unit trace, Hermitian, no
    eigenvalue below -1e-12) and keeps its eigenpairs above round-off, weights
    renormalised; `mix` builds the state from a factor (`_from_factor`), with no
    dim x dim array.  The dense `rho` and the full `spectrum` are formed on
    demand and cached; evaluation reads only the support.
    """

    def __init__(self, space: SpinSpace, rho):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (space.dim, space.dim):
            raise ValueError(f"expected a {space.dim}x{space.dim} density matrix")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        dec = eig_hermitian(rho)
        w = dec.eigenvalues
        if w[0] < -NEGATIVE_EIGENVALUE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        keep = above_roundoff(w)
        self._set(space, w[keep] / np.sum(w[keep]), dec.eigenvectors[:, keep])

    @classmethod
    def _from_factor(cls, space: SpinSpace, b: np.ndarray) -> "MixedState":
        """rho = B B^dag for a (dim, K) factor B with unit trace, from the K x K Gram
        matrix B^dag B = U diag(g) U^dag in O(dim K^2): the weights are the g above
        round-off and the support columns B U / sqrt(g)."""
        dec = eig_hermitian(dagger(b) @ b)
        keep = above_roundoff(dec.eigenvalues)
        g = dec.eigenvalues[keep]
        state = cls.__new__(cls)
        state._set(space, g / np.sum(g), (b @ dec.eigenvectors[:, keep]) / np.sqrt(g))
        return state

    def _set(self, space: SpinSpace, weights: np.ndarray, columns: np.ndarray) -> None:
        weights.setflags(write=False)
        columns.setflags(write=False)
        self.space = space
        self._weights = weights
        self._columns = columns

    @cached_property
    def rho(self) -> np.ndarray:
        rho = (self._columns * self._weights) @ dagger(self._columns)
        rho.setflags(write=False)
        return rho

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """Every eigenvalue, ascending: zeros on a kernel basis that completes the
        support to a unitary (from a complete QR of the support columns)."""
        p, phi = self._weights, self._columns
        kernel = np.linalg.qr(phi, mode="complete")[0][:, p.size:]
        return SpectralDecomposition(eigenvalues=np.concatenate([np.zeros(kernel.shape[1]), p]),
                                     eigenvectors=np.hstack([kernel, phi]))

    def density_matrix(self) -> np.ndarray:
        return self.rho


State = PureState | MixedState


def spectral_support(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_r above round-off and the columns phi_r of rho = sum_r p_r |phi_r><phi_r|.

    A pure state is its own single column with weight 1.
    """
    if isinstance(state, PureState):
        return np.ones(1), state.amplitudes[:, None]
    return state._weights, state._columns


def expectation(state: State, operator: np.ndarray) -> complex:
    """<A> = Tr[A B B^dag] on a pure or mixed state, rho = B B^dag (complex in general)."""
    p, phi = spectral_support(state)
    b = phi * np.sqrt(p)
    return complex(np.vdot(b, operator @ b))


def variance(state: State, operator: np.ndarray) -> float:
    """(Delta A)^2 for a Hermitian operator: |A B|^2 - <A>^2 with rho = B B^dag."""
    p, phi = spectral_support(state)
    b = phi * np.sqrt(p)
    moved = operator @ b
    mean = np.vdot(b, moved).real
    return float(np.vdot(moved, moved).real - mean * mean)


def fock(space: SpinSpace, mu: float) -> PureState:
    """Two-mode Fock state |j, mu>: j+mu particles in mode a, j-mu in mode b."""
    idx = space.index_of(mu)
    amp = np.zeros(space.dim, dtype=complex)
    amp[idx] = 1.0
    return PureState(space, amp)


def spin_polarized(space: SpinSpace) -> PureState:
    """All N particles in mode a: |N>_a |0>_b = |j, +j>."""
    return fock(space, space.j)


def twin_fock(space: SpinSpace) -> PureState:
    """Equal occupation |N/2>_a |N/2>_b; requires even N."""
    if space.n_particles % 2:
        raise ValueError(f"twin Fock needs an even N, got {space.n_particles}")
    return fock(space, 0.0)


def coherent_spin(space: SpinSpace, polar: float, azimuth: float = 0.0) -> PureState:
    """Coherent spin state: |j, +j> rotated to the (polar, azimuth) direction.

    Amplitudes are binomial, c_mu = sqrt(C(N, j+mu)) cos^{j+mu}(polar/2)
    sin^{j-mu}(polar/2) e^{i(j-mu)*azimuth} up to the global phase convention,
    built in log space so that the binomial and the powers never overflow or
    underflow on their own at large N;
    the mean spin has length N/2 and points along
    (sin polar cos azimuth, sin polar sin azimuth, cos polar).
    """
    n = space.n_particles
    half = 0.5 * polar
    c, s = math.cos(half), math.sin(half)
    k = np.arange(n + 1)  # j + mu
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        # log|C(N,k)^(1/2) c^k s^(N-k)|, with 0 * log 0 = 0 at the poles
        log_mag = (0.5 * (log_fact[n] - log_fact - log_fact[::-1])
                   + np.where(k > 0, k * np.log(abs(c)), 0.0)
                   + np.where(k < n, (n - k) * np.log(abs(s)), 0.0))
    sign = np.sign(c) ** k * np.sign(s) ** (n - k)
    amp = sign * np.exp(log_mag) * np.exp(1j * (n - k) * azimuth)
    amp = amp / np.linalg.norm(amp)
    return PureState(space, _fix_global_phase(amp))


def noon(space: SpinSpace) -> PureState:
    """(|N>_a|0>_b + |0>_a|N>_b)/sqrt(2): equal superposition of the extremal labels."""
    amp = np.zeros(space.dim, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(space, amp)


def ghz_along(space: SpinSpace, axis) -> PureState:
    """(|j,j>_n + |j,-j>_n)/sqrt(2), the extremal eigenstates of J_n being the
    coherent states along n and -n; for n = z this is noon."""
    axis = SpinAxis.from_spec(axis)
    if axis.vector == (0.0, 0.0, 1.0):
        return noon(space)
    nx, ny, nz = axis.vector
    v_min, v_max = (coherent_spin(space, math.atan2(math.hypot(nx, ny), s * nz),
                                  math.atan2(s * ny, s * nx)).amplitudes for s in (-1.0, 1.0))
    amp = (v_min + v_max) / math.sqrt(2.0)
    amp = amp / np.linalg.norm(amp)
    return PureState(space, _fix_global_phase(amp))


def mix(components) -> MixedState:
    """Convex combination of states: iterable of (weight, PureState|MixedState).

    The factor B holds every component's support columns scaled by
    sqrt(weight * p_r), so rho = B B^dag with one column per pure component.
    """
    components = list(components)
    if not components:
        raise ValueError("mix needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    states = [s for _, s in components]
    if np.any(weights <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(float(np.sum(weights)) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {float(np.sum(weights))!r}, not 1")
    space = states[0].space
    for s in states[1:]:
        if s.space != space:
            raise ValueError("all mixture components must share one spin space")
    columns = []
    for w, s in zip(weights, states):
        p, phi = spectral_support(s)
        columns.append(phi * np.sqrt(w * p))
    return MixedState._from_factor(space, np.hstack(columns))


# --- JSON wire format -------------------------------------------------------
#
# {"n_particles": N, "kind": str, "parameters": {...},
#  "amplitudes": [[re, im], ...]}            for pure states, or
#  "rho": [[[re, im], ...], ...]}            for mixed states.


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def state_to_json(state: State, kind: str | None = None, parameters: dict | None = None) -> dict:
    obj = {
        "n_particles": state.space.n_particles,
        "kind": kind or ("pure" if isinstance(state, PureState) else "mixed"),
        "parameters": dict(parameters or {}),
    }
    if isinstance(state, PureState):
        obj["amplitudes"] = [_pair(z) for z in state.amplitudes]
    else:
        obj["rho"] = [[_pair(z) for z in row] for row in state.rho]
    return obj


def state_from_json(obj: dict) -> State:
    space = SpinSpace(obj["n_particles"])
    if "amplitudes" in obj:
        amp = np.array([complex(re, im) for re, im in obj["amplitudes"]])
        return PureState(space, amp)
    if "rho" in obj:
        rho = np.array([[complex(re, im) for re, im in row] for row in obj["rho"]])
        return MixedState(space, rho)
    raise ValueError("state object carries neither 'amplitudes' nor 'rho'")
