"""Probe states on a spin space: Fock, coherent, NOON/GHZ, twin-Fock, mixtures.

Factories fix the global phase so the first nonzero amplitude is real and
positive, which keeps golden tests deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SpectralDecomposition, dagger, eig_hermitian, max_abs
from .spins import SpinAxis, SpinSpace, j_spectrum

NORM_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-12


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


@dataclass(frozen=True)
class MixedState:
    """Density matrix with its spectral decomposition cached at construction.

    Eigenvalues in [-1e-12, 0) from round-off are clamped to zero and the
    spectrum renormalised; the stored rho is rebuilt from the clamped
    spectrum so downstream probabilities stay strictly non-negative.
    """

    space: SpinSpace
    rho: np.ndarray
    spectrum: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"expected a {self.space.dim}x{self.space.dim} density matrix"
            )
        asym = max_abs(rho - dagger(rho))
        if asym > 1e-12:
            raise ValueError(f"density matrix not Hermitian: |rho - rho^dag| = {asym:.3e}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        dec = eig_hermitian(rho)
        w = dec.eigenvalues.copy()
        if np.min(w) < -EIGENVALUE_CLAMP:
            raise ValueError(
                f"density matrix has negative eigenvalue {np.min(w):.3e}"
            )
        w = np.clip(w, 0.0, None)
        w = w / np.sum(w)
        dec = SpectralDecomposition(eigenvalues=w, eigenvectors=dec.eigenvectors)
        rho = dec.reconstruct()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", dec)

    def density_matrix(self) -> np.ndarray:
        return self.rho


State = PureState | MixedState


def spectral_support(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_r > 0 and the columns phi_r of rho = sum_r p_r |phi_r><phi_r|.

    A pure state is its own single column with weight 1.
    """
    if isinstance(state, PureState):
        return np.ones(1), state.amplitudes[:, None]
    dec = state.spectrum
    keep = dec.eigenvalues > 0
    return dec.eigenvalues[keep], dec.eigenvectors[:, keep]


def expectation(state: State, operator: np.ndarray) -> complex:
    """<A> on a pure or mixed state (complex in general)."""
    if isinstance(state, PureState):
        return complex(state.amplitudes.conj() @ (operator @ state.amplitudes))
    return complex(np.sum(state.rho * operator.T))


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
    """Equal superposition of the extremal eigenstates of J_n; for n = z this is noon."""
    axis = SpinAxis.from_spec(axis)
    if axis.vector == (0.0, 0.0, 1.0):
        return noon(space)
    dec = j_spectrum(space, axis)
    v_min = _fix_global_phase(dec.eigenvectors[:, 0].copy())
    v_max = _fix_global_phase(dec.eigenvectors[:, -1].copy())
    amp = (v_min + v_max) / math.sqrt(2.0)
    amp = amp / np.linalg.norm(amp)
    return PureState(space, _fix_global_phase(amp))


def mix(components) -> MixedState:
    """Convex combination of states: iterable of (weight, PureState|MixedState)."""
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
    rho = sum(w * s.density_matrix() for w, s in zip(weights, states))
    return MixedState(space, rho)


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
    space = SpinSpace(int(obj["n_particles"]))
    if "amplitudes" in obj:
        amp = np.array([complex(re, im) for re, im in obj["amplitudes"]])
        return PureState(space, amp)
    if "rho" in obj:
        rho = np.array([[complex(re, im) for re, im in row] for row in obj["rho"]])
        return MixedState(space, rho)
    raise ValueError("state object carries neither 'amplitudes' nor 'rho'")
