"""Spin squeezing and multiparticle-entanglement diagnostics.

Useful entanglement is witnessed by Fisher information exceeding N; the
k-producibility staircase s*k^2 + r^2 (s = floor(N/k), r = N - s*k) grades
how many particles must share entanglement to explain a measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fisher import SpinMoments, qfi, spin_moments
from .reporting import write_csv
from .spins import SpinAxis
from .states import State

DENOMINATOR_FLOOR = 1e-12


def _orthonormal_triple(axes) -> tuple[SpinAxis, SpinAxis, SpinAxis]:
    triple = tuple(SpinAxis.from_spec(a) for a in axes)
    if len(triple) != 3:
        raise ValueError("need exactly three axes")
    for i in range(3):
        for k in range(i + 1, 3):
            dot = float(np.dot(triple[i].as_array(), triple[k].as_array()))
            if abs(dot) > 1e-10:
                raise ValueError(
                    f"axes {i} and {k} are not orthogonal (n_i . n_k = {dot:.3e})"
                )
    return triple


@dataclass(frozen=True)
class SqueezingReport:
    """Spin-squeezing parameters for an orthogonal axis triple (n1, n2, n3).

    xi_r_squared = N (Delta J_n1)^2 / <J_n3>^2 and the separability-test
    variant xi_r_prime_squared with the full transverse spin length in the
    denominator; either is None when its denominator falls below 1e-12.
    """

    n_particles: int
    xi_r_squared: float | None
    xi_r_prime_squared: float | None
    axes: tuple[SpinAxis, SpinAxis, SpinAxis]
    variance_n1: float
    mean_n2: float
    mean_n3: float


def squeezing(probe: State, axes) -> SqueezingReport:
    """Both squeezing parameters from first and second moments of the probe."""
    triple = _orthonormal_triple(axes)
    return _squeezing(spin_moments(probe), probe.space.n_particles, triple)


def _squeezing(moments: SpinMoments, n: int, triple) -> SqueezingReport:
    n1, n2, n3 = triple
    var1 = float(n1.as_array() @ moments.covariance @ n1.as_array())
    m2 = float(n2.as_array() @ moments.means)
    m3 = float(n3.as_array() @ moments.means)
    den_r = m3 * m3
    den_rp = m2 * m2 + m3 * m3
    xi_r = n * var1 / den_r if den_r > DENOMINATOR_FLOOR else None
    xi_rp = n * var1 / den_rp if den_rp > DENOMINATOR_FLOOR else None
    return SqueezingReport(
        n_particles=n, xi_r_squared=xi_r, xi_r_prime_squared=xi_rp,
        axes=(n1, n2, n3), variance_n1=var1, mean_n2=m2, mean_n3=m3,
    )


def useful_entanglement(fisher_value: float, n: int) -> bool:
    """True iff F > N (strictly): the probe can beat the shot-noise limit."""
    if fisher_value < 0:
        raise ValueError("Fisher information cannot be negative")
    return fisher_value > n


def k_bound(n: int, k: int, h_range: float = 1.0) -> float:
    """Fisher ceiling of k-producible states: (h_range)^2 (s k^2 + r^2)."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must lie in [1, {n}]")
    s, r = divmod(n, k)
    return h_range**2 * (s * k**2 + r**2)


@dataclass(frozen=True)
class DepthReport:
    """Entanglement-depth classification against the k-producibility staircase."""

    n_particles: int
    fisher_value: float
    fisher_source: str
    h_range: float
    bounds: tuple  # rows (k, s, r, bound)
    depth: int


def entanglement_depth(fisher_value: float, n: int, h_range: float = 1.0,
                       fisher_source: str = "F") -> DepthReport:
    """Smallest depth d whose k-producibility bound accommodates the value.

    A value on a bound is classified as compatible with that k; "on" allows
    1e-9 of slack so a numerically computed QFI (e.g. N + 4e-15 for a
    coherent state) does not tip over a ceiling it sits on.  The report
    carries the whole staircase; `fisher_source` records whether a
    measurement-specific F or the QFI was supplied (the F-based witness
    implies the QFI-based one, not conversely).
    """
    ceiling = n**2 * h_range**2
    if not 0 <= fisher_value <= ceiling + 1e-9:
        raise ValueError(
            f"Fisher value {fisher_value} is infeasible for N={n} "
            f"(ceiling {ceiling})"
        )
    rows = [(k, *divmod(n, k), k_bound(n, k, h_range)) for k in range(1, n + 1)]
    # the k = n bound is the ceiling, so the feasibility check guarantees a match
    depth = next(k for k, _, _, bound in rows if fisher_value <= bound + 1e-9)
    return DepthReport(n_particles=n, fisher_value=float(fisher_value),
                       fisher_source=fisher_source, h_range=float(h_range),
                       bounds=tuple(rows), depth=depth)


def write_staircase_csv(report: DepthReport, path_or_file) -> None:
    """Staircase rows (k, s, r, bound) for reproducing the classification plot."""
    write_csv(path_or_file, ("k", "s", "r", "bound"), report.bounds)


@dataclass(frozen=True)
class FisherSqueezingCheck:
    lhs: float
    rhs: float | None
    holds: bool | None
    undefined: bool


def squeezing_fisher_check(probe: State, axes) -> FisherSqueezingCheck:
    """Verify N / F_Q[rho, J_n2] <= xi_R^2 for the given axis triple.

    n2 is the rotation direction; the check is undefined (and flagged) when
    the squeezing denominator vanishes.
    """
    triple = _orthonormal_triple(axes)
    moments = spin_moments(probe)
    report = _squeezing(moments, probe.space.n_particles, triple)
    fq = qfi(moments, triple[1])
    lhs = probe.space.n_particles / fq if fq > DENOMINATOR_FLOOR else math.inf
    if report.xi_r_squared is None:
        return FisherSqueezingCheck(lhs=lhs, rhs=None, holds=None, undefined=True)
    rhs = report.xi_r_squared
    return FisherSqueezingCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9),
                                undefined=False)
