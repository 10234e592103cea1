"""Output oracle: checks each CLI output against closed forms independent of the code.

Every probe the workloads use has a known quantum Fisher information for its
axis (css along x about y: N; twin-Fock about y: N^2/2 + N; NOON about z:
N^2; the 1/2 NOON + 1/2 twin-Fock mixture about y: N^2/4 + N, because J_y
does not couple the two components for N >= 4).  Deterministic outputs are
compared with those values; estimator outputs get loose statistical checks.

`check` returns a list of failure messages; an empty list means the output
passed.  It never raises on a bad output.
"""

from __future__ import annotations

import json
import math

#: relative tolerance for quantities the CLI computes in closed form
REL = 1e-9
#: Fisher information sums P'^2/P over outcomes, some through de l'Hopital limits
REL_F = 1e-8
#: the limit terms take 2 P'' from a central difference of step 1e-4; at N = 250
#: this puts the twin-Fock F up to 6.3e-8 (relative) above F_Q (at theta = 1.025
#: in a 281-point scan of [0.05, 1.45]), so F <= F_Q is checked to this tolerance
REL_F_LIMIT = 1e-6
#: bias allowance: 5 standard errors plus this share of the single-trial CRLB
#: deviation.  The twin-Fock MLE at m <= 400 is still skewed: at N = 20 its
#: bias reaches 0.22 sqrt(CRLB), and var/CRLB reaches 1.5, without shrinking in m.
BIAS_Z = 5.0
BIAS_CRLB_SHARE = 0.5
#: variance / CRLB band, applied from this many trials on
VAR_BAND = (0.5, 3.0)
VAR_BAND_MIN_TRIALS = 50
#: mean posterior variance / CRLB band
POSTERIOR_BAND = (0.5, 2.0)


def qfi_closed(probe: str, n: int) -> float:
    """F_Q of the workload probe about its workload axis."""
    return {"css": n, "twin-fock": n * n / 2 + n, "noon": n * n,
            "mix": n * n / 4 + n}[probe]


def qfi_max_closed(probe: str, n: int) -> float:
    """Largest F_Q over all axes (twin-Fock: x or y; mixture: z or y)."""
    return {"twin-fock": n * n / 2 + n, "mix": max(n * n / 2, n * n / 4 + n)}[probe]


def fisher_closed(probe: str, n: int) -> float | None:
    """Classical F of (probe, axis, POVM) where it is constant in theta."""
    return {"css": float(n), "noon": float(n * n)}.get(probe)


class _Checker:
    def __init__(self):
        self.failures: list[str] = []

    def true(self, cond: bool, message: str) -> None:
        if not cond:
            self.failures.append(message)

    def close(self, got, want: float, rel: float, what: str) -> None:
        ok = (isinstance(got, (int, float)) and math.isfinite(got)
              and abs(got - want) <= rel * max(1.0, abs(want)))
        self.true(ok, f"{what} = {got!r}, expected {want!r} (rel tol {rel:g})")


def check(inv, text: str) -> list[str]:
    """Failures of one invocation's JSON output against the oracle."""
    c = _Checker()
    try:
        payload = json.loads(text)
        results = payload["results"]
        config = payload["config"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"output is not a spinmetro JSON report: {err}"]
    c.true(payload.get("command") == inv.command, "command echo differs")
    c.true(config.get("n_particles") == inv.n, "n_particles echo differs")
    try:
        CHECKS[inv.command](c, inv, results)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        c.failures.append(f"malformed results: {err!r}")
    return c.failures


def _fisher_scan(c, inv, r):
    n = inv.n
    fq = qfi_closed(inv.probe, n)
    start, stop, points = inv.grid
    rows = r["rows"]
    c.true(len(rows) == points, f"{len(rows)} rows, expected {points}")
    c.close(r["qfi"], fq, REL, "F_Q")
    if inv.probe == "mix":
        c.true(r["four_variance"] >= fq * (1 - REL), "4 Var(J_n) below F_Q")
    else:
        c.close(r["four_variance"], fq, REL, "4 Var(J_n)")
    f_exact = fisher_closed(inv.probe, n)
    step = (stop - start) / (points - 1)
    for i, row in enumerate(rows):
        c.close(row["theta"], start + i * step, 1e-12, f"theta[{i}]")
        c.close(row["qfi"], fq, REL, f"F_Q[{i}]")
        c.true(0.0 <= row["fisher"] <= row["qfi"] * (1 + REL_F_LIMIT),
               f"row {i}: F = {row['fisher']!r} outside [0, F_Q = {row['qfi']!r}]")
        if f_exact is not None:
            c.close(row["fisher"], f_exact, REL_F, f"F[{i}]")


def _qfi(c, inv, r):
    n = inv.n
    c.close(r["qfi"], qfi_closed(inv.probe, n), REL, "qfi")
    c.close(r["qfi_max"], qfi_max_closed(inv.probe, n), REL, "qfi_max")
    c.true(r["qfi"] <= r["qfi_max"] * (1 + REL) <= n * n * (1 + REL) ** 2,
           "qfi <= qfi_max <= N^2 fails")
    axis = r["optimal_axis"]
    c.close(math.sqrt(sum(a * a for a in axis)), 1.0, REL, "|optimal axis|")
    if inv.probe == "twin-fock":
        c.true(abs(axis[2]) < 1e-6, "twin-Fock optimal axis leaves the xy plane")
    elif n > 4:
        c.true(abs(axis[2]) > 1 - 1e-9, "mixture optimal axis is not z")


def _bounds(c, inv, r):
    n, m = inv.n, inv.m
    fq = qfi_closed(inv.probe, n)
    c.close(r["shot_noise"], 1 / math.sqrt(n * m), REL, "shot noise")
    c.close(r["heisenberg"], 1 / (n * math.sqrt(m)), REL, "Heisenberg")
    c.close(r["qfi"], fq, REL, "qfi")
    c.close(r["quantum_cramer_rao"], 1 / math.sqrt(m * fq), REL, "quantum CR bound")


def _depth(c, inv, r):
    n = inv.n
    fq = qfi_closed(inv.probe, n)
    c.true(r["fisher_source"] == "F_Q", "depth did not use F_Q")
    c.close(r["fisher_value"], fq, REL, "depth Fisher value")
    stairs = [(k, n // k, n % k, (n // k) * k * k + (n % k) ** 2) for k in range(1, n + 1)]
    c.true([tuple(row) for row in r["bounds"]] == stairs, "staircase rows differ")
    want = next(k for k, _, _, bound in stairs if fq <= bound)
    c.true(r["depth"] == want, f"depth {r['depth']!r}, expected {want}")


def _squeeze(c, inv, r):
    n = inv.n
    c.close(r["xi_r_squared"], 1.0, REL, "xi_R^2")
    c.close(r["xi_r_prime_squared"], 1.0, REL, "xi_R'^2")
    c.close(r["variance_n1"], n / 4, REL, "Var(J_n1)")
    c.close(r["mean_n2"], 0.0, REL * n, "<J_n2>")
    c.close(r["mean_n3"], n / 2, REL, "<J_n3>")


def _sample_stats(values):
    k = len(values)
    mean = sum(values) / k
    var = sum((v - mean) ** 2 for v in values) / (k - 1) if k > 1 else 0.0
    return mean, var


def _estimates(c, inv, r):
    est = r["estimates"]
    c.true(r["trials"] == inv.trials and len(est) == inv.trials,
           f"{len(est)} estimates, expected {inv.trials}")
    lo, hi = inv.domain
    c.true(all(lo <= e <= hi for e in est), "estimate outside the domain")
    return _sample_stats(est)


def _crlb(c, inv, crlb):
    f = fisher_closed(inv.probe, inv.n)
    if f is not None:
        c.close(crlb, 1 / (inv.m * f), REL_F, "CRLB 1/(mF)")
    else:  # F <= F_Q, so the CRLB cannot undercut the quantum bound
        floor = (1 - REL_F_LIMIT) / (inv.m * qfi_closed(inv.probe, inv.n))
        c.true(math.isfinite(crlb) and crlb >= floor, f"CRLB {crlb!r} below 1/(m F_Q)")


def _frequentist(c, inv, r, crlb, label):
    mean, var = _estimates(c, inv, r)
    c.close(r["mean"], mean, REL, f"{label} mean")
    c.close(r["variance"], var, 1e-7, f"{label} variance")
    _crlb(c, inv, crlb)
    stderr = math.sqrt(var / inv.trials)
    slack = BIAS_Z * stderr + BIAS_CRLB_SHARE * math.sqrt(crlb)
    c.true(abs(mean - inv.theta) <= slack,
           f"{label} bias {mean - inv.theta:.3e} exceeds {slack:.3e}")
    return var


def _mle(c, inv, r):
    var = _frequentist(c, inv, r, r["crlb"], "MLE")
    c.true(r["boundary_fraction"] <= 0.5, "MLE boundary fraction above 1/2")
    if inv.trials >= VAR_BAND_MIN_TRIALS:
        ratio = var / r["crlb"]
        c.true(VAR_BAND[0] <= ratio <= VAR_BAND[1], f"MLE var/CRLB = {ratio:.3f}")


def _moments(c, inv, r):
    # for the coherent probe the J_z moment estimator is efficient: prediction 1/(mN)
    var = _frequentist(c, inv, r, r["prediction_at_theta_true"], "moments")
    preds = r["variance_predictions"]
    c.true(len(preds) == inv.trials and all(p > 0 for p in preds),
           "variance predictions missing or non-positive")
    if inv.trials >= VAR_BAND_MIN_TRIALS:
        ratio = var / (sum(preds) / len(preds))
        c.true(VAR_BAND[0] <= ratio <= VAR_BAND[1], f"moments var/prediction = {ratio:.3f}")


def _bayes(c, inv, r):
    mean, _ = _estimates(c, inv, r)
    post = r["posterior_variances"]
    c.true(len(post) == inv.trials and all(v > 0 for v in post),
           "posterior variances missing or non-positive")
    mean_post = sum(post) / len(post)
    c.close(r["mean_posterior_variance"], mean_post, REL, "mean posterior variance")
    # each trial has var >= 1/G (Jensen: mean(1/G) >= 1/mean(G)), so the average holds too
    c.true(mean_post >= r["variance_bound_g2"] * (1 - REL),
           "mean posterior variance below 1/G")
    crlb = r["crlb"]
    _crlb(c, inv, crlb)
    ratio = mean_post / crlb
    c.true(POSTERIOR_BAND[0] <= ratio <= POSTERIOR_BAND[1],
           f"posterior variance / CRLB = {ratio:.3f}")
    slack = BIAS_Z * math.sqrt(mean_post / inv.trials) + BIAS_CRLB_SHARE * math.sqrt(crlb)
    c.true(abs(mean - inv.theta) <= slack,
           f"Bayes bias {mean - inv.theta:.3e} exceeds {slack:.3e}")


CHECKS = {
    "fisher-scan": _fisher_scan,
    "qfi": _qfi,
    "bounds": _bounds,
    "depth": _depth,
    "squeeze": _squeeze,
    "mle": _mle,
    "moments": _moments,
    "bayes": _bayes,
}
