"""Benchmark workloads: a workload seed becomes the argv list driven through the CLI.

Every random choice (true phases, theta grids, shot counts, 64-bit
Monte-Carlo seeds) is drawn here from ``random.Random("<workload>:<seed>")``,
so one seed always gives the same invocations.  The program sees only the
generated argv and the generated ``mix-spec`` config file.

Safe sub-intervals (why no operation fails on them):

* Estimation truths theta lie in [0.35, 1.05] inside the domain (0, 1.5).
  The coherent probe along x rotated about y has <Jz> strictly monotone on
  [0, pi/2), so MLE, moments and Bayes are identifiable.  At N = 20 and
  m >= 100 the posterior width 1/sqrt(mN) is below 0.023, so the truth sits
  at least 15 widths from each border and the posterior vanishes there, as
  the Bayes variance bound requires.  The sample moment stays at least 5
  standard deviations inside the range of <Jz> even at N = 4.
* theta grids of the rotation scans start in [0.05, 0.2] and stop in
  [1.2, 1.45], away from the poles of the rotated coherent state.
* NOON with the probe-projection POVM about z has P = cos^2(N theta / 2),
  monotone on (0, pi/N).  Its grid lies in [0.05, 0.95] * pi/N and its truth
  in [0.3, 0.7] * pi/N, at least 9 posterior widths 1/(N sqrt m) from either
  border.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

ESTIMATION_DOMAIN = (0.0, 1.5)
THETA_TRUE = (0.35, 1.05)
GRID_START = (0.05, 0.2)
GRID_STOP = (1.2, 1.45)
GRID_POINTS = 32
#: NOON intervals, in units of pi/N
NOON_THETA_TRUE = (0.3, 0.7)
NOON_GRID_START = (0.05, 0.15)
NOON_GRID_STOP = (0.85, 0.95)
SHOTS = (100, 400)

MIX_FILE = "mix-noon-twin-fock.json"
MIX_SPEC = {"kind": "mix-spec", "components": [
    {"weight": 0.5, "probe": {"kind": "noon"}},
    {"weight": 0.5, "probe": {"kind": "twin-fock"}},
]}


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `probe` names the probe for the output oracle."""

    command: str
    probe: str
    n: int
    axis: str = "y"
    povm: str = "counting"
    theta: float | None = None
    grid: tuple[float, float, int] | None = None
    m: int | None = None
    trials: int | None = None
    seed: int | None = None
    domain: tuple[float, float] | None = None

    def argv(self, config_dir: str) -> list[str]:
        out = [self.command, "--n", str(self.n), "--axis", self.axis]
        if self.probe == "mix":
            out += ["--config", f"{config_dir}/{MIX_FILE}"]
        else:
            out += ["--probe", self.probe]
        if self.povm != "counting":
            out += ["--povm", self.povm]
        if self.grid is not None:
            out += ["--theta-grid", "{!r}:{!r}:{}".format(*self.grid)]
        if self.theta is not None:
            out += ["--theta", repr(self.theta)]
        if self.m is not None:
            out += ["--m", str(self.m)]
        if self.trials is not None:
            out += ["--trials", str(self.trials)]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        if self.domain is not None:
            out += ["--domain", "{!r}:{!r}".format(*self.domain)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    n: int
    invocations: tuple[Invocation, ...]
    files: dict = field(default_factory=dict)  # file name -> text


def _uniform(rng: random.Random, interval, scale: float = 1.0) -> float:
    return scale * rng.uniform(*interval)


def _grid(rng, start, stop, scale=1.0):
    return (_uniform(rng, start, scale), _uniform(rng, stop, scale), GRID_POINTS)


def _estimation(rng, command, probe, n, trials, axis="y", povm="counting",
                theta_interval=THETA_TRUE, domain=ESTIMATION_DOMAIN, scale=1.0):
    return Invocation(command, probe, n, axis=axis, povm=povm,
                      theta=_uniform(rng, theta_interval, scale),
                      m=rng.randint(*SHOTS), trials=trials,
                      seed=rng.getrandbits(64), domain=domain)


def _info_large_n(rng, n, tiny):
    return (
        Invocation("fisher-scan", "css", n, grid=_grid(rng, GRID_START, GRID_STOP)),
        Invocation("fisher-scan", "twin-fock", n,
                   grid=_grid(rng, GRID_START, GRID_STOP)),
        Invocation("qfi", "twin-fock", n),
        Invocation("bounds", "twin-fock", n, m=rng.randint(*SHOTS)),
        Invocation("depth", "twin-fock", n),
        Invocation("squeeze", "css", n),
    )


def _mc_small_n(rng, n, tiny):
    mle_trials, moment_trials, bayes_trials = (6, 4, 2) if tiny else (1000, 200, 40)
    return (
        _estimation(rng, "mle", "css", n, mle_trials),
        _estimation(rng, "mle", "twin-fock", n, mle_trials),
        _estimation(rng, "moments", "css", n, moment_trials),
        _estimation(rng, "bayes", "css", n, bayes_trials),
    )


def _mixed_dense(rng, n, tiny):
    mle_trials, bayes_trials = (4, 2) if tiny else (100, 4)
    pi_n = math.pi / n
    return (
        Invocation("qfi", "mix", n),
        Invocation("fisher-scan", "mix", n, grid=_grid(rng, GRID_START, GRID_STOP)),
        _estimation(rng, "mle", "mix", n, mle_trials),
        Invocation("fisher-scan", "noon", n, axis="z", povm="projection",
                   grid=_grid(rng, NOON_GRID_START, NOON_GRID_STOP, pi_n)),
        _estimation(rng, "bayes", "noon", n, bayes_trials, axis="z",
                    povm="projection", theta_interval=NOON_THETA_TRUE,
                    domain=(0.0, pi_n), scale=pi_n),
    )


#: name -> (N, N in tiny mode, invocation builder, writes the mix-spec file)
WORKLOADS = {
    "info-large-n": (250, 4, _info_large_n, False),
    "mc-small-n": (20, 4, _mc_small_n, False),
    "mixed-dense": (100, 4, _mixed_dense, True),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The invocation list of workload `name` for workload seed `seed`.

    `tiny` runs the same commands at N = 4 with a handful of trials; it
    exists for smoke tests and is never timed.
    """
    n_full, n_tiny, builder, wants_mix = WORKLOADS[name]
    n = n_tiny if tiny else n_full
    rng = random.Random(f"{name}:{seed}")
    files = {MIX_FILE: json.dumps({"probe": MIX_SPEC}, indent=2) + "\n"} if wants_mix else {}
    return Workload(name=name, seed=seed, n=n,
                    invocations=builder(rng, n, tiny), files=files)
