"""Command-line front-end: bounds, Fisher scans, estimation runs, witnesses.

Configuration comes from an optional JSON file (--config) with flag
overrides; every run echoes its resolved configuration inside the emitted
JSON report so experiments are reproducible records.  All angles are in
radians.  Exit codes: 0 success, 2 configuration/domain error, 3
statistical-run failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import entanglement_depth, squeezing
from .estimation import (DEFAULT_DOMAIN, DomainError, StatisticalFailure,
                         bayes_monte_carlo, bayes_posterior, mle_monte_carlo,
                         moments_monte_carlo, posterior_summaries)
from .estimation import sample  # noqa: F401  (perfbench/test_perfbench.py reads cli.sample)
from .fisher import fisher_information  # noqa: F401  (perfbench/test_perfbench.py reads it)
from .fisher import (ProbabilityModel, bound_heisenberg, bound_shot_noise,
                     fisher_scan, optimal_axis, povm_number_counting,
                     povm_probe_projection, qfi, spin_moments)
from .reporting import csv_text, json_safe, posterior_table, trial_table
from .spins import SpinAxis, SpinSpace
from .states import (PureState, coherent_spin, fock, ghz_along, mix, noon,
                     state_from_json, twin_fock)

SCHEMA = "spinmetro-run/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3

#: largest N for which every command has been run to completion
N_MAX = 4096


class ConfigError(ValueError):
    pass


def _real(value, what: str) -> float:
    """A finite int or float as float; config files may hold strings, lists or booleans."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    """An int that is not a bool (bool subclasses int, so `true` would pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RunConfig:
    command: str
    n_particles: int = 2
    probe: dict = field(default_factory=lambda: {"kind": "css"})
    axis: str = "y"
    povm: str = "counting"
    theta: float | None = None
    theta_grid: tuple[float, float, int] | None = None
    m: int = 1
    trials: int = 1
    seed: int = 0
    domain: tuple[float, float] | None = None
    fisher_value: float | None = None
    squeeze_axes: tuple[str, str, str] = ("z", "y", "x")
    out: str | None = None
    format: str = "json"

    def validate(self) -> "RunConfig":
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not _is_int(self.n_particles) or self.n_particles < 1:
            raise ConfigError("n_particles must be a positive integer")
        if self.n_particles > N_MAX:
            raise ConfigError(f"n_particles above the supported maximum of {N_MAX}")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if not _is_int(self.m) or self.m < 0:
            raise ConfigError("m must be a non-negative integer")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.theta is not None:
            _real(self.theta, "theta")
        if self.theta_grid is not None:
            start, stop, points = self.theta_grid
            _real(start, "theta grid start")
            _real(stop, "theta grid stop")
            if not _is_int(points) or points < 1:
                raise ConfigError("theta grid must be finite with an integer points >= 1")
        if self.domain is not None:
            lo, hi = self.domain
            if not _real(lo, "domain lo") < _real(hi, "domain hi"):
                raise ConfigError("domain must be a non-empty finite interval lo < hi")
        if self.fisher_value is not None and _real(self.fisher_value, "fisher value") < 0:
            raise ConfigError("fisher value cannot be negative")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path string")
        if not isinstance(self.probe, dict) or "kind" not in self.probe:
            raise ConfigError("probe spec must be an object with a 'kind'")
        try:
            SpinAxis.from_spec(self.axis)
            SpinAxis.from_spec(self.probe.get("axis", self.axis))  # a ghz probe's own axis
            for a in self.squeeze_axes:
                SpinAxis.from_spec(a)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad axis: {err}") from err
        if self.povm not in ("counting", "projection"):
            raise ConfigError("povm must be 'counting' or 'projection'")
        return self

    def to_json(self) -> dict:
        data = asdict(self)
        return json_safe(data)


def build_probe(config: RunConfig):
    space = SpinSpace(config.n_particles)
    spec = config.probe
    kind = spec["kind"]
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "fock":
        return fock(space, _real(params.get("mu", space.j), "mu"))
    if kind == "css":
        return coherent_spin(space, _real(params.get("polar", math.pi / 2), "polar"),
                             _real(params.get("azimuth", 0.0), "azimuth"))
    if kind == "noon":
        return noon(space)
    if kind == "twin-fock":
        return twin_fock(space)
    if kind == "ghz":
        return ghz_along(space, params.get("axis", config.axis))
    if kind == "mix-spec":
        comps = params.get("components")
        if not comps or not isinstance(comps, list):
            raise ConfigError("mix-spec probe needs a 'components' list")
        parts = []
        for comp in comps:
            if not isinstance(comp, dict) or not {"weight", "probe"} <= comp.keys():
                raise ConfigError("each mix-spec component needs a 'weight' and a 'probe'")
            sub_config = RunConfig(command=config.command, n_particles=config.n_particles,
                                   probe=comp["probe"], axis=config.axis).validate()
            parts.append((_real(comp["weight"], "mix-spec weight"), build_probe(sub_config)))
        return mix(parts)
    if kind == "state-file":
        path = params.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("state-file probe needs a 'path'")
        try:
            state = state_from_json(json.loads(Path(path).read_text()))
        except (OSError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"state file {path!r}: {err!r}") from err
        if state.space.n_particles != config.n_particles:
            raise ConfigError(f"state file {path!r} holds N = {state.space.n_particles} "
                              f"particles, but n_particles is {config.n_particles}")
        return state
    raise ConfigError(f"unknown probe kind {kind!r}")


def build_model(config: RunConfig) -> ProbabilityModel:
    probe = build_probe(config)
    if config.povm == "counting":
        povm = povm_number_counting(probe.space)
    else:
        if not isinstance(probe, PureState):
            raise ConfigError("probe-projection POVM requires a pure probe")
        povm = povm_probe_projection(probe)
    return ProbabilityModel(probe, config.axis, povm)


def _theta_grid(config: RunConfig) -> np.ndarray:
    if config.theta_grid is None:
        raise ConfigError("this command needs --theta-grid START:STOP:POINTS")
    start, stop, points = config.theta_grid
    return np.linspace(start, stop, points)


def _require_domain(config: RunConfig) -> tuple[float, float]:
    if config.domain is None:
        raise ConfigError(
            "estimation commands need an explicit --domain LO:HI "
            f"(library default would be {DEFAULT_DOMAIN})"
        )
    return config.domain


def cmd_bounds(config: RunConfig):
    probe = build_probe(config)
    if config.m < 1:
        raise ConfigError("bounds needs m >= 1")
    n, m = config.n_particles, config.m
    fq = qfi(probe, config.axis)
    results = {
        "shot_noise": bound_shot_noise(n, m),
        "heisenberg": bound_heisenberg(n, m),
        "quantum_cramer_rao": 1.0 / math.sqrt(m * fq) if fq > 0 else math.inf,
        "qfi": fq,
    }
    header = ("shot_noise", "heisenberg", "quantum_cramer_rao", "qfi")
    rows = [tuple(results[h] for h in header)]
    return results, header, rows


def cmd_fisher_scan(config: RunConfig):
    model = build_model(config)
    thetas = _theta_grid(config)
    moments = spin_moments(model.probe)
    fq = qfi(moments, config.axis)
    n = SpinAxis.from_spec(config.axis).as_array()
    four_var = float(4.0 * n @ moments.covariance @ n)
    fi, flagged = fisher_scan(model, thetas)
    rows = [(theta, f, fq, four_var, k)
            for theta, f, k in zip(thetas.tolist(), fi.tolist(), flagged.tolist())]
    results = {
        "qfi": fq,
        "four_variance": four_var,
        "rows": [dict(zip(("theta", "fisher", "qfi", "four_var", "flagged"), r))
                 for r in rows],
    }
    return results, ("theta", "fisher", "qfi", "four_var", "flagged"), rows


def cmd_qfi(config: RunConfig):
    moments = spin_moments(build_probe(config))
    value = qfi(moments, config.axis)
    best_axis, best_value = optimal_axis(moments)
    results = {
        "qfi": value,
        "axis": list(SpinAxis.from_spec(config.axis).vector),
        "optimal_axis": list(best_axis.vector),
        "qfi_max": best_value,
    }
    header = ("qfi", "qfi_max", "opt_nx", "opt_ny", "opt_nz")
    rows = [(value, best_value, *best_axis.vector)]
    return results, header, rows


def cmd_mle(config: RunConfig):
    model = build_model(config)
    domain = _require_domain(config)
    if config.theta is None:
        raise ConfigError("mle needs --theta (the true phase)")
    if config.m < 1:
        raise ConfigError("mle needs m >= 1")
    report = mle_monte_carlo(model, config.theta, config.m, config.trials,
                             config.seed, domain=domain)
    if report.boundary_fraction > 0.5:
        raise StatisticalFailure(
            f"MLE landed on the domain boundary in "
            f"{report.boundary_fraction:.0%} of trials"
        )
    results = {
        "estimator": "mle",
        "theta_true": report.theta_true,
        "m": report.m,
        "trials": report.trials,
        "mean": report.mean,
        "variance": report.variance,
        "stderr": report.stderr,
        "bias": report.bias,
        "crlb": report.crlb,
        "boundary_fraction": report.boundary_fraction,
        "estimates": report.estimates,
    }
    return results, *trial_table(report.estimates)


def cmd_bayes(config: RunConfig):
    model = build_model(config)
    domain = _require_domain(config)
    if config.theta is None:
        raise ConfigError("bayes needs --theta (the true phase)")
    if config.m == 0:
        post = bayes_posterior(model, np.empty(0, dtype=np.int64), domain=domain)
        summary = posterior_summaries(post)
        results = {
            "estimator": "bayes", "m": 0, "trials": 1,
            "posterior_mean": summary.mean, "posterior_variance": summary.variance,
            "prior": "flat",
        }
        return results, *posterior_table(post)
    report = bayes_monte_carlo(model, config.theta, config.m, config.trials,
                               config.seed, domain=domain)
    post = report.first_posterior
    results = {
        "estimator": "bayes",
        "theta_true": report.theta_true,
        "m": report.m,
        "trials": report.trials,
        "mean_estimate": float(np.mean(report.estimates)),
        "mean_posterior_variance": report.mean_posterior_variance,
        "variance_bound_g2": report.bound_g2,
        "crlb": report.crlb,
        "estimates": report.estimates,
        "posterior_variances": report.posterior_variances,
    }
    return results, *posterior_table(post)


def cmd_moments(config: RunConfig):
    model = build_model(config)
    domain = _require_domain(config)
    if config.theta is None:
        raise ConfigError("moments needs --theta (the true phase)")
    # J_z, which is diagonal in the Dicke basis, as its diagonal mu
    report = moments_monte_carlo(model, model.space.mu, config.theta, config.m,
                                 config.trials, config.seed, domain=domain)
    predictions = report.variance_predictions
    results = {
        "estimator": "moments",
        "theta_true": report.theta_true,
        "m": report.m,
        "trials": report.trials,
        "mean": report.mean,
        "variance": report.variance,
        "prediction_at_theta_true": report.crlb,
        "estimates": report.estimates,
        "variance_predictions": predictions,
    }
    return results, *trial_table(report.estimates, predictions)


def cmd_depth(config: RunConfig):
    if config.fisher_value is not None:
        value = config.fisher_value
        source = "F"
    else:
        probe = build_probe(config)
        value = qfi(probe, config.axis)
        source = "F_Q"
    report = entanglement_depth(value, config.n_particles, fisher_source=source)
    results = {
        "n_particles": report.n_particles,
        "fisher_value": report.fisher_value,
        "fisher_source": report.fisher_source,
        "depth": report.depth,
        "bounds": [list(row) for row in report.bounds],
    }
    return results, ("k", "s", "r", "bound"), list(report.bounds)


def cmd_squeeze(config: RunConfig):
    probe = build_probe(config)
    report = squeezing(probe, config.squeeze_axes)
    nan = float("nan")
    results = {
        "n_particles": report.n_particles,
        "xi_r_squared": report.xi_r_squared,
        "xi_r_prime_squared": report.xi_r_prime_squared,
        "variance_n1": report.variance_n1,
        "mean_n2": report.mean_n2,
        "mean_n3": report.mean_n3,
        "axes": [list(a.vector) for a in report.axes],
    }
    rows = [(
        report.xi_r_squared if report.xi_r_squared is not None else nan,
        report.xi_r_prime_squared if report.xi_r_prime_squared is not None else nan,
        report.variance_n1, report.mean_n2, report.mean_n3,
    )]
    header = ("xi_r_squared", "xi_r_prime_squared", "variance_n1", "mean_n2",
              "mean_n3")
    return results, header, rows


COMMANDS = {
    "bounds": cmd_bounds,
    "fisher-scan": cmd_fisher_scan,
    "qfi": cmd_qfi,
    "mle": cmd_mle,
    "bayes": cmd_bayes,
    "moments": cmd_moments,
    "depth": cmd_depth,
    "squeeze": cmd_squeeze,
}


def _parse_pair(text: str, n: int, cast) -> tuple:
    parts = text.split(":")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} ':'-separated fields")
    try:
        return tuple(cast(i, p) for i, p in enumerate(parts))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _domain_arg(text: str):
    return _parse_pair(text, 2, lambda i, p: float(p))


def _grid_arg(text: str):
    return _parse_pair(text, 3, lambda i, p: int(p) if i == 2 else float(p))


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command and the options may come in any order."""
    parser = argparse.ArgumentParser(
        prog="spinmetro",
        description="SU(2) interferometer sensitivity toolkit (all angles in radians)",
    )
    add = parser.add_argument
    add("--version", action="version", version=__version__)
    add("command", choices=tuple(COMMANDS))
    add("--config", type=str, default=None, help="JSON config file; flags override its fields")
    add("--seed", type=int, default=None, help="64-bit RNG seed")
    add("--out", type=str, default=None, help="output path (default stdout)")
    add("--format", choices=("csv", "json"), default=None)
    add("--n", type=int, default=None, help="number of particles")
    add("--m", type=int, default=None, help="measurements per trial")
    add("--trials", type=int, default=None)
    add("--theta", type=float, default=None, help="true phase (rad)")
    add("--theta-grid", type=_grid_arg, default=None, metavar="START:STOP:POINTS")
    add("--domain", type=_domain_arg, default=None, metavar="LO:HI",
        help="estimation interval (rad); required for mle/bayes/moments")
    add("--probe", type=str, default=None,
        choices=("fock", "css", "noon", "twin-fock", "ghz", "mix-spec"))
    add("--mu", type=float, default=None, help="fock label")
    add("--polar", type=float, default=None, help="css polar angle")
    add("--azimuth", type=float, default=None, help="css azimuth")
    add("--axis", type=str, default=None, help="x|y|z|nx,ny,nz")
    add("--povm", type=str, default=None, choices=("counting", "projection"))
    add("--fisher", type=float, default=None, help="measured Fisher value for the depth witness")
    add("--n1", type=str, default=None, help="squeezing axis n1")
    add("--n2", type=str, default=None, help="rotation axis n2")
    add("--n3", type=str, default=None, help="squeezing axis n3")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(base.keys() - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    config = RunConfig(command=args.command)
    for key in ("n_particles", "axis", "povm", "theta", "m", "trials", "seed",
                "fisher_value", "out", "format"):
        if key in base:
            setattr(config, key, base[key])
    if base.get("probe") is not None:
        if not isinstance(base["probe"], dict):
            raise ConfigError("probe spec must be an object with a 'kind'")
        config.probe = dict(base["probe"])
    for key, count in (("theta_grid", 3), ("domain", 2), ("squeeze_axes", 3)):
        value = base.get(key)
        if value is not None:
            if not isinstance(value, (list, tuple)) or len(value) != count:
                raise ConfigError(f"{key} must hold {count} fields, got {value!r}")
            setattr(config, key, tuple(value))

    for key, flag in (("n_particles", args.n), ("seed", args.seed), ("m", args.m),
                      ("trials", args.trials), ("theta", args.theta),
                      ("theta_grid", args.theta_grid), ("domain", args.domain),
                      ("axis", args.axis), ("povm", args.povm),
                      ("fisher_value", args.fisher), ("out", args.out),
                      ("format", args.format)):
        if flag is not None:
            setattr(config, key, flag)
    if args.probe is not None:
        config.probe = {"kind": args.probe}
    for probe_key, flag in (("mu", args.mu), ("polar", args.polar),
                            ("azimuth", args.azimuth)):
        if flag is not None:
            config.probe[probe_key] = flag
    axes = list(config.squeeze_axes)
    for i, flag in enumerate((args.n1, args.n2, args.n3)):
        if flag is not None:
            axes[i] = flag
    config.squeeze_axes = tuple(axes)
    return config.validate()


def run(config: RunConfig) -> str:
    """Execute one command and return the rendered output text."""
    results, header, rows = COMMANDS[config.command](config)
    if config.format == "csv":
        text = csv_text(header, rows)
    else:
        payload = {
            "schema": SCHEMA,
            "command": config.command,
            "config": config.to_json(),
            "results": json_safe(results),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8", newline="")
    return text


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        text = run(config)
    except (ConfigError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StatisticalFailure as err:
        print(f"statistical failure: {err}", file=sys.stderr)
        return EXIT_STATISTICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not config.out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
