"""Command-line front-end: bounds, Fisher scans, estimation runs, witnesses.

Configuration comes from an optional JSON file (--config) with flag
overrides; every run echoes its resolved configuration inside the emitted
JSON report so experiments are reproducible records.  All angles are in
radians.  Exit codes: 0 success, 2 configuration/domain error, 3
statistical-run failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import entanglement_depth, squeezing
from .estimation import (StatisticalFailure, bayes_monte_carlo, bayes_posterior,
                         mle_monte_carlo, moments_monte_carlo, posterior_summaries)
from .estimation import sample  # noqa: F401  (perfbench/test_perfbench.py reads cli.sample)
from .fisher import fisher_information  # noqa: F401  (perfbench/test_perfbench.py reads it)
from .fisher import (ProbabilityModel, bound_heisenberg, bound_shot_noise,
                     fisher_scan, optimal_axis, povm_number_counting,
                     povm_probe_projection, qfi, spin_moments)
from .linalg import NumericalError
from .reporting import (csv_text, json_safe, plain_finite_numbers, posterior_table,
                        trial_table)
from .spins import SpinAxis, SpinSpace
from .states import (PureState, coherent_spin, fock, ghz_along, mix, noon,
                     state_from_json, twin_fock)

SCHEMA = "spinmetro-run/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3
EXIT_NUMERICAL = 4

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


def _fields(value, count: int, what: str) -> tuple:
    """A list or tuple of `count` fields as a tuple (config files hold lists)."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ConfigError(f"{what} must hold {count} fields, got {value!r}")
    return tuple(value)


def _axis(spec) -> SpinAxis:
    try:
        return SpinAxis.from_spec(spec)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad axis: {err}") from err


def _check_probe(spec, axis) -> None:
    """Reject a probe spec whose kind is unknown, that holds a key its kind does not
    read, or whose ghz axis is bad; each mix-spec component holds exactly a 'weight'
    and a 'probe' spec, checked the same way."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("probe spec must be an object with a 'kind'")
    kind = spec["kind"]
    reads = {"fock": ("mu",), "css": ("polar", "azimuth"), "noon": (), "twin-fock": (),
             "ghz": ("axis",), "mix-spec": ("components",), "state-file": ("path",)}
    if not isinstance(kind, str) or kind not in reads:
        raise ConfigError(f"unknown probe kind {kind!r}")
    unread = sorted(spec.keys() - {"kind", *reads[kind]})
    if unread:
        raise ConfigError(f"probe kind {kind!r} reads no key {', '.join(map(repr, unread))} "
                          f"(it reads {', '.join(reads[kind]) or 'none'})")
    if kind == "ghz":
        _axis(spec.get("axis", axis))
    if kind == "mix-spec":
        comps = spec.get("components")
        if not comps or not isinstance(comps, list):
            raise ConfigError("mix-spec probe needs a 'components' list")
        for comp in comps:
            if not isinstance(comp, dict) or comp.keys() != {"weight", "probe"}:
                got = sorted(comp) if isinstance(comp, dict) else comp
                raise ConfigError("each mix-spec component holds exactly a 'weight' and a "
                                  f"'probe', got {got!r}")
            _check_probe(comp["probe"], axis)


#: the fields each command needs beyond the defaults (m: at least 1), and the flag
#: that gives each; RunConfig.validate checks them before any probe or model is built.
#: `bayes --m 0` is the flat prior, which reads no theta.
_REQUIRES = {"bounds": ("m",), "fisher-scan": ("theta_grid",), "mle": ("domain", "theta", "m"),
             "bayes": ("domain", "theta"), "moments": ("domain", "theta", "m")}
_NEEDS = {"theta_grid": "--theta-grid START:STOP:POINTS",
          "domain": "--domain LO:HI (no default is assumed)",
          "theta": "--theta (the true phase)", "m": "--m >= 1"}


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
            start, stop, points = self.theta_grid = _fields(self.theta_grid, 3, "theta_grid")
            _real(start, "theta grid start")
            _real(stop, "theta grid stop")
            if not _is_int(points) or points < 1:
                raise ConfigError("theta grid must be finite with an integer points >= 1")
        if self.domain is not None:
            lo, hi = self.domain = _fields(self.domain, 2, "domain")
            if not _real(lo, "domain lo") < _real(hi, "domain hi"):
                raise ConfigError("domain must be a non-empty finite interval lo < hi")
        if self.fisher_value is not None and _real(self.fisher_value, "fisher value") < 0:
            raise ConfigError("fisher value cannot be negative")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path string")
        if self.out and not Path(self.out).parent.is_dir():  # permissions show at write time
            raise ConfigError(f"cannot write {self.out!r}: its directory does not exist")
        _axis(self.axis)
        _check_probe(self.probe, self.axis)
        self.squeeze_axes = _fields(self.squeeze_axes, 3, "squeeze_axes")
        for a in self.squeeze_axes:
            _axis(a)
        if self.povm not in ("counting", "projection"):
            raise ConfigError("povm must be 'counting' or 'projection'")
        if self.command == "moments" and self.povm != "counting":
            raise ConfigError("moments needs --povm counting, the POVM that diagonalises J_z")
        for key in _REQUIRES.get(self.command, ()):
            if key == "theta" and self.command == "bayes" and self.m == 0:
                continue
            value = getattr(self, key)
            if value is None or (key == "m" and value < 1):
                raise ConfigError(f"{self.command} needs {_NEEDS[key]}")
        if self.command == "bayes" and self.m == 0 and self.trials != 1:
            raise ConfigError("bayes --m 0 is the flat prior, one posterior: --trials must be 1")
        return self

    def to_json(self) -> dict:
        return json_safe(asdict(self))


def build_probe(config: RunConfig):
    return _probe(SpinSpace(config.n_particles), config.probe, config.axis)


def _probe(space: SpinSpace, spec, axis):
    """The state a probe spec checked by `_check_probe` names; a mix-spec builds each
    component the same way."""
    kind = spec["kind"]
    if kind == "fock":
        return fock(space, _real(spec.get("mu", space.j), "mu"))
    if kind == "css":
        return coherent_spin(space, _real(spec.get("polar", math.pi / 2), "polar"),
                             _real(spec.get("azimuth", 0.0), "azimuth"))
    if kind == "noon":
        return noon(space)
    if kind == "twin-fock":
        return twin_fock(space)
    if kind == "ghz":
        return ghz_along(space, _axis(spec.get("axis", axis)))
    if kind == "mix-spec":
        return mix([(_real(comp["weight"], "mix-spec weight"), _probe(space, comp["probe"], axis))
                    for comp in spec["components"]])
    if kind == "state-file":
        path = spec.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("state-file probe needs a 'path'")
        try:
            obj = json.loads(Path(path).read_text())
            if obj["n_particles"] == space.n_particles:  # compared before rho is decomposed
                return state_from_json(obj)
        except (OSError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"state file {path!r}: {err!r}") from err
        raise ConfigError(f"state file {path!r} holds N = {obj['n_particles']!r} "
                          f"particles, but n_particles is {space.n_particles}")
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


def cmd_bounds(config: RunConfig):
    probe = build_probe(config)
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
    thetas = np.linspace(*config.theta_grid)
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
    report = mle_monte_carlo(model, config.theta, config.m, config.trials,
                             config.seed, domain=config.domain)
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
    if config.m == 0:
        post = bayes_posterior(model, np.zeros(model.n_outcomes, dtype=np.int64),
                               domain=config.domain)
        summary = posterior_summaries(post)
        results = {
            "estimator": "bayes", "m": 0, "trials": 1,
            "posterior_mean": summary.mean, "posterior_variance": summary.variance,
            "prior": "flat",
        }
        return results, *posterior_table(post)
    report = bayes_monte_carlo(model, config.theta, config.m, config.trials,
                               config.seed, domain=config.domain)
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
    report = moments_monte_carlo(model, config.theta, config.m, config.trials,
                                 config.seed, domain=config.domain)
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


def _colon_arg(*casts):
    """An argparse type for one ':'-separated field per cast, e.g. LO:HI."""
    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != len(casts):
            raise argparse.ArgumentTypeError(f"expected {len(casts)} ':'-separated fields")
        try:
            return tuple(cast(p) for cast, p in zip(casts, parts))
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from err
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command and the options may come in any order.  Each
    flag's dest is the RunConfig field it sets, apart from --config and the flags
    that set one entry of the probe spec or of squeeze_axes; a flag not given
    leaves no attribute.  Built once per process and shared by every caller, who
    may parse with it (parsing leaves it unchanged) but must not change it."""
    parser = argparse.ArgumentParser(
        prog="spinmetro",
        description="SU(2) interferometer sensitivity toolkit (all angles in radians)",
        argument_default=argparse.SUPPRESS,
    )
    add = parser.add_argument
    add("--version", action="version", version=__version__)
    add("command", choices=tuple(COMMANDS))
    add("--config", help="JSON config file; flags override its fields")
    add("--seed", type=int, help="64-bit RNG seed")
    add("--out", help="output path (default stdout)")
    add("--format", choices=("csv", "json"))
    add("--n", dest="n_particles", type=int, help="number of particles")
    add("--m", type=int, help="measurements per trial")
    add("--trials", type=int)
    add("--theta", type=float, help="true phase (rad)")
    add("--theta-grid", type=_colon_arg(float, float, int), metavar="START:STOP:POINTS")
    add("--domain", type=_colon_arg(float, float), metavar="LO:HI",
        help="estimation interval (rad); required for mle/bayes/moments")
    # a mix-spec probe needs its components, so it comes only from --config
    add("--probe", choices=("fock", "css", "noon", "twin-fock", "ghz"))
    add("--mu", type=float, help="fock label")
    add("--polar", type=float, help="css polar angle")
    add("--azimuth", type=float, help="css azimuth")
    add("--axis", help="x|y|z|nx,ny,nz")
    add("--povm", choices=("counting", "projection"))
    add("--fisher", dest="fisher_value", type=float,
        help="measured Fisher value for the depth witness")
    add("--n1", help="squeezing axis n1")
    add("--n2", help="rotation axis n2")
    add("--n3", help="squeezing axis n3")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's fields, overlaid by the flags that were given, validated."""
    flags = vars(args).copy()
    values: dict = {}
    path = flags.pop("config", None)
    if path:
        try:
            values = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(values.keys() - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    probe = {key: flags.pop(key) for key in ("mu", "polar", "azimuth") if key in flags}
    axes = {i: flags.pop(key) for i, key in enumerate(("n1", "n2", "n3")) if key in flags}
    if "probe" in flags:
        flags["probe"] = {"kind": flags["probe"]}
    config = RunConfig(**{**values, **flags})
    if probe and isinstance(config.probe, dict):
        config.probe = {**config.probe, **probe}
    if axes:
        config.squeeze_axes = tuple(axes.get(i, a) for i, a in enumerate(
            _fields(config.squeeze_axes, 3, "squeeze_axes")))
    return config.validate()


def json_text(value, indent: str = "") -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it, byte for byte,
    for the values json_safe returns: string keys and finite floats.
    CPython runs json.dumps in its pure-Python encoder whenever `indent` is set;
    this writer joins each list of plain numbers with one call."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_string(k)}: {json_text(v, inner)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = (map(repr, value) if plain_finite_numbers(value)
                 else [json_text(v, inner) for v in value])
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


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
        text = json_text(payload) + "\n"
    if config.out:
        try:
            Path(config.out).write_text(text, encoding="utf-8", newline="")
        except OSError as err:
            raise ConfigError(f"cannot write {config.out!r}: {err.strerror or err}") from err
    return text


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        text = run(config)
    except StatisticalFailure as err:
        print(f"statistical failure: {err}", file=sys.stderr)
        return EXIT_STATISTICAL
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
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
