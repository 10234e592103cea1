import argparse
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinmetro import __version__, cli, fisher, spins, states
from spinmetro.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_STATISTICAL,
                           N_MAX, RunConfig, build_parser, config_from_args, json_text,
                           main, run)
from spinmetro.reporting import json_safe
from spinmetro.spins import SpinSpace
from spinmetro.states import mix, noon, state_to_json, twin_fock

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
_golden_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_golden_spec)
_golden_spec.loader.exec_module(golden)


def run_cli(tmp_path, *argv, out_name=None):
    argv = list(argv)
    if out_name:
        out = tmp_path / out_name
        argv += ["--out", str(out)]
        code = main(argv)
        return code, (out.read_text() if out.exists() else "")
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    return EXIT_OK, run(config)


class TestBounds:
    def test_noon_n100(self, tmp_path):
        code, text = run_cli(tmp_path, "bounds", "--n", "100", "--m", "1",
                             "--probe", "noon", "--axis", "z")
        assert code == EXIT_OK
        results = json.loads(text)["results"]
        assert results["shot_noise"] == pytest.approx(0.1)
        assert results["heisenberg"] == pytest.approx(0.01)
        assert results["quantum_cramer_rao"] == pytest.approx(0.01, abs=1e-10)

    def test_css_qcr_equals_shot_noise(self, tmp_path):
        code, text = run_cli(tmp_path, "bounds", "--n", "100", "--probe", "css",
                             "--axis", "y")
        results = json.loads(text)["results"]
        assert results["quantum_cramer_rao"] == pytest.approx(
            results["shot_noise"], abs=1e-10)

    def test_m_scaling(self, tmp_path):
        _, t1 = run_cli(tmp_path, "bounds", "--n", "16", "--m", "1",
                        "--probe", "noon", "--axis", "z")
        _, t4 = run_cli(tmp_path, "bounds", "--n", "16", "--m", "4",
                        "--probe", "noon", "--axis", "z")
        r1, r4 = json.loads(t1)["results"], json.loads(t4)["results"]
        for key in ("shot_noise", "heisenberg", "quantum_cramer_rao"):
            assert r4[key] == pytest.approx(r1[key] / 2)


class TestFisherScan:
    def test_css_constant_column(self, tmp_path):
        code, text = run_cli(tmp_path, "fisher-scan", "--n", "10", "--probe",
                             "fock", "--axis", "y", "--povm", "counting",
                             "--theta-grid", "0.2:1.4:7", "--format", "csv")
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "theta,fisher,qfi,four_var,flagged"
        for line in lines[1:]:
            _, f, fq, fv, _ = line.split(",")
            assert float(f) == pytest.approx(10.0, abs=1e-8)
            assert float(f) <= float(fq) + 1e-9
            assert float(fq) <= float(fv) + 1e-9

    def test_twin_fock_value(self, tmp_path):
        _, text = run_cli(tmp_path, "fisher-scan", "--n", "10", "--probe",
                          "twin-fock", "--axis", "y", "--theta-grid",
                          "0.3:0.7:2", "--format", "csv")
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(60.0, abs=1e-6)

    def test_noon_projection_scan(self, tmp_path):
        _, text = run_cli(tmp_path, "fisher-scan", "--n", "8", "--probe", "noon",
                          "--axis", "z", "--povm", "projection",
                          "--theta-grid", "0.001:0.5:4", "--format", "csv")
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(64.0, abs=1e-4)


class TestEstimationCommands:
    def test_mle_report(self, tmp_path):
        code, text = run_cli(tmp_path, "mle", "--n", "1", "--probe", "fock",
                             "--mu", "0.5", "--axis", "y", "--theta", "0.8",
                             "--m", "400", "--trials", "50", "--seed", "7",
                             "--domain", "0:3.141592653589793")
        assert code == EXIT_OK
        results = json.loads(text)["results"]
        assert results["crlb"] == pytest.approx(1 / 400, abs=1e-12)
        assert abs(results["mean"] - 0.8) < 0.05
        assert len(results["estimates"]) == 50

    def test_mle_requires_domain(self, tmp_path):
        code, _ = run_cli(tmp_path, "mle", "--n", "1", "--probe", "fock",
                          "--mu", "0.5", "--axis", "y", "--theta", "0.8",
                          "--m", "10", out_name="x.json")
        assert code == EXIT_CONFIG

    def test_mle_boundary_pileup_statistical_exit(self, tmp_path):
        # tiny true phase: most trials see only 'up' counts and park at the edge
        code, _ = run_cli(tmp_path, "mle", "--n", "1", "--probe", "fock",
                          "--mu", "0.5", "--axis", "y", "--theta", "0.02",
                          "--m", "20", "--trials", "20", "--seed", "3",
                          "--domain", "0:3.141592653589793", out_name="x.json")
        assert code == EXIT_STATISTICAL

    def test_bayes_border_support_statistical_exit(self, tmp_path, capsys):
        # m = 3 leaves the posterior far from zero at the domain borders
        code, _ = run_cli(tmp_path, "bayes", "--n", "4", "--m", "3", "--trials", "2",
                          "--theta", "0.5", "--domain", "0:1.5", out_name="x.json")
        assert code == EXIT_STATISTICAL
        assert "statistical failure: posterior does not vanish" in capsys.readouterr().err

    def test_moment_out_of_range_prints_round_trip_numbers(self, capsys):
        # the range's low end, -<J_x> sin(1.5707963), is -1 + 1e-16: at 6 digits both
        # numbers read -1
        code = main(["moments", "--n", "2", "--probe", "css", "--theta",
                     "1.5707963267948966", "--m", "5", "--trials", "3", "--domain",
                     "0:1.5707963", "--seed", "1"])
        assert code == EXIT_STATISTICAL
        (line,) = capsys.readouterr().err.splitlines()
        match = re.fullmatch(r"statistical failure: sample moment (\S+) outside the range "
                             r"\[(\S+), (\S+)\] of <M> over the domain", line)
        moment, low, high = (float(v) for v in match.groups())
        assert moment == -1.0 and -1.0 < low < -1.0 + 1e-12 and high == 0.0
        assert match.group(2) == f"{low:.17g}"

    @pytest.mark.parametrize("n", ["2", "1000"])
    def test_moment_at_the_turning_point_is_a_statistical_failure(self, capsys, n):
        # every draw at theta = pi/2 is mu = -j, the extreme value of <J_z>, which the
        # domain's upper end reaches: the slope there vanishes, whatever the round-off
        code = main(["moments", "--n", n, "--probe", "css", "--theta",
                     "1.5707963267948966", "--m", "5", "--trials", "3", "--domain",
                     "0:1.5707963267948966", "--seed", "1"])
        assert code == EXIT_STATISTICAL
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == ""
        assert line.startswith("statistical failure: d<J_z>/dphi vanishes at the estimate")

    def test_bayes_m_zero_emits_prior(self, tmp_path):
        code, text = run_cli(tmp_path, "bayes", "--n", "1", "--probe", "fock",
                             "--mu", "0.5", "--axis", "y", "--theta", "0.8",
                             "--m", "0", "--domain", "0:3.141592653589793",
                             "--format", "csv")
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        densities = {float(line.split(",")[1]) for line in lines[1:]}
        assert len(densities) == 1  # flat prior echoed back
        assert densities.pop() == pytest.approx(1 / math.pi, rel=1e-6)

    def test_moments_non_monotone_domain_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "moments", "--n", "20", "--probe", "css",
                          "--axis", "y", "--theta", "0.6", "--m", "100",
                          "--domain", "0.1:2.5", out_name="x.json")
        assert code == EXIT_CONFIG

    def test_moments_report(self, tmp_path):
        code, text = run_cli(tmp_path, "moments", "--n", "20", "--probe", "css",
                             "--axis", "y", "--theta", "0.6", "--m", "1000",
                             "--trials", "4", "--seed", "2",
                             "--domain", "0.1:1.2")
        results = json.loads(text)["results"]
        assert results["prediction_at_theta_true"] == pytest.approx(
            1 / (1000 * 20), abs=1e-12)


class TestWitnessCommands:
    def test_depth_staircase_endpoints(self, tmp_path):
        code, text = run_cli(tmp_path, "depth", "--n", "100", "--fisher",
                             "2500", "--format", "csv")
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[1] == "1,100,0,100"
        assert lines[100] == "100,1,0,10000"

    def test_noon_depth_is_n(self, tmp_path):
        _, text = run_cli(tmp_path, "depth", "--n", "8", "--probe", "noon",
                          "--axis", "z")
        results = json.loads(text)["results"]
        assert results["depth"] == 8
        assert results["fisher_source"] == "F_Q"

    def test_css_squeeze_unity(self, tmp_path):
        _, text = run_cli(tmp_path, "squeeze", "--n", "12", "--probe", "css")
        results = json.loads(text)["results"]
        assert results["xi_r_squared"] == pytest.approx(1.0, abs=1e-10)
        assert results["xi_r_prime_squared"] == pytest.approx(1.0, abs=1e-10)

    def test_css_squeeze_unity_beyond_float_binomials(self, tmp_path):
        code, text = run_cli(tmp_path, "squeeze", "--n", "1100", "--probe", "css",
                             out_name="squeeze.json")
        assert code == EXIT_OK
        assert json.loads(text)["results"]["xi_r_squared"] == pytest.approx(1.0, abs=1e-10)


class TestQfiCommand:
    def test_noon_optimal_axis(self, tmp_path):
        _, text = run_cli(tmp_path, "qfi", "--n", "10", "--probe", "noon",
                          "--axis", "z")
        results = json.loads(text)["results"]
        assert results["qfi"] == pytest.approx(100.0, abs=1e-9)
        assert results["qfi_max"] == pytest.approx(100.0, abs=1e-9)


class TestReproducibility:
    def test_identical_config_identical_csv_bytes(self, tmp_path):
        argv = ["mle", "--n", "1", "--probe", "fock", "--mu", "0.5", "--axis",
                "y", "--theta", "0.8", "--m", "50", "--trials", "10", "--seed",
                "99", "--domain", "0:3.141592653589793", "--format", "csv"]
        _, first = run_cli(tmp_path, *argv)
        _, second = run_cli(tmp_path, *argv)
        assert first == second
        assert first.endswith("\n") and "\r" not in first

    def test_json_report_round_trips_through_config(self, tmp_path):
        _, text = run_cli(tmp_path, "bounds", "--n", "12", "--m", "2",
                          "--probe", "twin-fock", "--axis", "y")
        payload = json.loads(text)
        assert payload["schema"] == "spinmetro-run/1"
        config_file = tmp_path / "replay.json"
        config_file.write_text(json.dumps(payload["config"]))
        _, replay = run_cli(tmp_path, "bounds", "--config", str(config_file))
        assert json.loads(replay)["results"] == payload["results"]

    def test_mix_spec_probe_via_config(self, tmp_path):
        config = {
            "n_particles": 4,
            "probe": {"kind": "mix-spec", "components": [
                {"weight": 0.5, "probe": {"kind": "noon"}},
                {"weight": 0.5, "probe": {"kind": "twin-fock"}},
            ]},
            "axis": "z",
        }
        config_file = tmp_path / "mix.json"
        config_file.write_text(json.dumps(config))
        _, text = run_cli(tmp_path, "qfi", "--config", str(config_file))
        results = json.loads(text)["results"]
        assert 0.0 < results["qfi"] <= 16.0 + 1e-9


BAD_CONFIG_FIELDS = {
    "theta-grid-float-points": {"theta_grid": [0, 1, 2.5]},
    "theta-string": {"theta": "abc"},
    "domain-string-bound": {"domain": [0, "x"]},
    "fisher-value-string": {"fisher_value": "3"},
    "mix-component-without-probe": {"probe": {"kind": "mix-spec",
                                              "components": [{"weight": 1.0}]}},
    "theta-grid-not-a-list": {"theta_grid": 5},
    "probe-not-an-object": {"probe": [1]},
    "fock-mu-list": {"probe": {"kind": "fock", "mu": [1]}},
    "out-not-a-string": {"out": 5},
    "state-file-missing": {"probe": {"kind": "state-file", "path": "missing.json"}},
    "ghz-axis-number": {"probe": {"kind": "ghz", "axis": 5}},
    "mix-component-ghz-axis-number": {"probe": {"kind": "mix-spec", "components": [
        {"weight": 1.0, "probe": {"kind": "ghz", "axis": 5}}]}},
    "m-and-trials-bool": {"m": True, "trials": True},
    "n-particles-bool": {"n_particles": True},
    "seed-bool": {"seed": False},
}


@pytest.mark.parametrize("command", ["bounds", "fisher-scan", "qfi", "mle", "bayes",
                                     "moments", "depth", "squeeze"])
@pytest.mark.parametrize("case", list(BAD_CONFIG_FIELDS))
def test_mistyped_config_value_exits_2(tmp_path, capsys, monkeypatch, case, command):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"n_particles": 4, **BAD_CONFIG_FIELDS[case]}))
    assert main([command, "--config", str(config_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestParser:
    def test_options_before_and_after_the_command(self, capsys):
        argv = ["--n", "4", "--probe", "noon", "bounds", "--axis", "z", "--format", "csv"]
        assert main(argv) == EXIT_OK
        before = capsys.readouterr().out
        assert main(["bounds", "--n", "4", "--probe", "noon", "--axis", "z",
                     "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == before
        args = build_parser().parse_args(["--m", "3", "qfi", "--theta", "0.5"])
        assert (args.command, args.m, args.theta) == ("qfi", 3, 0.5)

    @pytest.mark.parametrize("argv", [["nope", "--n", "4"], [], ["--n", "4"]],
                             ids=["unknown", "missing", "options-only"])
    def test_unknown_or_missing_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_CONFIG
        assert "command" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_mix_spec_is_not_a_probe_flag(self, capsys):
        # a mixture needs its components, which only a --config file can give
        with pytest.raises(SystemExit) as exit_info:
            main(["qfi", "--n", "4", "--probe", "mix-spec"])
        assert exit_info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid choice: 'mix-spec'" in err
        assert "'fock', 'css', 'noon', 'twin-fock', 'ghz'" in err


class TestValidation:
    def test_bad_n_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "bounds", "--n", "0", out_name="x.json")
        assert code == EXIT_CONFIG

    def test_n_above_cap_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "bounds", "--n", str(N_MAX + 1), out_name="x.json")
        assert code == EXIT_CONFIG
        assert str(N_MAX) in capsys.readouterr().err

    def test_bad_seed_rejected(self):
        config = RunConfig(command="bounds", seed=-3)
        with pytest.raises(ValueError):
            config.validate()

    def test_unknown_probe_kind_exits_2(self, tmp_path):
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps({"probe": {"kind": "thermal"}}))
        code, _ = run_cli(tmp_path, "bounds", "--config", str(config_file),
                          out_name="x.json")
        assert code == EXIT_CONFIG

    def test_projection_povm_needs_pure_probe(self, tmp_path):
        config_file = tmp_path / "mixed.json"
        config_file.write_text(json.dumps({
            "n_particles": 4,
            "probe": {"kind": "mix-spec", "components": [
                {"weight": 0.5, "probe": {"kind": "noon"}},
                {"weight": 0.5, "probe": {"kind": "twin-fock"}},
            ]},
            "povm": "projection",
            "theta_grid": [0.1, 0.5, 3],
        }))
        code, _ = run_cli(tmp_path, "fisher-scan", "--config", str(config_file),
                          out_name="x.json")
        assert code == EXIT_CONFIG

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_file = tmp_path / "typo.json"
        config_file.write_text(json.dumps({"n": 30, "n_particles": 4, "sed": 1}))
        assert main(["qfi", "--config", str(config_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys: n, sed\n")

    @pytest.mark.parametrize("n_particles", [2.9, True, "2"])
    def test_state_file_with_a_non_integer_n_exits_2(self, tmp_path, capsys, n_particles):
        state = state_to_json(twin_fock(SpinSpace(2)))
        state["n_particles"] = n_particles
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(state))
        config_file = tmp_path / "probe.json"
        config_file.write_text(json.dumps({"probe": {"kind": "state-file",
                                                     "path": str(state_file)}}))
        assert main(["qfi", "--n", "2", "--config", str(config_file)]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: state file") and "n_particles" in line

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["bounds", "--n", "4", "--m", "1", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {str(out)!r}")

    @pytest.mark.parametrize("command", ["depth", "squeeze", "qfi"])
    def test_state_file_with_other_n_exits_2(self, tmp_path, capsys, command):
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(state_to_json(twin_fock(SpinSpace(4)))))
        config_file = tmp_path / "probe.json"
        config_file.write_text(json.dumps({"probe": {"kind": "state-file",
                                                     "path": str(state_file)}}))
        assert main([command, "--n", "10", "--config", str(config_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "N = 4" in err and "n_particles is 10" in err
        assert main([command, "--n", "4", "--config", str(config_file)]) == EXIT_OK

    def test_state_file_with_other_n_is_refused_before_rho_is_decomposed(
            self, tmp_path, capsys, monkeypatch):
        state_file = tmp_path / "state.json"
        mixed = mix([(0.5, noon(SpinSpace(4))), (0.5, twin_fock(SpinSpace(4)))])
        state_file.write_text(json.dumps(state_to_json(mixed)))
        config_file = tmp_path / "probe.json"
        config_file.write_text(json.dumps({"probe": {"kind": "state-file",
                                                     "path": str(state_file)}}))

        def decomposed(*args, **kwargs):
            raise AssertionError("the state file's rho was decomposed")

        monkeypatch.setattr(states, "eig_hermitian", decomposed)
        assert main(["qfi", "--n", "10", "--config", str(config_file)]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: state file") and "N = 4" in line
        with pytest.raises(AssertionError, match="decomposed"):  # the right N reaches it
            main(["qfi", "--n", "4", "--config", str(config_file)])

    @pytest.mark.parametrize("trials", ["5", "2"])
    def test_flat_prior_takes_one_trial(self, nothing_built, capsys, trials):
        argv = ["bayes", "--n", "6", "--m", "0", "--domain", "0:1.5"]
        assert main([*argv, "--trials", trials]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: bayes --m 0") and "--trials must be 1" in line
        assert RunConfig(command="bayes", m=0, trials=1, domain=(0.0, 1.5)).validate()


#: probe specs with a key their kind does not read, and (kind, key) the error names
UNREAD_PROBE_KEYS = {
    "config-typo": ({"probe": {"kind": "css", "polra": 0.3}}, [], ("css", "polra")),
    "flag-that-does-not-apply": ({}, ["--probe", "twin-fock", "--polar", "0.3"],
                                 ("twin-fock", "polar")),
    "fock-flag-on-a-config-probe": ({"probe": {"kind": "ghz", "axis": "z"}}, ["--mu", "1"],
                                    ("ghz", "mu")),
    "nested-component-probe": ({"probe": {"kind": "mix-spec", "components": [
        {"weight": 0.5, "probe": {"kind": "noon"}},
        {"weight": 0.5, "probe": {"kind": "noon", "mu": 1}}]}}, [], ("noon", "mu")),
    "nested-component": ({"probe": {"kind": "mix-spec", "components": [
        {"weight": 1.0, "probe": {"kind": "noon"}, "wieght": 1.0}]}}, [],
        ("mix-spec component", "wieght")),
}


@pytest.mark.parametrize("case", list(UNREAD_PROBE_KEYS))
def test_probe_key_its_kind_does_not_read_exits_2(tmp_path, capsys, nothing_built, case):
    values, flags, (kind, key) = UNREAD_PROBE_KEYS[case]
    config_file = tmp_path / "probe.json"
    config_file.write_text(json.dumps({"n_particles": 4, **values}))
    assert main(["qfi", "--config", str(config_file), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and kind in line and repr(key) in line, line


@pytest.mark.parametrize("spec", [
    {"kind": "fock", "mu": 1}, {"kind": "css", "polar": 1.0, "azimuth": 0.2},
    {"kind": "ghz", "axis": "x"}, {"kind": "noon"}, {"kind": "twin-fock"},
    {"kind": "mix-spec", "components": [{"weight": 1.0, "probe": {"kind": "css",
                                                                  "polar": 1.0}}]},
])
def test_every_key_a_probe_kind_reads_is_accepted(spec):
    assert RunConfig(command="qfi", n_particles=4, probe=spec).validate().probe == spec


#: every (command, requirement) pair, with the flag that meets the requirement
REQUIREMENTS = [
    ("bounds", "m"), ("fisher-scan", "theta_grid"),
    ("mle", "domain"), ("mle", "theta"), ("mle", "m"),
    ("bayes", "domain"), ("bayes", "theta"),
    ("moments", "domain"), ("moments", "theta"), ("moments", "m"),
]
MEETS = {"theta_grid": ["--theta-grid", "0.1:1.4:8"], "domain": ["--domain", "0:1.5"],
         "theta": ["--theta", "0.7"], "m": ["--m", "10"]}


@pytest.fixture
def nothing_built(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a probe or model was built")

    monkeypatch.setattr(cli, "build_probe", built)
    monkeypatch.setattr(cli, "ProbabilityModel", built)


class TestRequirements:
    def test_table_lists_every_requirement(self):
        assert sorted((c, r) for c, reqs in cli._REQUIRES.items() for r in reqs) == sorted(
            REQUIREMENTS)

    @pytest.mark.parametrize("command, missing", REQUIREMENTS,
                             ids=[f"{c}-{r}" for c, r in REQUIREMENTS])
    def test_missing_requirement_exits_2_before_anything_is_built(
            self, nothing_built, capsys, command, missing):
        argv = [command, "--n", str(N_MAX), "--probe", "css"]
        for key in (r for c, r in REQUIREMENTS if c == command and r != missing):
            argv += MEETS[key]
        if missing == "m":  # m defaults to 1, so the missing case is m = 0
            argv += ["--m", "0"]
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.strip().splitlines()
        flag = "--" + missing.replace("_", "-")
        assert len(lines) == 1 and lines[0].startswith(f"error: {command} needs {flag}"), lines

    #: the N = 4096 moments run that built the model and two dense 4097^2 arrays
    MOMENTS = ["moments", "--n", str(N_MAX), "--probe", "css", "--theta", "0.7", "--m", "300",
               "--trials", "200", "--domain", "0:1.5", "--seed", "3"]

    def test_moments_with_the_projection_povm_exits_2_before_anything_is_built(
            self, nothing_built, capsys):
        assert main([*self.MOMENTS, "--povm", "projection"]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: moments needs --povm counting")

    def test_out_in_a_missing_directory_exits_2_before_anything_is_built(
            self, nothing_built, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main([*self.MOMENTS, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {str(out)!r}")


    def test_bayes_flat_prior_needs_no_theta(self, capsys):
        assert main(["bayes", "--m", "0", "--domain", "0:1.5"]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["prior"] == "flat" and results["m"] == 0
        assert results["posterior_mean"] == pytest.approx(0.75)


def _one_numerical_failure_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines
    return lines[0]


class TestNumericalFailure:
    """A NumericalError exits 4 with one stderr line, never with a traceback."""

    def test_twin_fock_bayes_at_n1000_never_escapes_main(self, capsys):
        # the 2048-point posterior grid does not resolve this posterior: its variance
        # falls below the bound G^-1, which used to escape as an AssertionError
        code = main(["bayes", "--n", "1000", "--probe", "twin-fock", "--theta", "0.7",
                     "--m", "100", "--domain", "0:1.5", "--trials", "5", "--seed", "3"])
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        if code == EXIT_NUMERICAL:
            assert "fell below its bound" in _one_numerical_failure_line(capsys)

    def test_spectrum_that_misses_mu_exits_4(self, capsys, monkeypatch):
        exact = spins._half_ladder
        monkeypatch.setattr(spins, "_half_ladder", lambda space: exact(space) + 1e-3)
        assert main(["fisher-scan", "--n", "6", "--theta-grid", "0:1:3"]) == EXIT_NUMERICAL
        assert "miss mu" in _one_numerical_failure_line(capsys)

    def test_probabilities_that_do_not_normalise_exit_4(self, capsys, monkeypatch):
        exact = fisher.core_columns

        def stretched(space, axis):  # eigenvectors of norm 1.001
            phase, blocks = exact(space, axis)
            return phase, ((index, 1.001 * w) for index, w in blocks)
        monkeypatch.setattr(fisher, "core_columns", stretched)
        assert main(["fisher-scan", "--n", "6", "--theta-grid", "0:1:3"]) == EXIT_NUMERICAL
        assert "do not normalise" in _one_numerical_failure_line(capsys)

    def test_eigensolver_that_does_not_converge_exits_4(self, tmp_path, capsys,
                                                        monkeypatch):
        # a mix-spec probe factorises the Gram matrix of its components by eig_hermitian
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        config_file = tmp_path / "mix.json"
        config_file.write_text(json.dumps({"probe": {"kind": "mix-spec", "components": [
            {"weight": 0.5, "probe": {"kind": "noon"}},
            {"weight": 0.5, "probe": {"kind": "twin-fock"}}]}}))
        assert main(["qfi", "--n", "4", "--config", str(config_file)]) == EXIT_NUMERICAL
        assert "did not converge" in _one_numerical_failure_line(capsys)

    def test_eigenvalue_crossing_exits_4(self, capsys, monkeypatch):
        def crossing(config):
            raise fisher.EigenvalueCrossingError("eigenvector branches cannot be matched")
        monkeypatch.setattr(cli, "run", crossing)
        assert main(["qfi", "--n", "4"]) == EXIT_NUMERICAL
        assert "branches cannot be matched" in _one_numerical_failure_line(capsys)


def _depth(capsys, *argv) -> int:
    assert main(["depth", *argv]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["results"]["depth"]


@pytest.mark.parametrize("n", [20, 1000])
def test_depth_matches_closed_forms(capsys, n):
    """Depth against the closed forms, not the program's staircase: a coherent state
    is 1-producible (F_Q = N), NOON needs all N particles (F_Q = N^2 about z), and
    twin-Fock (F_Q = N^2/2 + N about y) needs the smallest k whose k-producible
    ceiling s k^2 + r^2, with N = s k + r, reaches N^2/2 + N: 14 at N = 20, 523 at
    N = 1000."""
    assert _depth(capsys, "--n", str(n), "--probe", "css", "--axis", "y") == 1
    assert _depth(capsys, "--n", str(n), "--probe", "noon", "--axis", "z") == n
    twin_fock_depth = next(k for k in range(1, n + 1)
                           if (n // k) * k * k + (n % k) ** 2 >= n * n / 2 + n)
    assert twin_fock_depth == {20: 14, 1000: 523}[n]
    assert _depth(capsys, "--n", str(n), "--probe", "twin-fock", "--axis", "y") == \
        twin_fock_depth

@pytest.mark.parametrize("array", [
    np.array([0.5, -0.0, 1e-300, 2.0**60]),
    np.array([[0.25, 3.0], [-1.5, 7.0]], dtype=np.float32),
    np.array([1.0, np.nan, 2.0]),
    np.array([[np.inf, 1.0], [-np.inf, np.nan]]),
    np.arange(-2, 3),
    np.array([[True, False]]),
    [3, 0.5, -0.0, 5e-324, 10**30],
    (1, 2.5, -7),
    [1, 2.5, True, False],
    (0.5, math.nan, 2),
    [1.0, -math.inf, 3],
    [1e308, 1e308, -2],
    [10**400, 0.5],
    [np.float64(1.5), 2.0, np.int64(3)],
    (),
], ids=["finite", "float32-2d", "nan", "inf-2d", "int", "bool", "list-numbers",
        "tuple-numbers", "list-bools", "tuple-nan", "list-inf", "list-sum-overflows",
        "list-int-beyond-float", "list-numpy-scalars", "empty-tuple"])
def test_json_safe_array_matches_the_element_wise_path(array):
    items = array.tolist() if isinstance(array, np.ndarray) else array
    got, want = json_safe(array), [json_safe(v) for v in items]
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", list(golden.invocations()))
def test_every_golden_report_is_the_json_dumps_layout(name):
    text = golden.render(golden.invocations()[name], "json")
    assert text == _dumps(json.loads(text)) + "\n"


_special_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308,
                                   math.nan, math.inf, -math.inf])
_leaves = st.one_of(
    st.floats(), _special_floats, st.integers(), st.sampled_from([10**400, -(10**30)]),
    st.booleans(), st.none(), st.text(),
    st.sampled_from(["é→∑", "\x00\x1f\x7f", "tab\tquote\"slash\\", "\ud800", "😀"]),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
_trees = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4)), max_leaves=12)


@settings(max_examples=400)
@given(_trees)
def test_json_text_is_json_dumps_with_indent_and_sorted_keys(value):
    safe = json_safe(value)
    assert json_text(safe) == _dumps(safe)


def test_one_parser_per_process_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ["bounds", "--n", "5", "--m", "2"]
    assert main([*argv, "--seed", "5", "--trials", "3"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)["config"]
    assert main(argv) == EXIT_OK
    second = json.loads(capsys.readouterr().out)["config"]
    assert (first["seed"], first["trials"]) == (5, 3)
    assert (second["seed"], second["trials"]) == (0, 1)
    assert {k: v for k, v in first.items() if k not in ("seed", "trials")} == \
        {k: v for k, v in second.items() if k not in ("seed", "trials")}
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--m", "two"])
    assert exit_info.value.code == EXIT_CONFIG
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    fresh = subprocess.run([sys.executable, "-m", "spinmetro.cli", *argv], env=SRC_ENV,
                           capture_output=True, text=True, check=True)
    assert capsys.readouterr().out == fresh.stdout


def test_import_spinmetro_loads_neither_json_nor_argparse():
    """Both come with the CLI; a library import (and setup time) goes without them."""
    code = "import sys, spinmetro; print(sorted({'json', 'argparse'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_every_parser_dest_is_a_config_field():
    """Each flag sets the RunConfig field of its dest, apart from the listed extras."""
    dests = {action.dest for action in build_parser()._actions
             if not isinstance(action, (argparse._HelpAction, argparse._VersionAction))}
    extras = {"config", "mu", "polar", "azimuth", "n1", "n2", "n3"}
    assert dests - extras <= {f.name for f in dataclasses.fields(RunConfig)}
    assert extras <= dests
