"""Smoke tests of the benchmark at N = 4 (no timing gates).

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_built_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert f"(failed 0 of {result['attempted']} invocations)" in proc.stdout


def test_exact_counters_repeat_between_traced_runs():
    from tracer import EXACT
    first, second = (last_json(run_bench("mc-small-n", 1, seed=9))["metrics"]
                     for _ in range(2))
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert first["fisher.table.calls"]["value"] > 0
    assert first["estimation.sample.draws"]["value"] > 0


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 11), workloads.build(name, 11)
        c = workloads.build(name, 12)
        assert a == b
        assert a.invocations != c.invocations


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("mc-small-n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_flags_a_wrong_bound():
    inv = workloads.Invocation("bounds", "twin-fock", 10, m=100)
    good = {"shot_noise": 1 / 100 ** 0.5 / 10 ** 0.5, "heisenberg": 1 / (10 * 10),
            "qfi": 60.0, "quantum_cramer_rao": 1 / (100 * 60.0) ** 0.5}
    text = json.dumps({"command": "bounds", "config": {"n_particles": 10},
                       "results": good})
    assert oracle.check(inv, text) == []
    bad = dict(good, qfi=60.0 * (1 + 1e-6))
    text = json.dumps({"command": "bounds", "config": {"n_particles": 10},
                       "results": bad})
    assert oracle.check(inv, text)
    assert oracle.check(inv, "not json")


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import spinmetro
    from spinmetro import cli, estimation, fisher
    from tracer import Tracer
    before = (cli.fisher_information, estimation.fisher_information, cli.sample,
              spinmetro.eig_hermitian, fisher.ProbabilityModel.probability_table,
              dict(cli.COMMANDS))
    tracer = Tracer()
    tracer.install(memory=True)
    try:
        assert cli.fisher_information is not before[0]
        assert cli.fisher_information is estimation.fisher_information
        assert cli.COMMANDS["mle"] is not before[5]["mle"]
    finally:
        tracer.uninstall()
    after = (cli.fisher_information, estimation.fisher_information, cli.sample,
             spinmetro.eig_hermitian, fisher.ProbabilityModel.probability_table,
             dict(cli.COMMANDS))
    assert after == before
