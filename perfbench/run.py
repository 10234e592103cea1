"""End-to-end and per-layer benchmark of the spinmetro CLI.

    python3 perfbench/run.py --workload mc-small-n --seed 1 --seconds 38 --trace 0

One run is one process.  It times fresh interpreters that import spinmetro
(`setup_s`), then drives ``spinmetro.cli.main(argv)`` in-process through the
workload's invocation list -- one "pass" -- again and again until the next
round would end after `--seconds`.  Every output is checked by
`oracle.check`, and every pass must reproduce the first one byte for byte.

``--trace 0`` runs plain passes and reports the end-to-end metrics.
``--trace 1`` repeats a round of three passes: plain, traced for timing,
and traced with tracemalloc for allocation peaks.  It reports the per-layer
metrics, checks that tracing leaves the CLI output byte-identical and that
the exact counters repeat, and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
spinmetro sources under ``src/`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 15
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, spinmetro; "
              "spinmetro.eig_hermitian(numpy.array([[2.0, 1.0], [1.0, 2.0]]))")

#: command -> the wall-time bucket it is summed into
BUCKETS = {"fisher-scan": "wall.fisher-scan_s", "bounds": "wall.info_s",
           "qfi": "wall.info_s", "depth": "wall.info_s", "squeeze": "wall.info_s",
           "mle": "wall.mle_s", "bayes": "wall.bayes_s", "moments": "wall.moments_s"}


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "memory_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "machine": platform.machine(),
    }


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh processes that import spinmetro and call eig_hermitian once."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(cli, workload, config_dir, mode, tracer=None) -> dict:
    """Drive every invocation once; only the call into cli.main is timed."""
    records = []
    first_span = len(tracer.spans) if tracer else 0
    for inv in workload.invocations:
        argv = inv.argv(config_dir)
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.command = inv.command
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call("invocation", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed invocation
            code = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        text = out.getvalue()
        problems = ([f"exit {code!r}: {err.getvalue().strip()[:300]}"] if code != 0
                    else oracle.check(inv, text))
        records.append({"command": inv.command, "wall": wall, "problems": problems,
                        "digest": hashlib.sha256(text.encode()).hexdigest()})
    return {"mode": mode, "records": records, "wall_s": sum(r["wall"] for r in records),
            "spans": tracer.spans[first_span:] if tracer else []}


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    ranked = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ranked[int(p / 100 * len(ranked))]
            break
    return out


def end_to_end(passes, setup_times) -> tuple[dict, list[str]]:
    """wall_s and wall.* sum, over invocations, each invocation's median pass time.

    A burst of load on the shared machine slows one invocation of one pass;
    the per-invocation median drops it where a median of pass totals keeps
    part of it.
    """
    plain = [p for p in passes if p["mode"] == "plain"]
    per_inv = [statistics.median(column) for column in
               zip(*([r["wall"] for r in p["records"]] for p in plain))]
    buckets: dict[str, float] = {}
    for r, median in zip(plain[0]["records"], per_inv):
        buckets[BUCKETS[r["command"]]] = buckets.get(BUCKETS[r["command"]], 0.0) + median
    setup = summary(setup_times)
    totals = summary([p["wall_s"] for p in plain])
    lines = [f"{'setup_s':<22} s      median={setup['median']:.6g}  n={setup['n']}",
             f"{'wall_s':<22} s      {sum(per_inv):.6g}  (pass totals: "
             + "  ".join(f"{k}={v:.6g}" for k, v in totals.items()) + ")"]
    lines += [f"{name:<22} s      {value:.6g}" for name, value in sorted(buckets.items())]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"{'peak_rss_mb':<22} MB     {rss:.6g}")
    metrics = {"setup_s": setup["median"], "wall_s": sum(per_inv), "peak_rss_mb": rss}
    return metrics, lines


def per_layer(passes) -> tuple[dict, list[str], list[str]]:
    """Per-layer medians: times from timing passes, peaks from memory passes."""
    # tracer imports numpy, so it is imported only after the BLAS threads are pinned
    from tracer import EXACT, layer_metrics, self_time_by_command
    by_mode = {mode: [p for p in passes if p["mode"] == mode]
               for mode in ("plain", "timing", "memory")}
    layers = {mode: [layer_metrics(p["spans"]) for p in by_mode[mode]]
              for mode in ("timing", "memory")}
    metrics = {}
    for name in layers["timing"][0]:
        source = layers["memory" if name.endswith("_mb") else "timing"]
        metrics[name] = statistics.median(m[name] for m in source)
    walls = {mode: statistics.median(p["wall_s"] for p in ps) for mode, ps in by_mode.items()}
    metrics["trace.overhead_s"] = walls["timing"] - walls["plain"]
    problems = []
    traced = layers["timing"] + layers["memory"]
    for name in EXACT:
        seen = [m[name] for m in traced]
        if len(set(seen)) > 1:
            problems.append(f"counter {name} differs between traced passes: {seen}")

    lines = [f"{name:<42} {value:.6g}" for name, value in metrics.items()]
    lines.append(f"tracemalloc pass overhead_s                 "
                 f"{walls['memory'] - walls['plain']:.6g}")
    # shares of each command's traced wall time that the layers account for
    first = by_mode["timing"][0]
    self_s = self_time_by_command(first["spans"])
    command_s: dict[str, float] = {}
    for r in first["records"]:
        command_s[r["command"]] = command_s.get(r["command"], 0.0) + r["wall"]

    def share(commands, prefixes):
        total = sum(command_s.get(c, 0.0) for c in commands)
        part = sum(v for (c, name), v in self_s.items()
                   if c in commands and name.startswith(prefixes))
        return part / total if total else None

    for label, commands, prefixes in (
        ("fisher-scan: povm + model_build", ("fisher-scan",),
         ("fisher.povm", "fisher.model_build")),
        ("mle+moments: estimation + fisher.table", ("mle", "moments"),
         ("estimation.", "fisher.table", "fisher.povm_coefficients")),
        ("bayes: estimation + fisher.table", ("bayes",), ("estimation.", "fisher.table")),
    ):
        value = share(commands, prefixes)
        if value is not None:
            lines.append(f"share of traced {label} self time: {value:.3f}")
    return metrics, lines, problems


def write_trace(path: Path, env: dict, workload, passes) -> None:
    path.write_text(json.dumps({
        "env": env, "workload": workload.name, "seed": workload.seed,
        "span_fields": ["id", "parent", "name", "command", "t0", "t1",
                        "alloc_peak_bytes", "counts"],
        "passes": [{"mode": p["mode"], "wall_s": p["wall_s"],
                    "spans": [s.as_list() for s in p["spans"]]} for p in passes],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="N = 4 and a handful of trials (smoke tests only)")
    args = parser.parse_args(argv)

    if not (SRC / "spinmetro" / "__init__.py").is_file():
        print(f"error: spinmetro sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import spinmetro
    from spinmetro import cli
    if Path(spinmetro.__file__).resolve().parent != SRC / "spinmetro":
        print(f"error: imported spinmetro from {spinmetro.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    env = environment(threads)
    setup_times = [] if args.trace else measure_setup(2 if args.tiny else SETUP_REPEATS)

    tracer = None
    round_modes = ("plain",)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        round_modes = ("plain", "timing", "memory")
    OUT.mkdir(parents=True, exist_ok=True)
    config_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    passes = []
    try:
        for fname, text in workload.files.items():
            Path(config_dir, fname).write_text(text)
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            for mode in round_modes:
                if mode == "plain":
                    passes.append(run_pass(cli, workload, config_dir, mode))
                    continue
                tracer.install(memory=mode == "memory")
                try:
                    passes.append(run_pass(cli, workload, config_dir, mode, tracer))
                finally:
                    tracer.uninstall()
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)

    for p in passes[1:]:
        for a, b in zip(passes[0]["records"], p["records"]):
            if a["digest"] != b["digest"]:
                b["problems"].append("output differs from the first (untraced) pass")
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(bool(r["problems"]) for p in passes for r in p["records"])

    print(f"# workload {workload.name}  seed {workload.seed}  N={workload.n}  "
          f"passes={len(passes)}  trace={args.trace}")
    print(f"# why: {why[workload.name]}")
    print("# env " + json.dumps(env, sort_keys=True))
    for i, inv in enumerate(workload.invocations):
        print(f"# invocation {i}: spinmetro {' '.join(inv.argv('<config-dir>'))}")
    for k, p in enumerate(passes):
        for i, r in enumerate(p["records"]):
            for problem in r["problems"]:
                print(f"# FAIL pass {k} ({p['mode']}) invocation {i} ({r['command']}): "
                      f"{problem}", file=sys.stderr)

    if args.trace:
        metrics, lines, problems = per_layer(passes)
        declared = spec["per_layer"]
        trace_path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
        write_trace(trace_path, env, workload, passes)
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(passes, setup_times)
        declared, problems = spec["end_to_end"], []
    lines.append(f"{'fail_frac':<22} ratio  {failed / attempted:.6g}  "
                 f"(failed {failed} of {attempted} invocations)")
    print("\n".join(lines))
    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
