"""In-memory span tracer that wraps spinmetro's public functions from outside.

`Tracer.install()` replaces every binding of each wrapped function -- in the
defining module, in every module that imported the name (``cli.sample``,
``estimation.fisher_information``, ...) and in the package namespace --
and patches `ProbabilityModel` methods on the class.  `uninstall()` puts the
originals back.  The program's own code is not changed.

A span records its name, parent, start and end, a few counts taken from the
call's arguments or result and, when the tracer runs with ``memory=True``,
the tracemalloc peak of the bytes allocated while it was open.  tracemalloc
slows allocation-heavy Python code by more than 2x, so span times are taken
from passes without it and allocation peaks from passes with it.  A function
that re-enters itself (``json_safe`` recursion) opens no nested span.  Spans
stay in memory; the caller writes them out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np


def _rows(args, kwargs, result):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    return {"rows": int(np.atleast_1d(thetas).size)}


def _draws(args, kwargs, result):
    return {"draws": int(args[2] if len(args) > 2 else kwargs["m"])}


def _dim(args, kwargs, result):
    return {"dim": int(np.shape(args[0] if args else kwargs["a"])[0])}


def _flagged(args, kwargs, result):
    return {"flagged": len(result.flagged)}


def _trials(args, kwargs, result):
    out = {"trials": result.trials}
    if hasattr(result, "boundary_fraction"):
        out["boundary"] = result.boundary_fraction * result.trials
    return out


def _output_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


#: (module, public names, span name, counts taken from (args, kwargs, result))
TARGETS = (
    ("linalg", ("eig_hermitian",), "linalg.eig_hermitian", _dim),
    ("spins", ("op_j", "op_jx", "op_jy", "op_jz", "op_ladder_plus"), "spins.op_j", None),
    ("states", ("fock", "spin_polarized", "twin_fock", "coherent_spin", "noon",
                "ghz_along", "mix", "state_from_json"), "states.build", None),
    ("fisher", ("povm_number_counting", "povm_probe_projection"), "fisher.povm", None),
    ("fisher", ("povm_diagonal_coefficients",), "fisher.povm_coefficients", None),
    ("fisher", ("fisher_information",), "fisher.fisher_information", _flagged),
    ("fisher", ("qfi", "qfi_pure", "qfi_mixed", "qfi_unitary"), "fisher.qfi", None),
    ("fisher", ("optimal_axis",), "fisher.optimal_axis", None),
    ("estimation", ("sample",), "estimation.sample", _draws),
    ("estimation", ("mle",), "estimation.mle", None),
    ("estimation", ("mle_monte_carlo",), "estimation.mle", _trials),
    ("estimation", ("method_of_moments",), "estimation.moments", None),
    ("estimation", ("moments_monte_carlo",), "estimation.moments", _trials),
    ("estimation", ("bayes_monte_carlo",), "estimation.bayes", _trials),
    ("estimation", ("bayes_posterior", "log_likelihood"), "estimation.bayes.posterior", None),
    ("estimation", ("posterior_summaries", "bayes_variance_bound"),
     "estimation.bayes.summaries", None),
    ("entanglement", ("squeezing", "squeezing_fisher_check", "entanglement_depth",
                      "useful_entanglement", "k_bound"), "entanglement", None),
    ("reporting", ("json_safe",), "reporting.json_safe", None),
    ("cli", ("build_parser", "config_from_args"), "cli.config", None),
    ("cli", ("run",), "cli.run", _output_bytes),
)

#: ProbabilityModel methods, patched on the class
METHOD_TARGETS = (
    ("__init__", "fisher.model_build", None),
    ("probability_table", "fisher.table", _rows),
    ("derivative_table", "fisher.table", _rows),
)


class Span:
    __slots__ = ("sid", "parent", "name", "command", "t0", "t1", "mem0", "peak",
                 "counts")

    def __init__(self, sid, parent, name, command, mem0):
        self.sid, self.parent, self.name, self.command = sid, parent, name, command
        self.mem0, self.peak, self.counts = mem0, mem0, None
        self.t0 = self.t1 = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def alloc_peak(self) -> int:
        """Most bytes held above the level at entry while the span was open."""
        return self.peak - self.mem0

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.command, self.t0, self.t1,
                self.alloc_peak, self.counts]


PACKAGE = "spinmetro"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command: str | None = None
        self.memory = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> Span:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), self._stack[-1].sid if self._stack else None,
                    name, self.command, current)
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()
        if not self.memory:
            return
        _, peak = tracemalloc.get_traced_memory()
        span.peak = max(span.peak, peak)
        if self._stack:
            parent = self._stack[-1]
            parent.peak = max(parent.peak, span.peak)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` (for the benchmark's own call sites)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counts=None):
        tracer = self
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts = counts(args, kwargs, result)
                return result
            finally:
                tracer._close(span)
                depth[0] -= 1

        return traced

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, memory: bool) -> None:
        """Wrap every binding of every target; with `memory`, start tracemalloc."""
        self.memory = memory
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for short, names, span_name, counts in TARGETS:
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(original, span_name, counts)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, traced)
        cli = sys.modules[f"{PACKAGE}.cli"]
        for command, fn in list(cli.COMMANDS.items()):
            self._patch_item(cli.COMMANDS, command, self.wrap(fn, "cli.command"))
        model_cls = sys.modules[f"{PACKAGE}.fisher"].ProbabilityModel
        for method, span_name, counts in METHOD_TARGETS:
            self._patch(model_cls, method, self.wrap(getattr(model_cls, method),
                                                     span_name, counts))
        if memory:
            tracemalloc.start()

    def _patch_item(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# -- per-layer aggregation ---------------------------------------------------

def _self_times(spans) -> dict[int, float]:
    """span id -> duration minus the durations of its child spans."""
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _by_name(spans):
    """name -> (calls, self seconds, outermost inclusive seconds, alloc peak, counts)."""
    by_id = {s.sid: s for s in spans}
    self_s = _self_times(spans)
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "self": 0.0, "incl": 0.0,
                                    "alloc": 0, "counts": {}})
        a["calls"] += 1
        a["self"] += self_s[s.sid]
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            a["incl"] += s.duration
        a["alloc"] = max(a["alloc"], s.alloc_peak)
        for key, value in (s.counts or {}).items():
            if key == "dim":
                a["counts"][key] = max(a["counts"].get(key, 0), value)
            else:
                a["counts"][key] = a["counts"].get(key, 0) + value
    return agg


def self_time_by_command(spans) -> dict[tuple[str, str], float]:
    """(command, span name) -> self seconds."""
    self_s = _self_times(spans)
    out: dict[tuple[str, str], float] = {}
    for s in spans:
        key = (s.command, s.name)
        out[key] = out.get(key, 0.0) + self_s[s.sid]
    return out


def _per_command(spans, name, command, count=None):
    """Calls (or a summed count) of span `name` inside invocations of `command`."""
    hits = [s for s in spans if s.name == name and s.command == command]
    if count is None:
        return len(hits)
    return sum((s.counts or {}).get(count, 0) for s in hits)


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass of a workload."""
    agg = _by_name(spans)
    empty = {"calls": 0, "self": 0.0, "incl": 0.0, "alloc": 0, "counts": {}}

    def get(name):
        return agg.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    mb = 1.0 / 2**20
    mle, moments, bayes = get("estimation.mle"), get("estimation.moments"), get("estimation.bayes")
    mle_trials = mle["counts"].get("trials", 0)
    moment_trials = moments["counts"].get("trials", 0)
    bayes_trials = bayes["counts"].get("trials", 0)
    return {
        "fisher.povm.self_s": get("fisher.povm")["self"],
        "fisher.povm.alloc_peak_mb": get("fisher.povm")["alloc"] * mb,
        "fisher.model_build.self_s": get("fisher.model_build")["self"],
        "fisher.model_build.alloc_peak_mb": get("fisher.model_build")["alloc"] * mb,
        "fisher.table.calls": get("fisher.table")["calls"],
        "fisher.table.rows": get("fisher.table")["counts"].get("rows", 0),
        "fisher.table.self_s": get("fisher.table")["self"],
        "fisher.table.alloc_peak_mb": get("fisher.table")["alloc"] * mb,
        "fisher.fisher_information.calls": get("fisher.fisher_information")["calls"],
        "fisher.fisher_information.self_s": get("fisher.fisher_information")["self"],
        "fisher.flagged": get("fisher.fisher_information")["counts"].get("flagged", 0),
        "fisher.qfi.self_s": get("fisher.qfi")["self"],
        "fisher.optimal_axis.self_s": get("fisher.optimal_axis")["self"],
        "fisher.povm_coefficients.self_s": get("fisher.povm_coefficients")["self"],
        "linalg.eig_hermitian.calls": get("linalg.eig_hermitian")["calls"],
        "linalg.eig_hermitian.self_s": get("linalg.eig_hermitian")["self"],
        "linalg.eig_hermitian.dim_max": get("linalg.eig_hermitian")["counts"].get("dim", 0),
        "states.build.calls": get("states.build")["calls"],
        "states.build.self_s": get("states.build")["self"],
        "spins.op_j.calls": get("spins.op_j")["calls"],
        "spins.op_j.self_s": get("spins.op_j")["self"],
        "estimation.sample.calls": get("estimation.sample")["calls"],
        "estimation.sample.draws": get("estimation.sample")["counts"].get("draws", 0),
        "estimation.sample.self_s": get("estimation.sample")["self"],
        "estimation.mle.self_s": mle["self"],
        "estimation.mle.table_calls_per_trial": ratio(
            _per_command(spans, "fisher.table", "mle"), mle_trials),
        "estimation.mle.boundary_fraction": ratio(
            mle["counts"].get("boundary", 0.0), mle_trials),
        "estimation.moments.self_s": moments["self"],
        "estimation.moments.table_calls_per_trial": ratio(
            _per_command(spans, "fisher.table", "moments"), moment_trials),
        "estimation.bayes.posterior_s": get("estimation.bayes.posterior")["incl"],
        "estimation.bayes.summaries_s": get("estimation.bayes.summaries")["incl"],
        "estimation.bayes.table_rows_per_trial": ratio(
            _per_command(spans, "fisher.table", "bayes", "rows"), bayes_trials),
        "estimation.trials": mle_trials + moment_trials + bayes_trials,
        "entanglement.self_s": get("entanglement")["self"],
        "cli.config_s": get("cli.config")["incl"],
        "cli.render_s": get("cli.run")["incl"] - get("cli.command")["incl"],
        "reporting.json_safe.self_s": get("reporting.json_safe")["self"],
        "cli.output_bytes": get("cli.run")["counts"].get("bytes", 0),
    }


#: per-layer metrics that are counts: they must repeat exactly for one seed
EXACT = ("fisher.table.calls", "fisher.table.rows", "fisher.fisher_information.calls",
         "fisher.flagged", "linalg.eig_hermitian.calls", "linalg.eig_hermitian.dim_max",
         "states.build.calls", "spins.op_j.calls", "estimation.sample.calls",
         "estimation.sample.draws", "estimation.mle.table_calls_per_trial",
         "estimation.mle.boundary_fraction", "estimation.moments.table_calls_per_trial",
         "estimation.bayes.table_rows_per_trial", "estimation.trials", "cli.output_bytes")
