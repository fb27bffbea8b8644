"""Span recording for the traced benchmark pass, and the per-layer metrics.

``install`` wraps the public calls into each manimax layer from outside the
package: manifold and problem methods, the solver entry points the command
line calls, the command line's own steps and verify suites, the
verification routines, and numpy's symmetric eigensolvers. Every wrapped call
records one span (name, start, end, parent) in flat in-memory arrays, which
``Recorder.dump`` writes out once the pass ends. ``analyse`` reads that file
back and derives the per-layer metrics named in BENCHMARK.json.

The parent of a span is whatever wrapped call was open when it started, so
the recorder assumes a single thread: the benchmark runs every workload with
the default ``--jobs 1``.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_MANIFOLD_OPS = (
    "inner", "norm", "retract", "exp", "log", "transport", "dist",
    "project_tangent", "random_point", "random_tangent", "zero_tangent", "spectrum",
)
_PROBLEM_OPS = (
    "value", "grad_x", "grad_y", "stoch_grad_x", "stoch_grad_y", "inner_max_oracle", "default_start",
)
_ORACLES = ("value", "grad_x", "grad_y", "stoch_grad_x", "stoch_grad_y", "inner_max_oracle")
_PROBLEM_NAMES = {"RobustMleProblem": "robust_mle", "SyntheticQuadratic": "quadratic"}
_CLI_STEPS = (
    "load_preset", "build_problem", "run_experiment", "write_trace_csv", "write_summary",
    "serialize_point", "cli_run", "cli_verify",
)
_VERIFY_SUITES = {
    "_geometry_suite": "geometry",
    "_gradients_suite": "gradients",
    "_rates_suite": "rates",
    "_adaptive_sum_suite": "adaptive_sum",
}
_VERIFICATION = (
    "finite_diff_directional", "check_adaptive_sum_inequality", "fit_rate",
    "audit_transport_isometry", "estimate_retraction_constants",
)


class Recorder:
    """Spans as parallel arrays; a span's parent is the call open when it began."""

    def __init__(self, clamps) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_steps = array("q")
        self._open = [-1]
        self.clamps = clamps

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter_ns()
            self._open.pop()

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            run_steps=np.frombuffer(self.run_steps, dtype=np.int64),
            clamp_events=np.int64(self.clamps.events),
        )


def _wrap_function(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    fn = getattr(owner, attr)
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = rec.call(nid, fn, args, kwargs)
        if after is not None:
            after(out)
        return out

    setattr(owner, attr, wrapper)


def _wrap_method(rec: Recorder, cls, attr: str, prefix_of) -> None:
    """Wrap ``cls.attr``; the span is named after the receiver's class."""
    fn = cls.__dict__[attr]
    ids: dict[type, int] = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        nid = ids.get(type(self))
        if nid is None:
            nid = ids[type(self)] = rec.name_id(f"{prefix_of(type(self))}.{attr}")
        return rec.call(nid, fn, (self, *args), kwargs)

    setattr(cls, attr, wrapper)


def install() -> Recorder:
    """Wrap the layers' public calls in this process and return the recorder."""
    from manimax import cli, manifolds, problems, solvers

    rec = Recorder(manifolds.ClampCounter())

    # numpy's eigensolvers are only called from the geometry layer.
    _wrap_function(rec, np.linalg, "eigh", "manifolds.eigh")
    _wrap_function(rec, np.linalg, "eigvalsh", "manifolds.eigvalsh")

    _wrap_function(rec, manifolds.Manifold, "check_point", "manifolds.check_point")
    _wrap_function(rec, manifolds.Manifold, "check_tangent", "manifolds.check_tangent")
    _wrap_function(rec, manifolds.Tangent, "scaled", "manifolds.tangent.scaled")
    for cls in (manifolds.Manifold, manifolds.Euclidean, manifolds.Sphere, manifolds.Stiefel,
                manifolds.SPD, manifolds.ProductManifold):
        for op in _MANIFOLD_OPS:
            if op in cls.__dict__:
                _wrap_method(rec, cls, op, lambda t: f"manifolds.{t.kind}")

    # Clamp events are counted through the public clamp_counter= argument.
    spd_init = manifolds.SPD.__init__

    def counted_init(self, *args, **kwargs):
        if len(args) < 3 and kwargs.get("clamp_counter") is None:
            kwargs["clamp_counter"] = rec.clamps
        spd_init(self, *args, **kwargs)

    manifolds.SPD.__init__ = counted_init

    def problem_prefix(t: type) -> str:
        return "problems." + _PROBLEM_NAMES.get(t.__name__, t.__name__.lower())

    for cls in (problems.MinimaxProblem, problems.RobustMleProblem, problems.SyntheticQuadratic):
        for op in _PROBLEM_OPS:
            fn = cls.__dict__.get(op)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                _wrap_method(rec, cls, op, problem_prefix)

    # Batches are built by the solver loop, so they count as solver work.
    batch_id = rec.name_id("solvers.batch_sample")
    for op in ("sample", "full"):
        fn = problems.Batch.__dict__[op].__func__
        setattr(problems.Batch, op, classmethod(functools.wraps(fn)(
            lambda cls, *a, _fn=fn, **k: rec.call(batch_id, _fn, (cls, *a), k))))
    _wrap_function(rec, solvers, "stationarity", "solvers.stationarity")
    _wrap_function(
        rec, cli, "run", "solvers.run",
        after=lambda trace: rec.run_steps.append(trace.final_state.t if trace.final_state else 0),
    )

    for step in _CLI_STEPS:
        _wrap_function(rec, cli, step, f"cli.{step}")
    for attr, suite in _VERIFY_SUITES.items():
        _wrap_function(rec, cli, attr, f"cli.verify.{suite}")
    for fn in _VERIFICATION:
        _wrap_function(rec, cli, fn, f"verification.{fn}")
    return rec


# -- analysis ------------------------------------------------------------------


def analyse(path) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span file.

    Per-step counts cover the work inside ``solvers.run`` spans, less the
    problem's ``default_start``, divided by the steps those runs took. A
    metric whose call the workload never makes reads 0.
    """
    with np.load(path) as z:
        names = [str(s) for s in z["names"]]
        name = z["name"].astype(np.intp)
        parent = z["parent"].astype(np.intp)
        dur = (z["end"] - z["start"]) / 1e9
        steps = int(z["run_steps"].sum())
        clamp_events = int(z["clamp_events"])

    n = name.size
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    span_names = np.array(names, dtype=object)[name]
    parent_name = np.where(has_parent, span_names[np.maximum(parent, 0)], "")
    layer = np.array([s.split(".", 1)[0] for s in span_names], dtype=object)

    # Spans are stored in start order, so a parent always precedes its children.
    in_step = [False] * n
    name_l, parent_l = span_names.tolist(), parent.tolist()
    for i in range(n):
        if name_l[i] == "solvers.run":
            in_step[i] = True
        elif not name_l[i].endswith(".default_start") and parent_l[i] >= 0:
            in_step[i] = in_step[parent_l[i]]
    in_step = np.array(in_step, dtype=bool)
    is_run = span_names == "solvers.run"

    def mask(*wanted: str) -> np.ndarray:
        return np.isin(span_names, wanted)

    def per_step(*wanted: str) -> float:
        return float(np.count_nonzero(mask(*wanted) & in_step)) / steps if steps else 0.0

    def p50_us(nm: str) -> float:
        d = dur[mask(nm)]
        return float(np.median(d)) * 1e6 if d.size else 0.0

    def total(nm: str) -> float:
        return float(dur[mask(nm)].sum())

    def self_of(m: np.ndarray) -> float:
        return float(self_t[m].sum())

    oracles = [f"problems.{p}.{op}" for p in _PROBLEM_NAMES.values() for op in _ORACLES]
    # Evaluation work of a step: exact stationarity, the objective value and
    # the distance to the closed-form inner maximiser, when run calls them.
    eval_names = ["solvers.stationarity"] + [
        s for s in names
        if (s.startswith("problems.") and s.endswith((".value", ".inner_max_oracle")))
        or (s.startswith("manifolds.") and s.endswith(".dist"))
    ]
    run_total = float(dur[is_run].sum())
    experiment = total("cli.run_experiment")
    runs_in_experiment = float(dur[is_run & (parent_name == "cli.run_experiment")].sum())

    out = {
        "manifolds.eigh.per_step": per_step("manifolds.eigh", "manifolds.eigvalsh"),
        "manifolds.check_point.per_step": per_step("manifolds.check_point"),
        "manifolds.check_tangent.per_step": per_step("manifolds.check_tangent"),
        "manifolds.validate.self_s": self_of(mask("manifolds.check_point", "manifolds.check_tangent")),
    }
    for op in ("exp", "inner", "spectrum", "log", "transport", "dist"):
        out[f"manifolds.spd.{op}.us_p50"] = p50_us(f"manifolds.spd.{op}")
    for op in ("retract", "project_tangent"):
        out[f"manifolds.sphere.{op}.us_p50"] = p50_us(f"manifolds.sphere.{op}")
    out["manifolds.euclidean.retract.us_p50"] = p50_us("manifolds.euclidean.retract")
    out["manifolds.spd.clamp_events"] = float(clamp_events)
    out["manifolds.self_s"] = self_of(layer == "manifolds")
    for op in ("value", "grad_x", "grad_y"):
        out[f"problems.robust_mle.{op}.us_p50"] = p50_us(f"problems.robust_mle.{op}")
    for op in ("stoch_grad_x", "stoch_grad_y", "value", "inner_max_oracle"):
        out[f"problems.quadratic.{op}.us_p50"] = p50_us(f"problems.quadratic.{op}")
    out["problems.oracle_calls.per_step"] = per_step(*oracles)
    out["problems.self_s"] = self_of(layer == "problems")
    out["solvers.run.self_us_per_step"] = self_of(is_run) / steps * 1e6 if steps else 0.0
    out["solvers.batch_sample.per_step"] = per_step("solvers.batch_sample")
    out["solvers.eval.share"] = (
        float(dur[(parent_name == "solvers.run") & mask(*eval_names)].sum()) / run_total
        if run_total else 0.0
    )
    out["cli.load_preset.ms"] = total("cli.load_preset") * 1e3
    out["cli.build_problem.ms"] = total("cli.build_problem") * 1e3
    out["cli.run_experiment.s"] = experiment
    out["cli.repeat_overlap"] = runs_in_experiment / experiment if experiment else 0.0
    for step in ("write_trace_csv", "write_summary", "serialize_point"):
        out[f"cli.{step}.ms"] = total(f"cli.{step}") * 1e3
    for fn in ("finite_diff_directional", "check_adaptive_sum_inequality", "fit_rate"):
        out[f"verification.{fn}.us_p50"] = p50_us(f"verification.{fn}")
    for fn in ("audit_transport_isometry", "estimate_retraction_constants"):
        out[f"verification.{fn}.ms"] = total(f"verification.{fn}") * 1e3
    for suite in _VERIFY_SUITES.values():
        out[f"cli.verify.{suite}.s"] = total(f"cli.verify.{suite}")
    return out
