"""manimax benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload robust-mle --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``. Each
workload pass is one fresh interpreter (``bench/child.py``) that calls
``manimax.cli.main`` serially with the default ``--jobs``. The run repeats
passes for about ``--seconds`` seconds. With ``--trace 0`` it first times
fresh-interpreter set-ups, then untraced passes, and reports the end-to-end
metrics. With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``tracing.py``).

Every pass is checked (see README.md); a failed check counts its operation as
failed, and the run then exits 1 after printing its result. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch output goes to ``.bench_work/`` and is
removed afterwards, except the last traced pass's span file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("robust-mle", "quadratic-stochastic", "verify-all")

# Pass sizes. The quadratic step count keeps one pass at a few seconds.
QUAD_ITERS = {"full": 5000, "tiny": 300}
QUAD_REPEATS = 4
MLE_TINY = ["--d", "8", "--n", "30", "--max-iters", "500"]
# Set-up probes run before each of the first passes, so that they sample the
# same stretch of host load as the passes do.
PROBES_PER_PASS = {"full": 3, "tiny": 1}
PROBED_PASSES = 3

# Correctness tolerances. RAGDA on robust-mle reaches about 1e-12; seed runs
# of the stochastic quadratic ended between 0.30 and 0.78 after 5000 steps.
RAGDA_TOL = 1e-6
QUAD_TOL = {"full": 1.5, "tiny": 3.0}

PASS_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "step_us_p50": "us",
    "step_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "manifolds.eigh.per_step": "count/step",
    "manifolds.check_point.per_step": "count/step",
    "manifolds.check_tangent.per_step": "count/step",
    "manifolds.validate.self_s": "s",
    "manifolds.spd.exp.us_p50": "us",
    "manifolds.spd.inner.us_p50": "us",
    "manifolds.spd.spectrum.us_p50": "us",
    "manifolds.spd.log.us_p50": "us",
    "manifolds.spd.transport.us_p50": "us",
    "manifolds.spd.dist.us_p50": "us",
    "manifolds.sphere.retract.us_p50": "us",
    "manifolds.sphere.project_tangent.us_p50": "us",
    "manifolds.euclidean.retract.us_p50": "us",
    "manifolds.spd.clamp_events": "count",
    "manifolds.self_s": "s",
    "problems.robust_mle.value.us_p50": "us",
    "problems.robust_mle.grad_x.us_p50": "us",
    "problems.robust_mle.grad_y.us_p50": "us",
    "problems.quadratic.stoch_grad_x.us_p50": "us",
    "problems.quadratic.stoch_grad_y.us_p50": "us",
    "problems.quadratic.value.us_p50": "us",
    "problems.quadratic.inner_max_oracle.us_p50": "us",
    "problems.oracle_calls.per_step": "count/step",
    "problems.self_s": "s",
    "solvers.run.self_us_per_step": "us/step",
    "solvers.batch_sample.per_step": "count/step",
    "solvers.eval.share": "ratio",
    "solvers.iters_to_tol": "count",
    "cli.load_preset.ms": "ms",
    "cli.build_problem.ms": "ms",
    "cli.run_experiment.s": "s",
    "cli.repeat_overlap": "ratio",
    "cli.write_trace_csv.ms": "ms",
    "cli.write_summary.ms": "ms",
    "cli.serialize_point.ms": "ms",
    "cli.bytes_written": "bytes",
    "verification.finite_diff_directional.us_p50": "us",
    "verification.check_adaptive_sum_inequality.us_p50": "us",
    "verification.fit_rate.us_p50": "us",
    "verification.audit_transport_isometry.ms": "ms",
    "verification.estimate_retraction_constants.ms": "ms",
    "cli.verify.geometry.s": "s",
    "cli.verify.gradients.s": "s",
    "cli.verify.rates.s": "s",
    "cli.verify.adaptive_sum.s": "s",
    "process.cpu_over_wall": "ratio",
    "trace.overhead_frac": "ratio",
}


def invocations(workload: str, seed: int, out: Path, size: str) -> list[list[str]]:
    """``manimax`` argument lists of one pass; the workload seed is the only input."""
    seeds = ["--seed", str(seed), "--data-seed", str(seed)]
    if workload == "robust-mle":
        extra = MLE_TINY if size == "tiny" else []
        return [
            ["run", "--preset", f"robust-mle-{method}", "--label", method, *seeds, *extra, "--out", str(out)]
            for method in ("ragda", "gda")
        ]
    if workload == "quadratic-stochastic":
        return [[
            "run", "--preset", "synthetic-rsagda", "--label", "rsagda", "--repeats", str(QUAD_REPEATS),
            "--max-iters", str(QUAD_ITERS[size]), *seeds, "--out", str(out),
        ]]
    return [["verify", "--suite", "all", *seeds]]


def setup_invocation(workload: str, seed: int, out: Path, size: str) -> list[str]:
    """Everything a run does before its first step: import, preset, problem, start."""
    preset = "synthetic-rsagda" if workload == "quadratic-stochastic" else "robust-mle-ragda"
    extra = MLE_TINY[:4] if size == "tiny" and preset == "robust-mle-ragda" else []
    return ["run", "--preset", preset, "--max-iters", "0", "--seed", str(seed),
            "--data-seed", str(seed), *extra, "--out", str(out)]


# -- child processes -------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    result: dict | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # RM_SEED silently overrides --seed inside manimax.
    env.pop("RM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(spec: dict, log: Path, env: dict[str, str]) -> Child:
    """Run child.py on ``spec``; wall, CPU and peak RSS come from its own rusage."""
    started = time.monotonic()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
    reaped: list = []

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.extend((time.monotonic(), status, usage))

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    try:
        waiter.join(PASS_TIMEOUT_S)
    finally:
        if waiter.is_alive():
            proc.kill()
        waiter.join()
    ended, status, usage = reaped
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result_path = Path(spec["result"])
    result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
    return Child(code, ended - started, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, result)


# -- checks ------------------------------------------------------------------------


@dataclass
class PassOutcome:
    """Operations of one pass, with failure reasons, and what later passes must match."""

    ops: dict[str, list[str]] = field(default_factory=dict)
    artefacts: dict[tuple[str, str], bytes] = field(default_factory=dict)
    samples: list[float] = field(default_factory=list)
    iters_to_tol: int = 0
    bytes_written: int = 0

    def fail(self, op: str, why: str) -> None:
        self.ops.setdefault(op, []).append(why)


def parse_summary(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


def step_samples(pairs) -> list[float]:
    """Microseconds per step between consecutive records."""
    return [
        (w1 - w0) / (t1 - t0) * 1e6
        for (t0, w0), (t1, w1) in zip(pairs, pairs[1:])
        if t1 > t0
    ]


def check_run_pass(workload: str, child: Child, out: Path, size: str) -> PassOutcome:
    res = PassOutcome()
    labels = {"robust-mle": {"ragda": 1, "gda": 1}, "quadratic-stochastic": {"rsagda": QUAD_REPEATS}}[workload]
    codes = [inv["code"] for inv in child.result["invocations"]] if child.result else []
    mins: dict[str, float] = {}
    for n, (label, repeats) in enumerate(labels.items()):
        ops = [f"{label} rep{i}" for i in range(repeats)]
        for op in ops:
            res.ops[op] = []
        if child.result is None:
            for op in ops:
                res.fail(op, f"pass process exited with {child.code}")
            continue
        if codes[n] != 0:
            for op in ops:
                res.fail(op, f"exit code {codes[n]}")
        summary_path = out / f"{label}_summary.txt"
        if not summary_path.exists():
            for op in ops:
                res.fail(op, "no summary written")
            continue
        summary = parse_summary(summary_path)
        for i, op in enumerate(ops):
            stop = summary.get(f"repeat{i}.stop_reason")
            if stop != "max_iters" and stop != "converged":
                res.fail(op, f"stop reason {stop}")
            stat = float(summary.get(f"repeat{i}.min_stationarity", "nan"))
            mins[op] = stat
            csv = out / f"{label}_rep{i}.csv"
            if not csv.exists():
                res.fail(op, "no CSV written")
                continue
            rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()]
            res.artefacts[op, csv.name] = "\n".join(",".join(r[:1] + r[2:]) for r in rows).encode()
            records = [(int(r[0]), float(r[1])) for r in rows[1:]]
            res.samples += step_samples(records)
            if label == "ragda":
                res.iters_to_tol = next(
                    (int(r[0]) for r in rows[1:] if float(r[2]) + float(r[3]) <= RAGDA_TOL), 0)
            for side in ("x", "y"):
                point = out / f"{label}_rep{i}_{side}.point"
                if point.exists():
                    res.artefacts[op, point.name] = point.read_bytes()
                else:
                    res.fail(op, f"no {side} point written")

    if workload == "robust-mle" and "ragda rep0" in mins:
        ragda, gda = mins["ragda rep0"], mins.get("gda rep0", math.inf)
        if not (ragda <= RAGDA_TOL and ragda <= gda):
            res.fail("ragda rep0", f"min stationarity {ragda:.3e} vs tol {RAGDA_TOL:g} and GDA {gda:.3e}")
    if workload == "quadratic-stochastic":
        for op, stat in mins.items():
            if not (math.isfinite(stat) and stat <= QUAD_TOL[size]):
                res.fail(op, f"min stationarity {stat!r} above {QUAD_TOL[size]}")
    res.bytes_written = sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0
    return res


def check_verify_pass(child: Child) -> PassOutcome:
    res = PassOutcome()
    if child.result is None:
        res.fail("verify", f"pass process exited with {child.code}")
        return res
    inv = child.result["invocations"][0]
    rows = [line for line in inv["stdout"].splitlines() if line.startswith(("PASS ", "FAIL "))]
    if not rows:
        res.fail("verify", "no check rows printed")
    for row in rows:
        name = row[4:].strip().split("  ")[0]
        res.ops[name] = [] if row.startswith("PASS") else ["FAIL"]
        res.artefacts[name, "row"] = row.encode()
    if inv["code"] != 0 and all(not why for why in res.ops.values()):
        res.fail("verify", f"exit code {inv['code']}")
    for records in child.result["solver_records"]:
        res.samples += step_samples(records)
    return res


def compare(first: PassOutcome, later: PassOutcome) -> None:
    """Outputs of a pass must match the first pass of the run byte for byte."""
    for (op, what), blob in later.artefacts.items():
        if first.artefacts.get((op, what), blob) != blob:
            later.fail(op, f"{what} differs from the first pass")


# -- one run -------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> dict:
    env = child_env()
    start = time.monotonic()

    setups: list[float] = []

    def probe_setup() -> None:
        k = len(setups)
        out = work / f"setup{k}"
        spec = {"invocations": [setup_invocation(workload, seed, out, size)],
                "result": str(work / f"setup{k}.json"), "spans": None}
        began = time.monotonic()
        child = spawn(spec, work / f"setup{k}.log", env)
        if child.result is None or child.result["invocations"][0]["code"] != 0:
            raise SystemExit(f"set-up probe failed; see {work / f'setup{k}.log'}")
        setups.append(child.result["done"] - began)
        shutil.rmtree(out, ignore_errors=True)

    untraced: list[Child] = []
    traced: list[Child] = []
    layer_runs: list[dict[str, float]] = []
    outcomes: list[PassOutcome] = []
    while True:
        k = len(outcomes)
        if not trace and k < PROBED_PASSES:
            for _ in range(PROBES_PER_PASS[size]):
                probe_setup()
        is_traced = trace and k % 2 == 1
        out = work / f"pass{k}"
        spans = work / f"spans{k}.npz"
        spec = {"invocations": invocations(workload, seed, out, size),
                "result": str(work / f"pass{k}.json"), "spans": str(spans) if is_traced else None}
        child = spawn(spec, work / f"pass{k}.log", env)
        if workload == "verify-all":
            outcome = check_verify_pass(child)
        else:
            outcome = check_run_pass(workload, child, out, size)
        if outcomes:
            compare(outcomes[0], outcome)
        outcomes.append(outcome)
        (traced if is_traced else untraced).append(child)
        if is_traced and child.result is not None:
            layer_runs.append(tracing.analyse(spans))
            layer_runs[-1]["cli.bytes_written"] = float(outcome.bytes_written)
            shutil.move(str(spans), WORK / f"spans-{workload}.npz")
        shutil.rmtree(out, ignore_errors=True)
        longest = max(c.wall for c in untraced + traced)
        if len(outcomes) >= 2 and time.monotonic() - start + longest > seconds:
            break

    attempted = sum(len(o.ops) for o in outcomes)
    failures = [(k, op, why) for k, o in enumerate(outcomes) for op, why in o.ops.items() if why]
    samples = [s for o in outcomes for s in o.samples]
    info = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_wall_s": [round(c.wall, 4) for c in untraced],
        "traced_pass_wall_s": [round(c.wall, 4) for c in traced],
        "step_samples": len(samples), "setup_probes": len(setups),
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
    }
    if trace:
        layer_runs = layer_runs or [dict.fromkeys(PER_LAYER, 0.0)]
        metrics = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
        metrics["solvers.iters_to_tol"] = float(outcomes[0].iters_to_tol)
        metrics["process.cpu_over_wall"] = statistics.median(c.cpu / c.wall for c in untraced)
        metrics["trace.overhead_frac"] = (
            statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in untraced) - 1.0
            if traced else 0.0)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(c.wall for c in untraced),
            "step_us_p50": statistics.median(samples) if samples else 0.0,
            "step_us_p90": statistics.quantiles(samples, n=10, method="inclusive")[-1] if samples else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c.rss_mb for c in untraced),
        }
        units = END_TO_END
    return {"info": info, "failures": failures, "metrics": {n: (metrics[n], units[n]) for n in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every pass, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "manimax" / "__init__.py").is_file():
        print(f"error: no manimax package under {SRC}", file=sys.stderr)
        return 2

    print("env", json.dumps(environment()), flush=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("info", json.dumps(report["info"]))
    for k, op, why in report["failures"]:
        print(f"FAILED pass {k}: {op}: {'; '.join(why)}")
    width = max(len(n) for n in report["metrics"])
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    failed = len(report["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["info"]["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
