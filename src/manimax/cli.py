"""Command line harness: experiment runs and verification suites.

``manimax run`` executes a configured solver on a problem instance for one or
more repeats and writes a CSV per repeat plus a key=value summary file.
``manimax verify`` runs self-check suites (geometry, gradients, rates, the
adaptive sum inequality) and prints one pass/fail row per check.

Configuration precedence, lowest to highest: built-in defaults, a preset
file, explicit command line flags, then the RM_SEED environment variable for
the seed alone. Presets are plain ``key = value`` text files shipped as
package data; ``--preset`` also accepts a filesystem path.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .manifolds import SPD, Euclidean, Sphere, Stiefel, UnsupportedOperation, serialize_point
from .problems import (
    MinimaxProblem,
    generate_gaussian_instance,
    generate_multiscale_instance,
    generate_quadratic_instance,
)
from .solvers import (
    ConfigError,
    Method,
    SolverConfig,
    StopReason,
    Trace,
    run,
    running_min_checkpoints,
)
from .verification import (
    audit_transport_isometry,
    check_adaptive_sum_inequality,
    estimate_retraction_constants,
    finite_diff_directional,
    fit_rate,
)

__all__ = ["ExperimentConfig", "load_preset", "build_problem", "run_experiment", "main"]

_PROBLEMS = ("robust-mle", "synthetic-quadratic")

# Preset/flag keys and the types they parse to.
_FIELD_TYPES: dict[str, type] = {
    "problem": str,
    "solver": str,
    "alpha": float,
    "beta": float,
    "eta-x": float,
    "eta-y": float,
    "v0-x": float,
    "v0-y": float,
    "max-iters": int,
    "grad-tol": float,
    "batch-size": int,
    "seed": int,
    "repeats": int,
    "jobs": int,
    "eval-stride": int,
    "d": int,
    "n": int,
    "c": float,
    "k": int,
    "m": int,
    "mu": float,
    "sigma": float,
    "data-seed": int,
    "label": str,
}

_DEFAULTS: dict[str, object] = {
    "problem": "robust-mle",
    "solver": "ragda",
    "alpha": 0.5,
    "beta": 0.5,
    "eta-x": 0.5,
    "eta-y": 5.0,
    "v0-x": 1e-6,
    "v0-y": 1e-6,
    "max-iters": 1000,
    "grad-tol": 0.0,
    "batch-size": 1,
    "seed": 0,
    "repeats": 1,
    "jobs": 1,
    "eval-stride": 50,
    "d": 30,
    "n": 100,
    "c": -5.0,
    "k": 20,
    "m": 10,
    "mu": 1.0,
    "sigma": 0.1,
    "data-seed": 0,
    "label": "",
}


@dataclass
class ExperimentConfig:
    """Everything one ``run`` invocation needs: problem, solver, and output."""

    problem: str
    solver: SolverConfig
    repeats: int
    jobs: int
    eval_stride: int
    label: str
    d: int
    n: int
    c: float
    k: int
    m: int
    mu: float
    sigma: float
    data_seed: int

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; choose from {_PROBLEMS}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.eval_stride < 1:
            raise ConfigError("eval-stride must be >= 1")

    @classmethod
    def from_fields(cls, fields: dict[str, object]) -> "ExperimentConfig":
        solver = SolverConfig(
            method=str(fields["solver"]),
            eta_x=float(fields["eta-x"]),
            eta_y=float(fields["eta-y"]),
            alpha=float(fields["alpha"]),
            beta=float(fields["beta"]),
            v0_x=float(fields["v0-x"]),
            v0_y=float(fields["v0-y"]),
            max_iters=int(fields["max-iters"]),
            grad_tol=float(fields["grad-tol"]),
            batch_size=int(fields["batch-size"]),
            seed=int(fields["seed"]),
        )
        label = str(fields["label"]) or f"{fields['problem']}-{solver.method.value}"
        return cls(
            problem=str(fields["problem"]),
            solver=solver,
            repeats=int(fields["repeats"]),
            jobs=int(fields["jobs"]),
            eval_stride=int(fields["eval-stride"]),
            label=label,
            d=int(fields["d"]),
            n=int(fields["n"]),
            c=float(fields["c"]),
            k=int(fields["k"]),
            m=int(fields["m"]),
            mu=float(fields["mu"]),
            sigma=float(fields["sigma"]),
            data_seed=int(fields["data-seed"]),
        )


def _parse_fields(text: str, source: str) -> dict[str, object]:
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown or malformed entry {raw.strip()!r}")
        try:
            fields[key] = _FIELD_TYPES[key](value)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: {err}") from None
    return fields


def load_preset(name: str) -> dict[str, object]:
    """Read a preset by packaged name or by filesystem path."""
    path = Path(name)
    if path.exists():
        return _parse_fields(path.read_text(encoding="utf-8"), str(path))
    packaged = resources.files("manimax").joinpath("presets", f"{name}.cfg")
    if packaged.is_file():
        return _parse_fields(packaged.read_text(encoding="utf-8"), f"preset {name}")
    raise ConfigError(f"preset {name!r} not found (not a file, not a packaged preset)")


def build_problem(cfg: ExperimentConfig) -> MinimaxProblem:
    if cfg.problem == "robust-mle":
        return generate_gaussian_instance(cfg.d, cfg.n, cfg.c, cfg.data_seed)
    return generate_quadratic_instance(cfg.k, cfg.m, cfg.mu, cfg.data_seed, cfg.sigma)


def _repeat_seed(base_seed: int, index: int) -> int:
    """Deterministic per-repeat seed derived from (seed, run index)."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def run_experiment(cfg: ExperimentConfig) -> list[Trace]:
    problem = build_problem(cfg)

    def one(index: int) -> Trace:
        solver = replace(cfg.solver, seed=_repeat_seed(cfg.solver.seed, index))
        return run(problem, solver, eval_stride=cfg.eval_stride)

    if cfg.jobs == 1 or cfg.repeats == 1:
        return [one(i) for i in range(cfg.repeats)]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(one, range(cfg.repeats)))


_CSV_HEADER = "iter,wall_s,grad_x_norm,grad_y_norm,eta_t,gamma_t,f_value"


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def write_trace_csv(path: Path, trace: Trace) -> None:
    lines = [_CSV_HEADER]
    for rec in trace.records:
        lines.append(
            ",".join(
                (
                    str(rec.t),
                    _fmt(rec.wall_s),
                    _fmt(rec.grad_x_norm),
                    _fmt(rec.grad_y_norm),
                    _fmt(rec.eta_t),
                    _fmt(rec.gamma_t),
                    _fmt(rec.f_value),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path: Path, cfg: ExperimentConfig, traces: list[Trace]) -> None:
    lines = [
        f"label = {cfg.label}",
        f"problem = {cfg.problem}",
        f"solver = {cfg.solver.method.value}",
        f"seed = {cfg.solver.seed}",
        f"repeats = {cfg.repeats}",
    ]
    for i, trace in enumerate(traces):
        calls = trace.metadata["oracle_calls"]
        flags = trace.metadata["regime_flags"]
        lines += [
            f"repeat{i}.seed = {trace.metadata['seed']}",
            f"repeat{i}.min_stationarity = {_fmt(trace.min_stationarity)}",
            f"repeat{i}.stop_reason = {trace.stop_reason.value}",
            f"repeat{i}.records = {len(trace.records)}",
            f"repeat{i}.oracle_calls.grad = {calls['grad']}",
            f"repeat{i}.oracle_calls.stoch_grad = {calls['stoch_grad']}",
            f"repeat{i}.oracle_calls.value = {calls['value']}",
            f"repeat{i}.regime_flags = {'; '.join(flags) if flags else 'none'}",
            f"repeat{i}.wall_s = {_fmt(trace.metadata['wall_s'])}",
        ]
        if "error" in trace.metadata:
            lines.append(f"repeat{i}.error = {trace.metadata['error']}")
    finite = [t.min_stationarity for t in traces if math.isfinite(t.min_stationarity)]
    if finite:
        lines.append(f"aggregate.min_stationarity = {_fmt(min(finite))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_fields(_collect_fields(args))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = run_experiment(cfg)
    for i, trace in enumerate(traces):
        write_trace_csv(out_dir / f"{cfg.label}_rep{i}.csv", trace)
        if trace.final_state is not None:
            (out_dir / f"{cfg.label}_rep{i}_x.point").write_bytes(
                serialize_point(trace.final_state.x)
            )
            (out_dir / f"{cfg.label}_rep{i}_y.point").write_bytes(
                serialize_point(trace.final_state.y)
            )
    write_summary(out_dir / f"{cfg.label}_summary.txt", cfg, traces)

    failed = [t for t in traces if t.stop_reason is StopReason.NUMERICAL_ERROR]
    for i, trace in enumerate(traces):
        print(
            f"repeat {i}: stop={trace.stop_reason.value} "
            f"min_stationarity={trace.min_stationarity:.6e} records={len(trace.records)}"
        )
    print(f"wrote {len(traces)} repeat(s) to {out_dir}")
    return 3 if failed else 0


def _collect_fields(args: argparse.Namespace) -> dict[str, object]:
    """Defaults, then the preset (``run`` only), the flags actually passed
    (argparse defaults are None), and RM_SEED for the seed."""
    fields = dict(_DEFAULTS)
    if getattr(args, "preset", None):
        fields.update(load_preset(args.preset))
    for key in _FIELD_TYPES:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            fields[key] = value
    env_seed = os.environ.get("RM_SEED")
    if env_seed is not None:
        try:
            fields["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"RM_SEED must be an integer, got {env_seed!r}") from None
    return fields


# -- verify suites -----------------------------------------------------------


def _check_roundtrip(manifold, pairs: int, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(pairs):
        x = manifold.random_point(rng)
        y = manifold.random_point(rng)
        z = manifold.exp(x, manifold.log(x, y))
        err = float(np.linalg.norm(z.data - y.data)) / (1.0 + float(np.linalg.norm(y.data)))
        worst = max(worst, err)
    return worst <= 1e-8, f"max rel err {worst:.3e}"


def _geometry_suite(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    rows: list[tuple[str, bool, str]] = []
    for manifold in (Sphere(3), Sphere(31), SPD(2), SPD(5), SPD(31), Euclidean(7)):
        ok, detail = _check_roundtrip(manifold, 100, rng)
        rows.append((f"exp/log roundtrip {manifold!r}", ok, detail))
        viol = audit_transport_isometry(manifold, trials=100, rng=rng)
        rows.append((f"transport isometry {manifold!r}", viol <= 1e-8, f"violation {viol:.3e}"))
    rep = estimate_retraction_constants(Sphere(3), trials=30, rng=rng)
    rows.append(
        (
            "retraction accuracy Sphere(3)",
            1.9 <= rep.dist_sq_slope <= 2.5 and rep.cbar_hat <= 2.0,
            f"dist_sq_slope {rep.dist_sq_slope:.3f}, cbar {rep.cbar_hat:.3f}, gap_slope {rep.gap_slope:.3f}",
        )
    )
    for manifold in (SPD(3), Euclidean(5)):
        rep = estimate_retraction_constants(manifold, trials=30, rng=rng)
        rows.append(
            (
                f"retraction equals exp {manifold!r}",
                rep.cr_hat <= 1e-10,
                f"cr_hat {rep.cr_hat:.3e}",
            )
        )
    st = Stiefel(8, 3)
    worst = 0.0
    for _ in range(100):
        x = st.random_point(rng)
        u = st.random_tangent(x, rng, 0.5)
        z = st.retract(x, u)
        X = z.data.reshape(8, 3)
        worst = max(worst, float(np.linalg.norm(X.T @ X - np.eye(3))))
    rows.append(("stiefel QR retraction orthonormality", worst <= 1e-10, f"max defect {worst:.3e}"))
    try:
        st.exp(st.random_point(rng), st.zero_tangent(st.random_point(rng)))
        rows.append(("stiefel exp unsupported", False, "exp unexpectedly succeeded"))
    except UnsupportedOperation:
        rows.append(("stiefel exp unsupported", True, "raises UnsupportedOperation"))
    return rows


def _gradients_suite(fields: dict[str, object], rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    # Exact oracles only, so the instance's noise level plays no part.
    problem_name = str(fields["problem"])
    problem = build_problem(ExperimentConfig.from_fields(fields))
    worst_x = worst_y = 0.0
    for _ in range(20):
        x = problem.mx.random_point(rng)
        y = problem.my.random_point(rng)
        ux = problem.mx.random_tangent(x, rng, 1.0)
        uy = problem.my.random_tangent(y, rng, 1.0)
        gx = problem.grad_x(x, y)
        gy = problem.grad_y(x, y)
        for wrt, u, g, man in (("x", ux, gx, problem.mx), ("y", uy, gy, problem.my)):
            analytic = man.inner(g, u)
            fd = finite_diff_directional(problem, x, y, u, wrt, h=1e-5)
            err = abs(analytic - fd) / (1.0 + abs(analytic))
            if wrt == "x":
                worst_x = max(worst_x, err)
            else:
                worst_y = max(worst_y, err)
    return [
        (f"grad_x matches finite differences ({problem_name})", worst_x <= 1e-4, f"max rel err {worst_x:.3e}"),
        (f"grad_y matches finite differences ({problem_name})", worst_y <= 1e-4, f"max rel err {worst_y:.3e}"),
    ]


def _rates_suite(fields: dict[str, object], decades: int) -> list[tuple[str, bool, str]]:
    if decades < 2:
        raise ConfigError("--budget-decades must be >= 2")
    budgets = [round(10 ** (2 + 0.5 * i)) for i in range(2 * decades + 1)]
    problem = generate_multiscale_instance(30, 20, 5.0, int(fields["data-seed"]), 0.0)
    cfg = SolverConfig(
        method=Method.RAGDA,
        eta_x=0.5,
        eta_y=5.0,
        alpha=0.5,
        beta=0.3,
        v0_x=1e-6,
        v0_y=1e-6,
        max_iters=budgets[-1],
        seed=int(fields["seed"]),
    )
    trace = run(problem, cfg)
    mins = running_min_checkpoints(trace, budgets)
    fit = fit_rate(list(zip(budgets, mins)))
    ok = fit.slope <= -0.4 and fit.r2 >= 0.9
    return [
        (
            "adaptive descent-ascent rate on the synthetic quadratic",
            ok,
            f"slope {fit.slope:.3f} (need <= -0.4), r2 {fit.r2:.3f} (need >= 0.9)",
        )
    ]


def _adaptive_sum_suite(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    failures = 0
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        seq = np.abs(rng.standard_normal(length)) * float(rng.uniform(0.01, 100.0))
        seq[rng.random(length) < 0.1] = 0.0
        seq[0] = max(float(seq[0]), 1e-6)
        alpha = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 0.99))
        if not check_adaptive_sum_inequality(seq, alpha):
            failures += 1
    return [("adaptive sum inequality battery", failures == 0, f"{failures} failures out of 1000")]


def cli_verify(args: argparse.Namespace) -> int:
    fields = _collect_fields(args)
    rng = np.random.default_rng(int(fields["seed"]))
    suites = ("geometry", "gradients", "rates", "adaptive-sum") if args.suite == "all" else (args.suite,)
    rows: list[tuple[str, bool, str]] = []
    for suite in suites:
        if suite == "geometry":
            rows += _geometry_suite(rng)
        elif suite == "gradients":
            rows += _gradients_suite(fields, rng)
        elif suite == "rates":
            rows += _rates_suite(fields, args.budget_decades)
        elif suite == "adaptive-sum":
            rows += _adaptive_sum_suite(rng)
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        flag = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{flag}  {name:<{width}}  {detail}")
    print(f"{sum(ok for _, ok, _ in rows)}/{len(rows)} checks passed")
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manimax",
        description="Adaptive gradient descent ascent on Riemannian manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a solver and write CSV traces")
    runp.add_argument("--preset", help="packaged preset name or path to a preset file")
    runp.add_argument("--problem", choices=_PROBLEMS)
    runp.add_argument("--solver", choices=[m.value for m in Method])
    runp.add_argument("--alpha", type=float)
    runp.add_argument("--beta", type=float)
    runp.add_argument("--eta-x", type=float, dest="eta_x")
    runp.add_argument("--eta-y", type=float, dest="eta_y")
    runp.add_argument("--v0-x", type=float, dest="v0_x")
    runp.add_argument("--v0-y", type=float, dest="v0_y")
    runp.add_argument("--max-iters", type=int, dest="max_iters")
    runp.add_argument("--grad-tol", type=float, dest="grad_tol")
    runp.add_argument("--batch-size", type=int, dest="batch_size")
    runp.add_argument("--seed", type=int, help="base seed (RM_SEED env overrides)")
    runp.add_argument("--repeats", type=int)
    runp.add_argument("--jobs", type=int, help="max concurrent repeats")
    runp.add_argument("--eval-stride", type=int, dest="eval_stride")
    runp.add_argument("--out", default="runs", help="output directory (default: runs)")
    runp.add_argument("--label", help="output filename stem")
    runp.add_argument("--d", type=int, help="robust-mle data dimension")
    runp.add_argument("--n", type=int, help="robust-mle sample count")
    runp.add_argument("--c", type=float, help="robust-mle regularization weight")
    runp.add_argument("--k", type=int, help="synthetic-quadratic sphere dimension")
    runp.add_argument("--m", type=int, help="synthetic-quadratic ascent dimension")
    runp.add_argument("--mu", type=float, help="synthetic-quadratic concavity")
    runp.add_argument("--sigma", type=float, help="synthetic-quadratic oracle noise")
    runp.add_argument("--data-seed", type=int, dest="data_seed")
    runp.set_defaults(func=cli_run)

    verp = sub.add_parser("verify", help="run self-check suites")
    verp.add_argument(
        "--suite",
        choices=("geometry", "gradients", "rates", "adaptive-sum", "all"),
        default="all",
    )
    verp.add_argument("--budget-decades", type=int, dest="budget_decades", default=2)
    verp.add_argument("--seed", type=int)
    verp.add_argument("--problem", choices=_PROBLEMS)
    verp.add_argument("--d", type=int)
    verp.add_argument("--n", type=int)
    verp.add_argument("--c", type=float)
    verp.add_argument("--k", type=int)
    verp.add_argument("--m", type=int)
    verp.add_argument("--mu", type=float)
    verp.add_argument("--data-seed", type=int, dest="data_seed")
    verp.set_defaults(func=cli_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
