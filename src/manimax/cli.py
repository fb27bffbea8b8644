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
import re
import sys
from dataclasses import Field, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .manifolds import (SPD, Euclidean, InvalidGeometry, Sphere, Stiefel, UnsupportedOperation, _count, _shown,
                        serialize_point)
from .problems import (
    MinimaxProblem,
    ProblemError,
    generate_gaussian_instance,
    generate_multiscale_instance,
    generate_quadratic_instance,
)
from .solvers import (RECORD_CAP, ConfigError, Method, SolverConfig, StopReason, Trace, _check_settings, _setting,
                      run, run_seeds, running_min_checkpoints)
from .verification import (
    audit_transport_isometry,
    check_adaptive_sum_inequality,
    estimate_retraction_constants,
    finite_diff_directional,
    fit_rate,
)

__all__ = ["ExperimentConfig", "load_preset", "build_problem", "run_experiment", "main"]

_PROBLEMS = ("robust-mle", "synthetic-quadratic")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


# What one ``run`` may ask for before any work starts: the repeats, the
# IterationRecords that they may keep in all, at about 320 bytes each, and the
# floats of their points (800 MB a stacked copy), of the instance and of a
# robust-mle step's stacked residuals.
_MAX_REPEATS = 10_000
_MAX_RECORDS = 10**6
_MAX_POINT_FLOATS = 10**8

_NUMBER = ("must be a number", None)  # the rule of a real that the problem checks further


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one ``run`` invocation needs: problem, solver, and output."""

    problem: str = _setting("robust-mle", f"one of {', '.join(_PROBLEMS)}", verify=True)
    solver: SolverConfig = field(default_factory=SolverConfig)
    repeats: int = _setting(1, "independent runs, each with its own derived seed", count=(1, _MAX_REPEATS))
    label: str = _setting("", "output filename stem (default: <problem>-<solver>)")
    d: int = _setting(30, "robust-mle data dimension", count=(), verify=True)
    n: int = _setting(100, "robust-mle sample count", count=(), verify=True)
    c: float = _setting(-5.0, "robust-mle regularization weight", real=_NUMBER, verify=True)
    k: int = _setting(20, "synthetic-quadratic sphere dimension", count=(), verify=True)
    m: int = _setting(10, "synthetic-quadratic ascent dimension", count=(), verify=True)
    mu: float = _setting(1.0, "synthetic-quadratic concavity", real=_NUMBER, verify=True)
    sigma: float = _setting(0.1, "synthetic-quadratic oracle noise", real=_NUMBER)
    data_seed: int = _setting(0, "seed of the generated instance", count=(0,), verify=True)

    def __post_init__(self) -> None:
        if not isinstance(self.problem, str) or self.problem not in _PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; choose from {_PROBLEMS}")
        if not isinstance(self.solver, SolverConfig):
            raise ConfigError(f"solver must be a SolverConfig, got {self.solver!r}")
        if not isinstance(self.label, str):
            raise ConfigError(f"label must be a string, got {self.label!r}")
        # Types, and the ranges of the chosen problem's sizes, before the budgets below; the problem checks the rest.
        _check_settings(self)
        for name in ("d", "n") if self.problem == "robust-mle" else ("k", "m"):
            _count(getattr(self, name), name, 1, error=ConfigError)
        if self.repeats * (min(self.solver.max_iters, RECORD_CAP) + 1) > _MAX_RECORDS:
            raise ConfigError(f"{self.repeats} repeats of {_shown(self.solver.max_iters)} steps "
                              f"may keep over {_MAX_RECORDS} records")
        # The floats of one row's points, and of the instance: its data and the problem's copies of it.
        row = (self.d + 1) * (self.d + 2) if self.problem == "robust-mle" else self.k + self.m
        instance = self.n * (3 * self.d + 1) if self.problem == "robust-mle" else 2 * self.m * self.k
        if self.repeats * row > _MAX_POINT_FLOATS:
            raise ConfigError(f"{self.repeats} repeats of {_shown(row)} point floats each "
                              f"exceed {_MAX_POINT_FLOATS} floats")
        object.__setattr__(self, "label", self.label or f"{self.problem}-{self.solver.method.value}")
        if not self.label.isprintable() or set(self.label) & {"/", os.sep, os.altsep or "/"}:
            raise ConfigError(f"label {self.label!r} must be printable and must not contain a path separator")
        # The longest output name (<label>_summary.txt is shorter) must fit the usual 255-byte limit.
        if len(longest := f"{self.label}_rep{self.repeats - 1}_x.point".encode()) > 255:
            raise ConfigError(f"label makes the output name <label>_rep{self.repeats - 1}_x.point "
                              f"{len(longest)} bytes long, over 255")
        if instance > _MAX_POINT_FLOATS:
            raise ConfigError(f"{self.problem} instance of {_shown(instance)} floats, over {_MAX_POINT_FLOATS}")
        # A robust-mle step stacks one n x (d+1) residual array z - x per row.
        if self.problem == "robust-mle" and self.repeats * (step := self.n * (self.d + 1)) > _MAX_POINT_FLOATS:
            raise ConfigError(f"{self.repeats} repeats of {_shown(step)} residual floats each "
                              f"exceed {_MAX_POINT_FLOATS} floats")

    @classmethod
    def from_fields(cls, values: dict[str, object]) -> "ExperimentConfig":
        """Config from parsed ``_FIELDS`` values; keys left out keep their defaults."""
        attrs = {_FIELDS[key].name: value for key, value in values.items()}
        solver = {f.name: attrs.pop(f.name) for f in fields(SolverConfig) if f.name in attrs}
        return cls(solver=SolverConfig(**solver), **attrs)


# Every setting a preset line, a flag or RM_SEED can give: its key, and the
# SolverConfig or ExperimentConfig field that declares it. A key left unset
# keeps that field's default.
_FIELDS: dict[str, Field] = {f.metadata["key"] or f.name.replace("_", "-"): f
                             for cls in (SolverConfig, ExperimentConfig) for f in fields(cls) if "help" in f.metadata}


def _parser(spec: Field) -> Callable[[str], object]:
    """The parser of a key's text: a count's is ``_integer``, a real's ``_finite``, any other's ``str``."""
    return _integer if "count" in spec.metadata else _finite if "real" in spec.metadata else str


def _parse(key: str, text: str, where: str) -> object:
    try:
        return _parser(_FIELDS[key])(text)
    except ValueError as err:
        raise ConfigError(f"{where} {err}") from None


def _parse_fields(text: str, source: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown or malformed entry {raw.strip()!r}")
        values[key] = _parse(key, value.strip(), f"{source}:{lineno}: {key}")
    return values


def load_preset(name: str) -> dict[str, object]:
    """Read a preset by the path of a file, or else by packaged name."""
    path = Path(name)
    packaged = resources.files("manimax").joinpath("presets", f"{name}.cfg")
    try:
        if path.is_file():
            source, raw = str(path), path.read_bytes()
        elif packaged.is_file():
            source, raw = f"preset {name}", packaged.read_bytes()
        else:
            raise ConfigError(f"preset {name!r} not found (not a file, not a packaged preset)")
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read preset {name!r}: {err}") from None
    return _parse_fields(text, source)


def build_problem(cfg: ExperimentConfig) -> MinimaxProblem:
    """The configured instance; a size or parameter it rejects, or a size it cannot allocate, is a ConfigError."""
    try:
        if cfg.problem == "robust-mle":
            return generate_gaussian_instance(cfg.d, cfg.n, cfg.c, cfg.data_seed)
        return generate_quadratic_instance(cfg.k, cfg.m, cfg.mu, cfg.data_seed, cfg.sigma)
    except (ProblemError, InvalidGeometry, ValueError, MemoryError) as err:
        # The generators check their sizes; ValueError stays for what numpy itself rejects,
        # and MemoryError is a size that cannot be allocated.
        raise ConfigError(f"{cfg.problem} instance: {err}") from None


def _repeat_seed(base_seed: int, index: int) -> int:
    """Deterministic per-repeat seed derived from (seed, run index)."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def run_experiment(cfg: ExperimentConfig) -> list[Trace]:
    """Every repeat, as the rows of one batched run; a run that cannot be allocated is a ConfigError."""
    problem = build_problem(cfg)
    configs = [replace(cfg.solver, seed=_repeat_seed(cfg.solver.seed, i)) for i in range(cfg.repeats)]
    try:
        return run_seeds(problem, configs)
    except MemoryError as err:
        raise ConfigError(f"cannot allocate {cfg.repeats} repeat(s) of this run: {err}") from None


# The CSV columns, in order, with the IterationRecord attribute each one writes.
_CSV_COLUMNS = (("iter", "t"), ("wall_s", "wall_s"), ("grad_x_norm", "grad_x_norm"), ("grad_y_norm", "grad_y_norm"),
                ("eta_t", "eta_t"), ("gamma_t", "gamma_t"), ("f_value", "f_value"))


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def write_trace_csv(path: Path, trace: Trace) -> None:
    lines = [",".join(column for column, _ in _CSV_COLUMNS)]
    for rec in trace.records:
        lines.append(",".join(str(rec.t) if attr == "t" else _fmt(getattr(rec, attr)) for _, attr in _CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _blas() -> str:
    """Name and version of the BLAS numpy was built against, or ``unknown``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


# The summary lines of each repeat, in order: the key after ``repeat{i}.`` and
# the value it reads from the trace; a line whose value is None is left out.
_SUMMARY_ROWS: tuple[tuple[str, Callable[[Trace], object]], ...] = (
    ("seed", lambda t: t.config.seed),
    ("min_stationarity", lambda t: _fmt(t.min_stationarity)),
    ("max_step_grad_norm", lambda t: _fmt(t.max_step_grad_norm)),
    ("stop_reason", lambda t: t.stop_reason.value),
    ("records", lambda t: len(t.records)),
    ("oracle_calls.grad", lambda t: t.grad_calls),
    ("oracle_calls.stoch_grad", lambda t: t.stoch_grad_calls),
    ("oracle_calls.value", lambda t: len(t.records)),  # one value call per record
    ("regime_flags", lambda t: "; ".join(t.config.regime_flags()) or "none"),
    ("wall_s", lambda t: _fmt(t.wall_s)),
    ("error", lambda t: t.error),
)


def write_summary(path: Path, cfg: ExperimentConfig, traces: list[Trace]) -> None:
    lines = [
        f"label = {cfg.label}",
        f"problem = {cfg.problem}",
        f"solver = {cfg.solver.method.value}",
        f"seed = {cfg.solver.seed}",
        f"repeats = {cfg.repeats}",
        f"env.numpy = {np.__version__}",
        f"env.blas = {_blas()}",
        *(f"env.{name} = {os.environ.get(name, 'unset')}" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")),
    ]
    for i, trace in enumerate(traces):
        lines += [f"repeat{i}.{key} = {value}" for key, get in _SUMMARY_ROWS if (value := get(trace)) is not None]
    finite = [t.min_stationarity for t in traces if math.isfinite(t.min_stationarity)]
    if finite:
        lines.append(f"aggregate.min_stationarity = {_fmt(min(finite))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_fields(_collect_fields(args))

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot create output directory {args.out!r}: {err}") from None
    traces = run_experiment(cfg)
    for i, trace in enumerate(traces):
        write_trace_csv(out_dir / f"{cfg.label}_rep{i}.csv", trace)
        for side in ("x", "y"):
            point = serialize_point(getattr(trace.final_state, side))
            (out_dir / f"{cfg.label}_rep{i}_{side}.point").write_bytes(point)
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
    """The preset (``run`` only), then the flags actually passed (argparse
    defaults are None), then RM_SEED for the seed."""
    values = load_preset(args.preset) if getattr(args, "preset", None) is not None else {}
    for key in _FIELDS:
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _parse(key, text, f"--{key}")
    env_seed = os.environ.get("RM_SEED")
    if env_seed is not None:
        values["seed"] = _parse("seed", env_seed, "RM_SEED")
    return values


# -- verify suites -----------------------------------------------------------

# Iteration budgets 10^2, 10^2.5, ..., 10^4 of the rates suite.
_RATE_BUDGETS = tuple(round(10 ** (2 + 0.5 * i)) for i in range(5))


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


def _gradients_suite(
    cfg: ExperimentConfig, problem: MinimaxProblem, rng: np.random.Generator
) -> list[tuple[str, bool, str]]:
    # Exact oracles only, so the instance's noise level plays no part.
    worst = {"x": 0.0, "y": 0.0}
    for _ in range(20):
        x = problem.mx.random_point(rng)
        y = problem.my.random_point(rng)
        ux = problem.mx.random_tangent(x, rng, 1.0)
        uy = problem.my.random_tangent(y, rng, 1.0)
        gx = problem.grad_x(x, y)
        gy = problem.grad_y(x, y)
        for wrt, u, g, man in (("x", ux, gx, problem.mx), ("y", uy, gy, problem.my)):
            analytic = man.inner(g, u)
            fd = finite_diff_directional(problem, x, y, u, wrt)
            worst[wrt] = max(worst[wrt], abs(analytic - fd) / (1.0 + abs(analytic)))
    return [(f"grad_{wrt} matches finite differences ({cfg.problem})", err <= 1e-4, f"max rel err {err:.3e}")
            for wrt, err in worst.items()]


def _rates_suite(cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    problem = generate_multiscale_instance(30, 20, cfg.data_seed)
    # RAGDA with the default stepsizes, and beta < alpha for the deterministic rate.
    solver = SolverConfig(method=Method.RAGDA, beta=0.3, max_iters=_RATE_BUDGETS[-1], seed=cfg.solver.seed)
    trace = run(problem, solver)
    mins = running_min_checkpoints(trace, _RATE_BUDGETS)
    fit = fit_rate(list(zip(_RATE_BUDGETS, mins)))
    return [("adaptive descent-ascent rate on the synthetic quadratic", fit.slope <= -0.4 and fit.r2 >= 0.9,
             f"slope {fit.slope:.3f} (need <= -0.4), r2 {fit.r2:.3f} (need >= 0.9)")]


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
    cfg = ExperimentConfig.from_fields(_collect_fields(args))
    problem = build_problem(cfg)
    rng = np.random.default_rng(cfg.solver.seed)
    suites = ("geometry", "gradients", "rates", "adaptive-sum") if args.suite == "all" else (args.suite,)
    rows: list[tuple[str, bool, str]] = []
    for suite in suites:
        if suite == "geometry":
            rows += _geometry_suite(rng)
        elif suite == "gradients":
            rows += _gradients_suite(cfg, problem, rng)
        elif suite == "rates":
            rows += _rates_suite(cfg)
        elif suite == "adaptive-sum":
            rows += _adaptive_sum_suite(rng)
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    passed = sum(ok for _, ok, _ in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manimax",
        description="Adaptive gradient descent ascent on Riemannian manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a solver and write CSV traces")
    runp.add_argument("--preset", help="packaged preset name or path to a preset file")
    runp.add_argument("--out", default="runs", help="output directory (default: runs)")
    runp.set_defaults(func=cli_run)

    verp = sub.add_parser("verify", help="run self-check suites")
    verp.add_argument(
        "--suite",
        choices=("geometry", "gradients", "rates", "adaptive-sum", "all"),
        default="all",
    )
    verp.set_defaults(func=cli_verify)

    # Values stay text here and are parsed by _collect_fields, so that a flag
    # and a preset line go through the same parser and errors.
    for key, spec in _FIELDS.items():
        for subparser in (runp, verp) if spec.metadata["verify"] else (runp,):
            subparser.add_argument(f"--{key}", dest=key, help=spec.metadata["help"])
    return parser


_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-(inf(inity)?|nan)", re.IGNORECASE)


def main(argv: list[str] | None = None) -> int:
    tokens: list[str] = []  # argparse reads a number such as -5e-1 as a flag; after a setting's flag, it is the value
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1][:2] == "--" and tokens[-1][2:] in _FIELDS and _NEGATIVE_NUMBER.fullmatch(token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _build_parser().parse_args(tokens)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
