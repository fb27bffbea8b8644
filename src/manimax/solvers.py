"""Single-loop gradient descent ascent solvers on Riemannian manifolds.

The adaptive methods accumulate squared gradient norms for both variables and
couple the descent stepsize to the larger of the two accumulators:

    vx <- vx + ||g_x||^2        vy <- vy + ||g_y||^2
    eta = eta_x / max(vx, vy)^alpha
    gamma = eta_y / vy^beta
    x <- Retr_x(-eta * g_x)     y <- Retr_y(+gamma * g_y)

The accumulators are updated before the stepsizes are formed; the stepsizes
of step t therefore already include the gradients of step t. The stochastic
variant draws the batches of the two sides from two generators that ``run``
derives once from the seed. Every method steps through one array kernel, ``_step``.

``run_seeds`` runs several seeds as one computation on stacked arrays, one
row per seed, whose bits do not depend on the other rows; ``run`` is its
single-seed case, and the two are the only ways into ``_step``. A step that
fails on a batch of several rows reruns each half of them from the start,
until each failing row fails alone. One step of a deterministic method from
a state s is ``run`` with max_iters=1, grad_tol=0, v0_x=s.vx, v0_y=s.vy,
x0=s.x and y0=s.y.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .manifolds import GeometryError, Point, _all_finite, _trusted
from .problems import MinimaxProblem, NumericalOverflow

__all__ = [
    "ConfigError",
    "NumericalError",
    "Method",
    "StopReason",
    "SolverConfig",
    "AdaptiveState",
    "IterationRecord",
    "Trace",
    "stationarity",
    "run",
    "run_seeds",
    "running_min_checkpoints",
]

RECORD_CAP = 10_000


class ConfigError(ValueError):
    """A solver or experiment configuration value is out of range."""


class NumericalError(RuntimeError):
    """A step produced non-finite values or a degenerate geometry operation."""


class Method(str, Enum):
    RAGDA = "ragda"
    RSAGDA = "rsagda"
    GDA = "gda"
    TSGDA = "tsgda"


class StopReason(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NUMERICAL_ERROR = "numerical_error"


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.RAGDA
    eta_x: float = 0.5
    eta_y: float = 5.0
    alpha: float = 0.5
    beta: float = 0.5
    v0_x: float = 1e-6
    v0_y: float = 1e-6
    max_iters: int = 1000
    grad_tol: float = 0.0
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from "
                f"{[m.value for m in Method]}"
            ) from None
        # Written as ranges so that nan fails every one of them.
        if not (0 < self.eta_x < math.inf and 0 < self.eta_y < math.inf):
            raise ConfigError("stepsize scales eta_x, eta_y must be positive and finite")
        if not (0 < self.alpha < 1) or not (0 < self.beta < 1):
            raise ConfigError("alpha and beta must lie in (0, 1)")
        if not (0 < self.v0_x < math.inf and 0 < self.v0_y < math.inf):
            raise ConfigError("accumulator seeds v0_x, v0_y must be positive and finite")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be nonnegative")
        if not 0 <= self.grad_tol < math.inf:
            raise ConfigError("grad_tol must be nonnegative and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def regime_flags(self) -> list[str]:
        """Notes on where (alpha, beta) sits relative to the known rate regimes."""
        flags: list[str] = []
        a, b = self.alpha, self.beta
        if self.method is Method.RAGDA and not b < a:
            flags.append(
                f"alpha={a:g}, beta={b:g} outside the deterministic rate regime (0 < beta < alpha < 1)"
            )
        if self.method is Method.RSAGDA and 2 * b > a:
            if b <= a:
                flags.append(
                    f"alpha={a:g}, beta={b:g} needs second-order smoothness (2*beta > alpha)"
                )
            else:
                flags.append(
                    f"alpha={a:g}, beta={b:g} outside the stochastic rate regimes (beta > alpha)"
                )
        return flags


@dataclass
class AdaptiveState:
    """Iterates plus gradient-norm accumulators after t completed steps."""

    x: Point
    y: Point
    vx: float
    vy: float
    t: int


@dataclass(frozen=True)
class IterationRecord:
    """Exact-gradient diagnostics for one iterate.

    grad_x_norm and grad_y_norm are Riemannian norms of the exact gradients
    at iterate t; eta_t and gamma_t are the stepsizes applied by step t.
    """

    t: int
    grad_x_norm: float
    grad_y_norm: float
    eta_t: float
    gamma_t: float
    f_value: float
    wall_s: float


@dataclass
class Trace:
    config: SolverConfig
    records: list[IterationRecord]
    stop_reason: StopReason
    min_stationarity: float
    final_state: AdaptiveState | None
    metadata: dict = field(default_factory=dict)


def stationarity(problem: MinimaxProblem, x: Point, y: Point) -> tuple[float, float]:
    """Riemannian norms of the exact gradients at (x, y)."""
    gx = problem.grad_x(x, y)
    gy = problem.grad_y(x, y)
    return problem.mx.norm(gx), problem.my.norm(gy)


def running_min_checkpoints(trace: Trace, budgets, squared: bool = False) -> list[float]:
    """Running minimum of the stationarity measure at iteration budgets.

    For each budget T, the minimum over recorded iterates with t < T of
    grad_x_norm + grad_y_norm (or of the sum of squares when squared=True).
    Because one trajectory run to the largest budget shares its prefix with
    shorter runs of the same config and seed, a single trace serves every
    budget.
    """
    budgets = sorted(int(b) for b in budgets)
    if not budgets:
        raise ConfigError("need at least one budget")
    if not trace.records or budgets[0] <= trace.records[0].t:
        raise ConfigError(f"budget {budgets[0]} covers no recorded iterations")
    out: list[float] = []
    best = math.inf
    it = iter(trace.records)
    rec = next(it, None)
    for budget in budgets:
        while rec is not None and rec.t < budget:
            if squared:
                val = rec.grad_x_norm**2 + rec.grad_y_norm**2
            else:
                val = rec.grad_x_norm + rec.grad_y_norm
            best = min(best, val)
            rec = next(it, None)
        out.append(best)
    return out


_FAILURES = (GeometryError, NumericalOverflow, NumericalError, FloatingPointError)
_NORMAL_BLOCK = 64  # standard normals drawn ahead per row, in calls


class _Draws:
    """One side's random stream for a stack of rows, one generator per row.

    A draw of shape (R, ...) takes row i from generator i. Standard normals
    come from a block drawn _NORMAL_BLOCK calls ahead, which yields what
    drawing call by call would while the generator draws nothing else.
    """

    def __init__(self, gens) -> None:
        self.gens, self.pos = list(gens), 0
        self.block = np.empty((len(self.gens), 0))

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape[1:])
        if self.pos + size > self.block.shape[1]:
            fresh = np.stack([g.standard_normal(_NORMAL_BLOCK * size) for g in self.gens])
            self.block, self.pos = np.concatenate([self.block[:, self.pos:], fresh], axis=1), 0
        out = self.block[:, self.pos:self.pos + size]
        self.pos += size
        return out if len(shape) == 2 else out.reshape(shape)

    def integers(self, low: int, high: int, shape: tuple[int, ...]) -> np.ndarray:
        return np.stack([g.integers(low, high, size=shape[1:], dtype=np.int64) for g in self.gens])

    def keep(self, rows: list[int]) -> None:
        self.gens, self.block = [self.gens[i] for i in rows], self.block[rows]


def _step(problem: MinimaxProblem, cfg: SolverConfig, x: np.ndarray, y: np.ndarray, vx: list[float],
          vy: list[float], draws: tuple[_Draws, _Draws] | None, full: np.ndarray,
          evaluate: bool, record: bool):
    """One step of cfg.method for each row of the point stacks (x, y), shape
    (R, n), with accumulators (vx, vy), R floats each.

    Exact gradients when draws is None, else each side draws its batches and
    noise from its own stream; a batch that covers the dataset is ``full``.
    Returns the next (x, y, vx, vy), the stepsizes (eta, gamma), the squared
    gradient norms (nx2, ny2), and (sx, sy, f) at iterate t if ``evaluate``:
    the exact gradient norms and the values of the rows that record it (nan
    for the others); else None. Per-row scalars are lists of Python floats,
    cheaper than arrays for a few rows, and numpy's ** rounds some powers
    differently. GDA uses eta_x on both sides, TSGDA (eta_x, eta_y); the
    adaptive methods use the law in the module docstring.
    """
    mx, my = problem.mx, problem.my
    rows = len(x)
    # Overflow, invalid results and division by zero read as inf or nan here,
    # not as warnings: a non-finite oracle output fails its tangent check,
    # non-finite norms (an SPD metric whose eigenvalue products underflow to
    # 0 among them) or scaled steps raise NumericalError, and a retraction's
    # own guard or ``_frozen`` reports the rest.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if draws is None:
            gx, gy = problem._grad_x(x, y), problem._grad_y(x, y)
        else:
            n, size = full.size, cfg.batch_size
            if size >= n:
                idx_x = idx_y = full
            else:
                idx_x, idx_y = (side.integers(0, n, (rows, size)) for side in draws)
            gx = problem._stoch_grad_x(x, y, idx_x, draws[0])
            gy = problem._stoch_grad_y(x, y, idx_y, draws[1])
        mx.check_tangent(x, gx)
        my.check_tangent(y, gy)
        nx2, ny2 = _sq_norms(problem, x, y, gx, gy)
        if cfg.method in (Method.RAGDA, Method.RSAGDA):
            ex, ey, alpha, beta = cfg.eta_x, cfg.eta_y, cfg.alpha, cfg.beta
            vxs, vys, eta, gamma = vx, vy, [], []
            vx, vy = [], []
            for a, b, sx2, sy2 in zip(vxs, vys, nx2, ny2):
                a, b = a + sx2, b + sy2
                vx.append(a)
                vy.append(b)
                eta.append(ex / (a if a > b else b) ** alpha)
                gamma.append(ey / b**beta)
        else:
            eta = [cfg.eta_x] * rows
            gamma = [cfg.eta_x if cfg.method is Method.GDA else cfg.eta_y] * rows
        # A single row takes the cheaper scalar product, with the same bits.
        if rows == 1:
            ux, uy = gx * -eta[0], gy * gamma[0]
        else:
            ux, uy = np.array([-e for e in eta])[:, None] * gx, np.array(gamma)[:, None] * gy
        if not (_all_finite(ux) and _all_finite(uy)):
            raise NumericalError("a scaled gradient step overflowed")
        out = mx._move(mx._retract, x, ux), my._move(my._retract, y, uy), vx, vy, eta, gamma, nx2, ny2
        if not evaluate:
            return out + (None, None, None)
        if draws is not None:
            nx2, ny2 = _sq_norms(problem, x, y, problem._grad_x(x, y), problem._grad_y(x, y))
        sx, sy = [math.sqrt(v) for v in nx2], [math.sqrt(v) for v in ny2]
        recording = record or any(a + b <= cfg.grad_tol for a, b in zip(sx, sy))
        return out + (sx, sy, problem._value(x, y).tolist() if recording else [math.nan] * rows)


def _sq_norms(problem: MinimaxProblem, x: np.ndarray, y: np.ndarray,
              gx: np.ndarray, gy: np.ndarray) -> tuple[list[float], list[float]]:
    nx2 = problem.mx._inner_data(x, gx, gx).tolist()
    ny2 = problem.my._inner_data(y, gy, gy).tolist()
    if not all(map(math.isfinite, nx2 + ny2)):
        raise NumericalError("non-finite gradient norm")
    return nx2, ny2


def _frozen_rows(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # so that the SPD spectrum memo serves the stack
    return arr


def _rows(keep: list[int], *rows):
    """Each stack or per-row list cut down to the rows in keep."""
    return [[a[j] for j in keep] if isinstance(a, list) else _frozen_rows(a[keep]) for a in rows]


def _state(problem: MinimaxProblem, x: np.ndarray, y: np.ndarray, vx: float, vy: float, t: int) -> AdaptiveState:
    return AdaptiveState(x=_trusted(Point, problem.mx, x), y=_trusted(Point, problem.my, y), vx=vx, vy=vy, t=t)


def run(
    problem: MinimaxProblem,
    cfg: SolverConfig,
    *,
    eval_stride: int = 50,
    x0: Point | None = None,
    y0: Point | None = None,
) -> Trace:
    """Iterate the configured method from cfg.seed and collect a trace.

    Stops when the sum of exact gradient norms drops to grad_tol (checked
    every eval_stride steps for the stochastic method, every step otherwise)
    or after max_iters steps. Records are written every step up to 10^4
    total, then strided; the running minimum of the stationarity measure is
    maintained over every evaluated step regardless of the record stride.
    Geometry errors and overflow stop the run with a partial trace. This is
    ``run_seeds`` for one seed, started at x0 and y0 when given.
    """
    return _run_rows(problem, cfg, [cfg.seed], eval_stride, x0, y0)[0]


def run_seeds(problem: MinimaxProblem, cfg: SolverConfig, seeds, *, eval_stride: int = 50) -> list[Trace]:
    """``run`` for each seed, as one computation whose rows are the seeds.

    Trace i equals ``run`` for ``replace(cfg, seed=seeds[i])`` but for the
    clocks, which are those of the batch that ends the row. A row that
    converges leaves the batch and the others go on; when a step fails, each
    half of the live rows reruns from the start as its own batch.
    """
    return _run_rows(problem, cfg, seeds, eval_stride)


def _run_rows(problem: MinimaxProblem, cfg: SolverConfig, seeds, eval_stride: int,
              x0: Point | None = None, y0: Point | None = None) -> list[Trace]:
    if eval_stride < 1:
        raise ConfigError("eval_stride must be >= 1")
    configs = [replace(cfg, seed=seed) for seed in seeds]
    if not configs:
        raise ConfigError("need at least one seed")
    for manifold, given in ((problem.mx, x0), (problem.my, y0)):
        if given is not None:
            manifold._require_point(given)
            manifold.check_point(given.data)

    stochastic = cfg.method is Method.RSAGDA
    starts, gens = [], []
    for row in configs:
        init_ss, step_ss = np.random.SeedSequence(row.seed).spawn(2)
        x_init, y_init = problem.default_start(np.random.default_rng(init_ss))
        starts.append(((x0 or x_init).data, (y0 or y_init).data))
        gens.append([np.random.default_rng(s) for s in step_ss.spawn(2)])
    x, y = (_frozen_rows(np.stack(points)) for points in zip(*starts))
    vx, vy = [cfg.v0_x] * len(configs), [cfg.v0_y] * len(configs)
    draws = tuple(_Draws(row[side] for row in gens) for side in (0, 1)) if stochastic else None
    full = np.arange(problem.sample_count, dtype=np.int64)
    record_stride = 1 if cfg.max_iters <= RECORD_CAP else math.ceil(cfg.max_iters / RECORD_CAP)

    # Row j of the stacks and of the per-row lists is the run of
    # configs[live[j]]. The rows step in lockstep, so they share the counts
    # of steps and of exact evaluations.
    live = list(range(len(configs)))
    records: list[list[IterationRecord]] = [[] for _ in configs]
    traces: list[Trace | None] = [None] * len(configs)
    # Running min of the stationarity measure, running max of the squared step gradient norms.
    low, peak = [math.inf] * len(configs), [0.0] * len(configs)
    steps = evals = 0
    start = time.perf_counter()

    def close(j: int, done: int, stop: StopReason, error: str | None = None) -> None:
        """End row j at iterate ``done``; a failing step adds nothing to its trace."""
        i = live[j]
        calls = {"value": len(records[i]), "grad": 2 * (evals if stochastic else steps),
                 "stoch_grad": 2 * steps if stochastic else 0}
        metadata = {"seed": configs[i].seed, "method": cfg.method.value, "regime_flags": cfg.regime_flags(),
                    "eval_stride": eval_stride, "record_stride": record_stride, "oracle_calls": calls,
                    "max_step_grad_norm": math.sqrt(peak[j]), "wall_s": time.perf_counter() - start}
        if error is not None:
            metadata["error"] = error
        traces[i] = Trace(configs[i], records[i], stop, low[j], _state(problem, x[j], y[j], vx[j], vy[j], done),
                          metadata)

    for t in range(cfg.max_iters):
        last = t == cfg.max_iters - 1
        evaluate = not stochastic or t % eval_stride == 0 or last
        record = t % record_stride == 0 or last
        try:
            out = _step(problem, cfg, x, y, vx, vy, draws, full, evaluate, record)
        except _FAILURES as err:
            if len(live) == 1:
                close(0, t, StopReason.NUMERICAL_ERROR, f"{type(err).__name__}: {err}")
                return traces
            # Rows do not depend on the batch, so each half of the live rows,
            # rerun from the start, finds its failing rows with solo traces.
            half = len(live) // 2
            for part in (live[:half], live[half:]):
                reruns = _run_rows(problem, cfg, [configs[i].seed for i in part], eval_stride, x0, y0)
                for i, trace in zip(part, reruns):
                    traces[i] = trace
            return traces
        x1, y1, vx1, vy1, eta, gamma, nx2, ny2, sx, sy, f = out
        steps += 1
        peak = [max(p, a, b) for p, a, b in zip(peak, nx2, ny2)]

        # Iterate t is evaluated and recorded with the stepsizes of step t; a
        # converged iterate ends its row and is kept as its final state.
        if sx is not None:
            evals += 1
            converged, wall = [], None
            for j, i in enumerate(live):
                stat = sx[j] + sy[j]
                low[j] = min(low[j], stat)
                if stat <= cfg.grad_tol:
                    converged.append(j)
                elif not record:
                    continue
                wall = time.perf_counter() - start if wall is None else wall
                records[i].append(IterationRecord(t, sx[j], sy[j], eta[j], gamma[j], f[j], wall))
            if converged:
                for j in converged:
                    close(j, t, StopReason.CONVERGED)
                keep = [j for j in range(len(live)) if j not in converged]
                live, x1, y1, vx1, vy1, low, peak = _rows(keep, live, x1, y1, vx1, vy1, low, peak)
                for side in draws or ():
                    side.keep(keep)
                if not live:
                    break
        x, y, vx, vy = x1, y1, vx1, vy1
    for j in range(len(live)):
        close(j, cfg.max_iters, StopReason.MAX_ITERS)
    return traces
