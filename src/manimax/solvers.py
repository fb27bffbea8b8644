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

``run_seeds`` runs several configs as one computation on stacked arrays, one
row per config, whose bits do not depend on the other rows; ``run`` is its
single-config case, and ``run_seeds`` is the only way into ``_step``. A step
that fails on a batch of several rows reruns each half of them from the start,
until each failing row fails alone. One step of a deterministic method from
a state s is ``run`` with max_iters=1, grad_tol=0, v0_x=s.vx, v0_y=s.vy,
x0=s.x and y0=s.y.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .manifolds import GeometryError, Point, _all_finite, _count, _real, _trusted
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


def _setting(default, help: str, key: str | None = None, verify: bool = False, **rule):
    """A config field that declares its setting once: its default, its command line help and its
    rule, ``count=`` the bounds ``_count`` takes or ``real=`` the (message, interval) ``_real`` takes;
    a field without one parses as text and is checked by hand. Its command line key is ``key``, else
    its name with "_" written "-"; ``verify=True`` makes the key a flag of ``manimax verify`` too."""
    return field(default=default, metadata={"help": help, "key": key, "verify": verify, **rule})


def _check_settings(config) -> None:
    """Check every field of a config that has a rule by that rule, in field order."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "count" in f.metadata:
            _count(value, f.name, *f.metadata["count"], error=ConfigError)
        elif "real" in f.metadata:
            message, inside = f.metadata["real"]
            _real(value, f"{f.name} {message}", inside, error=ConfigError)


_POSITIVE = ("must be positive and finite", lambda v: 0 < v < math.inf)
_EXPONENT = ("must lie in (0, 1)", lambda v: 0 < v < 1)


@dataclass(frozen=True)
class SolverConfig:
    method: Method = _setting(Method.RAGDA, f"one of {', '.join(m.value for m in Method)}", key="solver")
    eta_x: float = _setting(0.5, "descent stepsize scale", real=_POSITIVE)
    eta_y: float = _setting(5.0, "ascent stepsize scale", real=_POSITIVE)
    alpha: float = _setting(0.5, "descent stepsize exponent, in (0, 1)", real=_EXPONENT)
    beta: float = _setting(0.5, "ascent stepsize exponent, in (0, 1)", real=_EXPONENT)
    v0_x: float = _setting(1e-6, "initial descent accumulator", real=_POSITIVE)
    v0_y: float = _setting(1e-6, "initial ascent accumulator", real=_POSITIVE)
    max_iters: int = _setting(1000, "iteration budget", count=(0,))
    grad_tol: float = _setting(0.0, "stop once ||grad_x|| + ||grad_y|| <= this",
                               real=("must be nonnegative and finite", lambda v: 0 <= v < math.inf))
    batch_size: int = _setting(1, "minibatch size of the stochastic method", count=(1,))
    seed: int = _setting(0, "base seed (RM_SEED env overrides)", count=(0,), verify=True)
    eval_stride: int = _setting(50, "steps between exact evaluations of stochastic runs", count=(1,))

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            raise ConfigError(f"unknown method {self.method!r}; choose from {[m.value for m in Method]}") from None
        _check_settings(self)

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


@dataclass(frozen=True)
class Trace:
    """One run: min_stationarity is the running minimum of grad_x_norm +
    grad_y_norm, the call counts cover both sides, max_step_grad_norm is the
    largest gradient norm a step used, wall_s the batch clock at the end, and
    error the failure of a numerical_error stop."""

    config: SolverConfig
    records: list[IterationRecord]
    stop_reason: StopReason
    min_stationarity: float
    final_state: AdaptiveState
    grad_calls: int
    stoch_grad_calls: int
    max_step_grad_norm: float
    wall_s: float
    error: str | None = None


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
    budgets = sorted(_count(b, "budget", 1, error=ConfigError) for b in budgets)
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
# The settings that the rows of one batch share; the others may differ by row.
_SHARED = ("method", "max_iters", "grad_tol", "batch_size", "eval_stride")
_NORMAL_BLOCK = 64  # standard normals drawn ahead per row, in calls
_NORMAL_FLOATS = 2**20  # and in floats over all rows, unless one call needs more


class _Draws:
    """One side's random stream for a stack of rows, one generator per row.

    A draw of shape (R, ...) takes row i from generator i. Standard normals
    come from a block drawn _NORMAL_BLOCK calls ahead, or fewer where that
    would pass _NORMAL_FLOATS, which yields what drawing call by call would
    while the generator draws nothing else.
    """

    def __init__(self, gens) -> None:
        self.gens, self.pos = list(gens), 0
        self.block = np.empty((len(self.gens), 0))

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape[1:])
        if self.pos + size > self.block.shape[1]:
            calls = max(1, min(_NORMAL_BLOCK, _NORMAL_FLOATS // (len(self.gens) * size)))
            fresh = np.stack([g.standard_normal(calls * size) for g in self.gens])
            rest = self.block[:, self.pos:]
            self.block, self.pos = np.concatenate([rest, fresh], axis=1) if rest.size else fresh, 0
        out = self.block[:, self.pos:self.pos + size]
        self.pos += size
        return out if len(shape) == 2 else out.reshape(shape)

    def integers(self, low: int, high: int, shape: tuple[int, ...]) -> np.ndarray:
        return np.stack([g.integers(low, high, size=shape[1:], dtype=np.int64) for g in self.gens])

    def keep(self, rows: list[int]) -> None:
        self.gens, self.block = [self.gens[i] for i in rows], self.block[rows]


def _step(problem: MinimaxProblem, configs: list[SolverConfig], x: np.ndarray, y: np.ndarray, vx: list[float],
          vy: list[float], draws: tuple[_Draws, _Draws] | None, full: np.ndarray,
          evaluate: bool, record: bool):
    """One step of the batch's method for each row of the point stacks (x, y),
    shape (R, n), with the rows' configs and accumulators (vx, vy), R of each.

    Exact gradients when draws is None, else each side draws its batches and
    noise from its own stream; a batch that covers the dataset is ``full``.
    Returns the next (x, y, vx, vy), the stepsizes (eta, gamma), the squared
    gradient norms (nx2, ny2), and (sx, sy, f) at iterate t if ``evaluate``:
    the exact gradient norms and the values of the rows that record it (nan
    for the others); else None. Per-row scalars are lists of Python floats,
    cheaper than arrays for a few rows, and numpy's ** rounds some powers
    differently. GDA uses eta_x on both sides, TSGDA (eta_x, eta_y); the
    adaptive methods use the law in the module docstring. It opens no errstate:
    it runs under the one of ``run_seeds``.
    """
    mx, my = problem.mx, problem.my
    cfg, rows = configs[0], len(x)
    rng_x, rng_y = draws or (None, None)
    idx_x = idx_y = None if draws is None else full
    if draws is not None and cfg.batch_size < full.size:
        idx_x, idx_y = (side.integers(0, full.size, (rows, cfg.batch_size)) for side in draws)
    gx, gy = problem._grad_x(x, y, idx_x, rng_x), problem._grad_y(x, y, idx_y, rng_y)
    mx._validate_tangent(x, gx)
    my._validate_tangent(y, gy)
    nx2, ny2 = _sq_norms(problem, x, y, gx, gy)
    if cfg.method in (Method.RAGDA, Method.RSAGDA):
        vxs, vys, eta, gamma = vx, vy, [], []
        vx, vy = [], []
        for c, a, b, sx2, sy2 in zip(configs, vxs, vys, nx2, ny2):
            a, b = a + sx2, b + sy2
            vx.append(a)
            vy.append(b)
            eta.append(c.eta_x / (a if a > b else b) ** c.alpha)
            gamma.append(c.eta_y / b**c.beta)
    else:
        eta = [c.eta_x for c in configs]
        gamma = eta if cfg.method is Method.GDA else [c.eta_y for c in configs]
    # A single row takes the cheaper scalar product, with the same bits.
    if rows == 1:
        ux, uy = gx * -eta[0], gy * gamma[0]
    else:
        ux, uy = np.array(eta)[:, None] * gx, np.array(gamma)[:, None] * gy
        np.negative(ux, out=ux)
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


def _rows(keep: list[int], *rows):
    """Each stack or per-row list cut down to the rows in keep."""
    return [[a[j] for j in keep] if isinstance(a, list) else a[keep] for a in rows]


def _state(problem: MinimaxProblem, x: np.ndarray, y: np.ndarray, vx: float, vy: float, t: int) -> AdaptiveState:
    return AdaptiveState(x=_trusted(Point, problem.mx, x), y=_trusted(Point, problem.my, y), vx=vx, vy=vy, t=t)


def run(problem: MinimaxProblem, cfg: SolverConfig, *, x0: Point | None = None, y0: Point | None = None) -> Trace:
    """Iterate the configured method from cfg.seed and collect a trace.

    Stops when the sum of exact gradient norms drops to grad_tol (checked
    every cfg.eval_stride steps for the stochastic method, every step
    otherwise) or after max_iters steps. Records are written every step up to
    10^4 total, then strided; the running minimum of the stationarity measure
    is maintained over every evaluated step regardless of the record stride.
    Geometry errors and overflow stop the run with a partial trace. This is
    ``run_seeds`` for one config, started at x0 and y0 when given.
    """
    return run_seeds(problem, [cfg], x0=x0, y0=y0)[0]


def run_seeds(problem: MinimaxProblem, configs, *, x0: Point | None = None, y0: Point | None = None) -> list[Trace]:
    """``run`` for each config, as one computation whose rows are the configs.

    The rows may differ in seed, eta_x, eta_y, alpha, beta, v0_x and v0_y;
    they must share method, max_iters, grad_tol, batch_size and eval_stride,
    else ConfigError before any step. Trace i equals ``run`` for configs[i]
    but for the clocks, which are those of the batch that ends the row. A row
    that converges leaves the batch and the others go on; when a step fails,
    each half of the live rows reruns from the start as its own batch.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("need at least one config")
    cfg = configs[0]
    for name in _SHARED:
        if any(getattr(row, name) != getattr(cfg, name) for row in configs):
            raise ConfigError(f"the rows of a batch must share {name}")
    for manifold, given in ((problem.mx, x0), (problem.my, y0)):
        if given is not None:
            manifold._require_point(given)
            manifold.check_point(given.data)

    stochastic = cfg.method is Method.RSAGDA
    starts, gens = [], []
    for row in configs:
        init_ss, step_ss = np.random.SeedSequence(row.seed).spawn(2)
        if x0 is None or y0 is None:
            x_init, y_init = problem.default_start(np.random.default_rng(init_ss))
        starts.append(((x0 or x_init).data, (y0 or y_init).data))
        gens.append([np.random.default_rng(s) for s in step_ss.spawn(2)])
    x, y = (np.stack(points) for points in zip(*starts))
    vx, vy = [row.v0_x for row in configs], [row.v0_y for row in configs]
    draws = tuple(_Draws(row[side] for row in gens) for side in (0, 1)) if stochastic else None
    full = np.arange(problem.sample_count, dtype=np.int64)
    record_stride = 1 if cfg.max_iters <= RECORD_CAP else math.ceil(cfg.max_iters / RECORD_CAP)

    # Row j of the stacks and of the per-row lists is the run of
    # configs[live[j]], which is live_configs[j]. The rows step in lockstep,
    # so they share the counts of steps and of exact evaluations.
    live, live_configs = list(range(len(configs))), configs
    records: list[list[IterationRecord]] = [[] for _ in configs]
    traces: list[Trace | None] = [None] * len(configs)
    # Running min of the stationarity measure, running max of the squared step gradient norms.
    low, peak = [math.inf] * len(configs), [0.0] * len(configs)
    steps = evals = 0
    start = time.perf_counter()

    def close(j: int, done: int, stop: StopReason, error: str | None = None) -> None:
        """End row j at iterate ``done``; a failing step adds nothing to its trace."""
        i = live[j]
        traces[i] = Trace(configs[i], records[i], stop, low[j], _state(problem, x[j], y[j], vx[j], vy[j], done),
                          grad_calls=2 * (evals if stochastic else steps),
                          stoch_grad_calls=2 * steps if stochastic else 0,
                          max_step_grad_norm=math.sqrt(peak[j]), wall_s=time.perf_counter() - start, error=error)

    # The run's one errstate: overflow, invalid results and division by zero
    # in a step read as inf or nan, not as warnings. A non-finite oracle
    # output fails its tangent check, non-finite norms (an SPD metric whose
    # eigenvalue products underflow to 0 among them) or scaled steps raise
    # NumericalError, and a retraction's guard or ``_frozen`` reports the rest.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(cfg.max_iters):
            last = t == cfg.max_iters - 1
            evaluate = not stochastic or t % cfg.eval_stride == 0 or last
            record = t % record_stride == 0 or last
            try:
                out = _step(problem, live_configs, x, y, vx, vy, draws, full, evaluate, record)
            except _FAILURES as err:
                if len(live) == 1:
                    close(0, t, StopReason.NUMERICAL_ERROR, f"{type(err).__name__}: {err}")
                    return traces
                # Rows do not depend on the batch, so each half of the live rows,
                # rerun from the start, finds its failing rows with solo traces.
                half = len(live) // 2
                for part in (live[:half], live[half:]):
                    reruns = run_seeds(problem, [configs[i] for i in part], x0=x0, y0=y0)
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
                    live, live_configs, x1, y1, vx1, vy1, low, peak = _rows(
                        keep, live, live_configs, x1, y1, vx1, vy1, low, peak)
                    for side in draws or ():
                        side.keep(keep)
                    if not live:
                        break
            x, y, vx, vy = x1, y1, vx1, vy1
    for j in range(len(live)):
        close(j, cfg.max_iters, StopReason.MAX_ITERS)
    return traces
