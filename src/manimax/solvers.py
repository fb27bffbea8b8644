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
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .manifolds import GeometryError, Point, _trusted
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
    "ragda_step",
    "rsagda_step",
    "gda_step",
    "tsgda_step",
    "stationarity",
    "run",
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


def _step(problem: MinimaxProblem, cfg: SolverConfig, x: np.ndarray, y: np.ndarray, vx: float, vy: float,
          rngs: tuple[np.random.Generator, np.random.Generator] | None, full: np.ndarray):
    """One step of cfg.method at the point arrays (x, y) with accumulators (vx, vy).

    Exact gradients when rngs is None, else each side draws its batch and
    noise from its own generator; a batch that covers the dataset is ``full``.
    Returns the next (x, y, vx, vy), the stepsizes (eta, gamma) and the
    squared gradient norms (nx2, ny2). GDA uses eta_x on both sides, TSGDA
    (eta_x, eta_y); the adaptive methods use the law in the module docstring.
    """
    mx, my = problem.mx, problem.my
    if rngs is None:
        gx, gy = problem._grad_x(x, y), problem._grad_y(x, y)
    else:
        n, size = full.size, cfg.batch_size
        idx_x = full if size >= n else rngs[0].integers(0, n, size=size, dtype=np.int64)
        idx_y = full if size >= n else rngs[1].integers(0, n, size=size, dtype=np.int64)
        gx = problem._stoch_grad_x(x, y, idx_x, rngs[0])
        gy = problem._stoch_grad_y(x, y, idx_y, rngs[1])
    mx.check_tangent(x, gx)
    my.check_tangent(y, gy)
    # An overflow of the norms or of the scaled steps reads as inf: a NumericalError.
    with np.errstate(over="ignore", invalid="ignore"):
        nx2, ny2 = _sq_norms(problem, x, y, gx, gy)
        if cfg.method in (Method.RAGDA, Method.RSAGDA):
            vx += nx2
            vy += ny2
            eta = cfg.eta_x / max(vx, vy) ** cfg.alpha
            gamma = cfg.eta_y / vy**cfg.beta
        else:
            eta = cfg.eta_x
            gamma = cfg.eta_x if cfg.method is Method.GDA else cfg.eta_y
        ux, uy = -eta * gx, gamma * gy
    if not (np.isfinite(ux).all() and np.isfinite(uy).all()):
        raise NumericalError("a scaled gradient step overflowed")
    return mx._move(mx._retract, x, ux), my._move(my._retract, y, uy), vx, vy, eta, gamma, nx2, ny2


def _sq_norms(problem: MinimaxProblem, x: np.ndarray, y: np.ndarray,
              gx: np.ndarray, gy: np.ndarray) -> tuple[float, float]:
    nx2 = problem.mx._inner_data(x, gx, gx)
    ny2 = problem.my._inner_data(y, gy, gy)
    if not (math.isfinite(nx2) and math.isfinite(ny2)):
        raise NumericalError("non-finite gradient norm")
    return nx2, ny2


def _state(problem: MinimaxProblem, x: np.ndarray, y: np.ndarray, vx: float, vy: float, t: int) -> AdaptiveState:
    return AdaptiveState(x=_trusted(Point, problem.mx, x), y=_trusted(Point, problem.my, y), vx=vx, vy=vy, t=t)


def _state_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig, method: Method,
                rngs: tuple[np.random.Generator, np.random.Generator] | None = None) -> AdaptiveState:
    """The boundary of the *_step functions: one ``_step`` from and to an AdaptiveState."""
    if cfg.method is not method:
        raise ConfigError(f"{method.value}_step needs method {method.value!r}, got {cfg.method.value!r}")
    full = np.arange(problem.sample_count, dtype=np.int64)
    x, y, vx, vy = _step(problem, cfg, *problem._arrays(state.x, state.y), state.vx, state.vy, rngs, full)[:4]
    return _state(problem, x, y, vx, vy, state.t + 1)


def ragda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """One adaptive descent-ascent step with exact gradients."""
    return _state_step(problem, state, cfg, Method.RAGDA)


def rsagda_step(
    problem: MinimaxProblem,
    state: AdaptiveState,
    cfg: SolverConfig,
    rng: np.random.Generator,
) -> AdaptiveState:
    """One adaptive step with stochastic gradients on independent batches.

    Each call spawns one fresh substream per side from ``rng``; ``run`` keeps
    one stream per side for the whole run, so the two sample paths differ.
    """
    return _state_step(problem, state, cfg, Method.RSAGDA, tuple(rng.spawn(2)))


def gda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """Fixed-stepsize descent ascent with the same stepsize on both sides."""
    return _state_step(problem, state, cfg, Method.GDA)


def tsgda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """Fixed-stepsize descent ascent on two timescales (eta_x, eta_y)."""
    return _state_step(problem, state, cfg, Method.TSGDA)


def run(
    problem: MinimaxProblem,
    cfg: SolverConfig,
    callbacks: tuple = (),
    *,
    eval_stride: int = 50,
    x0: Point | None = None,
    y0: Point | None = None,
) -> Trace:
    """Iterate the configured method and collect a trace.

    Stops when the sum of exact gradient norms drops to grad_tol (checked
    every eval_stride steps for the stochastic method, every step otherwise)
    or after max_iters steps. Records are written every step up to 10^4
    total, then strided; the running minimum of the stationarity measure is
    maintained over every evaluated step regardless of the record stride.
    Geometry errors and overflow stop the run with a partial trace.
    """
    if eval_stride < 1:
        raise ConfigError("eval_stride must be >= 1")
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, step_ss = ss.spawn(2)

    x_init, y_init = problem.default_start(np.random.default_rng(init_ss))
    for manifold, given in ((problem.mx, x0), (problem.my, y0)):
        if given is not None:
            manifold._require_point(given)
            manifold.check_point(given.data)
    # Read-only point arrays, so that the SPD spectrum memo hits at each iterate.
    x, y = (x0 or x_init).data, (y0 or y_init).data
    vx, vy, done = cfg.v0_x, cfg.v0_y, 0

    stochastic = cfg.method is Method.RSAGDA
    rngs = tuple(np.random.default_rng(s) for s in step_ss.spawn(2)) if stochastic else None
    full = np.arange(problem.sample_count, dtype=np.int64)
    record_stride = 1 if cfg.max_iters <= RECORD_CAP else math.ceil(cfg.max_iters / RECORD_CAP)

    records: list[IterationRecord] = []
    min_stat = math.inf
    max_step_grad = 0.0
    calls = {"value": 0, "grad": 0, "stoch_grad": 0}
    stop = StopReason.MAX_ITERS
    start = time.perf_counter()

    def emit(t: int, sx: float, sy: float, eta: float, gamma: float) -> None:
        calls["value"] += 1
        rec = IterationRecord(
            t=t,
            grad_x_norm=sx,
            grad_y_norm=sy,
            eta_t=eta,
            gamma_t=gamma,
            f_value=problem._value(x, y),
            wall_s=time.perf_counter() - start,
        )
        records.append(rec)
        for cb in callbacks:
            cb(rec)

    try:
        for t in range(cfg.max_iters):
            x1, y1, vx1, vy1, eta, gamma, nx2, ny2 = _step(problem, cfg, x, y, vx, vy, rngs, full)
            calls["stoch_grad" if stochastic else "grad"] += 2
            max_step_grad = max(max_step_grad, math.sqrt(nx2), math.sqrt(ny2))

            last = t == cfg.max_iters - 1
            if stochastic:
                evaluate = t % eval_stride == 0 or last
                if evaluate:
                    with np.errstate(over="ignore", invalid="ignore"):
                        ex2, ey2 = _sq_norms(problem, x, y, problem._grad_x(x, y), problem._grad_y(x, y))
                    sx, sy = math.sqrt(ex2), math.sqrt(ey2)
                    calls["grad"] += 2
            else:
                evaluate = True
                sx, sy = math.sqrt(nx2), math.sqrt(ny2)

            # Iterate t is evaluated and recorded with the stepsizes of step
            # t; a converged iterate stops the run and is kept as final.
            if evaluate:
                stat = sx + sy
                min_stat = min(min_stat, stat)
                converged = stat <= cfg.grad_tol
                if t % record_stride == 0 or last or converged:
                    emit(t, sx, sy, eta, gamma)
                if converged:
                    stop = StopReason.CONVERGED
                    break
            x, y, vx, vy, done = x1, y1, vx1, vy1, t + 1
    except (GeometryError, NumericalOverflow, NumericalError, FloatingPointError) as err:
        stop = StopReason.NUMERICAL_ERROR
        metadata_error = f"{type(err).__name__}: {err}"
    else:
        metadata_error = None

    trace = Trace(
        config=cfg,
        records=records,
        stop_reason=stop,
        min_stationarity=min_stat,
        final_state=_state(problem, x, y, vx, vy, done),
        metadata={
            "seed": cfg.seed,
            "method": cfg.method.value,
            "regime_flags": cfg.regime_flags(),
            "eval_stride": eval_stride,
            "record_stride": record_stride,
            "oracle_calls": calls,
            "max_step_grad_norm": max_step_grad,
            "wall_s": time.perf_counter() - start,
        },
    )
    if metadata_error is not None:
        trace.metadata["error"] = metadata_error
    return trace
