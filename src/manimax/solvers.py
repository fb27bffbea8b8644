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
derives once from the seed. Every method steps through the one kernel ``_step``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .manifolds import GeometryError, Point, Tangent
from .problems import Batch, MinimaxProblem, NumericalOverflow

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
    dist_to_ystar: float | None = None


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


def _step(
    problem: MinimaxProblem,
    state: AdaptiveState,
    cfg: SolverConfig,
    gx: Tangent,
    gy: Tangent,
) -> tuple[AdaptiveState, float, float, float, float]:
    """One step of cfg.method from the gradients (gx, gy) at state.

    Returns the next state, the stepsizes (eta, gamma) it applied and the
    squared gradient norms (nx2, ny2). GDA uses eta_x on both sides, TSGDA
    (eta_x, eta_y); the adaptive methods use the law in the module docstring.
    """
    nx2 = problem.mx.inner(gx, gx)
    ny2 = problem.my.inner(gy, gy)
    if not (math.isfinite(nx2) and math.isfinite(ny2)):
        raise NumericalError("non-finite gradient norm")
    vx, vy = state.vx, state.vy
    if cfg.method in (Method.RAGDA, Method.RSAGDA):
        vx += nx2
        vy += ny2
        eta = cfg.eta_x / max(vx, vy) ** cfg.alpha
        gamma = cfg.eta_y / vy**cfg.beta
    else:
        eta = cfg.eta_x
        gamma = cfg.eta_x if cfg.method is Method.GDA else cfg.eta_y
    x1 = problem.mx.retract(state.x, gx.scaled(-eta))
    y1 = problem.my.retract(state.y, gy.scaled(gamma))
    return AdaptiveState(x=x1, y=y1, vx=vx, vy=vy, t=state.t + 1), eta, gamma, nx2, ny2


def _grads(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig,
           rngs: tuple[np.random.Generator, np.random.Generator] | None = None) -> tuple[Tangent, Tangent]:
    """Exact gradients, or stochastic ones with one (batch, noise) stream per side.

    A requested batch at least as large as the dataset degenerates to the
    deterministic full-index batch instead of sampling with replacement.
    """
    x, y = state.x, state.y
    if rngs is None:
        return problem.grad_x(x, y), problem.grad_y(x, y)
    rng_x, rng_y = rngs
    n = problem.sample_count
    if cfg.batch_size >= n:
        batch_x = batch_y = Batch.full(n)
    else:
        batch_x = Batch.sample(rng_x, n, cfg.batch_size)
        batch_y = Batch.sample(rng_y, n, cfg.batch_size)
    return problem.stoch_grad_x(x, y, batch_x, rng_x), problem.stoch_grad_y(x, y, batch_y, rng_y)


def _public_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig,
                 method: Method, rng: np.random.Generator | None = None) -> AdaptiveState:
    """Body of the public *_step functions: gradients, then one kernel step."""
    if cfg.method is not method:
        raise ConfigError(f"{method.value}_step needs method {method.value!r}, got {cfg.method.value!r}")
    gx, gy = _grads(problem, state, cfg, None if rng is None else rng.spawn(2))
    return _step(problem, state, cfg, gx, gy)[0]


def ragda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """One adaptive descent-ascent step with exact gradients."""
    return _public_step(problem, state, cfg, Method.RAGDA)


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
    return _public_step(problem, state, cfg, Method.RSAGDA, rng)


def gda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """Fixed-stepsize descent ascent with the same stepsize on both sides."""
    return _public_step(problem, state, cfg, Method.GDA)


def tsgda_step(problem: MinimaxProblem, state: AdaptiveState, cfg: SolverConfig) -> AdaptiveState:
    """Fixed-stepsize descent ascent on two timescales (eta_x, eta_y)."""
    return _public_step(problem, state, cfg, Method.TSGDA)


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
    x = x0 if x0 is not None else x_init
    y = y0 if y0 is not None else y_init
    state = AdaptiveState(x=x, y=y, vx=cfg.v0_x, vy=cfg.v0_y, t=0)

    stochastic = cfg.method is Method.RSAGDA
    rngs = tuple(np.random.default_rng(s) for s in step_ss.spawn(2)) if stochastic else None
    record_stride = 1 if cfg.max_iters <= RECORD_CAP else math.ceil(cfg.max_iters / RECORD_CAP)

    records: list[IterationRecord] = []
    min_stat = math.inf
    max_step_grad = 0.0
    calls = {"value": 0, "grad": 0, "stoch_grad": 0}
    stop = StopReason.MAX_ITERS
    start = time.perf_counter()

    def emit(t: int, sx: float, sy: float, eta: float, gamma: float) -> None:
        calls["value"] += 1
        f_val = problem.value(state.x, state.y)
        dist_ystar = None
        try:
            y_star, _ = problem.inner_max_oracle(state.x)
            dist_ystar = problem.my.dist(state.y, y_star)
        except GeometryError:
            pass
        rec = IterationRecord(
            t=t,
            grad_x_norm=sx,
            grad_y_norm=sy,
            eta_t=eta,
            gamma_t=gamma,
            f_value=f_val,
            wall_s=time.perf_counter() - start,
            dist_to_ystar=dist_ystar,
        )
        records.append(rec)
        for cb in callbacks:
            cb(rec)

    try:
        for t in range(cfg.max_iters):
            gx, gy = _grads(problem, state, cfg, rngs)
            calls["stoch_grad" if stochastic else "grad"] += 2
            nxt, eta, gamma, nx2, ny2 = _step(problem, state, cfg, gx, gy)
            max_step_grad = max(max_step_grad, math.sqrt(nx2), math.sqrt(ny2))

            last = t == cfg.max_iters - 1
            if stochastic:
                evaluate = t % eval_stride == 0 or last
                if evaluate:
                    sx, sy = stationarity(problem, state.x, state.y)
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
            state = nxt
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
        final_state=state,
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
