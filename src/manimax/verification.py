"""Independent numerical checks: finite differences, retraction accuracy,
rate fitting, transport audits, and the adaptive stepsize sum inequality.

These routines deliberately avoid the analytic shortcuts used by the problem
and solver layers so they can serve as oracles against them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import (
    AntipodalPoints,
    Manifold,
    Point,
    Tangent,
    UnsupportedOperation,
    _count,
    _floats,
    _generator,
    _real,
)
from .problems import MinimaxProblem

__all__ = [
    "InvalidInput",
    "InsufficientData",
    "GAP_FLOOR",
    "SlopeFit",
    "GeometryReport",
    "fit_rate",
    "finite_diff_directional",
    "estimate_retraction_constants",
    "check_adaptive_sum_inequality",
    "audit_transport_isometry",
]

# Measured retraction gaps at or below this level are considered exact:
# they sit at the roundoff floor of the log map itself.
GAP_FLOOR = 1e-12
# The step scales of estimate_retraction_constants, three decades wide, and
# the step of finite_diff_directional.
_SCALES = np.logspace(-4, -1, 13)
_SCALES.setflags(write=False)
_FD_STEP = 1e-5


class InvalidInput(ValueError):
    """An argument is outside the documented domain."""


class InsufficientData(ValueError):
    """Too few budgets, or too narrow a range of them, to fit anything meaningful."""


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log T, log value) pairs."""

    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class GeometryReport:
    """Empirical retraction-accuracy constants for one manifold.

    cbar_hat bounds d(x, retract(x,u))^2 / ||u||^2, cr_hat bounds
    ||log(x, retract(x,u)) - u|| / ||u||^2, gap_slope is the fitted log-log
    exponent of that numerator in the step scale t, and dist_sq_slope is the
    fitted exponent of d(x, retract(x, t u))^2 in t. Slopes are NaN when the
    underlying quantity sits at roundoff level (retraction equal to exp).
    """

    manifold: str
    cbar_hat: float
    cr_hat: float
    gap_slope: float
    dist_sq_slope: float
    samples: int


def _loglog_fit(ts: np.ndarray, vals: np.ndarray) -> SlopeFit:
    lx = np.log(ts)
    ly = np.log(vals)
    coeffs = np.polyfit(lx, ly, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, intercept, r2)


def fit_rate(pairs: list[tuple[float, float]]) -> SlopeFit:
    """Fit value ~ C * T^slope through (budget, value) pairs in log-log space.

    Requires at least four budgets spanning at least two decades; budgets and
    values must be positive.
    """
    table = _floats(pairs, "pairs", InvalidInput, ndim=2, inside=("positive", lambda v: v > 0))
    if table.shape[1] != 2:
        raise InvalidInput(f"pairs must be (budget, value) pairs, got rows of {table.shape[1]}")
    ts, vals = table.T.copy()
    if ts.size < 4:
        raise InsufficientData(f"need at least 4 budgets, got {ts.size}")
    with np.errstate(over="ignore"):  # an infinite ratio covers two decades too
        span = ts.max() / ts.min()
    if span < 100.0 * (1.0 - 1e-9):
        raise InsufficientData("budgets must cover at least two decades")
    return _loglog_fit(ts, vals)


def _move(manifold: Manifold, x: Point, u: Tangent, h: float) -> Point:
    step = u.scaled(h)
    return manifold.exp(x, step) if manifold.has_exp else manifold.retract(x, step)


def finite_diff_directional(problem: MinimaxProblem, x: Point, y: Point, u: Tangent, wrt: str) -> float:
    """Central difference, with step 1e-5, of the objective along a geodesic
    (or retraction) in the chosen variable; the reference for gradient checks."""
    if wrt == "x":
        f_plus = problem.value(_move(problem.mx, x, u, _FD_STEP), y)
        f_minus = problem.value(_move(problem.mx, x, u, -_FD_STEP), y)
    elif wrt == "y":
        f_plus = problem.value(x, _move(problem.my, y, u, _FD_STEP))
        f_minus = problem.value(x, _move(problem.my, y, u, -_FD_STEP))
    else:
        raise InvalidInput("wrt must be 'x' or 'y'")
    return (f_plus - f_minus) / (2.0 * _FD_STEP)


def estimate_retraction_constants(manifold: Manifold, trials: int, *, rng: np.random.Generator) -> GeometryReport:
    """Estimate the retraction-accuracy constants on random unit tangents.

    For each sample x and unit tangent u, and each of the 13 log-spaced
    scales t from 1e-4 to 1e-1, measure
    d(x, retract(x, t u))^2 against ||t u||^2 (whose ratio bounds cbar) and
    the gap ||log(x, retract(x, t u)) - t u|| against ||t u||^2 (bounding
    c_R). Gaps at the roundoff floor are treated as exact zero, which is what
    makes cr_hat vanish when the retraction is the exponential map itself.
    """
    if not manifold.has_exp:
        raise UnsupportedOperation("retraction constants need the log map for reference")
    _count(trials, "trials", 1, error=InvalidInput)
    _generator(rng, InvalidInput)
    cbar_hat = 0.0
    cr_hat = 0.0
    gap_sums = np.zeros_like(_SCALES)
    dist_sq_sums = np.zeros_like(_SCALES)
    for _ in range(trials):
        x = manifold.random_point(rng)
        u = manifold.random_tangent(x, rng, 1.0)
        for j, t in enumerate(_SCALES):
            step = u.scaled(t)
            z = manifold.retract(x, step)
            d = manifold.dist(x, z)
            w = manifold.log(x, z)
            gap = manifold.norm(Tangent(x, w.data - step.data))
            if gap <= GAP_FLOOR:
                gap = 0.0
            cbar_hat = max(cbar_hat, d * d / (t * t))
            cr_hat = max(cr_hat, gap / (t * t))
            gap_sums[j] += gap
            dist_sq_sums[j] += d * d

    mean_gaps = gap_sums / trials
    mean_dist_sq = dist_sq_sums / trials
    clean = mean_gaps > GAP_FLOOR
    if int(clean.sum()) >= 4:
        gap_slope = _loglog_fit(_SCALES[clean], mean_gaps[clean]).slope
    else:
        gap_slope = math.nan
    dist_sq_slope = _loglog_fit(_SCALES, mean_dist_sq).slope
    return GeometryReport(
        manifold=repr(manifold),
        cbar_hat=cbar_hat,
        cr_hat=cr_hat,
        gap_slope=gap_slope,
        dist_sq_slope=dist_sq_slope,
        samples=trials,
    )


def check_adaptive_sum_inequality(a, alpha: float) -> bool:
    """Check the adaptive stepsize sum inequality on a nonnegative sequence.

    For 0 < alpha < 1, with S_t the prefix sums and S the total:

        S^(1-alpha) <= sum_t a_t / S_t^alpha <= S^(1-alpha) / (1 - alpha)

    and at alpha = 1 the upper bound becomes 1 + log(S / a_1). The first
    entry must be positive and the total finite. Returns True when every
    applicable inequality holds up to a relative slack of 1e-12.
    """
    seq = _floats(a, "sequence", InvalidInput, ndim=1, inside=("nonnegative", lambda v: v >= 0))
    if seq[0] <= 0:
        raise InvalidInput("first entry must be positive")
    _real(alpha, "alpha must lie in (0, 1]", lambda v: 0 < v <= 1, InvalidInput)

    with np.errstate(over="ignore"):
        prefix = np.cumsum(seq)
    total = float(prefix[-1])
    if not math.isfinite(total):
        raise InvalidInput("the sum of the sequence must be finite")
    middle = float(np.sum(seq / prefix**alpha))
    if alpha == 1.0:
        upper = 1.0 + math.log(total / float(seq[0]))
        slack = 1e-12 * max(1.0, abs(middle), abs(upper))
        return middle <= upper + slack
    lower = total ** (1.0 - alpha)
    upper = lower / (1.0 - alpha)
    slack = 1e-12 * max(1.0, abs(middle), abs(lower), abs(upper))
    return lower - middle <= slack and middle - upper <= slack


def audit_transport_isometry(manifold: Manifold, trials: int, *, rng: np.random.Generator) -> float:
    """Worst relative defect of <Gu, Gv> against <u, v> over random transports.

    Raises UnsupportedOperation on a manifold without exp, which has no
    transport: Stiefel, alone or as a factor of a product.
    """
    if not manifold.has_exp:
        raise UnsupportedOperation(f"{manifold!r} has no transport to audit")
    _count(trials, "trials", 1, error=InvalidInput)
    _generator(rng, InvalidInput)
    worst = 0.0
    done = 0
    while done < trials:
        x = manifold.random_point(rng)
        y = manifold.random_point(rng)
        u = manifold.random_tangent(x, rng, 1.0)
        v = manifold.random_tangent(x, rng, 1.0)
        try:
            tu = manifold.transport(x, y, u)
            tv = manifold.transport(x, y, v)
        except AntipodalPoints:
            continue
        before = manifold.inner(u, v)
        after = manifold.inner(tu, tv)
        worst = max(worst, abs(after - before) / (1.0 + abs(before)))
        done += 1
    return worst
