"""Minimax problem definitions and their gradient oracles.

Both problems expose exact and stochastic first-order oracles over a product
of manifolds: the minimization variable lives on ``mx`` and the maximization
variable on ``my``. Stochastic oracles take an explicit index batch plus an
rng handle so the solver controls all randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import (
    Euclidean,
    Manifold,
    Point,
    SPD,
    Sphere,
    Tangent,
    UnsupportedOperation,
    _all_finite,
    _count,
    _floats,
    _generator,
    _real,
)

__all__ = [
    "ProblemError",
    "NumericalOverflow",
    "EmptyBatch",
    "Batch",
    "MinimaxProblem",
    "RobustMleProblem",
    "SyntheticQuadratic",
    "generate_gaussian_instance",
    "generate_multiscale_instance",
    "generate_quadratic_instance",
]


class ProblemError(Exception):
    """Base class for problem-layer failures."""


class NumericalOverflow(ProblemError):
    """An objective or oracle evaluation left the representable range."""


class EmptyBatch(ProblemError):
    """A stochastic oracle was called with no sample indices."""


@dataclass(frozen=True)
class Batch:
    """Sample indices for a stochastic oracle; duplicates are allowed."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        try:
            idx = np.atleast_1d(np.asarray(self.indices))
        except ValueError:  # ragged rows
            raise ProblemError("batch indices must be a 1-d integer array, got ragged rows") from None
        if idx.size == 0:
            raise EmptyBatch("batch must contain at least one index")
        if idx.ndim != 1 or idx.dtype.kind not in ("i", "u"):
            raise ProblemError(f"batch indices must be a 1-d integer array, got {idx.dtype} of shape {idx.shape}")
        idx = idx.astype(np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    @classmethod
    def full(cls, n: int) -> "Batch":
        return cls(np.arange(_count(n, "sample count", 1, error=EmptyBatch), dtype=np.int64))

    @classmethod
    def sample(cls, rng: np.random.Generator, n: int, size: int) -> "Batch":
        """Uniform i.i.d. draw with replacement from range(n)."""
        _count(n, "sample count", 1, error=EmptyBatch)
        _count(size, "batch size", 1, error=EmptyBatch)
        return cls(_generator(rng, ProblemError).integers(0, n, size=size, dtype=np.int64))


class MinimaxProblem:
    """min over x in mx, max over y in my, of a smooth objective.

    A concrete problem implements three kernels on flat float64 arrays:
    ``_value(x, y)``, and ``_grad_x`` and ``_grad_y`` at (x, y, idx=None,
    rng=None), the gradients as tangent arrays: exact when idx is None, else
    estimated from the samples in idx, with any noise drawn from rng. Kernels
    trust their arguments; the public oracles here check the points and the
    batch, and return validated Tangents.

    ``_value`` runs under its caller's errstate, as the gradient kernels do:
    the public ``value`` or a solver run.

    Kernels are row-wise: x and y are points (n,) or stacks of them (R, n),
    results stack the same way, idx is one batch or one per row (R, b), and
    ``rng.standard_normal(shape)`` draws row i of an (R, ...) result from row
    i's generator. Row i must have the same bits whatever the other rows are,
    which rules out one matrix product over all rows.
    """

    mx: Manifold
    my: Manifold
    sample_count: int = 1

    def value(self, x: Point, y: Point) -> float:
        x, y = self._arrays(x, y)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._value(x, y))

    def grad_x(self, x: Point, y: Point) -> Tangent:
        """Exact Riemannian gradient in the minimization variable."""
        return Tangent(x, self._grad_x(*self._arrays(x, y)))

    def grad_y(self, x: Point, y: Point) -> Tangent:
        """Exact Riemannian gradient in the maximization variable."""
        return Tangent(y, self._grad_y(*self._arrays(x, y)))

    def stoch_grad_x(self, x: Point, y: Point, batch: Batch, rng: np.random.Generator) -> Tangent:
        return Tangent(x, self._grad_x(*self._arrays(x, y), self._indices(batch), _generator(rng, ProblemError)))

    def stoch_grad_y(self, x: Point, y: Point, batch: Batch, rng: np.random.Generator) -> Tangent:
        return Tangent(y, self._grad_y(*self._arrays(x, y), self._indices(batch), _generator(rng, ProblemError)))

    def inner_max_oracle(self, x: Point) -> tuple[Point, float]:
        """Closed-form argmax over y and the resulting envelope value."""
        raise UnsupportedOperation(f"{type(self).__name__} has no closed-form inner max")

    def default_start(self, rng: np.random.Generator) -> tuple[Point, Point]:
        """Deterministic-in-rng initial iterates; subclasses pick natural ones."""
        return self.mx.random_point(rng), self.my.random_point(rng)

    def _arrays(self, x: Point, y: Point) -> tuple[np.ndarray, np.ndarray]:
        self.mx._require_point(x)
        self.my._require_point(y)
        return x.data, y.data

    def _indices(self, batch: Batch) -> np.ndarray:
        # A Batch is never empty; its indices must name samples.
        lo, hi = int(batch.indices.min()), int(batch.indices.max())
        if lo < 0 or hi >= self.sample_count:
            raise ProblemError(f"batch index out of range [0, {self.sample_count}): saw {lo}..{hi}")
        return batch.indices


class RobustMleProblem(MinimaxProblem):
    """Robust location estimation against a worst-case covariance.

    Data rows a_i in R^d are lifted to z_i = [a_i, 1]. The minimization
    variable x lives on the unit sphere in R^(d+1); the adversarial
    covariance Y on SPD(d+1). The objective is

        f(x, Y) = -(n/2) log det Y
                  - (1/2) sum_i (z_i - x)^T Y^-1 (z_i - x)
                  + c * dist(Y, I)^2

    with dist the affine-invariant SPD distance. Per-sample objectives keep
    the deterministic log-det and regularizer terms in full and scale the
    quadratic term of row i by n, which makes single-sample estimators
    exactly unbiased.
    """

    def __init__(self, data: np.ndarray, c: float) -> None:
        self.a = _floats(data, "data", ProblemError, ndim=2)
        self.c = float(_real(c, "c must be finite", math.isfinite, ProblemError))
        self.n, self.d = self.a.shape
        self.z = np.hstack([self.a, np.ones((self.n, 1))])
        self.z.setflags(write=False)
        # (key, rows) of the last x whose full-data rows were formed; replaced whole.
        self._rows_memo: tuple[tuple, np.ndarray] | None = None
        self.mx: Sphere = Sphere(self.d + 1)
        self.my: SPD = SPD(self.d + 1)
        self.sample_count = self.n

    # Given idx, the gradient kernels are the exact ones on the rows in idx,
    # with the quadratic term scaled by n / |idx|; they draw nothing from rng.

    def _quad_rows(self, x: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
        """z - x on the rows in idx; the full rows, read-only, are kept for the last x by shape and bytes."""
        if idx is not None:
            return self.z[idx] - x[..., None, :]
        key, memo = (x.shape, x.dtype, x.tobytes()), self._rows_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        self._rows_memo = None  # drop the old rows before the new ones exist
        W = self.z - x[..., None, :]
        W.setflags(write=False)
        self._rows_memo = (key, W)
        return W

    def _value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        f = self.my.point_factors(y)
        logs = np.log(f.w)
        logdet = np.add.reduce(logs, axis=-1)
        W = self._quad_rows(x, None)
        quad = np.add.reduce((W @ f.inv) * W, axis=(-2, -1))
        val = -0.5 * self.n * logdet - 0.5 * quad + self.c * np.vecdot(logs, logs)
        if not _all_finite(val):
            raise NumericalOverflow(f"objective overflowed (logdet={np.min(logdet):.6g})")
        return val

    def _grad_x(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray | None = None, rng=None) -> np.ndarray:
        g = np.matvec(self.my.point_factors(y).inv, np.add.reduce(self._quad_rows(x, idx), axis=-2))
        return self.mx._project(x, g if idx is None else (self.n / idx.shape[-1]) * g)

    def _grad_y(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray | None = None, rng=None) -> np.ndarray:
        # Riemannian gradient under the affine-invariant metric: sandwiching
        # the Euclidean partial by Y collapses to -(n/2) Y + (1/2) W^T W, and
        # the regularizer contributes 2c * Y logm(Y).
        f = self.my.point_factors(y)
        W = self._quad_rows(x, idx)
        quad = W.mT @ W if idx is None else (self.n / idx.shape[-1]) * (W.mT @ W)
        reg = (f.Q * (f.w * np.log(f.w))[..., None, :]) @ f.Q.mT
        M = -0.5 * self.n * self.my._mat(y) + 0.5 * quad + (2.0 * self.c) * reg
        return (0.5 * (M + M.mT)).reshape(y.shape)

    def default_start(self, rng: np.random.Generator) -> tuple[Point, Point]:
        """Random location on the sphere; the covariance starts at identity."""
        x0 = self.mx.random_point(rng)
        y0 = Point(self.my, np.eye(self.d + 1).reshape(-1))
        return x0, y0


class SyntheticQuadratic(MinimaxProblem):
    """f(x, y) = <Ax, y> - (mu/2) ||y||^2 + <b, x> on a sphere cross R^m.

    Strongly concave in y with the closed-form maximizer y*(x) = Ax / mu and
    envelope ||Ax||^2 / (2 mu) + <b, x>. The stochastic oracles add isotropic
    Gaussian noise of standard deviation sigma / sqrt(len(idx)) in the ambient
    space and project it to the tangent space, so they are unbiased by
    linearity of the projection. The problem has one sample, so a solver's
    batch covers it whatever its batch_size: the solver hands the oracles the
    one-entry full index, and a run's noise is sigma.
    """

    def __init__(self, matrix: np.ndarray, mu: float, offset: np.ndarray, noise_sigma: float = 0.1) -> None:
        self.a_mat = _floats(matrix, "matrix", ProblemError, ndim=2)
        self.b = _floats(offset, "offset", ProblemError, ndim=1)
        self.m, self.k = self.a_mat.shape
        if self.k < 2:  # the sphere of x lives in R^k
            raise ProblemError(f"k, the matrix's column count, must be >= 2, got {self.k}")
        if self.b.size != self.k:
            raise ProblemError("offset length must match the column count")
        _real(mu, "mu must be positive and finite", lambda v: 0 < v < math.inf, ProblemError)
        _real(noise_sigma, "noise sigma must be nonnegative and finite", lambda v: 0 <= v < math.inf, ProblemError)
        self._a_t = self.a_mat.T  # one view for every A^T y
        self.mu = float(mu)
        self.noise_sigma = float(noise_sigma)
        self.mx: Sphere = Sphere(self.k)
        self.my: Euclidean = Euclidean(self.m)

    def _value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Huge finite y can overflow y @ y where A^T y does not: under the caller's errstate, an inf.
        val = np.vecdot(y, np.matvec(self.a_mat, x)) - 0.5 * self.mu * np.vecdot(y, y)
        val = val + np.vecdot(self.b, x)
        if not _all_finite(val):
            raise NumericalOverflow("objective overflowed")
        return val

    # Exact when idx is None; given a batch, the noise goes in before the projection.

    def _grad_x(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray | None = None, rng=None) -> np.ndarray:
        return self.mx._project(x, self._noisy(np.matvec(self._a_t, y) + self.b, idx, rng))

    def _grad_y(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray | None = None, rng=None) -> np.ndarray:
        return self._noisy(np.matvec(self.a_mat, x) - self.mu * y, idx, rng)

    def _noisy(self, g: np.ndarray, idx: np.ndarray | None, rng: np.random.Generator | None) -> np.ndarray:
        """g, a fresh gradient array, with the batch's noise added in place."""
        if idx is not None and self.noise_sigma > 0.0:
            g += (self.noise_sigma / math.sqrt(idx.shape[-1])) * rng.standard_normal(g.shape)
        return g

    def inner_max_oracle(self, x: Point) -> tuple[Point, float]:
        self.mx._require_point(x)
        ax = self.a_mat @ x.data
        y_star = Point(self.my, ax / self.mu)
        phi = float(ax @ ax) / (2.0 * self.mu) + float(self.b @ x.data)
        return y_star, phi

    def default_start(self, rng: np.random.Generator) -> tuple[Point, Point]:
        """Random location on the sphere; the ascent variable starts at zero."""
        x0 = self.mx.random_point(rng)
        y0 = Point(self.my, np.zeros(self.m))
        return x0, y0


def _instance_rng(seed, **sizes) -> np.random.Generator:
    """The generator of an instance's data, once its sizes (integers >= 1) and seed (>= 0) pass."""
    for name, value in sizes.items():
        _count(value, name, 1, error=ProblemError)
    _count(seed, "seed", 0, error=ProblemError)
    return np.random.default_rng(seed)


def generate_gaussian_instance(d: int, n: int, c: float, seed: int) -> RobustMleProblem:
    """Robust MLE instance with rows a_i drawn i.i.d. standard normal."""
    rng = _instance_rng(seed, d=d, n=n)
    return RobustMleProblem(rng.standard_normal((n, d)), c)


def generate_quadratic_instance(k: int, m: int, mu: float, seed: int,
                                noise_sigma: float = 0.1) -> SyntheticQuadratic:
    """Synthetic quadratic with a standard normal coupling matrix and offset."""
    rng = _instance_rng(seed, k=k, m=m)
    return SyntheticQuadratic(rng.standard_normal((m, k)), mu, rng.standard_normal(k), noise_sigma)


def generate_multiscale_instance(k: int, m: int, seed: int) -> SyntheticQuadratic:
    """Noiseless synthetic quadratic whose coupling spectrum decays over five decades.

    The squared singular values of the coupling matrix are log-spaced in
    [1e-5, 1] and the linear offset is zero, so the envelope objective
    has near-degenerate directions at every scale in that window. Gradient
    norms then decay like a power of the iteration count for thousands of
    steps instead of collapsing geometrically, which is what a rate fit
    over a budget ladder needs. Randomness only rotates the singular bases.
    """
    rng = _instance_rng(seed, k=k, m=m)
    p = min(k, m)
    left, _ = np.linalg.qr(rng.standard_normal((m, m)))
    right, _ = np.linalg.qr(rng.standard_normal((k, k)))
    singulars = np.sqrt(10.0 ** np.linspace(0.0, -5.0, p))
    coupling = left[:, :p] @ (singulars[:, None] * right[:, :p].T)
    return SyntheticQuadratic(coupling, 1.0, np.zeros(k), 0.0)

