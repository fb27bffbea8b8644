"""Geometry kernels for the manifolds used by the minimax solvers.

Points and tangents are immutable wrappers around flat float64 arrays. Each
manifold implements its metric, retraction, exponential and logarithm maps,
transport, distance and sampling as kernels on those arrays, and ``Manifold``
writes every public map once on top of them. All operations are pure: they
never mutate their inputs and return fresh values.

The Point and Tangent constructors validate shape, finiteness and the manifold
invariants of the arrays they are given. Retraction and exp results and scaled
tangents, derived from validated values, are checked for finiteness only, by
``_frozen``, and wrapped by ``_trusted``.

The kernels a solver step calls (``_retract``, ``_exp``, ``_inner_data``,
``Sphere._project``, ``_validate_tangent``, ``_move``) take one flat array
(n,) or a stack of them (R, n), and give each row the same bits whatever R is.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

# Thresholds of the invariant checks and of the geometric edge cases.
#
# Absolute elementwise tolerance when two tangents must share a base point, and
# when an operation checks that a tangent is rooted at the point it was handed.
_BASE_MATCH = 1e-12
# Tolerance on | ||x|| - 1 | for sphere membership.
_SPHERE_POINT_REL = 1e-10
# |<x, u>| <= _SPHERE_TANGENT_REL * ||u|| for sphere tangency.
_SPHERE_TANGENT_REL = 1e-10
# Frobenius tolerances on ||X^T X - I|| (Stiefel points) and on
# ||X^T U + U^T X|| (Stiefel tangents).
_STIEFEL_ORTH = 1e-10
_STIEFEL_TANGENT = 1e-10
# Entrywise symmetry tolerance for SPD points and tangents, scaled by
# max(1, max|entry|).
_SPD_SYMMETRY = 1e-12
# Below this norm the sphere retraction input x + u (or a QR pivot) counts as
# collapsed and raises DegenerateRetraction.
_DEGENERATE_NORM = 1e-14
# The sphere log raises AntipodalPoints when <x,y> <= -1 + _ANTIPODAL_MARGIN.
_ANTIPODAL_MARGIN = 1e-10
# SPD matrix functions clamp eigenvalues below _EIG_FLOOR_REL * lambda_max
# before inverting or taking logs.
_EIG_FLOOR_REL = 1e-14
# SPD exp sums the Taylor series of expm(S) when ||S||_1 <= _TAYLOR_THETA. The
# degree of a row is the least m whose reach covers its ||S||_1: the reach of
# degree m is the theta at which theta^(m+1)/(m+1)! = 2^-53, which bounds the
# truncation error. Degree 14 reaches past 1/2.
_TAYLOR_THETA = 0.5
_TAYLOR_REACH = tuple((2.0**-53 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, 15))
# Paterson-Stockmeyer coefficients of degree m >= 2: row j holds 1 / (js + i)! for i < s = ceil(sqrt(m)), 0 past m.
_TAYLOR_COEF = {m: np.reshape([1.0 / math.factorial(i) if i <= m else 0.0 for i in range((m // s + 1) * s)], (-1, s))
                for m, s in ((m, math.ceil(math.sqrt(m))) for m in range(2, 15))}

__all__ = [
    "GeometryError",
    "InvalidGeometry",
    "BaseMismatch",
    "DegenerateRetraction",
    "AntipodalPoints",
    "UnsupportedOperation",
    "ClampCounter",
    "Point",
    "Tangent",
    "Manifold",
    "Euclidean",
    "Sphere",
    "Stiefel",
    "SPD",
    "SPDFactors",
    "ProductManifold",
    "manifold_to_header",
    "serialize_point",
]


class GeometryError(Exception):
    """Base class for geometry-layer failures."""


class InvalidGeometry(GeometryError):
    """Array data violates a point or tangent invariant."""


class BaseMismatch(GeometryError):
    """Tangents rooted at different base points were combined."""


class DegenerateRetraction(GeometryError):
    """Retraction input collapsed (zero sum on the sphere, rank-deficient QR)."""


class AntipodalPoints(GeometryError):
    """Sphere logarithm and transport are undefined between antipodal points."""


class UnsupportedOperation(GeometryError):
    """The manifold does not provide this map (e.g. Stiefel exp/log)."""


@dataclass
class ClampCounter:
    """Counts eigenvalue clamp events inside SPD matrix functions.

    There is no global counter: a call site that wants visibility attaches its
    own instance to the SPD manifold it constructs.
    """

    events: int = 0

    def bump(self, k: int = 1) -> None:
        self.events += k


@dataclass(frozen=True, eq=False)
class Point:
    """A point on ``manifold``, stored as a read-only flat float64 array."""

    manifold: "Manifold"
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _floats(self.data, f"{self.manifold.kind} point").reshape(-1)
        object.__setattr__(self, "data", arr)
        self.manifold.check_point(arr)

    def __repr__(self) -> str:
        return f"Point({self.manifold!r}, n={self.data.size})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at ``base``, in the same flat storage as points."""

    base: Point
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _floats(self.data, f"{self.manifold.kind} tangent").reshape(-1)
        object.__setattr__(self, "data", arr)
        self.base.manifold.check_tangent(self.base.data, arr)

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def scaled(self, s: float) -> "Tangent":
        s = float(_real(s, "scale factor must be finite", math.isfinite))
        with np.errstate(over="ignore"):
            data = s * self.data
        return _trusted(Tangent, self.base, _frozen(data, "tangent", self.base))

    def __repr__(self) -> str:
        return f"Tangent(base={self.base!r})"


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero skips the Python layer of ndarray.all, which costs as much
    # as the test itself on the small arrays of a solver step.
    return np.count_nonzero(np.isfinite(a)) == a.size


def _frozen(data: np.ndarray, what: str, owner) -> np.ndarray:
    """Derived data, whose membership holds by construction, checked for
    finiteness only and frozen in place: pass fresh float64 arrays or read-only views."""
    if not _all_finite(data):
        raise InvalidGeometry(f"{what} on {owner!r} contains non-finite entries")
    data.setflags(write=False)
    return data


def _trusted(cls: type, owner, arr: np.ndarray):
    """A Point (owner: manifold) or Tangent (owner: base) around a checked array
    (``_frozen``, or the data of a validated value), frozen in place, unvalidated."""
    arr.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "manifold" if cls is Point else "base", owner)
    object.__setattr__(obj, "data", arr)
    return obj


def _still_rows_kept(kernel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``kernel(x, u)``, keeping x on every row where u is zero, and x itself
    when all of u is zero."""
    moving = u.any(axis=-1)
    if np.count_nonzero(moving) == moving.size:
        return kernel(x, u)
    if not moving.any():
        return x
    return np.where(moving[..., None], kernel(x, u), x)


def _shown(value) -> str:
    """``repr(value)`` for a message, or <int too long to show> past ``sys.get_int_max_str_digits()``."""
    try:
        return repr(value)
    except ValueError:  # also a Fraction of such an int
        return f"<{type(value).__name__} too long to show>"


def _count(value, what: str, low=-math.inf, high=math.inf, error: type = InvalidGeometry) -> int:
    """A count: an int or numpy integer, not a bool, in [low, high], as an int.
    This and ``_real`` are the package's one rule for scalar arguments; each
    raises the caller's own error class, where the value enters."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {_shown(value)}")
    if value < low:
        raise error(f"{what} must be >= {low}, got {_shown(int(value))}")
    if value > high:
        raise error(f"{what} must be <= {high}, got {_shown(int(value))}")
    return int(value)


def _real(value, what: str, inside=None, error: type = InvalidGeometry):
    """A real number, not a bool, whose float ``inside`` accepts (any, when it
    is None): write the interval as a chained comparison, which NaN fails.
    ``what`` is the rule the message states; the value is returned as given."""
    try:
        ok = isinstance(value, Real) and not isinstance(value, bool) and (inside is None or inside(float(value)))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise error(f"{what}, got {_shown(value)}")
    return value


def _generator(value, error: type = InvalidGeometry) -> np.random.Generator:
    """The rule for generator arguments, beside ``_count``, ``_real`` and ``_floats``: a
    ``np.random.Generator``, checked before any draw; not None, a seed or a legacy ``RandomState``."""
    if not isinstance(value, np.random.Generator):
        raise error(f"rng must be a numpy.random.Generator, got {type(value).__name__}")
    return value


def _floats(value, what: str, error: type = InvalidGeometry, ndim: int | None = None, inside=None) -> np.ndarray:
    """The one rule for array arguments, beside ``_count`` and ``_real``: a fresh read-only float64 array of
    integers or floats (not bools, text, complex numbers or ragged rows), all finite; with ``ndim``, of that many
    dimensions and at least one entry; with ``inside`` = (rule, test), every entry passes the elementwise test."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged rows
        arr = None
    if arr is None or arr.dtype.kind not in ("i", "u", "f"):
        raise error(f"{what} must be a rectangular array of integers or floats")
    arr = np.array(arr, dtype=np.float64)
    if ndim is not None and (arr.ndim != ndim or arr.size == 0):
        rule = f"{ndim}-d" if arr.ndim != ndim else f"a nonempty {ndim}-d array"
        raise error(f"{what} must be {rule}, got shape {arr.shape}")
    if not _all_finite(arr):
        raise error(f"{what} contains non-finite entries")
    if inside is not None and np.count_nonzero(inside[1](arr)) != arr.size:
        raise error(f"{what} entries must be {inside[0]}")
    arr.setflags(write=False)
    return arr


class Manifold:
    """Base class owning validation and every public map.

    A concrete manifold implements array kernels on flat float64 arrays:
    ``_check_point`` and ``_check_tangent`` (where it has invariants),
    ``_exp``, ``_log`` and ``_transport`` (unless it has no exp),
    ``_random_point`` and ``_random_tangent_data``, plus ``_retract``,
    ``_dist`` and ``_inner_data`` where the defaults here (the exponential
    map, the ambient distance, the ambient metric) do not fit. Kernels trust
    their arguments and raise only for their own degenerate cases. The public
    maps check the relations between their arguments once, here, and then
    wrap the kernel's array: retract and exp results through ``_move``, which
    the solver loop also calls on bare arrays, log and transport results as
    validated Tangents, random_point results as validated Points. The
    sphere's tangent projection, ``Sphere._project``, is a helper of the
    problems' gradient kernels, not a kernel of this contract.
    """

    kind: str = "abstract"

    # -- identity ---------------------------------------------------------

    def __init__(self, ambient_size: int, *identity) -> None:
        """Each concrete constructor calls this once, with the size of its flat
        arrays and its identity: the dimensions its header writes, then the
        sphere's radius or the product's factor identities."""
        self.ambient_size = ambient_size
        self._key = (self.kind, *identity)

    def spec_key(self) -> tuple:
        """Geometry identity: kind plus dimensions."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Manifold) and self.spec_key() == other.spec_key()

    def __hash__(self) -> int:
        return hash(self.spec_key())

    def __repr__(self) -> str:
        kind, *dims = self.spec_key()
        return f"{type(self).__name__}({', '.join(str(d) for d in dims)})"

    # -- validation -------------------------------------------------------

    # The invariant checks run under an errstate: a huge finite array can
    # overflow inside them, and then fails the check instead of warning.
    def check_point(self, data: np.ndarray) -> None:
        self._check_array(data, "point")
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_point(data)

    def check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        """Tangent data at base; a stack of rows is checked row by row."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._validate_tangent(base, data)

    def _validate_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        """``check_tangent`` without its errstate, for a caller that holds one: the solver run."""
        self._check_array(data, "tangent", base.shape)
        self._check_tangent(base, data)

    def _check_point(self, data: np.ndarray) -> None:
        """Invariants of a point beyond its shape and finiteness; none here."""

    def _check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        """Invariants of tangent data at base beyond its shape and finiteness; none here."""

    def _check_array(self, data: np.ndarray, what: str, shape: tuple | None = None) -> None:
        if data.shape != (shape or (self.ambient_size,)):
            raise InvalidGeometry(f"{self.kind} {what} needs {self.ambient_size} entries, got {data.shape}")
        if not _all_finite(data):
            raise InvalidGeometry(f"{self.kind} {what} contains non-finite entries")

    def _require_point(self, *points: Point) -> None:
        for x in points:
            if x.manifold.spec_key() != self.spec_key():
                raise InvalidGeometry(f"point lives on {x.manifold!r}, expected {self!r}")

    def _require_rooted(self, x: Point, u: Tangent) -> None:
        self._require_point(x, u.base)
        if np.max(np.abs(u.base.data - x.data), initial=0.0) > _BASE_MATCH:
            raise BaseMismatch("tangent is rooted at a different point")

    def _require_exp(self) -> None:
        if not self.has_exp:
            raise UnsupportedOperation(f"{self!r} provides no exponential map, logarithm or transport")

    # -- metric -----------------------------------------------------------

    def inner(self, u: Tangent, v: Tangent) -> float:
        """Riemannian inner product of two tangents at the same base, under
        the errstate of a solver run: a non-finite value, as where the
        eigenvalue products of an SPD metric underflow to 0, raises
        InvalidGeometry instead of a warning."""
        self._require_rooted(u.base, v)
        return self._scoped(self._inner_data, u.base.data, u.data, v.data, scalar="metric")

    def _scoped(self, kernel, *arrays: np.ndarray, scalar: str | None = None):
        """``kernel(*arrays)`` under a run's errstate; ``scalar`` names a float result that must be finite."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = kernel(*arrays) if scalar is None else float(kernel(*arrays))
        if scalar is not None and not math.isfinite(value):
            raise InvalidGeometry(f"{scalar} on {self!r} is not finite")
        return value

    def norm(self, u: Tangent) -> float:
        return math.sqrt(self.inner(u, u))

    def _inner_data(self, base: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Ambient (Frobenius) metric; SPD overrides with the affine-invariant one.
        return np.vecdot(u, v)

    # -- maps ---------------------------------------------------------------

    # Whether exp/log (and hence exact geodesics) are available.
    has_exp = True

    def retract(self, x: Point, u: Tangent) -> Point:
        return self._moved(self._retract, x, u)

    def exp(self, x: Point, u: Tangent) -> Point:
        self._require_exp()
        return self._moved(self._exp, x, u)

    def _moved(self, kernel, x: Point, u: Tangent) -> Point:
        self._require_rooted(x, u)
        with np.errstate(over="ignore", invalid="ignore"):
            z = self._move(kernel, x.data, u.data)
        return x if z is x.data else _trusted(Point, self, z)

    def _move(self, kernel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Retract and exp on arrays: x itself for a zero u, else ``kernel(x, u)``
        with the rows of x kept where u is zero. Run under an errstate that
        ignores overflow and invalid results, an overflow gives a GeometryError
        from the kernel's own guard or from ``_frozen``, not a warning."""
        # No zero entry at all (the rule for noisy gradients) is the cheap test.
        z = kernel(x, u) if np.count_nonzero(u) == u.size else _still_rows_kept(kernel, x, u)
        return x if z is x else _frozen(z, "point", self)

    def log(self, x: Point, y: Point) -> Tangent:
        self._require_exp()
        self._require_point(x, y)
        return Tangent(x, self._scoped(self._log, x.data, y.data))

    def transport(self, src: Point, dst: Point, u: Tangent) -> Tangent:
        self._require_exp()
        self._require_rooted(src, u)
        self._require_point(dst)
        return Tangent(dst, self._scoped(self._transport, src.data, dst.data, u.data))

    def dist(self, x: Point, y: Point) -> float:
        self._require_point(x, y)
        return self._scoped(self._dist, x.data, y.data, scalar="distance")

    def zero_tangent(self, x: Point) -> Tangent:
        self._require_point(x)
        return Tangent(x, np.zeros(self.ambient_size))

    def _retract(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._exp(x, u)

    def _dist(self, x: np.ndarray, y: np.ndarray) -> float:
        # Frobenius distance between representatives: the metric distance on
        # Euclidean space, and reporting only on Stiefel.
        return float(np.linalg.norm(y - x))

    # -- sampling -----------------------------------------------------------

    def random_point(self, rng: np.random.Generator) -> Point:
        return Point(self, self._random_point(_generator(rng)))

    def random_tangent(self, x: Point, rng: np.random.Generator, norm: float = 1.0) -> Tangent:
        """A tangent at x with the requested Riemannian norm."""
        _real(norm, "tangent norm must lie in [0, inf)", lambda v: 0 <= v < math.inf)
        _generator(rng)
        self._require_point(x)
        if norm == 0.0:
            return self.zero_tangent(x)
        for _ in range(64):
            raw = self._random_tangent_data(x.data, rng)
            scale = math.sqrt(self._scoped(self._inner_data, x.data, raw, raw, scalar="metric"))
            if scale > 1e-12:
                return Tangent(x, (norm / scale) * raw)
        raise InvalidGeometry("failed to draw a nonzero tangent")


class Euclidean(Manifold):
    """Flat R^m with the usual inner product."""

    kind = "euclidean"

    def __init__(self, dim: int) -> None:
        self.dim = _count(dim, "Euclidean dimension", 1)
        super().__init__(self.dim, self.dim)

    def _exp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return x + u

    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - x

    def _transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        return u

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def _random_tangent_data(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)


class Sphere(Manifold):
    """The unit sphere in R^d with the induced (ambient) metric."""

    kind = "sphere"

    def __init__(self, dim: int) -> None:
        self.dim = _count(dim, "sphere ambient dimension", 2)
        # The radius stays in the identity, for the repr and the .point header.
        super().__init__(self.dim, self.dim, 1.0)

    def _check_point(self, data: np.ndarray) -> None:
        if abs(np.linalg.norm(data) - 1.0) > _SPHERE_POINT_REL:
            raise InvalidGeometry(f"point norm {np.linalg.norm(data):.17g} != radius 1.0")

    def _check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        # Relative bound plus an absolute floor: the radial residue left by
        # roundoff is proportional to the base scale, not the tangent scale,
        # so near-zero tangents would otherwise fail a purely relative test.
        for sq, dot in zip(np.vecdot(data, data).ravel().tolist(), np.vecdot(base, data).ravel().tolist()):
            bound = _SPHERE_TANGENT_REL * math.sqrt(sq) + _DEGENERATE_NORM
            if not abs(dot) <= bound:
                raise InvalidGeometry("tangent is not orthogonal to the sphere point")

    def _retract(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Metric rescaling: (x + u) / ||x + u||."""
        s = x + u
        ns = np.sqrt(np.vecdot(s, s, keepdims=True))
        # An overflowed norm would scale x + u to the zero vector.
        for v in ns.ravel().tolist():
            if not _DEGENERATE_NORM <= v < np.inf:
                raise DegenerateRetraction(f"||x + u|| = {v:.3g}: collapsed to the origin or overflowed")
        # The reciprocal form, not s / ns, which rounds differently and would change every run's output.
        return (1.0 / ns) * s

    def _exp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        nu = np.sqrt(np.vecdot(u, u, keepdims=True))
        z = np.cos(nu) * x + (np.sin(nu) / nu) * u
        # A nonzero u whose squared entries all underflow has norm 0.
        return np.where(nu == 0.0, x, z)

    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = float(np.dot(x, y))
        if c <= -1.0 + _ANTIPODAL_MARGIN:
            raise AntipodalPoints("logarithm is undefined for antipodal points")
        theta = float(np.arccos(np.clip(c, -1.0, 1.0)))
        perp = y - c * x
        np_norm = float(np.linalg.norm(perp))
        if np_norm == 0.0:
            return np.zeros(self.dim)
        return (theta / np_norm) * perp

    def _transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Parallel transport along the minimizing geodesic from x to y.

        Rotates the component of u in the x-direction plane and leaves the
        orthogonal complement untouched; an isometry of the round metric.
        """
        if np.array_equal(x, y):
            return u
        v = self._log(x, y)
        d = float(np.linalg.norm(v))
        if d == 0.0:
            return u
        e = v / d
        along = float(np.dot(u, e))
        rotated = np.cos(d) * e - np.sin(d) * x
        return u + along * (rotated - e)

    def _dist(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.arccos(np.clip(float(np.dot(x, y)), -1.0, 1.0)))

    def _project(self, x: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        """The tangent part of an ambient gradient, which the problems' gradient kernels take."""
        out = ambient - np.vecdot(x, ambient, keepdims=True) * x
        # Second pass scrubs the residual normal component left by cancellation
        # when the input is nearly parallel to x.
        out -= np.vecdot(x, out, keepdims=True) * x
        return out

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        for _ in range(64):
            v = rng.standard_normal(self.dim)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                return (1.0 / n) * v  # not v / n, which rounds differently and would change every run's start
        raise InvalidGeometry("failed to draw a sphere point")

    def _random_tangent_data(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(self.dim)
        v -= float(np.dot(base, v)) * base
        return v


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.mT)


def _taylor_expm(S: np.ndarray, m: int, eye: np.ndarray) -> np.ndarray:
    """sum_{k<=m} S^k / k! for a stack of matrices of the identity's order, by Paterson-Stockmeyer.

    With s = ceil(sqrt(m)) it forms I, S, .., S^(s-1) and S^s, the blocks
    B_j = sum_{i<s} S^i / (js + i)! as one small product, and runs Horner's
    rule in S^s over them: s - 1 + m // s matrix products, none at degree 1.
    Each matrix of the stack takes its own products, so it gets the bits it
    gets alone."""
    R, k = S.shape[0], S.shape[-1]
    if m == 1:
        return S + eye
    coef = _TAYLOR_COEF[m]
    s = coef.shape[1]
    powers = np.empty((R, s, k, k))
    powers[:, 0] = eye
    powers[:, 1] = S
    for i in range(2, s):
        np.matmul(powers[:, i - 1], S, out=powers[:, i])
    top = powers[:, -1] @ S
    blocks = (coef @ powers.reshape(R, s, k * k)).reshape(R, -1, k, k)
    E = blocks[:, -1]
    for j in range(blocks.shape[1] - 2, -1, -1):
        E = E @ top + blocks[:, j]
    return E


def _eigh_expm(S: np.ndarray) -> np.ndarray:
    """expm of a stack of symmetric matrices from their eigendecompositions.
    Under the errstate of ``Manifold._moved`` or of a solver run, which
    ignores overflow, an overflow or an underflow to a singular matrix raises
    DegenerateRetraction instead of a warning."""
    ws, Qs = np.linalg.eigh(S)
    if not _all_finite(ws):
        raise InvalidGeometry("exp map inner matrix is not finite")
    ew = np.exp(ws)
    if not _all_finite(ew[..., -1]):
        raise DegenerateRetraction("exp map overflowed")
    if np.count_nonzero(ew[..., 0]) < ew[..., 0].size:
        raise DegenerateRetraction("exp map underflowed to a singular matrix")
    return (Qs * ew[..., None, :]) @ Qs.mT


class Stiefel(Manifold):
    """Matrices with orthonormal columns, embedded metric, QR retraction.

    The exponential and logarithm maps and transport are deliberately absent.
    """

    kind = "stiefel"
    has_exp = False

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = _count(rows, "Stiefel rows", 1)
        self.cols = _count(cols, "Stiefel columns", 1)
        if self.cols > self.rows:
            raise InvalidGeometry("Stiefel needs rows >= cols >= 1")
        super().__init__(self.rows * self.cols, self.rows, self.cols)

    def _mat(self, data: np.ndarray) -> np.ndarray:
        return data.reshape(*data.shape[:-1], self.rows, self.cols)

    def _check_point(self, data: np.ndarray) -> None:
        X = self._mat(data)
        gram_err = np.linalg.norm(X.T @ X - np.eye(self.cols))
        if not gram_err <= _STIEFEL_ORTH:
            raise InvalidGeometry(f"columns not orthonormal (||X^T X - I|| = {gram_err:.3e})")

    def _check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        X = self._mat(base)
        U = self._mat(data)
        skew = (X.mT @ U + U.mT @ X).reshape(*data.shape[:-1], -1)
        skew_err = np.sqrt(np.vecdot(skew, skew))  # the bits of np.linalg.norm
        if not np.all(skew_err <= _STIEFEL_TANGENT):
            raise InvalidGeometry(f"X^T U not skew (||X^T U + U^T X|| = {np.max(skew_err):.3e})")

    def _retract(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """QR retraction with the R diagonal forced positive."""
        Q, R = np.linalg.qr(self._mat(x) + self._mat(u))
        diag = np.diagonal(R, axis1=-2, axis2=-1)
        floor = _DEGENERATE_NORM * np.fmax(1.0, np.abs(diag).max(axis=-1, keepdims=True))
        if np.any(np.abs(diag) < floor):
            raise DegenerateRetraction("x + u is numerically rank deficient")
        return (Q * np.sign(diag)[..., None, :]).reshape(x.shape)

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        Q, R = np.linalg.qr(rng.standard_normal((self.rows, self.cols)))
        return (Q * np.sign(np.diag(R))).reshape(-1)

    def _random_tangent_data(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        X = self._mat(base)
        A = rng.standard_normal((self.rows, self.cols))
        U = A - X @ _sym(X.T @ A)
        return U.reshape(-1)


class SPDFactors(NamedTuple):
    """The factors of SPD points X = Q diag(w) Q^T, one or a stack, that ``SPD.point_factors`` serves."""

    w: np.ndarray  # the clamped eigenvalues
    Q: np.ndarray
    rt: np.ndarray  # Q diag(sqrt w), with X^1/2 = rt Q^T
    irt: np.ndarray  # Q diag(1 / sqrt w), with X^-1/2 = irt Q^T
    inv: np.ndarray  # X^-1 = Q diag(1 / w) Q^T
    ww: np.ndarray  # w w^T


class SPD(Manifold):
    """Symmetric positive definite matrices with the affine-invariant metric.

    <U, V>_X = trace(X^-1 U X^-1 V). The exponential map doubles as the
    retraction. Matrix functions go through symmetric eigendecompositions with
    eigenvalues clamped below at _EIG_FLOOR_REL * lambda_max; clamp events bump
    the attached ClampCounter when one is present. The one exception is expm
    of a whitened step S with ||S||_1 <= 1/2 inside ``exp``: its Taylor series
    is exact to roundoff there and costs a few matrix products, not an
    eigendecomposition.

    ``point_factors`` keeps the ``SPDFactors`` of the last point array or stack it
    decomposed, each derived once, and serves them, read-only, to any array of the
    same shape and bytes: a solver step decomposes its SPD iterate once for the
    metric, the maps and the problem oracles. Clamp events count once per decomposition.
    """

    kind = "spd"

    def __init__(self, order: int, *, clamp_counter: ClampCounter | None = None) -> None:
        self.order = _count(order, "SPD order", 1)
        self.clamp_counter = clamp_counter
        # (key, factors) of the last array decomposed; replaced whole, so a reader sees one consistent entry.
        self._memo: tuple[tuple, SPDFactors] | None = None
        self._eye = np.eye(self.order)
        self._eye.setflags(write=False)
        super().__init__(self.order * self.order, self.order)

    def _mat(self, data: np.ndarray) -> np.ndarray:
        return data.reshape(*data.shape[:-1], self.order, self.order)

    def _check_sym(self, M: np.ndarray, what: str) -> None:
        if not np.count_nonzero(M != M.mT):  # exactly symmetric, as every derived tangent is
            return
        scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1), initial=0.0))
        if np.count_nonzero(np.abs(M - M.mT).max(axis=(-2, -1), initial=0.0) > _SPD_SYMMETRY * scale):
            raise InvalidGeometry(f"{what} is not symmetric")

    def _check_point(self, data: np.ndarray) -> None:
        M = self._mat(data)
        self._check_sym(M, "SPD point")
        w = np.linalg.eigvalsh(_sym(M))
        if w[0] <= 0.0:
            raise InvalidGeometry(f"matrix is not positive definite (min eig {w[0]:.3e})")

    def _check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        self._check_sym(self._mat(data), "SPD tangent")

    def spectrum(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of a symmetric matrix, or of each in a stack, with the clamp policy."""
        w, Q = np.linalg.eigh(_sym(M))
        if not _all_finite(w):
            raise InvalidGeometry("eigendecomposition produced non-finite values")
        floor = _EIG_FLOOR_REL * w[..., -1:]
        low = (w < floor) & (floor > 0.0)
        clamped = np.count_nonzero(low)
        if clamped:
            if self.clamp_counter is not None:
                self.clamp_counter.bump(clamped)
            w = np.where(low, floor, w)
        return w, Q

    def point_factors(self, data: np.ndarray) -> SPDFactors:
        """The factors of ``spectrum`` of a flat point array or of a stack of them, memoised on its contents."""
        key, memo = (data.shape, data.dtype, data.tobytes()), self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        w, Q = self.spectrum(self._mat(data))
        root = np.sqrt(w)[..., None, :]
        f = SPDFactors(w, Q, Q * root, Q / root, (Q / w[..., None, :]) @ Q.mT, w[..., :, None] * w[..., None, :])
        for a in f:
            a.setflags(write=False)
        self._memo = (key, f)
        return f

    def _inner_data(self, base: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        f = self.point_factors(base)
        U = f.Q.mT @ self._mat(u) @ f.Q
        V = U if v is u else f.Q.mT @ self._mat(v) @ f.Q
        return np.add.reduce(U * V / f.ww, axis=(-2, -1))

    def _whitened(self, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rt, irt, S) with X^1/2 = rt @ Q.T, X^-1/2 = irt @ Q.T, S = X^-1/2 M X^-1/2."""
        f = self.point_factors(x)
        return f.rt, f.irt, _sym(f.irt.mT @ self._mat(m) @ f.irt)

    def _exp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """X^1/2 expm(S) X^1/2 with S = X^-1/2 U X^-1/2.

        A row with ||S||_1 <= 1/2 sums the Taylor series of expm(S) to the
        least degree whose truncation error is below 2^-53; the spectrum of
        such an S lies in [-1/2, 1/2], so it can neither overflow nor
        underflow. Other rows take expm(S) from the eigendecomposition of S.
        Each row picks its path and degree from its own S, so its bits do not
        depend on the stack."""
        rt, _, S = self._whitened(x, u)
        k = self.order
        rt, S = rt.reshape(-1, k, k), S.reshape(-1, k, k)
        # The Taylor degree of each row, or 0 for the eigendecomposition; a
        # NaN norm fails the test and meets the eigendecomposition's check.
        degrees = [bisect.bisect_left(_TAYLOR_REACH, theta) + 1 if theta <= _TAYLOR_THETA else 0
                   for theta in np.abs(S).sum(axis=-2).max(axis=-1).tolist()]
        if degrees.count(degrees[0]) == len(degrees):  # one path for every row: no gather or scatter
            E = _taylor_expm(S, degrees[0], self._eye) if degrees[0] else _eigh_expm(S)
        else:
            E = np.empty_like(S)
            for m in set(degrees):
                rows = [r for r, d in enumerate(degrees) if d == m]
                E[rows] = _taylor_expm(S[rows], m, self._eye) if m else _eigh_expm(S[rows])
        return _sym(rt @ E @ rt.mT).reshape(x.shape)

    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """X^1/2 logm(X^-1/2 Y X^-1/2) X^1/2."""
        rt, _, S = self._whitened(x, y)
        ws, Qs = self.spectrum(S)
        L = (Qs * np.log(ws)) @ Qs.T
        return _sym(rt @ L @ rt.T).reshape(-1)

    def _transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Parallel transport E U E^T with E = (Y X^-1)^1/2; an exact isometry."""
        if np.array_equal(x, y):
            return u
        rt, irt, S = self._whitened(x, y)
        ws, Qs = self.spectrum(S)
        halfS = (Qs * np.sqrt(ws)) @ Qs.T
        E = rt @ halfS @ irt.T
        return _sym(E @ self._mat(u) @ E.T).reshape(-1)

    def _dist(self, x: np.ndarray, y: np.ndarray) -> float:
        """Affine-invariant distance ||logm(X^-1/2 Y X^-1/2)||_F."""
        ws, _ = self.spectrum(self._whitened(x, y)[2])
        return float(np.linalg.norm(np.log(ws)))

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        A = rng.standard_normal((self.order, self.order))
        w, Q = np.linalg.eigh(_sym(A) / np.sqrt(self.order))
        return _sym((Q * np.exp(w)) @ Q.T).reshape(-1)

    def _random_tangent_data(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return _sym(rng.standard_normal((self.order, self.order))).reshape(-1)


class ProductManifold(Manifold):
    """Cartesian product with the sum metric; storage is the concatenation.

    Kernels run the factor kernels on slices. A factor whose slice of a retract
    or exp tangent is zero keeps its slice of the point, as its own maps do.
    """

    kind = "product"

    def __init__(self, factors: tuple[Manifold, ...] | list[Manifold]) -> None:
        self.factors = tuple(factors)
        if not self.factors or not all(isinstance(f, Manifold) for f in self.factors):
            raise InvalidGeometry(f"product needs one or more Manifold factors, got {factors!r}")
        self.has_exp = all(f.has_exp for f in self.factors)
        sizes = [f.ambient_size for f in self.factors]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        super().__init__(int(self._offsets[-1]), *(f.spec_key() for f in self.factors))

    def _split(self, *arrays: np.ndarray):
        """Per factor: the factor, then its slice of each array."""
        off = self._offsets
        return zip(self.factors, *([a[..., off[i]:off[i + 1]] for i in range(len(self.factors))] for a in arrays))

    # The whole array has passed the shape and finiteness checks, so each
    # factor checks only its own invariants on its slice.
    def _check_point(self, data: np.ndarray) -> None:
        for f, part in self._split(data):
            f._check_point(part)

    def _check_tangent(self, base: np.ndarray, data: np.ndarray) -> None:
        for f, b, part in self._split(base, data):
            f._check_tangent(b, part)

    def _inner_data(self, base: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return sum(f._inner_data(b, uu, vv) for f, b, uu, vv in self._split(base, u, v))

    def _retract(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.concatenate([_still_rows_kept(f._retract, xx, uu) for f, xx, uu in self._split(x, u)], axis=-1)

    def _exp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.concatenate([_still_rows_kept(f._exp, xx, uu) for f, xx, uu in self._split(x, u)], axis=-1)

    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate([f._log(xx, yy) for f, xx, yy in self._split(x, y)])

    def _transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.concatenate([f._transport(xx, yy, uu) for f, xx, yy, uu in self._split(x, y, u)])

    def _dist(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sqrt(sum(f._dist(xx, yy) ** 2 for f, xx, yy in self._split(x, y))))

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([f._random_point(rng) for f in self.factors])

    def _random_tangent_data(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([f._random_tangent_data(b, rng) for f, b in self._split(base)])


# -- serialization ----------------------------------------------------------
#
# Wire format of a point: a JSON header line {kind, dims, radius[, factors]}
# terminated by a newline, then the flat little-endian float64 payload.

# The writer's table: every concrete manifold, by its kind.
_CLASSES = {cls.kind: cls for cls in (Euclidean, Sphere, Stiefel, SPD, ProductManifold)}


def manifold_to_header(m: Manifold) -> dict:
    """The header of m, from its identity: a sphere's radius goes apart from its
    dims, and a product writes its size as dims beside its factors' headers."""
    if not isinstance(m, _CLASSES.get(m.kind, ())):
        raise UnsupportedOperation(f"cannot serialize manifold {m!r}")
    kind, *dims = m.spec_key()
    if isinstance(m, ProductManifold):
        return {"kind": kind, "dims": [m.ambient_size], "radius": None,
                "factors": [manifold_to_header(f) for f in m.factors]}
    radius = dims.pop() if isinstance(m, Sphere) else None
    return {"kind": kind, "dims": dims, "radius": radius}


def serialize_point(p: Point) -> bytes:
    head = json.dumps(manifold_to_header(p.manifold), sort_keys=True).encode("utf-8") + b"\n"
    return head + np.ascontiguousarray(p.data, dtype="<f8").tobytes()
