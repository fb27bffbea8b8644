"""Geometry tests: frozen hand values, independent oracles, property checks."""
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from manimax import (
    SPD,
    AntipodalPoints,
    BaseMismatch,
    ClampCounter,
    DegenerateRetraction,
    Euclidean,
    InvalidGeometry,
    Manifold,
    Point,
    ProductManifold,
    SPDFactors,
    Sphere,
    Stiefel,
    Tangent,
    UnsupportedOperation,
    manifold_to_header,
    serialize_point,
)
from manimax import manifolds

RNG = np.random.default_rng(20260816)


def sphere_point(man, v):
    v = np.asarray(v, dtype=float)
    return Point(man, v / np.linalg.norm(v))


# -- frozen hand values ------------------------------------------------------


def test_spd_inner_frozen():
    # X = diag(2, 2): <U, V>_X = tr(X^-1 U X^-1 V) = tr(I/2 * I/2) = 0.5 for U = V = I.
    man = SPD(2)
    x = Point(man, np.diag([2.0, 2.0]).ravel())
    u = Tangent(x, np.eye(2).ravel())
    assert_allclose(man.inner(u, u), 0.5, rtol=1e-14)


def test_sphere_retract_frozen():
    # (x + u) / ||x + u|| with x = e1, u = e2 lands on the diagonal.
    man = Sphere(2)
    x = Point(man, [1.0, 0.0])
    u = Tangent(x, [0.0, 1.0])
    z = man.retract(x, u)
    assert_allclose(z.data, np.array([1.0, 1.0]) / np.sqrt(2.0), rtol=1e-15)


def test_sphere_exp_quarter_turn():
    man = Sphere(2)
    x = Point(man, [1.0, 0.0])
    u = Tangent(x, [0.0, np.pi / 2])
    z = man.exp(x, u)
    assert_allclose(z.data, [0.0, 1.0], atol=1e-15)
    assert_allclose(man.dist(x, z), np.pi / 2, rtol=1e-15)


def test_sphere_log_frozen():
    man = Sphere(2)
    x = Point(man, [1.0, 0.0])
    y = Point(man, [0.0, 1.0])
    assert_allclose(man.log(x, y).data, [0.0, np.pi / 2], atol=1e-15)


def test_spd_exp_log_diagonal():
    man = SPD(2)
    eye = Point(man, np.eye(2).ravel())
    u = Tangent(eye, np.diag([1.0, -2.0]).ravel())
    z = man.exp(eye, u)
    assert_allclose(man._mat(z.data), np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)
    back = man.log(eye, z)
    assert_allclose(back.data, u.data, rtol=1e-13, atol=1e-15)


def test_spd_dist_frozen():
    # dist(I, e*I) = ||log(e*I)||_F = sqrt(2) in dimension 2.
    man = SPD(2)
    eye = Point(man, np.eye(2).ravel())
    z = Point(man, (np.e * np.eye(2)).ravel())
    assert_allclose(man.dist(eye, z), np.sqrt(2.0), rtol=1e-14)


def test_spd_transport_frozen():
    # From I to diag(4, 1) the transporter is diag(2, 1).
    man = SPD(2)
    eye = Point(man, np.eye(2).ravel())
    y = Point(man, np.diag([4.0, 1.0]).ravel())
    u = Tangent(eye, np.array([[0.0, 1.0], [1.0, 0.0]]).ravel())
    moved = man.transport(eye, y, u)
    assert_allclose(man._mat(moved.data), [[0.0, 2.0], [2.0, 0.0]], atol=1e-13)


# -- independent oracles -----------------------------------------------------


def sphere_transport_oracle(man, x, y, u):
    """Rotation in the plane spanned by x and the direction toward y."""
    lg = man.log(x, y)
    theta = np.linalg.norm(lg.data)
    e = lg.data / np.linalg.norm(lg.data)
    xh = x.data
    rot = (
        np.eye(x.data.size)
        + (np.cos(theta) - 1.0) * (np.outer(xh, xh) + np.outer(e, e))
        + np.sin(theta) * (np.outer(e, xh) - np.outer(xh, e))
    )
    return rot @ u.data


@pytest.mark.parametrize("dim", [3, 5, 4])
def test_sphere_transport_matches_rotation(dim):
    man = Sphere(dim)
    for _ in range(25):
        x = man.random_point(RNG)
        y = man.random_point(RNG)
        u = man.random_tangent(x, RNG, norm=1.7)
        got = man.transport(x, y, u)
        want = sphere_transport_oracle(man, x, y, u)
        assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


def spd_dist_oracle(man, x, y):
    """Affine-invariant distance from the eigenvalues of X^-1 Y."""
    X = man._mat(x.data)
    Y = man._mat(y.data)
    lam = np.linalg.eigvals(np.linalg.solve(X, Y))
    return float(np.sqrt(np.sum(np.log(lam.real) ** 2)))


@pytest.mark.parametrize("order", [2, 3, 6])
def test_spd_dist_matches_eigenvalue_oracle(order):
    man = SPD(order)
    for _ in range(20):
        x = man.random_point(RNG)
        y = man.random_point(RNG)
        assert_allclose(man.dist(x, y), spd_dist_oracle(man, x, y), rtol=1e-9)


def mgs_oracle(S):
    """Modified Gram-Schmidt with positive pivots, for checking the QR retraction."""
    S = S.copy()
    n, p = S.shape
    Q = np.zeros((n, p))
    for j in range(p):
        v = S[:, j]
        for i in range(j):
            v = v - (Q[:, i] @ v) * Q[:, i]
        Q[:, j] = v / np.linalg.norm(v)
    return Q


def test_stiefel_retract_matches_gram_schmidt():
    man = Stiefel(7, 3)
    for _ in range(25):
        x = man.random_point(RNG)
        u = man.random_tangent(x, RNG, norm=0.8)
        got = man.retract(x, u)
        want = mgs_oracle(x.data.reshape(7, 3) + u.data.reshape(7, 3))
        assert_allclose(got.data.reshape(7, 3), want, rtol=1e-9, atol=1e-11)


def test_spd_exp_matches_series():
    # Compare against a straightforward truncated series for the geodesic
    # gamma(1) = X^1/2 expm(X^-1/2 U X^-1/2) X^1/2 with small U.
    man = SPD(3)
    x = man.random_point(RNG)
    u = man.random_tangent(x, RNG, norm=1e-3)
    X = man._mat(x.data)
    U = man._mat(u.data)
    w, Q = np.linalg.eigh(X)
    rt = Q @ np.diag(np.sqrt(w)) @ Q.T
    irt = Q @ np.diag(1.0 / np.sqrt(w)) @ Q.T
    S = irt @ U @ irt
    E = np.eye(3)
    term = np.eye(3)
    for k in range(1, 18):
        term = term @ S / k
        E = E + term
    want = rt @ E @ rt
    got = man._mat(man.exp(x, u).data)
    assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def spd_exp_by_eigh(x, u, theta):
    """The tangent u rescaled so that the whitened step S = X^-1/2 U X^-1/2,
    formed as SPD does it, has ||S||_1 = theta, and exp_x of it from the
    eigendecomposition of S, in SPD's order of operations."""
    n = x.manifold.order
    X = x.data.reshape(n, n)
    w, Q = np.linalg.eigh(0.5 * (X + X.T))
    rt, irt = Q * np.sqrt(w), Q / np.sqrt(w)

    def whitened(U):
        A = irt.T @ U @ irt
        return 0.5 * (A + A.T)

    U = u.data.reshape(n, n) * (theta / np.abs(whitened(u.data.reshape(n, n))).sum(axis=0).max())
    ws, Qs = np.linalg.eigh(whitened(U))
    Z = rt @ ((Qs * np.exp(ws)) @ Qs.T) @ rt.T
    return Tangent(x, U.reshape(-1)), 0.5 * (Z + Z.T)


@pytest.mark.parametrize("order", [2, 3, 31])
def test_spd_exp_of_a_small_step_matches_the_eigendecomposition(order):
    # At ||S||_1 <= 1/2 exp sums the Taylor series of expm(S); it agrees with
    # the eigendecomposition to roundoff. 0.5 is scaled a hair below, so that
    # the rounding of the rescaled tangent keeps it on the series side.
    man = SPD(order)
    rng = np.random.default_rng(order)
    for theta in (1e-14, 1e-6, 0.05, 0.5 * (1 - 1e-12)):
        x = man.random_point(rng)
        u, want = spd_exp_by_eigh(x, man.random_tangent(x, rng), theta)
        got = man.exp(x, u).data.reshape(order, order)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    # Just above 1/2 exp takes the eigendecomposition, bit for bit.
    x = man.random_point(rng)
    u, want = spd_exp_by_eigh(x, man.random_tangent(x, rng), 0.5 * (1 + 1e-12))
    assert man.exp(x, u).data.tobytes() == want.tobytes()


# -- round trips and isometries ----------------------------------------------


@pytest.mark.parametrize(
    "man",
    [Sphere(3), Sphere(31), Sphere(4), SPD(2), SPD(5), Euclidean(7)],
    ids=repr,
)
def test_exp_log_round_trip(man):
    for _ in range(50):
        x = man.random_point(RNG)
        y = man.random_point(RNG)
        z = man.exp(x, man.log(x, y))
        rel = np.linalg.norm(z.data - y.data) / (1.0 + np.linalg.norm(y.data))
        assert rel <= 1e-8
        u = man.random_tangent(x, RNG, norm=0.5)
        back = man.log(x, man.exp(x, u))
        assert_allclose(back.data, u.data, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("man", [Sphere(3), Sphere(8), SPD(2), SPD(4), Euclidean(5)], ids=repr)
def test_transport_isometry(man):
    for _ in range(40):
        x = man.random_point(RNG)
        y = man.random_point(RNG)
        u = man.random_tangent(x, RNG, norm=1.3)
        v = man.random_tangent(x, RNG, norm=0.4)
        before = man.inner(u, v)
        after = man.inner(man.transport(x, y, u), man.transport(x, y, v))
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


def test_transport_to_self_is_identity():
    man = Sphere(6)
    x = man.random_point(RNG)
    u = man.random_tangent(x, RNG, norm=2.0)
    assert_allclose(man.transport(x, x, u).data, u.data, atol=1e-12)


def test_dist_symmetry_and_triangle():
    man = SPD(3)
    x, y, z = (man.random_point(RNG) for _ in range(3))
    assert_allclose(man.dist(x, y), man.dist(y, x), rtol=1e-12)
    assert man.dist(x, z) <= man.dist(x, y) + man.dist(y, z) + 1e-10
    assert man.dist(x, x) <= 1e-12


def test_sphere_project_idempotent():
    man = Sphere(5)
    x = man.random_point(RNG)
    a = RNG.standard_normal(x.data.size)
    u = man._project(x.data, a)
    again = man._project(x.data, u)
    assert_allclose(again, u, rtol=1e-12, atol=1e-14)
    # projecting a tangent changes nothing
    v = man.random_tangent(x, RNG)
    assert_allclose(man._project(x.data, v.data), v.data, rtol=1e-12, atol=1e-14)


def test_zero_tangent_moves_nowhere():
    for man in (Sphere(4), SPD(2), Euclidean(3), Stiefel(5, 2)):
        x = man.random_point(RNG)
        z = man.retract(x, man.zero_tangent(x))
        assert_allclose(z.data, x.data, atol=1e-15)


# -- validation and error paths ----------------------------------------------


def test_point_rejects_off_manifold():
    with pytest.raises(InvalidGeometry):
        Point(Sphere(3), [1.0, 1.0, 1.0])
    with pytest.raises(InvalidGeometry):
        Point(Sphere(3), [0.0, 0.0, 2.0])
    with pytest.raises(InvalidGeometry, match="needs 3 entries"):
        Point(Sphere(3), np.zeros(5))
    with pytest.raises(InvalidGeometry, match="non-finite"):
        Point(Sphere(3), [np.nan, 0.0, 1.0])
    with pytest.raises(InvalidGeometry):
        Point(SPD(2), np.array([[1.0, 2.0], [2.0, 1.0]]).ravel())  # eigenvalue -1
    with pytest.raises(InvalidGeometry):
        Point(Stiefel(3, 2), np.ones(6))
    with pytest.raises(InvalidGeometry):
        Point(Euclidean(2), [1.0, np.nan])


def test_tangent_rejects_non_tangent():
    man = Sphere(3)
    x = Point(man, [1.0, 0.0, 0.0])
    with pytest.raises(InvalidGeometry):
        Tangent(x, [1.0, 0.0, 0.0])  # radial component


def test_base_mismatch_detected():
    man = Sphere(3)
    x = Point(man, [1.0, 0.0, 0.0])
    y = Point(man, [0.0, 1.0, 0.0])
    u = man.random_tangent(x, RNG)
    with pytest.raises(BaseMismatch):
        man.exp(y, u)
    with pytest.raises(BaseMismatch):
        man.inner(u, man.random_tangent(y, RNG))


def test_antipodal_log_raises():
    man = Sphere(3)
    x = Point(man, [1.0, 0.0, 0.0])
    y = Point(man, [-1.0, 0.0, 0.0])
    with pytest.raises(AntipodalPoints):
        man.log(x, y)


def test_sphere_degenerate_retraction_raises():
    man = Sphere(2)
    x = Point(man, [1.0, 0.0])
    # x + u = 0 cannot be renormalized; build the bad vector via project of -2x... the
    # projection removes the radial part, so construct the tangent directly instead.
    u = Tangent.__new__(Tangent)
    object.__setattr__(u, "base", x)
    object.__setattr__(u, "data", np.array([-1.0, 0.0]))
    with pytest.raises(DegenerateRetraction):
        man.retract(x, u)


def test_stiefel_unsupported_maps():
    man = Stiefel(4, 2)
    x = man.random_point(RNG)
    y = man.random_point(RNG)
    with pytest.raises(UnsupportedOperation):
        man.exp(x, man.zero_tangent(x))
    with pytest.raises(UnsupportedOperation):
        man.log(x, y)


@pytest.mark.parametrize("man", [Stiefel(5, 2), ProductManifold([Sphere(3), Stiefel(5, 2)])], ids=repr)
def test_transport_needs_exp(man):
    # Stiefel has no transport at all, so neither has a product with a Stiefel factor.
    rng = np.random.default_rng(13)
    x, y = man.random_point(rng), man.random_point(rng)
    with pytest.raises(UnsupportedOperation):
        man.transport(x, y, man.random_tangent(x, rng))


def test_point_data_read_only():
    man = Euclidean(3)
    x = Point(man, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        x.data[0] = 9.0


def test_spd_clamp_counter_bumps():
    counter = ClampCounter()
    man = SPD(2, clamp_counter=counter)
    # eigenvalues 1 and 1e-18: far below the relative floor, so any spectral
    # operation has to clamp.
    x = Point(man, np.diag([1.0, 1e-18]).ravel())
    man.exp(x, man.zero_tangent(x).scaled(0.0))
    y = man.random_point(RNG)
    man.log(x, y)
    assert counter.events >= 1


def _fresh_factors(man: SPD, arr: np.ndarray) -> SPDFactors:
    """The factors of ``arr``'s points, derived from a fresh ``spectrum`` of its contents."""
    w, Q = man.spectrum(arr.reshape(*arr.shape[:-1], man.order, man.order))
    root = np.sqrt(w)[..., None, :]
    return SPDFactors(w, Q, Q * root, Q / root, (Q / w[..., None, :]) @ Q.mT, w[..., :, None] * w[..., None, :])


def _served_factors(man: SPD, arr: np.ndarray) -> SPDFactors:
    """``point_factors(arr)``, checked: every factor read-only and bitwise its
    fresh derivation."""
    served = man.point_factors(arr)
    for name, got, fresh in zip(SPDFactors._fields, served, _fresh_factors(man, arr)):
        assert got.shape == fresh.shape and got.tobytes() == fresh.tobytes(), name
        assert not got.flags.writeable, name
    return served


def test_spd_point_factors_is_never_stale():
    # Every answer must be bitwise the fresh spectrum of what the array holds
    # at the call, and every factor its fresh derivation: distinct points,
    # repeats of earlier ones, and a writable buffer changed in place between
    # calls.
    man = SPD(4)
    rng = np.random.default_rng(5)

    def served(data):
        return _served_factors(man, data).Q

    points = [man.random_point(rng) for _ in range(4)]
    buf = np.array(points[0].data)
    for p in points + points[::-1]:
        served(p.data)
        served(p.data)
        served(buf)
        buf[:] = p.data
        served(buf)
        buf[:] = man.random_point(rng).data
        served(buf)
    # A read-only point array is decomposed once and then served.
    assert served(points[1].data) is served(points[1].data)
    assert served(buf) is served(buf)


def _count_eigh(monkeypatch) -> list[int]:
    count, eigh = [0], np.linalg.eigh

    def counted(*args, **kwargs):
        count[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return count


def test_spd_point_factors_serves_an_equal_copy_without_a_second_decomposition(monkeypatch):
    man = SPD(3)
    x = man.random_point(RNG).data
    count = _count_eigh(monkeypatch)
    w, Q = man.point_factors(x)[:2]
    assert man.point_factors(x.copy())[:2] == (w, Q)
    assert count[0] == 1
    # What it serves is read-only, so no reader can change a later hit.
    assert not w.flags.writeable and not Q.flags.writeable


def test_spd_point_factors_serves_a_product_slice_across_inner_calls(monkeypatch):
    man = ProductManifold([Sphere(3), SPD(3)])
    x = Point(man, np.concatenate([[1.0, 0.0, 0.0], SPD(3).random_point(RNG).data]))
    u = Tangent(x, np.concatenate([[0.0, 1.0, 0.0], np.eye(3).ravel()]))
    v = Tangent(x, np.concatenate([[0.0, 0.0, 2.0], np.diag([1.0, 2.0, 3.0]).ravel()]))
    count = _count_eigh(monkeypatch)
    assert man.inner(u, v) == man.inner(u, v)
    assert count[0] == 1


# Operations on SPD(4) and the array each one hands to point_factors.
SPECTRUM_OPS = st.lists(st.tuples(st.sampled_from(["fresh", "copy", "view", "write", "stack"]),
                                  st.integers(0, 2**32 - 1)), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@example(ops=[("view", 0), ("write", 2)])  # a read-only view of a buffer written in place
@given(ops=SPECTRUM_OPS)
def test_spd_point_factors_is_the_fresh_spectrum_of_the_contents(ops):
    man = SPD(4)
    buf = man.random_point(np.random.default_rng(0)).data.copy()
    view = buf.view()
    view.setflags(write=False)
    seen = [buf.copy()]
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        if op == "fresh":
            arr = man.random_point(rng).data
        elif op == "copy":
            arr = seen[seed % len(seen)].copy()
        elif op == "stack":
            arr = np.stack([seen[(seed + i) % len(seen)] for i in range(1 + seed % 3)])
        else:
            if op == "write":  # a new point, or one seen before
                buf[:] = seen[seed % len(seen)] if seed % 2 else man.random_point(rng).data
            arr = view
        _served_factors(man, arr)
        if arr.ndim == 1:
            seen.append(arr.copy())


def test_spd_point_factors_of_a_stack_are_its_rows_factors():
    man = SPD(4)
    rng = np.random.default_rng(7)
    rows = [man.random_point(rng).data for _ in range(3)]
    stacked = _served_factors(man, np.stack(rows))
    for r, row in enumerate(rows):
        single = _served_factors(man, row)
        for name, got, alone in zip(SPDFactors._fields, stacked, single):
            assert got[r].tobytes() == alone.tobytes(), (r, name)
    # The factors are what their names say, to roundoff.
    X = rows[-1].reshape(4, 4)
    assert_allclose(single.rt @ single.rt.T, X, atol=1e-12)
    assert_allclose(single.irt @ single.irt.T, single.inv, atol=1e-12)
    assert_allclose(single.inv @ X, np.eye(4), atol=1e-12)
    assert_allclose(single.ww, np.outer(single.w, single.w))


def test_spd_inner_is_the_trace_formula_and_a_norm_takes_one_sandwich():
    man = SPD(4)
    rng = np.random.default_rng(8)
    x = man.random_point(rng)
    u, v = man.random_tangent(x, rng), man.random_tangent(x, rng)
    Xi, U, V = np.linalg.inv(x.data.reshape(4, 4)), u.data.reshape(4, 4), v.data.reshape(4, 4)
    assert_allclose(man.inner(u, v), np.trace(Xi @ U @ Xi @ V), rtol=1e-10)
    # The metric of u with itself reuses Q^T U Q, with the bits of an equal copy.
    assert man.inner(u, u) == man.inner(u, Tangent(x, u.data.copy()))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_spd_symmetry_check_keeps_its_tolerance(stacked):
    # An entrywise gap up to _SPD_SYMMETRY * max(1, max|entry|) passes, a
    # larger one fails, whether or not the exact-symmetry shortcut applies.
    man = SPD(3)
    X = np.diag([2.0, 4.0, 6.0])
    tol = manifolds._SPD_SYMMETRY * 6.0

    def with_gap(gap):
        M = X.copy()
        M[0, 2] += gap
        data = M.reshape(-1)
        return np.stack([X.reshape(-1), data]) if stacked else data

    base = with_gap(0.0)
    for gap in (0.0, 0.5 * tol, tol):
        man.check_tangent(base, with_gap(gap))
        if not stacked:
            man.check_point(with_gap(gap))
    with pytest.raises(InvalidGeometry, match="SPD tangent is not symmetric"):
        man.check_tangent(base, with_gap(2.0 * tol))
    if not stacked:
        with pytest.raises(InvalidGeometry, match="SPD point is not symmetric"):
            man.check_point(with_gap(2.0 * tol))


def test_invalid_constructions():
    with pytest.raises(InvalidGeometry):
        Sphere(1)
    with pytest.raises(InvalidGeometry):
        Stiefel(2, 3)
    with pytest.raises(InvalidGeometry):
        SPD(0)
    with pytest.raises(InvalidGeometry):
        Euclidean(0)


@pytest.mark.parametrize(
    "make",
    [lambda: Sphere(3.7), lambda: Sphere(3.0), lambda: Euclidean(True), lambda: Euclidean("3"),
     lambda: Stiefel(4, 2.0), lambda: SPD(np.float64(2)), lambda: SPD(np.True_),
     lambda: ProductManifold([Sphere(3), 5])],
    ids=["sphere-3.7", "sphere-3.0", "euclidean-true", "euclidean-str", "stiefel-float-cols",
         "spd-float64", "spd-numpy-bool", "product-non-manifold-factor"],
)
def test_constructors_reject_non_integer_sizes(make):
    with pytest.raises(InvalidGeometry):
        make()


def test_constructors_accept_numpy_integers():
    assert SPD(np.int64(3)).order == 3 and type(SPD(np.int64(3)).order) is int
    assert Sphere(np.int32(4)).spec_key() == ("sphere", 4, 1.0)


def test_sphere_is_the_unit_sphere():
    # The radius is fixed at 1: it stays in the identity, and no argument sets it.
    assert repr(Sphere(3)) == "Sphere(3, 1.0)"
    with pytest.raises(TypeError):
        Sphere(3, 2.0)


# -- the Point/Tangent boundary in Manifold ------------------------------------


BOUNDARY_MANIFOLDS = [
    Euclidean(3), Sphere(4), Stiefel(5, 2), SPD(3),
    ProductManifold([Sphere(3), Euclidean(2)]), ProductManifold([Stiefel(4, 2), SPD(2)]),
]


@pytest.fixture
def check_calls(monkeypatch):
    """Counts of Manifold.check_point and Manifold.check_tangent calls."""
    calls = {"point": 0, "tangent": 0}
    for what in calls:
        original = getattr(Manifold, f"check_{what}")

        def counted(self, *args, _original=original, _what=what):
            calls[_what] += 1
            return _original(self, *args)

        monkeypatch.setattr(Manifold, f"check_{what}", counted)
    return calls


@pytest.mark.parametrize("man", BOUNDARY_MANIFOLDS, ids=repr)
def test_public_maps_check_once_at_the_boundary(man, check_calls):
    rng = np.random.default_rng(3)
    x, y = man.random_point(rng), man.random_point(rng)
    u = man.random_tangent(x, rng, norm=0.3)

    def counts(call):
        check_calls.update(point=0, tangent=0)
        call()
        return check_calls["point"], check_calls["tangent"]

    # Retraction and exp results are trusted: no membership check at all.
    assert counts(lambda: man.retract(x, u)) == (0, 0)
    if man.has_exp:
        assert counts(lambda: man.exp(x, u)) == (0, 0)
        # Tangent results are validated exactly once.
        assert counts(lambda: man.log(x, y)) == (0, 1)
        assert counts(lambda: man.transport(x, y, u)) == (0, 1)
    else:
        for call in (lambda: man.exp(x, u), lambda: man.log(x, y), lambda: man.transport(x, y, u)):
            with pytest.raises(UnsupportedOperation):
                call()

    # A point or tangent from another manifold is rejected by every map.
    other = Euclidean(man.ambient_size + 1)
    xo = other.random_point(rng)
    uo = other.random_tangent(xo, rng)
    for call in (
        lambda: man.retract(xo, u), lambda: man.retract(x, uo), lambda: man.dist(x, xo),
        lambda: man.dist(xo, y), lambda: man.inner(u, uo),
        lambda: man.norm(uo), lambda: man.zero_tangent(xo), lambda: man.random_tangent(xo, rng),
    ):
        with pytest.raises(InvalidGeometry):
            call()
    # exp, log and transport report a missing map before they look at their arguments.
    for call in (lambda: man.exp(xo, u), lambda: man.exp(x, uo), lambda: man.log(xo, y), lambda: man.log(x, xo),
                 lambda: man.transport(xo, y, u), lambda: man.transport(x, xo, u), lambda: man.transport(x, y, uo)):
        with pytest.raises(InvalidGeometry if man.has_exp else UnsupportedOperation):
            call()

    # A tangent rooted at another point of the same manifold is rejected.
    v = man.random_tangent(y, rng)
    for call in (lambda: man.retract(x, v), lambda: man.inner(u, v)):
        with pytest.raises(BaseMismatch):
            call()
    for call in (lambda: man.exp(x, v), lambda: man.transport(x, y, v)):
        with pytest.raises(BaseMismatch if man.has_exp else UnsupportedOperation):
            call()


@pytest.mark.parametrize(
    "factors",
    [[Sphere(3), SPD(2), Euclidean(2)], [Stiefel(4, 2), Sphere(3)]],
    ids=lambda fs: " x ".join(map(repr, fs)),
)
@pytest.mark.parametrize("zero_slice", [None, 0, 1])
def test_product_maps_are_factor_maps_concatenated(factors, zero_slice):
    prod = ProductManifold(factors)
    rng = np.random.default_rng(11)
    x = prod.random_point(rng)
    again = np.random.default_rng(11)
    assert np.array_equal(x.data, np.concatenate([f.random_point(again).data for f in factors]))
    y = prod.random_point(rng)
    data = prod.random_tangent(x, rng, norm=0.4).data.copy()
    cuts = np.cumsum([0] + [f.ambient_size for f in factors])
    if zero_slice is not None:
        data[cuts[zero_slice]:cuts[zero_slice + 1]] = 0.0
    u = Tangent(x, data)

    def parts(arr):
        return [arr[cuts[i]:cuts[i + 1]] for i in range(len(factors))]

    xs = [Point(f, p) for f, p in zip(factors, parts(x.data))]
    ys = [Point(f, p) for f, p in zip(factors, parts(y.data))]
    us = [Tangent(xf, p) for xf, p in zip(xs, parts(u.data))]

    def joined(results):
        return np.concatenate([r.data for r in results])

    maps = {"retract": (prod.retract(x, u), [f.retract(*a_) for f, *a_ in zip(factors, xs, us)])}
    if prod.has_exp:
        maps["exp"] = (prod.exp(x, u), [f.exp(*a_) for f, *a_ in zip(factors, xs, us)])
        maps["log"] = (prod.log(x, y), [f.log(*a_) for f, *a_ in zip(factors, xs, ys)])
        maps["transport"] = (prod.transport(x, y, u), [f.transport(*a_) for f, *a_ in zip(factors, xs, ys, us)])
    for name, (whole, pieces) in maps.items():
        assert np.array_equal(whole.data, joined(pieces)), name
    if zero_slice is not None:
        # The factor with a zero tangent slice stays where it is.
        assert np.array_equal(parts(prod.retract(x, u).data)[zero_slice], xs[zero_slice].data)
    assert prod.dist(x, y) == float(np.sqrt(sum(f.dist(*a_) ** 2 for f, *a_ in zip(factors, xs, ys))))
    assert prod.inner(u, u) == sum(f.inner(uf, uf) for f, uf in zip(factors, us))


# -- product manifold ---------------------------------------------------------


def test_product_inner_is_sum_of_parts():
    sphere = Sphere(3)
    eucl = Euclidean(2)
    prod = ProductManifold([sphere, eucl])
    x = prod.random_point(RNG)
    u = prod.random_tangent(x, RNG, norm=1.0)
    v = prod.random_tangent(x, RNG, norm=2.0)
    xs = Point(sphere, x.data[:3])
    us = Tangent(xs, u.data[:3])
    vs = Tangent(xs, v.data[:3])
    xe = Point(eucl, x.data[3:])
    ue = Tangent(xe, u.data[3:])
    ve = Tangent(xe, v.data[3:])
    want = sphere.inner(us, vs) + eucl.inner(ue, ve)
    assert_allclose(prod.inner(u, v), want, rtol=1e-13)


def test_product_exp_componentwise():
    prod = ProductManifold([Sphere(3), SPD(2)])
    x = prod.random_point(RNG)
    u = prod.random_tangent(x, RNG, norm=0.7)
    z = prod.exp(x, u)
    sphere_part = Sphere(3).exp(Point(Sphere(3), x.data[:3]), Tangent(Point(Sphere(3), x.data[:3]), u.data[:3]))
    assert_allclose(z.data[:3], sphere_part.data, rtol=1e-13)
    back = prod.log(x, z)
    assert_allclose(back.data, u.data, rtol=1e-9, atol=1e-11)


def test_product_with_stiefel_has_no_exp():
    prod = ProductManifold([Sphere(3), Stiefel(4, 2)])
    assert not prod.has_exp
    x = prod.random_point(RNG)
    u = prod.random_tangent(x, RNG)
    with pytest.raises(UnsupportedOperation):
        prod.exp(x, u)
    z = prod.retract(x, u)  # retraction still fine
    prod.check_point(z.data)


def test_product_dist():
    prod = ProductManifold([Euclidean(2), Euclidean(3)])
    x = Point(prod, np.zeros(5))
    y = Point(prod, np.array([3.0, 0.0, 0.0, 4.0, 0.0]))
    assert_allclose(prod.dist(x, y), 5.0, rtol=1e-15)


# -- serialization -------------------------------------------------------------


@pytest.mark.parametrize(
    "man",
    [Sphere(4), Sphere(3), SPD(3), Stiefel(5, 2), Euclidean(6),
     ProductManifold([Sphere(3), Euclidean(2)])],
    ids=repr,
)
def test_point_serialization_round_trip(man):
    # A JSON header line, then the data as little-endian float64: the two-step load gives the point back.
    x = man.random_point(RNG)
    head, newline, body = serialize_point(x).partition(b"\n")
    assert newline and head == json.dumps(manifold_to_header(man), sort_keys=True).encode("utf-8")
    assert body == x.data.astype("<f8").tobytes()
    assert np.array_equal(Point(man, np.frombuffer(body, "<f8")).data, x.data)  # bit exact


# The header lines of the 0.11.0 writer, byte for byte.
_WIRE_HEADERS = [
    (Sphere(5), b'{"dims": [5], "kind": "sphere", "radius": 1.0}'),
    (SPD(4), b'{"dims": [4], "kind": "spd", "radius": null}'),
    (Stiefel(6, 3), b'{"dims": [6, 3], "kind": "stiefel", "radius": null}'),
    (Euclidean(2), b'{"dims": [2], "kind": "euclidean", "radius": null}'),
    (ProductManifold([Sphere(3), SPD(2)]),
     b'{"dims": [7], "factors": [{"dims": [3], "kind": "sphere", "radius": 1.0}, '
     b'{"dims": [2], "kind": "spd", "radius": null}], "kind": "product", "radius": null}'),
]


def test_writer_refuses_a_manifold_it_has_no_header_for():
    class Torus(Euclidean):
        kind = "torus"

    with pytest.raises(UnsupportedOperation, match="cannot serialize"):
        serialize_point(Point(Torus(2), [0.0, 0.0]))


def test_manifold_header_round_trip():
    for man, line in _WIRE_HEADERS:
        assert json.loads(line) == manifold_to_header(man)
        head, _, _ = serialize_point(man.random_point(RNG)).partition(b"\n")
        assert head == line


def test_sphere_retract_rejects_overflowed_norm():
    man = Sphere(3)
    x = sphere_point(man, [1.0, 0.0, 0.0])
    u = Tangent(x, [0.0, 1e300, 1e300])
    with pytest.raises(DegenerateRetraction):
        man.retract(x, u)


def test_derived_values_are_checked_for_finiteness():
    # Retraction results and scaled tangents skip the membership checks but
    # not the finiteness check.
    man = Euclidean(2)
    x = Point(man, [1e308, 0.0])
    u = Tangent(x, [1e308, 0.0])
    with pytest.raises(InvalidGeometry):
        man.retract(x, u)
    with pytest.raises(InvalidGeometry):
        u.scaled(10.0)
    assert u.scaled(0.5).data.flags.writeable is False


@pytest.mark.filterwarnings("error")
def test_spd_metric_that_underflows_raises_instead_of_warning():
    # At 1e-170 * I the eigenvalue products w_i w_j underflow to 0.
    man = SPD(2)
    x = Point(man, 1e-170 * np.eye(2).ravel())
    u = Tangent(x, np.eye(2).ravel())
    with pytest.raises(InvalidGeometry):
        man.inner(u, u)
    with pytest.raises(InvalidGeometry):
        man.norm(u)
    with pytest.raises(InvalidGeometry):
        man.random_tangent(x, np.random.default_rng(0), 1.0)


def extreme_pair(kind):
    """Two valid points so far apart in scale that the maps between them overflow."""
    if kind == "spd":
        man = SPD(2)
        return man, Point(man, 1e-150 * np.eye(2).ravel()), Point(man, 1e300 * np.eye(2).ravel())
    man = Euclidean(2)
    return man, Point(man, [1e308, -1e308]), Point(man, [-1e308, 1e308])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["spd", "euclidean"])
def test_log_that_overflows_raises_instead_of_warning(kind):
    man, x, y = extreme_pair(kind)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(InvalidGeometry):
            man.log(a, b)


@pytest.mark.filterwarnings("error")
def test_transport_that_overflows_raises_instead_of_warning():
    man, x, y = extreme_pair("spd")
    for u in (man.zero_tangent(x), Tangent(x, 1e-150 * np.eye(2).ravel())):
        with pytest.raises(InvalidGeometry):
            man.transport(x, y, u)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["spd", "euclidean"])
def test_dist_that_overflows_raises_instead_of_warning(kind):
    # A distance that comes out infinite is an error, as a metric that does is.
    man, x, y = extreme_pair(kind)
    with pytest.raises(InvalidGeometry):
        man.dist(x, y)
    with pytest.raises(InvalidGeometry, match=rf"^distance on {re.escape(repr(man))} is not finite$"):
        man.dist(y, x)


def test_spd_exp_rejects_underflow_to_singular():
    man = SPD(2)
    x = Point(man, np.eye(2).ravel())
    u = Tangent(x, np.diag([-800.0, 0.0]).ravel())
    with pytest.raises(DegenerateRetraction):
        man.exp(x, u)


# -- property-based checks -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 2.5))
def test_sphere_exp_preserves_speed(seed, scale):
    # dist(x, exp_x(u)) equals ||u|| whenever ||u|| < pi.
    man = Sphere(4)
    rng = np.random.default_rng(seed)
    x = man.random_point(rng)
    u = man.random_tangent(x, rng, norm=scale)
    assert abs(man.dist(x, man.exp(x, u)) - scale) <= 1e-9 * (1.0 + scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_spd_exp_log_inverse(seed):
    man = SPD(3)
    rng = np.random.default_rng(seed)
    x = man.random_point(rng)
    u = man.random_tangent(x, rng, norm=0.8)
    back = man.log(x, man.exp(x, u))
    assert np.linalg.norm(back.data - u.data) <= 1e-9 * (1.0 + np.linalg.norm(u.data))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_stiefel_retraction_stays_feasible(seed):
    man = Stiefel(6, 3)
    rng = np.random.default_rng(seed)
    x = man.random_point(rng)
    u = man.random_tangent(x, rng, norm=3.0)
    z = man.retract(x, u)
    X = z.data.reshape(6, 3)
    assert np.linalg.norm(X.T @ X - np.eye(3)) <= 1e-12


# -- row-wise kernels ----------------------------------------------------------


@pytest.mark.parametrize(
    "man, norms",
    [pytest.param(man, (0.3,) * 4, id=repr(man))
     for man in [Euclidean(3), Sphere(4), Sphere(5), Stiefel(5, 2), SPD(3),
                 ProductManifold([Sphere(3), SPD(2), Euclidean(2)]), ProductManifold([Stiefel(4, 2), Sphere(3)])]]
    # ||S||_1 <= sqrt(3) * norm and >= norm / sqrt(3): SPD exp sums Taylor
    # series of two degrees on rows 0 and 3 and decomposes row 1.
    + [pytest.param(SPD(3), (0.05, 2.0, 0.3, 1e-9), id="SPD(3)-both-sides-of-one-half")],
)
def test_kernels_on_a_stack_equal_the_single_rows(man, norms):
    # The kernels a solver step calls treat each row of a stack on its own:
    # row i has the bits of the kernel on row i alone, and a row whose
    # tangent is zero keeps its point exactly.
    rng = np.random.default_rng(11)
    points = [man.random_point(rng) for _ in range(4)]
    tangents = [man.random_tangent(p, rng, norm) for p, norm in zip(points, norms)]
    tangents[2] = man.zero_tangent(points[2])
    xs = np.stack([p.data for p in points])
    us = np.stack([u.data for u in tangents])
    man.check_tangent(xs, us)
    kernels = [man._retract] + ([man._exp] if man.has_exp else [])
    with np.errstate(over="ignore", invalid="ignore"):
        moved = [man._move(k, xs, us) for k in kernels]
    inner = man._inner_data(xs, us, us)
    for row, (p, u) in enumerate(zip(points, tangents)):
        with np.errstate(over="ignore", invalid="ignore"):
            for k, stack in zip(kernels, moved):
                assert stack[row].tobytes() == man._move(k, p.data, u.data).tobytes()
        assert inner[row] == man._inner_data(p.data, u.data, u.data)
    if isinstance(man, Sphere):  # the problems' gradient kernels project onto the sphere
        ambient = rng.standard_normal(xs.shape)
        projected = man._project(xs, ambient)
        for row, p in enumerate(points):
            assert projected[row].tobytes() == man._project(p.data, ambient[row]).tobytes()
    assert all(stack[2].tobytes() == xs[2].tobytes() for stack in moved)
    assert man._move(man._retract, xs, np.zeros_like(us)) is xs


@pytest.mark.parametrize("man", [Sphere(4), SPD(3), Stiefel(5, 2)], ids=repr)
def test_stacked_tangent_check_rejects_a_bad_row(man):
    rng = np.random.default_rng(12)
    points = [man.random_point(rng) for _ in range(3)]
    xs = np.stack([p.data for p in points])
    us = np.stack([man.random_tangent(p, rng).data for p in points])
    man.check_tangent(xs, us)
    bad = us.copy()
    bad[1] += rng.standard_normal(us.shape[1])
    with pytest.raises(InvalidGeometry):
        man.check_tangent(xs, bad)
    with pytest.raises(InvalidGeometry):
        man.check_tangent(xs, us[:2])
    bad = us.copy()
    bad[2, 0] = np.nan
    with pytest.raises(InvalidGeometry):
        man.check_tangent(xs, bad)


# -- scalar arguments ------------------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Sphere(3).random_tangent(Sphere(3).random_point(RNG), RNG, norm="1"), id="norm-text"),
    pytest.param(lambda: Sphere(3).random_tangent(Sphere(3).random_point(RNG), RNG, norm=True), id="norm-bool"),
    pytest.param(lambda: Sphere(3).random_tangent(Sphere(3).random_point(RNG), RNG, norm=np.nan), id="norm-nan"),
    pytest.param(lambda: Stiefel(4, np.float64(2)), id="stiefel-float-cols"),
    pytest.param(lambda: SPD(None), id="spd-none"),
    pytest.param(lambda: Euclidean(-10**5000), id="euclidean-huge-negative"),
])
def test_scalar_argument_of_the_wrong_type_or_range_is_invalid_geometry(build):
    with pytest.raises(InvalidGeometry):
        build()


@pytest.mark.parametrize("norm", [np.inf, -1.0], ids=["inf", "negative"])
def test_random_tangent_norm_lies_in_the_readme_interval(norm):
    # [0, inf): an infinite norm fails here, not later as a non-finite tangent.
    x = Sphere(3).random_point(RNG)
    with pytest.raises(InvalidGeometry, match=r"^tangent norm must lie in \[0, inf\), got "):
        Sphere(3).random_tangent(x, RNG, norm=norm)


@pytest.mark.parametrize("rng", [None, 0, np.random.RandomState(0)], ids=["none", "seed", "random-state"])
@pytest.mark.parametrize("draw", [lambda man, rng: man.random_point(rng),
                                  lambda man, rng: man.random_tangent(man.random_point(RNG), rng)],
                         ids=["random_point", "random_tangent"])
@pytest.mark.parametrize("man", BOUNDARY_MANIFOLDS, ids=repr)
def test_sampling_takes_a_numpy_generator(man, draw, rng):
    # Checked before any draw: a legacy RandomState keeps its state.
    state = rng.get_state()[1].copy() if isinstance(rng, np.random.RandomState) else None
    with pytest.raises(InvalidGeometry, match=rf"^rng must be a numpy.random.Generator, got {type(rng).__name__}$"):
        draw(man, rng)
    if state is not None:
        assert np.array_equal(rng.get_state()[1], state)


# -- array arguments -------------------------------------------------------------

X3 = Point(Sphere(3), [1.0, 0.0, 0.0])
U3 = Tangent(X3, [0.0, 0.5, 0.0])


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: Point(Sphere(3), ["a", "b", "c"]), "sphere point", id="point-text"),
    pytest.param(lambda: Point(Sphere(3), [[1], [0, 0]]), "sphere point", id="point-ragged"),
    pytest.param(lambda: Point(Sphere(3), np.array([1j, 0, 0])), "sphere point", id="point-complex"),
    pytest.param(lambda: Point(Euclidean(2), [True, False]), "euclidean point", id="point-bool"),
    pytest.param(lambda: Tangent(X3, ["a", "b", "c"]), "sphere tangent", id="tangent-text"),
    pytest.param(lambda: U3.scaled(1j), "scale factor", id="scaled-complex"),
    pytest.param(lambda: U3.scaled(True), "scale factor", id="scaled-bool"),
    pytest.param(lambda: U3.scaled("2"), "scale factor", id="scaled-text"),
])
def test_malformed_array_argument_is_invalid_geometry(build, name):
    with pytest.raises(InvalidGeometry, match=name):
        build()


def test_has_exp_is_a_plain_attribute():
    assert Sphere(3).has_exp and not Stiefel(3, 2).has_exp
    assert ProductManifold([Sphere(3), SPD(2)]).has_exp
    assert not ProductManifold([Euclidean(2), ProductManifold([Stiefel(3, 1)])]).has_exp
    assert Manifold.has_exp is True and Stiefel.has_exp is False
