"""Geometry tests: frozen hand values, independent oracles, property checks."""
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
    Sphere,
    Stiefel,
    Tangent,
    UnsupportedOperation,
    deserialize_point,
    manifold_from_header,
    manifold_to_header,
    serialize_point,
)
from manimax import manifolds

RNG = np.random.default_rng(20260816)


def sphere_point(man, v):
    v = np.asarray(v, dtype=float)
    return Point(man, man.radius * v / np.linalg.norm(v))


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


def test_sphere_radius_two_dist():
    # Orthogonal points on radius r sit r * pi/2 apart.
    man = Sphere(3, radius=2.0)
    x = Point(man, [2.0, 0.0, 0.0])
    y = Point(man, [0.0, 2.0, 0.0])
    assert_allclose(man.dist(x, y), np.pi, rtol=1e-15)


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
    r = man.radius
    lg = man.log(x, y)
    theta = np.linalg.norm(lg.data) / r
    e = lg.data / np.linalg.norm(lg.data)
    xh = x.data / r
    rot = (
        np.eye(x.data.size)
        + (np.cos(theta) - 1.0) * (np.outer(xh, xh) + np.outer(e, e))
        + np.sin(theta) * (np.outer(e, xh) - np.outer(xh, e))
    )
    return rot @ u.data


@pytest.mark.parametrize("dim,radius", [(3, 1.0), (5, 1.0), (4, 2.5)])
def test_sphere_transport_matches_rotation(dim, radius):
    man = Sphere(dim, radius=radius)
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
    [Sphere(3), Sphere(31), Sphere(4, radius=3.0), SPD(2), SPD(5), Euclidean(7)],
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


@pytest.mark.parametrize("man", [Sphere(3), Sphere(8, radius=0.5), SPD(2), SPD(4), Euclidean(5)], ids=repr)
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


def test_project_tangent_idempotent():
    # Only where the conversion is an orthogonal projection; on SPD it is the
    # metric pairing X sym(a) X, which is not a projection.
    for man in (Sphere(5), Stiefel(6, 2)):
        x = man.random_point(RNG)
        a = RNG.standard_normal(x.data.size)
        u = man.project_tangent(x, a)
        again = man.project_tangent(x, u.data)
        assert_allclose(again.data, u.data, rtol=1e-12, atol=1e-14)
        # projecting a tangent changes nothing
        v = man.random_tangent(x, RNG)
        assert_allclose(man.project_tangent(x, v.data).data, v.data, rtol=1e-12, atol=1e-14)


def test_spd_project_tangent_is_metric_pairing():
    man = SPD(3)
    x = man.random_point(RNG)
    a = RNG.standard_normal((3, 3))
    X = man._mat(x.data)
    want = X @ (0.5 * (a + a.T)) @ X
    assert_allclose(man._mat(man.project_tangent(x, a.ravel()).data), want, rtol=1e-12)
    # at the identity the pairing reduces to symmetrization
    eye = Point(man, np.eye(3).ravel())
    assert_allclose(
        man._mat(man.project_tangent(eye, a.ravel()).data), 0.5 * (a + a.T), rtol=1e-13
    )


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


def test_spd_point_spectrum_is_never_stale():
    # Every answer must be bitwise the fresh spectrum of what the array holds
    # at the call: distinct points, repeats of earlier ones, and a writable
    # buffer changed in place between calls.
    man = SPD(4)
    rng = np.random.default_rng(5)

    def served(data):
        w, Q = man.point_spectrum(data)
        w0, Q0 = man.spectrum(data.reshape(4, 4))
        assert w.tobytes() == w0.tobytes() and Q.tobytes() == Q0.tobytes()
        return Q

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


def test_spd_point_spectrum_serves_an_equal_copy_without_a_second_decomposition(monkeypatch):
    man = SPD(3)
    x = man.random_point(RNG).data
    count = _count_eigh(monkeypatch)
    w, Q = man.point_spectrum(x)
    assert man.point_spectrum(x.copy()) == (w, Q)
    assert count[0] == 1
    # What it serves is read-only, so no reader can change a later hit.
    assert not w.flags.writeable and not Q.flags.writeable


def test_spd_point_spectrum_serves_a_product_slice_across_inner_calls(monkeypatch):
    man = ProductManifold([Sphere(3), SPD(3)])
    x = Point(man, np.concatenate([[1.0, 0.0, 0.0], SPD(3).random_point(RNG).data]))
    u = Tangent(x, np.concatenate([[0.0, 1.0, 0.0], np.eye(3).ravel()]))
    v = Tangent(x, np.concatenate([[0.0, 0.0, 2.0], np.diag([1.0, 2.0, 3.0]).ravel()]))
    count = _count_eigh(monkeypatch)
    assert man.inner(u, v) == man.inner(u, v)
    assert count[0] == 1


# Operations on SPD(4) and the array each one hands to point_spectrum.
SPECTRUM_OPS = st.lists(st.tuples(st.sampled_from(["fresh", "copy", "view", "write", "stack"]),
                                  st.integers(0, 2**32 - 1)), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@example(ops=[("view", 0), ("write", 2)])  # a read-only view of a buffer written in place
@given(ops=SPECTRUM_OPS)
def test_spd_point_spectrum_is_the_fresh_spectrum_of_the_contents(ops):
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
        w, Q = man.point_spectrum(arr)
        w0, Q0 = man.spectrum(arr.reshape(*arr.shape[:-1], 4, 4))
        assert w.tobytes() == w0.tobytes() and Q.tobytes() == Q0.tobytes()
        if arr.ndim == 1:
            seen.append(arr.copy())


def test_invalid_constructions():
    with pytest.raises(InvalidGeometry):
        Sphere(1)
    with pytest.raises(InvalidGeometry):
        Sphere(3, radius=0.0)
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
     lambda: Sphere(3, radius=True), lambda: Sphere(3, radius="1"),
     lambda: ProductManifold([Sphere(3), 5])],
    ids=["sphere-3.7", "sphere-3.0", "euclidean-true", "euclidean-str", "stiefel-float-cols",
         "spd-float64", "spd-numpy-bool", "radius-true", "radius-str", "product-non-manifold-factor"],
)
def test_constructors_reject_non_integer_sizes_and_non_numeric_radius(make):
    with pytest.raises(InvalidGeometry):
        make()


def test_constructors_accept_numpy_integers():
    assert SPD(np.int64(3)).order == 3 and type(SPD(np.int64(3)).order) is int
    assert Sphere(np.int32(4), radius=np.float64(2.0)).spec_key() == ("sphere", 4, 2.0)


# -- the Point/Tangent boundary in Manifold ------------------------------------


BOUNDARY_MANIFOLDS = [
    Euclidean(3), Sphere(4, radius=2.0), Stiefel(5, 2), SPD(3),
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
    a = rng.standard_normal(man.ambient_size)

    def counts(call):
        check_calls.update(point=0, tangent=0)
        call()
        return check_calls["point"], check_calls["tangent"]

    # Retraction and exp results are trusted: no membership check at all.
    assert counts(lambda: man.retract(x, u)) == (0, 0)
    # Tangent results are validated exactly once.
    assert counts(lambda: man.transport(x, y, u)) == (0, 1)
    assert counts(lambda: man.project_tangent(x, a)) == (0, 1)
    if man.has_exp:
        assert counts(lambda: man.exp(x, u)) == (0, 0)
        assert counts(lambda: man.log(x, y)) == (0, 1)
    else:
        for call in (lambda: man.exp(x, u), lambda: man.log(x, y)):
            with pytest.raises(UnsupportedOperation):
                call()

    # A point or tangent from another manifold is rejected by every map.
    other = Euclidean(man.ambient_size + 1)
    xo = other.random_point(rng)
    uo = other.random_tangent(xo, rng)
    for call in (
        lambda: man.retract(xo, u), lambda: man.retract(x, uo), lambda: man.transport(xo, y, u),
        lambda: man.transport(x, xo, u), lambda: man.transport(x, y, uo), lambda: man.dist(x, xo),
        lambda: man.dist(xo, y), lambda: man.project_tangent(xo, a), lambda: man.inner(u, uo),
        lambda: man.norm(uo), lambda: man.zero_tangent(xo), lambda: man.random_tangent(xo, rng),
    ):
        with pytest.raises(InvalidGeometry):
            call()
    # An ambient array of the wrong size is rejected before the kernel sees it.
    for size in (man.ambient_size - 1, man.ambient_size + 1):
        with pytest.raises(InvalidGeometry, match="ambient array"):
            man.project_tangent(x, rng.standard_normal(size))
    # exp and log report a missing map before they look at their arguments.
    for call in (lambda: man.exp(xo, u), lambda: man.exp(x, uo), lambda: man.log(xo, y), lambda: man.log(x, xo)):
        with pytest.raises(InvalidGeometry if man.has_exp else UnsupportedOperation):
            call()

    # A tangent rooted at another point of the same manifold is rejected.
    v = man.random_tangent(y, rng)
    for call in (lambda: man.retract(x, v), lambda: man.transport(x, y, v), lambda: man.inner(u, v)):
        with pytest.raises(BaseMismatch):
            call()
    with pytest.raises(BaseMismatch if man.has_exp else UnsupportedOperation):
        man.exp(x, v)


@pytest.mark.parametrize(
    "factors",
    [[Sphere(3), SPD(2), Euclidean(2)], [Stiefel(4, 2), Sphere(3, radius=0.5)]],
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
    a = rng.standard_normal(prod.ambient_size)

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
    maps["project_tangent"] = (prod.project_tangent(x, a),
                               [f.project_tangent(xf, p) for f, xf, p in zip(factors, xs, parts(a))])
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
    [Sphere(4), Sphere(3, radius=2.0), SPD(3), Stiefel(5, 2), Euclidean(6),
     ProductManifold([Sphere(3), Euclidean(2)])],
    ids=repr,
)
def test_point_serialization_round_trip(man):
    x = man.random_point(RNG)
    back = deserialize_point(serialize_point(x))
    assert back.manifold.spec_key() == man.spec_key()
    assert np.array_equal(back.data, x.data)  # bit exact


# The header lines of the 0.11.0 writer, byte for byte.
_WIRE_HEADERS = [
    (Sphere(5, radius=1.5), b'{"dims": [5], "kind": "sphere", "radius": 1.5}'),
    (SPD(4), b'{"dims": [4], "kind": "spd", "radius": null}'),
    (Stiefel(6, 3), b'{"dims": [6, 3], "kind": "stiefel", "radius": null}'),
    (Euclidean(2), b'{"dims": [2], "kind": "euclidean", "radius": null}'),
    (ProductManifold([Sphere(3), SPD(2)]),
     b'{"dims": [7], "factors": [{"dims": [3], "kind": "sphere", "radius": 1.0}, '
     b'{"dims": [2], "kind": "spd", "radius": null}], "kind": "product", "radius": null}'),
]


def test_manifold_header_round_trip():
    for man, line in _WIRE_HEADERS:
        again = manifold_from_header(manifold_to_header(man))
        assert again.spec_key() == man.spec_key()
        head, _, _ = serialize_point(man.random_point(RNG)).partition(b"\n")
        assert head == line


def test_header_reader_knows_every_concrete_manifold():
    # A new manifold cannot ship without a way to read its points back.
    concrete = {cls for cls in vars(manifolds).values()
                if isinstance(cls, type) and issubclass(cls, Manifold) and cls is not Manifold}
    assert set(manifolds._CLASSES.values()) == concrete
    assert all(manifolds._CLASSES[cls.kind] is cls for cls in concrete)


def test_deserialize_rejects_garbage():
    with pytest.raises(Exception):
        deserialize_point(b"not a point")


_SPHERE_HEADER = b'{"dims": [3], "kind": "sphere", "radius": 1.0}\n'
# A valid point payload of Sphere(3), so that only the header is at fault.
_NORTH = np.array([0.0, 0.0, 1.0]).tobytes()
# A valid point payload of SPD(2).
_EYE2 = np.eye(2).tobytes()
# Sphere(3) x Euclidean(2), whose dims must be [5].
_PRODUCT_HEADER = (b'{"kind": "product", "dims": %s, "radius": null, "factors": ['
                   b'{"kind": "sphere", "dims": [3], "radius": 1.0}, '
                   b'{"kind": "euclidean", "dims": [2], "radius": null}]}\n')


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b"garbage", id="no-header-line"),
        pytest.param(_SPHERE_HEADER + b"\x00" * 7, id="payload-not-whole-float64s"),
        pytest.param(b'{"kind": "sphere"}\n' + b"\x00" * 24, id="header-without-dims"),
        pytest.param(b'{"kind": "stiefel", "dims": [3]}\n', id="dims-too-short"),
        pytest.param(b"\xff\xfe\n" + b"\x00" * 24, id="header-not-utf8"),
        pytest.param(b"{kind: sphere\n" + b"\x00" * 24, id="header-not-json"),
        pytest.param(b"[1, 2]\n" + b"\x00" * 24, id="header-not-an-object"),
        pytest.param(b'{"kind": "torus", "dims": [3]}\n', id="unknown-kind"),
        pytest.param(b'{"kind": "sphere", "dims": ["3"]}\n', id="dims-not-numbers"),
        pytest.param(b'{"kind": "euclidean", "dims": [Infinity]}\n', id="dims-infinite"),
        pytest.param(b'{"kind": "product", "dims": [3], "factors": 3}\n', id="factors-not-a-list"),
        pytest.param(b'{"kind": "sphere", "dims": [3], "radius": Infinity}\n', id="radius-infinite"),
        pytest.param(_SPHERE_HEADER + np.zeros(5).tobytes(), id="wrong-payload-size"),
        pytest.param(_SPHERE_HEADER + np.array([np.nan, 0.0, 1.0]).tobytes(), id="non-finite-payload"),
        pytest.param(_SPHERE_HEADER + np.array([0.0, 0.0, 2.0]).tobytes(), id="off-the-sphere"),
        pytest.param(b'{"kind": "sphere", "dims": [3.7], "radius": 1.0}\n' + _NORTH, id="dims-not-integer"),
        pytest.param(b'{"kind": "euclidean", "dims": [true], "radius": null}\n' + _NORTH[:8], id="dims-bool"),
        pytest.param(b'{"kind": "sphere", "dims": [3], "radius": 0}\n' + _NORTH, id="radius-zero"),
        pytest.param(b'{"kind": "sphere", "dims": [3], "radius": false}\n' + _NORTH, id="radius-false"),
        pytest.param(b'{"kind": "sphere", "dims": [3]}\n' + _NORTH, id="radius-missing"),
        pytest.param(_PRODUCT_HEADER % b"[6]" + _NORTH + _NORTH[:16], id="product-dims-too-large"),
        pytest.param(_PRODUCT_HEADER % b"[5, 1]" + _NORTH + _NORTH[:16], id="product-dims-extra-entry"),
        pytest.param(_PRODUCT_HEADER % b"[5.0]" + _NORTH + _NORTH[:16], id="product-dims-not-integer"),
        pytest.param(_PRODUCT_HEADER % b"[]" + _NORTH + _NORTH[:16], id="product-dims-empty"),
        pytest.param(b'{"kind": "euclidean", "dims": [3, 99], "radius": null}\n' + _NORTH, id="euclidean-extra-dim"),
        pytest.param(b'{"kind": "spd", "dims": [2, "junk"], "radius": 7}\n' + _EYE2, id="spd-junk-dim-and-radius"),
        pytest.param(b'{"kind": "sphere", "dims": [3, 5], "radius": 1.0}\n' + _NORTH, id="sphere-extra-dim"),
        pytest.param(b'{"kind": "stiefel", "dims": [3, 1, 1], "radius": null}\n' + _NORTH, id="stiefel-extra-dims"),
        pytest.param(b'{"kind": "euclidean", "dims": [3], "radius": null, "factors": []}\n' + _NORTH,
                     id="euclidean-with-factors"),
        pytest.param(b'{"kind": "spd", "dims": [2], "radius": 7}\n' + _EYE2, id="spd-with-radius"),
    ],
)
def test_deserialize_malformed_blob_raises_invalid_geometry(blob):
    with pytest.raises(InvalidGeometry):
        deserialize_point(blob)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_deserialize_fuzz_yields_value_or_invalid_geometry(data):
    # Truncate or corrupt valid blobs, or send arbitrary bytes: every outcome
    # is either a valid value or InvalidGeometry, never another exception.
    man = data.draw(st.sampled_from([Sphere(3), SPD(2), Stiefel(3, 2), Euclidean(2),
                                     ProductManifold([Sphere(3), Euclidean(2)])]), label="manifold")
    x = man.random_point(np.random.default_rng(0))
    valid = serialize_point(x)
    mode = data.draw(st.sampled_from(["truncate", "flip", "random"]))
    if mode == "truncate":
        blob = valid[: data.draw(st.integers(0, len(valid) - 1))]
    elif mode == "flip":
        i = data.draw(st.integers(0, len(valid) - 1))
        blob = valid[:i] + bytes([valid[i] ^ data.draw(st.integers(1, 255))]) + valid[i + 1:]
    else:
        blob = data.draw(st.binary(max_size=200))
    try:
        out = deserialize_point(blob)
    except InvalidGeometry:
        return
    assert np.all(np.isfinite(out.data))


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
    # dist(x, exp_x(u)) equals ||u|| whenever ||u|| < pi * r.
    man = Sphere(4, radius=1.25)
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
     for man in [Euclidean(3), Sphere(4, radius=2.0), Sphere(5), Stiefel(5, 2), SPD(3),
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
    ambient = rng.standard_normal(xs.shape)
    man.check_tangent(xs, us)
    kernels = [man._retract] + ([man._exp] if man.has_exp else [])
    with np.errstate(over="ignore", invalid="ignore"):
        moved = [man._move(k, xs, us) for k in kernels]
    inner = man._inner_data(xs, us, us)
    projected = man._project(xs, ambient)
    for row, (p, u) in enumerate(zip(points, tangents)):
        with np.errstate(over="ignore", invalid="ignore"):
            for k, stack in zip(kernels, moved):
                assert stack[row].tobytes() == man._move(k, p.data, u.data).tobytes()
        assert inner[row] == man._inner_data(p.data, u.data, u.data)
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
    pytest.param(lambda: Sphere(3, 10**400), id="radius-beyond-float"),
    pytest.param(lambda: Sphere(3, "1"), id="radius-text"),
    pytest.param(lambda: Stiefel(4, np.float64(2)), id="stiefel-float-cols"),
    pytest.param(lambda: SPD(None), id="spd-none"),
    pytest.param(lambda: Euclidean(-10**5000), id="euclidean-huge-negative"),
])
def test_scalar_argument_of_the_wrong_type_or_range_is_invalid_geometry(build):
    with pytest.raises(InvalidGeometry):
        build()


# -- array arguments -------------------------------------------------------------

X3 = Point(Sphere(3), [1.0, 0.0, 0.0])
U3 = Tangent(X3, [0.0, 0.5, 0.0])


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: Point(Sphere(3), ["a", "b", "c"]), "sphere point", id="point-text"),
    pytest.param(lambda: Point(Sphere(3), [[1], [0, 0]]), "sphere point", id="point-ragged"),
    pytest.param(lambda: Point(Sphere(3), np.array([1j, 0, 0])), "sphere point", id="point-complex"),
    pytest.param(lambda: Point(Euclidean(2), [True, False]), "euclidean point", id="point-bool"),
    pytest.param(lambda: Tangent(X3, ["a", "b", "c"]), "sphere tangent", id="tangent-text"),
    pytest.param(lambda: Sphere(3).project_tangent(X3, ["a", "b", "c"]), "ambient array", id="project-text"),
    pytest.param(lambda: Sphere(3).project_tangent(X3, [[1.0], [0.0, 0.0]]), "ambient array",
                 id="project-ragged"),
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
