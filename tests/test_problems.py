"""Objective and oracle tests for the two benchmark problems."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from manimax import (
    Batch,
    EmptyBatch,
    NumericalOverflow,
    Point,
    ProblemError,
    RobustMleProblem,
    SyntheticQuadratic,
    Tangent,
    UnsupportedOperation,
    finite_diff_directional,
    generate_gaussian_instance,
    generate_multiscale_instance,
    generate_quadratic_instance,
    load_instance,
    save_instance_matrix,
)

RNG = np.random.default_rng(7151)


def random_pair(problem, rng):
    return problem.mx.random_point(rng), problem.my.random_point(rng)


# -- batches -------------------------------------------------------------------


def test_batch_full_and_sample():
    b = Batch.full(5)
    assert list(b.indices) == [0, 1, 2, 3, 4]
    assert len(b) == 5
    s = Batch.sample(np.random.default_rng(0), 10, 32)
    assert len(s) == 32
    assert s.indices.min() >= 0 and s.indices.max() < 10


def test_batch_rejects_empty():
    with pytest.raises(EmptyBatch):
        Batch(np.array([], dtype=np.int64))
    with pytest.raises(EmptyBatch):
        Batch.sample(np.random.default_rng(0), 4, 0)


# -- robust MLE ----------------------------------------------------------------


def test_robust_mle_value_zero_case():
    # One observation row a = 0, x = e_{d+1}, Y = I: the lifted residual
    # z - x = (0, ..., 0, 1) - e_{d+1} = 0, logdet I = 0, dist(I, I) = 0.
    prob = RobustMleProblem(np.zeros((1, 3)), c=-5.0)
    x = Point(prob.mx, [0.0, 0.0, 0.0, 1.0])
    y = Point(prob.my, np.eye(4).ravel())
    assert prob.value(x, y) == pytest.approx(0.0, abs=1e-15)


def test_robust_mle_value_explicit():
    # Two rows, identity covariance: value is -(1/2) sum ||z_i - x||^2.
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    prob = RobustMleProblem(a, c=0.0)
    x = Point(prob.mx, [0.0, 0.0, 1.0])
    y = Point(prob.my, np.eye(3).ravel())
    expect = -0.5 * (np.linalg.norm([1.0, 0.0, 0.0]) ** 2 + np.linalg.norm([0.0, 2.0, 0.0]) ** 2)
    assert prob.value(x, y) == pytest.approx(expect, rel=1e-14)


def test_robust_mle_regularizer_sign():
    # Moving Y away from I changes the value by exactly c * dist(Y, I)^2.
    a = RNG.standard_normal((6, 3))
    base = RobustMleProblem(a, c=0.0)
    reg = RobustMleProblem(a, c=-5.0)
    x = base.mx.random_point(RNG)
    y = base.my.random_point(RNG)
    eye = Point(base.my, np.eye(4).ravel())
    gap = reg.value(x, y) - base.value(x, y)
    assert gap == pytest.approx(-5.0 * base.my.dist(y, eye) ** 2, rel=1e-10)


def test_robust_mle_grad_y_matches_euclidean_projection_at_identity():
    # With c = 0 and Y = I the Riemannian gradient reduces to the symmetrized
    # Euclidean partial -(n/2) I + (1/2) sum (z_i - x)(z_i - x)^T.
    a = RNG.standard_normal((8, 3))
    prob = RobustMleProblem(a, c=0.0)
    x = prob.mx.random_point(RNG)
    eye = Point(prob.my, np.eye(4).ravel())
    z = np.hstack([a, np.ones((8, 1))])
    resid = z - x.data
    want = -0.5 * 8 * np.eye(4) + 0.5 * resid.T @ resid
    got = prob.grad_y(x, eye)
    assert_allclose(got.data.reshape(4, 4), 0.5 * (want + want.T), rtol=1e-12)


@pytest.mark.parametrize("wrt", ["x", "y"])
def test_robust_mle_finite_difference(wrt):
    prob = generate_gaussian_instance(5, 20, -5.0, seed=0)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        x, y = random_pair(prob, rng)
        man = prob.mx if wrt == "x" else prob.my
        u = man.random_tangent(x if wrt == "x" else y, rng, norm=1.0)
        g = prob.grad_x(x, y) if wrt == "x" else prob.grad_y(x, y)
        analytic = man.inner(g, u)
        numeric = finite_diff_directional(prob, x, y, u, wrt, h=1e-5)
        worst = max(worst, abs(analytic - numeric) / (1.0 + abs(analytic)))
    assert worst <= 1e-4


def test_robust_mle_full_batch_equals_exact_bitwise():
    prob = generate_gaussian_instance(4, 9, -5.0, seed=3)
    rng = np.random.default_rng(5)
    x, y = random_pair(prob, rng)
    full = Batch.full(prob.sample_count)
    sx = prob.stoch_grad_x(x, y, full, rng)
    sy = prob.stoch_grad_y(x, y, full, rng)
    assert np.array_equal(sx.data, prob.grad_x(x, y).data)
    assert np.array_equal(sy.data, prob.grad_y(x, y).data)


def test_robust_mle_singleton_batches_average_to_exact():
    prob = generate_gaussian_instance(3, 7, -5.0, seed=1)
    rng = np.random.default_rng(2)
    x, y = random_pair(prob, rng)
    acc_x = np.zeros(prob.mx.ambient_size)
    acc_y = np.zeros(prob.my.ambient_size)
    for i in range(prob.sample_count):
        b = Batch(np.array([i]))
        acc_x += prob.stoch_grad_x(x, y, b, rng).data
        acc_y += prob.stoch_grad_y(x, y, b, rng).data
    acc_x /= prob.sample_count
    acc_y /= prob.sample_count
    assert_allclose(acc_x, prob.grad_x(x, y).data, rtol=1e-10, atol=1e-12)
    assert_allclose(acc_y, prob.grad_y(x, y).data, rtol=1e-10, atol=1e-12)


def test_robust_mle_stochastic_unbiased():
    # Monte Carlo mean of single-row estimates converges to the exact gradient
    # at the 1/sqrt(trials) rate; 4 sigma tolerance keeps the test stable.
    prob = generate_gaussian_instance(3, 12, -5.0, seed=4)
    rng = np.random.default_rng(9)
    x, y = random_pair(prob, rng)
    trials = 20000
    draws = np.empty((trials, prob.my.ambient_size))
    for t in range(trials):
        b = Batch.sample(rng, prob.sample_count, 1)
        draws[t] = prob.stoch_grad_y(x, y, b, rng).data
    exact = prob.grad_y(x, y).data
    err = draws.mean(axis=0) - exact
    sigma = draws.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(err) <= 4.0 * sigma + 1e-12)


def test_robust_mle_rejects_bad_batch_index():
    prob = generate_gaussian_instance(3, 5, -5.0, seed=0)
    rng = np.random.default_rng(0)
    x, y = random_pair(prob, rng)
    with pytest.raises(Exception):
        prob.stoch_grad_x(x, y, Batch(np.array([5])), rng)


def test_robust_mle_default_start_is_identity_covariance():
    prob = generate_gaussian_instance(4, 10, -5.0, seed=0)
    x, y = prob.default_start(np.random.default_rng(0))
    assert_allclose(y.data, np.eye(5).ravel())
    assert x.data.shape == (5,)


# -- synthetic quadratic ---------------------------------------------------------


def test_quadratic_value_and_grads_explicit():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([0.5, -0.5])
    prob = SyntheticQuadratic(A, mu=2.0, offset=b, noise_sigma=0.0)
    x = Point(prob.mx, [1.0, 0.0])
    y = Point(prob.my, [3.0, 4.0])
    # f = <Ax, y> - (mu/2)||y||^2 + <b, x>
    want = 3.0 - 25.0 + 0.5
    assert prob.value(x, y) == pytest.approx(want, rel=1e-15)
    # grad_y = Ax - mu y (Euclidean side)
    assert_allclose(prob.grad_y(x, y).data, np.array([1.0, 0.0]) - 2.0 * np.array([3.0, 4.0]))
    # grad_x = tangent projection of A^T y + b
    amb = A.T @ y.data + b
    want_gx = amb - np.dot(amb, x.data) * x.data
    assert_allclose(prob.grad_x(x, y).data, want_gx, rtol=1e-14)


def test_quadratic_inner_max_oracle():
    prob = generate_quadratic_instance(6, 4, mu=1.5, seed=2, noise_sigma=0.0)
    x = prob.mx.random_point(RNG)
    y_star, phi = prob.inner_max_oracle(x)
    # the ascent gradient vanishes at the maximizer
    g = prob.grad_y(x, y_star)
    assert np.linalg.norm(g.data) <= 1e-12
    assert phi == pytest.approx(prob.value(x, y_star), rel=1e-12)


@pytest.mark.parametrize("wrt", ["x", "y"])
def test_quadratic_finite_difference(wrt):
    prob = generate_quadratic_instance(20, 10, mu=1.0, seed=0, noise_sigma=0.0)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        x, y = random_pair(prob, rng)
        man = prob.mx if wrt == "x" else prob.my
        u = man.random_tangent(x if wrt == "x" else y, rng, norm=1.0)
        g = prob.grad_x(x, y) if wrt == "x" else prob.grad_y(x, y)
        analytic = man.inner(g, u)
        numeric = finite_diff_directional(prob, x, y, u, wrt, h=1e-5)
        worst = max(worst, abs(analytic - numeric) / (1.0 + abs(analytic)))
    assert worst <= 1e-4


def test_quadratic_strong_concavity_along_lines():
    # Second difference of t -> f(x, y + t v) is exactly -mu ||v||^2.
    prob = generate_quadratic_instance(5, 3, mu=2.5, seed=1, noise_sigma=0.0)
    x, y = random_pair(prob, RNG)
    v = RNG.standard_normal(3)
    t = 0.37
    yp = Point(prob.my, y.data + t * v)
    ym = Point(prob.my, y.data - t * v)
    second = (prob.value(x, yp) - 2.0 * prob.value(x, y) + prob.value(x, ym)) / t**2
    assert second <= -2.5 * np.dot(v, v) + 1e-9


def test_quadratic_noise_scale_and_unbiasedness():
    prob = generate_quadratic_instance(4, 3, mu=1.0, seed=0, noise_sigma=0.2)
    x, y = random_pair(prob, RNG)
    exact = prob.grad_y(x, y).data
    trials = 8000
    rng = np.random.default_rng(11)
    b = Batch.full(1)
    draws = np.empty((trials, 3))
    for t in range(trials):
        draws[t] = prob.stoch_grad_y(x, y, b, rng).data
    err = draws.mean(axis=0) - exact
    sd = draws.std(axis=0, ddof=1)
    assert_allclose(sd, 0.2, rtol=0.1)  # sigma / sqrt(1)
    assert np.all(np.abs(err) <= 4.0 * sd / np.sqrt(trials) + 1e-12)


def test_quadratic_noise_shrinks_with_batch():
    prob = generate_quadratic_instance(4, 3, mu=1.0, seed=0, noise_sigma=0.3)
    x, y = random_pair(prob, RNG)
    rng = np.random.default_rng(13)
    b16 = Batch.full(1)
    big = Batch(np.zeros(16, dtype=np.int64))
    draws = np.array([prob.stoch_grad_y(x, y, big, rng).data for _ in range(4000)])
    sd = draws.std(axis=0, ddof=1)
    assert_allclose(sd, 0.3 / 4.0, rtol=0.15)


def test_quadratic_sphere_noise_stays_tangent():
    prob = generate_quadratic_instance(6, 4, mu=1.0, seed=3, noise_sigma=0.5)
    x, y = random_pair(prob, RNG)
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = prob.stoch_grad_x(x, y, Batch.full(1), rng)
        assert abs(np.dot(g.data, x.data)) <= 1e-10


def test_quadratic_zero_sigma_stochastic_equals_exact():
    prob = generate_quadratic_instance(5, 4, mu=1.0, seed=0, noise_sigma=0.0)
    x, y = random_pair(prob, RNG)
    rng = np.random.default_rng(0)
    sx = prob.stoch_grad_x(x, y, Batch.full(1), rng)
    sy = prob.stoch_grad_y(x, y, Batch.full(1), rng)
    assert np.array_equal(sx.data, prob.grad_x(x, y).data)
    assert np.array_equal(sy.data, prob.grad_y(x, y).data)


@pytest.mark.parametrize("index", [-1, 1, 7])
@pytest.mark.parametrize("oracle", ["stoch_grad_x", "stoch_grad_y"])
def test_quadratic_rejects_bad_batch_index(oracle, index):
    # The quadratic has one sample, so 0 is the only valid index.
    prob = generate_quadratic_instance(5, 4, mu=1.0, seed=0)
    x, y = random_pair(prob, RNG)
    with pytest.raises(ProblemError, match="out of range"):
        getattr(prob, oracle)(x, y, Batch(np.array([0, index])), np.random.default_rng(0))


def test_quadratic_default_start_zero_dual():
    prob = generate_quadratic_instance(5, 4, mu=1.0, seed=0)
    x, y = prob.default_start(np.random.default_rng(4))
    assert_allclose(y.data, np.zeros(4))
    assert x.data.shape == (5,)
    assert np.linalg.norm(x.data) == pytest.approx(1.0, rel=1e-12)


def test_multiscale_instance_spectrum():
    prob = generate_multiscale_instance(8, 6, span=3.0, seed=0, noise_sigma=0.0)
    sv = np.linalg.svd(prob.a_mat, compute_uv=False)
    assert_allclose(sv**2, 10.0 ** np.linspace(0.0, -3.0, 6), rtol=1e-10)
    assert_allclose(prob.b, np.zeros(8), atol=0.0)


# -- instance files ----------------------------------------------------------------


def test_instance_matrix_round_trip(tmp_path):
    path = tmp_path / "inst.bin"
    orig = generate_gaussian_instance(3, 8, -2.5, seed=7)
    save_instance_matrix(path, orig)
    again = load_instance(path)
    assert np.array_equal(again.a, orig.a)
    assert again.c == orig.c
    assert again.sample_count == orig.sample_count


@pytest.mark.parametrize("text", [
    "nonsense without equals\n",
    "hello\ncolour = red\nd = 3\nd = 4\nn = 11\nc = -5.0\nseed = 42\n",
    "d = 4\nn = 11\nc = -5.0\nseed = 42\n",  # the text form of earlier versions
    "",
], ids=["junk", "junk-among-fields", "text-config", "empty"])
def test_load_instance_rejects_junk(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ProblemError, match="RMLEDAT1"):
        load_instance(path)


def _matrix_blob(d=3, n=4, c=-2.5):
    head = b"RMLEDAT1" + struct.pack("<qqd", d, n, c)
    return head + np.arange(n * d, dtype="<f8").tobytes()


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(_matrix_blob()[:8], id="magic-only"),
        pytest.param(_matrix_blob()[:20], id="header-cut-short"),
        pytest.param(_matrix_blob()[:-1], id="data-cut-mid-value"),
        pytest.param(_matrix_blob()[:-8], id="one-value-missing"),
        pytest.param(_matrix_blob() + b"\x00" * 8, id="trailing-value"),
        pytest.param(_matrix_blob(d=-1, n=-4), id="negative-sizes"),
        pytest.param(_matrix_blob(d=0), id="empty-rows"),
        pytest.param(_matrix_blob(c=float("nan")), id="c-nan"),
        pytest.param(_matrix_blob(c=float("inf")), id="c-inf"),
    ],
)
def test_load_instance_malformed_raises_problem_error(tmp_path, blob):
    path = tmp_path / "inst.bin"
    path.write_bytes(blob)
    with pytest.raises(ProblemError):
        load_instance(path)


def _load_blob(tmp_path, blob):
    path = tmp_path / "inst.bin"
    path.write_bytes(blob)
    return load_instance(path)


_NAN_DATA = b"RMLEDAT1" + struct.pack("<qqd", 3, 4, -2.5) + np.array([0.0] * 5 + [np.nan] + [0.0] * 6, "<f8").tobytes()


def _quadratic(matrix=np.ones((2, 3)), mu=1.0, offset=np.zeros(3), sigma=0.1):
    return lambda tmp: SyntheticQuadratic(matrix, mu, offset, sigma)


def _multiscale(span):
    return lambda tmp: generate_multiscale_instance(4, 3, span=span, seed=0)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda tmp: _load_blob(tmp, _NAN_DATA), "data contains non-finite entries", id="data-nan"),
        pytest.param(lambda tmp: SyntheticQuadratic(np.ones(3), 1.0, np.zeros(3)), "matrix must be 2-d",
                     id="quadratic-1d-matrix"),
        pytest.param(lambda tmp: SyntheticQuadratic(np.ones((2, 3)), 1.0, np.zeros(2)),
                     "offset length must match the column count", id="quadratic-offset-length"),
        pytest.param(lambda tmp: generate_multiscale_instance(4, 3, span=0, seed=0), "span must be positive",
                     id="multiscale-zero-span"),
        pytest.param(_multiscale(math.nan), "span must be positive and finite", id="multiscale-nan-span"),
        pytest.param(_multiscale(math.inf), "span must be positive and finite", id="multiscale-inf-span"),
        pytest.param(_quadratic(matrix=np.full((2, 3), np.nan)), "matrix contains non-finite entries",
                     id="quadratic-nan-matrix"),
        pytest.param(_quadratic(matrix=np.full((2, 3), np.inf)), "matrix contains non-finite entries",
                     id="quadratic-inf-matrix"),
        pytest.param(_quadratic(offset=np.full(3, np.nan)), "offset contains non-finite entries", id="quadratic-nan-offset"),
        pytest.param(_quadratic(offset=np.full(3, -np.inf)), "offset contains non-finite entries", id="quadratic-inf-offset"),
        pytest.param(_quadratic(mu=0.0), "mu must be positive and finite", id="quadratic-zero-mu"),
        pytest.param(_quadratic(mu=math.nan), "mu must be positive and finite", id="quadratic-nan-mu"),
        pytest.param(_quadratic(mu=math.inf), "mu must be positive and finite", id="quadratic-inf-mu"),
        pytest.param(_quadratic(sigma=-1.0), "noise sigma must be nonnegative and finite", id="quadratic-negative-sigma"),
        pytest.param(_quadratic(sigma=math.nan), "noise sigma must be nonnegative and finite", id="quadratic-nan-sigma"),
        pytest.param(_quadratic(sigma=math.inf), "noise sigma must be nonnegative and finite", id="quadratic-inf-sigma"),
    ],
)
def test_problem_inputs_out_of_range_raise_problem_error(tmp_path, build, message):
    with pytest.raises(ProblemError, match=message):
        build(tmp_path)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, 8 + 24 + 96), flips=st.lists(st.tuples(st.integers(0, 127), st.integers(1, 255)), max_size=3))
def test_load_instance_fuzz_yields_problem_or_problem_error(tmp_path_factory, cut, flips):
    # A binary instance truncated and corrupted at random either loads with
    # the declared shape or raises ProblemError.
    blob = bytearray(_matrix_blob()[:cut])
    for i, x in flips:
        if i < len(blob):
            blob[i] ^= x
    path = tmp_path_factory.mktemp("fuzz") / "inst.bin"
    path.write_bytes(bytes(blob))
    try:
        prob = load_instance(path)
    except ProblemError:
        return
    assert prob.a.shape == (prob.n, prob.d)


# -- shared plumbing ----------------------------------------------------------------


def test_unsupported_oracles_raise():
    prob = generate_gaussian_instance(3, 5, -5.0, seed=0)
    with pytest.raises(UnsupportedOperation):
        prob.inner_max_oracle(prob.mx.random_point(RNG))


def test_overflow_guard():
    # A covariance with huge dynamic range drives the quadratic term to inf.
    prob = RobustMleProblem(np.full((2, 2), 1e200), c=-5.0)
    x = prob.mx.random_point(RNG)
    y = Point(prob.my, np.eye(3).ravel())
    with pytest.raises(Exception):
        prob.value(x, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_quadratic_value_overflow_is_typed_not_a_warning(scale):
    # y @ y overflows where A^T y does not: a NumericalOverflow, no warning.
    prob = generate_quadratic_instance(20, 10, 1.0, 0)
    x = prob.mx.random_point(RNG).data
    with pytest.raises(NumericalOverflow):
        prob._value(x, np.full(10, scale))
    with pytest.raises(NumericalOverflow):
        prob._value(np.stack([x, x]), np.stack([np.zeros(10), np.full(10, scale)]))


# -- row-wise kernels --------------------------------------------------------------


@pytest.mark.parametrize(
    "prob",
    [generate_gaussian_instance(4, 9, -5.0, seed=1), generate_quadratic_instance(7, 5, 1.0, 2, noise_sigma=0.3)],
    ids=["robust-mle", "quadratic"],
)
def test_kernels_on_a_stack_equal_the_single_rows(prob):
    # Row i of every kernel on a stack of points has the bits of the kernel on
    # point i alone, the stochastic ones included: per-row batches, one shared
    # batch, and noise drawn row by row from the generator of each row.
    rng = np.random.default_rng(3)
    pairs = [random_pair(prob, rng) for _ in range(5)]
    xs = np.stack([x.data for x, _ in pairs])
    ys = np.stack([y.data for _, y in pairs])
    for row, (x, y) in enumerate(pairs):
        assert prob._value(xs, ys)[row] == prob._value(x.data, y.data)
        for kernel in (prob._grad_x, prob._grad_y):
            assert kernel(xs, ys)[row].tobytes() == kernel(x.data, y.data).tobytes()

    class Rows:
        """Noise of row i from generator i, as the solver's streams draw it."""

        def __init__(self, seeds):
            self.gens = [np.random.default_rng(s) for s in seeds]

        def standard_normal(self, shape):
            return np.stack([g.standard_normal(shape[1:]) for g in self.gens])

    n = prob.sample_count
    per_row = np.random.default_rng(4).integers(0, n, size=(5, 3))
    for kernel in (prob._stoch_grad_x, prob._stoch_grad_y):
        for idx in (per_row, np.arange(n)):
            stacked = kernel(xs, ys, idx, Rows(range(5)))
            for row, (x, y) in enumerate(pairs):
                one = idx[row] if idx.ndim == 2 else idx
                alone = kernel(x.data, y.data, one, np.random.default_rng(row))
                assert stacked[row].tobytes() == alone.tobytes()


# -- scalar arguments ------------------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), "1", np.zeros(3)), id="quadratic-text-mu"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), True, np.zeros(3)), id="quadratic-bool-mu"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, np.zeros(3), None), id="quadratic-none-sigma"),
    pytest.param(lambda: generate_multiscale_instance(4, 3, span="1", seed=0), id="multiscale-text-span"),
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), "x"), id="robust-mle-text-c"),
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), True), id="robust-mle-bool-c"),
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), 10**400), id="robust-mle-c-beyond-float"),
    pytest.param(lambda: generate_gaussian_instance(2.5, 4, 1.0, 0), id="gaussian-float-d"),
    pytest.param(lambda: generate_gaussian_instance(3, -4, 1.0, 0), id="gaussian-negative-n"),
    pytest.param(lambda: generate_gaussian_instance(3, 4, 1.0, None), id="gaussian-none-seed"),
    pytest.param(lambda: generate_quadratic_instance(-1, 3, 1.0, 0), id="quadratic-negative-k"),
    pytest.param(lambda: generate_quadratic_instance(4, True, 1.0, 0), id="quadratic-bool-m"),
    pytest.param(lambda: generate_quadratic_instance(4, 3, 1.0, -1), id="quadratic-negative-seed"),
    pytest.param(lambda: generate_multiscale_instance(4, 0, 2.0, 0), id="multiscale-zero-m"),
    pytest.param(lambda: generate_multiscale_instance(4, 3, 2.0, 1.5), id="multiscale-float-seed"),
    pytest.param(lambda: Batch.sample(np.random.default_rng(0), 4, 1.5), id="batch-float-size"),
    pytest.param(lambda: generate_quadratic_instance(1, 3, 1.0, 0), id="quadratic-k-1"),
    pytest.param(lambda: generate_multiscale_instance(1, 3, 2.0, 0), id="multiscale-k-1"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 1)), 1.0, np.zeros(1)), id="quadratic-one-column"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((0, 3)), 1.0, np.zeros(3)), id="quadratic-no-rows"),
])
def test_scalar_argument_of_the_wrong_type_or_range_is_a_problem_error(build):
    with pytest.raises(ProblemError):
        build()


# -- array arguments -------------------------------------------------------------


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: RobustMleProblem([["a", "b"]], -5.0), "data", id="data-text"),
    pytest.param(lambda: RobustMleProblem([[1.0, 2.0], [3.0]], -5.0), "data", id="data-ragged"),
    pytest.param(lambda: RobustMleProblem([[True, False]], -5.0), "data", id="data-bool"),
    pytest.param(lambda: SyntheticQuadratic([[1, "x"]], 1.0, [0, 0]), "matrix", id="matrix-text"),
    pytest.param(lambda: SyntheticQuadratic([[1.0, 2.0], [3.0]], 1.0, [0, 0]), "matrix", id="matrix-ragged"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, ["a", "b", "c"]), "offset", id="offset-text"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, np.zeros((1, 3))), "offset", id="offset-2d"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 1)), 1.0, np.zeros(1)), "k", id="one-column"),
    pytest.param(lambda: Batch(np.array([0.7])), "batch indices", id="batch-float"),
    pytest.param(lambda: Batch([1.9, 2.5]), "batch indices", id="batch-floats"),
    pytest.param(lambda: Batch([True]), "batch indices", id="batch-bool"),
    pytest.param(lambda: Batch(np.zeros((2, 2), dtype=int)), "batch indices", id="batch-2d"),
])
def test_malformed_array_argument_is_a_problem_error(build, name):
    with pytest.raises(ProblemError, match=name) as err:
        build()
    assert not isinstance(err.value, EmptyBatch)
