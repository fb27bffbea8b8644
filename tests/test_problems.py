"""Objective and oracle tests for the two benchmark problems."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from manimax import (
    Batch,
    EmptyBatch,
    Method,
    NumericalOverflow,
    Point,
    ProblemError,
    RobustMleProblem,
    SolverConfig,
    StopReason,
    SyntheticQuadratic,
    Tangent,
    UnsupportedOperation,
    finite_diff_directional,
    generate_gaussian_instance,
    generate_multiscale_instance,
    generate_quadratic_instance,
    run,
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
    # The sample count n is a count of at least 1, like the batch size.
    for build in (lambda: Batch.sample(np.random.default_rng(0), 0, 1),
                  lambda: Batch.sample(np.random.default_rng(0), 1.5, 1),
                  lambda: Batch.full(1.5), lambda: Batch.full("a")):
        with pytest.raises(EmptyBatch, match="^sample count must be"):
            build()


@pytest.mark.parametrize("rng", [None, 0, np.random.RandomState(0)], ids=["none", "seed", "random-state"])
@pytest.mark.parametrize("draw", [
    lambda prob, x, y, rng: Batch.sample(rng, 4, 1),
    lambda prob, x, y, rng: prob.stoch_grad_x(x, y, Batch.full(1), rng),
    lambda prob, x, y, rng: prob.stoch_grad_y(x, y, Batch.full(1), rng),
], ids=["batch-sample", "stoch-grad-x", "stoch-grad-y"])
def test_stochastic_draws_take_a_numpy_generator(draw, rng):
    # Checked before any draw: a legacy RandomState keeps its state.
    prob = generate_quadratic_instance(5, 4, mu=1.0, seed=0, noise_sigma=0.5)
    x, y = random_pair(prob, np.random.default_rng(0))
    state = rng.get_state()[1].copy() if isinstance(rng, np.random.RandomState) else None
    with pytest.raises(ProblemError, match=rf"^rng must be a numpy.random.Generator, got {type(rng).__name__}$"):
        draw(prob, x, y, rng)
    if state is not None:
        assert np.array_equal(rng.get_state()[1], state)


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
        numeric = finite_diff_directional(prob, x, y, u, wrt)
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


def test_robust_mle_memo_rows_have_the_bits_of_fresh_rows():
    # The full rows z - x of the last x are kept read-only and served again
    # to an equal x; a stack's row i is the single row, and every kernel on
    # a warm memo has the bits of the kernel on a fresh problem.
    prob = generate_gaussian_instance(4, 9, -5.0, seed=1)
    rng = np.random.default_rng(4)
    pairs = [random_pair(prob, rng) for _ in range(3)]
    xs, ys = (np.stack([p.data for p in side]) for side in zip(*pairs))
    for x in (xs, xs[1]):
        first = prob._quad_rows(x, None)
        assert prob._quad_rows(x.copy(), None) is first and not first.flags.writeable
        assert np.array_equal(first, prob.z - x[..., None, :])
    for i in range(3):
        assert np.array_equal(prob._quad_rows(xs, None)[i], prob._quad_rows(xs[i], None))
    for kernel in ("_value", "_grad_x", "_grad_y"):
        prob._quad_rows(xs, None)
        fresh = generate_gaussian_instance(4, 9, -5.0, seed=1)
        assert np.array_equal(getattr(prob, kernel)(xs, ys), getattr(fresh, kernel)(xs, ys))


def test_robust_mle_rows_of_an_x_changed_in_place_are_fresh():
    prob = generate_gaussian_instance(4, 9, -5.0, seed=1)
    x, y = random_pair(prob, np.random.default_rng(6))
    x, y = x.data.copy(), y.data
    before = prob._quad_rows(x, None)
    g = prob._grad_x(x, y)
    x[:2] = x[1::-1]  # another point of the sphere, in the same array
    after = prob._quad_rows(x, None)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, prob.z - x)
    fresh = generate_gaussian_instance(4, 9, -5.0, seed=1)
    assert np.array_equal(prob._grad_x(x, y), fresh._grad_x(x, y))
    assert not np.array_equal(prob._grad_x(x, y), g)


def test_robust_mle_batches_never_read_the_row_memo():
    # With the memo poisoned, a batch's gradients still have the bits of
    # the same batch on a fresh problem, and the memo is left as it was.
    prob = generate_gaussian_instance(4, 9, -5.0, seed=1)
    x, y = (p.data for p in random_pair(prob, np.random.default_rng(8)))
    prob._quad_rows(x, None)
    key, rows = prob._rows_memo
    prob._rows_memo = poisoned = (key, np.zeros_like(rows))
    fresh = generate_gaussian_instance(4, 9, -5.0, seed=1)
    for idx in (np.arange(prob.sample_count), np.array([2, 0, 2])):
        for kernel in ("_grad_x", "_grad_y"):
            assert np.array_equal(getattr(prob, kernel)(x, y, idx), getattr(fresh, kernel)(x, y, idx))
    assert prob._rows_memo is poisoned
    assert not np.array_equal(prob._grad_x(x, y), fresh._grad_x(x, y))  # the exact kernel reads the poison


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
        numeric = finite_diff_directional(prob, x, y, u, wrt)
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
    prob = generate_multiscale_instance(8, 6, seed=0)
    sv = np.linalg.svd(prob.a_mat, compute_uv=False)
    assert_allclose(sv**2, 10.0 ** np.linspace(0.0, -5.0, 6), rtol=1e-10)
    assert_allclose(prob.b, np.zeros(8), atol=0.0)
    assert prob.noise_sigma == 0.0


def _quadratic(matrix=np.ones((2, 3)), mu=1.0, offset=np.zeros(3), sigma=0.1):
    return lambda: SyntheticQuadratic(matrix, mu, offset, sigma)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: RobustMleProblem(np.array([0.0] * 5 + [np.nan] + [0.0] * 6).reshape(4, 3), -2.5),
                     "data contains non-finite entries", id="data-nan"),
        pytest.param(lambda: RobustMleProblem(np.array([[0.0, 1.0], [np.inf, 2.0]]), -2.5),
                     "data contains non-finite entries", id="data-inf"),
        pytest.param(lambda: RobustMleProblem(np.array([[0.0, -np.inf]]), -2.5),
                     "data contains non-finite entries", id="data-negative-inf"),
        pytest.param(lambda: RobustMleProblem(np.ones((4, 3)), math.nan), "c must be finite", id="c-nan"),
        pytest.param(lambda: RobustMleProblem(np.ones((4, 3)), -math.inf), "c must be finite", id="c-inf"),
        pytest.param(lambda: SyntheticQuadratic(np.ones(3), 1.0, np.zeros(3)), "matrix must be 2-d",
                     id="quadratic-1d-matrix"),
        pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, np.zeros(2)),
                     "offset length must match the column count", id="quadratic-offset-length"),
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
def test_problem_inputs_out_of_range_raise_problem_error(build, message):
    with pytest.raises(ProblemError, match=message):
        build()


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
    # y @ y overflows where A^T y does not: a NumericalOverflow, no warning,
    # from the public value, which opens its own errstate, and from the
    # kernel under the errstate that its caller holds.
    prob = generate_quadratic_instance(20, 10, 1.0, 0)
    x = prob.mx.random_point(RNG)
    with pytest.raises(NumericalOverflow):
        prob.value(x, Point(prob.my, np.full(10, scale)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflow):
            prob._value(x.data, np.full(10, scale))
        with pytest.raises(NumericalOverflow):
            prob._value(np.stack([x.data, x.data]), np.stack([np.zeros(10), np.full(10, scale)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_a_run_whose_value_overflows_stops_typed_not_with_a_warning(scale):
    # y = scale * (1, 1) has A^T y = 0 exactly and mu y tiny, so the gradients,
    # their norms and the step stay finite, while y @ y overflows in the value
    # that iterate 0 records.
    prob = SyntheticQuadratic(np.array([[1.0, 1.0], [-1.0, -1.0]]), 1e-300, np.array([0.5, -0.25]), 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=5, seed=0), y0=Point(prob.my, np.full(2, scale)))
    assert trace.stop_reason is StopReason.NUMERICAL_ERROR
    assert trace.error == "NumericalOverflow: objective overflowed"
    assert (trace.final_state.t, trace.records) == (0, [])


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
    for kernel in (prob._grad_x, prob._grad_y):
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
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), "x"), id="robust-mle-text-c"),
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), True), id="robust-mle-bool-c"),
    pytest.param(lambda: RobustMleProblem(np.ones((3, 2)), 10**400), id="robust-mle-c-beyond-float"),
    pytest.param(lambda: generate_gaussian_instance(2.5, 4, 1.0, 0), id="gaussian-float-d"),
    pytest.param(lambda: generate_gaussian_instance(3, -4, 1.0, 0), id="gaussian-negative-n"),
    pytest.param(lambda: generate_gaussian_instance(3, 4, 1.0, None), id="gaussian-none-seed"),
    pytest.param(lambda: generate_quadratic_instance(-1, 3, 1.0, 0), id="quadratic-negative-k"),
    pytest.param(lambda: generate_quadratic_instance(4, True, 1.0, 0), id="quadratic-bool-m"),
    pytest.param(lambda: generate_quadratic_instance(4, 3, 1.0, -1), id="quadratic-negative-seed"),
    pytest.param(lambda: generate_multiscale_instance(4, 0, 0), id="multiscale-zero-m"),
    pytest.param(lambda: generate_multiscale_instance(4, 3, 1.5), id="multiscale-float-seed"),
    pytest.param(lambda: Batch.sample(np.random.default_rng(0), 4, 1.5), id="batch-float-size"),
    pytest.param(lambda: generate_quadratic_instance(1, 3, 1.0, 0), id="quadratic-k-1"),
    pytest.param(lambda: generate_multiscale_instance(1, 3, 0), id="multiscale-k-1"),
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
    pytest.param(lambda: RobustMleProblem(np.ones(3), -5.0), "data must be 2-d", id="data-1d"),
    pytest.param(lambda: RobustMleProblem(np.ones((2, 2, 2)), -5.0), "data must be 2-d", id="data-3d"),
    pytest.param(lambda: RobustMleProblem(np.float64(1.0), -5.0), "data must be 2-d", id="data-scalar"),
    pytest.param(lambda: RobustMleProblem(np.ones((0, 3)), -5.0), "data must be a nonempty", id="data-no-rows"),
    pytest.param(lambda: RobustMleProblem(np.ones((4, 0)), -5.0), "data must be a nonempty", id="data-no-columns"),
    pytest.param(lambda: RobustMleProblem(np.ones((2, 2), dtype=complex), -5.0), "data", id="data-complex"),
    pytest.param(lambda: RobustMleProblem(np.array([[1.0, None]], dtype=object), -5.0), "data", id="data-object"),
    pytest.param(lambda: SyntheticQuadratic([[1, "x"]], 1.0, [0, 0]), "matrix", id="matrix-text"),
    pytest.param(lambda: SyntheticQuadratic([[1.0, 2.0], [3.0]], 1.0, [0, 0]), "matrix", id="matrix-ragged"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, ["a", "b", "c"]), "offset", id="offset-text"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 3)), 1.0, np.zeros((1, 3))), "offset", id="offset-2d"),
    pytest.param(lambda: SyntheticQuadratic(np.ones((2, 1)), 1.0, np.zeros(1)), "k", id="one-column"),
    pytest.param(lambda: Batch(np.array([0.7])), "batch indices", id="batch-float"),
    pytest.param(lambda: Batch([1.9, 2.5]), "batch indices", id="batch-floats"),
    pytest.param(lambda: Batch([True]), "batch indices", id="batch-bool"),
    pytest.param(lambda: Batch(np.zeros((2, 2), dtype=int)), "batch indices", id="batch-2d"),
    pytest.param(lambda: Batch([[1], [2, 3]]), "batch indices", id="batch-ragged"),
])
def test_malformed_array_argument_is_a_problem_error(build, name):
    with pytest.raises(ProblemError, match=name) as err:
        build()
    assert not isinstance(err.value, EmptyBatch)


def test_saved_data_builds_the_same_problem(tmp_path):
    # Data on disk is read with numpy: RobustMleProblem(np.load(path), c).
    path = tmp_path / "data.npy"
    orig = generate_gaussian_instance(3, 8, -2.5, seed=7)
    np.save(path, orig.a)
    again = RobustMleProblem(np.load(path), orig.c)
    assert again.a.tobytes() == orig.a.tobytes()
    assert again.c == orig.c
    assert again.sample_count == orig.sample_count


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=3),
       values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=27, max_size=27))
def test_data_array_builds_exactly_when_2d_nonempty_and_finite(shape, values):
    # Any float array either builds a problem of its own shape or raises ProblemError,
    # and which one is decided by its shape and finiteness alone.
    data = np.array(values[:math.prod(shape)]).reshape(shape)
    valid = data.ndim == 2 and data.size > 0 and bool(np.isfinite(data).all())
    try:
        prob = RobustMleProblem(data, -2.5)
    except ProblemError:
        assert not valid
        return
    assert valid and prob.a.shape == (prob.n, prob.d) == data.shape
