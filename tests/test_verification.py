"""Tests for the verification toolbox itself: fits, batteries, audits."""
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manimax import (
    SPD,
    Euclidean,
    InsufficientData,
    InvalidInput,
    Point,
    ProductManifold,
    Sphere,
    Stiefel,
    Tangent,
    UnsupportedOperation,
    audit_transport_isometry,
    check_adaptive_sum_inequality,
    estimate_retraction_constants,
    finite_diff_directional,
    fit_rate,
    generate_quadratic_instance,
)

RNG = np.random.default_rng(33)


# -- rate fitting ----------------------------------------------------------------


def test_fit_rate_recovers_exact_power_law():
    ts = np.logspace(2, 5, 8)
    pairs = [(t, 3.7 * t**-0.62) for t in ts]
    fit = fit_rate(pairs)
    assert abs(fit.slope - (-0.62)) <= 1e-10
    assert abs(fit.intercept - math.log(3.7)) <= 1e-10
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_rate_r2_penalizes_curvature():
    ts = np.logspace(2, 4, 6)
    pairs = [(t, math.exp(-t / 500.0) + 1e-12) for t in ts]
    fit = fit_rate(pairs)
    assert fit.r2 < 0.9


def test_fit_rate_needs_four_points():
    with pytest.raises(InsufficientData):
        fit_rate([(10.0, 1.0), (100.0, 0.5), (1000.0, 0.2)])


def test_fit_rate_needs_two_decades():
    pairs = [(t, 1.0 / t) for t in (100.0, 200.0, 400.0, 800.0)]
    with pytest.raises(InsufficientData):
        fit_rate(pairs)


def test_fit_rate_rejects_nonpositive_values():
    pairs = [(10.0, 1.0), (100.0, 0.5), (1000.0, 0.0), (10000.0, 0.1)]
    with pytest.raises(InvalidInput):
        fit_rate(pairs)
    pairs = [(10.0, 1.0), (100.0, 0.5), (1000.0, math.nan), (10000.0, 0.1)]
    with pytest.raises(InvalidInput):
        fit_rate(pairs)


def test_fit_rate_two_decades_boundary_inclusive():
    pairs = [(100.0, 1.0), (1000.0, 0.5), (5000.0, 0.2), (10000.0, 0.1)]
    fit = fit_rate(pairs)  # exactly two decades must be accepted
    assert fit.slope < 0


# -- adaptive sum inequality --------------------------------------------------------


def test_sum_inequality_singleton():
    # a = (1), alpha = 0.5: middle is 1, the bounds are [1, 2].
    assert check_adaptive_sum_inequality([1.0], 0.5)


def test_sum_inequality_constant_sequence():
    assert check_adaptive_sum_inequality(np.ones(100), 0.5)
    # direct evaluation against the closed-form bounds
    seq = np.ones(100)
    middle = float(np.sum(seq / np.cumsum(seq) ** 0.5))
    assert 10.0 - 1e-12 <= middle <= 20.0 + 1e-12


def test_sum_inequality_log_form():
    assert check_adaptive_sum_inequality(np.ones(50), 1.0)
    seq = np.abs(np.random.default_rng(0).standard_normal(80)) + 0.01
    assert check_adaptive_sum_inequality(seq, 1.0)


def test_sum_inequality_with_zeros():
    seq = np.array([2.0, 0.0, 0.0, 3.0, 0.0, 1.0])
    assert check_adaptive_sum_inequality(seq, 0.3)
    assert check_adaptive_sum_inequality(seq, 1.0)


def test_sum_inequality_battery():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        seq = np.abs(rng.standard_normal(length)) * float(rng.uniform(0.01, 100.0))
        seq[rng.random(length) < 0.2] = 0.0
        seq[0] = max(float(seq[0]), 1e-9)
        alpha = 1.0 if rng.random() < 0.15 else float(rng.uniform(0.01, 0.99))
        assert check_adaptive_sum_inequality(seq, alpha)


def test_sum_inequality_input_validation():
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([], 0.5)
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([0.0, 1.0], 0.5)  # a1 must be positive
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([1.0, -2.0], 0.5)
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([1.0, math.inf], 0.5)
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([1.0], 0.0)
    with pytest.raises(InvalidInput):
        check_adaptive_sum_inequality([1.0], 1.5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alpha=st.floats(0.01, 1.0),
    length=st.integers(1, 120),
)
def test_sum_inequality_property(seed, alpha, length):
    rng = np.random.default_rng(seed)
    seq = np.abs(rng.standard_normal(length))
    seq[0] = seq[0] + 1e-6
    assert check_adaptive_sum_inequality(seq, alpha)


# -- retraction constants --------------------------------------------------------------


def test_sphere_retraction_report():
    rep = estimate_retraction_constants(Sphere(3), trials=40, rng=np.random.default_rng(1))
    # Distance bound: d^2 grows quadratically with a modest constant.
    assert 1.9 <= rep.dist_sq_slope <= 2.5
    # d(x, retract(t u)) = arctan-like, so d/t stays below 1 up to the
    # conditioning of arccos near 1 (about eps/t at the smallest scales).
    assert rep.cbar_hat <= 1.0 + 1e-6
    # The rescaling retraction agrees with the geodesic to second order, so the
    # measured gap grows cubically. Guard the exponent as a regression check.
    assert 2.7 <= rep.gap_slope <= 3.3
    assert rep.cr_hat > 0.0
    assert rep.samples == 40


def test_sphere_gap_constant_matches_cubic_coefficient():
    # For the rescaling retraction on the unit sphere the leading gap term is
    # t^3/3, so gap / t^2 at the largest grid scale t = 0.1 is close to t/3.
    rep = estimate_retraction_constants(
        Sphere(4), trials=30, t_grid=np.logspace(-3, -1, 9), rng=np.random.default_rng(2)
    )
    assert rep.cr_hat == pytest.approx(0.1 / 3.0, rel=0.05)


def test_exp_as_retraction_has_zero_gap():
    for man in (SPD(3), Euclidean(5)):
        rep = estimate_retraction_constants(man, trials=25, rng=np.random.default_rng(3))
        assert rep.cr_hat <= 1e-10
        assert math.isnan(rep.gap_slope)  # nothing above the floor to fit
        assert 1.9 <= rep.dist_sq_slope <= 2.1


def test_retraction_constants_unsupported_without_log():
    with pytest.raises(UnsupportedOperation):
        estimate_retraction_constants(Stiefel(5, 2), trials=5)


def test_retraction_constants_validation():
    with pytest.raises(InvalidInput):
        estimate_retraction_constants(Sphere(3), trials=0)
    with pytest.raises(InvalidInput):
        estimate_retraction_constants(Sphere(3), t_grid=np.array([0.1, -0.2]))


# -- finite differences ------------------------------------------------------------------


def test_finite_diff_matches_analytic_gradient():
    prob = generate_quadratic_instance(6, 4, 1.0, 0, noise_sigma=0.0)
    rng = np.random.default_rng(5)
    x = prob.mx.random_point(rng)
    y = prob.my.random_point(rng)
    u = prob.my.random_tangent(y, rng, norm=1.0)
    got = finite_diff_directional(prob, x, y, u, "y", h=1e-6)
    want = prob.my.inner(prob.grad_y(x, y), u)
    assert got == pytest.approx(want, rel=1e-7)


def test_finite_diff_validation():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    rng = np.random.default_rng(0)
    x = prob.mx.random_point(rng)
    y = prob.my.random_point(rng)
    u = prob.mx.random_tangent(x, rng)
    with pytest.raises(InvalidInput):
        finite_diff_directional(prob, x, y, u, "x", h=0.0)
    with pytest.raises(InvalidInput):
        finite_diff_directional(prob, x, y, u, "z")


# -- transport audit -----------------------------------------------------------------------


@pytest.mark.parametrize("man", [Sphere(3), Sphere(6, radius=2.0), SPD(2), SPD(4), Euclidean(3)], ids=repr)
def test_transport_audit_clean_manifolds(man):
    viol = audit_transport_isometry(man, trials=100, rng=np.random.default_rng(6))
    assert viol <= 1e-9


def test_transport_audit_rejects_stiefel():
    with pytest.raises(UnsupportedOperation):
        audit_transport_isometry(Stiefel(4, 2))


def test_transport_audit_rejects_a_product_with_a_stiefel_factor():
    with pytest.raises(UnsupportedOperation):
        audit_transport_isometry(ProductManifold([Sphere(3), Stiefel(4, 2)]), trials=20, rng=np.random.default_rng(0))


def test_package_exports_every_public_name():
    # The audit's UnsupportedOperation among them, so that a star import can catch it.
    import manimax

    public = {name for name, value in vars(manimax).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(manimax.__all__)


def test_package_names_each_public_name_once():
    import manimax
    from manimax import manifolds, problems, solvers, verification

    modules = manifolds.__all__ + problems.__all__ + solvers.__all__ + verification.__all__
    assert manimax.__all__ == modules
    assert len(set(modules)) == len(modules)


def test_pyproject_version_is_the_package_version():
    import manimax
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`")
        project = read_configuration(pyproject)["project"]
    assert project["version"] == manimax.__version__


def test_transport_audit_validation():
    with pytest.raises(InvalidInput):
        audit_transport_isometry(Sphere(3), trials=0)


# -- scalar arguments ------------------------------------------------------------


def _fd(h):
    prob = generate_quadratic_instance(6, 4, 1.0, 0, noise_sigma=0.0)
    x, y = prob.default_start(np.random.default_rng(0))
    return finite_diff_directional(prob, x, y, prob.mx.random_tangent(x, np.random.default_rng(1)), "x", h=h)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _fd("x"), id="fd-text-h"),
    pytest.param(lambda: _fd(math.nan), id="fd-nan-h"),
    pytest.param(lambda: _fd(True), id="fd-bool-h"),
    pytest.param(lambda: estimate_retraction_constants(Sphere(3), trials=2.5), id="retraction-float-trials"),
    pytest.param(lambda: estimate_retraction_constants(Sphere(3), trials=True), id="retraction-bool-trials"),
    pytest.param(lambda: audit_transport_isometry(Sphere(3), trials=2.5), id="transport-float-trials"),
    pytest.param(lambda: audit_transport_isometry(Sphere(3), trials="3"), id="transport-text-trials"),
    pytest.param(lambda: check_adaptive_sum_inequality([1.0, 2.0], alpha=True), id="sum-bool-alpha"),
    pytest.param(lambda: check_adaptive_sum_inequality([1.0, 2.0], alpha="0.5"), id="sum-text-alpha"),
])
def test_scalar_argument_of_the_wrong_type_or_range_is_invalid_input(build):
    with pytest.raises(InvalidInput):
        build()


# -- array arguments -------------------------------------------------------------


def _constants(t_grid):
    return lambda: estimate_retraction_constants(Sphere(3), trials=1, t_grid=t_grid)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: fit_rate([(1, "a"), (10, 1), (100, 1), (1000, 1)]), "pairs", id="fit-text"),
    pytest.param(lambda: fit_rate([(1,), (10, 1), (100, 1), (1000, 1)]), "pairs", id="fit-short-first-pair"),
    pytest.param(lambda: fit_rate([(1,), (10,), (100,), (1000,)]), "pairs", id="fit-short-pairs"),
    pytest.param(lambda: fit_rate([(1, 1, 1), (10, 1, 1), (100, 1, 1), (1000, 1, 1)]), "pairs",
                 id="fit-long-pairs"),
    pytest.param(lambda: check_adaptive_sum_inequality(["a"], 0.5), "sequence", id="sum-text"),
    pytest.param(lambda: check_adaptive_sum_inequality([[1.0, 2.0]], 0.5), "sequence", id="sum-2d"),
    pytest.param(_constants(["x"]), "t_grid", id="t-grid-text"),
    pytest.param(_constants([]), "t_grid", id="t-grid-empty"),
    pytest.param(_constants([math.nan, 0.1, 0.01, 0.001]), "t_grid", id="t-grid-nan"),
    pytest.param(_constants(np.full((2, 2), 0.1)), "t_grid", id="t-grid-2d"),
])
def test_malformed_array_argument_is_invalid_input(build, name):
    with pytest.raises(InvalidInput, match=name):
        build()
