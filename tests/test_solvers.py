"""Solver tests: hand-stepped updates, determinism, stepsize laws, traces."""
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from manimax import (
    ConfigError,
    Euclidean,
    InvalidGeometry,
    Manifold,
    Method,
    MinimaxProblem,
    Point,
    SolverConfig,
    Sphere,
    StopReason,
    generate_gaussian_instance,
    generate_quadratic_instance,
    run,
    run_seeds,
    running_min_checkpoints,
    stationarity,
)


class SaddleToy(MinimaxProblem):
    """f(x, y) = x y - y^2 / 2 on R x R; grad_x = y, grad_y = x - y."""

    def __init__(self):
        self.mx = Euclidean(1)
        self.my = Euclidean(1)
        self.sample_count = 1

    # Row-wise kernels: x and y are single points (1,) or stacks (R, 1).
    def _value(self, x, y):
        return x[..., 0] * y[..., 0] - 0.5 * y[..., 0] ** 2

    # Exact whatever the batch: its estimate has zero variance.
    def _grad_x(self, x, y, idx=None, rng=None):
        return y.copy()

    def _grad_y(self, x, y, idx=None, rng=None):
        return x - y

    def default_start(self, rng):
        return Point(self.mx, [1.0]), Point(self.my, [0.0])


def toy_steps(cfg, x=1.0, y=0.0):
    """The final state of cfg.max_iters steps on the toy from (x, y), with
    cfg.v0_x and cfg.v0_y as the starting accumulators."""
    toy = SaddleToy()
    return run(toy, cfg, x0=Point(toy.mx, [x]), y0=Point(toy.my, [y])).final_state


# -- hand-computed adaptive steps -----------------------------------------------


def test_adaptive_step_by_hand():
    # Starting from x=1, y=0 with unit stepsizes and v0=1:
    # gradients (0, 1), accumulators then (1, 2), so eta = 1/max(1,2)^0.5
    # and gamma = 1/2^0.5; the update leaves x alone and lifts y by gamma.
    cfg = SolverConfig(method=Method.RAGDA, eta_x=1.0, eta_y=1.0, alpha=0.5,
                       beta=0.5, v0_x=1.0, v0_y=1.0, max_iters=1)
    s1 = toy_steps(cfg)
    assert s1.vx == 1.0
    assert s1.vy == 2.0
    assert s1.x.data[0] == 1.0
    assert s1.y.data[0] == 1.0 / 2.0**0.5
    assert s1.t == 1

    # Second step, same arithmetic carried forward by hand.
    gx = s1.y.data[0]
    gy = s1.x.data[0] - s1.y.data[0]
    vx = 1.0 + gx * gx
    vy = 2.0 + gy * gy
    eta = 1.0 / max(vx, vy) ** 0.5
    gamma = 1.0 / vy**0.5
    s2 = toy_steps(replace(cfg, max_iters=2))
    assert s2.vx == vx
    assert s2.vy == vy
    assert s2.x.data[0] == s1.x.data[0] - eta * gx
    assert s2.y.data[0] == s1.y.data[0] + gamma * gy


def test_accumulators_update_before_stepsize():
    # If stepsizes were computed from the pre-update accumulators, the first
    # recorded eta would be eta_x / v0^alpha = 1.0. It must be 2^-0.5.
    cfg = SolverConfig(method=Method.RAGDA, eta_x=1.0, eta_y=1.0, alpha=0.5,
                       beta=0.5, v0_x=1.0, v0_y=1.0, max_iters=1)
    trace = run(SaddleToy(), cfg)
    assert trace.records[0].eta_t == 1.0 / 2.0**0.5
    assert trace.records[0].gamma_t == 1.0 / 2.0**0.5


def test_max_coupling_uses_larger_accumulator():
    # Make the y gradient dominate: eta must shrink with vy even though vx
    # stays small, while gamma ignores vx entirely.
    cfg = SolverConfig(method=Method.RAGDA, eta_x=1.0, eta_y=1.0, alpha=0.5,
                       beta=0.5, v0_x=1.0, v0_y=1.0, max_iters=1)
    s1 = toy_steps(cfg, x=100.0)
    vy = 1.0 + 100.0**2
    assert s1.vy == vy
    assert s1.x.data[0] == 100.0  # gx = y = 0
    assert s1.y.data[0] == (1.0 / vy**0.5) * 100.0


def test_fixed_step_by_hand():
    cfg = SolverConfig(method=Method.GDA, eta_x=0.25, eta_y=99.0, v0_x=1.0, v0_y=1.0, max_iters=1)
    s1 = toy_steps(cfg)
    # gda ignores eta_y and uses eta_x on both sides
    assert s1.x.data[0] == 1.0
    assert s1.y.data[0] == 0.25
    assert s1.vx == 1.0 and s1.vy == 1.0  # accumulators untouched

    cfg2 = SolverConfig(method=Method.TSGDA, eta_x=0.25, eta_y=0.5, v0_x=1.0, v0_y=1.0, max_iters=1)
    s2 = toy_steps(cfg2)
    assert s2.y.data[0] == 0.5


def test_tsgda_equal_stepsizes_matches_gda():
    prob = generate_quadratic_instance(6, 4, 1.0, 0, 0.0)
    cfg_g = SolverConfig(method=Method.GDA, eta_x=0.01, max_iters=50, seed=3)
    cfg_t = SolverConfig(method=Method.TSGDA, eta_x=0.01, eta_y=0.01, max_iters=50, seed=3)
    tg = run(prob, cfg_g)
    tt = run(prob, cfg_t)
    assert np.array_equal(tg.final_state.x.data, tt.final_state.x.data)
    assert np.array_equal(tg.final_state.y.data, tt.final_state.y.data)


# -- stochastic / deterministic equivalence ---------------------------------------


def test_rsagda_full_batch_no_noise_is_ragda_bitwise():
    prob = generate_quadratic_instance(8, 5, 1.0, 1, noise_sigma=0.0)
    a = SolverConfig(method=Method.RAGDA, max_iters=100, seed=11)
    b = SolverConfig(method=Method.RSAGDA, max_iters=100, seed=11,
                     batch_size=prob.sample_count, eval_stride=1)
    ta = run(prob, a)
    tb = run(prob, b)
    assert np.array_equal(ta.final_state.x.data, tb.final_state.x.data)
    assert np.array_equal(ta.final_state.y.data, tb.final_state.y.data)
    assert ta.final_state.vx == tb.final_state.vx
    assert ta.final_state.vy == tb.final_state.vy


def test_rsagda_on_kernels_that_ignore_the_batch_steps_as_ragda():
    # SaddleToy's gradient kernels ignore idx and rng, so their estimate is
    # the exact gradient and RSAGDA takes RAGDA's steps to the end.
    a = SolverConfig(method=Method.RAGDA, max_iters=50, seed=5)
    ta, tb = run(SaddleToy(), a), run(SaddleToy(), replace(a, method=Method.RSAGDA))
    assert tb.stop_reason is StopReason.MAX_ITERS and tb.final_state.t == 50
    assert ta.final_state.x.data.tobytes() == tb.final_state.x.data.tobytes()
    assert ta.final_state.y.data.tobytes() == tb.final_state.y.data.tobytes()
    assert (ta.final_state.vx, ta.final_state.vy) == (tb.final_state.vx, tb.final_state.vy)


def test_rsagda_full_batch_robust_mle_bitwise():
    # RSAGDA's full batch forms its rows z - x fresh, and RAGDA's come from
    # the problem's row memo; on one shared problem, alone and as a stack of
    # seeds, the two agree bit for bit in their final states and records.
    prob = generate_gaussian_instance(3, 6, -5.0, seed=2)
    a = SolverConfig(method=Method.RAGDA, eta_x=0.5, eta_y=5.0, max_iters=100)
    b = replace(a, method=Method.RSAGDA, batch_size=6, eval_stride=1)
    for seeds in ([4], [4, 7, 8]):
        ta = run_seeds(prob, [replace(a, seed=seed) for seed in seeds])
        tb = run_seeds(prob, [replace(b, seed=seed) for seed in seeds])
        for u, v in zip(ta, tb):
            assert np.array_equal(u.final_state.x.data, v.final_state.x.data)
            assert np.array_equal(u.final_state.y.data, v.final_state.y.data)
            assert (u.final_state.vx, u.final_state.vy) == (v.final_state.vx, v.final_state.vy)
            assert [replace(r, wall_s=0.0) for r in u.records] == [replace(r, wall_s=0.0) for r in v.records]


def test_rsagda_step_draws_two_independent_batches():
    # With batch_size left at 1 on a multi-sample problem the x and y batches
    # come from different substreams; over many steps they must differ
    # sometimes, which shows up as different accumulator growth than any
    # single shared batch could produce. Cheap proxy: two seeds give two
    # different trajectories while one seed replays exactly.
    prob = generate_gaussian_instance(3, 20, -5.0, seed=0)
    cfg = SolverConfig(method=Method.RSAGDA, eta_x=0.5, eta_y=5.0,
                       max_iters=40, seed=9, batch_size=1, eval_stride=10)
    t1 = run(prob, cfg)
    t2 = run(prob, cfg)
    other = run(prob, SolverConfig(method=Method.RSAGDA, eta_x=0.5, eta_y=5.0,
                                   max_iters=40, seed=10, batch_size=1, eval_stride=10))
    assert np.array_equal(t1.final_state.y.data, t2.final_state.y.data)
    assert not np.array_equal(t1.final_state.y.data, other.final_state.y.data)


# -- run loop behavior --------------------------------------------------------------


def test_replay_is_exact():
    prob = generate_quadratic_instance(10, 6, 1.0, 0, noise_sigma=0.1)
    cfg = SolverConfig(method=Method.RSAGDA, max_iters=200, seed=21)
    t1 = run(prob, cfg)
    t2 = run(prob, cfg)
    assert t1.min_stationarity == t2.min_stationarity
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.t == r2.t
        assert r1.grad_x_norm == r2.grad_x_norm
        assert r1.grad_y_norm == r2.grad_y_norm
        assert r1.eta_t == r2.eta_t
        assert r1.gamma_t == r2.gamma_t
        assert r1.f_value == r2.f_value
    assert t1.final_state.vx == t2.final_state.vx
    assert t1.final_state.vy == t2.final_state.vy


@pytest.mark.parametrize("method", [Method.RAGDA, Method.RSAGDA])
def test_stepsizes_nonincreasing(method):
    prob = generate_quadratic_instance(8, 5, 1.0, 0, noise_sigma=0.1)
    cfg = SolverConfig(method=method, max_iters=400, seed=5)
    trace = run(prob, cfg)
    etas = [r.eta_t for r in trace.records]
    gammas = [r.gamma_t for r in trace.records]
    assert all(a >= b for a, b in zip(etas, etas[1:]))
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


def test_zero_iterations():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=0, seed=0))
    assert trace.records == []
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert math.isinf(trace.min_stationarity)
    assert trace.final_state.t == 0


def test_grad_tol_stops_immediately():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    cfg = SolverConfig(method=Method.RAGDA, max_iters=500, grad_tol=1e9, seed=0)
    trace = run(prob, cfg)
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.final_state.t == 0  # stops before stepping
    assert len(trace.records) == 1


def test_grad_tol_reached_mid_run():
    prob = generate_quadratic_instance(6, 4, 1.0, 0, 0.0)
    cfg = SolverConfig(method=Method.RAGDA, max_iters=10_000, grad_tol=1e-6, seed=1)
    trace = run(prob, cfg)
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.min_stationarity <= 1e-6
    assert trace.final_state.t < 10_000


def test_initial_point_overrides():
    prob = generate_quadratic_instance(5, 3, 1.0, 0, 0.0)
    x0 = Point(prob.mx, np.eye(5)[0])
    y0 = Point(prob.my, [1.0, 2.0, 3.0])
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=0, seed=0),
                x0=x0, y0=y0)
    assert np.array_equal(trace.final_state.x.data, x0.data)
    assert np.array_equal(trace.final_state.y.data, y0.data)


def test_initial_point_on_wrong_manifold_rejected():
    prob = generate_quadratic_instance(5, 3, 1.0, 0, 0.0)
    cfg = SolverConfig(method=Method.RAGDA, max_iters=5, seed=0)
    with pytest.raises(InvalidGeometry):
        run(prob, cfg, x0=Point(Sphere(4), np.eye(4)[0]))
    with pytest.raises(InvalidGeometry):
        run(prob, cfg, y0=Point(Euclidean(2), [1.0, 2.0]))


@pytest.mark.parametrize(
    "prob, method",
    [(generate_gaussian_instance(4, 12, -5.0, seed=0), Method.RAGDA),
     (generate_quadratic_instance(6, 4, 1.0, 0, 0.1), Method.RSAGDA)],
    ids=["robust-mle-ragda", "quadratic-rsagda"],
)
def test_geometry_checked_only_at_the_boundary(monkeypatch, prob, method):
    # Per step, only the two oracle outputs are validated; retraction
    # results are built without membership checks, and the exact gradients
    # of a stochastic run's evaluations are not checked either. The step
    # checks its tangents through _validate_tangent, which the public
    # check_tangent wraps, so counting it counts both.
    counts = {"point": 0, "tangent": 0}
    check_point, check_tangent = Manifold.check_point, Manifold._validate_tangent

    def counted_point(self, data):
        counts["point"] += 1
        check_point(self, data)

    def counted_tangent(self, base, data):
        counts["tangent"] += 1
        check_tangent(self, base, data)

    monkeypatch.setattr(Manifold, "check_point", counted_point)
    monkeypatch.setattr(Manifold, "_validate_tangent", counted_tangent)
    seen = {}
    for steps in (0, 20):
        counts.update(point=0, tangent=0)
        trace = run(prob, SolverConfig(method=method, max_iters=steps, seed=1, eval_stride=5))
        assert trace.final_state.t == steps
        seen[steps] = dict(counts)
    assert seen[20]["point"] - seen[0]["point"] == 0
    assert seen[20]["tangent"] - seen[0]["tangent"] == 2 * 20


@pytest.mark.parametrize(
    "prob, method",
    [(generate_gaussian_instance(4, 12, -5.0, seed=0), Method.RAGDA),
     (generate_gaussian_instance(4, 12, -5.0, seed=0), Method.GDA),
     (generate_quadratic_instance(6, 4, 1.0, 0, 0.1), Method.RAGDA),
     (generate_quadratic_instance(6, 4, 1.0, 0, 0.1), Method.RSAGDA)],
    ids=["robust-mle-ragda", "robust-mle-gda", "quadratic-ragda", "quadratic-rsagda"],
)
def test_a_run_opens_one_error_scope_whatever_its_step_count(monkeypatch, prob, method):
    # The run's one np.errstate covers its whole step loop, and a step opens
    # none, the value kernels included. Before the loop, the public check of
    # each start point opens its own. numpy's linalg binds its own errstate,
    # so the scope inside eigh is numpy's and is not counted.
    opened = []
    errstate = np.errstate

    def counted(*args, **kwargs):
        opened.append(sys._getframe(1).f_code.co_name)
        return errstate(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    seen = {}
    for steps in (0, 20):
        opened.clear()
        cfg = SolverConfig(method=method, max_iters=steps, seed=1, eta_x=5e-4, eta_y=5e-4, eval_stride=5)
        assert run(prob, cfg).final_state.t == steps
        seen[steps] = list(opened)
    assert [name for name in seen[0] if name != "check_point"] == ["run_seeds"]
    assert seen[20] == seen[0]


def _count_decompositions(monkeypatch) -> list[int]:
    count = [0]
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _original=getattr(np.linalg, name), **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


@pytest.mark.parametrize("method", [Method.RAGDA, Method.GDA])
def test_robust_mle_small_step_decomposes_once(monkeypatch, method):
    # One spectrum of the iterate Y_t serves the value, both oracles, the
    # metric and exp's whitening; at eta 5e-4 every whitened step has
    # ||S||_1 <= 1/2, so exp sums its Taylor series and decomposes nothing.
    count = _count_decompositions(monkeypatch)
    prob = generate_gaussian_instance(4, 12, -5.0, seed=0)
    seen = {}
    for steps in (0, 20):
        count[0] = 0
        trace = run(prob, SolverConfig(method=method, max_iters=steps, seed=1, eta_x=5e-4, eta_y=5e-4))
        assert trace.final_state.t == steps
        seen[steps] = count[0]
    assert seen[20] - seen[0] == 20


def _count_row_formations(prob) -> list[int]:
    """Counts each z - x that the robust-MLE problem forms from its data rows z."""
    count = [0]

    class CountedRows(np.ndarray):
        def __sub__(self, other):
            count[0] += 1
            return np.subtract(self.view(np.ndarray), other)

    prob.z = prob.z.view(CountedRows)
    return count


@pytest.mark.parametrize("method", [Method.RAGDA, Method.GDA])
def test_robust_mle_step_forms_its_residual_rows_once(method):
    # The value and both oracles of a step read one z - x of the iterate.
    prob = generate_gaussian_instance(4, 12, -5.0, seed=0)
    count = _count_row_formations(prob)
    seen = {}
    for steps in (0, 20):
        count[0] = 0
        trace = run(prob, SolverConfig(method=method, max_iters=steps, seed=1, eta_x=5e-4, eta_y=5e-4))
        assert trace.final_state.t == steps
        assert len(trace.records) == steps  # each step records, so each evaluates the value
        seen[steps] = count[0]
    assert seen[20] - seen[0] == 20


@pytest.mark.parametrize(
    "prob, method",
    [(generate_gaussian_instance(4, 12, -5.0, seed=0), Method.RAGDA),
     (generate_quadratic_instance(6, 4, 1.0, 0, 0.1), Method.RSAGDA)],
    ids=["robust-mle-ragda", "quadratic-rsagda"],
)
def test_batched_step_checks_two_stacked_tangents(monkeypatch, prob, method):
    # A step of a batch of 3 seeds validates the two stacked oracle outputs,
    # one _validate_tangent call each, and no point.
    counts = {"point": 0, "tangent": 0}
    check_point, check_tangent = Manifold.check_point, Manifold._validate_tangent

    def counted_point(self, data):
        counts["point"] += 1
        check_point(self, data)

    def counted_tangent(self, base, data):
        counts["tangent"] += 1
        assert base.shape == data.shape == (3, self.ambient_size)
        check_tangent(self, base, data)

    monkeypatch.setattr(Manifold, "check_point", counted_point)
    monkeypatch.setattr(Manifold, "_validate_tangent", counted_tangent)
    seen = {}
    for steps in (0, 20):
        counts.update(point=0, tangent=0)
        cfg = SolverConfig(method=method, max_iters=steps, eval_stride=5)
        traces = run_seeds(prob, [replace(cfg, seed=seed) for seed in [1, 5, 9]])
        assert [t.final_state.t for t in traces] == [steps] * 3
        seen[steps] = dict(counts)
    assert seen[20]["point"] - seen[0]["point"] == 0
    assert seen[20]["tangent"] - seen[0]["tangent"] == 2 * 20


@pytest.mark.parametrize(
    "method, eta, per_step",
    [(Method.RAGDA, 5e-4, 1), (Method.GDA, 5e-4, 1), (Method.GDA, 0.2, 2)],
    ids=["ragda-small", "gda-small", "gda-large"],
)
def test_robust_mle_batched_step_decompositions(monkeypatch, method, eta, per_step):
    # One stacked eigh of the 3 iterates serves the values, both oracles,
    # the metric and exp's whitening. At eta 5e-4 every row's whitened step
    # has ||S||_1 <= 1/2 and takes the Taylor series; at eta 0.2 every row's
    # lies between 1.29 and 255, so exp decomposes the stacked inner matrices
    # once more.
    count = _count_decompositions(monkeypatch)
    prob = generate_gaussian_instance(4, 12, -5.0, seed=0)
    steps = 20 if per_step == 1 else 5
    seen = {}
    for n in (0, steps):
        count[0] = 0
        cfg = SolverConfig(method=method, max_iters=n, eta_x=eta, eta_y=eta)
        traces = run_seeds(prob, [replace(cfg, seed=seed) for seed in [1, 5, 9]])
        assert [t.final_state.t for t in traces] == [n] * 3
        seen[n] = count[0]
    assert seen[steps] - seen[0] == per_step * steps


def test_robust_mle_batch_decomposes_once_per_step_after_a_row_leaves(monkeypatch):
    # Seed 5 starts at stationarity 18.3 and leaves at its first evaluation;
    # seeds 1 and 9 stay above 27 for 20 steps. The cut stack of the two rows
    # left is a new array, decomposed once per step like any other.
    count = _count_decompositions(monkeypatch)
    prob = generate_gaussian_instance(4, 12, -5.0, seed=0)
    seen = {}
    for n in (0, 20):
        count[0] = 0
        cfg = SolverConfig(method=Method.RAGDA, max_iters=n, eta_x=5e-4, eta_y=5e-4, grad_tol=20.0)
        traces = run_seeds(prob, [replace(cfg, seed=seed) for seed in [1, 5, 9]])
        seen[n] = count[0]
        # Final states are read-only rows of the stacks, as every Point's data is.
        assert not any(p.data.flags.writeable for t in traces for p in (t.final_state.x, t.final_state.y))
    assert [(t.stop_reason, t.final_state.t) for t in traces] == [
        (StopReason.MAX_ITERS, 20), (StopReason.CONVERGED, 0), (StopReason.MAX_ITERS, 20)]
    assert seen[20] - seen[0] == 20


@pytest.mark.parametrize(
    "prob, cfg",
    [(generate_quadratic_instance(6, 4, 1.0, 0, 0.0), SolverConfig(max_iters=3, seed=2)),
     (generate_gaussian_instance(4, 12, -5.0, seed=0), SolverConfig(max_iters=3, seed=1, eta_x=5e-3, eta_y=5e-3))],
    ids=["quadratic", "robust-mle"],
)
@pytest.mark.parametrize("method", [Method.RAGDA, Method.GDA, Method.TSGDA])
def test_one_step_from_a_state_continues_run(prob, cfg, method):
    # The README's recipe for one step from a state: a run of one step from
    # it, with its accumulators as v0, ends where one more step of run does.
    cfg = replace(cfg, method=method)
    s = run(prob, cfg).final_state
    step = run(prob, replace(cfg, max_iters=1, grad_tol=0.0, v0_x=s.vx, v0_y=s.vy), x0=s.x, y0=s.y).final_state
    final = run(prob, replace(cfg, max_iters=cfg.max_iters + 1)).final_state
    assert np.array_equal(step.x.data, final.x.data)
    assert np.array_equal(step.y.data, final.y.data)
    assert (step.vx, step.vy, step.t) == (final.vx, final.vy, 1)


def test_record_stride_caps_trace_length():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    cfg = SolverConfig(method=Method.RAGDA, max_iters=25_000, seed=0)
    trace = run(prob, cfg)
    assert [r.t for r in trace.records[:3]] == [0, 3, 6]
    assert len(trace.records) <= 10_001
    assert trace.records[-1].t == 24_999  # the last step is always kept
    # records land on the stride except for that final one
    assert all(r.t % 3 == 0 for r in trace.records[:-1])


def test_oracle_call_accounting():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=37, seed=0))
    assert trace.grad_calls == 2 * 37
    assert trace.stoch_grad_calls == 0

    st = run(prob, SolverConfig(method=Method.RSAGDA, max_iters=100, seed=0, eval_stride=25))
    assert st.stoch_grad_calls == 2 * 100
    # exact gradients only at the evaluated steps (0, 25, 50, 75, 99)
    assert st.grad_calls == 2 * 5


def test_rsagda_eval_stride_records():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, noise_sigma=0.1)
    trace = run(prob, SolverConfig(method=Method.RSAGDA, max_iters=100, seed=0, eval_stride=25))
    assert [r.t for r in trace.records] == [0, 25, 50, 75, 99]


def test_numerical_blowup_reported():
    # The first step lands y near 1e150; the second overflows ||x + u|| on
    # the sphere, which the retraction itself must reject.
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    cfg = SolverConfig(method=Method.TSGDA, eta_x=1e150, eta_y=1e150,
                       max_iters=50, seed=0)
    trace = run(prob, cfg)
    assert trace.stop_reason is StopReason.NUMERICAL_ERROR
    assert trace.error.startswith("DegenerateRetraction")
    assert trace.final_state.t == 1
    assert np.all(np.isfinite(trace.final_state.x.data))
    assert np.all(np.isfinite(trace.final_state.y.data))
    assert abs(np.linalg.norm(trace.final_state.x.data) - 1.0) <= 1e-12


def test_min_stationarity_tracks_running_min():
    prob = generate_quadratic_instance(6, 4, 1.0, 0, 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=300, seed=2))
    per_record = [r.grad_x_norm + r.grad_y_norm for r in trace.records]
    assert trace.min_stationarity <= min(per_record) + 1e-18
    assert trace.min_stationarity == pytest.approx(min(per_record), rel=1e-12)


def test_stationarity_helper_matches_grads():
    prob = generate_quadratic_instance(5, 3, 1.0, 0, 0.0)
    rng = np.random.default_rng(0)
    x = prob.mx.random_point(rng)
    y = prob.my.random_point(rng)
    sx, sy = stationarity(prob, x, y)
    assert sx == pytest.approx(prob.mx.norm(prob.grad_x(x, y)), rel=1e-15)
    assert sy == pytest.approx(prob.my.norm(prob.grad_y(x, y)), rel=1e-15)


# -- checkpoints ---------------------------------------------------------------------


def test_running_min_checkpoints():
    prob = generate_quadratic_instance(6, 4, 1.0, 0, 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=1000, seed=0))
    budgets = [10, 100, 1000]
    mins = running_min_checkpoints(trace, budgets)
    for budget, got in zip(budgets, mins):
        want = min(r.grad_x_norm + r.grad_y_norm for r in trace.records if r.t < budget)
        assert got == pytest.approx(want, rel=1e-15)
    assert mins[0] >= mins[1] >= mins[2]

    sq = running_min_checkpoints(trace, budgets, squared=True)
    want0 = min(r.grad_x_norm**2 + r.grad_y_norm**2 for r in trace.records if r.t < 10)
    assert sq[0] == pytest.approx(want0, rel=1e-15)

    # Budgets are counts: no truncated float, bool or text.
    for bad in (2.7, True, "a"):
        with pytest.raises(ConfigError, match="^budget must be an integer"):
            running_min_checkpoints(trace, [bad, 100])


def test_running_min_checkpoints_rejects_empty_budget():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    trace = run(prob, SolverConfig(method=Method.RAGDA, max_iters=10, seed=0))
    with pytest.raises(Exception):
        running_min_checkpoints(trace, [0])


# -- configuration -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, alpha=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, alpha=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, beta=-0.1)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, eta_x=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, v0_x=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, max_iters=-1)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, grad_tol=-1e-9)
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, batch_size=0)
    with pytest.raises(ConfigError):
        SolverConfig(method="no-such-method")


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}]
    + [{name: bad} for name in ("eta_x", "eta_y", "v0_x", "v0_y", "grad_tol")
       for bad in (math.nan, math.inf)]
    # The counts take integers only: not floats, whole or not, and not bools.
    + [{name: bad} for name in ("max_iters", "batch_size", "seed", "eval_stride")
       for bad in (2.5, 2.0, True, "3")]
    # Too long for repr, and so for a message that shows it as given.
    + [pytest.param({"seed": -10**5000}, id="{'seed': -10**5000}")],
    ids=repr,
)
def test_config_rejects_negative_seed_non_finite_floats_and_non_integer_counts(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, **kwargs)


def test_a_run_given_both_starts_draws_no_default_start(monkeypatch):
    prob = generate_gaussian_instance(4, 20, -5.0, 0)
    x0, y0 = prob.default_start(np.random.default_rng(3))
    cfg = SolverConfig(method=Method.RAGDA, max_iters=5, seed=1)
    before = run(prob, cfg, x0=x0, y0=y0)

    def forbidden(rng):
        raise AssertionError("drew a default start for given starts")

    monkeypatch.setattr(prob, "default_start", forbidden)
    after = run(prob, cfg, x0=x0, y0=y0)
    assert after.stop_reason is StopReason.MAX_ITERS
    assert [r.f_value for r in after.records] == [r.f_value for r in before.records]
    assert after.final_state.x.data.tobytes() == before.final_state.x.data.tobytes()
    with pytest.raises(AssertionError, match="default start"):
        run(prob, cfg, x0=x0)


def test_method_coercion_from_string():
    cfg = SolverConfig(method="ragda")
    assert cfg.method is Method.RAGDA


def test_regime_flags():
    ok = SolverConfig(method=Method.RAGDA, alpha=0.5, beta=0.3)
    assert ok.regime_flags() == []
    eq = SolverConfig(method=Method.RAGDA, alpha=0.5, beta=0.5)
    assert len(eq.regime_flags()) == 1
    s_ok = SolverConfig(method=Method.RSAGDA, alpha=2 / 3, beta=1 / 3)
    assert s_ok.regime_flags() == []
    s_half = SolverConfig(method=Method.RSAGDA, alpha=0.5, beta=0.5)
    assert any("second-order" in f for f in s_half.regime_flags())
    s_bad = SolverConfig(method=Method.RSAGDA, alpha=0.3, beta=0.6)
    assert any("outside" in f for f in s_bad.regime_flags())


def test_run_rejects_bad_eval_stride():
    prob = generate_quadratic_instance(4, 3, 1.0, 0, 0.0)
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(method=Method.RAGDA, max_iters=5, eval_stride=0))


@pytest.mark.parametrize("kwargs", [
    {"eta_x": "0.5"}, {"eta_x": True}, {"eta_y": None}, {"alpha": "0.5"}, {"beta": False},
    {"v0_x": True}, {"v0_y": "1"}, {"grad_tol": True}, {"grad_tol": "0"}, {"eta_x": 10**400},
    pytest.param({"eta_x": 10**5000}, id="{'eta_x': 10**5000}"),
    pytest.param({"eta_x": Fraction(10**5000)}, id="{'eta_x': Fraction(10**5000)}"),
], ids=repr)
def test_config_rejects_real_fields_of_the_wrong_type(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(method=Method.RAGDA, **kwargs)
