"""Batched rows: run_seeds steps R configs as one row-wise computation.

Every row of a batch must be the solo run of its config, bit for bit, whatever
the batch size, including rows that converge or fail and leave the batch.
"""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from manimax import (
    ConfigError,
    Method,
    NumericalOverflow,
    SolverConfig,
    StopReason,
    SyntheticQuadratic,
    generate_gaussian_instance,
    generate_quadratic_instance,
    run,
    run_seeds,
    solvers,
)

QUAD = generate_quadratic_instance(6, 4, 1.0, 0, noise_sigma=0.1)
QUAD_EXACT = generate_quadratic_instance(6, 4, 1.0, 0, noise_sigma=0.0)
MLE = generate_gaussian_instance(3, 8, -5.0, seed=0)

ERROR_TYPES = {"InvalidGeometry", "BaseMismatch", "DegenerateRetraction", "AntipodalPoints",
               "UnsupportedOperation", "NumericalOverflow", "NumericalError", "FloatingPointError"}


def fingerprint(trace):
    """Everything a trace holds but its clocks, with floats as exact hex."""
    def h(v):
        return float(v).hex()

    fs = trace.final_state
    return (
        [(r.t, h(r.grad_x_norm), h(r.grad_y_norm), h(r.eta_t), h(r.gamma_t), h(r.f_value)) for r in trace.records],
        trace.stop_reason,
        h(trace.min_stationarity),
        fs.x.data.tobytes(), fs.y.data.tobytes(), h(fs.vx), h(fs.vy), fs.t,
        trace.grad_calls, trace.stoch_grad_calls, h(trace.max_step_grad_norm), trace.error,
        trace.config,
    )


def solo(problem, cfg, seed):
    return run(problem, replace(cfg, seed=seed))


def rows(cfg, seeds):
    return [replace(cfg, seed=seed) for seed in seeds]


SEEDS = [3, 0, 17, 5, 1, 2**31 - 1, 42, 9, 11, 6]
# Rows that differ in every setting that may differ by row.
MIXED = [dict(seed=seed, eta_x=0.1 * (1 + i % 3), eta_y=1.0 + i, alpha=(0.5, 2 / 3)[i % 2],
              beta=(0.5, 1 / 3, 0.25)[i % 3], v0_x=10.0 ** -(i % 4), v0_y=10.0 ** -(i % 5))
         for i, seed in enumerate(SEEDS)]

CASES = {
    "quadratic-rsagda": (QUAD, rows(SolverConfig(method=Method.RSAGDA, max_iters=120, eval_stride=7), SEEDS)),
    "quadratic-ragda": (QUAD, rows(SolverConfig(method=Method.RAGDA, max_iters=60), SEEDS)),
    "robust-mle-ragda": (MLE, rows(SolverConfig(method=Method.RAGDA, max_iters=40), SEEDS)),
    "robust-mle-gda": (MLE, rows(SolverConfig(method=Method.GDA, eta_x=5e-3, max_iters=40), SEEDS)),
    "quadratic-rsagda-rows-differ": (
        QUAD, [SolverConfig(method=Method.RSAGDA, max_iters=120, eval_stride=7, **m) for m in MIXED]),
    "quadratic-tsgda-rows-differ": (
        QUAD, [SolverConfig(method=Method.TSGDA, max_iters=60, **{**m, "eta_y": 0.1 * m["eta_y"]}) for m in MIXED]),
}


@pytest.mark.parametrize("case", CASES)
def test_rows_do_not_depend_on_the_batch_size(case):
    problem, configs = CASES[case]
    seeds = [cfg.seed for cfg in configs]
    batch = run_seeds(problem, configs)
    assert [t.config.seed for t in batch] == seeds
    for cfg, row in zip(configs, batch):
        alone = run_seeds(problem, [cfg])[0]
        assert fingerprint(row) == fingerprint(alone)
        assert fingerprint(row) == fingerprint(run(problem, cfg))


@pytest.mark.parametrize("problem, batch_size", [(QUAD_EXACT, 1), (MLE, MLE.sample_count)], ids=["quadratic", "robust-mle"])
def test_full_batch_rsagda_is_ragda_inside_a_batch(problem, batch_size):
    seeds = [4, 0, 8]
    exact = run_seeds(problem, rows(SolverConfig(method=Method.RAGDA, max_iters=60), seeds))
    full = run_seeds(problem, rows(SolverConfig(method=Method.RSAGDA, max_iters=60, batch_size=batch_size,
                                                eval_stride=1), seeds))
    for a, b in zip(exact, full):
        assert a.final_state.x.data.tobytes() == b.final_state.x.data.tobytes()
        assert a.final_state.y.data.tobytes() == b.final_state.y.data.tobytes()
        assert (a.final_state.vx, a.final_state.vy) == (b.final_state.vx, b.final_state.vy)


@pytest.mark.parametrize("method, stride, tol", [(Method.RAGDA, 50, 0.05), (Method.RSAGDA, 3, 0.2)])
def test_converged_rows_leave_and_the_rest_go_on(method, stride, tol):
    # 30000 steps record every third iterate, so a row that converges
    # between records writes its own last record.
    problem = QUAD_EXACT if method is Method.RAGDA else QUAD
    cfg = SolverConfig(method=method, max_iters=30_000, grad_tol=tol, eval_stride=stride)
    seeds = list(range(8))
    batch = run_seeds(problem, rows(cfg, seeds))
    ends = {t.final_state.t for t in batch if t.stop_reason is StopReason.CONVERGED}
    assert len(ends) > 2, "the rows should converge at different steps"
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed))


def test_rows_step_on_past_a_converged_one():
    cfg = SolverConfig(method=Method.RAGDA, max_iters=100, grad_tol=0.05)
    batch = run_seeds(QUAD_EXACT, rows(cfg, range(8)))
    assert {t.stop_reason for t in batch} == {StopReason.CONVERGED, StopReason.MAX_ITERS}
    assert max(t.final_state.t for t in batch) == 100


SCALES = [1e-300, 1e-100, 1.0, 1e100, 1e300]
PROBLEMS = {"quadratic": QUAD, "robust-mle": generate_gaussian_instance(3, 6, -5.0, seed=2)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta_y", SCALES)
@pytest.mark.parametrize("eta_x", SCALES)
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("name", PROBLEMS)
def test_overflow_sweep_ends_cleanly_or_typed(name, method, eta_x, eta_y):
    # Each row either runs its 8 steps or stops with a typed numerical error,
    # never a warning; a row that fails leaves the batch exactly as its solo
    # run stops, and the others go on.
    problem = PROBLEMS[name]
    cfg = SolverConfig(method=method, eta_x=eta_x, eta_y=eta_y, max_iters=8, batch_size=2, eval_stride=3)
    seeds = [0, 1, 2]
    batch = run_seeds(problem, rows(cfg, seeds))
    for seed, row in zip(seeds, batch):
        alone = solo(problem, cfg, seed)
        for trace in (row, alone):
            if trace.stop_reason is StopReason.NUMERICAL_ERROR:
                assert trace.error.split(":")[0] in ERROR_TYPES
            else:
                assert trace.stop_reason is StopReason.MAX_ITERS and trace.error is None
        assert fingerprint(row) == fingerprint(alone)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta, tol", [(0.12, 0.0), (0.3, 0.0), (0.12, 0.6)], ids=["0.12", "0.3", "0.12-tol0.6"])
def test_failing_rows_leave_the_batch_and_the_others_go_on(eta, tol):
    # GDA on robust-mle with too large a stepsize: at 0.12 some seeds blow up,
    # each at its own step, and the rest finish; at 0.3 the rows fail with
    # different errors (exp overflow and underflow, non-finite norms). With
    # tol 0.6, two rows converge before the first row fails, and only the
    # rows still in the batch are rerun to find the failing ones.
    problem = PROBLEMS["robust-mle"]
    cfg = SolverConfig(method=Method.GDA, eta_x=eta, max_iters=60, grad_tol=tol)
    seeds = list(range(12))
    batch = run_seeds(problem, rows(cfg, seeds))
    assert len({t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR}) > 2
    if tol > 0:
        converged = [t.final_state.t for t in batch if t.stop_reason is StopReason.CONVERGED]
        failed = [t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR]
        assert converged and max(converged) < min(failed), "the rows should converge before any row fails"
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed))


class BrittleQuadratic(SyntheticQuadratic):
    """Fails a row whose first x coordinate leaves [-0.5, 0.5], after that
    row's x-side noise is drawn and before its y-side noise is."""

    def _grad_y(self, x, y, idx=None, rng=None):
        if idx is not None and np.any(np.abs(x[..., 0]) > 0.5):
            raise NumericalOverflow("x left the band")
        return super()._grad_y(x, y, idx, rng)


@pytest.mark.parametrize(
    "problem, cfg",
    [(BrittleQuadratic(QUAD.a_mat, QUAD.mu, QUAD.b, QUAD.noise_sigma),
      SolverConfig(method=Method.RSAGDA, max_iters=300, eval_stride=5)),
     (PROBLEMS["robust-mle"],
      SolverConfig(method=Method.RSAGDA, eta_y=500.0, max_iters=20, batch_size=2, eval_stride=5))],
    ids=["quadratic-noise", "robust-mle-batches"],
)
def test_stochastic_rows_that_fail_mid_step_replay_their_draws(problem, cfg):
    # A row that fails after drawing some of its step's noise fails the
    # batch's step; each half of the live rows is rerun from the start with
    # fresh streams until the failing row fails alone, and the rows that pass
    # draw what their solo runs draw (past a refill of the noise block, in
    # the quadratic case).
    seeds = list(range(10))
    batch = run_seeds(problem, rows(cfg, seeds))
    assert len({t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR}) > 1
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed))


def poisoned(problem, side, bad, start):
    """``problem`` whose exact gradient on ``side`` ("x" or "y") is bad(x_row, g_row)
    on a row whose x is ``start``, so it fails at step 0 of that row only."""
    base = type(problem)

    def grad(self, x, y, idx=None, rng=None):
        g = getattr(base, f"_grad_{side}")(self, x, y, idx, rng)
        hit = np.all(x == start, axis=-1)
        if hit.any():
            g[hit] = bad(x[hit], g[hit])
        return g

    twin = object.__new__(type(f"Poisoned{base.__name__}", (base,), {f"_grad_{side}": grad}))
    twin.__dict__.update(problem.__dict__)
    return twin


def failing_row(problem, healthy, side, bad):
    """(problem, healthy, failing), where the failing row takes seed
    healthy.seed + 1 and the problem's gradient fails on its start."""
    failing = replace(healthy, seed=healthy.seed + 1)
    start = run(problem, replace(failing, max_iters=0)).final_state.x.data
    return poisoned(problem, side, bad, start), healthy, failing


def _failing_rows():
    quad = generate_quadratic_instance(20, 10, 1.0, seed=0, noise_sigma=0.0)
    quad_cfg = SolverConfig(method=Method.TSGDA, eta_y=0.5, max_iters=30)
    mle_cfg = SolverConfig(method=Method.RAGDA, max_iters=30)
    nan = lambda x, g: np.nan
    return {
        # The ascent step eta_y * grad_y overflows at t = 0.
        "scaled-step-overflows": (quad, quad_cfg, replace(quad_cfg, eta_y=1.7e308),
                                  "NumericalError: a scaled gradient step overflowed"),
        "nan-gradient-sphere": (*failing_row(quad, quad_cfg, "x", nan),
                                "InvalidGeometry: sphere tangent contains non-finite entries"),
        "nan-gradient-spd": (*failing_row(MLE, mle_cfg, "y", nan),
                             "InvalidGeometry: spd tangent contains non-finite entries"),
        "gradient-not-tangent": (*failing_row(quad, quad_cfg, "x", lambda x, g: x),
                                 "InvalidGeometry: tangent is not orthogonal to the sphere point"),
        # Finite and tangent, but its squared norm overflows.
        "squared-norm-overflows": (*failing_row(quad, quad_cfg, "x", lambda x, g: 1e200 * g),
                                   "NumericalError: non-finite gradient norm"),
    }


FAILING_ROWS = _failing_rows()


@pytest.mark.parametrize("case", FAILING_ROWS)
def test_a_row_whose_step_fails_leaves_the_batch(case):
    # The failing row stops at t = 0 with a typed error and no warning, alone
    # and as the second row of a batch; the first row runs on as it runs alone.
    problem, healthy, failing, error = FAILING_ROWS[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alone = run(problem, failing)
        ok, failed = run_seeds(problem, [healthy, failing])
        healthy_alone = run(problem, healthy)
    assert caught == []
    for trace in (alone, failed):
        assert trace.stop_reason is StopReason.NUMERICAL_ERROR
        assert trace.error == error
        assert trace.final_state.t == 0 and trace.records == []
    assert ok.stop_reason is StopReason.MAX_ITERS
    assert fingerprint(ok) == fingerprint(healthy_alone)


@pytest.mark.parametrize("size", [4, 13])
@pytest.mark.parametrize("cap", [2**20, 100, 7])
def test_normal_look_ahead_is_capped_in_floats(monkeypatch, cap, size):
    # One side's block of standard normals holds 64 calls, or as many as fit
    # in the cap, and one call when even one does not fit (3 rows of 4 or 13
    # floats pass a cap of 7). Across refills and a row that leaves, each row
    # draws what its own generator draws call by call.
    monkeypatch.setattr(solvers, "_NORMAL_FLOATS", cap)
    live = [0, 1, 2]
    draws = solvers._Draws(np.random.default_rng(seed) for seed in live)
    alone = [np.random.default_rng(seed) for seed in live]
    for call in range(150):
        if call == 70:
            live = [0, 2]
            draws.keep([0, 2])
        got = draws.standard_normal((len(live), size))
        assert got.tobytes() == np.stack([alone[i].standard_normal(size) for i in live]).tobytes()
        assert draws.block.shape[1] <= 64 * size
        assert draws.block.size <= max(cap, len(live) * size)
    if cap == 2**20:
        assert draws.block.shape[1] == 64 * size


def test_normal_draws_of_mixed_sizes_keep_the_stream(monkeypatch):
    # Calls of different sizes leave part of a block unread at a refill; it is
    # served before the fresh block, so the stream is still the call-by-call one.
    monkeypatch.setattr(solvers, "_NORMAL_FLOATS", 40)
    draws = solvers._Draws(np.random.default_rng(seed) for seed in (4, 5))
    alone = [np.random.default_rng(seed) for seed in (4, 5)]
    for size in [3, 3, 7, 1, 25, 3, 2, 9, 3, 3, 4, 6] * 4:
        got = draws.standard_normal((2, size))
        assert got.tobytes() == np.stack([g.standard_normal(size) for g in alone]).tobytes()


def test_run_seeds_checks_its_seeds(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the configs were checked")

    monkeypatch.setattr(solvers, "_step", no_step)
    cfg = SolverConfig(method=Method.RAGDA, max_iters=3)
    with pytest.raises(ConfigError):
        run_seeds(QUAD, [])
    with pytest.raises(ConfigError):
        run_seeds(QUAD, rows(cfg, [0, -1]))
    with pytest.raises(ConfigError):
        run_seeds(QUAD, [replace(cfg, eval_stride=0)])
    # The settings a batch shares: a row that differs in one fails the batch.
    shared = {"method": Method.GDA, "max_iters": 4, "batch_size": 2, "grad_tol": 0.1, "eval_stride": 7}
    for name, value in shared.items():
        with pytest.raises(ConfigError, match=name):
            run_seeds(QUAD, [cfg, cfg, replace(cfg, **{name: value})])
