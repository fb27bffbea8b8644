"""Batched seeds: run_seeds steps R seeds as one row-wise computation.

Every row of a batch must be the solo run of its seed, bit for bit, whatever
the batch size, including rows that converge or fail and leave the batch.
"""
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
        {k: (h(v) if isinstance(v, float) else v) for k, v in trace.metadata.items() if k != "wall_s"},
        trace.config,
    )


def solo(problem, cfg, seed, eval_stride):
    return run(problem, replace(cfg, seed=seed), eval_stride=eval_stride)


CASES = {
    "quadratic-rsagda": (QUAD, SolverConfig(method=Method.RSAGDA, max_iters=120), 7),
    "quadratic-ragda": (QUAD, SolverConfig(method=Method.RAGDA, max_iters=60), 50),
    "robust-mle-ragda": (MLE, SolverConfig(method=Method.RAGDA, max_iters=40), 50),
    "robust-mle-gda": (MLE, SolverConfig(method=Method.GDA, eta_x=5e-3, max_iters=40), 50),
}


@pytest.mark.parametrize("case", CASES)
def test_rows_do_not_depend_on_the_batch_size(case):
    problem, cfg, stride = CASES[case]
    seeds = [3, 0, 17, 5, 1, 2**31 - 1, 42, 9, 11, 6]
    batch = run_seeds(problem, cfg, seeds, eval_stride=stride)
    assert [t.config.seed for t in batch] == seeds
    for seed, row in zip(seeds, batch):
        alone = run_seeds(problem, cfg, [seed], eval_stride=stride)[0]
        assert fingerprint(row) == fingerprint(alone)
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed, stride))


@pytest.mark.parametrize("problem, batch_size", [(QUAD_EXACT, 1), (MLE, MLE.sample_count)], ids=["quadratic", "robust-mle"])
def test_full_batch_rsagda_is_ragda_inside_a_batch(problem, batch_size):
    seeds = [4, 0, 8]
    exact = run_seeds(problem, SolverConfig(method=Method.RAGDA, max_iters=60), seeds)
    full = run_seeds(problem, SolverConfig(method=Method.RSAGDA, max_iters=60, batch_size=batch_size), seeds,
                     eval_stride=1)
    for a, b in zip(exact, full):
        assert a.final_state.x.data.tobytes() == b.final_state.x.data.tobytes()
        assert a.final_state.y.data.tobytes() == b.final_state.y.data.tobytes()
        assert (a.final_state.vx, a.final_state.vy) == (b.final_state.vx, b.final_state.vy)


@pytest.mark.parametrize("method, stride, tol", [(Method.RAGDA, 50, 0.05), (Method.RSAGDA, 3, 0.2)])
def test_converged_rows_leave_and_the_rest_go_on(method, stride, tol):
    # 30000 steps record every third iterate, so a row that converges
    # between records writes its own last record.
    problem = QUAD_EXACT if method is Method.RAGDA else QUAD
    cfg = SolverConfig(method=method, max_iters=30_000, grad_tol=tol)
    seeds = list(range(8))
    batch = run_seeds(problem, cfg, seeds, eval_stride=stride)
    ends = {t.final_state.t for t in batch if t.stop_reason is StopReason.CONVERGED}
    assert len(ends) > 2, "the rows should converge at different steps"
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed, stride))


def test_rows_step_on_past_a_converged_one():
    cfg = SolverConfig(method=Method.RAGDA, max_iters=100, grad_tol=0.05)
    batch = run_seeds(QUAD_EXACT, cfg, range(8))
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
    cfg = SolverConfig(method=method, eta_x=eta_x, eta_y=eta_y, max_iters=8, batch_size=2)
    seeds = [0, 1, 2]
    batch = run_seeds(problem, cfg, seeds, eval_stride=3)
    for seed, row in zip(seeds, batch):
        alone = solo(problem, cfg, seed, 3)
        for trace in (row, alone):
            if trace.stop_reason is StopReason.NUMERICAL_ERROR:
                assert trace.metadata["error"].split(":")[0] in ERROR_TYPES
            else:
                assert trace.stop_reason is StopReason.MAX_ITERS and "error" not in trace.metadata
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
    batch = run_seeds(problem, cfg, seeds)
    assert len({t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR}) > 2
    if tol > 0:
        converged = [t.final_state.t for t in batch if t.stop_reason is StopReason.CONVERGED]
        failed = [t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR]
        assert converged and max(converged) < min(failed), "the rows should converge before any row fails"
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed, 50))


class BrittleQuadratic(SyntheticQuadratic):
    """Fails a row whose first x coordinate leaves [-0.5, 0.5], after that
    row's x-side noise is drawn and before its y-side noise is."""

    def _stoch_grad_y(self, x, y, idx, rng):
        if np.any(np.abs(x[..., 0]) > 0.5):
            raise NumericalOverflow("x left the band")
        return super()._stoch_grad_y(x, y, idx, rng)


@pytest.mark.parametrize(
    "problem, cfg",
    [(BrittleQuadratic(QUAD.a_mat, QUAD.mu, QUAD.b, QUAD.noise_sigma), SolverConfig(method=Method.RSAGDA, max_iters=300)),
     (PROBLEMS["robust-mle"], SolverConfig(method=Method.RSAGDA, eta_y=500.0, max_iters=20, batch_size=2))],
    ids=["quadratic-noise", "robust-mle-batches"],
)
def test_stochastic_rows_that_fail_mid_step_replay_their_draws(problem, cfg):
    # A row that fails after drawing some of its step's noise fails the
    # batch's step; each half of the live rows is rerun from the start with
    # fresh streams until the failing row fails alone, and the rows that pass
    # draw what their solo runs draw (past a refill of the noise block, in
    # the quadratic case).
    seeds = list(range(10))
    batch = run_seeds(problem, cfg, seeds, eval_stride=5)
    assert len({t.final_state.t for t in batch if t.stop_reason is StopReason.NUMERICAL_ERROR}) > 1
    for seed, row in zip(seeds, batch):
        assert fingerprint(row) == fingerprint(solo(problem, cfg, seed, 5))


def test_run_seeds_checks_its_seeds():
    cfg = SolverConfig(method=Method.RAGDA, max_iters=3)
    with pytest.raises(ConfigError):
        run_seeds(QUAD, cfg, [])
    with pytest.raises(ConfigError):
        run_seeds(QUAD, cfg, [0, -1])
    with pytest.raises(ConfigError):
        run_seeds(QUAD, cfg, [0], eval_stride=0)
