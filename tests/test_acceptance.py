"""Acceptance gate: one test per shipping criterion, budgets included.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Each test also prints a detail line with the measured numbers.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from manimax import (
    SPD,
    Euclidean,
    Method,
    SolverConfig,
    Sphere,
    StopReason,
    audit_transport_isometry,
    check_adaptive_sum_inequality,
    estimate_retraction_constants,
    finite_diff_directional,
    fit_rate,
    generate_gaussian_instance,
    generate_multiscale_instance,
    generate_quadratic_instance,
    run,
    run_seeds,
    running_min_checkpoints,
)
from manimax.cli import main as cli_main


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_geometry_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    manifolds = [Sphere(3), Sphere(31), SPD(2), SPD(5), SPD(31), Euclidean(7)]

    worst_round = 0.0
    for man in manifolds:
        for _ in range(500):
            x = man.random_point(rng)
            y = man.random_point(rng)
            z = man.exp(x, man.log(x, y))
            rel = float(np.linalg.norm(z.data - y.data)) / (1.0 + float(np.linalg.norm(y.data)))
            worst_round = max(worst_round, rel)

    worst_transport = 0.0
    for man in manifolds:
        worst_transport = max(worst_transport, audit_transport_isometry(man, trials=200, rng=rng))

    # The sphere's normalization retraction agrees with the geodesic to second
    # order, so its gap decays cubically. A two-sided [1.9, 2.5] window on the
    # gap slope therefore cannot hold; the substantive requirement is that the
    # gap decays at least quadratically (slope >= 1.9) while the distance
    # squared fit sits inside the window. Both measured slopes are printed.
    sphere_rep = estimate_retraction_constants(Sphere(3), trials=50, rng=rng)
    cr_worst = 0.0
    for man in (SPD(5), Euclidean(7)):
        cr_worst = max(cr_worst, estimate_retraction_constants(man, trials=50, rng=rng).cr_hat)

    elapsed = time.perf_counter() - start
    ok = (
        worst_round <= 1e-8
        and worst_transport <= 1e-8
        and sphere_rep.gap_slope >= 1.9
        and 1.9 <= sphere_rep.dist_sq_slope <= 2.5
        and cr_worst <= 1e-10
        and elapsed < 30.0
    )
    assert report(
        1,
        ok,
        f"round-trip {worst_round:.2e} (<=1e-8), transport {worst_transport:.2e} (<=1e-8), "
        f"sphere gap slope {sphere_rep.gap_slope:.3f} (>=1.9; cubic for this retraction), "
        f"distance-squared slope {sphere_rep.dist_sq_slope:.3f} (in [1.9,2.5]), "
        f"exp-retraction cr_hat {cr_worst:.2e} (<=1e-10), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_gradient_oracles():
    start = time.perf_counter()
    problems = [
        ("robust-mle", generate_gaussian_instance(5, 20, -5.0, seed=0)),
        ("synthetic-quadratic", generate_quadratic_instance(20, 10, 1.0, seed=0, noise_sigma=0.0)),
    ]
    worst = 0.0
    for _, prob in problems:
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            x = prob.mx.random_point(rng)
            y = prob.my.random_point(rng)
            for wrt, man, pt in (("x", prob.mx, x), ("y", prob.my, y)):
                u = man.random_tangent(pt, rng, norm=1.0)
                g = prob.grad_x(x, y) if wrt == "x" else prob.grad_y(x, y)
                analytic = man.inner(g, u)
                numeric = finite_diff_directional(prob, x, y, u, wrt)
                worst = max(worst, abs(analytic - numeric) / (1.0 + abs(analytic)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    assert report(2, ok, f"worst relative disagreement {worst:.2e} (<=1e-4), {elapsed:.1f}s (<10s)")


def test_criterion_3_deterministic_rate():
    start = time.perf_counter()
    prob = generate_multiscale_instance(30, 20, seed=0)
    cfg = SolverConfig(
        method=Method.RAGDA, eta_x=0.5, eta_y=5.0, alpha=0.5, beta=0.3,
        v0_x=1e-6, v0_y=1e-6, max_iters=10_000, seed=0,
    )
    trace = run(prob, cfg)
    budgets = [100, 316, 1000, 3162, 10_000]
    mins = running_min_checkpoints(trace, budgets)
    fit = fit_rate(list(zip(budgets, mins)))
    ratio = mins[-1] / mins[0]
    elapsed = time.perf_counter() - start
    ok = fit.slope <= -0.4 and fit.r2 >= 0.9 and ratio <= 0.1 and elapsed < 120.0
    assert report(
        3,
        ok,
        f"slope {fit.slope:.3f} (<=-0.4), r2 {fit.r2:.3f} (>=0.9), "
        f"budget 1e4 vs 1e2 ratio {ratio:.2e} (<=0.1), {elapsed:.1f}s (<2min)",
    )


def test_criterion_4_stochastic_regimes():
    start = time.perf_counter()
    prob = generate_quadratic_instance(20, 10, 1.0, seed=0, noise_sigma=0.1)
    budgets = [1000, 10_000, 100_000]

    # Seeds 0-9 of both settings as one batch of 20 rows; each row equals the
    # solo run of its config.
    cfg = SolverConfig(
        method=Method.RSAGDA, eta_x=0.5, eta_y=5.0, v0_x=1e-6, v0_y=1e-6, max_iters=100_000,
        batch_size=1, eval_stride=50,
    )
    settings = [(2.0 / 3.0, 1.0 / 3.0), (0.5, 0.5)]
    traces = run_seeds(prob, [replace(cfg, alpha=a, beta=b, seed=s) for a, b in settings for s in range(10)])
    two_thirds, halves = (
        np.mean([running_min_checkpoints(trace, budgets, squared=True) for trace in traces[i:i + 10]], axis=0)
        for i in (0, 10)
    )
    monotone = bool(two_thirds[0] > two_thirds[1] > two_thirds[2])
    competitive = bool(halves[-1] <= 1.5 * two_thirds[-1])
    elapsed = time.perf_counter() - start
    ok = monotone and competitive and elapsed < 600.0
    assert report(
        4,
        ok,
        f"alpha=2/3 means {np.array2string(two_thirds, precision=4)} monotone={monotone}, "
        f"alpha=1/2 final {halves[-1]:.4f} <= 1.5 x {two_thirds[-1]:.4f}={competitive}, "
        f"{elapsed:.0f}s (<10min)",
    )


def test_criterion_5_algorithm_identities():
    prob = generate_quadratic_instance(8, 5, 1.0, seed=1, noise_sigma=0.0)
    exact_cfg = SolverConfig(method=Method.RAGDA, max_iters=100, seed=11)
    full_cfg = SolverConfig(method=Method.RSAGDA, max_iters=100, seed=11, batch_size=prob.sample_count, eval_stride=1)
    ta = run(prob, exact_cfg)
    tb = run(prob, full_cfg)
    bitwise = (
        np.array_equal(ta.final_state.x.data, tb.final_state.x.data)
        and np.array_equal(ta.final_state.y.data, tb.final_state.y.data)
        and ta.final_state.vx == tb.final_state.vx
        and ta.final_state.vy == tb.final_state.vy
    )

    noisy = generate_quadratic_instance(8, 5, 1.0, seed=1, noise_sigma=0.1)
    replay_cfg = SolverConfig(method=Method.RSAGDA, max_iters=300, seed=3)
    r1 = run(noisy, replay_cfg)
    r2 = run(noisy, replay_cfg)
    replay = (
        abs(r1.final_state.vx - r2.final_state.vx) <= 1e-9 * max(1.0, abs(r1.final_state.vx))
        and abs(r1.final_state.vy - r2.final_state.vy) <= 1e-9 * max(1.0, abs(r1.final_state.vy))
    )

    traces = [ta, tb, r1, run(noisy, SolverConfig(method=Method.RAGDA, max_iters=200, seed=5))]
    monotone = all(
        all(a.eta_t >= b.eta_t and a.gamma_t >= b.gamma_t for a, b in zip(t.records, t.records[1:]))
        for t in traces
    )
    ok = bitwise and replay and monotone
    assert report(
        5,
        ok,
        f"full-batch bitwise match={bitwise}, accumulator replay within 1e-9={replay}, "
        f"stepsizes nonincreasing={monotone}",
    )


def test_criterion_6_sum_inequality_battery():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        seq = np.abs(rng.standard_normal(length)) * float(rng.uniform(0.01, 100.0))
        seq[rng.random(length) < 0.15] = 0.0
        seq[0] = max(float(seq[0]), 1e-9)
        alpha = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 0.99))
        if not check_adaptive_sum_inequality(seq, alpha):
            failures += 1
    ok = failures == 0
    assert report(6, ok, f"{failures} violations in 1000 random sequences (need 0)")


def test_criterion_7_desk_scale_reproduction():
    start = time.perf_counter()
    prob = generate_gaussian_instance(30, 100, -5.0, seed=0)
    adaptive = run(prob, SolverConfig(
        method=Method.RAGDA, eta_x=0.5, eta_y=5.0, alpha=0.5, beta=0.5,
        v0_x=1e-6, v0_y=1e-6, max_iters=3000, seed=0,
    ))
    baseline = run(prob, SolverConfig(
        method=Method.GDA, eta_x=0.0005, eta_y=0.0005, max_iters=3000, seed=0,
    ))
    elapsed = time.perf_counter() - start
    clean = (
        adaptive.stop_reason is not StopReason.NUMERICAL_ERROR
        and baseline.stop_reason is not StopReason.NUMERICAL_ERROR
    )
    ok = clean and adaptive.min_stationarity <= baseline.min_stationarity and elapsed < 180.0
    assert report(
        7,
        ok,
        f"adaptive min stationarity {adaptive.min_stationarity:.2e} <= "
        f"fixed-step baseline {baseline.min_stationarity:.2e}, {elapsed:.0f}s (<3min)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    def body_without_wall_clock(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return "\n".join(",".join(r[:1] + r[2:]) for r in rows)

    for sub in ("first", "second"):
        code = cli_main([
            "run", "--preset", "robust-mle-ragda", "--max-iters", "50",
            "--d", "8", "--n", "30", "--label", "det", "--out", str(tmp_path / sub),
        ])
        assert code == 0
    a = body_without_wall_clock(tmp_path / "first" / "det_rep0.csv")
    b = body_without_wall_clock(tmp_path / "second" / "det_rep0.csv")
    points_match = (
        (tmp_path / "first" / "det_rep0_y.point").read_bytes()
        == (tmp_path / "second" / "det_rep0_y.point").read_bytes()
    )
    ok = a == b and points_match
    assert report(8, ok, f"CSV bodies identical={a == b}, final iterates identical={points_match}")
