"""End-to-end tests of the command line harness."""
import argparse
import json
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manimax import ConfigError, Euclidean, Method, Point, SolverConfig, Sphere, SPD, cli, manifold_to_header
from manimax.cli import (_FIELDS, ExperimentConfig, _build_parser, _collect_fields, _finite, _parser, load_preset,
                         main)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,wall_s,grad_x_norm,grad_y_norm,eta_t,gamma_t,f_value"
    return [line.split(",") for line in lines[1:]]


def strip_wall(path):
    """CSV body with the wall-clock column removed, for determinism checks."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return "\n".join(",".join(r[:1] + r[2:]) for r in rows)


def test_run_preset_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code = main([
        "run", "--preset", "synthetic-ragda", "--max-iters", "60",
        "--label", "t", "--out", str(tmp_path),
    ])
    assert code == 0
    csv = tmp_path / "t_rep0.csv"
    rows = read_rows(csv)
    assert len(rows) == 60
    assert [r[0] for r in rows] == [str(i) for i in range(60)]
    summary = (tmp_path / "t_summary.txt").read_text()
    assert "repeat0.stop_reason = max_iters" in summary
    assert "repeat0.min_stationarity = " in summary
    # Every RAGDA step is recorded, so the largest step gradient norm is the
    # largest norm in the CSV.
    fields = dict(line.split(" = ", 1) for line in summary.splitlines())
    assert float(fields["repeat0.max_step_grad_norm"]) == max(float(v) for r in rows for v in r[2:4])
    # The numerical environment, once per summary.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert fields["env.numpy"] == np.__version__
    assert fields["env.blas"] == f"{blas['name']} {blas['version']}"
    assert (fields["env.OPENBLAS_NUM_THREADS"], fields["env.OMP_NUM_THREADS"]) == ("1", "unset")
    assert sum(line.startswith("env.") for line in summary.splitlines()) == 4
    monkeypatch.setattr(np, "show_config", lambda mode: {})
    assert cli._blas() == "unknown"
    # The README's recipe: a JSON header line, then the float64 body, which Point checks.
    for side, man in (("x", Sphere(20)), ("y", Euclidean(10))):
        head, _, body = (tmp_path / f"t_rep0_{side}.point").read_bytes().partition(b"\n")
        assert json.loads(head) == manifold_to_header(man)
        assert Point(man, np.frombuffer(body, "<f8")).data.shape == (man.ambient_size,)


@pytest.mark.parametrize("preset", ["robust-mle-ragda", "robust-mle-gda", "synthetic-ragda", "synthetic-rsagda"])
def test_every_point_file_loads_with_the_readme_recipe(tmp_path, preset):
    assert main(["run", "--preset", preset, "--max-iters", "20", "--label", "p", "--out", str(tmp_path)]) == 0
    cfg = parsed_config(["run", "--preset", preset])
    problem = cli.build_problem(cfg)
    for i in range(cfg.repeats):
        for side, man in (("x", problem.mx), ("y", problem.my)):
            head, _, body = (tmp_path / f"p_rep{i}_{side}.point").read_bytes().partition(b"\n")
            assert json.loads(head) == manifold_to_header(man)
            Point(man, np.frombuffer(body, "<f8"))
    assert len(list(tmp_path.glob("*.point"))) == 2 * cfg.repeats


def test_run_is_deterministic_modulo_wall_clock(tmp_path):
    for sub in ("a", "b"):
        code = main([
            "run", "--preset", "robust-mle-ragda", "--max-iters", "40",
            "--d", "6", "--n", "20", "--label", "det", "--out", str(tmp_path / sub),
        ])
        assert code == 0
    body_a = strip_wall(tmp_path / "a" / "det_rep0.csv")
    body_b = strip_wall(tmp_path / "b" / "det_rep0.csv")
    assert body_a == body_b
    # and the final iterates are bit-identical
    xa = (tmp_path / "a" / "det_rep0_x.point").read_bytes()
    xb = (tmp_path / "b" / "det_rep0_x.point").read_bytes()
    assert xa == xb


def test_csv_floats_round_trip(tmp_path):
    main(["run", "--preset", "synthetic-ragda", "--max-iters", "25",
          "--label", "rt", "--out", str(tmp_path)])
    rows = read_rows(tmp_path / "rt_rep0.csv")
    for row in rows:
        for cell in row[2:]:
            val = float(cell)
            assert repr(val) == cell  # shortest round-trip form


def test_explicit_flags_override_preset(tmp_path):
    code = main([
        "run", "--preset", "synthetic-ragda", "--max-iters", "5",
        "--seed", "123", "--label", "o", "--out", str(tmp_path),
    ])
    assert code == 0
    assert len(read_rows(tmp_path / "o_rep0.csv")) == 5
    assert "seed = 123" in (tmp_path / "o_summary.txt").read_text()


def test_rm_seed_env_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("RM_SEED", "777")
    code = main([
        "run", "--preset", "synthetic-ragda", "--max-iters", "5",
        "--seed", "123", "--label", "env", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "seed = 777" in (tmp_path / "env_summary.txt").read_text()


def test_repeats_have_distinct_seeds(tmp_path):
    code = main([
        "run", "--problem", "synthetic-quadratic", "--solver", "ragda",
        "--max-iters", "30", "--repeats", "3",
        "--label", "rep", "--out", str(tmp_path),
    ])
    assert code == 0
    finals = [
        (tmp_path / f"rep_rep{i}_y.point").read_bytes() for i in range(3)
    ]
    assert finals[0] != finals[1] != finals[2]
    summary = (tmp_path / "rep_summary.txt").read_text()
    assert "repeat2.stop_reason" in summary


@pytest.mark.parametrize("preset", ["synthetic-rsagda", "robust-mle-ragda"])
def test_repeat_outputs_do_not_depend_on_the_repeat_count(tmp_path, preset):
    # The repeats run as one batch; repeat i writes the same bytes (clocks
    # aside) whether the batch holds 1, 2 or 4 of them.
    small = ["--d", "5", "--n", "12"] if preset == "robust-mle-ragda" else []
    for repeats in (1, 2, 4):
        code = main(["run", "--preset", preset, "--max-iters", "120", *small, "--repeats", str(repeats),
                     "--label", "b", "--out", str(tmp_path / str(repeats))])
        assert code == 0
    for i, repeats in ((0, 1), (0, 2), (1, 2), (0, 4), (1, 4), (3, 4)):
        last = tmp_path / "4"
        for name in (f"b_rep{i}_x.point", f"b_rep{i}_y.point"):
            assert (tmp_path / str(repeats) / name).read_bytes() == (last / name).read_bytes()
        assert strip_wall(tmp_path / str(repeats) / f"b_rep{i}.csv") == strip_wall(last / f"b_rep{i}.csv")


def test_quadratic_batch_size_leaves_a_run_unchanged(tmp_path):
    # The quadratic has one sample, so every batch is its full one-entry index
    # and the oracle noise stays sigma whatever --batch-size asks for.
    for size in ("1", "100"):
        assert main(["run", "--preset", "synthetic-rsagda", "--max-iters", "300", "--batch-size", size,
                     "--label", "b", "--out", str(tmp_path / size)]) == 0
    one, hundred = tmp_path / "1", tmp_path / "100"
    assert strip_wall(one / "b_rep0.csv") == strip_wall(hundred / "b_rep0.csv")
    for name in ("b_rep0_x.point", "b_rep0_y.point"):
        assert (one / name).read_bytes() == (hundred / name).read_bytes()


@pytest.mark.parametrize("argv", [["run", "--preset", "synthetic-ragda", "--max-iters", "3"],
                                  ["verify", "--suite", "adaptive-sum"]])
def test_rm_seed_not_an_integer_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("RM_SEED", "abc")
    assert main(argv + (["--out", str(tmp_path)] if argv[0] == "run" else [])) == 2
    assert "RM_SEED must be an integer" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path):
    assert main(["run", "--alpha", "2.0", "--out", str(tmp_path)]) == 2
    assert main(["run", "--preset", "no-such-preset", "--out", str(tmp_path)]) == 2


def test_numerical_error_exit_code(tmp_path):
    code = main([
        "run", "--problem", "synthetic-quadratic", "--solver", "tsgda",
        "--eta-x", "1e150", "--eta-y", "1e150", "--max-iters", "40",
        "--label", "boom", "--out", str(tmp_path),
    ])
    assert code == 3
    assert "repeat0.error = " in (tmp_path / "boom_summary.txt").read_text()


def test_spd_exp_overflow_is_a_typed_error_not_a_warning(tmp_path):
    # GDA with eta 0.5 overflows exp of the whitened SPD step within a few
    # steps; that must stop the run with a named error and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "run", "--preset", "robust-mle-gda", "--eta-x", "0.5", "--eta-y", "0.5",
            "--max-iters", "50", "--label", "of", "--out", str(tmp_path),
        ])
    assert code == 3
    summary = (tmp_path / "of_summary.txt").read_text()
    assert "repeat0.stop_reason = numerical_error" in summary
    assert "repeat0.error = DegenerateRetraction: exp map overflowed" in summary


SUMMARY_HEAD = ["label", "problem", "solver", "seed", "repeats", "env.numpy", "env.blas", "env.OPENBLAS_NUM_THREADS",
                "env.OMP_NUM_THREADS"]
SUMMARY_REPEAT = ["seed", "min_stationarity", "max_step_grad_norm", "stop_reason", "records", "oracle_calls.grad",
                  "oracle_calls.stoch_grad", "oracle_calls.value", "regime_flags", "wall_s"]


@pytest.mark.parametrize("flags, code, repeats, stop", [
    (["--preset", "synthetic-ragda", "--max-iters", "60", "--repeats", "2"], 0, 2, "max_iters"),
    (["--preset", "robust-mle-gda", "--eta-x", "0.5", "--eta-y", "0.5", "--max-iters", "50"], 3, 1, "numerical_error"),
    (["--preset", "synthetic-ragda", "--grad-tol", "1e-3"], 0, 1, "converged"),
], ids=["max-iters", "gda-overflow", "converged"])
def test_summary_keys_keep_their_order(tmp_path, flags, code, repeats, stop):
    assert main(["run", *flags, "--label", "s", "--out", str(tmp_path)]) == code
    lines = (tmp_path / "s_summary.txt").read_text().splitlines()
    # Only a failed repeat writes its error, last.
    per_repeat = SUMMARY_REPEAT + ["error"] * (stop == "numerical_error")
    assert [line.split(" = ", 1)[0] for line in lines] == [
        *SUMMARY_HEAD, *(f"repeat{i}.{key}" for i in range(repeats) for key in per_repeat), "aggregate.min_stationarity"]
    values = dict(line.split(" = ", 1) for line in lines)
    for i in range(repeats):
        assert values[f"repeat{i}.stop_reason"] == stop
        assert values[f"repeat{i}.oracle_calls.value"] == values[f"repeat{i}.records"]


def test_preset_from_file_and_bad_preset(tmp_path):
    good = tmp_path / "mine.cfg"
    good.write_text("problem = synthetic-quadratic\nmax-iters = 7\n")
    fields = load_preset(str(good))
    assert fields["max-iters"] == 7

    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-key = 3\n")
    assert main(["run", "--preset", str(bad), "--out", str(tmp_path)]) == 2


def test_rsagda_preset_short_run(tmp_path):
    code = main([
        "run", "--preset", "synthetic-rsagda", "--max-iters", "200",
        "--eval-stride", "50", "--label", "s", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_rows(tmp_path / "s_rep0.csv")
    assert [r[0] for r in rows] == ["0", "50", "100", "150", "199"]


def test_gda_preset_runs(tmp_path):
    code = main([
        "run", "--preset", "robust-mle-gda", "--max-iters", "30",
        "--d", "5", "--n", "12", "--label", "g", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = (tmp_path / "g_summary.txt").read_text()
    assert "solver = gda" in summary


def test_verify_adaptive_sum(capsys):
    assert main(["verify", "--suite", "adaptive-sum"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1/1 checks passed" in out


def test_verify_gradients(capsys):
    code = main(["verify", "--suite", "gradients", "--d", "5", "--n", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out.replace("0 FAIL", "")
    assert "grad_x matches finite differences" in out


def test_verify_rates(capsys):
    assert main(["verify", "--suite", "rates"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out and "PASS" in out


def test_verify_geometry(capsys):
    assert main(["verify", "--suite", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "retraction accuracy Sphere(3)" in out
    assert "FAIL" not in out


# -- the field table -------------------------------------------------------------

# Per key, a non-default value for a preset line and a different value for
# the flag that must override it.
TABLE_VALUES = {
    "problem": ("synthetic-quadratic", "robust-mle"),
    "solver": ("gda", "tsgda"),
    "alpha": ("0.25", "0.75"),
    "beta": ("0.125", "0.375"),
    "eta-x": ("0.75", "1.5"),
    "eta-y": ("2.5", "7"),
    "v0-x": ("0.001", "0.01"),
    "v0-y": ("0.002", "0.02"),
    "max-iters": ("17", "23"),
    "grad-tol": ("1e-05", "0.001"),
    "batch-size": ("4", "8"),
    "seed": ("11", "12"),
    "repeats": ("2", "3"),
    "eval-stride": ("7", "9"),
    "label": ("from-preset", "from-flag"),
    "d": ("5", "6"),
    "n": ("40", "50"),
    "c": ("-2.5", "3"),
    "k": ("4", "5"),
    "m": ("3", "6"),
    "mu": ("2", "0.5"),
    "sigma": ("0.25", "0"),
    "data-seed": ("5", "6"),
}


def config_value(cfg, key):
    if key == "solver":
        return cfg.solver.method.value
    attr = key.replace("-", "_")
    return getattr(cfg.solver if hasattr(cfg.solver, attr) else cfg, attr)


def parsed_config(argv):
    args = _build_parser().parse_args(argv)
    return ExperimentConfig.from_fields(_collect_fields(args))


def test_table_values_cover_every_key():
    assert set(TABLE_VALUES) == set(SURFACE) == set(_FIELDS)


def test_every_config_field_has_exactly_one_key():
    # A key lands on one field of SolverConfig or ExperimentConfig ("solver"
    # on method), and every field but ExperimentConfig.solver has a key.
    solver = {f.name for f in fields(SolverConfig)}
    experiment = {f.name for f in fields(ExperimentConfig)} - {"solver"}
    assert not solver & experiment
    attrs = ["method" if key == "solver" else key.replace("-", "_") for key in _FIELDS]
    assert sorted(attrs) == sorted(solver | experiment)


@pytest.mark.parametrize("key", sorted(TABLE_VALUES))
def test_every_key_reaches_the_config_and_a_flag_overrides_the_preset(tmp_path, key):
    in_preset, in_flag = TABLE_VALUES[key]
    preset = tmp_path / "p.cfg"
    preset.write_text(f"{key} = {in_preset}\n")
    parse = _parser(_FIELDS[key])
    default = config_value(ExperimentConfig(), key)
    from_preset = config_value(parsed_config(["run", "--preset", str(preset)]), key)
    assert from_preset == parse(in_preset) != default
    from_flag = config_value(parsed_config(["run", "--preset", str(preset), f"--{key}", in_flag]), key)
    assert from_flag == parse(in_flag) != from_preset


def flags_of(command):
    return set(actions_of(command)) - {"-h", "--help"}


def test_accepted_flag_sets():
    assert flags_of("verify") == {
        "--suite", "--seed", "--problem", "--d", "--n", "--c", "--k", "--m",
        "--mu", "--data-seed",
    }
    assert flags_of("run") == {
        "--preset", "--out", "--problem", "--solver", "--alpha", "--beta", "--eta-x", "--eta-y",
        "--v0-x", "--v0-y", "--max-iters", "--grad-tol", "--batch-size", "--seed", "--repeats",
        "--eval-stride", "--label", "--d", "--n", "--c", "--k", "--m", "--mu", "--sigma", "--data-seed",
    }


# Per key: whether `manimax verify` takes it too, its help text, the type its
# text parses to (integer, finite float or text) and its default, as the
# command line has had them since before the keys were derived from the fields.
SURFACE = {
    "problem": (True, "one of robust-mle, synthetic-quadratic", str, "robust-mle"),
    "solver": (False, "one of ragda, rsagda, gda, tsgda", str, Method.RAGDA),
    "alpha": (False, "descent stepsize exponent, in (0, 1)", float, 0.5),
    "beta": (False, "ascent stepsize exponent, in (0, 1)", float, 0.5),
    "eta-x": (False, "descent stepsize scale", float, 0.5),
    "eta-y": (False, "ascent stepsize scale", float, 5.0),
    "v0-x": (False, "initial descent accumulator", float, 1e-6),
    "v0-y": (False, "initial ascent accumulator", float, 1e-6),
    "max-iters": (False, "iteration budget", int, 1000),
    "grad-tol": (False, "stop once ||grad_x|| + ||grad_y|| <= this", float, 0.0),
    "batch-size": (False, "minibatch size of the stochastic method", int, 1),
    "seed": (True, "base seed (RM_SEED env overrides)", int, 0),
    "repeats": (False, "independent runs, each with its own derived seed", int, 1),
    "eval-stride": (False, "steps between exact evaluations of stochastic runs", int, 50),
    "label": (False, "output filename stem (default: <problem>-<solver>)", str, ""),
    "d": (True, "robust-mle data dimension", int, 30),
    "n": (True, "robust-mle sample count", int, 100),
    "c": (True, "robust-mle regularization weight", float, -5.0),
    "k": (True, "synthetic-quadratic sphere dimension", int, 20),
    "m": (True, "synthetic-quadratic ascent dimension", int, 10),
    "mu": (True, "synthetic-quadratic concavity", float, 1.0),
    "sigma": (False, "synthetic-quadratic oracle noise", float, 0.1),
    "data-seed": (True, "seed of the generated instance", int, 0),
}


def actions_of(command):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt: action for action in sub.choices[command]._actions for opt in action.option_strings}


@pytest.mark.parametrize("key", sorted(SURFACE))
def test_each_key_keeps_its_flag_help_parser_and_default(key):
    verify, help_text, kind, default = SURFACE[key]
    run_flags, verify_flags = actions_of("run"), actions_of("verify")
    assert run_flags[f"--{key}"].help == help_text and run_flags[f"--{key}"].dest == key
    assert (f"--{key}" in verify_flags) is verify
    if verify:
        assert verify_flags[f"--{key}"].help == help_text
    assert type(cli._parse(key, "7", key)) is kind
    declared = {f.name: f.default for cls in (SolverConfig, ExperimentConfig) for f in fields(cls)}
    attr = "method" if key == "solver" else key.replace("-", "_")
    assert type(declared[attr]) is type(default) and declared[attr] == default


# The fields checked by a per-field rule: every field but method, problem,
# solver and label, whose checks are written out by hand.
RULED = [(SolverConfig, f.name) for f in fields(SolverConfig) if f.name != "method"] + [
    (ExperimentConfig, f.name) for f in fields(ExperimentConfig) if f.name not in ("problem", "solver", "label")]


@pytest.mark.parametrize("cls, name", RULED, ids=[name for _, name in RULED])
def test_a_bad_value_is_named_by_its_own_field(cls, name):
    with pytest.raises(ConfigError, match=f"^{name} must "):
        cls(**{name: None})


def test_an_experiment_config_is_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.repeats = 10**6
    with pytest.raises(FrozenInstanceError):
        cfg.label = "a/b"
    assert cfg.repeats == 1 and cfg.label == "robust-mle-ragda"


def test_budget_decades_is_gone(capsys, no_runs):
    # The rates suite always runs budgets 10^2, 10^2.5, ..., 10^4.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "rates", "--budget-decades", "3"])
    assert exc.value.code == 2
    assert cli._RATE_BUDGETS == (100, 316, 1000, 3162, 10_000)


def test_jobs_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "synthetic-ragda", "--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    preset = tmp_path / "jobs.cfg"
    preset.write_text("jobs = 2\n")
    assert main(["run", "--preset", str(preset), "--out", str(tmp_path)]) == 2
    assert "unknown or malformed entry 'jobs = 2'" in capsys.readouterr().err


# -- configuration errors exit 2 ---------------------------------------------------


def assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    return err


@pytest.mark.parametrize("flags", [
    ["--problem", "robust-mle", "--d", "0"],
    ["--problem", "robust-mle", "--n", "0"],
    ["--problem", "robust-mle", "--d", "-1"],
    ["--problem", "synthetic-quadratic", "--mu", "-1"],
    ["--problem", "synthetic-quadratic", "--k", "1"],
    ["--problem", "synthetic-quadratic", "--m", "0"],
    # Points over the budget of ExperimentConfig, rejected before any problem is built.
    ["--problem", "robust-mle", "--d", "1000000000000", "--n", "100"],
    ["--problem", "synthetic-quadratic", "--k", "1000000000000", "--m", "100"],
    # Points within that budget, but instances of 9.1e16 and 5e15 floats, over
    # the budget of an instance's own floats.
    ["--problem", "robust-mle", "--d", "30", "--n", "1000000000000000"],
    ["--problem", "synthetic-quadratic", "--k", "50000000", "--m", "50000000"],
], ids=" ".join)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_bad_problem_size_is_a_config_error(tmp_path, capsys, command, flags):
    tail = ["--max-iters", "1", "--out", str(tmp_path)] if command == "run" else ["--suite", "gradients"]
    assert_config_error([command, *flags, *tail], capsys)


def test_negative_noise_is_a_config_error(tmp_path, capsys):
    assert_config_error(["run", "--problem", "synthetic-quadratic", "--sigma", "-1", "--out", str(tmp_path)], capsys)


def test_a_flag_takes_a_negative_number_in_exponent_form_as_its_value(tmp_path, monkeypatch):
    # argparse alone reads -5e-1 as a flag, and stops with "expected one argument".
    seen, build_problem = [], cli.build_problem

    def build(cfg):
        seen.append(cfg.c)
        return build_problem(cfg)

    monkeypatch.setattr(cli, "build_problem", build)
    argv = ["run", "--preset", "robust-mle-ragda", "--c", "-5e-1", "--max-iters", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert seen == [-0.5]


def test_a_negative_mu_in_exponent_form_is_a_config_error(tmp_path, capsys):
    err = assert_config_error(["run", "--preset", "synthetic-ragda", "--mu", "-1e0", "--out", str(tmp_path)], capsys)
    assert "mu must be positive and finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "synthetic-ragda", "--seed", "-1"],
    ["run", "--preset", "synthetic-ragda", "--data-seed", "-1"],
    ["verify", "--suite", "adaptive-sum", "--seed", "-3"],
    ["verify", "--suite", "rates", "--data-seed", "-1"],
], ids=" ".join)
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv):
    assert_config_error(argv + (["--out", str(tmp_path)] if argv[0] == "run" else []), capsys)


@pytest.mark.parametrize("argv", [["run", "--preset", "synthetic-ragda", "--max-iters", "3"],
                                  ["verify", "--suite", "adaptive-sum"]])
def test_negative_rm_seed_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("RM_SEED", "-5")
    assert_config_error(argv + (["--out", str(tmp_path)] if argv[0] == "run" else []), capsys)


FLOAT_KEYS = sorted(key for key, spec in _FIELDS.items() if _parser(spec) is _finite)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_a_config_error(tmp_path, capsys, key, bad):
    assert_config_error(["run", f"--{key}={bad}", "--out", str(tmp_path)], capsys)
    preset = tmp_path / "p.cfg"
    preset.write_text(f"{key} = {bad}\n")
    assert_config_error(["run", "--preset", str(preset), "--out", str(tmp_path)], capsys)


@pytest.fixture
def no_runs(monkeypatch):
    """Make any repeat or verify suite fail the test: the checks must come first."""
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the configuration was checked")

    for name in ("run_experiment", "_geometry_suite", "_gradients_suite", "_rates_suite", "_adaptive_sum_suite"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize("label", ["a/b", "../up", "nul\0byte"])
def test_label_with_path_separator_is_a_config_error(tmp_path, capsys, no_runs, label):
    assert_config_error(["run", "--preset", "synthetic-ragda", "--label", label, "--out", str(tmp_path)], capsys)
    assert list(tmp_path.iterdir()) == []


def test_out_that_cannot_be_created_is_a_config_error(tmp_path, capsys, no_runs):
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub", tmp_path / "nul\0byte"):
        assert_config_error(["run", "--preset", "synthetic-ragda", "--out", str(out)], capsys)


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "0"], "repeats must be >= 1"),
    (["--problem", "bogus"], "unknown problem 'bogus'"),
    (["--eval-stride", "0"], "eval_stride must be >= 1"),
], ids=["repeats", "problem", "eval-stride"])
def test_out_of_range_experiment_setting_is_a_config_error(tmp_path, capsys, no_runs, flags, message):
    assert message in assert_config_error(["run", *flags, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "10001"], "repeats must be <= 10000, got 10001"),
    (["--repeats", "100000000"], "repeats must be <= 10000, got 100000000"),
    (["--repeats", "1000", "--max-iters", "5000"], "1000 repeats of 5000 steps may keep over 1000000 records"),
    (["--problem", "robust-mle", "--d", "300", "--repeats", "10000", "--max-iters", "0"],
     "10000 repeats of 90902 point floats each exceed 100000000 floats"),
    (["--k", "60000", "--m", "40000", "--repeats", "1001", "--max-iters", "0"],
     "1001 repeats of 100000 point floats each exceed 100000000 floats"),
    (["--problem", "robust-mle", "--d", "99", "--n", "10000", "--repeats", "101", "--max-iters", "0"],
     "101 repeats of 1000000 residual floats each exceed 100000000 floats"),
], ids=["10001", "10^8", "1000x5000", "10000xd300", "1001xk+m", "101xn(d+1)"])
def test_repeats_over_budget_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch, flags, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("built a problem or a run before the repeats were checked")

    monkeypatch.setattr(cli, "build_problem", forbidden)
    monkeypatch.setattr(cli, "run_seeds", forbidden)
    err = assert_config_error(["run", "--preset", "synthetic-rsagda", *flags, "--out", str(tmp_path)], capsys)
    assert message in err


def test_repeats_budget_edges():
    # Each row keeps at most min(max_iters, 10^4) + 1 records; the budget is 10^6 records in all.
    for repeats, max_iters in ((10_000, 99), (99, 10**6), (1, 10**9)):
        ExperimentConfig(repeats=repeats, solver=SolverConfig(max_iters=max_iters))
    for repeats, max_iters in ((10_000, 100), (100, 10**6), (10_001, 1)):
        with pytest.raises(ConfigError):
            ExperimentConfig(repeats=repeats, solver=SolverConfig(max_iters=max_iters))
    # A row's points are (d+1) + (d+1)^2 floats on robust-mle and k + m on the
    # quadratic; the budget is 10^8 floats in all.
    steps = SolverConfig(max_iters=0)
    ExperimentConfig(problem="robust-mle", d=99, repeats=9900, solver=steps)
    ExperimentConfig(problem="synthetic-quadratic", k=6000, m=4000, repeats=10_000, solver=steps)
    for sizes in ({"problem": "robust-mle", "d": 99, "repeats": 9901},
                  {"problem": "synthetic-quadratic", "k": 6001, "m": 4000, "repeats": 10_000}):
        with pytest.raises(ConfigError, match="point floats"):
            ExperimentConfig(solver=steps, **sizes)
    # A robust-mle step stacks n(d+1) residual floats a repeat; the budget is 10^8 floats in all.
    ExperimentConfig(problem="robust-mle", d=99, n=10_000, repeats=100, solver=steps)
    with pytest.raises(ConfigError, match="residual floats"):
        ExperimentConfig(problem="robust-mle", d=99, n=10_000, repeats=101, solver=steps)


@pytest.mark.parametrize("flags", [
    ["--problem", "robust-mle", "--n", "20000000"],
    ["--problem", "synthetic-quadratic", "--k", "40000", "--m", "40000"],
], ids=" ".join)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_instance_over_budget_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch, command, flags):
    # Sizes that could be allocated but far too large: 1.8e9 and 3.2e9 floats.
    def forbidden(*args, **kwargs):
        raise AssertionError("built a problem or a run before the instance was checked")

    monkeypatch.setattr(cli, "build_problem", forbidden)
    monkeypatch.setattr(cli, "run_seeds", forbidden)
    tail = ["--out", str(tmp_path)] if command == "run" else ["--suite", "gradients"]
    err = assert_config_error([command, *flags, *tail], capsys)
    assert "instance of" in err and "floats, over 100000000" in err


def test_instance_budget_edges():
    # The instance holds n(3d+1) floats on robust-mle (the data, the problem's
    # copy and the lifted rows) and 2mk on the quadratic (the matrix and its
    # copy); the budget is 10^8 floats. Nothing is built here.
    ExperimentConfig(problem="robust-mle", d=30, n=1_098_901)
    ExperimentConfig(problem="synthetic-quadratic", k=10_000, m=5_000)
    for sizes in ({"problem": "robust-mle", "d": 30, "n": 1_098_902},
                  {"problem": "synthetic-quadratic", "k": 10_000, "m": 5_001}):
        with pytest.raises(ConfigError, match="instance of"):
            ExperimentConfig(**sizes)


def test_run_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "run_seeds", out_of_memory)
    err = assert_config_error(["run", "--preset", "synthetic-ragda", "--repeats", "3", "--out", str(tmp_path)], capsys)
    assert "cannot allocate 3 repeat(s) of this run: Unable to allocate 8.00 GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["geometry", "all"])
def test_bad_problem_size_is_a_config_error_before_any_suite(capsys, no_runs, suite):
    assert_config_error(["verify", "--suite", suite, "--d", "0"], capsys)


def test_unreadable_preset_is_a_config_error(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"problem = robust-mle\n\xff\xfe = 3\n")
    assert_config_error(["run", "--preset", str(binary), "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("directory", [False, True], ids=["empty-name", "directory"])
def test_preset_that_names_no_file_is_not_found(tmp_path, capsys, no_runs, directory):
    # "" is the path ".", a directory: neither is read as a preset file.
    name = str(tmp_path) if directory else ""
    err = assert_config_error(["run", "--preset", name, "--out", str(tmp_path / "out")], capsys)
    assert f"preset {name!r} not found (not a file, not a packaged preset)" in err
    assert list(tmp_path.iterdir()) == []


PRESET_LINES = st.lists(
    st.tuples(st.sampled_from(sorted(_FIELDS)) | st.text(max_size=8), st.text(max_size=12)).map(" = ".join),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=200) | PRESET_LINES)
def test_load_preset_fuzz_yields_fields_or_config_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "p.cfg"
    path.write_bytes(blob)
    try:
        values = load_preset(str(path))
    except ConfigError:
        return
    assert isinstance(values, dict) and set(values) <= set(_FIELDS)


# -- scalar arguments ------------------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ExperimentConfig(data_seed=1.5), id="float-data-seed"),
    pytest.param(lambda: ExperimentConfig(label=5), id="int-label"),
    pytest.param(lambda: ExperimentConfig(repeats=2.5), id="float-repeats"),
    pytest.param(lambda: ExperimentConfig(repeats=True), id="bool-repeats"),
    pytest.param(lambda: ExperimentConfig(repeats=10**5000), id="huge-repeats"),
    pytest.param(lambda: ExperimentConfig(d=10**5000), id="huge-d"),
    pytest.param(lambda: ExperimentConfig(d="3"), id="text-d"),
    pytest.param(lambda: ExperimentConfig(problem="synthetic-quadratic", k=2.0), id="float-k"),
    pytest.param(lambda: ExperimentConfig(n=None), id="none-n"),
    pytest.param(lambda: ExperimentConfig(mu="1"), id="text-mu"),
    pytest.param(lambda: ExperimentConfig(c=True), id="bool-c"),
    pytest.param(lambda: ExperimentConfig(problem=None), id="none-problem"),
    pytest.param(lambda: ExperimentConfig(solver={"eta_x": 0.5}), id="dict-solver"),
    pytest.param(lambda: cli.build_problem(ExperimentConfig(d=2.5)), id="build-float-d"),
    pytest.param(lambda: cli.build_problem(ExperimentConfig(problem="synthetic-quadratic", m=-3)),
                 id="build-negative-m"),
])
def test_scalar_argument_of_the_wrong_type_or_range_is_a_config_error(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("sizes, message", [
    ({"problem": "robust-mle", "d": -100000}, "d must be >= 1, got -100000"),
    ({"problem": "robust-mle", "n": -10**9}, "n must be >= 1, got -1000000000"),
    ({"problem": "synthetic-quadratic", "k": -40000, "m": -40000}, "k must be >= 1, got -40000"),
    ({"problem": "synthetic-quadratic", "m": 0}, "m must be >= 1, got 0"),
], ids=["d", "n", "k-and-m", "m"])
def test_a_size_out_of_range_gets_its_range_message_not_a_budget_message(sizes, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**sizes)


def test_fields_the_problem_does_not_use_keep_their_ranges():
    # The quadratic does not read d, n or c, so their values are not its concern.
    ExperimentConfig(problem="synthetic-quadratic", d=-5, n=0, c=float("nan"))
    ExperimentConfig(problem="robust-mle", k=0, m=-1, mu=0.0, sigma=float("inf"))


@pytest.mark.parametrize("label", [
    "x\nrepeat0.stop_reason = converged",  # would forge a summary line
    "x" * 250,  # its output names would be too long for the file system
    "a\udcffb",  # the undecodable byte 0xff of a command line; the summary could not encode it
    "tab\there",
])
def test_label_that_would_corrupt_or_crash_the_outputs_is_a_config_error(tmp_path, capsys, monkeypatch, label):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the label was checked")

    monkeypatch.setattr(cli, "run_seeds", forbidden)
    assert_config_error(["run", "--preset", "synthetic-ragda", "--label", label, "--out", str(tmp_path)], capsys)
    assert list(tmp_path.iterdir()) == []


def test_label_length_counts_the_bytes_of_the_longest_output_name():
    # <label>_rep<repeats-1>_x.point must fit in 255 bytes; "é" is 2 bytes in UTF-8.
    ExperimentConfig(label="x" * 242)
    ExperimentConfig(label="é" * 121)
    for label, repeats in (("x" * 243, 1), ("é" * 122, 1), ("x" * 242, 11)):
        with pytest.raises(ConfigError, match="255"):
            ExperimentConfig(label=label, repeats=repeats)


SCALARS = st.none() | st.booleans() | st.text(max_size=8) | st.floats(allow_nan=True, allow_infinity=True) | st.integers()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_construction_is_a_value_or_a_config_error(data):
    # Construction only: an accepted size can still be too large to build.
    cls = data.draw(st.sampled_from([SolverConfig, ExperimentConfig]))
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]))
    value = data.draw(SCALARS)
    try:
        cls(**{name: value})
    except ConfigError:
        pass
