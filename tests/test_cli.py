"""End-to-end tests of the command line harness."""
import numpy as np
import pytest

from manimax import Sphere, SPD, deserialize_point
from manimax.cli import load_preset, main


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,wall_s,grad_x_norm,grad_y_norm,eta_t,gamma_t,f_value"
    return [line.split(",") for line in lines[1:]]


def strip_wall(path):
    """CSV body with the wall-clock column removed, for determinism checks."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return "\n".join(",".join(r[:1] + r[2:]) for r in rows)


def test_run_preset_writes_outputs(tmp_path):
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
    x = deserialize_point((tmp_path / "t_rep0_x.point").read_bytes())
    y = deserialize_point((tmp_path / "t_rep0_y.point").read_bytes())
    assert x.manifold.spec_key() == Sphere(20).spec_key()
    assert y.data.shape == (10,)


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
        "--max-iters", "30", "--repeats", "3", "--jobs", "2",
        "--label", "rep", "--out", str(tmp_path),
    ])
    assert code == 0
    finals = [
        (tmp_path / f"rep_rep{i}_y.point").read_bytes() for i in range(3)
    ]
    assert finals[0] != finals[1] != finals[2]
    summary = (tmp_path / "rep_summary.txt").read_text()
    assert "repeat2.stop_reason" in summary


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
