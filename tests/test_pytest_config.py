"""The suite turns every warning into an error, yet a falsified property test still reports as
one failed test: the hypothesis plugin's own report-time deprecation warning is the one let through."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FALSIFIED = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 5
"""


def test_a_falsified_hypothesis_test_reports_as_one_failure(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_falsified.py::test_falsified" in done.stdout
