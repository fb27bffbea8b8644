"""tools/output_digest.py hashes outputs without their clocks, a run hashes alike
twice, and every output of the tree keeps the bits pinned in tests/output_digest.txt."""
import importlib.util
from pathlib import Path

import pytest

from manimax import cli

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)

HEADER = [column for column, _ in cli._CSV_COLUMNS]
PINNED = ROOT / "tests" / "output_digest.txt"


def csv_text(rows: list[list[str]]) -> bytes:
    return "\n".join(",".join(row) for row in [HEADER, *rows]).encode("utf-8") + b"\n"


def sample_rows() -> list[list[str]]:
    return [[f"{i}.{j}" for j in range(len(HEADER))] for i in range(3)]


def test_csv_texts_differing_only_in_wall_s_hash_alike():
    rows = sample_rows()
    other = [list(row) for row in rows]
    other[1][HEADER.index("wall_s")] = "123.456"
    assert digest.digest_line("a.csv", csv_text(rows)) == digest.digest_line("a.csv", csv_text(other))


@pytest.mark.parametrize("column", [c for c in HEADER if c != "wall_s"])
def test_csv_texts_differing_in_another_column_hash_apart(column):
    rows = sample_rows()
    other = [list(row) for row in rows]
    other[1][HEADER.index(column)] = "123.456"
    assert digest.digest_line("a.csv", csv_text(rows)) != digest.digest_line("a.csv", csv_text(other))


def test_summaries_differing_only_in_repeat_wall_s_hash_alike():
    text = b"label = a\nrepeat0.wall_s = %s\nrepeat0.stop_reason = max_iters\nrepeat12.wall_s = %s\n"
    assert (digest.digest_line("a_summary.txt", text % (b"0.1", b"2.0"))
            == digest.digest_line("a_summary.txt", text % (b"0.3", b"9.5")))
    assert (digest.digest_line("a_summary.txt", text.replace(b"max_iters", b"converged") % (b"0.1", b"2.0"))
            != digest.digest_line("a_summary.txt", text % (b"0.1", b"2.0")))


def test_a_run_hashes_alike_twice(monkeypatch):
    flags = ["--preset", "synthetic-rsagda", "--repeats", "2", "--max-iters", "20"]
    first = digest.run_digest(ROOT, "synthetic-rsagda", flags)
    # The summaries write these variables, so the digest's commands run without them.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert first == digest.run_digest(ROOT, "synthetic-rsagda", flags)
    # A CSV trace and two .point files per repeat, and one summary.
    assert [line.split("  ")[1] for line in first] == [
        f"synthetic-rsagda/synthetic-quadratic-rsagda_{name}" for name in (
            "rep0.csv", "rep0_x.point", "rep0_y.point", "rep1.csv", "rep1_x.point", "rep1_y.point", "summary.txt")
    ]


def test_outputs_keep_their_pinned_bits():
    # Bits depend on the Python, numpy and BLAS builds: a pin made on other
    # builds says nothing here, so the test fails and names both. To change an
    # output on purpose, rewrite the pin as tools/output_digest.py says.
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    pinned_env = [line for line in lines if line.startswith("#")]
    here = digest.environment()
    assert pinned_env == here, f"the pin was made on {pinned_env}, this environment is {here}"
    pinned = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    now = dict(reversed(line.split("  ", 1)) for line in digest.digest(ROOT))
    changed = sorted(name for name in pinned.keys() | now.keys() if pinned.get(name) != now.get(name))
    assert not changed, f"outputs whose bits differ from the pin: {changed}"
    assert len(now) == 54
