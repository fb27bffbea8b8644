"""The README's library examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    # The quick start defines prob and cfg, which the run_seeds example uses.
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["traces"]) == 10
    # cfg.seed is 0, and trace i of run_seeds equals run for seeds[i].
    assert namespace["traces"][0].min_stationarity == namespace["trace"].min_stationarity
