"""Digest of every output that `manimax run` and `manimax verify` write, so that
"outputs stay byte-identical" between two trees is one diff.

Run from the root of a checkout, with no arguments:

    python tools/output_digest.py

With seed 0 and data seed 0, and the checkout's own `src/` on the path, it
runs the `manimax run` commands of `RUNS` and `verify --suite all`, one after
another through `manimax.cli.main` in one fresh interpreter, and prints
one line `<sha256>  <name>` per output, after three `#` lines naming the
Python, numpy and BLAS builds that the bits depend on. `RUNS` holds the four
packaged presets (`synthetic-rsagda` with 4 repeats of 5000 steps), then five
short runs of paths that no preset reaches: robust-mle RSAGDA on batches of
10 of its 100 samples, a stacked robust-mle RAGDA run of 3 repeats, TSGDA
and GDA on the quadratic, and TSGDA on robust-mle. Clocks are left out of
the hash: the `wall_s` column of each CSV trace and the `repeat<i>.wall_s`
lines of each summary.
`.point` files and the verify stdout are hashed as written. The commands run
without `RM_SEED`, which overrides `--seed`, and without the BLAS thread
variables, which the summaries write, so the listing does not depend on
them. To compare two trees, run the same script from the root of each and
diff the two listings.

`tests/output_digest.txt` pins this listing, and `tests/test_output_digest.py`
checks the tree against it. A change that means to alter an output rewrites
the pin, from the root of the checkout, with

    python tools/output_digest.py > tests/output_digest.txt

and says which outputs changed and why.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNS = {  # output directory: the flags of its `manimax run`
    "robust-mle-ragda": ["--preset", "robust-mle-ragda"],
    "robust-mle-gda": ["--preset", "robust-mle-gda"],
    "synthetic-ragda": ["--preset", "synthetic-ragda"],
    "synthetic-rsagda": ["--preset", "synthetic-rsagda", "--repeats", "4", "--max-iters", "5000"],
    "robust-mle-rsagda-batch10": ["--preset", "robust-mle-ragda", "--solver", "rsagda", "--batch-size", "10",
                                  "--max-iters", "300", "--repeats", "3"],
    "robust-mle-ragda-stacked": ["--preset", "robust-mle-ragda", "--max-iters", "300", "--repeats", "3"],
    "synthetic-tsgda": ["--preset", "synthetic-ragda", "--solver", "tsgda", "--eta-x", "0.01", "--eta-y", "0.5",
                        "--max-iters", "1000"],
    "synthetic-gda": ["--preset", "synthetic-ragda", "--solver", "gda", "--eta-x", "0.05", "--eta-y", "0.05",
                      "--max-iters", "1000"],
    "robust-mle-tsgda": ["--preset", "robust-mle-ragda", "--solver", "tsgda", "--eta-x", "0.001", "--eta-y", "0.01",
                         "--max-iters", "300"],
}
SEEDS = ["--seed", "0", "--data-seed", "0"]
# RM_SEED overrides --seed, and the summaries write the thread variables.
_UNSET = ("RM_SEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_WALL_LINE = re.compile(rb"repeat\d+\.wall_s = ")


def digest_line(name: str, data: bytes) -> str:
    """`<sha256>  <name>` of output `name`, hashed without its clocks."""
    if name.endswith(".csv"):
        rows = [line.split(",") for line in data.decode("utf-8").split("\n")]
        col = rows[0].index("wall_s")
        data = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows).encode("utf-8")
    elif name.endswith("_summary.txt"):
        data = b"".join(line for line in data.splitlines(keepends=True) if not _WALL_LINE.match(line))
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


# The interpreter of `manimax`: it runs the commands of the JSON list in argv[1] in order, and
# prints their stdouts as one JSON list once every command has exited 0.
_COMMANDS = """\
import contextlib, io, json, sys
from manimax.cli import main
stdouts = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code:
        sys.exit(f"manimax {' '.join(argv)} exited {code}")
    stdouts.append(out.getvalue())
print(json.dumps(stdouts))
"""


def manimax(root: Path, commands: list[list[str]]) -> list[str]:
    """Stdout of each `manimax <argv>` of `commands`, run in order in one interpreter on `root/src`;
    any exit code but 0 stops the digest."""
    env = {key: value for key, value in os.environ.items() if key not in _UNSET}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run([sys.executable, "-c", _COMMANDS, json.dumps(commands)], cwd=root, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"manimax exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def environment() -> list[str]:
    """The `#` header lines: the Python, numpy and BLAS builds that the bits depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}"]


def digest(root: Path, runs: dict[str, list[str]] = RUNS, verify: bool = True) -> list[str]:
    """The digest lines of every output of the runs of `runs`, named `<name>/<file>`, and of `verify`
    unless `verify` is false, all run on `root/src`."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = [["run", *flags, *SEEDS, "--out", str(Path(tmp, name))] for name, flags in runs.items()]
        if verify:
            commands.append(["verify", "--suite", "all", *SEEDS])
        stdouts = manimax(root, commands)
        lines = [digest_line(f"{name}/{path.name}", path.read_bytes())
                 for name in runs for path in sorted(Path(tmp, name).iterdir())]
    if verify:
        lines.append(digest_line("verify/stdout", stdouts[-1].encode("utf-8")))
    return lines


def main() -> None:
    print("\n".join(environment() + digest(Path.cwd())))


if __name__ == "__main__":
    main()
