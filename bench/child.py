"""One benchmark pass in a fresh interpreter; started by run.py, never by hand.

    python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``invocations`` (argument lists for ``manimax.cli.main``, run
in order), ``result`` (where to write this pass's JSON result), and ``spans``
(where to write the span file, or null for an untraced pass). The result
holds each invocation's exit code and standard output, the monotonic clock
reading when the last invocation returned, and the (iteration, wall_s) pairs
of every solver trace the command line produced, which ``manimax verify``
does not write to disk.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(spec: dict) -> None:
    recorder = None
    if spec["spans"] is not None:
        import tracing

        recorder = tracing.install()
    import manimax.cli as cli

    # A pass-through that keeps each returned trace's record clocks; it adds
    # one call per solver run, nothing per step.
    solver_records: list[list[list[float]]] = []
    run = cli.run

    def keep_records(*args, **kwargs):
        trace = run(*args, **kwargs)
        solver_records.append([[rec.t, rec.wall_s] for rec in trace.records])
        return trace

    cli.run = keep_records

    invocations = []
    for argv in spec["invocations"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        invocations.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    done = time.monotonic()
    if recorder is not None:
        recorder.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"invocations": invocations, "done": done, "solver_records": solver_records}, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
