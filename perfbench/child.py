"""One `latefuse run` in a fresh interpreter, timed from outside the package.

Usage (run.py starts it with the workload directory as working directory and
the checkout's `src` on PYTHONPATH):

    python3 child.py <result.json> <trace 0|1> [<spans.json>]

It imports latefuse, marks the moment `make_fold_plan` returns in `cli` (the
dataset is ready), calls `latefuse.cli.main(["run", "-c", "config.json"])`,
and writes a JSON result with CLOCK_MONOTONIC stamps, which the parent
compares with its own spawn stamp. With trace 1 it also installs the tracer
and writes the spans.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    t_import = time.perf_counter()
    import numpy
    import scipy

    import latefuse.cli as cli

    import_s = time.perf_counter() - t_import

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ready: list[float] = []
    plan_fn = cli.make_fold_plan

    def mark_ready(*args, **kwargs):
        plan = plan_fn(*args, **kwargs)
        if not ready:
            ready.append(time.monotonic())
        return plan

    cli.make_fold_plan = mark_ready
    rc = cli.main(["run", "-c", "config.json"])
    end = time.monotonic()

    if tracer is not None:
        tracer.dump(sys.argv[3])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "ready": ready[0] if ready else None,
                "end": end,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
