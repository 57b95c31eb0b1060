"""One benchmark job in a fresh interpreter.

Usage: python child.py <job> <seed> <traced 0|1> <plant 0|1>

Every timed run gets its own interpreter, so module state (the shared series
context, ``cached_property`` caches on posets, whatever a fork would inherit)
is paid on every run, as a CLI user pays it.  The protocol on stdin/stdout is
one JSON line each way:

1. the child imports svtab, builds the job's inputs and prints
   ``{"ready": ..., "cpu_s": ...}`` (its own CPU so far);
2. the parent answers ``go`` (run the job) or ``stop`` (setup sample only);
3. after ``go`` the child prints ``{"wall_s", "attempted", "failed",
   "failures", "info", "spans"}`` and exits.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    job, seed, traced, plant = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"

    import svtab  # noqa: F401  (the import is part of set-up)
    import svtab.verify  # noqa: F401

    from tracing import NullTracer, Tracer
    from workloads import JOBS, Checks

    setup, run = JOBS[job]
    inputs = setup(seed)
    own = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"ready": job, "cpu_s": own.ru_utime + own.ru_stime}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = Tracer() if traced else NullTracer()
    checks = Checks(plant)
    started = perf_counter()
    with tracer.span(f"bench.{job}"):
        info = run(inputs, tracer, checks)
    wall = perf_counter() - started
    print(
        json.dumps(
            {
                "wall_s": wall,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "failures": checks.failures,
                "info": info,
                "spans": tracer.spans,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
