"""svtab benchmark: three workloads, end-to-end metrics, and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-desk --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``verify-desk``: ``python -m svtab verify --suite all --budget desk
  --parallel <usable cores> --report json``, timed from outside the CLI;
* ``stream-biject``: every tableau of ``gen_two_row_union(n)``, n = 2..9,
  through three bijection roundtrips and two statistics, plus a batch of long
  seeded motzET paths through tableau and permutation and back;
* ``exact-count``: counting walkers against closed forms, the order-20 path
  series and ring arithmetic on them.

The loop is closed: one caller, one job at a time, each job in a fresh
interpreter (``child.py``), started again while one more job as long as the
last still fits in ``--seconds`` (at least one).  Only verify-desk starts more
processes, and no more than the usable cores.

``--trace 0`` prints the end-to-end metrics: wall time and CPU seconds per job
(total over the window divided by the jobs run, so the inverse of
throughput), the median peak RSS of a job's process tree (CPU and RSS from
``os.wait4`` on the job's own interpreter), the median set-up time
(interpreter start, ``import svtab`` and building the inputs, sampled at
least fifteen times), and the share of correctness checks that passed.  The
means are deliberate: on a shared 2-vCPU host the machine switches between a
fast and a slow speed for tens of seconds at a time, and a median over a
window flips between the two while the mean moves in proportion.

``--trace 1`` runs every job once with spans around the benchmark's calls
into svtab (plus the serial per-task verify pass and the posets probe) and
prints every per-layer metric, including the tracing overhead measured
against untraced twins of stream-biject and exact-count.  The spans are
written to ``perfbench/out/`` when the run ends.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  Exit code
0 means every check passed, 1 a failed check or job, 2 a usage error or a
checkout without ``src/svtab``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-desk", "stream-biject", "exact-count")
SETUP_SAMPLES = 15

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  The self-time and overhead metrics describe the traced run itself.
MOVES = {
    "verify.task_s.": "cpu_s on verify-desk",
    "verify.max_task_s": "wall_s on verify-desk",
    "verify.idle_s": "wall_s on verify-desk",
    "verify.rows": "fail_ratio base on verify-desk",
    "posets.": "wall_s and cpu_s on verify-desk",
    "enumerate.svsyt_objects_per_s": "wall_s on stream-biject",
    "enumerate.objects": "wall_s on stream-biject",
    "enumerate.count_": "wall_s on exact-count",
    "core.": "wall_s on stream-biject",
    "biject.": "wall_s on stream-biject",
    "stats.": "wall_s on stream-biject",
    "closedform.": "wall_s on exact-count",
    "series.": "wall_s and peak_rss_mib on exact-count",
    "rings.": "wall_s and peak_rss_mib on exact-count",
}


class BenchError(RuntimeError):
    pass


class Sample:
    """One job in its own interpreter: set-up time, rusage and its result."""

    def __init__(self, job: str, seed: int, *, go: bool, traced: bool = False, plant: bool = False):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [
            sys.executable,
            *(["-O"] * sys.flags.optimize),
            str(HERE / "child.py"),
            job,
            str(seed),
            str(int(traced)),
            str(int(plant)),
        ]
        started = perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        try:
            ready = proc.stdout.readline()
            self.setup_s = perf_counter() - started
            proc.stdin.write("go\n" if go else "stop\n")
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not ready:
            raise BenchError(f"job {job} exited with code {proc.returncode}")
        # CPU of the job itself and of every process it waited for (the CLI
        # and its pool), minus the child's own set-up.
        self.cpu_s = usage.ru_utime + usage.ru_stime - json.loads(ready)["cpu_s"]
        self.peak_rss_mib = usage.ru_maxrss / 1024
        self.job = job
        self.result = json.loads(out) if go else None


def run_timed(workload: str, seed: int, seconds: float, plant: bool) -> tuple[dict, list[Sample], dict]:
    # Start another run only while one more, as long as the last, still fits.
    samples: list[Sample] = []
    started = last = perf_counter()
    while not samples or 2 * perf_counter() - started - last <= seconds:
        last = perf_counter()
        samples.append(Sample(workload, seed, go=True, plant=plant))
    setups = [s.setup_s for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(Sample(workload, seed, go=False).setup_s)
    attempted = sum(s.result["attempted"] for s in samples)
    failed = sum(s.result["failed"] for s in samples)
    runs = {
        "wall_s": [s.result["wall_s"] for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "setup_s": setups,
    }
    metrics = {
        "wall_s": statistics.mean(runs["wall_s"]),
        "cpu_s": statistics.mean(runs["cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(s.peak_rss_mib for s in samples),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return metrics, samples, runs


def run_traced(seed: int) -> tuple[dict, list[Sample], dict]:
    from tracing import layer_counts, layer_self_times
    from workloads import count_layers, posets_layers, stream_layers, verify_layers, workers

    jobs = {
        name: Sample(name, seed, go=True, traced=True)
        for name in ("verify-desk", "verify-tasks", "posets-probe")
    }
    twins: list[Sample] = []
    metrics: dict = {}
    for name in ("stream-biject", "exact-count"):
        # untraced, traced, traced, untraced: a steady drift in machine
        # speed then cancels out of the overhead
        order = (False, True, True, False)
        runs = [Sample(name, seed, go=True, traced=traced) for traced in order]
        walls = {True: 0.0, False: 0.0}
        for traced, sample in zip(order, runs):
            walls[traced] += sample.result["wall_s"]
        metrics[f"trace.overhead_ratio.{name}"] = walls[True] / walls[False] - 1
        jobs[name] = runs[1]
        twins += runs[2:] + runs[:1]

    spans = {name: s.result["spans"] for name, s in jobs.items()}
    info = {name: s.result["info"] for name, s in jobs.items()}
    cli_wall = sum(sp[4] - sp[3] for sp in spans["verify-desk"] if sp[2] == "cli.verify")
    verify, longest = verify_layers(spans["verify-tasks"], info["verify-tasks"], cli_wall, workers())
    metrics.update(verify)
    metrics.update(posets_layers(spans["posets-probe"], info["posets-probe"]))
    metrics.update(stream_layers(spans["stream-biject"], info["stream-biject"]))
    metrics.update(count_layers(spans["exact-count"], info["exact-count"]))
    self_s: dict = {}
    counts: dict = {}
    for job_spans in spans.values():
        for layer, secs in layer_self_times(job_spans).items():
            self_s[layer] = self_s.get(layer, 0.0) + secs
        for layer, n in layer_counts(job_spans).items():
            counts[layer] = counts.get(layer, 0) + n
    metrics.update({f"self_s.{layer}": secs for layer, secs in self_s.items()})
    details = {
        "verify.max_task": longest,
        "layer_span_counts": counts,
        "spans": spans,
    }
    return metrics, list(jobs.values()) + twins, details


def declared(key: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[key]}


def moves(name: str) -> str:
    return next((v for k, v in MOVES.items() if name.startswith(k)), "the traced run itself")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant",
        action="store_true",
        help="make the first expected value of every job wrong (tests fail_ratio)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "svtab" / "__init__.py").is_file():
        print(f"error: no svtab sources under {SRC}", file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")

    sys.path.insert(0, str(HERE))
    from workloads import workers

    try:
        if args.trace:
            metrics, samples, details = run_traced(args.seed)
        else:
            metrics, samples, details = run_timed(args.workload, args.seed, args.seconds, args.plant)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(s.result["attempted"] for s in samples)
    failed = sum(s.result["failed"] for s in samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": workers(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "runs": len(samples),
        "sizes": {s.job: s.result["info"] for s in samples},
        "failures": [f for s in samples for f in s.result["failures"]][:10],
    }
    if not args.trace:
        record["samples"] = details
    for name in sorted(metrics):
        note = f"  (moves {moves(name)})" if args.trace else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    if args.trace:
        print(f"verify.max_task {details['verify.max_task']}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            moved = {name: moves(name) for name in metrics}
            json.dump({"record": record, "metrics": metrics, "moves": moved, **details}, fh)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
