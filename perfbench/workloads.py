"""What each benchmark job feeds svtab, how its outputs are checked, and which
per-layer numbers its spans give.

A job is ``setup(seed) -> inputs`` plus ``run(inputs, tracer, checks) ->
info``.  ``setup`` is interpreter-side preparation (inputs only, no svtab
work that the timed part should pay for); ``run`` is the timed part.  Every
correctness check goes through ``Checks.equal`` so that it is counted and
still runs under ``python -O``.

Three jobs are the workloads (``verify-desk``, ``stream-biject``,
``exact-count``); two more (``verify-tasks``, ``posets-probe``) exist only
for the traced run, which needs per-task and per-k spans that the workloads
cannot give from outside the library.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

from tracing import durations, total

# Workload sizes.  They are fixed, so every run of a workload does the same
# work; only the long-path batch of stream-biject depends on the seed.
STREAM_N = range(2, 10)  # gen_two_row_union(n) for these n: 2055 tableaux
LONG_PATHS = 200  # seeded motzET paths per stream-biject run
LONG_PATH_LEN = (60, 100)
COUNT_TOP = 12  # count_svsyt((b,b),k) for 2b+k <= 12, count_two_row_union(n<=12)
PATHS_TOP = 10  # count_paths over the four motz families, n <= 10
SERIES_ORDER = 20
PROBE_POSETS = ("antichain5", "young-3-2-1-colmajor")
PROBE_KMAX = 3
PROBE_ROUNDTRIPS = 2000  # decompose/compose roundtrips per (poset, k)

FAMILY_COUNTS = {  # closed form of each motz family count, n >= 2
    "motz": lambda cat, n: cat(n + 1),
    "motzE": lambda cat, n: cat(n),
    "motzT": lambda cat, n: cat(n),
    "motzET": lambda cat, n: cat(n - 1),
}


def workers() -> int:
    """The worker count verify-desk passes as --parallel: the usable cores."""
    return len(os.sched_getaffinity(0))


class Checks:
    """Counts correctness checks; ``plant`` makes the first expected value wrong."""

    def __init__(self, plant: bool = False):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._plant = plant

    def equal(self, label, expected, actual) -> bool:
        """Count one check; ``label`` (any object) is formatted only on failure."""
        if self._plant and self.attempted == 0:
            expected = ("planted wrong value", expected)
        self.attempted += 1
        if expected == actual:
            return True
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label!s:.200}: expected {expected!r:.120}, got {actual!r:.120}")
        return False


# ---------------------------------------------------------------------------
# verify-desk: the headline CLI command, timed from outside the program


def verify_command(nworkers: int) -> list[str]:
    # --parallel is explicit so an ambient SVTAB_THREADS cannot change it.
    return [
        sys.executable,
        *(["-O"] * sys.flags.optimize),
        "-m",
        "svtab",
        "verify",
        "--suite",
        "all",
        "--budget",
        "desk",
        "--parallel",
        str(nworkers),
        "--report",
        "json",
    ]


def setup_verify_desk(seed: int) -> dict:
    from svtab.verify import SUITES, build_tasks

    return {"tasks": build_tasks(SUITES, budget="desk"), "workers": workers()}


def run_verify_desk(inp: dict, tr, checks: Checks) -> dict:
    def run_cli(cmd):
        return subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True)

    proc = tr.call("cli.verify", run_cli, verify_command(inp["workers"]))
    checks.equal(f"verify exit code ({proc.stderr[-200:]})", 0, proc.returncode)
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        checks.equal("verify report is JSON", "JSON", proc.stdout[:80])
        return {"workers": inp["workers"], "rows": 0}
    rows = report["results"]
    checks.equal("verify report failed", 0, report["failed"])
    checks.equal("verify worker count", inp["workers"], report["threads"])
    for r in rows:
        checks.equal(f"{r['suite']}.{r['check']} [{r['instance']}]", "pass", r["status"])
    checks.equal(
        "every task reported",
        sorted({(s, c) for s, c, _ in inp["tasks"]}),
        sorted({(r["suite"], r["check"]) for r in rows}),
    )
    return {
        "workers": inp["workers"],
        "tasks": len(inp["tasks"]),
        "rows": len(rows),
    }


# ---------------------------------------------------------------------------
# verify-tasks (traced run only): every desk task alone, serially


def _task_label(task) -> str:
    suite, check, kwargs = task
    args = ",".join(f"{k}={v}" for k, v in kwargs.items() if k != "poset")
    return f"{suite}.{check}({args})"


def run_verify_tasks(inp: dict, tr, checks: Checks) -> dict:
    from svtab.verify import run_tasks

    rows = failed = 0
    for task in inp["tasks"]:
        results = tr.call("verify.task", run_tasks, [task], 1, label=_task_label(task))
        for r in results:
            if not checks.equal(f"{r.suite}.{r.check} [{r.instance}]", "pass", r.status):
                failed += 1
        rows += len(results)
    return {
        "tasks": len(inp["tasks"]),
        "rows": rows,
        "rows_failed": failed,
    }


def verify_layers(spans, info: dict, cli_wall_s: float, nworkers: int) -> tuple[dict, str]:
    """Per-suite task time from the serial pass; idle time against the CLI wall."""
    tasks = durations(spans, "verify.task")
    labels = [s[5] for s in spans if s[2] == "verify.task"]
    per_suite = Counter()
    for label, secs in zip(labels, tasks):
        per_suite[label.split(".", 1)[0]] += secs
    out = {f"verify.task_s.{suite}": per_suite[suite] for suite in sorted(per_suite)}
    longest = max(range(len(tasks)), key=tasks.__getitem__)
    out["verify.max_task_s"] = tasks[longest]
    out["verify.idle_s"] = nworkers * cli_wall_s - sum(tasks)
    out["verify.rows"] = info["rows"]
    out["verify.rows_failed"] = info["rows_failed"]
    return out, labels[longest]


# ---------------------------------------------------------------------------
# posets-probe (traced run only): the identity routes per poset and k


def setup_posets_probe(seed: int) -> dict:
    from svtab.posets import catalog

    known = dict(catalog())
    return {"posets": [(name, known[name]) for name in PROBE_POSETS]}


def run_posets_probe(inp: dict, tr, checks: Checks) -> dict:
    from svtab import (
        compose_extension,
        decompose_extension,
        expected_ddeg,
        sum_identity_check,
        sv_linear_extensions,
    )
    from svtab.rings import QPoly
    from svtab.stats import comaj_plus_k

    def roundtrip(poset, s):
        ext, cuts, picks = decompose_extension(s)
        return compose_extension(poset, ext, cuts, picks)

    objects = 0
    for name, poset in inp["posets"]:
        for k in range(PROBE_KMAX + 1):
            label = f"{name},k={k}"
            exts = tr.call(
                f"posets.sv_linear_extensions.k{k}",
                list,
                sv_linear_extensions(poset, k),
                label=label,
            )
            objects += len(exts)
            lhs, rhs = tr.call("posets.sum_identity_check", sum_identity_check, poset, k, label=label)
            checks.equal(f"{label} weight sum", rhs, lhs)
            num, _den = tr.call("posets.expected_ddeg", expected_ddeg, poset, k, label=label)
            weights = tr.call("stats.comaj_tally", Counter, map(comaj_plus_k, exts), label=label)
            top = max(weights)
            checks.equal(
                f"{label} ddeg numerator",
                QPoly([weights.get(e, 0) for e in range(top + 1)]),
                num,
            )
            for s in exts[:PROBE_ROUNDTRIPS]:
                checks.equal(label, s, tr.call("posets.ext_roundtrip", roundtrip, poset, s))
    return {"objects": objects}


def posets_layers(spans, info: dict) -> dict:
    out = {
        f"posets.sv_ext_s.k{k}": total(spans, f"posets.sv_linear_extensions.k{k}")
        for k in range(PROBE_KMAX + 1)
    }
    roundtrips = durations(spans, "posets.ext_roundtrip")
    out["posets.sv_ext_objects"] = info["objects"]
    out["posets.expected_ddeg_s"] = total(spans, "posets.expected_ddeg")
    out["posets.sum_identity_s"] = total(spans, "posets.sum_identity_check")
    out["posets.ext_roundtrip_per_s"] = len(roundtrips) / sum(roundtrips)
    return out


# ---------------------------------------------------------------------------
# stream-biject: every small tableau plus a seeded batch of long paths


def _motz_et_word(rng: random.Random, length: int) -> str:
    """Random walk obeying both restrictions and ending at height 0.

    No u at height 0, no d before the first D, never below 0, and never too
    high to come back down in the steps left.
    """
    steps = []
    h, seen_down = 0, False
    for i in range(length):
        left = length - i - 1
        options = [("U", h + 1)] if h + 1 <= left else []
        if h > 0:
            options.append(("D", h - 1))
            if h <= left:
                options.append(("u", h))
        if seen_down and h <= left:
            options.append(("d", h))
        step, h = rng.choice(options)
        seen_down = seen_down or step == "D"
        steps.append(step)
    return "".join(steps)


def setup_stream_biject(seed: int) -> dict:
    from svtab import ColoredPath

    rng = random.Random(seed)
    words = [_motz_et_word(rng, rng.randint(*LONG_PATH_LEN)) for _ in range(LONG_PATHS)]
    return {"paths": [ColoredPath(w) for w in words]}


def run_stream_biject(inp: dict, tr, checks: Checks) -> dict:
    from svtab import (
        catalan,
        comaj_plus_k,
        compose,
        decompose,
        dyck_type,
        gen_two_row_union,
        kreweras,
        path_from_tableau,
        perm_from_tableau,
        tableau_from_path,
        tableau_from_perm,
        validate_svsyt,
    )
    from svtab.verify import QCAT_TABLE

    def perm_roundtrip(t):
        return tableau_from_perm(perm_from_tableau(t))

    def path_roundtrip(t):
        return tableau_from_path(path_from_tableau(t))

    def triple_roundtrip(t):
        return compose(decompose(t))

    def long_roundtrip(p):
        t = tableau_from_path(p)
        back = tableau_from_perm(perm_from_tableau(t))
        return t, back, path_from_tableau(back)

    objects = 0
    for n in STREAM_N:
        stream = gen_two_row_union(n)
        count = 0
        comaj = Counter()
        types = Counter()
        while (t := tr.call("enumerate.gen_two_row_union", next, stream, None)) is not None:
            count += 1
            tr.call("core.validate_svsyt", validate_svsyt, t)
            checks.equal(("perm roundtrip", t), t, tr.call("biject.perm_roundtrip", perm_roundtrip, t))
            checks.equal(("path roundtrip", t), t, tr.call("biject.path_roundtrip", path_roundtrip, t))
            checks.equal(("triple roundtrip", t), t, tr.call("biject.triple_roundtrip", triple_roundtrip, t))
            comaj[tr.call("stats.comaj_plus_k", comaj_plus_k, t)] += 1
            m, _comp, mu = tr.call("stats.dyck_type", dyck_type, t)
            types[(m, tuple(sorted(mu.items())))] += 1
        objects += count
        checks.equal(f"tableaux n={n}", catalan(n - 1), count)
        if n - 1 in QCAT_TABLE:
            want = QCAT_TABLE[n - 1]
            checks.equal(f"q-catalan n={n}", want, tuple(comaj.get(e, 0) for e in range(len(want))))
        for (m, mu), got in sorted(types.items()):
            checks.equal(f"kreweras n={n},m={m},mu={mu}", kreweras(n - 1, m, dict(mu)), got)
    for p in inp["paths"]:
        t, back, again = tr.call("biject.long_path_roundtrip", long_roundtrip, p)
        checks.equal(("long path tableau", p.word), t, back)
        checks.equal(("long path", p.word), p.word, again.word)
    return {
        "objects": objects,
        "long_paths": len(inp["paths"]),
        "long_path_steps": sum(len(p) for p in inp["paths"]),
    }


def stream_layers(spans, info: dict) -> dict:
    def per_s(name):
        d = durations(spans, name)
        return len(d) / sum(d)

    return {
        "enumerate.objects": info["objects"],
        "enumerate.svsyt_objects_per_s": info["objects"] / total(spans, "enumerate.gen_two_row_union"),
        "core.validate_svsyt_per_s": per_s("core.validate_svsyt"),
        "biject.perm_roundtrip_per_s": per_s("biject.perm_roundtrip"),
        "biject.path_roundtrip_per_s": per_s("biject.path_roundtrip"),
        "biject.triple_roundtrip_per_s": per_s("biject.triple_roundtrip"),
        "biject.long_path_roundtrip_per_s": per_s("biject.long_path_roundtrip"),
        "stats.comaj_per_s": per_s("stats.comaj_plus_k"),
        "stats.dyck_type_per_s": per_s("stats.dyck_type"),
    }


# ---------------------------------------------------------------------------
# exact-count: counting walkers, closed forms, series and ring arithmetic


def run_exact_count(inp: dict, tr, checks: Checks) -> dict:
    from svtab import (
        SeriesContext,
        act_count,
        catalan,
        closed_form_E,
        count_paths,
        count_svsyt,
        count_two_row_union,
        hook_count,
        peaks_count,
    )
    from svtab.rings import TSeries

    def cat(n):
        return tr.call("closedform.catalan", catalan, n)

    shapes = 0
    for b in range(1, COUNT_TOP // 2 + 1):
        for k in range(COUNT_TOP - 2 * b + 1):
            got = tr.call("enumerate.count_svsyt", count_svsyt, (b, b), k)
            checks.equal(f"act b={b},k={k}", tr.call("closedform.act_count", act_count, b, k), got)
            checks.equal(f"peaks b={b},k={k}", tr.call("closedform.peaks_count", peaks_count, b, k), got)
            if k == 0:
                checks.equal(f"hook b={b}", tr.call("closedform.hook_count", hook_count, (b, b)), got)
            shapes += 1
    for n in range(2, COUNT_TOP + 1):
        got = tr.call("enumerate.count_two_row_union", count_two_row_union, n)
        checks.equal(f"two-row union n={n}", cat(n - 1), got)
    for family, closed in FAMILY_COUNTS.items():
        for n in range(2, PATHS_TOP + 1):
            got = tr.call("enumerate.count_paths", count_paths, family, n, label=family)
            checks.equal(f"{family} n={n}", closed(cat, n), got)

    ctx = tr.call("series.build", SeriesContext.build, SERIES_ORDER)
    closed_e = tr.call("series.closed_form_E", closed_form_E, SERIES_ORDER)
    checks.equal("closed_form_E == solve_E", ctx.E, closed_e)
    for family, series in zip(FAMILY_COUNTS, (ctx.E, ctx.E1, ctx.E2, ctx.E12)):
        for n in range(2, SERIES_ORDER + 1):
            want = FAMILY_COUNTS[family](cat, n)
            checks.equal(f"{family} series t^{n} at ones", want, series.coeff(n).at_ones())
    e = ctx.E
    square = tr.call("rings.mul", TSeries.__mul__, e, e)
    inverse = tr.call("rings.inverse", TSeries.inverse, e)
    unit = tr.call("rings.mul", TSeries.__mul__, inverse, e)
    checks.equal("E * E^-1", TSeries.const(e.ring, e.order, 1), unit)
    checks.equal("sqrt(E^2)", e, tr.call("rings.sqrt", TSeries.sqrt, square))
    return {"shapes": shapes, "series_order": SERIES_ORDER}


def count_layers(spans, info: dict) -> dict:
    return {
        "enumerate.count_svsyt_s": total(
            spans, "enumerate.count_svsyt", "enumerate.count_two_row_union"
        ),
        "enumerate.count_paths_s": total(spans, "enumerate.count_paths"),
        "closedform.s": sum(s[4] - s[3] for s in spans if s[2].startswith("closedform.")),
        "series.build_s": total(spans, "series.build"),
        "series.closed_form_E_s": total(spans, "series.closed_form_E"),
        "rings.mul_s": total(spans, "rings.mul"),
        "rings.inverse_s": total(spans, "rings.inverse"),
        "rings.sqrt_s": total(spans, "rings.sqrt"),
    }


def _no_inputs(seed: int) -> dict:
    return {}


JOBS = {
    "verify-desk": (setup_verify_desk, run_verify_desk),
    "stream-biject": (setup_stream_biject, run_stream_biject),
    "exact-count": (_no_inputs, run_exact_count),
    "verify-tasks": (setup_verify_desk, run_verify_tasks),
    "posets-probe": (setup_posets_probe, run_posets_probe),
}
