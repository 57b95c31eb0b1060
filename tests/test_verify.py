"""Self-check harness plumbing: task building, execution, reporting."""

import inspect
import json
import operator
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import svtab
import svtab.enumerate
import svtab.posets
import svtab.series
import svtab.stats
import svtab.verify
from svtab.biject import decompose
from svtab.closedform import catalan, f_count
from svtab.core import SetValuedTableau, SvtabError
from svtab.posets import catalog, sv_linear_extensions
from svtab.rings import QPoly, TSeries
from svtab.stats import dyck_type
from svtab.verify import (
    BUDGETS,
    COUNT_ORACLES,
    Q_ORACLES,
    ROUNDTRIPS,
    SERIES_ORACLES,
    SUITES,
    CheckResult,
    available_threads,
    build_tasks,
    check_count,
    check_more_shapes,
    check_poset_identities,
    check_q,
    check_roundtrip,
    check_series,
    report_dict,
    report_text,
    run_tasks,
    _f_rec,
    _f_row,
    _CHECKS,
    _first_element,
    _run_task,
    _run_timed,
)


def test_suites_constant():
    assert SUITES == ("counts", "bijections", "series", "qstats", "posets")


def test_f_oracle_needs_no_deep_recursion():
    """The f recursion goes row by row, so ``count --formula f --oracle`` at a
    large n stays within the interpreter's stack."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        got = _f_rec(120, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert got == f_count(120, 3)


def test_f_row_matches_the_closed_form_at_300():
    assert _f_row(300) == [f_count(300, i) for i in range(301)]


def test_the_f_oracle_builds_each_row_once():
    """The f entry's grid asks for f(n, i) at every i of one n in turn, so a
    task builds each row f(n, ·) once, not once per i."""
    code = inspect.unwrap(_f_row).__code__
    getattr(_f_row, "cache_clear", lambda: None)()
    built = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            built[frame.f_locals["n"]] += 1

    size = COUNT_ORACLES["formula"]["f"][-1][0]
    sys.setprofile(profile)
    try:
        rows = list(check_count("formula", "f", size))
    finally:
        sys.setprofile(None)
    assert built == Counter(range(size + 1))
    assert len(rows) == size + 1 and all(want == got for _i, want, got in rows)


# each COUNT_ORACLES entry, its count planted one too many at the last point
# of its quick grid, fails that point's row and no other at every budget


@pytest.mark.parametrize("kind,name", [(k, n) for k, table in COUNT_ORACLES.items() for n in table])
def test_a_planted_count_fails_exactly_its_row(kind, name, monkeypatch):
    names, count, oracle, grid, sizes = COUNT_ORACLES[kind][name]
    point = grid(sizes[0])[-1]
    planted = (names, lambda *p: count(*p) + (p == point), oracle, grid, sizes)
    monkeypatch.setitem(COUNT_ORACLES[kind], name, planted)
    row = f"{name},{names[0]}={str(point[0]).zfill(2)}"
    for size in sizes:
        assert [inst for inst, want, got in check_count(kind, name, size) if want != got] == [row]


# likewise each Q_ORACLES and SERIES_ORACLES entry, its value planted one
# too many at the last point of its grid at each budget (a series grid at one
# truncation order holds no point of another order's grid)

VALUE_ENTRIES = [
    *((Q_ORACLES, check_q, name) for name in Q_ORACLES),
    *((SERIES_ORACLES, check_series, name) for name in SERIES_ORACLES),
]


@pytest.mark.parametrize("table,check,name", VALUE_ENTRIES, ids=[n for *_t, n in VALUE_ENTRIES])
def test_a_planted_q_value_fails_exactly_its_row(table, check, name, monkeypatch):
    names, value, oracle, grid, sizes = table[name]
    for size in sizes:
        point = grid(size)[-1]
        planted = (names, lambda *p, at=point: value(*p) + (p == at), oracle, grid, sizes)
        monkeypatch.setitem(table, name, planted)
        row = f"{name},{names[0]}={str(point[0]).zfill(2)}"
        assert [inst for inst, want, got in check(name, size) if want != got] == [row]


@pytest.fixture
def fresh_union_stats():
    """The union tallies are cached by size; a planted union must not meet a
    tally cached before it, nor leave its own behind."""
    svtab.verify._union_stats.cache_clear()
    yield
    svtab.verify._union_stats.cache_clear()


def test_a_dropped_gap_type_fails_its_kreweras_row(monkeypatch, fresh_union_stats):
    """The kreweras grid is every partition of n - 1, so a gap type the union
    never yields fails its row instead of going unchecked."""
    real = svtab.verify.gen_two_row_union

    def planted(n):
        return (t for t in real(n) if sorted(dyck_type(t)[1]) != [1, 2, 2])

    monkeypatch.setattr(svtab.verify, "gen_two_row_union", planted)
    rows = check_q("kreweras", 7)
    assert [inst for inst, want, got in rows if want != got] == ["kreweras,n=06"]


def test_available_threads_is_the_core_count():
    assert available_threads() == (os.cpu_count() or 1) >= 1


def test_build_tasks_budgets():
    quick = build_tasks(SUITES, budget="quick")
    desk = build_tasks(SUITES, budget="desk")
    assert (len(quick), len(desk)) == (148, 278)
    suites_seen = {suite for suite, _check, _kw in quick}
    assert suites_seen == set(SUITES)
    assert all(check.startswith("check_") for _s, check, _kw in desk)


@pytest.mark.parametrize("budget", BUDGETS)
def test_tasks_name_every_check_and_no_other(budget):
    assert {check for _s, check, _kw in build_tasks(SUITES, budget)} == set(_CHECKS)


def test_build_tasks_filters():
    only = build_tasks(("qstats",), budget="quick")
    assert {s for s, _c, _k in only} == {"qstats"}
    with pytest.raises(SvtabError):
        build_tasks(("nosuch",))
    with pytest.raises(SvtabError, match="unknown budget 'deep'"):
        build_tasks(SUITES, budget="deep")


def test_q_at_one_builds_each_q_narayana_row_once(monkeypatch):
    row = svtab.stats._q_narayana_row.__wrapped__
    for name, size in (("qcat-at-1", 8), ("qnar-at-1", 6)):
        built = Counter()

        def counted(n):
            built[n] += 1
            return row(n)

        monkeypatch.setattr(svtab.stats, "_q_narayana_row", lru_cache(maxsize=1)(counted))
        rows = list(check_q(name, size))
        assert built == Counter(range(1, size + 1))
        assert len(rows) == size and all(want == got for _i, want, got in rows)


def test_run_tasks_serial_and_parallel_agree():
    tasks = build_tasks(("qstats",), budget="quick")
    serial = run_tasks(tasks, threads=1)
    parallel = run_tasks(tasks, threads=2)
    assert [(r.check, r.instance, r.status) for r in serial] == [
        (r.check, r.instance, r.status) for r in parallel
    ]
    assert all(r.ok for r in serial)


def test_posets_rows_agree_at_two_workers():
    tasks = build_tasks(("posets",), budget="quick")
    serial = run_tasks(tasks, threads=1)
    parallel = run_tasks(tasks, threads=2)
    assert [(r.check, r.instance, r.status, r.expected, r.actual) for r in serial] == [
        (r.check, r.instance, r.status, r.expected, r.actual) for r in parallel
    ]
    assert all(r.ok for r in serial)


def test_longest_first_hands_out_big_poset_tasks_first():
    tasks = [
        t
        for t in build_tasks(("counts", "posets"), budget="quick")
        if t[1] != "check_poset_identities" or t[2]["poset"].n <= 3
    ]
    order = svtab.verify._longest_first(tasks)
    assert sorted(map(repr, order)) == sorted(map(repr, tasks))
    npos = sum(check == "check_poset_identities" for _s, check, _kw in tasks)
    head, tail = order[:npos], order[npos:]
    assert all(check == "check_poset_identities" for _s, check, _kw in head)
    sizes = [sum(1 for _ in sv_linear_extensions(kw["poset"], kw["k"])) for *_r, kw in head]
    assert sizes == sorted(sizes, reverse=True)
    assert tail == [t for t in tasks if t[1] != "check_poset_identities"]


def test_reports():
    catalan3 = {"kind": "formula", "name": "catalan", "size": 3}
    tasks = [("counts", "check_count", catalan3)]
    results, timings = _run_timed(tasks, threads=1)
    assert results and all(isinstance(r, CheckResult) for r in results)
    d = report_dict(results, timings, threads=1, wall_seconds=0.25, budget="desk")
    assert d["failed"] == 0 and d["passed"] == d["checks"] == len(results)
    assert [(t["check"], t["kwargs"], t["rows"]) for t in d["tasks"]] == [
        ("check_count", catalan3, len(results))
    ]
    assert (d["threads"], d["wall_seconds"], d["budget"]) == (1, 0.25, "desk")
    text = report_text(results)
    assert "PASS" in text and text.strip().endswith("0 failed")


def test_failure_reporting_shape():
    bad = CheckResult(
        suite="counts",
        check="check_union_count",
        instance="n=4",
        status="fail",
        expected="5",
        actual="6",
    )
    assert not bad.ok
    text = report_text([bad])
    assert "FAIL" in text and "expected" in text and "1 failed" in text


# ---------------------------------------------------------------------------
# check_poset_identities and the two poset DP entries of Q_ORACLES: every row
# compares two independent computations, so planting a bug on one side fails
# exactly the rows that read that side

VEE_K2 = ("vee", dict(catalog())["vee"], 2)
POSET_Q = ("poset-weight-sum", "poset-expectation")
ROW_NAMES = (
    "weights",
    "routes",
    "comaj tally",
    "oracle",
    "roundtrips",
    *(f"{name},poset=vee" for name in POSET_Q),
)


def _vee_rows():
    """The rows of check_poset_identities at (vee, 2), then the vee's row of
    each poset DP entry, which holds its values at k = 0..2."""
    rows = list(check_poset_identities(*VEE_K2))
    q_rows = (row for name in POSET_Q for row in check_q(name, (3, 2)))
    return rows + [row for row in q_rows if row[0].endswith(",poset=vee")]


def _failing(rows):
    return {inst.split(" ", 1)[-1] for inst, want, got in rows if want != got}


def _drop_first(real):
    def gen(poset, k):
        it = real(poset, k)
        next(it)
        yield from it

    return gen


def _previous_triple(real):
    seen = []

    def decompose(s):
        seen.append(real(s))
        return seen[-2] if len(seen) > 1 else seen[-1]

    return decompose


def _plant_weight_sum(monkeypatch):
    real = svtab.posets.qbinom
    monkeypatch.setattr(
        svtab.posets, "qbinom", lambda a, b: real(a, b) * QPoly([0, 1])
    )


def _plant_weights(monkeypatch):
    real = svtab.verify.vartheta
    monkeypatch.setattr(
        svtab.verify, "vartheta", lambda e, c: real(e, c) * QPoly([0, 1])
    )


def _plant_walker(monkeypatch):
    real = svtab.verify.sv_linear_extensions
    monkeypatch.setattr(svtab.verify, "sv_linear_extensions", _drop_first(real))


def _plant_multichain(monkeypatch):
    # every cut of the numerator's DP one power of q heavier: each term has
    # k cuts, so the numerator gains q^k and the denominator is left alone
    real = svtab.posets._cut_weight_sum

    def planted(poset, k, picks):
        out = real(poset, k, picks)
        return out * QPoly.monomial(k) if picks else out

    monkeypatch.setattr(svtab.posets, "_cut_weight_sum", planted)


def _plant_comaj_dp(monkeypatch):
    real = svtab.verify._comaj_walk
    monkeypatch.setattr(
        svtab.verify, "_comaj_walk", lambda p, s, t: real(p, s, t) + QPoly([1])
    )


def _plant_composer(monkeypatch):
    # the first object composed in the run is dropped, with its picks
    real = svtab.verify.compose_extensions
    dropped = []

    def planted(poset, ext, cuts):
        for item in real(poset, ext, cuts):
            if dropped:
                yield item
            else:
                dropped.append(item)

    monkeypatch.setattr(svtab.verify, "compose_extensions", planted)


def _plant_codec(monkeypatch):
    real = svtab.verify.decompose_extension
    monkeypatch.setattr(svtab.verify, "decompose_extension", _previous_triple(real))


PLANTS = [
    (_plant_weight_sum, {"poset-weight-sum,poset=vee"}),
    (_plant_weights, {"weights", "oracle"}),
    (_plant_walker, {"routes", "comaj tally"}),
    (_plant_multichain, {"poset-expectation,poset=vee", "oracle"}),
    (_plant_comaj_dp, {"poset-expectation,poset=vee", "comaj tally"}),
    (_plant_composer, {"weights", "routes"}),
    (_plant_codec, {"roundtrips"}),
]


def test_poset_rows_pass_on_small_poset():
    rows = _vee_rows()
    assert tuple(inst.split(" ", 1)[-1] for inst, _w, _g in rows) == ROW_NAMES
    assert _failing(rows) == set()


@pytest.mark.parametrize("plant,fails", PLANTS, ids=[p.__name__ for p, _ in PLANTS])
def test_poset_row_fails_when_one_side_is_planted(monkeypatch, plant, fails):
    plant(monkeypatch)
    assert _failing(_vee_rows()) == fails


def test_object_composed_twice_fails_routes_past_n_4(monkeypatch):
    # chain5 has no weights row, so the routes row alone must see the repeat
    real = svtab.verify.compose_extensions

    def twice(poset, ext, cuts):
        for item in real(poset, ext, cuts):
            yield item
            yield item

    monkeypatch.setattr(svtab.verify, "compose_extensions", twice)
    rows = check_poset_identities("chain5", dict(catalog())["chain5"], 1)
    assert _failing(rows) == {"routes"}


# at k = 0 the linear-extensions row counts the permutations that respect
# ``Poset.above``, so it reads the order without the cover masks that every
# other route reads: lower-cover masks shifted one bit up fail that row alone


def test_linear_extension_row_reads_the_order_not_the_masks(monkeypatch):
    vee = dict(catalog())["vee"]
    rows = list(check_poset_identities("vee", vee, 0))
    assert ("vee,k=0 linear extensions", "2", "2") in rows and not _failing(rows)
    real = svtab.posets.Poset._cover_masks.func

    def shifted(poset):
        preds, succs = real(poset)
        return [m << 1 for m in preds], succs

    monkeypatch.setattr(svtab.posets.Poset, "_cover_masks", property(shifted))
    failing = [_failing(check_poset_identities(name, p, 0)) for name, p in catalog()]
    assert failing.count({"linear extensions"}) == 39
    assert failing.count(set()) == len(failing) - 39


def test_every_poset_row_can_fail():
    assert set().union(*(fails for _p, fails in PLANTS)) == set(ROW_NAMES)


# the rows of check_poset_identities at (vee, 1), then the vee's row of each
# poset DP entry of Q_ORACLES (its values at k = 0, 1)
_VEE_K1_RUN = """
kwargs = {"name": "vee", "poset": dict(catalog())["vee"], "k": 1}
tasks = [("posets", "check_poset_identities", kwargs)] + [
    ("qstats", "check_q", {"name": name, "size": (3, 1)})
    for name in ("poset-weight-sum", "poset-expectation")
]
vee = lambda r: r.instance.startswith("vee,") or r.instance.endswith(",poset=vee")
results = [r for r in v.run_tasks(tasks, threads=1) if vee(r)]
print(json.dumps([(r.instance, r.status, r.expected, r.actual) for r in results]))
"""

_DROP_SCRIPT = """
import json
import svtab.verify as v
from svtab.posets import catalog, sv_linear_extensions

real = v.sv_linear_extensions

def dropped(poset, k):
    it = real(poset, k)
    next(it)
    yield from it

v.sv_linear_extensions = dropped
""" + _VEE_K1_RUN

# the composed route gives 1:{1} 2:{2,4} 3:{3} for the triple of 1:{1} 2:{3,4}
# 3:{2}, so one object is composed twice and another never
_MISCOMPOSE_SCRIPT = """
import json
import svtab.verify as v
from svtab.posets import catalog, compose_extension

real = v.compose_extensions

def planted(poset, ext, cuts):
    for picks, s in real(poset, ext, cuts):
        if (ext, cuts, picks) == ((1, 3, 2), (3,), (2,)):
            s = compose_extension(poset, (1, 2, 3), cuts, picks)
        yield picks, s

v.compose_extensions = planted
""" + _VEE_K1_RUN


def _vee_k1_rows(script, flags):
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows = json.loads(proc.stdout)
    assert "no exception" not in {want for _i, _s, want, _got in rows}
    return rows


def _run_vee_k1(script, flags):
    return {inst: st for inst, st, _want, _got in _vee_k1_rows(script, flags)}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_dropped_object_gives_fail_row_not_exception(flags):
    status = _run_vee_k1(_DROP_SCRIPT, flags)
    assert status["vee,k=1 routes"] == "fail"
    assert status["vee,k=1 comaj tally"] == "fail"
    assert status["poset-expectation,poset=vee"] == "pass"
    assert status["poset-weight-sum,poset=vee"] == "pass"


# the walker's objects are not validated: a walker that yields a filling
# breaking a cover is caught by the routes row alone.  The first filling with
# one extra entry, 1:{1,2} 2:{3} 3:{4}, becomes 1:{3} 2:{1,2} 3:{4}, which
# breaks 1 < 2 and keeps the comajor index 2; the walks without extras, which
# give the linear extensions, are left alone
_BROKEN_COVER_SCRIPT = """
import json
import svtab.posets
import svtab.verify as v
from svtab.posets import catalog

real = svtab.posets._walk

def broken(preds, succs, total):
    it = real(preds, succs, total)
    if total > len(preds):
        first, second, *rest = next(it)
        yield (second, first, *rest)
    yield from it

svtab.posets._walk = broken
""" + _VEE_K1_RUN


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_walker_object_breaking_a_cover_fails_routes_only(flags):
    rows = _vee_k1_rows(_BROKEN_COVER_SCRIPT, flags)
    failed = {inst: got for inst, status, _want, got in rows if status == "fail"}
    assert failed == {"vee,k=1 routes": "8 objects, 1 not composed, 1 not walked"}


# a wrong constant coefficient in the comajor DP
_COMAJ_DP_SCRIPT = """
import json
import svtab.verify as v
from svtab.posets import catalog, sv_linear_extensions
from svtab.rings import QPoly

real = v._comaj_walk
v._comaj_walk = lambda preds, succs, total: real(preds, succs, total) + QPoly([1])
""" + _VEE_K1_RUN


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_wrong_comaj_dp_fails_its_two_rows(flags):
    status = _run_vee_k1(_COMAJ_DP_SCRIPT, flags)
    failed = {inst for inst, st in status.items() if st == "fail"}
    assert failed == {"vee,k=1 comaj tally", "poset-expectation,poset=vee"}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_miscomposed_object_fails_routes_row(flags):
    # the key set holds the doubly composed object once, so none is "not walked"
    rows = _vee_k1_rows(_MISCOMPOSE_SCRIPT, flags)
    failed = {inst: got for inst, status, _want, got in rows if status == "fail"}
    assert failed == {
        "vee,k=1 routes": "8 objects, 1 not composed, 0 not walked",
        "vee,k=1 weights": "q^3 + 2*q^2 + 2*q + 3; 1 at (1, 3, 2),(3,),(2,)",
        "vee,k=1 roundtrips": "7 roundtrips; 1:{1} 2:{2,4} 3:{3} differs",
    }


# each route lists its objects grouped by the element that holds entry 1, in
# label order, so the route check can compose and match one group at a time
def test_both_routes_are_grouped_by_the_block_of_entry_1():
    for _name, poset in catalog():
        if poset.n > 4:
            continue
        firsts = [ext[0] for ext in svtab.posets.linear_extensions(poset)]
        assert firsts == sorted(firsts)
        for k in range(3):
            walked = [_first_element(s) for s in sv_linear_extensions(poset, k)]
            assert walked == sorted(walked) and set(walked) == set(firsts)


@pytest.mark.parametrize("k", [0, 1])
def test_poset_identities_of_the_empty_poset(k):
    rows = list(check_poset_identities("empty", svtab.posets.Poset(0, ()), k))
    assert rows and all(want == got for _inst, want, got in rows)


def test_first_element_of_an_invalid_object_is_0():
    antichain3 = dict(catalog())["antichain3"]
    trusted = svtab.posets.SetValuedLinearExtension._trusted
    assert _first_element(trusted(antichain3, ((2,), (1, 3), (4,)))) == 2
    assert _first_element(trusted(antichain3, ((2,), (3,), (4,)))) == 0
    assert _first_element(trusted(antichain3, ((), (1, 3), (2,)))) == 0


# walker faults across the groups of antichain3, k = 1 (three groups of 12
# objects by the element holding entry 1); each swaps one object for another,
# so the count stays 36 and the routes row names one object each way
def _copy_last_to_front(objs):  # a last-group object also in place of the first
    return [objs[-1], *objs[1:]]


def _repeat_later(objs):  # the first object skipped in its own group, twice in the next
    later = next(i for i, s in enumerate(objs) if _first_element(s) == 2)
    return [*objs[1:later], objs[0], objs[0], *objs[later + 1 :]]


def _no_entry_1(objs):  # a middle-group object with every entry one higher
    at = len(objs) // 2
    moved = tuple(tuple(e + 1 for e in block) for block in objs[at].blocks)
    planted = svtab.posets.SetValuedLinearExtension._trusted(objs[at].poset, moved)
    return [*objs[:at], planted, *objs[at + 1 :]]


@pytest.mark.parametrize("fault", [_copy_last_to_front, _repeat_later, _no_entry_1])
def test_walker_fault_across_groups_gives_one_each_way(fault, monkeypatch):
    real = svtab.verify.sv_linear_extensions
    planted = lambda poset, k: iter(fault(list(real(poset, k))))  # noqa: E731
    monkeypatch.setattr(svtab.verify, "sv_linear_extensions", planted)
    kwargs = {"name": "antichain3", "poset": dict(catalog())["antichain3"], "k": 1}
    timing, rows = _run_task(("posets", "check_poset_identities", kwargs))
    assert "raised_at" not in timing
    assert "no exception" not in {r.expected for r in rows}
    routes = {r.instance: r.actual for r in rows}["antichain3,k=1 routes"]
    assert routes == "36 objects, 1 not composed, 1 not walked"


def test_poset_identities_sharded_per_k():
    shards = [
        (kw["name"], kw["k"])
        for _s, check, kw in build_tasks(("posets",), budget="quick")
        if check == "check_poset_identities" and kw["poset"].n <= 2 and kw["k"] <= 1
    ]
    names = [name for name, p in catalog() if p.n <= 2]
    assert shards == [(name, k) for name in names for k in (0, 1)]


# ---------------------------------------------------------------------------
# planted bugs in the library: each one fails the verify rows named for it,
# under python and python -O alike, and never collapses into an exception row


def replant(table, name, slots, setitem=operator.setitem):
    """Put ``slots[i]`` in place of slot i of ``table[name]``.  The tables hold
    the functions they were built with, so a plant reaches a check through its
    entry: in a ``COUNT_ORACLES`` entry slot 1 is the count and 2 the oracle,
    in a ``ROUNDTRIPS`` entry 1 is the map and 2 its inverse.  An in-process
    test passes ``monkeypatch.setitem``."""
    setitem(table, name, tuple(slots.get(i, fn) for i, fn in enumerate(table[name])))


_PLANT_HEAD = """
import json
import operator
import sys
from functools import partial
import svtab.verify as v
from svtab.core import Permutation
from svtab.rings import TSeries

""" + inspect.getsource(replant)

_PLANT_RUN = """
tasks = [tuple(t) for t in json.loads(sys.argv[1])]
results = v.run_tasks(tasks, threads=1)
print(json.dumps([(r.check, r.instance, r.status, r.expected) for r in results]))
"""

VALLEY_ENTRIES = ("valley-table", "valley-at-1", "valley-tally", "peak-tally")

PLANTED_BUGS = {
    "f_off_by_one": (
        """
real = v.f_count
v.f_count = lambda n, i: real(n, i) + (1 if (n, i) == (6, 2) else 0)
replant(v.COUNT_ORACLES["formula"], "f", {1: v.f_count})
""",
        [
            ("counts", "check_count", {"kind": "formula", "name": "f", "size": 12}),
            ("counts", "check_two_row_counts", {"n": 6}),
        ],
        {("check_count", "f,n=06"), ("check_two_row_counts", "n=6,i=2")},
    ),
    "sqrt_coefficient": (
        """
real = TSeries.sqrt

def planted(self):
    coeffs = real(self).coeffs
    coeffs[2] = coeffs[2] + coeffs[2]
    return TSeries(self.ring, self.order, coeffs)

TSeries.sqrt = planted
""",
        [
            ("series", "check_series", {"name": name, "size": 4})
            for name in ("E-closed-form", "residual", *VALLEY_ENTRIES)
        ],
        {("check_series", f"{name},order=04") for name in ("E-closed-form", *VALLEY_ENTRIES)},
    ),
    "perm_to_other_tableau": (
        """
real = v.tableau_from_perm
swap = {Permutation((2, 1, 3)): Permutation((1, 2, 3))}
replant(v.ROUNDTRIPS, "perm", {2: lambda w: real(swap.get(w, w))})
""",
        [("bijections", "check_roundtrip", {"name": "perm", "size": 5})],
        {("check_roundtrip", "perm,n=04")},
    ),
    "path_count_off_by_one": (
        """
real = v.count_paths
v.count_paths = lambda family, n: real(family, n) + (1 if (family, n) == ("motzE", 7) else 0)
for family in ("motzE", "motz"):
    replant(v.COUNT_ORACLES["family"], family, {2: partial(v.count_paths, family)})
""",
        [
            ("counts", "check_count", {"kind": "family", "name": "motzE", "size": 8}),
            ("counts", "check_count", {"kind": "family", "name": "motz", "size": 8}),
        ],
        {("check_count", "motzE,n=07")},
    ),
    "solve_E_coefficient": (
        """
import svtab.series as se
real = se.solve_E

def planted(order):
    e = real(order)
    coeffs = list(e.coeffs)
    coeffs[5] = coeffs[5] + 1
    return TSeries(e.ring, order, coeffs)

se.solve_E = planted
""",
        [("series", "check_series", {"name": "E-closed-form", "size": 6})],
        {("check_series", "E-closed-form,order=06")},
    ),
    # a product kernel that files each slot under the wrong d-exponent (eu one
    # up, ed kept) fails every series entry that sets a product against an
    # independent side, paired-square's term-by-term product among them;
    # E-closed-form sends both sides through the kernel, and the valley
    # entries multiply q-polynomials
    "product_slot_misfiled": (
        """
import svtab.rings
svtab.rings._NEXT_SLOT = 1 << 32
""",
        [
            ("series", "check_series", {"name": name, "size": SERIES_ORACLES[name][-1][0]})
            for name in SERIES_ORACLES
        ],
        {
            *(
                ("check_series", f"{name},order=0{SERIES_ORACLES[name][-1][0]}")
                for name in (
                    "residual", "E12-taylor", "marker-tally", "at-ones", "paired-square",
                    "E2-inverse",
                )
            ),
            *(("check_series", f"expected-steps,n=0{n}") for n in range(3, 9)),
        },
    ),
    "q_dp_marks_one_too_many": (
        """
import svtab.stats as st
real = st._q_narayana_row
st._q_narayana_row = lambda n: {m + 1: q for m, q in real(n).items()}
""",
        [
            ("qstats", "check_q", {"name": "qcat-table", "size": 5}),
            ("qstats", "check_q", {"name": "qnar-table", "size": 4}),
            ("qstats", "check_q", {"name": "qnar-tally", "size": 4}),
        ],
        {
            ("check_q", f"{name},n=0{n}")
            for name in ("qnar-table", "qnar-tally")
            for n in range(1, 5)
        },
    ),
    "path_u_d_swapped": (
        """
import svtab.biject as b
real = b._word_from_two_row
b._word_from_two_row = lambda t: real(t).translate(str.maketrans("ud", "du"))
""",
        [
            ("bijections", "check_roundtrip", {"name": "path", "size": 4}),
            ("bijections", "check_roundtrip", {"name": "ballot", "size": 3}),
        ],
        {
            ("check_roundtrip", "path,n=03"),
            ("check_roundtrip", "path,n=04"),
            ("check_roundtrip", "ballot,n=02,i=01"),
            *(("check_roundtrip", f"ballot,n=03,i=0{i}") for i in (0, 1, 2)),
        },
    ),
    "comaj_off_by_one": (
        """
real = v.comaj_plus_k
v.comaj_plus_k = lambda t: real(t) + 1
""",
        [("qstats", "check_q", {"name": "qnar-tally", "size": 3})],
        {("check_q", f"qnar-tally,n=0{n}") for n in (1, 2, 3)},
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize("bug", sorted(PLANTED_BUGS))
def test_planted_library_bug_gives_fail_rows(bug, flags):
    setup, tasks, fails = PLANTED_BUGS[bug]
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PLANT_HEAD + setup + _PLANT_RUN, json.dumps(tasks)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows = json.loads(proc.stdout)
    assert "no exception" not in {want for *_rest, want in rows}
    assert {(check, inst) for check, inst, status, _w in rows if status == "fail"} == fails


# an inexact division inside a check is one failing row of its task; the other
# tasks keep their rows
_INEXACT_SCRIPT = _PLANT_HEAD + """
real = TSeries.sqrt

def planted(self):
    coeffs = real(self).coeffs
    coeffs[1] = coeffs[1] + 1
    return TSeries(self.ring, self.order, coeffs)

TSeries.sqrt = planted
tasks = [
    ("series", "check_series", {"name": name, "size": 4}) for name in ("E-closed-form", "E12-taylor")
]
results = v.run_tasks(tasks, threads=1)
print(json.dumps([(r.instance.split(",")[0], r.status, r.actual) for r in results]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_inexact_division_fails_its_task_only(flags):
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _INEXACT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows = json.loads(proc.stdout)
    closed = [(status, actual) for name, status, actual in rows if name == "E-closed-form"]
    taylor = [status for name, status, _actual in rows if name == "E12-taylor"]
    assert len(closed) == 1
    assert closed[0][0] == "fail"
    assert closed[0][1].startswith("InexactDivision")
    assert taylor and set(taylor) == {"pass"}


# a check that raises mid-task keeps the rows it yielded before the raise,
# followed by the one failing row naming the exception
_MID_TASK_RAISE_SCRIPT = _PLANT_HEAD + """
from svtab.core import OutOfRange
real = v.f_count

def planted(n, i):
    if i == 2:
        raise OutOfRange("planted at i = 2")
    return real(n, i)

v.f_count = planted
timing, results = v._run_task(("counts", "check_two_row_counts", {"n": 4}))
print(json.dumps([timing["rows"], [(r.instance, r.status, r.expected, r.actual) for r in results]]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_raise_mid_task_keeps_the_rows_before_it(flags):
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MID_TASK_RAISE_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    count, rows = json.loads(proc.stdout)
    assert count == len(rows) == 3
    assert [(inst, status) for inst, status, _w, _g in rows[:2]] == [
        ("n=4,i=0", "pass"),
        ("n=4,i=1", "pass"),
    ]
    assert rows[2] == ["n=4", "fail", "no exception", "OutOfRange: planted at i = 2"]


# a raise at one point of a table entry fails that point's row, in the format
# of a raising task's row, and the points after it still run
_PATH_COUNT_RAISE_SCRIPT = _PLANT_HEAD + """
from svtab.core import OutOfRange
real = v.count_paths

def planted(family, n):
    if (family, n) == ("motzE", 7):
        raise OutOfRange("planted at motzE, n = 7")
    return real(family, n)

v.count_paths = planted
replant(v.COUNT_ORACLES["family"], "motzE", {2: partial(v.count_paths, "motzE")})
motzE8 = {"kind": "family", "name": "motzE", "size": 8}
timing, results = v._run_task(("counts", "check_count", motzE8))
print(json.dumps([(r.instance, r.status, r.expected, r.actual) for r in results]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_raise_in_a_multi_row_check_keeps_the_rows_before_it(flags):
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PATH_COUNT_RAISE_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows = json.loads(proc.stdout)
    assert [(inst, status) for inst, status, _w, _g in rows] == [
        (f"motzE,n={n:02d}", "fail" if n == 7 else "pass") for n in range(9)
    ]
    plant = '        raise OutOfRange("planted at motzE, n = 7")'
    line = _PATH_COUNT_RAISE_SCRIPT.splitlines().index(plant) + 1
    actual = f"OutOfRange: planted at motzE, n = 7; raised at <string>:{line} in planted"
    assert rows[7] == ["motzE,n=07", "fail", "no exception", actual]


# an exception that is no SvtabError, a bug in the library, fails its own
# point's row, which names the plant's frame; the run returns, and the other
# points and tasks keep their rows
_ZERO_DIVISION_SCRIPT = _PLANT_HEAD + """
real = v.count_paths

def planted(family, n):
    return real(family, n) // (0 if n == 3 else 1)

v.count_paths = planted
replant(v.COUNT_ORACLES["family"], "motz", {2: partial(v.count_paths, "motz")})
tasks = [
    ("counts", "check_count", {"kind": "family", "name": "motz", "size": 6}),
    ("counts", "check_count", {"kind": "formula", "name": "catalan", "size": 3}),
]
results = v.run_tasks(tasks, threads=2)
print(json.dumps([(r.check, r.instance, r.status, r.actual) for r in results]))
"""


def test_library_bug_fails_its_task_not_the_run():
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _ZERO_DIVISION_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows = json.loads(proc.stdout)
    paths = {inst: (st, got) for _c, inst, st, got in rows if not inst.startswith("catalan,")}
    raised = paths.pop("motz,n=03")
    assert {inst: status for inst, (status, _a) in paths.items()} == {
        f"motz,n={n:02d}": "pass" for n in (0, 1, 2, 4, 5, 6)
    }
    plant = "    return real(family, n) // (0 if n == 3 else 1)"
    line = _ZERO_DIVISION_SCRIPT.splitlines().index(plant) + 1
    frame = f"raised at <string>:{line} in planted"
    assert raised == ("fail", f"ZeroDivisionError: integer division or modulo by zero; {frame}")
    assert [row for row in rows if row[1].startswith("catalan,")] == [
        ["check_count", f"catalan,n=0{n}", "pass", got] for n, got in ((1, "1"), (2, "2"), (3, "5"))
    ]


def test_a_raising_task_names_its_frame(monkeypatch):
    # a division by zero at i = 2 of a hand-written check ends its task: the
    # time record names the plant's frame
    real = svtab.verify.f_count

    def planted(n, i):
        return real(n, i) // (0 if i == 2 else 1)

    monkeypatch.setattr(svtab.verify, "f_count", planted)
    timing, _rows = svtab.verify._run_task(("counts", "check_two_row_counts", {"n": 4}))
    line = planted.__code__.co_firstlineno + 1
    assert timing["raised_at"] == f"test_verify.py:{line} in planted"
    catalan3 = {"kind": "formula", "name": "catalan", "size": 3}
    timing, _rows = svtab.verify._run_task(("counts", "check_count", catalan3))
    assert "raised_at" not in timing


# each entry of the three tables, a raise planted at the first point of its
# quick grid (in the value of an oracle entry, in the objects of a roundtrip
# entry), fails exactly that point's row; every later point still gives its
# row, so the task gives as many rows as without the plant


class Planted(Exception):
    pass


def _raising_at(point, fn):
    def planted(*args, **kwargs):
        if (args or kwargs) == point:
            raise Planted(f"at {point}")
        return fn(*args, **kwargs)

    return planted


TABLE_ENTRIES = [
    *(("count", kind, name) for kind, table in COUNT_ORACLES.items() for name in table),
    *(("q", None, name) for name in Q_ORACLES),
    *(("series", None, name) for name in SERIES_ORACLES),
    *(("roundtrip", None, name) for name in ROUNDTRIPS),
]


@pytest.mark.parametrize(
    "table,kind,name", TABLE_ENTRIES, ids=[f"{t}-{n}" for t, _k, n in TABLE_ENTRIES]
)
def test_a_raise_at_one_point_fails_exactly_its_row(table, kind, name, monkeypatch):
    if table == "roundtrip":
        entries, slot, check = ROUNDTRIPS, 0, partial(check_roundtrip, name)
    elif table == "q":
        entries, slot, check = Q_ORACLES, 1, partial(check_q, name)
    elif table == "series":
        entries, slot, check = SERIES_ORACLES, 1, partial(check_series, name)
    else:
        entries, slot, check = COUNT_ORACLES[kind], 1, partial(check_count, kind, name)
    entry = entries[name]
    size = entry[-1][0]
    point = entry[-2](size)[0]
    passing = list(check(size))
    replant(entries, name, {slot: _raising_at(point, entry[slot])}, monkeypatch.setitem)
    failing = list(check(size))
    assert all(want == got for _i, want, got in passing)
    frame = f"test_verify.py:{_raising_at.__code__.co_firstlineno + 3} in planted"
    raised = (passing[0][0], "no exception", f"Planted: at {point}; raised at {frame}")
    assert failing == [raised, *passing[1:]]


# a roundtrip entry whose inverse finds a fault fails the row a passing run
# gives for each point, with the first witness after the count


def _entries_shifted(real, by=1):
    def planted(x):
        t = real(x)
        rows = tuple(tuple(tuple(e + by for e in cell) for cell in row) for row in t.rows)
        return SetValuedTableau._trusted(t.shape, rows)

    return planted


def _one_step_longer(real):
    return lambda q: SimpleNamespace(word=real(q).word + "U")


BIJECTION_PLANTS = [
    ("perm", 4, _entries_shifted),
    ("path", 4, _entries_shifted),
    ("ballot", 3, _entries_shifted),
    ("motzT->motz", 4, _one_step_longer),
    ("motzET->motzE", 4, _one_step_longer),
]


@pytest.mark.parametrize("name,size,plant", BIJECTION_PLANTS, ids=[n for n, *_r in BIJECTION_PLANTS])
def test_failing_bijection_check_fails_its_own_rows(monkeypatch, name, size, plant):
    task = ("bijections", "check_roundtrip", {"name": name, "size": size})
    passing = run_tasks([task], threads=1)
    replant(ROUNDTRIPS, name, {2: plant(ROUNDTRIPS[name][2])}, monkeypatch.setitem)
    failing = run_tasks([task], threads=1)
    assert [r.instance for r in failing] == [r.instance for r in passing]
    assert all(r.ok for r in passing)
    for good, bad in zip(passing, failing):
        assert bad.expected == good.expected
        if good.expected == "0 roundtrips":  # no object to fail, as at ballot n = 1, i = 0
            assert bad == good
        else:
            assert not bad.ok and bad.actual.startswith("0 roundtrips; fails at ")
            assert ": roundtrip gives " in bad.actual


# the path entry reads the comajor along each path with the exponent rule the
# q-row pass runs; a DU that adds left in place of left + 1 fails its row
_DU_EXPONENT_SCRIPT = _PLANT_HEAD + """
import svtab.stats as st
st._comaj_exponent = lambda ch, after_D, left: (
    left if ch in "ud" else left if ch == "U" and after_D else 0
)
timing, results = v._run_task(("bijections", "check_roundtrip", {"name": "path", "size": 4}))
print(json.dumps([(r.instance, r.status, r.expected, r.actual) for r in results]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_wrong_du_exponent_fails_the_path_bijection_row(flags):
    task = ("bijections", "check_roundtrip", {"name": "path", "size": 4})
    passing = run_tasks([task], threads=1)
    assert all(r.ok for r in passing) and passing[-1].actual == "5 roundtrips"
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _DU_EXPONENT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert json.loads(proc.stdout) == [
        ["path,n=02", "pass", "1 roundtrips", "1 roundtrips"],
        ["path,n=03", "pass", "2 roundtrips", "2 roundtrips"],
        [
            "path,n=04",
            "fail",
            "5 roundtrips",
            "4 roundtrips; fails at {1} {3} / {2} {4}: image ColoredPath(word='UDUD') fails its test",
        ],
    ]


# walker tableaux are built without checks; check_walker_tableaux validates
# each one in full.  A walker whose filling swaps entry 1 with the largest
# entry (the first and last cells of the row-major order) gives no valid
# tableau, and the row says so with the first one.  The real ``_repack``
# builds the planted filling, without checks


def _swap_first_and_last_entry(real):
    def planted(shape, flat):
        (one, *rest), *middle, (*init, top) = flat
        first, last = tuple(sorted((top, *rest))), tuple(sorted((*init, one)))
        return real(shape, (first, *middle, last))

    return planted


def test_walker_tableaux_row_fails_on_swapped_entries(monkeypatch):
    task = ("bijections", "check_walker_tableaux", {"n": 6})
    (passing,) = run_tasks([task], threads=1)
    assert passing.ok and passing.actual == "42 valid tableaux"
    real = svtab.enumerate._repack
    monkeypatch.setattr(svtab.enumerate, "_repack", _swap_first_and_last_entry(real))
    (failing,) = run_tasks([task], threads=1)
    assert (failing.instance, failing.expected) == (passing.instance, passing.expected)
    assert not failing.ok
    assert failing.actual == "0 valid tableaux; fails at {2,3,4,5,6} / {1}"


# rotate_complement builds its image without checks; the rotation entry
# validates each one.  Images whose entries are 2 lower (total - 1 - v in place
# of total + 1 - v) still turn back to the tableau, so only the validation fails them


def test_rotation_row_fails_on_shifted_images(monkeypatch):
    task = ("bijections", "check_roundtrip", {"name": "rotation", "size": 7})
    *_smaller, passing = run_tasks([task], threads=1)
    assert passing.ok and (passing.instance, passing.actual) == ("rotation,n=07", "296 roundtrips")
    planted = _entries_shifted(ROUNDTRIPS["rotation"][1], by=-2)
    replant(ROUNDTRIPS, "rotation", {1: planted, 2: planted}, monkeypatch.setitem)
    *_smaller, failing = run_tasks([task], threads=1)
    assert (failing.instance, failing.expected) == (passing.instance, passing.expected)
    assert not failing.ok
    assert failing.actual.startswith("0 roundtrips; fails at ")
    assert failing.actual.endswith(" fails its test")


# each ROUNDTRIPS entry, its inverse planted to give another object for the
# last object of its last quick grid point, fails that point's row and no
# other at every budget


@pytest.mark.parametrize("name", list(ROUNDTRIPS))
def test_a_planted_inverse_fails_exactly_its_row(name, monkeypatch):
    objects, forth, back, _test, _target, grid, sizes = ROUNDTRIPS[name]
    *_before, (row, _want, _got) = check_roundtrip(name, sizes[0])
    first, *_middle, last = (x for point in grid(sizes[0]) for x in objects(**point))
    assert last in list(objects(**grid(sizes[0])[-1]))
    image = forth(last)
    replant(ROUNDTRIPS, name, {2: lambda y: first if y == image else back(y)}, monkeypatch.setitem)
    for size in sizes:
        assert [inst for inst, want, got in check_roundtrip(name, size) if want != got] == [row]


# the identity, planted as both the map and the inverse of any ROUNDTRIPS
# entry, gives each object back as its own image, so the image test must fail
# it: every row with an object fails, at every budget.  Where the test reads
# an attribute that the object lacks, the raise fails that point's row


@pytest.mark.parametrize("name", list(ROUNDTRIPS))
def test_a_planted_identity_fails_every_row_with_an_object(name, monkeypatch):
    objects, *_maps, grid, sizes = ROUNDTRIPS[name]
    identity = lambda x: x  # noqa: E731
    replant(ROUNDTRIPS, name, {1: identity, 2: identity}, monkeypatch.setitem)
    for size in sizes:
        some = [any(True for _ in objects(**point)) for point in grid(size)]
        rows = list(check_roundtrip(name, size))
        assert [want != got for _inst, want, got in rows] == some and any(some)


# a map that breaks one condition of the triple's image test on the objects
# it can (None where it cannot), with an inverse that still gives each object
# back: the rows of exactly the points where it broke one fail, on the test


def _cell_of(tr, value):
    """The cell of the triple's base that holds ``value``."""
    return next(cell for cell, (e,) in tr.base.cells() if e == value)


_TRIPLE_BREAKS = {
    # the tableau itself, which maps back to itself onto a new image
    "not a triple": lambda t, tr: t,
    "base with extras": lambda t, tr: replace(tr, base=t) if t.extras else None,
    "one cut short": lambda t, tr: (
        replace(tr, cuts=tr.cuts[:-1], picks=tr.picks[:-1]) if tr.cuts else None
    ),
    # the last pick moves to the cell holding N, maximal in the whole base
    "cut past the base": lambda t, tr: (
        replace(
            tr,
            cuts=(*tr.cuts[:-1], t.ncells + 1),
            picks=(*tr.picks[:-1], _cell_of(tr, t.ncells)),
        )
        if tr.cuts
        else None
    ),
    # each pick keeps its cut
    "cuts decrease": lambda t, tr: (
        replace(tr, cuts=tr.cuts[::-1], picks=tr.picks[::-1])
        if tr.cuts and tr.cuts[0] < tr.cuts[-1]
        else None
    ),
    "pick outside its cut": lambda t, tr: (
        replace(tr, picks=(*tr.picks[:-1], _cell_of(tr, t.ncells)))
        if tr.cuts and tr.cuts[-1] < t.ncells
        else None
    ),
    # the cell holding 2 is a neighbor of (1, 1), so (1, 1) is not maximal for a cut >= 2
    "pick not maximal": lambda t, tr: (
        replace(tr, picks=(*tr.picks[:-1], (1, 1))) if tr.cuts and tr.cuts[-1] >= 2 else None
    ),
}


@pytest.mark.parametrize("name", list(_TRIPLE_BREAKS))
def test_each_triple_condition_fails_the_rows_it_breaks(name, monkeypatch):
    originals, broken = {}, set()

    def forth(t):
        tr = decompose(t)
        bad = _TRIPLE_BREAKS[name](t, tr)
        if bad is not None:
            broken.add(t.nentries)
            tr = bad
        originals[tr] = t
        return tr

    replant(ROUNDTRIPS, "triple", {1: forth, 2: originals.__getitem__}, monkeypatch.setitem)
    failing = {inst: got for inst, want, got in check_roundtrip("triple", 7) if want != got}
    assert broken and sorted(failing) == [f"triple,n={n:02d}" for n in sorted(broken)]
    assert all("fails its test" in got for got in failing.values())


# each ROUNDTRIPS entry whose objects repeat one in place of another (at each
# quick point with two or more, its first object in place of its last) fails
# exactly those rows, one short, on the repeated image, though every object
# maps back


@pytest.mark.parametrize("name", list(ROUNDTRIPS))
def test_a_repeated_object_fails_its_rows(name, monkeypatch):
    objects, forth, _back, _test, _target, grid, (quick, _desk) = ROUNDTRIPS[name]
    lists = {tuple(p.values()): list(objects(**p)) for p in grid(quick)}
    passing = list(check_roundtrip(name, quick))
    wanted = [
        (inst, want, f"{len(xs) - 1} roundtrips; fails at {xs[0]}: image {forth(xs[0])} seen before")
        if len(xs) > 1
        else (inst, want, got)
        for (inst, want, got), xs in zip(passing, lists.values())
    ]
    assert wanted != passing
    repeated = {key: xs[:-1] + xs[:1] if len(xs) > 1 else xs for key, xs in lists.items()}
    replant(ROUNDTRIPS, name, {0: lambda **p: repeated[tuple(p.values())]}, monkeypatch.setitem)
    assert list(check_roundtrip(name, quick)) == wanted


# the ballot and e columns of the height-indexed table are the ``ballot`` and
# ``e`` count entries: a ballot count one too high at (6, 2) fails the ballot
# count row and no row of the table


def test_a_planted_ballot_count_fails_only_its_count_row(monkeypatch):
    real = svtab.verify.ballot_count
    planted = lambda n, i: real(n, i) + ((n, i) == (6, 2))
    monkeypatch.setattr(svtab.verify, "ballot_count", planted)
    replant(COUNT_ORACLES["formula"], "ballot", {1: planted}, monkeypatch.setitem)
    tasks = [
        ("counts", "check_count", {"kind": "formula", "name": "ballot", "size": 6}),
        ("counts", "check_two_row_counts", {"n": 6}),
    ]
    failed = [(r.check, r.instance) for r in run_tasks(tasks, threads=1) if not r.ok]
    assert failed == [("check_count", "ballot,n=06")]


# check_equidistribution compares the two descent-set tables itself: a library
# flag that calls two tables of equal sums equal does not pass the row


def _flag_moved_count_equal(real):
    def planted(shape, k):
        _equal, t1, t2 = real(shape, k)
        moved = dict(t2)
        moved[next(iter(moved))] -= 1
        moved[frozenset({0})] = 1
        return True, t1, moved

    return planted


def test_equidistribution_row_compares_the_tables(monkeypatch):
    task = ("posets", "check_equidistribution", {"shape": (3, 2), "kmax": 2})
    passing = run_tasks([task], threads=1)
    real = svtab.verify.equidistribution_check
    monkeypatch.setattr(svtab.verify, "equidistribution_check", _flag_moved_count_equal(real))
    failing = run_tasks([task], threads=1)
    assert len(passing) == 3 and all(r.ok for r in passing)
    assert [(r.instance, r.expected) for r in failing] == [
        (r.instance, r.expected) for r in passing
    ]
    assert [r.actual for r in failing] == [
        r.actual.replace("tables equal", "tables differ") for r in passing
    ]
    assert not any(r.ok for r in failing)


# check_more_shapes reads both counts of ``more_shapes_counts``: a second
# count with the sign of its cat(n - 2) term flipped fails the skew row


def test_skew_near_rectangle_row_reads_the_second_count(monkeypatch):
    assert not any(_failing(check_more_shapes(n)) for n in range(3, 16))
    real = svtab.verify.more_shapes_counts

    def planted(n):
        first, _second = real(n)
        return first, catalan(n) - 2 * catalan(n - 1) - catalan(n - 2)

    monkeypatch.setattr(svtab.verify, "more_shapes_counts", planted)
    for n in range(3, 9):
        assert _failing(check_more_shapes(n)) == {"skew near-rectangles"}


@pytest.fixture
def fresh_series():
    """The series entries cache their series by order; a planted series must
    not meet one cached before it, nor leave its own behind."""
    caches = [svtab.verify._series, svtab.verify._residuals]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# the marker-tally entry reads each coefficient from the series built to the
# order its row names, past the order 12 that the shared series context of
# ``expected_steps`` starts at (the grid cut to its motzET point at that order)


def test_marker_tally_past_order_12(monkeypatch, fresh_series):
    replant(SERIES_ORACLES, "marker-tally", {3: lambda o: [(o, "motzET", o)]}, monkeypatch.setitem)
    ((instance, want, got),) = check_series("marker-tally", 13)
    assert instance == "marker-tally,order=13" and want == got != "0"


# the residual entry builds its series at the order its row names, not at the
# order of a shared context: a defect at t^8 passes order 6


def test_series_residuals_check_the_order_they_name(monkeypatch, fresh_series):
    real = svtab.series.solve_E

    def planted(order):
        e = real(order)
        coeffs = list(e.coeffs)
        if order >= 8:
            coeffs[8] = coeffs[8] + 1
        return TSeries(e.ring, order, coeffs)

    monkeypatch.setattr(svtab.series, "solve_E", planted)
    failing = lambda rows: [inst for inst, want, got in rows if want != got]
    assert failing(check_series("residual", 6)) == []
    assert failing(check_series("residual", 12)) == ["residual,order=12"]


# the process pool is imported by a run with more than one worker and more
# than one task, and by nothing else: the import, a CLI command and a serial
# run leave ``multiprocessing`` unloaded
_POOL_MODULES_SCRIPT = """
import contextlib, io, json, sys
import svtab, svtab.verify, svtab.cli
from svtab.verify import build_tasks, run_tasks

POOL = ("concurrent.futures.process", "multiprocessing")
loaded = lambda: [m for m in POOL if m in sys.modules]
seen = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = svtab.cli.main(["count", "--formula", "act", "--b", "5", "--k", "3", "--oracle"])
seen["cli"] = loaded()
tasks = build_tasks(["counts"], "quick")
serial = run_tasks(tasks, threads=1)
seen["serial"] = loaded()
parallel = run_tasks(tasks, threads=2)
seen["parallel"] = loaded()
print(json.dumps({"seen": seen, "code": code, "count": out.getvalue(),
                  "tasks": len(tasks), "rows": len(serial), "same": parallel == serial}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_a_serial_run_never_loads_the_pool(flags):
    src = str(Path(svtab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _POOL_MODULES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    got = json.loads(proc.stdout)
    assert got["seen"] == {
        "import": [],
        "cli": [],
        "serial": [],
        "parallel": ["concurrent.futures.process", "multiprocessing"],
    }
    assert got["code"] == 0 and got["count"] == "37180,37180,ok\n"
    assert got["tasks"] >= 2 and got["rows"] > 0 and got["same"]
