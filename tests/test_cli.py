"""Command-line interface: argument handling, output formats, exit codes."""

import io
import json
import os
import platform
import subprocess
import sys
import time

import pytest

import svtab.verify
from svtab.cli import main, report_json
from svtab.verify import BUDGETS, COUNT_ORACLES, _run_timed, build_tasks, check_count, report_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_motzet_words(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "motzET", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["UUDD", "UDUD", "UDdd", "UuDd", "UuuD"]

    def test_count_emit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "motzET", "--n", "4", "--emit", "count"
        )
        assert (code, out.strip()) == (0, "5")

    def test_svsyt_needs_shape(self, capsys):
        code, _, err = run(capsys, "enumerate", "--family", "svsyt", "--n", "3")
        assert code == 2
        assert "shape" in err

    def test_svsyt_single_row(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "svsyt", "--shape", "2", "--k", "2"
        )
        assert code == 0
        assert out.splitlines() == ["{1,2,3} {4}", "{1,2} {3,4}", "{1} {2,3,4}"]

    def test_json_emit_is_parseable(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "avoid321", "--n", "3", "--emit", "json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 5

    def test_ballotlike_with_height(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "ballotlike", "--n", "4", "--i", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 6


    def test_empty_stream_writes_nothing(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "ballotlike", "--n", "1", "--i", "2"
        )
        assert (code, out) == (0, "")

    def test_one_object_stream_writes_one_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "svsyt", "--shape", "1")
        assert (code, out) == (0, "{1}\n")


class TestCount:
    def test_family_count(self, capsys):
        assert run(capsys, "count", "--family", "two-row-union", "--n", "6")[:2] == (
            0,
            "42\n",
        )

    def test_formula_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "count", "--formula", "act", "--b", "2", "--k", "3", "--oracle"
        )
        assert (code, out.strip()) == (0, "84,84,ok")

    def test_family_with_oracle(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "motzET", "--n", "6", "--oracle")
        assert (code, out.strip()) == (0, "42,42,ok")

    def test_ballot_values(self, capsys):
        assert run(capsys, "count", "--formula", "ballot", "--n", "8", "--i", "2")[
            1
        ].strip() == "1002"
        assert run(capsys, "count", "--formula", "ballot", "--n", "0", "--i", "0")[
            1
        ].strip() == "1"

    def test_narayana_oracle(self, capsys):
        code, out, _ = run(
            capsys, "count", "--formula", "narayana", "--n", "4", "--m", "2", "--oracle"
        )
        assert (code, out.strip()) == (0, "6,6,ok")

    # a small instance of every parameter a count takes
    SMALL = {"n": "4", "i": "1", "b": "2", "k": "1", "m": "2", "shape": "2,1"}

    @pytest.mark.parametrize(
        "kind,key",
        [(kind, key) for kind, table in COUNT_ORACLES.items() for key in sorted(table)],
    )
    def test_every_count_has_an_oracle(self, capsys, kind, key):
        names = COUNT_ORACLES[kind][key][0]
        argv = [arg for name in names for arg in (f"--{name}", self.SMALL[name])]
        code, out, _ = run(capsys, "count", f"--{kind}", key, *argv, "--oracle")
        value, oracle, verdict = out.strip().split(",")
        assert (code, oracle, verdict) == (0, value, "ok")

    @pytest.mark.parametrize("key", ["ballot", "e", "f"])
    def test_heights_past_n_count_zero_on_both_sides(self, capsys, key):
        code, out, _ = run(
            capsys, "count", "--formula", key, "--n", "1", "--i", "2", "--oracle"
        )
        assert (code, out.strip()) == (0, "0,0,ok")

    def test_planted_rectangle_dp_fails_the_cli_and_verify(self, capsys, monkeypatch):
        real = svtab.verify.count_svsyt
        monkeypatch.setattr(
            svtab.verify, "count_svsyt", lambda shape, k: real(shape, k) + 1
        )
        code, out, _ = run(
            capsys, "count", "--formula", "act", "--b", "2", "--k", "3", "--oracle"
        )
        assert (code, out.strip()) == (1, "84,85,MISMATCH")
        rows = {inst: (want, got) for inst, want, got in check_count("formula", "act", 7)}
        assert all(want != got for want, got in rows.values())
        want, got = rows["act,b=02"]
        assert [int(w) - int(g) for w, g in zip(want.split(","), got.split(","))] == [1] * 4

    def test_catalan_oracle_is_the_two_row_union(self, capsys):
        # catalan(n) counts the union's tableaux with n + 1 entries, and the
        # union has none with one entry, so the oracle is asked from n = 1, and
        # its range error names the --n given
        code, out, _ = run(capsys, "count", "--formula", "catalan", "--n", "5", "--oracle")
        assert (code, out.strip()) == (0, "42,42,ok")
        assert run(capsys, "count", "--formula", "catalan", "--n", "0")[:2] == (0, "1\n")
        code, _out, err = run(capsys, "count", "--formula", "catalan", "--n", "0", "--oracle")
        assert (code, err) == (2, "error: OutOfRange: need n >= 1, got 0\n")

    def test_usage_errors(self, capsys):
        assert run(capsys, "count", "--formula", "nosuch", "--n", "3")[0] == 2
        bad_shape = ("count", "--family", "svsyt", "--shape", "3,x", "--k", "0")
        assert run(capsys, *bad_shape)[0] == 2
        # exactly one of --formula/--family
        assert run(capsys, "count", "--n", "3")[0] == 2
        assert (
            run(
                capsys,
                "count",
                "--formula",
                "catalan",
                "--family",
                "motz",
                "--n",
                "3",
            )[0]
            == 2
        )


class TestTableAndQtable:
    def test_ef_table_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--name", "ef", "--max-n", "2")
        assert code == 0
        assert out.splitlines() == [
            "n,i,e,f,total",
            "0,0,1,0,1",
            "1,0,0,0,0",
            "1,1,1,0,1",
            "2,0,0,1,1",
            "2,1,1,0,1",
            "2,2,1,0,1",
        ]

    def test_unknown_table(self, capsys):
        assert run(capsys, "table", "--name", "zz", "--max-n", "2")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--name", "ef", "--max-n", "-1"),
            *(
                ("qtable", "--stat", stat, "--max-n", n)
                for stat in ("catalan", "narayana")
                for n in ("0", "-2")
            ),
        ],
    )
    def test_max_n_below_the_first_row_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: need --max-n >= ")

    def test_qtable_catalan(self, capsys):
        code, out, _ = run(capsys, "qtable", "--stat", "catalan", "--max-n", "5")
        assert code == 0
        assert out.splitlines() == [
            "1",
            "1,1",
            "1,1,2,1",
            "1,2,2,3,3,2,1",
            "1,1,3,7,6,5,6,7,3,2,1",
        ]

    def test_qtable_narayana(self, capsys):
        code, out, _ = run(capsys, "qtable", "--stat", "narayana", "--max-n", "3")
        assert code == 0
        assert out.splitlines() == ["1", "1", "0,1", "0,1", "1,0,2", "0,0,0,1"]

    def test_qtable_json(self, capsys):
        code, out, _ = run(
            capsys, "qtable", "--stat", "catalan", "--max-n", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["3"] == [1, 1, 2, 1]


class TestBiject:
    def _feed(self, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    def test_alpha_text(self, capsys, monkeypatch):
        self._feed(monkeypatch, "{1,2} {3} / {4} {5}\n")
        code, out, _ = run(capsys, "biject", "--map", "alpha", "--input", "text")
        assert code == 0
        assert out.strip() == "{1,2} {3} / {4} {5} => 1 4 2 3"

    def test_alpha_inv_text(self, capsys, monkeypatch):
        self._feed(monkeypatch, "3 5 1 2 7 8 4 10 11 6 9\n")
        code, out, _ = run(capsys, "biject", "--map", "alpha-inv", "--input", "text")
        assert code == 0
        assert (
            out.strip()
            == "3 5 1 2 7 8 4 10 11 6 9 => {1} {2,4} {6} {9} / {3,5} {7,8} {10,11} {12}"
        )

    def test_phi_text(self, capsys, monkeypatch):
        self._feed(monkeypatch, "UuDd\n")
        code, out, _ = run(capsys, "biject", "--map", "phi", "--input", "text")
        assert (code, out.strip()) == (0, "UuDd => UDd")

    def test_decompose_json(self, capsys, monkeypatch):
        payload = {"outer": [2, 2], "inner": [], "rows": [[[1, 2], [3]], [[4], [5]]]}
        self._feed(monkeypatch, json.dumps(payload) + "\n")
        code, out, _ = run(capsys, "biject", "--map", "decompose", "--input", "json")
        assert code == 0
        record = json.loads(out)
        assert record["output"]["cuts"] == [1]
        assert record["output"]["picks"] == [[1, 1]]
        assert record["output"]["base"]["rows"] == [[[1], [2]], [[3], [4]]]

    def test_decompose_text_mode_inlines_triple(self, capsys, monkeypatch):
        self._feed(monkeypatch, "{1,2} / {3}\n")
        code, out, _ = run(capsys, "biject", "--map", "decompose", "--input", "text")
        assert code == 0
        lhs, rhs = out.strip().split(" => ", 1)
        assert lhs == "{1,2} / {3}"
        assert json.loads(rhs)["cuts"] == [1]

    def test_compose_text_mode_rejected(self, capsys, monkeypatch):
        self._feed(
            monkeypatch,
            '{"base": {"outer": [1], "inner": [], "rows": [[[1]]]}, '
            '"cuts": [], "picks": []}\n',
        )
        code, _, err = run(capsys, "biject", "--map", "compose", "--input", "text")
        assert code == 2 and "JSON-only" in err

    def test_domain_error_exits_2(self, capsys, monkeypatch):
        payload = {"outer": [2, 1], "inner": [], "rows": [[[1, 2], [3]], [[4]]]}
        self._feed(monkeypatch, json.dumps(payload) + "\n")
        code, _, err = run(capsys, "biject", "--map", "alpha", "--input", "json")
        assert code == 2
        assert "ShapeNotTwoRowRectangular" in err

    @pytest.mark.parametrize(
        "fmt,line",
        [
            ("text", "{2} / {1}"),
            ("json", json.dumps({"outer": [2, 2], "inner": [], "rows": [[[2], [3]], [[4], [5]]]})),
        ],
        ids=["text column order", "json entries 2..5"],
    )
    def test_invalid_tableau_fails_when_read(self, capsys, monkeypatch, fmt, line):
        # a tableau is checked when it is made, so no map ever sees this one
        self._feed(monkeypatch, line + "\n")
        code, out, err = run(capsys, "biject", "--map", "alpha", "--input", fmt)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad input line {line!r}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_json_line(self, capsys, monkeypatch):
        self._feed(monkeypatch, "{not json}\n")
        code, _, err = run(capsys, "biject", "--map", "alpha", "--input", "json")
        assert code == 2 and "bad input line" in err

    @pytest.mark.parametrize("line", ['{"x":1}', "7"])
    def test_json_of_the_wrong_shape(self, capsys, monkeypatch, line):
        self._feed(monkeypatch, line + "\n")
        code, out, err = run(capsys, "biject", "--map", "alpha", "--input", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad input line {line!r}")

    def _bad_line(self, capsys, monkeypatch, bijection, payload):
        line = json.dumps(payload)
        self._feed(monkeypatch, line + "\n")
        code, out, err = run(capsys, "biject", "--map", bijection, "--input", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad input line {line!r}")

    @pytest.mark.parametrize(
        "payload",
        [
            {"outer": [2, 2], "inner": [], "rows": [[[1.0], [2.0]], [[3.0], [4.0]]]},
            {"outer": [2, 2], "inner": [], "rows": [[[True], [2]], [[3], [4]]]},
            {"outer": [2.0, 2], "inner": [], "rows": [[[1], [2]], [[3], [4]]]},
            {"outer": [2, 2], "inner": [1.0], "rows": [[[1]], [[2], [3]]]},
            {"outer": [2, 2], "inner": [True], "rows": [[[1]], [[2], [3]]]},
        ],
        ids=["float rows", "bool rows", "float outer", "float inner", "bool inner"],
    )
    def test_tableau_entries_must_be_ints(self, capsys, monkeypatch, payload):
        self._bad_line(capsys, monkeypatch, "decompose", payload)

    @pytest.mark.parametrize("payload", [[2.9, 1.2], [2, True], "21"])
    def test_perm_entries_must_be_ints(self, capsys, monkeypatch, payload):
        self._bad_line(capsys, monkeypatch, "alpha-inv", payload)

    @pytest.mark.parametrize(
        "cuts,picks", [([2.5], [[1, 1]]), ([1], [[1.0, 1]]), ([True], [[1, 1]])]
    )
    def test_triple_entries_must_be_ints(self, capsys, monkeypatch, cuts, picks):
        base = {"outer": [2, 2], "inner": [], "rows": [[[1], [2]], [[3], [4]]]}
        self._bad_line(capsys, monkeypatch, "compose", {"base": base, "cuts": cuts, "picks": picks})


class TestSeriesAndExpect:
    def test_series_at_ones(self, capsys):
        code, out, _ = run(
            capsys, "series", "--which", "E12", "--order", "4", "--spec", "all-ones"
        )
        assert code == 0
        assert out.splitlines() == ["0,0", "1,0", "2,1", "3,2", "4,5"]

    def test_series_full(self, capsys):
        code, out, _ = run(
            capsys, "series", "--which", "E12", "--order", "4", "--spec", "full"
        )
        assert code == 0
        assert out.splitlines()[2:] == [
            "2,U*D",
            "3,U*D*d + U*D*u",
            "4,U*D*d^2 + U*D*u*d + U*D*u^2 + 2*U^2*D^2",
        ]

    def test_expect_range(self, capsys):
        code, out, _ = run(capsys, "expect", "--step", "U", "--n", "4..7")
        assert code == 0
        assert out.splitlines() == ["4,7/5", "5,12/7", "6,2", "7,25/11"]

    def test_expect_single(self, capsys):
        code, out, _ = run(capsys, "expect", "--step", "u", "--n", "2")
        assert (code, out.strip()) == (0, "2,0")

    def test_expect_bad_range(self, capsys):
        assert run(capsys, "expect", "--step", "U", "--n", "7..4")[0] == 2

    def test_expect_builds_the_series_once(self, capsys, monkeypatch):
        import svtab.series as series

        real, orders = series.SeriesContext.build.__func__, []

        def counted(cls, order):
            orders.append(order)
            return real(cls, order)

        monkeypatch.setattr(series, "_CTX", None)
        monkeypatch.setattr(series.SeriesContext, "build", classmethod(counted))
        code, out, _ = run(capsys, "expect", "--step", "U", "--n", "3..20")
        assert (code, orders) == (0, [20])
        # the bytes of the former loop, one n at a time in order from a fresh context
        monkeypatch.setattr(series, "_CTX", None)
        want = "".join(f"{n},{series.expected_steps(n, 'U')}\n" for n in range(3, 21))
        assert out == want and len(orders) > 1

    def test_expect_error_names_the_lowest_n(self, capsys):
        code, _, err = run(capsys, "expect", "--step", "U", "--n", "0..5")
        assert code == 2 and "got 0" in err


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "qstats",
            "--budget",
            "quick",
            "--parallel",
            "1",
        )
        assert code == 0
        assert "0 failed" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "counts",
            "--budget",
            "quick",
            "--report",
            "json",
            "--parallel",
            "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == 0
        assert data["checks"] == data["passed"] > 0

    def test_json_report_times_every_task_once(self, capsys):
        argv = ["verify", "--suite", "counts", "--budget", "quick", "--report", "json"]
        code, out, _ = run(capsys, *argv, "--parallel", "1")
        assert code == 0
        data = json.loads(out)
        tasks = build_tasks(("counts",), budget="quick")
        timed = [(t["suite"], t["check"], t["kwargs"]) for t in data["tasks"]]
        assert timed == [(suite, check, kwargs) for suite, check, kwargs in tasks]
        assert sum(t["rows"] for t in data["tasks"]) == data["checks"]
        total = sum(t["seconds"] for t in data["tasks"])
        assert data["seconds"] == round(total, 3)
        # both totals are rounded to the millisecond
        assert 0 < data["seconds"] <= data["wall_seconds"] + 0.001

    def test_json_report_wall_time_is_measured(self):
        argv = ["verify", "--suite", "qstats", "--budget", "quick", "--report", "json"]
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "svtab", *argv, "--parallel", "2"],
            capture_output=True,
            text=True,
        )
        outside = time.perf_counter() - started
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert 0 < data["wall_seconds"] <= outside
        assert (data["threads"], data["budget"]) == (2, "quick")
        assert data["python"] == platform.python_version()

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "--suite", "nosuch")[0] == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, capsys, count):
        code, out, err = run(capsys, "verify", "--suite", "qstats", "--parallel", count)
        assert (code, out) == (2, "")
        assert f"--parallel must be a positive integer, got {count}" in err

    def test_unknown_budget_names_the_budgets(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "qstats", "--budget", "deep")
        assert (code, out) == (2, "")
        assert all(name in err for name in BUDGETS)

    @pytest.mark.parametrize("flag", ["--order", "--max-elements", "--max-k"])
    def test_the_budget_is_the_only_size_option(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--suite", "qstats", flag, "1")
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err


class TestOutputAndProcess:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys,
            "count",
            "--family",
            "two-row-union",
            "--n",
            "6",
            "--output",
            str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == "42\n"

    @pytest.mark.parametrize(
        "argv",
        [["table", "--name", "zz"], ["qtable", "--stat", "catalan", "--max-n", "0"]],
        ids=["table", "qtable"],
    )
    def test_usage_error_leaves_the_output_file_as_it_was(self, capsys, tmp_path, argv):
        target = tmp_path / "kept.txt"
        target.write_text("an earlier run\n")
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert target.read_text() == "an earlier run\n"

    def test_output_replaces_a_longer_file_and_writes_to_a_device(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("a longer line from an earlier run\n")
        argv = ["count", "--family", "two-row-union", "--n", "6", "--output"]
        assert run(capsys, *argv, str(target))[:2] == (0, "")
        assert target.read_text() == "42\n"
        assert run(capsys, *argv, os.devnull)[:2] == (0, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--family", "motz", "--n", "3"],
            ["verify", "--suite", "counts", "--budget", "quick"],
        ],
        ids=["enumerate", "verify"],
    )
    def test_output_that_cannot_be_opened_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(target)!r}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv",
        [["table", "--name", "zz"], ["qtable", "--stat", "catalan", "--max-n", "0"]],
        ids=["table", "qtable"],
    )
    def test_usage_error_creates_no_output_file(self, capsys, tmp_path, argv):
        target = tmp_path / "new.txt"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()

    def test_empty_result_empties_the_output_file(self, capsys, tmp_path):
        target = tmp_path / "x.txt"
        target.write_text("an earlier run\n")
        argv = ["enumerate", "--family", "motzET", "--n", "1", "--output", str(target)]
        assert run(capsys, *argv)[:2] == (0, "")
        assert target.read_text() == ""

    def test_biject_of_empty_input_writes_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run(capsys, "biject", "--map", "alpha") == (0, "", "")

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svtab", "count", "--family", "two-row-union", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "14"

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


def test_json_report_has_a_line_per_task_and_row():
    tasks = [("counts", "check_count", {"kind": "formula", "name": "catalan", "size": 3})]
    results, timings = _run_timed(tasks, threads=1)
    d = report_dict(results, timings, threads=1, wall_seconds=0.25, budget="desk")
    text = report_json(d)
    assert text.endswith("}\n") and json.loads(text) == d
    lines = text.splitlines()
    for row in d["results"]:
        assert f"    {json.dumps(row)}," in lines or f"    {json.dumps(row)}" in lines
    assert f"    {json.dumps(d['tasks'][0])}" in lines
    # the scalar fields are laid out as json.dumps(report, indent=2) lays them out
    indented = json.dumps(d, indent=2).splitlines()
    assert lines[: len(d) - 1] == indented[: len(d) - 1]
    empty = {**d, "tasks": [], "results": []}
    assert json.loads(report_json(empty)) == empty
