"""Command-line front end.

Subcommands: ``enumerate`` streams objects, ``count`` evaluates a closed form
or counting DP, optionally against its independent oracle, both looked up in
``verify.COUNT_ORACLES`` (this module holds no cross-check of its own),
``table``/``qtable`` emit golden-file CSV tables, ``biject`` maps stdin
objects through the named bijections, ``series``/``expect`` expose the
generating-function layer, and ``verify`` runs the re-derivation suites.
Each command maps the parsed arguments to its exit code and text and touches
no file; ``main`` checks an ``--output`` path before the command runs and
writes the text once, to stdout or in place of the file's content.
Exit codes: 0 success, 1 identity violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import partial
from operator import attrgetter
from time import perf_counter
from typing import Callable, NamedTuple

from .biject import (
    compose,
    contract_path,
    decompose,
    expand_path,
    path_from_tableau,
    perm_from_tableau,
    tableau_from_path,
    tableau_from_perm,
    Triple,
)
from .closedform import e_count, f_count
from .core import PATH_FAMILIES, ColoredPath, Permutation, SetValuedTableau, SvtabError, _json_ints
from .enumerate import (
    gen_avoid321,
    gen_ballotlike,
    gen_paths,
    gen_svsyt,
    gen_two_row_union,
)
from .series import SeriesContext, expected_steps
from .stats import set_valued_q_catalan, set_valued_q_narayana
from .verify import (
    BUDGETS,
    COUNT_ORACLES,
    SUITES,
    available_threads,
    build_tasks,
    report_dict,
    report_text,
    _run_timed,
)

__all__ = ["main"]


class UsageError(SvtabError):
    pass


def _parse_shape(text: str) -> tuple[int, ...]:
    """The ``--shape`` argument type; argparse turns a bad shape into exit 2."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected like 3,3") from None
    if not parts or any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}")
    return parts


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected like 4..12 or 7") from None
    if b < a:
        raise UsageError(f"empty range {text!r}")
    return range(a, b + 1)


def _require(args: argparse.Namespace, *names: str) -> list:
    got = []
    for name in names:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            raise UsageError(f"--{name} is required here")
        got.append(value)
    return got


def _open(path: str, mode: str):
    """The ``--output`` file opened with ``mode``; a path that cannot be
    written is a usage error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# object serialization shared by enumerate and biject


def _tableau_from_text(text: str) -> SetValuedTableau:
    rows = []
    for row_text in text.split("/"):
        cells = []
        for cell_text in row_text.split():
            inner = cell_text.strip().lstrip("{").rstrip("}")
            if not inner:
                raise UsageError(f"empty cell in {text!r}")
            cells.append([int(v) for v in inner.split(",")])
        if not cells:
            raise UsageError(f"empty row in {text!r}")
        rows.append(cells)
    return SetValuedTableau.from_rows(rows)


def _json_only(_line: str):
    raise UsageError("triples are JSON-only; use --input json")


class _Kind(NamedTuple):
    """A kind's readers (of one stripped line, or its decoded JSON) and writers."""

    read_text: Callable
    write_text: Callable
    read_json: Callable
    write_json: Callable


_word = attrgetter("word")
_KINDS = {
    "tableau": _Kind(_tableau_from_text, str, SetValuedTableau.from_json_dict,
                     SetValuedTableau.to_json_dict),
    "perm": _Kind(Permutation.from_text, Permutation.to_text,
                  lambda data: Permutation(_json_ints(data)), lambda w: list(w.word)),
    "path": _Kind(ColoredPath, _word, lambda data: ColoredPath(str(data)), _word),
    "triple": _Kind(_json_only, lambda tr: json.dumps(tr.to_json_dict()), Triple.from_json_dict,
                    Triple.to_json_dict),
}


# ---------------------------------------------------------------------------
# subcommands


def _gen_ballotlike(n: int, i: int | None):
    return gen_paths("ballotlike", n) if i is None else gen_ballotlike(n, i)


# enumerate --family -> (object kind, options, generator of their values);
# the first option is required
_FAMILIES: dict[str, tuple[str, tuple[str, ...], Callable]] = {
    "svsyt": ("tableau", ("shape", "k"), gen_svsyt),
    "two-row-union": ("tableau", ("n",), gen_two_row_union),
    "avoid321": ("perm", ("n",), gen_avoid321),
    **{family: ("path", ("n",), partial(gen_paths, family)) for family in PATH_FAMILIES},
    "ballotlike": ("path", ("n", "i"), _gen_ballotlike),
}


def cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    kind_name, (first, *rest), gen = _FAMILIES[args.family]
    stream = gen(*_require(args, first), *(getattr(args, name) for name in rest))
    if args.emit == "count":
        return 0, str(sum(1 for _ in stream))
    kind = _KINDS[kind_name]
    write = kind.write_text if args.emit == "text" else lambda o: json.dumps(kind.write_json(o))
    return 0, "\n".join(map(write, stream))


def cmd_count(args: argparse.Namespace) -> tuple[int, str]:
    kind = "formula" if args.formula else "family"
    names, value_fn, oracle_fn, _grid, _sizes = COUNT_ORACLES[kind][args.formula or args.family]
    params = _require(args, *names)
    value = value_fn(*params)
    if not args.oracle:
        return 0, str(value)
    oracle = oracle_fn(*params)
    agree = value == oracle
    return (0 if agree else 1), f"{value},{oracle},{'ok' if agree else 'MISMATCH'}"


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    if args.name != "ef":
        raise UsageError(f"unknown table {args.name!r}")
    if args.max_n < 0:
        raise UsageError(f"need --max-n >= 0, got {args.max_n}")
    rows = [("n", "i", "e", "f", "total")]
    for n in range(args.max_n + 1):
        for i in range(n + 1):
            e, f = e_count(n, i), f_count(n, i)
            rows.append((str(n), str(i), str(e), str(f), str(e + f)))
    if args.format == "csv":
        return 0, "\n".join(",".join(r) for r in rows)
    widths = [max(len(r[j]) for r in rows) for j in range(5)]
    return 0, "\n".join("  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows)


def cmd_qtable(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_n < 1:
        raise UsageError(f"need --max-n >= 1, got {args.max_n}")
    if args.stat == "catalan":
        polys = {
            str(n): set_valued_q_catalan(n) for n in range(1, args.max_n + 1)
        }
    else:
        polys = {
            f"{n},{m}": set_valued_q_narayana(n, m)
            for n in range(1, args.max_n + 1)
            for m in range(1, n + 1)
        }
    if args.format == "json":
        return 0, json.dumps({key: list(p.coeffs) for key, p in polys.items()}, indent=2)
    return 0, "\n".join(",".join(map(str, p.coeffs)) for p in polys.values())


_BIJECTIONS: dict[str, tuple[str, str, Callable]] = {
    # map name -> (input kind, output kind, function)
    "alpha": ("tableau", "perm", perm_from_tableau),
    "alpha-inv": ("perm", "tableau", tableau_from_perm),
    "beta": ("tableau", "path", path_from_tableau),
    "beta-inv": ("path", "tableau", tableau_from_path),
    "phi": ("path", "path", contract_path),
    "phi-inv": ("path", "path", expand_path),
    "decompose": ("tableau", "triple", decompose),
    "compose": ("triple", "tableau", compose),
}


def cmd_biject(args: argparse.Namespace) -> tuple[int, str]:
    in_kind, out_kind, fn = _BIJECTIONS[args.map]
    src, dst = _KINDS[in_kind], _KINDS[out_kind]
    lines_out = []
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            obj = src.read_json(json.loads(line)) if args.input == "json" else src.read_text(line)
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSONDecodeError
            raise UsageError(f"bad input line {line!r}: {exc}") from None
        image = fn(obj)
        if args.input == "json":
            pair = {"input": src.write_json(obj), "output": dst.write_json(image)}
            lines_out.append(json.dumps(pair))
        else:
            lines_out.append(f"{src.write_text(obj)} => {dst.write_text(image)}")
    return 0, "\n".join(lines_out)


def cmd_series(args: argparse.Namespace) -> tuple[int, str]:
    ctx = SeriesContext.build(args.order)
    series = {"E": ctx.E, "E1": ctx.E1, "E2": ctx.E2, "E12": ctx.E12}[args.which]
    values = {}
    for n in range(args.order + 1):
        coeff = series.coeff(n)
        values[str(n)] = coeff.at_ones() if args.spec == "all-ones" else str(coeff)
    if args.format == "json":
        doc = {"which": args.which, "order": args.order, "values": values}
        return 0, json.dumps(doc, indent=2)
    return 0, "\n".join(f"{n},{v}" for n, v in values.items())


def cmd_expect(args: argparse.Namespace) -> tuple[int, str]:
    ns = _parse_range(args.n)  # top order first: one series build; n < 2 fails in order
    got = {n: expected_steps(n, args.step) for n in [n for n in ns if n < 2] or ns[::-1]}
    values = {str(n): got[n] for n in ns}
    if args.format == "json":
        doc = {"step": args.step, "values": {k: str(v) for k, v in values.items()}}
        return 0, json.dumps(doc, indent=2)
    return 0, "\n".join(f"{n},{v}" for n, v in values.items())


def report_json(report: dict) -> str:
    """The verify report as JSON text, ending in a newline.

    The scalar fields each take a line, as ``json.dumps(report, indent=2)``
    puts them; then each task and each row takes one line, made by
    ``json.dumps`` with no indent, the C encoder, so no chunk list of the
    pure-Python encoder is built.  ``json.loads`` gives the report back.
    """
    lines = ["{"]
    for key, value in report.items():
        if key in ("tasks", "results"):  # one line each
            lines.append(f"  {json.dumps(key)}: [")
            lines += [f"    {json.dumps(x)}," for x in value]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("  ],")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    lines[-1] = lines[-1].rstrip(",")
    return "\n".join([*lines, "}", ""])


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    suites = SUITES if args.suite == "all" else (args.suite,)
    tasks = build_tasks(suites, budget=args.budget)
    threads = available_threads() if args.parallel is None else args.parallel
    if threads < 1:
        raise UsageError(f"--parallel must be a positive integer, got {threads}")
    started = perf_counter()
    results, timings = _run_timed(tasks, threads=threads)
    wall = perf_counter() - started
    code = 0 if all(r.ok for r in results) else 1
    if args.report == "json":
        return code, report_json(report_dict(results, timings, threads, wall, args.budget))
    return code, report_text(results)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svtab",
        description="verified enumeration of set-valued tableaux and friends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("enumerate", help="stream objects of a family")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--shape", type=_parse_shape, help="comma-separated partition, e.g. 3,3")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--emit", choices=("text", "json", "count"), default="text")
    add_output(p)

    p = sub.add_parser("count", help="closed form, optionally against an oracle")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--formula", choices=sorted(COUNT_ORACLES["formula"]))
    which.add_argument("--family", choices=sorted(COUNT_ORACLES["family"]))
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--shape", type=_parse_shape)
    p.add_argument("--oracle", action="store_true")
    add_output(p)

    p = sub.add_parser("table", help="integer tables as CSV")
    p.add_argument("--name", required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    add_output(p)

    p = sub.add_parser("qtable", help="q-polynomial coefficient tables")
    p.add_argument("--stat", required=True, choices=("catalan", "narayana"))
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p)

    p = sub.add_parser("biject", help="map stdin objects through a bijection")
    p.add_argument("--map", required=True, choices=sorted(_BIJECTIONS))
    p.add_argument("--input", choices=("text", "json"), default="text")
    add_output(p)

    p = sub.add_parser("series", help="generating-function coefficients")
    p.add_argument("--which", required=True, choices=("E", "E1", "E2", "E12"))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--spec", choices=("all-ones", "full"), default="all-ones")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p)

    p = sub.add_parser("expect", help="expected step counts")
    p.add_argument("--step", required=True, choices=("U", "D", "u", "d"))
    p.add_argument("--n", required=True, help="range like 4..12 or a single value")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_output(p)

    p = sub.add_parser("verify", help="run the re-derivation suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--budget", choices=BUDGETS, default="desk")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument(
        "--parallel",
        type=int,
        help="worker count; default is the logical core count",
    )
    add_output(p)

    return parser


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "count": cmd_count,
    "table": cmd_table,
    "qtable": cmd_qtable,
    "biject": cmd_biject,
    "series": cmd_series,
    "expect": cmd_expect,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.output is not None:  # checked before any work; the check creates nothing
            existed = os.path.lexists(args.output)
            _open(args.output, "a").close()
            if not existed:
                os.remove(args.output)
        code, text = _COMMANDS[args.command](args)
        if text and not text.endswith("\n"):
            text += "\n"
        with nullcontext(sys.stdout) if args.output is None else _open(args.output, "w") as out:
            out.write(text)  # the run's one write; an empty text empties the file
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SvtabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
