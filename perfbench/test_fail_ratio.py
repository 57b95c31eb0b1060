"""Tests of the benchmark's own gates.

Run from the repository root with ``python3 -m pytest perfbench`` or
``python3 perfbench/test_fail_ratio.py``.  The checks raise explicitly
rather than using ``assert``, so they also hold under ``python -O``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(root: Path, *flags: str, extra=()) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        *flags,
        str(root / "perfbench" / "run.py"),
        "--workload",
        "exact-count",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def _expect(ok: bool, what: str, proc: subprocess.CompletedProcess) -> None:
    if not ok:
        raise AssertionError(f"{what}\nstdout:\n{proc.stdout[-2000:]}\nstderr:\n{proc.stderr[-2000:]}")


def check_planted(*flags: str) -> None:
    proc = _bench(ROOT, *flags, extra=("--plant",))
    result = json.loads(proc.stdout.splitlines()[-1])
    _expect(proc.returncode == 1, "a planted wrong value must exit 1", proc)
    _expect(result["correct"] is False, "a planted wrong value must not be correct", proc)
    _expect(result["failed"] >= 1, "a planted wrong value must count as failed", proc)
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("fail_ratio "))
    _expect(float(ratio.split()[1]) > 0, "fail_ratio must be nonzero", proc)
    _expect(result["metrics"]["pass_ratio"]["value"] < 1, "pass_ratio must drop", proc)


def test_planted_value_fails():
    check_planted()


def test_planted_value_fails_under_optimize():
    check_planted("-O")


def test_refuses_checkout_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(root)
    _expect(proc.returncode != 0, "a checkout without src/svtab must fail", proc)
    _expect('"correct"' not in proc.stdout, "no result may be printed", proc)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
