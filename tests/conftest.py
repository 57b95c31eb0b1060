"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import svtab


@pytest.fixture
def raised_under_O():
    """Run one call in a ``python -O`` interpreter; give the exception's name.

    The call sees the modules ``svtab.closedform``, ``svtab.core``,
    ``svtab.posets``, ``svtab.rings``, ``svtab.series`` and ``svtab.stats``.  An input check written as an
    ``assert`` vanishes there, so the name is empty.
    """
    src = str(Path(svtab.__file__).resolve().parents[1])

    def run(call: str) -> str:
        script = (
            "import svtab.closedform, svtab.core, svtab.posets, svtab.rings, svtab.series, svtab.stats\n"
            f"try:\n    {call}\nexcept Exception as exc:\n    print(type(exc).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        return proc.stdout.strip()

    return run
