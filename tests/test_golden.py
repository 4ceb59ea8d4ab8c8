"""Golden CLI outputs: `sdof`, `ndt` and `plan --out` must not change by a byte.

Each case's stdout is kept in ``tests/golden/<case>.txt``; for `plan --out`
the golden file holds the stdout (which carries the ledger lines) followed
by the SHA-256 of the written plan text.  The corners follow the benchmark
grid's convention N = K_R, M_T = t_T K_R / K_T, M_R = t_R.

Regenerate only on purpose, when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from cachenet import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> (K_T, K_R, t_T, t_R)
CORNERS = {
    "3x3_reference": (3, 3, 2, 1),
    "4x4_t2_1": (4, 4, 2, 1),
    "5x7_t4_5": (5, 7, 4, 5),
    "8x8_t4_1": (8, 8, 4, 1),
}
COMMANDS = ("sdof", "ndt", "plan")
PLAN_FILE = "plan.txt"


def _net(corner: tuple[int, int, int, int]) -> list[str]:
    k_t, k_r, t_t, t_r = corner
    m_t = Fraction(t_t * k_r, k_t)
    return ["--kt", str(k_t), "--kr", str(k_r), "--n", str(k_r), "--mt", str(m_t), "--mr", str(t_r)]


def render(name: str, command: str) -> str:
    """Run one case in the current directory; return its golden text."""
    argv = [command, *_net(CORNERS[name])]
    if command == "plan":
        argv += ["--out", PLAN_FILE]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = f"exit={code}\n{out.getvalue()}"
    if command == "plan":
        text += f"sha256({PLAN_FILE})={hashlib.sha256(Path(PLAN_FILE).read_bytes()).hexdigest()}\n"
    return text


CASES = [(name, command) for name in CORNERS for command in COMMANDS]


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_golden(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN_DIR / f"{name}.{command}.txt").read_text()
    assert render(name, command) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, command in CASES:
            (GOLDEN_DIR / f"{name}.{command}.txt").write_text(render(name, command))
            print(f"wrote {name}.{command}.txt", file=sys.stderr)
