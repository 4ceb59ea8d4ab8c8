"""Golden CLI outputs: `sdof`, `ndt`, `plan` and `verify` must not change by a byte.

Each case's stdout is kept in ``tests/golden/<case>.txt``; for `plan --out`
the golden file holds the stdout (which carries the ledger lines) followed
by the SHA-256 of the written plan text.  `plan --show` cases lock the
placement listings, `oracle-ndt` and `ndt --seeds` cases lock the oracle
printer and the Monte-Carlo `mc=` line, and `verify` cases first write the
plan with `plan --out` and keep the stdout of `verify --plan-file`.  The corners
follow the benchmark grid's convention N = K_R, M_T = t_T K_R / K_T,
M_R = t_R.  Scripted cases lock a `--config` file overridden by a flag, the
`sweep` CSVs with their `.exact` sidecars, and the INCOMPLETE report of a
damaged plan file.

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

DECENTRALIZED = ["--mode", "decentralized", "--file-bits", "3000", "--seed", "1"]
MC = ["--file-bits", "1000", "--seeds", "3"]
# case -> (corner, command, flags passed to the command and, for `verify`, to both
# `plan --out` and `verify`); with `--out`, the written file's SHA-256 is kept too
RUN_CASES = {
    "3x3_reference.plan-show": ("3x3_reference", "plan", ["--show"]),
    "4x4_t2_1.plan-show": ("4x4_t2_1", "plan", ["--show"]),
    "3x3_reference.plan-show-decentralized": ("3x3_reference", "plan", ["--show", *DECENTRALIZED]),
    "4x4_t2_1.verify": ("4x4_t2_1", "verify", []),
    "3x3_reference.verify-decentralized": ("3x3_reference", "verify", DECENTRALIZED),
    "4x4_t2_1.oracle-ndt": ("4x4_t2_1", "oracle-ndt", []),
    "8x8_t4_1.oracle-ndt": ("8x8_t4_1", "oracle-ndt", []),
    "3x3_reference.ndt-mc": ("3x3_reference", "ndt", MC),
    "4x4_t2_1.ndt-mc": ("4x4_t2_1", "ndt", MC),
    # above 10,000 bits numpy's `choice` switches from Floyd's draw to a partial shuffle
    "4x4_t2_1.ndt-mc-1e6": ("4x4_t2_1", "ndt", ["--file-bits", "1000000", "--seeds", "2"]),
    "4x4_t2_1.plan-out-decentralized": (
        "4x4_t2_1",
        "plan",
        ["--mode", "decentralized", "--file-bits", "1000", "--out", PLAN_FILE],
    ),
}


def _net(corner: tuple[int, int, int, int]) -> list[str]:
    k_t, k_r, t_t, t_r = corner
    m_t = Fraction(t_t * k_r, k_t)
    return ["--kt", str(k_t), "--kr", str(k_r), "--n", str(k_r), "--mt", str(m_t), "--mr", str(t_r)]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit={code}\n{out.getvalue()}"


def _plan_sha() -> str:
    return f"sha256({PLAN_FILE})={hashlib.sha256(Path(PLAN_FILE).read_bytes()).hexdigest()}\n"


def render(name: str, command: str) -> str:
    """Run one case in the current directory; return its golden text."""
    argv = [command, *_net(CORNERS[name])]
    if command == "plan":
        argv += ["--out", PLAN_FILE]
    text = _run(argv)
    if command == "plan":
        text += _plan_sha()
    return text


def render_run(case: str) -> str:
    """Run one `RUN_CASES` case in the current directory; return its golden text."""
    corner, command, flags = RUN_CASES[case]
    net = [*_net(CORNERS[corner]), *flags]
    if command == "verify":
        _run(["plan", *net, "--out", PLAN_FILE])
        return _run(["verify", *net, "--plan-file", PLAN_FILE, "--channel-seeds", "2"])
    text = _run([command, *net])
    return text + _plan_sha() if "--out" in flags else text


def render_config_override() -> str:
    """`ndt` from a config file of the 4x4 corner with M_R = 0, overridden by `--mr 1`."""
    Path("net.cfg").write_text("# 4x4 corner, receiver caches overridden\nkt=4\nkr=4\nn=4\nmt=2\nmr=0\n")
    return _run(["ndt", "--config", "net.cfg", "--mr", "1"])


def render_sweep(figure: str) -> str:
    """`sweep` stdout, then the CSV and its `.exact` sidecar."""
    text = _run(["sweep", "--figure", figure, "--out", f"{figure}.csv"])
    for name in (f"{figure}.csv", f"{figure}.csv.exact"):
        text += f"--- {name}\n" + Path(name).read_text()
    return text


def render_damaged_verify() -> str:
    """`verify` of the 4x4 plan with one entry deleted, one duplicated and one re-filed to another file."""
    net = _net(CORNERS["4x4_t2_1"])
    _run(["plan", *net, "--out", PLAN_FILE])
    lines = Path(PLAN_FILE).read_text().splitlines(keepends=True)
    # from the back, so earlier line numbers stay put: block 3 dest 2, block 1 dest 4, block 1 dest 1
    del lines[59]
    lines.insert(21, lines[20])
    refiled = lines[2].replace(" file=1 ", " file=2 ")
    assert refiled != lines[2]
    lines[2] = refiled
    Path(PLAN_FILE).write_text("".join(lines))
    return _run(["verify", *net, "--demand", "1,2,3,4", "--plan-file", PLAN_FILE, "--channel-seeds", "2"])


SCRIPTED_CASES = {
    "4x4_t2_1.config-override": render_config_override,
    "fig2.sweep": lambda: render_sweep("fig2"),
    "fig4.sweep": lambda: render_sweep("fig4"),
    "4x4_t2_1.verify-damaged": render_damaged_verify,
}

CASES = [(name, command) for name in CORNERS for command in COMMANDS]


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_golden(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN_DIR / f"{name}.{command}.txt").read_text()
    assert render(name, command) == expected


@pytest.mark.parametrize("case", RUN_CASES)
def test_golden_run(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    assert render_run(case) == expected


@pytest.mark.parametrize("case", SCRIPTED_CASES)
def test_golden_scripted(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    assert SCRIPTED_CASES[case]() == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, command in CASES:
            (GOLDEN_DIR / f"{name}.{command}.txt").write_text(render(name, command))
            print(f"wrote {name}.{command}.txt", file=sys.stderr)
        for case in RUN_CASES:
            (GOLDEN_DIR / f"{case}.txt").write_text(render_run(case))
            print(f"wrote {case}.txt", file=sys.stderr)
        for case, render_case in SCRIPTED_CASES.items():
            (GOLDEN_DIR / f"{case}.txt").write_text(render_case())
            print(f"wrote {case}.txt", file=sys.stderr)
