"""Mutation fuzz of plan files through `verify`, in-process and with the standard library only.

Each case makes one random edit to a `plan --out` file: it inserts, deletes,
swaps or duplicates a character or a line.  Inserted lines come from both base
files, so a header of the other mode can arrive too.  Every case must exit 0,
1 or 2 without a traceback, an exit 2 must print `error:`, and a file that
exits 0 must parse to plans whose headers match what they hold.

Config files are not fuzzed: a mutated corner such as `kt=34` expands an
unbounded number of transmitter sets until plan sizes are bounded (ROADMAP
item 7), and leaving such mutations out would hide that.
"""

from __future__ import annotations

import io
import random
import re
import sys

import pytest

from cachenet import cli
from cachenet.delivery import parse_plans

CASES = 300
ALPHABET = "0123456789{},=#()- \t\nabcdeilmnortxzé"
NET44 = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
NET33 = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", "300"]
# name: (verify flags, extra plan flags, seed of the case generator)
BASES = {
    "4x4-centralized": (NET44, [], 0),
    "3x3-decentralized": (NET33, ["--mode", "decentralized"], 1),
}


def base_texts(tmp_path, capsys) -> dict[str, str]:
    """The `plan --out` text of every base file."""
    texts = {}
    for name, (net, extra, _) in BASES.items():
        assert cli.main(["plan", *net, *extra, "--out", str(tmp_path / "base.txt")]) == 0
        texts[name] = (tmp_path / "base.txt").read_text()
    capsys.readouterr()
    return texts


def mutate(text: str, pool: list[str], rng: random.Random) -> str:
    """`text` with one character or line inserted, deleted, swapped or duplicated; inserted lines come from `pool`."""
    by_line = rng.random() < 0.5
    units = text.splitlines(True) if by_line else list(text)
    op = rng.choice(("insert", "delete", "swap", "duplicate"))
    i, j = rng.randrange(len(units)), rng.randrange(len(units))
    if op == "insert":
        units.insert(i, rng.choice(pool) if by_line else rng.choice(ALPHABET))
    elif op == "delete":
        del units[i]
    elif op == "swap":
        units[i], units[j] = units[j], units[i]
    else:
        units.insert(i, units[j])
    return "".join(units)


def mutants(texts: dict[str, str], name: str) -> list[str]:
    """The fixed corpus of one base file: CASES one-edit mutants drawn from its own seed."""
    rng = random.Random(BASES[name][2])
    pool = [line for text in texts.values() for line in text.splitlines(True)]
    return [mutate(texts[name], pool, rng) for _ in range(CASES)]


def verify(text: str, net: list[str], monkeypatch, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `verify` reading `text` from stdin, without checking a channel."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(["verify", *net, "--channel-seeds", "0"])
    return (code, *capsys.readouterr())


def assert_headers_match(text: str, t_r: int) -> None:
    """One mode per file, each tier named once, and each plan holding only the cache sizes its header names."""
    plans = parse_plans(text)
    modes = [p.mode for p in plans]
    if modes == [None]:
        return
    sizes = {"centralized": t_r} if modes == ["centralized"] else {}
    for mode in modes:
        tier = re.fullmatch(r"decentralized-tier\((\d+)\)", mode or "")
        if tier:
            sizes[mode] = int(tier.group(1))
    assert set(sizes) == set(modes) and len(modes) == len(sizes), modes
    for p in plans:
        assert all(len(r.rx_set) == sizes[p.mode] for _, r in p.runs()), p.mode


@pytest.mark.parametrize("name", list(BASES))
def test_mutated_plan_files_exit_cleanly(name, tmp_path, monkeypatch, capsys):
    texts = base_texts(tmp_path, capsys)
    net = BASES[name][0]
    codes = []
    for text in mutants(texts, name):
        code, out, err = verify(text, net, monkeypatch, capsys)
        assert code in (0, 1, 2), text
        assert "Traceback" not in out + err, text
        if code == 2:
            assert out == "" and err.startswith("error: "), text
        if code == 0:
            assert_headers_match(text, t_r=1)
        codes.append(code)
    # the corpus reaches every outcome, so each assertion above is exercised
    assert set(codes) == {0, 1, 2}
