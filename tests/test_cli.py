from __future__ import annotations

import subprocess
import sys

import pytest

from cachenet import cli, delivery
from conftest import cachenet_env

BASE = [sys.executable, "-m", "cachenet"]


def run_cli(*args, cwd=None, stdin=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, cwd=cwd, input=stdin,
        env=cachenet_env(),
    )


def test_sdof_4x4():
    r = run_cli("sdof", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1")
    assert r.returncode == 0
    assert "proposed=24/7" in r.stdout and "baseline=3" in r.stdout
    assert "per_user=6/7" in r.stdout and "capped=false" in r.stdout


def test_sdof_3x3_no_rx_cache():
    r = run_cli("sdof", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "0")
    assert r.returncode == 0 and "proposed=9/4" in r.stdout


def test_missing_flags_usage_error():
    r = run_cli("sdof", "--kt", "4")
    assert r.returncode != 0
    assert "missing required network parameters" in r.stderr


def test_invalid_config_nonzero_exit():
    r = run_cli("sdof", "--kt", "2", "--kr", "2", "--n", "4", "--mt", "1", "--mr", "1")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_ndt_reference_example():
    r = run_cli("ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1")
    assert r.returncode == 0
    assert "formula=62/81" in r.stdout and "oracle=62/81" in r.stdout
    assert "tier t=0: 32/81" in r.stdout
    assert "147/95" in r.stdout and "14/9" in r.stdout  # inconsistent reported values flagged


def test_ndt_full_cache_zero():
    r = run_cli("ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "3")
    assert r.returncode == 0
    assert "formula=0 (0)" in r.stdout and "oracle=0 (0)" in r.stdout


def test_ndt_monte_carlo(tmp_path):
    r = run_cli(
        "ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1",
        "--file-bits", "30000", "--seeds", "5",
    )
    assert r.returncode == 0
    assert "mc=" in r.stdout and "stderr=" in r.stdout


def test_plan_ledger_output(tmp_path):
    r = run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert r.stdout.count("per-user DoF 6/7") == 3
    assert "sDoF=24/7" in r.stdout
    text = (tmp_path / "plan.txt").read_text()
    assert sum(1 for ln in text.splitlines() if ln.startswith("block=")) == 72


def test_plan_show_lists_placement(tmp_path):
    r = run_cli(
        "plan", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1",
        "--out", "p.txt", "--show", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert "tx 1:" in r.stdout and "rx 3:" in r.stdout


@pytest.mark.parametrize("show", [False, True])
def test_plan_builds_placement_listings_only_when_shown(show, monkeypatch):
    # only `plan --show` reads the per-node cache listings, so only it builds them
    built = []
    original = cli.place_centralized

    def place(cfg):
        built.append(original(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "place_centralized", place)
    argv = ["plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1", "--verify", "--channel-seeds", "1"]
    assert cli.main(argv + ["--show"] * show) == 0
    (placement,) = built
    listings = {"tx_cache", "rx_cache"} & set(vars(placement))
    assert listings == ({"tx_cache", "rx_cache"} if show else set())


def test_plan_verify_clean(tmp_path):
    r = run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", "--verify", "--channel-seeds", "3", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert "complete:" in r.stdout and "0 violations" in r.stdout
    assert "alignment" in r.stdout  # IA assumption is always stated


def test_verify_round_trip(tmp_path):
    run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", cwd=tmp_path,
    )
    r = run_cli(
        "verify", "--plan-file", "plan.txt", "--kt", "4", "--kr", "4", "--n", "4",
        "--mt", "2", "--mr", "1", "--channel-seeds", "2", cwd=tmp_path,
    )
    assert r.returncode == 0 and "complete:" in r.stdout


def test_verify_corrupted_plan_fails(tmp_path):
    run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", cwd=tmp_path,
    )
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    removed = [ln for ln in lines if ln != "block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1"]
    (tmp_path / "broken.txt").write_text("\n".join(removed) + "\n")
    r = run_cli(
        "verify", "--plan-file", "broken.txt", "--kt", "4", "--kr", "4", "--n", "4",
        "--mt", "2", "--mr", "1", "--channel-seeds", "2", cwd=tmp_path,
    )
    assert r.returncode == 1
    assert "INCOMPLETE" in r.stdout and "missing for rx 1" in r.stdout


def test_verify_malformed_entry_fails(tmp_path):
    # zero-forcing at the destination is rejected as malformed
    (tmp_path / "bad.txt").write_text(
        "# mode=centralized\nblock=1 file=1 tx={1,2} cachedRx={2} zf={1} dest=1\n"
    )
    r = run_cli(
        "verify", "--plan-file", "bad.txt", "--kt", "4", "--kr", "4", "--n", "4",
        "--mt", "2", "--mr", "1", cwd=tmp_path,
    )
    assert r.returncode == 1 and "malformed plan" in r.stdout


@pytest.mark.parametrize(
    "edited,message",
    [
        ("block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=9", "dest index 9 outside 1..4"),
        ("block=1 file=1 tx={1,2} cachedRx={2} zf={0} dest=1", "index set '{0}' has an index below 1"),
        ("block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=0", "dest index 0 outside 1..4"),
        ("block=1 file=5 tx={1,2} cachedRx={2} zf={3} dest=1", "file index 5 outside 1..4"),
        ("block=1 file=1 tx={1,7} cachedRx={2} zf={3} dest=1", "tx index 7 outside 1..4"),
        ("block=1 file=1 tx={1,2} cachedRx={2,5} zf={3} dest=1", "cachedRx index 5 outside 1..4"),
        ("block=1 file=1 tx={1,2} cachedRx={2} zf={3,6} dest=1", "zf index 6 outside 1..4"),
    ],
    ids=["dest9", "zf0", "dest0", "file5", "tx7", "cachedRx5", "zf6"],
)
def test_verify_out_of_range_index_exits_2(tmp_path, edited, message):
    run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", cwd=tmp_path,
    )
    text = (tmp_path / "plan.txt").read_text()
    original = "block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1"
    assert original in text
    (tmp_path / "bad.txt").write_text(text.replace(original, edited))
    r = run_cli(
        "verify", "--plan-file", "bad.txt", "--kt", "4", "--kr", "4", "--n", "4",
        "--mt", "2", "--mr", "1", "--channel-seeds", "2", cwd=tmp_path,
    )
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_verify_off_pattern_plan_warns_but_passes(tmp_path):
    run_cli(
        "plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
        "--out", "plan.txt", cwd=tmp_path,
    )
    text = (tmp_path / "plan.txt").read_text()
    literal = text.replace(
        "block=1 file=4 tx={1,4} cachedRx={1} zf={2} dest=4",
        "block=1 file=4 tx={1,4} cachedRx={1} zf={3} dest=4",
    )
    assert literal != text
    (tmp_path / "literal.txt").write_text(literal)
    r = run_cli(
        "verify", "--plan-file", "literal.txt", "--kt", "4", "--kr", "4", "--n", "4",
        "--mt", "2", "--mr", "1", "--channel-seeds", "2", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert "warning" in r.stdout and "non-uniform" in r.stdout


def test_decentralized_plan_and_verify(tmp_path):
    r = run_cli(
        "plan", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1",
        "--mode", "decentralized", "--file-bits", "300", "--out", "tiers.txt",
        "--verify", "--channel-seeds", "2", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert "decentralized-tier(0) sDoF=9/4" in r.stdout
    assert "decentralized-tier(1) sDoF=3" in r.stdout
    assert "decentralized-tier(2) sDoF=3" in r.stdout


def test_config_file_with_flag_override(tmp_path):
    (tmp_path / "run.cfg").write_text(
        "# 4x4 example\nkt=4\nkr=4\nn=4\nmt=2\nmr=0\n"
    )
    r = run_cli("sdof", "--config", "run.cfg", "--mr", "1", cwd=tmp_path)
    assert r.returncode == 0 and "proposed=24/7" in r.stdout
    r0 = run_cli("sdof", "--config", "run.cfg", cwd=tmp_path)
    assert r0.returncode == 0 and "proposed=3 " in r0.stdout


def test_unknown_config_key(tmp_path):
    (tmp_path / "run.cfg").write_text("kt=4\nbogus=1\n")
    r = run_cli("sdof", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2 and "unknown key" in r.stderr


def test_demand_flag():
    r = run_cli(
        "plan", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "0",
        "--demand", "3,1,2",
    )
    assert r.returncode == 0
    assert "block=1 file=3" in r.stdout


def test_oracle_ndt():
    r = run_cli("oracle-ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1")
    assert r.returncode == 0
    assert "oracle=62/81" in r.stdout and "tier t=2: 2/27" in r.stdout


def test_sweep_fig2(tmp_path):
    r = run_cli("sweep", "--figure", "fig2", cwd=tmp_path)
    assert r.returncode == 0
    csv = (tmp_path / "fig2.csv").read_text()
    assert csv.splitlines()[0] == "m_r,inv_sdof_proposed,inv_sdof_baseline"
    assert len(csv.splitlines()) == 6
    exact = (tmp_path / "fig2.csv.exact").read_text()
    assert "7/24" in exact


def test_sweep_fig4(tmp_path):
    r = run_cli("sweep", "--figure", "fig4", "--out", "f4.csv", cwd=tmp_path)
    assert r.returncode == 0
    exact = (tmp_path / "f4.csv.exact").read_text().splitlines()
    assert exact[0] == "m_r,ndt_decentralized,ndt_centralized"
    assert exact[2] == "1,62/81,2/3"


def test_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so no call may see what an earlier one parsed
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    (tmp_path / "run.cfg").write_text("kt=4\nkr=4\nn=4\nmt=2\nmr=0\n")
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    calls = [
        ["sdof", *net],
        ["ndt", *net, "--file-bits", "1000", "--seeds", "2"],
        ["sdof", "--config", "run.cfg", "--mr", "1"],
        ["sdof", "--config", "run.cfg"],
        ["sdof", "--kt", "4"],
        ["ndt", *net],
        ["oracle-ndt", *net, "--seeds", "2"],
        ["sdof", *net],
    ]
    codes = []
    for argv in calls:
        fresh = run_cli(*argv, cwd=tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # parser.error, as for the missing parameters
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    # the missing parameters and --seeds without --file-bits are usage errors
    assert codes == [0, 0, 0, 0, 2, 0, 2, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_verify_names_out_of_range_tx_past_the_first_entry_of_a_run(tmp_path, capsys, monkeypatch):
    # the plan's first four lines form one run (they differ only in tx); the bad set is its third
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "plan.txt"]) == 0
    text = (tmp_path / "plan.txt").read_text()
    original = "block=1 file=1 tx={1,4} cachedRx={2} zf={3} dest=1"
    assert text.splitlines()[3] == original
    (tmp_path / "bad.txt").write_text(text.replace(original, original.replace("{1,4}", "{1,7}")))
    capsys.readouterr()
    assert cli.main(["verify", *net, "--plan-file", "bad.txt", "--channel-seeds", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: block 1: tx index 7 outside 1..4 in W1[tx=17 rx=2]\n"


def test_plan_accounts_each_block_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    accounted = []
    account_block = delivery.account_block
    monkeypatch.setattr(
        delivery, "account_block", lambda cfg, block: accounted.append(block) or account_block(cfg, block)
    )
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "plan.txt"]) == 0
    assert len(accounted) == 3
    assert capsys.readouterr().out.endswith("centralized sDoF=24/7 (3.42857142857)\n")


def test_plan_verify_reuses_the_printed_ledgers(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    accounted = []
    account_block = delivery.account_block
    monkeypatch.setattr(
        delivery, "account_block", lambda cfg, block: accounted.append(block) or account_block(cfg, block)
    )
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "plan.txt", "--verify", "--channel-seeds", "1"]) == 0
    assert len(accounted) == 3
    assert ", 0 violations;" in capsys.readouterr().out
