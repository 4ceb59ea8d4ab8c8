from __future__ import annotations

import io
import subprocess
import sys
import tracemalloc

import pytest

from cachenet import cli, delivery, metrics, placement
from cachenet.model import NetworkConfig
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
    # plans follow from the configuration and the mode; only `plan --show` prints a placement, so only it lists one
    listed = []
    original = placement.CentralizedPlacement.export_text

    def export_text(self):
        listed.append(self.cfg)
        return original(self)

    monkeypatch.setattr(placement.CentralizedPlacement, "export_text", export_text)
    monkeypatch.setattr(cli, "place_decentralized", lambda *args: pytest.fail("decentralized placement drawn"))
    argv = ["plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1", "--verify", "--channel-seeds", "1"]
    assert cli.main(argv + ["--show"] * show) == 0
    assert listed == [NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)] * show


def test_decentralized_plan_and_verify_draw_no_placement(tmp_path, monkeypatch, capsys):
    # the tier plans and their checks need only the mode; no N x F placement is drawn without --show
    monkeypatch.chdir(tmp_path)
    for module in (cli, metrics, placement):
        for name in ("place_centralized", "place_decentralized"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", "300"]
    runs = []
    for flags in (net, net[:-2]):
        assert cli.main(["plan", *flags, "--mode", "decentralized", "--out", "tiers.txt"]) == 0
        text = (tmp_path / "tiers.txt").read_text()
        assert cli.main(["verify", *flags, "--plan-file", "tiers.txt", "--channel-seeds", "1"]) == 0
        runs.append((capsys.readouterr(), text))
    out = runs[0][0].out
    assert "wrote tiers.txt (36 scheduled subfiles)" in out
    assert "completeness: complete: 36 scheduled transmissions" in out and ", 0 violations;" in out
    # nothing but --seeds and a decentralized plan --show reads --file-bits, so both commands run the same without it
    assert runs[1] == runs[0]


def test_decentralized_plan_show_needs_file_bits(tmp_path, monkeypatch, capsys):
    # the listing draws a finite placement; without a file size it is refused before any output
    monkeypatch.chdir(tmp_path)
    argv = ["plan", *NET33[:-2], "--mode", "decentralized", "--show"]
    for out in ([], ["--out", "tiers.txt"]):
        assert cli.main([*argv, *out]) == 2
        assert capsys.readouterr() == ("", "error: plan --show of a decentralized placement needs --file-bits\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_reads_tier_plans_from_stdin(tmp_path, monkeypatch, capsys):
    # without --plan-file the plan text comes from stdin; its tier headers split it and set the mode
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", "300"]
    assert cli.main(["plan", *net, "--mode", "decentralized", "--out", "tiers.txt"]) == 0
    checked = []
    verify_completeness = cli.verify_completeness

    def spy(cfg, plans, mode, demand):
        checked.append(([p.mode for p in plans], mode))
        return verify_completeness(cfg, plans, mode, demand)

    monkeypatch.setattr(cli, "verify_completeness", spy)
    monkeypatch.setattr(sys, "stdin", io.StringIO((tmp_path / "tiers.txt").read_text()))
    capsys.readouterr()
    assert cli.main(["verify", *net, "--channel-seeds", "1"]) == 0
    tiers = [f"decentralized-tier({t})" for t in range(3)]
    assert checked == [(tiers, "decentralized")]
    assert "completeness: complete: 36 scheduled transmissions" in capsys.readouterr().out


def test_verify_rejects_a_mode_that_contradicts_the_plan_headers(tmp_path, monkeypatch, capsys):
    # the `# mode=` headers decide; an explicit mode from the flag or a config file must agree with them
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", "300"]
    assert cli.main(["plan", *net, "--mode", "decentralized", "--out", "tiers.txt"]) == 0
    assert cli.main(["plan", *net, "--out", "central.txt"]) == 0
    (tmp_path / "central.cfg").write_text("mode=centralized\n")
    for plan_file, flags, explicit, headers in (
        ("tiers.txt", ["--mode", "centralized"], "centralized", "decentralized"),
        ("tiers.txt", ["--config", "central.cfg"], "centralized", "decentralized"),
        ("central.txt", ["--mode", "decentralized"], "decentralized", "centralized"),
    ):
        capsys.readouterr()
        assert cli.main(["verify", *net, "--plan-file", plan_file, "--channel-seeds", "1", *flags]) == 2
        out, err = capsys.readouterr()
        assert "completeness:" not in out
        assert err == f"error: mode {explicit} contradicts the plan file's {headers} mode headers\n"
    # a matching mode, or none, still verifies the tiers
    for flags in (["--mode", "decentralized"], []):
        capsys.readouterr()
        assert cli.main(["verify", *net, "--plan-file", "tiers.txt", "--channel-seeds", "1", *flags]) == 0
        assert "completeness: complete: 36 scheduled transmissions" in capsys.readouterr().out
    # a headerless file takes the flag's mode, or centralized
    headerless = "".join(ln for ln in (tmp_path / "central.txt").read_text().splitlines(True) if not ln.startswith("#"))
    (tmp_path / "headerless.txt").write_text(headerless)
    for flags, code in (([], 0), (["--mode", "centralized"], 0), (["--mode", "decentralized"], 1)):
        assert cli.main(["verify", *net, "--plan-file", "headerless.txt", "--channel-seeds", "1", *flags]) == code


NET33 = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", "300"]


def test_commands_that_draw_no_placement_ignore_the_file_length(tmp_path, monkeypatch, capsys):
    # F is checked only where a placement is drawn; an unread --file-bits 0 is like any other unread value
    monkeypatch.chdir(tmp_path)
    assert cli.main(["plan", *NET33[:-2], "--mode", "decentralized", "--out", "tiers.txt"]) == 0
    for argv in (
        ["oracle-ndt", *NET33[:-2]],
        ["verify", *NET33[:-2], "--plan-file", "tiers.txt", "--channel-seeds", "0"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 0
        unset = capsys.readouterr()
        assert cli.main([*argv, "--file-bits", "0"]) == 0
        assert capsys.readouterr() == unset and unset.err == ""


BAD_FILE_LENGTHS = [
    ["ndt", *NET33[:-2], "--file-bits", "0", "--seeds", "2"],
    ["ndt", *NET33[:-2], "--file-bits", "-5", "--seeds", "2"],
    ["plan", *NET33[:-2], "--mode", "decentralized", "--show", "--file-bits", "0"],
    ["plan", *NET33[:-2], "--mode", "decentralized", "--show", "--file-bits", "0", "--out", "tiers.txt"],
    ["ndt", "--config", "f.cfg", "--seeds", "2"],
]


@pytest.mark.parametrize(
    "argv", BAD_FILE_LENGTHS, ids=["ndt-zero", "ndt-negative", "plan-show", "plan-show-out", "ndt-config"]
)
def test_a_bad_file_length_exits_2_where_a_placement_is_drawn(argv, tmp_path, monkeypatch, capsys):
    # the draw refuses F before any output, so neither stdout nor an --out file is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.cfg").write_text("kt=3\nkr=3\nn=3\nmt=2\nmr=1\nfile_bits=0\n")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: file_bits must be a positive integer\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f.cfg"]


@pytest.mark.parametrize("command", ["ndt", "oracle-ndt"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--file-bits", "0", "--seeds", "2"], "file_bits must be a positive integer"),
        (["--seeds", "2"], "--seeds needs --file-bits for finite-size runs"),
    ],
    ids=["zero", "unset"],
)
def test_a_bad_file_length_is_refused_before_any_exact_work(command, flags, message, monkeypatch, capsys):
    # neither the exact report, nor the oracle, nor the Monte-Carlo run's tier plans are built first
    for module, name in ((cli, "ndt_report"), (cli, "ndt_oracle"), (metrics, "build_decentralized_plan")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert cli.main([command, *NET33[:-2], *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def tier_plan_lines(tmp_path) -> list[str]:
    """The lines of the 3x3 decentralized plan file: tier-0, tier-1 and tier-2 headers at lines 1, 11 and 30."""
    assert cli.main(["plan", *NET33, "--mode", "decentralized", "--out", str(tmp_path / "tiers.txt")]) == 0
    lines = (tmp_path / "tiers.txt").read_text().splitlines(True)
    assert [i for i, ln in enumerate(lines, 1) if ln.startswith("#")] == [1, 11, 30]
    return lines


def verify_edited(tmp_path, capsys, lines, *flags) -> tuple[int, str, str]:
    (tmp_path / "edited.txt").write_text("".join(lines))
    capsys.readouterr()
    code = cli.main(["verify", *NET33, "--plan-file", str(tmp_path / "edited.txt"), "--channel-seeds", "1", *flags])
    return (code, *capsys.readouterr())


def test_verify_rejects_entries_before_the_first_header(tmp_path, capsys):
    # without the tier-0 header, tier 0's entries would join tier 1's plan and verify
    lines = tier_plan_lines(tmp_path)
    assert verify_edited(tmp_path, capsys, lines[1:]) == (
        2, "", "error: line 1: plan entry before the first '# mode=' header\n"
    )


@pytest.mark.parametrize(
    "decentralized,header,flags",
    [
        (True, "decentralized-tier(7)", []),
        (True, "decentralized-tier(3)", []),
        (False, "cntralized", []),
        (False, "cntralized", ["--mode", "centralized"]),
        # a headerless file parses as one plan of mode None, so no header text stands for it
        (False, "unknown", []),
    ],
    ids=["tier-7", "tier-kr", "misspelt", "misspelt-with-mode", "unknown"],
)
def test_verify_rejects_an_unknown_plan_header(tmp_path, capsys, decentralized, header, flags):
    # a header is centralized or decentralized-tier(t) with 0 <= t < K_R; any other is named
    if decentralized:
        lines = tier_plan_lines(tmp_path)
        lines[10] = f"# mode={header}\n"
    else:
        assert cli.main(["plan", *NET33, "--out", str(tmp_path / "central.txt")]) == 0
        lines = (tmp_path / "central.txt").read_text().splitlines(True)
        lines[0] = f"# mode={header}\n"
    assert verify_edited(tmp_path, capsys, lines, *flags) == (
        2,
        "",
        f"error: plan header '# mode={header}' is neither centralized nor decentralized-tier(t) with 0 <= t < 3\n",
    )


def test_verify_rejects_a_centralized_header_in_a_decentralized_file(tmp_path, capsys):
    # a file holds one centralized plan or tier plans, never both
    lines = tier_plan_lines(tmp_path)
    assert verify_edited(tmp_path, capsys, [*lines, "# mode=centralized\n"]) == (
        2, "", "error: plan header '# mode=centralized' mixes centralized and decentralized plans in one file\n"
    )


def test_verify_rejects_a_repeated_tier_header(tmp_path, capsys):
    # two sections claiming tier 0 would be checked as two tier-0 plans
    lines = tier_plan_lines(tmp_path)
    assert verify_edited(tmp_path, capsys, ["# mode=decentralized-tier(0)\n", *lines]) == (
        2, "", "error: plan header '# mode=decentralized-tier(0)' repeats an earlier header\n"
    )


def test_verify_rejects_a_run_in_the_wrong_tier(tmp_path, capsys):
    # swap a tier-1 entry with a tier-2 entry: completeness holds, but each plan holds a run of the other tier
    lines = tier_plan_lines(tmp_path)
    tier1 = lines.index("block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1\n")
    tier2 = lines.index("block=1 file=1 tx={1,2} cachedRx={2,3} zf={} dest=1\n")
    lines[tier1], lines[tier2] = lines[tier2], lines[tier1]
    assert verify_edited(tmp_path, capsys, lines) == (
        1,
        "malformed plan: block 1: W1[tx=12 rx=23] cached at 2 receiver(s) in the decentralized-tier(1) plan\n",
        "",
    )
    # the untouched file still verifies
    assert verify_edited(tmp_path, capsys, tier_plan_lines(tmp_path))[0] == 0


def test_verify_checks_rule_7_on_every_plan_before_rule_8(tmp_path, capsys):
    # line 2 (tier 0) holds a tier-1 run, which breaks rule 8; line 8, later in the same plan, a run
    # zero-forced at two receivers by two transmitters, which breaks rule 7 and is named first
    lines = tier_plan_lines(tmp_path)
    lines[1] = "block=1 file=1 tx={1,2} cachedRx={3} zf={2} dest=1\n"
    lines[7] = "block=1 file=3 tx={1,2} cachedRx={} zf={1,2} dest=3\n"
    assert verify_edited(tmp_path, capsys, lines) == (
        1, "malformed plan: block 1: W3[tx=12 rx=-] zero-forced at 2 receiver(s) by 2 transmitter(s)\n", ""
    )


def test_ndt_and_oracle_ndt_print_the_same_monte_carlo_line(capsys):
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--seeds", "2", "--file-bits", "300"]
    lines = []
    for command in ("ndt", "oracle-ndt"):
        assert cli.main([command, *net]) == 0
        lines.append([ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("mc=")])
    assert lines[0] == lines[1] and len(lines[0]) == 1


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
    assert r.returncode == 1
    assert r.stdout == "malformed plan: W1[tx=12 rx=2] zero-forced at its destination or at a caching receiver\n"


def test_verify_reports_the_first_malformed_label_past_a_clean_block(tmp_path, monkeypatch, capsys):
    # block 1 is clean; block 2 zero-forces at its destination and block 3 delivers to a caching receiver
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text(
        "# mode=centralized\n"
        "block=1 file=1 tx={1,2} cachedRx={2} zf={3} dest=1\n"
        "block=2 file=1 tx={1,3} cachedRx={3} zf={1} dest=1\n"
        "block=3 file=1 tx={1,2} cachedRx={1} zf={2} dest=1\n"
    )
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["verify", *net, "--plan-file", "bad.txt", "--channel-seeds", "1"]) == 1
    assert capsys.readouterr() == (
        "malformed plan: W1[tx=13 rx=3] zero-forced at its destination or at a caching receiver\n", ""
    )


@pytest.mark.parametrize(
    "net,original,edited,message",
    [
        # t_T = 1: a single transmitter cannot null its signal at a receiver
        (
            ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "1", "--mr", "1"],
            "cachedRx={2} zf={} dest=1",
            "cachedRx={2} zf={3} dest=1",
            "block 1: W1[tx=1 rx=2] zero-forced at 1 receiver(s) by 1 transmitter(s)",
        ),
        # the third tx set of block 1's first run loses a transmitter
        (
            ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"],
            "tx={1,4} cachedRx={2} zf={3} dest=1",
            "tx={4} cachedRx={2} zf={3} dest=1",
            "block 1: W1[tx=4 rx=2] zero-forced at 1 receiver(s) by 1 transmitter(s)",
        ),
    ],
    ids=["3x3-t1", "4x4-mid-run"],
)
def test_verify_zf_infeasible_plan_is_malformed(net, original, edited, message, tmp_path, capsys, monkeypatch):
    # m ZF targets need m+1 transmitters; the plan is rejected before any channel is checked
    from cachenet import phy

    monkeypatch.chdir(tmp_path)
    assert cli.main(["plan", *net, "--out", "plan.txt"]) == 0
    text = (tmp_path / "plan.txt").read_text()
    assert original in text
    (tmp_path / "bad.txt").write_text(text.replace(original, edited))
    monkeypatch.setattr(phy, "verify_plan_phy", lambda *args, **kwargs: pytest.fail("channels checked"))
    capsys.readouterr()
    assert cli.main(["verify", *net, "--plan-file", "bad.txt"]) == 1
    assert capsys.readouterr() == (f"malformed plan: {message}\n", "")


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    # the plan text (about 230 kB) outgrows the pipe buffer, so the writer meets the closed pipe
    argv = ["plan", "--kt", "8", "--kr", "8", "--n", "8", "--mt", "4", "--mr", "1"]
    proc = subprocess.Popen(
        BASE + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cachenet_env()
    )
    assert proc.stdout.readline() == "# mode=centralized\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


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


@pytest.mark.parametrize(
    "edited,message",
    [
        ("tx={1,2} cachedRx={2,,3} zf={3} dest=1", "line 2: malformed index set '{2,,3}'"),
        ("tx={1,2,1} cachedRx={2} zf={3} dest=1", "line 2: index set '{1,2,1}' repeats an index"),
    ],
    ids=["empty-entry", "repeat"],
)
def test_verify_bad_index_set_exits_2_naming_the_line(tmp_path, monkeypatch, capsys, edited, message):
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "plan.txt"]) == 0
    text = (tmp_path / "plan.txt").read_text()
    original = "tx={1,2} cachedRx={2} zf={3} dest=1"
    assert text.splitlines()[1].endswith(original)
    (tmp_path / "bad.txt").write_text(text.replace(original, edited, 1))
    capsys.readouterr()
    assert cli.main(["verify", *net, "--plan-file", "bad.txt"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_verify_names_the_non_uniform_block_by_its_position(tmp_path, monkeypatch, capsys):
    # with block 2 gone and block 3 cut short, the warning and the ledger lines name block 3, not the 2nd block read
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "q.txt"]) == 0
    no_block_2 = [ln for ln in (tmp_path / "q.txt").read_text().splitlines(True) if not ln.startswith("block=2 ")]
    lines = list(no_block_2)
    del lines[next(i for i, ln in enumerate(lines) if ln.startswith("block=3 "))]
    (tmp_path / "gapped.txt").write_text("".join(lines))
    capsys.readouterr()
    assert cli.main(["verify", *net, "--plan-file", "gapped.txt", "--channel-seeds", "1"]) == 1
    warnings = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("warning:")]
    assert warnings == [
        "warning: centralized block=3 has a non-uniform ledger; "
        "accepted, but the schedule is not the rotation-generated one"
    ]
    [plan] = delivery.parse_plans("".join(no_block_2))
    cli._print_ledgers(NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1), plan)
    ledger_blocks = [ln.split()[2] for ln in capsys.readouterr().out.splitlines() if ln.startswith("ledger ")]
    assert ledger_blocks == ["block=1:", "block=3:"]


def test_verify_ignores_a_comment_that_mentions_mode(tmp_path, monkeypatch, capsys):
    # only a comment whose text starts with mode= is a plan header; a note quoting one splits nothing
    monkeypatch.chdir(tmp_path)
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1"]
    assert cli.main(["plan", *net, "--out", "p.txt"]) == 0
    lines = (tmp_path / "p.txt").read_text().splitlines(True)
    for note in ("# hand-edited: was mode=decentralized-tier(1) before, see notes\n", "# checked by hand\n"):
        (tmp_path / "noted.txt").write_text("".join(lines[:6] + [note] + lines[6:]))
        capsys.readouterr()
        assert cli.main(["verify", *net, "--plan-file", "noted.txt", "--channel-seeds", "1"]) == 0
        assert "completeness: complete: 18 scheduled transmissions" in capsys.readouterr().out


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


BAD_CONFIG_VALUES = [
    ("seed=-5", "--seed", "4"),
    ("kt=x", "--kt", "4"),
    ("file_bits=abc", "--file-bits", "4"),
    ("mt=abc", "--mt", "2"),
    ("mr=1/0", "--mr", "1"),
    ("demand=x", "--demand", "1,2,3,4"),
]


@pytest.mark.parametrize(
    "line,flag,value", BAD_CONFIG_VALUES, ids=[f"{line}-{flag}" for line, flag, _ in BAD_CONFIG_VALUES]
)
def test_bad_config_values_exit_2_naming_the_file_and_key(line, flag, value, tmp_path, monkeypatch, capsys):
    # a config-file value gets its flag's type; a rejected one names the file and its key=value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"kt=4\nkr=4\nn=4\nmt=2\nmr=1\n{line}\n")
    assert cli.main(["ndt", "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err == f"error: run.cfg: invalid value in {line}\n"
    # a flag wins over the file, so the bad value is never read
    assert cli.main(["ndt", "--config", "run.cfg", flag, value]) == 0


def test_misspelt_config_mode_exits_2_and_writes_no_plan(tmp_path, monkeypatch, capsys):
    # a config-file mode gets the --mode choices; before, any mode but "centralized" ran decentralized
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("kt=3\nkr=3\nn=3\nmt=2\nmr=1\nmode=centralised\nfile_bits=300\n")
    assert cli.main(["plan", "--config", "run.cfg", "--out", "plan.txt"]) == 2
    assert capsys.readouterr().err == "error: run.cfg: invalid value in mode=centralised\n"
    assert not (tmp_path / "plan.txt").exists()
    assert cli.main(["plan", "--config", "run.cfg", "--mode", "centralized", "--out", "plan.txt"]) == 0
    assert (tmp_path / "plan.txt").read_text().startswith("# mode=centralized\n")


UNREAD_FLAGS = [
    ("sdof", "--file-bits", "5"),
    ("sdof", "--seed", "3"),
    ("sdof", "--demand", "1,2,3,4"),
    ("sweep", "--mr", "2"),
    ("sweep", "--file-bits", "5"),
    ("sweep", "--seed", "3"),
    ("sweep", "--demand", "1,2,3"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS, ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_commands_refuse_flags_they_do_not_read(command, flag, value, tmp_path, monkeypatch, capsys):
    # sdof is a worst-case F -> infinity value and sweep sets M_R itself, so neither takes a run flag or sweep --mr
    monkeypatch.chdir(tmp_path)
    argv = [command, *NET44] if command == "sdof" else [command, "--figure", "fig4"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: unrecognized arguments: {flag} {value}\n" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_keys_a_command_does_not_read_are_ignored(tmp_path, monkeypatch, capsys):
    # one config file serves every command: sdof and sweep skip the keys of flags they do not take
    monkeypatch.chdir(tmp_path)
    network = "kt=4\nkr=4\nn=4\nmt=2\nmr=1\n"
    (tmp_path / "net.cfg").write_text(network)
    (tmp_path / "run.cfg").write_text(network + "file_bits=300\nseed=3\ndemand=1,2,3,4\nmode=decentralized\n")
    outputs = []
    for config in ("net.cfg", "run.cfg"):
        assert cli.main(["sdof", "--config", config]) == 0
        assert cli.main(["sweep", "--config", config, "--figure", "fig4", "--out", "f4.csv"]) == 0
        csvs = [(tmp_path / name).read_text() for name in ("f4.csv", "f4.csv.exact")]
        outputs.append((capsys.readouterr(), csvs))
    assert outputs[1] == outputs[0]
    assert outputs[0][0].out.startswith("proposed=24/7 ")


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


NET44 = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["plan", "--verify", "--channel-seeds", "-2"], "--channel-seeds"),
        (["verify", "--channel-seeds", "-2"], "--channel-seeds"),
        (["plan", "--seed", "-5"], "--seed"),
        (["ndt", "--file-bits", "100", "--seeds", "-1"], "--seeds"),
        (["oracle-ndt", "--file-bits", "100", "--seeds", "2", "--seed", "-1"], "--seed"),
        # NaN fails every comparison and inf or values >= 1 accept any leak; <= 0 flags every ZF target
        *((["plan", "--verify", "--tol", tol], "--tol") for tol in ("nan", "inf", "1", "2", "0", "-1")),
        (["verify", "--tol", "nan"], "--tol"),
        # a zero denominator is a bad value like any other, not a ZeroDivisionError traceback
        (["sdof", "--mt", "1/0"], "--mt"),
        (["ndt", "--mr", "1/0"], "--mr"),
        (["sdof", "--mt", "abc"], "--mt"),
        (["plan", "--demand", "x"], "--demand"),
    ],
)
def test_out_of_range_flag_values_exit_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *NET44])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


def test_in_range_counts_and_tolerance_are_accepted(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["plan", "--verify", "--channel-seeds", "0", "--seed", "0", "--tol", "0.5", *NET44]) == 0
    assert "0 transmissions checked over 0 channels" in capsys.readouterr().out


def test_sdof_at_a_non_integral_corner_names_the_corner_rule():
    # metrics applies placement's corner rule, so sdof prints its text
    r = run_cli("sdof", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "3/2", "--mr", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        "error: centralized placement needs integral replication factors, got t_T=3/2, t_R=1; "
        "use memory-sharing between integral corners\n"
    )


NET_34 = ["--kt", "34", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]


@pytest.mark.parametrize("argv", [["plan", *NET_34, "--verify"], ["ndt", *NET_34]], ids=["plan-verify", "ndt"])
def test_a_transmitter_partition_past_the_bound_exits_2_before_any_set_is_built(argv, monkeypatch, capsys):
    # t_T = 17 of 34 transmitters asks for C(34,17) = 2,333,606,220 sets; the count is refused, not built
    original = placement.subsets

    def spy(ground, size):
        assert ground < 34, "the transmitter family was built"
        return original(ground, size)

    for module in (placement, delivery):
        monkeypatch.setattr(module, "subsets", spy)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: C(34,17) = 2333606220 transmitter sets exceed the bound of 1000000\n"
    assert peak < 2**24


NET_30 = ["--kt", "2", "--kr", "30", "--n", "30", "--mt", "15"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle-ndt", *NET_30, "--mr", "1"], "30 x 2^29 = 16106127360 tier-plan runs"),
        (["plan", *NET_30, "--mr", "15"], "30 x C(29,15) = 2326762800 runs"),
    ],
    ids=["tiers", "centralized"],
)
def test_a_plan_past_the_run_bound_exits_2_before_any_block_is_built(argv, message, monkeypatch, capsys):
    # 30 receivers: the runs of all tiers, or of the t_R = 15 centralized plan, are counted, not built
    original = delivery.subsets

    def spy(ground, size):
        assert ground < 29, "a rotation block was built"
        return original(ground, size)

    monkeypatch.setattr(delivery, "subsets", spy)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message} exceed the bound of 1000000\n"


@pytest.mark.parametrize("bound,code", [(12, 0), (11, 2)])
def test_the_run_bound_admits_a_plan_that_meets_it(bound, code, monkeypatch, capsys):
    # the 3x3 tier plans hold 3 x 2^2 = 12 runs
    monkeypatch.setattr(delivery, "MAX_RUNS", bound)
    assert cli.main(["oracle-ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "1", "--mr", "1"]) == code
    refused = "error: 3 x 2^2 = 12 tier-plan runs exceed the bound of 11\n"
    assert capsys.readouterr().err == ("" if code == 0 else refused)


@pytest.mark.parametrize(
    "net,demand,message",
    [
        (NET44, "0,1,2,3", "demanded file 0 outside 1..4"),
        (NET44, "1,2,3,9", "demanded file 9 outside 1..4"),
        (["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1"], "1,2,4", "demanded file 4 outside 1..3"),
    ],
)
@pytest.mark.parametrize("command", ["ndt", "plan", "verify"])
def test_a_demand_outside_the_library_names_the_typed_file_number(
    command, net, demand, message, tmp_path, monkeypatch, capsys
):
    # the message names the 1-based number given by --demand or a config file's demand=, not the 0-based index
    monkeypatch.chdir(tmp_path)
    assert cli.main(["plan", *net, "--out", "plan.txt"]) == 0
    capsys.readouterr()
    extra = ["--plan-file", "plan.txt"] if command == "verify" else []
    (tmp_path / "run.cfg").write_text(f"demand={demand}\n")
    for source in (["--demand", demand], ["--config", "run.cfg"]):
        assert cli.main([command, *net, *extra, *source]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ndt", "--seeds", "1"],
        ["plan", "--mode", "decentralized", "--show"],
        ["plan", "--mode", "decentralized", "--show", "--out", "p.txt"],
    ],
    ids=["ndt", "plan-show", "plan-show-out"],
)
def test_impossible_file_length_exits_2_with_one_error_line(argv, tmp_path):
    # 3 x 10^15 one-byte receiver codes: numpy refuses the allocation before touching any memory
    net = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1", "--file-bits", str(10**15)]
    r = run_cli(*argv, *net, cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    if argv[0] == "plan":
        # the placement is drawn before the plan is written, so a refused one leaves no output
        assert r.stdout == ""
        assert not (tmp_path / "p.txt").exists()
