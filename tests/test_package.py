"""The package namespace, and which commands import numpy."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import cachenet
from conftest import cachenet_env

# every name the package namespace offers, by the submodule that defines it
EXPORTS = {
    "delivery": (
        "DeliveryPlan", "Run", "SubspaceLedger", "account_block", "build_centralized_plan",
        "build_decentralized_plan", "parse_plans", "plan_sdof", "serialize_plan",
        "verify_completeness",
    ),
    "metrics": (
        "mc_ndt", "memory_share", "ndt_centralized", "ndt_closed_form", "ndt_oracle", "ndt_report",
        "sdof_achievable", "sdof_baseline", "sweep_figure",
    ),
    "model": ("ConfigurationError", "DemandVector", "NetworkConfig", "SubfileId", "binomial", "subsets"),
    "phy": ("GenericityError", "verify_plan_phy"),
    "placement": (
        "CentralizedPlacement", "DecentralizedPlacement", "place_centralized",
        "place_decentralized", "subset_profile",
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_names_are_the_submodules_objects(module):
    sub = importlib.import_module(f"cachenet.{module}")
    for name in EXPORTS[module]:
        assert getattr(cachenet, name) is getattr(sub, name), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'sample_channels'"):
        cachenet.sample_channels
    with pytest.raises(ImportError):
        from cachenet import sample_channels  # noqa: F401
    # names the library no longer offers: one channel-draw path, one tier-plan builder, listings only in
    # export_text, one tier sum for both delivery times, and the sdof line printed from the two sDoF values
    gone = ("sample_channel", "ChannelMatrix", "build_tier_plan", "subfile_class_count", "expected_fraction", "sdof_report")
    for name in gone:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(cachenet, name)


# Runs `cli.main` on each argv in turn, in one interpreter, and prints after
# each whether numpy is loaded; the first entry is after the imports alone.
NUMPY_PROBE = """
import contextlib, io, json, sys
import cachenet, cachenet.cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cachenet.cli.main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""

NET = ["--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1"]
DECENTRALIZED = ["--mode", "decentralized", "--file-bits", "300"]


def numpy_loaded_after(argvs, cwd):
    r = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, cwd=cwd, env=cachenet_env(),
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_exact_commands_never_load_numpy(tmp_path):
    argvs = [
        ["sdof", *NET],
        ["ndt", *NET],
        ["oracle-ndt", *NET],
        ["plan", *NET, "--out", "p.txt"],
        ["plan", *NET, "--show"],
        ["plan", *NET, "--verify", "--channel-seeds", "0"],
        ["verify", *NET, "--plan-file", "p.txt", "--channel-seeds", "0"],
        ["plan", *NET, *DECENTRALIZED, "--out", "tiers.txt"],
        ["sweep", "--figure", "fig2", "--out", "fig2.csv"],
        ["sweep", "--figure", "fig4", "--out", "fig4.csv"],
    ]
    assert numpy_loaded_after(argvs, tmp_path) == [False] * (len(argvs) + 1)


@pytest.mark.parametrize(
    "argvs",
    [
        [["plan", *NET, "--verify", "--channel-seeds", "1"]],
        [["plan", *NET, "--out", "p.txt"], ["verify", *NET, "--plan-file", "p.txt", "--channel-seeds", "1"]],
        [["ndt", *NET, "--seeds", "2", "--file-bits", "300"]],
        [["plan", *NET, *DECENTRALIZED, "--show"]],
    ],
    ids=["plan-verify", "verify", "ndt-seeds", "decentralized-plan-show"],
)
def test_sampling_and_verifying_commands_load_numpy(argvs, tmp_path):
    # positive controls: the probe sees numpy once a command draws or checks a channel
    loaded = numpy_loaded_after(argvs, tmp_path)
    assert loaded == [False] * len(argvs) + [True]
