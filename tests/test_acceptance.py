"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines as they print).  Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cachenet.delivery import (
    account_plan,
    build_centralized_plan,
    build_decentralized_plan,
    plan_sdof,
    verify_completeness,
)
from cachenet.metrics import (
    mc_ndt,
    ndt_closed_form,
    ndt_oracle,
    ndt_report,
    sdof_achievable,
    sdof_report,
    sweep_figure,
)
from cachenet.model import DemandVector, NetworkConfig, binomial
from cachenet.phy import _draw, _layout, _minors
from cachenet.placement import place_centralized, place_decentralized, subset_profile
from conftest import cachenet_env
from per_entry import by_receiver_code, classify_block, decentralized_mask, entries, mask_profile, minor


def _pass(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def cfg_4x4():
    return NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)


def cfg_3x3():
    return NetworkConfig(k_t=3, k_r=3, n_files=3, m_t=2, m_r=1)


def test_criterion_1_centralized_4x4_example():
    start = time.perf_counter()
    cfg = cfg_4x4()
    placement = place_centralized(cfg)
    demand = DemandVector.worst_case(cfg)
    plan = build_centralized_plan(cfg, placement, demand)
    assert len(plan.blocks) == 3
    for ledger in account_plan(cfg, plan):
        assert all(r.dof == Fraction(6, 7) for r in ledger.receivers)
    sdof = plan_sdof(cfg, plan)
    assert sdof == Fraction(24, 7)
    assert sdof == sdof_achievable(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"3 blocks, per-user DoF 6/7, sDoF 24/7 == closed form ({elapsed:.3f}s)")


def test_criterion_2_sdof_spot_checks():
    assert sdof_achievable(cfg_4x4()) == Fraction(24, 7)
    assert sdof_achievable(NetworkConfig(k_t=3, k_r=3, n_files=3, m_t=2, m_r=0)) == Fraction(9, 4)
    for m_r in (2, 3, 4):
        cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=m_r)
        assert sdof_achievable(cfg) == Fraction(4)
        assert sdof_report(cfg).capped
    _pass(2, "24/7, 9/4, and capped 4 all exact")


def test_criterion_3_figure2_corner_values():
    template = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=0)
    rows = sweep_figure(template, "fig2")
    proposed = [row[1] for row in rows]
    baseline = [row[2] for row in rows]
    assert proposed == [Fraction(1, 3), Fraction(7, 24), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)]
    assert baseline == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)]
    assert all(p <= b for p, b in zip(proposed, baseline))
    _pass(3, "1/sDoF corners exact and pointwise dominant")


def test_criterion_4_zf_verification_and_minor_match():
    # the weights verify_plan_phy uses: the plan's distinct precoders, gathered per channel
    start = time.perf_counter()
    cfg = cfg_4x4()
    placement = place_centralized(cfg)
    plan = build_centralized_plan(cfg, placement, DemandVector.worst_case(cfg))
    layout = _layout(plan.blocks, cfg.k_r, cfg.k_t)
    distinct, rows = layout.precoders, layout.rows
    records = list(zip(entries(plan), rows))
    checked = 0
    for seed in range(100):
        h = _draw(4, 4, seed, 4, frozenset())[0]  # every minor size checked
        weights, scales = distinct.weights(h, dict(enumerate(_minors(h), start=1)))
        for e, k in records:
            gains = h @ weights[:, k]
            gmax = np.max(np.abs(gains))
            for z in e.zf_targets:
                assert abs(gains[z]) < 1e-9 * gmax
            # two-transmitter gains are signed 2x2 minors of the channel
            target = next(iter(e.zf_targets))
            raw = gains * scales[k]
            for j in range(4):
                if j == target:
                    continue
                rows_removed = tuple(r for r in range(4) if r not in (j, target))
                cols_removed = tuple(c for c in range(4) if c not in e.subfile.tx_set)
                m = minor(h, rows_removed, cols_removed)
                assert min(abs(raw[j] - m), abs(raw[j] + m)) < 1e-12 * abs(m)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(4, f"{checked} precoded transmissions over 100 channels, nulls < 1e-9, minors < 1e-12 ({elapsed:.2f}s)")


def test_criterion_5_decentralized_3x3_example():
    cfg = cfg_3x3()
    # C(3,2) tx partitions x 2^3 caching receiver sets, every one populated at F = 10^5; summed over
    # the partitions, the per-bit classes are the placement's histogram by receiver code
    profile = mask_profile(cfg, decentralized_mask(cfg, 10**5, seed=0), 0)
    assert len(profile) == 24
    assert subset_profile(place_decentralized(cfg, 10**5, seed=0), 0) == by_receiver_code(profile, 3)
    demand = DemandVector.worst_case(cfg)
    tier_sdof = {t: plan_sdof(cfg, plan) for t, plan in enumerate(build_decentralized_plan(cfg, demand))}
    assert tier_sdof == {0: Fraction(9, 4), 1: Fraction(3), 2: Fraction(3)}
    oracle, _ = ndt_oracle(cfg, demand=demand)
    assert oracle == Fraction(62, 81)
    assert ndt_closed_form(cfg) == Fraction(62, 81)
    report = ndt_report(cfg, demand=demand)
    assert any("147/95" in f and "14/9" in f for f in report.flags)
    _pass(5, "24 classes, tier sDoF 9/4|3|3, NDT 62/81 both routes, inconsistent reported values flagged")


def test_criterion_6_monte_carlo_ndt():
    start = time.perf_counter()
    cfg = cfg_3x3()
    mc = mc_ndt(cfg, DemandVector.worst_case(cfg), 10**6, seeds=list(range(1, 21)))
    target = float(Fraction(62, 81))
    assert abs(mc.mean - target) <= 3 * mc.stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(6, f"mean {mc.mean:.6f} within 3*stderr ({mc.stderr:.2e}) of 62/81 ({elapsed:.1f}s)")


def test_criterion_7_completeness_grid():
    start = time.perf_counter()
    configs = 0
    for k_t, k_r in itertools.product((2, 3, 4), repeat=2):
        for t_t in range(1, k_t + 1):
            for t_r in range(0, k_r + 1):
                n = k_t * k_r
                cfg = NetworkConfig(
                    k_t=k_t,
                    k_r=k_r,
                    n_files=n,
                    m_t=Fraction(t_t * n, k_t),
                    m_r=Fraction(t_r * n, k_r),
                )
                placement = place_centralized(cfg)
                demand = DemandVector.worst_case(cfg)
                plan = build_centralized_plan(cfg, placement, demand)
                report = verify_completeness(cfg, [plan], "centralized", demand)
                assert report.complete, (k_t, k_r, t_t, t_r, report.summary())
                for block, ledger in zip(plan.blocks, account_plan(cfg, plan)):
                    classes = classify_block(cfg, entries(block))
                    for r, c in zip(ledger.receivers, classes, strict=True):
                        assert (r.desired, r.aligned_dims) == (c.desired, c.aligned_dims)
                        assert c.desired + c.zf_nulled + c.ic_cancelled + c.interfering == len(block)
                configs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(7, f"{configs} corner configurations complete with conserved ledgers ({elapsed:.2f}s)")


def _det_cofactor(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0
    for j in range(n):
        total += (-1) ** j * a[0, j] * _det_cofactor(np.delete(a[1:], j, axis=1))
    return complex(total)


def test_criterion_8_minor_against_cofactor_oracle():
    # each minor is read from the `_minors` table of its size, at the ranks of the kept rows and columns
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = int(rng.integers(0, n))
        rows = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        kept = [tuple(i for i in range(n) if i not in removed) for removed in (rows, cols)]
        ranks = [list(itertools.combinations(range(n), n - k)).index(keep) for keep in kept]
        got = list(_minors(a))[n - k - 1][tuple(ranks)]
        want = _det_cofactor(np.delete(np.delete(a, rows, axis=0), cols, axis=1))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300)
    _pass(8, "1000 random minors up to 5x5 match cofactor expansion < 1e-10")


CLI_CASES = [
    ["sdof", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"],
    ["ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1",
     "--file-bits", "30000", "--seeds", "3"],
    ["oracle-ndt", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1"],
    ["plan", "--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1",
     "--verify", "--channel-seeds", "3"],
    ["plan", "--kt", "3", "--kr", "3", "--n", "3", "--mt", "2", "--mr", "1",
     "--mode", "decentralized", "--file-bits", "300", "--out", "tiers.txt"],
    ["sweep", "--figure", "fig2"],
    ["sweep", "--figure", "fig4"],
]


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: c[0] + ("-" + c[1].lstrip("-") if len(c) > 1 else ""))
def test_criterion_9_cli_determinism(case, tmp_path):
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        r = subprocess.run(
            [sys.executable, "-m", "cachenet"] + case, capture_output=True, text=True, cwd=d,
            env=cachenet_env(),
        )
        assert r.returncode == 0, r.stderr
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        outputs.append((r.stdout, r.stderr, files))
    assert outputs[0] == outputs[1]
    _pass(9, f"`{' '.join(case[:2])}` rerun byte-identical (stdout and output files)")


def test_criterion_9_cli_determinism_verify(tmp_path):
    net = ["--kt", "4", "--kr", "4", "--n", "4", "--mt", "2", "--mr", "1"]
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        for cmd in (
            ["plan", *net, "--out", "plan.txt"],
            ["verify", *net, "--plan-file", "plan.txt", "--channel-seeds", "5"],
        ):
            r = subprocess.run(
                [sys.executable, "-m", "cachenet"] + cmd, capture_output=True, text=True, cwd=d,
                env=cachenet_env(),
            )
            assert r.returncode == 0, r.stderr
        outputs.append((r.stdout, (d / "plan.txt").read_bytes()))
    assert outputs[0] == outputs[1]
    _pass(9, "`verify` rerun byte-identical")
