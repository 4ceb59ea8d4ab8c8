from __future__ import annotations

import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import per_entry

from cachenet import placement
from cachenet.model import ConfigurationError, NetworkConfig, SubfileId, binomial, fmt_index_set, subsets
from cachenet.placement import (
    expected_fraction,
    place_centralized,
    place_decentralized,
    subset_profile,
    tx_partition,
)


def cfg44(**kw):
    return NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=kw.pop("m_r", 1), **kw)


def cfg33(**kw):
    defaults = dict(k_t=3, k_r=3, n_files=3, m_t=2, m_r=1)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestCentralized:
    def test_subfile_counts_4x4(self):
        tx_cache, _ = per_entry.exported_caches(place_centralized(cfg44()))
        assert len({s for subs in tx_cache.values() for s in subs if s.file == 0}) == 24
        assert per_entry.subfile_fraction(cfg44()) == Fraction(1, 24)

    def test_cache_shares_4x4(self):
        # each transmitter holds half, each receiver a quarter, of every file
        tx_cache, rx_cache = per_entry.exported_caches(place_centralized(cfg44()))
        for i in range(4):
            for f in range(4):
                held = [s for s in tx_cache[i] if s.file == f]
                assert len(held) == 12
        for j in range(4):
            for f in range(4):
                held = [s for s in rx_cache[j] if s.file == f]
                assert len(held) == 6

    def test_cache_budgets_exact(self):
        # fully utilized caches: total stored fraction equals M in file units
        for cfg in (cfg44(), cfg33(), cfg44(m_r=2)):
            tx_cache, rx_cache = per_entry.exported_caches(place_centralized(cfg))
            fraction = per_entry.subfile_fraction(cfg)
            for i, subs in tx_cache.items():
                assert len(subs) * fraction == cfg.m_t
            for j, subs in rx_cache.items():
                assert len(subs) * fraction == cfg.m_r

    def test_partition_property(self):
        tx_cache, _ = per_entry.exported_caches(place_centralized(cfg44()))
        expected = {
            SubfileId(f, frozenset(ts), frozenset(rs))
            for f in range(4)
            for ts in subsets(4, 2)
            for rs in subsets(4, 1)
        }
        seen = set()
        for subs in tx_cache.values():
            seen |= subs
        assert seen == expected  # disjoint by construction, union covers everything

    def test_membership_rule(self):
        tx_cache, rx_cache = per_entry.exported_caches(place_centralized(cfg33()))
        for i, subs in tx_cache.items():
            assert all(i in s.tx_set for s in subs)
        for j, subs in rx_cache.items():
            assert all(j in s.rx_set for s in subs)

    def test_zero_receiver_cache(self):
        cfg = NetworkConfig(k_t=3, k_r=3, n_files=3, m_t=2, m_r=0)
        tx_cache, rx_cache = per_entry.exported_caches(place_centralized(cfg))
        assert all(not s.rx_set for subs in tx_cache.values() for s in subs)
        assert sorted(rx_cache) == [0, 1, 2] and all(len(v) == 0 for v in rx_cache.values())

    def test_rejects_non_integral(self):
        cfg = NetworkConfig(k_t=3, k_r=3, n_files=4, m_t=2, m_r=1)
        with pytest.raises(ConfigurationError, match="memory-sharing"):
            place_centralized(cfg)

    def test_export_round_shape(self):
        text = place_centralized(cfg33()).export_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# centralized placement")
        assert len(lines) == 1 + 3 + 3

    def test_export_golden(self):
        cfg = NetworkConfig(k_t=2, k_r=2, n_files=2, m_t=1, m_r=1)
        assert place_centralized(cfg).export_text() == (
            "# centralized placement kt=2 kr=2 n=2\n"
            "tx 1: W1[tx=1 rx=1] W1[tx=1 rx=2] W2[tx=1 rx=1] W2[tx=1 rx=2]\n"
            "tx 2: W1[tx=2 rx=1] W1[tx=2 rx=2] W2[tx=2 rx=1] W2[tx=2 rx=2]\n"
            "rx 1: W1[tx=1 rx=1] W1[tx=2 rx=1] W2[tx=1 rx=1] W2[tx=2 rx=1]\n"
            "rx 2: W1[tx=1 rx=2] W1[tx=2 rx=2] W2[tx=1 rx=2] W2[tx=2 rx=2]\n"
        )


class TestDecentralized:
    def test_cached_bit_count(self):
        cfg = cfg33()
        pl = place_decentralized(cfg, 999, seed=5)
        per_file = math.floor(1 * 999 / 3)
        for j in range(3):
            for f in range(3):
                assert pl.cached_bits(j, f).size == per_file

    def test_determinism_and_seed_sensitivity(self):
        cfg = cfg33()
        a = place_decentralized(cfg, 3000, seed=9)
        b = place_decentralized(cfg, 3000, seed=9)
        c = place_decentralized(cfg, 3000, seed=10)
        assert np.array_equal(a.rx_mask, b.rx_mask)
        assert not np.array_equal(a.rx_mask, c.rx_mask)

    def test_full_cache(self):
        cfg = cfg33(m_r=3)
        pl = place_decentralized(cfg, 300, seed=1)
        assert pl.rx_mask.all()

    def test_last_partition_is_cut_at_the_file_length(self):
        pl = place_decentralized(cfg33(), 10, seed=1)  # 3 partitions of ceil(10/3) = 4 bits: 4, 4 and 2
        assert pl.file_bits == 10 == pl.rx_codes.shape[1] and pl.partition_size == 4
        assert sum(subset_profile(pl, 0)) == 10
        assert [pl.rx_codes[0, p * 4 : (p + 1) * 4].size for p in range(3)] == [4, 4, 2]

    def test_requires_file_bits(self):
        with pytest.raises(TypeError):
            place_decentralized(cfg33(), seed=1)

    @pytest.mark.parametrize("file_bits", [True, 0, -1, 2.5, "300"], ids=repr)
    def test_refuses_a_file_length_that_is_not_a_positive_int(self, file_bits):
        with pytest.raises(ConfigurationError, match="^file_bits must be a positive integer$"):
            place_decentralized(cfg33(), file_bits, 1)

    def test_export_lists_partitions_and_ranges(self):
        text = place_decentralized(cfg33(), 30, seed=2).export_text()
        assert "tx-partition {1,2}: bits 0-9" in text
        assert "rx 1 file 1:" in text

    @pytest.mark.parametrize(
        "file_bits,ranges", [(10, ["bits 0-3", "bits 4-7", "bits 8-9"]), (2, ["bits 0", "bits 1", "no bits"])]
    )
    def test_export_cuts_each_partition_at_the_file_length(self, file_bits, ranges):
        # ceil(F/3)-bit partitions: the listing names only bits the file has, as the per-bit reference counts them,
        # and prints a one-bit range as one index, as the receiver ranges do
        pl = place_decentralized(cfg33(), file_bits, seed=1)
        mask = per_entry.decentralized_mask(cfg33(), file_bits, seed=1)
        listed = {}
        for line in pl.export_text().splitlines():
            if line.startswith("tx-partition "):
                name, bits = line.removeprefix("tx-partition ").split(": ")
                first, dash, last = bits.removeprefix("bits ").partition("-")
                lo, hi = (int(first), int(last or first)) if bits != "no bits" else (0, -1)
                assert not dash or lo < hi, line
                listed[name] = (bits, hi - lo + 1)
        assert [bits for bits, _ in listed.values()] == ranges
        for f in range(3):
            profiled = Counter()
            for (ts, _), n in per_entry.mask_profile(cfg33(), mask, f).items():
                profiled[fmt_index_set(ts)] += n
            assert {name: n for name, (_, n) in listed.items()} == {name: profiled[name] for name in listed}
            assert sum(subset_profile(pl, f)) == sum(profiled.values()) == file_bits

    def test_export_builds_the_partition_once(self, monkeypatch):
        # one family of C(4,2) = 6 transmitter sets per export, not one per partition line
        pl = place_decentralized(cfg44(), 600, seed=2)
        calls = []

        def spy(ground, size):
            calls.append((ground, size))
            return subsets(ground, size)

        monkeypatch.setattr(placement, "subsets", spy)
        text = pl.export_text()
        assert calls == [(4, 2)]
        assert text.count("tx-partition") == 6


def mark_bounded(draws) -> BaseException | None:
    """Run `_mark_one_behind` in a daemon thread and return what it raised; fail, not hang, if it never returns."""
    raised = []

    def call():
        try:
            placement._mark_one_behind(draws)
        except BaseException as exc:
            raised.append(exc)

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    return raised[0] if raised else None


class TestMarkOneBehind:
    """`_mark_one_behind` draws in the calling thread, marks in a one-worker executor, and always joins it."""

    def test_draws_stay_in_the_calling_thread_in_order(self):
        rows = np.zeros((3, 8), dtype=np.uint8)
        drawn = []

        def draws():
            for k, row in enumerate(rows):
                drawn.append((k, threading.get_ident()))
                yield row, 1 << k, np.array([k, k + 4])

        placement._mark_one_behind(draws())
        assert drawn == [(k, threading.get_ident()) for k in range(3)]
        assert rows.tolist() == [[1, 0, 0, 0, 1, 0, 0, 0], [0, 2, 0, 0, 0, 2, 0, 0], [0, 0, 4, 0, 0, 0, 4, 0]]

    def test_marking_error_reaches_the_caller(self):
        rows = np.zeros((4, 8), dtype=np.uint8)
        rows.setflags(write=False)
        before = threading.active_count()
        err = mark_bounded((row, 1, np.arange(3)) for row in rows)
        assert isinstance(err, ValueError) and "read-only" in str(err)
        assert threading.active_count() == before

    def test_draw_error_reaches_the_caller(self):
        rows = np.zeros((2, 8), dtype=np.uint8)

        def draws():
            yield rows[0], 1, np.arange(2)
            raise RuntimeError("draw failed")

        before = threading.active_count()
        err = mark_bounded(draws())
        assert isinstance(err, RuntimeError) and str(err) == "draw failed"
        assert threading.active_count() == before
        assert rows[0].tolist() == [1, 1, 0, 0, 0, 0, 0, 0]  # a draw handed over before the error is marked

    def test_interrupt_while_drawing_reaches_the_caller(self):
        rows = np.zeros((2, 8), dtype=np.uint8)

        def draws():
            yield rows[0], 2, np.arange(3)
            raise KeyboardInterrupt

        before = threading.active_count()
        err = mark_bounded(draws())
        assert isinstance(err, KeyboardInterrupt)
        assert threading.active_count() == before
        assert rows[0].tolist() == [2, 2, 2, 0, 0, 0, 0, 0]  # the draw handed over before the interrupt is marked

    def test_interrupt_while_marking_reaches_the_caller(self):
        class InterruptingRow:
            def __getitem__(self, picked):
                return np.zeros(len(picked), dtype=np.uint8)

            def __setitem__(self, picked, value):
                raise KeyboardInterrupt

        before = threading.active_count()
        err = mark_bounded(iter([(InterruptingRow(), 1, np.arange(2))]))
        assert isinstance(err, KeyboardInterrupt)
        assert threading.active_count() == before

    @pytest.mark.parametrize("read_only", [None, 0, 7, 399])
    def test_many_draws_with_a_short_switch_interval(self, read_only):
        # a thread switch forced every microsecond: every bit is set once, and an error at any draw
        # reaches the caller without leaving it blocked
        rng = np.random.default_rng(read_only)
        rows = np.zeros((400, 64), dtype=np.uint16)
        draws = [(row, 1 << k % 16, rng.choice(64, size=20, replace=False)) for k, row in enumerate(rows)]
        expected = rows.copy()
        for k, (_, bit, picked) in enumerate(draws):
            expected[k, picked] |= bit
        if read_only is not None:
            draws[read_only][0].setflags(write=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            err = mark_bounded(iter(draws))
        finally:
            sys.setswitchinterval(interval)
        if read_only is None:
            assert err is None and np.array_equal(rows, expected)
        else:
            assert isinstance(err, ValueError)

    def test_no_thread_outlives_placement(self):
        before = threading.active_count()
        place_decentralized(cfg44(), 20_000, seed=1)
        assert threading.active_count() == before


class TestSubsetProfile:
    def test_conserves_bits(self):
        cfg = cfg33()
        pl = place_decentralized(cfg, 999, seed=3)
        for f in range(3):
            assert sum(subset_profile(pl, f)) == 999

    def test_zero_cache_all_uncached(self):
        cfg = cfg33(m_r=0, m_t=3)
        pl = place_decentralized(cfg, 300, seed=4)
        assert subset_profile(pl, 0) == [300] + [0] * 7

    def test_class_count_3x3(self):
        cfg = cfg33()
        pl = place_decentralized(cfg, 10**5, seed=6)
        mask = per_entry.decentralized_mask(cfg, 10**5, seed=6)
        profile = per_entry.mask_profile(cfg, mask, 0)
        # at this size every class, C(3,2) tx partitions x 2^3 caching receiver sets, is populated
        assert len(profile) == binomial(3, 2) * 2**3 == 24
        assert subset_profile(pl, 0) == per_entry.by_receiver_code(profile, 3)
        assert all(subset_profile(pl, 0))

    @pytest.mark.parametrize("k_r", [3, 8, 9])
    def test_matches_per_bit_classification(self, k_r):
        # 8 receivers fill a one-byte code; 9 need a wider one
        cfg = NetworkConfig(k_t=3, k_r=k_r, n_files=3, m_t=1, m_r=1)
        pl = place_decentralized(cfg, 500, seed=k_r)
        tx_sets, psize = tx_partition(cfg), pl.partition_size
        for f in range(cfg.n_files):
            expected: dict = {}
            for b in range(pl.file_bits):
                rx = frozenset(j for j in range(k_r) if pl.rx_mask[j, f, b])
                key = (tx_sets[b // psize], rx)
                expected[key] = expected.get(key, 0) + 1
            assert subset_profile(pl, f) == per_entry.by_receiver_code(expected, k_r)
            # the partition layout: each partition's slice of the codes holds that partition's classes
            for p, ts in enumerate(tx_sets):
                sliced = np.bincount(pl.rx_codes[f, p * psize : (p + 1) * psize], minlength=1 << k_r)
                assert per_entry.by_receiver_code({k: n for k, n in expected.items() if k[0] == ts}, k_r) == sliced.tolist()

    @pytest.mark.parametrize("file_bits", [999, 1000, 30_000])
    @pytest.mark.parametrize("m_r", [Fraction(0), Fraction(5, 4), Fraction(3)])
    @pytest.mark.parametrize("k_r", range(1, 10))
    def test_codes_match_mask_reference(self, k_r, m_r, file_bits):
        # 3 partitions: 999 bits split evenly, 1000 leave the last one short; 9 receivers need a 16-bit code;
        # past 10,000 bits numpy draws by a partial shuffle instead of Floyd's algorithm
        cfg = NetworkConfig(k_t=3, k_r=k_r, n_files=3, m_t=2, m_r=m_r)
        pl = place_decentralized(cfg, file_bits, seed=k_r)
        mask = per_entry.decentralized_mask(cfg, file_bits, seed=k_r)
        assert pl.rx_codes.dtype == (np.uint16 if k_r > 8 else np.uint8)
        assert np.array_equal(pl.rx_mask, mask)
        for f in range(cfg.n_files):
            assert subset_profile(pl, f) == per_entry.by_receiver_code(per_entry.mask_profile(cfg, mask, f), k_r)

    @pytest.mark.parametrize("k_r", [1, 3, 8, 9])
    @pytest.mark.parametrize(
        "row",
        [[0], [1], [0, 1], [1, 1], [1, 0, 1], [0, 1, 1, 0], "all-even", "all-odd", "some-even", "some-odd"],
        ids=str,
    )
    def test_equals_a_plain_bincount(self, k_r, row):
        # rows of length 1, 2, odd and even, with every code present or with codes missing; the second
        # file's row starts at an odd byte offset when F is odd
        if isinstance(row, str):
            kind, row = row, list(range(1 << k_r)) if row.startswith("all") else list(range(1, 1 << k_r, 3))
            row = row * 2 + row[-1:] * kind.endswith("odd")
            assert len(row) % 2 == kind.endswith("odd")
        codes = np.array([row[::-1], row], dtype=np.uint16 if k_r > 8 else np.uint8)
        codes.setflags(write=False)
        cfg = NetworkConfig(k_t=3, k_r=k_r, n_files=2, m_t=1, m_r=1)
        pl = placement.DecentralizedPlacement(cfg=cfg, seed=0, rx_codes=codes)
        for f in range(2):
            profile = subset_profile(pl, f)
            assert profile == np.bincount(codes[f], minlength=1 << k_r).tolist()
            assert len(profile) == 1 << k_r and sum(profile) == len(row)

    def test_refuses_a_file_outside_the_library(self):
        pl = place_decentralized(cfg33(), 30, seed=1)
        for f in (-1, 3):
            with pytest.raises(ValueError, match="outside"):
                subset_profile(pl, f)

    def test_binomial_concentration(self):
        # empirical class sizes stay within 3 sigma of the i.i.d. caching law, per partition slice of the codes
        cfg = cfg33()
        pl = place_decentralized(cfg, 10**6, seed=11)
        q = math.floor(pl.file_bits / 3) / pl.file_bits  # realized per-bit caching probability
        psize, total = pl.partition_size, np.zeros(8, dtype=np.int64)
        for p, ts in enumerate(tx_partition(cfg)):
            part = np.bincount(pl.rx_codes[0, p * psize : (p + 1) * psize], minlength=8)
            total += part
            for code, n in enumerate(part.tolist()):
                w = code.bit_count()
                prob = q**w * (1 - q) ** (3 - w)
                mean = part.sum() * prob
                sigma = math.sqrt(part.sum() * prob * (1 - prob))
                assert abs(n - mean) <= 3 * sigma, (ts, code, n, mean)
        assert subset_profile(pl, 0) == total.tolist()


def test_expected_fraction_values():
    cfg = cfg33()
    assert expected_fraction(cfg, 0) == Fraction(8, 27)
    assert expected_fraction(cfg, 1) == Fraction(4, 27)
    assert expected_fraction(cfg, 3) == Fraction(1, 27)


def test_expected_fraction_normalizes():
    for m_r in (0, 1, 2, Fraction(1, 2)):
        cfg = cfg33(m_r=m_r)
        total = sum(binomial(3, t) * expected_fraction(cfg, t) for t in range(4))
        assert total == 1


def test_expected_fraction_domain():
    with pytest.raises(ValueError):
        expected_fraction(cfg33(), 4)
