from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cachenet.model import (
    ConfigurationError,
    DemandVector,
    NetworkConfig,
    binomial,
    fmt_decimal,
    fmt_index_set,
    fmt_rational,
    parse_index_set,
    subsets,
)


@pytest.mark.parametrize(
    "kt,mt,kr,mr,n,expected",
    [
        (4, 2, 4, 1, 4, (Fraction(2), Fraction(1))),
        (3, 2, 3, 1, 3, (Fraction(2), Fraction(1))),
        (2, 0, 2, 2, 2, (Fraction(0), Fraction(2))),
    ],
)
def test_derive_t_params(kt, mt, kr, mr, n, expected):
    cfg = NetworkConfig(k_t=kt, k_r=kr, n_files=n, m_t=mt, m_r=mr)
    assert (cfg.t_t, cfg.t_r) == expected
    assert cfg.t_t_integral and cfg.t_r_integral


def test_t_params_non_integral():
    cfg = NetworkConfig(k_t=3, k_r=3, n_files=4, m_t=2, m_r=1)
    assert cfg.t_t == Fraction(3, 2)
    assert not cfg.t_t_integral
    assert cfg.t_r == Fraction(3, 4)
    assert not cfg.t_r_integral


def test_t_params_bounds():
    # 0 <= t_T <= K_T and 0 <= t_R <= K_R at every integral corner
    for k_t in (2, 3, 4):
        for k_r in (2, 3, 4):
            n = k_t * k_r
            for t_t in range(k_t + 1):
                for t_r in range(k_r + 1):
                    m_t = Fraction(t_t * n, k_t)
                    m_r = Fraction(t_r * n, k_r)
                    if k_t * m_t + m_r < n:
                        continue
                    cfg = NetworkConfig(k_t=k_t, k_r=k_r, n_files=n, m_t=m_t, m_r=m_r)
                    assert cfg.t_t == t_t and cfg.t_r == t_r


@pytest.mark.parametrize("n,k,expected", [(4, 2, 6), (4, 1, 4), (3, 2, 3), (5, 0, 1), (5, 5, 1)])
def test_binomial(n, k, expected):
    assert binomial(n, k) == expected


@pytest.mark.parametrize("n,k", [(3, 4), (2, -1)])
def test_binomial_domain(n, k):
    with pytest.raises(ValueError):
        binomial(n, k)


def test_subsets_lexicographic():
    assert subsets(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert [fmt_index_set(s) for s in subsets(3, 2)] == ["{1,2}", "{1,3}", "{2,3}"]
    four = subsets(4, 2)
    assert len(four) == 6 and four[0] == (0, 1) and four[-1] == (2, 3)
    assert subsets(2, 0) == ((),)


def test_subsets_domain():
    with pytest.raises(ValueError):
        subsets(2, 3)


def test_subsets_properties():
    for ground in range(6):
        for size in range(ground + 1):
            ss = subsets(ground, size)
            assert len(ss) == binomial(ground, size)
            assert len(set(ss)) == len(ss)
            assert all(len(s) == size for s in ss)
            assert list(ss) == sorted(ss)


def test_fraction_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        assert a.denominator > 0


def test_config_feasibility():
    with pytest.raises(ConfigurationError):
        NetworkConfig(k_t=2, k_r=2, n_files=4, m_t=1, m_r=1)  # 2*1+1 < 4
    with pytest.raises(ConfigurationError):
        NetworkConfig(k_t=2, k_r=2, n_files=2, m_t=-1, m_r=2)
    with pytest.raises(ConfigurationError):
        NetworkConfig(k_t=0, k_r=2, n_files=2, m_t=1, m_r=1)


@pytest.mark.parametrize("field", ["k_t", "k_r", "n_files"])
def test_config_rejects_bool_integers(field):
    values = dict(k_t=2, k_r=2, n_files=1, m_t=1, m_r=1)
    values[field] = True
    with pytest.raises(ConfigurationError):
        NetworkConfig(**values)


@pytest.mark.parametrize("field", ["m_t", "m_r"])
def test_cache_sizes_are_exact_numbers(field):
    values = dict(k_t=2, k_r=2, n_files=2, m_t=1, m_r=1)
    for value, message in ((True, "expected a number, got True"), (0.5, "expected an exact number, got float")):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            NetworkConfig(**{**values, field: value})
    for value in (2, Fraction(3, 2), "3/2"):
        assert getattr(NetworkConfig(**{**values, field: value}), field) == Fraction(value)


def test_config_clamps_to_library():
    cfg = NetworkConfig(k_t=2, k_r=2, n_files=2, m_t=5, m_r=7)
    assert cfg.m_t == 2 and cfg.m_r == 2


def test_demand_vector():
    cfg = NetworkConfig(k_t=4, k_r=4, n_files=4, m_t=2, m_r=1)
    d = DemandVector.worst_case(cfg)
    assert d.d == (0, 1, 2, 3) and len(set(d.d)) == len(d.d)
    d.validate(cfg)
    with pytest.raises(ConfigurationError):
        DemandVector((0, 1, 2)).validate(cfg)
    with pytest.raises(ConfigurationError):
        DemandVector((0, 1, 2, 9)).validate(cfg)
    with pytest.raises(ConfigurationError):
        DemandVector((0, True, 2, 3)).validate(cfg)


def test_demand_wraps_when_more_receivers_than_files():
    cfg = NetworkConfig(k_t=2, k_r=3, n_files=2, m_t=1, m_r=1)
    d = DemandVector.worst_case(cfg)
    assert d.d == (0, 1, 0) and len(set(d.d)) < len(d.d)


def test_formatting():
    assert fmt_rational(Fraction(24, 7)) == "24/7"
    assert fmt_rational(Fraction(3)) == "3"
    assert fmt_decimal(Fraction(1, 4)) == "0.25"
    assert fmt_index_set(frozenset()) == "{}"
    assert parse_index_set("{1,3}") == frozenset({0, 2})
    assert parse_index_set("{}") == frozenset()
    with pytest.raises(ValueError):
        parse_index_set("1,3")


@pytest.mark.parametrize("text", ["{0}", "{1,0}", "{0,2,3}"])
def test_parse_index_set_rejects_zero(text):
    # 1-based text: index 0 would become -1, which numpy wraps to the last receiver
    with pytest.raises(ValueError, match="below 1"):
        parse_index_set(text)


@pytest.mark.parametrize("text", ["{1,,2}", "{,}", "{1,}", "{,1}", "{ 1}"])
def test_parse_index_set_rejects_empty_entries(text):
    with pytest.raises(ValueError) as exc:
        parse_index_set(text)
    assert str(exc.value) == f"malformed index set {text!r}"


@pytest.mark.parametrize("text", ["{1,1,2}", "{2,1,2}", "{3,03}"])
def test_parse_index_set_rejects_repeated_indices(text):
    # a repeat is never merged away silently
    with pytest.raises(ValueError) as exc:
        parse_index_set(text)
    assert str(exc.value) == f"index set {text!r} repeats an index"
