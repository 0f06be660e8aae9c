from collections import Counter

from hypothesis import given, strategies as st

from unitcat.rng import SplitMix64, derive_seed, fnv1a64


def test_generator_is_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


@given(st.integers(min_value=1, max_value=1000))
def test_next_below_respects_bound(n):
    rng = SplitMix64(n)
    for _ in range(50):
        assert 0 <= rng.next_below(n) < n


def test_next_below_rejects_non_positive():
    import pytest

    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)


def test_next_below_is_roughly_uniform():
    rng = SplitMix64(99)
    counts = Counter(rng.next_below(5) for _ in range(50000))
    for v in range(5):
        assert abs(counts[v] / 50000 - 0.2) < 0.02


def test_fnv1a64_known_value():
    # reference value of the 64-bit FNV-1a of "a"
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"") == 0xCBF29CE484222325


def test_derive_seed_sensitive_to_every_part():
    base = derive_seed(5, "spk1", 0)
    assert derive_seed(5, "spk1", 1) != base
    assert derive_seed(5, "spk2", 0) != base
    assert derive_seed(6, "spk1", 0) != base


def test_derive_seed_order_matters():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
