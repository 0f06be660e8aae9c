import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unitcat import rng as rng_module
from unitcat.rng import SplitMix64, derive_seed, fill_normal, fnv1a64, splitmix64_block

# one block of fill_normal draws 2 * _NORMAL_BLOCK stream outputs
DRAWS_PER_BLOCK = 2 * rng_module._NORMAL_BLOCK
SEEDS = [0, 1, 2**63 + 1, 2**64 - 1]


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


@pytest.mark.parametrize("seed", SEEDS)
def test_block_equals_the_sequential_stream(seed):
    stream = SplitMix64(seed)
    want = [stream.next_u64() for _ in range(2 * DRAWS_PER_BLOCK + 3)]
    assert splitmix64_block(seed, 0, len(want)).tolist() == want
    # stretches that start and end on either side of a block boundary
    for start, n in ((0, 1), (DRAWS_PER_BLOCK - 2, 5), (DRAWS_PER_BLOCK + 1, DRAWS_PER_BLOCK)):
        assert splitmix64_block(seed, start, n).tolist() == want[start : start + n], (start, n)
    assert len(splitmix64_block(seed, 7, 0)) == 0


def _normal_reference(seed, n, scale):
    """fill_normal's definition, one pair at a time in Python floats."""
    stream = SplitMix64(seed)
    out = []
    while len(out) < n:
        u = ((stream.next_u64() >> 11) + 1) * 2.0**-53
        t = math.tan((stream.next_u64() >> 11) * (math.pi * 2.0**-53))
        r = scale * math.sqrt(-2.0 * math.log(u)) / (1.0 + t * t)
        out += [r * (1.0 - t * t), r * 2.0 * t]
    return out[:n]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n", [1, 2, 7, DRAWS_PER_BLOCK, DRAWS_PER_BLOCK + 1, 2 * DRAWS_PER_BLOCK + 3]
)
def test_fill_normal_follows_box_muller_on_the_stream(seed, n):
    out = np.empty(n)
    fill_normal(out, seed, 0.5)
    # numpy's vectorized log and tan may differ from math's in the last bits
    assert np.allclose(out, _normal_reference(seed, n, 0.5), rtol=1e-12, atol=1e-14)


def test_fill_normal_moments():
    out = np.empty(2**20 + 1)
    fill_normal(out, derive_seed(3, "moments"))
    mean, std = out.mean(), out.std()
    kurtosis = float(np.mean((out - mean) ** 4) / std**4)
    # about 5, 4 and 6 standard errors of each estimate at this size
    assert abs(mean) < 0.005
    assert abs(std - 1.0) < 0.003
    assert abs(kurtosis - 3.0) < 0.03


def test_float32_fill_is_the_float64_fill_rounded_once():
    wide, narrow = np.empty((300, 301)), np.empty((300, 301), np.float32)
    fill_normal(wide, 11, 1 / math.sqrt(301))
    fill_normal(narrow, 11, 1 / math.sqrt(301))
    assert np.array_equal(narrow, wide.astype(np.float32))


@pytest.mark.parametrize("out", [np.empty((4, 6)).T, np.empty(8, dtype=np.int64)])
def test_fill_normal_refuses_arrays_it_cannot_fill_in_place(out):
    with pytest.raises(ValueError, match="C-contiguous float"):
        fill_normal(out, 1)
