"""Deterministic 64-bit random streams.

Every random decision in the toolkit flows from one user-facing seed through
``derive_seed``, so independent work items (one per speaker, per utterance,
per augmentation copy) get independent streams, and each item's output can
be reproduced on its own, whatever else is processed with it.

The generator is splitmix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014); the string hash is FNV-1a.
Both are fixed algorithms, so streams are stable across platforms and
Python versions. splitmix64's n-th state is the seed plus n times a fixed
odd constant, so ``splitmix64_block`` computes any stretch of a stream in
one vectorized pass, and ``fill_normal`` turns a stream into Gaussian
draws (Box and Muller, 1958) for the TDNN's initial weights; the toolkit
uses no other generator.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 output scrambler."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a child seed from ``base`` and an ordered list of labels.

    Labels may be ints or strings; the derivation is order-sensitive.
    """
    h = base & _MASK64
    for part in parts:
        v = fnv1a64(part.encode("utf-8")) if isinstance(part, str) else part & _MASK64
        h = _mix((h + _GOLDEN) & _MASK64 ^ v)
    return h


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), exact (mask-and-reject)."""
        if n <= 0:
            raise ValueError(f"next_below requires n >= 1, got {n}")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v


def _mix_block(z: np.ndarray, tmp: np.ndarray) -> None:
    """_mix applied in place to every element of the uint64 array z; tmp is
    scratch of z's shape."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= 0x94D049BB133111EB
    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def splitmix64_block(seed: int, start: int, n: int) -> np.ndarray:
    """Outputs start, ..., start + n - 1 (counting from 0) of
    ``SplitMix64(seed).next_u64()``, as a uint64 array."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += seed & _MASK64
    _mix_block(z, np.empty_like(z))
    return z


# pairs per block of fill_normal. Its five buffers (256 KB in all) are
# allocated once per call: bench train's peak RSS read 54.9-55.1 MB at this
# size against 55.2-56.0 MB at 1 << 14, and fresh arrays for every block
# cost about 2 MB more
_NORMAL_BLOCK = 1 << 12


def fill_normal(out: np.ndarray, seed: int, scale: float = 1.0) -> None:
    """Fill the C-contiguous float array out with independent draws from
    N(0, scale**2) by Box-Muller on the stream SplitMix64(seed), computed
    in float64 and rounded once into out's dtype.

    Pair i takes its radius scale * sqrt(-2 ln u) from output 2i of the
    stream and its angle 2 pi v from output 2i + 1, where u in (0, 1] and
    v in [0, 1) are the outputs' top 53 bits; its cosine term goes to
    out.flat[2i] and its sine term to out.flat[2i + 1], which an odd size
    drops. Both terms come from t = tan(pi v), as (1 - t^2) / (1 + t^2)
    and 2t / (1 + t^2): numpy's float64 tan is vectorized and its sin and
    cos are not, which made sin and cos about five times slower."""
    if not (out.flags.c_contiguous and np.issubdtype(out.dtype, np.floating)):
        raise ValueError(f"fill_normal needs a C-contiguous float array, got {out.dtype}")
    flat = out.reshape(-1)
    n = flat.size
    pairs = (n + 1) // 2
    steps = np.arange(1, 2 * min(pairs, _NORMAL_BLOCK) + 1, dtype=np.uint64)
    steps *= _GOLDEN
    z, tmp = np.empty_like(steps), np.empty_like(steps)
    rad, tan = np.empty(len(steps) // 2), np.empty(len(steps) // 2)
    for a in range(0, pairs, _NORMAL_BLOCK):
        k = min(_NORMAL_BLOCK, pairs - a)
        r, t, zk = rad[:k], tan[:k], z[: 2 * k]
        np.add(steps[: 2 * k], (seed + 2 * a * _GOLDEN) & _MASK64, out=zk)
        _mix_block(zk, tmp[: 2 * k])
        zk >>= 11
        np.multiply(zk[0::2], 2.0**-53, out=r)
        r += 2.0**-53
        np.multiply(zk[1::2], math.pi * 2.0**-53, out=t)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        r *= scale
        np.tan(t, out=t)
        # the pairs' terms, in zk's bytes, which the draws no longer need
        terms = zk.view(np.float64)
        cos, sin = terms[0::2], terms[1::2]
        np.multiply(t, t, out=cos)
        np.add(cos, 1.0, out=sin)
        r /= sin
        np.subtract(1.0, cos, out=cos)
        cos *= r
        np.multiply(t, 2.0, out=sin)
        sin *= r
        flat[2 * a : 2 * (a + k)] = terms[: n - 2 * a]
